"""The benchmark's traced run still finds everything it wraps and calls.

perfbench/bench.py wraps public names of the program (the RRF phases,
`path_bandwidth`, `Topology.route`, `Topology.reach_paths`, the placement
state's snapshot and restore) and calls `place_application` with four
positional arguments. A change that renames or drops one of them makes every
sweep fail; this test runs one traced sweep so that shows up here too.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import bench  # noqa: E402  (needs perfbench/ on the path for its tracer import)


def test_traced_sweep_reports_every_declared_layer(tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "OUT_DIR", tmp_path)
    wl = bench.WORKLOADS["clos64-cat3"]
    golden, _ = bench.load_golden(wl.name)
    result = bench.measure_layers(wl, [28], golden)
    assert [s.problems for s in result.sweeps] == [[], []]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result.metrics) == {d["name"] for d in spec["per_layer"]}
