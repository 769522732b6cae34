#!/usr/bin/env python3
"""Record the golden compare-CSV digest and sweep time of every pool instance.

    python3 perfbench/record_golden.py [--workload NAME ...]

Run it only on a commit whose outputs are known good: the benchmark fails
every later run whose CSVs differ from these digests. Entries of workloads
not named are kept.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import bench  # noqa: E402  (needs src/ on the path)
from tracer import Tracer  # noqa: E402


def record(wl: bench.Workload) -> tuple[list[str], list[float]]:
    """Sweep every pool entry twice: its digest, which must repeat, and its
    faster sweep time, by which the benchmark stratifies its windows."""
    digests, costs = [], []
    for seed in range(bench.POOL):
        runs = []
        for _ in range(2):
            tracer, steps = Tracer(), []
            bench.attach_attempts(tracer, steps)
            try:
                runs.append(bench.sweep(wl, bench.set_up(wl, seed, []), tracer, steps, None))
            finally:
                tracer.close()
        problems = runs[0].problems + runs[1].problems
        if runs[0].digest != runs[1].digest:
            problems.append("two sweeps wrote different CSVs")
        if problems:
            raise SystemExit(f"{wl.name} instance {seed}: {problems}")
        digests.append(runs[0].digest)
        costs.append(round(min(r.wall_s for r in runs), 4))
        print(f"{wl.name} {seed} {digests[-1][:16]} {costs[-1]:.2f}s", flush=True)
    return digests, costs


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", choices=sorted(bench.WORKLOADS))
    names = parser.parse_args().workload or sorted(bench.WORKLOADS)
    fresh = {name: record(bench.WORKLOADS[name]) for name in names}
    # read late: another recorder may have written other workloads meanwhile
    doc = (json.loads(bench.GOLDEN_PATH.read_text()) if bench.GOLDEN_PATH.exists()
           else {"pool": bench.POOL, "csv_sha256": {}, "sweep_s": {}})
    for name, (digests, costs) in fresh.items():
        doc["csv_sha256"][name] = digests
        doc["sweep_s"][name] = costs
    doc["recorded_from"] = bench.environment()
    bench.GOLDEN_PATH.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
