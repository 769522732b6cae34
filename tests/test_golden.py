"""Pin `dcfrag compare` and `dcfrag place` CSVs to recorded sha256 digests.

Entry i of a benchmark workload's pool is exactly `dcfrag compare --generate
category=C,apps=N --seed i` on the category's fabric; its digest is read from
perfbench/golden.json. These are the cheapest entry of each workload, so a
change to placement or metrics output shows up in the tier-1 run, not only in
the benchmark. The `place` digests are fixed here: one per scheme, one of them
the README's command and one stopping at the first failure. The CSVs hold
no refusal text, so the compare entries' attempts are pinned as well: a
sha256 over every attempt's (scheme, app id, ok, failure).
"""

import hashlib
import json
from pathlib import Path

import pytest

from dcfrag import harness
from dcfrag.cli import main

GOLDEN = Path(__file__).resolve().parent.parent / "perfbench" / "golden.json"


COMPARE_ENTRIES = pytest.mark.parametrize("workload, topology, generate, seed", [
    ("clos64-cat3", "clos64-10g", "category=3,apps=64", 28),
    ("clos64-cat3-overload", "clos64-10g", "category=3,apps=128", 13),
    ("tree64-cat1", "tree64", "category=1,apps=64", 60),
])

# sha256 over the lines repr((scheme, app id, ok, failure)), one per attempt
# in the order the compare makes them; recorded at 39eefbb, before NETW
# checked a unit's hosts ahead of its hose
ATTEMPTS_SHA256 = {
    "clos64-cat3": "ea798b1662aa11fb58ab71fdfa3aa4088c45c3e87f03459b4810471b318811bf",
    "clos64-cat3-overload": "8c2048748c2c71b435e0b0e3089f2ea4ae3796a008e631a43d25b3f116ea2a37",
    "tree64-cat1": "df79240cb64601c1fc85c8d4455bea8fabba0b28552f4c37a321cecd30e614f0",
}


def _compare(topology, generate, seed, out):
    assert main(["compare", "--topology", topology, "--generate", generate,
                 "--seed", str(seed), "--stop", "exhaust", "--out", str(out)]) == 0


@COMPARE_ENTRIES
def test_compare_csv_matches_golden_digest(workload, topology, generate, seed,
                                           tmp_path, capsys):
    out = tmp_path / "compare.csv"
    _compare(topology, generate, seed, out)
    capsys.readouterr()
    golden = json.loads(GOLDEN.read_text())["csv_sha256"][workload][seed]
    assert hashlib.sha256(out.read_bytes()).hexdigest() == golden


@COMPARE_ENTRIES
def test_compare_attempts_match_recorded_digest(workload, topology, generate, seed,
                                                tmp_path, capsys, monkeypatch):
    lines, place = [], harness.place_application

    def recorded(state, app, config, reaches=None):
        out = place(state, app, config, reaches)
        lines.append(repr((config.scheme, app.id, out.ok, out.failure)))
        return out

    monkeypatch.setattr(harness, "place_application", recorded)
    _compare(topology, generate, seed, tmp_path / "compare.csv")
    capsys.readouterr()
    assert any("NETW" in line and "False" in line for line in lines)
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == ATTEMPTS_SHA256[workload]


@pytest.mark.parametrize("argv, digest", [
    ("--topology tree64 --generate category=1,apps=64 --seed 3 --scheme UNIFIED",
     "b370f9702a9bb3abfab98fd713f044ced680383dd84e62c20cae3400b2f5cf04"),
    ("--topology clos64-10g --generate category=3,apps=64 --seed 0 --scheme NETW",
     "30cf29feb6b3e09773f628004e17d2d02a4674fffbd399e642f938b44e3cf3fa"),
    ("--topology clos64-10g --generate category=3,apps=128 --seed 1 --scheme LOCAL "
     "--stop first-failure",
     "c3a77a7fa1ab0e982feeae2f35762db5cf8d96b1563ba241c4b60756a62a67f8"),
])
def test_place_csv_matches_recorded_digest(argv, digest, tmp_path, capsys):
    out = tmp_path / "place.csv"
    assert main(["place", *argv.split(), "--out", str(out)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
