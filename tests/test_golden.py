"""Pin `dcfrag compare` and `dcfrag place` CSVs to recorded sha256 digests.

Entry i of a benchmark workload's pool is exactly `dcfrag compare --generate
category=C,apps=N --seed i` on the category's fabric; its digest is read from
perfbench/golden.json. These are the cheapest entry of each workload, so a
change to placement or metrics output shows up in the tier-1 run, not only in
the benchmark. The `place` digests are fixed here: one per scheme, one of them
the README's command and one stopping at the first failure.
"""

import hashlib
import json
from pathlib import Path

import pytest

from dcfrag.cli import main

GOLDEN = Path(__file__).resolve().parent.parent / "perfbench" / "golden.json"


@pytest.mark.parametrize("workload, topology, generate, seed", [
    ("clos64-cat3", "clos64-10g", "category=3,apps=64", 28),
    ("clos64-cat3-overload", "clos64-10g", "category=3,apps=128", 13),
    ("tree64-cat1", "tree64", "category=1,apps=64", 60),
])
def test_compare_csv_matches_golden_digest(workload, topology, generate, seed,
                                           tmp_path, capsys):
    out = tmp_path / "compare.csv"
    assert main(["compare", "--topology", topology, "--generate", generate,
                 "--seed", str(seed), "--stop", "exhaust", "--out", str(out)]) == 0
    capsys.readouterr()
    golden = json.loads(GOLDEN.read_text())["csv_sha256"][workload][seed]
    assert hashlib.sha256(out.read_bytes()).hexdigest() == golden


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
