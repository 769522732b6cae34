"""Pin `dcfrag compare` CSVs to the digests recorded in perfbench/golden.json.

Entry i of a benchmark workload's pool is exactly `dcfrag compare --generate
category=C,apps=N --seed i` on the category's fabric. These are the cheapest
entry of each workload, so a change to placement or metrics output shows up
in the tier-1 run, not only in the benchmark.
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
