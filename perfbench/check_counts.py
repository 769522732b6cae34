#!/usr/bin/env python3
"""Check that the traced run's counts repeat exactly across two processes.

    python3 perfbench/check_counts.py [--workload NAME ...] [--seed N]

Runs `perfbench/run.py --trace 1` twice per workload for one seed, with
different hash seeds, and compares the counts a later change may cite as
evidence. Exits 1 and names the metric when any count differs.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

from run import ROOT, WORKLOAD_NAMES

EXACT = ("topology.route.calls", "metrics.path_bandwidth.calls_per_rrf",
         "placement.snapshot.calls", "placement.best_sibling_reach.calls",
         *(f"placement.{s}.placed_ratio" for s in ("UNIFIED", "LOCAL", "NETW")))


def traced_counts(workload: str, seed: int, hash_seed: str) -> dict:
    done = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("run.py")), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
        env={**os.environ, "PYTHONHASHSEED": hash_seed})
    if done.returncode != 0:
        raise SystemExit(f"{workload}: traced run failed\n{done.stdout}{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return {name: result["metrics"][name]["value"] for name in EXACT}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    status = 0
    for workload in args.workload or WORKLOAD_NAMES:
        first = traced_counts(workload, args.seed, "1")
        second = traced_counts(workload, args.seed, "2")
        for name in EXACT:
            same = first[name] == second[name]
            status |= not same
            print(f"{workload} {name}: {first[name]!r} {'==' if same else '!='} "
                  f"{second[name]!r}")
    print("counts repeat exactly" if status == 0 else "COUNTS DIFFER")
    return status


if __name__ == "__main__":
    sys.exit(main())
