#!/usr/bin/env python3
"""Benchmark command for dcfrag: scheme-comparison sweeps, end to end and per layer.

Run from the root of a checkout (stdlib only, single-threaded):

    python3 perfbench/run.py --workload clos64-cat3 --seed 0 --seconds 30 --trace 0

--trace 0 prints the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones from a separate traced run. --profile N also writes the top N
cProfile rows of one extra sweep to perfbench/out/. The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics; the exit code is 0 only when every output matched its golden digest.
See perfbench/README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("tree64-cat1", "clos64-cat3", "clos64-cat3-overload")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--profile", type=int, default=0, metavar="N",
                        help="also dump the top N cProfile rows of one sweep")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    src = ROOT / "src"
    if not (src / "dcfrag" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"perfbench: no dcfrag sources under {src} (run from a full checkout)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import bench  # imports dcfrag from this checkout's src/

    return bench.run(args, json.loads(spec_path.read_text()))


if __name__ == "__main__":
    sys.exit(main())
