#!/usr/bin/env python3
"""Time one three-scheme comparison at a chosen fabric size; check its CSV.

    python3 bench/scale.py --hosts 256 --category 1 [--check]

The fabric is fixtures._category_fabric(category, H): category 1's tree in
racks of 4, the CLOS of categories 2 and 3 in pods of 16, each with the
category's host, link and oversubscription; at 64 hosts these are the
category's built-in fabrics.
The workload is H applications of category_spec(category, H, 0), offered in
the seed-0 shuffle and measured with the category's RRF request after every
success, as `dcfrag compare` does. The script prints the wall time of the
comparison and the sha256 of its CSV. With --check it exits 1 unless the
digest equals the one bench/scale_golden.json holds for (category, hosts).
It imports dcfrag from this checkout's src/ and uses the stdlib only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "bench" / "scale_golden.json"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="bench/scale.py", description=__doc__.split("\n")[0])
    parser.add_argument("--hosts", type=int, required=True)
    parser.add_argument("--category", type=int, choices=(1, 2, 3), required=True)
    parser.add_argument("--check", action="store_true",
                        help="compare the CSV's digest with bench/scale_golden.json")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    from dcfrag.fixtures import _category_fabric, category_rrf_request, category_spec
    from dcfrag.harness import ExperimentConfig, compare_schemes
    from dcfrag.topology import TopologyError

    try:
        topology = _category_fabric(args.category, args.hosts)
    except (ValueError, TopologyError) as exc:  # a size the fabric cannot take
        parser.error(f"--hosts: {exc}")
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "compare.csv"
        cfg = ExperimentConfig(topology=topology,
                               workload=category_spec(args.category, args.hosts, 0), seed=0,
                               rrf_request=category_rrf_request(args.category),
                               output_path=str(out))
        start = time.perf_counter()
        compare_schemes(cfg, ["UNIFIED", "LOCAL", "NETW"])
        seconds = time.perf_counter() - start
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
    key = f"category {args.category}, {args.hosts} hosts"
    print(f"{key}: {seconds:.2f} s, sha256 {digest}")
    if not args.check:
        return 0
    want = json.loads(GOLDEN.read_text())["digests"].get(key)
    if want is None:
        print(f"no digest recorded for {key} in {GOLDEN.name}", file=sys.stderr)
        return 1
    if want != digest:
        print(f"digest differs from {GOLDEN.name}: recorded {want}", file=sys.stderr)
        return 1
    print("matches the recorded digest")
    return 0


if __name__ == "__main__":
    sys.exit(main())
