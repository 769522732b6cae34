#!/usr/bin/env python3
"""Time one three-scheme comparison at a chosen fabric size; check its CSV.

    python3 bench/scale.py --hosts 256 --category 1 [--apps 512] [--check]

The fabric is fixtures.category_topology(category, H): category 1's tree in
racks of 4, the CLOS of categories 2 and 3 in pods of 16, each with the
category's host, link and oversubscription; at 64 hosts these are the
category's built-in fabrics.
The workload is N applications of category_spec(category, N, 0), N being
--apps (default H; at 2H about a third of the attempts are refused),
offered in the seed-0 shuffle and measured with the category's RRF request
after every success, as `dcfrag compare` does. The script prints the wall
time of the comparison, the sha256 of its CSV and the sha256 of its attempts
(the lines repr((scheme, app id, ok, failure)), one per attempt in order),
which pins the refusal texts the CSV does not hold. With --check it exits 1
unless the CSV digest equals the one bench/scale_golden.json holds for
(category, hosts), or for (category, hosts, apps) when N is not H, and,
where the file records one for that key, the attempts digest too.
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
    parser.add_argument("--apps", type=int, help="applications offered (default: --hosts)")
    parser.add_argument("--check", action="store_true",
                        help="compare the CSV's digest with bench/scale_golden.json")
    args = parser.parse_args(argv)
    apps = args.hosts if args.apps is None else args.apps
    if apps < 1:
        parser.error("--apps must be at least 1")

    sys.path.insert(0, str(ROOT / "src"))
    from dcfrag import harness
    from dcfrag.fixtures import category_rrf_request, category_spec, category_topology
    from dcfrag.harness import ExperimentConfig, compare_schemes

    attempts, place = [], harness.place_application

    def recorded(state, app, config, reaches=None):
        out = place(state, app, config, reaches)
        attempts.append(repr((config.scheme, app.id, out.ok, out.failure)))
        return out

    harness.place_application = recorded  # compare_schemes places through it

    try:
        topology = category_topology(args.category, args.hosts)
    except ValueError as exc:  # a size the fabric cannot take
        parser.error(f"--hosts: {exc}")
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "compare.csv"
        cfg = ExperimentConfig(topology=topology,
                               workload=category_spec(args.category, apps, 0), seed=0,
                               rrf_request=category_rrf_request(args.category),
                               output_path=str(out))
        start = time.perf_counter()
        compare_schemes(cfg, ["UNIFIED", "LOCAL", "NETW"])
        seconds = time.perf_counter() - start
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
    key = f"category {args.category}, {args.hosts} hosts"
    if apps != args.hosts:
        key += f", {apps} apps"
    attempts_digest = hashlib.sha256("\n".join(attempts).encode()).hexdigest()
    print(f"{key}: {seconds:.2f} s, sha256 {digest}, attempts sha256 {attempts_digest}")
    if not args.check:
        return 0
    golden = json.loads(GOLDEN.read_text())
    want = golden["digests"].get(key)
    if want is None:
        print(f"no digest recorded for {key} in {GOLDEN.name}", file=sys.stderr)
        return 1
    if want != digest:
        print(f"digest differs from {GOLDEN.name}: recorded {want}", file=sys.stderr)
        return 1
    want = golden["attempt_digests"].get(key)
    if want not in (None, attempts_digest):
        print(f"attempts digest differs from {GOLDEN.name}: recorded {want}", file=sys.stderr)
        return 1
    print("matches the recorded digest" if want is None else "matches the recorded digests")
    return 0


if __name__ == "__main__":
    sys.exit(main())
