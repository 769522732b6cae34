#!/usr/bin/env python3
"""Measure the memory a generated workload keeps, as tracemalloc counts it.

    python3 bench/footprint.py

For each category (1-3) at its perfbench pool size (64, 64 and 128
applications) and at 1,024 applications, the script generates
category_spec(category, apps, 0) and prints, as JSON, the bytes the
applications hold as generated and again after one three-scheme
`compare_schemes` over them on the category's 64-host fabric, measured
with the category's RRF request. It then writes the applications to a
workload file, with every NIC demand declared, and prints the bytes the
same applications hold when `load_workload` reads that file back. Each
figure is the traced size after a garbage collection, less the size
before the workload was generated or loaded; the fabric and the
compare's own state are dropped before the second reading, so only what
the compare left on the applications counts. One small compare per
category runs first, so caches the program fills once per process are
not counted.

For each category at its pool size it then prints each scheme's
placed-state bytes: one run on the category's 64-host fabric, placing
the shuffled applications of seed 0 and reading the RRF after each
success, as a harness run does. A state's bytes are what a garbage
collection frees when the state is dropped, before the next scheme runs:
its ledger, its free tables and its RRF memo, not the applications or
the fabric's own caches. Dict and object sizes
differ across Python versions, so the figures compare two trees on one
interpreter, not across interpreters. It imports dcfrag from this
checkout's src/ and uses the stdlib only.
"""

from __future__ import annotations

import argparse
import gc
import json
import platform
import sys
import tempfile
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIZES = ((1, 64), (2, 64), (3, 128), (1, 1024), (2, 1024), (3, 1024))
POOL_SIZES = SIZES[:3]
SCHEMES = ["UNIFIED", "LOCAL", "NETW"]


def traced() -> int:
    gc.collect()
    return tracemalloc.get_traced_memory()[0]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="bench/footprint.py",
                                     description=__doc__.split("\n")[0])
    parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    from dcfrag.fixtures import category_rrf_request, category_spec, category_topology
    from dcfrag.harness import ExperimentConfig, compare_schemes, shuffle_order
    from dcfrag.metrics import network_rrf
    from dcfrag.placement import (PlacementState, SchemeConfig, derive_netw_slots,
                                  place_application)
    from dcfrag.workload import generate_workload, load_workload

    def compare(category, apps):
        compare_schemes(ExperimentConfig(topology=category_topology(category), workload=apps,
                                         rrf_request=category_rrf_request(category)), SCHEMES)

    def placed(topology, apps, scheme, request):
        state = PlacementState(topology)
        slots = derive_netw_slots(topology, apps) if scheme == "NETW" else None
        config = SchemeConfig(scheme=scheme, netw_slots_per_host=slots)
        for app in shuffle_order(apps, 0):
            if place_application(state, app, config).ok:
                network_rrf(state, request)
        return state

    def write(apps, path):
        doc = {"apps": [
            {"id": a.id,
             "vms": [{"id": v.id, "cpu_mhz": v.demand.cpu, "mem_mb": v.demand.mem,
                      "nic_mbps": v.demand.nic} for v in a.vms],
             "edges": [{"a": x, "b": y, "mbps": bw} for (x, y), bw in a.traffic.items()]}
            for a in apps]}
        with open(path, "w") as fh:
            json.dump(doc, fh)

    tracemalloc.start()
    for category in (1, 2, 3):
        compare(category, generate_workload(category_spec(category, 8, 1)))
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "workload.json")
        for category, count in SIZES:
            spec = category_spec(category, count, 0)
            base = traced()
            apps = generate_workload(spec)
            generated = traced() - base
            compare(category, apps)
            rows.append({"category": category, "apps": count,
                         "vms": sum(len(a.vms) for a in apps),
                         "edges": sum(len(a.traffic) for a in apps),
                         "generated_bytes": generated,
                         "after_compare_bytes": traced() - base})
            write(apps, path)
            del apps
            base = traced()
            apps = load_workload(path, spec.reference)
            rows[-1]["loaded_bytes"] = traced() - base
            del apps
    states = []
    for category, count in POOL_SIZES:
        topology, request = category_topology(category), category_rrf_request(category)
        apps = generate_workload(category_spec(category, count, 0))
        row = {"category": category, "apps": count}
        for scheme in SCHEMES:
            state = placed(topology, apps, scheme, request)
            held = traced()
            del state
            row[f"{scheme}_bytes"] = held - traced()
        states.append(row)
    tracemalloc.stop()
    print(json.dumps({"python": platform.python_version(), "unit": "bytes",
                      "workloads": rows, "placed_states": states}, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
