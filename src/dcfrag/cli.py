"""Command-line front end: reaches, metrics, place and compare subcommands."""

from __future__ import annotations

import argparse
import sys

from . import fixtures
from .harness import (ExperimentConfig, compare_schemes, resolve_topology,
                      run_experiment)
from .metrics import MultiRequest, format_record, network_rrf, rrf_index_local
from .placement import SCHEMES, SchemeConfig, PlacementState
from .topology import TopologyError
from .workload import WorkloadError

RECORD_HEADER = "resource,size_cpu,size_mem,size_nw,T,N,index"


class _Parser(argparse.ArgumentParser):
    """argparse that exits 1 (not 2) on usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _parse_kv(text: str, what: str) -> dict:
    out = {}
    for part in text.split(","):
        if not part:
            continue
        if "=" not in part:
            raise ValueError(f"bad {what} component {part!r}, expected key=value")
        key, value = (x.strip() for x in part.split("=", 1))
        if key in out:
            raise ValueError(f"duplicate {what} key {key!r}")
        out[key] = value
    return out


def _number(fields: dict, key: str, what: str, kind=int):
    """Pop fields[key] parsed as kind; a bad value names the option and key."""
    value = fields.pop(key)
    try:
        return kind(value)
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise ValueError(f"{what} {key} must be {noun}, got {value!r}") from None


def _parse_request(text: str) -> MultiRequest:
    fields = _parse_kv(text, "--request")
    unknown = set(fields) - {"cpu", "mem", "nw"}
    if unknown:
        raise ValueError(f"unknown --request keys {sorted(unknown)}")
    return MultiRequest(**{k: _number(fields, k, "--request", float) for k in list(fields)})


def _workload_source(args):
    """(workload source, generated category); the category is None for a file."""
    if getattr(args, "workload", None):
        return args.workload, None
    if getattr(args, "generate", None):
        fields = _parse_kv(args.generate, "--generate")
        for key in ("category", "apps"):
            if key not in fields:
                raise ValueError(f"--generate needs {key}=N, e.g. category=1,apps=30")
        category = _number(fields, "category", "--generate")
        apps = _number(fields, "apps", "--generate")
        seed = _number(fields, "seed", "--generate") if "seed" in fields else args.seed
        if fields:
            raise ValueError(f"unknown --generate keys {sorted(fields)}")
        return fixtures.category_spec(category, apps, seed), category
    raise ValueError("one of --workload or --generate is required")


def build_parser() -> _Parser:
    parser = _Parser(prog="dcfrag",
                     description="Data-center fragmentation metrics and placement runs")
    sub = parser.add_subparsers(dest="command", required=True)

    def topo_arg(p):
        p.add_argument("--topology", required=True,
                       help=f"topology file or one of {', '.join(fixtures.NAMED_TOPOLOGIES)}")

    p_reaches = sub.add_parser("reaches", help="print the reach partition")
    topo_arg(p_reaches)

    p_metrics = sub.add_parser("metrics", help="fragmentation/RRF for one request")
    topo_arg(p_metrics)
    p_metrics.add_argument("--request", required=True,
                           help="normalized sizes, e.g. cpu=0.1,mem=0.05,nw=0.02")

    for name, about in (("place", "run one scheme"), ("compare", "run several schemes")):
        p = sub.add_parser(name, help=about)
        topo_arg(p)
        p.add_argument("--workload", help="workload file (JSON)")
        p.add_argument("--generate", help="e.g. category=1,apps=30[,seed=7]")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--request", help="RRF request; defaults to the category preset")
        p.add_argument("--out", help="result file path")
        p.add_argument("--stop", choices=("first-failure", "exhaust"),
                       default="exhaust")
        if name == "place":
            p.add_argument("--scheme", choices=SCHEMES, default="UNIFIED")
        else:
            p.add_argument("--scheme", action="append", choices=SCHEMES,
                           help="repeatable; defaults to all three")
    return parser


def _run_metrics(args) -> int:
    topology = resolve_topology(args.topology)
    state = PlacementState(topology)
    req = _parse_request(args.request)
    dims = req.nonzero_dims()
    if not dims:
        raise ValueError("--request needs at least one nonzero component")
    lines = [RECORD_HEADER]
    for kind in dims:
        report = network_rrf(state, req) if kind == "nw" else rrf_index_local(state, req, kind)
        lines.append(format_record(report, req))
    print("\n".join(lines))
    return 0


def _run_reaches(args) -> int:
    topology = resolve_topology(args.topology)
    for reach in topology.reaches:
        print(f"{reach.id}: hosts={','.join(reach.hosts)} "
              f"switches={','.join(reach.switches)}")
    return 0


def _experiment_config(args) -> ExperimentConfig:
    source, category = _workload_source(args)
    if args.request:
        request = _parse_request(args.request)
    elif category is not None:
        request = fixtures.category_rrf_request(category)
    else:
        raise ValueError("--request is required when loading a workload file")
    stop = "first-failure" if args.stop == "first-failure" else "exhaust-list"
    return ExperimentConfig(topology=args.topology, workload=source, seed=args.seed,
                            rrf_request=request, output_path=args.out, stop_policy=stop)


def _run_place(args) -> int:
    rows = run_experiment(_experiment_config(args), SchemeConfig(scheme=args.scheme))
    print(f"scheme={args.scheme} placed={rows[-1].apps_placed if rows else 0}")
    for row in rows:
        print(row.format())
    return 0


def _run_compare(args) -> int:
    cfg = _experiment_config(args)
    schemes = args.scheme or list(SCHEMES)
    result = compare_schemes(cfg, schemes)
    print(f"order={result.order_hash}")
    for entry in result.summary:
        print(f"scheme={entry['scheme']} placed={entry['apps_placed']} "
              f"rrf@{entry['checkpoint']}={entry['rrf_at_checkpoint']:.9f}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "reaches": _run_reaches,
        "metrics": _run_metrics,
        "place": _run_place,
        "compare": _run_compare,
    }
    try:
        return handlers[args.command](args)
    except (TopologyError, WorkloadError, ValueError) as exc:
        print(f"dcfrag: error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"dcfrag: i/o failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
