"""Seeded experiment runner: shuffle, place sequentially, measure RRF.

A run shuffles its applications with a seed that is independent of the
scheme, places them one by one and appends a result row after every success;
compared schemes therefore consume the same order and their curves align
row for row. Output files are byte-deterministic for a given config.
"""

from __future__ import annotations

import hashlib
import logging
import os
import random
from dataclasses import dataclass, field, replace

from . import fixtures
from .metrics import MultiRequest, network_rrf
from .placement import (PlacementState, SchemeConfig, derive_netw_slots,
                        place_application)
from .topology import Topology, find_reaches, load_topology
from .workload import Application, WorkloadSpec, generate_workload, load_workload

log = logging.getLogger(__name__)

STOP_POLICIES = ("first-failure", "exhaust-list")

RESULT_HEADER = "apps_placed,placeable_requests,rrf_index"


@dataclass(frozen=True)
class ResultRow:
    apps_placed: int
    placeable_requests: int
    rrf_index: float

    def format(self) -> str:
        return f"{self.apps_placed},{self.placeable_requests},{self.rrf_index:.9f}"


@dataclass
class ExperimentConfig:
    """One placement run: where, what, how, and how to stop.

    topology may be a Topology, a built-in fixture name or a file path;
    workload may be a list of applications, a WorkloadSpec or a file path.
    """

    topology: Topology | str
    workload: list | WorkloadSpec | str
    scheme: SchemeConfig = field(default_factory=SchemeConfig)
    seed: int = 0
    rrf_request: MultiRequest = MultiRequest(cpu=0.1, mem=0.1, nw=0.1)
    output_path: str | None = None
    stop_policy: str = "exhaust-list"

    def __post_init__(self):
        if self.stop_policy not in STOP_POLICIES:
            raise ValueError(f"stop_policy must be one of {STOP_POLICIES}")
        if self.rrf_request.nw <= 0 or not self.rrf_request.is_multi():
            raise ValueError("rrf_request must be multidimensional with nw > 0")


@dataclass
class RunResult:
    scheme: str
    rows: list
    order_hash: str
    apps_placed: int


@dataclass
class ComparisonResult:
    order_hash: str
    runs: dict  # scheme name -> RunResult
    summary: list  # per-scheme dicts


def resolve_topology(source: Topology | str) -> Topology:
    if isinstance(source, Topology):
        return source
    if source in fixtures.NAMED_TOPOLOGIES:
        return fixtures.named_topology(source)
    if os.path.exists(source):
        return load_topology(source)
    raise ValueError(f"{source!r} is neither a built-in topology nor an existing file")


def resolve_workload(source, topology: Topology) -> list[Application]:
    if isinstance(source, WorkloadSpec):
        return generate_workload(source)
    if isinstance(source, str):
        return load_workload(source, topology.reference)
    return list(source)


def shuffle_order(apps: list[Application], seed: int) -> list[Application]:
    """The shared shuffled order for a seed; Fisher-Yates via random.shuffle."""
    order = list(apps)
    random.Random(seed).shuffle(order)
    return order


def order_hash(apps: list[Application]) -> str:
    return hashlib.sha256(",".join(a.id for a in apps).encode()).hexdigest()[:16]


def _run_sequence(topology: Topology, apps: list[Application], scheme: SchemeConfig,
                  rrf_request: MultiRequest, stop_policy: str) -> RunResult:
    state = PlacementState(topology)
    reaches = find_reaches(topology)
    if scheme.scheme == "NETW" and scheme.netw_slots_per_host is None:
        scheme = replace(scheme, netw_slots_per_host=derive_netw_slots(topology, apps))
    rows = []
    placed = 0
    for app in apps:
        outcome = place_application(state, app, scheme, reaches)
        if outcome.ok:
            placed += 1
            report = network_rrf(state, rrf_request, reaches)
            rows.append(ResultRow(placed, report.placeable_multi, report.index))
        elif stop_policy == "first-failure":
            break
    return RunResult(scheme=scheme.scheme, rows=rows,
                     order_hash=order_hash(apps), apps_placed=placed)


def run_experiment(cfg: ExperimentConfig) -> list[ResultRow]:
    """Place the shuffled workload and return one row per successful placement."""
    topology = resolve_topology(cfg.topology)
    apps = resolve_workload(cfg.workload, topology)
    order = shuffle_order(apps, cfg.seed)
    result = _run_sequence(topology, order, cfg.scheme, cfg.rrf_request, cfg.stop_policy)
    log.info("run scheme=%s seed=%d order=%s placed=%d",
             result.scheme, cfg.seed, result.order_hash, result.apps_placed)
    if cfg.output_path:
        _write_rows(cfg.output_path, result.rows)
    return result.rows


def compare_schemes(cfg: ExperimentConfig, schemes: list) -> ComparisonResult:
    """Run several schemes over identical cloned initial state and shuffle."""
    if len(schemes) < 2:
        raise ValueError("compare_schemes needs at least two schemes")
    configs = [s if isinstance(s, SchemeConfig) else SchemeConfig(scheme=s) for s in schemes]
    names = [c.scheme for c in configs]
    if len(set(names)) != len(names):
        raise ValueError(f"compare_schemes got duplicate scheme names: {names}")
    topology = resolve_topology(cfg.topology)
    apps = resolve_workload(cfg.workload, topology)
    order = shuffle_order(apps, cfg.seed)
    runs: dict[str, RunResult] = {}
    for scheme in configs:
        result = _run_sequence(topology, order, scheme, cfg.rrf_request, cfg.stop_policy)
        log.info("compare scheme=%s seed=%d order=%s placed=%d",
                 scheme.scheme, cfg.seed, result.order_hash, result.apps_placed)
        runs[scheme.scheme] = result

    checkpoint = min(r.apps_placed for r in runs.values())
    summary = []
    for name, result in runs.items():
        at_checkpoint = next(
            (row for row in result.rows if row.apps_placed == checkpoint), None)
        summary.append({
            "scheme": name,
            "apps_placed": result.apps_placed,
            "checkpoint": checkpoint,
            "placeable_at_checkpoint": at_checkpoint.placeable_requests if at_checkpoint else 0,
            "rrf_at_checkpoint": at_checkpoint.rrf_index if at_checkpoint else 1.0,
        })

    if cfg.output_path:
        lines = ["scheme," + RESULT_HEADER]
        for name in sorted(runs):
            lines.extend(f"{name},{row.format()}" for row in runs[name].rows)
        with open(cfg.output_path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
    return ComparisonResult(order_hash=order_hash(order), runs=runs, summary=summary)


def _write_rows(path: str, rows: list) -> None:
    with open(path, "w") as fh:
        fh.write(RESULT_HEADER + "\n")
        for row in rows:
            fh.write(row.format() + "\n")
