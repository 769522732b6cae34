"""Seeded experiment runner: shuffle, place sequentially, measure RRF.

A run shuffles its applications with a seed that is independent of the
scheme, places them one by one and appends a result row after every success;
compared schemes therefore consume the same order and their curves align
row for row. `iter_attempts` is that loop without the rows: it yields the
live state after each attempt, so a consumer that keeps a state copies it.
Output files are byte-deterministic for a given config. Each scheme's run
logs one INFO line to "dcfrag.harness" when the process has imported
logging; this module does not import it, since a process without it has no
handler that could show the line.
"""

from __future__ import annotations

import hashlib
import os
import random
import sys
from dataclasses import KW_ONLY, dataclass, replace

from . import fixtures
from .metrics import MultiRequest, network_rrf
from .placement import (PlacementState, SchemeConfig, derive_netw_slots,
                        place_application)
from .topology import Topology, load_topology
from .workload import Application, WorkloadSpec, generate_workload, load_workload

STOP_POLICIES = ("first-failure", "exhaust-list")

RESULT_HEADER = "apps_placed,placeable_requests,rrf_index"


@dataclass(frozen=True)
class ResultRow:
    apps_placed: int
    placeable_requests: int
    rrf_index: float

    def format(self) -> str:
        return f"{self.apps_placed},{self.placeable_requests},{self.rrf_index:.9f}"


@dataclass(frozen=True)
class ExperimentConfig:
    """One placement run: where, what, in which order, and how to stop.

    topology may be a Topology, a built-in fixture name or a file path;
    workload may be a list of applications, a WorkloadSpec or a file path.
    rrf_request has no default; it and the fields after it are keyword-only.
    """

    topology: Topology | str
    workload: list | WorkloadSpec | str
    seed: int = 0
    _: KW_ONLY
    rrf_request: MultiRequest
    output_path: str | None = None
    stop_policy: str = "exhaust-list"

    def __post_init__(self):
        if self.stop_policy not in STOP_POLICIES:
            raise ValueError(f"stop_policy must be one of {STOP_POLICIES}")
        if self.rrf_request.nw <= 0 or len(self.rrf_request.nonzero_dims()) < 2:
            raise ValueError("rrf_request must be multidimensional with nw > 0")


@dataclass
class RunResult:
    rows: list  # one ResultRow per successful placement

    @property
    def apps_placed(self) -> int:
        return len(self.rows)


@dataclass
class ComparisonResult:
    order_hash: str
    runs: dict  # scheme name -> RunResult
    summary: list  # per-scheme dicts


def resolve_topology(source: Topology | str) -> Topology:
    if isinstance(source, Topology):
        return source
    if source in fixtures.NAMED_TOPOLOGIES:
        return fixtures.NAMED_TOPOLOGIES[source]()
    if os.path.exists(source):
        return load_topology(source)
    raise ValueError(f"{source!r} is neither an existing file nor a built-in topology: "
                     f"{tuple(fixtures.NAMED_TOPOLOGIES)}")


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


def iter_attempts(topology: Topology, apps: list[Application], scheme: SchemeConfig):
    """Place apps in order on one new state, lazily: yield (offered index, app,
    outcome, state) after each attempt. NETW's unset slots are derived from apps.
    The state is the live one, so a consumer that keeps it past a step copies it."""
    state = PlacementState(topology)
    if scheme.scheme == "NETW" and scheme.netw_slots_per_host is None:
        scheme = replace(scheme, netw_slots_per_host=derive_netw_slots(topology, apps))
    for index, app in enumerate(apps):
        yield index, app, place_application(state, app, scheme), state


def _run_sequence(topology: Topology, apps: list[Application], scheme: SchemeConfig,
                  rrf_request: MultiRequest, stop_policy: str) -> RunResult:
    rows = []
    for _, _, outcome, state in iter_attempts(topology, apps, scheme):
        if outcome.ok:
            report = network_rrf(state, rrf_request)
            rows.append(ResultRow(len(rows) + 1, report.placeable_multi, report.index))
        elif stop_policy == "first-failure":
            break
    return RunResult(rows=rows)


def _run(cfg: ExperimentConfig, schemes: list[SchemeConfig]) -> tuple[str, dict]:
    """Shuffle once, place that order with each scheme: (order hash, {scheme: RunResult})."""
    topology = resolve_topology(cfg.topology)
    apps = resolve_workload(cfg.workload, topology)
    order = shuffle_order(apps, cfg.seed)
    digest = order_hash(order)
    runs = {}
    for scheme in schemes:
        result = _run_sequence(topology, order, scheme, cfg.rrf_request, cfg.stop_policy)
        logging = sys.modules.get("logging")
        if logging is not None:
            logging.getLogger(__name__).info("run scheme=%s seed=%d order=%s placed=%d",
                                             scheme.scheme, cfg.seed, digest, result.apps_placed)
        runs[scheme.scheme] = result
    return digest, runs


def run_experiment(cfg: ExperimentConfig,
                   scheme: SchemeConfig = SchemeConfig()) -> list[ResultRow]:
    """Place the shuffled workload with one scheme; one row per successful placement."""
    _, runs = _run(cfg, [scheme])
    rows = runs[scheme.scheme].rows
    if cfg.output_path:
        _write(cfg.output_path, [RESULT_HEADER] + [row.format() for row in rows])
    return rows


def compare_schemes(cfg: ExperimentConfig, schemes: list) -> ComparisonResult:
    """Run several schemes over one shuffle; the summary reads each scheme's
    row at the checkpoint, the fewest applications any scheme placed."""
    if len(schemes) < 2:
        raise ValueError("compare_schemes needs at least two schemes")
    configs = [s if isinstance(s, SchemeConfig) else SchemeConfig(scheme=s) for s in schemes]
    names = [c.scheme for c in configs]
    if len(set(names)) != len(names):
        raise ValueError(f"compare_schemes got duplicate scheme names: {names}")
    digest, runs = _run(cfg, configs)
    checkpoint = min(r.apps_placed for r in runs.values())
    summary = []
    for name, result in runs.items():
        # row k holds apps_placed k + 1, so the checkpoint indexes its row
        row = result.rows[checkpoint - 1] if checkpoint else ResultRow(0, 0, 1.0)
        summary.append({"scheme": name, "apps_placed": result.apps_placed,
                        "checkpoint": checkpoint,
                        "placeable_at_checkpoint": row.placeable_requests,
                        "rrf_at_checkpoint": row.rrf_index})
    if cfg.output_path:
        _write(cfg.output_path, ["scheme," + RESULT_HEADER] + [
            f"{name},{row.format()}" for name in sorted(runs) for row in runs[name].rows])
    return ComparisonResult(order_hash=digest, runs=runs, summary=summary)


def _write(path: str, lines: list) -> None:
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
