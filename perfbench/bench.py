"""Scheme-comparison sweeps of dcfrag, timed end to end and per layer.

A sweep is one `harness.compare_schemes` call, the path `dcfrag compare`
runs: UNIFIED, LOCAL and NETW place the same shuffled application list with
stop policy exhaust-list, and the harness measures network RRF after every
successful placement. An attempt is one `place_application` call for one
offered application under one scheme, plus the `network_rrf` call the
harness makes right after it when the placement succeeds.

Inputs come from a pool of seeded instances per workload. Pool entry i is
what `dcfrag compare --generate category=C,apps=N --seed i` builds: the
category workload generated with seed i and shuffled with seed i. For each
entry golden.json holds the sha256 of its compare CSV, which every sweep
recomputes, and its sweep time, both recorded from the program before any
optimisation.

Everything is measured from outside the program: spans wrap its public
module attributes and methods (see tracer.py) and are removed afterwards.

The end-to-end times are scaled to a fixed machine speed. On a shared host
the same work runs up to 2x slower for seconds or minutes at a time, far
more than any bound a benchmark could hold. So an untraced run times a
fixed reference loop, which no change to the program can touch, every few
milliseconds, and divides each measured time by the loop's time around it
(see SpeedProbe). Traced runs report raw times.
"""

from __future__ import annotations

import cProfile
import hashlib
import json
import os
import platform
import pstats
import random
import resource
import statistics
import subprocess
from bisect import bisect_left
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from dcfrag import fixtures, harness, metrics, placement
from dcfrag.harness import ExperimentConfig, compare_schemes, order_hash, shuffle_order
from dcfrag.metrics import network_rrf
from dcfrag.placement import SCHEMES, PlacementState
from dcfrag.topology import Topology, build_tree, find_reaches
from dcfrag.workload import generate_workload

from tracer import Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
GOLDEN_PATH = BENCH_DIR / "golden.json"

POOL = 64           # seeded instances per workload, each with a golden digest
SETUP_SAMPLES = 48  # timed set-ups per run, spread over its sweeps


@dataclass(frozen=True)
class Workload:
    name: str
    category: int
    apps: int
    traced_sweeps: int  # fixed work of a traced run, so its counts repeat exactly


WORKLOADS = {w.name: w for w in (
    Workload("tree64-cat1", category=1, apps=64, traced_sweeps=2),
    Workload("clos64-cat3", category=3, apps=64, traced_sweeps=4),
    Workload("clos64-cat3-overload", category=3, apps=128, traced_sweeps=4),
)}

RRF_PHASES = ("capacity_inside_reaches", "capacity_between_reaches",
              "placeable_inside_reaches", "placeable_between_reaches")

# Wrapped for the traced run: (owner, attribute, span name, keep span records).
# The hot leaves are counted without span records to bound memory.
LAYER_SPANS = (
    (placement, "bal_pack", "placement.bal_pack", True),
    (placement, "reserve_traffic", "placement.reserve_traffic", True),
    (placement, "best_sibling_reach", "placement.best_sibling_reach", True),
    (PlacementState, "snapshot", "placement.snapshot", True),
    (PlacementState, "restore", "placement.restore", True),
    *((metrics, phase, f"metrics.{phase}", True) for phase in RRF_PHASES),
    (metrics, "path_bandwidth", "metrics.path_bandwidth", False),
    (Topology, "route", "topology.route", False),
    (Topology, "reach_paths", "topology.reach_paths", False),
)


def window(costs: list[float], seconds: float) -> int:
    """Instances an untraced run sweeps: as many as last about --seconds at
    the seed commit, up to the whole pool. It follows --seconds alone, never
    the program's speed."""
    return min(len(costs), max(1, round(seconds * len(costs) / sum(costs))))


def stratified(costs: list[float], seed: int, w: int) -> list[int]:
    """The pool entries a run with this --seed sweeps, cheapest first.

    The pool, ordered by seed-commit sweep time, is cut into w strata of
    equal size, and the seed picks one entry from each. Every run then gets
    the same mix of cheap and costly instances: their costs differ by up to
    a factor of 2.4, which would otherwise dominate the run-to-run spread.
    """
    order = sorted(range(len(costs)), key=lambda i: (costs[i], i))
    edges = [round(j * len(costs) / w) for j in range(w + 1)]
    rng = random.Random(seed)
    return [order[rng.randrange(edges[j], edges[j + 1])] for j in range(w)]


# -- machine speed -------------------------------------------------------------------

# The reference loop: float minima over dict lookups along short paths, the
# mix of the RRF walk and of widest-path routing, on data of its own. It
# takes about REF_NOMINAL_S on a 2-core x86 host at its usual speed.
REF_KEYS = [f"l{i}" for i in range(64)]
REF_PATHS = [tuple(REF_KEYS[(i * k) % 64] for k in (1, 3, 5, 7)) for i in range(64)]
REF_REPS = 8
REF_NOMINAL_S = 1e-3
PROBE_EVERY_S = 0.02


def reference_loop() -> float:
    free = dict.fromkeys(REF_KEYS, 1.0)
    total = 0.0
    for r in range(REF_REPS):
        for path in REF_PATHS:
            total += max(0.0, min(free[k] for k in path))
        free[REF_KEYS[r % 64]] -= 0.001
    return total


class SpeedProbe:
    """Times the reference loop at most every PROBE_EVERY_S, between attempts.

    scale(t) converts a time measured at t into reference seconds: seconds
    at the speed at which the loop takes REF_NOMINAL_S. The machine's speed
    swings by up to 2x within seconds, and the loop follows those swings
    closely (log-time correlation 0.8 against an RRF call), so scaled
    times stay steady where raw times do not. Probes are never inside a
    timed attempt or set-up, and their time is taken out of sweep walls.
    """

    def __init__(self):
        self.starts: list[float] = []
        self.took: list[float] = []
        self._next = 0.0

    def probe(self) -> None:
        start = perf_counter()
        reference_loop()
        end = perf_counter()
        self.starts.append(start)
        self.took.append(end - start)
        self._next = end + PROBE_EVERY_S

    def due(self) -> None:
        if perf_counter() >= self._next:
            self.probe()

    def scale(self, t: float) -> float:
        """Reference seconds per second at t, from the probes either side of it."""
        i = bisect_left(self.starts, t)
        near = self.took[max(0, i - 1):i + 1]
        return REF_NOMINAL_S / statistics.fmean(near)


# -- set-up and sweeps --------------------------------------------------------------


@dataclass
class Instance:
    seed: int
    topology: Topology
    apps: list
    order_hash: str


@dataclass(frozen=True)
class SetupTimes:
    total: float
    build: float
    find_reaches: float
    generate: float


def set_up(wl: Workload, seed: int, timings: list, repeats: int = 1,
           probe: SpeedProbe | None = None) -> Instance:
    """Build a fresh fabric and workload for one pool entry `repeats` times,
    timing each phase; returns the last build. With a probe, the times are
    in reference seconds, scaled by probes right before and after each build."""
    for _ in range(repeats):
        if probe is not None:
            probe.probe()
        t0 = perf_counter()
        topology = fixtures.category_topology(wl.category)
        t1 = perf_counter()
        find_reaches(topology)
        t2 = perf_counter()
        apps = generate_workload(fixtures.category_spec(wl.category, wl.apps, seed))
        t3 = perf_counter()
        order = shuffle_order(apps, seed)
        t4 = perf_counter()
        k = 1.0
        if probe is not None:
            probe.probe()
            k = probe.scale(t4)
        timings.append(SetupTimes(k * (t4 - t0), k * (t1 - t0), k * (t2 - t1), k * (t3 - t2)))
    return Instance(seed, topology, apps, order_hash(order))


def setups_per_sweep(sweeps: int) -> int:
    return -(-SETUP_SAMPLES // sweeps)


def attach_attempts(tracer: Tracer, steps: list, probe: SpeedProbe | None = None) -> None:
    """Time every attempt the harness makes; appends [scheme, place s, ok, rrf s,
    start]. A probe, if given, runs when due before an attempt, never inside one."""
    place, rrf = harness.place_application, harness.network_rrf

    def timed_place(state, app, config, reaches=None):
        if probe is not None:
            probe.due()
        tracer.attempt += 1
        start = perf_counter()
        outcome = tracer.call(f"placement.{config.scheme}.place", place,
                              state, app, config, reaches)
        steps.append([config.scheme, tracer.last, outcome.ok, 0.0, start])
        return outcome

    def timed_rrf(*args, **kwargs):
        report = tracer.call("metrics.network_rrf", rrf, *args, **kwargs)
        steps[-1][3] = tracer.last
        return report

    tracer.replace(harness, "place_application", timed_place)
    tracer.replace(harness, "network_rrf", timed_rrf)


def attach_layers(tracer: Tracer) -> None:
    for owner, attr, name, keep in LAYER_SPANS:
        tracer.wrap(owner, attr, name, keep)


@dataclass
class Sweep:
    seed: int
    wall_s: float
    attempts: int
    digest: str  # sha256 of the compare CSV
    problems: list


def sweep(wl: Workload, inst: Instance, tracer: Tracer, steps: list,
          golden: list | None) -> Sweep:
    """One compare run over the instance, checked against its golden digest."""
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{wl.name}.csv"
    cfg = ExperimentConfig(topology=inst.topology, workload=inst.apps, seed=inst.seed,
                           rrf_request=fixtures.category_rrf_request(wl.category),
                           output_path=str(out), stop_policy="exhaust-list")
    first = len(steps)
    expected = len(SCHEMES) * wl.apps
    start = perf_counter()
    try:
        result = tracer.call("harness.compare", compare_schemes, cfg, list(SCHEMES))
    except Exception as exc:  # an attempt raised: the sweep fails, the run reports it
        return Sweep(inst.seed, perf_counter() - start, expected, "",
                     [f"raised {type(exc).__name__}: {exc}"])
    wall = perf_counter() - start
    mine = steps[first:]
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    problems = []
    if golden is not None and digest != golden[inst.seed]:
        problems.append(f"compare CSV sha256 {digest[:16]} differs from golden "
                        f"{golden[inst.seed][:16]}")
    if result.order_hash != inst.order_hash:
        problems.append("the harness shuffled a different order than the set-up")
    if len(mine) != expected:
        problems.append(f"{len(mine)} attempts seen, {expected} expected")
    for scheme, run in result.runs.items():
        ok = sum(1 for s in mine if s[0] == scheme and s[2])
        if not run.apps_placed == ok == len(run.rows):
            problems.append(f"{scheme}: placed {run.apps_placed}, {ok} successes, "
                            f"{len(run.rows)} rows")
    return Sweep(inst.seed, wall, expected, digest, problems)


# -- statistics ------------------------------------------------------------------------


def p50(xs: list[float]) -> float:
    return statistics.median(xs)


def p90(xs: list[float]) -> float:
    return statistics.quantiles(xs, n=10)[8]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def probe_empty_tree(tors: int) -> float:
    """Seconds of one network_rrf call on an empty category-1 tree of tors x 4 hosts."""
    ref = fixtures.category_spec(1, 1, 0).reference
    topology = build_tree(num_tors=tors, hosts_per_tor=4, host_capacity=ref.host,
                          link_capacity=ref.link, oversub_ratio=32.0)  # category 1's
    state = PlacementState(topology)
    start = perf_counter()
    network_rrf(state, fixtures.category_rrf_request(1))
    return perf_counter() - start


# -- runs ------------------------------------------------------------------------------


@dataclass
class RunResult:
    sweeps: list
    metrics: dict      # name -> value
    samples: dict      # name -> sample count behind a percentile
    tracer: Tracer | None = None
    speed: dict | None = None  # untraced: what the speed probes saw


def measure(wl: Workload, pool: list[int], golden: list | None) -> RunResult:
    """Untraced run: one sweep of each pool entry, times in reference seconds."""
    set_up(wl, pool[0], [])  # untimed: first-call costs
    reference_loop()
    probe = SpeedProbe()
    repeats = setups_per_sweep(len(pool))
    setups: list[SetupTimes] = []
    latencies: list[float] = []
    ref_wall = raw_wall = 0.0
    sweeps = []
    for entry in pool:
        inst = set_up(wl, entry, setups, repeats, probe)
        tracer, steps = Tracer(), []
        attach_attempts(tracer, steps, probe)
        first = len(probe.took)
        try:
            probe.probe()
            done = sweep(wl, inst, tracer, steps, golden)
            probe.probe()
        finally:
            tracer.close()
        sweeps.append(done)
        latencies += [(place + rrf) * probe.scale(t) for _, place, _, rrf, t in steps]
        # The sweep's time without the probes inside it, at the mean speed
        # of those probes and the two around the sweep.
        probes = probe.took[first:]
        ref_wall += ((done.wall_s - sum(probes[1:-1])) * REF_NOMINAL_S
                     / statistics.fmean(probes))
        raw_wall += done.wall_s
    return RunResult(sweeps, {
        "attempts_per_s": len(latencies) / ref_wall,
        "step_ms_p50": p50(latencies) * 1e3,
        "step_ms_p90": p90(latencies) * 1e3,
        "setup_s": p50([s.total for s in setups]),
        "peak_rss_mb": peak_rss_mb(),
    }, {"step_ms_p50": len(latencies), "step_ms_p90": len(latencies),
        "setup_s": len(setups)}, speed={
        "probes": len(probe.took), "probe_ms_p50": p50(probe.took) * 1e3,
        "raw_sweep_s": raw_wall})


def measure_layers(wl: Workload, pool: list[int], golden: list | None) -> RunResult:
    """Traced run: each pool entry swept untraced, then traced."""
    set_up(wl, pool[0], [])  # untimed: first-call costs
    setups: list[SetupTimes] = []
    n = len(pool)
    tracer, steps, sweeps = Tracer(), [], []
    plain_wall = traced_wall = 0.0
    vms = edges = 0
    for entry in pool:
        plain, plain_steps = Tracer(), []
        attach_attempts(plain, plain_steps)
        try:
            done = sweep(wl, set_up(wl, entry, setups, setups_per_sweep(n)),
                         plain, plain_steps, golden)
        finally:
            plain.close()
        plain_wall += done.wall_s
        sweeps.append(done)

        inst = set_up(wl, entry, [])
        vms += sum(len(app.vms) for app in inst.apps)
        edges += sum(len(app.traffic) for app in inst.apps)
        attach_attempts(tracer, steps)
        attach_layers(tracer)
        try:
            done = sweep(wl, inst, tracer, steps, golden)
        finally:
            tracer.close()
        traced_wall += done.wall_s
        sweeps.append(done)

    m: dict[str, float] = {}
    samples: dict[str, int] = {}
    m["topology.build_ms"] = p50([s.build for s in setups]) * 1e3
    m["topology.find_reaches_ms"] = p50([s.find_reaches for s in setups]) * 1e3
    m["topology.route.calls"] = tracer.calls("topology.route")
    m["topology.route.self_s"] = tracer.self_seconds("topology.route") / n
    m["topology.reach_paths.calls"] = tracer.calls("topology.reach_paths")
    m["workload.generate_ms"] = p50([s.generate for s in setups]) * 1e3
    m["workload.vms"] = vms / n
    m["workload.edges"] = edges / n
    for scheme in SCHEMES:
        mine = [s for s in steps if s[0] == scheme]
        place_s = [s[1] for s in mine]
        m[f"placement.{scheme}.place_ms_p50"] = p50(place_s) * 1e3
        m[f"placement.{scheme}.place_ms_p90"] = p90(place_s) * 1e3
        m[f"placement.{scheme}.placed_ratio"] = sum(1 for s in mine if s[2]) / len(mine)
        m[f"placement.{scheme}.refused_s"] = sum(s[1] for s in mine if not s[2]) / n
        samples[f"placement.{scheme}.place_ms_p90"] = len(place_s)
    m["placement.bal_pack.self_s"] = tracer.self_seconds("placement.bal_pack") / n
    m["placement.reserve_traffic.self_s"] = tracer.self_seconds("placement.reserve_traffic") / n
    m["placement.best_sibling_reach.calls"] = tracer.calls("placement.best_sibling_reach")
    m["placement.snapshot.calls"] = tracer.calls("placement.snapshot")
    m["placement.restore.calls"] = tracer.calls("placement.restore")
    m["placement.snapshot.self_s"] = tracer.self_seconds("placement.snapshot") / n

    rrf_s = [s[3] for s in steps if s[2]]
    rrf_calls = tracer.calls("metrics.network_rrf")
    m["metrics.network_rrf.calls"] = rrf_calls
    m["metrics.network_rrf.ms_p50"] = p50(rrf_s) * 1e3
    m["metrics.network_rrf.ms_p90"] = p90(rrf_s) * 1e3
    samples["metrics.network_rrf.ms_p90"] = len(rrf_s)
    under_rrf = ("metrics.network_rrf",)
    for phase in RRF_PHASES:
        m[f"metrics.{phase}.self_s"] = tracer.self_seconds(f"metrics.{phase}", under_rrf) / n
    walks = ("metrics.capacity_between_reaches", "metrics.placeable_between_reaches")
    m["metrics.path_bandwidth.calls_per_rrf"] = (
        tracer.calls("metrics.path_bandwidth", walks) / rrf_calls)
    m["metrics.rrf_share"] = sum(rrf_s) / sum(s[1] + s[3] for s in steps)
    m["metrics.network_rrf.tree64_empty_s"] = probe_empty_tree(16)
    m["metrics.network_rrf.tree128_empty_s"] = probe_empty_tree(32)

    m["harness.compare_s"] = traced_wall / n
    m["harness.self_s"] = tracer.self_seconds("harness.compare") / n
    m["trace.overhead_ratio"] = traced_wall / plain_wall
    return RunResult(sweeps, m, samples, tracer)


def profile(wl: Workload, entry: int, seed: int, top: int) -> Path:
    """cProfile one sweep of a pool entry; writes the top rows by self time."""
    inst = set_up(wl, entry, [])
    cfg = ExperimentConfig(topology=inst.topology, workload=inst.apps, seed=inst.seed,
                           rrf_request=fixtures.category_rrf_request(wl.category))
    profiler = cProfile.Profile()
    profiler.runcall(compare_schemes, cfg, list(SCHEMES))
    path = OUT_DIR / f"{wl.name}-seed{seed}.profile.txt"
    with open(path, "w") as fh:
        pstats.Stats(profiler, stream=fh).sort_stats("tottime").print_stats(top)
    return path


# -- provenance ------------------------------------------------------------------------


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "dcfrag").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, timeout=30)
    return done.stdout.strip() or None


def environment() -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "commit": commit(), "src_sha256": src_digest()}


def load_golden(name: str) -> tuple[list[str], list[float]]:
    """Golden CSV digests and seed-commit sweep times of a workload's pool."""
    with open(GOLDEN_PATH) as fh:
        doc = json.load(fh)
    digests, costs = doc["csv_sha256"][name], doc["sweep_s"][name]
    if doc["pool"] != POOL or len(digests) != POOL or len(costs) != POOL:
        raise ValueError(f"{GOLDEN_PATH.name}: {name} does not hold a pool of {POOL}")
    return digests, costs


# -- entry -----------------------------------------------------------------------------


def run(args, spec: dict) -> int:
    """Measure one workload and print the result; returns the exit code."""
    wl = WORKLOADS[args.workload]
    golden, costs = load_golden(wl.name)
    if args.trace:
        pool = stratified(costs, args.seed, wl.traced_sweeps)
        result = measure_layers(wl, pool, golden)
        declared = spec["per_layer"]
    else:
        pool = stratified(costs, args.seed, window(costs, args.seconds))
        result = measure(wl, pool, golden)
        declared = spec["end_to_end"]

    attempted = sum(s.attempts for s in result.sweeps)
    failed = sum(s.attempts for s in result.sweeps if s.problems)
    problems = [f"instance {s.seed}: {p}" for s in result.sweeps for p in s.problems]
    out = {"correct": not problems and set(result.metrics) == {d["name"] for d in declared},
           "attempted": attempted, "failed": failed,
           "metrics": {d["name"]: {"value": result.metrics[d["name"]], "unit": d["unit"]}
                       for d in declared if d["name"] in result.metrics}}

    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{wl.name}-seed{args.seed}-trace{int(args.trace)}"
    record = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "instances": pool,
              "sweeps": len(result.sweeps), "error_ratio": failed / attempted,
              "samples": result.samples, "speed": result.speed, "problems": problems,
              "environment": environment(), "result": out}
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n")
    if result.tracer is not None:
        result.tracer.write(stem.with_suffix(".trace.jsonl"))

    print(f"perfbench {wl.name} seed={args.seed} trace={int(args.trace)} "
          f"instances={record['instances']} sweeps={len(result.sweeps)}")
    print(f"  attempts={attempted} failed={failed} error_ratio={failed / attempted:g}")
    for name, entry in out["metrics"].items():
        count = f"  (n={result.samples[name]})" if name in result.samples else ""
        print(f"  {name} = {entry['value']:.6g} {entry['unit']}{count}")
    for problem in problems:
        print(f"  FAIL {problem}")
    if args.profile:
        path = profile(wl, pool[0], args.seed, args.profile)
        print(f"  profile: {path.relative_to(ROOT)}")
    print(json.dumps(out))
    return 0 if out["correct"] else 1
