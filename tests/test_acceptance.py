"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines;
tolerances and time budgets are asserted, not just eyeballed.
"""

import itertools
import random
import time
from dataclasses import replace

import pytest

from dcfrag import metrics as M
from dcfrag.fixtures import (FIG4_REQUEST, UNIT, category_eval_apps,
                             category_spec, category_topology, fig3_state,
                             fig4_state, fig1_instance)
from dcfrag.harness import ExperimentConfig, run_experiment, shuffle_order
from dcfrag.metrics import MultiRequest
from dcfrag.placement import (CapacityError, PlacementState, SchemeConfig,
                              derive_netw_slots, place_application)
from dcfrag.topology import ResourceVector, build_clos, build_tree
from dcfrag.workload import generate_workload

from oracle import brute_force_placeable
from test_metrics import random_consumed_state


def verdict(number: int, ok: bool, text: str) -> None:
    print(f"[criterion {number}] {'PASS' if ok else 'FAIL'}: {text}")
    assert ok, f"criterion {number}: {text}"


def best_of(fn, repeats=3):
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return result, best


def test_criterion_1_fragmentation_worked_example():
    state = fig3_state()
    quarter, elapsed = best_of(
        lambda: M.fragmentation_index(state, MultiRequest(mem=0.25)))
    point_three = M.fragmentation_index(state, MultiRequest(mem=0.3))
    ok = (abs(quarter.index - 1 / 6) <= 1e-9
          and abs(point_three.index - 0.5) <= 1e-12
          and elapsed < 1e-3)
    verdict(1, ok, f"F(mem,0.25)={quarter.index:.9f}, F(mem,0.3)={point_three.index:.9f}, "
                   f"{elapsed * 1e6:.0f}us")


def test_criterion_2_local_rrf_worked_example():
    state = fig3_state()
    req = MultiRequest(cpu=0.4, mem=0.25)
    report, elapsed = best_of(lambda: M.rrf_index_local(state, req, "mem"))
    oracle = brute_force_placeable(state, req)
    ok = (abs(report.index - 0.95 / 1.2) <= 1e-9
          and report.placeable_multi == 1
          and oracle == report.placeable_multi
          and elapsed < 1e-3)
    verdict(2, ok, f"RRF(mem)={report.index:.9f}, N_m={report.placeable_multi}, "
                   f"oracle={oracle}, {elapsed * 1e6:.0f}us")


def test_criterion_3_network_rrf_worked_example():
    start = time.perf_counter()
    state = fig4_state()
    report = M.network_rrf(state, FIG4_REQUEST)
    oracle = brute_force_placeable(state, FIG4_REQUEST)
    elapsed = time.perf_counter() - start
    ok = (abs(report.total_free - 1.05) <= 1e-12
          and report.placeable_multi == 3
          and oracle == 3
          and abs(report.index - 0.45 / 1.05) <= 1e-6
          and elapsed < 1.0)
    verdict(3, ok, f"T(nw)={report.total_free:.9f}, N_m={report.placeable_multi}, "
                   f"oracle={oracle}, RRF={report.index:.9f}, {elapsed:.3f}s")


@pytest.mark.parametrize("k", [2, 4, 8, 16])
def test_criterion_4_reach_partition(k):
    tree = build_tree(k, 4, UNIT, 1.0, oversub_ratio=4.0)
    tree_reaches = tree.reaches
    clos = build_clos(4, 4, 4, UNIT, 1.0, core_oversub=1.0)
    clos_reaches = clos.reaches
    covered = sorted(h for r in tree_reaches for h in r.hosts)
    ok = (len(tree_reaches) == k
          and covered == sorted(tree.hosts)
          and len(clos_reaches) == 1
          and set(clos_reaches[0].hosts) == set(clos.hosts))
    verdict(4, ok, f"k={k}: {len(tree_reaches)} tree reaches, "
                   f"{len(clos_reaches)} full-bisection CLOS reach")


def test_criterion_5_fig1_divergence():
    start = time.perf_counter()
    topology, app = fig1_instance()

    # the instance is feasible: the exhaustive oracle certifies a valid plan
    plans = _exhaustive_plans(topology, app)

    local_state = PlacementState(topology)
    local = place_application(local_state, app, SchemeConfig(scheme="LOCAL"))

    greedy_error = None
    greedy_state = PlacementState(topology)
    greedy_state.register_app(app)
    vms = {v.id: v for v in app.vms}
    try:
        for (x, y), bw in sorted(app.traffic.items(), key=lambda kv: -kv[1]):
            target = next(h for h in greedy_state.topology.host_ids
                          if greedy_state.host_free[h].nic >= 2 * bw)
            greedy_state.assign_vm(app.id, vms[x], target)
            greedy_state.assign_vm(app.id, vms[y], target)
    except CapacityError as exc:
        greedy_error = exc

    unified_state = PlacementState(topology)
    unified = place_application(unified_state, app, SchemeConfig(scheme="UNIFIED"))
    elapsed = time.perf_counter() - start

    ok = (len(plans) > 0
          and not local.ok and local.failure.startswith("link")
          and greedy_error is not None and greedy_error.entity == "host"
          and unified.ok
          and unified_state.assignments[app.id] in plans
          and unified_state.validate() == []
          and elapsed < 1.0)
    verdict(5, ok, f"LOCAL: {local.failure}; greedy co-location: {greedy_error}; "
                   f"UNIFIED placed split={_cross(unified_state, app)} Mbps, {elapsed:.3f}s")


def _exhaustive_plans(topology, app):
    plans = []
    vms = {v.id: v for v in app.vms}
    ids = sorted(vms)
    bottleneck = min(l.capacity for l in topology.links.values())
    for combo in itertools.product(sorted(topology.hosts), repeat=len(ids)):
        assign = dict(zip(ids, combo))
        fits = True
        for host in topology.hosts.values():
            on_host = [vms[vm_id].demand for vm_id, target in assign.items()
                       if target == host.id]
            if any(sum(getattr(d, dim) for d in on_host) > getattr(host.capacity, dim) + 1e-9
                   for dim in ("cpu", "mem", "nic")):
                fits = False
                break
        cross = sum(bw for (a, b), bw in app.traffic.items() if assign[a] != assign[b])
        if fits and cross <= bottleneck:
            plans.append(assign)
    return plans


def _cross(state, app):
    placed = state.assignments[app.id]
    return round(sum(bw for (a, b), bw in app.traffic.items() if placed[a] != placed[b]))


def test_criterion_6_scheme_comparison_at_scale():
    start = time.perf_counter()
    outcomes = {}
    for category in (1, 2, 3):
        topology = category_topology(category)
        finals = {"UNIFIED": [], "LOCAL": [], "NETW": []}
        for seed in range(10):
            spec = category_spec(category, app_count=category_eval_apps(category),
                                 seed=seed)
            apps = shuffle_order(generate_workload(spec), seed)
            slots = derive_netw_slots(topology, apps)
            for scheme in finals:
                cfg = SchemeConfig(scheme=scheme,
                                   netw_slots_per_host=slots if scheme == "NETW" else None)
                state = PlacementState(topology)
                placed = sum(
                    place_application(state, app, cfg).ok for app in apps)
                finals[scheme].append(placed)
        outcomes[category] = finals
    elapsed = time.perf_counter() - start

    ok = elapsed < 60.0
    summary = [f"{elapsed:.1f}s"]
    for category in (1, 3):
        u = outcomes[category]["UNIFIED"]
        l = outcomes[category]["LOCAL"]
        n = outcomes[category]["NETW"]
        dominant = all(a >= b and a >= c for a, b, c in zip(u, l, n))
        strict = sum(a > b or a > c for a, b, c in zip(u, l, n))
        ok = ok and dominant and strict >= 1
        summary.append(f"cat{category}: U>=baselines on 10/10 seeds={dominant}, "
                       f"strict on {strict}")
    spreads = [max(vals) - min(vals) for vals in zip(
        outcomes[2]["UNIFIED"], outcomes[2]["LOCAL"], outcomes[2]["NETW"])]
    ok = ok and max(spreads) <= 1
    summary.append(f"cat2 max spread={max(spreads)}")
    verdict(6, ok, "; ".join(summary))


def test_criterion_7_invariant_suite(tmp_path):
    start = time.perf_counter()
    rng = random.Random(20240811)
    problems = []

    # index bounds and the RRF >= fragmentation cross-metric bound
    for _ in range(15):
        state = fig3_state()
        for h in state.host_free:
            state.host_free[h] = ResourceVector(
                rng.uniform(0, 1), rng.uniform(0, 1), 1.0)
        size = rng.uniform(0.05, 0.9)
        other = rng.uniform(0.05, 0.9)
        frag = M.fragmentation_index(state, MultiRequest(mem=size))
        rrf = M.rrf_index_local(state, MultiRequest(cpu=other, mem=size), "mem")
        if not (0 <= frag.index <= 1 and 0 <= rrf.index <= 1):
            problems.append("index out of bounds")
        if rrf.index < frag.index - 1e-12:
            problems.append("RRF below fragmentation")

    # capacity split adds up exactly
    for seed in range(10):
        state = random_consumed_state(
            random.Random(seed), build_tree(2, 2, UNIT, 1.0, 2.0))
        inside, residuals = M.capacity_inside_reaches(state)
        between = M.capacity_between_reaches(state, residuals)
        total = M.network_rrf(state, MultiRequest(nw=0.1)).total_free
        if abs(total - (inside + between)) > 1e-12:
            problems.append("T(nw) != T_R + T_BR")
        if inside < 0 or between < 0:
            problems.append("negative capacity component")

    # state conservation after every operation, all schemes
    topology = build_tree(2, 2, UNIT, 1.0, 2.0)
    state = PlacementState(topology)
    spec = replace(category_spec(1, app_count=8, seed=4),
                   reference=topology.reference,
                   mean_demand=ResourceVector(0.2, 0.2, 0.1), vms_per_app=(1, 3))
    for i, app in enumerate(generate_workload(spec)):
        cfg = SchemeConfig(scheme=("UNIFIED", "LOCAL", "NETW")[i % 3],
                           netw_slots_per_host=4)
        place_application(state, app, cfg)
        report = state.validate()
        if report:
            problems.append(f"state violation after app {i}: {report[:1]}")

    # rollback atomicity on injected failures
    t1, fig_app = fig1_instance()
    for scheme_state, scheme in ((PlacementState(t1), "LOCAL"),
                                 (PlacementState(topology), "UNIFIED")):
        app = fig_app if scheme == "LOCAL" else _too_big()
        before = scheme_state.snapshot()
        outcome = place_application(scheme_state, app, SchemeConfig(scheme=scheme))
        if outcome.ok or scheme_state.snapshot() != before:
            problems.append(f"rollback not atomic for {scheme}")

    # greedy counts never beat the oracle on 50 reachable random instances
    for i in range(50):
        state = random_consumed_state(
            random.Random(1000 + i), build_tree(2, 2, UNIT, 1.0,
                                                rng.choice([1.0, 2.0, 4.0])))
        req = MultiRequest(cpu=rng.choice([0.1, 0.2, 0.3]),
                           mem=rng.choice([0.1, 0.2, 0.3]),
                           nw=rng.choice([0.1, 0.2, 0.3]))
        greedy = M.network_rrf(state, req).placeable_multi
        oracle = brute_force_placeable(state, req)
        if greedy > oracle:
            problems.append(f"greedy {greedy} > oracle {oracle} on instance {i}")

    # seeded runs write byte-identical outputs
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (out_a, out_b):
        cfg = ExperimentConfig(
            topology=build_tree(2, 2, UNIT, 1.0, 2.0),
            workload=replace(category_spec(1, app_count=6, seed=2),
                             reference=topology.reference,
                             mean_demand=ResourceVector(0.2, 0.2, 0.1),
                             vms_per_app=(1, 3)),
            seed=11,
            rrf_request=MultiRequest(cpu=0.2, mem=0.2, nw=0.1),
            output_path=str(out),
        )
        run_experiment(cfg)
    if out_a.read_bytes() != out_b.read_bytes():
        problems.append("seeded outputs differ")

    elapsed = time.perf_counter() - start
    ok = not problems and elapsed < 30.0
    verdict(7, ok, f"{'; '.join(problems) if problems else 'all invariants hold'}, "
                   f"{elapsed:.1f}s")


def _too_big():
    from dcfrag.workload import Application, VM

    vms = tuple(VM(id=f"v{i}", demand=ResourceVector(0.9, 0.1, 0.0)) for i in range(9))
    return Application(id="toobig", vms=vms, traffic={})
