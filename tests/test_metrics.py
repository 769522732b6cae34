import random

import pytest
from hypothesis import given, settings, strategies as st

from dcfrag import metrics as M
from dcfrag.fixtures import FIG4_REQUEST, UNIT, UNIT_REF, fig3_state, fig4_state
from dcfrag.metrics import AllocationRequest, MultiRequest
from dcfrag.placement import PlacementState
from dcfrag.topology import (Host, Link, ResourceVector, Switch, Topology,
                             build_clos, build_tree, find_reaches)

from test_topology import mini_topology


def mini_state(host_frees, link_frees=None, link_cap=1.0):
    return PlacementState(mini_topology(host_frees, link_frees, link_cap))


def random_consumed_state(rng, topology):
    """A physically reachable residual state: random cpu/mem usage per host,
    link usage produced only by routed host-pair flows."""
    state = PlacementState(topology)
    hosts = sorted(state.host_free)
    for h in hosts:
        state.host_free[h] = ResourceVector(
            round(rng.uniform(0, 1), 2), round(rng.uniform(0, 1), 2),
            state.host_free[h].nic)
    for _ in range(rng.randint(0, 12)):
        a, b = rng.sample(hosts, 2)
        bw = round(rng.uniform(0.05, 0.6), 2)
        route = topology.route(a, b)
        if all(state.link_free[lid] >= bw for lid in route):
            for lid in route:
                state.link_free[lid] -= bw
    return state


class TestFitCount:
    def test_float_noise_tolerated(self):
        assert M.fit_count(0.3, 0.1) == 3
        assert M.fit_count(0.2, 0.25) == 0
        assert M.fit_count(0.6, 0.4) == 1
        assert M.fit_count(0.3, 0.2) == 1

    def test_bad_size(self):
        with pytest.raises(ValueError):
            M.fit_count(1.0, 0.0)


class TestFragmentationIndex:
    def test_worked_example_quarter(self):
        report = M.fragmentation_index(fig3_state(), AllocationRequest("mem", 0.25))
        assert report.total_free == pytest.approx(1.2)
        assert report.placeable == 4
        assert report.index == pytest.approx(1 / 6, abs=1e-9)

    def test_worked_example_point_three(self):
        report = M.fragmentation_index(fig3_state(), AllocationRequest("mem", 0.3))
        assert report.index == pytest.approx(0.5, abs=1e-12)

    def test_exact_fit_zero_waste(self):
        state = mini_state([(1.0, 0.5, 1.0)])
        report = M.fragmentation_index(state, AllocationRequest("mem", 0.5))
        assert report.placeable == 1
        assert report.index == 0.0

    def test_zero_total_free_is_index_one(self):
        state = mini_state([(0.0, 0.0, 1.0), (0.0, 0.0, 1.0)])
        report = M.fragmentation_index(state, AllocationRequest("cpu", 0.5))
        assert report.index == 1.0

    def test_unknown_resource_kind(self):
        with pytest.raises(ValueError):
            AllocationRequest("gpu", 0.5)

    def test_network_kind_uses_reach_machinery(self):
        report = M.fragmentation_index(fig4_state(), AllocationRequest("nw", 0.2))
        assert report.total_free == pytest.approx(1.05)
        # unconstrained cpu/mem: NIC floors {4,1,3,1} pair to 1 per reach with
        # residuals {3,2}; the 0.5 path carries 2 more
        assert report.placeable == 4
        assert report.index == pytest.approx((1.05 - 4 * 0.2) / 1.05)


class TestLocalRRF:
    def test_worked_example(self):
        report = M.rrf_index_local(fig3_state(), MultiRequest(cpu=0.4, mem=0.25), "mem")
        assert report.placeable_multi == 1
        assert report.index == pytest.approx(0.95 / 1.2, abs=1e-9)

    def test_single_dimension_rejected(self):
        with pytest.raises(ValueError, match="two nonzero"):
            M.rrf_index_local(fig3_state(), MultiRequest(mem=0.25), "mem")

    def test_zero_target_rejected(self):
        with pytest.raises(ValueError, match="target"):
            M.rrf_index_local(fig3_state(), MultiRequest(cpu=0.4, nw=0.2), "mem")

    def test_oversized_component_rejected_by_type(self):
        with pytest.raises(ValueError):
            MultiRequest(cpu=1.1, mem=0.2)

    def test_nothing_placeable_means_index_one(self):
        report = M.rrf_index_local(fig3_state(), MultiRequest(cpu=0.7, mem=0.6), "mem")
        assert report.placeable_multi == 0
        assert report.index == 1.0

    def test_matches_bruteforce_on_random_instances(self):
        rng = random.Random(20240811)
        for _ in range(25):
            frees = [(rng.uniform(0, 1), rng.uniform(0, 1), 1.0) for _ in range(3)]
            state = mini_state(frees)
            req = MultiRequest(cpu=rng.uniform(0.05, 0.9), mem=rng.uniform(0.05, 0.9))
            report = M.rrf_index_local(state, req, "mem")
            assert report.placeable_multi == M.brute_force_placeable(state, req)


class TestCapacityInsideReaches:
    def test_two_host_pairing(self):
        state = mini_state([(1, 1, 0.8), (1, 1, 0.3)], link_frees=[0.8, 0.3])
        reaches = find_reaches(state.topology)
        total, residual = M.capacity_inside_reaches(state, reaches)
        assert total == pytest.approx(0.3)
        assert residual[reaches[0].id] == pytest.approx(0.5)

    def test_single_host_contributes_nothing(self):
        # second host fully used: only one NIC left to pair
        state = mini_state([(1, 1, 0.5), (0, 0, 0.0)], link_frees=[0.5, 0.0])
        reaches = find_reaches(state.topology)
        total, residual = M.capacity_inside_reaches(state, reaches)
        assert total == pytest.approx(0.0)
        assert residual[reaches[0].id] == pytest.approx(0.5)

    def test_fig4_total(self):
        state = fig4_state()
        total, residual = M.capacity_inside_reaches(state, find_reaches(state.topology))
        assert total == pytest.approx(0.55)
        assert residual == {"r0": pytest.approx(0.5), "r1": pytest.approx(0.5)}


class TestCapacityBetweenReaches:
    def test_fig4(self):
        state = fig4_state()
        reaches = find_reaches(state.topology)
        _, residual = M.capacity_inside_reaches(state, reaches)
        assert M.capacity_between_reaches(state, reaches, residual) == pytest.approx(0.5)
        breakdown = M.capacity_breakdown(state, reaches)
        assert breakdown.total == pytest.approx(1.05)
        assert breakdown.total == breakdown.inside + breakdown.between

    def test_zero_residual_contributes_nothing(self):
        state = fig4_state()
        reaches = find_reaches(state.topology)
        assert M.capacity_between_reaches(state, reaches, {"r0": 0.0, "r1": 0.7}) == 0.0


def three_reach_line():
    """Three oversubscribed racks strung along two mid switches."""
    hosts, links = [], []
    nic = {"h1": 0.6, "h2": 0.4, "h3": 0.7, "h4": 0.5, "h5": 0.8, "h6": 0.2}
    for i, (h, free) in enumerate(sorted(nic.items())):
        tor = f"s{i // 2 + 1}"
        hosts.append(Host(id=h, capacity=UNIT, free=ResourceVector(1.0, 1.0, free)))
        links.append(Link(id=f"{h}-{tor}", a=h, b=tor, capacity=2.0, free=free))
    switches = [Switch(id="s1", level=0), Switch(id="s2", level=0), Switch(id="s3", level=0),
                Switch(id="m1", level=1), Switch(id="m2", level=1)]
    links += [
        Link(id="s1-m1", a="s1", b="m1", capacity=1.0, free=0.5),
        Link(id="s2-m1", a="s2", b="m1", capacity=1.0, free=0.4),
        Link(id="s2-m2", a="s2", b="m2", capacity=1.0, free=0.3),
        Link(id="s3-m2", a="s3", b="m2", capacity=1.0, free=0.9),
    ]
    t = Topology(hosts, switches, links, UNIT_REF)
    t.validate()
    return PlacementState(t)


class TestThreeReachLine:
    def test_pair_walk_is_order_invariant(self):
        state = three_reach_line()
        reaches = find_reaches(state.topology)
        assert len(reaches) == 3
        total, residual = M.capacity_inside_reaches(state, reaches)
        assert total == pytest.approx(0.4 + 0.5 + 0.2)
        assert [residual[r.id] for r in reaches] == [
            pytest.approx(0.2), pytest.approx(0.2), pytest.approx(0.6)]
        between = M.capacity_between_reaches(state, reaches, residual)
        # adjacent pairs first (hops 2), max-bandwidth tie-break picks r0-r1
        assert between == pytest.approx(0.2)
        for perm in ([2, 0, 1], [1, 2, 0], [2, 1, 0]):
            shuffled = [reaches[i] for i in perm]
            assert M.capacity_between_reaches(state, shuffled, residual) == \
                pytest.approx(between)


def _replay_walk(t, reaches, residuals, link_free, fit, unit):
    """Independent replay of the between-reach walk by its stated rule.

    At every step, re-rank all remaining pairs by (reach distance, -path
    bandwidth, ids), take min(both residuals, fit(bandwidth)) from the first
    and consume `unit` per taken unit along its paths.
    """
    link_free = dict(link_free)
    res = dict(residuals)
    pairs = [(ri, rj) for i, ri in enumerate(reaches) for rj in reaches[i + 1:]
             if M.reach_distance(t, ri, rj) != float("inf")]
    total = 0
    while pairs:
        ri, rj = min(pairs, key=lambda p: (M.reach_distance(t, p[0], p[1]),
                                           -M.path_bandwidth(t, p[0], p[1], link_free),
                                           p[0].id, p[1].id))
        pairs.remove((ri, rj))
        step = min(res[ri.id], res[rj.id], fit(M.path_bandwidth(t, ri, rj, link_free)))
        if step > 1e-9:
            total += step
            res[ri.id] -= step
            res[rj.id] -= step
            M._consume_between(t, ri, rj, link_free, step * unit)
    return total


@st.composite
def walk_instances(draw):
    """A multi-reach fabric with drawn link frees and per-reach residuals."""
    fabric = draw(st.sampled_from(["tree", "clos", "line"]))
    if fabric == "tree":
        state = PlacementState(build_tree(draw(st.sampled_from([2, 4, 6])), 2, UNIT, 1.0,
                                          oversub_ratio=draw(st.sampled_from([2.0, 4.0]))))
    elif fabric == "clos":
        state = PlacementState(build_clos(draw(st.sampled_from([2, 4])), 2, 2, UNIT, 1.0,
                                          core_oversub=draw(st.sampled_from([2.0, 4.0]))))
    else:
        state = three_reach_line()
    t = state.topology
    for lid in sorted(state.link_free):
        state.link_free[lid] = t.links[lid].capacity * draw(st.integers(0, 2)) / 2
    reaches = draw(st.permutations(find_reaches(t)))
    res_bw = {r.id: draw(st.integers(0, 8)) / 4 for r in reaches}
    res_req = {r.id: draw(st.integers(0, 8)) for r in reaches}
    req = MultiRequest(nw=draw(st.sampled_from([0.05, 0.1, 0.2, 0.3])))
    return state, reaches, res_bw, res_req, req


class TestPairWalk:
    @settings(max_examples=200, deadline=None)
    @given(walk_instances())
    def test_matches_exhaustive_pair_order_replay(self, instance):
        state, reaches, res_bw, res_req, req = instance
        t = state.topology
        got_bw = M.capacity_between_reaches(state, reaches, res_bw)
        assert got_bw == pytest.approx(_replay_walk(
            t, reaches, res_bw, state.link_free, lambda bw: bw, 1.0), abs=1e-12)
        got_count = M.placeable_between_reaches(state, reaches, res_req, req)
        assert got_count == _replay_walk(
            t, reaches, res_req, state.link_free, lambda bw: M.fit_count(bw, req.nw),
            req.nw)
        breakdown = M.capacity_breakdown(state, reaches)
        assert breakdown.inside + breakdown.between == breakdown.total


class TestPathBandwidth:
    def test_fig4_single_path(self):
        state = fig4_state()
        r0, r1 = find_reaches(state.topology)
        assert M.path_bandwidth(state.topology, r0, r1) == pytest.approx(0.5)

    def test_same_reach_rejected(self):
        state = fig4_state()
        r0, _ = find_reaches(state.topology)
        with pytest.raises(ValueError):
            M.path_bandwidth(state.topology, r0, r0)

    def test_disjoint_equal_length_paths_add_up(self):
        hosts, links = [], []
        for i, tor in ((1, "s1"), (2, "s1"), (3, "s2"), (4, "s2")):
            hid = f"h{i}"
            hosts.append(Host(id=hid, capacity=UNIT, free=UNIT))
            links.append(Link(id=f"{hid}-{tor}", a=hid, b=tor, capacity=1.0, free=1.0))
        switches = [Switch(id="s1", level=0), Switch(id="s2", level=0),
                    Switch(id="m1", level=1), Switch(id="m2", level=1)]
        links += [
            Link(id="s1-m1", a="s1", b="m1", capacity=0.3, free=0.3),
            Link(id="s2-m1", a="s2", b="m1", capacity=0.5, free=0.5),
            Link(id="s1-m2", a="s1", b="m2", capacity=0.4, free=0.4),
            Link(id="s2-m2", a="s2", b="m2", capacity=0.9, free=0.9),
        ]
        t = Topology(hosts, switches, links, UNIT_REF)
        t.validate()
        r0, r1 = find_reaches(t)
        got = M.path_bandwidth(t, r0, r1)
        assert got == pytest.approx(0.7)
        assert got == pytest.approx(_max_flow(t, set(r0.switches), set(r1.switches)))


def _max_flow(t, sources, sinks):
    """Independent BFS max-flow over the switch graph (unit-normalized)."""
    residual = {}
    for l in t.links.values():
        if t.is_host(l.a) or t.is_host(l.b):
            continue
        residual[(l.a, l.b)] = residual.get((l.a, l.b), 0.0) + l.free
        residual[(l.b, l.a)] = residual.get((l.b, l.a), 0.0) + l.free
    flow = 0.0
    while True:
        parent = {s: None for s in sources}
        frontier = list(sources)
        goal = None
        while frontier and goal is None:
            node = frontier.pop(0)
            for (a, b), cap in sorted(residual.items()):
                if a == node and cap > 1e-12 and b not in parent:
                    parent[b] = (a, b)
                    if b in sinks:
                        goal = b
                        break
                    frontier.append(b)
        if goal is None:
            return flow / t.reference.link
        path = []
        node = goal
        while parent[node] is not None:
            edge = parent[node]
            path.append(edge)
            node = edge[0]
        push = min(residual[e] for e in path)
        for a, b in path:
            residual[(a, b)] -= push
            residual[(b, a)] += push
        flow += push


class TestPlaceableCounts:
    def test_fig4_inside(self):
        state = fig4_state()
        reaches = find_reaches(state.topology)
        count, residual = M.placeable_inside_reaches(state, reaches, FIG4_REQUEST)
        assert count == 2
        assert residual == {"r0": 1, "r1": 1}

    def test_fig4_between_and_total(self):
        state = fig4_state()
        reaches = find_reaches(state.topology)
        count, residual = M.placeable_inside_reaches(state, reaches, FIG4_REQUEST)
        between = M.placeable_between_reaches(state, reaches, residual, FIG4_REQUEST)
        assert between == 1
        assert count + between == 3

    def test_zero_network_component_rejected(self):
        state = fig4_state()
        with pytest.raises(ValueError):
            M.placeable_inside_reaches(state, find_reaches(state.topology),
                                       MultiRequest(cpu=0.2, mem=0.2))

    def test_unplaceable_everywhere(self):
        state = fig4_state()
        reaches = find_reaches(state.topology)
        req = MultiRequest(cpu=0.5, mem=0.5, nw=0.2)
        count, _ = M.placeable_inside_reaches(state, reaches, req)
        assert count == 0

    def test_single_eligible_host_keeps_residual(self):
        state = mini_state([(1.0, 1.0, 1.0), (0.0, 0.0, 0.0)], link_frees=[1.0, 0.0])
        reaches = find_reaches(state.topology)
        req = MultiRequest(cpu=0.2, mem=0.2, nw=0.2)
        count, residual = M.placeable_inside_reaches(state, reaches, req)
        assert count == 0
        assert residual[reaches[0].id] == 5

    def test_between_respects_narrow_path(self):
        state = fig4_state()
        reaches = find_reaches(state.topology)
        req = MultiRequest(cpu=0.4, mem=0.4, nw=0.6)
        count, residual = M.placeable_inside_reaches(state, reaches, req)
        assert count == 0
        # path free is 0.5 < 0.6: nothing placeable across
        assert M.placeable_between_reaches(state, reaches, residual, req) == 0

    def test_zero_residual_between(self):
        state = fig4_state()
        reaches = find_reaches(state.topology)
        assert M.placeable_between_reaches(
            state, reaches, {"r0": 0, "r1": 5}, FIG4_REQUEST) == 0


class TestNetworkRRF:
    def test_fig4_worked_example(self):
        report = M.network_rrf(fig4_state(), FIG4_REQUEST)
        assert report.total_free == pytest.approx(1.05)
        assert report.placeable_multi == 3
        assert report.index == pytest.approx(0.45 / 1.05, abs=1e-6)

    def test_saturated_datacenter_is_index_one(self):
        state = fig4_state()
        for lid in state.link_free:
            state.link_free[lid] = 0.0
        report = M.network_rrf(state, FIG4_REQUEST)
        assert report.total_free == 0.0
        assert report.index == 1.0

    def test_idle_full_bisection_tree_matches_oracle(self):
        t = build_tree(2, 2, UNIT, 1.0, oversub_ratio=1.0)
        state = PlacementState(t)
        req = MultiRequest(cpu=0.2, mem=0.2, nw=0.5)
        report = M.network_rrf(state, req)
        assert report.placeable_multi == M.brute_force_placeable(state, req)

    def test_requires_network_component(self):
        with pytest.raises(ValueError):
            M.network_rrf(fig4_state(), MultiRequest(cpu=0.2, mem=0.2))


class TestBruteForce:
    def test_fig4_maximum_is_three(self):
        assert M.brute_force_placeable(fig4_state(), FIG4_REQUEST) == 3

    def test_naive_order_underperforms_oracle(self):
        # consuming the inter-reach path first strands the other rack at 2
        state = fig4_state()
        t = state.topology
        placed = 0
        for _ in range(2):
            route = t.route("h1", "h3")
            if all(state.link_free[lid] >= 0.2 for lid in route):
                for lid in route:
                    state.link_free[lid] -= 0.2
                placed += 1
        more_possible = any(
            all(state.link_free[lid] >= 0.2 for lid in t.route(a, b))
            for a in ("h1", "h2") for b in ("h3", "h4"))
        assert placed == 2 and not more_possible
        assert M.brute_force_placeable(fig4_state(), FIG4_REQUEST) == 3

    def test_request_larger_than_any_nic(self):
        assert M.brute_force_placeable(fig4_state(),
                                       MultiRequest(cpu=0.2, mem=0.2, nw=0.9)) == 0

    def test_instance_too_large_guard(self):
        t = build_tree(4, 2, UNIT, 1.0, 2.0)
        with pytest.raises(ValueError, match="6 hosts"):
            M.brute_force_placeable(PlacementState(t), FIG4_REQUEST)

    def test_greedy_never_exceeds_oracle(self):
        rng = random.Random(611)
        for _ in range(20):
            state = random_consumed_state(
                rng, build_tree(2, 2, UNIT, 1.0,
                                oversub_ratio=rng.choice([1.0, 2.0, 4.0])))
            req = MultiRequest(cpu=rng.choice([0.1, 0.2, 0.3]),
                               mem=rng.choice([0.1, 0.2, 0.3]),
                               nw=rng.choice([0.1, 0.2, 0.3]))
            report = M.network_rrf(state, req)
            assert report.placeable_multi <= M.brute_force_placeable(state, req)


class TestInvariants:
    def test_indices_bounded_and_deterministic(self):
        rng = random.Random(4242)
        for _ in range(15):
            frees = [(rng.uniform(0, 1), rng.uniform(0, 1), 1.0) for _ in range(4)]
            state = mini_state(frees)
            req = AllocationRequest(rng.choice(["cpu", "mem"]), rng.uniform(0.05, 1.0))
            a = M.fragmentation_index(state, req)
            b = M.fragmentation_index(state, req)
            assert a == b
            assert 0.0 <= a.index <= 1.0

    def test_monotonicity_in_size(self):
        state = fig3_state()
        sizes = [0.1, 0.2, 0.3, 0.5, 0.8]
        counts = [M.fragmentation_index(state, AllocationRequest("mem", s)).placeable
                  for s in sizes]
        assert counts == sorted(counts, reverse=True)
        multi = [M.rrf_index_local(state, MultiRequest(cpu=c, mem=0.25), "mem").placeable_multi
                 for c in sizes]
        assert multi == sorted(multi, reverse=True)

    def test_rrf_dominates_fragmentation(self):
        rng = random.Random(77)
        for _ in range(20):
            frees = [(rng.uniform(0, 1), rng.uniform(0, 1), 1.0) for _ in range(3)]
            state = mini_state(frees)
            size = rng.uniform(0.05, 0.9)
            other = rng.uniform(0.05, 0.9)
            frag = M.fragmentation_index(state, AllocationRequest("mem", size))
            rrf = M.rrf_index_local(state, MultiRequest(cpu=other, mem=size), "mem")
            assert rrf.placeable_multi <= frag.placeable
            assert rrf.index >= frag.index - 1e-12

    def test_monotonicity_in_state(self):
        base = fig4_state()
        smaller = fig4_state()
        for h in smaller.host_free:
            smaller.host_free[h] = smaller.host_free[h].scaled(0.5)
        for dim, size in (("cpu", 0.2), ("mem", 0.2)):
            n_base = M.fragmentation_index(base, AllocationRequest(dim, size)).placeable
            n_small = M.fragmentation_index(smaller, AllocationRequest(dim, size)).placeable
            assert n_small <= n_base


class TestRecordFormat:
    def test_fragmentation_record(self):
        report = M.fragmentation_index(fig3_state(), AllocationRequest("mem", 0.25))
        line = M.format_record(report, AllocationRequest("mem", 0.25))
        assert line == "mem,0.000000000,0.250000000,0.000000000,1.200000000,4,0.166666667"

    def test_network_record(self):
        report = M.network_rrf(fig4_state(), FIG4_REQUEST)
        line = M.format_record(report, FIG4_REQUEST)
        assert line == "nw,0.200000000,0.200000000,0.200000000,1.050000000,3,0.428571429"
