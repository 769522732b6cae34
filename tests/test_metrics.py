import functools
import heapq
import math
import random
from collections import deque

import pytest
from hypothesis import example, given, settings, strategies as st

from dcfrag import metrics as M
from dcfrag.fixtures import (FIG4_REQUEST, UNIT, UNIT_REF, category_rrf_request,
                             category_topology, fig3_state, fig4_state)
from dcfrag.metrics import MultiRequest
from dcfrag.placement import (SCHEMES, CapacityError, PlacementState, SchemeConfig,
                              place_application, reserve_traffic)
from dcfrag.topology import (Host, Link, ResourceVector, Switch, Topology,
                             build_clos, build_tree)
from dcfrag.workload import VM, Application

from oracle import (_ORACLE_CAP, brute_force_placeable, nic_free, reference_consume_paths,
                    reference_paths_bandwidth, reference_shortest_paths)
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
        route, _ = topology.route(a, b, dict.fromkeys(topology.links, 0.0))
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
        report = M.fragmentation_index(fig3_state(), MultiRequest(mem=0.25))
        assert report.total_free == pytest.approx(1.2)
        assert report.placeable_multi == 4
        assert report.index == pytest.approx(1 / 6, abs=1e-9)

    def test_worked_example_point_three(self):
        report = M.fragmentation_index(fig3_state(), MultiRequest(mem=0.3))
        assert report.index == pytest.approx(0.5, abs=1e-12)

    def test_exact_fit_zero_waste(self):
        state = mini_state([(1.0, 0.5, 1.0)])
        report = M.fragmentation_index(state, MultiRequest(mem=0.5))
        assert report.placeable_multi == 1
        assert report.index == 0.0

    def test_zero_total_free_is_index_one(self):
        state = mini_state([(0.0, 0.0, 1.0), (0.0, 0.0, 1.0)])
        report = M.fragmentation_index(state, MultiRequest(cpu=0.5))
        assert report.index == 1.0

    @pytest.mark.parametrize("req", [MultiRequest(), MultiRequest(cpu=0.2, mem=0.25)],
                             ids=["no-dimension", "two-dimensions"])
    def test_needs_exactly_one_nonzero_dimension(self, req):
        with pytest.raises(ValueError, match="exactly one nonzero dimension"):
            M.fragmentation_index(fig3_state(), req)

    def test_network_kind_uses_reach_machinery(self):
        report = M.fragmentation_index(fig4_state(), MultiRequest(nw=0.2))
        assert report.total_free == pytest.approx(1.05)
        # unconstrained cpu/mem: NIC floors {4,1,3,1} pair to 1 per reach with
        # residuals {3,2}; the 0.5 path carries 2 more
        assert report.placeable_multi == 4
        assert report.index == pytest.approx((1.05 - 4 * 0.2) / 1.05)


class TestLocalRRF:
    def test_worked_example(self):
        report = M.rrf_index_local(fig3_state(), MultiRequest(cpu=0.4, mem=0.25), "mem")
        assert report.placeable_multi == 1
        assert report.index == pytest.approx(0.95 / 1.2, abs=1e-9)

    def test_single_dimension_is_fragmentation(self):
        req = MultiRequest(mem=0.25)
        report = M.rrf_index_local(fig3_state(), req, "mem")
        assert report == M.fragmentation_index(fig3_state(), req)
        assert report.placeable_multi == 4
        assert report.index == pytest.approx(1 / 6, abs=1e-9)

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
            assert report.placeable_multi == brute_force_placeable(state, req)


class TestCapacityInsideReaches:
    def test_two_host_pairing(self):
        state = mini_state([(1, 1, 0.8), (1, 1, 0.3)], link_frees=[0.8, 0.3])
        total, residual = M.capacity_inside_reaches(state)
        assert total == pytest.approx(0.3)
        assert residual == [pytest.approx(0.5)]

    def test_single_host_contributes_nothing(self):
        # second host fully used: only one NIC left to pair
        state = mini_state([(1, 1, 0.5), (0, 0, 0.0)], link_frees=[0.5, 0.0])
        total, residual = M.capacity_inside_reaches(state)
        assert total == pytest.approx(0.0)
        assert residual == [pytest.approx(0.5)]

    def test_fig4_total(self):
        state = fig4_state()
        total, residual = M.capacity_inside_reaches(state)
        assert total == pytest.approx(0.55)
        assert residual == [pytest.approx(0.5), pytest.approx(0.5)]


def _pair_reduce_by_sorting(values):
    """Reference: re-sort every step, pair the top two."""
    items = list(values)
    acc = 0
    while len(items) > 1:
        items.sort(reverse=True)
        v_max, v_smax = items[0], items[1]
        acc += v_smax
        items[0] = v_max - v_smax
        del items[1]
    return acc, (items[0] if items else 0)


class TestPairReduce:
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(
        st.lists(st.integers(0, 12), max_size=12),
        st.lists(st.sampled_from([0.0, 0.1, 0.25, 0.3, 0.5, 0.7, 1.0]), max_size=12),
        st.lists(st.floats(0, 10, allow_nan=False), max_size=12)))
    def test_matches_sort_every_step(self, values):
        got, want = M._pair_reduce(values), _pair_reduce_by_sorting(values)
        assert got == want
        assert [type(x) for x in got] == [type(x) for x in want]


def capacity_split(state):
    """(inside, between): the two capacity phases, the first one's residuals
    fed to the second, as network_rrf runs them."""
    inside, residual = M.capacity_inside_reaches(state)
    return inside, M.capacity_between_reaches(state, residual)


class TestCapacityBetweenReaches:
    def test_fig4(self):
        state = fig4_state()
        _, residual = M.capacity_inside_reaches(state)
        assert M.capacity_between_reaches(state, residual) == pytest.approx(0.5)
        inside, between = capacity_split(state)
        total = M.network_rrf(state, FIG4_REQUEST).total_free
        assert total == pytest.approx(1.05)
        assert total == inside + between

    def test_zero_residual_contributes_nothing(self):
        assert M.capacity_between_reaches(fig4_state(), [0.0, 0.7]) == 0.0

    @pytest.mark.parametrize("walk", ["capacity", "placeable"])
    def test_caller_residuals_unchanged(self, walk):
        # the walk consumes residuals as it steps, on a copy of the caller's list
        state = fig4_state()
        residual = [0.5, 0.5] if walk == "capacity" else [1, 1]
        given = list(residual)
        if walk == "capacity":
            got = M.capacity_between_reaches(state, residual)
        else:
            got = M.placeable_between_reaches(state, residual, FIG4_REQUEST)
        assert got > 0
        assert residual == given


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
    return PlacementState(Topology(hosts, switches, links, UNIT_REF))


def leaf_spine():
    """Two racks of two hosts under spines m1 and m2, everything free. Each
    TOR has 1.0 of uplinks over 2.0 of host links, so each rack is a reach."""
    hosts = [Host(id=f"h{i}", capacity=UNIT, free=UNIT) for i in (1, 2, 3, 4)]
    switches = [Switch(id=s, level=lvl) for s, lvl in
                (("s1", 0), ("s2", 0), ("m1", 1), ("m2", 1))]
    links = [Link(id=f"{h.id}-{tor}", a=h.id, b=tor, capacity=1.0, free=1.0)
             for h, tor in zip(hosts, ("s1", "s1", "s2", "s2"))]
    links += [Link(id=f"{tor}-{m}", a=tor, b=m, capacity=0.5, free=0.5)
              for tor in ("s1", "s2") for m in ("m1", "m2")]
    return Topology(hosts, switches, links, UNIT_REF)


class TestThreeReachLine:
    def test_pair_walk_takes_adjacent_pairs_first(self):
        state = three_reach_line()
        reaches = state.topology.reaches
        assert len(reaches) == 3
        total, residual = M.capacity_inside_reaches(state)
        assert total == pytest.approx(0.4 + 0.5 + 0.2)
        assert residual == [pytest.approx(0.2), pytest.approx(0.2), pytest.approx(0.6)]
        between = M.capacity_between_reaches(state, residual)
        # adjacent pairs first (hops 2), max-bandwidth tie-break picks r0-r1
        assert between == pytest.approx(0.2)


def _bfs_reach_distance(t, ri, rj):
    """Minimum switch-only BFS hop count over all boundary switch pairs, on
    switch neighbours read from t.links alone."""
    peers = {s: [] for s in t.switches}
    for link in t.links.values():
        if link.a in peers and link.b in peers:
            peers[link.a].append(link.b)
            peers[link.b].append(link.a)
    best = float("inf")
    for a in ri.switches:
        dist = {a: 0}
        frontier = deque([a])
        while frontier:
            node = frontier.popleft()
            for peer in peers[node]:
                if peer not in dist:
                    dist[peer] = dist[node] + 1
                    frontier.append(peer)
        best = min([best] + [dist[b] for b in rj.switches if b in dist])
    return best


class TestReachDistance:
    def test_matches_switch_bfs_minimum(self):
        expected = {"fig4": [2], "clos": [2], "line": [2, 4, 2]}
        for name, t in (("fig4", fig4_state().topology),
                        ("clos", build_clos(2, 2, 2, UNIT, 1.0, core_oversub=2.0)),
                        ("line", three_reach_line().topology)):
            reaches = t.reaches
            pairs = [(ri, rj) for i, ri in enumerate(reaches) for rj in reaches[i + 1:]]
            distance = {(reaches[p.i], reaches[p.j]): p.distance for p in t.reach_pairs}
            got = [distance[pair] for pair in pairs]
            assert got == [_bfs_reach_distance(t, ri, rj) for ri, rj in pairs]
            assert got == expected[name]
            assert got == [len(t.reach_paths(rj, ri)[0]) for ri, rj in pairs]


def _replay_walk(t, reaches, residuals, link_free, fit, unit):
    """Independent replay of the between-reach walk by its stated rule.

    With the reaches in canonical order (sorted by their hosts), re-rank all
    remaining pairs at every step by (reach distance, -path bandwidth, ids),
    take min(both residuals, fit(bandwidth)) from the first and consume
    `unit` per taken unit along its paths. `residuals` is in t.reaches order.
    Bandwidths are read and consumed by the builtin-form references.
    """
    link_free = dict(link_free)
    res = {r.id: x for r, x in zip(t.reaches, residuals)}
    reaches = sorted(reaches, key=lambda r: r.hosts)
    pairs = [(ri, rj) for i, ri in enumerate(reaches) for rj in reaches[i + 1:]]
    # a pair's distance and paths are facts of the fabric, so they are found once
    distance = {p: _bfs_reach_distance(t, *p) for p in pairs}
    paths = {p: t.reach_paths(*p) for p in pairs}

    def bandwidth(p):
        return reference_paths_bandwidth(paths[p], link_free, t.reference.link)

    total = 0
    while pairs:
        p = min(pairs, key=lambda p: (distance[p], -bandwidth(p), p[0].id, p[1].id))
        pairs.remove(p)
        ri, rj = p
        step = min(res[ri.id], res[rj.id], fit(bandwidth(p)))
        if step > 1e-9:
            total += step
            res[ri.id] -= step
            res[rj.id] -= step
            reference_consume_paths(paths[p], link_free, step * unit * t.reference.link)
    return total


def _unread_walk(state, residuals, fit, unit):
    """Reference walk with no pair-order slot: every live pair enters the
    heap unread (key -inf) and is read from the state's links on top, by the
    builtin-form references."""
    t = state.topology
    res = list(residuals)
    live = [r > 1e-9 for r in res]
    if live.count(True) < 2:
        return 0
    link_free = dict(state.link_free)
    heap = [(d, -math.inf, rank, i, j, paths)
            for d, rank, i, j, paths in t.reach_pairs if live[i] and live[j]]
    total = 0
    while heap:
        dist, key, rank, i, j, paths = heap[0]
        if res[i] <= 1e-9 or res[j] <= 1e-9:
            heapq.heappop(heap)
            continue
        bw = reference_paths_bandwidth(paths, link_free, t.reference.link)
        if -bw != key:
            heapq.heapreplace(heap, (dist, -bw, rank, i, j, paths))
            continue
        heapq.heappop(heap)
        step = min(res[i], res[j], fit(bw))
        if step > 1e-9:
            total += step
            res[i] -= step
            res[j] -= step
            reference_consume_paths(t.reach_paths(t.reaches[i], t.reaches[j]), link_free,
                                    step * unit * t.reference.link)
    return total


@functools.cache
def _walk_fabric(fabric, size, oversub):
    """One immutable topology per drawn shape, built once: a fresh state over
    it per example keeps the examples apart, and generating an example costs
    no fabric build (shrinking a failure generates hundreds)."""
    if fabric == "tree":
        return build_tree(size, 2, UNIT, 1.0, oversub_ratio=oversub)
    if fabric == "clos":
        return build_clos(size, 2, 2, UNIT, 1.0, core_oversub=oversub)
    return three_reach_line().topology


@st.composite
def walk_instances(draw):
    """A multi-reach fabric with drawn link frees and per-reach residuals."""
    fabric = draw(st.sampled_from(["tree", "clos", "line"]))
    size = oversub = None
    if fabric != "line":
        size = draw(st.sampled_from([2, 4, 6] if fabric == "tree" else [2, 4]))
        oversub = draw(st.sampled_from([2.0, 4.0]))
    state = PlacementState(_walk_fabric(fabric, size, oversub))
    t = state.topology
    for lid in sorted(state.link_free):
        state.link_free[lid] = t.links[lid].capacity * draw(st.integers(0, 2)) / 2
    reaches = t.reaches
    res_bw = [draw(st.integers(0, 8)) / 4 for _ in reaches]
    res_req = [draw(st.integers(0, 8)) for _ in reaches]
    req = MultiRequest(nw=draw(st.sampled_from([0.05, 0.1, 0.2, 0.3])))
    return state, reaches, res_bw, res_req, req


def _tree_walk(frees, res_bw, res_req, nw):
    """A walk instance on a tree of len(frees) racks, one reach each, under
    one core: rack i's core uplink holds frees[i] / 4."""
    state = PlacementState(_walk_fabric("tree", len(frees), 2.0))
    for reach, free in zip(state.topology.reaches, frees):
        state.link_free[f"{reach.switches[0]}-core"] = free / 4
    return state, state.topology.reaches, res_bw, res_req, MultiRequest(nw=nw)


class TestPairWalk:
    # the examples share core links, so a step leaves later rows stale; a
    # re-keyed row is then smaller than the run's next row, and a walk that
    # takes the run's row first gives a different bandwidth and count
    @settings(max_examples=200, deadline=None)
    @given(walk_instances())
    @example(_tree_walk([1, 4, 3, 3], [0.5, 0.25, 1.0, 0.75], [4, 4, 6, 8], 0.2))
    @example(_tree_walk([3, 3, 4, 1, 2, 1], [0.75, 0.25, 1.0, 0.75, 0.5, 0.25],
                        [2, 7, 8, 1, 2, 0], 0.1))
    def test_matches_exhaustive_pair_order_replay(self, instance):
        state, reaches, res_bw, res_req, req = instance
        t = state.topology
        got_bw = M.capacity_between_reaches(state, res_bw)
        assert got_bw == pytest.approx(_replay_walk(
            t, reaches, res_bw, state.link_free, lambda bw: bw, 1.0), abs=1e-12)
        got_count = M.placeable_between_reaches(state, res_req, req)
        assert got_count == _replay_walk(
            t, reaches, res_req, state.link_free, lambda bw: M.fit_count(bw, req.nw),
            req.nw)
        inside, between = capacity_split(state)
        assert inside + between == M.network_rrf(state, req).total_free

    def test_tied_pairs_break_on_reach_ids(self):
        # every pair but (r2, r3) ties at bandwidth 0.5, so the id tie-break
        # decides: (r0, r1) first gives 0.5, (r0, r2) first would give 1.0
        state = PlacementState(build_tree(4, 2, UNIT, 1.0, oversub_ratio=2.0))
        state.link_free.update({"t0-core": 0.5, "t1-core": 0.5})
        res_bw = [1.0, 0.5, 1.5, 0.0]
        assert M.capacity_between_reaches(state, res_bw) == 0.5

    def test_many_tied_pairs_match_the_replay(self):
        # 16 racks under one core with equal uplink frees: all 120 pairs tie
        # on distance and bandwidth, so every choice falls to the id order
        # ("r10" < "r2"), and each step lowers the keys of 28 other pairs
        state = PlacementState(build_tree(16, 2, UNIT, 1.0, oversub_ratio=2.0))
        t = state.topology
        for lid in t.links:
            if lid.endswith("-core"):
                state.link_free[lid] = 0.75
        reaches = t.reaches
        res_bw = [(0.25, 0.5, 1.0, 0.0)[i % 4] for i in range(len(reaches))]
        res_req = [(3, 1, 0, 5)[i % 4] for i in range(len(reaches))]
        req = MultiRequest(nw=0.25)
        want_bw = _replay_walk(t, reaches, res_bw, state.link_free, lambda bw: bw, 1.0)
        want_count = _replay_walk(t, reaches, res_req, state.link_free,
                                  lambda bw: M.fit_count(bw, req.nw), req.nw)
        assert want_bw > 0 and want_count > 0
        assert M.capacity_between_reaches(state, res_bw) == want_bw
        assert M.placeable_between_reaches(state, res_req, req) == want_count

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(0, 4), min_size=16, max_size=16),
           st.lists(st.integers(0, 6), min_size=16, max_size=16),
           st.sampled_from([0.1, 0.25, 0.3]))
    def test_sixteen_racks_with_exhausted_reaches(self, frees, counts, nw):
        # zero residuals drop pairs unread; shared core uplinks make the
        # bandwidths fall between reads, so stale keys get re-keyed
        counts[0] = 0
        state = PlacementState(build_tree(16, 2, UNIT, 1.0, oversub_ratio=2.0))
        t = state.topology
        reaches = t.reaches
        for reach, free in zip(reaches, frees):
            state.link_free[f"{reach.switches[0]}-core"] = free / 4
        res_bw = [c / 4 for c in counts]
        res_req = list(counts)
        req = MultiRequest(nw=nw)
        assert M.capacity_between_reaches(state, res_bw) == _replay_walk(
            t, reaches, res_bw, state.link_free, lambda bw: bw, 1.0)
        assert M.placeable_between_reaches(state, res_req, req) == _replay_walk(
            t, reaches, res_req, state.link_free, lambda bw: M.fit_count(bw, req.nw), req.nw)

    @pytest.mark.parametrize("state", [
        three_reach_line(),
        PlacementState(build_tree(6, 2, UNIT, 1.0, oversub_ratio=2.0)),
        PlacementState(build_clos(4, 2, 2, UNIT, 1.0, core_oversub=2.0)),
    ], ids=["line", "tree", "clos"])
    def test_reach_pairs_is_the_rescan_pair_list(self, state):
        t = state.topology
        ordered = sorted(t.reaches, key=lambda r: r.hosts)
        want = sorted((_bfs_reach_distance(t, ri, rj), ri.id, rj.id, ri, rj)
                      for i, ri in enumerate(ordered) for rj in ordered[i + 1:])
        assert [(p.distance, ordered[p.i].id, ordered[p.j].id, ordered[p.i], ordered[p.j])
                for p in t.reach_pairs] == want
        assert t.reach_pairs is t.reach_pairs


def _fresh_pair_order(state):
    """The rows _pair_order must hold, sorted from the state's links."""
    t = state.topology
    return sorted((d, -reference_paths_bandwidth(paths, state.link_free, t.reference.link),
                   rank, i, j, paths) for d, rank, i, j, paths in t.reach_pairs)


class TestPairOrder:
    @staticmethod
    def check(state, res_bw, res_req, req):
        fit = lambda bw: M.fit_count(bw, req.nw)
        assert M.capacity_between_reaches(state, res_bw) == float(
            _unread_walk(state, res_bw, lambda bw: bw, 1.0))
        assert M.placeable_between_reaches(state, res_req, req) == _unread_walk(
            state, res_req, fit, req.nw)
        assert M._pair_order(state) == _fresh_pair_order(state)

    @settings(max_examples=200, deadline=None)
    @given(walk_instances(), st.data())
    def test_cached_order_walks_equal_the_unread_walk(self, instance, data):
        state, _, res_bw, res_req, req = instance
        t = state.topology
        self.check(state, res_bw, res_req, req)  # slot miss
        slot = state.reach_memo.get(M._PAIR_ORDER)
        self.check(state, res_bw, res_req, req)  # slot hit
        assert state.reach_memo.get(M._PAIR_ORDER) is slot
        lid = data.draw(st.sampled_from(sorted(state.link_free)))
        state.link_free[lid] = t.links[lid].capacity * data.draw(st.integers(0, 4)) / 4
        self.check(state, res_bw, res_req, req)  # a miss when lid is on a reach path

    def test_unchanged_fabric_builds_the_rows_once(self):
        # two racks with one half-worn uplink each leave residuals on both
        # sides, so both walks of every network_rrf read the pair order
        state = PlacementState(build_tree(4, 2, UNIT, 1.0, oversub_ratio=2.0))
        state.link_free.update({"h0-t0": 0.5, "h2-t1": 0.5})
        req = MultiRequest(nw=0.1)
        first = M.network_rrf(state, req)
        assert capacity_split(state)[1] > 0
        links_of, _, rows = state.reach_memo[M._PAIR_ORDER]
        assert len(rows) == len(state.topology.reach_pairs)
        assert M.network_rrf(state, req) == first
        assert state.reach_memo[M._PAIR_ORDER][2] is rows
        state.link_free["t0-core"] = 0.25
        M.network_rrf(state, req)
        assert state.reach_memo[M._PAIR_ORDER][2] is not rows
        assert state.reach_memo[M._PAIR_ORDER][0] is links_of  # built once per state

    @pytest.mark.parametrize("state", [
        mini_state([(1.0, 1.0, 1.0)] * 2),
        PlacementState(build_tree(2, 2, UNIT, 1.0, oversub_ratio=2.0)),
        three_reach_line(),
    ], ids=["no-pair", "one-pair", "line"])
    def test_slot_key_holds_the_reach_path_link_frees_in_id_order(self, state):
        # half-wear one uplink per reach, so every reach keeps a residual
        t = state.topology
        for r in t.reaches:
            lid = t.host_ports[r.hosts[0]][0]
            state.link_free[lid] = t.links[lid].capacity / 2
        assert all(res > 0 for res in M.capacity_inside_reaches(state)[1])
        M.network_rrf(state, MultiRequest(nw=0.1))
        if len(t.reaches) < 2:  # no pair to walk: the getter would have no link
            assert M._PAIR_ORDER not in state.reach_memo
            return
        links = sorted({lid for p in t.reach_pairs for path in p.paths for lid in path})
        _, key, _ = state.reach_memo[M._PAIR_ORDER]
        assert key == tuple(state.link_free[lid] for lid in links)


class TestLiveReachWalk:
    def test_empty_category1_tree_builds_no_reach_path(self):
        # every rack pairs its four idle hosts fully, so no reach is live
        state = PlacementState(category_topology(1))
        t = state.topology
        report = M.network_rrf(state, category_rrf_request(1))
        assert report.placeable_multi > 0
        assert capacity_split(state)[1] == 0.0
        assert t._reach_paths == {}
        assert "reach_pairs" not in vars(t)

    def test_one_live_reach_walks_nothing(self):
        state = PlacementState(build_tree(16, 2, UNIT, 1.0, oversub_ratio=2.0))
        t = state.topology
        res = [0.0] * len(t.reaches)
        res[3] = 1.0  # r3
        assert M.capacity_between_reaches(state, res) == 0.0
        assert M.placeable_between_reaches(state, res, MultiRequest(nw=0.1)) == 0
        assert t._reach_paths == {}


class TestPathBandwidth:
    def test_fig4_single_path(self):
        state = fig4_state()
        r0, r1 = state.topology.reaches
        assert M.path_bandwidth(state.topology, r0, r1, state.link_free) == pytest.approx(0.5)

    def test_same_reach_rejected(self):
        state = fig4_state()
        r0, _ = state.topology.reaches
        with pytest.raises(ValueError):
            M.path_bandwidth(state.topology, r0, r0, state.link_free)

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
        r0, r1 = t.reaches
        got = M.path_bandwidth(t, r0, r1, PlacementState(t).link_free)
        assert got == pytest.approx(0.7)
        assert got == pytest.approx(_max_flow(t, set(r0.switches), set(r1.switches)))

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_bandwidth_and_consumption_equal_the_builtin_forms(self, data):
        # frees just below, at and around zero, and tied, so that the floor at
        # 0.0, the first of tied minima and the _EPS skip all decide somewhere
        value = st.sampled_from([-1e-12, -0.0, 0.0, 1e-12, 1e-10, 0.25, 0.5, 1.0])
        link_free = {f"l{k}": data.draw(value) for k in range(5)}
        link = st.sampled_from(sorted(link_free))
        paths = data.draw(st.lists(st.lists(link, min_size=1, max_size=4, unique=True),
                                   min_size=1, max_size=3))
        ref_link = data.draw(st.sampled_from([1.0, 3.0, 10.0]))
        want = reference_paths_bandwidth(paths, link_free, ref_link)
        assert repr(M._paths_bandwidth(paths, link_free, ref_link)) == repr(want)
        remaining = data.draw(st.sampled_from(sorted(set(link_free.values()) | {0.3, 2.0})))
        got, want = dict(link_free), dict(link_free)
        M._consume_paths(paths, got, remaining)
        reference_consume_paths(paths, want, remaining)
        assert {k: repr(v) for k, v in got.items()} == {k: repr(v) for k, v in want.items()}


def _max_flow(t, sources, sinks):
    """Independent BFS max-flow over the switch graph (unit-normalized)."""
    residual = {}
    for l in t.links.values():
        if l.a in t.hosts or l.b in t.hosts:
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


def _filtered_inside(state, req):
    """placeable_inside_reaches with the NIC eligibility filter it once had:
    hosts whose NIC headroom is below req.nw - 1e-9 do not pair at all."""
    total, residuals = 0, []
    for reach in state.topology.reaches:
        eligible = [h for h in reach.hosts if nic_free(state, h) >= req.nw - 1e-9]
        got, res = M._pair_reduce(M._host_counts(state, eligible, req))
        total += got
        residuals.append(res)
    return total, residuals


@st.composite
def nic_edge_states(draw):
    """A tree whose hosts' NIC headroom sits at, or within 1e-9 of, a small
    multiple of the request's network size."""
    t = build_tree(draw(st.sampled_from([2, 4])), draw(st.sampled_from([2, 4])),
                   UNIT, 1.0, oversub_ratio=2.0)
    state = PlacementState(t)
    req = MultiRequest(cpu=draw(st.sampled_from([0.0, 0.1, 0.3])),
                       mem=draw(st.sampled_from([0.0, 0.2, 0.25])),
                       nw=draw(st.sampled_from([0.05, 0.1, 0.2, 0.3, 1 / 3, 0.7, 1.0])))
    offsets = st.sampled_from([0.0, 1e-10, -1e-10, 1e-9, -1e-9])
    for h in sorted(t.hosts):
        state.host_free[h] = ResourceVector(draw(st.sampled_from([0.0, 0.3, 1.0])),
                                            draw(st.sampled_from([0.0, 0.5, 1.0])), 1.0)
        headroom = draw(st.sampled_from([0, 1, 2, 3])) * req.nw + draw(offsets)
        state.link_free[t.host_ports[h][0]] = min(1.0, max(0.0, headroom))
    return state, req


class TestPlaceableCounts:
    @settings(max_examples=500, deadline=None)
    @given(nic_edge_states())
    def test_nic_filter_is_redundant(self, instance):
        # a host the filter dropped counts zero on its NIC dimension, and a
        # zero count pairs nothing and leaves no residual
        state, req = instance
        assert M.placeable_inside_reaches(state, req) == _filtered_inside(state, req)

    def test_fig4_inside(self):
        count, residual = M.placeable_inside_reaches(fig4_state(), FIG4_REQUEST)
        assert count == 2
        assert residual == [1, 1]

    def test_fig4_between_and_total(self):
        state = fig4_state()
        count, residual = M.placeable_inside_reaches(state, FIG4_REQUEST)
        between = M.placeable_between_reaches(state, residual, FIG4_REQUEST)
        assert between == 1
        assert count + between == 3

    def test_zero_network_component_rejected(self):
        with pytest.raises(ValueError):
            M.placeable_inside_reaches(fig4_state(), MultiRequest(cpu=0.2, mem=0.2))

    def test_unplaceable_everywhere(self):
        req = MultiRequest(cpu=0.5, mem=0.5, nw=0.2)
        count, _ = M.placeable_inside_reaches(fig4_state(), req)
        assert count == 0

    def test_single_eligible_host_keeps_residual(self):
        state = mini_state([(1.0, 1.0, 1.0), (0.0, 0.0, 0.0)], link_frees=[1.0, 0.0])
        req = MultiRequest(cpu=0.2, mem=0.2, nw=0.2)
        count, residual = M.placeable_inside_reaches(state, req)
        assert count == 0
        assert residual == [5]

    def test_between_respects_narrow_path(self):
        state = fig4_state()
        req = MultiRequest(cpu=0.4, mem=0.4, nw=0.6)
        count, residual = M.placeable_inside_reaches(state, req)
        assert count == 0
        # path free is 0.5 < 0.6: nothing placeable across
        assert M.placeable_between_reaches(state, residual, req) == 0

    def test_zero_residual_between(self):
        assert M.placeable_between_reaches(
            fig4_state(), [0, 5], FIG4_REQUEST) == 0


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
        assert report.placeable_multi == brute_force_placeable(state, req)

    def test_requires_network_component(self):
        with pytest.raises(ValueError):
            M.network_rrf(fig4_state(), MultiRequest(cpu=0.2, mem=0.2))


class TestBruteForce:
    def test_fig4_maximum_is_three(self):
        assert brute_force_placeable(fig4_state(), FIG4_REQUEST) == 3

    def test_naive_order_underperforms_oracle(self):
        # consuming the inter-reach path first strands the other rack at 2
        state = fig4_state()
        t = state.topology
        zero = dict.fromkeys(t.links, 0.0)
        placed = 0
        for _ in range(2):
            route, _ = t.route("h1", "h3", zero)
            if all(state.link_free[lid] >= 0.2 for lid in route):
                for lid in route:
                    state.link_free[lid] -= 0.2
                placed += 1
        more_possible = any(
            all(state.link_free[lid] >= 0.2 for lid in t.route(a, b, zero)[0])
            for a in ("h1", "h2") for b in ("h3", "h4"))
        assert placed == 2 and not more_possible
        assert brute_force_placeable(fig4_state(), FIG4_REQUEST) == 3

    def test_every_shortest_path_is_a_choice(self):
        # two TORs under two spines, every TOR-spine link 0.25 free: h1-h3
        # fits one 0.2 request per spine, two in all
        cpu = {"h1": 0.4, "h2": 0.0, "h3": 0.4, "h4": 0.0}
        hosts = [Host(id=h, capacity=UNIT, free=ResourceVector(c, 1.0, 1.0))
                 for h, c in cpu.items()]
        switches = [Switch(id=s, level=lvl) for s, lvl in
                    (("s1", 0), ("s2", 0), ("m1", 1), ("m2", 1))]
        links = [Link(id=f"{h}-{tor}", a=h, b=tor, capacity=1.0, free=1.0)
                 for h, tor in (("h1", "s1"), ("h2", "s1"), ("h3", "s2"), ("h4", "s2"))]
        links += [Link(id=f"{tor}-{m}", a=tor, b=m, capacity=1.0, free=0.25)
                  for tor in ("s1", "s2") for m in ("m1", "m2")]
        t = Topology(hosts, switches, links, UNIT_REF)
        assert reference_shortest_paths(t, "h3", "h1") == [
            ("h1-s1", "s1-m1", "s2-m1", "h3-s2"), ("h1-s1", "s1-m2", "s2-m2", "h3-s2")]
        state = PlacementState(t)
        assert brute_force_placeable(state, FIG4_REQUEST) == 2
        assert M.network_rrf(state, FIG4_REQUEST).placeable_multi == 2

    @pytest.mark.xfail(strict=True, reason=(
        "FOUND: metrics._walk_between counts a reach pair's link-disjoint paths "
        "as one splittable pipe"))
    def test_count_walk_splits_no_request_across_paths(self):
        # two 0.15 paths sum to 0.3, which the count walk fits one 0.2 request
        # into; no single path carries 0.2, so nothing can be placed
        state = PlacementState(leaf_spine())
        for h, free in (("h1", 0.3), ("h2", 0.0), ("h3", 0.3), ("h4", 0.0)):
            state.host_free[h] = ResourceVector(free, free, 1.0)
        for tor in ("s1", "s2"):
            for m in ("m1", "m2"):
                state.link_free[f"{tor}-{m}"] = 0.15
        assert brute_force_placeable(state, FIG4_REQUEST) == 0
        assert M.network_rrf(state, FIG4_REQUEST).placeable_multi == 0

    def test_request_larger_than_any_nic(self):
        assert brute_force_placeable(fig4_state(), MultiRequest(cpu=0.2, mem=0.2, nw=0.9)) == 0

    def test_instance_too_large_guard(self):
        t = build_tree(4, 2, UNIT, 1.0, 2.0)
        with pytest.raises(ValueError, match="6 hosts"):
            brute_force_placeable(PlacementState(t), FIG4_REQUEST)

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
            assert report.placeable_multi <= brute_force_placeable(state, req)


class TestInvariants:
    def test_indices_bounded_and_deterministic(self):
        rng = random.Random(4242)
        for _ in range(15):
            frees = [(rng.uniform(0, 1), rng.uniform(0, 1), 1.0) for _ in range(4)]
            state = mini_state(frees)
            req = MultiRequest(**{rng.choice(["cpu", "mem"]): rng.uniform(0.05, 1.0)})
            a = M.fragmentation_index(state, req)
            b = M.fragmentation_index(state, req)
            assert a == b
            assert 0.0 <= a.index <= 1.0

    def test_monotonicity_in_size(self):
        state = fig3_state()
        sizes = [0.1, 0.2, 0.3, 0.5, 0.8]
        counts = [M.fragmentation_index(state, MultiRequest(mem=s)).placeable_multi
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
            frag = M.fragmentation_index(state, MultiRequest(mem=size))
            rrf = M.rrf_index_local(state, MultiRequest(cpu=other, mem=size), "mem")
            assert rrf.placeable_multi <= frag.placeable_multi
            assert rrf.index >= frag.index - 1e-12

    def test_monotonicity_in_state(self):
        base = fig4_state()
        smaller = fig4_state()
        for h in smaller.host_free:
            free = smaller.host_free[h]
            smaller.host_free[h] = ResourceVector(free.cpu / 2, free.mem / 2, free.nic / 2)
        for dim, size in (("cpu", 0.2), ("mem", 0.2)):
            n_base = M.fragmentation_index(base, MultiRequest(**{dim: size})).placeable_multi
            n_small = M.fragmentation_index(smaller, MultiRequest(**{dim: size})).placeable_multi
            assert n_small <= n_base


@st.composite
def small_instances(draw):
    """A fabric of at most 6 hosts (a 2x2 tree, the leaf-spine or the
    three-reach line) with drawn host frees, link frees and request."""
    fabric = draw(st.sampled_from(["tree", "leaf-spine", "line"]))
    if fabric == "tree":
        t = build_tree(2, 2, UNIT, 1.0, oversub_ratio=draw(st.sampled_from([1.0, 2.0, 4.0])))
    elif fabric == "leaf-spine":
        t = leaf_spine()
    else:
        t = three_reach_line().topology
    state = PlacementState(t)
    share = st.integers(0, 20).map(lambda k: k / 20)
    for h in sorted(state.host_free):
        state.host_free[h] = ResourceVector(draw(share), draw(share), state.host_free[h].nic)
    for lid in sorted(state.link_free):
        state.link_free[lid] = t.links[lid].capacity * draw(share)
    size = st.integers(1, 20).map(lambda k: k / 20)
    return state, MultiRequest(cpu=draw(size), mem=draw(size), nw=draw(size))


@st.composite
def reachable_single_path_instances(draw):
    """A 2x2 tree (oversubscribed 1, 2 or 4 times) or the three-reach line,
    with drawn host frees, link frees left only by routed host-pair flows
    (as random_consumed_state leaves them) and a drawn request."""
    fabric = draw(st.sampled_from([1.0, 2.0, 4.0, "line"]))
    if fabric == "line":
        state = three_reach_line()
    else:
        state = PlacementState(build_tree(2, 2, UNIT, 1.0, oversub_ratio=fabric))
    t = state.topology
    hosts = sorted(state.host_free)
    share = st.integers(0, 20).map(lambda k: k / 20)
    for h in hosts:
        state.host_free[h] = ResourceVector(draw(share), draw(share), state.host_free[h].nic)
    zero = dict.fromkeys(t.links, 0.0)
    flow = st.tuples(st.sampled_from(hosts), st.sampled_from(hosts),
                     st.integers(1, 12).map(lambda k: k / 20))
    for a, b, bw in draw(st.lists(flow.filter(lambda f: f[0] != f[1]), max_size=12)):
        route, _ = t.route(a, b, zero)
        if all(state.link_free[lid] >= bw for lid in route):
            for lid in route:
                state.link_free[lid] -= bw
    # up to half a host, so most draws leave the oracle something to place
    size = st.integers(1, 10).map(lambda k: k / 20)
    return state, MultiRequest(cpu=draw(size), mem=draw(size), nw=draw(size))


class TestInvariantProperties:
    # greedy <= oracle is checked only over reachable states of single-path
    # fabrics, and only where the oracle is exact, below _ORACLE_CAP
    # placements: on the leaf-spine the count walk splits a request across
    # paths (the xfail reproducer in TestBruteForce), and on an idle 2x2 tree
    # a (0.1, 0.1, 0.1) request counts 20 against a capped search's 12
    @settings(max_examples=300, deadline=None)
    @given(reachable_single_path_instances())
    def test_greedy_never_exceeds_oracle_on_single_path_fabrics(self, instance):
        state, req = instance
        oracle = brute_force_placeable(state, req)
        if oracle < _ORACLE_CAP:
            assert M.network_rrf(state, req).placeable_multi <= oracle

    @settings(max_examples=300, deadline=None)
    @given(small_instances())
    def test_network_rrf_dominates_fragmentation(self, instance):
        state, req = instance
        frag = M.fragmentation_index(state, MultiRequest(nw=req.nw))
        assert M.network_rrf(state, req).index >= frag.index

    @settings(max_examples=300, deadline=None)
    @given(small_instances(), st.sampled_from(["cpu", "mem"]))
    def test_local_rrf_dominates_fragmentation(self, instance, target):
        state, req = instance
        frag = M.fragmentation_index(state, MultiRequest(**{target: getattr(req, target)}))
        assert M.rrf_index_local(state, req, target).index >= frag.index

    @settings(max_examples=300, deadline=None)
    @given(small_instances())
    def test_inside_plus_between_is_total(self, instance):
        state, req = instance
        inside, between = capacity_split(state)
        assert inside + between == M.network_rrf(state, req).total_free

    @settings(max_examples=300, deadline=None)
    @given(small_instances())
    def test_indices_lie_in_unit_interval(self, instance):
        state, req = instance
        reports = [M.network_rrf(state, req), M.rrf_index_local(state, req, "cpu"),
                   M.rrf_index_local(state, req, "mem")]
        reports += [M.fragmentation_index(state, MultiRequest(**{dim: getattr(req, dim)}))
                    for dim in ("cpu", "mem", "nw")]
        assert all(0.0 <= r.index <= 1.0 for r in reports)


class TestRecordFormat:
    def test_fragmentation_record(self):
        report = M.fragmentation_index(fig3_state(), MultiRequest(mem=0.25))
        line = M.format_record(report, MultiRequest(mem=0.25))
        assert line == "mem,0.000000000,0.250000000,0.000000000,1.200000000,4,0.166666667"

    def test_network_record(self):
        report = M.network_rrf(fig4_state(), FIG4_REQUEST)
        line = M.format_record(report, FIG4_REQUEST)
        assert line == "nw,0.200000000,0.200000000,0.200000000,1.050000000,3,0.428571429"


def _recount_host(state, host_id, req):
    """Reference per-host count: fit_count over the normalized free of each
    of req's nonzero dimensions, the NIC read from the uplink."""
    t = state.topology
    free, ref = state.host_free[host_id], t.reference
    counts = [M.fit_count(getattr(free, dim) / getattr(ref.host, dim), getattr(req, dim))
              for dim in ("cpu", "mem") if getattr(req, dim) > 0]
    if req.nw > 0:
        counts.append(M.fit_count(state.link_free[t.host_ports[host_id][0]] / ref.link, req.nw))
    return min(counts)


_FREES = st.one_of(st.sampled_from([0.0, 0.1, 0.2, 0.25, 0.3, 0.5, 0.6, 0.75, 0.9, 1.0]),
                   st.floats(0, 1))
_SIZES = st.one_of(st.sampled_from([0.05, 0.1, 0.2, 0.25, 0.3, 0.5, 1.0]), st.floats(0.01, 1))


class TestHostCounts:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(_FREES, _FREES, _FREES), min_size=1, max_size=5),
           st.lists(_FREES, min_size=5, max_size=5),
           st.sets(st.sampled_from(["cpu", "mem", "nw"]), min_size=1), _SIZES, _SIZES, _SIZES)
    def test_matches_a_per_dimension_fit_count(self, frees, uplinks, dims, cpu, mem, nw):
        # zero frees count 0; exact multiples such as 0.3 / 0.1 count whole
        state = mini_state(frees, uplinks[:len(frees)])
        sizes = {"cpu": cpu, "mem": mem, "nw": nw}
        req = MultiRequest(**{d: sizes[d] for d in dims})
        hosts = sorted(state.host_free)
        assert M._host_counts(state, hosts, req) == [_recount_host(state, h, req)
                                                     for h in hosts]
        assert all(type(n) is int for n in M._host_counts(state, hosts, req))


def _recount(state, req):
    """capacity_inside_reaches, placeable_inside_reaches and network_rrf
    recounted from the tables, with no memo or pair-order slot, a pairing
    that re-sorts every step and the unread-keyed reference walk."""
    capacity, cap_res, count, count_res = 0.0, [], 0, []
    for reach in state.topology.reaches:
        got, res = _pair_reduce_by_sorting([nic_free(state, h) for h in reach.hosts])
        capacity += got
        cap_res.append(res)
        got, res = _pair_reduce_by_sorting([_recount_host(state, h, req) for h in reach.hosts])
        count += got
        count_res.append(res)
    total = capacity + float(_unread_walk(state, cap_res, lambda bw: bw, 1.0))
    n = count + _unread_walk(state, count_res, lambda bw: M.fit_count(bw, req.nw), req.nw)
    return ((capacity, cap_res), (count, count_res),
            M.RRFReport("nw", total, n, M._index(total, n, req.nw)))


def _memo_app(t, app_id, demands, bw=0.0):
    vms = tuple(VM(id=f"v{i}", demand=ResourceVector(cpu, mem, nic))
                for i, (cpu, mem, nic) in enumerate(demands))
    traffic = {("v0", "v1"): bw} if bw else {}
    return Application(id=app_id, vms=vms, traffic=traffic)


def racks_of_four_and_one():
    """A rack of four hosts and a rack of one under one core, each TOR's
    uplink narrower than its host links: a four-host reach, whose memo
    getters return tuples, and a one-host reach, whose getters return
    scalars; those scalars only key its slot, since a recomputed pairing
    reads its values from the tables."""
    hosts = [Host(id=f"h{i}", capacity=UNIT, free=UNIT) for i in range(5)]
    switches = [Switch(id="t0", level=0), Switch(id="t1", level=0), Switch(id="core", level=1)]
    links = [Link(id=f"h{i}-t{i // 4}", a=f"h{i}", b=f"t{i // 4}", capacity=1.0, free=1.0)
             for i in range(5)]
    links += [Link(id="t0-core", a="t0", b="core", capacity=2.0, free=2.0),
              Link(id="t1-core", a="t1", b="core", capacity=0.5, free=0.5)]
    return Topology(hosts, switches, links, UNIT_REF)


@st.composite
def memo_runs(draw):
    """A small oversubscribed fabric, a scheme, two requests and up to 12
    steps, each on one of two states sharing the fabric: a placement, a
    placement that must be refused, an aborted transaction, a direct
    host_free or link_free write, or a restore of the state's first snapshot.
    Frees come from a few values, so equal values recur in new objects. The
    fabrics' reaches hold one, two or four hosts, so the memo is keyed by a
    one-host reach's scalars as well as by tuples."""
    fabric = draw(st.sampled_from(["tree2", "tree4", "clos", "racks"]))
    if fabric == "clos":
        t = build_clos(2, 2, 2, UNIT, 1.0, core_oversub=2.0)
    elif fabric == "racks":
        t = racks_of_four_and_one()
    else:
        t = build_tree(int(fabric[-1]), 2, UNIT, 1.0, oversub_ratio=2.0)
    cfg = SchemeConfig(scheme=draw(st.sampled_from(SCHEMES)),
                       netw_slots_per_host=draw(st.integers(1, 4)))
    share = st.sampled_from([0.0, 0.2, 0.5, 1.0])
    size = st.sampled_from([0.1, 0.2, 0.5])
    requests = [MultiRequest(cpu=draw(st.sampled_from([0.0, 0.1, 0.3])),
                             mem=draw(st.sampled_from([0.0, 0.2, 0.5])), nw=draw(size))
                for _ in range(2)]
    hosts, links = sorted(t.hosts), sorted(t.links)
    steps = []
    for i in range(draw(st.integers(1, 12))):
        kind = draw(st.sampled_from(["place", "refuse", "abort", "host", "link", "restore"]))
        on = draw(st.integers(0, 1))
        if kind == "place":
            n = draw(st.integers(1, 3))
            bw = draw(st.sampled_from([0.0, 0.1, 0.3])) if n > 1 else 0.0
            arg = _memo_app(t, f"a{i}", [(draw(size), draw(size), bw)] * n, bw)
        elif kind == "refuse":  # one whole host more than the fabric has
            arg = _memo_app(t, f"a{i}", [(1.0, 1.0, 0.0)] * (len(hosts) + 1))
        elif kind == "abort":
            bw = draw(size)
            arg = (_memo_app(t, f"a{i}", [(draw(size), draw(size), bw)] * 2, bw),
                   draw(st.sampled_from(hosts)), draw(st.sampled_from(hosts)))
        elif kind == "host":
            arg = (draw(st.sampled_from(hosts)), draw(share), draw(share))
        elif kind == "link":
            arg = (draw(st.sampled_from(links)), draw(share))
        else:
            arg = None
        steps.append((kind, on, arg))
    return t, cfg, requests, steps


class TestReachMemo:
    @staticmethod
    def check(states, requests):
        for state in states:
            for req in requests:
                capacity, placeable, rrf = _recount(state, req)
                assert M.capacity_inside_reaches(state) == capacity
                assert M.placeable_inside_reaches(state, req) == placeable
                assert M.network_rrf(state, req) == rrf
                assert M._pair_order(state) == _fresh_pair_order(state)

    @settings(max_examples=300, deadline=None)
    @given(memo_runs())
    def test_memoized_pairings_equal_a_recount(self, run):
        t, cfg, requests, steps = run
        states = [PlacementState(t), PlacementState(t)]
        first = [s.snapshot() for s in states]
        self.check(states, requests)
        for kind, on, arg in steps:
            state = states[on]
            if kind in ("place", "refuse"):
                before = state.snapshot()
                out = place_application(state, arg, cfg)
                if kind == "refuse":
                    assert not out.ok and state.snapshot() == before
            elif kind == "abort":
                app, host_a, host_b = arg
                with state.transaction():
                    state.register_app(app)
                    try:
                        state.assign_vm(app.id, app.vms[0], host_a)
                        state.assign_vm(app.id, app.vms[1], host_b)
                        reserve_traffic(state, app)
                    except CapacityError:
                        pass
                    self.check(states, requests)  # the memo now holds values the abort undoes
            elif kind == "host":
                h, cpu, mem = arg
                state.host_free[h] = ResourceVector(cpu, mem, state.host_free[h].nic)
            elif kind == "link":
                lid, frac = arg
                state.link_free[lid] = t.links[lid].capacity * frac
            else:
                state.restore(first[on])
            self.check(states, requests)

    def test_the_nic_pairing_is_keyed_by_uplinks_alone(self):
        t = category_topology(1)
        state, req = PlacementState(t), MultiRequest(0.1, 0.1, 0.1)

        def slots():
            assert M.capacity_inside_reaches(state) == _recount(state, req)[0]
            assert M.placeable_inside_reaches(state, req) == _recount(state, req)[1]
            return list(state.reach_memo[None]), list(state.reach_memo[req])

        def kept(new, old):  # a slot is replaced exactly when it is recomputed
            return [a is b for a, b in zip(new, old)]

        first_only = [False] + [True] * (len(t.reaches) - 1)  # h sits in reach 0
        nic, count = slots()
        h = t.reaches[0].hosts[0]
        free = state.host_free[h]
        state.host_free[h] = ResourceVector(free.cpu / 2, free.mem, free.nic)
        nic_cpu, count_cpu = slots()
        assert kept(nic_cpu, nic) == [True] * len(t.reaches)
        assert kept(count_cpu, count) == first_only
        state.link_free[t.host_ports[h][0]] /= 2
        nic_up, count_up = slots()
        assert kept(nic_up, nic_cpu) == first_only
        assert kept(count_up, count_cpu) == first_only

    def test_a_host_write_replaces_only_its_pods_count_slot(self):
        t = category_topology(3)
        state, req = PlacementState(t), category_rrf_request(3)
        assert all(len(r.hosts) == 16 for r in t.reaches)
        assert M.placeable_inside_reaches(state, req) == _recount(state, req)[1]
        for i, reach in enumerate(t.reaches):
            before = list(state.reach_memo[req])
            h = reach.hosts[5]
            free = state.host_free[h]
            state.host_free[h] = ResourceVector(free.cpu / 2, free.mem, free.nic)
            assert M.placeable_inside_reaches(state, req) == _recount(state, req)[1]
            after = state.reach_memo[req]
            assert [a is not b for a, b in zip(after, before)] == [
                k == i for k in range(len(t.reaches))]
