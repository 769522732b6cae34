import json
import math
import os
import tempfile
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, settings, strategies as st

from dcfrag import topology
from dcfrag.fixtures import NAMED_TOPOLOGIES, UNIT, UNIT_REF, fig4_topology
from dcfrag.placement import PlacementState
from dcfrag.topology import (Host, Link, Reach, ResourceVector, Switch, Topology,
                             TopologyError, build_clos, build_tree,
                             _vector, find_boundary_switches, find_reaches, load_topology)

from oracle import (nic_free, reference_compiled_dag, reference_neighbors,
                    reference_reach_paths, reference_shortest_paths)


def mini_topology(host_frees, link_frees=None, link_cap=1.0):
    """One switch over n hosts with the given (cpu, mem, nic) frees."""
    hosts = []
    links = []
    for i, (cpu, mem, nic) in enumerate(host_frees):
        hid = f"h{i + 1}"
        hosts.append(Host(id=hid, capacity=UNIT, free=ResourceVector(cpu, mem, nic)))
        free = link_frees[i] if link_frees else link_cap
        links.append(Link(id=f"{hid}-s1", a=hid, b="s1", capacity=link_cap, free=free))
    return Topology(hosts, [Switch(id="s1", level=0)], links, UNIT_REF)


_COMPONENTS = [-1e-6, -1e-9, -1e-12, -0.0, 0.0, 1e-12, 0.5, 8000.0]


class TestVectorConstructor:
    @given(st.tuples(*[st.sampled_from(_COMPONENTS)] * 3))
    def test_same_vector_as_the_constructor(self, parts):
        got, want = _vector(*parts), ResourceVector(*parts)
        assert got == want
        # repr tells -0.0 from 0.0
        assert [repr(getattr(got, d)) for d in ("cpu", "mem", "nic")] == \
            [repr(getattr(want, d)) for d in ("cpu", "mem", "nic")]

    @given(st.tuples(*[st.sampled_from(_COMPONENTS + [-2e-6, -1.0])] * 3)
           .filter(lambda parts: min(parts) < -1e-6))
    def test_same_error_below_the_dust(self, parts):
        with pytest.raises(ValueError) as want:
            ResourceVector(*parts)
        with pytest.raises(ValueError) as got:
            _vector(*parts)
        assert str(got.value) == str(want.value)

    def test_slots_and_frozen(self):
        v = _vector(1.0, 2.0, 3.0)
        assert not hasattr(v, "__dict__")
        assert not hasattr(ResourceVector(1.0, 2.0, 3.0), "__dict__")
        with pytest.raises(FrozenInstanceError):
            v.cpu = 0.0


class TestBuildTree:
    def test_small_oversubscribed_tree(self):
        t = build_tree(2, 2, UNIT, 1.0, oversub_ratio=4.0)
        assert len(t.hosts) == 4
        assert len(t.switches) == 3
        boundary = find_boundary_switches(t)
        assert boundary == {"t0", "t1"}
        # uplinks shrink by the oversubscription ratio
        assert t.links["t0-core"].capacity == pytest.approx(0.5)

    def test_full_bisection_tree_has_no_boundary_below_core(self):
        t = build_tree(2, 2, UNIT, 1.0, oversub_ratio=1.0)
        assert find_boundary_switches(t) == {"core"}

    def test_table3_scale(self):
        t = build_tree(16, 4, ResourceVector(4000, 8192, 10000), 10000.0, 4.0)
        assert len(t.hosts) == 64
        assert len(find_reaches(t)) == 16

    @pytest.mark.parametrize("tors,hosts", [(3, 2), (2, 3), (2, 1), (1, 2)])
    def test_odd_counts_rejected(self, tors, hosts):
        with pytest.raises(TopologyError):
            build_tree(tors, hosts, UNIT, 1.0)

    def test_bad_oversub_rejected(self):
        with pytest.raises(TopologyError):
            build_tree(2, 2, UNIT, 1.0, oversub_ratio=0.5)


class TestBuildClos:
    def test_full_bisection_is_one_reach(self):
        t = build_clos(2, 2, 2, UNIT, 1.0, core_oversub=1.0)
        boundary = find_boundary_switches(t)
        assert all(t.switches[s].level == 2 for s in boundary)
        reaches = find_reaches(t)
        assert len(reaches) == 1
        assert set(reaches[0].hosts) == set(t.hosts)

    def test_oversubscribed_aggregation_tier_is_boundary(self):
        t = build_clos(4, 4, 4, ResourceVector(8000, 16384, 5000), 5000.0, core_oversub=4.0)
        assert len(t.hosts) == 64
        boundary = find_boundary_switches(t)
        assert boundary and all(t.switches[s].level == 1 for s in boundary)
        reaches = find_reaches(t)
        assert len(reaches) == 4  # one per pod
        assert sorted(len(r.hosts) for r in reaches) == [16, 16, 16, 16]

    def test_inconsistent_parameters_rejected(self):
        with pytest.raises(TopologyError):
            build_clos(3, 2, 2, UNIT, 1.0)
        with pytest.raises(TopologyError):
            build_clos(2, 2, 2, UNIT, 1.0, core_oversub=0.9)


class TestBoundaryAndReaches:
    def test_fig4_boundary_set(self):
        t = fig4_topology()
        assert find_boundary_switches(t) == {"s1", "s2"}

    def test_fig4_reach_partition(self):
        reaches = find_reaches(fig4_topology())
        assert [(r.id, r.hosts, r.switches) for r in reaches] == [
            ("r0", ("h1", "h2"), ("s1",)),
            ("r1", ("h3", "h4"), ("s2",)),
        ]

    def test_single_switch_two_hosts_is_one_reach(self):
        t = mini_topology([(1, 1, 1), (1, 1, 1)])
        reaches = find_reaches(t)
        assert len(reaches) == 1
        assert reaches[0].hosts == ("h1", "h2")

    def test_partition_properties(self):
        for t in (fig4_topology(), build_tree(4, 2, UNIT, 1.0, 2.0),
                  build_clos(2, 2, 2, UNIT, 1.0, 2.0)):
            reaches = find_reaches(t)
            seen = [h for r in reaches for h in r.hosts]
            assert sorted(seen) == sorted(t.hosts)  # disjoint cover
            switches = [s for r in reaches for s in r.switches]
            assert len(switches) == len(set(switches))

    def test_deterministic(self):
        a = find_reaches(fig4_topology())
        b = find_reaches(fig4_topology())
        assert a == b

    def test_override_forces_boundary(self):
        hosts = [Host(id=f"h{i}", capacity=UNIT, free=UNIT) for i in (1, 2)]
        switches = [Switch(id="s1", level=0, boundary_override=False),
                    Switch(id="s2", level=1, boundary_override=True)]
        links = [Link(id="h1-s1", a="h1", b="s1", capacity=1.0, free=1.0),
                 Link(id="h2-s1", a="h2", b="s1", capacity=1.0, free=1.0),
                 Link(id="s1-s2", a="s1", b="s2", capacity=0.5, free=0.5)]
        t = Topology(hosts, switches, links, UNIT_REF)
        assert find_boundary_switches(t) == {"s2"}
        assert len(find_reaches(t)) == 1

    def test_reaches_sharing_a_switch_are_an_error(self):
        # s1 and s2 are pinned boundary over one rack each; p sits over both
        # racks on their level, so both reaches would claim it
        hosts = [Host(id=f"h{i}", capacity=UNIT, free=UNIT) for i in (1, 2, 3, 4)]
        switches = [Switch(id="e1", level=0, boundary_override=False),
                    Switch(id="e2", level=0, boundary_override=False),
                    Switch(id="s1", level=1, boundary_override=True),
                    Switch(id="p", level=1, boundary_override=False),
                    Switch(id="s2", level=1, boundary_override=True)]
        links = [Link(id=f"h{i}-{tor}", a=f"h{i}", b=tor, capacity=1.0, free=1.0)
                 for i, tor in ((1, "e1"), (2, "e1"), (3, "e2"), (4, "e2"))]
        links += [Link(id=f"{a}-{b}", a=a, b=b, capacity=1.0, free=1.0)
                  for a, b in (("e1", "s1"), ("e1", "p"), ("e2", "p"), ("e2", "s2"))]
        t = Topology(hosts, switches, links, UNIT_REF)
        with pytest.raises(TopologyError, match=r"switches \['p'\] fall into more than one"):
            find_reaches(t)
        with pytest.raises(TopologyError, match=r"switches \['p'\] fall into more than one"):
            t.reaches

    def test_no_boundary_above_host_is_an_error(self):
        hosts = [Host(id=f"h{i}", capacity=UNIT, free=UNIT) for i in (1, 2)]
        switches = [Switch(id="s1", level=0, boundary_override=False)]
        links = [Link(id="h1-s1", a="h1", b="s1", capacity=1.0, free=1.0),
                 Link(id="h2-s1", a="h2", b="s1", capacity=1.0, free=1.0)]
        t = Topology(hosts, switches, links, UNIT_REF)
        with pytest.raises(TopologyError, match="no boundary switch"):
            find_reaches(t)
        with pytest.raises(TopologyError, match="no boundary switch"):
            t.reaches

    def test_one_partition_per_topology(self, monkeypatch):
        # counted by the boundary search each partition starts with
        calls = []
        boundary = topology.find_boundary_switches
        monkeypatch.setattr(topology, "find_boundary_switches",
                            lambda t: calls.append(t) or boundary(t))
        t = build_tree(4, 2, UNIT, 1.0, 2.0)
        first, second = find_reaches(t), find_reaches(t)
        assert first == second == list(t.reaches) and first is not second
        assert calls == [t]

    def test_reaches_and_reach_pairs_are_computed_once(self):
        t = build_tree(4, 2, UNIT, 1.0, 2.0)
        assert t.reaches == tuple(find_reaches(t))
        assert t.reaches is t.reaches
        assert t.reach_pairs is t.reach_pairs
        assert [(t.reaches[p.i].id, t.reaches[p.j].id) for p in t.reach_pairs] == [
            ("r0", "r1"), ("r0", "r2"), ("r0", "r3"), ("r1", "r2"), ("r1", "r3"), ("r2", "r3")]



class TestReachPairTable:
    def test_rows_in_distance_then_id_order(self):
        # 16 racks: the ids sort as strings, so "r10" comes before "r2"
        t = build_tree(16, 2, UNIT, 1.0, 2.0)
        rows = t.reach_pairs
        keys = [(p.distance, t.reaches[p.i].id, t.reaches[p.j].id) for p in rows]
        assert keys == sorted(keys)
        assert [p.rank for p in rows] == list(range(len(rows)))
        assert keys[:3] == [(2, "r0", "r1"), (2, "r0", "r10"), (2, "r0", "r11")]

    @pytest.mark.parametrize("t", [
        build_tree(16, 2, UNIT, 1.0, 2.0),
        build_clos(4, 2, 2, UNIT, 1.0, core_oversub=2.0),
    ], ids=["tree16", "clos"])
    def test_each_pair_once_with_its_reach_paths(self, t):
        n = len(t.reaches)
        assert sorted((p.i, p.j) for p in t.reach_pairs) == [
            (i, j) for i in range(n) for j in range(i + 1, n)]
        for p in t.reach_pairs:
            paths = t.reach_paths(t.reaches[p.i], t.reaches[p.j])
            assert p.paths == paths
            assert p.distance == len(paths[0])

    def test_built_once_on_first_use(self):
        t = build_tree(16, 2, UNIT, 1.0, 2.0)
        assert t._reach_paths == {}
        assert "reach_pairs" not in vars(t)
        rows = t.reach_pairs
        assert t.reach_pairs is rows
        assert len(t._reach_paths) == len(rows) == 120

def ascending_hosts_below(t):
    """Independent reference for Topology.hosts_below: walk up from every
    host along strictly ascending links and credit each switch reached."""
    below = {s: [] for s in t.switches}
    for h in sorted(t.hosts):
        chain = set()
        frontier = [tor for tor, _ in reference_neighbors(t, h)]
        while frontier:
            node = frontier.pop()
            if node in chain:
                continue
            chain.add(node)
            for peer, _ in reference_neighbors(t, node):
                if peer in t.switches and t.level_of(peer) == t.level_of(node) + 1:
                    frontier.append(peer)
        for s in chain:
            below[s].append(h)
    return {s: tuple(hs) for s, hs in below.items()}


@st.composite
def fabric_docs(draw):
    """A topology-file document for a random leveled fabric: two hosts per
    TOR, each upper switch over a drawn subset of the level below, and the
    first switch of every upper level over all of it (so it is connected)."""
    widths = draw(st.lists(st.integers(1, 4), min_size=2, max_size=3))
    levels = [[f"s{lvl}_{i}" for i in range(n)] for lvl, n in enumerate(widths)]
    doc = {
        "reference_host": {"cpu_mhz": 1, "mem_mb": 1, "nic_mbps": 1},
        "reference_link_mbps": 1,
        "hosts": [], "links": [],
        "switches": [{"id": s, "level": lvl} for lvl, ids in enumerate(levels) for s in ids],
    }
    for tor in levels[0]:
        for k in range(2):
            doc["hosts"].append({"id": f"h_{tor}_{k}", "cpu_mhz": 1, "mem_mb": 1})
            doc["links"].append({"a": f"h_{tor}_{k}", "b": tor, "capacity_mbps": 1})
    for lower, upper in zip(levels, levels[1:]):
        for i, s in enumerate(upper):
            downs = lower if i == 0 else draw(
                st.lists(st.sampled_from(lower), min_size=1, unique=True))
            doc["links"] += [{"a": d, "b": s, "capacity_mbps": 1} for d in downs]
    # parallel twins of some switch links, under their own ids
    twins = draw(st.lists(st.sampled_from(doc["links"][len(doc["hosts"]):]),
                          max_size=3, unique_by=lambda l: (l["a"], l["b"])))
    doc["links"] += [{**l, "id": f"{l['a']}-{l['b']}-twin"} for l in twins]
    return doc


leveled_fabrics = st.one_of(
    st.builds(build_tree, st.sampled_from([2, 4, 6, 8]), st.sampled_from([2, 4]),
              st.just(UNIT), st.just(1.0), st.sampled_from([1.0, 2.0, 4.0])),
    st.builds(build_clos, st.sampled_from([2, 4]), st.sampled_from([2, 4]),
              st.sampled_from([2, 4]), st.just(UNIT), st.just(1.0),
              st.sampled_from([1.0, 2.0])),
    st.builds(fig4_topology),
    fabric_docs(),
)


def as_topology(fabric):
    """A drawn fabric as a Topology; a document goes through load_topology."""
    if not isinstance(fabric, dict):
        return fabric
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "topo.json")
        with open(path, "w") as fh:
            json.dump(fabric, fh)
        return load_topology(path)


class TestHostsBelow:
    @settings(max_examples=200, deadline=None)
    @given(leveled_fabrics)
    def test_matches_ascending_walk(self, fabric):
        fabric = as_topology(fabric)
        assert fabric.hosts_below == ascending_hosts_below(fabric)
        for h, above in fabric.switches_above.items():
            assert above == tuple(s for s, hs in fabric.hosts_below.items() if h in hs)

    def test_fig4(self):
        assert fig4_topology().hosts_below == {
            "s1": ("h1", "h2"), "s2": ("h3", "h4"), "s3": ("h1", "h2", "h3", "h4")}


def oversubscribed_frontier(t):
    """Reference for find_boundary_switches by its definition, top-down: a
    switch is boundary when its uplinks carry less than its downlinks (no
    uplinks: always) and no switch anywhere below it does."""
    def caps(s, up):
        return sum(t.links[lid].capacity for peer, lid in reference_neighbors(t, s)
                   if (t.level_of(peer) > t.level_of(s)) == up)

    oversub = {s: caps(s, False) > caps(s, True) + 1e-9 for s in t.switches}

    def below(s):
        downs = [p for p, _ in reference_neighbors(t, s)
                 if t.level_of(p) == t.level_of(s) - 1 >= 0]
        return any(oversub[d] or below(d) for d in downs)

    return {s for s in t.switches if oversub[s] and not below(s)}


class TestBoundaryMatchesDefinition:
    @settings(max_examples=200, deadline=None)
    @given(leveled_fabrics)
    def test_matches_top_down_definition(self, fabric):
        t = as_topology(fabric)
        assert find_boundary_switches(t) == oversubscribed_frontier(t)


class TestStructuralValidation:
    # every case is a rejection by the constructor: no unchecked Topology exists
    def build(self, n_hosts, switches, links):
        hosts = [Host(id=f"h{i}", capacity=UNIT, free=UNIT) for i in range(1, n_hosts + 1)]
        return Topology(hosts, [Switch(id=s, level=lvl) for s, lvl in switches],
                        [Link(id=f"l{i}", a=a, b=b, capacity=1, free=1)
                         for i, (a, b) in enumerate(links, 1)], UNIT_REF)

    def test_multi_homed_host_rejected(self):
        with pytest.raises(TopologyError, match="host h1 has degree 2, expected exactly 1"):
            self.build(2, [("s1", 0), ("s2", 0)], [("h1", "s1"), ("h1", "s2"), ("h2", "s1")])

    def test_disconnected_rejected(self):
        with pytest.raises(TopologyError,
                           match=r"disconnected; unreachable: \['h2', 's2'\]"):
            self.build(2, [("s1", 0), ("s2", 0)], [("h1", "s1"), ("h2", "s2")])

    def test_level_skipping_link_rejected(self):
        with pytest.raises(TopologyError, match="link l3 joins non-adjacent levels 0 and 2"):
            self.build(2, [("s1", 0), ("s2", 2)], [("h1", "s1"), ("h2", "s1"), ("s1", "s2")])

    def test_no_hosts_rejected(self):
        with pytest.raises(TopologyError, match="topology has no hosts"):
            self.build(0, [("s1", 0)], [])

    def test_isolated_host_rejected(self):
        with pytest.raises(TopologyError, match="host h2 has degree 0"):
            self.build(2, [("s1", 0)], [("h1", "s1")])

    @pytest.mark.parametrize("links", [
        [("h1", "s2"), ("h2", "s1"), ("s1", "s2")],
        [("h1", "h2")]], ids=["upper-switch", "host"])
    def test_host_off_level_zero_rejected(self, links):
        with pytest.raises(TopologyError, match="host h1 must attach to a level-0 switch"):
            self.build(2, [("s1", 0), ("s2", 1)], links)

    def test_builders_pass_validation(self):
        build_tree(4, 4, UNIT, 1.0, 4.0)
        build_clos(2, 2, 2, UNIT, 1.0, 2.0)

    @pytest.mark.parametrize("level,override", [
        (1.7, None), (True, None), ("1", None), (-1, None), (0, "false"), (0, 1)])
    def test_switch_checks_its_level_and_override(self, level, override):
        # the string "false" is truthy, so it would pin a boundary
        with pytest.raises(TopologyError, match=r"^switch s: (level must be an integer >= 0|"
                                                r"boundary_override must be true, false or "
                                                r"null), got "):
            Switch("s", level, override)


class TestHostPorts:
    def test_topologies_built_from_one_host_list_keep_their_own_ports(self):
        # the two fabrics name their host links a1, a2 and b1, b2
        hosts = [Host(id=f"h{i}", capacity=UNIT, free=UNIT) for i in (1, 2)]
        given_hosts = [dict(vars(h)) for h in hosts]

        def build(prefix, free):
            links = [Link(id=f"{prefix}{i}", a=f"h{i}", b="s1", capacity=1.0, free=free)
                     for i in (1, 2)]
            return Topology(hosts, [Switch(id="s1", level=0)], links, UNIT_REF)

        built = [(build("a", 1.0), "a", 1.0), (build("b", 0.5), "b", 0.5)]
        assert [dict(vars(h)) for h in hosts] == given_hosts
        for t, prefix, free in built:
            assert t.host_ports == {"h1": (f"{prefix}1", "s1"), "h2": (f"{prefix}2", "s1")}
            state = PlacementState(t)
            assert t.route("h2", "h1", state.link_free) == ((f"{prefix}1", f"{prefix}2"), free)
            assert nic_free(state, "h1") == nic_free(state, "h2") == free


class TestRouting:
    def test_route_is_deterministic_and_shortest(self):
        t = fig4_topology()
        zero = dict.fromkeys(t.links, 0.0)
        assert t.route("h1", "h2", zero) == (("h1-s1", "h2-s1"), 0.0)
        assert t.route("h1", "h3", zero) == (("h1-s1", "s1-s3", "s2-s3", "h3-s2"), 0.0)
        assert t.route("h3", "h1", zero) == t.route("h1", "h3", zero)

    def test_reach_paths_fig4(self):
        t = fig4_topology()
        r0, r1 = find_reaches(t)
        assert t.reach_paths(r0, r1) == (("s1-s3", "s2-s3"),)

    def test_reach_paths_refuse_reaches_sharing_a_switch(self):
        t = fig4_topology()
        ra = Reach("ra", ("h1", "h2"), ("s1", "s3"))
        rb = Reach("rb", ("h3", "h4"), ("s2", "s3"))
        with pytest.raises(ValueError, match=r"ra and rb share switches \['s3'\]"):
            t.reach_paths(ra, rb)
        with pytest.raises(ValueError, match="share switches"):
            t.reach_paths(rb, ra)


def bfs_route(t, host_a, host_b, link_free):
    """Reference for Topology.route: a BFS over the whole fabric from the
    smaller host id, keeping per node the (widest bottleneck, smallest
    parent id) entry, the first link of that parent on a tie."""
    src, dst = sorted((host_a, host_b))
    best = {src: (float("inf"), "", "")}
    frontier = [src]
    while frontier and dst not in best:
        layer = {}
        for node in sorted(frontier):
            width = best[node][0]
            for peer, lid in reference_neighbors(t, node):
                if peer in best:
                    continue
                entry = (min(width, link_free[lid]), node, lid)
                held = layer.get(peer)
                if held is None or (-entry[0], entry[1]) < (-held[0], held[1]):
                    layer[peer] = entry
        if not layer:
            break
        best.update(layer)
        frontier = list(layer)
    if dst not in best:
        raise TopologyError(f"no path between {src} and {dst}")
    path = []
    node = dst
    while node != src:
        _, node, lid = best[node]
        path.append(lid)
    return tuple(reversed(path))


class TestRouteMatchesBFS:
    @settings(max_examples=200, deadline=None)
    @given(leveled_fabrics, st.data())
    def test_route_equals_reference_bfs(self, fabric, data):
        # few distinct frees make ties common; all-zero frees tie every width
        t = as_topology(fabric)
        hosts, links = sorted(t.hosts), sorted(t.links)
        frees = st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0]),
                         min_size=len(links), max_size=len(links)).map(
            lambda vs: dict(zip(links, vs)))
        maps = [dict.fromkeys(links, 0.0)] + data.draw(st.lists(frees, min_size=1, max_size=2))
        pairs = data.draw(st.lists(st.tuples(st.sampled_from(hosts), st.sampled_from(hosts))
                                   .filter(lambda p: p[0] != p[1]), min_size=1, max_size=12))
        for a, b in pairs:
            for link_free in maps:
                expected = bfs_route(t, a, b, link_free)
                assert t.route(a, b, link_free) == (expected,
                                                    min(link_free[l] for l in expected))
                assert t.route(b, a, link_free) == t.route(a, b, link_free)

    @settings(max_examples=200, deadline=None)
    @given(leveled_fabrics, st.data())
    def test_bottleneck_is_the_path_minimum(self, fabric, data):
        # arbitrary floats: the bottleneck must be the path's smallest free
        # bit for bit, since a reservation decides on it alone; the drawn
        # two-level documents include leaf-spines
        t = as_topology(fabric)
        hosts, links = sorted(t.hosts), sorted(t.links)
        link_free = dict(zip(links, data.draw(st.lists(
            st.floats(0.0, 1.0), min_size=len(links), max_size=len(links)))))
        pairs = data.draw(st.lists(st.tuples(st.sampled_from(hosts), st.sampled_from(hosts))
                                   .filter(lambda p: p[0] != p[1]), min_size=1, max_size=12))
        for a, b in pairs:
            path, bottleneck = t.route(a, b, link_free)
            assert bottleneck == min(link_free[l] for l in path)
            assert t.route(b, a, link_free) == (path, bottleneck)

    def test_parallel_links_take_the_widest(self):
        hosts = [Host(id=f"h{i}", capacity=UNIT, free=UNIT) for i in range(4)]
        switches = [Switch(id="t0", level=0), Switch(id="t1", level=0),
                    Switch(id="core", level=1)]
        links = [Link(id=f"h{i}-t{i // 2}", a=f"h{i}", b=f"t{i // 2}", capacity=1.0, free=1.0)
                 for i in range(4)]
        links += [Link(id=lid, a=tor, b="core", capacity=1.0, free=1.0)
                  for lid, tor in (("a", "t0"), ("b", "t0"), ("c", "t1"))]
        t = Topology(hosts, switches, links, UNIT_REF)
        full = {lid: 1.0 for lid in t.links}
        assert t.route("h0", "h2", {**full, "a": 0.2, "b": 0.9}) == (("h0-t0", "b", "c", "h2-t1"), 0.9)
        assert t.route("h2", "h1", {**full, "a": 0.9, "b": 0.2}) == (("h1-t0", "a", "c", "h2-t1"), 0.9)
        assert t.route("h0", "h2", {**full, "a": 0.5, "b": 0.5}) == (("h0-t0", "a", "c", "h2-t1"), 0.5)
        assert t.route("h0", "h2", dict.fromkeys(t.links, 0.0)) == (("h0-t0", "a", "c", "h2-t1"), 0.0)

    @settings(max_examples=200, deadline=None)
    @given(leveled_fabrics, st.data())
    def test_route_is_the_first_reference_path(self, fabric, data):
        t = as_topology(fabric)
        hosts = sorted(t.hosts)
        pairs = data.draw(st.lists(st.tuples(st.sampled_from(hosts), st.sampled_from(hosts))
                                   .filter(lambda p: p[0] != p[1]), min_size=1, max_size=6))
        for a, b in pairs:
            paths = reference_shortest_paths(t, a, b)
            assert paths[0] == t.route(a, b, dict.fromkeys(t.links, 0.0))[0]

    def test_unroutable_pairs_raise(self):
        # a checked fabric routes every pair of distinct hosts
        t = fig4_topology()
        zero = dict.fromkeys(t.links, 0.0)
        assert t.route("h2", "h1", zero) == (("h1-s1", "h2-s1"), 0.0)
        with pytest.raises(ValueError, match="endpoints must differ"):
            t.route("h1", "h1", zero)


def folding_fabric():
    """Two racks joined over aggregation switches a0, a1, b0, b1 and middle
    switches c0, c1 (a1-c0 a parallel pair), so that each direction's
    shortest-path DAG holds a single-parent switch feeding two successors
    and an interior switch with two parents: from t0, a0 feeds c0 and c1 and
    c0 and b0 have two parents; from t1, b0 feeds c0 and c1 and c1 and a0
    have two parents. Hosts alternate racks, so both directions are
    routed."""
    hosts = [Host(id=f"h{i}", capacity=UNIT, free=UNIT) for i in range(4)]
    switches = [Switch(id="t0", level=0), Switch(id="t1", level=0)]
    switches += [Switch(id=s, level=1) for s in ("a0", "a1", "b0", "b1")]
    switches += [Switch(id=s, level=2) for s in ("c0", "c1")]
    ends = [(f"h{i}", f"t{i % 2}") for i in range(4)]
    ends += [("t0", "a0"), ("t0", "a1"), ("t1", "b0"), ("t1", "b1"), ("a0", "c0"),
             ("a0", "c1"), ("a1", "c0"), ("a1", "c0"), ("b0", "c0"), ("b0", "c1"),
             ("b1", "c1")]
    links = [Link(id=f"l{k:02d}", a=a, b=b, capacity=1.0, free=1.0)
             for k, (a, b) in enumerate(ends)]
    return Topology(hosts, switches, links, UNIT_REF)


class TestFoldedRouteDag:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0]), min_size=15,
                             max_size=15), min_size=1, max_size=4))
    def test_route_equals_reference_bfs(self, frees):
        t = folding_fabric()
        links = sorted(t.links)
        for values in [[0.0] * len(links)] + frees:
            link_free = dict(zip(links, values))
            for a in t.hosts:
                for b in t.hosts:
                    if a != b:
                        expected = bfs_route(t, a, b, link_free)
                        assert t.route(a, b, link_free) == (
                            expected, min(link_free[l] for l in expected))

    def test_single_parent_switches_fold_into_their_successors(self):
        # kept: c0 (a0, a1), b0 (c0, c1) and t1; a0, a1, c1 and b1 fold
        t = folding_fabric()
        assert t._compiled_dag("t0", "t1") == (
            ((0, ("l04", "l08")), (0, ("l05", "l10")), (0, ("l05", "l11"))),
            ((1, ("l12",)), (0, ("l04", "l09", "l13"))),
            ((2, ("l06",)), (0, ("l04", "l09", "l14", "l07"))),
        )

    @staticmethod
    def check_every_tor_pair(t):
        tors = sorted({tor for _, tor in t.host_ports.values()})
        for a in tors:
            for b in tors:
                if a != b:
                    assert t._compiled_dag(a, b) == reference_compiled_dag(t, a, b)

    @pytest.mark.parametrize("name", ["tree64", "clos64-5g", "clos64-10g"])
    def test_every_tor_pair_dag_equals_the_merged_construction(self, name):
        self.check_every_tor_pair(NAMED_TOPOLOGIES[name]())

    # the builders keep only tor_b, so there the layer order is unread;
    # folding_fabric and the drawn documents keep inner switches
    @settings(max_examples=100, deadline=None)
    @given(st.one_of(st.builds(folding_fabric), leveled_fabrics))
    def test_drawn_fabric_dags_equal_the_merged_construction(self, fabric):
        self.check_every_tor_pair(as_topology(fabric))

    @pytest.mark.parametrize("t", [build_tree(4, 2, UNIT, 1.0, oversub_ratio=2.0),
                                   build_clos(4, 2, 2, UNIT, 1.0, core_oversub=2.0)],
                             ids=["tree", "clos"])
    def test_builders_keep_only_the_destination_tor(self, t):
        tors = sorted(s for s, sw in t.switches.items() if sw.level == 0)
        for a in tors:
            for b in tors:
                if a != b:
                    assert len(t._compiled_dag(a, b)) == 1


def with_links_renamed(fabric, data):
    """A drawn fabric as a Topology, and the same fabric again with its links
    renamed in a drawn order, so that a node's links no longer sort as its
    peers do."""
    t = as_topology(fabric)
    order = data.draw(st.permutations(range(len(t.links))))
    links = [Link(id=f"l{k:03d}", a=l.a, b=l.b, capacity=l.capacity, free=l.free)
             for k, l in zip(order, t.links.values())]
    return t, Topology(list(t.hosts.values()), list(t.switches.values()), links, t.reference)


class TestAdjacency:
    @settings(max_examples=200, deadline=None)
    @given(leveled_fabrics, st.data())
    def test_each_switch_holds_its_sorted_links(self, fabric, data):
        for t in with_links_renamed(fabric, data):
            assert sorted(t.adjacency) == sorted(t.switches)
            for s in t.switches:
                pairs = sorted(reference_neighbors(t, s))
                assert t.adjacency[s] == tuple(pairs)
                # uplinks stay in link id order, so capacity sums keep their bits
                assert t.switch_uplinks[s] == tuple(sorted(
                    lid for peer, lid in pairs if t.level_of(peer) > t.level_of(s)))


class TestReachPathsMatchBFS:
    @settings(max_examples=200, deadline=None)
    @given(leveled_fabrics, st.data())
    def test_reach_paths_equal_the_blocked_bfs_reference(self, fabric, data):
        for t in with_links_renamed(fabric, data):
            try:
                reaches = t.reaches
            except TopologyError:
                return  # no reach partition, so no reach pair
            for ri in reaches:
                for rj in reaches:
                    if ri is not rj:
                        assert t.reach_paths(ri, rj) == reference_reach_paths(t, ri, rj)

    def test_a_node_tries_its_peers_in_id_order(self):
        # m's link to z1 has the smaller id, but z0 is the smaller peer
        hosts = [Host(id=h, capacity=UNIT, free=UNIT) for h in ("h0", "h1")]
        switches = [Switch(id="t0", level=0), Switch(id="m", level=1),
                    Switch(id="z0", level=2), Switch(id="z1", level=2)]
        links = [Link(id=lid, a=a, b=b, capacity=1.0, free=1.0) for lid, a, b in (
            ("h0-t0", "h0", "t0"), ("h1-t0", "h1", "t0"),
            ("l0", "t0", "m"), ("l1", "m", "z1"), ("l2", "m", "z0"))]
        t = Topology(hosts, switches, links, UNIT_REF)
        ra, rb = Reach("ra", ("h0", "h1"), ("t0",)), Reach("rb", (), ("z0", "z1"))
        assert t.reach_paths(ra, rb) == reference_reach_paths(t, ra, rb) == (("l0", "l2"),)


class TestLoader:
    def write(self, tmp_path, doc):
        path = tmp_path / "topo.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def doc(self, hosts=4):
        return {
            "reference_host": {"cpu_mhz": 1000, "mem_mb": 1000, "nic_mbps": 1000},
            "reference_link_mbps": 1000,
            "hosts": [{"id": f"h{i}", "cpu_mhz": 1000, "mem_mb": 1000}
                      for i in range(hosts)],
            "switches": [{"id": "s1", "level": 0}],
            "links": [{"a": f"h{i}", "b": "s1", "capacity_mbps": 1000}
                      for i in range(hosts)],
        }

    def doc_with(self, entry, value):
        """doc() with the field at entry (keys and indices) set to value."""
        doc = self.doc()
        *parents, key = entry
        target = doc
        for step in parents:
            target = target[step]
        target[key] = value
        return doc

    def test_roundtrip(self, tmp_path):
        t = load_topology(self.write(tmp_path, self.doc()))
        assert len(t.hosts) == 4
        assert t.reference.link == 1000
        # nic capacity defaults to the uplink capacity
        assert t.hosts["h0"].capacity.nic == 1000
        assert t.links["h0-s1"].free == 1000

    def test_partial_frees(self, tmp_path):
        doc = self.doc()
        doc["hosts"][0]["free_cpu_mhz"] = 250
        doc["links"][0]["free_mbps"] = 400
        t = load_topology(self.write(tmp_path, doc))
        assert t.hosts["h0"].free.cpu == 250
        assert t.links["h0-s1"].free == 400

    def test_odd_rack_rejected(self, tmp_path):
        with pytest.raises(TopologyError, match="odd"):
            load_topology(self.write(tmp_path, self.doc(hosts=3)))

    def test_unknown_endpoint_rejected(self, tmp_path):
        doc = self.doc()
        doc["links"].append({"a": "h0", "b": "ghost", "capacity_mbps": 10})
        with pytest.raises(TopologyError, match="ghost"):
            load_topology(self.write(tmp_path, doc))

    def test_missing_field_rejected(self, tmp_path):
        doc = self.doc()
        del doc["reference_link_mbps"]
        with pytest.raises(TopologyError, match="reference_link_mbps"):
            load_topology(self.write(tmp_path, doc))

    def test_boundary_override_from_file(self, tmp_path):
        doc = self.doc()
        doc["switches"][0]["boundary_override"] = True
        t = load_topology(self.write(tmp_path, doc))
        assert find_boundary_switches(t) == {"s1"}

    @pytest.mark.parametrize("value", ["false", "true", 0, 1, [True]])
    def test_boundary_override_must_be_a_boolean_or_null(self, tmp_path, value):
        # the string "false" is truthy, so it once pinned s1 as a boundary
        doc = self.doc()
        doc["switches"][0]["boundary_override"] = value
        with pytest.raises(TopologyError, match=r"topo\.json: switches\[0\]: switch s1: "
                                                r"boundary_override must be true, false "
                                                r"or null, got "):
            load_topology(self.write(tmp_path, doc))
        for value, boundary in ((None, {"s1"}), (False, set())):
            doc["switches"][0]["boundary_override"] = value
            assert find_boundary_switches(load_topology(self.write(tmp_path, doc))) == boundary

    @pytest.mark.parametrize("value", [1.7, 0.5, -0.5, True, math.inf, -math.inf, math.nan])
    def test_switch_level_must_be_an_integer(self, tmp_path, value):
        # int() once loaded 1.7 as level 1 and true as 1, let -0.5 through as
        # 0 and raised OverflowError on Infinity
        doc = self.doc()
        doc["switches"][0]["level"] = value
        with pytest.raises(TopologyError, match=r"topo\.json: switches\[0\]: switch s1: level "
                                                r"must be an integer >= 0, got "):
            load_topology(self.write(tmp_path, doc))
        doc["switches"][0]["level"] = 0.0  # a whole float is a level
        assert load_topology(self.write(tmp_path, doc)).switches["s1"].level == 0

    @pytest.mark.parametrize("value", [[0], {"x": 1}, True, None])
    def test_link_id_must_be_a_string_or_a_number(self, tmp_path, value):
        doc = self.doc()
        doc["links"][1]["id"] = value
        with pytest.raises(TopologyError, match=r"topo\.json: links\[1\]: link h1-s1: id must "
                                                r"be a string or a number, got "):
            load_topology(self.write(tmp_path, doc))

    def test_numeric_link_ids_become_strings(self, tmp_path):
        doc = self.doc()
        for i, link in enumerate(doc["links"]):
            link["id"] = i + 0.5 if i % 2 else i
        t = load_topology(self.write(tmp_path, doc))
        assert sorted(t.links) == ["0", "1.5", "2", "3.5"]
        assert t.host_ports["h1"][0] == "1.5"

    @pytest.mark.parametrize("entry,value,message", [
        (("switches", 0, "level"), -1,
         r"switches\[0\]: switch s1: level must be an integer >= 0, got -1$"),
        (("switches", 0, "level"), "0",
         r"switches\[0\]: switch s1: level must be an integer >= 0, got '0'$"),
        (("links", 1, "capacity_mbps"), 0,
         r"links\[1\]: link h1-s1: capacity 0\.0 must be finite and > 0$"),
        (("links", 1, "free_mbps"), 1500,
         r"links\[1\]: link h1-s1: free 1500\.0 outside \[0, 1000\.0\]$"),
        (("hosts", 1, "cpu_mhz"), 0, r"hosts\[1\]: host h1: cpu capacity 0\.0 must be > 0$"),
        (("hosts", 1, "free_mem_mb"), 1500,
         r"hosts\[1\]: host h1: free ResourceVector\(.*\) exceeds capacity "),
        (("hosts", 1, "mem_mb"), float("nan"),
         r"hosts\[1\]: host h1: capacity .* must be finite$"),
        (("reference_host", "cpu_mhz"), 0, r"reference_host .* must be finite and > 0$"),
    ], ids=["negative-level", "string-level", "zero-link", "link-free-above", "zero-cpu-host",
            "host-free-above", "nan-host", "zero-reference"])
    def test_model_errors_name_the_file_and_entry(self, tmp_path, entry, value, message):
        # the model types' own checks once reached the user without the file
        with pytest.raises(TopologyError, match=r"topo\.json: " + message):
            load_topology(self.write(tmp_path, self.doc_with(entry, value)))

    @pytest.mark.parametrize("entry,where", [
        (("links", 1, "capacity_mbps"), r"links\[1\]: "),
        (("links", 1, "free_mbps"), r"links\[1\]: "),
        (("hosts", 1, "cpu_mhz"), r"hosts\[1\]: "),
        (("hosts", 1, "free_cpu_mhz"), r"hosts\[1\]: "),
        (("hosts", 1, "nic_mbps"), r"hosts\[1\]: "),
        (("reference_host", "mem_mb"), ""),
        (("reference_link_mbps",), "")])
    def test_booleans_are_not_numbers(self, tmp_path, entry, where):
        # float() once read true as 1.0
        with pytest.raises(TopologyError, match=rf"topo\.json: {where}{entry[-1]} must be "
                                                r"a number, got True$"):
            load_topology(self.write(tmp_path, self.doc_with(entry, True)))

    def test_quoted_numbers_are_not_numbers(self, tmp_path):
        # float() once read "4000" as 4000.0
        with pytest.raises(TopologyError, match=r"topo\.json: hosts\[1\]: cpu_mhz must be a "
                                                r"number, got '4000'$"):
            load_topology(self.write(tmp_path, self.doc_with(("hosts", 1, "cpu_mhz"), "4000")))

    def test_garbage_json_rejected(self, tmp_path):
        path = tmp_path / "topo.json"
        path.write_text("{nope")
        with pytest.raises(TopologyError, match="JSON"):
            load_topology(str(path))

    @pytest.mark.parametrize("field,value", [
        ("cpu_mhz", float("inf")), ("mem_mb", float("nan")), ("free_cpu_mhz", float("inf")),
        ("nic_mbps", float("nan"))])
    def test_non_finite_host_rejected(self, tmp_path, field, value):
        doc = self.doc()
        doc["hosts"][1][field] = value
        with pytest.raises(TopologyError, match="host h1: .* must be finite"):
            load_topology(self.write(tmp_path, doc))

    @pytest.mark.parametrize("field,dim", [("cpu_mhz", "cpu"), ("mem_mb", "mem"),
                                           ("nic_mbps", "nic")])
    def test_zero_capacity_host_rejected(self, tmp_path, field, dim):
        # bal_pack divides by every capacity dimension
        doc = self.doc()
        doc["hosts"][1][field] = 0
        with pytest.raises(TopologyError, match=f"host h1: {dim} capacity 0.0 must be > 0"):
            load_topology(self.write(tmp_path, doc))

    @pytest.mark.parametrize("field,value", [
        ("reference_link_mbps", float("nan")), ("reference_link_mbps", 0),
        ("cpu_mhz", float("inf")), ("mem_mb", float("nan")), ("nic_mbps", 0)])
    def test_bad_reference_rejected(self, tmp_path, field, value):
        doc = self.doc()
        if field == "reference_link_mbps":
            doc[field] = value
        else:
            doc["reference_host"][field] = value
        name = field if field == "reference_link_mbps" else "reference_host"
        with pytest.raises(TopologyError, match=f"{name} .*must be finite and > 0"):
            load_topology(self.write(tmp_path, doc))

    @pytest.mark.parametrize("field,value,message", [
        ("free_mbps", float("nan"), "free nan outside"),
        ("capacity_mbps", float("nan"), "capacity nan must be finite"),
        ("capacity_mbps", float("inf"), "capacity inf must be finite"),
    ])
    def test_non_finite_link_rejected(self, tmp_path, field, value, message):
        doc = self.doc()
        doc["switches"] += [{"id": "s2", "level": 0}, {"id": "core", "level": 1}]
        for link in doc["links"][2:]:
            link["b"] = "s2"
        doc["links"] += [{"a": s, "b": "core", "capacity_mbps": 1000} for s in ("s1", "s2")]
        load_topology(self.write(tmp_path, doc))
        doc["links"][-1][field] = value
        with pytest.raises(TopologyError, match=f"link s2-core: {message}"):
            load_topology(self.write(tmp_path, doc))
