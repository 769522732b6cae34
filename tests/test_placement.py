import itertools
import json
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import event, given, settings, strategies as st

from dcfrag import placement
from dcfrag.fixtures import (UNIT, UNIT_REF, category_eval_apps, category_spec,
                             category_topology, fig1_instance)
from dcfrag.harness import resolve_topology
from dcfrag.metrics import MultiRequest, placeable_in_reaches
from dcfrag.placement import (SCHEMES, CapacityError, PlacementState, SchemeConfig, bal_pack,
                              best_sibling_reach, derive_netw_slots, place_application,
                              reserve_traffic)
from dcfrag.topology import (Host, Link, Reach, ResourceVector, Switch, Topology, build_clos,
                             build_tree, load_topology)
from dcfrag.workload import (VM, Application, generate_workload, load_workload,
                             representative_request, validate_application)
from oracle import (journaled_write, placeable_in_reach, reference_reach_gain,
                    reference_reserve_traffic, reference_unified)
from test_topology import as_topology, leveled_fabrics
from test_workload import bw_to

UNIFIED, LOCAL = SchemeConfig(scheme="UNIFIED"), SchemeConfig(scheme="LOCAL")


def idle_tree(num_tors=2, hosts_per_tor=2, link=1.0, oversub=2.0, cap=UNIT):
    return build_tree(num_tors, hosts_per_tor, cap, link, oversub)


def tree_state(**kwargs):
    t = idle_tree(**kwargs)
    return PlacementState(t), t.reaches


def tree_app(demands, traffic, app_id="app"):
    vms = tuple(VM(id=v, demand=ResourceVector(*d)) for v, d in sorted(demands.items()))
    from dcfrag.workload import Application
    return Application(id=app_id, vms=vms, traffic=traffic)


class TestBalPack:
    def test_empty_host_perfectly_balanced(self):
        state, reaches = tree_state()
        vm = VM(id="v", demand=ResourceVector(0.2, 0.2, 0.2))
        assert bal_pack(state, vm, reaches[0]) == "h0"

    def test_prefers_dimension_balanced_host(self):
        state, reaches = tree_state()
        # h0 heavily used on cpu only; h1 evenly used
        state.host_free["h0"] = ResourceVector(0.2, 0.9, 0.9)
        state.host_free["h1"] = ResourceVector(0.7, 0.7, 0.7)
        vm = VM(id="v", demand=ResourceVector(0.1, 0.1, 0.1))
        # post-placement: h0 (0.9, 0.2, 0.2) score 0.7; h1 (0.4, 0.4, 0.4) score 0
        assert bal_pack(state, vm, reaches[0]) == "h1"

    def test_fail_when_nothing_fits(self):
        state, reaches = tree_state()
        for h in state.host_free:
            state.host_free[h] = ResourceVector(0.4, 1.0, 1.0)
        vm = VM(id="v", demand=ResourceVector(0.5, 0.1, 0.1))
        assert bal_pack(state, vm, reaches[0]) is None

    def test_score_tie_goes_to_the_smallest_id_in_any_host_order(self):
        # a hand-built reach may list its hosts in any order
        state, _ = tree_state()
        vm = VM(id="v", demand=ResourceVector(0.2, 0.2, 0.2))
        for order in itertools.permutations(("h0", "h1", "h2", "h3")):
            assert bal_pack(state, vm, Reach("r", order, ("t0", "t1"))) == "h0", order
        # h0 now ends less balanced than the three tied hosts
        state.host_free["h0"] = ResourceVector(0.5, 1.0, 1.0)
        for order in itertools.permutations(("h0", "h1", "h2", "h3")):
            assert bal_pack(state, vm, Reach("r", order, ("t0", "t1"))) == "h1", order

    def test_fit_rule_matches_the_ledger_at_large_capacities(self):
        # h0's used amounts dwarf _EPS, so cap - free + need rounds back to
        # within cap + _EPS although need > free + _EPS: the packer must skip
        # h0 as assign_vm would refuse it, and UNIFIED then places on h2
        big = ResourceVector(1e9, 1e9, 1e9)
        hosts = [Host(id="h0", capacity=big, free=ResourceVector(0.5, 0.5, 0.5)),
                 Host(id="h1", capacity=UNIT, free=ResourceVector(0, 0, 0)),
                 Host(id="h2", capacity=UNIT, free=UNIT),
                 Host(id="h3", capacity=UNIT, free=ResourceVector(0, 0, 0))]
        links = [Link(id=f"{h.id}-s1", a=h.id, b="s1", capacity=1.0, free=1.0) for h in hosts]
        t = Topology(hosts, [Switch(id="s1", level=0)], links, UNIT_REF)
        vm = VM(id="v", demand=ResourceVector(0.5 + 2e-9, 0.5, 0.5))
        assert bal_pack(PlacementState(t), vm, t.reaches[0]) == "h2"
        app = Application(id="app", vms=(vm,), traffic={})
        for cfg in (UNIFIED, LOCAL):
            state = PlacementState(t)
            assert place_application(state, app, cfg).ok, cfg.scheme
            assert state.assignments[app.id] == {"v": "h2"}, cfg.scheme


    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_a_per_dimension_reference(self, data):
        # capacities and frees from a few values make score ties and exact fits common
        value = st.sampled_from([0.5, 1.0, 2.0])
        caps = [ResourceVector(*(data.draw(value) for _ in range(3))) for _ in range(4)]
        hosts = [Host(id=f"h{i}", capacity=cap, free=cap) for i, cap in enumerate(caps)]
        links = [Link(id=f"h{i}-s1", a=f"h{i}", b="s1", capacity=1.0, free=1.0)
                 for i in range(4)]
        t = Topology(hosts, [Switch(id="s1", level=0)], links, UNIT_REF)
        state = PlacementState(t)
        share = st.sampled_from([0.0, 0.25, 0.5, 1.0])
        for h in hosts:
            state.host_free[h.id] = ResourceVector(
                *(getattr(h.capacity, d) * data.draw(share) for d in ("cpu", "mem", "nic")))
        vm = VM(id="v", demand=ResourceVector(*(data.draw(st.sampled_from([0.0, 0.25, 0.5]))
                                                for _ in range(3))))
        assert bal_pack(state, vm, t.reaches[0]) == _bal_pack_by_dim(state, vm, t.reaches[0])


def _bal_pack_by_dim(state, vm, reach):
    """Reference: bal_pack reading each dimension by name."""
    best = None
    for host_id in reach.hosts:
        cap = state.topology.hosts[host_id].capacity
        free = state.host_free[host_id]
        utils = []
        for dim in ("cpu", "mem", "nic"):
            need, have, full = (getattr(v, dim) for v in (vm.demand, free, cap))
            if need > have + 1e-9:
                break
            utils.append((full - have + need) / full)
        else:
            score = max(utils) - min(utils)
            if best is None or (score, host_id) < best:
                best = (score, host_id)
    return best[1] if best else None


class TestReserveEdge:
    """One edge through reserve_traffic, the one way to reserve."""

    @settings(max_examples=200, deadline=None)
    @given(leveled_fabrics, st.data())
    def test_reserves_along_the_route_or_changes_nothing(self, fabric, data):
        # frees and sizes within _EPS of each other make exact fits common
        t = as_topology(fabric)
        state = PlacementState(t)
        for lid in sorted(t.links):
            state.link_free[lid] = data.draw(st.sampled_from([0.0, 0.25, 0.5 - 1e-10, 0.5, 1.0]))
        bw = data.draw(st.sampled_from([0.25, 0.5, 0.5 + 1e-10, 0.75]))
        a, b = data.draw(st.lists(st.sampled_from(sorted(t.hosts)), min_size=2, max_size=2,
                                  unique=True))
        app = Application(id="app", vms=(VM("x", UNIT), VM("y", UNIT)),
                          traffic={("x", "y"): bw})
        state.register_app(app)
        state.assignments[app.id].update(x=a, y=b)
        path, _ = t.route(a, b, state.link_free)
        before = state.snapshot()
        frees = before[1]
        short = [lid for lid in path if frees[lid] + 1e-9 < bw]
        with state.transaction():
            try:
                reserve_traffic(state, app, [(("x", "y"), bw)])
            except CapacityError as exc:
                assert short, "a fitting edge was refused"
                assert (exc.entity, exc.entity_id, exc.dimension) == ("link", short[0], "bw")
                assert str(exc) == f"link {short[0]} bw: need {bw:g}, free {frees[short[0]]:g}"
                assert state.snapshot() == before
            else:
                assert not short, "a short link was overdrawn"
                assert state.reservations == {app.id: {("x", "y"): (path, bw)}}
                assert state.link_free == {lid: free - bw if lid in path else free
                                           for lid, free in frees.items()}
        # left uncommitted, the transaction puts back every value it replaced
        assert state.snapshot() == before


class TestReserveTraffic:
    def setup_app(self, traffic):
        state, reaches = tree_state()
        demands = {v: (0.1, 0.1, sum(bw for k, bw in traffic.items() if v in k))
                   for pair in traffic for v in pair}
        app = tree_app(demands, traffic)
        state.register_app(app)
        return state, app

    def test_colocated_pair_uses_no_links(self):
        state, app = self.setup_app({("v1", "v2"): 0.3})
        state.assign_vm(app.id, app.vm("v1"), "h0")
        state.assign_vm(app.id, app.vm("v2"), "h0")
        assert reserve_traffic(state, app) is None
        assert not state.reservations[app.id]
        assert all(state.link_free[l] == state.topology.links[l].free
                   for l in state.link_free)

    def test_cross_host_reservation_decrements_path(self):
        state, app = self.setup_app({("v1", "v2"): 0.3})
        state.assign_vm(app.id, app.vm("v1"), "h0")
        state.assign_vm(app.id, app.vm("v2"), "h1")
        assert reserve_traffic(state, app) is None
        assert state.link_free["h0-t0"] == pytest.approx(0.7)
        assert state.link_free["h1-t0"] == pytest.approx(0.7)

    def test_second_call_reserves_nothing_twice(self):
        state, app = self.setup_app({("v1", "v2"): 0.3, ("v2", "v3"): 0.2})
        state.assign_vm(app.id, app.vm("v1"), "h0")
        state.assign_vm(app.id, app.vm("v2"), "h1")
        reserve_traffic(state, app)
        after_first = state.snapshot()
        reserve_traffic(state, app)
        assert state.snapshot() == after_first
        assert set(state.reservations[app.id]) == {("v1", "v2")}
        state.assign_vm(app.id, app.vm("v3"), "h2")
        reserve_traffic(state, app)
        assert set(state.reservations[app.id]) == {("v1", "v2"), ("v2", "v3")}
        assert state.validate() == []

    @settings(max_examples=200, deadline=None)
    @given(leveled_fabrics, st.data())
    def test_matches_the_per_edge_reference(self, fabric, data):
        # frees and sizes within _EPS of each other make exact fits common, as
        # in TestReserveEdge; VMs may share a host or sit on none, and some
        # edges hold a reservation already
        t = as_topology(fabric)
        vm_ids = ["v0", "v1", "v2", "v3"]
        where = {v: data.draw(st.sampled_from([None, *sorted(t.hosts)])) for v in vm_ids}
        traffic = data.draw(st.dictionaries(
            st.sampled_from(list(itertools.combinations(vm_ids, 2))),
            st.sampled_from([0.0, 0.25, 0.5, 0.5 + 1e-10]), min_size=2))
        held = data.draw(st.sets(st.sampled_from(sorted(traffic))))
        frees = {lid: data.draw(st.sampled_from([0.0, 0.25, 0.5 - 1e-10, 0.5, 1.0]))
                 for lid in sorted(t.links)}
        app = Application(id="app", vms=tuple(VM(v, UNIT) for v in vm_ids), traffic=traffic)
        only = data.draw(st.sampled_from([None, *vm_ids]))  # all edges, or one VM's
        edges = None if only is None else app.vm_edges(only)

        def run(reserve):
            state = PlacementState(t)
            state.link_free.update(frees)
            state.register_app(app)
            state.assignments[app.id].update({v: h for v, h in where.items() if h is not None})
            state.reservations[app.id].update({edge: ((), traffic[edge]) for edge in held})
            before = state.snapshot()
            with state.transaction():
                try:
                    reserve(state, app, edges)
                    error = None
                except CapacityError as exc:
                    error = (exc.entity, exc.entity_id, exc.dimension, str(exc))
                after = (dict(state.reservations[app.id]), dict(state.link_free))
            # left uncommitted, the transaction puts back every value it replaced
            assert state.snapshot() == before
            return error, after

        assert run(reserve_traffic) == run(reference_reserve_traffic)

    def test_shortfall_rolls_back_the_vm(self):
        # the second case reserves (v1, v2) before (v2, v3) falls short; an
        # inverse-arithmetic undo would leave h0-t0 at 0.8499999999999999
        cases = [
            ({("v1", "v2"): 0.3}, {"h1-t0": 0.2}, {"v1": "h0"}),
            ({("v1", "v2"): 0.2, ("v2", "v3"): 0.3}, {"h0-t0": 0.85, "h1-t0": 0.45},
             {"v1": "h0", "v3": "h2"}),
        ]
        for traffic, link_free, hosts in cases:
            state, app = self.setup_app(traffic)
            state.link_free.update(link_free)
            for vm_id, host in hosts.items():
                state.assign_vm(app.id, app.vm(vm_id), host)
            before, before_free = state.snapshot(), dict(state.link_free)
            with pytest.raises(CapacityError, match="h1-t0"):
                with state.transaction():
                    state.assign_vm(app.id, app.vm("v2"), "h1")
                    reserve_traffic(state, app)
            assert "v2" not in state.assignments[app.id]
            assert not state.reservations[app.id]
            assert state.link_free == before_free
            assert state.snapshot() == before


class TestUnified:
    def test_single_vm_app_lands_in_least_loaded_reach(self):
        state, reaches = tree_state(num_tors=2)
        # load rack 0 so rack 1 is the least loaded
        for h in reaches[0].hosts:
            state.host_free[h] = ResourceVector(0.2, 0.2, 1.0)
        app = tree_app({"v1": (0.3, 0.3, 0.0)}, {})
        out = place_application(state, app, UNIFIED)
        assert out.ok
        (host,) = state.assignments[app.id].values()
        assert host in reaches[1].hosts
        assert not state.reservations[app.id]

    def test_impossible_demand_fails_with_untouched_state(self):
        state, _ = tree_state()
        before = state.snapshot()
        demands = {f"v{i}": (0.9, 0.1, 0.0) for i in range(6)}
        app = tree_app(demands, {})
        out = place_application(state, app, UNIFIED)
        assert not out.ok
        assert state.snapshot() == before

    def test_a_refused_step_leaves_no_entry_for_its_vm(self, monkeypatch):
        # tight uplinks on h1 and h3 keep the two reaches' counts tied, so r0
        # is tried first; v2's edge to v1 on h0 cannot leave h1, so v2's step
        # rolls back and v2 goes to r1
        state, _ = tree_state()
        state.link_free["h1-t0"] = state.link_free["h3-t1"] = 0.25
        app = tree_app({"v1": (0.6, 0.1, 0.3), "v2": (0.6, 0.1, 0.3), "v3": (0.1, 0.1, 0.0)},
                       {("v1", "v2"): 0.3})
        rollback, left = PlacementState._rollback, []

        def logged_rollback(self, mark):
            rollback(self, mark)
            if mark > 0:  # a step's rollback; the attempt's own is to 0
                left.append(dict(self.assignments[app.id]))

        monkeypatch.setattr(PlacementState, "_rollback", logged_rollback)
        assert place_application(state, app, UNIFIED).ok
        assert left == [{"v1": "h0"}]
        assert state.assignments[app.id] == {"v1": "h0", "v2": "h2", "v3": "h3"}

    def test_seed_vm_is_an_argmax_of_pair_bandwidth(self):
        state, _ = tree_state(num_tors=2, hosts_per_tor=2)
        traffic = {("v1", "v2"): 0.4, ("v2", "v3"): 0.1}
        demands = {"v1": (0.1, 0.1, 0.4), "v2": (0.1, 0.1, 0.5), "v3": (0.1, 0.1, 0.1)}
        app = tree_app(demands, traffic)
        out = place_application(state, app, UNIFIED)
        assert out.ok
        # v2 carries 0.5 total, the unique argmax; it must land on the first
        # host bal_pack offers in the chosen reach
        assert state.assignments[app.id]["v2"] == "h0"

    def test_whole_app_in_one_reach_uses_no_uplinks(self):
        state, reaches = tree_state(num_tors=2, hosts_per_tor=2)
        traffic = {("v1", "v2"): 0.3}
        demands = {"v1": (0.2, 0.2, 0.3), "v2": (0.2, 0.2, 0.3)}
        app = tree_app(demands, traffic)
        out = place_application(state, app, UNIFIED)
        assert out.ok
        hosts = set(state.assignments[app.id].values())
        assert hosts <= set(reaches[0].hosts) or hosts <= set(reaches[1].hosts)
        for tor_uplink in ("t0-core", "t1-core"):
            assert state.link_free[tor_uplink] == state.topology.links[tor_uplink].free

    def test_spills_to_sibling_reach_when_rack_full(self):
        state, reaches = tree_state(num_tors=2, hosts_per_tor=2)
        demands = {f"v{i}": (0.6, 0.1, 0.05) for i in range(4)}
        traffic = {("v0", "v1"): 0.05, ("v2", "v3"): 0.05}
        app = tree_app(demands, traffic)
        out = place_application(state, app, UNIFIED)
        assert out.ok
        hosts = set(state.assignments[app.id].values())
        assert hosts & set(reaches[0].hosts) and hosts & set(reaches[1].hosts)
        assert not state.validate()

    def test_deterministic_plans(self):
        state_a, _ = tree_state()
        state_b, _ = tree_state()
        traffic = {("v1", "v2"): 0.2, ("v1", "v3"): 0.1}
        demands = {"v1": (0.3, 0.2, 0.3), "v2": (0.2, 0.3, 0.2), "v3": (0.1, 0.1, 0.1)}
        assert place_application(state_a, tree_app(demands, traffic), UNIFIED).ok
        assert place_application(state_b, tree_app(demands, traffic), UNIFIED).ok
        assert state_a.assignments == state_b.assignments
        assert state_a.reservations == state_b.reservations

    def test_empty_app_trivially_ok(self):
        state, _ = tree_state()
        app = Application(id="empty", vms=(), traffic={})
        assert place_application(state, app, UNIFIED).ok

    def test_traffic_above_the_reference_link_is_placed(self, tmp_path):
        # validation bounds a VM's traffic by the 2000 Mbps reference NIC, so
        # a 1500 Mbps edge is valid although it is 1.5 reference links
        topo = {
            "reference_host": {"cpu_mhz": 1000, "mem_mb": 1000, "nic_mbps": 2000},
            "reference_link_mbps": 1000,
            "hosts": [{"id": f"h{i}", "cpu_mhz": 1000, "mem_mb": 1000, "nic_mbps": 2000}
                      for i in range(2)],
            "switches": [{"id": "s1", "level": 0}],
            "links": [{"a": f"h{i}", "b": "s1", "capacity_mbps": 2000} for i in range(2)],
        }
        wl = {"apps": [{"id": "a",
                        "vms": [{"id": "v1", "cpu_mhz": 100, "mem_mb": 100},
                                {"id": "v2", "cpu_mhz": 100, "mem_mb": 100}],
                        "edges": [{"a": "v1", "b": "v2", "mbps": 1500}]}]}
        (tmp_path / "topo.json").write_text(json.dumps(topo))
        (tmp_path / "wl.json").write_text(json.dumps(wl))
        t = load_topology(str(tmp_path / "topo.json"))
        (app,) = load_workload(str(tmp_path / "wl.json"), t.reference)
        assert representative_request(app, t.reference).nw == 1.0
        state = PlacementState(t)
        out = place_application(state, app, UNIFIED)
        assert out.ok
        assert state.assignments["a"] == {"v1": "h0", "v2": "h1"}
        assert state.validate() == []

    def test_demand_rounded_above_the_reference_host_is_placed(self):
        # validation admits a normalized demand up to 1 + _EPS; the reach
        # ranking request built from it must stay a valid MultiRequest
        state, _ = tree_state()
        vms = tuple(VM(id=f"v{i}", demand=ResourceVector(1 + 5e-10, 0.5, 0.0))
                    for i in range(2))
        app = Application(id="app", vms=vms, traffic={})
        validate_application(app, state.topology.reference)
        assert place_application(state, app, UNIFIED).ok
        assert len(set(state.assignments[app.id].values())) == 2


def _unified_rescanning_gains(state, app, config, reaches):
    """UNIFIED with its former next-VM rule, kept as the reference: after every
    placed VM it rebuilds the VMs in the current reach from the assignments
    and takes two bw_to sums per unplaced VM."""
    req = representative_request(app, state.topology.reference)
    reach = min(reaches, key=lambda r: (-placeable_in_reach(state, r, req), r.id))
    tried = {reach.id}
    unplaced = set(app.vm_ids())
    placed_hosts = set()
    last_failure = "no reach could take the first VM"
    while True:
        reach_hosts = set(reach.hosts)
        vm_id = min(unplaced, key=lambda v: (-bw_to(app, v, unplaced), v))
        while True:
            host = placement.bal_pack(state, app.vm(vm_id), reach)
            if host is None:
                last_failure = f"reach {reach.id}: no host fits VM {vm_id}"
                break
            mark = len(state._journal)
            try:
                state.assign_vm(app.id, app.vm(vm_id), host)
                reserve_traffic(state, app, app.vm_edges(vm_id))
            except CapacityError as exc:
                state._rollback(mark)
                last_failure = str(exc)
                break
            placed_hosts.add(host)
            unplaced.discard(vm_id)
            if not unplaced:
                return None
            in_reach = {v for v in app.vm_ids()
                        if state.assignments[app.id].get(v) in reach_hosts}
            vm_id = min(unplaced,
                        key=lambda v: (-(bw_to(app, v, in_reach) - bw_to(app, v, unplaced)), v))
        hosting = [r for r in reaches if placed_hosts & set(r.hosts)]
        sibling = placement.best_sibling_reach(state, reaches, tried, hosting, req, {})
        if sibling is None:
            return last_failure
        reach = sibling
        tried.add(reach.id)


class TestUnifiedNextVm:
    @staticmethod
    def _run(monkeypatch, body, category, apps, seed):
        """UNIFIED over a generated category workload: every assign_vm call
        in order (rolled-back ones included), plus the sibling-reach spills:
        the best_sibling_reach calls after an app's first reach was tried."""
        calls, spills = [], []
        assign, sibling = PlacementState.assign_vm, placement.best_sibling_reach

        def logged_assign(self, app_id, vm, host_id):
            calls.append((app_id, vm.id, host_id))
            return assign(self, app_id, vm, host_id)

        def logged_sibling(state, reaches, tried, hosting, req, counts):
            got = sibling(state, reaches, tried, hosting, req, counts)
            if tried:
                spills.append(got is not None)
            return got

        with monkeypatch.context() as m:
            m.setitem(placement._SCHEME_BODIES, "UNIFIED", body)
            m.setattr(PlacementState, "assign_vm", logged_assign)
            m.setattr(placement, "best_sibling_reach", logged_sibling)
            state = PlacementState(category_topology(category))
            outcomes = [place_application(state, app, UNIFIED).ok
                        for app in generate_workload(category_spec(category, apps, seed))]
        return calls, sum(spills), outcomes

    @pytest.mark.parametrize("category,apps,seed", [
        (1, 64, 0), (1, 128, 1), (3, 64, 0), (3, 128, 1)])
    def test_same_assignments_as_rescanning_the_gains(self, monkeypatch, category, apps, seed):
        got = self._run(monkeypatch, placement._place_unified, category, apps, seed)
        want = self._run(monkeypatch, _unified_rescanning_gains, category, apps, seed)
        assert got == want
        calls, spills, outcomes = got
        assert calls and any(outcomes)
        if apps == 128:  # overloaded: apps spill to sibling reaches and some are refused
            assert spills > 0 and not all(outcomes)


class TestPick:
    @settings(max_examples=200, deadline=None)
    @given(st.dictionaries(st.sampled_from([f"v{i}" for i in range(12)]),
                           st.sampled_from([0, 0.0, -0.0, 1.5, -1.5, 2.25, -2.25]),
                           min_size=1, max_size=5))
    def test_equals_min_with_a_key_in_every_insertion_order(self, gain):
        # few gain values, so most draws tie, 0.0 against -0.0 among them;
        # "v10" < "v2", so a tie goes by string order
        first = min(gain, key=lambda v: (gain[v], v))
        largest = min(gain, key=lambda v: (-gain[v], v))
        for order in itertools.permutations(gain):
            unplaced = set(order)  # built by inserting the ids in this order
            assert placement._pick(unplaced, gain, 1) == first, order
            assert placement._pick(unplaced, gain, -1) == largest, order


class TestBestSiblingReach:
    def test_remaining_sibling_returned_and_exhaustion_none(self):
        state, reaches = tree_state(num_tors=2)
        req = MultiRequest(cpu=0.1, mem=0.1, nw=0.1)
        sibling = best_sibling_reach(state, reaches, {reaches[0].id}, [reaches[0]], req, {})
        assert sibling == reaches[1]
        assert best_sibling_reach(state, reaches, {r.id for r in reaches}, [], req, {}) is None

    def test_equal_distance_breaks_on_bandwidth(self):
        state, reaches = tree_state(num_tors=4, hosts_per_tor=2)
        req = MultiRequest(cpu=0.1, mem=0.1, nw=0.1)
        # app lives in r0; drain r1's uplink so r2 offers more bandwidth
        state.link_free["t1-core"] = 0.05
        sibling = best_sibling_reach(state, reaches, {reaches[0].id}, [reaches[0]], req, {})
        assert sibling == reaches[2]

    def test_first_pick_ties_break_on_string_ids(self):
        # with no hosting reach only the placeable count and the id rank: on
        # tree64's empty fabric all 16 racks tie and r0 wins; with r0 and r1
        # full the other 14 tie and "r10" < "r2" wins
        t = resolve_topology("tree64")
        state, reaches = PlacementState(t), t.reaches
        req = MultiRequest(cpu=0.1, mem=0.1, nw=0.1)
        assert len(reaches) == 16
        assert best_sibling_reach(state, reaches, set(), [], req, {}).id == "r0"
        for reach in reaches[:2]:
            for h in reach.hosts:
                state.host_free[h] = ResourceVector(0.0, 0.0, state.host_free[h].nic)
        assert best_sibling_reach(state, reaches, set(), [], req, {}).id == "r10"

    def test_counts_only_the_ties_and_reuses_the_map(self):
        state, reaches = tree_state(num_tors=4, hosts_per_tor=2)
        req = MultiRequest(cpu=0.1, mem=0.1, nw=0.1)
        # app lives in r0; r1's drained uplink leaves r2 and r3 tied on
        # (distance, bandwidth), so only they are counted
        state.link_free["t1-core"] = 0.05
        counts = {}
        sibling = best_sibling_reach(state, reaches, {"r0"}, [reaches[0]], req, counts)
        assert sibling == reaches[2]
        assert counts == {"r2": 10, "r3": 10}
        # a count already in the map is used as is
        counts["r3"] = 11
        assert best_sibling_reach(state, reaches, {"r0"}, [reaches[0]], req, counts) == reaches[3]
        assert best_sibling_reach(state, reaches, {"r0"}, [reaches[0]], req, {}) == reaches[2]


class TestLocal:
    def test_first_fit_packs_one_host(self):
        state, _ = tree_state()
        demands = {"v1": (0.6, 0.1, 0.0), "v2": (0.3, 0.1, 0.0)}
        app = tree_app(demands, {})
        out = place_application(state, app, LOCAL)
        assert out.ok
        assert set(state.assignments[app.id].values()) == {"h0"}

    def test_fig1_overdraws_the_link(self):
        t, app = fig1_instance()
        state = PlacementState(t)
        out = place_application(state, app, LOCAL)
        assert not out.ok
        assert "link" in out.failure
        assert not state.assignments and not state.validate()

    def test_empty_app_ok(self):
        state, _ = tree_state()
        app = Application(id="empty", vms=(), traffic={})
        assert place_application(state, app, LOCAL).ok

    def test_host_exhaustion_fails_and_rolls_back(self):
        state, _ = tree_state()
        before = state.snapshot()
        demands = {f"v{i}": (0.8, 0.1, 0.0) for i in range(5)}
        app = tree_app(demands, {})
        out = place_application(state, app, LOCAL)
        assert not out.ok and "no host fits" in out.failure
        assert state.snapshot() == before


    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(*(st.sampled_from([0.0, 0.25, 0.5, 0.75]) for _ in range(3))),
                    min_size=1, max_size=12), st.data())
    def test_matches_a_first_fit_reference(self, shares, data):
        # a reference host of (2, 4, 1): each dimension's demand is a share of
        # it, so normalized sizes tie across dimensions and between VMs; each
        # host starts, per dimension, full, at the app's smallest need, _EPS
        # or a quarter share short of it, or empty, so LOCAL's host filter
        # keeps hosts at its edge and drops others
        ref = ResourceVector(2.0, 4.0, 1.0)
        state = PlacementState(build_tree(2, 2, ref, 1.0, oversub_ratio=2.0))
        caps = (ref.cpu, ref.mem, ref.nic)
        lows = [min(share[d] for share in shares) * caps[d] for d in range(3)]
        for h in sorted(state.host_free):
            state.host_free[h] = ResourceVector(*(
                max(0.0, data.draw(st.sampled_from([cap, lo, lo - 1e-9, lo - cap / 4, 0.0])))
                for cap, lo in zip(caps, lows)))
        demands = {f"v{i}": (c * ref.cpu, m * ref.mem, n * ref.nic)
                   for i, (c, m, n) in enumerate(shares)}
        app = tree_app(demands, {})
        want = _local_first_fit(state, app)
        out = place_application(state, app, LOCAL)
        if isinstance(want, str):
            assert not out.ok and out.failure == want
            assert not state.assignments
        else:
            assert out.ok and state.assignments[app.id] == want


def _local_first_fit(state, app):
    """Reference LOCAL without traffic: VMs by (-max(cpu/ref.cpu, mem/ref.mem,
    nic/ref.nic), id), each on the first host in id order it fits; the VM ->
    host map, or LOCAL's failure message."""
    t = state.topology
    ref = t.reference.host
    free = dict(state.host_free)
    got = {}
    order = sorted(app.vms, key=lambda v: (-max(v.demand.cpu / ref.cpu, v.demand.mem / ref.mem,
                                                v.demand.nic / ref.nic), v.id))
    for vm in order:
        h = next((h for h in sorted(t.hosts) if all(
            getattr(vm.demand, d) <= getattr(free[h], d) + 1e-9 for d in ("cpu", "mem", "nic"))),
            None)
        if h is None:
            return f"no host fits VM {vm.id}"
        free[h] = free[h] - vm.demand
        got[vm.id] = h
    return got


class TestNetw:
    def cfg(self, slots):
        return SchemeConfig(scheme="NETW", netw_slots_per_host=slots)

    def test_small_app_colocates_with_zero_link_use(self):
        state, _ = tree_state()
        demands = {"v1": (0.1, 0.1, 0.05), "v2": (0.1, 0.1, 0.05)}
        app = tree_app(demands, {("v1", "v2"): 0.05})
        out = place_application(state, app, self.cfg(slots=2))
        assert out.ok
        assert set(state.assignments[app.id].values()) == {"h0"}
        assert not state.reservations[app.id]

    def test_rack_spanning_vc_passes_hose_check(self):
        state, _ = tree_state(num_tors=2, hosts_per_tor=2)
        demands = {f"v{i}": (0.1, 0.1, 0.3) for i in range(4)}
        traffic = {("v0", "v1"): 0.1, ("v0", "v2"): 0.1, ("v0", "v3"): 0.1,
                   ("v1", "v2"): 0.1, ("v1", "v3"): 0.1, ("v2", "v3"): 0.1}
        app = tree_app(demands, traffic)
        out = place_application(state, app, self.cfg(slots=2))
        assert out.ok
        hosts = set(state.assignments[app.id].values())
        assert hosts == {"h0", "h1"}  # whole rack, two slots each
        # hose check held pre-reservation: min(2, 2) * B per host uplink
        n, b = 4, sum(app.total_traffic(v) for v in app.vm_ids()) / 4
        for h in hosts:
            uplink = state.topology.host_ports[h][0]
            assert min(2, n - 2) * b <= state.topology.links[uplink].free
        assert not state.validate()

    def test_oversized_vc_fails(self):
        state, _ = tree_state()
        demands = {f"v{i}": (0.1, 0.1, 0.9) for i in range(6)}
        traffic = {(f"v{i}", f"v{j}"): 0.3 for i in range(6) for j in range(i + 1, 6)}
        app = tree_app(demands, traffic)
        out = place_application(state, app, self.cfg(slots=1))
        assert not out.ok

    def test_slots_required(self):
        state, _ = tree_state()
        app = tree_app({"v1": (0.1, 0.1, 0.0)}, {})
        with pytest.raises(ValueError, match="slots"):
            place_application(state, app, SchemeConfig(scheme="NETW"))

    def test_slots_count_vms_placed_by_any_scheme(self):
        state, _ = tree_state()
        pair = tree_app({"v1": (0.1, 0.1, 0.0), "v2": (0.1, 0.1, 0.0)}, {}, app_id="local")
        assert place_application(state, pair, LOCAL).ok
        assert state.assignments["local"] == {"v1": "h0", "v2": "h0"}
        single = tree_app({"v1": (0.1, 0.1, 0.0)}, {}, app_id="netw")
        assert place_application(state, single, self.cfg(slots=2)).ok
        assert state.assignments["netw"] == {"v1": "h1"}

    def test_derive_slots_from_workload_mean(self):
        t = idle_tree(cap=ResourceVector(4000, 8192, 10000), link=10000)
        app = tree_app({"v1": (400, 100, 0.0), "v2": (600, 100, 0.0)}, {})
        assert derive_netw_slots(t, [app]) == 8  # 4000 / 500

    def test_slot_model_blind_to_cpu_fails_via_guard(self):
        # slots claim the host fits 4 VMs but cpu fits only 2: the reservation
        # guard refuses and the slot-based scheme cannot place the app
        state, _ = tree_state()
        before = state.snapshot()
        demands = {f"v{i}": (0.4, 0.1, 0.01) for i in range(4)}
        traffic = {("v0", "v1"): 0.01}
        app = tree_app(demands, traffic)
        out = place_application(state, app, self.cfg(slots=4))
        assert not out.ok and "cpu" in out.failure
        assert state.snapshot() == before


# one ledger write: (kind, i, j); kind picks the table, i and j the key and value
_WRITE = st.tuples(st.sampled_from(["host", "link", "assignment", "reserve"]),
                   st.integers(0, 3), st.integers(0, 3))
_RESERVER = Application(id="app", vms=(), traffic={})  # reserve_traffic reads only its id


def _reserver_state():
    """A tree state with _RESERVER registered, so the writes of _WRITE have
    its assignment and reservation maps to go to."""
    state, _ = tree_state()
    state.register_app(_RESERVER)
    return state


def _nest(depth):
    """A list of writes and ("block", outcome, items) entries, with blocks
    nested up to three deep."""
    if depth == 3:
        return st.lists(_WRITE, max_size=4)
    block = st.tuples(st.just("block"), st.sampled_from(["commit", "roll back"]),
                      st.deferred(lambda: _nest(depth + 1)))
    return st.lists(st.one_of(_WRITE, block), max_size=4)


def _apply_write(state, kind, i, j):
    hosts, links = sorted(state.host_free), sorted(state.link_free)
    if kind == "host":
        journaled_write(state, state.host_free, hosts[i], ResourceVector(j / 4, j / 4, j / 4))
    elif kind == "link":
        journaled_write(state, state.link_free, links[i], j / 4)
    elif kind == "assignment":
        journaled_write(state, state.assignments["app"], f"v{i}", hosts[j])
    elif i != j:
        # VM r<k> always sits on hosts[k], so these writes never move a VM
        journaled_write(state, state.assignments["app"], f"r{i}", hosts[i])
        journaled_write(state, state.assignments["app"], f"r{j}", hosts[j])
        try:
            reserve_traffic(state, _RESERVER, [((f"r{i}", f"r{j}"), 0.25)])
        except CapacityError:
            pass  # refused before it wrote anything


def _run_nest(state, items):
    """Run the items inside an open transaction. A block is the work between
    a journal mark and, unless it commits, a rollback to that mark, as in
    UNIFIED's per-VM steps and NETW's units."""
    for item in items:
        if item[0] != "block":
            _apply_write(state, *item)
            continue
        _, outcome, inner = item
        mark = len(state._journal)
        _run_nest(state, inner)
        if outcome != "commit":
            state._rollback(mark)


def _committed_writes(items):
    """The writes whose enclosing blocks all commit, in program order."""
    for item in items:
        if item[0] != "block":
            yield item
        elif item[1] == "commit":
            yield from _committed_writes(item[2])


class TestTransaction:
    @settings(max_examples=300, deadline=None)
    @given(_nest(0))
    def test_nested_blocks_keep_exactly_the_committed_writes(self, items):
        # a write runs on the same tables in both runs: every earlier write
        # still in place when it runs is itself one whose blocks all commit
        state = _reserver_state()
        with state.transaction() as commit:
            _run_nest(state, items)
            commit()
        assert state._journal is None
        replay = _reserver_state()
        for write in _committed_writes(items):
            _apply_write(replay, *write)
        assert state.snapshot() == replay.snapshot()

    def test_committed_inner_block_rolls_back_with_the_outer_one(self):
        # the step kept past its mark is undone with the uncommitted block
        state, _ = tree_state()
        app = tree_app({"v1": (0.3, 0.1, 0.0), "v2": (0.6, 0.1, 0.0)}, {})
        fresh = state.snapshot()
        with state.transaction():
            state.register_app(app)
            state.assign_vm(app.id, app.vm("v1"), "h0")
            mark = len(state._journal)
            with pytest.raises(CapacityError):
                state.assign_vm(app.id, app.vm("v2"), "h1")
                state.assign_vm(app.id, app.vm("v2"), "h1")
            state._rollback(mark)
            assert set(state.assignments[app.id]) == {"v1"}
            assert state.host_free["h1"] == state.topology.hosts["h1"].free
        assert state.snapshot() == fresh

    def test_a_nested_block_is_refused(self):
        # the refusal leaves the open block as it was: it still rolls back
        state, _ = tree_state()
        app = tree_app({"v1": (0.3, 0.1, 0.0)}, {})
        fresh = state.snapshot()
        with state.transaction():
            state.register_app(app)
            with pytest.raises(RuntimeError, match="open transaction"):
                with state.transaction():
                    pass
            state.assign_vm(app.id, app.vm("v1"), "h0")
        assert state._journal is None
        assert state.snapshot() == fresh

    def test_snapshot_and_restore_copy_each_apps_maps(self):
        t, app = fig1_instance()
        state = PlacementState(t)
        assert place_application(state, app, UNIFIED).ok and state.reservations[app.id]
        snap = state.snapshot()
        _, _, assignments, _, reservations, _ = snap
        want = (dict(assignments[app.id]), dict(reservations[app.id]))
        # a write after snapshot() does not reach the snapshot
        state.assignments[app.id]["a1"] = "elsewhere"
        state.reservations[app.id].clear()
        assert (assignments[app.id], reservations[app.id]) == want
        # nor does a write to a state restored from it
        state.restore(snap)
        assert state.snapshot() == snap
        state.assignments[app.id].clear()
        state.reservations[app.id].clear()
        assert (assignments[app.id], reservations[app.id]) == want

    def test_restore_inside_a_transaction_is_refused(self):
        # the block's rollback would write into the tables restore replaced,
        # leaving the state at the snapshot instead of its value before the block
        state = PlacementState(resolve_topology("fig4"))
        old = state.snapshot()
        state.host_free["h1"] = ResourceVector(0.1, 0.1, 1.0)
        before = state.snapshot()
        with pytest.raises(RuntimeError, match="open transaction"):
            with state.transaction():
                state.restore(old)
        assert state.snapshot() == before
        state.restore(old)
        assert state.snapshot() == old


class TestStateValidate:
    def test_fresh_state_ok(self):
        state, _ = tree_state()
        assert state.validate() == []

    def test_corrupted_host_ledger_detected(self):
        t, app = fig1_instance()
        state = PlacementState(t)
        out = place_application(state, app, UNIFIED)
        assert out.ok and state.validate() == []
        host = state.assignments[app.id]["a1"]
        state.host_free[host] = state.host_free[host] - ResourceVector(1.0, 0.0, 0.0)
        assert state.validate() == [f"host {host}: cpu ledger out of sync"]

    def test_corrupted_vm_count_detected(self):
        t, app = fig1_instance()
        state = PlacementState(t)
        assert place_application(state, app, UNIFIED).ok and state.validate() == []
        host = state.assignments[app.id]["a1"]
        state.host_vms[host] += 1
        assert state.validate() == [f"host {host}: VM count out of sync"]

    def test_demand_above_host_capacity_detected(self):
        state, _ = tree_state()
        app = tree_app({"v1": (0.6, 0.1, 0.0), "v2": (0.6, 0.1, 0.0)}, {})
        state.register_app(app)
        state.host_free["h0"] = ResourceVector(2.0, 1.0, 1.0)  # lets the overdraw through
        state.assign_vm(app.id, app.vm("v1"), "h0")
        state.assign_vm(app.id, app.vm("v2"), "h0")
        assert "host h0 cpu: demand 1.2 exceeds capacity 1" in state.validate()

    def test_corrupted_link_reservation_detected(self):
        state, _ = tree_state()
        state.reservations["ghost"] = {("a", "b"): (("h0-t0",), 5.0)}
        report = state.validate()
        assert any("h0-t0" in line for line in report)

    def test_capacity_error_names_entity_and_dimension(self):
        state, _ = tree_state()
        app = tree_app({"v1": (0.9, 0.1, 0.0), "v2": (0.9, 0.1, 0.0)}, {})
        state.register_app(app)
        state.assign_vm(app.id, app.vm("v1"), "h0")
        with pytest.raises(CapacityError, match="host h0 cpu"):
            state.assign_vm(app.id, app.vm("v2"), "h0")

    def test_states_validate_after_every_scheme(self):
        for scheme in ("UNIFIED", "LOCAL", "NETW"):
            state, _ = tree_state()
            cfg = SchemeConfig(scheme=scheme, netw_slots_per_host=4)
            demands = {"v1": (0.2, 0.2, 0.1), "v2": (0.2, 0.2, 0.1)}
            app = tree_app(demands, {("v1", "v2"): 0.1})
            out = place_application(state, app, cfg)
            assert out.ok, scheme
            assert state.validate() == [], scheme


def check_reserved_paths(state, app):
    """Each of the app's reservations in the ledger is a link path from one
    VM's host uplink to the other's, each link sharing a node with the next,
    and carries the edge's traffic. Returns how many it checked."""
    t, traffic = state.topology, dict(app.edges())
    placed, reserved = state.assignments[app.id], state.reservations[app.id]
    for (x, y), (path, bw) in reserved.items():
        uplinks = {t.host_ports[placed[v]][0] for v in (x, y)}
        assert len(uplinks) == 2 and {path[0], path[-1]} == uplinks, (app.id, x, y, path)
        for a, b in zip(path, path[1:]):
            assert {t.links[a].a, t.links[a].b} & {t.links[b].a, t.links[b].b}, path
        assert bw == traffic[(x, y)]
    return len(reserved)


class TestReservedPaths:
    def test_reserved_paths_join_the_two_hosts(self):
        t = resolve_topology("tree64")
        apps = generate_workload(category_spec(1, 24, 0))
        slots = derive_netw_slots(t, apps)
        for scheme in ("UNIFIED", "LOCAL", "NETW"):
            state = PlacementState(t)
            cfg = SchemeConfig(scheme=scheme, netw_slots_per_host=slots)
            checked = sum(check_reserved_paths(state, app) for app in apps
                          if place_application(state, app, cfg).ok)
            assert checked > 0, scheme


@st.composite
def ledger_runs(draw):
    """A small oversubscribed tree or CLOS fabric, one scheme, and a sequence
    of apps. Host uplinks are tight, so a VM's edges can exhaust one part-way
    and UNIFIED then spills to a sibling reach, sometimes successfully. VMs
    may need no cpu or mem, and now and then an app reuses an earlier id."""
    if draw(st.booleans()):
        t = build_tree(draw(st.sampled_from([2, 4])), 2, UNIT, 1.0, oversub_ratio=2.0)
    else:
        t = build_clos(2, 2, 2, UNIT, 1.0, core_oversub=2.0)
    for lid in sorted(t.links):
        frees = [0.25, 0.45, 0.85, 1.0] if t.links[lid].a in t.hosts else [0.85, 1.0]
        t.links[lid].free = t.links[lid].capacity * draw(st.sampled_from(frees))
    cfg = SchemeConfig(scheme=draw(st.sampled_from(SCHEMES)),
                       netw_slots_per_host=draw(st.integers(1, 4)))
    apps = []
    for i in range(draw(st.integers(1, 6))):
        ids = [f"v{j}" for j in range(draw(st.integers(1, 4)))]
        traffic = {}
        for pair in itertools.combinations(ids, 2):
            bw = draw(st.sampled_from([0.0, 0.1, 0.2, 0.3]))
            if bw:
                traffic[pair] = bw
        size = st.sampled_from([0.0, 0.1, 0.2, 0.4])
        demands = {v: (draw(size), draw(size),
                       sum(bw for pair, bw in traffic.items() if v in pair)) for v in ids}
        app_id = f"a{i}"
        if i and draw(st.integers(0, 3)) == 0:
            app_id = f"a{draw(st.integers(0, i - 1))}"
        apps.append(tree_app(demands, traffic, app_id=app_id))
    return t, cfg, apps


class TestLedgerProperties:
    @settings(max_examples=300, deadline=None)
    @given(ledger_runs())
    def test_every_attempt_leaves_an_exact_ledger(self, run):
        t, cfg, apps = run
        state = PlacementState(t)
        for app in apps:
            before = state.snapshot()
            if app.id in state.apps:  # the ledger keys its entries by app id
                with pytest.raises(ValueError, match="already in the ledger"):
                    place_application(state, app, cfg)
                assert state.snapshot() == before and state.validate() == []
                continue
            out = place_application(state, app, cfg)
            assert state.validate() == []
            if not out.ok:
                assert state.snapshot() == before
                continue
            check_reserved_paths(state, app)

    @settings(max_examples=300, deadline=None)
    @given(ledger_runs())
    def test_unified_leaves_no_edge_unreserved(self, run):
        # UNIFIED reserves only the newest VM's edges; a full scan finds nothing left
        t, _, apps = run
        state = PlacementState(t)
        for app in apps:
            if app.id not in state.apps and place_application(state, app, UNIFIED).ok:
                before = state.snapshot()
                reserve_traffic(state, app)
                assert state.snapshot() == before

    @settings(max_examples=300, deadline=None)
    @given(ledger_runs())
    def test_shared_counts_rank_as_fresh_counts_do(self, run):
        # within one attempt an untried reach's count cannot change, so every
        # ranking with the attempt's map picks what a fresh ranking picks
        t, _, apps = run
        sibling = placement.best_sibling_reach

        def checked(state, reaches, tried, hosting, req, counts):
            got = sibling(state, reaches, tried, hosting, req, counts)
            assert got == sibling(state, reaches, tried, hosting, req, {})
            for r in reaches:
                if r.id not in tried and r.id in counts:
                    assert counts[r.id] == placeable_in_reach(state, r, req)
            return got

        with pytest.MonkeyPatch.context() as m:
            m.setattr(placement, "best_sibling_reach", checked)
            state = PlacementState(t)
            for app in apps:
                if app.id not in state.apps:
                    place_application(state, app, UNIFIED)


def _ledger(state):
    """Every table an attempt writes, in insertion order, floats by repr."""
    return ([(a, list(placed.items())) for a, placed in state.assignments.items()],
            [(a, [(k, path, repr(bw)) for k, (path, bw) in routed.items()])
             for a, routed in state.reservations.items()],
            list(state.host_vms.items()),
            [(h, repr(f)) for h, f in state.host_free.items()],
            [(lid, repr(f)) for lid, f in state.link_free.items()])


def _unified_against_reference(monkeypatch, t, apps):
    """Place the apps with UNIFIED and with oracle.reference_unified on two
    states of t, asserting after each attempt that the outcomes and ledgers
    are the same. Returns the spills (sibling reaches taken after an app's
    first) and the per-VM steps rolled back, counted in the UNIFIED run."""
    sibling, rollback = placement.best_sibling_reach, PlacementState._rollback
    seen = {"spills": 0, "rollbacks": 0}

    def counted_sibling(state, reaches, tried, hosting, req, counts):
        got = sibling(state, reaches, tried, hosting, req, counts)
        seen["spills"] += bool(tried) and got is not None
        return got

    def counted_rollback(self, mark):
        seen["rollbacks"] += mark > 0  # the attempt's own rollback is to 0
        return rollback(self, mark)

    states = PlacementState(t), PlacementState(t)
    for app in apps:
        if app.id in states[0].apps:
            continue
        with monkeypatch.context() as m:
            m.setattr(placement, "best_sibling_reach", counted_sibling)
            m.setattr(PlacementState, "_rollback", counted_rollback)
            got = place_application(states[0], app, UNIFIED)
        with monkeypatch.context() as m:
            m.setitem(placement._SCHEME_BODIES, "UNIFIED", reference_unified)
            want = place_application(states[1], app, UNIFIED)
        assert got == want, app.id
        assert _ledger(states[0]) == _ledger(states[1]), app.id
    return seen


class TestUnifiedReference:
    """UNIFIED against its form before it set its gains from the traffic
    rows and counted its reaches in one pass (oracle.reference_unified)."""

    @settings(max_examples=300, deadline=None)
    @given(ledger_runs())
    def test_every_attempt_matches_the_reference(self, run):
        t, _, apps = run
        with pytest.MonkeyPatch.context() as m:
            seen = _unified_against_reference(m, t, apps)
        for name, n in seen.items():
            event(f"{name}: {'some' if n else 'none'}")

    @pytest.mark.parametrize("seed", [0, 1])
    def test_overloaded_pools_match_the_reference(self, monkeypatch, seed):
        # 128 category-3 apps on the CLOS: apps spill to sibling reaches; a
        # VM's step rolls back only on the tight uplinks of ledger_runs
        seen = _unified_against_reference(monkeypatch, category_topology(3),
                                          generate_workload(category_spec(3, 128, seed)))
        assert seen["spills"] > 0

    @settings(max_examples=300, deadline=None)
    @given(ledger_runs(), st.data())
    def test_every_pick_reads_the_reference_gains(self, run, data):
        # bandwidths of 0.0 and -0.0, which validation admits, and sums that
        # round; the gains are compared by repr, so a sign of zero counts
        t, _, apps = run
        bws = st.sampled_from([0.0, -0.0, 0.1, 0.2, 0.3, 1e-17])
        apps = [Application(id=a.id, vms=a.vms, traffic={e: data.draw(bws) for e in a.traffic})
                for a in apps]
        state, reach_of, pick = PlacementState(t), {}, placement._pick

        def packing(state, vm, reach):
            reach_of["now"] = reach
            return bal_pack(state, vm, reach)

        def checked(unplaced, gain, sign):
            in_reach = set() if sign == 1 else {
                v for v in app.vm_ids() if v not in unplaced
                and state.assignments[app.id].get(v) in reach_of["now"].hosts}
            assert {v: repr(gain[v]) for v in unplaced} == {
                v: repr(reference_reach_gain(app, v, in_reach, unplaced)) for v in unplaced}
            return pick(unplaced, gain, sign)

        with pytest.MonkeyPatch.context() as m:
            m.setattr(placement, "bal_pack", packing)
            m.setattr(placement, "_pick", checked)
            for app in apps:
                if app.id not in state.apps:
                    place_application(state, app, UNIFIED)

    @settings(max_examples=300, deadline=None)
    @given(ledger_runs(), st.data())
    def test_one_pass_counts_equal_the_per_reach_counts(self, run, data):
        t, cfg, apps = run
        state = PlacementState(t)
        for app in apps:
            if app.id not in state.apps:
                place_application(state, app, cfg)
        share = st.sampled_from([0.0, 0.1, 0.25, 0.5])
        req = MultiRequest(cpu=data.draw(share), mem=data.draw(share), nw=data.draw(share))
        reaches = data.draw(st.permutations(t.reaches))[:data.draw(st.integers(0, len(t.reaches)))]
        assert placeable_in_reaches(state, reaches, req) == [
            placeable_in_reach(state, r, req) for r in reaches]


def _netw_rebuilding_units(state, app, config, reaches):
    """NETW with its former scan, kept as the reference: every attempt
    rebuilds its unit list, each host and then every switch's subtree in
    (level, id) order, the subtrees switches share included once per switch."""
    t = state.topology
    n_total = len(app.vms)
    bw = sum(app.total_traffic(v) for v in app.vm_ids()) / n_total
    slots = config.netw_slots_per_host
    used = Counter(h for placed in state.assignments.values() for h in placed.values())
    units = [(h,) for h in t.host_ids]
    units += [t.hosts_below[s.id] for s in sorted(t.switches.values(),
                                                  key=lambda s: (s.level, s.id))]
    last_failure = f"no subtree offers {n_total} slots for app {app.id}"
    for unit_hosts in units:
        free_slots = {h: slots - used[h] for h in unit_hosts}
        if sum(max(0, f) for f in free_slots.values()) < n_total:
            continue
        counts = {}
        remaining = n_total
        for h in unit_hosts:
            if remaining == 0:
                break
            want = min(max(0, free_slots[h]), remaining)
            take = 0
            for m in range(want, 0, -1):
                if min(m, n_total - m) * bw <= state.link_free[t.host_ports[h][0]] + 1e-9:
                    take = m
                    break
            if take:
                counts[h] = take
                remaining -= take
        if remaining or not placement._hose_ok(t, state, counts, n_total, bw):
            continue
        mark = len(state._journal)
        try:
            vm_iter = iter(sorted(app.vms, key=lambda v: v.id))
            for host_id in unit_hosts:
                for _ in range(counts.get(host_id, 0)):
                    state.assign_vm(app.id, next(vm_iter), host_id)
            reserve_traffic(state, app)
        except CapacityError as exc:
            state._rollback(mark)
            last_failure = str(exc)
            continue
        return None
    return last_failure


def _netw_run(body, t, cfg, apps, schemes=None):
    """(ok, failure, state snapshot) after each NETW attempt with `body` as
    NETW's scheme body. App i is placed with schemes[i] when given, else
    with cfg's scheme; apps whose id the ledger already holds are skipped."""
    results = []
    with pytest.MonkeyPatch.context() as m:
        m.setitem(placement._SCHEME_BODIES, "NETW", body)
        state = PlacementState(t)
        for i, app in enumerate(apps):
            if app.id not in state.apps:
                scheme = cfg if schemes is None else replace(cfg, scheme=schemes[i])
                out = place_application(state, app, scheme)
                if scheme.scheme == "NETW":
                    results.append((out.ok, out.failure, state.snapshot()))
    return results


class TestNetwSubtrees:
    @pytest.mark.parametrize("name,units", [("tree64", 81), ("clos64-10g", 85)])
    def test_each_subtree_once(self, name, units):
        # clos64: 64 hosts, 16 edge racks, 4 pods (one per 4 aggregation
        # switches) and the whole fabric (one for the 4 cores)
        t = resolve_topology(name)
        assert len(t.subtrees) == len(set(t.subtrees)) == units
        assert t.subtrees[:len(t.host_ids)] == tuple((h,) for h in t.host_ids)
        assert set(t.subtrees[len(t.host_ids):]) == set(t.hosts_below.values())

    @settings(max_examples=200, deadline=None)
    @given(ledger_runs())
    def test_same_placements_as_rebuilding_the_units(self, run):
        # where duplicate subtrees are not adjacent in the old list, a
        # refusal may name a different subtree, so failure texts are not compared
        t, cfg, apps = run
        cfg = SchemeConfig(scheme="NETW", netw_slots_per_host=cfg.netw_slots_per_host)
        got = _netw_run(placement._place_netw, t, cfg, apps)
        want = _netw_run(_netw_rebuilding_units, t, cfg, apps)
        assert [(ok, snap) for ok, _, snap in got] == [(ok, snap) for ok, _, snap in want]

    @settings(max_examples=200, deadline=None)
    @given(ledger_runs(), st.data())
    def test_same_as_the_reference_when_other_schemes_fill_hosts(self, run, data):
        # UNIFIED and LOCAL ignore NETW's slots, so a host can hold more VMs
        # than slots and offer none (one or two slots make that common); on
        # these fabrics duplicate subtrees are adjacent in the reference's
        # list, so failure texts agree as well
        t, _, apps = run
        cfg = SchemeConfig(scheme="NETW", netw_slots_per_host=data.draw(st.integers(1, 2)))
        schemes = [data.draw(st.sampled_from(SCHEMES)) for _ in apps]
        got = _netw_run(placement._place_netw, t, cfg, apps, schemes)
        assert got == _netw_run(_netw_rebuilding_units, t, cfg, apps, schemes)

    @pytest.mark.parametrize("category", [1, 2, 3])
    def test_same_outcomes_on_the_category_fabrics(self, category):
        t = category_topology(category)
        apps = generate_workload(category_spec(category, 2 * category_eval_apps(category), 0))
        cfg = SchemeConfig(scheme="NETW", netw_slots_per_host=derive_netw_slots(t, apps))
        got = _netw_run(placement._place_netw, t, cfg, apps)
        assert got == _netw_run(_netw_rebuilding_units, t, cfg, apps)
        oks = [ok for ok, _, _ in got]
        assert any(oks) and not all(oks)


# frees at a VM's need, 1e-12 on either side of it, and at and past the _EPS edge
_FREE_OFFSETS = [0.0, 1e-12, -1e-12, -1e-9, -2e-9]


class TestNetwFillCheck:
    @settings(max_examples=300, deadline=None)
    @given(ledger_runs(), st.data())
    def test_refusal_is_the_written_fills_error(self, run, data):
        t, cfg, apps = run
        state = PlacementState(t)
        for app in apps[:-1]:
            if app.id not in state.apps:
                place_application(state, app, cfg)
        vms = sorted(apps[-1].vms, key=lambda v: v.id)
        unit = data.draw(st.sampled_from(t.subtrees))
        counts, remaining = {}, len(vms)
        for h in unit:
            take = data.draw(st.integers(0, remaining)) if h != unit[-1] else remaining
            if take:
                counts[h] = take
                remaining -= take
        start = 0
        for h in unit:
            n = counts.get(h, 0)
            if n and data.draw(st.booleans()):
                # free just covers (or not) the first k VMs' summed need
                k = data.draw(st.integers(1, n))
                need = [sum(getattr(v.demand, dim) for v in vms[start:start + k])
                        for dim in ("cpu", "mem", "nic")]
                free = state.host_free[h]
                state.host_free[h] = ResourceVector(*(
                    max(0.0, need[i] + data.draw(st.sampled_from(_FREE_OFFSETS)))
                    if data.draw(st.booleans()) else getattr(free, dim)
                    for i, dim in enumerate(("cpu", "mem", "nic"))))
            start += n
        got = placement._first_refusal(state, vms, counts)

        before = state.snapshot()
        want = None
        with state.transaction():  # never committed: the fill is undone
            state.register_app(Application(id="fill", vms=tuple(vms), traffic={}))
            vm_iter = iter(vms)
            try:
                for h in unit:
                    for _ in range(counts.get(h, 0)):
                        state.assign_vm("fill", next(vm_iter), h)
            except CapacityError as exc:
                want = str(exc)
            else:
                assert next(vm_iter, None) is None
        assert got == want
        assert state.snapshot() == before


class TestNetwHoseOneTor:
    @staticmethod
    def one_tor_counts(t, data):
        tor = data.draw(st.sampled_from(sorted({tor for _, tor in t.host_ports.values()})))
        hosts = [h for h in t.host_ids if t.host_ports[h][1] == tor]
        chosen = data.draw(st.lists(st.sampled_from(hosts), min_size=1, unique=True))
        return {h: data.draw(st.integers(1, 4)) for h in chosen}

    @settings(max_examples=200, deadline=None)
    @given(ledger_runs(), st.data())
    def test_hose_holds_on_one_tor_of_a_ledger_fabric(self, run, data):
        t, cfg, apps = run
        state = PlacementState(t)
        for app in apps:
            if app.id not in state.apps:
                place_application(state, app, cfg)
        counts = self.one_tor_counts(t, data)
        bw = data.draw(st.sampled_from([0.0, 0.1, 0.5, 3.0]))
        assert placement._hose_ok(t, state, counts, sum(counts.values()), bw)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_hose_holds_on_one_tor_of_a_clos(self, data):
        t = build_clos(2, 2, 2, UNIT, 1.0, core_oversub=2.0)
        state = PlacementState(t)
        for lid in sorted(state.link_free):
            state.link_free[lid] = data.draw(st.sampled_from([0.0, 0.05, 0.5, 1.0]))
        counts = self.one_tor_counts(t, data)
        bw = data.draw(st.sampled_from([0.1, 0.5, 3.0]))
        assert placement._hose_ok(t, state, counts, sum(counts.values()), bw)

    def test_two_tors_under_a_thin_uplink_fail(self):
        # the skip's condition is not vacuous: the same check across TORs refuses
        t = idle_tree(num_tors=2, hosts_per_tor=2)
        state = PlacementState(t)
        state.link_free["t0-core"] = 0.1
        counts = {"h0": 1, "h2": 1}
        assert len({t.host_ports[h][1] for h in counts}) == 2
        assert not placement._hose_ok(t, state, counts, 2, 0.5)
        assert placement._hose_ok(t, state, {"h0": 1, "h1": 1}, 2, 0.5)


class TestFig1SchemeDivergence:
    """The three-scheme divergence on the two-host three-pair instance."""

    def test_oracle_certifies_feasible_plans(self):
        t, app = fig1_instance()
        assert len(self.valid_plans(t, app)) > 0

    def test_unified_finds_a_valid_plan(self):
        t, app = fig1_instance()
        state = PlacementState(t)
        out = place_application(state, app, UNIFIED)
        assert out.ok
        assert state.assignments[app.id] in [p for p, _ in self.valid_plans(t, app)]
        assert state.validate() == []

    def test_bandwidth_greedy_colocation_overdraws_a_host(self):
        t, app = fig1_instance()
        state = PlacementState(t)
        state.register_app(app)
        pairs = sorted(app.traffic.items(), key=lambda kv: -kv[1])
        with pytest.raises(CapacityError, match="host"):
            for (x, y), bw in pairs:
                target = None
                for host in state.topology.host_ids:
                    if state.host_free[host].nic >= 2 * bw:
                        target = host
                        break
                state.assign_vm(app.id, app.vm(x), target)
                state.assign_vm(app.id, app.vm(y), target)

    @staticmethod
    def valid_plans(t, app):
        plans = []
        ids = sorted(v.id for v in app.vms)
        for combo in itertools.product(sorted(t.hosts), repeat=len(ids)):
            assign = dict(zip(ids, combo))
            ok = True
            for host in t.hosts.values():
                total = [0.0, 0.0, 0.0]
                for v in ids:
                    if assign[v] == host.id:
                        d = app.vm(v).demand
                        total[0] += d.cpu
                        total[1] += d.mem
                        total[2] += d.nic
                if (total[0] > host.capacity.cpu or total[1] > host.capacity.mem
                        or total[2] > host.capacity.nic):
                    ok = False
            cross = sum(bw for (a, b), bw in app.traffic.items() if assign[a] != assign[b])
            if cross > min(l.capacity for l in t.links.values()):
                ok = False
            if ok:
                plans.append((assign, cross))
        return plans
