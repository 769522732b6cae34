import itertools

import pytest

from dcfrag.fixtures import UNIT, category_spec, fig1_instance, named_topology
from dcfrag.metrics import MultiRequest
from dcfrag.placement import (CapacityError, PlacementState, SchemeConfig, bal_pack,
                              best_sibling_reach, derive_netw_slots, place_application,
                              place_application_local, place_application_netw,
                              place_application_unified, reserve_traffic)
from dcfrag.topology import ResourceVector, build_tree, find_reaches
from dcfrag.workload import VM, Application, generate_workload

def idle_tree(num_tors=2, hosts_per_tor=2, link=1.0, oversub=2.0, cap=UNIT):
    return build_tree(num_tors, hosts_per_tor, cap, link, oversub)


def tree_state(**kwargs):
    t = idle_tree(**kwargs)
    return PlacementState(t), find_reaches(t)


def tree_app(demands, traffic, topology, app_id="app"):
    vms = tuple(VM(id=v, demand=ResourceVector(*d)) for v, d in sorted(demands.items()))
    from dcfrag.workload import Application
    return Application(id=app_id, vms=vms, traffic=traffic,
                       reference=topology.reference)


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

    def test_headroom_theta_bites_before_capacity(self):
        state, reaches = tree_state()
        vm = VM(id="v", demand=ResourceVector(0.5, 0.1, 0.1))
        assert bal_pack(state, vm, reaches[0]) is not None
        tight = SchemeConfig(balpack_headroom=0.4)
        assert bal_pack(state, vm, reaches[0], tight) is None


class TestReserveTraffic:
    def setup_app(self, traffic):
        state, reaches = tree_state()
        demands = {v: (0.1, 0.1, sum(bw for k, bw in traffic.items() if v in k))
                   for pair in traffic for v in pair}
        app = tree_app(demands, traffic, state.topology)
        state.register_app(app)
        return state, app

    def test_colocated_pair_uses_no_links(self):
        state, app = self.setup_app({("v1", "v2"): 0.3})
        state.assign_vm(app.id, app.vm("v1"), "h0")
        state.assign_vm(app.id, app.vm("v2"), "h0")
        assert reserve_traffic(state, app, "v2") is None
        assert not state.reservations
        assert all(state.link_free[l] == state.topology.links[l].free
                   for l in state.link_free)

    def test_cross_host_reservation_decrements_path(self):
        state, app = self.setup_app({("v1", "v2"): 0.3})
        state.assign_vm(app.id, app.vm("v1"), "h0")
        state.assign_vm(app.id, app.vm("v2"), "h1")
        assert reserve_traffic(state, app, "v2") is None
        assert state.link_free["h0-t0"] == pytest.approx(0.7)
        assert state.link_free["h1-t0"] == pytest.approx(0.7)

    def test_shortfall_rolls_back_the_vm(self):
        state, app = self.setup_app({("v1", "v2"): 0.3})
        state.link_free["h1-t0"] = 0.2
        state.assign_vm(app.id, app.vm("v1"), "h0")
        before_free = dict(state.link_free)
        state.assign_vm(app.id, app.vm("v2"), "h1")
        failure = reserve_traffic(state, app, "v2")
        assert failure is not None and "h1-t0" in failure
        assert (app.id, "v2") not in state.assignments
        assert state.link_free == before_free


class TestUnified:
    def test_single_vm_app_lands_in_least_loaded_reach(self):
        state, reaches = tree_state(num_tors=2)
        # load rack 0 so rack 1 is the least loaded
        for h in reaches[0].hosts:
            state.host_free[h] = ResourceVector(0.2, 0.2, 1.0)
        app = tree_app({"v1": (0.3, 0.3, 0.0)}, {}, state.topology)
        out = place_application_unified(state, app)
        assert out.ok
        ((_, host),) = out.plan.assignments
        assert host in reaches[1].hosts
        assert out.plan.reservations == ()

    def test_impossible_demand_fails_with_untouched_state(self):
        state, _ = tree_state()
        before = state.snapshot()
        demands = {f"v{i}": (0.9, 0.1, 0.0) for i in range(6)}
        app = tree_app(demands, {}, state.topology)
        out = place_application_unified(state, app)
        assert not out.ok
        assert state.snapshot() == before

    def test_seed_vm_is_an_argmax_of_pair_bandwidth(self):
        state, _ = tree_state(num_tors=2, hosts_per_tor=2)
        traffic = {("v1", "v2"): 0.4, ("v2", "v3"): 0.1}
        demands = {"v1": (0.1, 0.1, 0.4), "v2": (0.1, 0.1, 0.5), "v3": (0.1, 0.1, 0.1)}
        app = tree_app(demands, traffic, state.topology)
        out = place_application_unified(state, app)
        assert out.ok
        # v2 carries 0.5 total, the unique argmax; it must land on the first
        # host bal_pack offers in the chosen reach
        placed = dict(out.plan.assignments)
        assert placed["v2"] == "h0"

    def test_whole_app_in_one_reach_uses_no_uplinks(self):
        state, reaches = tree_state(num_tors=2, hosts_per_tor=2)
        traffic = {("v1", "v2"): 0.3}
        demands = {"v1": (0.2, 0.2, 0.3), "v2": (0.2, 0.2, 0.3)}
        app = tree_app(demands, traffic, state.topology)
        out = place_application_unified(state, app)
        assert out.ok
        hosts = {h for _, h in out.plan.assignments}
        assert hosts <= set(reaches[0].hosts) or hosts <= set(reaches[1].hosts)
        for tor_uplink in ("t0-core", "t1-core"):
            assert state.link_free[tor_uplink] == state.topology.links[tor_uplink].free

    def test_spills_to_sibling_reach_when_rack_full(self):
        state, reaches = tree_state(num_tors=2, hosts_per_tor=2)
        demands = {f"v{i}": (0.6, 0.1, 0.05) for i in range(4)}
        traffic = {("v0", "v1"): 0.05, ("v2", "v3"): 0.05}
        app = tree_app(demands, traffic, state.topology)
        out = place_application_unified(state, app)
        assert out.ok
        hosts = {h for _, h in out.plan.assignments}
        assert hosts & set(reaches[0].hosts) and hosts & set(reaches[1].hosts)
        assert not state.validate()

    def test_deterministic_plans(self):
        state_a, _ = tree_state()
        state_b, _ = tree_state()
        traffic = {("v1", "v2"): 0.2, ("v1", "v3"): 0.1}
        demands = {"v1": (0.3, 0.2, 0.3), "v2": (0.2, 0.3, 0.2), "v3": (0.1, 0.1, 0.1)}
        out_a = place_application_unified(state_a, tree_app(demands, traffic, state_a.topology))
        out_b = place_application_unified(state_b, tree_app(demands, traffic, state_b.topology))
        assert out_a.plan == out_b.plan

    def test_empty_app_trivially_ok(self):
        state, _ = tree_state()
        app = Application(id="empty", vms=(), traffic={}, reference=state.topology.reference)
        assert place_application_unified(state, app).ok


class TestBestSiblingReach:
    def test_remaining_sibling_returned_and_exhaustion_none(self):
        state, reaches = tree_state(num_tors=2)
        req = MultiRequest(cpu=0.1, mem=0.1, nw=0.1)
        sibling = best_sibling_reach(state, reaches, {reaches[0].id},
                                     {reaches[0].hosts[0]}, req)
        assert sibling == reaches[1]
        assert best_sibling_reach(state, reaches, {r.id for r in reaches},
                                  set(), req) is None

    def test_equal_distance_breaks_on_bandwidth(self):
        state, reaches = tree_state(num_tors=4, hosts_per_tor=2)
        req = MultiRequest(cpu=0.1, mem=0.1, nw=0.1)
        # app lives in r0; drain r1's uplink so r2 offers more bandwidth
        state.link_free["t1-core"] = 0.05
        sibling = best_sibling_reach(state, reaches, {reaches[0].id},
                                     {reaches[0].hosts[0]}, req)
        assert sibling == reaches[2]


class TestLocal:
    def test_first_fit_packs_one_host(self):
        state, _ = tree_state()
        demands = {"v1": (0.6, 0.1, 0.0), "v2": (0.3, 0.1, 0.0)}
        app = tree_app(demands, {}, state.topology)
        out = place_application_local(state, app)
        assert out.ok
        assert {h for _, h in out.plan.assignments} == {"h0"}

    def test_fig1_overdraws_the_link(self):
        t, app = fig1_instance()
        state = PlacementState(t)
        out = place_application_local(state, app)
        assert not out.ok
        assert "link" in out.failure
        assert not state.assignments and not state.validate()

    def test_empty_app_ok(self):
        state, _ = tree_state()
        app = Application(id="empty", vms=(), traffic={}, reference=state.topology.reference)
        assert place_application_local(state, app).ok

    def test_host_exhaustion_fails_and_rolls_back(self):
        state, _ = tree_state()
        before = state.snapshot()
        demands = {f"v{i}": (0.8, 0.1, 0.0) for i in range(5)}
        app = tree_app(demands, {}, state.topology)
        out = place_application_local(state, app)
        assert not out.ok and "no host fits" in out.failure
        assert state.snapshot() == before


class TestNetw:
    def cfg(self, slots):
        return SchemeConfig(scheme="NETW", netw_slots_per_host=slots)

    def test_small_app_colocates_with_zero_link_use(self):
        state, _ = tree_state()
        demands = {"v1": (0.1, 0.1, 0.05), "v2": (0.1, 0.1, 0.05)}
        app = tree_app(demands, {("v1", "v2"): 0.05}, state.topology)
        out = place_application_netw(state, app, self.cfg(slots=2))
        assert out.ok
        assert {h for _, h in out.plan.assignments} == {"h0"}
        assert not out.plan.reservations

    def test_rack_spanning_vc_passes_hose_check(self):
        state, _ = tree_state(num_tors=2, hosts_per_tor=2)
        demands = {f"v{i}": (0.1, 0.1, 0.3) for i in range(4)}
        traffic = {("v0", "v1"): 0.1, ("v0", "v2"): 0.1, ("v0", "v3"): 0.1,
                   ("v1", "v2"): 0.1, ("v1", "v3"): 0.1, ("v2", "v3"): 0.1}
        app = tree_app(demands, traffic, state.topology)
        out = place_application_netw(state, app, self.cfg(slots=2))
        assert out.ok
        hosts = {h for _, h in out.plan.assignments}
        assert hosts == {"h0", "h1"}  # whole rack, two slots each
        # hose check held pre-reservation: min(2, 2) * B per host uplink
        n, b = 4, sum(app.total_traffic(v) for v in app.vm_ids()) / 4
        for h in hosts:
            uplink = state.topology.hosts[h].uplink
            assert min(2, n - 2) * b <= state.topology.links[uplink].free
        assert not state.validate()

    def test_oversized_vc_fails(self):
        state, _ = tree_state()
        demands = {f"v{i}": (0.1, 0.1, 0.9) for i in range(6)}
        traffic = {(f"v{i}", f"v{j}"): 0.3 for i in range(6) for j in range(i + 1, 6)}
        app = tree_app(demands, traffic, state.topology)
        out = place_application_netw(state, app, self.cfg(slots=1))
        assert not out.ok

    def test_slots_required(self):
        state, _ = tree_state()
        app = tree_app({"v1": (0.1, 0.1, 0.0)}, {}, state.topology)
        with pytest.raises(ValueError, match="slots"):
            place_application_netw(state, app, SchemeConfig(scheme="NETW"))

    def test_derive_slots_from_workload_mean(self):
        t = idle_tree(cap=ResourceVector(4000, 8192, 10000), link=10000)
        app = tree_app({"v1": (400, 100, 0.0), "v2": (600, 100, 0.0)}, {}, t)
        assert derive_netw_slots(t, [app]) == 8  # 4000 / 500

    def test_slot_model_blind_to_cpu_fails_via_guard(self):
        # slots claim the host fits 4 VMs but cpu fits only 2: the reservation
        # guard refuses and the slot-based scheme cannot place the app
        state, _ = tree_state()
        before = state.snapshot()
        demands = {f"v{i}": (0.4, 0.1, 0.01) for i in range(4)}
        traffic = {("v0", "v1"): 0.01}
        app = tree_app(demands, traffic, state.topology)
        out = place_application_netw(state, app, self.cfg(slots=4))
        assert not out.ok and "cpu" in out.failure
        assert state.snapshot() == before


class TestStateValidate:
    def test_fresh_state_ok(self):
        state, _ = tree_state()
        assert state.validate() == []

    def test_corrupted_link_reservation_detected(self):
        state, _ = tree_state()
        state.reservations[("ghost", "a", "b")] = (("h0-t0",), 5.0)
        report = state.validate()
        assert any("h0-t0" in line for line in report)

    def test_capacity_error_names_entity_and_dimension(self):
        state, _ = tree_state()
        app = tree_app({"v1": (0.9, 0.1, 0.0), "v2": (0.9, 0.1, 0.0)}, {}, state.topology)
        state.register_app(app)
        state.assign_vm(app.id, app.vm("v1"), "h0")
        with pytest.raises(CapacityError, match="host h0 cpu"):
            state.assign_vm(app.id, app.vm("v2"), "h0")

    def test_states_validate_after_every_scheme(self):
        for scheme in ("UNIFIED", "LOCAL", "NETW"):
            state, _ = tree_state()
            cfg = SchemeConfig(scheme=scheme, netw_slots_per_host=4)
            demands = {"v1": (0.2, 0.2, 0.1), "v2": (0.2, 0.2, 0.1)}
            app = tree_app(demands, {("v1", "v2"): 0.1}, state.topology)
            out = place_application(state, app, cfg)
            assert out.ok, scheme
            assert state.validate() == [], scheme


class TestPlanPaths:
    def test_reservation_paths_run_from_host_x_to_host_y(self):
        t = named_topology("tree64")
        apps = generate_workload(category_spec(1, 24, 0))
        slots = derive_netw_slots(t, apps)
        reversed_edges = 0
        for scheme in ("UNIFIED", "LOCAL", "NETW"):
            state = PlacementState(t)
            reaches = find_reaches(t)
            cfg = SchemeConfig(scheme=scheme, netw_slots_per_host=slots)
            for app in apps:
                out = place_application(state, app, cfg, reaches)
                if not out.ok:
                    continue
                hosts = dict(out.plan.assignments)
                for x, y, nodes, _ in out.plan.reservations:
                    assert (nodes[0], nodes[-1]) == (hosts[x], hosts[y]), (scheme, x, y)
                    for a, b in zip(nodes, nodes[1:]):
                        assert any(l.other(a) == b for l in t.links.values()
                                   if a in (l.a, l.b)), (scheme, nodes)
                    reversed_edges += hosts[x] > hosts[y]
        assert reversed_edges > 0


class TestFig1SchemeDivergence:
    """The three-scheme divergence on the two-host three-pair instance."""

    def test_oracle_certifies_feasible_plans(self):
        t, app = fig1_instance()
        assert len(self.valid_plans(t, app)) > 0

    def test_unified_finds_a_valid_plan(self):
        t, app = fig1_instance()
        state = PlacementState(t)
        out = place_application_unified(state, app)
        assert out.ok
        assert dict(out.plan.assignments) in [p for p, _ in self.valid_plans(t, app)]
        assert state.validate() == []

    def test_bandwidth_greedy_colocation_overdraws_a_host(self):
        t, app = fig1_instance()
        state = PlacementState(t)
        state.register_app(app)
        pairs = sorted(app.traffic.items(), key=lambda kv: -kv[1])
        with pytest.raises(CapacityError, match="host"):
            for (x, y), bw in pairs:
                target = None
                for host in state.host_ids():
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
