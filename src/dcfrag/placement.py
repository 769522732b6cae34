"""Placement state plus the UNIFIED, LOCAL and NETW placement schemes.

The state tracks per-host free resources (NIC as a demand budget: the sum of
the hosted VMs' declared NIC needs), per-link free bandwidth consumed by
routed edge reservations, and the VM assignments themselves. Every scheme
commits through the same guarded operations, so a successful placement always
leaves the state valid, and every failure rolls back to a snapshot.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import metrics
from .metrics import MultiRequest, placeable_in_reach
from .topology import Reach, ResourceVector, Topology, find_reaches
from .workload import Application, VM, bw_between, representative_request

_EPS = 1e-9

SCHEMES = ("UNIFIED", "LOCAL", "NETW")


class CapacityError(Exception):
    """A commit would overdraw a host dimension or a link."""

    def __init__(self, entity: str, entity_id: str, dimension: str,
                 need: float, free: float):
        self.entity = entity
        self.entity_id = entity_id
        self.dimension = dimension
        super().__init__(
            f"{entity} {entity_id} {dimension}: need {need:g}, free {free:g}")


@dataclass(frozen=True)
class SchemeConfig:
    scheme: str = "UNIFIED"
    balpack_headroom: float = 1.0          # fraction of capacity bal_pack may fill
    netw_slots_per_host: int | None = None  # derived from the workload when unset
    local_size_inflation: float = 1.0

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if not 0 < self.balpack_headroom <= 1:
            raise ValueError(f"balpack_headroom must be in (0, 1], got {self.balpack_headroom}")
        if self.netw_slots_per_host is not None and self.netw_slots_per_host < 1:
            raise ValueError("netw_slots_per_host must be >= 1")


@dataclass(frozen=True)
class PlacementPlan:
    app_id: str
    assignments: tuple  # (vm_id, host_id)
    reservations: tuple  # (vm_a, vm_b, path node ids, mbps)

    def to_records(self) -> dict:
        return {
            "assignments": [
                {"app_id": self.app_id, "vm_id": v, "host_id": h}
                for v, h in self.assignments
            ],
            "reservations": [
                {"app_id": self.app_id, "edge": [a, b], "path": list(nodes), "mbps": bw}
                for a, b, nodes, bw in self.reservations
            ],
        }


@dataclass(frozen=True)
class PlacementOutcome:
    ok: bool
    plan: PlacementPlan | None = None
    failure: str | None = None


class PlacementState:
    """Mutable reservation ledger over an immutable topology.

    A state belongs to one run at a time; clone() hands an independent copy
    to anything that wants to explore placements concurrently.
    """

    def __init__(self, topology: Topology):
        self.topology = topology
        self.host_free: dict[str, ResourceVector] = {
            h.id: h.free for h in topology.hosts.values()
        }
        self.link_free: dict[str, float] = {
            l.id: l.free for l in topology.links.values()
        }
        self.assignments: dict[tuple[str, str], str] = {}   # (app, vm) -> host
        self.vm_demand: dict[tuple[str, str], ResourceVector] = {}
        self.reservations: dict[tuple[str, str, str], tuple[tuple[str, ...], float]] = {}
        self.slots_used: dict[str, int] = {h.id: 0 for h in topology.hosts.values()}
        self.apps: dict[str, Application] = {}

    # -- snapshots ------------------------------------------------------------

    def snapshot(self):
        return (
            dict(self.host_free),
            dict(self.link_free),
            dict(self.assignments),
            dict(self.vm_demand),
            dict(self.reservations),
            dict(self.slots_used),
            dict(self.apps),
        )

    def restore(self, snap) -> None:
        (self.host_free, self.link_free, self.assignments,
         self.vm_demand, self.reservations, self.slots_used, self.apps) = (
            dict(part) for part in snap)

    def clone(self) -> "PlacementState":
        twin = PlacementState(self.topology)
        twin.restore(self.snapshot())
        return twin

    # -- guarded commits -------------------------------------------------------

    def register_app(self, app: Application) -> None:
        self.apps[app.id] = app

    def assign_vm(self, app_id: str, vm: VM, host_id: str) -> None:
        free = self.host_free[host_id]
        for dim in ("cpu", "mem", "nic"):
            need, avail = vm.demand.get(dim), free.get(dim)
            if need > avail + _EPS:
                raise CapacityError("host", host_id, dim, need, avail)
        self.host_free[host_id] = free - vm.demand
        self.assignments[(app_id, vm.id)] = host_id
        self.vm_demand[(app_id, vm.id)] = vm.demand

    def unassign_vm(self, app_id: str, vm_id: str) -> None:
        host_id = self.assignments.pop((app_id, vm_id))
        demand = self.vm_demand.pop((app_id, vm_id))
        self.host_free[host_id] = self.host_free[host_id] + demand

    def reserve_edge(self, app_id: str, vm_a: str, vm_b: str, bw: float) -> tuple[str, ...]:
        """Route one traffic edge on the deterministic widest-shortest path
        and reserve its bandwidth; returns the path's link ids."""
        host_a = self.assignments[(app_id, vm_a)]
        host_b = self.assignments[(app_id, vm_b)]
        if host_a == host_b:
            raise ValueError("co-located pairs carry no reservation")
        path = self.topology.route(host_a, host_b, self.link_free)
        for lid in path:
            if self.link_free[lid] + _EPS < bw:
                raise CapacityError("link", lid, "bw", bw, self.link_free[lid])
        for lid in path:
            self.link_free[lid] -= bw
        key = (app_id,) + tuple(sorted((vm_a, vm_b)))
        self.reservations[key] = (path, bw)
        return path

    def host_ids(self) -> list[str]:
        return sorted(self.host_free)

    # -- validation --------------------------------------------------------------

    def validate(self) -> list[str]:
        """Check every placement-state invariant; returns violation strings."""
        violations = []
        t = self.topology
        used: dict[str, ResourceVector] = {
            h: ResourceVector(0, 0, 0) for h in self.host_free}
        for key, host_id in self.assignments.items():
            used[host_id] = used[host_id] + self.vm_demand[key]
        for host_id, total in used.items():
            cap = t.hosts[host_id].capacity
            initial = t.hosts[host_id].free
            got = self.host_free[host_id]
            for dim in ("cpu", "mem", "nic"):
                if total.get(dim) > cap.get(dim) + 1e-6:
                    violations.append(
                        f"host {host_id} {dim}: demand {total.get(dim):g} exceeds "
                        f"capacity {cap.get(dim):g}")
                if abs(initial.get(dim) - total.get(dim) - got.get(dim)) > 1e-6:
                    violations.append(f"host {host_id}: {dim} ledger out of sync")

        reserved: dict[str, float] = {lid: 0.0 for lid in self.link_free}
        for path, bw in self.reservations.values():
            for lid in path:
                reserved[lid] += bw
        for lid, total in reserved.items():
            cap = t.links[lid].capacity
            if total > cap + 1e-6:
                violations.append(f"link {lid}: reserved {total:g} exceeds capacity {cap:g}")
            expect = t.links[lid].free - total
            if abs(expect - self.link_free[lid]) > 1e-6:
                violations.append(f"link {lid}: free-bandwidth ledger out of sync")

        for app_id, app in self.apps.items():
            placed = {v.id for v in app.vms if (app_id, v.id) in self.assignments}
            if placed != set(app.vm_ids()):
                continue  # rolled back or mid-flight; nothing to check
            for (x, y), bw in app.edges():
                key = (app_id, x, y)
                same_host = self.assignments[(app_id, x)] == self.assignments[(app_id, y)]
                if same_host and key in self.reservations:
                    violations.append(f"app {app_id}: co-located edge ({x}, {y}) is reserved")
                if not same_host and bw > 0 and key not in self.reservations:
                    violations.append(f"app {app_id}: cross-host edge ({x}, {y}) not reserved")
        return violations


# -- shared pieces --------------------------------------------------------------


def reserve_traffic(state: PlacementState, app: Application, vm_id: str) -> str | None:
    """Reserve the traffic of a just-placed VM toward its already-placed peers.

    On any link shortfall the VM's placement (assignment plus the edges
    reserved so far in this call) is rolled back and the failure is returned.
    """
    done: list[tuple[str, str]] = []
    for (x, y), bw in app.edges():
        if vm_id not in (x, y) or bw <= 0:
            continue
        peer = y if x == vm_id else x
        if (app.id, peer) not in state.assignments:
            continue
        if state.assignments[(app.id, x)] == state.assignments[(app.id, y)]:
            continue
        try:
            state.reserve_edge(app.id, x, y, bw)
            done.append((x, y))
        except CapacityError as exc:
            for px, py in done:
                path, got = state.reservations.pop((app.id, px, py))
                for lid in path:
                    state.link_free[lid] += got
            state.unassign_vm(app.id, vm_id)
            return str(exc)
    return None


def _plan_for(state: PlacementState, app: Application) -> PlacementPlan:
    assignments = tuple(
        (vm_id, host) for (app_id, vm_id), host in sorted(state.assignments.items())
        if app_id == app.id)
    t = state.topology
    reservations = []
    for (app_id, x, y), (path, bw) in sorted(state.reservations.items()):
        if app_id != app.id:
            continue
        host_x, host_y = state.assignments[(app_id, x)], state.assignments[(app_id, y)]
        # Topology.route orients every path from the smaller host id
        nodes = [min(host_x, host_y)]
        for lid in path:
            nodes.append(t.links[lid].other(nodes[-1]))
        if nodes[0] != host_x:
            nodes.reverse()
        reservations.append((x, y, tuple(nodes), bw))
    return PlacementPlan(app_id=app.id, assignments=assignments,
                         reservations=tuple(reservations))


# -- BAL_PACK stand-in -------------------------------------------------------------


def bal_pack(state: PlacementState, vm: VM, reach: Reach,
             config: SchemeConfig = SchemeConfig()) -> str | None:
    """Pick the reach host that stays most dimension-balanced after the VM.

    A host qualifies when every dimension (NIC against the VM's declared
    traffic budget) stays within headroom * capacity; among qualifiers the
    one minimizing max-min post-placement utilization wins, ties to the
    smallest host id. Returns None when nothing fits.
    """
    theta = config.balpack_headroom
    best: tuple[float, str] | None = None
    for host_id in reach.hosts:
        cap = state.topology.hosts[host_id].capacity
        free = state.host_free[host_id]
        utils = []
        ok = True
        for dim in ("cpu", "mem", "nic"):
            need = vm.demand.get(dim)
            used = cap.get(dim) - free.get(dim) + need
            if used > theta * cap.get(dim) + _EPS:
                ok = False
                break
            utils.append(used / cap.get(dim))
        if not ok:
            continue
        score = max(utils) - min(utils)
        if best is None or (score, host_id) < best:
            best = (score, host_id)
    return best[1] if best else None


# -- UNIFIED (reach-aware application placement) -------------------------------------


def _least_loaded_reach(state: PlacementState, reaches: list[Reach],
                        req: MultiRequest) -> Reach:
    ranked = sorted(reaches, key=lambda r: (-placeable_in_reach(state, r, req), r.id))
    return ranked[0]


def best_sibling_reach(state: PlacementState, reaches: list[Reach], tried: set[str],
                       app_hosts: set[str], req: MultiRequest) -> Reach | None:
    """Next reach to spill into: closest to the reaches already hosting the
    app, then most inter-reach bandwidth, then most placeable, then id."""
    candidates = [r for r in reaches if r.id not in tried]
    if not candidates:
        return None
    hosting = [r for r in reaches if app_hosts & set(r.hosts)]

    def key(r: Reach):
        if hosting:
            dist = min(metrics.reach_distance(state.topology, r, h) for h in hosting)
            bw = max(metrics.path_bandwidth(state.topology, r, h, state.link_free)
                     for h in hosting)
        else:
            dist, bw = 0.0, 0.0
        return (dist, -bw, -placeable_in_reach(state, r, req), r.id)

    return min(candidates, key=key)


def place_application_unified(state: PlacementState, app: Application,
                              config: SchemeConfig = SchemeConfig(),
                              reaches: list[Reach] | None = None) -> PlacementOutcome:
    """Reach-aware placement: pack the seed VM and its heaviest communicators
    into the least-loaded reach, spilling to the best sibling reach when the
    packer or a link reservation refuses; all-or-nothing on the whole app."""
    if not app.vms:
        return PlacementOutcome(ok=True, plan=PlacementPlan(app.id, (), ()))
    if reaches is None:
        reaches = find_reaches(state.topology)
    req = representative_request(app)
    snap = state.snapshot()
    state.register_app(app)

    reach = _least_loaded_reach(state, reaches, req)
    tried = {reach.id}
    unplaced = set(app.vm_ids())
    placed_hosts: set[str] = set()
    last_failure = "no reach could take the first VM"

    while True:
        reach_hosts = set(reach.hosts)
        vm_id = min(unplaced,
                    key=lambda v: (-bw_between(app, {v}, unplaced - {v}), v))
        while True:
            host = bal_pack(state, app.vm(vm_id), reach, config)
            if host is None:
                last_failure = f"reach {reach.id}: no host fits VM {vm_id}"
                break
            try:
                state.assign_vm(app.id, app.vm(vm_id), host)
            except CapacityError as exc:  # headroom <= capacity, but stay safe
                last_failure = str(exc)
                break
            failure = reserve_traffic(state, app, vm_id)
            if failure is not None:
                last_failure = failure
                break
            placed_hosts.add(host)
            unplaced.discard(vm_id)
            if not unplaced:
                return PlacementOutcome(ok=True, plan=_plan_for(state, app))
            in_reach = {v for v in app.vm_ids()
                        if state.assignments.get((app.id, v)) in reach_hosts}
            vm_id = min(unplaced,
                        key=lambda v: (-(bw_between(app, {v}, in_reach)
                                         - bw_between(app, {v}, unplaced - {v})), v))
        sibling = best_sibling_reach(state, reaches, tried, placed_hosts, req)
        if sibling is None:
            state.restore(snap)
            return PlacementOutcome(ok=False, failure=last_failure)
        reach = sibling
        tried.add(reach.id)


# -- LOCAL (dominant-dimension FFD) ---------------------------------------------------


def place_application_local(state: PlacementState, app: Application,
                            config: SchemeConfig = SchemeConfig(scheme="LOCAL"),
                            reaches: list[Reach] | None = None) -> PlacementOutcome:
    """First-fit decreasing on each VM's dominant normalized dimension.

    VMs place onto hosts in id order subject to a full resource fit; traffic
    is reserved afterward edge by edge, failing the whole app on any link
    shortfall.
    """
    if not app.vms:
        return PlacementOutcome(ok=True, plan=PlacementPlan(app.id, (), ()))
    ref = app.reference

    def size(v: VM) -> float:
        norm = v.demand.normalized(ref.host)
        return max(norm.cpu, norm.mem, norm.nic) * config.local_size_inflation

    snap = state.snapshot()
    state.register_app(app)
    hosts = state.host_ids()
    for vm in sorted(app.vms, key=lambda v: (-size(v), v.id)):
        target = None
        for host_id in hosts:
            if vm.demand.fits_within(state.host_free[host_id]):
                target = host_id
                break
        if target is None:
            state.restore(snap)
            return PlacementOutcome(ok=False, failure=f"no host fits VM {vm.id}")
        state.assign_vm(app.id, vm, target)

    for (x, y), bw in app.edges():
        if bw <= 0 or state.assignments[(app.id, x)] == state.assignments[(app.id, y)]:
            continue
        try:
            state.reserve_edge(app.id, x, y, bw)
        except CapacityError as exc:
            state.restore(snap)
            return PlacementOutcome(ok=False, failure=str(exc))
    return PlacementOutcome(ok=True, plan=_plan_for(state, app))


# -- NETW (virtual-cluster first-fit level scan) ----------------------------------------


def derive_netw_slots(topology: Topology, apps: list[Application]) -> int:
    """Default slot count: reference-host CPU over the workload's mean VM CPU."""
    vms = [v for a in apps for v in a.vms]
    if not vms:
        return 1
    mean_cpu = sum(v.demand.cpu for v in vms) / len(vms)
    if mean_cpu <= 0:
        return 1
    return max(1, int(topology.reference.host.cpu / mean_cpu))


def _closure_hosts(t: Topology, switch_id: str) -> list[str]:
    """Hosts reachable descending from a switch."""
    out = []
    frontier = [switch_id]
    seen = {switch_id}
    while frontier:
        node = frontier.pop()
        lvl = t.level_of(node)
        for peer, _ in t.neighbors(node):
            if peer in seen:
                continue
            if t.is_host(peer):
                seen.add(peer)
                out.append(peer)
            elif t.level_of(peer) == lvl - 1:
                seen.add(peer)
                frontier.append(peer)
    return sorted(out)


def _hose_ok(t: Topology, state: PlacementState, counts: dict[str, int],
             n_total: int, bw: float) -> bool:
    """Hose-model check: every cut (each host's uplink, each switch's
    downward closure) must carry min(m, N - m) * B within its free capacity."""
    for host_id, m in counts.items():
        if 0 < m < n_total:
            need = min(m, n_total - m) * bw
            if need > state.link_free[t.hosts[host_id].uplink] + _EPS:
                return False
    for s in t.switches.values():
        below = [h for h in _closure_hosts(t, s.id)]
        m = sum(counts.get(h, 0) for h in below)
        if 0 < m < n_total:
            up_free = sum(state.link_free[lid] for peer, lid in t.neighbors(s.id)
                          if not t.is_host(peer) and t.level_of(peer) > s.level)
            if min(m, n_total - m) * bw > up_free + _EPS:
                return False
    return True


def place_application_netw(state: PlacementState, app: Application,
                           config: SchemeConfig = SchemeConfig(scheme="NETW"),
                           reaches: list[Reach] | None = None) -> PlacementOutcome:
    """Virtual-cluster placement: slots only, scanned bottom-up.

    The app is a hose <N VMs, B = mean per-VM bandwidth>. Hosts are scanned
    first, then switch subtrees level by level; the first unit with enough
    free slots whose greedy fill passes the hose check takes the whole app.
    Actual demands still commit through the guarded state, so units that
    would overdraw a host or a link are skipped.
    """
    if config.netw_slots_per_host is None:
        raise ValueError("NETW needs netw_slots_per_host (see derive_netw_slots)")
    if not app.vms:
        return PlacementOutcome(ok=True, plan=PlacementPlan(app.id, (), ()))
    t = state.topology
    n_total = len(app.vms)
    bw = sum(app.total_traffic(v) for v in app.vm_ids()) / n_total
    slots = config.netw_slots_per_host

    units: list[list[str]] = [[h] for h in state.host_ids()]
    for level in sorted({s.level for s in t.switches.values()}):
        for sid in sorted(s.id for s in t.switches.values() if s.level == level):
            units.append(_closure_hosts(t, sid))

    last_failure = f"no subtree offers {n_total} slots for app {app.id}"
    for unit_hosts in units:
        free_slots = {h: slots - state.slots_used[h] for h in unit_hosts}
        if sum(max(0, f) for f in free_slots.values()) < n_total:
            continue
        counts: dict[str, int] = {}
        remaining = n_total
        for h in unit_hosts:
            if remaining == 0:
                break
            want = min(max(0, free_slots[h]), remaining)
            take = 0
            for m in range(want, 0, -1):
                need = min(m, n_total - m) * bw
                if need <= state.link_free[t.hosts[h].uplink] + _EPS:
                    take = m
                    break
            if take:
                counts[h] = take
                remaining -= take
        if remaining or not _hose_ok(t, state, counts, n_total, bw):
            continue

        snap = state.snapshot()
        state.register_app(app)
        try:
            vm_iter = iter(sorted(app.vms, key=lambda v: v.id))
            for host_id in unit_hosts:
                for _ in range(counts.get(host_id, 0)):
                    state.assign_vm(app.id, next(vm_iter), host_id)
                    state.slots_used[host_id] += 1
            for (x, y), edge_bw in app.edges():
                if edge_bw <= 0:
                    continue
                if state.assignments[(app.id, x)] == state.assignments[(app.id, y)]:
                    continue
                state.reserve_edge(app.id, x, y, edge_bw)
        except CapacityError as exc:
            last_failure = str(exc)
            state.restore(snap)
            continue
        return PlacementOutcome(ok=True, plan=_plan_for(state, app))
    return PlacementOutcome(ok=False, failure=last_failure)


# -- dispatcher ---------------------------------------------------------------------


def place_application(state: PlacementState, app: Application, config: SchemeConfig,
                      reaches: list[Reach] | None = None) -> PlacementOutcome:
    if config.scheme == "UNIFIED":
        return place_application_unified(state, app, config, reaches)
    if config.scheme == "LOCAL":
        return place_application_local(state, app, config, reaches)
    return place_application_netw(state, app, config, reaches)
