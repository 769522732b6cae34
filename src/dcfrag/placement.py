"""Placement state plus the UNIFIED, LOCAL and NETW placement schemes.

The state tracks per-host free resources (NIC as a demand budget: the sum of
the hosted VMs' declared NIC needs), per-link free bandwidth consumed by
routed edge reservations, and, per app, each VM's host and each routed
edge's reservation: the one record of where an app sits, which the schemes
read back as they place.
place_application is the one entry point: it opens the attempt's
transaction, registers the app and commits or rolls back, so a scheme only
chooses hosts and reserves their traffic through reserve_traffic. A
successful placement always leaves the state valid, and every failure puts
back the exact values it replaced.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass

from .metrics import MultiRequest, _paths_bandwidth, placeable_in_reaches
from .topology import _EPS, Reach, ResourceVector, Topology, _vector
from .workload import Application, VM, representative_request

_ABSENT = object()  # journal marker: the key was not in the table

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
    netw_slots_per_host: int | None = None  # derived from the workload when unset

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.netw_slots_per_host is not None and self.netw_slots_per_host < 1:
            raise ValueError("netw_slots_per_host must be >= 1")


@dataclass(frozen=True)
class PlacementOutcome:
    """Whether an attempt placed the app; the placement itself is in the
    state's assignments and reservations."""
    ok: bool
    failure: str | None = None


_PLACED = PlacementOutcome(ok=True)  # frozen, so every placed attempt shares it


def _copied(host_free, link_free, assignments, host_vms, reservations, apps):
    """Copies of the ledger's tables, each app's assignment and reservation
    maps included, so a copy and its source share no map."""
    return (dict(host_free), dict(link_free), {a: dict(m) for a, m in assignments.items()},
            dict(host_vms), {a: dict(m) for a, m in reservations.items()}, dict(apps))


class PlacementState:
    """Mutable reservation ledger over an immutable topology.

    A state belongs to one run at a time. While a transaction is open, every
    ledger write first journals the value it replaces.
    """

    def __init__(self, topology: Topology):
        self.topology = topology
        self.host_free: dict[str, ResourceVector] = {
            h.id: h.free for h in topology.hosts.values()
        }
        self.link_free: dict[str, float] = {
            l.id: l.free for l in topology.links.values()
        }
        self.assignments: dict[str, dict[str, str]] = {}  # app -> {vm: host}
        self.host_vms: dict[str, int] = dict.fromkeys(topology.hosts, 0)  # VMs per host
        # app -> {(x, y): (link path, bw)}, keyed by the edge as app.edges() holds it
        self.reservations: dict[str, dict[tuple[str, str], tuple[tuple[str, ...], float]]] = {}
        self.apps: dict[str, Application] = {}
        self._journal: list | None = None
        # metrics' per-reach results and reach-pair order, keyed by the free
        # values they were read from, so they need no invalidation (see
        # metrics._reach_pairings and metrics._pair_order)
        self.reach_memo: dict = {}

    # -- snapshots and transactions -------------------------------------------

    def snapshot(self):
        return _copied(self.host_free, self.link_free, self.assignments,
                       self.host_vms, self.reservations, self.apps)

    def restore(self, snap) -> None:
        """Replace the tables by copies of a snapshot's, which then shares
        no map with the state. Not allowed inside a transaction: its rollback
        would write into the replaced tables."""
        if self._journal is not None:
            raise RuntimeError("restore() inside an open transaction, which could "
                               "not undo it")
        (self.host_free, self.link_free, self.assignments, self.host_vms,
         self.reservations, self.apps) = _copied(*snap)

    def _rollback(self, mark: int) -> None:
        """Put back every value journaled past `mark`, newest first, and drop
        those entries."""
        journal = self._journal
        for table, key, old in reversed(journal[mark:]):
            if old is _ABSENT:
                del table[key]
            else:
                table[key] = old
        del journal[mark:]

    @contextmanager
    def transaction(self):
        """All-or-nothing block; yields its commit function.

        A block left without calling commit() (by return, break or exception)
        puts back every value it replaced, newest first. Blocks do not nest:
        opening one inside another raises RuntimeError. To undo part of the
        block's work, record a mark, len(state._journal), and call
        _rollback(mark), as UNIFIED's per-VM step and NETW's units do.
        """
        if self._journal is not None:
            raise RuntimeError("transaction() inside an open transaction; "
                               "roll back to a journal mark instead")
        self._journal, committed = [], False

        def commit() -> None:
            nonlocal committed
            committed = True

        try:
            yield commit
        finally:
            if not committed:
                self._rollback(0)
            self._journal = None

    # -- guarded commits -------------------------------------------------------

    def register_app(self, app: Application) -> None:
        """Enter the app in the ledger with empty assignment and reservation
        maps, keyed by its id, so an id the ledger already holds is refused.
        Rolling back the registration removes all three entries."""
        if app.id in self.apps:
            raise ValueError(f"app id {app.id!r} is already in the ledger")
        if self._journal is not None:
            self._journal.extend(((self.apps, app.id, _ABSENT),
                                  (self.assignments, app.id, _ABSENT),
                                  (self.reservations, app.id, _ABSENT)))
        self.apps[app.id] = app
        self.assignments[app.id] = {}
        self.reservations[app.id] = {}

    def assign_vm(self, app_id: str, vm: VM, host_id: str) -> None:
        """Put the VM of the registered app on the host, or raise
        CapacityError naming the first dimension short. The host's free
        resources, the app's assignments[vm] and the host's VM count are
        written and journaled in one step."""
        free, need = self.host_free[host_id], vm.demand
        if need.cpu > free.cpu + _EPS:
            raise CapacityError("host", host_id, "cpu", need.cpu, free.cpu)
        if need.mem > free.mem + _EPS:
            raise CapacityError("host", host_id, "mem", need.mem, free.mem)
        if need.nic > free.nic + _EPS:
            raise CapacityError("host", host_id, "nic", need.nic, free.nic)
        host_free, placed, host_vms = self.host_free, self.assignments[app_id], self.host_vms
        vm_id, count, journal = vm.id, host_vms[host_id], self._journal
        if journal is not None:
            journal.extend(((host_free, host_id, free),
                            (placed, vm_id, placed.get(vm_id, _ABSENT)),
                            (host_vms, host_id, count)))
        host_free[host_id] = _vector(free.cpu - need.cpu, free.mem - need.mem,
                                     free.nic - need.nic)
        placed[vm_id] = host_id
        host_vms[host_id] = count + 1

    # -- validation --------------------------------------------------------------

    def validate(self) -> list[str]:
        """Check every placement-state invariant; returns violation strings."""
        violations = []
        t = self.topology
        used: dict[str, ResourceVector] = {
            h: ResourceVector(0, 0, 0) for h in self.host_free}
        counts: Counter[str] = Counter()
        for app_id, placed in self.assignments.items():
            app = self.apps[app_id]
            for vm_id, host_id in placed.items():
                used[host_id] = used[host_id] + app.vm(vm_id).demand
            counts.update(placed.values())
        for host_id, total in used.items():
            if self.host_vms[host_id] != counts[host_id]:
                violations.append(f"host {host_id}: VM count out of sync")
            cap = t.hosts[host_id].capacity
            initial = t.hosts[host_id].free
            got = self.host_free[host_id]
            for dim in ("cpu", "mem", "nic"):
                demand, limit = getattr(total, dim), getattr(cap, dim)
                if demand > limit + 1e-6:
                    violations.append(
                        f"host {host_id} {dim}: demand {demand:g} exceeds capacity {limit:g}")
                if abs(getattr(initial, dim) - demand - getattr(got, dim)) > 1e-6:
                    violations.append(f"host {host_id}: {dim} ledger out of sync")

        reserved: dict[str, float] = {lid: 0.0 for lid in self.link_free}
        for routed in self.reservations.values():
            for path, bw in routed.values():
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
            placed, routed = self.assignments[app_id], self.reservations[app_id]
            if any(v.id not in placed for v in app.vms):
                continue  # mid-flight; nothing to check
            for key, bw in app.edges():
                x, y = key
                same_host = placed[x] == placed[y]
                if same_host and key in routed:
                    violations.append(f"app {app_id}: co-located edge ({x}, {y}) is reserved")
                if not same_host and bw > 0 and key not in routed:
                    violations.append(f"app {app_id}: cross-host edge ({x}, {y}) not reserved")
        return violations


# -- shared pieces --------------------------------------------------------------


def reserve_traffic(state: PlacementState, app: Application, edges=None) -> None:
    """Reserve, in order, every edge of `edges` (default app.edges()) of the
    registered app with bandwidth whose two VMs sit on different hosts and
    which holds no reservation yet.

    Hosts are read from the ledger's state.assignments[app.id]; a VM missing
    from it is unplaced. A reservation is keyed by the edge as given, the
    key validate() looks up. Each edge is routed, checked, written and
    journaled in one pass: the route's own bottleneck decides, and only a
    shortfall looks for the first short link, the one the CapacityError
    names. The caller's transaction undoes the edges reserved so far.
    """
    routed, host = state.reservations[app.id], state.assignments[app.id].get
    link_free, journal, route = state.link_free, state._journal, state.topology.route
    for key, bw in app.edges() if edges is None else edges:
        if bw <= 0:
            continue
        x, y = key
        host_x = host(x)
        host_y = host(y)
        if host_x is None or host_y is None or host_x == host_y:
            continue
        if key in routed:
            continue
        path, bottleneck = route(host_x, host_y, link_free)
        if bottleneck + _EPS < bw:
            lid = next(lid for lid in path if link_free[lid] + _EPS < bw)
            raise CapacityError("link", lid, "bw", bw, link_free[lid])
        for lid in path:
            free = link_free[lid]
            if journal is not None:
                journal.append((link_free, lid, free))
            link_free[lid] = free - bw
        if journal is not None:
            journal.append((routed, key, _ABSENT))
        routed[key] = (path, bw)


# -- BAL_PACK stand-in -------------------------------------------------------------


def bal_pack(state: PlacementState, vm: VM, reach: Reach) -> str | None:
    """Pick the reach host that stays most dimension-balanced after the VM.

    A host qualifies by assign_vm's rule: every dimension's need (NIC as
    the VM's declared traffic budget) is within the host's free amount.
    Among qualifiers the one minimizing max-min post-placement utilization
    wins, ties to the smallest host id. Returns None when nothing fits.
    """
    best = best_score = None
    caps, host_free, need = state.topology.host_capacity, state.host_free, vm.demand
    n_cpu, n_mem, n_nic = need.cpu, need.mem, need.nic
    for host_id in reach.hosts:
        free = host_free[host_id]
        f_cpu, f_mem, f_nic = free.cpu, free.mem, free.nic
        if n_cpu > f_cpu + _EPS or n_mem > f_mem + _EPS or n_nic > f_nic + _EPS:
            continue
        c_cpu, c_mem, c_nic = caps[host_id]
        u_cpu = (c_cpu - f_cpu + n_cpu) / c_cpu
        u_mem = (c_mem - f_mem + n_mem) / c_mem
        u_nic = (c_nic - f_nic + n_nic) / c_nic
        if u_cpu <= u_mem:
            lo, hi = u_cpu, u_mem
        else:
            lo, hi = u_mem, u_cpu
        if u_nic < lo:
            lo = u_nic
        elif u_nic > hi:
            hi = u_nic
        score = hi - lo
        if best is None or score < best_score or (score == best_score and host_id < best):
            best, best_score = host_id, score
    return best


# -- UNIFIED (reach-aware application placement) -------------------------------------


def best_sibling_reach(state: PlacementState, reaches: tuple[Reach, ...], tried: set[str],
                       hosting: list[Reach], req: MultiRequest,
                       counts: dict[str, int]) -> Reach | None:
    """UNIFIED's one reach ranking, for its first reach and every spill: the
    untried reach closest to the `hosting` reaches (those holding the app's
    VMs), then with most inter-reach bandwidth to them, then most placeable,
    then smallest id, compared as a string ("r10" < "r2"). With no hosting
    reach, as at the first pick, distance and bandwidth tie for every reach.
    None when every reach was tried.

    Only the reaches that tie on (distance, bandwidth) are counted, all in
    one placeable_in_reaches call. `counts` maps reach id -> count; a count
    found there is used as is and a new one is added, so within one attempt,
    where an untried reach's count cannot change, each reach is counted
    once."""
    candidates = [r for r in reaches if r.id not in tried]
    if not candidates:
        return None
    if hosting:
        t, link_free = state.topology, state.link_free
        ranked = []
        for r in candidates:
            paths = [t.reach_paths(r, h) for h in hosting]
            dist = min(len(p[0]) for p in paths)  # a pair's distance: its first path's length
            bw = max(_paths_bandwidth(p, link_free, t.reference.link) for p in paths)
            ranked.append(((dist, -bw), r))
        nearest = min(key for key, _ in ranked)
        candidates = [r for key, r in ranked if key == nearest]

    new = [r for r in candidates if r.id not in counts]
    if new:
        counts.update(zip((r.id for r in new), placeable_in_reaches(state, new, req)))
    return min(candidates, key=lambda r: (-counts[r.id], r.id))


def _set_gains(gain: dict, rows: dict, vms, in_reach: set, unplaced: set) -> None:
    """gain[v] for each unplaced VM v of vms: its traffic to in_reach less
    its traffic to unplaced, both summed in the order of its traffic row
    (rows[v], absent without traffic), in one pass over it."""
    for v in vms:
        if v not in unplaced:
            continue
        got = lost = 0
        row = rows.get(v)
        if row:
            for peer, bw in row.items():
                if peer in in_reach:
                    got += bw
                elif peer in unplaced:  # a VM leaves unplaced before it joins in_reach
                    lost += bw
        gain[v] = got - lost


def _pick(unplaced: set, gain: dict, sign: int) -> str:
    """min(unplaced, key=lambda v: (sign * gain[v], v)) in one pass: ties go to
    the smallest id, whatever order the set iterates in."""
    best = best_g = None
    for v in unplaced:
        g = sign * gain[v]
        if best is None or g < best_g or (g == best_g and v < best):
            best, best_g = v, g
    return best


def _place_unified(state: PlacementState, app: Application, config: SchemeConfig,
                   reaches: tuple[Reach, ...]) -> str | None:
    """Reach-aware placement: pack the seed VM and its heaviest communicators
    into the least-loaded reach, spilling to the best sibling reach when the
    packer or a link reservation refuses.

    In a reach the first VM is the one with most traffic to the unplaced VMs,
    and each next one the VM of largest gain: its traffic to the VMs placed in
    this reach less its traffic to the unplaced. A placement changes only its
    peers' gains, so only theirs are recomputed. best_sibling_reach picks
    every reach, the first one included.

    The rankings share one map of reach counts. An attempt writes only to
    hosts of reaches it has tried, and a reserved path touches host uplinks
    only where the app's VMs sit, so an untried reach's count holds for the
    whole attempt.

    A VM's step (assign, then reserve its edges) runs inside the attempt's
    transaction: it marks the journal first and rolls back to the mark when
    a host or link refuses, which takes the VM out of the ledger's
    assignments again.
    """
    req = representative_request(app, state.topology.reference)
    tried: set[str] = set()
    hosting: list[Reach] = []  # the reaches holding a VM, in the order they took one
    counts: dict[str, int] = {}  # reach id -> placeable count, for untried reaches
    unplaced = set(app.vm_ids())
    rows = app._peers
    last_failure = "no reach could take the first VM"

    while (reach := best_sibling_reach(state, reaches, tried, hosting, req,
                                       counts)) is not None:
        tried.add(reach.id)
        in_reach: set[str] = set()  # an untried reach holds none of the app's VMs
        # with in_reach empty a gain is minus the traffic to the unplaced
        gain: dict[str, float] = {}
        _set_gains(gain, rows, unplaced, in_reach, unplaced)
        vm_id = _pick(unplaced, gain, 1)
        while True:
            vm = app.vm(vm_id)
            host = bal_pack(state, vm, reach)
            if host is None:
                last_failure = f"reach {reach.id}: no host fits VM {vm_id}"
                break
            mark = len(state._journal)
            try:
                state.assign_vm(app.id, vm, host)
                # every edge between VMs placed before is reserved
                reserve_traffic(state, app, app.vm_edges(vm_id))
            except CapacityError as exc:
                state._rollback(mark)
                last_failure = str(exc)
                break
            if not in_reach:
                hosting.append(reach)
            unplaced.discard(vm_id)
            if not unplaced:
                return None
            in_reach.add(vm_id)
            del gain[vm_id]
            _set_gains(gain, rows, rows.get(vm_id, ()), in_reach, unplaced)
            vm_id = _pick(unplaced, gain, -1)
    return last_failure


# -- LOCAL (dominant-dimension FFD) ---------------------------------------------------


def _place_local(state: PlacementState, app: Application, config: SchemeConfig,
                 reaches: tuple[Reach, ...]) -> str | None:
    """First-fit decreasing on each VM's dominant normalized dimension.

    VMs place onto hosts in id order subject to a full resource fit; traffic
    is reserved afterward, failing the whole app on any link shortfall.

    Only hosts that cover the app's smallest need in every dimension, by
    assign_vm's rule, are scanned: every VM needs at least that much, and
    the attempt only lowers frees, so a dropped host would fit no VM of it.
    The kept hosts stay in id order, so each VM gets the same first host.
    """
    ref = state.topology.reference.host
    r_cpu, r_mem, r_nic = ref.cpu, ref.mem, ref.nic

    def size(v: VM) -> float:
        need = v.demand
        s, m, n = need.cpu / r_cpu, need.mem / r_mem, need.nic / r_nic
        s = m if m > s else s  # max(s, m, n), keeping the first of tied values
        return n if n > s else s

    need = app.vms[0].demand
    lo_cpu, lo_mem, lo_nic = need.cpu, need.mem, need.nic  # the smallest need per dimension
    for vm in app.vms:
        need = vm.demand
        if need.cpu < lo_cpu:
            lo_cpu = need.cpu
        if need.mem < lo_mem:
            lo_mem = need.mem
        if need.nic < lo_nic:
            lo_nic = need.nic
    host_free, hosts = state.host_free, []
    for h in state.topology.host_ids:
        free = host_free[h]
        if lo_cpu <= free.cpu + _EPS and lo_mem <= free.mem + _EPS and lo_nic <= free.nic + _EPS:
            hosts.append(h)
    for vm in sorted(app.vms, key=lambda v: (-size(v), v.id)):
        need = vm.demand
        n_cpu, n_mem, n_nic = need.cpu, need.mem, need.nic
        for h in hosts:
            free = host_free[h]
            if n_cpu <= free.cpu + _EPS and n_mem <= free.mem + _EPS and n_nic <= free.nic + _EPS:
                break
        else:
            return f"no host fits VM {vm.id}"
        state.assign_vm(app.id, vm, h)
    reserve_traffic(state, app)
    return None


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


def _hose_ok(t: Topology, state: PlacementState, counts: dict[str, int],
             n_total: int, bw: float) -> bool:
    """Hose-model check: each switch's downward closure must carry
    min(m, N - m) * B within its free uplink capacity. Host uplinks need no
    check here: the fill already sized each host's count to fit its own.
    Only switches above a counted host can see m > 0."""
    below: Counter[str] = Counter()
    for h, m in counts.items():
        for s in t.switches_above[h]:
            below[s] += m
    for s, m in below.items():
        if m < n_total:
            up_free = sum(state.link_free[lid] for lid in t.switch_uplinks[s])
            if min(m, n_total - m) * bw > up_free + _EPS:
                return False
    return True


def _first_refusal(state: PlacementState, vms: list[VM],
                   counts: dict[str, int]) -> str | None:
    """The CapacityError text of the first assign_vm that the fill would
    refuse, or None when every VM fits. The fill puts n VMs of `vms` in order
    on each host h of counts.items(), which lists the unit's counted hosts in
    unit order; each host's running free is checked and lowered as assign_vm
    checks and writes it, so the fill need not be written to be refused."""
    host_free, i = state.host_free, 0
    for h, n in counts.items():
        free = host_free[h]
        f_cpu, f_mem, f_nic = free.cpu, free.mem, free.nic
        for vm in vms[i:i + n]:
            need = vm.demand
            if need.cpu > f_cpu + _EPS:
                return str(CapacityError("host", h, "cpu", need.cpu, f_cpu))
            if need.mem > f_mem + _EPS:
                return str(CapacityError("host", h, "mem", need.mem, f_mem))
            if need.nic > f_nic + _EPS:
                return str(CapacityError("host", h, "nic", need.nic, f_nic))
            # ResourceVector's clamp: a fitting need leaves at most float dust below 0
            f_cpu, f_mem, f_nic = f_cpu - need.cpu, f_mem - need.mem, f_nic - need.nic
            if f_cpu < 0:
                f_cpu = 0.0
            if f_mem < 0:
                f_mem = 0.0
            if f_nic < 0:
                f_nic = 0.0
        i += n
    return None


def _place_netw(state: PlacementState, app: Application, config: SchemeConfig,
                reaches: tuple[Reach, ...]) -> str | None:
    """Virtual-cluster placement: slots only, scanned bottom-up.

    The app is a hose <N VMs, B = mean per-VM bandwidth>. The units of
    topology.subtrees are scanned in order, hosts first, then the distinct
    switch subtrees level by level; the first unit with enough free slots
    whose greedy fill passes the hose check takes the whole app.
    A VM on a host takes one of its slots whoever placed it, so a host's
    free slots are max(0, slots - state.host_vms[h]), read as the scan
    reaches it. Actual demands still decide: a fill that would overdraw a
    host is refused by _first_refusal before it writes, and a fill whose
    traffic a link refuses rolls back to the journal mark taken before it,
    as UNIFIED's per-VM step does; so the counts hold for the whole attempt.

    On hosts of one TOR every switch above a counted host holds all N VMs,
    so the hose check, which has nothing to check there, is skipped.
    """
    if config.netw_slots_per_host is None:
        raise ValueError("NETW needs netw_slots_per_host (see derive_netw_slots)")
    t = state.topology
    n_total = len(app.vms)
    bw = app.total_vm_traffic / n_total
    slots, host_vms = config.netw_slots_per_host, state.host_vms
    ports, link_free = t.host_ports, state.link_free
    vms = sorted(app.vms, key=lambda v: v.id)

    last_failure = f"no subtree offers {n_total} slots for app {app.id}"
    for unit_hosts in t.subtrees:
        free = 0
        for h in unit_hosts:
            f = slots - host_vms[h]
            if f > 0:  # an overfull host offers 0, not less
                free += f
        if free < n_total:
            continue
        counts: dict[str, int] = {}
        remaining = n_total
        for h in unit_hosts:
            if remaining == 0:
                break
            want = slots - host_vms[h]  # the range is empty when want <= 0
            take = 0
            for m in range(want if want < remaining else remaining, 0, -1):
                need = (m if m <= n_total - m else n_total - m) * bw
                if need <= link_free[ports[h][0]] + _EPS:
                    take = m
                    break
            if take:
                counts[h] = take
                remaining -= take
        if remaining or (len({ports[h][1] for h in counts}) > 1
                         and not _hose_ok(t, state, counts, n_total, bw)):
            continue
        refusal = _first_refusal(state, vms, counts)
        if refusal is not None:
            last_failure = refusal
            continue

        mark = len(state._journal)
        vm_iter = iter(vms)
        for host_id, n in counts.items():
            for _ in range(n):
                state.assign_vm(app.id, next(vm_iter), host_id)
        try:
            reserve_traffic(state, app)
        except CapacityError as exc:
            state._rollback(mark)
            last_failure = str(exc)
            continue
        return None
    return last_failure


# -- the one entry point ------------------------------------------------------------

_SCHEME_BODIES = {"UNIFIED": _place_unified, "LOCAL": _place_local, "NETW": _place_netw}


def place_application(state: PlacementState, app: Application, config: SchemeConfig,
                      reaches: tuple[Reach, ...] | None = None) -> PlacementOutcome:
    """Place the whole app with config's scheme, or change nothing.

    The outcome says only whether the app was placed and why not: the
    placement itself is the state's ledger, each VM's host in
    state.assignments[app][vm] and each routed edge's link path and
    bandwidth in state.reservations[app][(x, y)].

    UNIFIED places over `reaches`, by default topology.reaches. The scheme
    body returns a failure message or None; a CapacityError that escapes it
    is the failure message. Either failure rolls back every write of the
    attempt, including the app's registration.
    """
    if not app.vms:
        return _PLACED
    with state.transaction() as commit:
        state.register_app(app)
        try:
            failure = _SCHEME_BODIES[config.scheme](
                state, app, config, state.topology.reaches if reaches is None else reaches)
        except CapacityError as exc:
            failure = str(exc)
        if failure is not None:
            return PlacementOutcome(ok=False, failure=failure)
        commit()
    return _PLACED
