"""Test references: a resource vector built as the frozen dataclass built
it, each node's links read from the link table, every
shortest path between two hosts, a TOR pair's route DAG built by merging its
layers, the link-disjoint shortest paths between two reaches by repeated
blocked BFS, the reach-path bandwidth and consumption in
builtin min/max form, edge reservation one step at a time, UNIFIED with its
gains computed per VM and one reach counted at a time, with and without its
early refusal of a VM that fits no host, one reach's placeable
count and one host's normalized NIC free, a brute-force oracle of the
placeable requests on desk-size instances, the workload generator, its
traffic rows and its validator as written before their loops were cut, and
the application as a dataclass over its traffic dict. None is part of the
runtime; tests import them from here."""

import heapq
import math
import random
from collections import deque
from dataclasses import dataclass

from dcfrag import workload
from dcfrag.metrics import (MultiRequest, _host_counts, _pair_reduce, _paths_bandwidth,
                            fit_count)
from dcfrag.placement import _ABSENT, CapacityError, _pick, bal_pack
from dcfrag.topology import _EPS, ResourceVector
from dcfrag.workload import VM, WorkloadError, representative_request

_ORACLE_CAP = 12  # placements brute_force_placeable searches up to


def reference_vector(cpu, mem, nic):
    """ResourceVector(cpu, mem, nic) as the frozen dataclass built it: its
    __init__ set each field with object.__setattr__, then __post_init__
    clamped float dust in [-1e-6, 0) to 0.0 in cpu, mem, nic order, kept
    -0.0, and raised on the first component below -1e-6, naming the vector
    as clamped so far."""
    v = object.__new__(ResourceVector)
    for name, value in (("cpu", cpu), ("mem", mem), ("nic", nic)):
        object.__setattr__(v, name, value)
    if v.cpu >= 0 and v.mem >= 0 and v.nic >= 0:
        return v
    for name in ("cpu", "mem", "nic"):
        value = getattr(v, name)
        if value < -1e-6:
            raise ValueError(f"resource components must be >= 0, got {v}")
        if value < 0:
            object.__setattr__(v, name, 0.0)
    return v


def reference_neighbors(t, node):
    """(peer, link id) for every link at node, in link id order, read from
    t.links alone rather than from any record the constructor builds."""
    return [(l.b if l.a == node else l.a, lid) for lid, l in sorted(t.links.items())
            if node in (l.a, l.b)]


def reference_shortest_paths(t, host_a, host_b):
    """Every shortest path between two hosts, as link ids from the smaller
    host id, found by BFS depths over the whole fabric and a walk back from
    the other host. They are sorted as the TOR pair's shortest-path DAG
    lists them: by the switches between the two TORs from the far end back,
    then by the links in path order."""
    src, dst = sorted((host_a, host_b))
    depth = {src: 0}
    frontier = [src]
    while dst not in depth:
        nxt = []
        for node in frontier:
            for peer, _ in reference_neighbors(t, node):
                if peer not in depth:
                    depth[peer] = depth[node] + 1
                    nxt.append(peer)
        frontier = nxt

    def back(node):  # (nodes, links) of every shortest src -> node path
        if node == src:
            return [((src,), ())]
        return [(nodes + (node,), links + (lid,))
                for peer, lid in reference_neighbors(t, node)
                if depth.get(peer) == depth[node] - 1
                for nodes, links in back(peer)]

    # nodes run src, its TOR, the switches between, the other TOR, dst
    ordered = sorted(back(dst), key=lambda path: (path[0][-3:1:-1], path[1]))
    return [links for _, links in ordered]


def reference_reach_paths(t, reach_a, reach_b):
    """Link-disjoint shortest paths between two reaches' boundary switches,
    as Topology.reach_paths lists them: from the smaller reach id, a switch
    BFS from the sorted sources is run again after each path with that
    path's links blocked, until it finds no path or a longer one."""
    ra, rb = (reach_a, reach_b) if reach_a.id < reach_b.id else (reach_b, reach_a)
    srcs, dsts = set(ra.switches), set(rb.switches)
    blocked = set()
    paths = []
    min_len = None
    while True:
        found = _switch_set_path(t, srcs, dsts, blocked)
        if found is None:
            break
        if min_len is None:
            min_len = len(found)
        elif len(found) > min_len:
            break
        paths.append(found)
        blocked.update(found)
    return tuple(paths)


def reference_compiled_dag(t, tor_a, tor_b):
    """Topology._compiled_dag as first written, each layer above listed by a
    heapq.merge of its nodes' sorted (peer, link) pairs, deduplicated in
    merge order; built anew, not stored in t._dags."""
    depth = t._layers((tor_a,))
    layers = [[tor_b]]
    preds = {}
    while layers[-1] != [tor_a]:
        for node in layers[-1]:
            preds[node] = [(peer, lid) for peer, lid in t.adjacency[node]
                           if depth.get(peer) == depth[node] - 1]
        merged = heapq.merge(*(preds[node] for node in layers[-1]))
        layers.append(list(dict.fromkeys(peer for peer, _ in merged)))
    via = {tor_a: (0, ())}
    entries = []
    for layer in reversed(layers[:-1]):
        for node in layer:
            pairs = tuple((via[peer][0], via[peer][1] + (lid,)) for peer, lid in preds[node])
            if len(pairs) == 1 and node != tor_b:
                via[node] = pairs[0]
            else:
                entries.append(pairs)
                via[node] = (len(entries), ())
    return tuple(entries)


def _switch_set_path(t, srcs, dsts, blocked):
    parent = {s: None for s in sorted(srcs)}
    frontier = deque(sorted(srcs))
    goal = None
    while frontier:
        node = frontier.popleft()
        if node in dsts:
            goal = node
            break
        for peer, lid in sorted(reference_neighbors(t, node)):
            if peer in t.switches and peer not in parent and lid not in blocked:
                parent[peer] = (node, lid)
                frontier.append(peer)
    if goal is None:
        return None
    path = []
    node = goal
    while parent[node] is not None:
        node, lid = parent[node]
        path.append(lid)
    return tuple(reversed(path))


def reference_paths_bandwidth(paths, link_free, ref_link):
    """metrics._paths_bandwidth in builtin form: each path's smallest free,
    floored at 0.0, summed in path order, over ref_link."""
    total = 0.0
    for path in paths:
        total += max(0.0, min(link_free[lid] for lid in path))
    return total / ref_link


def reference_consume_paths(paths, link_free, remaining):
    """metrics._consume_paths in builtin form: each path in turn takes
    min(remaining, its floored bottleneck) off every one of its links, until
    no more than _EPS remains; a take of at most _EPS is skipped."""
    for path in paths:
        if remaining <= _EPS:
            break
        take = min(remaining, max(0.0, min(link_free[lid] for lid in path)))
        if take <= _EPS:
            continue
        for lid in path:
            link_free[lid] -= take
        remaining -= take


def journaled_write(state, table, key, value):
    """One ledger write as a state journals it while a transaction is open:
    the value it replaces (_ABSENT when the key is new), then the write."""
    if state._journal is not None:
        state._journal.append((table, key, table.get(key, _ABSENT)))
    table[key] = value


def reference_reserve_traffic(state, app, positions=None):
    """reserve_traffic with each edge's steps apart: for every edge at
    `positions` (default app._order), read from the app's edge tuples, with
    bandwidth, on two hosts and not yet reserved, route it, check the path's
    smallest free, write each link, then write the reservation, position ->
    path, every write through journaled_write. Hosts and reservations are the
    app's maps in the ledger."""
    placed, routed = state.assignments[app.id], state.reservations[app.id]
    for i in app._order if positions is None else positions:
        x, y, bw = app._xs[i], app._ys[i], app._bws[i]
        host_x, host_y = placed.get(x), placed.get(y)
        if bw <= 0 or i in routed or None in (host_x, host_y) or host_x == host_y:
            continue
        path, _ = state.topology.route(host_x, host_y, state.link_free)
        if min(state.link_free[lid] for lid in path) + _EPS < bw:
            lid = next(lid for lid in path if state.link_free[lid] + _EPS < bw)
            raise CapacityError("link", lid, "bw", bw, state.link_free[lid])
        for lid in path:
            journaled_write(state, state.link_free, lid, state.link_free[lid] - bw)
        journaled_write(state, routed, i, path)


def nic_free(state, host_id):
    """Normalized free bandwidth at the host's uplink."""
    t = state.topology
    return state.link_free[t.host_ports[host_id][0]] / t.reference.link


def placeable_in_reach(state, reach, req):
    """metrics.placeable_in_reaches for one reach, counted on its own:
    the host counts paired when req has a network component, summed
    otherwise, and 0 for a request of nothing."""
    if req.nw > 0:
        return _pair_reduce(_host_counts(state, reach.hosts, req))[0]
    if not req.nonzero_dims():
        return 0
    return sum(_host_counts(state, reach.hosts, req))


def reference_sibling_reach(state, reaches, tried, hosting, req, counts):
    """placement.best_sibling_reach as it was before its counts were taken
    in one pass: each untried reach that ties on (distance, bandwidth) is
    counted by its own placeable_in_reach call when min() first keys it."""
    candidates = [r for r in reaches if r.id not in tried]
    if not candidates:
        return None
    if hosting:
        t, link_free = state.topology, state.link_free
        ranked = []
        for r in candidates:
            paths = [t.reach_paths(r, h) for h in hosting]
            dist = min(len(p[0]) for p in paths)
            bw = max(_paths_bandwidth(p, link_free, t.reference.link) for p in paths)
            ranked.append(((dist, -bw), r))
        nearest = min(key for key, _ in ranked)
        candidates = [r for key, r in ranked if key == nearest]

    def key(r):
        n = counts.get(r.id)
        if n is None:
            n = counts[r.id] = placeable_in_reach(state, r, req)
        return (-n, r.id)

    return min(candidates, key=key)


def reference_reach_gain(rows, vm_id, in_reach, unplaced):
    """UNIFIED's gain of a VM as it was computed one VM at a time: its
    traffic to in_reach less its traffic to unplaced, both summed in the
    order of its row in rows (reference_traffic_peers of the app)."""
    got = lost = 0
    for peer, bw in rows.get(vm_id, {}).items():
        if peer in in_reach:
            got += bw
        elif peer in unplaced:
            lost += bw
    return got - lost


def reference_unified(state, app, config, reaches, refuse_early=True):
    """placement._place_unified one step at a time: the same ranking
    (reference_sibling_reach), every gain computed per VM over its
    reference_traffic_peers row, and each VM's edges, filtered from
    app._order, reserved by reference_reserve_traffic from the hosts in
    state.assignments[app.id]. Like placement._place_unified, it refuses the
    app with "no host fits VM <id>" when a VM fits no host of the fabric: any
    VM before the first reach is ranked, or the VM bal_pack finds no host for
    in the current reach. With refuse_early=False it makes neither check and
    tries every reach before it refuses an app, as _place_unified did before
    it had them. A scheme body for place_application."""

    def fits_no_host(vm):  # assign_vm's rule, one dimension at a time, on every host
        return not any(all(getattr(vm.demand, d) <= getattr(free, d) + _EPS
                           for d in ("cpu", "mem", "nic"))
                       for free in state.host_free.values())

    for vm in app.vms if refuse_early else ():
        if fits_no_host(vm):
            return f"no host fits VM {vm.id}"
    req = representative_request(app, state.topology.reference)
    rows = reference_traffic_peers(app.traffic)
    tried, hosting, counts = set(), [], {}
    vms = {v.id: v for v in app.vms}
    unplaced = set(vms)
    last_failure = "no reach could take the first VM"
    while (reach := reference_sibling_reach(state, reaches, tried, hosting, req,
                                            counts)) is not None:
        tried.add(reach.id)
        in_reach = set()
        gain = {v: reference_reach_gain(rows, v, in_reach, unplaced) for v in unplaced}
        vm_id = _pick(unplaced, gain, 1)
        while True:
            host = bal_pack(state, vms[vm_id], reach)
            if host is None:
                if refuse_early and fits_no_host(vms[vm_id]):
                    return f"no host fits VM {vm_id}"
                last_failure = f"reach {reach.id}: no host fits VM {vm_id}"
                break
            mark = len(state._journal)
            try:
                state.assign_vm(app.id, vms[vm_id], host)
                reference_reserve_traffic(state, app, [i for i in app._order
                                                       if vm_id in (app._xs[i], app._ys[i])])
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
            for peer in rows.get(vm_id, {}):
                if peer in unplaced:
                    gain[peer] = reference_reach_gain(rows, peer, in_reach, unplaced)
            vm_id = _pick(unplaced, gain, -1)
    return last_failure


def brute_force_placeable(state, req: MultiRequest) -> int:
    """Exact maximum of simultaneously satisfiable requests on tiny instances.

    With a network component, requests are symmetric endpoint pairs on
    distinct hosts; the search enumerates assignments of host pairs, each
    over any of its shortest paths, and reserves that path exactly. Without
    one, hosts are independent and each is pushed to its limit. Guarded to
    <= 6 hosts and stopped at _ORACLE_CAP placements because the search is
    exponential.
    """
    t = state.topology
    ref = t.reference
    hosts = sorted(state.host_free)
    if len(hosts) > 6:
        raise ValueError(f"oracle limited to 6 hosts, got {len(hosts)}")

    if req.nw <= 0:
        if not req.nonzero_dims():
            raise ValueError("request has no nonzero dimensions")
        total = 0
        for h in hosts:
            n = 0
            while True:
                need = n + 1
                if req.cpu > 0 and need * req.cpu > state.host_free[h].cpu / ref.host.cpu + _EPS:
                    break
                if req.mem > 0 and need * req.mem > state.host_free[h].mem / ref.host.mem + _EPS:
                    break
                n += 1
                if n > 10_000:
                    raise ValueError("request too small for the oracle's search budget")
            total += n
        return total

    cpu = {h: state.host_free[h].cpu / ref.host.cpu for h in hosts}
    mem = {h: state.host_free[h].mem / ref.host.mem for h in hosts}
    link = {lid: bw / ref.link for lid, bw in state.link_free.items()}
    # (host, host, path) per shortest path of each host pair
    choices = [(a, b, path) for i, a in enumerate(hosts) for b in hosts[i + 1:]
               for path in reference_shortest_paths(t, a, b)]

    def fits(pi: int) -> bool:
        a, b, path = choices[pi]
        if req.cpu > 0 and (cpu[a] < req.cpu - _EPS or cpu[b] < req.cpu - _EPS):
            return False
        if req.mem > 0 and (mem[a] < req.mem - _EPS or mem[b] < req.mem - _EPS):
            return False
        return all(link[lid] >= req.nw - _EPS for lid in path)

    def apply(pi: int, sign: float) -> None:
        a, b, path = choices[pi]
        cpu[a] -= sign * req.cpu
        cpu[b] -= sign * req.cpu
        mem[a] -= sign * req.mem
        mem[b] -= sign * req.mem
        for lid in path:
            link[lid] -= sign * req.nw

    best = 0

    def upper_bound() -> int:
        caps = []
        for h in hosts:
            per = [fit_count(link[t.host_ports[h][0]], req.nw)]
            if req.cpu > 0:
                per.append(fit_count(cpu[h], req.cpu))
            if req.mem > 0:
                per.append(fit_count(mem[h], req.mem))
            caps.append(min(per))
        return sum(caps) // 2

    def search(start: int, placed: int) -> bool:
        """Raise best to the most placements found from here; True once it
        reaches _ORACLE_CAP, the answer, which ends the whole search."""
        nonlocal best
        best = max(best, placed)
        if best >= _ORACLE_CAP:
            return True
        if placed + upper_bound() <= best:
            return False
        for pi in range(start, len(choices)):
            if fits(pi):
                apply(pi, 1.0)
                done = search(pi, placed + 1)
                apply(pi, -1.0)
                if done:
                    return True
        return False

    search(0, 0)
    return best


@dataclass(frozen=True)
class Application:
    """workload.Application as it was kept before its edges became parallel
    tuples: a frozen dataclass holding the traffic dict it is given. Its repr
    and == are the reference for the program's."""

    id: str
    vms: tuple
    traffic: dict


def reference_traffic_peers(traffic):
    """Per-VM traffic rows {vm: {peer: Mbps}}, one setdefault per edge end."""
    peers = {}
    for (x, y), bw in traffic.items():
        peers.setdefault(x, {})[y] = bw
        peers.setdefault(y, {})[x] = bw
    return peers


def reference_row_total(bws):
    """A traffic row's bandwidths added one by one, left to right, from 0: the
    program's row-total arithmetic. sum() adds the same way before Python
    3.12; from 3.12 on it compensates, and the program's row totals do not."""
    total = 0
    for bw in bws:
        total += bw
    return total


def reference_validate_application(a, reference):
    """validate_application with a normalized demand vector per VM and each
    VM's traffic total added over reference_traffic_peers."""
    ids = set()
    for v in a.vms:
        if v.id in ids:
            raise WorkloadError(f"app {a.id}: duplicate VM id {v.id}")
        ids.add(v.id)
    for (x, y), bw in a.traffic.items():
        if x == y:
            raise WorkloadError(f"app {a.id}: self-edge on VM {x}")
        if x > y:
            raise WorkloadError(f"app {a.id}: edge ({x}, {y}) not stored in canonical order")
        if x not in ids or y not in ids:
            missing = x if x not in ids else y
            raise WorkloadError(f"app {a.id}: edge ({x}, {y}) references unknown VM {missing}")
        if not 0 <= bw < math.inf:
            raise WorkloadError(
                f"app {a.id}: edge ({x}, {y}) bandwidth {bw} is negative or not finite")
    peers = reference_traffic_peers(a.traffic)
    ref = reference.host
    for v in a.vms:
        norm = ResourceVector(v.demand.cpu / ref.cpu, v.demand.mem / ref.mem,
                              v.demand.nic / ref.nic)
        # NaN fails every comparison, so a NaN or infinite demand fails too
        if not (norm.cpu <= 1 + _EPS and norm.mem <= 1 + _EPS
                and v.demand.nic <= reference.host.nic + _EPS):
            raise WorkloadError(f"app {a.id}: VM {v.id} demand {v.demand} is not finite "
                                f"or exceeds the reference host")
        rows = reference_row_total(peers.get(v.id, {}).values())
        if v.demand.nic + _EPS < rows:
            raise WorkloadError(
                f"app {a.id}: VM {v.id} NIC demand {v.demand.nic} below its "
                f"traffic total {rows}")


def reference_generate_workload(spec):
    """generate_workload with a sorted() per chain edge, an index pair per VM
    pair and every draw through rng.uniform or rng.random."""
    rng = random.Random(spec.seed)
    width = max(2, len(str(spec.vms_per_app[1] - 1)))
    apps = []
    for ai in range(spec.app_count):
        app_id = f"app{ai:03d}"
        n = rng.randint(*spec.vms_per_app)
        vm_ids = [f"{app_id}v{vi:0{width}d}" for vi in range(n)]

        raw = {}
        if n > 1:
            order = vm_ids[:]
            rng.shuffle(order)
            for i in range(n - 1):
                x, y = sorted((order[i], order[i + 1]))
                raw[(x, y)] = rng.uniform(0.5, 1.5)
            for i in range(n):
                for j in range(i + 1, n):
                    key = (vm_ids[i], vm_ids[j])
                    if key not in raw and rng.random() < spec.traffic_density:
                        raw[key] = rng.uniform(0.5, 1.5)
            if spec.skewed_traffic:
                keys = sorted(raw)
                heavy = set(rng.sample(keys, max(1, round(0.1 * len(keys)))))
                for key in keys:
                    raw[key] = (rng.uniform(400.0, 2000.0) if key in heavy
                                else rng.uniform(0.2, 1.0))
            target = (n * spec.mean_demand.nic / 2.0 * rng.uniform(0.85, 1.15)
                      * spec.burst_multiplier(rng))
            scale = target / sum(raw.values())
            traffic = {key: w * scale for key, w in raw.items()}
        else:
            traffic = {}

        peers = reference_traffic_peers(traffic)
        rows = {v: reference_row_total(peers.get(v, {}).values()) for v in vm_ids}
        mean_row = sum(rows.values()) / n if n else 0.0
        vms = []
        for v in vm_ids:
            rel = rows[v] / mean_row if mean_row > 0 else 1.0
            w = spec.traffic_weight
            cpu = spec.mean_demand.cpu * (w * rel + (1 - w))
            mem = spec.mean_demand.mem * (w * rel + (1 - w))
            cpu *= rng.uniform(1 - spec.demand_noise, 1 + spec.demand_noise)
            mem *= rng.uniform(1 - spec.demand_noise, 1 + spec.demand_noise)
            cpu = min(max(cpu, 0.01 * spec.reference.host.cpu), 0.95 * spec.reference.host.cpu)
            mem = min(max(mem, 0.01 * spec.reference.host.mem), 0.95 * spec.reference.host.mem)
            vms.append(VM(id=v, demand=ResourceVector(cpu, mem, rows[v])))

        app = workload.Application(id=app_id, vms=tuple(vms), traffic=traffic)
        reference_validate_application(app, spec.reference)
        apps.append(app)
    return apps
