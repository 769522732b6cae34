"""Test references: each node's links read from the link table, every
shortest path between two hosts, the link-disjoint shortest paths between two
reaches by repeated blocked BFS, the reach-path bandwidth and consumption in
builtin min/max form, edge reservation one step at a time, UNIFIED with its
gains computed per VM and one reach counted at a time, one reach's placeable
count and one host's normalized NIC free, and a brute-force oracle of the
placeable requests on desk-size instances. None is part of the runtime;
tests import them from here."""

from collections import deque

from dcfrag.metrics import (MultiRequest, _host_counts, _pair_reduce, _paths_bandwidth,
                            fit_count)
from dcfrag.placement import _ABSENT, CapacityError, _pick, bal_pack
from dcfrag.topology import _EPS
from dcfrag.workload import representative_request

_ORACLE_CAP = 12  # placements brute_force_placeable searches up to


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


def reference_reserve_traffic(state, app, edges=None):
    """reserve_traffic with each edge's steps apart: for every edge with
    bandwidth, on two hosts and not yet reserved, route it, check the path's
    smallest free, write each link, then write the reservation, every write
    through journaled_write. Hosts and reservations are the app's maps in
    the ledger."""
    placed, routed = state.assignments[app.id], state.reservations[app.id]
    for (x, y), bw in app.edges() if edges is None else edges:
        host_x, host_y = placed.get(x), placed.get(y)
        if bw <= 0 or (x, y) in routed or None in (host_x, host_y) or host_x == host_y:
            continue
        path, _ = state.topology.route(host_x, host_y, state.link_free)
        if min(state.link_free[lid] for lid in path) + _EPS < bw:
            lid = next(lid for lid in path if state.link_free[lid] + _EPS < bw)
            raise CapacityError("link", lid, "bw", bw, state.link_free[lid])
        for lid in path:
            journaled_write(state, state.link_free, lid, state.link_free[lid] - bw)
        journaled_write(state, routed, (x, y), (path, bw))


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


def reference_reach_gain(app, vm_id, in_reach, unplaced):
    """UNIFIED's gain of a VM as it was computed one VM at a time: its
    traffic to in_reach less its traffic to unplaced, both summed in the
    order of its traffic row."""
    got = lost = 0
    for peer, bw in app.peers(vm_id).items():
        if peer in in_reach:
            got += bw
        elif peer in unplaced:
            lost += bw
    return got - lost


def reference_unified(state, app, config, reaches):
    """placement._place_unified one step at a time: the same ranking
    (reference_sibling_reach), every gain computed per VM through
    app.peers, and each VM's edges reserved by reference_reserve_traffic
    from the hosts in state.assignments[app.id]. A scheme body for
    place_application."""
    req = representative_request(app, state.topology.reference)
    tried, hosting, counts = set(), [], {}
    unplaced = set(app.vm_ids())
    last_failure = "no reach could take the first VM"
    while (reach := reference_sibling_reach(state, reaches, tried, hosting, req,
                                            counts)) is not None:
        tried.add(reach.id)
        in_reach = set()
        gain = {v: reference_reach_gain(app, v, in_reach, unplaced) for v in unplaced}
        vm_id = _pick(unplaced, gain, 1)
        while True:
            host = bal_pack(state, app.vm(vm_id), reach)
            if host is None:
                last_failure = f"reach {reach.id}: no host fits VM {vm_id}"
                break
            mark = len(state._journal)
            try:
                state.assign_vm(app.id, app.vm(vm_id), host)
                reference_reserve_traffic(state, app, app.vm_edges(vm_id))
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
            for peer in app.peers(vm_id):
                if peer in unplaced:
                    gain[peer] = reference_reach_gain(app, peer, in_reach, unplaced)
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
