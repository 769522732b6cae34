"""Fragmentation and relative-resource-fragmentation (RRF) metrics.

All operations are pure functions of (state, request). A state is anything
exposing `topology`, `host_free` (host id -> ResourceVector, absolute units),
`link_free` (link id -> Mbps) and `reach_memo` (a dict, see below); request
sizes are fractions of the topology's reference host / reference link. The
free NIC capacity of a host is read from its uplink, the physically
available bandwidth at its port.

The network metrics follow the reach decomposition: achievable capacity and
placeable-request counts are accumulated first inside each reach (by pairing
hosts greedily on NIC headroom) and then between reaches (by walking reach
pairs in path-length order and consuming residuals against inter-reach
bandwidth). The between walk reads its pairs, in order and with their paths,
from the topology's reach_pairs table, and visits only the pairs whose two
reaches both hold a residual. A reach's position in topology.reaches is the
one key of per-reach data: the inside phases return their residuals as lists
in that order, and the between phases take those lists.

A placement changes a few hosts and links, so state.reach_memo keeps what
the RRF would otherwise recompute from unchanged values. The inside-reach
pairings have one slot per (reach, request), holding the reach's uplink
frees (and, for a count under a request, its host free vectors and per-host
counts) next to the pairing computed from them. The between walks share one
slot holding the reach pairs sorted by their bandwidths, next to the frees
of the links on reach paths they were read from. A call recomputes a slot
only when those values no longer compare equal. The getters that read those values are built once per state and kept
in the memo beside the slots. Keyed by value, the memo needs no
invalidation: it holds under rollbacks, restores and direct writes to the
tables.
"""

from __future__ import annotations

import bisect
import heapq
import math
from dataclasses import dataclass
from operator import itemgetter

from .topology import _EPS, Reach, Topology

_REACH_KEYS = "reach keys"  # the reach_memo key of _reach_pairings' slot key getters
_PAIR_ORDER = "pair order"  # the reach_memo key of _walk_between's sorted rows


def fit_count(free: float, size: float) -> int:
    """How many size-sized slices fit in free capacity, tolerant of float noise."""
    if size <= 0:
        raise ValueError("size must be > 0")
    if free <= 0:
        return 0
    return int(free / size + _EPS)


@dataclass(frozen=True)
class MultiRequest:
    """Multi-dimension request; zero components are unconstrained.

    For network requests the tuple describes one symmetric endpoint pair:
    cpu/mem at both ends plus nw bandwidth between them.
    """

    cpu: float = 0.0
    mem: float = 0.0
    nw: float = 0.0

    def __post_init__(self):
        for name in ("cpu", "mem", "nw"):
            value = getattr(self, name)
            if not 0 <= value <= 1:
                raise ValueError(f"{name} component must be in [0, 1], got {value}")

    def nonzero_dims(self) -> tuple[str, ...]:
        return tuple(n for n in ("cpu", "mem", "nw") if getattr(self, n) > 0)


@dataclass(frozen=True)
class RRFReport:
    resource: str
    total_free: float
    placeable_multi: int
    index: float


def _index(total: float, count: int, size: float) -> float:
    if total <= _EPS:
        return 1.0
    return min(1.0, max(0.0, (total - count * size) / total))


# -- host-local metrics --------------------------------------------------------


def fragmentation_index(state, req: MultiRequest) -> RRFReport:
    """Fraction of a resource's free capacity unusable for requests of one size.

    Fragmentation is the RRF of a request with exactly one nonzero dimension:
    the host-local RRF for cpu/mem, the network RRF for nw.
    """
    dims = req.nonzero_dims()
    if len(dims) != 1:
        raise ValueError(f"fragmentation needs exactly one nonzero dimension, got {dims}")
    if dims[0] == "nw":
        return network_rrf(state, req)
    return rrf_index_local(state, req, dims[0])


def _host_counts(state, host_ids, req: MultiRequest) -> list[int]:
    """Requests one host can satisfy, for each host in the given order: the
    min over req's nonzero dimensions of fit_count on the host's normalized
    free, the NIC read from the host's uplink free.

    fit_count's quotients are never negative and int() floors them, which
    keeps their order, so the smallest quotient is floored once."""
    t = state.topology
    host_free, link_free, ports, ref = state.host_free, state.link_free, t.host_ports, t.reference
    cpu, mem, nw = req.cpu, req.mem, req.nw
    ref_cpu, ref_mem, ref_link = ref.host.cpu, ref.host.mem, ref.link
    inf = math.inf
    counts = []
    for h in host_ids:
        n = inf
        free = host_free[h]
        if cpu > 0:
            x = free.cpu / ref_cpu
            n = x / cpu + _EPS if x > 0 else 0.0
        if mem > 0:
            x = free.mem / ref_mem
            m = x / mem + _EPS if x > 0 else 0.0
            if m < n:
                n = m
        if nw > 0:
            x = link_free[ports[h][0]] / ref_link
            m = x / nw + _EPS if x > 0 else 0.0
            if m < n:
                n = m
        counts.append(int(n) if n < inf else n)
    return counts


def rrf_index_local(state, req: MultiRequest, target: str) -> RRFReport:
    """RRF of a host-local resource under a request.

    Per host the placeable count is the min over the request's nonzero
    dimensions (NIC counting as a local dimension); the index applies
    the target resource's size to the summed count. With the target as the
    only nonzero dimension this is the target's fragmentation index.
    """
    if target not in ("cpu", "mem"):
        raise ValueError(f"target must be cpu or mem, got {target!r}")
    if getattr(req, target) <= 0:
        raise ValueError(f"target dimension {target} is zero in the request")
    t = state.topology
    ref_target = getattr(t.reference.host, target)
    total = 0.0
    count = 0
    for host_id, n in zip(t.host_ids, _host_counts(state, t.host_ids, req)):
        total += getattr(state.host_free[host_id], target) / ref_target
        count += n
    return RRFReport(target, total, count, _index(total, count, getattr(req, target)))


# -- greedy pairing inside reaches ----------------------------------------------


def _pair_reduce(values: list):
    """Greedy max/second-max pairing over values.

    Repeatedly pair the largest value with the second largest, accumulate the
    second, shrink the largest by it and drop the paired value; the last
    value's leftover is the residual. The values are kept sorted and the
    shrunk largest is inserted back in place.
    """
    vals = sorted(values)
    pop, insort = vals.pop, bisect.insort
    acc = 0
    for _ in range(len(vals) - 1):  # each round drops one value
        v_max = pop()
        v_smax = pop()
        acc += v_smax
        insort(vals, v_max - v_smax)
    return acc, (vals[0] if vals else 0)


def _moved_counts(state, hosts: tuple, req: MultiRequest, key: tuple, slot) -> list[int]:
    """_host_counts(state, hosts, req), reading from the reach's old count
    slot every host whose free vector is the slot key's object and whose
    uplink free compares equal to the key's: only the hosts that moved are
    recounted. A ledger write replaces a host's vector, so an equal vector
    that is a new object is recounted too, to the same count."""
    if slot is None or len(hosts) == 1:  # a one-host reach's getters return scalars
        return _host_counts(state, hosts, req)
    (frees, ups), ((old_frees, old_ups), counts, _) = key, slot
    moved = []
    for k, f in enumerate(frees):
        if f is not old_frees[k] or ups[k] != old_ups[k]:
            moved.append(k)
    counts = list(counts)
    for k, n in zip(moved, _host_counts(state, [hosts[k] for k in moved], req)):
        counts[k] = n
    return counts


def _reach_pairings(state, req: MultiRequest | None):
    """_pair_reduce over each reach of topology.reaches, on its hosts' NIC
    frees (req None) or their counts under req (_host_counts). Returns the
    summed pairings and the residuals, a list in topology.reaches order.

    A reach's (sum, residual) is read from its slot in state.reach_memo while
    the values it was computed from are unchanged. The slot key is read by
    the reach's getters in the memo's _REACH_KEYS entry, both in reach.hosts
    order: the NIC pairing reads only uplinks, so its key is their frees in
    link_free, and its values are those frees over reference.link; a count
    slot's key adds the hosts' entries in host_free, and the slot keeps its
    per-host counts, so a changed key recounts only the hosts that moved
    (_moved_counts). A slot is a (key, per-host counts or None, pairing)
    triple.
    """
    t = state.topology
    host_free, link_free, memo = state.host_free, state.link_free, state.reach_memo
    keys = memo.get(_REACH_KEYS)
    if keys is None:
        ports = t.host_ports
        keys = memo[_REACH_KEYS] = [
            (itemgetter(*r.hosts), itemgetter(*(ports[h][0] for h in r.hosts)))
            for r in t.reaches]
    slots = memo.get(req)
    if slots is None:
        slots = memo[req] = [None] * len(t.reaches)
    nic = req is None
    ref_link = t.reference.link
    total = 0.0 if nic else 0
    residuals = []
    for i, (reach, (hosts_of, uplinks_of)) in enumerate(zip(t.reaches, keys)):
        key = uplinks_of(link_free) if nic else (hosts_of(host_free), uplinks_of(link_free))
        slot = slots[i]
        if slot is None or slot[0] != key:
            if nic:
                counts = None
                values = [f / ref_link for f in (key if len(reach.hosts) > 1 else (key,))]
            else:
                counts = values = _moved_counts(state, reach.hosts, req, key, slot)
            slot = slots[i] = (key, counts, _pair_reduce(values))
        got, res = slot[2]
        total += got
        residuals.append(res)
    return total, residuals


def capacity_inside_reaches(state):
    """Achievable bandwidth inside each reach, plus per-reach residuals.

    Hosts pair on available NIC capacity; every pairing contributes the
    smaller side. Returns (total, residual bandwidths in topology.reaches
    order).
    """
    return _reach_pairings(state, None)


def _paths_bandwidth(paths, link_free: dict, ref_link: float) -> float:
    """Summed bottleneck free capacity of the paths, normalized by ref_link."""
    total = 0.0
    for path in paths:
        low = math.inf
        for lid in path:
            free = link_free[lid]
            if free < low:
                low = free
        if low > 0.0:  # adds max(0.0, low): total starts at +0.0
            total += low
    return total / ref_link


def path_bandwidth(t: Topology, reach_i: Reach, reach_j: Reach, link_free: dict) -> float:
    """Bandwidth between two reaches over link-disjoint shortest paths.

    Each path contributes its bottleneck free capacity in link_free; for a
    tree this is the single path's bottleneck. The RRF walk and UNIFIED's
    spill choice read the same sum through _paths_bandwidth.
    """
    return _paths_bandwidth(t.reach_paths(reach_i, reach_j), link_free, t.reference.link)


def _consume_paths(paths, link_free: dict, remaining: float) -> None:
    """Take `remaining` (absolute) off the paths' links, bottleneck first."""
    for path in paths:
        if remaining <= _EPS:
            break
        take = remaining  # min(remaining, max(0.0, the path's smallest free))
        for lid in path:
            free = link_free[lid]
            if free < take:
                take = free
        if take <= _EPS:  # also a path with no free left: take <= 0.0
            continue
        for lid in path:
            link_free[lid] -= take
        remaining -= take


def _pair_order(state) -> list[tuple]:
    """Topology.reach_pairs as (distance, -bandwidth, rank, i, j, paths) rows,
    sorted, each bandwidth read from state.link_free.

    The rows are read from the _PAIR_ORDER slot of state.reach_memo, a
    (getter, key, rows) triple, while the frees of the links on reach paths
    equal the ones they were computed from: the getter reads them from
    link_free in link id order. Keyed by value, like the reach slots. Only
    called with two live reaches, so some reach path has a link.
    """
    t = state.topology
    link_free = state.link_free
    slot = state.reach_memo.get(_PAIR_ORDER)
    links_of = slot[0] if slot else itemgetter(*sorted(
        {lid for pair in t.reach_pairs for path in pair.paths for lid in path}))
    key = links_of(link_free)
    if slot is None or slot[1] != key:
        ref_link = t.reference.link
        rows = sorted((d, -_paths_bandwidth(paths, link_free, ref_link), rank, i, j, paths)
                      for d, rank, i, j, paths in t.reach_pairs)
        slot = state.reach_memo[_PAIR_ORDER] = (links_of, key, rows)
    return slot[2]


def _walk_between(state, residuals: list, fit, unit: float):
    """The reach-pair walk shared by the bandwidth and the count metric.

    Pairs go shortest reach distance first, then most inter-reach bandwidth,
    then smallest id pair (ri.id, rj.id), ri before rj in Topology.reaches.
    Each pair takes step = min(residual_i, residual_j, fit(bandwidth)),
    deducted from both residuals and, times `unit`, from the path links.
    Returns the summed steps; the walk consumes a copy of `residuals`, one
    per reach in topology.reaches order.

    Only live pairs are walked: both reaches hold a residual above _EPS.
    Residuals never rise, so a pair with a dead reach could never step; with
    fewer than two live reaches the walk returns 0 without reading the pair
    table. The walk keeps the live rows of _pair_order, keyed
    (distance, -bandwidth, rank) with the bandwidths at walk start, as a
    sorted run read with an index, and a heap of the rows it re-keyed; the
    rank orders pairs as their ids do. The next row is the smaller of the
    run's row at the index and the heap's top: the rest of the run is
    sorted, so this is the smallest row left. It is re-read, re-keyed into
    the heap if its bandwidth fell, else taken. Steps only consume links, so
    no key is above its pair's current key, and a current smallest key beats
    every pair's (ranks make keys unique): this is the pair a full rescan
    would take. A pair whose reach ran dry on the way is dropped unread, at
    the cost of one index step when it is still in the run.
    """
    t = state.topology
    res = list(residuals)
    live = [r > _EPS for r in res]
    if live.count(True) < 2:
        return 0
    run = [row for row in _pair_order(state) if live[row[3]] and live[row[4]]]
    heap = []  # the re-keyed rows
    link_free = dict(state.link_free)
    ref_link = t.reference.link
    total = 0
    k, n = 0, len(run)
    while True:
        if k < n and (not heap or run[k] < heap[0]):
            dist, key, rank, i, j, paths = run[k]
            k += 1
        elif heap:
            dist, key, rank, i, j, paths = heapq.heappop(heap)
        else:
            return total
        res_i, res_j = res[i], res[j]
        if res_i <= _EPS or res_j <= _EPS:
            continue
        bw = _paths_bandwidth(paths, link_free, ref_link)
        if -bw != key:
            heapq.heappush(heap, (dist, -bw, rank, i, j, paths))
            continue
        step = res_i if res_i <= res_j else res_j  # min(res_i, res_j, fit(bw))
        fit_bw = fit(bw)
        if fit_bw < step:
            step = fit_bw
        if step > _EPS:
            total += step
            res[i] = res_i - step
            res[j] = res_j - step
            _consume_paths(paths, link_free, step * unit * ref_link)


def capacity_between_reaches(state, res_bw: list) -> float:
    """Achievable bandwidth between reaches, consuming per-reach residuals.

    Walks every reach pair once; each pair contributes
    min(residual_i, residual_j, inter-reach bandwidth).
    """
    return float(_walk_between(state, res_bw, lambda bw: bw, 1.0))


# -- placeable request counts ----------------------------------------------------


def placeable_inside_reaches(state, req: MultiRequest):
    """Placeable request pairs inside each reach, plus per-reach residual counts.

    Per-host counts (min over nonzero dimensions; a host short of NIC counts
    zero and pairs nothing) pair exactly like the bandwidth procedure.
    Returns (count, residual counts in topology.reaches order).
    """
    if req.nw <= 0:
        raise ValueError("network component of the request must be > 0")
    return _reach_pairings(state, req)


def placeable_between_reaches(state, res_req: list, req: MultiRequest) -> int:
    """Placeable request pairs between reaches, consuming residual counts.

    The bandwidth procedure's walk with residual counts in place of residual
    bandwidth; each placed pair consumes its network size along the
    inter-reach paths.
    """
    if req.nw <= 0:
        raise ValueError("network component of the request must be > 0")
    return _walk_between(state, res_req, lambda bw: fit_count(bw, req.nw), req.nw)


def placeable_in_reaches(state, reaches, req: MultiRequest) -> list[int]:
    """Placeable count of each of `reaches`, used to rank reaches by load;
    the runtime's one definition of a reach's count.

    A request with a network component pairs the reach's host counts
    (_pair_reduce); otherwise the hosts are independent and their counts
    simply add up. A request of nothing ranks every reach alike: its count
    is 0. One _host_counts pass covers all the reaches' hosts, and each
    reach reads its slice.
    """
    if not req.nonzero_dims():
        return [0] * len(reaches)
    counts = _host_counts(state, [h for r in reaches for h in r.hosts], req)
    paired = req.nw > 0
    out, i = [], 0
    for r in reaches:
        part = counts[i:i + len(r.hosts)]
        i += len(part)
        out.append(_pair_reduce(part)[0] if paired else sum(part))
    return out


def network_rrf(state, req: MultiRequest) -> RRFReport:
    """Network RRF: achievable capacity vs. placeable multi-requests."""
    if req.nw <= 0:
        raise ValueError("network RRF needs a request with nw > 0")
    inside, res_bw = capacity_inside_reaches(state)
    total = inside + capacity_between_reaches(state, res_bw)
    count, res_req = placeable_inside_reaches(state, req)
    count += placeable_between_reaches(state, res_req, req)
    return RRFReport("nw", total, count, _index(total, count, req.nw))


# -- serialization ------------------------------------------------------------------


def format_record(report: RRFReport, request: MultiRequest) -> str:
    """Flat fixed-format record for golden files.

    Columns: resource, size_cpu, size_mem, size_nw, T, N, index.
    """
    return (
        f"{report.resource},{request.cpu:.9f},{request.mem:.9f},{request.nw:.9f},"
        f"{report.total_free:.9f},{report.placeable_multi},{report.index:.9f}"
    )
