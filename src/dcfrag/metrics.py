"""Fragmentation and relative-resource-fragmentation (RRF) metrics.

All operations are pure functions of (state, request). A state is anything
exposing `topology`, `host_free` (host id -> ResourceVector, absolute units)
and `link_free` (link id -> Mbps); request sizes are fractions of the
topology's reference host / reference link. The free NIC capacity of a host
is read from its uplink, the physically available bandwidth at its port.

The network metrics follow the reach decomposition: achievable capacity and
placeable-request counts are accumulated first inside each reach (by pairing
hosts greedily on NIC headroom) and then between reaches (by walking reach
pairs in path-length order and consuming residuals against inter-reach
bandwidth). A small brute-force oracle bounds the greedy counts on desk-size
instances.
"""

from __future__ import annotations

from dataclasses import dataclass

from .topology import Reach, Topology, find_reaches

_EPS = 1e-9

RESOURCE_KINDS = ("cpu", "mem", "nw")


def fit_count(free: float, size: float) -> int:
    """How many size-sized slices fit in free capacity, tolerant of float noise."""
    if size <= 0:
        raise ValueError("size must be > 0")
    if free <= 0:
        return 0
    return int(free / size + _EPS)


@dataclass(frozen=True)
class AllocationRequest:
    """Single-dimension request: a normalized slice of one resource kind."""

    resource: str
    size: float

    def __post_init__(self):
        if self.resource not in RESOURCE_KINDS:
            raise ValueError(f"unknown resource kind {self.resource!r}")
        if not 0 < self.size <= 1:
            raise ValueError(f"size must be in (0, 1], got {self.size}")


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

    def is_multi(self) -> bool:
        return len(self.nonzero_dims()) >= 2


@dataclass(frozen=True)
class FragmentationReport:
    resource: str
    size: float
    total_free: float
    placeable: int
    index: float


@dataclass(frozen=True)
class RRFReport:
    resource: str
    total_free: float
    placeable_multi: int
    index: float


@dataclass(frozen=True)
class NetworkCapacityBreakdown:
    inside: float
    between: float
    total: float
    per_reach_residual_bw: dict


def _index(total: float, count: int, size: float) -> float:
    if total <= _EPS:
        return 1.0
    return min(1.0, max(0.0, (total - count * size) / total))


def _local_free(state, host_id: str, kind: str) -> float:
    ref = state.topology.reference
    free = state.host_free[host_id]
    if kind == "cpu":
        return free.cpu / ref.host.cpu
    return free.mem / ref.host.mem


def nic_free(state, host_id: str) -> float:
    """Normalized free bandwidth at the host's uplink."""
    t = state.topology
    return state.link_free[t.hosts[host_id].uplink] / t.reference.link


# -- host-local metrics --------------------------------------------------------


def fragmentation_index(state, req: AllocationRequest) -> FragmentationReport:
    """Fraction of a resource's free capacity unusable for requests of one size.

    For cpu/mem the placeable count is the sum over hosts of how many slices
    fit. For nw the single-dimension case is derived from the network RRF
    machinery with the local dimensions unconstrained.
    """
    if req.resource == "nw":
        report = network_rrf(state, MultiRequest(nw=req.size))
        return FragmentationReport("nw", req.size, report.total_free,
                                   report.placeable_multi, report.index)
    total = 0.0
    count = 0
    for host_id in sorted(state.host_free):
        free = _local_free(state, host_id, req.resource)
        total += free
        count += fit_count(free, req.size)
    return FragmentationReport(req.resource, req.size, total, count,
                               _index(total, count, req.size))


def _host_multi_count(state, host_id: str, req: MultiRequest) -> int:
    """Requests a single host can satisfy: min over the nonzero dimensions."""
    counts = []
    if req.cpu > 0:
        counts.append(fit_count(_local_free(state, host_id, "cpu"), req.cpu))
    if req.mem > 0:
        counts.append(fit_count(_local_free(state, host_id, "mem"), req.mem))
    if req.nw > 0:
        counts.append(fit_count(nic_free(state, host_id), req.nw))
    return min(counts)


def rrf_index_local(state, req: MultiRequest, target: str) -> RRFReport:
    """RRF of a host-local resource under a multi-dimensional request.

    Per host the placeable count is the min over the request's nonzero
    dimensions (NIC counting as a local dimension); the index applies
    the target resource's size to the summed count.
    """
    if target not in ("cpu", "mem"):
        raise ValueError(f"target must be cpu or mem, got {target!r}")
    if not req.is_multi():
        raise ValueError("RRF needs a request with at least two nonzero dimensions")
    if getattr(req, target) <= 0:
        raise ValueError(f"target dimension {target} is zero in the request")
    total = 0.0
    count = 0
    for host_id in sorted(state.host_free):
        total += _local_free(state, host_id, target)
        count += _host_multi_count(state, host_id, req)
    return RRFReport(target, total, count, _index(total, count, getattr(req, target)))


# -- greedy pairing inside reaches ----------------------------------------------


def _pair_reduce(values: list):
    """Greedy max/second-max pairing over (value, id) items.

    Repeatedly pair the largest value with the second largest, accumulate the
    second, shrink the largest by it and drop the paired item; the last item's
    leftover value is the residual. Ties resolve to the smallest id.
    """
    items = list(values)
    acc = 0
    while len(items) > 1:
        items.sort(key=lambda pair: (-pair[0], pair[1]))
        (v_max, id_max), (v_smax, id_smax) = items[0], items[1]
        acc += v_smax
        items[0] = (v_max - v_smax, id_max)
        del items[1]
    residual = items[0][0] if items else 0
    return acc, residual


def capacity_inside_reaches(state, reaches: list[Reach]):
    """Achievable bandwidth inside each reach, plus per-reach residuals.

    Hosts pair on available NIC capacity; every pairing contributes the
    smaller side. Returns (total, {reach id: residual bandwidth}).
    """
    total = 0.0
    residuals: dict[str, float] = {}
    for reach in reaches:
        got, res = _pair_reduce([(nic_free(state, h), h) for h in reach.hosts])
        total += got
        residuals[reach.id] = res
    return total, residuals


def path_bandwidth(t: Topology, reach_i: Reach, reach_j: Reach,
                   link_free: dict | None = None) -> float:
    """Bandwidth between two reaches over link-disjoint shortest paths.

    Each path contributes its bottleneck free capacity; for a tree this is
    the single path's bottleneck. link_free defaults to the topology's own
    link frees.
    """
    if reach_i.id == reach_j.id:
        raise ValueError("reach pair must be distinct")
    if link_free is None:
        link_free = {lid: l.free for lid, l in t.links.items()}
    total = 0.0
    for path in t.reach_paths(reach_i, reach_j):
        total += max(0.0, min(link_free[lid] for lid in path))
    return total / t.reference.link


def _consume_between(t: Topology, reach_i: Reach, reach_j: Reach,
                     link_free: dict, amount: float) -> None:
    """Take `amount` (normalized) off the inter-reach paths, bottleneck first."""
    remaining = amount * t.reference.link
    for path in t.reach_paths(reach_i, reach_j):
        if remaining <= _EPS:
            break
        bottleneck = max(0.0, min(link_free[lid] for lid in path))
        take = min(remaining, bottleneck)
        if take <= _EPS:
            continue
        for lid in path:
            link_free[lid] -= take
        remaining -= take


def reach_distance(t: Topology, reach_i: Reach, reach_j: Reach) -> float:
    """Hop distance between two reaches' boundary switch sets."""
    return min(
        (t.switch_distance(a, b) for a in reach_i.switches for b in reach_j.switches),
        default=float("inf"),
    )


def _walk_between(state, reaches: list[Reach], residuals: dict, fit, unit: float):
    """The reach-pair walk shared by the bandwidth and the count metric.

    Pairs go shortest reach distance first, then most inter-reach bandwidth,
    then smallest id pair; bandwidth is re-read at every step because each
    step consumes path links. Each pair takes step = min(residual_i,
    residual_j, fit(bandwidth)), deducted from both residuals and, times
    `unit`, from the path links. Returns the summed steps.
    """
    t = state.topology
    link_free = dict(state.link_free)
    res = dict(residuals)
    pairs = []
    for i, ri in enumerate(reaches):
        for rj in reaches[i + 1:]:
            dist = reach_distance(t, ri, rj)
            if dist != float("inf"):
                pairs.append((dist, ri, rj))
    total = 0
    while pairs:
        best = None
        for idx, (dist, ri, rj) in enumerate(pairs):
            if best is not None and dist > best[0][0]:
                continue
            bw = path_bandwidth(t, ri, rj, link_free)
            key = (dist, -bw, ri.id, rj.id)
            if best is None or key < best[0]:
                best = (key, idx, bw)
        _, idx, bw = best
        _, ri, rj = pairs.pop(idx)
        step = min(res[ri.id], res[rj.id], fit(bw))
        if step > _EPS:
            total += step
            res[ri.id] -= step
            res[rj.id] -= step
            _consume_between(t, ri, rj, link_free, step * unit)
    return total


def capacity_between_reaches(state, reaches: list[Reach], res_bw: dict) -> float:
    """Achievable bandwidth between reaches, consuming per-reach residuals.

    Walks every reach pair once; each pair contributes
    min(residual_i, residual_j, inter-reach bandwidth).
    """
    return float(_walk_between(state, reaches, res_bw, lambda bw: bw, 1.0))


def capacity_breakdown(state, reaches: list[Reach] | None = None) -> NetworkCapacityBreakdown:
    """Total achievable network capacity split into inside/between components."""
    if reaches is None:
        reaches = find_reaches(state.topology)
    inside, residuals = capacity_inside_reaches(state, reaches)
    between = capacity_between_reaches(state, reaches, residuals)
    return NetworkCapacityBreakdown(inside=inside, between=between,
                                    total=inside + between,
                                    per_reach_residual_bw=residuals)


# -- placeable request counts ----------------------------------------------------


def placeable_inside_reaches(state, reaches: list[Reach], req: MultiRequest):
    """Placeable request pairs inside each reach, plus per-reach residual counts.

    Hosts with NIC headroom below the request's network size drop out; the
    remaining per-host counts (min over nonzero dimensions) pair exactly like
    the bandwidth procedure. Returns (count, {reach id: residual count}).
    """
    if req.nw <= 0:
        raise ValueError("network component of the request must be > 0")
    total = 0
    residuals: dict[str, int] = {}
    for reach in reaches:
        eligible = [h for h in reach.hosts if nic_free(state, h) >= req.nw - _EPS]
        counts = [(_host_multi_count(state, h, req), h) for h in eligible]
        got, res = _pair_reduce(counts)
        total += got
        residuals[reach.id] = res
    return total, residuals


def placeable_between_reaches(state, reaches: list[Reach], res_req: dict,
                              req: MultiRequest) -> int:
    """Placeable request pairs between reaches, consuming residual counts.

    The bandwidth procedure's walk with residual counts in place of residual
    bandwidth; each placed pair consumes its network size along the
    inter-reach paths.
    """
    if req.nw <= 0:
        raise ValueError("network component of the request must be > 0")
    return _walk_between(state, reaches, res_req, lambda bw: fit_count(bw, req.nw), req.nw)


def placeable_in_reach(state, reach: Reach, req: MultiRequest) -> int:
    """Placeable count for a single reach, used to rank reaches by load.

    Pairs counts when the request has a network component; otherwise the
    hosts are independent and the per-host counts simply add up.
    """
    if req.nw > 0:
        count, _ = placeable_inside_reaches(state, [reach], req)
        return count
    if not req.nonzero_dims():
        raise ValueError("request has no nonzero dimensions")
    return sum(_host_multi_count(state, h, req) for h in reach.hosts)


def network_rrf(state, req: MultiRequest, reaches: list[Reach] | None = None) -> RRFReport:
    """Network RRF: achievable capacity vs. placeable multi-requests."""
    if req.nw <= 0:
        raise ValueError("network RRF needs a request with nw > 0")
    if reaches is None:
        reaches = find_reaches(state.topology)
    breakdown = capacity_breakdown(state, reaches)
    count, res_req = placeable_inside_reaches(state, reaches, req)
    count += placeable_between_reaches(state, reaches, res_req, req)
    return RRFReport("nw", breakdown.total, count, _index(breakdown.total, count, req.nw))


# -- brute-force oracle ------------------------------------------------------------


def brute_force_placeable(state, req: MultiRequest, cap: int = 12) -> int:
    """Exact maximum of simultaneously satisfiable requests on tiny instances.

    With a network component, requests are symmetric endpoint pairs on
    distinct hosts; the search enumerates host-pair assignments and reserves
    the routed path exactly. Without one, hosts are independent and each is
    pushed to its limit. Guarded to <= 6 hosts / `cap` placements because the
    search is exponential.
    """
    t = state.topology
    hosts = sorted(state.host_free)
    if len(hosts) > 6:
        raise ValueError(f"oracle limited to 6 hosts, got {len(hosts)}")
    if cap > 12:
        raise ValueError(f"oracle limited to 12 placements, got {cap}")

    if req.nw <= 0:
        if not req.nonzero_dims():
            raise ValueError("request has no nonzero dimensions")
        total = 0
        for h in hosts:
            n = 0
            while True:
                need = n + 1
                if req.cpu > 0 and need * req.cpu > _local_free(state, h, "cpu") + _EPS:
                    break
                if req.mem > 0 and need * req.mem > _local_free(state, h, "mem") + _EPS:
                    break
                n += 1
                if n > 10_000:
                    raise ValueError("request too small for the oracle's search budget")
            total += n
        return total

    ref = t.reference
    cpu = {h: state.host_free[h].cpu / ref.host.cpu for h in hosts}
    mem = {h: state.host_free[h].mem / ref.host.mem for h in hosts}
    link = {lid: bw / ref.link for lid, bw in state.link_free.items()}
    pairs = [(hosts[i], hosts[j])
             for i in range(len(hosts)) for j in range(i + 1, len(hosts))]
    routes = [t.route(a, b) for a, b in pairs]

    def fits(pi: int) -> bool:
        a, b = pairs[pi]
        if req.cpu > 0 and (cpu[a] < req.cpu - _EPS or cpu[b] < req.cpu - _EPS):
            return False
        if req.mem > 0 and (mem[a] < req.mem - _EPS or mem[b] < req.mem - _EPS):
            return False
        return all(link[lid] >= req.nw - _EPS for lid in routes[pi])

    def apply(pi: int, sign: float) -> None:
        a, b = pairs[pi]
        cpu[a] -= sign * req.cpu
        cpu[b] -= sign * req.cpu
        mem[a] -= sign * req.mem
        mem[b] -= sign * req.mem
        for lid in routes[pi]:
            link[lid] -= sign * req.nw

    best = 0

    def upper_bound() -> int:
        caps = []
        for h in hosts:
            per = [fit_count(link[t.hosts[h].uplink], req.nw)]
            if req.cpu > 0:
                per.append(fit_count(cpu[h], req.cpu))
            if req.mem > 0:
                per.append(fit_count(mem[h], req.mem))
            caps.append(min(per))
        return sum(caps) // 2

    def search(start: int, placed: int) -> None:
        nonlocal best
        best = max(best, placed)
        if placed >= cap or placed + upper_bound() <= best:
            return
        for pi in range(start, len(pairs)):
            if fits(pi):
                apply(pi, 1.0)
                search(pi, placed + 1)
                apply(pi, -1.0)

    search(0, 0)
    return best


# -- serialization ------------------------------------------------------------------


def format_record(report, request) -> str:
    """Flat fixed-format record for golden files.

    Columns: resource, size_cpu, size_mem, size_nw, T, N, index.
    """
    if isinstance(request, AllocationRequest):
        sizes = {request.resource: request.size}
        size_cpu = sizes.get("cpu", 0.0)
        size_mem = sizes.get("mem", 0.0)
        size_nw = sizes.get("nw", 0.0)
    else:
        size_cpu, size_mem, size_nw = request.cpu, request.mem, request.nw
    count = report.placeable if isinstance(report, FragmentationReport) else report.placeable_multi
    return (
        f"{report.resource},{size_cpu:.9f},{size_mem:.9f},{size_nw:.9f},"
        f"{report.total_free:.9f},{count},{report.index:.9f}"
    )
