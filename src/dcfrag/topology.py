"""Data-center topology model: hosts, switches, links and the reach partition.

A topology is a leveled graph of hosts (degree 1) and switches. Switches
beyond which the uplinks are oversubscribed are "boundary switches"; the
hosts below a set of boundary switches that share them form a "reach", a
subgraph with full bisection bandwidth inside which communicating endpoints
never contend for fabric links.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass

_EPS = 1e-9


class TopologyError(Exception):
    """A topology violates the structural assumptions of the model."""


@dataclass(frozen=True)
class ResourceVector:
    """A (cpu, mem, nic) triple; units are absolute unless stated otherwise."""

    cpu: float
    mem: float
    nic: float

    def __post_init__(self):
        # tolerate float dust from ledger arithmetic, reject real negatives
        for name in ("cpu", "mem", "nic"):
            value = getattr(self, name)
            if value < -1e-6:
                raise ValueError(f"resource components must be >= 0, got {self}")
            if value < 0:
                object.__setattr__(self, name, 0.0)

    def __add__(self, other: "ResourceVector") -> "ResourceVector":
        return ResourceVector(self.cpu + other.cpu, self.mem + other.mem, self.nic + other.nic)

    def __sub__(self, other: "ResourceVector") -> "ResourceVector":
        return ResourceVector(self.cpu - other.cpu, self.mem - other.mem, self.nic - other.nic)

    def scaled(self, factor: float) -> "ResourceVector":
        return ResourceVector(self.cpu * factor, self.mem * factor, self.nic * factor)

    def normalized(self, ref: "ResourceVector") -> "ResourceVector":
        return ResourceVector(self.cpu / ref.cpu, self.mem / ref.mem, self.nic / ref.nic)

    def fits_within(self, other: "ResourceVector", tol: float = _EPS) -> bool:
        return (
            self.cpu <= other.cpu + tol
            and self.mem <= other.mem + tol
            and self.nic <= other.nic + tol
        )

    def get(self, kind: str) -> float:
        if kind not in ("cpu", "mem", "nic"):
            raise ValueError(f"unknown resource kind {kind!r}")
        return getattr(self, kind)


@dataclass(frozen=True)
class Reference:
    """Capacities requests are normalized against: a reference host and link."""

    host: ResourceVector
    link: float


@dataclass
class Host:
    id: str
    capacity: ResourceVector
    free: ResourceVector
    uplink: str = ""

    def __post_init__(self):
        if not self.free.fits_within(self.capacity):
            raise TopologyError(f"host {self.id}: free {self.free} exceeds capacity {self.capacity}")


@dataclass
class Switch:
    id: str
    level: int
    is_boundary: bool = False
    boundary_override: bool | None = None

    def __post_init__(self):
        if self.level < 0:
            raise TopologyError(f"switch {self.id}: level must be >= 0")


@dataclass
class Link:
    id: str
    a: str
    b: str
    capacity: float
    free: float

    def __post_init__(self):
        if self.capacity <= 0:
            raise TopologyError(f"link {self.id}: capacity must be > 0")
        if self.free < -_EPS or self.free > self.capacity + _EPS:
            raise TopologyError(f"link {self.id}: free {self.free} outside [0, {self.capacity}]")

    def other(self, node: str) -> str:
        return self.b if node == self.a else self.a


@dataclass(frozen=True)
class Reach:
    """A full-bisection subgraph: its hosts plus the boundary switches above them."""

    id: str
    hosts: tuple[str, ...]
    switches: tuple[str, ...]


class Topology:
    """Immutable-after-construction view of the data-center graph."""

    def __init__(self, hosts: list[Host], switches: list[Switch], links: list[Link],
                 reference: Reference):
        self.hosts: dict[str, Host] = {h.id: h for h in hosts}
        self.switches: dict[str, Switch] = {s.id: s for s in switches}
        self.links: dict[str, Link] = {l.id: l for l in links}
        self.reference = reference
        if len(self.hosts) != len(hosts) or len(self.switches) != len(switches):
            raise TopologyError("duplicate node ids")
        if len(self.links) != len(links):
            raise TopologyError("duplicate link ids")
        overlap = set(self.hosts) & set(self.switches)
        if overlap:
            raise TopologyError(f"ids used for both host and switch: {sorted(overlap)}")
        adj: dict[str, list[str]] = {n: [] for n in list(self.hosts) + list(self.switches)}
        for l in links:
            for end in (l.a, l.b):
                if end not in adj:
                    raise TopologyError(f"link {l.id}: unknown endpoint {end!r}")
            adj[l.a].append(l.id)
            adj[l.b].append(l.id)
        self.adjacency = {n: tuple(sorted(ids)) for n, ids in adj.items()}
        for h in hosts:
            up = [lid for lid in self.adjacency[h.id]]
            if len(up) == 1:
                h.uplink = up[0]
        # lazy caches; safe because the graph never changes after construction
        self._route_cache: dict[tuple[str, str], tuple[str, ...]] = {}
        self._switch_dist: dict[str, dict[str, int]] | None = None
        self._reach_paths: dict[tuple[str, str], tuple[tuple[str, ...], ...]] = {}

    # -- basic queries ------------------------------------------------------

    def is_host(self, node: str) -> bool:
        return node in self.hosts

    def level_of(self, node: str) -> int:
        if node in self.switches:
            return self.switches[node].level
        return -1  # hosts sit below the TOR tier

    def neighbors(self, node: str):
        for lid in self.adjacency.get(node, ()):
            yield self.links[lid].other(node), lid

    def host_uplink(self, host_id: str) -> Link:
        return self.links[self.hosts[host_id].uplink]

    # -- structural validation ---------------------------------------------

    def validate(self) -> None:
        """Check connectivity, host degree and leveling; raise TopologyError."""
        if not self.hosts:
            raise TopologyError("topology has no hosts")
        for h in self.hosts.values():
            deg = len(self.adjacency[h.id])
            if deg != 1:
                raise TopologyError(f"host {h.id} has degree {deg}, expected exactly 1")
            peer = self.links[h.uplink].other(h.id)
            if peer not in self.switches or self.switches[peer].level != 0:
                raise TopologyError(f"host {h.id} must attach to a level-0 switch")
        for l in self.links.values():
            la, lb = self.level_of(l.a), self.level_of(l.b)
            if abs(la - lb) != 1:
                raise TopologyError(f"link {l.id} joins non-adjacent levels {la} and {lb}")
        seen = set()
        frontier = deque([next(iter(self.hosts))])
        while frontier:
            node = frontier.popleft()
            if node in seen:
                continue
            seen.add(node)
            for peer, _ in self.neighbors(node):
                if peer not in seen:
                    frontier.append(peer)
        missing = (set(self.hosts) | set(self.switches)) - seen
        if missing:
            raise TopologyError(f"topology is disconnected; unreachable: {sorted(missing)}")

    # -- parent chains and boundary detection --------------------------------

    def parent_chain(self, host_id: str) -> set[str]:
        """All switches reachable from the host along strictly upward links."""
        chain: set[str] = set()
        frontier = deque([self.links[self.hosts[host_id].uplink].other(host_id)])
        while frontier:
            node = frontier.popleft()
            if node in chain:
                continue
            chain.add(node)
            lvl = self.level_of(node)
            for peer, _ in self.neighbors(node):
                if not self.is_host(peer) and self.level_of(peer) == lvl + 1:
                    frontier.append(peer)
        return chain

    # -- path utilities -------------------------------------------------------

    def switch_distance(self, a: str, b: str) -> float:
        """Hop count between two switches over the switch-only graph."""
        if self._switch_dist is None:
            dist_all: dict[str, dict[str, int]] = {}
            for src in self.switches:
                dist = {src: 0}
                frontier = deque([src])
                while frontier:
                    node = frontier.popleft()
                    for peer, _ in self.neighbors(node):
                        if peer in self.switches and peer not in dist:
                            dist[peer] = dist[node] + 1
                            frontier.append(peer)
                dist_all[src] = dist
            self._switch_dist = dist_all
        return self._switch_dist[a].get(b, float("inf"))

    def route(self, host_a: str, host_b: str,
              link_free: dict | None = None) -> tuple[str, ...]:
        """Deterministic shortest path between two hosts, as a tuple of link ids.

        Without link_free, hop count decides and ties break on node ids (the
        result is cached). With link_free, equal-length candidates are ranked
        by bottleneck free capacity first (widest-shortest), then node ids:
        on multipath fabrics this spreads routed reservations across the
        equal-cost middle switches instead of stacking them on one.
        """
        if host_a == host_b:
            raise ValueError("route endpoints must differ")
        key = (host_a, host_b) if host_a < host_b else (host_b, host_a)
        if link_free is None:
            cached = self._route_cache.get(key)
            if cached is None:
                cached = self._best_path(key[0], key[1], None)
                self._route_cache[key] = cached
            return cached
        return self._best_path(key[0], key[1], link_free)

    def _best_path(self, src: str, dst: str, link_free: dict | None) -> tuple[str, ...]:
        # BFS by level; per node keep (bottleneck desc, parent id asc) best entry
        best: dict[str, tuple[float, str, str]] = {src: (float("inf"), "", "")}
        frontier = [src]
        while frontier and dst not in best:
            layer: dict[str, tuple[float, str, str]] = {}
            for node in sorted(frontier):
                width = best[node][0]
                for peer, lid in self.neighbors(node):
                    if peer in best:
                        continue
                    free = float("inf") if link_free is None else link_free.get(lid, 0.0)
                    entry = (min(width, free), node, lid)
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

    def reach_paths(self, reach_a: Reach, reach_b: Reach) -> tuple[tuple[str, ...], ...]:
        """Link-disjoint shortest paths between two reaches' boundary switches.

        Computed once on the full-capacity graph and cached; callers evaluate
        current bottlenecks against their own residual link maps.
        """
        if reach_a.id == reach_b.id:
            raise ValueError("reach pair must be distinct")
        key = (reach_a.id, reach_b.id) if reach_a.id < reach_b.id else (reach_b.id, reach_a.id)
        cached = self._reach_paths.get(key)
        if cached is None:
            ra, rb = (reach_a, reach_b) if reach_a.id < reach_b.id else (reach_b, reach_a)
            srcs, dsts = set(ra.switches), set(rb.switches)
            blocked: set[str] = set()
            paths: list[tuple[str, ...]] = []
            min_len = None
            while True:
                found = self._switch_set_path(srcs, dsts, blocked)
                if found is None:
                    break
                if min_len is None:
                    min_len = len(found)
                elif len(found) > min_len:
                    break
                paths.append(found)
                blocked.update(found)
            cached = tuple(paths)
            self._reach_paths[key] = cached
        return cached

    def _switch_set_path(self, srcs: set[str], dsts: set[str],
                         blocked: set[str]) -> tuple[str, ...] | None:
        parent: dict[str, tuple[str, str] | None] = {s: None for s in sorted(srcs)}
        frontier = deque(sorted(srcs))
        goal = None
        while frontier:
            node = frontier.popleft()
            if node in dsts:
                goal = node
                break
            for peer, lid in sorted(self.neighbors(node)):
                if peer in self.switches and peer not in parent and lid not in blocked:
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


# -- boundary switches and reaches -------------------------------------------


def find_boundary_switches(t: Topology) -> set[str]:
    """Switches beyond which the fabric is oversubscribed.

    A switch is oversubscribed when its aggregate uplink capacity is smaller
    than its aggregate downlink capacity (top-tier switches, having no
    uplinks, count as oversubscribed). A switch is boundary when it is
    oversubscribed and nothing below it is, i.e. it sits on the highest
    non-oversubscribed frontier. A per-switch boundary_override wins.
    """
    oversub: dict[str, bool] = {}
    down_switches: dict[str, list[str]] = {}
    for s in t.switches.values():
        up_cap = 0.0
        down_cap = 0.0
        downs = []
        for peer, lid in t.neighbors(s.id):
            cap = t.links[lid].capacity
            if t.level_of(peer) > s.level:
                up_cap += cap
            else:
                down_cap += cap
                if not t.is_host(peer):
                    downs.append(peer)
        oversub[s.id] = down_cap > up_cap + _EPS
        down_switches[s.id] = downs

    oversub_below: dict[str, bool] = {}

    def below(sid: str) -> bool:
        if sid not in oversub_below:
            oversub_below[sid] = any(oversub[c] or below(c) for c in down_switches[sid])
        return oversub_below[sid]

    boundary = set()
    for s in t.switches.values():
        if s.boundary_override is not None:
            flagged = s.boundary_override
        else:
            flagged = oversub[s.id] and not below(s.id)
        if flagged:
            boundary.add(s.id)
    return boundary


def find_reaches(t: Topology) -> list[Reach]:
    """Partition hosts into reaches built from shared boundary switches.

    For each unvisited boundary switch s: collect the hosts H having s in
    their parent chain, collect the same-level parent-chain switches P of H,
    emit the reach (H, P) and mark P visited. Reaches are ordered and
    identified by their smallest host id.
    """
    boundary = find_boundary_switches(t)
    chains = {h: t.parent_chain(h) for h in t.hosts}
    visited: set[str] = set()
    raw: list[tuple[set[str], set[str]]] = []
    for s in sorted(boundary):
        if s in visited:
            continue
        level = t.switches[s].level
        members = {h for h, chain in chains.items() if s in chain}
        if not members:
            raise TopologyError(f"boundary switch {s} has no hosts below it")
        parents = {p for h in members for p in chains[h] if t.switches[p].level == level}
        raw.append((members, parents))
        visited |= parents

    covered: set[str] = set()
    for members, _ in raw:
        clash = covered & members
        if clash:
            raise TopologyError(f"hosts {sorted(clash)} fall into more than one reach")
        covered |= members
    orphans = set(t.hosts) - covered
    if orphans:
        raise TopologyError(
            f"hosts {sorted(orphans)} have no boundary switch in their parent chain")

    raw.sort(key=lambda pair: min(pair[0]))
    return [
        Reach(id=f"r{i}", hosts=tuple(sorted(members)), switches=tuple(sorted(parents)))
        for i, (members, parents) in enumerate(raw)
    ]


# -- canonical builders -------------------------------------------------------


def _pad(i: int, total: int) -> str:
    return f"{i:0{len(str(max(total - 1, 1)))}d}"


def build_tree(num_tors: int, hosts_per_tor: int, host_capacity: ResourceVector,
               link_capacity: float, oversub_ratio: float = 1.0) -> Topology:
    """Simple two-tier tree: TORs over hosts, one core over the TORs.

    TOR uplinks carry link_capacity * hosts_per_tor / oversub_ratio, so any
    oversub_ratio > 1 makes every TOR a boundary switch.
    """
    if num_tors < 2 or num_tors % 2 != 0:
        raise TopologyError(f"num_tors must be even and >= 2, got {num_tors}")
    if hosts_per_tor < 2 or hosts_per_tor % 2 != 0:
        raise TopologyError(f"hosts_per_tor must be even and >= 2, got {hosts_per_tor}")
    if oversub_ratio < 1.0:
        raise TopologyError(f"oversub_ratio must be >= 1, got {oversub_ratio}")

    total_hosts = num_tors * hosts_per_tor
    hosts, switches, links = [], [], []
    core = Switch(id="core", level=1)
    switches.append(core)
    uplink_cap = link_capacity * hosts_per_tor / oversub_ratio
    for ti in range(num_tors):
        tor = Switch(id=f"t{_pad(ti, num_tors)}", level=0)
        switches.append(tor)
        links.append(Link(id=f"{tor.id}-core", a=tor.id, b="core",
                          capacity=uplink_cap, free=uplink_cap))
        for hi in range(hosts_per_tor):
            hid = f"h{_pad(ti * hosts_per_tor + hi, total_hosts)}"
            hosts.append(Host(id=hid, capacity=host_capacity, free=host_capacity))
            links.append(Link(id=f"{hid}-{tor.id}", a=hid, b=tor.id,
                              capacity=link_capacity, free=link_capacity))

    t = Topology(hosts, switches, links, Reference(host=host_capacity, link=link_capacity))
    t.validate()
    _bake_boundary_flags(t)
    return t


def build_clos(pods: int, hosts_per_edge: int, edges_per_pod: int,
               host_capacity: ResourceVector, link_capacity: float,
               core_oversub: float = 1.0) -> Topology:
    """Three-tier leveled CLOS: edge (TOR), aggregation, core.

    Edge uplinks preserve full bisection toward the aggregation tier;
    core_oversub > 1 shrinks the aggregation-to-core links, which makes every
    aggregation switch a boundary switch and every pod a reach. With
    core_oversub == 1 nothing below the core is oversubscribed and the whole
    topology is a single reach.
    """
    if pods < 2 or pods % 2 != 0:
        raise TopologyError(f"pods must be even and >= 2, got {pods}")
    if hosts_per_edge < 2 or hosts_per_edge % 2 != 0:
        raise TopologyError(f"hosts_per_edge must be even and >= 2, got {hosts_per_edge}")
    if edges_per_pod < 2 or edges_per_pod % 2 != 0:
        raise TopologyError(f"edges_per_pod must be even and >= 2, got {edges_per_pod}")
    if core_oversub < 1.0:
        raise TopologyError(f"core_oversub must be >= 1, got {core_oversub}")

    aggs_per_pod = edges_per_pod
    total_hosts = pods * edges_per_pod * hosts_per_edge
    edge_agg_cap = link_capacity * hosts_per_edge / aggs_per_pod
    agg_core_cap = edge_agg_cap * edges_per_pod / core_oversub

    hosts, switches, links = [], [], []
    cores = [Switch(id=f"c{_pad(i, aggs_per_pod)}", level=2) for i in range(aggs_per_pod)]
    switches.extend(cores)
    hid = 0
    for p in range(pods):
        pp = _pad(p, pods)
        aggs = [Switch(id=f"a{pp}_{_pad(i, aggs_per_pod)}", level=1)
                for i in range(aggs_per_pod)]
        edges = [Switch(id=f"e{pp}_{_pad(i, edges_per_pod)}", level=0)
                 for i in range(edges_per_pod)]
        switches.extend(aggs + edges)
        for i, agg in enumerate(aggs):
            links.append(Link(id=f"{agg.id}-{cores[i].id}", a=agg.id, b=cores[i].id,
                              capacity=agg_core_cap, free=agg_core_cap))
            for edge in edges:
                links.append(Link(id=f"{edge.id}-{agg.id}", a=edge.id, b=agg.id,
                                  capacity=edge_agg_cap, free=edge_agg_cap))
        for edge in edges:
            for _ in range(hosts_per_edge):
                h = f"h{_pad(hid, total_hosts)}"
                hid += 1
                hosts.append(Host(id=h, capacity=host_capacity, free=host_capacity))
                links.append(Link(id=f"{h}-{edge.id}", a=h, b=edge.id,
                                  capacity=link_capacity, free=link_capacity))

    t = Topology(hosts, switches, links, Reference(host=host_capacity, link=link_capacity))
    t.validate()
    _bake_boundary_flags(t)
    return t


def _bake_boundary_flags(t: Topology) -> None:
    flagged = find_boundary_switches(t)
    for s in t.switches.values():
        s.is_boundary = s.id in flagged


# -- file loading --------------------------------------------------------------


def load_topology(path: str) -> Topology:
    """Load a topology from a JSON document (schema documented in the README).

    All capacities in the file are absolute (MHz, MB, Mbps); requests are
    normalized against the declared reference host and link at metric time.
    Structural assumptions are enforced here: every host on exactly one
    level-0 switch, an even number of hosts per TOR.
    """
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise TopologyError(f"{path}: not valid JSON ({exc})") from exc

    for key in ("reference_host", "reference_link_mbps", "hosts", "switches", "links"):
        if key not in doc:
            raise TopologyError(f"{path}: missing required field {key!r}")
    ref_host = doc["reference_host"]
    try:
        reference = Reference(
            host=ResourceVector(float(ref_host["cpu_mhz"]), float(ref_host["mem_mb"]),
                                float(ref_host["nic_mbps"])),
            link=float(doc["reference_link_mbps"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise TopologyError(f"{path}: bad reference_host/reference_link_mbps ({exc})") from exc

    switches = []
    for i, rec in enumerate(doc["switches"]):
        try:
            switches.append(Switch(id=str(rec["id"]), level=int(rec["level"]),
                                   boundary_override=rec.get("boundary_override")))
        except (KeyError, TypeError, ValueError) as exc:
            raise TopologyError(f"{path}: switches[{i}]: {exc}") from exc

    links = []
    for i, rec in enumerate(doc["links"]):
        try:
            cap = float(rec["capacity_mbps"])
            free = float(rec.get("free_mbps", cap))
            a, b = str(rec["a"]), str(rec["b"])
            links.append(Link(id=rec.get("id", f"{a}-{b}"), a=a, b=b, capacity=cap, free=free))
        except TopologyError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise TopologyError(f"{path}: links[{i}]: {exc}") from exc

    known = {s.id for s in switches} | {str(rec.get("id")) for rec in doc["hosts"]}
    for i, l in enumerate(links):
        for end in (l.a, l.b):
            if end not in known:
                raise TopologyError(f"{path}: links[{i}]: unknown endpoint {end!r}")

    link_by_end: dict[str, list[Link]] = {}
    for l in links:
        link_by_end.setdefault(l.a, []).append(l)
        link_by_end.setdefault(l.b, []).append(l)

    hosts = []
    for i, rec in enumerate(doc["hosts"]):
        try:
            hid = str(rec["id"])
            attached = link_by_end.get(hid, [])
            if len(attached) != 1:
                raise TopologyError(
                    f"{path}: hosts[{i}] ({hid}): host must have exactly one link, "
                    f"found {len(attached)}")
            nic_cap = float(rec.get("nic_mbps", attached[0].capacity))
            cap = ResourceVector(float(rec["cpu_mhz"]), float(rec["mem_mb"]), nic_cap)
            free = ResourceVector(
                float(rec.get("free_cpu_mhz", cap.cpu)),
                float(rec.get("free_mem_mb", cap.mem)),
                float(rec.get("free_nic_mbps", nic_cap)),
            )
            hosts.append(Host(id=hid, capacity=cap, free=free))
        except TopologyError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise TopologyError(f"{path}: hosts[{i}]: {exc}") from exc

    t = Topology(hosts, switches, links, reference)
    t.validate()
    per_tor: dict[str, int] = {}
    for h in hosts:
        tor = t.links[h.uplink].other(h.id)
        per_tor[tor] = per_tor.get(tor, 0) + 1
    odd = sorted(tor for tor, n in per_tor.items() if n % 2 != 0)
    if odd:
        raise TopologyError(
            f"{path}: TORs {odd} have an odd number of hosts; the reach procedures "
            f"require even racks")
    _bake_boundary_flags(t)
    return t
