"""Data-center topology model: hosts, switches, links and the reach partition.

A topology is a leveled graph of hosts (degree 1) and switches. Switches
beyond which the uplinks are oversubscribed are "boundary switches"; the
hosts below a set of boundary switches that share them form a "reach", a
subgraph with full bisection bandwidth inside which communicating endpoints
never contend for fabric links.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

_EPS = 1e-9


class TopologyError(Exception):
    """A topology violates the structural assumptions of the model."""


@dataclass(frozen=True, slots=True, init=False)
class ResourceVector:
    """A (cpu, mem, nic) triple; units are absolute unless stated otherwise."""

    cpu: float
    mem: float
    nic: float

    def __init__(self, cpu: float, mem: float, nic: float):
        # the slots are set through their descriptors, at about 0.6 of the
        # cost of the frozen dataclass __init__ and its object.__setattr__ calls
        _set_cpu(self, cpu)
        _set_mem(self, mem)
        _set_nic(self, nic)
        # tolerate float dust from ledger arithmetic, reject real negatives
        if cpu < 0 or mem < 0 or nic < 0:
            for value, set_ in ((cpu, _set_cpu), (mem, _set_mem), (nic, _set_nic)):
                if value < -1e-6:
                    raise ValueError(f"resource components must be >= 0, got {self}")
                if value < 0:
                    set_(self, 0.0)


_set_cpu = ResourceVector.cpu.__set__
_set_mem = ResourceVector.mem.__set__
_set_nic = ResourceVector.nic.__set__


@dataclass(frozen=True)
class Reference:
    """Capacities requests are normalized against: a reference host and link."""

    host: ResourceVector
    link: float

    def __post_init__(self):
        # written so that NaN fails both checks
        if not all(0 < v < math.inf for v in (self.host.cpu, self.host.mem, self.host.nic)):
            raise TopologyError(f"reference_host {self.host} must be finite and > 0")
        if not 0 < self.link < math.inf:
            raise TopologyError(f"reference_link_mbps must be finite and > 0, got {self.link}")


@dataclass
class Host:
    id: str
    capacity: ResourceVector
    free: ResourceVector

    def __post_init__(self):
        cap, free, finite = self.capacity, self.free, math.isfinite
        if not (finite(cap.cpu) and finite(cap.mem) and finite(cap.nic)
                and finite(free.cpu) and finite(free.mem) and finite(free.nic)):
            raise TopologyError(f"host {self.id}: capacity {cap} and free "
                                f"{free} must be finite")
        for dim, value in (("cpu", cap.cpu), ("mem", cap.mem), ("nic", cap.nic)):
            if value <= 0:
                raise TopologyError(f"host {self.id}: {dim} capacity {value} must be > 0")
        if free.cpu > cap.cpu + _EPS or free.mem > cap.mem + _EPS or free.nic > cap.nic + _EPS:
            raise TopologyError(f"host {self.id}: free {free} exceeds capacity {cap}")


@dataclass
class Switch:
    id: str
    level: int
    boundary_override: bool | None = None

    def __post_init__(self):
        # bool is an int, and any non-empty string is truthy
        if isinstance(self.level, bool) or not isinstance(self.level, int) or self.level < 0:
            raise TopologyError(f"switch {self.id}: level must be an integer >= 0, "
                                f"got {self.level!r}")
        if self.boundary_override is not None and not isinstance(self.boundary_override, bool):
            raise TopologyError(f"switch {self.id}: boundary_override must be true, false "
                                f"or null, got {self.boundary_override!r}")


@dataclass
class Link:
    id: str
    a: str
    b: str
    capacity: float
    free: float

    def __post_init__(self):
        # written so that NaN fails both checks
        if not 0 < self.capacity < math.inf:
            raise TopologyError(f"link {self.id}: capacity {self.capacity} must be finite and > 0")
        if not -_EPS <= self.free <= self.capacity + _EPS:
            raise TopologyError(f"link {self.id}: free {self.free} outside [0, {self.capacity}]")


@dataclass(frozen=True)
class Reach:
    """A full-bisection subgraph: its hosts plus the boundary switches above them."""

    id: str
    hosts: tuple[str, ...]
    switches: tuple[str, ...]


class ReachPair(NamedTuple):
    """One row of Topology.reach_pairs: reaches i < j (indices into
    Topology.reaches), the pair's distance and reach_paths, and the row's
    rank in the table's (distance, id_i, id_j) order."""

    distance: int
    rank: int
    i: int
    j: int
    paths: tuple[tuple[str, ...], ...]


class Topology:
    """Immutable-after-construction view of the data-center graph.

    Construction raises TopologyError unless the fabric has hosts, every host
    has one link, to a level-0 switch, every link joins adjacent levels and
    the graph is connected. The constructor writes nothing into the hosts,
    switches and links it is given. A switch's links are in adjacency, as
    (peer, link id) pairs in sorted order, and a host's one link is in
    host_ports alone.
    """

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
        ends: dict[str, list[tuple[str, str]]] = {n: [] for n in [*self.hosts, *self.switches]}
        for l in links:
            for end in (l.a, l.b):
                if end not in ends:
                    raise TopologyError(f"link {l.id}: unknown endpoint {end!r}")
            ends[l.a].append((l.b, l.id))
            ends[l.b].append((l.a, l.id))
        # switch id -> its (peer, link id) pairs, sorted: every search's order
        self.adjacency: dict[str, tuple[tuple[str, str], ...]] = {
            s: tuple(sorted(ends[s])) for s in self.switches}
        if not self.hosts:
            raise TopologyError("topology has no hosts")
        # host id -> (its uplink, its TOR)
        self.host_ports: dict[str, tuple[str, str]] = {}
        for h in hosts:
            deg = len(ends[h.id])
            if deg != 1:
                raise TopologyError(f"host {h.id} has degree {deg}, expected exactly 1")
            (tor, uplink), = ends[h.id]
            if tor not in self.switches or self.switches[tor].level != 0:
                raise TopologyError(f"host {h.id} must attach to a level-0 switch")
            self.host_ports[h.id] = (uplink, tor)
        for l in links:
            la, lb = self.level_of(l.a), self.level_of(l.b)
            if abs(la - lb) != 1:
                raise TopologyError(f"link {l.id} joins non-adjacent levels {la} and {lb}")
        # lazy caches; safe because the graph never changes after construction
        self._dags: dict[tuple[str, str],
                         tuple[tuple[tuple[int, tuple[str, ...]], ...], ...]] = {}
        self._reach_paths: dict[tuple[str, str], tuple[tuple[str, ...], ...]] = {}
        self._source_depths: dict[tuple[str, ...], dict[str, int]] = {}
        # hosts are leaves on level-0 switches: a host is reached with its TOR
        seen = self._layers((self.host_ports[hosts[0].id][1],))
        missing = ([s for s in self.switches if s not in seen]
                   + [h for h, (_, tor) in self.host_ports.items() if tor not in seen])
        if missing:
            raise TopologyError(f"topology is disconnected; unreachable: {sorted(missing)}")
        # switch id -> sorted hosts reachable by descending links, built
        # bottom-up: a switch's hosts plus those of its switches one level down
        below: dict[str, set[str]] = {}
        for s in sorted(switches, key=lambda s: s.level):
            below[s.id] = set()
            for peer, _ in self.adjacency[s.id]:
                if peer in self.hosts:
                    below[s.id].add(peer)
                elif self.switches[peer].level == s.level - 1:
                    below[s.id] |= below[peer]
        self.hosts_below: dict[str, tuple[str, ...]] = {
            sid: tuple(sorted(hs)) for sid, hs in below.items()}
        # host id -> the switches whose hosts_below hold it, in switch order
        above: dict[str, list[str]] = {h: [] for h in self.hosts}
        for sid, hs in self.hosts_below.items():
            for h in hs:
                above[h].append(sid)
        self.switches_above: dict[str, tuple[str, ...]] = {
            h: tuple(ss) for h, ss in above.items()}
        # switch id -> its links to higher-level switches, in link id order
        self.switch_uplinks: dict[str, tuple[str, ...]] = {
            s.id: tuple(sorted(lid for peer, lid in self.adjacency[s.id]
                               if peer in self.switches and self.switches[peer].level > s.level))
            for s in switches}
        self.host_ids: tuple[str, ...] = tuple(sorted(self.hosts))
        # NETW's scan units: each host, then each switch subtree in (level, id)
        # order, once; a CLOS pod's aggregation switches share one, as do the cores
        self.subtrees: tuple[tuple[str, ...], ...] = tuple(dict.fromkeys(
            [(h,) for h in self.host_ids]
            + [self.hosts_below[s.id] for s in sorted(switches, key=lambda s: (s.level, s.id))]))

    # -- basic queries ------------------------------------------------------

    def level_of(self, node: str) -> int:
        if node in self.switches:
            return self.switches[node].level
        return -1  # hosts sit below the TOR tier

    # -- path utilities -------------------------------------------------------

    def _layers(self, srcs: tuple[str, ...]) -> dict[str, int]:
        """The hop depth of each switch reached from srcs over switch-to-switch
        links, by one full breadth-first search, cached per source tuple."""
        depth = self._source_depths.get(srcs)
        if depth is None:
            depth = self._source_depths[srcs] = dict.fromkeys(srcs, 0)
            frontier = list(depth)
            d = 0
            while frontier:
                d += 1
                nxt = []
                for node in frontier:
                    for peer, _ in self.adjacency[node]:
                        if peer not in depth and peer in self.switches:
                            depth[peer] = d
                            nxt.append(peer)
                frontier = nxt
        return depth

    def route(self, host_a: str, host_b: str,
              link_free: dict) -> tuple[tuple[str, ...], float]:
        """Deterministic widest-shortest path between two hosts, as link ids,
        and its bottleneck: the smallest link_free value on the path.

        The path runs from the smaller host id: its uplink, a shortest path
        between the two TORs, the other host's uplink. Among equal-length
        TOR paths each node keeps the predecessor link of widest bottleneck
        (free capacity from link_free), ties to the smallest predecessor id,
        then its first such link. On multipath fabrics this spreads routed
        reservations across the equal-cost middle switches instead of
        stacking them on one. The bottleneck is the one the search kept for
        the path, so it equals min(link_free[l] for l in path) exactly.
        One dynamic program over the TOR pair's compiled DAG serves every
        pair: the one-node DAGs of build_tree and build_clos and the empty
        DAG of two hosts on one TOR included.
        """
        if host_a == host_b:
            raise ValueError("route endpoints must differ")
        src, dst = (host_a, host_b) if host_a < host_b else (host_b, host_a)
        up_src, tor_src = self.host_ports[src]
        up_dst, tor_dst = self.host_ports[dst]
        width, last = link_free[up_src], link_free[up_dst]
        dag = self._dags.get((tor_src, tor_dst))
        if dag is None:
            dag = self._compiled_dag(tor_src, tor_dst)  # () when the two are one TOR
        widths = [width]  # by kept node index; tor_src is 0
        paths = [()]  # the links from tor_src to each kept node
        held = width  # the bottleneck so far, all of it when dag is empty
        for preds in dag:
            held = None
            for parent, links in preds:
                w = widths[parent]
                for lid in links:
                    f = link_free[lid]
                    if f < w:
                        w = f
                if held is None or w > held:
                    held, via, chain = w, parent, links
            widths.append(held)
            paths.append(paths[via] + chain)
        return (up_src, *paths[-1], up_dst), (last if last < held else held)

    def _compiled_dag(self, tor_a: str, tor_b: str
                      ) -> tuple[tuple[tuple[int, tuple[str, ...]], ...], ...]:
        """The shortest tor_a -> tor_b paths as a DAG in index form, stored in
        self._dags for route, the cache's one reader, which calls this on a miss.

        Nodes are numbered in BFS layer order, ids ascending within a layer:
        tor_a is 0 and tor_b the last. A node's (parent, link) pairs are in
        adjacency order: parents by id, then links by id. A node with one
        pair, other than tor_b, is folded into its successors: a successor's
        pair from it becomes the folded node's own pair with the successor's
        link appended. So every pair is (kept parent index, link tuple), and
        a folded node that feeds two successors has its chain copied into
        both. Entry k - 1 lists kept node k's pairs in the order of the
        unfolded pairs. Empty when the two are one TOR. On build_tree and
        build_clos fabrics only tor_b is kept.
        """
        depth = self._layers((tor_a,))
        # walk back from tor_b one layer at a time, collecting each
        # node's predecessors and the links from them
        layers = [[tor_b]]
        preds: dict[str, list[tuple[str, str]]] = {}
        while layers[-1] != [tor_a]:
            for node in layers[-1]:
                preds[node] = [(peer, lid) for peer, lid in self.adjacency[node]
                               if depth.get(peer) == depth[node] - 1]
            layers.append(sorted({peer for node in layers[-1] for peer, _ in preds[node]}))
        # node -> (kept node index, links from that node to it): a kept
        # node's own index and no links, a folded node's one pair
        via: dict[str, tuple[int, tuple[str, ...]]] = {tor_a: (0, ())}
        entries = []
        for layer in reversed(layers[:-1]):
            for node in layer:
                pairs = tuple((via[peer][0], via[peer][1] + (lid,))
                              for peer, lid in preds[node])
                if len(pairs) == 1 and node != tor_b:
                    via[node] = pairs[0]
                else:
                    entries.append(pairs)
                    via[node] = (len(entries), ())
        dag = self._dags[tor_a, tor_b] = tuple(entries)
        return dag

    def reach_paths(self, reach_a: Reach, reach_b: Reach) -> tuple[tuple[str, ...], ...]:
        """Link-disjoint shortest paths between two reaches' boundary switches.

        Paths run over switch-to-switch links from the smaller reach id's
        switches, found one at a time until no shortest path avoids the links
        already taken. Each walks down the layers of one breadth-first search
        from the sources in Reach.switches order (sorted), kept for every
        pair with those sources: a node tries its adjacency pairs in order,
        the first node to discover a peer is its parent, and the path ends at
        the first destination discovered in the last layer, that of the
        nearest destinations. Computed once on the full-capacity graph and
        cached; callers evaluate current bottlenecks against their own
        residual link maps.
        """
        if reach_a.id == reach_b.id:
            raise ValueError("reach pair must be distinct")
        key = (reach_a.id, reach_b.id) if reach_a.id < reach_b.id else (reach_b.id, reach_a.id)
        cached = self._reach_paths.get(key)
        if cached is None:
            ra, rb = (reach_a, reach_b) if reach_a.id < reach_b.id else (reach_b, reach_a)
            srcs, dsts = ra.switches, set(rb.switches)
            shared = [s for s in srcs if s in dsts]
            if shared:  # the empty path would be found forever
                raise ValueError(f"reaches {ra.id} and {rb.id} share switches {shared}")
            # a shortest path visits each switch at its depth in the full
            # graph, so taking links never moves a later path off these layers
            depth = self._layers(srcs)
            last = min(depth[d] for d in dsts)
            taken: set[str] = set()
            paths: list[tuple[str, ...]] = []
            while True:
                parent: dict[str, tuple[str, str] | None] = dict.fromkeys(srcs)
                layer = srcs
                for d in range(1, last):
                    nxt = []
                    for node in layer:
                        for peer, lid in self.adjacency[node]:
                            if depth.get(peer) == d and peer not in parent and lid not in taken:
                                parent[peer] = (node, lid)
                                nxt.append(peer)
                    layer = nxt
                # the last layer stops at the first destination it discovers;
                # a peer of this layer is at most `last` deep, and no
                # destination is less deep, so any destination peer qualifies
                end = next(((node, lid) for node in layer for peer, lid in self.adjacency[node]
                            if peer in dsts and lid not in taken), None)
                if end is None:
                    break
                node, lid = end
                path = [lid]
                while parent[node] is not None:
                    node, lid = parent[node]
                    path.append(lid)
                paths.append(tuple(reversed(path)))
                taken.update(path)
            cached = tuple(paths)
            self._reach_paths[key] = cached
        return cached

    @cached_property
    def reaches(self) -> tuple[Reach, ...]:
        """Partition hosts into reaches built from shared boundary switches,
        computed once; a partition that fails raises again on the next read.

        For each unvisited boundary switch s: take the hosts H below s, collect
        the same-level switches P with hosts in H, emit the reach (H, P) and mark
        P visited. Reaches are ordered and identified by their smallest host id.
        """
        boundary = find_boundary_switches(self)
        visited: set[str] = set()
        raw: list[tuple[set[str], set[str]]] = []
        for s in sorted(boundary):
            if s in visited:
                continue
            level = self.switches[s].level
            members = set(self.hosts_below[s])
            if not members:
                raise TopologyError(f"boundary switch {s} has no hosts below it")
            parents = {p for h in members for p in self.switches_above[h]
                       if self.switches[p].level == level}
            raw.append((members, parents))
            visited |= parents

        covered: set[str] = set()
        claimed: set[str] = set()
        for members, parents in raw:
            clash = covered & members
            if clash:
                raise TopologyError(f"hosts {sorted(clash)} fall into more than one reach")
            shared = claimed & parents
            if shared:
                raise TopologyError(f"switches {sorted(shared)} fall into more than one reach")
            covered |= members
            claimed |= parents
        orphans = set(self.hosts) - covered
        if orphans:
            raise TopologyError(
                f"hosts {sorted(orphans)} have no boundary switch above them")

        raw.sort(key=lambda pair: min(pair[0]))
        return tuple(
            Reach(id=f"r{i}", hosts=tuple(sorted(members)), switches=tuple(sorted(parents)))
            for i, (members, parents) in enumerate(raw))

    @cached_property
    def reach_pairs(self) -> tuple[ReachPair, ...]:
        """One row per reach pair, sorted by (distance, id_i, id_j) with the
        ids compared as strings ("r10" < "r2"), computed on first use. A
        pair's distance is the length of its first reach path; hosts are
        leaves of a connected fabric, so the switches alone connect every
        pair. The order is the RRF walk's initial heap order, and a row's
        rank breaks ties the way its id pair does."""
        reaches = self.reaches
        rows = []
        for i, ri in enumerate(reaches):
            for j in range(i + 1, len(reaches)):
                paths = self.reach_paths(ri, reaches[j])
                rows.append((len(paths[0]), ri.id, reaches[j].id, i, j, paths))
        rows.sort()  # the id pair is unique, so no later field is compared
        return tuple(ReachPair(d, rank, i, j, paths)
                     for rank, (d, _, _, i, j, paths) in enumerate(rows))


# -- boundary switches and reaches -------------------------------------------


def find_boundary_switches(t: Topology) -> set[str]:
    """Switches beyond which the fabric is oversubscribed.

    A switch is oversubscribed when its aggregate uplink capacity is smaller
    than its aggregate downlink capacity (top-tier switches, having no
    uplinks, count as oversubscribed). A switch is boundary when it is
    oversubscribed and nothing below it is, i.e. it sits on the highest
    non-oversubscribed frontier. A per-switch boundary_override wins.
    """
    boundary: set[str] = set()
    tainted: set[str] = set()  # switches with an oversubscribed switch below them
    for s in sorted(t.switches.values(), key=lambda s: s.level):
        ups = t.switch_uplinks[s.id]
        downs = sorted(lid for _, lid in t.adjacency[s.id] if lid not in ups)
        # both sums run in link id order, as ups does
        up_cap = sum(t.links[lid].capacity for lid in ups)
        down_cap = sum(t.links[lid].capacity for lid in downs)
        oversub = down_cap > up_cap + _EPS
        if s.boundary_override is not None:
            flagged = s.boundary_override
        else:
            flagged = oversub and s.id not in tainted
        if flagged:
            boundary.add(s.id)
        if oversub or s.id in tainted:
            tainted.update(peer for peer, lid in t.adjacency[s.id] if lid in ups)
    return boundary


def find_reaches(t: Topology) -> list[Reach]:
    """The reach partition of t (Topology.reaches) as a new list; the
    partition itself is computed once per topology."""
    return list(t.reaches)


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

    return Topology(hosts, switches, links, Reference(host=host_capacity, link=link_capacity))


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

    return Topology(hosts, switches, links, Reference(host=host_capacity, link=link_capacity))


# -- file loading --------------------------------------------------------------


@contextmanager
def _entry(where: str, error: type[Exception] = TopologyError):
    """Read one file entry: a KeyError, TypeError, ValueError or error raised
    inside, by the reading or by a model constructor, is re-raised as
    error("<where>: <message>")."""
    try:
        yield
    except (KeyError, TypeError, ValueError, error) as exc:
        detail = f"missing field {exc}" if isinstance(exc, KeyError) else exc
        raise error(f"{where}: {detail}") from exc


def _number(rec: dict, key: str, default: float | None = None) -> float:
    """rec[key] as a float, or default when key is absent and a default is
    given. Only a JSON number is a number: not a boolean, nor a string
    such as "4000"."""
    value = rec[key] if default is None else rec.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{key} must be a number, got {value!r}")
    return float(value)


def load_topology(path: str) -> Topology:
    """Load a topology from a JSON document (schema documented in the README).

    All capacities in the file are absolute (MHz, MB, Mbps); requests are
    normalized against the declared reference host and link at metric time.
    Every entry is read through _entry, so each error, the model types' own
    checks included, reads "<path>: <list>[i]: <object> <id>: <problem>".
    Numeric fields take JSON numbers only, not booleans or quoted numbers
    (NaN and Infinity parse, and the model types refuse them). Beyond the
    model types' checks, a link end must be a host or switch of the file, a
    host needs exactly one link, and every TOR must hold an even number of
    hosts.
    """
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise TopologyError(f"{path}: not valid JSON ({exc})") from exc

    if not isinstance(doc, dict):
        raise TopologyError(f"{path}: expected a JSON object at the top level")
    for key in ("reference_host", "reference_link_mbps", "hosts", "switches", "links"):
        if key not in doc:
            raise TopologyError(f"{path}: missing required field {key!r}")
    for key in ("hosts", "switches", "links"):
        if not isinstance(doc[key], list):
            raise TopologyError(f"{path}: {key!r} must be a list")
    for i, rec in enumerate(doc["hosts"]):
        if not isinstance(rec, dict):
            raise TopologyError(f"{path}: hosts[{i}]: expected an object, got {rec!r}")
    with _entry(path):
        ref_host = doc["reference_host"]
        reference = Reference(
            host=ResourceVector(_number(ref_host, "cpu_mhz"), _number(ref_host, "mem_mb"),
                                _number(ref_host, "nic_mbps")),
            link=_number(doc, "reference_link_mbps"))

    switches = []
    for i, rec in enumerate(doc["switches"]):
        with _entry(f"{path}: switches[{i}]"):
            level = rec["level"]
            if isinstance(level, float) and level.is_integer():
                level = int(level)
            switches.append(Switch(id=str(rec["id"]), level=level,
                                   boundary_override=rec.get("boundary_override")))

    known = {s.id for s in switches} | {str(rec.get("id")) for rec in doc["hosts"]}
    links = []
    for i, rec in enumerate(doc["links"]):
        with _entry(f"{path}: links[{i}]"):
            a, b = str(rec["a"]), str(rec["b"])
            lid = rec.get("id", f"{a}-{b}")
            if isinstance(lid, bool) or not isinstance(lid, (str, int, float)):
                raise TopologyError(f"link {a}-{b}: id must be a string or a number, "
                                    f"got {lid!r}")
            cap = _number(rec, "capacity_mbps")
            links.append(Link(id=str(lid), a=a, b=b, capacity=cap,
                              free=_number(rec, "free_mbps", cap)))
            for end in (a, b):
                if end not in known:
                    raise TopologyError(f"link {lid}: unknown endpoint {end!r}")

    link_by_end: dict[str, list[Link]] = {}
    for l in links:
        link_by_end.setdefault(l.a, []).append(l)
        link_by_end.setdefault(l.b, []).append(l)

    hosts = []
    for i, rec in enumerate(doc["hosts"]):
        with _entry(f"{path}: hosts[{i}]"):
            hid = str(rec["id"])
            attached = link_by_end.get(hid, [])
            if len(attached) != 1:
                raise TopologyError(f"host {hid}: must have exactly one link, "
                                    f"found {len(attached)}")
            nic_cap = _number(rec, "nic_mbps", attached[0].capacity)
            cap = ResourceVector(_number(rec, "cpu_mhz"), _number(rec, "mem_mb"), nic_cap)
            free = ResourceVector(_number(rec, "free_cpu_mhz", cap.cpu),
                                  _number(rec, "free_mem_mb", cap.mem),
                                  _number(rec, "free_nic_mbps", nic_cap))
            hosts.append(Host(id=hid, capacity=cap, free=free))

    with _entry(path):
        t = Topology(hosts, switches, links, reference)
        per_tor: dict[str, int] = {}
        for _, tor in t.host_ports.values():
            per_tor[tor] = per_tor.get(tor, 0) + 1
        odd = sorted(tor for tor, n in per_tor.items() if n % 2 != 0)
        if odd:
            raise TopologyError(f"TORs {odd} have an odd number of hosts; the reach "
                                f"procedures require even racks")
    return t
