"""Applications (VM sets + traffic matrices): loading, generation, aggregates.

VM demands are absolute (MHz, MB, Mbps); the fabric's one reference host and
link (Topology.reference) normalizes them, passed in by the caller. A VM's
NIC demand always covers the sum of its traffic rows.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import FrozenInstanceError, dataclass
from functools import cached_property
from itertools import combinations

from .metrics import MultiRequest
from .topology import _EPS, Reference, ResourceVector, _entry, _number, _vector


class WorkloadError(Exception):
    """A workload file or generator spec violates the application invariants."""


@dataclass(frozen=True, slots=True)
class VM:
    id: str
    demand: ResourceVector


def traffic_peers(pairs, bws) -> dict[str, dict[str, float]]:
    """Per-VM traffic rows {vm: {peer: Mbps}} of the edges read in step from
    pairs, each (x, y), and bws: a traffic dict and its values(), or an app's
    zip(app._xs, app._ys) and app._bws. VMs without traffic are absent. Each
    VM's peers keep the edges' order, so a sum over them adds the same terms
    in the same order as a scan of the edges."""
    peers: dict[str, dict[str, float]] = {}
    get = peers.get
    for (x, y), bw in zip(pairs, bws):
        row = get(x)
        if row is None:
            row = peers[x] = {}
        row[y] = bw
        row = get(y)
        if row is None:
            row = peers[y] = {}
        row[x] = bw
    return peers


def _row_totals(pairs, bws) -> dict[str, float]:
    """Each VM's traffic total {vm: Mbps}, in one pass over the edges read as
    traffic_peers reads them; VMs without traffic are absent. A VM's terms
    are its traffic_peers row, added left to right from 0 as sum() adds them
    before Python 3.12 (later sum() compensates); the one place a row total
    is summed."""
    totals: dict[str, float] = {}
    get = totals.get
    for (x, y), bw in zip(pairs, bws):
        totals[x] = get(x, 0) + bw
        totals[y] = get(y, 0) + bw
    return totals


class Application:
    """A set of VMs plus the symmetric pairwise bandwidth they exchange; immutable.
    Demands are absolute: the fabric's reference normalizes them.

    Application(id, vms, traffic) takes traffic as a dict {(vm_a, vm_b): Mbps}
    with vm_a < vm_b and keeps each edge once, as three parallel tuples in
    the dict's insertion order: _xs and _ys hold the keys' own end objects
    (for a generated or loaded app, its VMs' id strings), _bws the dict's own
    bandwidth objects. _order lists the positions in sorted key order, the
    order reservations take. Besides id and vms that is all an app holds,
    with total_vm_traffic once read. The traffic property
    rebuilds the dict, equal to the one given and in its order, on each
    read: runtime readers take the tuples. repr and == are those of a frozen
    dataclass over (id, vms, traffic)."""

    def __init__(self, id: str, vms: tuple[VM, ...], traffic: dict):
        keys = list(traffic)
        xs, ys = zip(*keys) if keys else ((), ())
        set_ = object.__setattr__
        set_(self, "id", id)
        set_(self, "vms", vms)
        set_(self, "_xs", xs)
        set_(self, "_ys", ys)
        set_(self, "_bws", tuple(traffic.values()))
        # keys are unique, so sorting positions by key orders them as sorting
        # the items does
        set_(self, "_order", tuple(sorted(range(len(keys)), key=keys.__getitem__)))

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    @property
    def traffic(self) -> dict:
        """{(vm_a, vm_b): Mbps} in insertion order, rebuilt per read."""
        return dict(zip(zip(self._xs, self._ys), self._bws))

    def __repr__(self) -> str:
        return (f"{type(self).__qualname__}(id={self.id!r}, vms={self.vms!r}, "
                f"traffic={self.traffic!r})")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.id, self.vms, self.traffic) == (other.id, other.vms, other.traffic)

    __hash__ = None  # unhashable, as a frozen dataclass holding a dict is

    @cached_property
    def total_vm_traffic(self) -> float:
        """The VMs' row totals summed in VM order (each edge counts twice)."""
        totals = _row_totals(zip(self._xs, self._ys), self._bws)
        return sum(totals.get(v.id, 0) for v in self.vms)


def _edges_by_vm(app: Application) -> dict[str, list[int]]:
    """Each VM's traffic edges as positions into the app's edge tuples, in
    sorted key order (app._order, the order reservations are made in); a VM
    without traffic has an empty list. Built per call: UNIFIED builds the
    table once per attempt."""
    by_vm: dict[str, list[int]] = {v.id: [] for v in app.vms}
    xs, ys = app._xs, app._ys
    for i in app._order:
        by_vm[xs[i]].append(i)
        by_vm[ys[i]].append(i)
    return by_vm


def validate_application(a: Application, reference: Reference) -> None:
    """Raise WorkloadError unless `a` is well formed and fits `reference`.

    In order: VM ids are unique; each edge joins two distinct known VMs,
    stored as (x, y) with x < y, at a finite bandwidth >= 0; each VM's demand
    is finite, at most the reference host's (cpu and mem by ratio, NIC in
    Mbps, within _EPS), and its NIC demand covers its traffic row total."""
    _validate_application(a, reference, _row_totals(zip(a._xs, a._ys), a._bws))


def _validate_application(a: Application, reference: Reference,
                          totals: dict[str, float]) -> None:
    """validate_application, with the app's row totals (_row_totals) that the
    generator and the loader have already built."""
    vms = a.vms
    ids = {v.id for v in vms}
    if len(ids) < len(vms):
        seen = set()
        for v in vms:
            if v.id in seen:
                raise WorkloadError(f"app {a.id}: duplicate VM id {v.id}")
            seen.add(v.id)
    inf = math.inf
    for x, y, bw in zip(a._xs, a._ys, a._bws):
        if not x < y:
            if x == y:
                raise WorkloadError(f"app {a.id}: self-edge on VM {x}")
            raise WorkloadError(f"app {a.id}: edge ({x}, {y}) not stored in canonical order")
        if x not in ids or y not in ids:
            missing = x if x not in ids else y
            raise WorkloadError(f"app {a.id}: edge ({x}, {y}) references unknown VM {missing}")
        if not 0 <= bw < inf:
            raise WorkloadError(
                f"app {a.id}: edge ({x}, {y}) bandwidth {bw} is negative or not finite")
    host = reference.host
    host_cpu, host_mem, nic_cap, ratio_cap = host.cpu, host.mem, host.nic + _EPS, 1 + _EPS
    get = totals.get
    for v in vms:
        d = v.demand
        # NaN fails every comparison, so a NaN or infinite demand fails too
        if not (d.cpu / host_cpu <= ratio_cap and d.mem / host_mem <= ratio_cap
                and d.nic <= nic_cap):
            raise WorkloadError(f"app {a.id}: VM {v.id} demand {d} is not finite "
                                f"or exceeds the reference host")
        rows = get(v.id, 0)
        if d.nic + _EPS < rows:
            raise WorkloadError(
                f"app {a.id}: VM {v.id} NIC demand {d.nic} below its "
                f"traffic total {rows}")


def representative_request(a: Application, reference: Reference) -> MultiRequest:
    """Mean VM demand of the application, normalized by `reference`.

    cpu/mem are means of the normalized demands; nw is the mean per-VM total
    traffic normalized to the reference link. Each is capped at 1: validation
    lets a demand exceed the reference host by rounding, a VM's traffic may
    exceed the link up to the host NIC, and the request only ranks reaches.
    """
    if not a.vms:
        raise WorkloadError(f"app {a.id}: empty application")
    n = len(a.vms)
    cpu = min(1.0, sum(v.demand.cpu for v in a.vms) / n / reference.host.cpu)
    mem = min(1.0, sum(v.demand.mem for v in a.vms) / n / reference.host.mem)
    nw = min(1.0, a.total_vm_traffic / n / reference.link)
    return MultiRequest(cpu=cpu, mem=mem, nw=nw)


# -- synthetic generation --------------------------------------------------------


@dataclass(frozen=True)
class WorkloadSpec:
    """Knobs for one synthetic workload category.

    traffic_density is the probability a VM pair communicates (a spanning
    chain keeps every app connected regardless). demand_noise widens the
    uniform jitter on cpu/mem around the traffic-weighted base; skewed_traffic
    makes a ~10% minority of edges carry the bulk of the bandwidth.
    """

    app_count: int
    vms_per_app: tuple[int, int]
    mean_demand: ResourceVector
    traffic_density: float
    seed: int
    reference: Reference  # sizes and validates the generated VMs
    skewed_traffic: bool = False
    demand_noise: float = 0.25
    traffic_weight: float = 0.5
    traffic_burst: tuple[float, float] | None = None  # (probability, factor)

    def __post_init__(self):
        lo, hi = self.vms_per_app
        if lo < 1 or hi < lo:
            raise WorkloadError(f"bad vms_per_app range {self.vms_per_app}")
        if not 0 <= self.traffic_density <= 1:
            raise WorkloadError(f"traffic_density must be in [0, 1], got {self.traffic_density}")
        if self.app_count < 0:
            raise WorkloadError("app_count must be >= 0")
        if self.traffic_burst is not None:
            prob, factor = self.traffic_burst
            if not 0 < prob < 1 or factor <= 1 or prob * factor >= 1:
                raise WorkloadError(f"bad traffic_burst {self.traffic_burst}")

    def burst_multiplier(self, rng: random.Random) -> float:
        """Per-app traffic scale; heavy-tailed but mean-1 so the category's
        mean per-VM bandwidth stays on target."""
        if self.traffic_burst is None:
            return 1.0
        prob, factor = self.traffic_burst
        low = (1.0 - prob * factor) / (1.0 - prob)
        return factor if rng.random() < prob else low


def generate_workload(spec: WorkloadSpec) -> list[Application]:
    """Seeded, reproducible synthetic applications for one category.

    Edge weights are drawn (heavy-tailed when skewed_traffic), then scaled so
    the mean per-VM traffic matches the spec's mean NIC demand; cpu/mem are a
    weighted blend of the VM's relative traffic and the category mean plus
    seeded uniform noise.
    """
    rng = random.Random(spec.seed)
    # uniform(a, b) is documented as a + (b - a) * random(); the hot draws spell it out
    random_, uniform, density = rng.random, rng.uniform, spec.traffic_density
    mean, host, weight = spec.mean_demand, spec.reference.host, spec.traffic_weight
    mean_cpu, mean_mem, mean_nic = mean.cpu, mean.mem, mean.nic
    lo, hi, keep = 1 - spec.demand_noise, 1 + spec.demand_noise, 1 - weight
    spread = hi - lo
    cpu_lo, cpu_hi = 0.01 * host.cpu, 0.95 * host.cpu
    mem_lo, mem_hi = 0.01 * host.mem, 0.95 * host.mem
    n_lo, n_hi = spec.vms_per_app
    skewed, burst, reference = spec.skewed_traffic, spec.burst_multiplier, spec.reference
    # ids padded to one width (at least 2 digits) sort in index order, so
    # combinations() yields canonical keys at any app size
    width = max(2, len(str(n_hi - 1)))
    suffixes = [f"v{vi:0{width}d}" for vi in range(n_hi)]
    # each VM is built as _vector builds a vector, its slots set directly, at a
    # quarter of the cost of the dataclass __init__
    new_vm, set_id, set_demand = object.__new__, VM.id.__set__, VM.demand.__set__
    apps: list[Application] = []
    for ai in range(spec.app_count):
        app_id = f"app{ai:03d}"
        n = rng.randint(n_lo, n_hi)
        vm_ids = [app_id + s for s in suffixes[:n]]

        raw: dict[tuple[str, str], float] = {}
        if n > 1:
            order = vm_ids[:]
            rng.shuffle(order)
            for x, y in zip(order, order[1:]):
                raw[(x, y) if x < y else (y, x)] = 0.5 + random_()  # uniform(0.5, 1.5)
            for key in combinations(vm_ids, 2):
                if key not in raw and random_() < density:
                    raw[key] = 0.5 + random_()
            if skewed:
                keys = sorted(raw)
                heavy = set(rng.sample(keys, max(1, round(0.1 * len(keys)))))
                for key in keys:
                    raw[key] = uniform(400.0, 2000.0) if key in heavy else uniform(0.2, 1.0)
            target = n * mean_nic / 2.0 * uniform(0.85, 1.15) * burst(rng)
            scale = target / sum(raw.values())
            traffic = {key: w * scale for key, w in raw.items()}
        else:
            traffic = {}

        totals = _row_totals(traffic, traffic.values())
        nics = [totals.get(v, 0) for v in vm_ids]
        mean_row = sum(nics) / n
        vms = []
        append = vms.append
        for v, nic in zip(vm_ids, nics):
            blend = weight * (nic / mean_row if mean_row > 0 else 1.0) + keep
            cpu = mean_cpu * blend * (lo + spread * random_())
            mem = mean_mem * blend * (lo + spread * random_())
            cpu = cpu_lo if cpu < cpu_lo else cpu_hi if cpu > cpu_hi else cpu
            mem = mem_lo if mem < mem_lo else mem_hi if mem > mem_hi else mem
            vm = new_vm(VM)
            set_id(vm, v)
            set_demand(vm, _vector(cpu, mem, nic))
            append(vm)

        app = Application(app_id, tuple(vms), traffic)
        _validate_application(app, reference, totals)
        apps.append(app)
    return apps


# -- file loading -------------------------------------------------------------------


def load_workload(path: str, reference: Reference) -> list[Application]:
    """Load applications from a JSON document (schema documented in the README).

    App ids are unique. Edges are declared once per pair and symmetrized; a
    VM's NIC demand defaults to the sum of its traffic rows when absent.
    """
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise WorkloadError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict) or not isinstance(doc.get("apps"), list):
        raise WorkloadError(f"{path}: missing top-level 'apps' list")

    apps = []
    seen: set[str] = set()
    for ai, rec in enumerate(doc["apps"]):
        where = f"{path}: apps[{ai}]"
        with _entry(where, WorkloadError):
            app_id = str(rec["id"])
            if app_id in seen:
                raise WorkloadError(f"duplicate app id {app_id!r}")
            vm_recs, edge_recs = rec.get("vms", []), rec.get("edges", [])
            if not isinstance(vm_recs, list) or not isinstance(edge_recs, list):
                raise WorkloadError(f"app {app_id}: 'vms' and 'edges' must be lists")
            if not vm_recs:
                raise WorkloadError(f"app {app_id}: no VMs")
        seen.add(app_id)
        for vi, v in enumerate(vm_recs):
            if not isinstance(v, dict):
                raise WorkloadError(f"{where}: vms[{vi}]: expected an object, got {v!r}")

        traffic: dict[tuple[str, str], float] = {}
        # an edge's ends become its VMs' own id strings, so each id is held once
        vm_ids = {i: i for i in (str(v.get("id")) for v in vm_recs)}
        for ei, edge in enumerate(edge_recs):
            with _entry(f"{where}: edges[{ei}]", WorkloadError):
                x, y = str(edge["a"]), str(edge["b"])
                bw = _number(edge, "mbps")
                if x == y:
                    raise WorkloadError(f"self-edge on {x}")
                if x not in vm_ids or y not in vm_ids:
                    raise WorkloadError(f"unknown VM {x if x not in vm_ids else y!r}")
                x, y = vm_ids[x], vm_ids[y]
                key = (x, y) if x < y else (y, x)
                if key in traffic:
                    raise WorkloadError(f"duplicate edge {key}")
                traffic[key] = bw

        totals = _row_totals(traffic, traffic.values())
        vms = []
        for vi, v in enumerate(vm_recs):
            with _entry(f"{where}: vms[{vi}]", WorkloadError):
                vm_id = str(v["id"])
                cpu, mem = _number(v, "cpu_mhz"), _number(v, "mem_mb")
                nic = _number(v, "nic_mbps", totals.get(vm_id, 0))
                vms.append(VM(id=vm_id, demand=ResourceVector(cpu, mem, nic)))

        with _entry(where, WorkloadError):
            app = Application(app_id, tuple(vms), traffic)
            _validate_application(app, reference, totals)
        apps.append(app)
    return apps
