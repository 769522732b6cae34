"""Canonical desk-scale fixtures: worked examples and the Table-3 categories.

Everything here is deterministic; the fig3/fig4 fixtures use normalized
units (capacities of 1.0) so metric outputs read directly as fractions.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .metrics import MultiRequest
from .placement import PlacementState
from .topology import (Host, Link, Reference, ResourceVector, Switch, Topology,
                       build_clos, build_tree)
from .workload import VM, Application, WorkloadSpec

UNIT = ResourceVector(1.0, 1.0, 1.0)
UNIT_REF = Reference(host=UNIT, link=1.0)


def fig3_state() -> PlacementState:
    """Three partially loaded hosts on one switch, plus a fully used fourth.

    Memory frees {0.2, 0.5, 0.5, 0} with CPU frees {0.35, 0.6, 0.3, 0}: one
    multirequest of (cpu 0.4, mem 0.25) fits, four memory-only requests of
    0.25 do.
    """
    return PlacementState(fig3_like_topology())


def fig3_like_topology() -> Topology:
    """Loader-grade variant of the fig3 hosts: a fourth, fully used host keeps
    the rack even without changing any metric value."""
    frees = [(0.35, 0.2), (0.6, 0.5), (0.3, 0.5), (0.0, 0.0)]
    hosts = [
        Host(id=f"h{i + 1}", capacity=UNIT, free=ResourceVector(cpu, mem, 1.0))
        for i, (cpu, mem) in enumerate(frees)
    ]
    switches = [Switch(id="s1", level=0)]
    links = [Link(id=f"{h.id}-s1", a=h.id, b="s1", capacity=1.0, free=1.0) for h in hosts]
    return Topology(hosts, switches, links, UNIT_REF)


def fig4_topology() -> Topology:
    """Two oversubscribed TORs over four hosts with partial utilization.

    Host-link frees {0.8, 0.3, 0.75, 0.25}, TOR uplinks at 0.5 free each,
    hosts with 0.4 cpu/mem free: reproduces the worked network capacity of
    0.3 + 0.25 + 0.5 = 1.05 and three placeable (0.2, 0.2, 0.2) requests.
    """
    nic_frees = {"h1": 0.8, "h2": 0.3, "h3": 0.75, "h4": 0.25}
    hosts = [
        Host(id=h, capacity=UNIT, free=ResourceVector(0.4, 0.4, free))
        for h, free in nic_frees.items()
    ]
    switches = [Switch(id="s1", level=0), Switch(id="s2", level=0), Switch(id="s3", level=1)]
    links = [
        Link(id="h1-s1", a="h1", b="s1", capacity=1.0, free=0.8),
        Link(id="h2-s1", a="h2", b="s1", capacity=1.0, free=0.3),
        Link(id="h3-s2", a="h3", b="s2", capacity=1.0, free=0.75),
        Link(id="h4-s2", a="h4", b="s2", capacity=1.0, free=0.25),
        Link(id="s1-s3", a="s1", b="s3", capacity=1.0, free=0.5),
        Link(id="s2-s3", a="s2", b="s3", capacity=1.0, free=0.5),
    ]
    return Topology(hosts, switches, links, UNIT_REF)


def fig4_state() -> PlacementState:
    return PlacementState(fig4_topology())


FIG4_REQUEST = MultiRequest(cpu=0.2, mem=0.2, nw=0.2)


def fig1_instance() -> tuple[Topology, Application]:
    """Two hosts, three communicating VM pairs, a narrow inter-host path.

    Constructed so the three schemes diverge: dominant-dimension FFD strands
    the communicating pairs on opposite hosts and overdraws the 600 Mbps
    path, bandwidth-greedy co-location overdraws a host's memory, while the
    balanced packer keeps two pairs whole and splits only the lightest one.
    The exhaustive placement oracle certifies a valid plan exists.
    """
    cap = ResourceVector(1000.0, 1000.0, 3000.0)
    hosts = [Host(id=h, capacity=cap, free=cap) for h in ("h1", "h2")]
    switches = [Switch(id="s1", level=0)]
    links = [
        Link(id="h1-s1", a="h1", b="s1", capacity=600.0, free=600.0),
        Link(id="h2-s1", a="h2", b="s1", capacity=600.0, free=600.0),
    ]
    t = Topology(hosts, switches, links, Reference(host=cap, link=600.0))

    demands = {
        "a1": (320.0, 80.0, 600.0), "a2": (80.0, 500.0, 600.0),
        "b1": (280.0, 80.0, 550.0), "b2": (80.0, 450.0, 550.0),
        "c1": (240.0, 80.0, 500.0), "c2": (80.0, 400.0, 500.0),
    }
    traffic = {("a1", "a2"): 600.0, ("b1", "b2"): 550.0, ("c1", "c2"): 500.0}
    # each VM has one edge, so its NIC demand is that edge's bandwidth
    vms = tuple(
        VM(id=v, demand=ResourceVector(cpu, mem, bw))
        for v, (cpu, mem, bw) in sorted(demands.items())
    )
    return t, Application(id="fig1", vms=vms, traffic=traffic)


# -- Table-3 categories -----------------------------------------------------------

@dataclass(frozen=True)
class _Category:
    spec: WorkloadSpec  # with app_count and seed 0
    oversub: float  # the fabric's oversubscription
    rrf: tuple[float, float, float]  # the RRF request in MHz, MB and Mbps
    eval_apps: int  # offered applications of the evaluation runs


# Calibrated so the experiment regimes mirror the published observations at
# desk scale: category 1 saturates its rack uplinks (deep oversubscription,
# bursty per-app traffic) while cpu stays slack, category 2 is a static
# local-bound workload where all schemes coincide, category 3 mixes both with
# a thin core. Means and ranges follow the dataset table; density, noise,
# burst shape and oversubscription are implementation calibration.
_CATEGORIES = {
    1: _Category(WorkloadSpec(
        app_count=0, seed=0, reference=Reference(ResourceVector(4000.0, 8192.0, 10000.0), 10000.0),
        vms_per_app=(2, 14), mean_demand=ResourceVector(400.0, 200.0, 193.0), traffic_density=0.9,
        skewed_traffic=False, demand_noise=0.35, traffic_weight=0.5, traffic_burst=(0.12, 5.0)),
        oversub=32.0, rrf=(400.0, 200.0, 200.0), eval_apps=64),
    2: _Category(WorkloadSpec(
        app_count=0, seed=0, reference=Reference(ResourceVector(8000.0, 16384.0, 5000.0), 5000.0),
        vms_per_app=(2, 18), mean_demand=ResourceVector(620.0, 438.0, 225.0), traffic_density=0.35,
        skewed_traffic=True, demand_noise=0.05, traffic_weight=0.0, traffic_burst=None),
        oversub=4.0, rrf=(600.0, 400.0, 200.0), eval_apps=72),
    3: _Category(WorkloadSpec(
        app_count=0, seed=0, reference=Reference(ResourceVector(8000.0, 16384.0, 10000.0), 10000.0),
        vms_per_app=(10, 15), mean_demand=ResourceVector(500.0, 700.0, 100.0), traffic_density=0.5,
        skewed_traffic=False, demand_noise=0.35, traffic_weight=0.5, traffic_burst=(0.1, 6.0)),
        oversub=96.0, rrf=(500.0, 700.0, 200.0), eval_apps=64),
}


def category_topology(category: int, hosts: int = 64) -> Topology:
    """The category's fabric at `hosts` hosts: category 1's oversubscribed tree
    in racks of 4, the core-oversubscribed CLOS of categories 2 and 3 in pods
    of 16. `hosts` must be an even count of racks or pods, so no size is rounded
    down: any other size raises ValueError. 64 hosts is the built-in fabric."""
    cat = _require_category(category)
    step, unit = (4, "racks") if category == 1 else (16, "pods")
    if hosts < 2 * step or hosts % (2 * step):
        raise ValueError(f"category {category} needs a multiple of {step} hosts that makes an "
                         f"even count of {unit}, at least {2 * step}; got {hosts}")
    ref = cat.spec.reference
    if category == 1:
        return build_tree(num_tors=hosts // 4, hosts_per_tor=4, host_capacity=ref.host,
                          link_capacity=ref.link, oversub_ratio=cat.oversub)
    return build_clos(pods=hosts // 16, hosts_per_edge=4, edges_per_pod=4,
                      host_capacity=ref.host, link_capacity=ref.link, core_oversub=cat.oversub)


def category_spec(category: int, app_count: int, seed: int) -> WorkloadSpec:
    return replace(_require_category(category).spec, app_count=app_count, seed=seed)


def category_eval_apps(category: int) -> int:
    """Offered-application count used by the category evaluation runs."""
    return _require_category(category).eval_apps


def category_rrf_request(category: int) -> MultiRequest:
    cat = _require_category(category)
    (cpu, mem, nw), ref = cat.rrf, cat.spec.reference
    return MultiRequest(cpu=cpu / ref.host.cpu, mem=mem / ref.host.mem, nw=nw / ref.link)


def _require_category(category: int) -> _Category:
    if category not in _CATEGORIES:
        raise ValueError(f"unknown category {category}; expected 1, 2 or 3")
    return _CATEGORIES[category]


# name -> builder of each built-in topology, in the order the CLI lists them
NAMED_TOPOLOGIES = {
    "fig4": fig4_topology,
    "fig3-like": fig3_like_topology,
    "tree64": lambda: category_topology(1),
    "clos64-5g": lambda: category_topology(2),
    "clos64-10g": lambda: category_topology(3),
}

