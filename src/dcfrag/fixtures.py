"""Canonical desk-scale fixtures: worked examples and the Table-3 categories.

Everything here is deterministic; the fig3/fig4 fixtures use normalized
units (capacities of 1.0) so metric outputs read directly as fractions.
"""

from __future__ import annotations

from .metrics import MultiRequest
from .placement import PlacementState
from .topology import (Host, Link, Reference, ResourceVector, Switch, Topology,
                       build_clos, build_tree)
from .workload import Application, VM, WorkloadSpec, traffic_peers

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
        "a1": (320.0, 80.0), "a2": (80.0, 500.0),
        "b1": (280.0, 80.0), "b2": (80.0, 450.0),
        "c1": (240.0, 80.0), "c2": (80.0, 400.0),
    }
    traffic = {("a1", "a2"): 600.0, ("b1", "b2"): 550.0, ("c1", "c2"): 500.0}
    peers = traffic_peers(traffic)
    vms = tuple(
        VM(id=v, demand=ResourceVector(cpu, mem, sum(peers[v].values())))
        for v, (cpu, mem) in sorted(demands.items())
    )
    app = Application(id="fig1", vms=vms, traffic=traffic)
    return t, app


# -- Table-3 categories -----------------------------------------------------------

# Calibrated so the experiment regimes mirror the published observations at
# desk scale: category 1 saturates its rack uplinks (deep oversubscription,
# bursty per-app traffic) while cpu stays slack, category 2 is a static
# local-bound workload where all schemes coincide, category 3 mixes both with
# a thin core. Means and ranges follow the dataset table; density, noise,
# burst shape and oversubscription are implementation calibration.
_CATEGORIES = {
    1: dict(
        host=ResourceVector(4000.0, 8192.0, 10000.0), link=10000.0,
        vms_per_app=(2, 14), mean=ResourceVector(400.0, 200.0, 193.0),
        density=0.9, skew=False, noise=0.35, weight=0.5,
        burst=(0.12, 5.0), oversub=32.0,
        rrf=(400.0, 200.0, 200.0), eval_apps=64,
    ),
    2: dict(
        host=ResourceVector(8000.0, 16384.0, 5000.0), link=5000.0,
        vms_per_app=(2, 18), mean=ResourceVector(620.0, 438.0, 225.0),
        density=0.35, skew=True, noise=0.05, weight=0.0,
        burst=None, oversub=4.0,
        rrf=(600.0, 400.0, 200.0), eval_apps=72,
    ),
    3: dict(
        host=ResourceVector(8000.0, 16384.0, 10000.0), link=10000.0,
        vms_per_app=(10, 15), mean=ResourceVector(500.0, 700.0, 100.0),
        density=0.5, skew=False, noise=0.35, weight=0.5,
        burst=(0.1, 6.0), oversub=96.0,
        rrf=(500.0, 700.0, 200.0), eval_apps=64,
    ),
}


def category_topology(category: int) -> Topology:
    """64-host topology for one experiment category: an oversubscribed tree
    for category 1, a core-oversubscribed CLOS for categories 2 and 3."""
    return _category_fabric(category, 64)


def _category_fabric(category: int, hosts: int) -> Topology:
    """The category's fabric at `hosts` hosts, with its host, link and
    oversubscription: category 1's tree in racks of 4, the others' CLOS in
    pods of 16. `hosts` must be a multiple of the rack or pod size and at
    least two of them, so no size is rounded down."""
    params = _require_category(category)
    step = 4 if category == 1 else 16
    if hosts < 2 * step or hosts % step:
        raise ValueError(f"category {category} needs a multiple of {step} hosts, "
                         f"at least {2 * step}; got {hosts}")
    if category == 1:
        return build_tree(num_tors=hosts // 4, hosts_per_tor=4, host_capacity=params["host"],
                          link_capacity=params["link"], oversub_ratio=params["oversub"])
    return build_clos(pods=hosts // 16, hosts_per_edge=4, edges_per_pod=4,
                      host_capacity=params["host"], link_capacity=params["link"],
                      core_oversub=params["oversub"])


def category_spec(category: int, app_count: int, seed: int) -> WorkloadSpec:
    params = _require_category(category)
    return WorkloadSpec(
        app_count=app_count,
        vms_per_app=params["vms_per_app"],
        mean_demand=params["mean"],
        traffic_density=params["density"],
        seed=seed,
        reference=Reference(host=params["host"], link=params["link"]),
        skewed_traffic=params["skew"],
        demand_noise=params["noise"],
        traffic_weight=params["weight"],
        traffic_burst=params["burst"],
    )


def category_eval_apps(category: int) -> int:
    """Offered-application count used by the category evaluation runs."""
    return _require_category(category)["eval_apps"]


def category_rrf_request(category: int) -> MultiRequest:
    params = _require_category(category)
    cpu, mem, nw = params["rrf"]
    return MultiRequest(cpu=cpu / params["host"].cpu, mem=mem / params["host"].mem,
                        nw=nw / params["link"])


def _require_category(category: int) -> dict:
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

