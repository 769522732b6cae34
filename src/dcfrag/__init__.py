"""dcfrag: data-center placement simulation with multi-resource fragmentation metrics."""

from .harness import (ComparisonResult, ExperimentConfig, ResultRow, compare_schemes,
                      iter_attempts, run_experiment)
from .metrics import (MultiRequest, RRFReport, capacity_between_reaches,
                      capacity_inside_reaches, fragmentation_index, network_rrf,
                      placeable_between_reaches, placeable_inside_reaches, rrf_index_local)
from .placement import (CapacityError, PlacementOutcome, PlacementState, SchemeConfig,
                        bal_pack, best_sibling_reach, place_application,
                        reserve_traffic)
from .topology import (Host, Link, Reach, Reference, ResourceVector, Switch, Topology,
                       TopologyError, build_clos, build_tree, find_boundary_switches,
                       load_topology)
from .workload import (Application, VM, WorkloadError, WorkloadSpec, generate_workload,
                       load_workload, representative_request)

__all__ = (
    "ComparisonResult", "ExperimentConfig", "ResultRow", "compare_schemes", "iter_attempts",
    "run_experiment",
    "MultiRequest", "RRFReport", "capacity_between_reaches", "capacity_inside_reaches",
    "fragmentation_index", "network_rrf", "placeable_between_reaches",
    "placeable_inside_reaches", "rrf_index_local",
    "CapacityError", "PlacementOutcome", "PlacementState", "SchemeConfig", "bal_pack",
    "best_sibling_reach", "place_application", "reserve_traffic",
    "Host", "Link", "Reach", "Reference", "ResourceVector", "Switch", "Topology",
    "TopologyError", "build_clos", "build_tree", "find_boundary_switches", "load_topology",
    "Application", "VM", "WorkloadError", "WorkloadSpec", "generate_workload",
    "load_workload", "representative_request",
)
