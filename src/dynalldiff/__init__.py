"""Finite-domain kernel with a dynamic alldifferent constraint.

A trail-backed variable store, a bipartite value-graph matching layer, an
alldifferent propagator that adopts and retracts variables in LIFO order,
the two dynamization methods behind one interface (adoption in place and
the generic deactivate-and-repost baseline), brute-force oracles, and a
benchmark CLI comparing the two methods' operation counts.
"""

from .alldiff import AdoptingDynamizer, AllDifferent
from .errors import (
    AlreadyInactive,
    DomainWipeout,
    DuplicateVariable,
    EmptyDomain,
    EmptyHistory,
    InactiveConstraint,
    InitFailure,
    KernelError,
    LifoViolation,
    NonLifoPop,
    ParseError,
    TooLarge,
    UncoveredVariable,
    UnknownEdge,
    UnknownSymbol,
    UnknownVariable,
)
from .generic import GenericDynamizer, MonotonicityWitness, check_monotonic
from .matching import (
    Matching,
    OpCounters,
    ValueGraph,
    build_value_graph,
    compute_maximum_matching,
    graph_checksum,
    matching_covering_x,
    remove_edges,
    remove_edges_from_g,
)
from .oracle import (
    all_values_distinct,
    edges_in_some_max_matching,
    enumerate_solutions,
    gac_filter_bruteforce,
    max_matching_bruteforce,
)
from .scenario import (
    Scenario,
    Step,
    format_scenario,
    generate_random_scenario,
    parse_scenario,
)
from .store import CheckpointToken, ConstraintHandle, Store

__all__ = [
    "AdoptingDynamizer",
    "AllDifferent",
    "AlreadyInactive",
    "CheckpointToken",
    "ConstraintHandle",
    "DomainWipeout",
    "DuplicateVariable",
    "EmptyDomain",
    "EmptyHistory",
    "GenericDynamizer",
    "InactiveConstraint",
    "InitFailure",
    "KernelError",
    "LifoViolation",
    "Matching",
    "MonotonicityWitness",
    "NonLifoPop",
    "OpCounters",
    "ParseError",
    "Scenario",
    "Step",
    "Store",
    "TooLarge",
    "UncoveredVariable",
    "UnknownEdge",
    "UnknownSymbol",
    "UnknownVariable",
    "ValueGraph",
    "all_values_distinct",
    "build_value_graph",
    "check_monotonic",
    "compute_maximum_matching",
    "edges_in_some_max_matching",
    "enumerate_solutions",
    "format_scenario",
    "gac_filter_bruteforce",
    "generate_random_scenario",
    "graph_checksum",
    "matching_covering_x",
    "max_matching_bruteforce",
    "parse_scenario",
    "remove_edges",
    "remove_edges_from_g",
]
