"""Finite-domain kernel with a dynamic alldifferent constraint.

A trail-backed variable store, a value-graph matching layer imported from
`dynalldiff.matching`, an alldifferent propagator that adopts and retracts
variables in LIFO order, the two dynamization methods behind one interface
(adoption in place and the generic deactivate-and-repost baseline),
brute-force oracles, and a benchmark CLI comparing the methods' counts.
"""

from .alldiff import AdoptingDynamizer, AllDifferent
from .errors import (
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
from .generic import GenericDynamizer, check_monotonic
from .matching import OpCounters
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
    "all_values_distinct",
    "check_monotonic",
    "edges_in_some_max_matching",
    "enumerate_solutions",
    "format_scenario",
    "gac_filter_bruteforce",
    "generate_random_scenario",
    "max_matching_bruteforce",
    "parse_scenario",
]
