"""Net reduction with token flow graphs.

Reduce a safe Petri net to a smaller one plus linear equations relating the
two markings, compile the equations into a token flow graph, and answer
reachability and concurrency questions on the small net while reading the
answers back on the original.
"""

from tfgkit.conc import (
    IncompleteInputError,
    InconsistentInputError,
    filling_ratio,
    matrix,
    partial_matrix,
)
from tfgkit.net_io import (
    ParseError,
    TaggedEquation,
    parse_equations,
    parse_net,
    parse_pnml,
    write_equations,
    write_net,
)
from tfgkit.petri import (
    Marking,
    PetriNet,
    StateSpace,
    explore,
    fire,
    enabled,
    is_safe,
    oracle_concurrency,
    oracle_reachable,
)
from tfgkit.reach import (
    REACHABLE,
    UNKNOWN,
    UNREACHABLE,
    Analysis,
    ReachVerdict,
    decide,
    partition,
    project,
)
from tfgkit.reductions import (
    ReductionResult,
    ValidationReport,
    build_graph,
    reduce,
    validate_equivalence,
)
from tfgkit.relation import ConcurrencyMatrix
from tfgkit.tfg import (
    NotWellFormedError,
    TokenFlowGraph,
    Violation,
    enumerate_extensions,
    is_well_defined,
)
from tfgkit.tfg import build as build_tfg
from tfgkit.tfg import check as check_tfg

__version__ = "0.1.0"

__all__ = [
    "Analysis",
    "ConcurrencyMatrix",
    "IncompleteInputError",
    "InconsistentInputError",
    "Marking",
    "NotWellFormedError",
    "ParseError",
    "PetriNet",
    "REACHABLE",
    "ReachVerdict",
    "ReductionResult",
    "StateSpace",
    "TaggedEquation",
    "TokenFlowGraph",
    "UNKNOWN",
    "UNREACHABLE",
    "ValidationReport",
    "Violation",
    "build_graph",
    "build_tfg",
    "check_tfg",
    "decide",
    "enabled",
    "enumerate_extensions",
    "explore",
    "filling_ratio",
    "fire",
    "is_safe",
    "is_well_defined",
    "matrix",
    "oracle_concurrency",
    "oracle_reachable",
    "parse_equations",
    "parse_net",
    "parse_pnml",
    "partial_matrix",
    "partition",
    "project",
    "reduce",
    "validate_equivalence",
    "write_equations",
    "write_net",
]
