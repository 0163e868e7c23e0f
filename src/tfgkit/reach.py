"""Marking reachability through a token flow graph.

A query over the original places is projected bottom-up to a unique candidate
marking of the reduced net; when the projection is inconsistent the query is
unreachable outright, otherwise an exhaustive search over the much smaller
reduced net settles it.
"""

from __future__ import annotations

from dataclasses import dataclass

from tfgkit import tfg
from tfgkit.petri import (
    IncompleteStateSpaceError,
    Marking,
    PetriNet,
    StateSpace,
    explore,
)
from tfgkit.reductions import ReductionResult, build_graph

REACHABLE = "reachable"
UNREACHABLE = "unreachable"
UNKNOWN = "unknown"

PROJECTION_FAILED = "projection-failed"
BACKEND_HIT = "backend-hit"
BACKEND_EXHAUSTED = "backend-exhausted"
BACKEND_TRUNCATED = "backend-truncated"


@dataclass(frozen=True)
class ReachVerdict:
    """Answer plus the reason token explaining how it was obtained.

    A failed projection means the target is unreachable from any initial
    marking, so no projected marking is carried.
    """

    answer: str
    reason: str
    projected: Marking | None = None


def project(graph: tfg.TokenFlowGraph, target: Marking) -> Marking | None:
    """Unique reduced-net marking compatible with ``target``, or None.

    ``target`` valuates the original places (absent means zero).  None means
    no total well-defined configuration agrees with the target, which rules
    out reachability regardless of the initial marking.
    """
    stray = target.support() - graph.p1
    if stray:
        raise ValueError(f"target mentions non-places {sorted(stray)}")
    c = tfg.bottom_up(graph, target)
    if not tfg.is_well_defined(graph, c):
        return None
    return tfg.restrict(c, graph.p2)


def decide(
    net: PetriNet,
    m0: Marking,
    target: Marking,
    result: ReductionResult,
    max_states: int = 100_000,
    max_token: int = 1,
) -> ReachVerdict:
    """Decide whether ``target`` is reachable in ``net`` from ``m0``.

    The reduction ``result`` must tie ``net`` to its reduced form; the graph
    built from it is validated here.  A hit in the reduced state space proves
    reachability even when the search was truncated; a miss proves
    unreachability only when the search completed.
    """
    graph = build_graph(net, result)
    projected = project(graph, target)
    if projected is None:
        return ReachVerdict(UNREACHABLE, PROJECTION_FAILED)
    space = explore(
        result.reduced_net,
        result.reduced_marking,
        max_states=max_states,
        max_token=max_token,
    )
    if projected in space:
        return ReachVerdict(REACHABLE, BACKEND_HIT, projected)
    if space.is_complete:
        return ReachVerdict(UNREACHABLE, BACKEND_EXHAUSTED, projected)
    return ReachVerdict(UNKNOWN, BACKEND_TRUNCATED, projected)


def partition(
    graph: tfg.TokenFlowGraph,
    space2: StateSpace,
    bound: int = 1,
) -> list[tuple[Marking, frozenset[Marking]]]:
    """Split the original state space by reduced marking.

    For each reachable reduced marking, the set of original markings whose
    extensions restrict to it.  Over a complete ``space2`` these sets
    partition the original reachable set.
    """
    if not space2.is_complete:
        raise IncompleteStateSpaceError(
            f"partition needs the full reduced space, got {space2.status}"
        )
    out: list[tuple[Marking, frozenset[Marking]]] = []
    for m2 in sorted(space2.markings, key=lambda m: m.items()):
        block = frozenset(
            tfg.restrict(c, graph.p1)
            for c in tfg.enumerate_extensions(graph, m2, bound=bound)
        )
        out.append((m2, block))
    return out
