"""Marking reachability through a token flow graph.

A query over the original places is projected bottom-up to a unique candidate
marking of the reduced net; when the projection is inconsistent the query is
unreachable outright.  Otherwise the reduced net's state equation may refute
the candidate without any search, and if it does not, a breadth-first search
over the much smaller reduced net settles it, stopping as soon as it stores
the candidate.  Each verdict carries a reason token naming the step that
settled it.  :class:`Analysis` keeps one net's graph, state equation and
reduced state space across queries.  :func:`partition` reads the original
state space off the reduced one, and :func:`validate_equivalence` certifies
a reduction with :func:`project` and :func:`partition` against both explored
spaces.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import cached_property

from tfgkit import tfg
from tfgkit.petri import (
    IncompleteStateSpaceError,
    Marking,
    PetriNet,
    StateEquation,
    StateSpace,
    explore,
    truncated,
)
from tfgkit.reductions import ReductionResult, build_graph, reduce

REACHABLE = "reachable"
UNREACHABLE = "unreachable"
UNKNOWN = "unknown"

PROJECTION_FAILED = "projection-failed"
STATE_EQUATION = "state-equation"
BACKEND_HIT = "backend-hit"
BACKEND_EXHAUSTED = "backend-exhausted"
BACKEND_TRUNCATED = "backend-truncated"

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of an exhaustive equivalence check.

    On failure, ``condition`` names the broken requirement (A1: every
    reachable marking extends through the equations; A2: the initial markings
    extend to one common configuration; A3: a configuration compatible with
    both nets is reachable on either both sides or neither) and ``witness``
    holds the offending marking, of either net, as its marked places with
    their counts.
    """

    valid: bool
    condition: str | None = None
    witness: dict[str, int] | None = None
    detail: str = ""
    n1_markings: int = 0
    n2_markings: int = 0


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


class Analysis:
    """One net's reduction (``reduce`` runs when no ``result`` is given),
    plus its validated ``graph``, the reduced net's ``state_equation`` and
    the reduced state space ``space2`` explored within the limits, each
    built on first use and then kept.

    :meth:`decide` answers from the cheapest sound source: the projection,
    then the state equation, then ``space2`` if it is known.  Otherwise it
    runs one search that stops at the projected target, once per analysis;
    a search that misses its target is the full exploration and becomes
    ``space2``.  So an analysis explores at most once to a target and once
    in full."""

    def __init__(self, net: PetriNet, m0: Marking, result: ReductionResult | None = None,
                 max_states: int = 100_000, max_token: int = 1):
        self.net = net
        self.m0 = m0
        self.result = reduce(net, m0) if result is None else result
        self.max_states = max_states
        self.max_token = max_token
        self._space2: StateSpace | None = None
        self._goal_searched = False

    @cached_property
    def graph(self) -> tfg.TokenFlowGraph:
        return build_graph(self.net, self.result)

    @cached_property
    def state_equation(self) -> StateEquation:
        return StateEquation(self.result.reduced_net, self.result.reduced_marking)

    @property
    def space2(self) -> StateSpace:
        if self._space2 is None:
            self._space2 = self._explore(None)
        return self._space2

    def _explore(self, goal: Marking | None) -> StateSpace:
        return explore(self.result.reduced_net, self.result.reduced_marking,
                       max_states=self.max_states, max_token=self.max_token, goal=goal)

    def _search(self, goal: Marking) -> StateSpace:
        """``space2`` if known; else, on the first call only, a search that
        stops at ``goal``."""
        if self._space2 is not None or self._goal_searched:
            return self.space2
        self._goal_searched = True
        space = self._explore(goal)
        if space.status != truncated("goal"):
            self._space2 = space
        return space

    def decide(self, target: Marking) -> ReachVerdict:
        """Decide whether ``target`` is reachable in ``net`` from ``m0``.

        A hit in the reduced state space proves reachability even when the
        search was truncated; a miss proves unreachability only when the
        search completed.
        """
        projected = project(self.graph, target)
        if projected is None:
            log.debug("decide settled by projection: no reduced marking")
            return ReachVerdict(UNREACHABLE, PROJECTION_FAILED)
        if not self.state_equation.admits(projected):
            log.debug("decide settled by state equation: %r", projected)
            return ReachVerdict(UNREACHABLE, STATE_EQUATION, projected)
        space = self._search(projected)
        if projected in space:
            verdict = ReachVerdict(REACHABLE, BACKEND_HIT, projected)
        elif space.is_complete:
            verdict = ReachVerdict(UNREACHABLE, BACKEND_EXHAUSTED, projected)
        else:
            verdict = ReachVerdict(UNKNOWN, BACKEND_TRUNCATED, projected)
        log.debug("decide settled by search (%s): %r among %d stored reduced states, %s",
                  verdict.reason, projected, len(space), space.status)
        return verdict


def decide(
    net: PetriNet,
    m0: Marking,
    target: Marking,
    result: ReductionResult,
    max_states: int = 100_000,
    max_token: int = 1,
) -> ReachVerdict:
    """One-shot :meth:`Analysis.decide`.  ``result`` must tie ``net`` to its
    reduced form; the graph and state equation are built and the reduced
    net searched for this one query."""
    return Analysis(net, m0, result, max_states, max_token).decide(target)


def partition(
    graph: tfg.TokenFlowGraph,
    space2: StateSpace,
) -> list[tuple[Marking, frozenset[Marking]]]:
    """Split the original state space by reduced marking.

    For each reachable reduced marking, the set of original markings whose
    extensions restrict to it, read off :func:`tfg.enumerate_extensions`.
    Over a complete ``space2`` these sets partition the original reachable
    set.
    """
    if not space2.is_complete:
        raise IncompleteStateSpaceError(
            f"partition needs the full reduced space, got {space2.status}"
        )
    out: list[tuple[Marking, frozenset[Marking]]] = []
    for m2 in sorted(space2.markings, key=lambda m: m.items()):
        block = frozenset(
            tfg.restrict(c, graph.p1)
            for c in tfg.enumerate_extensions(graph, m2)
        )
        out.append((m2, block))
    return out


def validate_equivalence(
    net: PetriNet,
    m0: Marking,
    result: ReductionResult,
    max_states: int = 100_000,
    max_token: int = 1,
) -> ValidationReport:
    """Certify the reduction by exhausting both state spaces.

    Checks that every reachable marking of the input net projects to a
    reachable reduced marking, that every reachable reduced marking extends
    to input markings that are all reachable, and that ``m0`` projects to the
    reduced initial marking.  Raises :class:`IncompleteStateSpaceError` when
    either exploration hits a limit, since a truncated check would certify
    nothing.
    """
    analysis = Analysis(net, m0, result, max_states, max_token)
    graph = analysis.graph
    space1 = explore(net, m0, max_states=max_states, max_token=max_token)
    space2 = analysis.space2
    for space in (space1, space2):
        if not space.is_complete:
            raise IncompleteStateSpaceError(space.status)
    counts = dict(n1_markings=len(space1), n2_markings=len(space2))

    def fail(condition: str, witness: Marking, detail: str) -> ValidationReport:
        return ValidationReport(False, condition, dict(witness.items()), detail, **counts)

    for m in sorted(space1.markings, key=Marking.items):
        projected = project(graph, m)
        if projected is None:
            return fail("A1", m, f"marking {m!r} of the input net does not extend")
        if projected not in space2:
            return fail("A3", m, "extension restricts to an unreachable reduced marking")

    for m2, block in partition(graph, space2):
        if not block:
            return fail("A1", m2, f"marking {m2!r} of the reduced net does not extend")
        unreachable = [m for m in block if m not in space1]
        if unreachable:
            witness = min(unreachable, key=Marking.items)
            return fail("A3", witness, "extension restricts to an unreachable input marking")

    if project(graph, m0) != result.reduced_marking:
        return fail("A2", m0, "initial markings do not share a configuration")

    return ValidationReport(True, **counts)
