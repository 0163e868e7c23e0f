"""Marking reachability through a token flow graph.

A query over the original places is projected bottom-up to a unique candidate
marking of the reduced net; when the projection is inconsistent the query is
unreachable outright.  Otherwise the reduced net's state equation may refute
the candidate without any search, and if it does not, breadth-first searches
settle it.  Both refutations are linear maps, compiled once: the graph keeps
its :class:`tfg.Projection`, which costs a query the nodes above the
target's marked places, and the :class:`StateEquation` keeps a basis of the
reduced net's P-flows, which costs it the flows through the candidate's
marked places.  The reduced net falls apart into connected components that
share no place and no transition, so its reachable set is the product of
theirs: each component is searched for its own part of the candidate,
stopping as soon as it stores that part, and looked up in a stored space as
one packed marking; two places of different components are concurrent
exactly when each is marked somewhere.  Each verdict carries a reason token
naming the step that settled it.  :class:`Analysis` keeps one
net's graph, state equation, component spaces and reduced relation across
queries; it never explores the product of the components.  The one-shot
:func:`decide` keeps the :class:`Analysis` of its last call and reuses it
while the calls name the same reduction, so a series of queries on one
reduction builds one graph and explores each component at most twice.
:func:`partition` reads the original state space off the reduced one, and
:func:`validate_equivalence`, the exhaustive certificate, explores the full
and the reduced net whole and checks them against each other with
:func:`project` and :func:`partition`.
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
    _marked_rows,
    explore,
    truncated,
)
from tfgkit.reductions import ReductionResult, build_graph, reduce
from tfgkit.relation import ConcurrencyMatrix

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
    reachable marking of the input net extends through the equations; A2:
    the initial markings extend to one common configuration; A3: a
    configuration compatible with both nets is reachable on either both
    sides or neither) and ``witness`` holds the offending marking, of either
    net, as its marked places with their counts.  A1 is never checked on the
    reduced side: on a graph that passed :func:`build_graph`, every marking
    of the reduced net extends, since its places are the roots (T6), each
    other node is defined in exactly one way (T3) and every total splits
    over an agglomeration's children.
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
    out reachability regardless of the initial marking.  The graph compiles
    its :class:`tfg.Projection` on the first call and keeps it, so a call
    costs the nodes above the target's marked places.
    """
    return graph.projection(target)


@dataclass(eq=False)
class _Component:
    """A part of the reduced net that shares no place and no transition with
    the rest, plus its last explored ``space``."""

    net: PetriNet
    m0: Marking
    space: StateSpace | None = None


def _split(net: PetriNet, m0: Marking) -> list[_Component]:
    """The connected components of ``net``, by union-find over each
    transition's places, in order of their first place.  Each component is
    a net of its own, even when there is only one; a transition without
    arcs changes no marking and is dropped."""
    parent = {p: p for p in net.places}

    def find(p: str) -> str:
        while parent[p] != p:
            parent[p] = parent[parent[p]]
            p = parent[p]
        return p

    arcs = {t: [*net.pre_of(t), *net.post_of(t)] for t in net.transitions}
    for places in arcs.values():
        for q in places[1:]:
            parent[find(q)] = find(places[0])
    groups: dict[str, tuple[list[str], list[str]]] = {}
    for p in net.places:
        groups.setdefault(find(p), ([], []))[0].append(p)
    for t, places in arcs.items():
        if places:
            groups[find(places[0])][1].append(t)
    out = []
    for places, ts in groups.values():
        part = PetriNet._unchecked(tuple(places), tuple(ts), {t: net.pre_of(t) for t in ts},
                                   {t: net.post_of(t) for t in ts}, net.heaviest)
        out.append(_Component(part, Marking({p: m0[p] for p in places})))
    return out


class Analysis:
    """One net's reduction (``reduce`` runs when no ``result`` is given),
    plus its validated ``graph``, the reduced net's ``state_equation``, the
    complete state ``spaces`` of its components and its concurrency relation
    ``rel2``, each built on first use and then kept.

    The reduced net is split into the connected components that share no
    place and no transition, on the first search or ``spaces`` request.  Its
    reachable set is the product of theirs, so each component is explored
    on its own and the product never is: ``max_states`` bounds the states
    stored over all of them, each getting what the others left.
    :meth:`decide` answers from the cheapest sound source: the projection,
    then the state equation, then a search of each component for its part
    of the projected target.  A component runs at most one search that stops
    at its part, then at most one full exploration, which ``spaces`` and
    later searches reuse."""

    def __init__(self, net: PetriNet, m0: Marking, result: ReductionResult | None = None,
                 max_states: int = 100_000, max_token: int = 1):
        self.net = net
        self.m0 = m0
        self.result = reduce(net, m0) if result is None else result
        self.max_states = max_states
        self.max_token = max_token

    @cached_property
    def graph(self) -> tfg.TokenFlowGraph:
        return build_graph(self.net, self.result)

    @cached_property
    def state_equation(self) -> StateEquation:
        return StateEquation(self.result.reduced_net, self.result.reduced_marking)

    @cached_property
    def _components(self) -> list[_Component]:
        return _split(self.result.reduced_net, self.result.reduced_marking)

    @cached_property
    def _positions(self) -> dict[str, tuple[int, int]]:
        """Per reduced place, the number of its component and its position
        among that component's places."""
        return {p: (k, i) for k, part in enumerate(self._components)
                for i, p in enumerate(part.net.places)}

    def _space(self, part: _Component, goal: Marking | None = None) -> StateSpace | None:
        """``part``'s space: on its first request a search that stops at
        ``goal``, after that its full exploration, each within what the
        other components left of ``max_states``; None when they left
        nothing."""
        space = part.space
        if space is not None and space.status != truncated("goal"):
            return space
        budget = self.max_states - sum(len(c.space) for c in self._components
                                       if c is not part and c.space is not None)
        if budget < 1:
            return None
        part.space = explore(part.net, part.m0, max_states=budget, max_token=self.max_token,
                             goal=goal if space is None else None)
        return part.space

    @cached_property
    def spaces(self) -> list[StateSpace]:
        """The complete state space of each component of the reduced net, in
        the order of their first places.  Raises
        :class:`IncompleteStateSpaceError` when one is cut short."""
        out = []
        for part in self._components:
            space = self._space(part)
            if space is None:
                raise IncompleteStateSpaceError(truncated("max-states"))
            if not space.is_complete:
                raise IncompleteStateSpaceError(space.status)
            out.append(space)
        return out

    @cached_property
    def rel2(self) -> ConcurrencyMatrix:
        """The reduced net's exact concurrency relation, over its places in
        order.  Each component's cells come from its space in ``spaces``; a
        cell across two components is 1 exactly when both places are marked
        somewhere."""
        order: list[str] = []  # the components' places, one after the other
        rows: list[int] = []
        masks: list[int] = []  # per position, its component's positions
        for part, space in zip(self._components, self.spaces):
            shift = len(order)
            order += part.net.places
            rows += [row << shift for row in _marked_rows(space)]
            masks += [(1 << len(order)) - (1 << shift)] * len(part.net.places)
        markable = sum(1 << i for i, row in enumerate(rows) if row >> i & 1)
        rows = [row | (markable & ~mask) if row >> i & 1 else row
                for i, (row, mask) in enumerate(zip(rows, masks))]
        return ConcurrencyMatrix.from_rows(order, rows).restrict(self.result.reduced_net.places)

    def decide(self, target: Marking) -> ReachVerdict:
        """Decide whether ``target`` is reachable in ``net`` from ``m0``.

        The target is reachable when every component stores its part of the
        projection, even in a truncated search; it is unreachable when some
        component misses its part in a complete space.
        """
        projected = project(self.graph, target)
        if projected is None:
            log.debug("decide settled by projection: no reduced marking")
            return ReachVerdict(UNREACHABLE, PROJECTION_FAILED)
        if not self.state_equation.admits(projected):
            log.debug("decide settled by state equation: %r", projected)
            return ReachVerdict(UNREACHABLE, STATE_EQUATION, projected)
        components = self._components
        fields: list[list[tuple[int, int]]] = [[] for _ in components]
        positions = self._positions
        for p, n in projected._tokens.items():
            k, i = positions[p]
            fields[k].append((i, n))
        verdict = ReachVerdict(REACHABLE, BACKEND_HIT, projected)
        reused = 0  # components answered from a space an earlier call stored
        for part, part_fields in zip(components, fields):
            stored = part.space
            goal = None
            if stored is None:
                goal = Marking({part.net.places[i]: n for i, n in part_fields})
            space = self._space(part, goal)
            reused += space is not None and space is stored
            if space is not None and space.holds(part_fields):
                continue
            if space is not None and space.is_complete:
                verdict = ReachVerdict(UNREACHABLE, BACKEND_EXHAUSTED, projected)
                break
            verdict = ReachVerdict(UNKNOWN, BACKEND_TRUNCATED, projected)
        if log.isEnabledFor(logging.DEBUG):
            log.debug("decide settled by search (%s): %r among %d stored reduced states "
                      "in %d components%s", verdict.reason, projected,
                      sum(len(part.space) for part in components if part.space is not None),
                      len(components), f", {reused} searched by earlier calls" if reused else "")
        return verdict


_last: Analysis | None = None  # the one Analysis that the one-shot decide keeps


def _shared(net: PetriNet, m0: Marking, result: ReductionResult,
            max_states: int = 100_000, max_token: int = 1) -> Analysis:
    """The :class:`Analysis` that :func:`decide` works on: the kept one when
    it matches these arguments, else a new one kept in its place."""
    global _last
    last = _last
    if (last is None or last.result is not result or last.net is not net or last.m0 != m0
            or last.max_states != max_states or last.max_token != max_token):
        last = _last = Analysis(net, m0, result, max_states, max_token)
    return last


def decide(
    net: PetriNet,
    m0: Marking,
    target: Marking,
    result: ReductionResult,
    max_states: int = 100_000,
    max_token: int = 1,
) -> ReachVerdict:
    """One-shot :meth:`Analysis.decide`.  ``result`` must tie ``net`` to its
    reduced form.  A call reuses the :class:`Analysis` of the previous one
    when both pass the same ``result`` and ``net`` objects, an equal ``m0``
    and equal limits, and otherwise builds one that replaces it.  A series of
    calls on one reduction thus builds one graph and state equation, searches
    each component at most twice, and shares one ``max_states`` budget as
    repeated :meth:`Analysis.decide` calls do: only when that budget binds
    can a verdict differ from a fresh analysis's."""
    return _shared(net, m0, result, max_states, max_token).decide(target)


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
    reachable reduced marking, that every input marking a reachable reduced
    marking extends to is reachable, and that ``m0`` projects to the reduced
    initial marking.  Raises :class:`IncompleteStateSpaceError` when
    either exploration hits a limit, since a truncated check would certify
    nothing.
    """
    graph = build_graph(net, result)
    space1 = explore(net, m0, max_states=max_states, max_token=max_token)
    space2 = explore(result.reduced_net, result.reduced_marking,
                     max_states=max_states, max_token=max_token)
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

    for _, block in partition(graph, space2):
        unreachable = [m for m in block if m not in space1]
        if unreachable:
            witness = min(unreachable, key=Marking.items)
            return fail("A3", witness, "extension restricts to an unreachable input marking")

    if project(graph, m0) != result.reduced_marking:
        return fail("A2", m0, "initial markings do not share a configuration")

    return ValidationReport(True, **counts)
