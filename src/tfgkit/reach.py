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
theirs.  The reduced net is compiled once, and its components are found
once, as sets of place and transition positions from one union-find pass;
each component is searched in that one layout, from the initial marking
masked to its places' fields and with its transitions' mask, for its own
part of the candidate, stopping as soon as it stores that part, and looked
up in a stored space as one packed marking.  Its concurrency rows are
written straight at its places' positions in the reduced net's order; two
places of different components are concurrent exactly when each is marked
somewhere.  Each verdict carries a reason token
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
    _Compiled,
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


def _connected_components(net: PetriNet) -> tuple[list[int], list[list[int]], list[int]]:
    """The connected components of ``net``, from one union-find pass over
    each transition's places, numbered in order of their first places: per
    place position, the number of its component, and per component, its
    place positions in order and the mask of its transitions, bit ``j`` for
    the ``j``-th.  A transition without arcs changes no marking and is in
    none."""
    index = {p: i for i, p in enumerate(net.places)}
    parent = list(range(len(net.places)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    first = []  # per transition, the position of its first place, or -1
    no_arcs: dict[str, int] = {}
    for t in net.transitions:
        places = [*net.pre.get(t, no_arcs), *net.post.get(t, no_arcs)]
        if not places:
            first.append(-1)
            continue
        i = index[places[0]]
        root = find(i)
        for q in places[1:]:
            other = find(index[q])
            if other != root:
                parent[other] = root
        first.append(i)
    owner = []
    number: dict[int, int] = {}  # root -> component number
    places_of: list[list[int]] = []
    for i in range(len(parent)):
        k = number.setdefault(find(i), len(places_of))
        if k == len(places_of):
            places_of.append([])
        places_of[k].append(i)
        owner.append(k)
    moves: list[list[int]] = [[] for _ in places_of]
    for j, i in enumerate(first):
        if i >= 0:
            moves[owner[i]].append(j)
    return owner, places_of, [_spread(js) for js in moves]


def _spread(positions: list[int], width: int = 1) -> int:
    """The mask of the ``width`` bits from ``i * width`` up for each ``i``
    of ``positions``, increasing, built one OR per run of consecutive
    positions, so that a run costs one int as wide as the mask."""
    mask = 0
    start = end = -1  # the run start..end - 1 not yet in the mask
    for i in positions:
        if i != end:
            if end > 0:
                mask |= (1 << (end - start) * width) - 1 << start * width
            start = i
        end = i + 1
    if end > 0:
        mask |= (1 << (end - start) * width) - 1 << start * width
    return mask


class Analysis:
    """One net's reduction (``reduce`` runs when no ``result`` is given),
    plus its validated ``graph``, the reduced net's ``state_equation``, the
    complete state ``spaces`` of its components and its concurrency relation
    ``rel2``, each built on first use and then kept.

    The reduced net is compiled once, and split into the connected
    components that share no place and no transition, on the first search
    or ``spaces`` request.  Its reachable set is the product of theirs, so
    each component is searched on its own, in the one compiled layout, from
    the initial marking of its places and with its transitions only, and
    the product never is: ``max_states`` bounds the states stored over all
    of them, each getting what the others left.  :meth:`decide` answers
    from the cheapest sound source: the projection, then the state
    equation, then a search of each component for its part of the projected
    target.  A component runs at most one search that stops at its part,
    then at most one full exploration, which ``spaces`` and later searches
    reuse."""

    def __init__(self, net: PetriNet, m0: Marking, result: ReductionResult | None = None,
                 max_states: int = 100_000, max_token: int = 1):
        self.net = net
        self.m0 = m0
        self.result = reduce(net, m0) if result is None else result
        self.max_states = max_states
        self.max_token = max_token
        self._found: dict[int, StateSpace] = {}  # per component number, its last space
        self._stored = 0  # the states of those spaces

    @cached_property
    def graph(self) -> tfg.TokenFlowGraph:
        return build_graph(self.net, self.result)

    @cached_property
    def state_equation(self) -> StateEquation:
        return StateEquation(self.result.reduced_net, self.result.reduced_marking)

    @cached_property
    def _compiled(self) -> _Compiled:
        return _Compiled(self.result.reduced_net, self.result.reduced_marking, self.max_token)

    @cached_property
    def _components(self) -> tuple[list[int], list[tuple[list[int], int, int, int]]]:
        """Per reduced place position, the number of its component; per
        component, its place positions, their mask, the bits of their
        fields in the compiled layout and its transition mask."""
        owner, places_of, transitions = _connected_components(self.result.reduced_net)
        width = self._compiled.packing.width
        parts = [(positions, _spread(positions), _spread(positions, width), moves)
                 for positions, moves in zip(places_of, transitions)]
        return owner, parts

    def _space(self, k: int, goal: list[tuple[int, int]] | None = None) -> StateSpace | None:
        """Component ``k``'s space: on its first request a search that stops
        at the marking with count ``n`` at each layout position ``i`` of the
        ``(i, n)`` of ``goal``, after that, whatever the goal, its full
        exploration, each within what the other components left of
        ``max_states``; None when they left nothing."""
        space = self._found.get(k)
        if space is not None and space.status != truncated("goal"):
            return space
        held = 0 if space is None else len(space)
        budget = self.max_states - self._stored + held
        if budget < 1:
            return None
        compiled = self._compiled
        target = None if space is not None or goal is None else compiled.packing.pack(goal)
        _, _, fields, transitions = self._components[1][k]
        space = compiled.search(budget, -1 if target is None else target, fields, transitions)
        self._found[k] = space
        self._stored += len(space) - held
        return space

    @cached_property
    def spaces(self) -> list[StateSpace]:
        """The complete state space of each component of the reduced net, in
        the order of their first places, each over the reduced net's layout
        with the other components' places empty.  Raises
        :class:`IncompleteStateSpaceError` when one is cut short."""
        out = []
        for k in range(len(self._components[1])):
            space = self._space(k)
            if space is None:
                raise IncompleteStateSpaceError(truncated("max-states"))
            if not space.is_complete:
                raise IncompleteStateSpaceError(space.status)
            out.append(space)
        return out

    @cached_property
    def rel2(self) -> ConcurrencyMatrix:
        """The reduced net's exact concurrency relation, over its places in
        order.  Each component's rows come from its space in ``spaces``,
        written at its places' positions; a cell across two components is 1
        exactly when both places are marked somewhere, so each marked place
        takes the mask of the places marked in another component, one mask
        per component.  That pass runs only when there are two components
        or more."""
        owner, parts = self._components
        rows = [0] * len(owner)
        for (positions, _, _, _), space in zip(parts, self.spaces):
            _marked_rows(space, positions, rows)
        if len(parts) > 1:
            markable = sum(1 << i for i, row in enumerate(rows) if row >> i & 1)
            others = [markable & ~places for _, places, _, _ in parts]
            rows = [row | others[owner[i]] if row >> i & 1 else row for i, row in enumerate(rows)]
        return ConcurrencyMatrix._unchecked(self.result.reduced_net.places, rows)

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
        owner, parts = self._components
        index = self._compiled.packing.index
        fields: list[list[tuple[int, int]]] = [[] for _ in parts]
        for p, n in projected._tokens.items():
            i = index[p]
            fields[owner[i]].append((i, n))
        verdict = ReachVerdict(REACHABLE, BACKEND_HIT, projected)
        reused = 0  # components answered from a space an earlier call stored
        for k, part_fields in enumerate(fields):
            stored = self._found.get(k)
            space = self._space(k, part_fields)
            reused += space is not None and space is stored
            if space is not None and space.holds(part_fields):
                continue
            if space is not None and space.is_complete:
                verdict = ReachVerdict(UNREACHABLE, BACKEND_EXHAUSTED, projected)
                break
            verdict = ReachVerdict(UNKNOWN, BACKEND_TRUNCATED, projected)
        if log.isEnabledFor(logging.DEBUG):
            log.debug("decide settled by search (%s): %r among %d stored reduced states "
                      "in %d components%s", verdict.reason, projected, self._stored,
                      len(parts), f", {reused} searched by earlier calls" if reused else "")
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
