"""Structural net reductions that emit linear reduction equations.

Three rules are applied to a fixpoint.  Each round indexes every place's
consumer and producer column once; the rules look their candidates up there,
scanning places in declaration order, and every hit starts a new round from
the highest-priority rule:

1. constant place: a place no transition touches is removed and pinned to its
   initial marking;
2. duplicate place: two places with identical pre and post columns and equal
   initial marking collapse onto the earlier one;
3. chain agglomeration: a transition that does nothing but move one token
   from p to q, where t is p's only consumer and q's only producer and both
   places start empty, merges p and q into a fresh variable.

Every removal is recorded as a tagged equation, so the reduced net plus the
equation system stays equivalent to the input; ``validate_equivalence``
certifies that on a given instance by exhaustive enumeration.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

from tfgkit import tfg
from tfgkit.net_io import TaggedEquation
from tfgkit.petri import (
    IncompleteStateSpaceError,
    Marking,
    PetriNet,
    StateSpace,
    explore,
)

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class ReductionResult:
    """Reduced net, its initial marking, the equations and the size ratio.

    ``ratio`` is (removed places) / (original places); 0.0 when nothing was
    removed or the net has no places.
    """

    reduced_net: PetriNet
    reduced_marking: Marking
    equations: tuple[TaggedEquation, ...]
    ratio: float


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of an exhaustive equivalence check.

    On failure, ``condition`` names the broken requirement (A1: every
    reachable marking extends through the equations; A2: the initial markings
    extend to one common configuration; A3: a configuration compatible with
    both nets is reachable on either both sides or neither) and ``witness``
    holds the offending valuation.
    """

    valid: bool
    condition: str | None = None
    witness: dict[str, int] | None = None
    detail: str = ""
    n1_markings: int = 0
    n2_markings: int = 0


# place -> {transition: arc weight}, in transition order
_Columns = dict[str, dict[str, int]]


class _Work:
    """Mutable net under reduction; place order is the key order of
    ``marking``, transition order that of ``pre``."""

    def __init__(self, net: PetriNet, m0: Marking):
        self.pre = {t: dict(net.pre_of(t)) for t in net.transitions}
        self.post = {t: dict(net.post_of(t)) for t in net.transitions}
        self.marking = {p: m0[p] for p in net.places}
        self.equations: list[TaggedEquation] = []
        self.used_names = set(net.places) | set(net.transitions)
        self.fresh_counter = 0

    def fresh_variable(self) -> str:
        while True:
            self.fresh_counter += 1
            name = f"a{self.fresh_counter}"
            if name not in self.used_names:
                self.used_names.add(name)
                return name

    def columns(self) -> tuple[_Columns, _Columns]:
        """Consumer and producer columns, in one pass over the arcs."""
        consumers: _Columns = {p: {} for p in self.marking}
        producers: _Columns = {p: {} for p in self.marking}
        for t, arcs in self.pre.items():
            for p, n in arcs.items():
                consumers[p][t] = n
            for p, n in self.post[t].items():
                producers[p][t] = n
        return consumers, producers


def _constant_once(w: _Work, consumers: _Columns, producers: _Columns) -> bool:
    for p in w.marking:
        if not consumers[p] and not producers[p]:
            w.equations.append(TaggedEquation("R", p, constant=w.marking[p]))
            log.debug("constant place %s = %d", p, w.marking[p])
            del w.marking[p]
            return True
    return False


def _duplicate_once(w: _Work, consumers: _Columns, producers: _Columns) -> bool:
    # the first group with two members is the one whose first member comes
    # earliest: the pair a pairwise scan in declaration order would pick
    groups: dict[tuple, list[str]] = {}
    for p in w.marking:
        key = (w.marking[p], tuple(consumers[p].items()), tuple(producers[p].items()))
        groups.setdefault(key, []).append(p)
    for p, q, *_ in (g for g in groups.values() if len(g) > 1):
        w.equations.append(TaggedEquation("R", q, terms=(p,)))
        log.debug("duplicate place %s = %s", q, p)
        del w.marking[q]
        for t in consumers[q]:
            del w.pre[t][q]
        for t in producers[q]:
            del w.post[t][q]
        return True
    return False


def _chain_once(w: _Work, consumers: _Columns, producers: _Columns) -> bool:
    for q in w.marking:
        if len(producers[q]) != 1:
            continue
        (t,) = producers[q]
        if w.post[t] != {q: 1} or len(w.pre[t]) != 1:
            continue
        (p, weight), = w.pre[t].items()
        if weight != 1 or p == q:
            continue
        if list(consumers[p]) != [t]:
            continue
        # both ends must start empty so token counts stay reconstructible
        if w.marking[p] != 0 or w.marking[q] != 0:
            continue
        a = w.fresh_variable()
        w.equations.append(TaggedEquation("A", a, terms=(p, q)))
        log.debug("chain agglomeration %s = %s + %s via %s", a, p, q, t)
        # t is neither a producer of p nor a consumer of q, since p != q
        for t2 in producers[p]:
            w.post[t2][a] = w.post[t2].pop(p)
        for t2 in consumers[q]:
            w.pre[t2][a] = w.pre[t2].pop(q)
        del w.pre[t], w.post[t]
        w.marking[a] = 0
        del w.marking[p], w.marking[q]
        return True
    return False


_RULES = (_constant_once, _duplicate_once, _chain_once)


def reduce(net: PetriNet, m0: Marking) -> ReductionResult:
    """Reduce ``net`` and return the equation system tying it to the input."""
    w = _Work(net, m0)
    while True:
        consumers, producers = w.columns()
        if not any(rule(w, consumers, producers) for rule in _RULES):
            break
    reduced_net = PetriNet(tuple(w.marking), tuple(w.pre), w.pre, w.post)
    total = len(net.places)
    ratio = (total - len(w.marking)) / total if total else 0.0
    return ReductionResult(reduced_net, Marking(w.marking), tuple(w.equations), ratio)


def build_graph(net: PetriNet, result: ReductionResult) -> tfg.TokenFlowGraph:
    """Token flow graph tying ``net`` to the reduced net of ``result``."""
    return tfg.build(result.equations, net.places, result.reduced_net.places)


def validate_equivalence(
    net: PetriNet,
    m0: Marking,
    result: ReductionResult,
    max_states: int = 100_000,
    max_token: int = 1,
) -> ValidationReport:
    """Certify the reduction by exhausting both state spaces.

    Checks that every reachable marking on either side extends through the
    equations to a total well-defined configuration, that the two initial
    markings share one, and that each configuration built this way restricts
    to reachable markings on both sides.  Raises
    :class:`IncompleteStateSpaceError` when either exploration hits a limit,
    since a truncated check would certify nothing.
    """
    graph = build_graph(net, result)
    space1 = explore(net, m0, max_states=max_states, max_token=max_token)
    space2 = explore(
        result.reduced_net, result.reduced_marking, max_states=max_states, max_token=max_token
    )
    for space in (space1, space2):
        if not space.is_complete:
            raise IncompleteStateSpaceError(space.status)
    counts = dict(n1_markings=len(space1), n2_markings=len(space2))

    def fail(condition: str, witness: dict[str, int], detail: str) -> ValidationReport:
        return ValidationReport(False, condition, witness, detail, **counts)

    bound = max(
        [1]
        + [n for m in space2.markings for _, n in m.items()]
        + list(graph.constants.values())
    )

    for m in sorted(space1.markings, key=lambda m: m.items()):
        candidate = tfg.bottom_up(graph, m)
        if not tfg.is_well_defined(graph, candidate):
            return fail("A1", candidate, f"marking {m!r} of the input net does not extend")
        if tfg.restrict(candidate, graph.p2) not in space2:
            return fail("A3", candidate, "extension restricts to an unreachable reduced marking")

    for m2 in sorted(space2.markings, key=lambda m: m.items()):
        extensions = tfg.enumerate_extensions(graph, m2, bound=bound)
        if not extensions:
            return fail("A1", dict(m2.items()), f"marking {m2!r} of the reduced net does not extend")
        for c in extensions:
            if tfg.restrict(c, graph.p1) not in space1:
                return fail("A3", c, "extension restricts to an unreachable input marking")

    initial = tfg.bottom_up(graph, m0)
    if not tfg.is_well_defined(graph, initial) or tfg.restrict(
        initial, graph.p2
    ) != result.reduced_marking:
        return fail("A2", initial, "initial markings do not share a configuration")

    return ValidationReport(True, **counts)
