"""Structural net reductions that emit linear reduction equations.

Three rules are applied to a fixpoint, highest priority first:

1. constant place: a place no transition touches is removed and pinned to its
   initial marking;
2. duplicate place: two places with identical pre and post columns and equal
   initial marking collapse onto the earlier one;
3. chain agglomeration: a transition that does nothing but move one token
   from p to q, where t is p's only consumer and q's only producer and both
   places start empty, merges p and q into a fresh variable.

The reducer is one worklist.  Every place's consumer and producer column is
kept up to date as rules rewrite the net, and every place has a position:
originals get their declaration index, each fresh variable the next unused
one, so positions grow in place order.  Each rule keeps a min-heap of
candidate positions that is validated lazily when popped; a rewrite re-queues
only what it touched: the merged variable, and the output place of every
transition whose arcs it changed.  The duplicate rule also keeps its places
grouped by signature, in position order, and regroups only places whose
columns changed.  Taking the lowest valid position from the highest-priority
rule with a candidate is exactly the hit a full rescan of the places in
declaration order would find after every rewrite, so the equations, the fresh
names ``a<i>`` and the place and transition order of the reduced net do not
depend on how candidates are found.

Every removal is recorded as a tagged equation, so the reduced net plus the
equation system stays equivalent to the input;
:func:`tfgkit.reach.validate_equivalence` certifies that on a given instance
by exhaustive enumeration.
"""

from __future__ import annotations

import bisect
import heapq
import logging
from dataclasses import dataclass

from tfgkit import tfg
from tfgkit.net_io import TaggedEquation
from tfgkit.petri import Marking, PetriNet

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


# place -> {transition: arc weight}
_Columns = dict[str, dict[str, int]]


class _Work:
    """Mutable net under reduction with its columns and candidate heaps.

    Place order is the key order of ``marking``, which is also position
    order; transition order is that of ``pre``.
    """

    def __init__(self, net: PetriNet, m0: Marking):
        self.pre = {t: dict(net.pre_of(t)) for t in net.transitions}
        self.post = {t: dict(net.post_of(t)) for t in net.transitions}
        self.marking = {p: m0[p] for p in net.places}
        self.equations: list[TaggedEquation] = []
        self.used_names = set(net.places) | set(net.transitions)
        self.fresh_counter = 0
        self.consumers: _Columns = {p: {} for p in net.places}
        self.producers: _Columns = {p: {} for p in net.places}
        for t, arcs in self.pre.items():
            for p, n in arcs.items():
                self.consumers[p][t] = n
            for p, n in self.post[t].items():
                self.producers[p][t] = n
        self.names = list(net.places)  # position -> place, dead ones included
        self.position = {p: i for i, p in enumerate(net.places)}
        self.signature: dict[str, tuple] = {}
        self.groups: dict[tuple, list[int]] = {}  # signature -> sorted positions
        # candidate positions, one min-heap per rule: every place starts as a
        # constant and a chain candidate, group heads as duplicate ones
        self.constant_heap = list(range(len(self.names)))
        self.duplicate_heap: list[int] = []
        self.chain_heap = list(range(len(self.names)))
        for p in net.places:
            self._group(p)

    def fresh_variable(self) -> str:
        while True:
            self.fresh_counter += 1
            name = f"a{self.fresh_counter}"
            if name not in self.used_names:
                self.used_names.add(name)
                return name

    def _group(self, p: str) -> None:
        key = (
            self.marking[p],
            frozenset(self.consumers[p].items()),
            frozenset(self.producers[p].items()),
        )
        self.signature[p] = key
        group = self.groups.setdefault(key, [])
        bisect.insort(group, self.position[p])
        if len(group) > 1:
            heapq.heappush(self.duplicate_heap, group[0])

    def _ungroup(self, p: str) -> None:
        key = self.signature.pop(p)
        group = self.groups[key]
        i = bisect.bisect_left(group, self.position[p])
        del group[i]
        if not group:
            del self.groups[key]
        elif i == 0 and len(group) > 1:
            heapq.heappush(self.duplicate_heap, group[0])

    def _requeue_output(self, t: str) -> None:
        """Re-queue the chain candidate of ``t``, whose arcs changed."""
        if len(self.pre[t]) == 1 and len(self.post[t]) == 1:
            (q,) = self.post[t]
            heapq.heappush(self.chain_heap, self.position[q])

    def _first(self, heap: list[int], match) -> tuple[str, object]:
        """Lowest-position live place of ``heap`` on which ``match`` finds a
        hit, and that hit; stale entries on top are dropped."""
        while heap:
            p = self.names[heap[0]]
            if p in self.marking and (hit := match(p)):
                return p, hit
            heapq.heappop(heap)
        return "", None

    def _constant(self, p: str) -> bool:
        return not self.consumers[p] and not self.producers[p]

    def _duplicate(self, p: str) -> str | None:
        """The second place of ``p``'s group when ``p`` heads a group of two
        or more."""
        group = self.groups[self.signature[p]]
        if len(group) > 1 and group[0] == self.position[p]:
            return self.names[group[1]]
        return None

    def _chain(self, q: str) -> tuple[str, str] | None:
        """``(t, p)`` when ``t`` only moves one token from ``p`` to ``q``,
        is ``p``'s only consumer and ``q``'s only producer, and both places
        start empty."""
        if len(self.producers[q]) != 1:
            return None
        (t,) = self.producers[q]
        if self.post[t] != {q: 1} or len(self.pre[t]) != 1:
            return None
        (p, weight), = self.pre[t].items()
        if weight != 1 or p == q or len(self.consumers[p]) != 1:
            return None
        # both ends must start empty so token counts stay reconstructible
        if self.marking[p] != 0 or self.marking[q] != 0:
            return None
        return t, p

    def step(self) -> bool:
        """Apply the next hit; False at the fixpoint."""
        p, hit = self._first(self.constant_heap, self._constant)
        if hit:
            self.equations.append(TaggedEquation("R", p, constant=self.marking[p]))
            log.debug("constant place %s = %d", p, self.marking[p])
            self._remove(p)
            return True
        p, q = self._first(self.duplicate_heap, self._duplicate)
        if q:
            self.equations.append(TaggedEquation("R", q, terms=(p,)))
            log.debug("duplicate place %s = %s", q, p)
            touched = [*self.consumers[q], *self.producers[q]]
            for t in self.consumers[q]:
                del self.pre[t][q]
            for t in self.producers[q]:
                del self.post[t][q]
            self._remove(q)
            for t in touched:
                self._requeue_output(t)
            return True
        q, hit = self._first(self.chain_heap, self._chain)
        if hit:
            t, p = hit
            self._merge(t, p, q)
            return True
        return False

    def _remove(self, p: str) -> None:
        self._ungroup(p)
        del self.marking[p], self.consumers[p], self.producers[p]

    def _merge(self, t: str, p: str, q: str) -> None:
        a = self.fresh_variable()
        self.equations.append(TaggedEquation("A", a, terms=(p, q)))
        log.debug("chain agglomeration %s = %s + %s via %s", a, p, q, t)
        # t is neither a producer of p nor a consumer of q, since p != q
        producers, consumers = self.producers[p], self.consumers[q]
        for t2 in producers:
            self.post[t2][a] = self.post[t2].pop(p)
        for t2 in consumers:
            self.pre[t2][a] = self.pre[t2].pop(q)
        del self.pre[t], self.post[t]
        self._remove(p)
        self._remove(q)
        self.marking[a] = 0
        self.producers[a], self.consumers[a] = producers, consumers
        self.position[a] = len(self.names)
        self.names.append(a)
        self._group(a)
        heapq.heappush(self.constant_heap, self.position[a])
        heapq.heappush(self.chain_heap, self.position[a])
        for t2 in [*producers, *consumers]:
            self._requeue_output(t2)


def reduce(net: PetriNet, m0: Marking) -> ReductionResult:
    """Reduce ``net`` and return the equation system tying it to the input."""
    w = _Work(net, m0)
    while w.step():
        pass
    reduced_net = PetriNet(tuple(w.marking), tuple(w.pre), w.pre, w.post)
    total = len(net.places)
    ratio = (total - len(w.marking)) / total if total else 0.0
    return ReductionResult(reduced_net, Marking(w.marking), tuple(w.equations), ratio)


def build_graph(net: PetriNet, result: ReductionResult) -> tfg.TokenFlowGraph:
    """Token flow graph tying ``net`` to the reduced net of ``result``."""
    return tfg.build(result.equations, net.places, result.reduced_net.places)
