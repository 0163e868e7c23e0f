"""Structural net reductions that emit linear reduction equations.

Three rules are applied to a fixpoint, highest priority first:

1. constant place: a place no transition touches is removed and pinned to its
   initial marking;
2. duplicate place: two places with identical pre and post columns and equal
   initial marking collapse onto the earlier one;
3. chain agglomeration: a transition that does nothing but move one token
   from p to q, where t is p's only consumer and q's only producer and both
   places start empty, merges p and q into a fresh variable.

The reducer is one worklist, built on one fact: a place's consumer and
producer columns never change while it survives.  A removal deletes only
the removed place's arcs, and a merge deletes the transition ``t`` that only
``p`` and ``q`` touch and hands ``p``'s producers and ``q``'s consumers to
the fresh variable as they are.  So the columns are built once, and so is
each place's duplicate key, its initial marking with its two columns as
frozensets; the fresh variable's key is ``(0, q's consumers, p's
producers)``, made of two frozensets that are already built and hashed.

Arcs are renamed lazily.  A transition keeps each arc under the name of the
input place it first named; a merge only records that the name of ``p``'s
incoming arcs and the name of ``q``'s outgoing arcs now stand for the fresh
variable, whatever the width of those columns.  The arcs are resolved once,
when the reduced net is assembled, in the order eager renaming would leave
them: the arcs never renamed, then the renamed ones by the age of their
last name.

Every place has a position: originals get their declaration index, each
fresh variable the next unused one, so positions grow in place order.  Each
rule keeps a min-heap of candidate positions that is validated lazily when
popped; a rewrite re-queues only what it touched: the merged variable, and
the output place of every transition whose arcs it changed, except a
merge's producers, whose output is the merged variable itself.  The
duplicate rule keeps its places grouped by key, in position order.  Taking
the lowest valid position from the highest-priority rule with a candidate
is exactly the hit a full rescan of the places in declaration order would
find after every rewrite, so the equations, the fresh names ``a<i>`` and
the place and transition order of the reduced net do not depend on how
candidates are found.  A merge costs a fixed number of dict and heap steps,
however wide the columns it hands on; a removal costs the arcs it deletes.

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
from itertools import repeat

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
    order; transition order is that of ``pre``.  ``pre`` and ``post`` key
    each arc by the input place it first named; ``owner`` maps every such
    name that a merge took over to the place that holds its arcs now, and
    ``arc_names`` gives each live fresh variable the names of its arcs in
    its producers' ``post`` and in its consumers' ``pre``.
    """

    def __init__(self, net: PetriNet, m0: Marking):
        places = net.places
        self.heaviest = net.heaviest
        pre, post = net.pre.get, net.post.get
        self.pre = {t: dict(pre(t, ())) for t in net.transitions}
        self.post = {t: dict(post(t, ())) for t in net.transitions}
        self.marking = dict(zip(places, map(m0._tokens.get, places, repeat(0))))
        self.equations: list[TaggedEquation] = []
        self.used_names = set(places) | set(net.transitions)
        self.fresh_counter = 0
        self.debug = log.isEnabledFor(logging.DEBUG)
        consumers: _Columns = {p: {} for p in places}
        producers: _Columns = {p: {} for p in places}
        for t, arcs in self.pre.items():
            for p in arcs:
                consumers[p][t] = arcs[p]
        for t, arcs in self.post.items():
            for p in arcs:
                producers[p][t] = arcs[p]
        self.consumers, self.producers = consumers, producers
        self.owner: dict[str, str] = {}
        self.arc_names: dict[str, tuple[str, str]] = {}
        self.names = list(places)  # position -> place, dead ones included
        self.position = dict(zip(places, range(len(places))))
        # per place, (initial marking, consumer column, producer column),
        # the columns as frozensets of their items
        self.key: dict[str, tuple] = dict(zip(places, zip(
            self.marking.values(),
            map(frozenset, map(dict.items, consumers.values())),
            map(frozenset, map(dict.items, producers.values())))))
        self.groups: dict[tuple, list[int]] = {}  # key -> sorted positions
        for i, key in enumerate(self.key.values()):
            self.groups.setdefault(key, []).append(i)
        # candidate positions, one min-heap per rule, each a sorted list to
        # start with.  A surviving place's columns never change, so only a
        # place that starts without arcs is ever a constant and only an
        # empty one that starts with one producer is ever a chain's output;
        # the groups were made in the order of their heads.
        self.constant_heap = [i for i, (_, out, into) in enumerate(self.key.values())
                              if not out and not into]
        self.duplicate_heap = [group[0] for group in self.groups.values() if len(group) > 1]
        self.chain_heap = [i for i, (tokens, _, into) in enumerate(self.key.values())
                           if not tokens and len(into) == 1]

    def fresh_variable(self) -> str:
        while True:
            self.fresh_counter += 1
            name = f"a{self.fresh_counter}"
            if name not in self.used_names:
                self.used_names.add(name)
                return name

    def _ungroup(self, p: str) -> None:
        key = self.key.pop(p)
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
            heapq.heappush(self.chain_heap, self.position[self.owner.get(q, q)])

    def _partner(self, p: str) -> str | None:
        """The second place of ``p``'s group when ``p`` heads a group of two
        or more."""
        group = self.groups[self.key[p]]
        if len(group) > 1 and group[0] == self.position[p]:
            return self.names[group[1]]
        return None

    def _move(self, q: str) -> tuple[str, str] | None:
        """``(t, p)`` when ``t`` only moves one token from ``p`` to ``q``,
        is ``p``'s only consumer and ``q``'s only producer, and both places
        start empty."""
        producers = self.producers[q]
        if len(producers) != 1 or self.marking[q]:
            return None
        ((t, weight),) = producers.items()
        if weight != 1 or len(self.post[t]) != 1 or len(self.pre[t]) != 1:
            return None
        ((p, weight),) = self.pre[t].items()
        p = self.owner.get(p, p)
        # both ends must start empty so token counts stay reconstructible
        if weight != 1 or p == q or len(self.consumers[p]) != 1 or self.marking[p]:
            return None
        return t, p

    def run(self) -> None:
        """Apply hits up to the fixpoint, restarting from the constant rule
        after each."""
        while self._constant() or self._duplicate() or self._chain():
            pass

    def _constant(self) -> bool:
        """Remove the live constant place of lowest position, if any.  A
        place in this heap stays a constant while it lives."""
        heap = self.constant_heap
        while heap:
            p = self.names[heapq.heappop(heap)]
            if p in self.marking:
                self.equations.append(TaggedEquation._unchecked("R", p, constant=self.marking[p]))
                if self.debug:
                    log.debug("constant place %s = %d", p, self.marking[p])
                self._remove(p)
                return True
        return False

    def _duplicate(self) -> bool:
        """Remove the duplicate partner of the live group head of lowest
        position that has one, and its arcs."""
        heap, names, marking = self.duplicate_heap, self.names, self.marking
        while heap:
            p = names[heap[0]]
            if p in marking and (q := self._partner(p)):
                break
            heapq.heappop(heap)
        else:
            return False
        self.equations.append(TaggedEquation._unchecked("R", q, (p,)))
        if self.debug:
            log.debug("duplicate place %s = %s", q, p)
        in_name, out_name = self.arc_names.get(q, (q, q))
        consumers, producers = self.consumers[q], self.producers[q]
        for t in consumers:
            del self.pre[t][out_name]
        for t in producers:
            del self.post[t][in_name]
        self._remove(q)
        for t in [*consumers, *producers]:
            self._requeue_output(t)
        return True

    def _chain(self) -> bool:
        """Merge the chain of the live output place of lowest position that
        ends one.  An output leaves the heap when it is popped, since it dies
        in its merge."""
        heap, names, marking = self.chain_heap, self.names, self.marking
        while heap:
            q = names[heapq.heappop(heap)]
            if q in marking and (hit := self._move(q)):
                self._merge(*hit, q)
                return True
        return False

    def _remove(self, p: str) -> None:
        self._ungroup(p)
        del self.marking[p], self.consumers[p], self.producers[p]
        self.arc_names.pop(p, None)

    def _merge(self, t: str, p: str, q: str) -> None:
        a = self.fresh_variable()
        self.equations.append(TaggedEquation._unchecked("A", a, (p, q)))
        if self.debug:
            log.debug("chain agglomeration %s = %s + %s via %s", a, p, q, t)
        # t is neither a producer of p nor a consumer of q, since p != q;
        # p's key is alone in its group, since t reads no other place, and
        # q's too, since t fills no other place
        marking, key, arc_names = self.marking, self.key, self.arc_names
        producers, consumers = self.producers.pop(p), self.consumers.pop(q)
        in_name, out_name = arc_names.pop(p, (p, p))[0], arc_names.pop(q, (q, q))[1]
        self.owner[in_name] = self.owner[out_name] = a
        key_p, key_q = key.pop(p), key.pop(q)
        del self.groups[key_p], self.groups[key_q]
        del self.pre[t], self.post[t], marking[p], marking[q]
        del self.consumers[p], self.producers[q]
        marking[a] = 0
        self.producers[a], self.consumers[a] = producers, consumers
        arc_names[a] = in_name, out_name
        i = self.position[a] = len(self.names)
        self.names.append(a)
        key[a] = k = (0, key_q[1], key_p[2])
        group = self.groups.setdefault(k, [])
        group.append(i)  # the highest position yet
        if len(group) == 2:
            heapq.heappush(self.duplicate_heap, group[0])
        if not producers and not consumers:
            heapq.heappush(self.constant_heap, i)
        if len(producers) == 1:
            heapq.heappush(self.chain_heap, i)
        # each producer's output is a, queued above when it can be a chain's
        for t2 in consumers:
            self._requeue_output(t2)

    def net(self) -> PetriNet:
        """The reduced net, its arcs renamed to the places that hold them,
        assembled without re-checking parts that come from a checked net.

        The arcs that a merge took over are exactly those of the live fresh
        variables.  Eager renaming moves an arc to the end of its dict at
        each rename, so the arcs never renamed stay first, in their order,
        and the others follow by the variable of their last rename; renaming
        each variable's arcs once, in position order, leaves that order."""
        pre, post = self.pre, self.post
        for a, (in_name, out_name) in self.arc_names.items():
            for t in self.producers[a]:
                post[t][a] = post[t].pop(in_name)
            for t in self.consumers[a]:
                pre[t][a] = pre[t].pop(out_name)
        sides = [*pre.values(), *post.values()]
        if self.heaviest > 1:
            heaviest = max(map(max, filter(None, map(dict.values, sides))), default=0)
        else:  # no arc weighs more than 1, so 1 is the heaviest when one is left
            heaviest = int(any(sides))
        return PetriNet._unchecked(tuple(self.marking), tuple(pre), pre, post, heaviest)


def reduce(net: PetriNet, m0: Marking) -> ReductionResult:
    """Reduce ``net`` and return the equation system tying it to the input."""
    w = _Work(net, m0)
    w.run()
    total = len(net.places)
    ratio = (total - len(w.marking)) / total if total else 0.0
    return ReductionResult(w.net(), Marking(w.marking), tuple(w.equations), ratio)


def build_graph(net: PetriNet, result: ReductionResult) -> tfg.TokenFlowGraph:
    """Token flow graph tying ``net`` to the reduced net of ``result``."""
    return tfg.build(result.equations, net.places, result.reduced_net.places)
