"""Place/transition nets, markings and exhaustive state-space exploration.

The explorer doubles as the ground-truth oracle: every accelerated answer in
this package can be checked against a complete breadth-first enumeration at
desk scale.

Packed markings
---------------
Inside the explorer a marking is one Python ``int``.  Place ``i`` of
``net.places`` owns bits ``[i*w, (i+1)*w)``: ``w - 1`` value bits holding its
token count, topped by a guard bit that a stored marking always keeps clear.
The value bits hold ``max_token`` plus the largest arc weight, which bounds
both a successor before its token check and every pre weight, and every
count of ``m0``.  With ``G`` the mask of all guard bits, each transition is
compiled once into the ints ``pre`` and ``post`` of its arc weights, and

- it is enabled at ``m`` when ``((m | G) - pre) & G == G``: the set guards
  stop a short field from borrowing from its neighbour, and a guard survives
  the subtraction exactly when its field holds the pre weight;
- firing it gives ``m - pre + post``;
- a successor ``m2`` exceeds ``max_token`` on some place when
  ``(m2 + cap) & G`` is nonzero, where ``cap`` holds
  ``2**(w-1) - 1 - max_token`` in every field.

Each stored marking is expanded once, and while it waits in the BFS queue it
carries an ``int`` mask of the transitions enabled at it, bit ``j`` for the
``j``-th transition.  A transition's ``touched`` mask holds every transition
that reads a place whose count it changes (pre weight unequal to post
weight).  A successor's mask is its parent's mask without ``touched``, plus
the members of ``touched`` that pass the test above at the successor: the
enabledness of any other transition cannot have changed.  Transitions with
equal ``pre`` pass or fail together, so they share one test, which sets all
of their bits: the ``b`` branches that leave a choice hub cost one test, not
``b``.  So a firing re-tests each distinct pre-vector that reads a place it
changes once, and no other transition of the net.

The mask is expanded 8 transitions at a time.  A lazily filled table maps
each value of an 8-bit window to the tuple of its transitions' moves, so
one lookup yields up to 8 moves, and a window that holds no set bit is
skipped by a jump to the lowest set bit.  Bits are still expanded from low
to high, which is declaration order, so the stored set and every truncation
point are those of a full scan.

One encoding serves safe nets (``max_token=1``) and bounded ones alike.
:class:`StateSpace` keeps the packed set; ``len(space)`` and ``m in space``
work on it directly, and ``space.markings`` decodes it to :class:`Marking`
objects once, on first access.  ``Marking``, :func:`enabled`, :func:`fire`
and :func:`random_walk` remain the public API at the edges.

The concurrency oracle reads the same packed set: the row of a place is the
union of the marked-place sets (guard bits only) of the stored markings
that mark it.  ``_marked_rows`` builds the rows by peeling places off the
bottom of the layout and merging the sets that agree on the places left, so
markings that share their upper places are handled once, together.

:class:`StateEquation` refutes a marking without any search: a reachable
marking ``m`` satisfies ``m = m0 + C·σ`` for the incidence matrix ``C`` and
some firing count vector ``σ`` (Murata, Proc. IEEE 1989).
"""

from __future__ import annotations

import math
import random
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping

from tfgkit.relation import ConcurrencyMatrix

COMPLETE = "complete"


class NotEnabledError(Exception):
    """Raised when firing a transition that is not enabled."""


class IncompleteStateSpaceError(Exception):
    """Raised when an exact answer is requested from a truncated exploration."""


class Marking:
    """Sparse token count per place; absent places hold zero.

    Equality and hashing are total over any place set, so sparse and dense
    inputs compare equal.
    """

    __slots__ = ("_tokens", "_hash")

    def __init__(self, tokens: Mapping[str, int] | None = None):
        items: dict[str, int] = {}
        if tokens is not None:
            for place, count in tokens.items():
                count = int(count)
                if count < 0:
                    raise ValueError(f"negative token count for {place!r}")
                if count:
                    items[place] = count
        self._tokens = items
        self._hash = hash(frozenset(items.items()))

    def __getitem__(self, place: str) -> int:
        return self._tokens.get(place, 0)

    def items(self) -> list[tuple[str, int]]:
        """Marked places with their counts, sorted by place name."""
        return sorted(self._tokens.items())

    def support(self) -> frozenset[str]:
        return frozenset(self._tokens)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Marking):
            return NotImplemented
        return self._tokens == other._tokens

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        inner = " ".join(f"{p}={n}" for p, n in self.items())
        return f"Marking({inner})"


@dataclass(frozen=True)
class PetriNet:
    """Net structure: places, transitions and weighted pre/post arcs.

    Attributes
    ----------
    places:
        Place names in declaration order.
    transitions:
        Transition names in declaration order.
    pre, post:
        Per transition, the weighted input (resp. output) places.  Only
        nonzero weights are stored.
    """

    places: tuple[str, ...]
    transitions: tuple[str, ...]
    pre: Mapping[str, Mapping[str, int]]
    post: Mapping[str, Mapping[str, int]]

    def __post_init__(self):
        pset, tset = set(self.places), set(self.transitions)
        if len(pset) != len(self.places) or len(tset) != len(self.transitions):
            raise ValueError("duplicate place or transition name")
        if pset & tset:
            raise ValueError("place and transition names must be disjoint")
        for name in list(self.places) + list(self.transitions):
            if not name:
                raise ValueError("empty name")
        for side in (self.pre, self.post):
            for t, arcs in side.items():
                if t not in tset:
                    raise ValueError(f"arcs for unknown transition {t!r}")
                for p, w in arcs.items():
                    if p not in pset:
                        raise ValueError(f"arc to unknown place {p!r}")
                    if w <= 0:
                        raise ValueError(f"nonpositive arc weight on {t!r}/{p!r}")

    def pre_of(self, t: str) -> Mapping[str, int]:
        return self.pre.get(t, {})

    def post_of(self, t: str) -> Mapping[str, int]:
        return self.post.get(t, {})


class _Packing:
    """Field layout of packed markings over ``places`` (see the module doc)."""

    __slots__ = ("places", "index", "bits", "width", "ones", "guards")

    def __init__(self, places: tuple[str, ...], bits: int):
        self.places = places
        self.index = {p: i for i, p in enumerate(places)}
        self.bits = bits
        self.width = bits + 1
        self.ones = ((1 << len(places) * self.width) - 1) // ((1 << self.width) - 1)
        self.guards = self.ones << bits

    def encode(self, m: Marking) -> int | None:
        """Packed form of ``m``, or None when no field can hold it: it names a
        place outside the layout or a count too wide for the value bits."""
        limit = 1 << self.bits
        out = 0
        for p, n in m._tokens.items():
            i = self.index.get(p)
            if i is None or n >= limit:
                return None
            out |= n << (i * self.width)
        return out

    def decode(self, m: int) -> Marking:
        mask = (1 << self.bits) - 1
        tokens = {}
        for p in self.places:
            if not m:
                break
            if m & mask:
                tokens[p] = m & mask
            m >>= self.width
        return Marking(tokens)


class StateSpace:
    """Result of an exploration.

    ``status`` is either ``"complete"`` or ``"truncated(<reason>)"`` where the
    reason names the limit that was hit.  ``len(space)`` counts the stored
    markings and ``m in space`` tests one, both without decoding the packed
    set; ``markings`` decodes it on first access.
    """

    def __init__(self, packing: _Packing, packed: frozenset[int], status: str):
        self._packing = packing
        self._packed = packed
        self.status = status

    @property
    def is_complete(self) -> bool:
        return self.status == COMPLETE

    @cached_property
    def markings(self) -> frozenset[Marking]:
        return frozenset(map(self._packing.decode, self._packed))

    def __len__(self) -> int:
        return len(self._packed)

    def __contains__(self, m: Marking) -> bool:
        packed = self._packing.encode(m)
        return packed is not None and packed in self._packed


def truncated(reason: str) -> str:
    return f"truncated({reason})"


def enabled(net: PetriNet, m: Marking) -> list[str]:
    """Transitions enabled at ``m``, in declaration order."""
    out = []
    for t in net.transitions:
        if all(m[p] >= w for p, w in net.pre_of(t).items()):
            out.append(t)
    return out


def fire(net: PetriNet, m: Marking, t: str) -> Marking:
    """Successor marking after firing ``t``; raises NotEnabledError otherwise."""
    pre = net.pre_of(t)
    if any(m[p] < w for p, w in pre.items()):
        raise NotEnabledError(f"{t} not enabled")
    tokens = {p: n for p, n in m.items()}
    for p, w in pre.items():
        tokens[p] = tokens.get(p, 0) - w
    for p, w in net.post_of(t).items():
        tokens[p] = tokens.get(p, 0) + w
    return Marking(tokens)


# the most tests of one place that a move copies; a place with more keeps
# one list, which the moves that change it share
_INLINE = 4


class _Windows(dict):
    """Moves by window of the enabled mask: key ``k << 8 | byte`` holds the
    moves of transitions ``8k + i`` for the set bits ``i`` of ``byte``, in
    bit order, so a window has at most 256 keys.  ``_compile`` stores the
    one-bit keys, and the others are built from them on first use."""

    def __missing__(self, key: int) -> tuple:
        out = ()
        high, rest = key & -256, key & 255
        while rest:
            low = rest & -rest
            out += self[high | low]
            rest -= low
        self[key] = out
        return out


def _compile(net: PetriNet, packing: _Packing, tokens: Mapping[str, int]) -> tuple[int, _Windows]:
    """The mask of the transitions enabled at the counts ``tokens``, and
    every transition's move in a window table.

    A move is ``(delta, keep, tests, shared)``: the packed ``post - pre``;
    the complement of ``touched``, which clears the readers of the places
    that the move changes from a parent's mask; and the tests that re-arm
    them.  A test ``[pre, bits]`` holds a packed pre-vector and the mask of
    every transition that has it.  Each place lists the tests of its
    readers, so a transition finds the test of its pre-vector, if an earlier
    transition made it, among those of any one place it reads: in the list,
    or by pre once the list is longer than ``_INLINE``, so that a hub costs
    no rescan.  ``tests`` concatenates the lists of the places that the move
    changes, so the search runs one loop per successor; a list of more than
    ``_INLINE`` tests, such as that of a hub whose readers also read places
    of their own, is not copied but shared, through ``shared``.  So a move
    holds at most ``_INLINE`` tests per arc, and the compiled moves take
    memory linear in the arcs.

    One pass over the transitions finds the tests, the readers and the
    initial mask; a second builds the moves, once every reader of every
    place is known."""
    index, width = packing.index, packing.width
    # place -> [bits of its readers, their tests, those tests by pre once
    # there are more than _INLINE of them, else None]
    readers: dict[str, list] = {}
    enabled = 0
    changed = []
    bit = 1
    no_arcs: dict[str, int] = {}
    for t in net.transitions:
        pre_arcs, post_arcs = net.pre.get(t, no_arcs), net.post.get(t, no_arcs)
        pre = post = 0
        places = []
        ready = bit
        for p, w in pre_arcs.items():
            pre += w << index[p] * width
            if post_arcs.get(p) != w:
                places.append(p)
            if tokens.get(p, 0) < w:
                ready = 0
        for q, w in post_arcs.items():
            post += w << index[q] * width
            if q not in pre_arcs:
                places.append(q)
        # a transition with the same pre reads p, the last place t reads
        entry = readers.get(p) if pre_arcs else None
        test = None
        if entry is not None:
            if entry[2] is None:
                for old in entry[1]:
                    if old[0] == pre:
                        test = old
                        break
            else:
                test = entry[2].get(pre)
        if test is not None:
            test[1] |= bit
            for p in pre_arcs:
                readers[p][0] |= bit
        else:
            test = [pre, bit]
            for p in pre_arcs:
                entry = readers.get(p)
                if entry is None:
                    readers[p] = [bit, [test], None]
                else:
                    entry[0] |= bit
                    group = entry[1]
                    group.append(test)
                    if entry[2] is not None:
                        entry[2][pre] = test
                    elif len(group) > _INLINE:
                        entry[2] = {old[0]: old for old in group}
        enabled |= ready
        changed.append((post - pre, places))
        bit <<= 1
    windows = _Windows()
    keys = [j >> 3 << 8 | 1 << (j & 7) for j in range(len(changed))]  # one-bit window keys
    for key, (delta, places) in zip(keys, changed):
        touched = 0
        inline = []
        shared = ()
        for p in places:
            entry = readers.get(p)
            if entry is not None:
                touched |= entry[0]
                group = entry[1]
                if len(group) > _INLINE:
                    shared += (group,)
                else:
                    inline += group
        windows[key] = ((delta, ~touched, inline, shared),)
    return enabled, windows


def _search(seen: set[int], start: int, mask: int, windows: _Windows, guards: int, cap: int,
            max_states: int, target: int) -> str:
    """Breadth-first search from ``start``, whose enabled mask is ``mask``,
    that adds each stored marking to ``seen`` and returns the status:
    ``truncated(...)`` as soon as a limit or ``target`` is hit.  A marking's
    mask is read a window of 8 bits at a time, in ``windows``; while the
    lowest window is empty, the mask jumps to the lowest set bit's window."""
    queue = deque([(start, mask)])
    while queue:
        m, mask = queue.popleft()
        rest = mask
        key = 0  # window index << 8
        while rest:
            byte = rest & 255
            if not byte:  # jump to the window of the lowest set bit
                skip = (rest & -rest).bit_length() - 1 & -8
                rest >>= skip
                key += skip << 5
                byte = rest & 255
            rest >>= 8
            for delta, keep, tests, shared in windows[key | byte]:
                m2 = m + delta
                if m2 in seen:
                    continue
                if (m2 + cap) & guards:
                    return truncated("max-token")
                if len(seen) >= max_states:
                    return truncated("max-states")
                seen.add(m2)
                mask2 = mask & keep
                armed = m2 | guards
                for pre, bits in tests:
                    if (armed - pre) & guards == guards:
                        mask2 |= bits
                for group in shared:
                    for pre, bits in group:
                        if (armed - pre) & guards == guards:
                            mask2 |= bits
                queue.append((m2, mask2))
                if m2 == target:
                    return truncated("goal")
            key += 256
    return COMPLETE


def explore(
    net: PetriNet,
    m0: Marking,
    max_states: int = 100_000,
    max_token: int = 1,
    goal: Marking | None = None,
) -> StateSpace:
    """Breadth-first closure of ``m0`` under firing.

    Stops as soon as the visited set would exceed ``max_states`` or a fired
    marking holds more than ``max_token`` tokens on some place; the returned
    status names the limit.  The marking set itself does not depend on
    transition declaration order, only the truncation point does.  Raises
    ValueError when ``m0`` marks a place outside ``net.places``.

    With a ``goal``, the search also stops as soon as it stores ``goal``
    (``m0`` included), with status ``truncated(goal)``; the stored set is
    then a prefix of the goal-less search's.  A search that never stores
    ``goal`` returns exactly what the goal-less one does.
    """
    if max_states < 1 or max_token < 1:
        raise ValueError("limits must be at least 1")
    weights = [w for side in (net.pre, net.post) for arcs in side.values() for w in arcs.values()]
    most = max(m0._tokens.values(), default=0)
    widest = max(max_token + max(weights, default=0), most)
    packing = _Packing(net.places, widest.bit_length())
    start = packing.encode(m0)
    if start is None:  # every count fits, so some place is outside the layout
        stray = sorted(m0.support() - set(net.places))
        raise ValueError(f"initial marking names non-places {stray}")
    target = None if goal is None else packing.encode(goal)
    if target is None:
        target = -1  # no packed marking: the search never stops at it
    if start == target:
        return StateSpace(packing, frozenset([start]), truncated("goal"))
    if most > max_token:
        return StateSpace(packing, frozenset([start]), truncated("max-token"))
    guards = packing.guards
    cap = packing.ones * ((1 << packing.bits) - 1 - max_token)
    mask, windows = _compile(net, packing, m0._tokens)
    seen = {start}
    status = _search(seen, start, mask, windows, guards, cap, max_states, target)
    return StateSpace(packing, frozenset(seen), status)


class StateEquation:
    """The state equation ``m = m0 + C·σ`` of a net, as a test of markings.

    A reachable marking ``m`` has ``m - m0`` in the span of the incidence
    columns ``C``, so a nonzero remainder of ``m - m0`` against that span
    proves ``m`` unreachable.  The columns are eliminated once, with exact
    integers, into an echelon basis of sparse vectors (place position ->
    coefficient), each keyed by its highest place position.  Pivoting on
    the highest position keeps a hub place shared by many transitions out
    of the pivots: on a lowest-position pivot, every column through the hub
    would be reduced against a growing chain of basis vectors.
    """

    def __init__(self, net: PetriNet, m0: Marking):
        self._index = {p: i for i, p in enumerate(net.places)}
        self._m0 = m0
        self._basis: dict[int, dict[int, int]] = {}
        for t in net.transitions:
            column = {self._index[p]: -w for p, w in net.pre_of(t).items()}
            for p, w in net.post_of(t).items():
                i = self._index[p]
                column[i] = column.get(i, 0) + w
            rest = self._reduce({i: x for i, x in column.items() if x})
            if rest:
                self._basis[max(rest)] = rest

    def _reduce(self, v: dict[int, int]) -> dict[int, int]:
        """Remainder of ``v`` against the basis, up to a nonzero factor."""
        while v:
            top = max(v)
            b = self._basis.get(top)
            if b is None:
                return v
            d = math.gcd(b[top], v[top])
            f, g = b[top] // d, v[top] // d
            combined = {i: f * x for i, x in v.items()}
            for i, x in b.items():
                combined[i] = combined.get(i, 0) - g * x
            v = {i: x for i, x in combined.items() if x}
            if v:
                d = math.gcd(*v.values())
                if d > 1:
                    v = {i: x // d for i, x in v.items()}
        return v

    def admits(self, m: Marking) -> bool:
        """False when ``m`` is proven unreachable from ``m0``; True says
        only that the state equation has a rational solution."""
        diff = {}
        for p in m.support() | self._m0.support():
            d = m[p] - self._m0[p]
            if d:
                i = self._index.get(p)
                if i is None:  # no transition touches a non-place
                    return False
                diff[i] = d
        return not self._reduce(diff)


def is_safe(space: StateSpace) -> bool:
    """True when every stored marking is 1-bounded."""
    packing = space._packing
    union = 0
    for m in space._packed:
        union |= m
    # a count above 1 anywhere leaves a value bit above its field's lowest
    return not union & packing.ones * ((1 << packing.bits) - 2)


def oracle_reachable(space: StateSpace, m: Marking) -> bool:
    """Exact membership test; refuses truncated spaces."""
    if not space.is_complete:
        raise IncompleteStateSpaceError(space.status)
    return m in space


def _marked_rows(space: StateSpace) -> list[int]:
    """Per layout place ``i``, one bit per layout place for every place
    marked together with ``i`` in some stored marking; bit ``i`` itself is
    set when ``i`` is marked at all.

    The work is done on items ``(rest, acc)`` of guard-bit sets: ``acc`` is
    the union of the marked-place sets merged into the item, and each of
    them marks all of ``rest``.  A place of ``rest`` is therefore marked
    together with exactly the places of ``acc`` in those markings, so it is
    *peeled*: its row takes ``acc`` and it leaves ``rest``, while ``acc``
    stays as it is.  Each distinct set starts as its own item.  A level
    peels every item's places up to a cut place, and at least its lowest
    one, then merges the items whose ``rest`` is now equal by uniting their
    ``acc``.  Every marking that marks a place lies in exactly one item when
    that place is peeled, so each row comes out exact.

    The first cut is the lowest place of the highest set; each later one is
    the highest lowest place among the items, so that every item meets it.
    On the disjoint products of blocks that the generators build, the
    markings that agree above the first block become one item once that
    block is peeled, and so on up the blocks.  Where sets never merge, a
    level costs a dict entry per item and saves nothing, so once a level
    ends with as many items as it began with, the cut goes above every
    place and the next level peels each item to the end."""
    packing = space._packing
    ones, guards, width = packing.ones, packing.guards, packing.width
    # by_length[(i + 1) * width]: guard bits of every place marked together
    # with layout place i, indexed by the bit length of i's guard bit
    by_length = [0] * (len(packing.places) * width + 1)
    occupied = {((m | guards) - ones) & guards for m in space._packed}
    occupied.discard(0)  # the empty marking marks no place
    count = len(occupied)
    items = zip(occupied, occupied)
    cut = max(occupied, default=0)
    cut &= -cut
    while count:
        merged: dict[int, int] = {}
        top = 0  # the highest lowest place among the merged items
        bound = cut << 1
        for rest, acc in items:
            if rest < bound:  # no place above the cut: peel them all
                while rest:
                    low = rest & -rest
                    by_length[low.bit_length()] |= acc
                    rest ^= low
                continue
            low = rest & -rest
            while True:
                by_length[low.bit_length()] |= acc
                rest ^= low
                low = rest & -rest
                if low > cut or not low:
                    break
            if rest:
                merged[rest] = merged.get(rest, 0) | acc
                if low > top:
                    top = low
        cut = guards if len(merged) == count else top
        count = len(merged)
        items = merged.items()
    marked = []  # the same sets, one bit per layout place
    for row in by_length[width::width]:
        first = max((row & -row).bit_length() // width - 1, 0)  # lowest marked place, 0 if none
        digits = format(row >> first * width, "b")  # from that place's field up
        guards_only = digits[(len(digits) - width) % width :: width]  # each field's guard digit
        marked.append(int(guards_only or "0", 2) << first)
    return marked


def oracle_concurrency(space: StateSpace, places: Iterable[str]) -> ConcurrencyMatrix:
    """Exact place-concurrency relation computed by scanning every marking.

    Cell (p, q) is 1 when some stored marking puts a token on both p and q
    (diagonal: p marked at all), else 0.  Refuses truncated spaces.
    """
    if not space.is_complete:
        raise IncompleteStateSpaceError(space.status)
    order = tuple(places)
    packing = space._packing
    # a name outside the layout is never marked
    outside = [p for p in order if p not in packing.index]
    everything = packing.places + tuple(outside)
    marked = _marked_rows(space) + [0] * len(outside)
    mat = ConcurrencyMatrix.from_rows(everything, marked).restrict(order)
    mat.writes = mat.ones_count()
    return mat


def random_walk(net: PetriNet, m0: Marking, steps: int, seed: int) -> Marking:
    """Marking reached by a uniformly random firing sequence of ``steps`` moves.

    Stops early on deadlock.  Deterministic for a fixed seed.
    """
    rng = random.Random(seed)
    m = m0
    for _ in range(steps):
        options = enabled(net, m)
        if not options:
            break
        m = fire(net, m, rng.choice(options))
    return m
