"""Place/transition nets, markings and exhaustive state-space exploration.

The explorer doubles as the ground-truth oracle: every accelerated answer in
this package can be checked against a complete breadth-first enumeration at
desk scale.

Packed markings
---------------
Inside the explorer a marking is one Python ``int``.  Place ``i`` of
``net.places`` owns bits ``[i*w, (i+1)*w)``: ``w - 1`` value bits holding its
token count, topped by a guard bit that a stored marking always keeps clear.
The value bits hold ``max_token`` plus the net's ``heaviest`` arc weight,
which bounds both a successor before its token check and every pre weight,
and every count of ``m0``.  With ``G`` the mask of all guard bits, each transition is
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
the members of ``touched`` that are enabled at the successor: the
enabledness of any other transition cannot have changed.  Transitions with
equal ``pre`` pass or fail together, so they share one test, which sets all
of their bits.  For most of these tests the move of ``t`` knows the answer
when it is compiled:

- a sure pass: ``t`` was enabled at the parent, so the successor holds at
  least ``post_t[q]`` on every place ``q``, and a test whose every weight is
  at most ``t``'s post weight on that place passes; its bits are a constant
  of the move;
- a sure fail: no stored count exceeds ``max_token``, so ``t`` leaves at
  most ``max_token - pre_t[q] + post_t[q]`` on ``q``; when that is below
  the least weight of ``q``'s readers, none of them is tested;
- any other test is listed once per move, however many of the places it
  reads the move changes.

On a safe net, then, a firing tests only the readers of a place it fills
that also read a place it does not fill, such as the join of
``two_phase_branches`` after one step: a ring, a chain, a choice loop's
branches, a diamond block and a fork's join need no test at all.

The mask is expanded one set bit at a time, from low to high, which is
declaration order: the lowest set bit's position indexes the list of
compiled moves.

Sleep sets
----------
On a net made of independent parts, most firings lead back to a stored
marking: ``a`` then ``b`` reaches what ``b`` then ``a`` already did.  The
search skips them with sleep sets (Godefroid, "Partial-Order Methods for the
Verification of Concurrent Systems", LNCS 1032, 1996).  Beside its enabled
mask, each queued marking carries a sleep mask ``z`` of enabled transitions,
and only the transitions of ``mask & ~z`` fire at it.  A transition ``u``
*depends* on ``t`` when ``u`` reads a place that ``t`` reads or changes.
When ``t`` fires at ``m`` and stores a new marking ``m2``, ``m2`` sleeps on

    z2 = (z | the transitions fired at m before t) minus the dependents of t

which the search takes as ``sleep & nap``: ``sleep`` is ``z`` plus the
transitions fired so far, all enabled at ``m``, and ``nap``, one mask per
move, drops the readers of the places that ``t`` changes and of those that
it reads and puts back.  So a member ``u`` of ``z2`` is enabled
at ``m`` and at ``m2``, since ``t`` changes no place ``u`` reads, and ``t``
is still enabled after ``u``, since ``u`` reads no place ``t`` reads, and a
transition can only lower a place it reads.  The relation need not be
symmetric: a transition that only puts tokens on a place that ``t`` reads
cannot disable ``t``.

Every skipped firing reaches a stored marking: when ``m2`` is expanded,
``m2 + u`` has been stored for each ``u`` of ``z2``, or the search has
stopped.  By induction on the order of expansion, ``m + u`` was stored
before ``m2``: when ``u`` fired at ``m``, or by the claim for ``m`` when
``u`` slept there.  So ``m + u`` is expanded first, with ``t`` enabled.
Either ``t`` fires there and stores ``m + u + t = m2 + u``, or stops the
search at a limit, or ``t`` sleeps at ``m + u`` and the claim for ``m + u``
applies.  A full scan would have found every skipped successor in the
stored set and passed over it, so the stored set, its order, every
``max-states`` and ``max-token`` truncation point and the goal stop are
exactly those of a full scan.  On ``two_phase_branches(14)`` the search
fires 16,440 edges for its 16,386 states, against 115,573 without sleep sets.

One encoding serves safe nets (``max_token=1``) and bounded ones alike.
:class:`StateSpace` keeps the packed set; ``len(space)`` and ``m in space``
work on it directly, and ``space.markings`` decodes it to :class:`Marking`
objects once, on first access.  ``Marking``, :func:`enabled`, :func:`fire`
and :func:`random_walk` remain the public API at the edges.

One compiled layout serves a net and each of its parts.  :func:`explore`
is a :class:`_Compiled` net, the packing plus the moves of :func:`_compile`,
and one :meth:`_Compiled.search` of the whole of it.  A part that shares
no place and no transition with the rest of the net, such as a connected
component of a reduced net, is searched in the same layout: the search
starts from ``m0`` masked to the part's fields, with the part's
transitions as the enabled mask.  A move then only changes and re-tests
the part's own fields and transitions, and the guard and token tests are
masked to its fields, so the other fields stay empty and the packed ints
are no wider than the part's last field.  The marked rows of the oracle
below are written the same way, for a part's places only.

The concurrency oracle reads the same packed set: the row of a place is the
union of the marked-place sets (guard bits only) of the stored markings
that mark it.  ``_marked_rows`` builds the rows in one of two forms, and
takes the one with fewer Python steps.  The column form builds one bitset
over the markings per place, with every per-marking step in C; two places
are concurrent when their bitsets meet, so its Python work is the pairs of
places.  The set form walks each distinct marked-place set once and ORs it
into the row of every place it marks, so its Python work is the sets'
summed sizes.  Narrow, state-exploding spaces take the columns, wide ones
with few distinct sets take the sets (figures at ``_marked_rows``).

:class:`StateEquation` refutes a marking without any search: a reachable
marking ``m`` satisfies ``m = m0 + C·σ`` for the incidence matrix ``C`` and
some firing count vector ``σ`` (Murata, Proc. IEEE 1989).  It derives a
basis of the P-flows, the ``y`` with ``yᵀC = 0``, once, from an integer
echelon basis of ``C``'s columns, so a test is one dot product per flow
through the places that ``m`` marks: ``y·m`` must equal ``y·m0``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from functools import cache, cached_property
from itertools import repeat
from typing import Iterable, Mapping, Sequence

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

    @classmethod
    def _unchecked(cls, tokens: dict[str, int]) -> Marking:
        """The marking of ``tokens``, whose counts are positive ints, without
        the checks of ``__init__``; the dict is kept, not copied.  Callers:
        :class:`tfgkit.tfg.Projection` and :func:`tfgkit.net_io.parse_net`."""
        m = object.__new__(cls)
        m._tokens = tokens
        m._hash = hash(frozenset(tokens.items()))
        return m

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
    heaviest:
        No arc weighs more: the largest weight, 0 without arcs, found while
        the arcs are checked.  A net built from parts of another carries
        that net's.
    """

    places: tuple[str, ...]
    transitions: tuple[str, ...]
    pre: Mapping[str, Mapping[str, int]]
    post: Mapping[str, Mapping[str, int]]
    heaviest: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        pset, tset = set(self.places), set(self.transitions)
        if len(pset) != len(self.places) or len(tset) != len(self.transitions):
            raise ValueError("duplicate place or transition name")
        if pset & tset:
            raise ValueError("place and transition names must be disjoint")
        for name in list(self.places) + list(self.transitions):
            if not name:
                raise ValueError("empty name")
        heaviest = 0
        for side in (self.pre, self.post):
            for t, arcs in side.items():
                if t not in tset:
                    raise ValueError(f"arcs for unknown transition {t!r}")
                for p, w in arcs.items():
                    if p not in pset:
                        raise ValueError(f"arc to unknown place {p!r}")
                    if w <= 0:
                        raise ValueError(f"nonpositive arc weight on {t!r}/{p!r}")
                    if w > heaviest:
                        heaviest = w
        object.__setattr__(self, "heaviest", heaviest)

    @classmethod
    def _unchecked(cls, places: tuple[str, ...], transitions: tuple[str, ...],
                   pre: Mapping[str, Mapping[str, int]], post: Mapping[str, Mapping[str, int]],
                   heaviest: int) -> PetriNet:
        """The net of these parts without the checks of ``__post_init__``,
        whose ``heaviest`` is given: for parts taken from a net that passed
        them (the reducer), and for :func:`tfgkit.net_io.parse_net`, which
        makes the same checks as it reads."""
        net = object.__new__(cls)
        net.__dict__.update(places=places, transitions=transitions, pre=pre, post=post, heaviest=heaviest)
        return net

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
        index = self.index
        if not index.keys() >= m._tokens.keys():
            return None
        return self.pack((index[p], n) for p, n in m._tokens.items())

    def pack(self, fields: Iterable[tuple[int, int]]) -> int | None:
        """Packed marking with count ``n`` at layout position ``i`` for each
        ``(i, n)`` of ``fields``, or None when a count is too wide."""
        limit = 1 << self.bits
        out = 0
        for i, n in fields:
            if n >= limit:
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

    def holds(self, fields: Iterable[tuple[int, int]]) -> bool:
        """Whether the marking with count ``n`` at layout position ``i``, for
        each ``(i, n)`` of ``fields``, is stored: ``m in space`` without a
        :class:`Marking`."""
        packed = self._packing.pack(fields)
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


def _compile(net: PetriNet, packing: _Packing, tokens: Mapping[str, int],
             max_token: int) -> tuple[int, list[tuple]]:
    """The mask of the transitions enabled at the counts ``tokens``, and
    the list of every transition's move, in declaration order.

    A move is ``(delta, keep, sure, nap, tests, shared)``: the packed
    ``post - pre``; the complement of ``touched``, which clears the readers
    of the places that the move changes from a parent's mask; the readers
    that it surely re-enables; the complement of its dependents, which
    clears them from a sleep mask; and the tests of the readers whose
    answer depends on the marking (see the module doc).  ``nap`` is
    ``keep`` itself, so no mask as wide as the transitions is built for it,
    when the transition changes every place it reads, the common case.

    A test ``[pre, bits, arcs, stamp]`` holds a packed pre-vector, the mask
    of every transition that has it, their arcs and the last move that
    listed it.  Each place lists the tests of its readers, so a transition
    finds the test of its pre-vector, if an earlier transition made it,
    among those of any one place it reads: in the list, or by pre once the
    list is longer than ``_INLINE``, so that a hub costs no rescan.  A place
    also keeps its test of pre ``{place: 1}`` apart from the others.  A move
    sorts the tests of the places it changes, each once:

    - a place that it leaves below the least weight of its readers, since
      no stored count exceeds ``max_token``, gives no test at all; on a
      safe net, that is every place it takes a token from;
    - a test whose every weight the move's own post covers surely passes,
      since the move was enabled, and its bits go into ``sure``; the test
      of pre ``{q: 1}`` of a place ``q`` that the move fills is one, found
      without a look at its arcs;
    - any other test is listed, once, in ``tests``, or, when the move
      changes a place with more than ``_INLINE`` such tests, such as a hub
      whose readers also read places of their own, in that place's list,
      which is not copied but shared, through ``shared``.

    So a move holds at most ``_INLINE`` tests per arc, and the compiled
    moves take memory linear in the arcs.  One pass over the transitions
    finds the tests, the readers and the initial mask; a second builds the
    moves, once every reader of every place is known."""
    index, width = packing.index, packing.width
    # place -> [bits of its readers, their tests, those tests by pre once
    # there are more than _INLINE of them, else None, the least weight
    # they read the place with, the test of pre {place: 1} or None, the
    # other tests]
    readers: dict[str, list] = {}
    enabled = 0
    changed = []
    bit = 1
    no_arcs: dict[str, int] = {}
    for t in net.transitions:
        pre_arcs, post_arcs = net.pre.get(t, no_arcs), net.post.get(t, no_arcs)
        pre = post = 0
        ready = bit
        for p, w in pre_arcs.items():
            pre += w << index[p] * width
            if tokens.get(p, 0) < w:
                ready = 0
        for q, w in post_arcs.items():
            post += w << index[q] * width
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
            test = [pre, bit, pre_arcs, -1]
            lone = len(pre_arcs) == 1
            for p, w in pre_arcs.items():
                entry = readers.get(p)
                if entry is None:
                    entry = readers[p] = [bit, [test], None, w, None, []]
                else:
                    entry[0] |= bit
                    if w < entry[3]:
                        entry[3] = w
                    group = entry[1]
                    group.append(test)
                    if entry[2] is not None:
                        entry[2][pre] = test
                    elif len(group) > _INLINE:
                        entry[2] = {old[0]: old for old in group}
                if lone and w == 1:
                    entry[4] = test
                else:
                    entry[5].append(test)
        enabled |= ready
        changed.append((post - pre, pre_arcs, post_arcs))
        bit <<= 1
    moves = []
    for stamp, (delta, pre_arcs, post_arcs) in enumerate(changed):
        touched = kept = sure = 0
        listed = []
        hubs = ()  # the places whose shared list the move tests
        shared = ()
        for p, w in pre_arcs.items():
            entry = readers[p]
            back = post_arcs.get(p, 0)
            if back == w:
                kept |= entry[0]
                continue
            touched |= entry[0]
            if max_token - w + back < entry[3]:
                continue  # no stored marking holds what a reader of p takes
            group = entry[1]
            if len(group) > _INLINE:
                hubs += (p,)
                shared += (group,)
            else:
                listed += group
        for q in post_arcs:
            if q in pre_arcs:
                continue
            entry = readers.get(q)
            if entry is None:
                continue
            touched |= entry[0]
            if entry[4]:  # the test of pre {q: 1} passes
                sure |= entry[4][1]
            group = entry[5]
            if len(group) > _INLINE:
                hubs += (q,)
                shared += (group,)
            elif group:
                listed += group
        tests = listed
        if listed:
            tests = []
            for test in listed:
                if test[3] == stamp:
                    continue
                test[3] = stamp
                arcs = test[2]
                if len(arcs) <= len(post_arcs):
                    for q, w in arcs.items():
                        if post_arcs.get(q, 0) < w:
                            break
                    else:
                        sure |= test[1]
                        continue
                tests.append(test)
            if hubs:  # a test of a shared list is listed there only
                tests = [test for test in tests if not any(q in test[2] for q in hubs)]
        keep = nap = ~touched
        if kept:
            nap = ~(touched | kept)
        moves.append((delta, keep, sure, nap, tests, shared))
    return enabled, moves


def _search(seen: set[int], start: int, mask: int, moves: list[tuple], guards: int, cap: int,
            max_states: int, target: int) -> str:
    """Breadth-first search from ``start``, whose enabled mask is ``mask``,
    that adds each stored marking to ``seen`` and returns the status:
    ``truncated(...)`` as soon as a limit or ``target`` is hit.  The search
    expands one level of queued markings at a time, in the order they were
    stored.  The transitions of a marking's mask fire lowest bit first, each
    reading its move at the bit's position in ``moves``.  Each queued
    marking also carries its sleep mask, and the transitions in it are not
    fired; ``sleep`` gains the bit of each transition fired at the marking,
    so that it holds the ``z | fired before t`` of the module doc when a
    successor is stored."""
    size = len(seen)
    add = seen.add
    level = [(start, mask, 0)]
    while level:
        queue = []
        for m, mask, sleep in level:
            rest = mask ^ sleep  # the sleep set is a subset of the enabled mask
            while rest:
                bit = rest & -rest
                rest ^= bit
                delta, keep, sure, nap, tests, shared = moves[bit.bit_length() - 1]
                m2 = m + delta
                add(m2)  # hashes m2 once, where `in` and `add` would hash it twice
                if len(seen) == size:  # m2 was stored before
                    sleep |= bit
                    continue
                if (m2 + cap) & guards:
                    seen.discard(m2)
                    return truncated("max-token")
                if size == max_states:
                    seen.discard(m2)
                    return truncated("max-states")
                size += 1
                mask2 = mask & keep | sure
                armed = m2 | guards
                for pre, bits, _, _ in tests:
                    if (armed - pre) & guards == guards:
                        mask2 |= bits
                for group in shared:
                    for pre, bits, _, _ in group:
                        if (armed - pre) & guards == guards:
                            mask2 |= bits
                queue.append((m2, mask2, sleep & nap))
                sleep |= bit
                if m2 == target:
                    return truncated("goal")
        level = queue
    return COMPLETE


class _Compiled:
    """``net`` compiled once for searches from ``m0`` within ``max_token``:
    its ``packing``, ``m0`` packed as ``start``, the ``enabled`` mask at
    ``m0`` and the ``moves`` of :func:`_compile`, and the ``cap`` of the
    token check.  :meth:`search` explores the whole net, or any part of it
    that shares no place and no transition with the rest, in this one
    layout.  Raises ValueError when ``m0`` marks a place outside
    ``net.places``."""

    __slots__ = ("packing", "start", "enabled", "moves", "cap")

    def __init__(self, net: PetriNet, m0: Marking, max_token: int):
        most = max(m0._tokens.values(), default=0)
        widest = max(max_token + net.heaviest, most)
        self.packing = packing = _Packing(net.places, widest.bit_length())
        self.start = packing.encode(m0)
        if self.start is None:  # every count fits, so some place is outside the layout
            stray = sorted(m0.support() - set(net.places))
            raise ValueError(f"initial marking names non-places {stray}")
        self.cap = packing.ones * ((1 << packing.bits) - 1 - max_token)
        self.enabled, self.moves = _compile(net, packing, m0._tokens, max_token)

    def search(self, max_states: int, target: int = -1, fields: int = -1,
               transitions: int = -1) -> StateSpace:
        """The search of :func:`explore` over the places whose fields are
        the bits of ``fields`` and the transitions whose bits are set in
        ``transitions``, from ``m0`` on those places, stopping at the
        packed marking ``target`` (-1 for none).  By default, the whole
        net.  The part must share no place and no transition with the rest
        of the net: then its moves change and re-test only its own fields
        and transitions, and the guard and token tests read its fields only,
        so the other fields stay empty and the ints stay as narrow as the
        part's last field."""
        packing = self.packing
        start, guards, cap = self.start & fields, packing.guards & fields, self.cap & fields
        if start == target:
            return StateSpace(packing, frozenset([start]), truncated("goal"))
        if (start + cap) & guards:  # m0 holds more than max_token somewhere
            return StateSpace(packing, frozenset([start]), truncated("max-token"))
        seen = {start}
        status = _search(seen, start, self.enabled & transitions, self.moves, guards, cap,
                         max_states, target)
        return StateSpace(packing, frozenset(seen), status)


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
    transition declaration order, only the truncation point does.  Sleep
    sets skip only firings whose successor is already stored (the induction
    in the module doc), so the stored set and the truncation point are those
    of a search that fires every enabled transition.  Raises
    ValueError when ``m0`` marks a place outside ``net.places``.

    With a ``goal``, the search also stops as soon as it stores ``goal``
    (``m0`` included), with status ``truncated(goal)``; the stored set is
    then a prefix of the goal-less search's.  A search that never stores
    ``goal`` returns exactly what the goal-less one does.
    """
    if max_states < 1 or max_token < 1:
        raise ValueError("limits must be at least 1")
    compiled = _Compiled(net, m0, max_token)
    target = None if goal is None else compiled.packing.encode(goal)
    return compiled.search(max_states, -1 if target is None else target)


class StateEquation:
    """The state equation ``m = m0 + C·σ`` of a net, as a test of markings.

    A reachable marking ``m`` has ``m - m0`` in the span of the incidence
    columns ``C``.  The columns are eliminated once, with exact integers,
    into an echelon basis of sparse vectors (place position -> coefficient),
    each keyed by its highest place position.  Pivoting on the highest
    position keeps a hub place shared by many transitions out of the
    pivots: on a lowest-position pivot, every column through the hub would
    be reduced against a growing chain of basis vectors.

    A vector lies in that span exactly when it is orthogonal to every
    P-flow, an integer ``y`` with ``yᵀC = 0`` (a place invariant: Murata,
    Proc. IEEE 1989).  :func:`_flows` reads a basis of the P-flows off the
    echelon basis, so ``m`` is refuted when ``y·m ≠ y·m0`` for one of them,
    and a test costs the flows through the places that ``m`` marks.
    """

    def __init__(self, net: PetriNet, m0: Marking):
        # a place outside the net that m0 marks is one no transition touches
        places = (*net.places, *sorted(m0.support() - set(net.places)))
        index = {p: i for i, p in enumerate(places)}
        basis: dict[int, dict[int, int]] = {}
        for t in net.transitions:
            column = {index[p]: -w for p, w in net.pre_of(t).items()}
            for p, w in net.post_of(t).items():
                i = index[p]
                column[i] = column.get(i, 0) + w
            rest = _remainder(basis, {i: x for i, x in column.items() if x})
            if rest:
                basis[max(rest)] = rest
        # per place, its (flow, coefficient) pairs; per flow, -(y·m0) when nonzero
        self._columns: dict[str, list[tuple[int, int]]] = {p: [] for p in places}
        self._offsets: dict[int, int] = {}
        for k, y in enumerate(_flows(basis, len(places))):
            at_m0 = 0
            for i, x in y.items():
                self._columns[places[i]].append((k, x))
                at_m0 += x * m0[places[i]]
            if at_m0:
                self._offsets[k] = -at_m0

    def admits(self, m: Marking) -> bool:
        """False when ``m`` is proven unreachable from ``m0``; True says
        only that the state equation has a rational solution."""
        residual = self._offsets.copy()
        columns = self._columns
        for p, n in m._tokens.items():
            column = columns.get(p)
            if column is None:  # no transition touches a non-place
                return False
            for k, x in column:
                residual[k] = residual.get(k, 0) + x * n
        return not any(residual.values())


def _remainder(basis: dict[int, dict[int, int]], v: dict[int, int]) -> dict[int, int]:
    """Remainder of ``v`` against the echelon ``basis``, up to a nonzero factor."""
    while v:
        top = max(v)
        b = basis.get(top)
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


def _flows(basis: dict[int, dict[int, int]], n: int) -> list[dict[int, int]]:
    """A basis of the P-flows over ``n`` positions, for the echelon ``basis``
    of the incidence columns: for each position ``f`` that keys no basis
    vector, in increasing order, the integer ``y`` orthogonal to every basis
    vector with ``y[f] > 0`` and zero on every other such position.

    By integer back-substitution: a basis vector ``b`` keyed ``t`` fixes
    ``y[t] = -(Σ y[i]·b[i] for i < t) / b[t]``, and ``y`` is scaled up
    first when ``b[t]`` does not divide the sum.  The keys are solved in
    increasing order, each for the flows nonzero on its vector, so the work
    is the flows that meet each vector."""
    flows = {f: {f: 1} for f in range(n) if f not in basis}
    holders = {f: [f] for f in flows}  # position -> the flows nonzero there
    for t in sorted(basis):
        b = basis[t]
        sums: dict[int, int] = {}
        for i, x in b.items():
            for f in holders.get(i, ()):
                sums[f] = sums.get(f, 0) + flows[f][i] * x
        bt = b[t]
        for f, s in sums.items():
            if s:
                y = flows[f]
                if s % bt:
                    scale = abs(bt) // math.gcd(s, bt)
                    for i in y:
                        y[i] *= scale
                    s *= scale
                y[t] = -s // bt
                holders.setdefault(t, []).append(f)
    out = []
    for y in flows.values():
        d = math.gcd(*y.values())
        out.append({i: x // d for i, x in y.items()} if d > 1 else y)
    return out


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


def _marked_rows(space: StateSpace, positions: Sequence[int] | None = None,
                 rows: list[int] | None = None) -> list[int]:
    """Per layout place ``i``, one bit per layout place for every place
    marked together with ``i`` in some stored marking; bit ``i`` itself is
    set when ``i`` is marked at all.  With ``positions``, increasing, only
    the rows of the places there are written, into ``rows`` when it is
    given: the stored markings must leave every other place empty, as a
    search of a part of the net does.

    Built in one of two forms.  :func:`_column_rows` does all of its
    per-marking work in C and then one Python step per pair of places, n**2
    for n places.  :func:`_set_rows` takes one Python step per place of each
    distinct marked-place set.  The columns are taken when their n**2 steps
    are at most the stored markings, without building the sets, or at most
    the sets' summed sizes; so the rule is a cost comparison with no tuning
    constant.  Each form loses badly on the other's side.  Measured in
    process (CPython 3.11, 2 cores), the columns cost 4.9x the sets on
    ``chain_line(25)``, 150x on ``duplicate_ladder(1000)`` and 370x on
    ``fork_join(2000)``; the sets, with the sets built, cost 2-7x the
    columns on ``two_phase_branches(6..10)`` and ``diamond_chain(5..7)`` and
    14-16x on ``two_phase_branches(16)`` and ``diamond_chain(10)``."""
    packing = space._packing
    if positions is None:
        positions = range(len(packing.places))
    squared = len(positions) ** 2
    if squared <= len(space):
        return _column_rows(space, positions, rows)
    occupied = {((m | packing.guards) - packing.ones) & packing.guards for m in space._packed}
    if squared <= sum(map(int.bit_count, occupied)):
        return _column_rows(space, positions, rows)
    return _set_rows(packing, occupied, rows)


@cache
def _any_set(mask: int) -> bytes:
    """The ``bytes.translate`` table that maps a byte to ``b"1"`` when it
    has a bit of ``mask`` set, else to ``b"0"``."""
    return bytes(49 if byte & mask else 48 for byte in range(256))


def _column_rows(space: StateSpace, positions: Sequence[int] | None = None,
                 rows: list[int] | None = None) -> list[int]:
    """:func:`_marked_rows` through one bitset over the stored markings per
    place (Warren, "Hacker's Delight", ch. 7, transposes the same way).

    Every packed marking is written little-endian into one ``bytes``, a
    record of ``size`` bytes each, up to the last field of ``positions``,
    so one strided slice holds a given byte of every marking.  A place's
    column ORs, over each byte that its value bits touch, that slice
    translated to ``0``/``1`` digits, "some value bit of the place set",
    and read in base 2: one bit per stored marking, set when it puts any
    count on the place.  Place ``i`` is marked together with place ``k``
    exactly when their columns meet."""
    packing = space._packing
    bits, width = packing.bits, packing.width
    if positions is None:
        positions = range(len(packing.places))
    if rows is None:
        rows = [0] * len(packing.places)
    if not positions:
        return rows
    size = ((positions[-1] + 1) * width + 7) // 8
    records = b"".join(map(int.to_bytes, space._packed, repeat(size), repeat("little")))
    field = (1 << bits) - 1
    columns = []
    for low in (i * width for i in positions):
        column = 0
        for byte in range(low // 8, (low + bits - 1) // 8 + 1):
            mask = (field << low >> byte * 8) & 0xFF
            column |= int(records[byte::size].translate(_any_set(mask)), 2)
        columns.append(column)
    bits = [1 << i for i in positions]
    for i, column in zip(positions, columns):
        rows[i] = sum(bit for bit, other in zip(bits, columns) if column & other)
    return rows


def _set_rows(packing: _Packing, occupied: set[int], rows: list[int] | None = None) -> list[int]:
    """:func:`_marked_rows` from the distinct marked-place sets ``occupied``,
    guard bits only: each set, as one bit per place, is ORed into the row of
    every place that it marks, in ``rows`` when it is given.  Place ``i``'s
    guard bit is bit ``i * width + bits``, so its bit length over ``width``
    is ``i + 1``."""
    width = packing.width
    if rows is None:
        rows = [0] * len(packing.places)
    for guards in occupied:
        marked = []
        mask = 0
        while guards:
            low = guards & -guards
            i = low.bit_length() // width - 1
            marked.append(i)
            mask |= 1 << i
            guards ^= low
        for i in marked:
            rows[i] |= mask
    return rows


def oracle_concurrency(space: StateSpace, places: Iterable[str]) -> ConcurrencyMatrix:
    """Exact place-concurrency relation computed by scanning every marking.

    Cell (p, q) is 1 when some stored marking puts a token on both p and q
    (diagonal: p marked at all), else 0.  Refuses truncated spaces.
    """
    if not space.is_complete:
        raise IncompleteStateSpaceError(space.status)
    order = tuple(places)
    packing = space._packing
    if order == packing.places:  # the layout itself, as for every net.places order
        mat = ConcurrencyMatrix._unchecked(order, _marked_rows(space))
    else:
        # a name outside the layout is never marked
        outside = [p for p in order if p not in packing.index]
        everything = packing.places + tuple(outside)
        marked = _marked_rows(space) + [0] * len(outside)
        mat = ConcurrencyMatrix._unchecked(everything, marked).restrict(order)
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
