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

One encoding serves safe nets (``max_token=1``) and bounded ones alike.
:class:`StateSpace` keeps the packed set; ``len(space)`` and ``m in space``
work on it directly, and ``space.markings`` decodes it to :class:`Marking`
objects once, on first access.  ``Marking``, :func:`enabled`, :func:`fire`
and :func:`random_walk` remain the public API at the edges.

:class:`StateEquation` refutes a marking without any search: a reachable
marking ``m`` satisfies ``m = m0 + C·σ`` for the incidence matrix ``C`` and
some firing count vector ``σ`` (Murata, Proc. IEEE 1989).
"""

from __future__ import annotations

import math
import random
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

    def __init__(self, tokens: Mapping[str, int] | Iterable[tuple[str, int]] | None = None):
        items: dict[str, int] = {}
        if tokens is not None:
            pairs = tokens.items() if isinstance(tokens, Mapping) else tokens
            for place, count in pairs:
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
        self.ones = sum(1 << (i * self.width) for i in range(len(places)))
        self.guards = self.ones << bits

    def vector(self, counts: Mapping[str, int]) -> int:
        """Packed form of a count per place; every place must be in the layout."""
        return sum(n << (self.index[p] * self.width) for p, n in counts.items())

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
    stray = m0.support() - set(net.places)
    if stray:
        raise ValueError(f"initial marking names non-places {sorted(stray)}")
    weights = [w for side in (net.pre, net.post) for arcs in side.values() for w in arcs.values()]
    widest = max([max_token + max(weights, default=0)] + [n for _, n in m0.items()])
    packing = _Packing(net.places, widest.bit_length())
    start = packing.encode(m0)
    target = None if goal is None else packing.encode(goal)
    if target is None:
        target = -1  # no packed marking: the search never stops at it
    if start == target:
        return StateSpace(packing, frozenset([start]), truncated("goal"))
    if any(n > max_token for _, n in m0.items()):
        return StateSpace(packing, frozenset([start]), truncated("max-token"))
    guards = packing.guards
    cap = packing.ones * ((1 << packing.bits) - 1 - max_token)
    moves = []
    for t in net.transitions:
        pre = packing.vector(net.pre_of(t))
        moves.append((pre, packing.vector(net.post_of(t)) - pre))
    seen = {start}
    order = [start]  # the BFS queue: the loop below reads it while appending
    status = COMPLETE
    for m in order:
        armed = m | guards
        for pre, delta in moves:
            if (armed - pre) & guards != guards:
                continue
            m2 = m + delta
            if m2 in seen:
                continue
            if (m2 + cap) & guards:
                status = truncated("max-token")
                break
            if len(seen) >= max_states:
                status = truncated("max-states")
                break
            seen.add(m2)
            order.append(m2)
            if m2 == target:
                status = truncated("goal")
                break
        else:
            continue
        break
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
    set when ``i`` is marked at all."""
    packing = space._packing
    ones, guards, width = packing.ones, packing.guards, packing.width
    # rows[i]: guard bits of every place marked together with layout place i
    rows = [0] * len(packing.places)
    for occupied in {((m | guards) - ones) & guards for m in space._packed}:
        rest = occupied
        while rest:
            low = rest & -rest
            rows[low.bit_length() // width - 1] |= occupied
            rest ^= low
    marked = []  # the same sets, one bit per layout place
    for row in rows:
        digits = format(row, "b")[::-1][width - 1 :: width]  # guard digits, lowest first
        marked.append(int(digits[::-1] or "0", 2))
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
