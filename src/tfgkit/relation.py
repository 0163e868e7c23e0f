"""Symmetric concurrency relation over an ordered set of names.

Cells hold 1 (concurrent), 0 (nonconcurrent) or UNKNOWN.  Each name owns two
int bitsets over the positions of ``order``: ``known[i]`` has bit ``j`` when
cell (i, j) is settled and ``ones[i]`` when it is 1, so ``ones[i]`` is a
subset of ``known[i]``.  Rows are stored in full and kept symmetric, so a
whole row, or any set of its cells, is updated by one integer operation.
The rows are written only here: other modules read them and hand new rows
to :meth:`ConcurrencyMatrix.from_rows`.
"""

from __future__ import annotations

import struct
from functools import cache
from typing import Iterator

UNKNOWN = None


def transpose(rows: list[int]) -> list[int]:
    """Square bit matrix transpose: bit ``i`` of result row ``j`` is bit
    ``j`` of ``rows[i]``; bits at or above ``len(rows)`` are ignored.

    The matrix is cut into square tiles of ``width`` bits a side, the
    smallest power of two from 8 up that holds every row, or ``_BAND``.  A
    tile's rows are laid end to end, little-endian, in one int, so cell
    (i, j) is bit ``i * width + j``, and :func:`_flip` transposes it in
    place.  Rows of up to 64 bits enter and leave their one tile as
    ``struct`` fields, in one call each way, about three times faster
    than a conversion per row; wider ones as bytes, sliced a tile wide.
    """
    n = len(rows)
    if not n:
        return []
    width = min(_BAND, max(8, 1 << (n - 1).bit_length()))
    step = width // 8  # bytes per tile row
    full = (1 << n) - 1
    field = {1: "B", 2: "H", 4: "I", 8: "Q"}.get(step)
    if field:  # a row fits one struct field
        fields = f"<{n}{field}"
        return list(struct.unpack_from(fields, _flip(struct.pack(fields, *[row & full for row in rows]), width)))
    bands = -(-n // width)  # tiles per side
    packed = [(row & full).to_bytes(bands * step, "little") for row in rows]
    packed += [bytes(bands * step)] * (bands * width - n)
    out: list[int] = []
    for low in range(0, bands * step, step):  # a band of columns becomes a band of rows
        tiles = [_flip(b"".join([row[low : low + step] for row in packed[top : top + width]]), width)
                 for top in range(0, bands * width, width)]
        cuts = range(0, min(width, n - 8 * low) * step, step)
        # a result row is one slice of each tile
        out += [int.from_bytes(b"".join(parts), "little")
                for parts in zip(*[[tile[k : k + step] for k in cuts] for tile in tiles])]
    return out


def _flip(tile: bytes, width: int) -> bytes:
    """The transpose of a tile of ``width``-bit rows laid end to end,
    little-endian, as ``width`` rows again: log2 ``width`` masked delta
    swaps (Warren, "Hacker's Delight", §7-3), swap ``s`` exchanging the
    cells whose row and column differ in bit ``s``."""
    x = int.from_bytes(tile, "little")
    for distance, mask in _swaps(width):
        t = (x ^ x >> distance) & mask
        x ^= t ^ t << distance
    return x.to_bytes(width * width // 8, "little")


@cache
def _swaps(width: int) -> tuple[tuple[int, int], ...]:
    """The ``(distance, mask)`` of each delta swap of a ``width``-bit tile:
    for ``s`` = ``width`` / 2 down to 1, the mask holds cell (i, j) when
    bit ``s`` of ``i`` is clear and that of ``j`` is set, and the swap
    moves it ``s * (width - 1)`` bits up, to (i + s, j - s).  Each mask is
    built by joining bytes: ``s`` rows of the column pattern, then ``s``
    empty rows, repeated."""
    step = width // 8
    out = []
    s = width // 2
    while s:
        columns = ((1 << width) - 1) // ((1 << 2 * s) - 1) * ((1 << s) - 1 << s)
        block = columns.to_bytes(step, "little") * s + bytes(step * s)
        out.append((s * (width - 1), int.from_bytes(block * (width // (2 * s)), "little")))
        s //= 2
    return tuple(out)


# tile side of a transpose, in bits: bounds each swap mask to _BAND**2 bits
_BAND = 1024


def _runs(positions: list[int]) -> list[tuple[int, int, int]]:
    """The runs of ``positions`` that count up by one, as ``(k,
    positions[k], mask)`` with ``mask`` as wide as the run: bits ``k`` up of
    one row and ``positions[k]`` up of another stand for the same names, so
    a row moves between the two orders by one shift and mask per run, not
    per bit."""
    n = len(positions)
    starts = [k for k in range(n) if not k or positions[k] != positions[k - 1] + 1]
    return [(b, positions[b], (1 << (e - b)) - 1) for b, e in zip(starts, starts[1:] + [n])]


def _triangle_count(rows: list[int]) -> int:
    """Set cells of a symmetric bit matrix on and below the diagonal."""
    total = diagonal = 0
    for i, row in enumerate(rows):
        total += row.bit_count()
        diagonal += row >> i & 1
    return (total + diagonal) // 2


class ConcurrencyMatrix:
    """0/1/unknown matrix as two bitsets per full symmetric row.

    ``writes`` counts logical cell writes: one per ``set`` call, and the
    builders in :mod:`tfgkit.conc` and :func:`tfgkit.petri.oracle_concurrency`
    add the cells they write as rows.  The accelerated algorithms are
    benchmarked against it.
    """

    __slots__ = ("order", "index", "known", "ones", "writes")

    def __init__(self, order, fill: int | None = UNKNOWN):
        self.order = tuple(order)
        self.index = {v: i for i, v in enumerate(self.order)}
        if len(self.index) != len(self.order):
            raise ValueError("duplicate names in matrix order")
        n = len(self.order)
        full = (1 << n) - 1
        self.known = [0 if fill is UNKNOWN else full] * n
        self.ones = [full if fill == 1 else 0] * n
        self.writes = 0

    @classmethod
    def from_rows(cls, order, ones: list[int], zeros: list[int] | None = None):
        """Matrix over ``order`` with 1 at the bits of ``ones[i]`` and 0 at
        those of ``zeros[i]``, every other cell unknown; without ``zeros``,
        every cell that is not 1 is 0.  Rows are full, symmetric and disjoint.
        """
        out = cls(order)
        full = out.full
        out.ones = list(ones)
        if zeros is None:
            out.known = [full] * len(out.order)
        else:
            out.known = [one | zero for one, zero in zip(ones, zeros)]
        return out

    @property
    def full(self) -> int:
        """Mask of every position."""
        return (1 << len(self.order)) - 1

    def get(self, v: str, w: str) -> int | None:
        i, j = self.index[v], self.index[w]
        if not self.known[i] >> j & 1:
            return UNKNOWN
        return self.ones[i] >> j & 1

    def set(self, v: str, w: str, value: int | None) -> None:
        """Settle or clear one cell, in both of its rows."""
        i, j = self.index[v], self.index[w]
        self.writes += 1
        known, ones = self.known, self.ones
        bit_i, bit_j = 1 << i, 1 << j
        if value is UNKNOWN:
            known[i] &= ~bit_j
            known[j] &= ~bit_i
        else:
            known[i] |= bit_j
            known[j] |= bit_i
        if value:
            ones[i] |= bit_j
            ones[j] |= bit_i
        else:
            ones[i] &= ~bit_j
            ones[j] &= ~bit_i

    def cells(self) -> Iterator[tuple[str, str, int | None]]:
        """Triangular cells as (row name, column name), column <= row, and value."""
        for i, v in enumerate(self.order):
            for w in self.order[: i + 1]:
                yield v, w, self.get(v, w)

    def known_count(self) -> int:
        """Settled triangular cells."""
        return _triangle_count(self.known)

    def ones_count(self) -> int:
        """Triangular cells that hold 1."""
        return _triangle_count(self.ones)

    def is_complete(self) -> bool:
        full = self.full
        return all(row == full for row in self.known)

    def restrict(self, order) -> "ConcurrencyMatrix":
        """Sub-matrix over ``order``, which must be a subset of this order."""
        sub = ConcurrencyMatrix(order)
        # names adjacent in both orders move together, so a prefix costs one
        # mask per row
        rows = [self.index[v] for v in sub.order]
        known, ones = self.known, self.ones
        for target, source, mask in _runs(rows):
            sub.known = [k | (known[r] >> source & mask) << target for k, r in zip(sub.known, rows)]
            sub.ones = [o | (ones[r] >> source & mask) << target for o, r in zip(sub.ones, rows)]
        return sub

    def __eq__(self, other) -> bool:
        if not isinstance(other, ConcurrencyMatrix):
            return NotImplemented
        return (
            self.order == other.order
            and self.known == other.known
            and self.ones == other.ones
        )

    def __repr__(self) -> str:
        return f"ConcurrencyMatrix(n={len(self.order)}, known={self.known_count()})"
