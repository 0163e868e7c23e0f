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

from typing import Iterator

UNKNOWN = None


def transpose(rows: list[int]) -> list[int]:
    """Square bit matrix transpose: bit ``i`` of result row ``j`` is bit
    ``j`` of ``rows[i]``.

    A band of columns at a time, every row is spelled out in binary, last
    row first, so that each column of the band is every band-th digit.
    """
    width = len(rows)
    out: list[int] = []
    for low in range(0, width, _BAND):
        band = min(_BAND, width - low)
        mask = (1 << band) - 1
        digits = "".join([format(row >> low & mask, f"0{band}b") for row in reversed(rows)])
        out += [int(digits[k::band], 2) for k in range(band - 1, -1, -1)]
    return out


# columns per transpose band: bounds the spelled-out digits to rows x _BAND
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
