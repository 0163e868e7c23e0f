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

    @classmethod
    def from_lower_rows(cls, order, rows):
        """Inverse of :meth:`lower_rows`: row ``i`` spells cells (i, 0..i)."""
        out = cls(order)
        lower_known, lower_ones = [], []
        for row in rows:
            text = row[::-1]
            lower_known.append(int(text.translate(_KNOWN_DIGITS), 2))
            lower_ones.append(int(text.translate(_ONE_DIGITS), 2))
        out.known = [row | col for row, col in zip(lower_known, transpose(lower_known))]
        out.ones = [row | col for row, col in zip(lower_ones, transpose(lower_ones))]
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

    def lower_rows(self) -> list[str]:
        """Row ``i`` spells cells (i, 0..i) as ``1``, ``0`` or ``.`` (unknown)."""
        out = []
        for i, (known, ones) in enumerate(zip(self.known, self.ones)):
            mask, width = (1 << i + 1) - 1, f"0{i + 1}b"
            row = format(ones & mask, width)[::-1]
            if known & mask != mask:
                digits = format(known & mask, width)[::-1]
                row = "".join(o if k == "1" else "." for k, o in zip(digits, row))
            out.append(row)
        return out

    def cells(self) -> Iterator[tuple[str, str, int | None]]:
        """Triangular cells as (row name, column name), column <= row, and value."""
        symbol = {"1": 1, "0": 0, ".": UNKNOWN}
        for v, row in zip(self.order, self.lower_rows()):
            for w, digit in zip(self.order, row):
                yield v, w, symbol[digit]

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
        # names adjacent in both orders move together: one shift and mask per
        # run of them, so a prefix costs one mask per row
        rows = [self.index[v] for v in sub.order]
        n = len(rows)
        starts = [t for t in range(n) if not t or rows[t] != rows[t - 1] + 1]
        known, ones = self.known, self.ones
        for begin, end in zip(starts, starts[1:] + [n]):
            shift, mask = rows[begin], (1 << (end - begin)) - 1
            sub.known = [k | (known[r] >> shift & mask) << begin for k, r in zip(sub.known, rows)]
            sub.ones = [o | (ones[r] >> shift & mask) << begin for o, r in zip(sub.ones, rows)]
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


_KNOWN_DIGITS = str.maketrans("10.", "110")
_ONE_DIGITS = str.maketrans("10.", "100")
