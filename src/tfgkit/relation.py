"""Symmetric concurrency relation over an ordered set of names.

Cells hold 1 (concurrent), 0 (nonconcurrent) or UNKNOWN.  Storage is lower
triangular, so the relation is symmetric by construction.
"""

from __future__ import annotations

from typing import Iterator

UNKNOWN = None


class ConcurrencyMatrix:
    """Triangular 0/1/unknown matrix.

    ``writes`` counts every ``set`` call; the accelerated algorithms are
    benchmarked against it.
    """

    __slots__ = ("order", "_idx", "_rows", "writes")

    def __init__(self, order, fill: int | None = UNKNOWN):
        self.order = tuple(order)
        if len(set(self.order)) != len(self.order):
            raise ValueError("duplicate names in matrix order")
        self._idx = {v: i for i, v in enumerate(self.order)}
        self._rows = [[fill] * (i + 1) for i in range(len(self.order))]
        self.writes = 0

    def _key(self, v: str, w: str) -> tuple[int, int]:
        i, j = self._idx[v], self._idx[w]
        return (i, j) if i >= j else (j, i)

    def get(self, v: str, w: str) -> int | None:
        i, j = self._key(v, w)
        return self._rows[i][j]

    def set(self, v: str, w: str, value: int | None) -> None:
        i, j = self._key(v, w)
        self._rows[i][j] = value
        self.writes += 1

    def cells(self) -> Iterator[tuple[str, str, int | None]]:
        """Triangular cells as (row name, column name, value), column <= row."""
        for i, v in enumerate(self.order):
            for j in range(i + 1):
                yield v, self.order[j], self._rows[i][j]

    def known_count(self) -> int:
        return sum(1 for _, _, x in self.cells() if x is not None)

    def is_complete(self) -> bool:
        return all(x is not None for _, _, x in self.cells())

    def restrict(self, order) -> "ConcurrencyMatrix":
        """Sub-matrix over ``order``, which must be a subset of this order."""
        sub = ConcurrencyMatrix(order, fill=UNKNOWN)
        for i, v in enumerate(sub.order):
            for j in range(i + 1):
                w = sub.order[j]
                sub._rows[i][j] = self.get(v, w)
        sub.writes = 0
        return sub

    def __eq__(self, other) -> bool:
        if not isinstance(other, ConcurrencyMatrix):
            return NotImplemented
        return self.order == other.order and self._rows == other._rows

    def __repr__(self) -> str:
        return f"ConcurrencyMatrix(n={len(self.order)}, known={self.known_count()})"
