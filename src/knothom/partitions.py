"""Partitions, cell statistics and rational Dyck paths."""

from __future__ import annotations

from fractions import Fraction
from math import factorial, gcd
from operator import index

from .errors import UsageError


class Partition:
    """A weakly decreasing tuple of positive integers (a Young diagram).

    Cells are addressed as ``(row, col)`` with 1-based indices; arms run to
    the right along the row, legs downward along the column.
    """

    __slots__ = ("parts",)

    def __init__(self, parts=()):
        parts = tuple(parts)
        try:
            if any(isinstance(p, bool) for p in parts):
                raise TypeError("a bool is no part")
            parts = tuple(p for p in map(index, parts) if p)
        except TypeError:
            raise UsageError(f"parts must be integers: {list(parts)}") from None
        if any(p < 0 for p in parts):
            raise UsageError("parts must be positive")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise UsageError(f"parts must weakly decrease: {parts}")
        self.parts = parts

    def size(self) -> int:
        return sum(self.parts)

    def transpose(self) -> "Partition":
        if not self.parts:
            return Partition()
        cols = [0] * self.parts[0]
        for p in self.parts:
            for j in range(p):
                cols[j] += 1
        return Partition(cols)

    def is_rectangle(self) -> bool:
        return len(set(self.parts)) <= 1

    def cells(self):
        for i, p in enumerate(self.parts, start=1):
            for j in range(1, p + 1):
                yield (i, j)

    def contains(self, cell) -> bool:
        i, j = cell
        return 1 <= i <= len(self.parts) and 1 <= j <= self.parts[i - 1]

    def arm(self, cell) -> int:
        i, j = cell
        return self.parts[i - 1] - j

    def leg(self, cell) -> int:
        i, j = cell
        return sum(1 for p in self.parts[i:] if p >= j)

    def coarm(self, cell) -> int:
        return cell[1] - 1

    def coleg(self, cell) -> int:
        return cell[0] - 1

    def hook(self, cell) -> int:
        return self.arm(cell) + self.leg(cell) + 1

    def content(self, cell) -> int:
        return self.coarm(cell) - self.coleg(cell)

    def kappa(self) -> int:
        """Sum of contents, equal to ``sum(p_j*(p_j - 2j + 1))/2``."""
        return sum(self.content(c) for c in self.cells())

    def n_stat(self) -> int:
        """``sum (i-1) * parts[i-1]``, the row-weighted size."""
        return sum((i - 1) * p for i, p in enumerate(self.parts, start=1))

    def sym_dimension(self) -> int:
        """Dimension of the symmetric-group irreducible, by hook lengths."""
        d = factorial(self.size())
        for c in self.cells():
            d //= self.hook(c)
        return d

    def scale(self, n: int) -> "Partition":
        return Partition(tuple(n * p for p in self.parts))

    def __eq__(self, other):
        return isinstance(other, Partition) and self.parts == other.parts

    def __lt__(self, other):
        return self.parts < other.parts

    def __hash__(self):
        return hash(self.parts)

    def __repr__(self):
        return f"Partition({list(self.parts)})"

    def __str__(self):
        return "[" + ",".join(str(p) for p in self.parts) + "]"


def partitions_of(n: int, max_part=None):
    """All partitions of ``n`` as tuples, largest part first."""
    if max_part is None:
        max_part = n
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in partitions_of(n - first, first):
            yield (first,) + rest


def dyck_paths(p: int, q: int):
    """Young diagrams for lattice paths strictly below the ``p x q`` diagonal.

    With coprime ``p`` and ``q`` the diagrams are exactly those with at most
    ``q - 1`` rows and ``D[i] <= floor(p*(q−i)/q)``; their number is
    ``(p+q-1)!/(p!*q!)``.
    """
    if gcd(p, q) != 1:
        raise UsageError(f"({p},{q}) not coprime: the diagonal meets the lattice")
    bounds = [(p * (q - i)) // q for i in range(1, q)]
    results = []

    def rec(row, prev, acc):
        if row == len(bounds):
            results.append(Partition(acc))
            return
        for val in range(min(prev, bounds[row]), -1, -1):
            rec(row + 1, val, acc + [val])

    rec(0, p, [])
    return results


def catalan_count(p: int, q: int) -> int:
    """``(p+q-1)!/(p!*q!)``, the count of paths strictly below the diagonal."""
    if gcd(p, q) != 1:
        raise UsageError(f"({p},{q}) not coprime")
    return factorial(p + q - 1) // (factorial(p) * factorial(q))


def h_plus(D: Partition, p: int, q: int) -> int:
    """Count cells with ``arm/(leg+1) <= p/q < (arm+1)/leg`` (``x/0`` read as infinity)."""
    if gcd(p, q) != 1:
        raise UsageError(f"({p},{q}) not coprime")
    count = 0
    for cell in D.cells():
        a, l = D.arm(cell), D.leg(cell)
        if Fraction(a, l + 1) <= Fraction(p, q) and (
            l == 0 or Fraction(p, q) < Fraction(a + 1, l)
        ):
            count += 1
    return count
