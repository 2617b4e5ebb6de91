"""Partitions, cell statistics and rational Dyck paths."""

from __future__ import annotations

import json
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
        return _diagram(tuple(cols))

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


def _diagram(parts: tuple) -> Partition:
    """The :class:`Partition` of ``parts``, positive and weakly decreasing,
    which the caller guarantees and which is not checked again."""
    D = Partition.__new__(Partition)
    D.parts = parts
    return D


def parse_color(text: str) -> Partition:
    """The colour ``text`` spells: ``S<n>`` (one row), ``L<n>`` (one column),
    ``<rows>x<cols>``, the parts joined by ``_`` (``1``, ``2_1``) or listed
    as in ``[2,1]``, with blanks around it ignored; else a :class:`UsageError`.
    """
    text = text.strip()
    try:
        if text.startswith("["):
            return Partition(json.loads(text))
        if text[:1] in ("S", "L") and text[1:].isdigit():
            n = int(text[1:])
            return Partition([n] if text[0] == "S" else [1] * n)
        if "x" in text:
            rows, cols = map(int, text.split("x"))
            return Partition([cols] * rows)
        return Partition([int(part) for part in text.split("_")])
    except (ValueError, TypeError, RecursionError) as exc:
        raise UsageError(f"cannot parse color {text!r}: {exc}") from None


def color_name(color: Partition) -> str:
    """The one spelling of ``color`` that names fixtures: ``1`` for one box,
    ``S<n>`` for one row, ``L<n>`` for one column, ``<rows>x<cols>`` for
    another rectangle, else the parts joined by ``_`` (``0`` if none)."""
    parts = color.parts
    if color.size() <= 1:
        return str(color.size())
    if len(parts) == 1:
        return f"S{parts[0]}"
    if not color.is_rectangle():
        return "_".join(map(str, parts))
    return f"L{len(parts)}" if parts[0] == 1 else f"{len(parts)}x{parts[0]}"


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
    ``(p+q-1)!/(p!*q!)``.  Each row is at most the one above it, so a
    diagram ends at its first empty row: the diagrams are grown row by row,
    each kept as it stands and extended by every shorter nonempty row, and
    listed in decreasing lexicographic order of their rows.
    """
    if gcd(p, q) != 1:
        raise UsageError(f"({p},{q}) not coprime: the diagonal meets the lattice")
    results, level = [], [()]
    for i in range(1, q):
        bound = (p * (q - i)) // q
        results += level
        level = [acc + (val,) for acc in level
                 for val in range(min(acc[-1] if acc else p, bound), 0, -1)]
    results += level
    results.sort(reverse=True)
    return [_diagram(parts) for parts in results]


def catalan_count(p: int, q: int) -> int:
    """``(p+q-1)!/(p!*q!)``, the count of paths strictly below the diagonal."""
    if gcd(p, q) != 1:
        raise UsageError(f"({p},{q}) not coprime")
    return factorial(p + q - 1) // (factorial(p) * factorial(q))


def h_plus(D: Partition, p: int, q: int) -> int:
    """Count cells with ``arm/(leg+1) <= p/q < (arm+1)/leg`` (``x/0`` read as
    infinity), cross-multiplied over the positive denominators."""
    if p < 1 or q < 1:
        raise UsageError(f"({p},{q}) must be positive")
    if gcd(p, q) != 1:
        raise UsageError(f"({p},{q}) not coprime")
    cols = D.transpose().parts
    count = 0
    for i, row in enumerate(D.parts, start=1):
        for j in range(1, row + 1):
            a, l = row - j, cols[j - 1] - i
            if a * q <= p * (l + 1) and p * l < (a + 1) * q:
                count += 1
    return count
