"""The lowest homological row of torus-knot homology: counts and characters.

For coprime ``(p, q)`` the bottom row is counted by lattice paths strictly
below the rectangle diagonal; the symmetric-color rows are conjecturally
labeled by tuples of such paths.  The vortex character sum gives the
unreduced symmetric bottom row of ``(2, 2p+1)`` torus knots as an explicit
``q``-binomial sum.
"""

from __future__ import annotations

from collections import Counter
from functools import cache
from itertools import combinations_with_replacement
from math import factorial, gcd

from .errors import UsageError
from .laurent import LaurentPoly, Multidegree, RationalSeries, _slot
from .partitions import dyck_paths, h_plus


def row_count(p: int, q: int, k: int) -> int:
    """Paths below the diagonal with ``k`` marked corners (0 when out of range)."""
    if gcd(p, q) != 1:
        raise UsageError(f"({p},{q}) not coprime")
    if k < 0 or k >= p or k >= q:
        return 0
    return factorial(p + q - k - 1) // (
        p * q * factorial(k) * factorial(p - k - 1) * factorial(q - k - 1))


def _poly(counts: dict, names) -> LaurentPoly:
    """The polynomial of ``counts``, a map from exponent tuples over the
    variables ``names`` to nonzero ``int`` coefficients, built once in
    exponent columns."""
    slots = [*map(_slot, names)]
    columns = [(0,) * len(counts)] * (max(slots) + 1)
    for i, column in zip(slots, zip(*counts)):
        columns[i] = column
    return LaurentPoly._carried(columns, [*counts.values()])


def bottom_poincare(p: int, q: int, r: int) -> LaurentPoly:
    """Sum over ``r``-tuples of Dyck paths with their ``(Q, tr)`` gradings.

    Each path ``D`` carries ``Q = 2(|D| + 2 h_plus(D))`` and ``tr = 2|D|``;
    tuples multiply, so the result is the ``r``-th power of the single-path
    sum and has ``catalan_count(p, q)**r`` terms with multiplicity.  The
    paths are counted by degree, and the single-path sum is built once.
    """
    counts = Counter()
    for D in dyck_paths(p, q):
        size = D.size()
        counts[2 * (size + 2 * h_plus(D, p, q)), 2 * size] += 1
    return _poly(counts, ("Q", "tr")) ** r


@cache
def _qbinom_ints(n: int, k: int) -> tuple:
    """The coefficients of ``qbinom(n, k)``, ``q^0`` first: with ``k`` the
    smaller of ``k`` and ``n - k``, the product over ``i = 1..k`` of
    ``(1 - q^(n-k+i)) / (1 - q^i)``, each factor taken on ``int``
    coefficients below ``q^(k(n-k)+1)``, where a division by ``1 - q^i`` is
    the running sum ``c[j] += c[j-i]``.  Each partial product is the
    binomial ``[n-k+i, i]``, of degree at most ``k(n-k)``, so every step is
    exact.  A row is kept once built, and never changed."""
    if k < 0 or k > n:
        return ()
    k = min(k, n - k)
    row = [1] + [0] * (k * (n - k))
    for i in range(1, k + 1):
        for j in range(len(row) - 1, n - k + i - 1, -1):
            row[j] -= row[j - (n - k + i)]
        for j in range(i, len(row)):
            row[j] += row[j - i]
    return tuple(row)


def qbinom(n: int, k: int) -> LaurentPoly:
    """Unbalanced Gaussian binomial ``(q;q)_n / ((q;q)_k (q;q)_(n-k))``,
    from its coefficients :func:`_qbinom_ints`."""
    row = _qbinom_ints(n, k)
    return _poly({(i,): c for i, c in enumerate(row)}, ("q",))


def vortex_character(p: int, m: int) -> RationalSeries:
    """Equivariant character of the ``m``-vortex moduli space with ``p+1`` flavors.

    ``q^(-pm)/(q;q)_m`` times the nested q-binomial sum over
    ``0 <= k_p <= ... <= k_1 <= m`` (with ``k_0 = m``) weighted by
    ``q^((2m+1) sum k_i - sum k_(i-1) k_i) t^(2 sum k_i)``.  At ``p = 0``
    this is the plain ``1/(q;q)_m``.  The products of q-binomials are taken
    on their ``int`` coefficients, which are positive, so no term cancels,
    and the numerator is built once.
    """
    if p < 0 or m < 0:
        raise UsageError("p and m must be nonnegative")
    counts = {}
    for ks in combinations_with_replacement(range(m, -1, -1), p):
        row, prev = (1,), m
        for k in ks:
            row = _times(row, _qbinom_ints(prev, k))
            prev = k
        s = sum(ks)
        low = (2 * m + 1) * s - sum(a * b for a, b in zip((m,) + ks, ks)) - p * m
        for i, c in enumerate(row, start=low):
            counts[i, 2 * s] = counts.get((i, 2 * s), 0) + c
    dens = tuple(Multidegree(q=i) for i in range(1, m + 1))
    return RationalSeries(_poly(counts, ("q", "t")), dens, "q", 40)


def _times(f: tuple, g: tuple) -> list:
    """The coefficients of the product of two polynomials in one variable,
    each given by its coefficients, lowest degree first."""
    out = [0] * (len(f) + len(g) - 1)
    for i, c in enumerate(f):
        for j, d in enumerate(g, start=i):
            out[j] += c * d
    return out


def _recursion_c1(n: int) -> LaurentPoly:
    return (LaurentPoly.var("q", -1)
            - LaurentPoly.monomial(1, Multidegree(t=2, q=n))
            + (LaurentPoly.one() + LaurentPoly.var("q"))
            * LaurentPoly.monomial(1, Multidegree(t=2, q=2 * n)))


def _recursion_c0(n: int) -> LaurentPoly:
    return LaurentPoly.monomial(1, Multidegree(t=4, q=3 * n - 1)) * (
        LaurentPoly.var("q", n) - LaurentPoly.one())


def trefoil_recursion_check(m_max: int):
    """Three-term recursion of the trefoil symmetric bottom rows.

    With ``N(m)`` the numerator of ``vortex_character(1, m)`` over
    ``(q;q)_m`` (the denominator-cleared bottom row), the exact identity

        N(m+2) - (q^-1 - t^2 q^n + (1+q) q^2n t^2) N(m+1)
                + t^4 q^(3n-1) (q^n - 1) N(m) = 0,   n = m + 1,

    holds for every ``m >= 0``.  The coefficients pair with the colors one
    step up; no identity of this shape exists with coefficients taken at
    ``n = m`` (checked by exact elimination over a generous ansatz).
    Returns a list of ``(m, ok, residual)``.
    """
    results = []
    for m in range(0, m_max + 1):
        n0, n1, n2 = (vortex_character(1, m + i).numerator for i in range(3))
        residual = n2 - _recursion_c1(m + 1) * n1 + _recursion_c0(m + 1) * n0
        results.append((m, residual.is_zero(), residual))
    return results
