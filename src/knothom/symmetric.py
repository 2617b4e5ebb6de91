"""Symmetric-group characters and the power plethysm ``s_lam[p_n]``.

Characters of the symmetric group are evaluated by the border-strip
(Murnaghan-Nakayama) recursion on beta numbers, memoised in one
process-wide table.  The only plethysm needed here is substitution of power
sums ``p_k -> p_{n*k}``, which produces the branching coefficients of Schur
functions in ``n``-th power variables.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import factorial

from .errors import UsageError
from .partitions import Partition, partitions_of

#: largest |lambda| * n accepted by plethysm_pn
PLETHYSM_SIZE_CAP = 12


def zee(mu) -> int:
    """Order of the centralizer of a permutation of cycle type ``mu``."""
    mu = _parts(mu)
    z = 1
    mult = {}
    for p in mu:
        mult[p] = mult.get(p, 0) + 1
    for p, m in mult.items():
        z *= p ** m * factorial(m)
    return z


def _parts(x):
    if isinstance(x, Partition):
        return x.parts
    return Partition(x).parts


def _beta_set(lam_parts) -> frozenset:
    length = max(1, len(lam_parts))
    return frozenset(
        (lam_parts[i] if i < len(lam_parts) else 0) + (length - 1 - i)
        for i in range(length)
    )


@cache
def _mn_rec(betas: frozenset, mu: tuple) -> int:
    """``chi^lam(mu)`` for the partition with beta set ``betas``, removing
    border strips of the lengths in ``mu`` in order."""
    if not mu:
        return 1
    k = mu[0]
    rest = mu[1:]
    total = 0
    for b in betas:
        nb = b - k
        if nb < 0 or nb in betas:
            continue
        crossed = sum(1 for c in betas if nb < c < b)
        total += (-1) ** crossed * _mn_rec((betas - {b}) | {nb}, rest)
    return total


def plethysm_pn(lam, n: int) -> dict:
    """Schur expansion ``{mu: c_mu}`` of ``s_lam`` in ``n``-th power variables.

    ``c_mu = sum_nu chi^lam(nu) chi^mu(n*nu) / z_nu`` over ``|nu| = |lam|``;
    only the nonzero coefficients are kept, and each is an ``int``
    (verified).
    """
    lam = Partition(_parts(lam))
    if n < 1:
        raise UsageError("n must be positive")
    size = lam.size()
    if size * n > PLETHYSM_SIZE_CAP:
        raise UsageError(
            f"|lambda|*n = {size * n} exceeds cap {PLETHYSM_SIZE_CAP}"
        )
    # z_nu divides |S_size| = size!, so every term is an integer over size!
    order = factorial(size)
    betas = _beta_set(lam.parts)
    inner = []
    for nu in partitions_of(size):
        chi = _mn_rec(betas, nu)
        if chi:
            inner.append((tuple(n * k for k in nu), chi * (order // zee(nu))))
    out = {}
    for mu in partitions_of(size * n):
        mu_betas = _beta_set(mu)
        total = sum(weight * _mn_rec(mu_betas, scaled)
                    for scaled, weight in inner)
        if total:
            c, r = divmod(total, order)
            if r:
                raise ArithmeticError(
                    f"non-integer plethysm coefficient {Fraction(total, order)}"
                    f" at {mu}"
                )
            out[Partition(mu)] = c
    return out
