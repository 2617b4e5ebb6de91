"""Symmetric functions: characters, Schur/power-sum bases, power plethysm.

Characters of the symmetric group are evaluated by the border-strip
(Murnaghan-Nakayama) recursion on beta numbers.  The only plethysm needed
here is substitution of power sums ``p_k -> p_{n*k}``, which produces the
branching coefficients of Schur functions in ``n``-th power variables.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .errors import UsageError
from .laurent import _frac
from .partitions import Partition, balanced_diagrams, partitions_of

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


def _beta_set(lam_parts, length):
    return frozenset(
        (lam_parts[i] if i < len(lam_parts) else 0) + (length - 1 - i)
        for i in range(length)
    )


def _mn_rec(betas, mu, cache):
    if not mu:
        return 1
    key = (betas, mu)
    if key in cache:
        return cache[key]
    k = mu[0]
    rest = mu[1:]
    total = 0
    for b in betas:
        nb = b - k
        if nb < 0 or nb in betas:
            continue
        crossed = sum(1 for c in betas if nb < c < b)
        new = (betas - {b}) | {nb}
        total += (-1) ** crossed * _mn_rec(new, rest, cache)
    cache[key] = total
    return total


def mn_character(lam, mu, cache=None) -> int:
    """Irreducible symmetric-group character ``chi^lam(mu)``.

    ``cache`` is a plain dict owned by the caller; pass one to share work
    across many evaluations.
    """
    lam, mu = Partition(_parts(lam)), Partition(_parts(mu))
    if lam.size() != mu.size():
        raise ValueError(f"size mismatch: |{lam}| != |{mu}|")
    if lam.size() == 0:
        return 1
    if cache is None:
        cache = {}
    length = max(1, lam.length())
    betas = _beta_set(lam.parts, length)
    return _mn_rec(betas, tuple(sorted(mu.parts, reverse=True)), cache)


class SymFunc:
    """A homogeneous symmetric function in the Schur or power-sum basis."""

    SCHUR = "schur"
    POWERSUM = "powersum"

    def __init__(self, basis, coeffs):
        if basis not in (self.SCHUR, self.POWERSUM):
            raise ValueError(f"unknown basis {basis!r}")
        clean = {}
        degree = None
        for mu, c in coeffs.items():
            mu = mu if isinstance(mu, Partition) else Partition(mu)
            c = _frac(c)
            if c == 0:
                continue
            if degree is None:
                degree = mu.size()
            elif mu.size() != degree:
                raise ValueError("coefficients are not homogeneous")
            clean[mu] = clean.get(mu, Fraction(0)) + c
        self.basis = basis
        self.coeffs = {m: c for m, c in clean.items() if c != 0}

    def degree(self):
        return next(iter(self.coeffs)).size() if self.coeffs else 0

    def to_powersum(self, cache=None) -> "SymFunc":
        if self.basis == self.POWERSUM:
            return self
        cache = {} if cache is None else cache
        out = {}
        for lam, c in self.coeffs.items():
            for nu in partitions_of(lam.size()):
                chi = mn_character(lam, nu, cache)
                if chi:
                    p = Partition(nu)
                    out[p] = out.get(p, Fraction(0)) + c * Fraction(chi, zee(nu))
        return SymFunc(self.POWERSUM, out)

    def to_schur(self, cache=None) -> "SymFunc":
        if self.basis == self.SCHUR:
            return self
        cache = {} if cache is None else cache
        out = {}
        for nu, c in self.coeffs.items():
            for lam in partitions_of(nu.size()):
                chi = mn_character(lam, nu, cache)
                if chi:
                    p = Partition(lam)
                    out[p] = out.get(p, Fraction(0)) + c * chi
        return SymFunc(self.SCHUR, out)

    def __add__(self, other):
        if self.basis != other.basis:
            raise ValueError("mixed bases")
        out = dict(self.coeffs)
        for m, c in other.coeffs.items():
            out[m] = out.get(m, Fraction(0)) + c
        return SymFunc(self.basis, out)

    def __eq__(self, other):
        return (isinstance(other, SymFunc) and self.basis == other.basis
                and self.coeffs == other.coeffs)

    def __repr__(self):
        names = {self.SCHUR: "s", self.POWERSUM: "p"}
        sym = names[self.basis]
        body = " + ".join(
            f"{'' if c == 1 else str(c) + '*'}{sym}{mu}"
            for mu, c in sorted(self.coeffs.items(), key=lambda kv: kv[0].parts)
        )
        return body or "0"


def plethysm_pn(lam, n: int, cache=None) -> SymFunc:
    """Schur expansion of ``s_lam`` evaluated in ``n``-th power variables.

    Expands ``s_lam`` into power sums, replaces ``p_mu`` by ``p_{n*mu}`` and
    converts back; all resulting Schur coefficients are integers (verified).
    """
    lam = Partition(_parts(lam))
    if n < 1:
        raise UsageError("n must be positive")
    if lam.size() * n > PLETHYSM_SIZE_CAP:
        raise UsageError(
            f"|lambda|*n = {lam.size() * n} exceeds cap {PLETHYSM_SIZE_CAP}"
        )
    cache = {} if cache is None else cache
    out = {}
    inner = [(nu, mn_character(lam, nu, cache)) for nu in
             partitions_of(lam.size())]
    inner = [(nu, chi) for nu, chi in inner if chi]
    for mu in partitions_of(lam.size() * n):
        total = Fraction(0)
        for nu, chi_l in inner:
            scaled = tuple(sorted((n * k for k in nu), reverse=True))
            chi_m = mn_character(mu, scaled, cache)
            if chi_m:
                total += Fraction(chi_l * chi_m, zee(nu))
        if total:
            if total.denominator != 1:
                raise ArithmeticError(
                    f"non-integer plethysm coefficient {total} at {mu}"
                )
            out[Partition(mu)] = total
    return SymFunc(SymFunc.SCHUR, out)


def chen_remmel(S: int, R: int) -> SymFunc:
    """Closed form for ``s_(S^R)`` in doubled variables via balanced diagrams."""
    out = {}
    for mu, sign in balanced_diagrams(S, R):
        out[mu] = Fraction(sign)
    return SymFunc(SymFunc.SCHUR, out)
