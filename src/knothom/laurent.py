"""Exact multivariate Laurent polynomial and truncated series arithmetic.

Every coefficient is an exact ``fractions.Fraction``; there is no floating
point anywhere in this package.  Exponents are exact rationals as well, but
only the variable ``q`` is allowed to carry a non-integer exponent (fractional
``q``-powers arise in the torus-knot plethysm sum and are cleared before any
result is returned).

The two carrier types are:

``LaurentPoly``
    a finite sum of monomials ``coeff * prod(var**exp)``, stored as a map
    from exponent vectors (``Multidegree``) to coefficients.

``RationalSeries``
    a Laurent polynomial numerator together with a multiset of denominator
    factors, each of the form ``1 - monomial``, expanded on demand as a
    truncated series in a distinguished variable.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

#: the only variable permitted to carry fractional exponents
FRACTIONAL_VAR = "q"


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


class Multidegree:
    """An immutable exponent vector with one exact rational entry per variable.

    Absent variables have exponent zero and equality is extensional, so
    ``Multidegree(a=0, q=2) == Multidegree(q=2)``.
    """

    __slots__ = ("_items",)

    def __init__(self, data=None, **named):
        acc = {}
        if data is not None:
            pairs = data.items() if hasattr(data, "items") else data
            for v, e in pairs:
                acc[v] = acc.get(v, Fraction(0)) + _frac(e)
        for v, e in named.items():
            acc[v] = acc.get(v, Fraction(0)) + _frac(e)
        items = []
        for v in sorted(acc):
            e = acc[v]
            if e == 0:
                continue
            if v != FRACTIONAL_VAR and e.denominator != 1:
                raise ValueError(
                    f"fractional exponent {e} on variable {v!r}; "
                    f"only {FRACTIONAL_VAR!r} may carry fractional exponents"
                )
            items.append((v, e))
        self._items = tuple(items)

    def e(self, var) -> Fraction:
        """Exponent of ``var`` (zero when absent)."""
        for v, ex in self._items:
            if v == var:
                return ex
        return Fraction(0)

    def items(self):
        return self._items

    def variables(self):
        return tuple(v for v, _ in self._items)

    def is_zero(self) -> bool:
        return not self._items

    def total(self) -> Fraction:
        return sum((e for _, e in self._items), Fraction(0))

    def __add__(self, other):
        d = dict(self._items)
        for v, e in other._items:
            d[v] = d.get(v, Fraction(0)) + e
        return Multidegree(d)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return Multidegree({v: -e for v, e in self._items})

    def scale(self, k):
        return Multidegree({v: e * _frac(k) for v, e in self._items})

    def key(self, variables):
        """Graded-lexicographic sort key over the given variable list."""
        return (self.total(), tuple(self.e(v) for v in variables))

    def __eq__(self, other):
        return isinstance(other, Multidegree) and self._items == other._items

    def __hash__(self):
        return hash(self._items)

    def __repr__(self):
        if not self._items:
            return "Multidegree()"
        body = ", ".join(f"{v}={e}" for v, e in self._items)
        return f"Multidegree({body})"


class DivisionError(ArithmeticError):
    """Raised when an exact polynomial division has a nonzero remainder."""


class LaurentPoly:
    """A multivariate Laurent polynomial with exact rational coefficients.

    The term map never stores zero coefficients.  Instances are immutable in
    practice: all operations return new polynomials.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for md, c in terms.items():
                c = _frac(c)
                if c != 0:
                    clean[md] = c
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls({Multidegree(): Fraction(1)})

    @classmethod
    def const(cls, c):
        return cls({Multidegree(): _frac(c)})

    @classmethod
    def monomial(cls, coeff=1, md=None, **exps):
        if md is None:
            md = Multidegree(exps)
        elif exps:
            md = md + Multidegree(exps)
        return cls({md: _frac(coeff)})

    @classmethod
    def var(cls, name, exp=1):
        return cls.monomial(1, Multidegree({name: exp}))

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def as_monomial(self):
        """Return ``(coeff, multidegree)``; raises unless exactly one term."""
        if len(self.terms) != 1:
            raise ValueError(f"not a monomial: {self}")
        ((md, c),) = self.terms.items()
        return c, md

    def variables(self):
        vs = set()
        for md in self.terms:
            vs.update(md.variables())
        return sorted(vs)

    def num_terms(self) -> int:
        return len(self.terms)

    def dimension(self) -> Fraction:
        """Sum of absolute values of coefficients (generator count)."""
        return sum((abs(c) for c in self.terms.values()), Fraction(0))

    def coefficient_sum(self) -> Fraction:
        return sum(self.terms.values(), Fraction(0))

    def degrees(self, var):
        return sorted({md.e(var) for md in self.terms})

    def min_degree(self, var) -> Fraction:
        if self.is_zero():
            raise ValueError("zero polynomial has no degree")
        return min(md.e(var) for md in self.terms)

    def max_degree(self, var) -> Fraction:
        if self.is_zero():
            raise ValueError("zero polynomial has no degree")
        return max(md.e(var) for md in self.terms)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        out = dict(self.terms)
        for md, c in other.terms.items():
            s = out.get(md, Fraction(0)) + c
            if s == 0:
                out.pop(md, None)
            else:
                out[md] = s
        res = LaurentPoly.__new__(LaurentPoly)
        res.terms = out
        return res

    __radd__ = __add__

    def __neg__(self):
        res = LaurentPoly.__new__(LaurentPoly)
        res.terms = {md: -c for md, c in self.terms.items()}
        return res

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if len(self.terms) > len(other.terms):
            big, small = self.terms, other.terms
        else:
            big, small = other.terms, self.terms
        out = {}
        for md2, c2 in small.items():
            for md1, c1 in big.items():
                md = md1 + md2
                s = out.get(md, Fraction(0)) + c1 * c2
                if s == 0:
                    out.pop(md, None)
                else:
                    out[md] = s
        res = LaurentPoly.__new__(LaurentPoly)
        res.terms = out
        return res

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int):
            raise TypeError("polynomial powers must be integers")
        if n < 0:
            c, md = self.as_monomial()
            if abs(c) != 1:
                raise ValueError("negative powers only for unit monomials")
            return LaurentPoly.monomial(c ** n, md.scale(n))
        result = LaurentPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __truediv__(self, scalar):
        scalar = _frac(scalar)
        return self * LaurentPoly.const(Fraction(1) / scalar)

    @staticmethod
    def _coerce(x):
        if isinstance(x, LaurentPoly):
            return x
        if isinstance(x, (int, Fraction)):
            return LaurentPoly.const(x)
        raise TypeError(f"cannot combine LaurentPoly with {type(x).__name__}")

    def __eq__(self, other):
        try:
            other = self._coerce(other)
        except TypeError:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    # -- structural operations ----------------------------------------------

    def map_exponents(self, fn):
        """Apply ``fn: Multidegree -> Multidegree`` to every term (coefficients add)."""
        out = {}
        for md, c in self.terms.items():
            md2 = fn(md)
            s = out.get(md2, Fraction(0)) + c
            if s == 0:
                out.pop(md2, None)
            else:
                out[md2] = s
        res = LaurentPoly.__new__(LaurentPoly)
        res.terms = out
        return res

    def substitute(self, var, image):
        """Replace ``var**e`` by ``image**e`` for a unit-monomial image.

        ``image`` must be a single monomial with coefficient ``+1`` or ``-1``
        (so that exponent arithmetic stays closed); with coefficient ``-1``
        all exponents of ``var`` must be integers.
        """
        image = self._coerce(image)
        coeff, imd = image.as_monomial()
        if abs(coeff) != 1:
            raise ValueError("substitution image must be a monomial times +-1")
        out = {}
        for md, c in self.terms.items():
            e = md.e(var)
            if e == 0:
                md2, c2 = md, c
            else:
                if coeff == -1 and e.denominator != 1:
                    raise ValueError("sign image needs an integer exponent")
                sign = coeff ** int(e) if coeff == -1 else 1
                md2 = Multidegree(
                    {v: ex for v, ex in md.items() if v != var}
                ) + imd.scale(e)
                c2 = c * sign
            s = out.get(md2, Fraction(0)) + c2
            if s == 0:
                out.pop(md2, None)
            else:
                out[md2] = s
        res = LaurentPoly.__new__(LaurentPoly)
        res.terms = out
        return res

    def specialize(self, assignments):
        """Apply several ``substitute`` calls, in sorted variable order."""
        p = self
        for var in sorted(assignments):
            p = p.substitute(var, assignments[var])
        return p

    def coefficient_of(self, var, exp):
        """The coefficient of ``var**exp`` as a polynomial in the other variables."""
        exp = _frac(exp)
        out = {}
        for md, c in self.terms.items():
            if md.e(var) == exp:
                out[Multidegree({v: e for v, e in md.items() if v != var})] = c
        return LaurentPoly(out)

    def truncate(self, var, order):
        """Drop all terms of ``var``-degree greater than ``order``."""
        order = _frac(order)
        return LaurentPoly(
            {md: c for md, c in self.terms.items() if md.e(var) <= order}
        )

    def derivative(self, var):
        out = {}
        for md, c in self.terms.items():
            e = md.e(var)
            if e == 0:
                continue
            md2 = md + Multidegree({var: -1})
            out[md2] = out.get(md2, Fraction(0)) + c * e
        return LaurentPoly(out)

    def divide_exact(self, divisor):
        """Exact division; raises :class:`DivisionError` on a nonzero remainder.

        Uses graded-lexicographic long division.  For an exact quotient every
        quotient exponent lies, variable by variable, in the box
        ``[min(f)-min(g), max(f)-max(g)]``; a step escaping the box proves the
        division inexact, which also bounds the loop.
        """
        divisor = self._coerce(divisor)
        if divisor.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        if self.is_zero():
            return LaurentPoly.zero()
        variables = sorted(set(self.variables()) | set(divisor.variables()))
        box = {}
        for v in variables:
            lo = self.min_degree(v) - divisor.min_degree(v)
            hi = self.max_degree(v) - divisor.max_degree(v)
            if lo > hi:
                raise DivisionError(f"no exact quotient: empty box on {v!r}")
            box[v] = (lo, hi)
        lead_key = lambda md: md.key(variables)
        gmd = max(divisor.terms, key=lead_key)
        gc = divisor.terms[gmd]
        remainder = self
        quotient = LaurentPoly.zero()
        while not remainder.is_zero():
            rmd = max(remainder.terms, key=lead_key)
            qmd = rmd - gmd
            for v in variables:
                lo, hi = box[v]
                if not (lo <= qmd.e(v) <= hi):
                    raise DivisionError("no exact quotient")
            qterm = LaurentPoly.monomial(remainder.terms[rmd] / gc, qmd)
            quotient = quotient + qterm
            remainder = remainder - qterm * divisor
        return quotient

    # -- serialization ------------------------------------------------------

    def sorted_terms(self, variables=None):
        variables = list(variables) if variables else self.variables()
        return sorted(self.terms.items(), key=lambda kv: kv[0].key(variables))

    def to_json(self, variables=None):
        """Canonical JSON form with graded-lexicographically sorted terms."""
        variables = list(variables) if variables else self.variables()
        terms = [
            {"coeff": str(c), "exp": [str(md.e(v)) for v in variables]}
            for md, c in self.sorted_terms(variables)
        ]
        return {"variables": variables, "terms": terms}

    @classmethod
    def from_json(cls, obj):
        variables = obj["variables"]
        terms = {}
        for t in obj["terms"]:
            md = Multidegree(
                {v: Fraction(e) for v, e in zip(variables, t["exp"])}
            )
            terms[md] = terms.get(md, Fraction(0)) + Fraction(t["coeff"])
        return cls(terms)

    def dumps(self, variables=None) -> str:
        return json.dumps(self.to_json(variables), separators=(",", ":"))

    @classmethod
    def loads(cls, s: str):
        return cls.from_json(json.loads(s))

    # -- printing ------------------------------------------------------------

    def __str__(self):
        if self.is_zero():
            return "0"
        variables = self.variables()
        pieces = []
        for md, c in reversed(self.sorted_terms(variables)):
            factors = []
            for v, e in md.items():
                factors.append(v if e == 1 else f"{v}^{e}")
            if not factors:
                body = str(abs(c))
            elif abs(c) == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(abs(c))] + factors)
            pieces.append(("- " if c < 0 else "+ ") + body)
        out = " ".join(pieces)
        return out[2:] if out.startswith("+ ") else "-" + out[2:]

    def __repr__(self):
        return f"LaurentPoly({self})"


# -- parsing ------------------------------------------------------------------

_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[-+*^()]))"
)


def parse_poly(text: str) -> LaurentPoly:
    """Parse expressions like ``a^4*(q^-4 + q^2*tr^2*tc^4) - 3*q^2``.

    Supports integer coefficients and exponents, ``+ - * ^`` and parentheses;
    multiplication must be explicit.
    """
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip() == "":
                break
            raise ValueError(f"bad token at {text[pos:pos + 12]!r}")
        tokens.append(m)
        pos = m.end()
    toks = [
        (m.lastgroup, m.group(m.lastgroup)) for m in tokens
    ]
    idx = 0

    def peek():
        return toks[idx] if idx < len(toks) else (None, None)

    def take():
        nonlocal idx
        t = toks[idx]
        idx += 1
        return t

    def parse_sum():
        nonlocal idx
        kind, val = peek()
        sign = 1
        node = None
        while True:
            kind, val = peek()
            if kind == "op" and val in "+-":
                take()
                sign = 1 if val == "+" else -1
            term = parse_product()
            term = term if sign == 1 else -term
            node = term if node is None else node + term
            sign = 1
            kind, val = peek()
            if not (kind == "op" and val in "+-"):
                return node

    def parse_product():
        node = parse_power()
        while True:
            kind, val = peek()
            if kind == "op" and val == "*":
                take()
                node = node * parse_power()
            else:
                return node

    def parse_power():
        base = parse_atom()
        kind, val = peek()
        if kind == "op" and val == "^":
            take()
            kind, val = peek()
            sign = 1
            if kind == "op" and val == "-":
                take()
                sign = -1
            kind, val = take()
            if kind != "num":
                raise ValueError("exponent must be an integer")
            return base ** (sign * int(val))
        return base

    def parse_atom():
        kind, val = take()
        if kind == "num":
            return LaurentPoly.const(int(val))
        if kind == "name":
            return LaurentPoly.var(val)
        if kind == "op" and val == "(":
            node = parse_sum()
            kind, val = take()
            if val != ")":
                raise ValueError("unbalanced parentheses")
            return node
        if kind == "op" and val == "-":
            return -parse_atom()
        raise ValueError(f"unexpected token {val!r}")

    result = parse_sum()
    if idx != len(toks):
        raise ValueError(f"trailing input after position {idx}")
    return result


# -- truncated series ----------------------------------------------------------


class RationalSeries:
    """``numerator / prod(1 - monomial(m))`` expanded in one variable.

    This one shape carries the hook-content and evaluation products, the
    unknot superpolynomial, free-model Hilbert series and every unreduced
    invariant.  Each denominator multidegree must have strictly positive
    degree in the expansion variable, so the geometric expansion of every
    factor is a well-defined series.  Comparisons below ``order`` are exact;
    beyond it the expansion is undefined.
    """

    __slots__ = ("numerator", "denominators", "var", "order")

    def __init__(self, numerator, denominators=(), var="q", order=30):
        self.numerator = LaurentPoly._coerce(numerator)
        self.denominators = tuple(denominators)
        for md in self.denominators:
            if md.e(var) <= 0:
                raise ValueError(
                    f"denominator {md!r} has nonpositive {var!r}-degree"
                )
        self.var = var
        self.order = _frac(order)

    def denominator(self) -> LaurentPoly:
        """The polynomial ``prod(1 - monomial(m))``."""
        out = LaurentPoly.one()
        for md in self.denominators:
            out = out * (LaurentPoly.one() - LaurentPoly.monomial(1, md))
        return out

    def __mul__(self, other):
        if isinstance(other, RationalSeries):
            if other.var != self.var:
                raise ValueError("mismatched expansion variables")
            return RationalSeries(
                self.numerator * other.numerator,
                self.denominators + other.denominators,
                self.var,
                min(self.order, other.order),
            )
        return RationalSeries(
            self.numerator * LaurentPoly._coerce(other),
            self.denominators,
            self.var,
            self.order,
        )

    __rmul__ = __mul__

    def expand(self, order=None) -> LaurentPoly:
        """The truncated expansion, exact through ``order`` in ``self.var``."""
        order = self.order if order is None else _frac(order)
        if self.numerator.is_zero():
            return LaurentPoly.zero()
        base = self.numerator.min_degree(self.var)
        result = self.numerator
        for md in self.denominators:
            step = md.e(self.var)
            factor = LaurentPoly.one()
            k = 1
            power = LaurentPoly.monomial(1, md)
            while base + k * step <= order:
                factor = factor + power
                power = power * LaurentPoly.monomial(1, md)
                k += 1
            result = (result * factor).truncate(self.var, order)
        return result.truncate(self.var, order)

    def __str__(self):
        dens = " * ".join(f"(1 - {LaurentPoly.monomial(1, md)})"
                          for md in self.denominators)
        if dens:
            return f"({self.numerator}) / [{dens}]  (order {self.order} in {self.var})"
        return f"{self.numerator}  (order {self.order} in {self.var})"


# -- series operations ----------------------------------------------------------


def _binom(alpha: Fraction, k: int) -> Fraction:
    out = Fraction(1)
    for i in range(k):
        out *= (alpha - i)
        out /= i + 1
    return out


def _unit_series_base(base: LaurentPoly, var: str):
    const = base.coefficient_of(var, 0)
    rest = base - const
    if not (const == LaurentPoly.one()):
        raise ValueError("non-unit series base")
    if not rest.is_zero() and rest.min_degree(var) <= 0:
        raise ValueError("base must be a power series in the expansion variable")
    return rest


def series_pow_rational(base: LaurentPoly, exponent, order, var="z") -> LaurentPoly:
    """Binomial-series expansion of ``base**exponent`` for rational exponents.

    ``base`` must have constant term 1 in ``var``; the coefficient of each
    power of ``var`` in the result is an exact polynomial in the coefficients
    of ``base``.
    """
    exponent = _frac(exponent)
    if _frac(order) < 0:
        raise ValueError("order must be nonnegative")
    u = _unit_series_base(base, var)
    result = LaurentPoly.one()
    power = LaurentPoly.one()
    k = 1
    while not (power * u).is_zero() and k <= order:
        power = (power * u).truncate(var, order)
        if power.is_zero():
            break
        result = result + _binom(exponent, k) * power
        k += 1
    return result.truncate(var, order)


def series_log(base: LaurentPoly, order, var="z") -> LaurentPoly:
    """Truncated ``ln`` of a series with constant term 1."""
    u = _unit_series_base(base, var)
    result = LaurentPoly.zero()
    power = LaurentPoly.one()
    k = 1
    while k <= order:
        power = (power * u).truncate(var, order)
        if power.is_zero():
            break
        result = result + Fraction((-1) ** (k + 1), k) * power
        k += 1
    return result.truncate(var, order)


def series_exp(base: LaurentPoly, order, var="z") -> LaurentPoly:
    """Truncated ``exp`` of a series with zero constant term."""
    if not base.is_zero() and base.min_degree(var) <= 0:
        raise ValueError("exp argument must have positive order")
    result = LaurentPoly.one()
    power = LaurentPoly.one()
    fact = Fraction(1)
    k = 1
    while k <= order:
        power = (power * base).truncate(var, order)
        if power.is_zero():
            break
        fact /= k
        result = result + fact * power
        k += 1
    return result.truncate(var, order)


# -- ray decomposition, witness division, maximal cancellation -------------------


def _ray_decomposition(p: LaurentPoly, step: Multidegree):
    """Group the terms of ``p`` along cosets of ``Z * step``.

    Returns a list of rays; each ray is a dict ``k -> (Multidegree, coeff)``
    where the multidegree equals ``base + k*step``.
    """
    pivot = step.items()[0][0]
    estep = step.e(pivot)
    rays = {}
    for md, c in p.terms.items():
        ratio = md.e(pivot) / estep
        k = ratio.numerator // ratio.denominator  # floor
        base = md - step.scale(k)
        key = tuple(base.items())
        rays.setdefault(key, {})[k] = (md, c)
    return list(rays.values())


def nonneg_divisibility(p: LaurentPoly, m: Multidegree):
    """Find ``X`` with nonnegative coefficients and ``p == (1 + mono(m)) * X``.

    Returns the unique witness ``X`` when it exists and ``None`` otherwise.
    ``p`` must have integer coefficients.  The search peels each coset of the
    step lattice from its extreme term, which is complete because
    ``1 + mono(m)`` is not a zero divisor.
    """
    for c in p.terms.values():
        if c.denominator != 1:
            raise ValueError("nonneg_divisibility requires integer coefficients")
    if p.is_zero():
        return LaurentPoly.zero()
    if m.is_zero():
        half = {md: c / 2 for md, c in p.terms.items()}
        if all(c.denominator == 1 and c >= 0 for c in half.values()):
            return LaurentPoly(half)
        return None
    witness = {}
    for ray in _ray_decomposition(p, m):
        ks = sorted(ray)
        lo, hi = ks[0], ks[-1]
        carry = Fraction(0)
        for k in range(lo, hi):
            c = ray.get(k, (None, Fraction(0)))[1]
            x = c - carry
            if x < 0:
                return None
            if x:
                md = (ray[ks[0]][0] - m.scale(ks[0])) + m.scale(k)
                witness[md] = x
            carry = x
        if ray[hi][1] != carry:
            return None
    return LaurentPoly(witness)


def max_cancel(p: LaurentPoly, m: Multidegree, keep="early"):
    """Maximal pairwise cancellation of terms differing by ``m``.

    Treats ``p`` as a multiset of generators with nonnegative integer
    multiplicities and removes a maximum matching between the multiset and its
    ``m``-shift.  A maximum matching on a ray is unique in size but not in
    the positions it leaves; ``keep`` selects whether ambiguous survivors sit
    at the low (``"early"``) or high (``"late"``) ``m``-multiples of their
    ray.  Returns ``(survivors, pairs)``.
    """
    if keep not in ("early", "late"):
        raise ValueError("keep must be 'early' or 'late'")
    for c in p.terms.values():
        if c.denominator != 1 or c < 0:
            raise ValueError("max_cancel requires nonnegative integer multiplicities")
    if p.is_zero() or m.is_zero():
        return p, 0
    survivors = {}
    pairs = 0
    for ray in _ray_decomposition(p, m):
        ks = sorted(ray)
        lo, hi = ks[0], ks[-1]
        counts = {k: ray.get(k, (None, Fraction(0)))[1] for k in range(lo, hi + 1)}
        matched = {}  # matched[k]: pairs between levels k and k+1
        if keep == "early":
            used_above = Fraction(0)
            for k in range(hi - 1, lo - 1, -1):
                matched[k] = min(counts[k], counts[k + 1] - used_above)
                pairs += int(matched[k])
                used_above = matched[k]
        else:
            used_below = Fraction(0)
            for k in range(lo, hi):
                matched[k] = min(counts[k] - used_below, counts[k + 1])
                pairs += int(matched[k])
                used_below = matched[k]
        for k in range(lo, hi + 1):
            s = counts[k] - matched.get(k, Fraction(0)) - matched.get(k - 1, Fraction(0))
            if s:
                md = (ray[ks[0]][0] - m.scale(ks[0])) + m.scale(k)
                survivors[md] = s
    return LaurentPoly(survivors), pairs


def clear_fractional(p: LaurentPoly, var=FRACTIONAL_VAR):
    """Shift away a common fractional exponent offset on ``var``.

    All terms must share a single fractional offset mod 1; fails loudly
    otherwise.  Returns ``(shifted, offset)`` where
    ``shifted = p * var**-offset`` has integer exponents in ``var``.
    """
    if p.is_zero():
        return p, Fraction(0)
    fracs = {md.e(var) % 1 for md in p.terms}
    if len(fracs) != 1:
        raise ValueError(
            f"terms carry distinct fractional {var!r}-offsets: {sorted(fracs)}"
        )
    offset = fracs.pop()
    if offset == 0:
        return p, Fraction(0)
    shift = Multidegree({var: -offset})
    return p.map_exponents(lambda md: md + shift), offset
