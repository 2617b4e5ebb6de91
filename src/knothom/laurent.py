"""Exact multivariate Laurent polynomial and truncated series arithmetic.

Every coefficient is exact; there is no floating point anywhere in this
package.  The values of ``LaurentPoly.terms`` are always
``fractions.Fraction``.  The inner loops of multiplication and exact
division read integral coefficients as ``int`` (``Fraction`` only where a
value is not integral), compute on them, and wrap each result value in a
``Fraction`` once on the way out; Python mixes ``int`` and ``Fraction``
exactly.  Exponents are exact rationals as well, but
only the variable ``q`` is allowed to carry a non-integer exponent (fractional
``q``-powers arise in the torus-knot plethysm sum and are cleared before any
result is returned).  ``Multidegree`` stores each exponent as an ``int`` and
keeps a ``Fraction`` only for a non-integral ``q`` exponent; its public
readers (``e``, ``total``, and the degree queries of ``LaurentPoly``) still
return ``Fraction``, so callers that divide exponents stay exact.

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

import heapq
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


def _exact(x):
    """``x`` as an ``int`` when integral, else as a ``Fraction``."""
    if type(x) is int:
        return x
    x = _frac(x)
    return x.numerator if x.denominator == 1 else x


def _normalized(acc) -> tuple:
    """Sorted nonzero ``(var, exponent)`` pairs with integral exponents as ``int``."""
    items = []
    for v in sorted(acc):
        x = acc[v]
        if x:
            if type(x) is not int and x.denominator == 1:
                x = x.numerator
            items.append((v, x))
    return tuple(items)


class Multidegree:
    """An immutable exponent vector with one exact rational entry per variable.

    Absent variables have exponent zero and equality is extensional, so
    ``Multidegree(a=0, q=2) == Multidegree(q=2)``.  Exponents are stored as
    ``int``; only a non-integral ``q`` exponent is stored as a ``Fraction``.
    The storage is normalised (sorted by variable, zeros dropped, integral
    values as ``int``), so equal degrees have equal items and equal hashes,
    and the hash is computed once.  The public readers ``e`` and ``total``
    return ``Fraction``.
    """

    __slots__ = ("_items", "_hash")

    def __init__(self, data=None, **named):
        acc = {}
        if data is not None:
            pairs = data.items() if hasattr(data, "items") else data
            for v, e in pairs:
                acc[v] = acc.get(v, 0) + _exact(e)
        for v, e in named.items():
            acc[v] = acc.get(v, 0) + _exact(e)
        items = _normalized(acc)
        for v, e in items:
            if type(e) is not int and v != FRACTIONAL_VAR:
                raise ValueError(
                    f"fractional exponent {e} on variable {v!r}; "
                    f"only {FRACTIONAL_VAR!r} may carry fractional exponents"
                )
        self._items = items
        self._hash = hash(items)

    @classmethod
    def _of(cls, items):
        """Wrap pairs already in normalised storage form, skipping validation."""
        md = object.__new__(cls)
        md._items = items
        md._hash = hash(items)
        return md

    def _e(self, var):
        """Stored exponent of ``var``: ``int``, or ``Fraction`` if fractional."""
        for v, ex in self._items:
            if v == var:
                return ex
        return 0

    def e(self, var) -> Fraction:
        """Exponent of ``var`` (zero when absent)."""
        return Fraction(self._e(var))

    def items(self):
        """The stored ``(var, exponent)`` pairs, sorted by variable."""
        return self._items

    def variables(self):
        return tuple(v for v, _ in self._items)

    def is_zero(self) -> bool:
        return not self._items

    def total(self) -> Fraction:
        return Fraction(sum(e for _, e in self._items))

    def __add__(self, other):
        a, b = self._items, other._items
        if not b:
            return self
        if not a:
            return other
        # both operands are valid, so the sum needs merging and normalising only
        out = []
        i = j = 0
        na, nb = len(a), len(b)
        while i < na and j < nb:
            va, ea = a[i]
            vb, eb = b[j]
            if va == vb:
                s = ea + eb
                if s:
                    if type(s) is not int and s.denominator == 1:
                        s = s.numerator
                    out.append((va, s))
                i += 1
                j += 1
            elif va < vb:
                out.append(a[i])
                i += 1
            else:
                out.append(b[j])
                j += 1
        out.extend(a[i:])
        out.extend(b[j:])
        return Multidegree._of(tuple(out))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return Multidegree._of(tuple([(v, -e) for v, e in self._items]))

    def scale(self, k):
        k = _exact(k)
        return Multidegree([(v, e * k) for v, e in self._items])

    def _without(self, var):
        return Multidegree._of(tuple([(v, e) for v, e in self._items if v != var]))

    def _shift(self, step, k: int):
        """``self + k*step`` for an integer ``k``."""
        acc = dict(self._items)
        for v, e in step._items:
            acc[v] = acc.get(v, 0) + k * e
        return Multidegree._of(_normalized(acc))

    def key(self, variables):
        """Graded-lexicographic sort key over the given variable list."""
        d = dict(self._items)
        return (sum(d.values()), tuple([d.get(v, 0) for v in variables]))

    def __eq__(self, other):
        return isinstance(other, Multidegree) and self._items == other._items

    def __hash__(self):
        return self._hash

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

    @classmethod
    def _of(cls, terms):
        """Wrap a term map that has no zero coefficients, skipping validation."""
        res = cls.__new__(cls)
        res.terms = terms
        return res

    @classmethod
    def _wrap(cls, values):
        """Wrap a term map of nonzero ``int`` or ``Fraction`` values, making
        every value a ``Fraction``."""
        return cls._of({md: Fraction(c) for md, c in values.items()})

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

    def _exponents(self, var):
        """The stored exponents of ``var`` over all terms."""
        return [md._e(var) for md in self.terms]

    def degrees(self, var):
        return sorted(map(Fraction, set(self._exponents(var))))

    def min_degree(self, var) -> Fraction:
        if self.is_zero():
            raise ValueError("zero polynomial has no degree")
        return Fraction(min(self._exponents(var)))

    def max_degree(self, var) -> Fraction:
        if self.is_zero():
            raise ValueError("zero polynomial has no degree")
        return Fraction(max(self._exponents(var)))

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        out = dict(self.terms)
        for md, c in other.terms.items():
            s = out.get(md)
            if s is None:
                out[md] = c
            else:
                s += c
                if s:
                    out[md] = s
                else:
                    del out[md]
        return LaurentPoly._of(out)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly._of({md: -c for md, c in self.terms.items()})

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
        big = [(md, _exact(c)) for md, c in big.items()]
        out = {}
        for md2, c2 in small.items():
            c2 = _exact(c2)
            for md1, c1 in big:
                md = md1 + md2
                s = out.get(md)
                if s is None:
                    out[md] = c1 * c2
                else:
                    s += c1 * c2
                    if s:
                        out[md] = s
                    else:
                        del out[md]
        return LaurentPoly._wrap(out)

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
            s = out.get(md2)
            if s is None:
                out[md2] = c
            else:
                s += c
                if s:
                    out[md2] = s
                else:
                    del out[md2]
        return LaurentPoly._of(out)

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
            e = md._e(var)
            if e == 0:
                md2, c2 = md, c
            else:
                if coeff == -1 and type(e) is not int:
                    raise ValueError("sign image needs an integer exponent")
                sign = coeff ** e if coeff == -1 else 1
                md2 = md._without(var) + imd.scale(e)
                c2 = c * sign
            s = out.get(md2)
            if s is None:
                out[md2] = c2
            else:
                s += c2
                if s:
                    out[md2] = s
                else:
                    del out[md2]
        return LaurentPoly._of(out)

    def coefficient_of(self, var, exp):
        """The coefficient of ``var**exp`` as a polynomial in the other variables."""
        exp = _exact(exp)
        return LaurentPoly._of({md._without(var): c
                                for md, c in self.terms.items()
                                if md._e(var) == exp})

    def truncate(self, var, order):
        """Drop all terms of ``var``-degree greater than ``order``."""
        order = _exact(order)
        return LaurentPoly._of(
            {md: c for md, c in self.terms.items() if md._e(var) <= order}
        )

    def derivative(self, var):
        # lowering every monomial by ``var**1`` is injective: no two terms meet
        down = Multidegree({var: -1})
        return LaurentPoly._of({md + down: c * md._e(var)
                                for md, c in self.terms.items() if md._e(var)})

    def divide_exact(self, divisor):
        """Exact division; raises :class:`DivisionError` on a nonzero remainder.

        Graded-lexicographic long division, run in place as in the heap
        division of Monagan and Pearce (ISSAC 2009).  The remainder is one
        term map, and its monomials sit in a max-heap on their sort key,
        computed once when a monomial enters the remainder; a term that
        cancels to zero leaves the map, and its heap entry is skipped when
        popped.  Each step cancels the leading term and subtracts the
        quotient term times the divisor's other terms.  For an exact
        quotient every quotient exponent lies, variable by variable, in the
        box ``[min(f)-min(g), max(f)-max(g)]``; a step escaping the box
        proves the division inexact, which also bounds the loop.  The
        remainder and the divisor hold integral coefficients as ``int``, and
        a quotient coefficient is an ``int`` whenever the leading
        coefficient divides it.
        """
        divisor = self._coerce(divisor)
        if divisor.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        if self.is_zero():
            return LaurentPoly.zero()
        variables = sorted(set(self.variables()) | set(divisor.variables()))
        box = {}
        for v in variables:
            mine, theirs = self._exponents(v), divisor._exponents(v)
            lo = min(mine) - min(theirs)
            hi = max(mine) - max(theirs)
            if lo > hi:
                raise DivisionError(f"no exact quotient: empty box on {v!r}")
            box[v] = (lo, hi)
        gmd = max(divisor.terms, key=lambda md: md.key(variables))
        gc = _exact(divisor.terms[gmd])
        neg_gmd = -gmd
        tail = [(md, _exact(c)) for md, c in divisor.terms.items() if md != gmd]

        def entry(md):
            # heapq pops its least entry: negate the key for the greatest
            total, exps = md.key(variables)
            return -total, tuple([-e for e in exps]), md

        remainder = {md: _exact(c) for md, c in self.terms.items()}
        heap = [entry(md) for md in remainder]
        heapq.heapify(heap)
        quotient = {}
        while heap:
            rmd = heapq.heappop(heap)[-1]
            rc = remainder.pop(rmd, None)
            if rc is None:
                continue
            qmd = rmd + neg_gmd
            for v in variables:
                lo, hi = box[v]
                if not (lo <= qmd._e(v) <= hi):
                    raise DivisionError("no exact quotient")
            qc, r = divmod(rc, gc)
            if r:
                qc = Fraction(rc, gc)
            quotient[qmd] = qc
            for md, c in tail:
                md = qmd + md
                s = remainder.get(md)
                if s is None:
                    remainder[md] = -qc * c
                    heapq.heappush(heap, entry(md))
                else:
                    s -= qc * c
                    if s:
                        remainder[md] = s
                    else:
                        del remainder[md]
        return LaurentPoly._wrap(quotient)

    # -- serialization ------------------------------------------------------

    def sorted_terms(self, variables=None):
        variables = list(variables) if variables else self.variables()
        return sorted(self.terms.items(), key=lambda kv: kv[0].key(variables))

    def to_json(self, variables=None):
        """Canonical JSON form with graded-lexicographically sorted terms."""
        variables = list(variables) if variables else self.variables()
        terms = [
            {"coeff": str(c), "exp": [str(md._e(v)) for v in variables]}
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
            c = Fraction(t["coeff"])
            s = terms.get(md)
            terms[md] = c if s is None else s + c
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
            if md._e(var) <= 0:
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
        order = _exact(self.order if order is None else order)
        if self.numerator.is_zero():
            return LaurentPoly.zero()
        base = min(self.numerator._exponents(self.var))
        result = self.numerator
        for md in self.denominators:
            step = md._e(self.var)
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
            return f"({self.numerator}) / [{dens}]"
        return str(self.numerator)


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

    Returns a list of ``(base, ray)`` pairs; each ray is a dict
    ``k -> coeff`` for the term of multidegree ``base + k*step``.
    """
    pivot, estep = step._items[0]
    rays = {}
    for md, c in p.terms.items():
        k = md._e(pivot) // estep  # exact floor, also for fractional q
        rays.setdefault(md._shift(step, -k), {})[k] = c
    return list(rays.items())


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
    for base, ray in _ray_decomposition(p, m):
        lo, hi = min(ray), max(ray)
        carry = 0
        for k in range(lo, hi):
            x = int(ray.get(k, 0)) - carry
            if x < 0:
                return None
            if x:
                witness[base._shift(m, k)] = x
            carry = x
        if ray[hi] != carry:
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
    for base, ray in _ray_decomposition(p, m):
        lo, hi = min(ray), max(ray)
        counts = [int(ray.get(k, 0)) for k in range(lo, hi + 1)]
        # matched[i]: pairs between levels lo+i and lo+i+1; the last stays 0
        matched = [0] * len(counts)
        if keep == "early":
            used_above = 0
            for i in range(len(counts) - 2, -1, -1):
                matched[i] = used_above = min(counts[i], counts[i + 1] - used_above)
        else:
            used_below = 0
            for i in range(len(counts) - 1):
                matched[i] = used_below = min(counts[i] - used_below, counts[i + 1])
        pairs += sum(matched)
        below = 0
        for i, n in enumerate(counts):
            s = n - matched[i] - below
            below = matched[i]
            if s:
                survivors[base._shift(m, lo + i)] = s
    return LaurentPoly(survivors), pairs


def clear_fractional(p: LaurentPoly, var=FRACTIONAL_VAR):
    """Shift away a common fractional exponent offset on ``var``.

    All terms must share a single fractional offset mod 1; fails loudly
    otherwise.  Returns ``(shifted, offset)`` where
    ``shifted = p * var**-offset`` has integer exponents in ``var``.
    """
    if p.is_zero():
        return p, Fraction(0)
    fracs = {md._e(var) % 1 for md in p.terms}
    if len(fracs) != 1:
        raise ValueError(
            f"terms carry distinct fractional {var!r}-offsets: {sorted(fracs)}"
        )
    offset = fracs.pop()
    if offset == 0:
        return p, Fraction(0)
    shift = Multidegree({var: -offset})
    return p.map_exponents(lambda md: md + shift), offset
