"""Exact multivariate Laurent polynomial and truncated series arithmetic.

Every coefficient is exact; there is no floating point anywhere in this
package.  Every value that ``LaurentPoly.terms`` gives is a
``fractions.Fraction``.  Multiplication is ``_product`` on two term maps:
its inner loop reads integral values as ``int`` (``Fraction`` only where a
value is not integral), computes on them, and wraps nothing; Python mixes
the two exactly.  ``LaurentPoly.__mul__`` wraps each value of the product in
a ``Fraction`` once on the way out, taken from one shared table
(``_SMALL``) when it is an ``int`` of absolute value at most 128.
``RationalSeries.expand`` builds only the products it keeps, each term
times the powers of a denominator that stay within the order, on ``int``
values, and hands the result on as exponent columns (below).  Powers and
logarithms of a series (``series_pow_rational``, ``series_log``, the scheme
relations) all come from one recurrence, J. C. P. Miller's, in
``_series_terms``.
Exponents are integers on every variable.

Exact division is Kronecker division: the dividend and the divisor, made
integral, are each packed into one Python ``int``, with one signed slot of
a common width per point of the dividend's exponent box, and one ``divmod``
divides them.  The quotient is unpacked once and certified before it is
returned.  Its cost therefore scales with the dividend's exponent box, the
product of its degree spans plus one, not with its number of terms.  The
signed-slot codec (``_pack``, ``_unpack``) is :mod:`knothom.kronecker`,
which the packed plethysm sum of :mod:`knothom.invariants` shares.
Division runs one exponent slot (a column of every term's exponents) at a
time, in C-level ``map`` and ``compress`` calls: terms are numbered, and
degrees decoded, column by column, and ``_unpack`` gives the nonzero slots
as two lists.  The quotient is handed on in those columns, with its
``int`` coefficients over their common denominator
(``LaurentPoly._carried``), so that the next division of a chain reads them
as they are; its term map is built when first read.  The rank-collapse path
carries the same way: ``expand`` ends in columns, ``max_cancel`` walks them
and keeps its survivors in them, and ``to_json`` reads them and
``from_json`` gives them.

The column view stays in this module.  Every grading map of the paper that
is integer-affine in the exponents (the self-symmetry and mirror maps, a
specialization ``t = -1``, a substitution ``a = q^n``, a lift or a shift) is
one :meth:`LaurentPoly.regrade` by variable name, which reads columns and
gives them and sums terms only where the map can merge them;
``substitute`` is one such regrade.  ``truncate`` and ``coefficient_of``
cut the columns, equality compares the two column views, and
``LaurentPoly.from_columns`` builds a polynomial from exponent columns
keyed by variable name.  Other modules read a variable's exponents through
``_exponents`` and never a slot number.  The maps that divide exponents, or
that another module writes as a function on degrees, stay on
``map_exponents``, which walks the term map.

``Multidegree`` is a dense exponent vector, after the monomial representation
of Monagan and Pearce (ISSAC 2009) but with one tuple entry per variable
instead of packed words.  A module-level slot table gives each variable a
slot: ``q, a, t, tr, tc`` take slots 0 to 4 at import, and any other
variable (a scheme generator such as ``u1`` or ``du2``) takes the next free
slot when first seen.  A degree is the tuple of its exponents by slot, with
trailing zeros trimmed, each an ``int``.  Equal degrees are therefore equal
tuples: hashing and equality are ``tuple``'s own C code, and addition maps
``operator.add`` over two tuples.  Slot order never reaches output, since
every reader that names variables sorts them by name.  The public readers
(``e``, ``total``, and the degree queries of ``LaurentPoly``) return
``Fraction``, so callers that divide exponents stay exact.  They are the
package's only ``Fraction`` boundary on exponents: every other module reads
the stored ``int`` through ``Multidegree._e`` and ``LaurentPoly._exponents``.

The two carrier types are:

``LaurentPoly``
    a finite sum of monomials ``coeff * prod(var**exp)``, held as a map
    from exponent vectors (``Multidegree``) to coefficients, as exponent
    columns and ``int`` coefficients over a common denominator, or both:
    each form is built from the other when first read, and kept.

``RationalSeries``
    a Laurent polynomial numerator together with a multiset of denominator
    factors, each of the form ``1 - monomial``, expanded on demand as a
    truncated series in a distinguished variable.
"""

from __future__ import annotations

import json
import sys
import threading
from collections import deque
from fractions import Fraction
from itertools import compress, count, repeat, zip_longest
from math import factorial, floor, gcd, isqrt, lcm
from operator import (add as _add, itemgetter, mul as _mul, neg as _neg, not_ as _not,
                      sub as _sub)

from .kronecker import _pack, _slot_bits, _unpack

_new = tuple.__new__


#: one shared ``Fraction`` for each integer ``c`` with ``|c| <= 128``, at
#: ``_SMALL[c + 128]``: the kernel wraps a small ``int`` by looking it up
#: here, and builds a new ``Fraction`` only for a larger one
_SMALL = [Fraction(c) for c in range(-128, 129)]


def _fractions(values) -> list:
    """Each of ``values``, an ``int`` or a ``Fraction``, as a ``Fraction``:
    a small ``int`` from ``_SMALL``, a ``Fraction`` as it is."""
    small = _SMALL
    return [c if type(c) is not int else small[c + 128] if -129 < c < 129
            else Fraction(c) for c in values]


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


def _summed(degrees: list, values: list) -> dict:
    """``values`` summed by their ``degrees``, in first-seen order, with
    zero sums dropped: one ``dict(zip())`` when the degrees are distinct."""
    out = dict(zip(degrees, values))
    if len(out) < len(degrees):
        out = {}
        for md, c in zip(degrees, values):
            out[md] = out.get(md, 0) + c
    return out if all(out.values()) else {md: c for md, c in out.items() if c}


#: the variable of each exponent slot: entry ``i`` of a ``Multidegree`` is
#: the exponent of ``_VARS[i]``.  The kernel's own variables are registered
#: here in a fixed order, so that their slots never depend on which
#: computation ran first; any other variable takes the next slot on first
#: sight and keeps it for the life of the process.
_VARS = []
#: slot of each registered variable
_INDEX = {}
#: serialises registration, so that no variable ever gets two slots
_REGISTER = threading.Lock()
#: stands for the slot of an unregistered variable, past the end of every
#: ``Multidegree``, where exponents read as zero
_ABSENT = sys.maxsize


def _slot(var) -> int:
    """The slot of ``var``, registering the variable on first sight."""
    i = _INDEX.get(var)
    if i is None:
        with _REGISTER:
            i = _INDEX.get(var)
            if i is None:
                i = len(_VARS)
                _VARS.append(var)
                _INDEX[var] = i
    return i


def register_variables(names):
    """Give each unregistered name in ``names`` the next slot, in order.

    Registration changes no value, only slot order, which is private.  A
    computation that names a family of variables registers the whole family,
    in order, before it builds any degree: its members then take adjacent
    slots, and one that is named late does not land past every other
    variable and lengthen each degree that holds it.
    """
    for var in names:
        _slot(var)


register_variables(("q", "a", "t", "tr", "tc"))


def _slots(variables) -> list:
    """The slot of each variable; an unregistered one reads as exponent 0."""
    return [_INDEX.get(v, _ABSENT) for v in variables]


def _from_slots(exps: dict) -> "Multidegree":
    """The ``Multidegree`` with the exponent ``exps[i]`` in each slot ``i``,
    an integral ``Fraction`` made ``int``.  Raises ``ValueError`` for a
    non-integral exponent."""
    out = [0] * (max(exps, default=-1) + 1)
    for i, x in exps.items():
        if type(x) is not int:
            if x.denominator != 1:
                raise ValueError(
                    f"non-integral exponent {x} on variable {_VARS[i]!r}")
            x = x.numerator
        out[i] = x
    while out and not out[-1]:
        out.pop()
    return _new(Multidegree, out)


class Multidegree(tuple):
    """An immutable exponent vector with one integer entry per variable.

    A ``Multidegree`` is a tuple: entry ``i`` is the exponent of the
    variable in slot ``i`` of the module's slot table, and trailing zeros
    are trimmed.  Absent variables have exponent zero, so
    ``Multidegree(a=0, q=2) == Multidegree(q=2)``.  Exponents are stored as
    ``int``; an integral ``Fraction`` given to a constructor is made
    ``int``, and a non-integral one raises ``ValueError``.  The storage is
    a normal form, so equal degrees are equal tuples, and hashing and
    equality are ``tuple``'s own.  A ``Multidegree`` therefore also equals
    a plain tuple of the same slots; no code mixes the two.  Slot order is
    private: ``items``, ``variables``, ``key`` and ``repr`` name variables
    and sort them by name, and the public readers ``e`` and ``total``
    return ``Fraction``.
    """

    __slots__ = ()

    def __new__(cls, data=None, **named):
        pairs = () if data is None else data.items() if hasattr(data, "items") else data
        exps = {}
        for v, e in (*pairs, *named.items()):
            e = _exact(e)
            if e:
                i = _slot(v)
                exps[i] = exps.get(i, 0) + e
        return _from_slots(exps)

    def __reduce__(self):
        # slots are numbered per process: pickle by variable name
        return Multidegree, (self.items(),)

    def _e(self, var):
        """Stored exponent of ``var``, an ``int``."""
        i = _INDEX.get(var, _ABSENT)
        return self[i] if i < len(self) else 0

    def e(self, var) -> Fraction:
        """Exponent of ``var`` (zero when absent)."""
        return Fraction(self._e(var))

    def items(self):
        """The nonzero ``(var, exponent)`` pairs, sorted by variable."""
        return tuple(sorted(compress(zip(_VARS, self), self)))

    def variables(self):
        return tuple(v for v, _ in self.items())

    def is_zero(self) -> bool:
        return not len(self)

    def total(self) -> Fraction:
        return Fraction(sum(self))

    def __bool__(self):
        return True

    def __add__(self, other):
        n, m = len(self), len(other)
        if n > m:
            out = [*map(_add, self, other), *self[m:]]
        elif n < m:
            out = [*map(_add, self, other), *other[n:]]
        else:
            out = [*map(_add, self, other)]
            while out and not out[-1]:
                out.pop()
        return _new(Multidegree, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return _new(Multidegree, map(_neg, self))

    def __mul__(self, other):
        # a tuple would repeat itself
        return NotImplemented

    __rmul__ = __mul__

    def scale(self, k):
        k = _exact(k)
        return _from_slots({i: e * k for i, e in compress(enumerate(self), self)})

    def _shift(self, step, k: int):
        """``self + k*step`` for an integer ``k``."""
        if not k:
            return self
        # k*step keeps step's trailing zeros trimmed and needs no check
        return self + _new(Multidegree, [k * e for e in step])

    def key(self, variables):
        """Graded-lexicographic sort key over the given variable list."""
        return sum(self), tuple(map(self._e, variables))

    def __repr__(self):
        body = ", ".join(f"{v}={e}" for v, e in self.items())
        return f"Multidegree({body})"


class DivisionError(ArithmeticError):
    """Raised when an exact polynomial division has a nonzero remainder."""


def _columns(terms) -> list:
    """The exponents of the degrees of ``terms`` slot by slot, at least one
    tuple: entry ``k`` of tuple ``i`` the exponent of term ``k`` in slot ``i``."""
    return list(zip_longest(*terms, fillvalue=0)) or [(0,) * len(terms)]


def _padded(columns, n: int) -> list:
    """The exponent ``columns`` (at least one) and, after them, as many
    columns of zeros as make ``n``."""
    return [*columns, *[(0,) * len(columns[0])] * (n - len(columns))]


def _indices(columns, strides, lows) -> list:
    """The mixed-radix index ``sum (e_i - lows[i]) * strides[i]`` of each
    term, summed one exponent column at a time; ``strides[0]`` is 1."""
    index = [*map((-sum(map(_mul, lows, strides))).__add__, columns[0])]
    for column, stride in zip(columns[1:], strides[1:]):
        index = [*map(_add, index, map(stride.__mul__, column))]
    return index


def _degrees(columns) -> list:
    """The ``Multidegree`` of each term from its (at least one) exponent
    columns, slot 0 first: trailing columns that are zero on every term are
    dropped, and the terms whose last exponent is zero are built again from
    the columns before it, which trims the trailing zeros."""
    while len(columns) > 1 and not any(columns[-1]):
        columns = columns[:-1]
    degrees = [*map(_new, repeat(Multidegree), zip(*columns))]
    if not all(columns[-1]):
        short = [*compress(count(), map(_not, columns[-1]))]
        trimmed = _degrees([[*map(column.__getitem__, short)] for column in columns[:-1]]
                           ) if len(columns) > 1 else repeat(_new(Multidegree, ()))
        deque(map(degrees.__setitem__, short, trimmed), 0)
    return degrees


def _graded(columns, variables) -> tuple:
    """``(order, chosen)`` for the terms of the exponent ``columns`` (at
    least one): ``chosen`` holds the column of each of ``variables``, zeros
    where it has none, and ``order`` the term indices in graded-lexicographic
    order over them, by the sum of every column and then by ``chosen`` in
    turn; ties keep term order."""
    n, width = len(columns[0]), len(columns)
    chosen = [columns[i] if i < width else (0,) * n for i in _slots(variables)]
    key = [*zip(map(sum, zip(*columns)), *chosen)]
    return sorted(range(n), key=key.__getitem__), chosen


def _integral(values) -> tuple:
    """``(den, ints)``: the least common denominator of ``values`` (``int``
    or ``Fraction``, a list or a dict view) and the ``int`` values of ``den``
    times each, in order."""
    den = lcm(*[c.denominator for c in values])
    if den == 1:
        return 1, [c.numerator for c in values]
    return den, [c.numerator * (den // c.denominator) for c in values]


def _primitive(terms: dict) -> dict:
    """``terms`` times the positive rational that makes its values coprime
    integers: :func:`_integral`'s ``int`` values divided by their greatest
    common divisor.  Values may be ``int`` or ``Fraction``; the result holds
    ``int`` only."""
    _, ints = _integral(terms.values())
    g = gcd(*ints)
    return dict(zip(terms, [c // g for c in ints] if g > 1 else ints))


def _product(f: dict, g: dict) -> dict:
    """The product of two term maps with ``int`` or ``Fraction`` values.

    Each term of the shorter map multiplies every term of the longer one,
    an integral value read as ``int`` (``int`` has a ``denominator`` of 1
    too); products are summed by degree, a zero sum is dropped, and no
    value is wrapped, so the values stay ``int`` where both factors' are.
    """
    if len(f) > len(g):
        f, g = g, f
    big = [(md, c.numerator if c.denominator == 1 else c) for md, c in g.items()]
    out = {}
    for md2, c2 in f.items():
        if c2.denominator == 1:
            c2 = c2.numerator
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
    return out


class LaurentPoly:
    """A multivariate Laurent polynomial with exact rational coefficients.

    It is held in one or both of two forms, each in its own slot: the term
    map, from ``Multidegree`` to nonzero ``Fraction``, and the column view
    ``(columns, den, ints)`` of :meth:`_columnar`.  An operation that
    decodes or walks exponent columns hands its result on in the column
    view alone, integral or not (:meth:`_carried`).  The ``terms`` property
    builds the map from the columns on its first read, and ``_columnar`` the
    columns from the map, and each keeps what it built.  Equality, negation,
    ``regrade``, ``truncate``, ``coefficient_of`` and the coefficient sums
    read the column view.  A built form is never released, so two threads
    that read at once at worst build the same form twice.  Instances are immutable in practice: all operations
    return new polynomials.
    """

    __slots__ = ("_map", "_view")

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for md, c in terms.items():
                c = _frac(c)
                if c != 0:
                    clean[md] = c
        self._map, self._view = clean, None

    @classmethod
    def _of(cls, terms):
        """Wrap a term map that has no zero coefficients, skipping validation."""
        res = cls.__new__(cls)
        res._map, res._view = terms, None
        return res

    @classmethod
    def _carried(cls, columns, ints, den=1):
        """The polynomial of the exponent ``columns`` (at least one, slot 0
        first) and the nonzero ``int`` coefficients ``ints`` over ``den``,
        term by term, of distinct degrees, held as that column view alone.
        A factor that ``den`` shares with every value is divided out, so
        that ``den`` is the least common denominator."""
        g = gcd(den, *ints) if den > 1 else 1
        if g > 1:
            den, ints = den // g, [c // g for c in ints]
        res = cls.__new__(cls)
        res._map, res._view = None, (columns, den, ints)
        return res

    @classmethod
    def _from_rows(cls, columns, ints, den=1):
        """:meth:`_carried` of the terms of the exponent ``columns`` and
        ``int`` coefficients ``ints`` over ``den``, those of one exponent
        row (one degree) summed, in first-seen order, and zero sums dropped
        (:func:`_summed` on the rows); the columns are rebuilt from the rows
        only where two of them met or a value is zero."""
        summed = _summed([*zip(*columns)], ints)
        if len(summed) < len(ints):
            columns, ints = [*zip(*summed)] or [()], [*summed.values()]
        return cls._carried(columns, ints, den)

    @classmethod
    def from_columns(cls, columns: dict, ints):
        """The polynomial whose term ``k`` has the exponent ``columns[v][k]``
        in each named variable ``v`` and the coefficient ``ints[k]``, a
        nonzero ``int``, for terms of distinct degrees, held as that column
        view: the variables are registered and their columns put in their
        slots, with zeros in the others."""
        out = [(0,) * len(ints)]
        for v, column in columns.items():
            i = _slot(v)
            out = _padded(out, i + 1)
            out[i] = column
        return cls._carried(out, ints)

    @property
    def terms(self) -> dict:
        """The term map, built from the column view on first read and kept."""
        terms = self._map
        if terms is None:
            columns, den, ints = self._view
            values = _fractions(ints) if den == 1 else map(Fraction, ints, repeat(den))
            terms = self._map = dict(zip(_degrees(columns), values))
        return terms

    def __reduce__(self):
        # the columns number variables by this process's slots: pickle the
        # term map, whose degrees pickle by variable name
        return LaurentPoly._of, (self.terms,)

    @classmethod
    def _wrap(cls, values):
        """Wrap a term map of nonzero ``int`` or ``Fraction`` values, making
        every ``int`` a ``Fraction`` (a shared one when small)."""
        return cls._of(dict(zip(values, _fractions(values.values()))))

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
        """Every variable with a nonzero exponent, sorted by name, read from
        the column view."""
        return sorted([_VARS[i] for i, col in enumerate(self._columnar()[0]) if any(col)])

    def num_terms(self) -> int:
        return len(self.terms)

    def dimension(self) -> Fraction:
        """Sum of absolute values of coefficients (generator count), added
        as the ``int`` coefficients of the column view over their common
        denominator."""
        _, den, ints = self._columnar()
        return Fraction(sum(map(abs, ints)), den)

    def coefficient_sum(self) -> Fraction:
        """Sum of the coefficients, read from the column view."""
        _, den, ints = self._columnar()
        return Fraction(sum(ints), den)

    def _columnar(self) -> tuple:
        """``(columns, den, ints)``: the exponent columns of the terms (at
        least one), their least common denominator, and the ``int``
        coefficients of ``den`` times the polynomial, in term order; built
        from the term map on first read and kept.  No reader changes it."""
        view = self._view
        if view is None:
            terms = self._map
            view = self._view = (_columns(terms), *_integral(terms.values()))
        return view

    def _exponents(self, var):
        """The stored exponents of ``var`` over all terms, in term order: the
        column of the column view itself, which no reader changes."""
        columns, _, ints = self._columnar()
        i = _INDEX.get(var, _ABSENT)
        return columns[i] if i < len(columns) else (0,) * len(ints)

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
        columns, den, ints = self._columnar()
        return LaurentPoly._carried(columns, [*map(_neg, ints)], den)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __mul__(self, other):
        # a scalar is the constant polynomial: _product reads its value once
        return LaurentPoly._wrap(_product(self.terms, self._coerce(other).terms))

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int):
            raise TypeError("polynomial powers must be integers")
        if n < 0:
            c, md = self.as_monomial()
            if abs(c) != 1:
                raise ValueError("negative powers only for unit monomials")
            return LaurentPoly.monomial(c ** n, md.scale(n))
        result, base = LaurentPoly.one(), self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __truediv__(self, scalar):
        return self * (Fraction(1) / _frac(scalar))

    @staticmethod
    def _coerce(x):
        if isinstance(x, LaurentPoly):
            return x
        if isinstance(x, (int, Fraction)):
            return LaurentPoly.const(x)
        raise TypeError(f"cannot combine LaurentPoly with {type(x).__name__}")

    def __eq__(self, other):
        """The same least common denominator and the same ``int`` value at
        each exponent row of the two column views, padded to one width."""
        try:
            other = self._coerce(other)
        except TypeError:
            return NotImplemented
        (pc, pd, pi), (qc, qd, qi) = self._columnar(), other._columnar()
        n = max(len(pc), len(qc))
        return pd == qd and dict(zip(zip(*_padded(pc, n)), pi)) == dict(zip(zip(*_padded(qc, n)), qi))

    def __hash__(self):
        # a constant, zero included, equals its number, so it hashes as it
        terms = self.terms
        if len(terms) < 2 and not any(map(len, terms)):
            return hash(sum(terms.values()))
        return hash(frozenset(terms.items()))

    # -- structural operations ----------------------------------------------

    def map_exponents(self, fn):
        """Apply ``fn: Multidegree -> Multidegree`` to every term (coefficients add)."""
        return LaurentPoly._of(_summed([*map(fn, self.terms)], [*self.terms.values()]))

    def regrade(self, images, shift=(), odd=()):
        """The integer-affine image of the exponents, by variable name.

        Each variable ``v`` of ``images`` gets the exponent ``sum k*e_w``
        over the pairs ``w: k`` of ``images[v]`` (``{}`` drops it), read
        before any is changed; every other variable keeps its own.  Then the
        degree ``shift`` is added, and a term changes sign where its
        exponents in the variables ``odd`` sum to an odd number.  It reads
        the column view and hands the result on in columns.  Rows are summed
        by degree (:meth:`_from_rows`) only where the map can merge terms:
        it cannot when each image reads its own variable by ``+-1`` and no
        other variable of ``images``.  A variable that the map only reads
        or drops is not registered.
        """
        columns, den, ints = self._view or self._columnar()
        width = len(columns)
        out, merge = _padded(columns, len(shift)), False
        for v, image in images.items():
            new = None
            for w, k in image.items():
                i = _INDEX.get(w, width)
                if i < width:
                    new = [*map(k.__mul__, columns[i])] if new is None else [
                        *map(_add, new, map(k.__mul__, columns[i]))]
            i = _slot(v) if image else _INDEX.get(v, _ABSENT)
            if i < _ABSENT:
                if i >= len(out):
                    out += [(0,) * len(ints)] * (i + 1 - len(out))
                out[i] = new or (0,) * len(ints)
            merge = merge or images.keys() & image.keys() != {v} or image[v] ** 2 != 1
        for i, k in enumerate(shift):
            if k:
                out[i] = [*map(k.__add__, out[i])]
        if odd:
            ints = [-c if e & 1 else c
                    for c, e in zip(ints, map(sum, zip(*map(self._exponents, odd))))]
        return (LaurentPoly._from_rows if merge else LaurentPoly._carried)(out, ints, den)

    def substitute(self, var, image):
        """Replace ``var**e`` by ``image**e`` for a unit-monomial image.

        ``image`` must be a single monomial with coefficient ``+1`` or ``-1``,
        so that exponent arithmetic stays closed; with a constant image,
        ``var = +1`` or ``-1``, the map is an evaluation.  It is the
        :meth:`regrade` that drops ``var``, adds ``k*e_var`` to each
        variable of exponent ``k`` in the image, and, for the image ``-1``
        times a monomial, flips the sign of the terms of odd ``var``-degree.
        """
        coeff, imd = self._coerce(image).as_monomial()
        if abs(coeff) != 1:
            raise ValueError("substitution image must be a monomial times +-1")
        return self.regrade({var: {}, **{w: {w: 1, var: k} for w, k in imd.items()}},
                            odd=(var,) * (coeff == -1))

    def _kept(self, var, keep):
        """The terms whose exponent of ``var`` passes ``keep``, cut from the
        column view and handed on in columns over their least common
        denominator."""
        columns, den, ints = self._view or self._columnar()
        i = _INDEX.get(var, _ABSENT)
        mask = [*map(keep, columns[i] if i < len(columns) else repeat(0, len(ints)))]
        return LaurentPoly._carried([*map(list, map(compress, columns, repeat(mask)))],
                                    [*compress(ints, mask)], den)

    def coefficient_of(self, var, exp):
        """The coefficient of ``var**exp`` as a polynomial in the other
        variables: the terms of ``var``-degree ``exp``, ``var`` dropped."""
        return self._kept(var, _exact(exp).__eq__).regrade({var: {}})

    def truncate(self, var, order):
        """Drop all terms of ``var``-degree greater than ``order``."""
        return self._kept(var, _exact(order).__ge__)

    def derivative(self, var):
        # lowering every monomial by ``var**1`` is injective: no two terms meet
        down = Multidegree({var: -1})
        return LaurentPoly._of({md + down: c * md._e(var)
                                for md, c in self.terms.items() if md._e(var)})

    def divide_exact(self, divisor):
        """Exact division; raises :class:`DivisionError` on a nonzero remainder.

        Kronecker division (Kronecker 1882; Harvey, J. Symbolic Comput.
        2009): each operand becomes one ``int`` and one ``divmod`` divides
        them.  For an exact quotient every quotient exponent lies, slot by
        slot, in the box ``[min(f)-min(g), max(f)-max(g)]``; an empty box
        proves the division inexact.

        - **Integral operands.**  Both operands are read as exponent columns
          and ``int`` values over a common denominator (``_columnar``), and
          the divisor's values are divided by their content, their greatest
          common divisor, which makes the divisor primitive.  A primitive divisor
          that divides an integral polynomial over the rationals divides it
          over the integers (Gauss's lemma), so the integer quotient is
          exact whenever the rational one is.
        - **Packing.**  Both operands, shifted by their least exponents, lie
          in the dividend's exponent box.  A term's index numbers its point
          of the box in mixed radix, the first exponent slot running
          fastest; this Kronecker substitution is a ring map, one-to-one on
          the box.  Each coefficient sits in a signed slot of ``bits`` bits
          at its index.  Indices are summed, and decoded, one slot (exponent
          column) at a time, over all terms at once.
        - **Division.**  Substitution and evaluation are ring maps, so an
          exact quotient leaves no remainder at any width, and a nonzero
          remainder proves the division inexact.
        - **Certificate.**  The quotient's signed digits ``Q`` satisfy
          ``Q(2^bits) * g(2^bits) = f(2^bits)``.  When ``max|Q| * |g|_1``
          and ``max|f|`` are below ``2^(bits-1)``, every coefficient of
          ``Q*g`` and of ``f`` fits its slot, so ``Q*g == f`` in the
          substituted variable.  A digit outside the quotient box then
          proves the division inexact; otherwise ``Q`` is the quotient.
        - **Width.**  The first width certifies any quotient no larger than
          the dividend: ``max|f| * |g|_1 < 2^(bits-1)``.  A failed
          certificate doubles the width, up to the one at which Mignotte's
          bound ``2^d * |f|_2``, on the coefficients of an exact quotient of
          span ``d``, certifies too; a failure there proves the division
          inexact.

        The cost scales with the dividend's exponent box, the product of its
        degree spans plus one, not with its number of terms.

        - **Columns in, columns out.**  The quotient is returned as it is
          decoded, in those columns and values over the denominator that
          the operands' denominators and the divisor's content give
          (:meth:`_carried`), so the next division of a chain reads them
          as they are; its term map is built when ``terms`` is first read.
          A divisor keeps its columns once read, so a divisor used again
          is read once.  Every coefficient read from ``terms`` is a
          ``Fraction``, from ``_SMALL`` when it is a small integer.
        """
        g_cols, g_den, g_ints = self._coerce(divisor)._columnar()
        if not g_ints:
            raise ZeroDivisionError("division by zero polynomial")
        f_cols, f_den, f_ints = self._columnar()
        if not f_ints:
            return LaurentPoly.zero()
        n = max(len(f_cols), len(g_cols))
        f_cols, g_cols = _padded(f_cols, n), _padded(g_cols, n)
        f_lo, f_hi = [*map(min, f_cols)], [*map(max, f_cols)]
        g_lo, g_hi = [*map(min, g_cols)], [*map(max, g_cols)]
        strides, dims = [], []
        slots = 1
        for i in range(n):
            lo, top = f_lo[i] - g_lo[i], (f_hi[i] - f_lo[i]) - (g_hi[i] - g_lo[i])
            if top < 0:
                raise DivisionError(f"no exact quotient: empty box on {_VARS[i]!r}")
            radix = f_hi[i] - f_lo[i] + 1
            strides.append(slots)
            dims.append((radix, lo, top))
            slots *= radix
        f_index = _indices(f_cols, strides, f_lo)
        g_index = _indices(g_cols, strides, g_lo)
        content = gcd(*g_ints)
        if content > 1:
            g_ints = [c // content for c in g_ints]
        g_norm = sum(map(abs, g_ints))
        bits = _slot_bits(max(map(abs, f_ints)) * g_norm)
        stop = None
        while True:
            packed, remainder = divmod(_pack(f_index, f_ints, bits, slots),
                                       _pack(g_index, g_ints, bits, slots))
            if remainder:
                raise DivisionError("no exact quotient")
            indices, values = _unpack(packed, bits)
            if max(map(abs, values)) * g_norm < 1 << (bits - 1):
                break
            if stop is None:
                span = max(f_index) - min(f_index) - max(g_index) + min(g_index)
                stop = _slot_bits(((isqrt(sum(c * c for c in f_ints)) + 1) * g_norm)
                                  << max(span, 0))
            if bits >= stop:
                raise DivisionError("no exact quotient")
            bits = min(2 * bits, stop)
        # a certified quotient has a lower top index than the dividend, so
        # every index lies in the dividend's box, and what is left of it
        # after the other slots is the last slot; a digit outside the
        # quotient box proves the division inexact.  Each pass decodes one
        # slot of every index.
        columns = []
        for radix, lo, top in dims[:-1]:
            columns.append([*map(radix.__rmod__, indices)])
            indices = [*map(radix.__rfloordiv__, indices)]
        columns.append(indices)
        for k, (_, lo, top) in enumerate(dims):
            if max(columns[k]) > top:
                raise DivisionError("no exact quotient")
            if lo:
                columns[k] = [*map(lo.__add__, columns[k])]
        # f is f_ints / f_den and g is content * g_ints / g_den
        if g_den > 1:
            values = [*map(g_den.__mul__, values)]
        return LaurentPoly._carried(columns, values, content * f_den)

    # -- serialization ------------------------------------------------------

    def to_json(self, variables=None):
        """Canonical JSON form: ``variables``, by default every variable
        with a nonzero exponent sorted by name, and the terms in
        graded-lexicographic order over them (:func:`_graded`), each
        coefficient and exponent as text.

        It reads the column view of ``_columnar``, so a polynomial held in
        columns is written without building its term map.  A list of
        ``variables`` that leaves out a variable with a nonzero exponent
        raises ``ValueError``, naming it, since its exponents would be lost.
        """
        columns, den, ints = self._columnar()
        present = self.variables()
        if not variables:
            variables = present
        else:
            variables = list(variables)
            missing = sorted({*present} - {*variables})
            if missing:
                raise ValueError(f"variables {variables} leave out {missing}")
        order, chosen = _graded(columns, variables)
        coeffs = [*map(str, ints if den == 1 else map(Fraction, ints, repeat(den)))]
        texts = [*zip(*[map(str, col) for col in chosen])] or [()] * len(ints)
        return {"variables": variables,
                "terms": [{"coeff": coeffs[k], "exp": [*texts[k]]} for k in order]}

    @classmethod
    def from_json(cls, obj):
        """The polynomial of a :meth:`to_json` object.

        The listed variables are registered first.  Each variable's column
        of exponents is read at once, by ``int``, and the columns of a
        repeated variable add.  Where an exponent is not an integer literal,
        the degrees are built term by term instead, exactly, and a
        non-integral exponent raises ``ValueError``.  The coefficients are
        read by ``int`` too, or else over their common denominator
        (:func:`_integral`), and :meth:`_from_rows` sums the terms of one
        degree and hands the result on in columns.  A term with more or
        fewer exponents than variables raises ``ValueError``, naming the term.
        """
        variables, terms = obj["variables"], obj["terms"]
        exps = [*map(itemgetter("exp"), terms)]
        for t, e in zip(terms, exps):
            if len(e) != len(variables):
                raise ValueError(f"term {t} does not have one exponent for each of {variables}")
        slots = [_slot(v) for v in variables]
        columns = [(0,) * len(terms)] * (max(slots, default=0) + 1)
        try:
            for i, texts in zip(slots, zip(*exps)):
                columns[i] = [*map(_add, columns[i], map(int, texts))]
        except ValueError:  # a fraction: term by term, which checks each exponent
            columns = _columns([Multidegree(zip(variables, e)) for e in exps])
        coeffs = [*map(itemgetter("coeff"), terms)]
        try:
            den, ints = 1, [*map(int, coeffs)]
        except ValueError:
            den, ints = _integral([*map(Fraction, coeffs)])
        return cls._from_rows(columns, ints, den)

    def dumps(self, variables=None) -> str:
        return json.dumps(self.to_json(variables), separators=(",", ":"))

    @classmethod
    def loads(cls, s: str):
        return cls.from_json(json.loads(s))

    # -- printing ------------------------------------------------------------

    def __str__(self):
        if self.is_zero():
            return "0"
        items = [*self.terms.items()]
        order, _ = _graded(self._columnar()[0], self.variables())
        pieces = []
        for md, c in map(items.__getitem__, reversed(order)):
            factors = [v if e == 1 else f"{v}^{e}" for v, e in md.items()]
            body = "*".join([str(abs(c))] * (abs(c) != 1 or not factors) + factors)
            pieces.append(("- " if c < 0 else "+ ") + body)
        out = " ".join(pieces)
        return out[2:] if out.startswith("+ ") else "-" + out[2:]

    def __repr__(self):
        return f"LaurentPoly({self})"


# -- parsing ------------------------------------------------------------------

def parse_poly(text: str) -> LaurentPoly:
    """Parse a literal such as ``a^4*(q^-4 + q^2*tr^2*tc^4) - 3*q^2``.

    Python's grammar, read by :mod:`ast` with ``^`` for ``**``, cut down to
    decimal integers, ASCII names other than keywords, binary ``+ - *``,
    unary ``+ -``, parentheses and ``^`` to a literal integer, negative or
    not; all else, ``**`` included, raises ``ValueError``.  Lenient on unary
    ``+`` after an operator and on ``a^(-2)``.  Precedence is Python's:
    ``2*-a^2`` is ``-2*a^2``.  Flat sums of 2,000 terms parse on Python 3.10
    to 3.13; the longest literal in this repository has 31 top-level terms.
    """
    import ast  # here, not at import: start-up parses nothing
    def integer(node):  # a decimal literal, perhaps negated; not True or 0x1
        digits = source[node.col_offset:node.end_col_offset].replace(" ", "")
        if not digits.removeprefix("-").isdigit():
            raise ValueError(f"unexpected {digits!r} in polynomial literal {text!r}")
        return int(digits)
    def walk(node):  # binary chains in a loop: depth follows nesting only
        spine = []
        while isinstance(node, ast.BinOp) and type(node.op) in binary:
            spine.append(node)
            node = node.left
        if isinstance(node, ast.Name):
            value = LaurentPoly.var(node.id)
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
            value = walk(node.operand) * (-1 if isinstance(node.op, ast.USub) else 1)
        else:
            value = LaurentPoly.const(integer(node))
        for link in reversed(spine):
            right = integer(link.right) if type(link.op) is ast.Pow else walk(link.right)
            value = binary[type(link.op)](value, right)
        return value
    if not text.isascii() or "**" in text:
        raise ValueError(f"not a polynomial literal: {text!r}")
    binary = {ast.Add: _add, ast.Sub: _sub, ast.Mult: _mul, ast.Pow: pow}
    source = " ".join(text.split()).replace("^", "**")
    try:
        return walk(ast.parse(source, mode="eval").body)
    except (SyntaxError, RecursionError) as err:
        raise ValueError(f"not a polynomial literal: {text!r}") from err


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
        """The series times a polynomial or a scalar."""
        return RationalSeries(
            self.numerator * LaurentPoly._coerce(other),
            self.denominators,
            self.var,
            self.order,
        )

    __rmul__ = __mul__

    def expand(self, order=None) -> LaurentPoly:
        """The truncated expansion, exact through ``order`` in ``self.var``.

        Exponents are integers, so ``order`` is taken down to its floor.  No
        factor lowers a ``var``-degree, so no term past ``order`` is ever
        made: the numerator is truncated first, and the factor ``1/(1 -
        m)``, with ``m`` of ``var``-degree ``step > 0``, multiplies a term of
        ``var``-degree ``v`` by ``1, m, ..., m^K`` only, ``K = (order - v) //
        step``, its degrees built by adding ``m`` again and again.  The
        products are summed by degree, and a zero sum dropped, factor by
        factor.  The expansion reads the numerator's column view
        (``_columnar``), ``int`` values over a common denominator ``den``;
        every product keeps that ``den``, and the result is handed on in
        columns over it (:meth:`LaurentPoly._carried`), so that
        :func:`max_cancel` and ``to_json`` read it as it is and no
        ``Fraction`` is made unless ``terms`` is read.
        """
        order = floor(_exact(self.order if order is None else order))
        columns, den, ints = self.numerator._columnar()
        i = _INDEX.get(self.var, _ABSENT)
        levels = columns[i] if i < len(columns) else repeat(0)
        result = {md: c for md, c, v in zip(_degrees(columns), ints, levels) if v <= order}
        for md in self.denominators:
            step, out = md[i], {}
            for d, c in result.items():
                for _ in range((order - (d[i] if i < len(d) else 0)) // step + 1):
                    s = out.get(d)
                    out[d] = c if s is None else s + c
                    d += md
            result = {d: c for d, c in out.items() if c}
        return LaurentPoly._carried(_columns(result), [*result.values()], den)

    def __str__(self):
        dens = " * ".join(f"(1 - {LaurentPoly.monomial(1, md)})"
                          for md in self.denominators)
        if dens:
            return f"({self.numerator}) / [{dens}]"
        return str(self.numerator)


# -- series operations ----------------------------------------------------------


def _series_terms(f: dict, top: int, exponent=None) -> list:
    """``H_n = n! * den**n * h_n`` for ``n <= top``, ``h_n`` the coefficient
    of ``z^n`` in ``(1 + F)**exponent`` (``exponent = num/den`` in lowest
    terms), or in ``ln(1 + F)`` (``den = 1``) when ``exponent`` is ``None``;
    ``f`` maps each ``k >= 1`` to the term map of ``F``'s ``z^k``.

    ``h`` solves ``(1 + F)*h' = a*F'*h + b*F'``, ``(a, b, h_0)`` being
    ``(exponent, 0, 1)`` or ``(0, 1, 0)``.  This is J. C. P. Miller's
    recurrence (Knuth, TAOCP vol. 2, 4.7), ``n*h_n = sum_k ((a+1)*k - n) *
    f_k * h_(n-k) + b*n*f_n``: each ``H_n`` sums products of the ``f_k``
    with earlier ``H`` by integer factors, ``int`` where ``f`` is.
    """
    a, den = (0, 1) if exponent is None else (exponent.numerator, exponent.denominator)
    H = [{} if exponent is None else {_new(Multidegree, ()): 1}]
    for n in range(1, top + 1):
        out = {md: factorial(n) * c for md, c in f.get(n, {}).items()} if exponent is None else {}
        for k, fk in f.items():
            if k > n or (a + den) * k == n * den:
                continue
            c = ((a + den) * k - n * den) * factorial(n - 1) // factorial(n - k) * den ** (k - 1)
            for md2, c2 in fk.items():
                for md, v in H[n - k].items():
                    md += md2
                    out[md] = out.get(md, 0) + c * c2 * v
        H.append({md: v for md, v in out.items() if v})
    return H


def _unit_series(base: LaurentPoly, exponent, order, var) -> LaurentPoly:
    """``base**exponent``, or ``ln(base)`` if ``exponent`` is ``None``, through
    ``var``-degree ``order``: :func:`_series_terms` on the ``var``-coefficients
    of ``base``, each coefficient of the result divided once."""
    if _frac(order) < 0:
        raise ValueError("order must be nonnegative")
    out = {}
    f = {k: {md: _exact(c) for md, c in base.coefficient_of(var, k).terms.items()}
         for k in {*base._exponents(var)}}
    if f.pop(0, None) != {(): 1} or min(f, default=1) <= 0:
        raise ValueError(f"series base must be 1 plus terms of positive {var!r}-degree")
    den = 1 if exponent is None else exponent.denominator
    for n, H in enumerate(_series_terms(f, floor(_frac(order)), exponent)):
        step, scale = Multidegree({var: n}), factorial(n) * den ** n
        out.update({md + step: Fraction(v, scale) for md, v in H.items()})
    return LaurentPoly._of(out)


def series_pow_rational(base: LaurentPoly, exponent, order, var="z") -> LaurentPoly:
    """Binomial series of ``base**exponent``, ``exponent`` rational, through
    ``var``-degree ``order``: ``base`` must have constant term 1 in ``var``,
    and each coefficient is an exact polynomial in those of ``base``."""
    return _unit_series(base, _frac(exponent), order, var)


def series_log(base: LaurentPoly, order, var="z") -> LaurentPoly:
    """Truncated ``ln`` of a series with constant term 1."""
    return _unit_series(base, None, order, var)


# -- rays, witness division, maximal cancellation -------------------------------


def _walk(columns, counts: list, step: Multidegree, ahead: int, witness=None):
    """Match the terms greedily along the rays of ``step``, level by level.

    The terms are given by their exponent ``columns`` (at least one, slot 0
    first) and their ``counts``, and are known by their number.  A term with
    count ``n`` lies at level ``k = e // s``, with ``e`` and ``s`` the
    exponents of the term and of the step in the step's first nonzero slot
    (the pivot), on the ray (a coset of ``Z*step``) of its ``base = md -
    k*step``, computed one exponent column at a time; columns shorter than
    the step read as zero.  The rows go in increasing level for ``ahead =
    1`` and in decreasing level for ``ahead = -1``, and ``rays`` carries
    each ray's last row as ``(level, rest, term)``, keyed by its base.  A
    row one ``ahead`` past that last row matches as much of the last row's
    rest as its own count allows; after a gap it matches nothing.  What the
    last row has left then survives, and so does each ray's rest at the end
    of the walk.

    Returns ``(survivors, pairs)``, the survivors as a map of term number
    to count.  A ``witness`` dict receives each term's rest as its row
    leaves it, before the next level matches it.
    """
    pivot, e_pivot = next(compress(enumerate(step), step))
    columns = _padded(columns, len(step))
    levels = [*map(e_pivot.__rfloordiv__, columns[pivot])]
    bases = zip(*[[*map(_sub, column, map(e.__mul__, levels))] if e else column
                  for column, e in zip_longest(columns, step, fillvalue=0)])
    rows = sorted(zip(levels, bases, counts, count()), key=itemgetter(0),
                  reverse=ahead < 0)
    rays = {}
    survivors = {}
    pairs = 0
    for k, base, n, term in rows:
        last = rays.get(base)
        if last is not None:
            level, rest, prev = last
            if rest:
                if level + ahead == k:
                    matched = rest if rest < n else n
                    pairs += matched
                    rest -= matched
                    n -= matched
                if rest:
                    survivors[prev] = rest
        if witness is not None and n:
            witness[term] = n
        rays[base] = (k, n, term)
    for _, rest, term in rays.values():
        if rest:
            survivors[term] = rest
    return survivors, pairs


def _picked(columns, counts: dict) -> LaurentPoly:
    """The polynomial, held in columns, of the terms of the exponent
    ``columns`` that ``counts`` numbers, each with its count there."""
    return LaurentPoly._carried([[*map(column.__getitem__, counts)] for column in columns],
                                [*counts.values()])


def nonneg_divisibility(p: LaurentPoly, m: Multidegree):
    """Find ``X`` with nonnegative coefficients and ``p == (1 + mono(m)) * X``.

    Returns the unique witness ``X`` when it exists and ``None`` otherwise.
    ``p`` must have integer coefficients; they are read as exponent columns
    and ``int`` values (``_columnar``), and the witness is handed on in
    those columns (``LaurentPoly._carried``).  The search peels each ray of
    the step from its lowest level, in one ascending :func:`_walk`: ``X`` at
    level ``k`` is the rest of ``p``'s count there after its match with
    ``X`` at ``k - 1``.  ``X`` exists exactly when every match is whole and
    the rest is zero before a gap and at the top of each ray, that is, when
    nothing survives.  This is complete because ``1 + mono(m)`` is not a
    zero divisor.
    """
    columns, den, counts = p._columnar()
    if den != 1:
        raise ValueError("nonneg_divisibility requires integer coefficients")
    if m.is_zero():
        if any(n < 0 or n % 2 for n in counts):
            return None
        return LaurentPoly._carried(columns, [n // 2 for n in counts])
    if min(counts, default=0) < 0:
        return None
    witness = {}
    survivors, _ = _walk(columns, counts, m, 1, witness)
    return None if survivors else _picked(columns, witness)


def max_cancel(p: LaurentPoly, m: Multidegree, keep="early"):
    """Maximal pairwise cancellation of terms differing by ``m``.

    Treats ``p`` as a multiset of generators with nonnegative integer
    multiplicities and removes a maximum matching between the multiset and its
    ``m``-shift.  A maximum matching on a ray is unique in size but not in
    the positions it leaves; ``keep`` selects whether ambiguous survivors sit
    at the low (``"early"``) or high (``"late"``) ``m``-multiples of their
    ray.  Returns ``(survivors, pairs)``.

    On a ray the greedy matching from one end is maximum: each level is
    matched as far as it can be with the next one in the direction of the
    pass, after its matches with the level before.  One :func:`_walk`,
    in decreasing level for ``"early"`` and increasing level for
    ``"late"``, matches every ray; a gap ends a run, and each row's rest
    survives.  The walk reads the exponent columns and ``int`` counts of
    ``p`` (``_columnar``), so an expansion held in columns is read as it
    is, and the survivors are handed on in those columns
    (``LaurentPoly._carried``).
    """
    if keep not in ("early", "late"):
        raise ValueError("keep must be 'early' or 'late'")
    columns, den, counts = p._columnar()
    if den != 1 or min(counts, default=0) < 0:
        raise ValueError("max_cancel requires nonnegative integer multiplicities")
    if m.is_zero():
        return p, 0
    survivors, pairs = _walk(columns, counts, m, -1 if keep == "early" else 1)
    return _picked(columns, survivors), pairs
