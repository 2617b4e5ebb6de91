"""Exact multivariate Laurent polynomial and truncated series arithmetic.

Every coefficient is exact; there is no floating point anywhere in this
package.  The values of ``LaurentPoly.terms`` are always
``fractions.Fraction``.  The inner loop of multiplication reads integral
coefficients as ``int`` (``Fraction`` only where a value is not integral),
computes on them, and wraps each result value in a ``Fraction`` once on the
way out; Python mixes ``int`` and ``Fraction`` exactly.  Exponents are
integers on every variable.

Exact division is Kronecker division: the dividend and the divisor, made
integral, are each packed into one Python ``int``, with one signed slot of
a common width per point of the dividend's exponent box, and one ``divmod``
divides them.  The quotient is unpacked once and certified before it is
returned.  Its cost therefore scales with the dividend's exponent box, the
product of its degree spans plus one, not with its number of terms.  The
signed-slot codec (``_pack``, ``_unpack``) is shared with the packed
plethysm sum of :mod:`knothom.invariants`.

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
``Fraction``, so callers that divide exponents stay exact.

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
import sys
import threading
from fractions import Fraction
from itertools import accumulate, compress, count, zip_longest
from math import floor, gcd, isqrt, lcm
from operator import add as _add, mul as _mul, neg as _neg

_new = tuple.__new__


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


def _parse_exact(text: str):
    """An exact rational from its string: ``int`` parses an integer literal
    several times faster than ``Fraction``, which takes the rest."""
    try:
        return int(text)
    except ValueError:
        return Fraction(text)


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


def _trimmed(exps: tuple) -> tuple:
    """``exps`` without its trailing zeros."""
    k = len(exps)
    while k and not exps[k - 1]:
        k -= 1
    return exps[:k]


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

    def _exps(self, slots) -> tuple:
        """The stored exponents in the given slots."""
        n = len(self)
        return tuple([self[i] if i < n else 0 for i in slots])

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

    def _without(self, var):
        i = _INDEX.get(var, _ABSENT)
        if i >= len(self) or not self[i]:
            return self
        out = list(self)
        out[i] = 0
        while out and not out[-1]:
            out.pop()
        return _new(Multidegree, out)

    def _shift(self, step, k: int):
        """``self + k*step`` for an integer ``k``."""
        if not k:
            return self
        # k*step keeps step's trailing zeros trimmed and needs no check
        return self + _new(Multidegree, [k * e for e in step])

    def _key(self, slots):
        """``key`` over the variables in the given slots."""
        return sum(self), self._exps(slots)

    def key(self, variables):
        """Graded-lexicographic sort key over the given variable list."""
        return self._key(_slots(variables))

    def __repr__(self):
        body = ", ".join(f"{v}={e}" for v, e in self.items())
        return f"Multidegree({body})"


class DivisionError(ArithmeticError):
    """Raised when an exact polynomial division has a nonzero remainder."""


# -- signed-slot integer codec (Kronecker substitution) --------------------------


def _slot_bits(bound: int) -> int:
    """The least multiple of 8 with ``bound < 2^(bits-1)``: a signed slot of
    that many bits holds every integer of absolute value at most ``bound``."""
    return -(-(bound.bit_length() + 1) // 8) * 8


#: the ``memoryview`` format of an unsigned slot of each byte width that has
#: one; it reads slots in place only where the machine is little-endian, as
#: the byte order of a packed integer is
_UNSIGNED = {memoryview(bytes(8)).cast(code).itemsize: code
             for code in "BHIQ"} if sys.byteorder == "little" else {}


def _pack(values, bits: int, slots: int) -> int:
    """``sum c * 2^(bits*index)`` over the ``(index, c)`` pairs of ``values``,
    with distinct indices in ``range(slots)`` and ``|c| < 2^(bits-1)``.

    Each slot is written as the unsigned digit ``c + 2^(bits-1)`` of base
    ``2^bits``, which never borrows from its neighbour, into one byte buffer;
    one ``from_bytes`` call reads the buffer, and subtracting the digit
    ``2^(bits-1)`` from every slot restores the signs.
    """
    width = bits // 8
    half = 1 << (bits - 1)
    zero = half.to_bytes(width, "little")
    raw = bytearray(zero * slots)
    code = _UNSIGNED.get(width)
    if code:
        view = memoryview(raw).cast(code)
        for index, c in values:
            view[index] = c + half
        view.release()
    else:
        for index, c in values:
            at = index * width
            raw[at:at + width] = (c + half).to_bytes(width, "little")
    return int.from_bytes(raw, "little") - int.from_bytes(zero * slots, "little")


def _unpack(packed: int, bits: int) -> list:
    """The ``(index, c)`` pairs, ``c`` nonzero, of the signed digits of
    ``packed`` in base ``2^bits``, each in ``[-2^(bits-1), 2^(bits-1))``.

    Every integer has exactly one such expansion, and it fits in the slots
    counted below; when ``packed`` came from :func:`_pack` it gives back the
    packed values.  Adding ``2^(bits-1)`` to every slot makes each digit
    unsigned, so one ``to_bytes`` call splits the whole integer.
    """
    width = bits // 8
    # |packed| < 2^(bits*slots - 2), inside the range of signed digits
    slots = (abs(packed).bit_length() + 1) // bits + 1
    half = 1 << (bits - 1)
    raw = (packed + int.from_bytes(half.to_bytes(width, "little") * slots,
                                   "little")).to_bytes(slots * width, "little")
    code = _UNSIGNED.get(width)
    if code:
        digits = memoryview(raw).cast(code)
    else:
        digits = [int.from_bytes(raw[at:at + width], "little")
                  for at in range(0, slots * width, width)]
    return [(index, u - half) for index, u in enumerate(digits) if u != half]


def _exponent_box(terms, n: int):
    """The least and the greatest exponent in each of the first ``n`` slots
    over the degrees of ``terms``, as two lists."""
    columns = list(zip_longest(*terms, fillvalue=0))
    pad = [0] * (n - len(columns))
    return [*map(min, columns), *pad], [*map(max, columns), *pad]


def _integral(terms) -> tuple:
    """``(den, values)``: the least common denominator of the coefficients
    and the ``int`` coefficients of ``den`` times the term map, in term order."""
    den = lcm(*[c.denominator for c in terms.values()])
    if den == 1:
        return 1, [c.numerator for c in terms.values()]
    return den, [c.numerator * (den // c.denominator) for c in terms.values()]


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

    @classmethod
    def _from_aq(cls, terms):
        """The polynomial ``sum c * a^i * q^j`` over ``int`` triples
        ``(i, j, c)`` with distinct ``(i, j)`` and nonzero ``c``.  Each degree
        is built as the tuple ``(j, i)`` directly: ``q`` and ``a`` hold slots
        0 and 1 from import on."""
        return cls._of({
            _new(Multidegree, (j, i) if i else (j,) if j else ()): Fraction(c)
            for i, j, c in terms})

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
        columns = zip_longest(*self.terms, fillvalue=0)
        return sorted([_VARS[i] for i, col in enumerate(columns) if any(col)])

    def num_terms(self) -> int:
        return len(self.terms)

    def dimension(self) -> Fraction:
        """Sum of absolute values of coefficients (generator count), added
        as ``int``: the numerators when every coefficient is integral, else
        the coefficients over their common denominator."""
        den, values = _integral(self.terms)
        return Fraction(sum(map(abs, values)), den)

    def coefficient_sum(self) -> Fraction:
        return sum(self.terms.values(), Fraction(0))

    def _exponents(self, var):
        """The stored exponents of ``var`` over all terms, in term order."""
        i = _INDEX.get(var, _ABSENT)
        return [md[i] if i < len(md) else 0 for md in self.terms]

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
        # a constant, zero included, equals its number, so it hashes as it
        terms = self.terms
        if not terms:
            return hash(0)
        if len(terms) == 1:
            ((md, c),) = terms.items()
            if md.is_zero():
                return hash(c)
        return hash(frozenset(terms.items()))

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

        ``image`` must be a single monomial with coefficient ``+1`` or ``-1``,
        so that exponent arithmetic stays closed.  One loop maps each term:
        a term with ``var``-degree ``e != 0`` loses its ``var`` slot, gains
        ``e`` times the image's degree unless that degree is zero, and
        changes sign when the image is negative and ``e`` odd.  With a
        constant image, ``var = +1`` or ``-1``, the map is an evaluation
        and adds to no degree.  Coefficients are merged as ``int``
        (``Fraction`` only where a value is not integral), and each
        surviving sum is wrapped in a ``Fraction`` once at the end.
        """
        image = self._coerce(image)
        coeff, imd = image.as_monomial()
        if abs(coeff) != 1:
            raise ValueError("substitution image must be a monomial times +-1")
        negate = coeff == -1
        constant = imd.is_zero()
        i = _INDEX.get(var, _ABSENT)
        shifts = {}  # exponent -> imd.scale(exponent)
        out = {}
        for md, c in self.terms.items():
            c = c.numerator if c.denominator == 1 else c
            e = md[i] if i < len(md) else 0
            if e:
                md = md._without(var)
                if not constant:
                    shift = shifts.get(e)
                    if shift is None:
                        shift = shifts[e] = imd.scale(e)
                    md = md + shift
                if negate and e & 1:
                    c = -c
            s = out.get(md)
            if s is None:
                out[md] = c
            else:
                s += c
                if s:
                    out[md] = s
                else:
                    del out[md]
        return LaurentPoly._wrap(out)

    def coefficient_of(self, var, exp):
        """The coefficient of ``var**exp`` as a polynomial in the other variables."""
        exp = _exact(exp)
        return LaurentPoly._of({md._without(var): c for (md, c), e
                                in zip(self.terms.items(), self._exponents(var))
                                if e == exp})

    def truncate(self, var, order):
        """Drop all terms of ``var``-degree greater than ``order``."""
        order = _exact(order)
        return LaurentPoly._of({md: c for (md, c), e
                                in zip(self.terms.items(), self._exponents(var))
                                if e <= order})

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

        - **Integral operands.**  The dividend is cleared of denominators,
          and the divisor also divided by its content.  A primitive divisor
          that divides an integral polynomial over the rationals divides it
          over the integers (Gauss's lemma), so the integer quotient is
          exact whenever the rational one is.
        - **Packing.**  Both operands, shifted by their least exponents, lie
          in the dividend's exponent box.  A term's index numbers its point
          of the box in mixed radix, the first exponent slot running
          fastest; this Kronecker substitution is a ring map, one-to-one on
          the box.  Each coefficient sits in a signed slot of ``bits`` bits
          at its index.
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
        degree spans plus one, not with its number of terms.  Every
        coefficient of the quotient is a ``Fraction``.
        """
        divisor = self._coerce(divisor)
        if divisor.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        if self.is_zero():
            return LaurentPoly.zero()
        f, g = self.terms, divisor.terms
        n = max(1, *map(len, f), *map(len, g))
        f_lo, f_hi = _exponent_box(f, n)
        g_lo, g_hi = _exponent_box(g, n)
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
        f_base = sum(map(_mul, f_lo, strides))
        g_base = sum(map(_mul, g_lo, strides))
        f_den, f_ints = _integral(f)
        g_den, g_ints = _integral(g)
        content = gcd(*g_ints)
        if content != 1:
            g_ints = [c // content for c in g_ints]
        f_values = [(sum(map(_mul, md, strides)) - f_base, c)
                    for md, c in zip(f, f_ints)]
        g_values = [(sum(map(_mul, md, strides)) - g_base, c)
                    for md, c in zip(g, g_ints)]
        g_norm = sum(map(abs, g_ints))
        bits = _slot_bits(max(map(abs, f_ints)) * g_norm)
        stop = None
        while True:
            packed, remainder = divmod(_pack(f_values, bits, slots),
                                       _pack(g_values, bits, slots))
            if remainder:
                raise DivisionError("no exact quotient")
            digits = _unpack(packed, bits)
            if max(abs(c) for _, c in digits) * g_norm < 1 << (bits - 1):
                break
            if stop is None:
                span = (max(i for i, _ in f_values) - min(i for i, _ in f_values)
                        - max(i for i, _ in g_values) + min(i for i, _ in g_values))
                stop = _slot_bits(((isqrt(sum(c * c for c in f_ints)) + 1) * g_norm)
                                  << max(span, 0))
            if bits >= stop:
                raise DivisionError("no exact quotient")
            bits = min(2 * bits, stop)
        # a certified quotient has a lower top index than the dividend, so
        # every index lies in the dividend's box; a digit outside the
        # quotient box proves the division inexact.  Each pass decodes one
        # slot of every index.
        indices = [index for index, _ in digits]
        columns = []
        for radix, lo, top in dims:
            column = [lo + index % radix for index in indices]
            if max(column) > lo + top:
                raise DivisionError("no exact quotient")
            columns.append(column)
            indices = [index // radix for index in indices]
        degrees = [exps if exps[-1] else _trimmed(exps) for exps in zip(*columns)]
        num, den = g_den, f_den * content
        values = (Fraction(c) for _, c in digits) if num == den else (
            Fraction(c * num, den) for _, c in digits)
        quotient = {_new(Multidegree, md): c for md, c in zip(degrees, values)}
        return LaurentPoly._of(quotient)

    # -- serialization ------------------------------------------------------

    def sorted_terms(self, variables=None):
        variables = list(variables) if variables else self.variables()
        slots = _slots(variables)
        return sorted(self.terms.items(), key=lambda kv: kv[0]._key(slots))

    def to_json(self, variables=None):
        """Canonical JSON form with graded-lexicographically sorted terms."""
        variables = list(variables) if variables else self.variables()
        slots = _slots(variables)
        terms = [
            {"coeff": str(c), "exp": [str(e) for e in md._exps(slots)]}
            for md, c in self.sorted_terms(variables)
        ]
        return {"variables": variables, "terms": terms}

    @classmethod
    def from_json(cls, obj):
        """The polynomial of a :meth:`to_json` object.

        Each degree is written straight into the slots of the listed
        variables, which are registered first.  Terms of one degree are
        summed and a zero sum is dropped; a non-integral exponent raises
        ``ValueError``.
        """
        slots = [_slot(v) for v in obj["variables"]]
        width = max(slots, default=-1) + 1
        terms = {}
        for t in obj["terms"]:
            exps = [0] * width
            for i, e in zip(slots, t["exp"]):
                e = _parse_exact(e)
                if type(e) is not int:
                    if e.denominator != 1:
                        raise ValueError(
                            f"non-integral exponent {e} on variable {_VARS[i]!r}")
                    e = e.numerator
                exps[i] += e
            while exps and not exps[-1]:
                exps.pop()
            md = _new(Multidegree, exps)
            c = Fraction(_parse_exact(t["coeff"]))
            s = terms.get(md)
            terms[md] = c if s is None else s + c
        return cls._of({md: c for md, c in terms.items() if c})

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

def parse_poly(text: str) -> LaurentPoly:
    """Parse expressions like ``a^4*(q^-4 + q^2*tr^2*tc^4) - 3*q^2``.

    Supports integer coefficients and exponents, ``+ - * ^`` and parentheses;
    multiplication must be explicit.
    """
    # compiled on use, not at import, since start-up parses nothing; ``re``
    # caches the pattern, so a later call only looks it up
    token = re.compile(
        r"\s*(?:(?P<num>\d+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[-+*^()]))")
    tokens = []
    pos = 0
    while pos < len(text):
        m = token.match(text, pos)
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
        if idx == len(toks):
            raise ValueError(f"unexpected end of input in {text!r}")
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


def _unit_series_base(base: LaurentPoly, var: str):
    const = base.coefficient_of(var, 0)
    rest = base - const
    if not (const == LaurentPoly.one()):
        raise ValueError("non-unit series base")
    if not rest.is_zero() and rest.min_degree(var) <= 0:
        raise ValueError("base must be a power series in the expansion variable")
    return rest


def _power_series(u: LaurentPoly, coefficients, order, var) -> LaurentPoly:
    """``sum_k c_k * u**k`` through ``var``-degree ``order``.

    ``coefficients`` is an iterator over ``c_0, c_1, ...``, and ``u`` has
    positive order in ``var``, so no power past ``u**order`` reaches the
    result; the loop also stops at the first power that truncates to zero.
    """
    result = LaurentPoly.const(next(coefficients))
    power = LaurentPoly.one()
    for _ in range(floor(order)):
        power = (power * u).truncate(var, order)
        if power.is_zero():
            break
        result = result + next(coefficients) * power
    return result.truncate(var, order)


def series_pow_rational(base: LaurentPoly, exponent, order, var="z") -> LaurentPoly:
    """Binomial-series expansion of ``base**exponent`` for rational exponents.

    ``base`` must have constant term 1 in ``var``; the coefficient of each
    power of ``var`` in the result is an exact polynomial in the coefficients
    of ``base``.
    """
    exponent = _frac(exponent)
    if _frac(order) < 0:
        raise ValueError("order must be nonnegative")
    binomials = accumulate(count(), lambda c, k: c * (exponent - k) / (k + 1),
                           initial=Fraction(1))
    return _power_series(_unit_series_base(base, var), binomials, order, var)


def series_log(base: LaurentPoly, order, var="z") -> LaurentPoly:
    """Truncated ``ln`` of a series with constant term 1."""
    coefficients = (Fraction((-1) ** (k + 1), k) if k else 0 for k in count())
    return _power_series(_unit_series_base(base, var), coefficients, order, var)


def series_exp(base: LaurentPoly, order, var="z") -> LaurentPoly:
    """Truncated ``exp`` of a series with zero constant term."""
    if not base.is_zero() and base.min_degree(var) <= 0:
        raise ValueError("exp argument must have positive order")
    inverse_factorials = accumulate(count(1), lambda c, k: c / k,
                                    initial=Fraction(1))
    return _power_series(base, inverse_factorials, order, var)


# -- ray decomposition, witness division, maximal cancellation -------------------


def _ray_decomposition(terms: dict, step: Multidegree):
    """Group a term map along cosets of ``Z * step``.

    Returns a list of ``(base, ray)`` pairs; each ray is a dict
    ``k -> value`` for the term of multidegree ``base + k*step``.  The
    pivot, which fixes ``k``, is the alphabetically first variable of
    ``step``.
    """
    (pivot, estep), *_ = step.items()
    i = _INDEX[pivot]
    rays = {}
    for md, c in terms.items():
        k = (md[i] if i < len(md) else 0) // estep
        rays.setdefault(md._shift(step, -k), {})[k] = c
    return list(rays.items())


def _integer_terms(p: LaurentPoly, message: str) -> dict:
    """The term map of ``p`` with ``int`` values; raises ``ValueError(message)``
    unless every coefficient is integral."""
    if any(c.denominator != 1 for c in p.terms.values()):
        raise ValueError(message)
    return {md: c.numerator for md, c in p.terms.items()}


def nonneg_divisibility(p: LaurentPoly, m: Multidegree):
    """Find ``X`` with nonnegative coefficients and ``p == (1 + mono(m)) * X``.

    Returns the unique witness ``X`` when it exists and ``None`` otherwise.
    ``p`` must have integer coefficients.  The search peels each coset of the
    step lattice from its extreme term, which is complete because
    ``1 + mono(m)`` is not a zero divisor.
    """
    terms = _integer_terms(p, "nonneg_divisibility requires integer coefficients")
    if not terms:
        return LaurentPoly.zero()
    if m.is_zero():
        if any(n < 0 or n % 2 for n in terms.values()):
            return None
        return LaurentPoly._wrap({md: n // 2 for md, n in terms.items()})
    witness = {}
    for base, ray in _ray_decomposition(terms, m):
        lo, hi = min(ray), max(ray)
        carry = 0
        for k in range(lo, hi):
            x = ray.get(k, 0) - carry
            if x < 0:
                return None
            if x:
                witness[base._shift(m, k)] = x
            carry = x
        if ray[hi] != carry:
            return None
    return LaurentPoly._wrap(witness)


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
    message = "max_cancel requires nonnegative integer multiplicities"
    terms = _integer_terms(p, message)
    if any(n < 0 for n in terms.values()):
        raise ValueError(message)
    if not terms or m.is_zero():
        return p, 0
    survivors = {}
    pairs = 0
    for base, ray in _ray_decomposition(terms, m):
        lo, hi = min(ray), max(ray)
        counts = [ray.get(k, 0) for k in range(lo, hi + 1)]
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
    return LaurentPoly._wrap(survivors), pairs
