"""Differential tests of the Laurent kernel against sympy.

Inputs are generated by hypothesis over the variables ``a, q, t`` with
mixed-sign rational coefficients and integer exponents;
``max_cancel`` and ``nonneg_divisibility`` get integer multiplicities.
Products and division chains are also drawn with integer coefficients
only, the common case, which the kernel's inner loops compute on ``int``.
Chains of divisions by binomials are checked in sympy's sparse polynomial
ring, which multiplies products of hundreds of terms quickly.  Exact division
packs both operands into one integer each (Kronecker substitution), so it is
also checked on coefficients up to 2^80, on a quotient that needs wider
slots than the first width, and on inexact divisions whose packed images
divide.  The truncated
power series ``base**alpha``, ``log`` and ``exp`` are checked against
sympy's ring series, over bases with symbolic coefficients.  Polynomial
literals drawn from the grammar of ``parse_poly`` are checked against
sympy's parser.  ``to_json`` and ``__str__`` are checked byte for byte
against the per-term serialisation they replaced.
``Multidegree`` itself is checked against a plain ``{var: int}`` model,
over the kernel's own variables, scheme generator names and fresh names.
The runs are derandomized, so every run checks the same examples.
"""

import copy
import json
import pickle
import random
import signal
from contextlib import contextmanager
from fractions import Fraction
from itertools import accumulate, product
from math import gcd

import pytest
import sympy
from hypothesis import assume, example, given, settings, strategies as st
from sympy.parsing.sympy_parser import (
    convert_xor,
    parse_expr,
    standard_transformations,
)
from sympy.polys.polyerrors import ExactQuotientFailed
from sympy.polys.ring_series import rs_exp, rs_log, rs_pow
from sympy.polys.rings import ring

from knothom import laurent
from knothom.laurent import (
    DivisionError,
    LaurentPoly,
    Multidegree,
    RationalSeries,
    max_cancel,
    nonneg_divisibility,
    parse_poly,
    series_log,
    series_pow_rational,
)
from knothom.models import GradedPresentation

VARS = ("a", "q", "t")
SYM = {v: sympy.Symbol(v, positive=True) for v in VARS}

small = st.integers(-3, 3)
whole = st.integers(-4, 4).filter(bool)
coeffs = st.one_of(
    st.integers(-4, 4),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
).filter(bool)


def oracle(max_examples):
    return settings(derandomize=True, deadline=None, database=None,
                    max_examples=max_examples)


def multidegrees(q=small):
    return st.builds(lambda a, qe, t: Multidegree(a=a, q=qe, t=t), small, q, small)


def polys(max_terms=5, c=coeffs):
    return st.dictionaries(multidegrees(), c, max_size=max_terms).map(LaurentPoly)


def integer_or_rational(make):
    """``make(c)`` drawn with integer coefficients only, or with rational ones."""
    return st.one_of(make(whole), make(coeffs))


def _rational(x):
    return sympy.Rational(x.numerator, x.denominator)


def to_sympy(p: LaurentPoly):
    return sympy.Add(*[
        _rational(c) * sympy.Mul(*[SYM[v] ** _rational(md.e(v)) for v in VARS])
        for md, c in p.terms.items()
    ])


def same(ours: LaurentPoly, expected) -> bool:
    return sympy.expand(to_sympy(ours) - expected) == 0


def sympy_terms(expr):
    return [t for t in sympy.Add.make_args(sympy.expand(expr)) if t != 0]


def degree_in(term, var):
    return term.as_powers_dict().get(SYM[var], 0)


def assert_normalised(p: LaurentPoly):
    """No zero coefficients, each a ``Fraction``; exponents stored as ``int``."""
    for md, c in p.terms.items():
        assert type(c) is Fraction and c != 0
        for v, e in md.items():
            assert e != 0 and type(e) is int


@oracle(120)
@given(integer_or_rational(lambda c: st.tuples(polys(c=c), polys(c=c))))
def test_ring_operations(pair):
    f, g = pair
    F, G = to_sympy(f), to_sympy(g)
    for ours, expected in ((f + g, F + G), (f - g, F - G), (f * g, F * G)):
        assert same(ours, expected)
        assert_normalised(ours)


#: variables of the parsed literals, which sympy's ``parse_expr`` reads as
#: plain symbols
LITERAL_NAMES = ("a", "q", "t", "tr", "tc", "u1")


def literal_leaves():
    """Integers, names, names to an integer power with the exponent
    parenthesised or not, and a parenthesised pair to a power."""
    names = st.sampled_from(LITERAL_NAMES)
    atoms = st.one_of(st.integers(0, 12).map(str), names)
    powers = st.builds(lambda v, k, paren: f"{v}^({k})" if paren else f"{v}^{k}",
                       names, st.integers(-3, 3), st.booleans())
    pair_powers = st.builds("({} {} {})^{}".format, atoms, st.sampled_from("+-*"),
                            atoms, st.integers(0, 3))
    return st.one_of(atoms, powers, pair_powers)


def literal_extend(inner):
    return st.one_of(
        st.builds("{} {} {}".format, inner, st.sampled_from("+-*"), inner),
        st.builds("{}{}".format, st.sampled_from("+-"), inner),
        inner.map("({})".format),
    )


@oracle(200)
@given(st.recursive(literal_leaves(), literal_extend, max_leaves=10))
def test_parse_poly_against_sympy(text):
    """Over the documented grammar, ``parse_poly`` gives the polynomial that
    sympy's ``parse_expr`` reads with ``^`` as a power (``convert_xor``),
    by Python's precedence, so ``2*-a^2`` is ``-2*a^2``."""
    expected = parse_expr(text, transformations=standard_transformations
                          + (convert_xor,))
    ours = sympy.Add(*[
        _rational(c) * sympy.Mul(*[sympy.Symbol(v) ** e for v, e in md.items()])
        for md, c in parse_poly(text).terms.items()])
    assert sympy.expand(ours - expected) == 0


@contextmanager
def time_limit(seconds):
    """Turn a division that never stops into a failure (POSIX only).

    The failure is raised after the interrupted frames are gone, so a test
    that keeps failing neither holds their memory nor reports one distinct
    failure per interrupted line.
    """
    def expire(signum, frame):
        raise TimeoutError
    if not hasattr(signal, "SIGALRM"):
        yield
        return
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    expired = False
    try:
        yield
    except TimeoutError:
        expired = True
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    if expired:
        pytest.fail(f"division still running after {seconds} s", pytrace=False)


@oracle(80)
@given(polys(max_terms=4), polys(max_terms=3), multidegrees(), coeffs)
def test_divide_exact(f, g, m, c):
    assume(not g.is_zero())
    h = f * g
    quotient = h.divide_exact(g)
    assert sympy.expand(to_sympy(quotient) * to_sympy(g) - to_sympy(h)) == 0
    assert quotient == f
    if len(g.terms) > 1:
        r = h + LaurentPoly.monomial(c, m)
        _, den = sympy.fraction(sympy.cancel(to_sympy(r) / to_sympy(g)))
        assert len(sympy_terms(den)) > 1  # r / g is no Laurent polynomial
        with time_limit(1), pytest.raises(DivisionError):
            r.divide_exact(g)


@pytest.mark.parametrize("lead", [2, -3])
@oracle(40)
@given(polys(max_terms=4, c=whole),
       multidegrees().filter(lambda md: sum(md) > 0))
def test_divide_exact_by_non_unit_lead(lead, f, m):
    """``f * (x^m - 1)`` over ``lead * (x^m - 1)``, with ``f`` integral: the
    leading coefficient ``lead`` need not divide the remainder's, and the
    quotient ``f / lead`` has non-integral coefficients."""
    assume(not f.is_zero())
    binomial = LaurentPoly.monomial(1, m) - LaurentPoly.one()
    quotient = (f * binomial).divide_exact(lead * binomial)
    assert sympy.expand(to_sympy(quotient) - to_sympy(f) / lead) == 0
    assert_normalised(quotient)


def binomial_factors(c=coeffs):
    """3 to 8 binomials ``1 - c*x^m``, ``m`` nonzero."""
    binomial = st.builds(lambda m, c: LaurentPoly.one() - LaurentPoly.monomial(c, m),
                         multidegrees().filter(lambda md: not md.is_zero()), c)
    return st.lists(binomial, min_size=3, max_size=8)


RING = ring("a,q,t", sympy.QQ)[0]
#: exceeds every negative exponent of a product of binomial_factors()
SHIFT = 64


def in_ring(p: LaurentPoly, shift=SHIFT):
    """``p * (a*q*t)^shift`` in sympy's sparse polynomial ring, fast enough
    for products of several hundred terms."""
    return RING.from_dict({
        (int(md.e("a")) + shift, int(md.e("q")) + shift, int(md.e("t")) + shift):
            sympy.QQ(c.numerator, c.denominator)
        for md, c in p.terms.items()})


def multiply_all(factors) -> LaurentPoly:
    out = LaurentPoly.one()
    for f in factors:
        out = out * f
    return out


@oracle(40)
@given(integer_or_rational(
    lambda c: st.tuples(binomial_factors(c), polys(max_terms=3, c=c))), st.data())
def test_divide_exact_chain(chain, data):
    """A cofactor times binomials, divided by each binomial in a random
    order, and by their product, gives back the cofactor."""
    factors, cofactor = chain
    assume(not cofactor.is_zero())
    dividend = cofactor * multiply_all(factors)
    quotient = dividend
    for i in data.draw(st.permutations(range(len(factors)))):
        step = quotient.divide_exact(factors[i])
        assert in_ring(step) * in_ring(factors[i]) == in_ring(quotient, 2 * SHIFT)
        assert_normalised(step)
        quotient = step
    assert quotient == cofactor
    assert dividend.divide_exact(multiply_all(factors)) == cofactor


@oracle(40)
@given(binomial_factors(), polys(max_terms=3), st.data())
def test_divide_exact_chain_missing_factor(factors, cofactor, data):
    """With one binomial left out of the dividend, the chain of divisions
    by all of them raises :class:`DivisionError` at some step."""
    assume(not cofactor.is_zero())
    missing = data.draw(st.integers(0, len(factors) - 1))
    _, den = sympy.fraction(sympy.cancel(to_sympy(cofactor) / to_sympy(factors[missing])))
    assume(len(sympy_terms(den)) > 1)  # cofactor / missing is no Laurent polynomial
    quotient = cofactor * multiply_all(factors[:missing] + factors[missing + 1:])
    with time_limit(1), pytest.raises(DivisionError):
        for i in data.draw(st.permutations(range(len(factors)))):
            quotient = quotient.divide_exact(factors[i])


#: coefficients up to 2^80 in absolute value, none of them +-1
big = st.one_of(st.integers(-2 ** 80, -2), st.integers(2, 2 ** 80))
big_rational = st.builds(Fraction, big, st.integers(1, 2 ** 40))


@oracle(60)
@given(st.one_of(*[st.tuples(polys(max_terms=4, c=c), polys(max_terms=3, c=c))
                   for c in (big, big_rational)]),
       multidegrees(), big)
def test_divide_exact_big_coefficients(pair, m, c):
    """Coefficients up to 2^80, and a divisor of two or three terms none of
    whose coefficients is +-1, its lowest and leading ones included.  The
    quotient is sympy's exact quotient, and one more term makes the
    division inexact for sympy too."""
    f, g = pair
    assume(not f.is_zero() and len(g.terms) > 1)
    h = f * g
    quotient = h.divide_exact(g)
    assert quotient == f
    assert in_ring(quotient) == in_ring(h, 2 * SHIFT).exquo(in_ring(g))
    assert_normalised(quotient)
    r = h + LaurentPoly.monomial(c, m)
    with pytest.raises(ExactQuotientFailed):
        in_ring(r, 2 * SHIFT).exquo(in_ring(g))
    with time_limit(1), pytest.raises(DivisionError):
        r.divide_exact(g)


@pytest.fixture
def widths(monkeypatch):
    """The slot width of every ``laurent._pack`` call, in order."""
    seen = []
    pack = laurent._pack

    def recorded(indices, values, bits, slots):
        seen.append(bits)
        return pack(indices, values, bits, slots)

    monkeypatch.setattr(laurent, "_pack", recorded)
    return seen


def test_divide_exact_widens_the_slots(widths):
    """An exact division whose quotient fails the first width's certificate,
    found by a search over small integral polynomials in ``a`` and ``q``
    scaled to fill that width.  The quotient's coefficient ``3 * 8191``
    exceeds every coefficient of the dividend.  The first width is 16 bits,
    the least with ``max|f| * |g|_1 = 16382 * 2 < 2^15``, and the
    certificate needs ``3 * 8191 * 2 < 2^15``, which fails.  The next width
    is the proven stop, 24 bits, and certifies."""
    g = parse_poly("1 - a^-1")
    quotient = 8191 * parse_poly("a + 3 + a^-1")
    dividend = quotient * g
    assert dividend == 8191 * parse_poly("a + 2 - 2*a^-1 - a^-2")
    assert dividend.divide_exact(g) == quotient
    assert widths == [16, 16, 24, 24]  # dividend and divisor at each width


@pytest.mark.parametrize("m", [63, 64, 127, 128, 200])
def test_divide_exact_quotient_past_the_first_slots(m, widths):
    """``s = sum_(i<m) (-a)^i``: the dividend ``s * (1 - (-a)^m)`` has
    coefficients +-1 and the quotient ``s^2`` by ``1 + a`` has coefficients
    up to ``m``.  The first width is 8 bits, and the certificate there needs
    ``m * |1 + a|_1 = 2m < 2^7``: it holds at ``m = 63`` and fails from
    ``m = 64``.  From ``m = 128`` the quotient's digits alias too, so only
    the certificate tells a wrong quotient from the right one."""
    s = sum((LaurentPoly.monomial((-1) ** i, Multidegree(a=i)) for i in range(m)),
            LaurentPoly.zero())
    dividend = s * (LaurentPoly.one() - LaurentPoly.monomial((-1) ** m, Multidegree(a=m)))
    assert {abs(c) for c in dividend.terms.values()} == {1}
    assert dividend.divide_exact(parse_poly("1 + a")) == s * s
    assert widths[0] == 8 and (len(set(widths)) > 1) == (m >= 64)


@pytest.mark.parametrize("f, g", [
    ("a + q", "q + 1"), ("q - a", "1 - q"), ("a*t + 1", "a + 1"), ("t - a", "1 - a"),
])
def test_divide_exact_packed_image_divides(f, g):
    """Inexact divisions whose packed images divide exactly, found by a
    search over small polynomials.  In ``(a + q) / (q + 1)`` the box of the
    dividend gives ``q`` stride 1 and ``a`` stride 2, so the images are
    ``X^2 + X`` and ``X + 1``, with quotient ``X``.  Its ``q``-digit 1 lies
    outside the quotient box, where the ``q``-degree is 0; the last two
    cases fail in the ``a``-slot instead."""
    f, g = parse_poly(f), parse_poly(g)
    _, den = sympy.fraction(sympy.cancel(to_sympy(f) / to_sympy(g)))
    assert len(sympy_terms(den)) > 1  # f / g is no Laurent polynomial
    with pytest.raises(DivisionError):
        f.divide_exact(g)


def carried(p: LaurentPoly, pad=0):
    """``p``, with integral coefficients, as a carried polynomial: its
    exponent columns and ``int`` values, as a division hands its quotient
    to the next, with ``pad`` more columns that are zero on every term."""
    columns, den, ints = p._columnar()
    assert den == 1
    return LaurentPoly._carried([*columns] + [(0,) * len(ints)] * pad, ints)


def assert_same_poly(ours: LaurentPoly, eager: LaurentPoly):
    """Equal term maps of ``Fraction`` values, canonical JSON, ``==`` both
    ways, and hash."""
    assert ours.terms == eager.terms
    assert all(type(c) is Fraction for c in ours.terms.values())
    assert all(type(x) is int and x for md in ours.terms for x in md[-1:])
    assert ours.to_json() == eager.to_json()
    assert ours == eager and eager == ours
    assert hash(ours) == hash(eager)


@oracle(60)
@given(polys(max_terms=3, c=whole), binomial_factors(whole), st.integers(0, 2),
       st.sampled_from([None, Fraction(1, 2), Fraction(-2, 3), 3]), st.data())
def test_carried_chain_matches_eager_copies(cofactor, factors, pad, scale, data):
    """A chain of divisions on a carried dividend, each quotient handed on
    unread, against the same chain on plain copies (``LaurentPoly(q.terms)``)
    between steps.  Exponents run negative, the dividend may carry trailing
    zero columns (an ``a``-degree that is 0 on every row), one divisor may
    be scaled by a rational (a non-integral quotient is built at once), and
    the zero dividend is drawn too.  Every quotient matches, and survives
    ``pickle``."""
    dividend = cofactor * multiply_all(factors)
    divisors = list(factors)
    if scale is not None:
        divisors[data.draw(st.integers(0, len(factors) - 1))] *= scale
    order = data.draw(st.permutations(range(len(factors))))
    ours, chain = [carried(dividend, pad)], []
    for i in order:
        ours.append(ours[-1].divide_exact(divisors[i]))
    eager = LaurentPoly(dividend.terms)
    for i in order:
        eager = LaurentPoly(eager.divide_exact(divisors[i]).terms)
        chain.append(eager)
    if scale is None and not cofactor.is_zero():  # handed on as columns
        assert all(q._map is None for q in ours[1:])
    assert_same_poly(ours[0], dividend)
    for quotient, want in zip(ours[1:], chain):
        assert_same_poly(quotient, want)
        assert pickle.loads(pickle.dumps(quotient)) == want
    assert ours[-1] == cofactor / (scale or 1)


@pytest.mark.parametrize("f, g, message", [
    ("1 + q", "1 - q^3", "no exact quotient: empty box on 'q'"),
    ("1 + q^2", "1 + q", "no exact quotient"),  # a nonzero remainder
    ("a + q", "q + 1", "no exact quotient"),  # a digit outside the quotient box
    ("t - a", "1 - a", "no exact quotient"),
])
@pytest.mark.parametrize("pad", [0, 2])
def test_carried_dividend_raises_as_eager(f, g, message, pad):
    """Each way an inexact division is refused, from a carried dividend (with
    and without trailing zero columns), raises the error the plain dividend
    raises.  ``(a + q) / (q + 1)`` packs to ``(X^2 + X) / (X + 1)``, which
    divides, and fails on the digit outside the box (see
    ``test_divide_exact_packed_image_divides``)."""
    f, g = parse_poly(f), parse_poly(g)
    for dividend in (f, carried(f, pad)):
        with pytest.raises(DivisionError) as err:
            dividend.divide_exact(g)
        assert str(err.value) == message


@pytest.mark.parametrize("pad", [0, 1])
def test_divisor_past_the_dividend_slots(pad):
    """A divisor whose degrees reach slots past the dividend's last one:
    ``(1 - q) / (t - q*t)`` is ``t^-1``, plain or carried, and the
    dividend's columns are padded with zeros to the divisor's slots."""
    f, g = parse_poly("1 - q"), parse_poly("t - q*t")
    for dividend in (f, carried(f, pad)):
        assert_same_poly(dividend.divide_exact(g), parse_poly("t^-1"))


def test_carried_zero_dividend():
    """A carried zero divides to the plain zero, and by zero it raises."""
    zero = LaurentPoly._carried([[], []], [])
    quotient = zero.divide_exact(parse_poly("1 - q"))
    assert zero.is_zero() and zero == 0 and hash(zero) == hash(0)
    assert quotient._map == {}
    with pytest.raises(ZeroDivisionError):
        zero.divide_exact(LaurentPoly.zero())


def per_term_json(p: LaurentPoly, variables=None):
    """The per-term serialisation ``to_json`` had before it read exponent
    columns: the terms sorted by each degree's (total, chosen exponents),
    each exponent and coefficient stringified term by term."""
    variables = list(variables) if variables else p.variables()
    items = sorted(p.terms.items(), key=lambda kv: kv[0].key(variables))
    return {"variables": variables,
            "terms": [{"coeff": str(c), "exp": [str(e) for e in md.key(variables)[1]]}
                      for md, c in items]}


def per_term_str(p: LaurentPoly) -> str:
    """The per-term printing ``__str__`` had, in the reverse of that order."""
    if p.is_zero():
        return "0"
    variables = p.variables()
    pieces = []
    for md, c in reversed(sorted(p.terms.items(), key=lambda kv: kv[0].key(variables))):
        factors = [v if e == 1 else f"{v}^{e}" for v, e in md.items()]
        if not factors:
            body = str(abs(c))
        elif abs(c) == 1:
            body = "*".join(factors)
        else:
            body = "*".join([str(abs(c))] + factors)
        pieces.append(("- " if c < 0 else "+ ") + body)
    out = " ".join(pieces)
    return out[2:] if out.startswith("+ ") else "-" + out[2:]


#: a name no test registers, so its slot is absent and its exponents read 0
UNREGISTERED = "never_registered_by_any_test"


def serialised_polys():
    """Plain polynomials with integral or rational coefficients, the zero
    polynomial, carried copies of integral ones (with trailing zero
    columns), and carried quotients of divisions."""
    plain = integer_or_rational(lambda c: polys(max_terms=8, c=c))
    copies = st.builds(carried, polys(max_terms=8, c=whole), st.integers(0, 2))
    quotients = st.builds(lambda f, g: carried(f * g).divide_exact(g),
                          polys(max_terms=5, c=whole), binomial_factors(whole).map(
                              lambda factors: factors[0]))
    zeros = st.sampled_from([LaurentPoly.zero, lambda: LaurentPoly._carried([[], []], [])]
                            ).map(lambda zero: zero())
    return st.one_of(plain, copies, quotients, zeros)


@oracle(300)
@given(serialised_polys(), st.one_of(
    st.none(), st.just([]),
    st.lists(st.sampled_from(VARS), min_size=1, max_size=2, unique=True),
    st.permutations([*VARS, "tr", UNREGISTERED])))
@example(LaurentPoly({Multidegree(a=1, q=1): 2, Multidegree(a=1, t=1): 3,
                      Multidegree(a=2): -1, Multidegree(a=1, q=2, t=-1): 5}), ["a"])
@example(carried(parse_poly("a*t - 2*a*q + 3*a^2 + 4*a*q^2*t^-1")), ["a"])
def test_to_json_and_str_match_the_per_term_reference(p, variables):
    """``to_json`` reads exponent columns and ``int`` values, and ``__str__``
    shares its term order; both equal the per-term serialisation byte for
    byte.  The variables are the default, a subset, or a superset with a
    variable that no term has and one that is not registered.  A list that
    leaves out a variable of ``p`` (as in the two examples, whose terms
    would tie on every listed exponent) is refused, naming what it leaves
    out, and the list with those variables added is written.  A carried
    polynomial's term map is read only after it is serialised."""
    missing = sorted({*p.variables()} - {*variables}) if variables else []
    if missing:
        with pytest.raises(ValueError) as err:
            p.to_json(variables)
        assert str(err.value) == f"variables {variables} leave out {missing}"
        variables = [*variables, *missing]
    got, text = p.to_json(variables), str(p)
    assert got == per_term_json(p, variables)
    assert text == per_term_str(p)
    assert p.dumps(variables) == json.dumps(per_term_json(p, variables),
                                            separators=(",", ":"))
    assert UNREGISTERED not in laurent._INDEX


@oracle(200)
@given(serialised_polys(), st.sampled_from([*VARS, "tr", UNREGISTERED]),
       st.one_of(st.integers(-4, 4), st.fractions(min_value=-4, max_value=4, max_denominator=3)),
       st.sampled_from([(1, Multidegree()), (-1, Multidegree()), (1, Multidegree(q=2)),
                        (-1, Multidegree(a=-1, q=3))]))
@example(carried(parse_poly("1 + 2*q*t - a^-1")), "tr", 0, (-1, Multidegree(q=2)))
@example(carried(parse_poly("1 + 2*q*t - a^-1")), UNREGISTERED, Fraction(1, 2),
         (1, Multidegree()))
def test_carried_truncate_and_substitute_match_the_term_map(p, var, order, image):
    """``truncate`` and ``substitute`` of a polynomial, carried or not, equal
    the same operations on a plain copy; a carried polynomial is truncated
    on its columns and stays carried, and an integral one is substituted
    into carried columns.  The variable may lie past the columns, be one no
    term has, or be unregistered, and the order may be negative or not an
    integer."""
    held = p._map is None  # before ``p.terms`` below builds the map
    got = p.truncate(var, order)
    if held:
        assert got._map is None
    plain = LaurentPoly(p.terms)
    assert_same_poly(got, LaurentPoly._of(
        {md: c for md, c in plain.terms.items() if md.e(var) <= order}))
    coeff, md = image
    got = p.substitute(var, LaurentPoly.monomial(coeff, md))
    assert got._map is None or any(c.denominator > 1 for c in plain.terms.values())
    assert_same_poly(got, plain.substitute(var, LaurentPoly.monomial(coeff, md)))
    assert UNREGISTERED not in laurent._INDEX


#: rational coefficients with denominators up to 4, integers among them
fractional = st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool)


def column_only(p: LaurentPoly) -> LaurentPoly:
    """``p`` held in its column view alone, over its common denominator."""
    columns, den, ints = p._columnar()
    return LaurentPoly._carried(columns, ints, den)


def assert_column_result(got: LaurentPoly, want: LaurentPoly):
    """``got`` holds no term map until ``terms`` is read, its JSON and
    ``terms`` equal those of ``want``, built term by term, its denominator
    is the least one, and ``max_cancel`` takes its nonnegative copy over
    that denominator exactly when it is integral."""
    assert got._map is None
    columns, den, ints = got._view
    assert gcd(den, *ints) == 1
    assert got.to_json() == per_term_json(want)
    assert got._map is None
    assert got.terms == want.terms
    assert all(type(c) is Fraction and c for c in got.terms.values())
    integral = all(c.denominator == 1 for c in want.terms.values())
    counts = LaurentPoly._carried(columns, [*map(abs, ints)], den)
    if integral:
        max_cancel(counts, Multidegree(q=1))
    else:
        with pytest.raises(ValueError, match="integer multiplicities"):
            max_cancel(counts, Multidegree(q=1))


def without(md: Multidegree, var) -> Multidegree:
    """``md`` with no exponent of ``var``, built from its named items."""
    return Multidegree({v: e for v, e in md.items() if v != var})


def substituted_by_terms(p: LaurentPoly, var, sign, image) -> LaurentPoly:
    """``p`` with ``var**e`` replaced by ``(sign * x^image)**e``, term by term."""
    out = LaurentPoly.zero()
    for md, c in p.terms.items():
        e = md._e(var)
        out = out + LaurentPoly.monomial(c * sign ** (e % 2), without(md, var) + image.scale(e))
    return out


@st.composite
def meeting_terms(draw):
    """``(p, var, sign, image)``: a polynomial with rational coefficients and
    negative exponents, and a substitution ``var -> sign * x^image``, the
    image free of ``var``, under which some of its terms meet a partner,
    drawn to cancel it or to add to it."""
    var, sign = draw(st.sampled_from(VARS)), draw(st.sampled_from([1, -1]))
    image = without(draw(multidegrees()), var)
    p = draw(polys(max_terms=6, c=fractional))
    meet = Multidegree({var: 1}) - image
    for md, c in [*p.terms.items()]:
        k = draw(st.integers(0, 2))
        if not k:
            continue
        # the partner's image has the degree of md's and the sign sign^k
        partner = -c * sign ** k * draw(st.sampled_from([1, -1, Fraction(1, 2)]))
        p = p + LaurentPoly.monomial(partner, md + meet.scale(k))
    return p, var, sign, image


@oracle(200)
@given(meeting_terms(), st.sampled_from(VARS), st.integers(-3, 3),
       polys(max_terms=3, c=fractional).filter(lambda g: not g.is_zero()),
       st.lists(multidegrees(q=st.sampled_from([1, 2])), max_size=2))
@example((parse_poly("q^2 - 1") / 2, "a", 1, Multidegree(q=1)), "q", 0,
         parse_poly("q - 1") / 2, [])
def test_non_integral_results_stay_in_columns(case, cut, order, g, denominators):
    """``substitute``, ``truncate`` of a polynomial held in columns only,
    ``divide_exact``, ``expand`` and ``from_json(to_json(p))`` on rational
    coefficients each hand their result on in columns over the least common
    denominator, integral or not, equal to a reference built term by term.
    Terms meet and cancel under the substitution, and the division is drawn
    with a quotient and a divisor that are both rational, so that the
    quotient may be integral though the operands are not (as in the example,
    ``(q^2 - 1)/2`` divided by ``(q - 1)/2``)."""
    p, var, sign, image = case
    assert_column_result(column_only(p).substitute(var, LaurentPoly.monomial(sign, image)),
                         substituted_by_terms(p, var, sign, image))
    assert_column_result(column_only(p).truncate(cut, order), LaurentPoly._of(
        {md: c for md, c in p.terms.items() if md._e(cut) <= order}))
    if not p.is_zero():
        assert_column_result((p * g).divide_exact(g), p)
        assert_column_result(column_only(p * g).divide_exact(column_only(g)), p)
    # each geometric sum reaches past order from the least q-degree of p
    top = order - min(p._exponents("q"), default=order)
    geometric = LaurentPoly.one()
    for md in denominators:
        geometric = geometric * sum((LaurentPoly.monomial(1, md.scale(k))
                                     for k in range(top + 1)), LaurentPoly.zero())
    assert_column_result(RationalSeries(p, denominators, "q").expand(order),
                         (p * geometric).truncate("q", order))
    assert_column_result(LaurentPoly.from_json(p.to_json()), p)


#: integer-affine exponent maps for ``regrade``, each with a degree that it
#: sends to zero, so that a term and its partner ``md + j*kernel`` meet, or
#: ``None`` for a map that is one to one on polynomials in ``a, q, t``: a
#: reflection, a lift, a swap, a map that reads a named variable, a doubling,
#: a move onto an absent variable, and maps that drop, read or drop an
#: unregistered variable
REGRADINGS = [
    ({}, None),
    ({"q": {"q": -1}}, None),
    ({"q": {"q": 1, "t": 2}}, None),
    ({"a": {"t": 1}, "t": {"a": 1}}, None),
    ({"q": {"q": -1}, "t": {"t": 1, "q": -1}}, None),
    ({"q": {"q": 2}}, None),
    ({"tr": {"t": 1}, "t": {}}, None),
    ({UNREGISTERED: {}}, None),
    ({"q": {"q": 1, UNREGISTERED: 3}}, None),
    ({"a": {}}, Multidegree(a=1)),
    ({"q": {"q": 1, "a": 1}, "a": {}}, Multidegree(a=1, q=-1)),
    ({"a": {"a": 1, "q": 1}, "q": {"a": 1, "q": 1}}, Multidegree(a=1, q=-1)),
    ({"t": {}, "tr": {}, UNREGISTERED: {}}, Multidegree(t=1)),
    ({"q": {"a": 1, "t": -1}}, Multidegree(q=1)),
]


#: exponent maps with ``Fraction`` weights, as ``(images, kernel, onto)``:
#: ``onto`` sends a degree to one whose image is integral (the lattice of
#: the map), and ``kernel`` is as in :data:`REGRADINGS` and keeps the
#: lattice: a tilde grading, a halving, a merging map by thirds, and a
#: ``Fraction`` weight of denominator 1
RATIONAL_REGRADINGS = [
    ({"Q": {"q": Fraction(1, 2), "t": Fraction(1, 2)}, "q": {}}, None,
     lambda md: md + Multidegree(q=md._e("q") - md._e("t"))),
    ({"a": {"a": Fraction(1, 2)}, "q": {"q": Fraction(1, 2)}}, None,
     lambda md: md + Multidegree(a=md._e("a"), q=md._e("q"))),
    ({"q": {"q": Fraction(1, 3), "a": Fraction(2, 3)}, "a": {}}, Multidegree(a=1, q=-2),
     lambda md: md + Multidegree(q=2 * md._e("q") - 2 * md._e("a"))),
    ({"t": {"t": Fraction(-2), "q": Fraction(1)}}, None, lambda md: md),
]


def regraded_by_terms(p: LaurentPoly, images, shift, odd) -> LaurentPoly:
    """``regrade`` written as a closure for ``map_exponents``, after the
    signs of ``odd`` are set term by term."""
    def image(md):
        exps = dict(md.items())
        for v, row in images.items():
            exps[v] = sum(k * md._e(w) for w, k in row.items())
        return Multidegree(exps) + shift

    signed = LaurentPoly({md: -c if sum(md._e(w) for w in odd) % 2 else c
                          for md, c in p.terms.items()})
    return signed.map_exponents(image)


@st.composite
def regrade_cases(draw):
    """``(p, images, shift, odd, kernel)``: a polynomial of
    :func:`serialised_polys`, held in columns or as a term map, with
    partner terms that meet its terms under a merging map, drawn to cancel
    them, to add to them or to leave half of them."""
    images, kernel, onto = draw(st.one_of(
        st.sampled_from(REGRADINGS).map(lambda case: (*case, None)),
        st.sampled_from(RATIONAL_REGRADINGS)))
    shift = draw(st.one_of(st.just(()), multidegrees()))
    odd = tuple(draw(st.lists(st.sampled_from([*VARS, UNREGISTERED]), max_size=2, unique=True)))
    p = draw(serialised_polys())
    if onto is not None and draw(st.booleans()):
        p = LaurentPoly(p.terms).map_exponents(onto)
    if kernel is not None:
        flip = sum(kernel._e(w) for w in odd) % 2
        for md, c in [*p.terms.items()]:
            j = draw(st.integers(-1, 2))
            if j:
                # the partner's image has md's degree and the sign (-1)^(j*flip)
                factor = draw(st.sampled_from([1, -1, Fraction(1, 2)]))
                p = p + LaurentPoly.monomial(-c * (-1) ** (j * flip % 2) * factor,
                                             md + kernel.scale(j))
        if draw(st.booleans()):
            p = column_only(p)
    return p, images, shift, odd, kernel


@oracle(300)
@given(regrade_cases())
@example((column_only(parse_poly("a - q + 2*a^2*t")), {"q": {"q": 1, "a": 1}, "a": {}}, (), (),
          Multidegree(a=1, q=-1)))
@example((column_only(parse_poly("a*q^-2 - 3*a^-1*t") / 6), {"a": {}}, Multidegree(q=-1),
          ("a", UNREGISTERED), Multidegree(a=1)))
@example((column_only(parse_poly("a*q^-2 - a^2*q^-4 + 3*q^3*t + a^-1*q^2") / 2),
          *RATIONAL_REGRADINGS[2][:1], Multidegree(t=1), ("q",), RATIONAL_REGRADINGS[2][1]))
@example((parse_poly("a^2*q^2 + q*t"), *RATIONAL_REGRADINGS[1][:1], (), (), None))
def test_regrade_matches_the_term_map(case):
    """``regrade`` equals the same map written as a closure for
    ``map_exponents``, on integral and rational coefficients, negative
    exponents, a shift and the signs of ``odd``: one-to-one maps, and
    merging maps whose sums cancel (the first example sums to ``2*q^2*t``)
    or not.  The result is handed on in columns over its least common
    denominator, a one-to-one map keeps every term, and a variable that the
    map only drops or reads, or that ``odd`` names, is not registered.
    With ``Fraction`` weights, a polynomial on the map's lattice has an
    integral image and one off it raises ``ValueError`` on both sides (the
    third and fourth examples), naming the variable and the value."""
    p, images, shift, odd, kernel = case
    try:
        want = regraded_by_terms(LaurentPoly(p.terms), images, shift, odd)
    except ValueError:
        with pytest.raises(ValueError, match=r"^non-integral exponent -?\d+/\d+ on variable '\w+'$"):
            p.regrade(images, shift, odd)
        return
    got = p.regrade(images, shift, odd)
    assert_column_result(got, want)
    if kernel is None:
        assert len(got.terms) == len(p.terms)
    assert UNREGISTERED not in laurent._INDEX


def padded(p: LaurentPoly, pad: int) -> LaurentPoly:
    """``p`` held in its column view alone, with ``pad`` more columns that
    are zero on every term."""
    columns, den, ints = p._columnar()
    return LaurentPoly._carried([*columns, *[(0,) * len(ints)] * pad], ints, den)


@st.composite
def compared_pairs(draw):
    """Two polynomials: a plain polynomial and the same one held in columns
    with trailing zero columns, as a term map, halved, with a term added,
    the zero polynomial, or another drawn polynomial."""
    p = draw(serialised_polys())
    how = draw(st.sampled_from(["padded", "map", "halved", "plus", "zero", "other"]))
    if how == "padded":
        q = padded(p, draw(st.integers(1, 3)))
    elif how == "map":
        q = LaurentPoly(p.terms)
    elif how == "halved":
        q = column_only(p / 2)
    elif how == "plus":
        q = p + LaurentPoly.monomial(draw(coeffs), draw(multidegrees()))
    elif how == "zero":
        q = draw(st.sampled_from([LaurentPoly.zero(), LaurentPoly._carried([[], []], [])]))
    else:
        q = draw(serialised_polys())
    if draw(st.booleans()):
        p = padded(p, draw(st.integers(0, 2)))
    return (p, q) if draw(st.booleans()) else (q, p)


@oracle(300)
@given(compared_pairs())
@example((padded(parse_poly("q - 2"), 3), parse_poly("q - 2")))
@example((column_only(parse_poly("q + 1") / 2), column_only(parse_poly("q + 1") / 4)))
def test_column_equality_matches_the_term_maps(pair):
    """``==`` compares the two column views, padded to one width, by least
    common denominator and ``int`` value at each exponent row: it agrees
    with term-map equality over different widths, trailing zero columns,
    different denominators, the zero polynomial, and one side held as a
    term map with the other in columns, both ways round, and builds no
    term map.  Equal polynomials hash alike."""
    p, q = pair
    held = [x._map is None for x in (p, q)]
    got = (p == q, q == p, p != q)
    assert [x._map is None for x in (p, q)] == held
    want = LaurentPoly(p.terms).terms == LaurentPoly(q.terms).terms
    assert got == (want, want, not want)
    if want:
        assert hash(p) == hash(q)


def test_a_column_polynomial_over_a_denominator_pickles_and_copies():
    """A polynomial held in columns over a denominator above 1 pickles, and
    deep-copies, to an equal polynomial with the same JSON."""
    held = (parse_poly("q^2 - 1") / 3).divide_exact(parse_poly("q - 1"))
    assert held._map is None and held._view[1] == 3
    want = held.to_json()
    for copied in (pickle.loads(pickle.dumps(held)), copy.deepcopy(held)):
        assert copied == held and copied.to_json() == want
    assert held == parse_poly("q + 1") / 3


def trimmed(exps) -> tuple:
    """``exps`` without its trailing zeros."""
    exps = list(exps)
    while exps and not exps[-1]:
        exps.pop()
    return tuple(exps)


@oracle(150)
@given(st.integers(1, 6).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.lists(st.integers(-3, 3), max_size=n), min_size=1, max_size=12))))
def test_codec_columns_match_per_term_indices(case):
    """Exact division numbers terms and decodes degrees one exponent slot at
    a time.  Over 1 to 6 slots, degrees with negative exponents and ragged
    lengths (trailing zeros trimmed, so a term may stop short of the slot
    count or be the empty degree), the column-wise index of each term equals
    the per-term mixed-radix sum ``sum(map(mul, md, strides)) - base``, and
    ``_degrees`` builds each degree back from its columns, trimmed."""
    n, rows = case
    degrees = [trimmed(row) for row in rows]
    columns = laurent._padded(laurent._columns(degrees), n)
    assert len(columns) == n and all(len(c) == len(degrees) for c in columns)
    lows, highs = [*map(min, columns)], [*map(max, columns)]
    strides = [*accumulate([h - lo + 1 for lo, h in zip(lows, highs)][:-1],
                           lambda a, b: a * b, initial=1)]
    base = sum(lo * s for lo, s in zip(lows, strides))
    want = [sum(e * s for e, s in zip(md, strides)) - base for md in degrees]
    assert laurent._indices(columns, strides, lows) == want
    assert 0 <= min(want) and max(want) < strides[-1] * (highs[-1] - lows[-1] + 1)
    rebuilt = laurent._degrees(columns)
    assert [tuple(md) for md in rebuilt] == degrees
    assert all(type(md) is Multidegree for md in rebuilt)


#: coefficients at the edges of the shared ``Fraction`` table and past them,
#: and non-integral ones
EDGE_COEFFS = [1, -1, 128, -128, 129, -129, 2 ** 70, -(3 ** 50), Fraction(1, 3),
               Fraction(-7, 2), Fraction(129, 4)]


@pytest.mark.parametrize("c", EDGE_COEFFS, ids=str)
def test_every_coefficient_is_a_fraction(c):
    """Mul, scaling, exact division, substitution, ``from_json`` and the
    columns of the packed plethysm sum (``LaurentPoly._carried``) wrap ``int``
    coefficients in ``Fraction``, from the shared table where they are
    small, when ``terms`` is read: every coefficient they give
    is ``type(c) is Fraction``, of the right value, also outside the table
    and where it is not integral.  A ``float`` is still refused."""
    f = LaurentPoly({Multidegree(a=1, q=-2): c, Multidegree(q=3): 2 * c,
                     Multidegree(): -c})
    g = parse_poly("1 - a*q^2 + 3*t")
    fg = f * g
    want = {}
    for (m1, c1), (m2, c2) in product(f.terms.items(), g.terms.items()):
        want[m1 + m2] = want.get(m1 + m2, 0) + c1 * c2
    results = {
        "mul": (fg, want),
        "divide_exact": (fg.divide_exact(g), f.terms),
        "substitute": (f.substitute("a", parse_poly("-q")),
                       {Multidegree(q=-1): -c, Multidegree(q=3): 2 * c, Multidegree(): -c}),
        "from_json": (LaurentPoly.from_json(f.to_json()), f.terms),
    }
    for s in (0, 1, -1, 2 ** 70, Fraction(-7, 2)):
        want = (f * LaurentPoly.const(s)).terms
        results[f"{s} * f"] = (s * f, want)
        results[f"f * {s}"] = (f * s, want)
        if s:
            results[f"f / {s}"] = (f / s, (f * LaurentPoly.const(1 / Fraction(s))).terms)
    if type(c) is int:
        results["_carried"] = (LaurentPoly._carried([[0, -1, 3, 5], [0, 1, 2, 0]],
                                                    [c, -c, 3 * c, 1]),
                               {Multidegree(): c, Multidegree(a=1, q=-1): -c,
                                Multidegree(a=2, q=3): 3 * c, Multidegree(q=5): 1})
    for name, (p, terms) in results.items():
        assert p.terms == {md: x for md, x in terms.items() if x}, name
        assert all(type(x) is Fraction for x in p.terms.values()), name
        assert_normalised(p)
    with pytest.raises(TypeError):
        LaurentPoly({Multidegree(a=1): 0.5})
    with pytest.raises(TypeError):
        f * 0.5


@oracle(80)
@given(st.data())
def test_substitute_unit_monomial(data):
    """Images include the zero degree, the constants ``+1`` and ``-1``, with
    which ``substitute`` evaluates."""
    var = data.draw(st.sampled_from(VARS))
    f = data.draw(polys())
    image = LaurentPoly.monomial(data.draw(st.sampled_from([1, -1])),
                                 data.draw(st.one_of(st.just(Multidegree()),
                                                     multidegrees())))
    ours = f.substitute(var, image)
    assert same(ours, to_sympy(f).subs(SYM[var], to_sympy(image)))
    assert_normalised(ours)


@oracle(80)
@given(polys(), st.sampled_from(VARS), small)
def test_truncate(f, var, order):
    expected = sympy.Add(*[t for t in sympy_terms(to_sympy(f))
                           if degree_in(t, var) <= order])
    assert same(f.truncate(var, order), expected)


@oracle(60)
@given(polys(max_terms=3),
       st.lists(multidegrees(q=st.sampled_from([1, 2])), max_size=2),
       st.one_of(st.integers(-2, 4), st.integers(-5, 9).map(lambda n: Fraction(n, 2))))
def test_rational_series_expand(numerator, denominators, order):
    """``E = expand(order)`` is the truncation of ``N / D`` through ``order``.

    ``D`` is 1 plus terms of positive ``q``-degree, so ``E`` is the unique
    polynomial with ``q``-degrees at most ``order`` for which ``E*D - N`` has
    only ``q``-degrees above ``order``.  Half-integer orders are drawn too:
    exponents are integers, so ``order`` then acts as its floor.
    """
    expansion = RationalSeries(numerator, denominators, "q").expand(order)
    den = sympy.Mul(*[1 - to_sympy(LaurentPoly.monomial(1, md))
                      for md in denominators])
    assert all(degree_in(t, "q") <= order for t in sympy_terms(to_sympy(expansion)))
    residual = to_sympy(expansion) * den - to_sympy(numerator)
    assert all(degree_in(t, "q") > order for t in sympy_terms(residual))


@oracle(150)
@given(polys(), st.booleans(), st.sampled_from(VARS),
       st.lists(st.tuples(small, small, st.integers(1, 3)), max_size=4), st.integers(-5, 5))
@example(parse_poly("1 - q"), False, "q", [(0, 0, 1)], 4)
@example(parse_poly("1 - q^2*t^-1") / 6, True, "q", [(0, -1, 2), (0, 0, 1)], 5)
@example(parse_poly("q^2 - a*q^3") / 3, True, "q", [(0, -1, 1)], 1)
@example(parse_poly("3*q^-1 - a^-1") / 2, False, "q", [], 0)
@example(parse_poly("q - 2*q^2"), True, "t", [(1, 0, 1), (0, -2, 2)], 2)
@example(LaurentPoly.zero(), True, "q", [(0, 0, 1)], 3)
def test_expand_stops_each_term_at_the_order(numerator, held, var, steps, order):
    """``expand(order)`` equals the numerator times each denominator's whole
    geometric sum ``1 + m + ... + m^K``, ``K`` reaching past ``order`` from
    the numerator's least ``var``-degree, then truncated, as a column result
    over its least common denominator.  Numerators are drawn with rational
    coefficients, held in a term map or in columns only, with up to four
    denominators, each of ``var``-degree 1 to 3 and with the other two
    exponents negative too, as ``sl_cancel``'s lift ``q -> q + s*t`` leaves
    a ``t^-1``; where ``order`` is below every ``var``-degree the result is
    empty.  The examples cancel every product past the constant (``(1 - q)
    / (1 - q)``), cancel two numerator terms' products under a lifted
    ``t^-1`` denominator, cut below the least degree, take no denominator,
    expand in ``t`` a numerator without ``t``, and expand zero."""
    others = [v for v in VARS if v != var]
    denominators = [Multidegree({others[0]: x, others[1]: y, var: step}) for x, y, step in steps]
    least = min(numerator._exponents(var), default=order + 1)
    geometric = LaurentPoly.one()
    for md, (*_, step) in zip(denominators, steps):
        geometric = geometric * sum((LaurentPoly.monomial(1, md.scale(k))
                                     for k in range((order - least) // step + 1)),
                                    LaurentPoly.zero())
    got = RationalSeries(column_only(numerator) if held else numerator, denominators,
                         var).expand(order)
    assert_column_result(got, (numerator * geometric).truncate(var, order))
    if order < least:
        assert got.is_zero()


#: the series variable ``z`` and the symbols of the series coefficients
SERIES_VARS = ("z", "u1", "u2", "u3")
SERIES_RING, Z, *_ = ring(",".join(SERIES_VARS), sympy.QQ)


def to_series_ring(p: LaurentPoly):
    return SERIES_RING.from_dict({
        tuple(int(md.e(v)) for v in SERIES_VARS): sympy.QQ(c.numerator, c.denominator)
        for md, c in p.terms.items()})


#: ``sum c * u * z^k`` over at most three terms, ``k = 1..3``, each ``c``
#: rational and ``u`` one of three symbols or 1
positive_order_series = st.lists(
    st.tuples(st.integers(1, 3), coeffs, st.sampled_from(SERIES_VARS[1:] + (None,))),
    max_size=3,
).map(lambda terms: LaurentPoly({
    Multidegree({"z": k, **({u: 1} if u else {})}): c for k, c, u in terms}))
series_orders = st.integers(1, 5)


@oracle(60)
@given(positive_order_series, st.fractions(-3, 3, max_denominator=3), series_orders)
def test_series_pow_rational(u, alpha, order):
    expected = rs_pow(to_series_ring(1 + u), _rational(alpha), Z, order + 1)
    assert to_series_ring(series_pow_rational(1 + u, alpha, order)) == expected


@oracle(60)
@given(positive_order_series, series_orders)
def test_series_log(u, order):
    expected = rs_log(to_series_ring(1 + u), Z, order + 1)
    assert to_series_ring(series_log(1 + u, order)) == expected


def series_exp(base: LaurentPoly, order, var="z") -> LaurentPoly:
    """Truncated ``exp`` of a series with zero constant term, as the sum of
    ``base**k / k!`` over whole polynomial powers: an algorithm apart from
    the kernel's series recurrence, and the oracle of :func:`series_log`'s
    round trip."""
    if not base.is_zero() and base.min_degree(var) <= 0:
        raise ValueError("exp argument must have positive order")
    result = term = LaurentPoly.one()
    for k in range(1, order + 1):
        term = (term * base).truncate(var, order) / k
        result = result + term
    return result


@oracle(60)
@given(positive_order_series, series_orders)
def test_series_exp(u, order):
    expected = rs_exp(to_series_ring(u), Z, order + 1)
    assert to_series_ring(series_exp(u, order)) == expected


def test_series_log_exp_roundtrip():
    rng = random.Random(11)
    for _ in range(10):
        base = LaurentPoly.one()
        for i in range(1, 4):
            base = base + rng.randint(-3, 3) * LaurentPoly.monomial(
                1, Multidegree(z=i))
        lg = series_log(base, 6)
        back = series_exp(lg, 6)
        assert back == base.truncate("z", 6)


#: variables registered when the kernel is imported, then scheme generator
#: names.  The ``fresh`` names are new to the process when first drawn, so
#: they take new slots; there are few of them, because every slot widens
#: the degrees of variables registered after it, in later tests too.
KNOWN_NAMES = ("q", "a", "t", "tr", "tc", "Q", "u1", "du2", "xi11n2", "z")
names = st.one_of(st.sampled_from(KNOWN_NAMES),
                  st.integers(0, 15).map(lambda n: f"fresh{n}"))


def exponent_pairs(max_size=5):
    """``(var, exponent)`` lists, with repeated variables."""
    return st.lists(st.tuples(names, small), max_size=max_size)


def model_of(pairs) -> dict:
    out = {}
    for v, e in pairs:
        out[v] = out.get(v, 0) + e
    return {v: e for v, e in out.items() if e}


def model_sum(x: dict, y: dict, k=1) -> dict:
    """``x + k*y``."""
    return model_of([*x.items(), *((v, k * e) for v, e in y.items())])


def assert_matches(md: Multidegree, model: dict):
    """``md`` holds exactly ``model``, in normal form, through every reader."""
    assert md.items() == tuple(sorted(model.items()))
    assert all(type(e) is int for _, e in md.items())
    assert md.variables() == tuple(sorted(model))
    for v in (*model, "q", "a", "fresh"):
        assert type(md.e(v)) is Fraction and md.e(v) == model.get(v, 0)
    assert sum(md) == sum(model.values())
    assert md.is_zero() == (not model)
    # the normal form: trailing zeros trimmed, so equal degrees are equal tuples
    assert len(md) == 0 or md[-1] != 0
    rebuilt = Multidegree(model)
    assert md == rebuilt and hash(md) == hash(rebuilt) and tuple(md) == tuple(rebuilt)


@oracle(300)
@given(exponent_pairs(), exponent_pairs(), st.integers(-3, 3), names,
       st.lists(names, max_size=6))
def test_multidegree_matches_model(x, y, k, var, variables):
    X, Y = Multidegree(x), Multidegree(y)
    mx, my = model_of(x), model_of(y)
    assert_matches(X, mx)
    assert_matches(X + Y, model_sum(mx, my))
    assert_matches(X + X, model_sum(mx, mx))
    assert_matches(X - Y, model_sum(mx, my, -1))
    assert_matches(X - X, {})
    assert_matches(-X, model_sum({}, mx, -1))
    assert_matches(X.scale(k), model_sum({}, mx, k))
    assert_matches(X._shift(Y, k), model_sum(mx, my, k))
    dropped = LaurentPoly.monomial(1, X).regrade({var: {}})
    assert_matches(dropped.as_monomial()[1], {v: e for v, e in mx.items() if v != var})
    total, exps = X.key(variables)
    assert total == sum(mx.values()) and type(total) is int
    assert exps == tuple(mx.get(v, 0) for v in variables)
    assert all(type(e) is int for e in exps)


@oracle(150)
@given(exponent_pairs(), st.sampled_from([Fraction(1, 2), Fraction(-2, 3), Fraction(3)]))
def test_multidegree_scale_by_fraction(x, k):
    """A non-integral exponent on any variable raises ``ValueError``."""
    expected = model_sum({}, model_of(x), k)
    if any(e.denominator != 1 for e in expected.values()):
        with pytest.raises(ValueError):
            Multidegree(x).scale(k)
    else:
        assert_matches(Multidegree(x).scale(k), expected)


@oracle(150)
@given(exponent_pairs(max_size=8), exponent_pairs(), st.randoms(use_true_random=False))
def test_equal_degrees_built_differently(x, y, rng):
    """Sums of one-variable degrees in any order, a round trip through
    another degree, and the constructor all give one normal form."""
    direct = Multidegree(x)
    shuffled = list(x)
    rng.shuffle(shuffled)
    summed = Multidegree()
    for v, e in shuffled:
        summed = summed + Multidegree({v: e})
    Y = Multidegree(y)
    for other in (summed, (direct + Y) - Y, -(-direct), direct._shift(Y, 2)._shift(Y, -2)):
        assert other == direct and hash(other) == hash(direct)
        assert tuple(other) == tuple(direct) and other.items() == direct.items()
        assert [type(e) for e in other] == [type(e) for e in direct]


def test_multidegree_normal_form():
    assert Multidegree(q=Fraction(4, 2)) == Multidegree(q=2)
    assert hash(Multidegree(q=Fraction(4, 2))) == hash(Multidegree(q=2))
    assert [type(e) for _, e in Multidegree(q=Fraction(4, 2)).items()] == [int]
    one = Multidegree(q=1)
    assert one + one == Multidegree(q=2) and tuple(one + one) == (2,)
    assert one + (-one) == Multidegree() and tuple(one + (-one)) == ()
    # slots are numbered per process, so a degree pickles by variable name
    md = Multidegree(u1=2, q=-1)
    assert pickle.loads(pickle.dumps(md)) == md


def counts(max_terms=4):
    """Polynomials with multiplicities 1..3."""
    return st.dictionaries(multidegrees(), st.integers(1, 3),
                           max_size=max_terms).map(LaurentPoly)


def quotient_by_binomial(p: LaurentPoly, m: Multidegree):
    """sympy's ``p / (1 + mono(m))``, and whether it is a Laurent polynomial
    with nonnegative integer coefficients."""
    binomial = LaurentPoly.one() + LaurentPoly.monomial(1, m)
    quotient = sympy.cancel(to_sympy(p) / to_sympy(binomial))
    _, den = sympy.fraction(quotient)
    if len(sympy_terms(den)) > 1:
        return quotient, False
    coefficients = [t.as_coeff_Mul()[0] for t in sympy_terms(quotient)]
    return quotient, all(c.is_integer and c >= 0 for c in coefficients)


@oracle(120)
@given(st.data())
def test_nonneg_divisibility(data):
    """``None`` exactly when ``p / (1 + mono(m))`` is no polynomial with
    nonnegative integer coefficients; otherwise that quotient."""
    m = data.draw(multidegrees())
    start = data.draw(multidegrees())
    # a witness along one ray of m, sometimes with a negative coefficient
    witness = data.draw(counts(max_terms=2))
    for k, c in enumerate(data.draw(st.lists(st.integers(-1, 3), max_size=4))):
        witness = witness + LaurentPoly.monomial(c, start + m.scale(k))
    noise = data.draw(st.dictionaries(multidegrees(), st.integers(-2, 2),
                                      max_size=2).map(LaurentPoly))
    p = (LaurentPoly.one() + LaurentPoly.monomial(1, m)) * witness + noise
    ours = nonneg_divisibility(p, m)
    if not m.is_zero():
        assert ours == ray_by_ray_divide(p, m)
    quotient, nonneg = quotient_by_binomial(p, m)
    if ours is None:
        assert not nonneg
    else:
        assert nonneg
        assert sympy.expand(to_sympy(ours) - quotient) == 0


def brute_force_pairs(p: LaurentPoly, m: Multidegree) -> int:
    """Largest matching between the terms of ``p`` and their ``m``-shifts,
    by trying every count on every edge ``d -> d + m``."""
    n = {d: int(c) for d, c in p.terms.items()}
    edges = [d for d in n if d + m in n]
    best = 0
    for x in product(*[range(min(n[d], n[d + m]) + 1) for d in edges]):
        used = dict.fromkeys(n, 0)
        for d, k in zip(edges, x):
            used[d] += k
            used[d + m] += k
        if all(used[d] <= n[d] for d in n):
            best = max(best, sum(x))
    return best


def ray_by_ray_cancel(p: LaurentPoly, m: Multidegree, keep: str):
    """``max_cancel`` one ray at a time, as a reference: each term is filed
    under the base ``md - k*m`` of its ray and its level ``k``, the pivot
    being ``m``'s alphabetically first variable; each ray's counts, its gaps
    read as 0, are matched greedily from the end opposite to ``keep``, and
    what is left of each level survives."""
    (pivot, e_pivot), *_ = m.items()
    rays = {}
    for md, c in p.terms.items():
        k = int(md.e(pivot)) // int(e_pivot)
        rays.setdefault(md - m.scale(k), {})[k] = int(c)
    survivors = {}
    pairs = 0
    for base, ray in rays.items():
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
                survivors[base + m.scale(lo + i)] = s
    return LaurentPoly(survivors), pairs


def ray_by_ray_divide(p: LaurentPoly, m: Multidegree):
    """``nonneg_divisibility`` one ray at a time, as a reference: the terms
    are filed by ray as in :func:`ray_by_ray_cancel`; on each ray, from its
    lowest level to one past its highest, with gaps read as 0, ``X`` at a
    level is the count there less ``X`` at the level before, and every one
    must be nonnegative, so the last is 0.  Returns ``None`` when one is
    negative."""
    (pivot, e_pivot), *_ = m.items()
    rays = {}
    for md, c in p.terms.items():
        k = int(md.e(pivot)) // int(e_pivot)
        rays.setdefault(md - m.scale(k), {})[k] = int(c)
    witness = {}
    for base, ray in rays.items():
        x = 0
        for k in range(min(ray), max(ray) + 2):
            x = ray.get(k, 0) - x
            if x < 0:
                return None
            if x:
                witness[base + m.scale(k)] = x
    return LaurentPoly(witness)


@oracle(100)
@given(st.data())
def test_max_cancel(data):
    """``p == survivors + (1 + mono(m)) * X`` with ``X >= 0`` and a maximum
    matching, for both placements of the survivors, and the survivors are
    exactly the ray-by-ray reference's.  Steps have mixed signs over up to
    three variables, and shifts of two or three steps leave gaps in rays."""
    m = data.draw(multidegrees().filter(lambda md: not md.is_zero()))
    base = data.draw(counts(max_terms=3).filter(lambda f: not f.is_zero()))
    shifts = data.draw(st.lists(st.sampled_from(list(base.terms)), min_size=1, max_size=4))
    p = base
    for d in shifts:  # more terms on the rays of base, one to three steps away
        p = p + LaurentPoly.monomial(data.draw(st.integers(1, 3)),
                                     d + m.scale(data.draw(st.sampled_from([1, 2, -1, 3, -2]))))
    expected_pairs = brute_force_pairs(p, m)
    for keep in ("early", "late"):
        survivors, pairs = max_cancel(p, m, keep)
        assert pairs == expected_pairs
        assert all(c > 0 for c in survivors.terms.values())
        assert sum(p.terms.values()) - sum(survivors.terms.values()) == 2 * pairs
        _, nonneg = quotient_by_binomial(p - survivors, m)
        assert nonneg
        assert (survivors, pairs) == ray_by_ray_cancel(p, m, keep)
        assert_normalised(survivors)


#: ``(p, m)``: rays with gaps, several rays of one step, and steps with
#: negative and multi-variable components, where the placement of the
#: survivors differs between the two ends
NAMED_RAYS = {
    "gap": ("1 + q + q^2 + q^4 + q^5 + q^6", "q"),
    "two rays": ("1 + q + q^2 + a + 2*a*q + a*q^2 + a*q^3", "q"),
    "negative step": ("1 + a^-1*q^2 + a^-2*q^4 + a^-4*q^8 + 2*a^-5*q^10 + a^-6*q^12",
                      "a^-1*q^2"),
    "mixed step": ("t + a^2*q^-1 + a^4*q^-2*t^-1 + 2*a^4*q^-2 + a^6*q^-3*t^-1"
                   " + 2*a^8*q^-4*t^-2", "a^2*q^-1*t^-1"),
    "floor levels": ("q^-1 + q + q^3 + q^2 + q^4 + q^8", "q^-2"),
}


#: ``(p, m)``: steps with a nonzero exponent past the last exponent column
#: of ``p``, on a variable that ``p`` lacks, so that no two terms of ``p``
#: differ by the step; in the first the pivot itself lies past the columns
PAST_THE_COLUMNS = {
    "pivot past the columns": ("1 + q + 2*q^2 + a*q", "t"),
    "step past the columns": ("1 + 2*q + q^2 + q^3*t", "q*tc"),
}


def carried_copies(p: LaurentPoly):
    """``p`` as it is, and carried with and without trailing zero columns."""
    return p, carried(p), carried(p, 2)


@pytest.mark.parametrize("keep", ["early", "late"])
@pytest.mark.parametrize("p, m", [*NAMED_RAYS.values(), *PAST_THE_COLUMNS.values()],
                         ids=[*NAMED_RAYS, *PAST_THE_COLUMNS])
def test_max_cancel_survivors_match_the_ray_by_ray_reference(p, m, keep):
    """The walk's survivors and pairs are the reference's, from a term map
    and from carried columns alike, and are handed on carried.  Each
    ``NAMED_RAYS`` case leaves some survivor where ``keep`` matters; on
    ``PAST_THE_COLUMNS`` every term survives."""
    named = (p, m) in NAMED_RAYS.values()
    p, m = parse_poly(p), parse_poly(m).as_monomial()[1]
    want = ray_by_ray_cancel(p, m, keep)
    for given in carried_copies(p):
        survivors, pairs = max_cancel(given, m, keep)
        assert survivors._map is None
        assert_same_poly(survivors, want[0])
        assert pairs == want[1]
    if named and keep == "late":
        assert max_cancel(p, m, "early")[0] != max_cancel(p, m, "late")[0]
    if not named:
        assert want == (p, 0)


#: ``(p, m)``: rays whose peeling ends on a nonzero carry, meets a gap with
#: or without a carry, or runs a level negative
DIVISION_RAYS = {
    "ends on a carry": ("1 + 2*q", "q"),
    "gap after zero": ("1 + q + q^3 + q^4", "q"),
    "gap after a carry": ("1 + q^2 + q^3", "q"),
    "carry too large": ("2 + q + q^2", "q"),
    "negative count": ("1 + q - q^2 + q^3", "q"),
    "carry on one of two rays": ("1 + q + a + 2*a*q", "q"),
    "floor levels": ("q^-1 + 2*q + q^3 + q^2 + q^4", "q^-2"),
}


@pytest.mark.parametrize("p, m", [*NAMED_RAYS.values(), *DIVISION_RAYS.values(),
                                  *PAST_THE_COLUMNS.values()],
                         ids=[*NAMED_RAYS, *DIVISION_RAYS, *PAST_THE_COLUMNS])
def test_nonneg_divisibility_matches_the_ray_by_ray_reference(p, m):
    """The level-order walk finds the reference's witness, or ``None`` with
    it, on ``p`` and on ``(1 + mono(m)) * p``, each as a term map and as
    carried columns; a witness is handed on carried."""
    p, m = parse_poly(p), parse_poly(m).as_monomial()[1]
    for q in (p, (LaurentPoly.one() + LaurentPoly.monomial(1, m)) * p):
        want = ray_by_ray_divide(q, m)
        for given in carried_copies(q):
            got = nonneg_divisibility(given, m)
            if want is None:
                assert got is None
            else:
                assert got._map is None
                assert_same_poly(got, want)


def test_ray_walks_refuse_what_is_not_a_count():
    """``max_cancel`` refuses a non-integral or negative count, and
    ``nonneg_divisibility`` a non-integral one, with their messages, from a
    term map or from carried columns; a negative count has no witness."""
    m = Multidegree(q=1)
    half, negative = parse_poly("1 + q") / 2, parse_poly("1 - q")
    for p in (half, negative, carried(negative)):
        with pytest.raises(ValueError) as err:
            max_cancel(p, m)
        assert str(err.value) == "max_cancel requires nonnegative integer multiplicities"
    with pytest.raises(ValueError) as err:
        nonneg_divisibility(half, m)
    assert str(err.value) == "nonneg_divisibility requires integer coefficients"
    for p in (negative, carried(negative)):
        assert nonneg_divisibility(p, m) is None
        assert nonneg_divisibility(p, Multidegree()) is None


def _presentation(degree):
    return {"generators": [{"name": "u1", "parity": 0, "degree": degree}]}


def _poly_json(var, exp):
    return {"variables": [var], "terms": [{"coeff": "1", "exp": [exp]}]}


#: each way of building a degree, from an exponent given as a ``Fraction``
#: on the variable ``var``
DEGREE_BUILDERS = {
    "Multidegree": lambda var, e: Multidegree({var: e}),
    "Multidegree_with_t": lambda var, e: Multidegree({var: e, "t": -1}),
    "scale": lambda var, e: Multidegree({var: 1, "u1": 2}).scale(e),
    "LaurentPoly.var": lambda var, e: LaurentPoly.var(var, e).as_monomial()[1],
    "LaurentPoly.from_json": lambda var, e: LaurentPoly.from_json(
        _poly_json(var, str(e))).as_monomial()[1],
    "GradedPresentation.from_json": lambda var, e: GradedPresentation.from_json(
        _presentation({var: str(e)})).generators[0].degree,
}
#: the kernel's own variables, a scheme generator and a name new to the process
EXPONENT_VARS = ("q", "a", "tc", "u2", "fresh_fractional")


@pytest.mark.parametrize("var", EXPONENT_VARS)
@pytest.mark.parametrize("build", DEGREE_BUILDERS.values(), ids=DEGREE_BUILDERS)
def test_non_integral_exponent_raises(build, var):
    """Every exponent is an integer: a non-integral one raises ``ValueError``
    on any variable, ``q`` included, however the degree is built."""
    for e in (Fraction(1, 2), Fraction(-3, 2), Fraction(1, 3)):
        with pytest.raises(ValueError):
            build(var, e)
    # an integral Fraction is accepted and stored as an int
    md = build(var, Fraction(4, 2))
    assert md.e(var) == 2 and type(md._e(var)) is int
    assert all(type(x) is int for x in md)
