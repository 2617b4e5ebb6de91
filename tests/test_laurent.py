import json
import pathlib
import random
from fractions import Fraction

import pytest

from knothom.invariants import torus_homfly
from knothom.laurent import (
    DivisionError,
    _Carried,
    LaurentPoly,
    Multidegree,
    RationalSeries,
    max_cancel,
    nonneg_divisibility,
    parse_poly,
    series_log,
    series_pow_rational,
)

P = parse_poly


def random_poly(rng, nvars=3, nterms=4, spread=3):
    names = ["a", "q", "tr"][:nvars]
    terms = {}
    for _ in range(nterms):
        md = Multidegree({v: rng.randint(-spread, spread) for v in names})
        terms[md] = terms.get(md, 0) + Fraction(rng.randint(-5, 5))
    return LaurentPoly(terms)


def test_multidegree_extensional_equality():
    assert Multidegree(a=0, q=2) == Multidegree(q=2)
    assert Multidegree(q=Fraction(4, 2)).e("q") == 2
    for var in ("q", "a"):
        with pytest.raises(ValueError):
            Multidegree({var: Fraction(1, 2)})


@pytest.mark.parametrize("c", [0, 3, -1, Fraction(1, 2)])
def test_constant_hashes_as_its_number(c):
    """A constant equals its number, so the two hash alike and find each
    other in a set or as a dictionary key."""
    const = LaurentPoly.const(c)
    assert const == c and hash(const) == hash(c)
    assert c in {const} and const in {c}
    assert hash(P("q")) == hash(P("q")) and P("q") != P("1")


def test_parse_and_str_roundtrip():
    p = P("a^4*(q^-4 + q^2*tr^2*tc^4) - 3*q^2 + 1")
    assert p.coefficient_of("a", 4) == P("q^-4 + q^2*tr^2*tc^4")
    assert p == LaurentPoly.loads(p.dumps())


@pytest.mark.parametrize("text", [
    "", "q +", "(q", "q^", "2*",
    # outside the grammar: ``**``, a non-literal exponent, division,
    # non-integers, attributes, calls, implicit products and a keyword
    "a**2", "a^b", "1/2", "1.5", "x.y", "f(x)", "2a", "a b", "True",
])
def test_parse_poly_rejects_truncated_input(text):
    """Input that stops early is malformed like any other: ``ValueError``."""
    with pytest.raises(ValueError):
        P(text)


def test_parse_poly_applies_python_precedence():
    """Unary minus binds looser than ``^``, also after ``*``."""
    a = LaurentPoly.var("a")
    assert P("2*-a^2") == -2 * a ** 2
    assert P("-a^2") == P("2*-a^2") / 2


def test_parse_poly_deep_nesting_is_a_value_error():
    with pytest.raises(ValueError):
        P("(" * 1000 + "q" + ")" * 1000)


def test_parse_poly_reads_a_long_flat_sum():
    """The walk loops along a chain of ``+``, so its depth does not grow
    with the number of terms."""
    terms = [f"{k % 7 + 1}*q^{k}*t^{k % 5}" for k in range(2000)]
    expected = LaurentPoly.zero()
    for term in terms:
        expected = expected + P(term)
    assert P(" + ".join(terms)) == expected
    assert expected.num_terms() == 2000


def test_ring_axioms_random():
    rng = random.Random(7)
    for _ in range(1000):
        f, g, h = (random_poly(rng) for _ in range(3))
        assert (f + g) + h == f + (g + h)
        assert f * g == g * f
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h


def test_substitute_examples():
    p = P("a^2*q^-2 + a^2*q^2*tr^2*tc^4")
    q1 = p.substitute("tr", LaurentPoly.const(-1)).substitute(
        "tc", LaurentPoly.one())
    assert q1 == P("a^2*q^-2 + a^2*q^2")
    p2 = LaurentPoly.var("Q", 3).substitute(
        "Q", LaurentPoly.monomial(1, Multidegree(Q=-1, tr=-1, tc=-2)))
    assert p2 == LaurentPoly.monomial(1, Multidegree(Q=-3, tr=-3, tc=-6))
    p3 = P("q^-3 + 2*a*q")
    assert p3.substitute("q", -LaurentPoly.var("q", 2)) == P("-q^-6 - 2*a*q^2")


def test_substitute_is_ring_homomorphism():
    rng = random.Random(3)
    image = LaurentPoly.monomial(1, Multidegree(q=-1, tc=2))
    for _ in range(50):
        f, g = random_poly(rng), random_poly(rng)
        assert (f * g).substitute("a", image) == \
            f.substitute("a", image) * g.substitute("a", image)
        assert (f + g).substitute("a", image) == \
            f.substitute("a", image) + g.substitute("a", image)


def test_substitute_inverse_roundtrip():
    rng = random.Random(4)
    for _ in range(50):
        p = random_poly(rng, nvars=2)
        pq = p.substitute("a", LaurentPoly.var("q"))
        rt = pq.substitute("q", LaurentPoly.var("q", -1)).substitute(
            "q", LaurentPoly.var("q", -1))
        assert rt == pq
        # integer invertible image on a named variable round-trips too
        fwd = p.substitute("a", LaurentPoly.monomial(-1, Multidegree(a=-1)))
        back = fwd.substitute("a", LaurentPoly.monomial(-1, Multidegree(a=-1)))
        assert back == p


def test_divide_exact():
    f = P("a^2 - q^2")
    g = P("a - q")
    assert f.divide_exact(g) == P("a + q")
    h = P("(1 + q + q^2)*(a^-3 + 2*q^-5)")
    assert h.divide_exact(P("a^-3 + 2*q^-5")) == P("1 + q + q^2")
    with pytest.raises(DivisionError):
        P("a^2 + q").divide_exact(P("a + q"))


def test_series_pow_rational_examples():
    base = P("1 + u2*z^2")
    s = series_pow_rational(base, Fraction(3, 2), 4)
    assert s == P("1") + Fraction(3, 2) * P("u2*z^2") + \
        Fraction(3, 8) * P("u2^2*z^4")
    assert series_pow_rational(P("1 + z"), 1, 7) == P("1 + z")
    assert series_pow_rational(P("1 + u1*z"), 2, 2) == \
        P("1 + 2*u1*z + u1^2*z^2")
    with pytest.raises(ValueError):
        series_pow_rational(P("2 + z"), 1, 3)
    # both series take the same input checks: the constant term must be 1,
    # and every other term must have positive z-degree
    for bad in ("2 + z", "1 + a + z", "1 + z^-1"):
        with pytest.raises(ValueError):
            series_pow_rational(P(bad), Fraction(1, 2), 3)
        with pytest.raises(ValueError):
            series_log(P(bad), 3)
    assert series_pow_rational(P("1"), Fraction(1, 2), 0) == LaurentPoly.one()
    assert series_log(P("1"), 0) == LaurentPoly.zero()


def test_series_pow_rational_consistency():
    rng = random.Random(5)
    for _ in range(10):
        coeffs = [rng.randint(-3, 3) for _ in range(3)]
        base = LaurentPoly.one()
        for i, c in enumerate(coeffs, start=1):
            base = base + c * LaurentPoly.monomial(1, Multidegree(z=i))
        num, den = rng.randint(1, 5), rng.randint(1, 4)
        order = 6
        s = series_pow_rational(base, Fraction(num, den), order)
        powered = (s ** den).truncate("z", order)
        direct = (base ** num).truncate("z", order)
        assert powered == direct


def test_series_log_examples():
    assert series_log(P("1 + z"), 2) == P("z") - Fraction(1, 2) * P("z^2")
    s = series_log(P("1 + u1*z + u2*z^2"), 3)
    expected = (P("u1*z") + (P("u2") - Fraction(1, 2) * P("u1^2")) * P("z^2")
                + (Fraction(1, 3) * P("u1^3") - P("u1*u2")) * P("z^3"))
    assert s == expected
    assert series_log(P("1"), 5) == LaurentPoly.zero()
    with pytest.raises(ValueError, match="order must be nonnegative"):
        series_log(P("1 + z"), -1)


def test_nonneg_divisibility_square():
    m = Multidegree(a=-2, q=4, t=-1)
    mhat = LaurentPoly.monomial(1, m)
    p = (LaurentPoly.one() + mhat) * (LaurentPoly.one() + mhat)
    x = nonneg_divisibility(p, m)
    assert x == LaurentPoly.one() + mhat


def test_nonneg_divisibility_absent():
    m = Multidegree(a=-2, q=4, t=-1)
    mhat = LaurentPoly.monomial(1, m)
    p = LaurentPoly.one() + mhat + mhat ** 3
    assert nonneg_divisibility(p, m) is None
    p2 = LaurentPoly.one() - mhat
    assert nonneg_divisibility(p2, m) is None


def test_nonneg_divisibility_iff_product():
    rng = random.Random(13)
    m = Multidegree(a=-2, q=2)
    for _ in range(60):
        terms = {}
        for _ in range(4):
            md = Multidegree(a=rng.randint(0, 3), q=rng.randint(-3, 3))
            terms[md] = terms.get(md, 0) + rng.randint(0, 3)
        x = LaurentPoly(terms)
        p = (LaurentPoly.one() + LaurentPoly.monomial(1, m)) * x
        got = nonneg_divisibility(p, m)
        assert got == x
        assert (LaurentPoly.one() + LaurentPoly.monomial(1, m)) * got == p


def test_max_cancel_ray():
    m = Multidegree(q=1)
    p = P("1 + q + q^2")
    survivors, pairs = max_cancel(p, m)
    assert pairs == 1 and survivors.dimension() == 1
    p2 = P("2 + 2*q")
    survivors2, pairs2 = max_cancel(p2, m)
    assert pairs2 == 2 and survivors2.is_zero()


def test_rational_series_expand():
    s = RationalSeries(P("1"), (Multidegree(q=2),), "q", 7)
    assert s.expand() == P("1 + q^2 + q^4 + q^6")
    t = s * P("q^-2")
    assert t.expand() == P("q^-2 + 1 + q^2 + q^4 + q^6")
    with pytest.raises(ValueError):
        RationalSeries(P("1"), (Multidegree(t=2),), "q", 5)


def test_json_sorted_graded_lex():
    p = P("q^3 + a*q + a^3*q^-1 + 1")
    obj = p.to_json(["a", "q"])
    degrees = [sum(Fraction(e) for e in t["exp"]) for t in obj["terms"]]
    assert degrees == sorted(degrees)
    assert LaurentPoly.from_json(obj) == p


FIXTURE_FILES = sorted((pathlib.Path(__file__).resolve().parents[1]
                        / "src" / "knothom" / "fixtures").glob("*.json"))


def from_json_oracle(obj):
    """``from_json`` term by term, through the public constructors."""
    variables = obj["variables"]
    total = LaurentPoly.zero()
    for t in obj["terms"]:
        md = Multidegree(zip(variables, t["exp"]))
        total = total + LaurentPoly({md: Fraction(t["coeff"])})
    return total


def _poly_objects():
    for path in FIXTURE_FILES:
        fixture = json.loads(path.read_text())
        for key in ("poincare", "homfly"):
            if key in fixture:
                yield f"{path.stem}:{key}", fixture[key]


def _json(variables, *terms):
    return {"variables": variables,
            "terms": [{"coeff": c, "exp": list(exp)} for c, exp in terms]}


FROM_JSON_EDGES = {
    "duplicate degrees": _json(["a", "q"], ("2", ("1", "2")), ("3", ("1", "2")),
                               ("1", ("0", "0"))),
    "zero sum": _json(["q", "t"], ("2", ("1", "-1")), ("-2", ("1", "-1")),
                      ("5", ("0", "1"))),
    "zero coefficient": _json(["a"], ("0", ("3",)), ("1", ("1",))),
    "half coefficient": _json(["q", "a"], ("1/2", ("2", "0")), ("-3/4", ("0", "-1"))),
    "integral fraction exponent": _json(["tc"], ("1", ("4/2",))),
    "trailing zero slots": _json(["q", "a", "t", "tr", "tc"],
                                 ("1", ("1", "0", "0", "0", "0"))),
    "unregistered variable": _json(["q", "from_json_fresh"], ("1", ("1", "3")),
                                   ("2", ("0", "-1"))),
    "repeated variable": _json(["q", "a", "q"], ("1", ("1", "1", "2"))),
    "empty": _json(["q"]),
}
FROM_JSON_CASES = {**dict(_poly_objects()), **FROM_JSON_EDGES}


@pytest.mark.parametrize("obj", FROM_JSON_CASES.values(), ids=FROM_JSON_CASES)
def test_from_json_matches_the_term_by_term_oracle(obj):
    p = LaurentPoly.from_json(obj)
    assert p == from_json_oracle(obj)
    assert all(type(c) is Fraction and c for c in p.terms.values())
    assert all(type(x) is int for md in p.terms for x in md)
    assert all(md[-1] for md in p.terms if len(md))


def test_from_json_rejects_a_non_integral_exponent():
    # past a valid term; test_kernel_oracle.py varies the value and variable
    obj = _json(["a", "q"], ("1", ("1", "0")), ("1", ("2", "1/2")))
    with pytest.raises(ValueError, match="non-integral exponent"):
        LaurentPoly.from_json(obj)
    with pytest.raises(ValueError):
        from_json_oracle(obj)


@pytest.mark.parametrize("exp", [("2",), ("2", "1", "0")], ids=["short", "long"])
def test_from_json_rejects_a_term_of_the_wrong_length(exp):
    """A term needs one exponent per variable: one more or one fewer is
    refused, naming the term, where it used to be read short or cut."""
    obj = _json(["a", "q"], ("1", ("1", "0")), ("1", exp))
    message = f"term {obj['terms'][1]} does not have one exponent for each of ['a', 'q']"
    with pytest.raises(ValueError) as err:
        LaurentPoly.from_json(obj)
    assert str(err.value) == message


def test_public_exponents_and_coefficients_are_fractions():
    """Exponents are stored as ``int``, but every public reader returns ``Fraction``.

    Callers divide these values: ``bench/verify.py`` divides two leading
    coefficients (``pc / tc``) and halves exponents (``md.e("a") / 2``).  An
    ``int`` there would silently turn into a ``float``.  A quotient that a
    division hands on as exponent columns, unread, a ``torus_homfly``
    result, and an expansion and ``max_cancel`` survivors, which are handed
    on as exponent columns too, read the same.
    """
    md = Multidegree(a=2, q=-1)
    f = P("3*a^2*q^-1 - q^4*t + 2")
    g = P("1 - q")
    half = f / 2  # coefficients 3/2, -1/2 and 1
    carried = (f * g * g).divide_exact(g).divide_exact(g)
    homfly = torus_homfly([2, 1], 3, 4)[0]
    expansion = RationalSeries(f, (Multidegree(q=1, t=1), Multidegree(q=2)), "q", 3).expand()
    survivors = max_cancel(P("2*q + a*q^2*t + q^3*t^2"), Multidegree(q=1, t=1))[0]
    readers = [md.e("a"), md.e("q"), md.e("t"), md.total(),
               f.min_degree("q"), f.max_degree("q"), *f.degrees("q"),
               f.dimension(), half.dimension()]
    assert all(type(p) is _Carried for p in (carried, expansion, survivors))
    for p in (carried, homfly, expansion, survivors):
        readers += [p.min_degree("a"), p.max_degree("q"), *p.degrees("a"),
                    p.dimension(), p.coefficient_sum(),
                    *[m.e(v) for m in p.terms for v in ("a", "q")]]
    assert all(type(x) is Fraction for x in readers)
    assert carried == f
    assert survivors == P("2*q + a*q^2*t + q^3*t^2")
    assert (f.dimension(), half.dimension()) == (6, 3)
    assert (half - 1).dimension() == 2 and (g / 4).dimension() == Fraction(1, 2)
    results = [
        f + g, f - g, f * g, (f * g).divide_exact(g),
        f.substitute("a", P("-q^2")), f.truncate("q", 0),
        f.substitute("q", -1), half.substitute("t", 1),
        LaurentPoly.from_json(f.to_json()),
        max_cancel(P("2*q + q^2*t + q^3*t^2"), Multidegree(q=1, t=1))[0],
        nonneg_divisibility(P("1 + 2*q*t + q^2*t^2"), Multidegree(q=1, t=1)),
        # expand carries int values through its products and wraps them once
        RationalSeries(f, (), "q", 3).expand(),
        RationalSeries(f, (Multidegree(q=1, t=1), Multidegree(q=2)), "q", 3).expand(),
        RationalSeries(half, (), "q", 3).expand(),
        RationalSeries(half, (Multidegree(q=1, a=-1),), "q", 3).expand(),
        carried, homfly,
    ]
    for p in results:
        assert p.terms and all(type(c) is Fraction for c in p.terms.values())
    # stored as a tuple, a degree still never repeats, is always true, and
    # names its variables in sorted order
    for product in (lambda: md * 2, lambda: 2 * md):
        with pytest.raises(TypeError):
            product()
    assert bool(Multidegree()) is True
    assert repr(md) == "Multidegree(a=2, q=-1)"
    assert repr(Multidegree()) == "Multidegree()"

