from collections import Counter
from fractions import Fraction

import pytest

from knothom import invariants
from knothom.laurent import DivisionError, LaurentPoly, Multidegree, RationalSeries, parse_poly
from knothom.invariants import (
    _torus_sum,
    hirota_check,
    macdonald_dim,
    match_up_to_monomial,
    stable_limit_check,
    torus_homfly,
    unknot_homfly,
    unknot_super,
)
from knothom.partitions import Partition, partitions_of
from knothom.symmetric import PLETHYSM_SIZE_CAP

P = parse_poly


def ratio_equal(f: RationalSeries, g: RationalSeries) -> bool:
    return f.numerator * g.denominator() == g.numerator * f.denominator()


def test_unknot_homfly_single_box():
    u = unknot_homfly([1])
    assert u.numerator == P("1 - a")
    assert u.denominator() == P("1 - q")


def test_unknot_homfly_21():
    u = unknot_homfly([2, 1])
    expect = RationalSeries(
        P("1 - a*q^-1") * P("1 - a") * P("1 - a*q"),
        (Multidegree(q=1), Multidegree(q=1), Multidegree(q=3)),
    )
    assert ratio_equal(u, expect)


def test_unknot_homfly_42():
    u = unknot_homfly([4, 2])
    num = (P("1 - a*q^-1") * P("1 - a") * P("1 - a") * P("1 - a*q")
           * P("1 - a*q^2") * P("1 - a*q^3"))
    den = (P("1 - q") ** 2 * P("1 - q^2") ** 2 * P("1 - q^4") * P("1 - q^5"))
    assert u.numerator == num
    assert u.denominator() == den


def test_macdonald_small():
    m1 = macdonald_dim([1])
    assert m1.numerator == P("1 - a")
    assert m1.denominator() == P("1 - t")
    m2 = macdonald_dim([2])
    assert m2.numerator == P("1 - a") * P("1 - a*q")
    assert m2.denominator() == P("1 - t") * P("1 - q*t")


def test_macdonald_degenerates_to_hook_formula():
    # at q = t the evaluation product equals q^n_stat times the hook product
    for n in range(1, 7):
        for parts in partitions_of(n):
            lam = Partition(parts)
            md = macdonald_dim(lam)
            num = md.numerator.substitute("t", LaurentPoly.var("q"))
            den = md.denominator().substitute("t", LaurentPoly.var("q"))
            u = unknot_homfly(lam)
            shift = LaurentPoly.var("q", lam.n_stat())
            assert num * u.denominator() == shift * u.numerator * den


def test_unknot_super_displays():
    s1 = unknot_super([1])
    assert s1.numerator == P("1 + a^2*t")
    assert s1.denominator() == P("1 - q^2")
    s2 = unknot_super([2])
    assert s2.numerator == P("1 + a^2*t") * P("1 + a^2*q^2*t^3")
    assert s2.denominator() == P("1 - q^2") * P("1 - q^4*t^2")


def test_unknot_super_nonnegative():
    for n in range(1, 7):
        for parts in partitions_of(n):
            exp = unknot_super(Partition(parts)).expand(12)
            assert all(c > 0 for c in exp.terms.values())


def test_unknot_super_sign_specialization():
    # t -> -1 reproduces the hook product in squared variables, up to monomial
    for parts in [(1,), (2,), (2, 1), (3, 1)]:
        lam = Partition(parts)
        s = unknot_super(lam)
        num = s.numerator.substitute("t", LaurentPoly.const(-1))
        den = s.denominator().substitute("t", LaurentPoly.const(-1))
        u = unknot_homfly(lam)
        unum = u.numerator.substitute("a", LaurentPoly.var("a", 2)) \
            .substitute("q", LaurentPoly.var("q", 2))
        uden = u.denominator().substitute("q", LaurentPoly.var("q", 2))
        got = match_up_to_monomial(num * uden, unum * den)
        assert got is not None


def test_char_model_cross_check():
    # prod (q^(i-1) + a q^(j-1)) == q^n_stat * prod (1 + a q^content)
    for n in range(1, 7):
        for parts in partitions_of(n):
            lam = Partition(parts)
            lhs = LaurentPoly.one()
            rhs = LaurentPoly.var("q", lam.n_stat())
            for (i, j) in lam.cells():
                lhs = lhs * (LaurentPoly.var("q", i - 1)
                             + LaurentPoly.monomial(1, Multidegree(a=1, q=j - 1)))
                rhs = rhs * (LaurentPoly.one() + LaurentPoly.monomial(
                    1, Multidegree(a=1, q=lam.content((i, j)))))
            assert lhs == rhs


TREFOIL_FUND = P("a*q^-1 + a*q - a^2")
# fixture HOMFLY specializations with squared exponents halved
TREFOIL_S2 = P("a^2*q^-2 + a^2*q + a^2*q^2 + a^2*q^4"
               " - a^3 - a^3*q - a^3*q^3 - a^3*q^4 + a^4*q^3")
TREFOIL_L2 = P("a^2*(q^-4 + q^-2 + q^-1 + q^2)"
               " - a^3*(q^-4 + q^-3 + q^-1 + 1) + a^4*q^-3")


def test_torus_homfly_trefoil_fundamental():
    p, report = torus_homfly([1], 2, 3)
    assert report.sl1
    assert match_up_to_monomial(p, TREFOIL_FUND) is not None
    assert p.substitute("a", LaurentPoly.var("q")) == LaurentPoly.one()


def test_torus_homfly_trefoil_s2_l2():
    p2, _ = torus_homfly([2], 2, 3)
    assert match_up_to_monomial(p2, TREFOIL_S2) is not None
    p11, _ = torus_homfly([1, 1], 2, 3)
    assert match_up_to_monomial(p11, TREFOIL_L2) is not None


def test_match_up_to_monomial_returns_shift_and_sign():
    shift = Multidegree(a=1, q=-3)
    copy = TREFOIL_FUND.map_exponents(lambda md: md + shift)
    assert match_up_to_monomial(copy, TREFOIL_FUND) == (shift, 1)
    got = match_up_to_monomial(-copy, TREFOIL_FUND)
    assert got == (shift, -1) and type(got[1]) is int
    # a scalar other than -1 or 1, a differing term past the leading one,
    # and unequal term counts are no match
    assert match_up_to_monomial(2 * TREFOIL_FUND, TREFOIL_FUND) is None
    assert match_up_to_monomial(P("a*q^-1 - a*q - a^2"), TREFOIL_FUND) is None
    assert match_up_to_monomial(TREFOIL_FUND + P("q^5"), TREFOIL_FUND) is None


def test_torus_homfly_counit():
    for lam, n, m in [((1,), 2, 3), ((2,), 2, 3), ((1, 1), 2, 3), ((2,), 3, 4)]:
        p, _ = torus_homfly(lam, n, m)
        at_one = p.substitute("a", LaurentPoly.one()).substitute(
            "q", LaurentPoly.one())
        assert at_one == LaurentPoly.one()


def test_torus_homfly_noncoprime():
    with pytest.raises(ValueError):
        torus_homfly([1], 2, 4)


def q_binomials(multiset) -> LaurentPoly:
    """``prod_k (1 - q^k)^multiset[k]``."""
    out = LaurentPoly.one()
    for k, e in multiset.items():
        out = out * (LaurentPoly.one() - LaurentPoly.var("q", k)) ** e
    return out


@pytest.mark.parametrize("lam, n, m", [
    (Partition(parts), n, m)
    for n, m in [(2, 3), (2, 5), (3, 4), (3, 5), (2, 7), (4, 5)]
    for size in range(1, 8 // n + 1)
    for parts in partitions_of(size)
])
def test_reduced_quotient_by_multiplication(lam, n, m):
    """The reduced invariant times the divisor gives back the dividend.

    Undoing the sign and monomial shift recovers the exact quotient of
    ``total * prod(1 - q^k)^lam_hooks[k]`` by ``unknot numerator *
    prod(1 - q^k)^common[k]``; this checks it with multiplication only.
    """
    p, report = torus_homfly(lam, n, m)
    quotient = report.sign * p.map_exponents(lambda md: md - report.monomial_shift)
    total, common, _ = _torus_sum(lam, n, m)
    lam_hooks = Counter(lam.hook(cell) for cell in lam.cells())
    assert (quotient * unknot_homfly(lam).numerator * q_binomials(common)
            == total * q_binomials(lam_hooks))


@pytest.mark.parametrize("lam, n, m", [
    (Partition(parts), n, m)
    for n, m in [(2, 3), (2, 5), (3, 4), (3, 5), (4, 5)]
    for size in range(1, PLETHYSM_SIZE_CAP // m + 1)
    for parts in partitions_of(size)
])
def test_torus_knot_symmetry(lam, n, m):
    """``T(n, m)`` and ``T(m, n)`` are the same knot, so their reduced
    invariants agree up to a monomial and a sign."""
    p, _ = torus_homfly(lam, n, m)
    swapped, _ = torus_homfly(lam, m, n)
    assert match_up_to_monomial(p, swapped) is not None


def test_mirror_transpose_relation():
    # P^lambda(K)(a, q) == P^(lambda^t)(K)(a, 1/q) up to monomial
    for n in range(1, 5):
        for parts in partitions_of(n):
            lam = Partition(parts)
            p, _ = torus_homfly(lam, 2, 3)
            pt, _ = torus_homfly(lam.transpose(), 2, 3)
            flipped = pt.substitute("q", LaurentPoly.var("q", -1))
            assert match_up_to_monomial(p, flipped) is not None


def test_trefoil_rank_two_collapse_is_jones():
    p, _ = torus_homfly([1], 2, 3)
    jones = p.substitute("a", LaurentPoly.var("q", 2))
    assert match_up_to_monomial(jones, P("q + q^3 - q^4")) is not None


def test_stable_limit_fundamental():
    rep = stable_limit_check([1], 2, [3, 5, 7], order=10)
    orders = [r["agreement_order"] for r in rep["rows"]]
    assert rep["nondecreasing"]
    assert orders[0] < orders[1] < orders[2]


@pytest.mark.parametrize("lam, n, ms, orders", [
    ([1], 2, [5, 7, 9], [4, 6, 8]),
    ([1], 2, [3, 5, 7, 9, 11], [2, 4, 6, 8, 10]),
    ([2], 2, [3, 5, 7], [5, 9, 10]),
    ([1], 3, [4, 5, 7, 8], [3, 4, 6, 7]),
    ([1, 1], 2, [3, 5, 7], [0, 2, 4]),
])
def test_stable_limit_agreement_orders(lam, n, ms, orders):
    rep = stable_limit_check(lam, n, ms, order=10)
    assert [r["agreement_order"] for r in rep["rows"]] == orders


def test_stable_limit_n1_exact():
    rep = stable_limit_check([2, 1], 1, [2, 3], order=8)
    assert all(r["agreement_order"] >= 8 for r in rep["rows"])


def test_stable_reduced_series_21():
    # a = 0 row of the reduced (2,inf) stable invariant for color (2,1)
    lam, nlam = Partition([2, 1]), Partition([4, 2])
    num = LaurentPoly.one()
    for c in lam.cells():
        num = num * (LaurentPoly.one() - LaurentPoly.var("q", lam.hook(c)))
    series = RationalSeries(
        num, tuple(Multidegree(q=nlam.hook(c)) for c in nlam.cells()), "q", 10)
    expect = P("1 + 2*q^2 - q^3 + 4*q^4 - q^5 + 6*q^6 - 2*q^7 + 8*q^8"
               " - 2*q^9 + 11*q^10")
    assert series.expand() == expect


def test_hirota_identity():
    results = hirota_check(4, 4)
    assert all(ok for _, ok in results)


def test_hirota_boundary_convention():
    # the R = 1 row needs P_(0,S) = 1 and already holds above; spot-check 1x1
    assert hirota_check(1, 1) == [((1, 1), True)]


def test_an_inexact_reduced_quotient_is_refused(monkeypatch):
    """A ``common`` with one binomial more than the sum holds leaves no
    polynomial quotient, and ``torus_homfly`` says so."""
    real = invariants._torus_sum

    def one_more(lam, n, m):
        total, common, offset = real(lam, n, m)
        common[7] += 1
        return total, common, offset

    monkeypatch.setattr(invariants, "_torus_sum", one_more)
    with pytest.raises(DivisionError) as err:
        torus_homfly([2], 2, 3)
    assert str(err.value) == "non-polynomial reduced quotient"
    assert isinstance(err.value.__cause__, DivisionError)
