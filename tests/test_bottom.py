from math import gcd

import pytest

from knothom.laurent import LaurentPoly, Multidegree, parse_poly
from knothom.partitions import catalan_count
from knothom.bottom import (
    bottom_poincare,
    qbinom,
    row_count,
    trefoil_recursion_check,
    vortex_character,
)

P = parse_poly


def test_row_counts():
    assert catalan_count(2, 3) == 2 and catalan_count(3, 4) == 5
    assert row_count(3, 4, 1) == 5 and row_count(3, 4, 2) == 1
    assert row_count(2, 3, 1) == 1
    assert row_count(2, 3, 5) == 0


def test_row_count_totals():
    assert sum(row_count(2, 3, k) for k in range(3)) == 3
    assert sum(row_count(3, 4, k) for k in range(4)) == 11


def test_qbinom():
    assert qbinom(2, 1) == P("1 + q")
    assert qbinom(4, 2) == P("(1 + q^2)*(1 + q + q^2)")
    assert qbinom(3, 5).is_zero()


def test_qbinom_q_pascal():
    # [n,k] = [n-1,k-1] + q^k [n-1,k], with [n,0] = 1 and [n,k] = 0 off range
    for n in range(1, 13):
        for k in range(-1, n + 2):
            assert qbinom(n, k) == qbinom(n - 1, k - 1) \
                + LaurentPoly.var("q", k) * qbinom(n - 1, k)
    assert all(qbinom(n, 0) == LaurentPoly.one() for n in range(13))


def test_bottom_poincare_231():
    bp = bottom_poincare(2, 3, 1)
    assert bp == P("1 + Q^6*tr^2")
    assert bp.dimension() == 2


def test_bottom_poincare_dimensions():
    for p in range(1, 6):
        for q in range(1, 6):
            if gcd(p, q) != 1:
                continue
            for r in (1, 2, 3):
                assert bottom_poincare(p, q, r).dimension() == \
                    catalan_count(p, q) ** r


def test_vortex_character_s2_trefoil():
    v = vortex_character(1, 2)
    assert v.numerator == P("q^-2*(1 + q^3*t^2 + q^4*t^2 + q^6*t^4)")
    assert sorted(int(md.e("q")) for md in v.denominators) == [1, 2]


def test_vortex_character_abelian():
    for m in (0, 1, 2, 3):
        v = vortex_character(0, m)
        assert v.numerator == LaurentPoly.one()
        assert len(v.denominators) == m


def test_vortex_character_single_vortex():
    v = vortex_character(1, 1)
    assert v.numerator == P("q^-1*(1 + q^2*t^2)")


def test_vortex_t0_slice():
    for p in (0, 1, 2):
        for m in (0, 1, 2, 3):
            v = vortex_character(p, m)
            assert v.numerator.coefficient_of("t", 0) == \
                LaurentPoly.var("q", -p * m)


def test_trefoil_recursion():
    results = trefoil_recursion_check(6)
    assert all(ok for _, ok, _ in results)


def test_trefoil_recursion_m0():
    (m, ok, residual) = trefoil_recursion_check(0)[0]
    assert m == 0 and ok and residual.is_zero()
