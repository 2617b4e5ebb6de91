import json

import pytest

from knothom.cli import main
from knothom.laurent import LaurentPoly, Multidegree, RationalSeries, parse_poly
from knothom.checks import (
    DifferentialSpec,
    check_delta_thin,
    check_differential,
    check_growth,
    check_hfk_growth,
    check_mirror,
    check_self_symmetry,
    colored_degree,
    colored_regrade,
    from_tilde,
    mirror_swap,
    rank_collapse,
    rank_collapse_input,
    sl_cancel,
    to_tilde,
    unreduced_from_reduced,
)
from knothom.fixtures import load_fixture

P = parse_poly

TILQUAD31 = P(
    "a^4*(Q^-4 + tr^2*tc^4 + tr^2*tc^6 + Q^4*tr^4*tc^8)"
    " + a^6*(Q^-2*tr^3*tc^5 + Q^-2*tr^3*tc^7 + Q^2*tr^5*tc^9 + Q^2*tr^5*tc^11)"
    " + a^8*tr^6*tc^12")


def test_to_tilde_quad31():
    fix = load_fixture("3_1:S2")
    assert to_tilde(fix.poincare, 1) == TILQUAD31
    assert from_tilde(TILQUAD31, 1) == fix.poincare


def test_to_tilde_single_monomial():
    p = LaurentPoly.monomial(1, Multidegree(a=2, q=2, tr=1, tc=1))
    t = to_tilde(p, 1)
    _, md = t.as_monomial()
    assert md.e("Q") == 2


def test_to_tilde_divisibility_error():
    p = LaurentPoly.monomial(1, Multidegree(a=2, q=1))
    with pytest.raises(ValueError):
        to_tilde(p, 2)


def test_to_tilde_lambda2():
    fix = load_fixture("3_1:L2")
    expect = P(
        "a^4*(Q^-4 + tr^6*tc^2 + tr^4*tc^2 + Q^4*tr^8*tc^4)"
        " + a^6*(Q^-2*tr^7*tc^3 + Q^-2*tr^5*tc^3 + Q^2*tr^11*tc^5"
        "        + Q^2*tr^9*tc^5)"
        " + a^8*tr^12*tc^6")
    assert to_tilde(fix.poincare, 2) == expect


def test_self_symmetry():
    assert check_self_symmetry(TILQUAD31, 1, 2)
    assert not check_self_symmetry(P("a^2*Q^2"), 1, 1)


def test_mirror_pair():
    s2 = load_fixture("3_1:S2")
    l2 = load_fixture("3_1:L2")
    assert check_mirror(s2.tilde(), l2.tilde(), 1, 2)
    assert mirror_swap(s2.tilde()) == l2.tilde()


def test_growth_trefoil():
    unc = load_fixture("3_1:1")
    assert check_growth(TILQUAD31, unc.tilde(), 2, "tr")
    assert not check_growth(TILQUAD31, unc.tilde(), 3, "tr")


def test_delta():
    s2 = load_fixture("3_1:S2")
    ok, deltas = check_delta_thin(s2.standard(), 2, 2)
    assert ok and deltas == [2]
    f8 = load_fixture("4_1:S2")
    ok, deltas = check_delta_thin(f8.standard(), 2, 0)
    assert ok and deltas == [0]
    t34 = load_fixture("T3_4:S2")
    ok, deltas = check_delta_thin(t34.standard(), 2, 6)
    assert not ok and len(deltas) > 1


def test_colored_degree_table():
    assert colored_degree("+row", 2, 2, 1) == Multidegree(a=-2, q=6, tr=-3, tc=-1)
    assert colored_degree("-row", 2, 2, 1) == Multidegree(a=-2, q=-2, tr=-7, tc=-5)
    assert colored_degree("-col", 2, 2, 1) == Multidegree(a=-2, q=-6, tr=-5, tc=-7)
    assert colored_degree("+col", 2, 2, 1) == Multidegree(a=-2, q=2, tr=-1, tc=-3)
    assert colored_degree("up", 2, 2) == Multidegree(q=2, tr=-2)
    assert colored_degree("left", 2, 2) == Multidegree(q=2, tc=2)
    with pytest.raises(ValueError):
        colored_degree("+row", 2, 2, 2)


def test_canceling_survivors():
    # canceling differentials send the unit generator to the printed survivor
    fn = colored_regrade("+row", 2, 2, 0, 2)
    assert fn(Multidegree()) == Multidegree(a=8, q=-16)
    fn = colored_regrade("-row", 2, 2, 0, 2)
    assert fn(Multidegree()) == Multidegree(a=8, q=16, tr=16, tc=16)
    fn = colored_regrade("+row", 3, 2, 0, 2)
    img = fn(Multidegree())
    assert (img.e("a"), img.e("q"), img.e("tc")) == (12, -36, 0)
    fn = colored_regrade("-row", 3, 2, 0, 2)
    img = fn(Multidegree())
    assert (img.e("a"), img.e("q"), img.e("tc")) == (12, 24, 24)


def test_regrade_sigma_zero_reduces_to_q_shifts():
    # with vanishing S-invariant only the Q-proportional terms remain
    fn = colored_regrade("+col", 1, 2, 1, 0)
    md = Multidegree(a=2, q=2, tr=2, tc=2)   # Q = 2
    img = fn(md)
    assert img.e("a") == 2 and img.e("tr") == 2
    assert img.e("tc") == 2 + 2  # tc + (S-l)*Q
    assert img.e("q") == 2 + 2


def test_check_differential_canceling_quad31():
    fix = load_fixture("3_1:S2")
    spec = DifferentialSpec.colored("+row", 1, 2, 0, 2, name="d1|0")
    ok, witness = check_differential(fix.standard(), LaurentPoly.one(), spec)
    assert ok
    # the witness reconstructs the residual exactly
    mono = LaurentPoly.monomial(1, spec.degree)
    survivor = LaurentPoly.monomial(1, Multidegree(a=4, q=-4))
    assert (LaurentPoly.one() + mono) * witness == fix.standard() - survivor


def test_check_differential_t34_d12():
    t34 = load_fixture("T3_4:S2")
    d12 = load_fixture("T3_4:S2:d1|2")
    spec = DifferentialSpec("d1|2", Multidegree(a=-2, Q=0, tr=-3, tc=-5))
    ok, _ = check_differential(t34.tilde(), d12.tilde(), spec)
    assert ok


def test_check_differential_222_to_22():
    fix = load_fixture("3_1:3x2")
    target = load_fixture("3_1:2x2")
    spec = DifferentialSpec.colored("+row", 3, 2, 2, 2, name="d5|0")
    ok, _ = check_differential(fix.standard(), target.standard(), spec,
                               project=("a", "q", "tc"))
    assert ok


def test_hfk_r1_tautology():
    unc = load_fixture("T3_4:1").tilde()
    d11 = load_fixture("T3_4:1:d1|1").standard().map_exponents(
        lambda md: Multidegree(a=md.e("a"), q=md.e("q"), t=md.e("tr")))
    ok, _ = check_hfk_growth(unc, d11, 1, Multidegree(a=-2, Q=0, tr=-3, tc=-3))
    assert ok


def test_hfk_thin_reduces_to_growth():
    # the parity differential has no aligned pairs on the thin trefoil
    s2 = load_fixture("3_1:S2").tilde()
    unc = load_fixture("3_1:1").standard().map_exponents(
        lambda md: Multidegree(a=md.e("a"), q=md.e("q"), t=md.e("tr")))
    ok, survivors = check_hfk_growth(
        s2, unc, 2, Multidegree(a=-2, Q=0, tr=-3, tc=-5))
    assert ok and survivors == s2


def test_unreduced_from_reduced_unknot():
    series = unreduced_from_reduced(LaurentPoly.one(), [2], order=12)
    # numerator (q/a)^2 (1 + a^2 q^0 tr tc)(1 + a^2 q^2 tr tc^3)
    expect = (LaurentPoly.monomial(1, Multidegree(a=-2, q=2))
              * (LaurentPoly.one()
                 + LaurentPoly.monomial(1, Multidegree(a=2, tr=1, tc=1)))
              * (LaurentPoly.one()
                 + LaurentPoly.monomial(1, Multidegree(a=2, q=2, tr=1, tc=3))))
    assert series.numerator == expect
    dens = sorted((int(md.e("q")), int(md.e("tc"))) for md in series.denominators)
    assert dens == [(2, 0), (4, 2)]


def test_unreduced_from_reduced_trefoil_display():
    # the uncolored product formula
    fix = load_fixture("3_1:1")
    series = unreduced_from_reduced(fix.standard(), [1], order=12)
    reduced = fix.standard()
    expect = reduced * LaurentPoly.monomial(1, Multidegree(a=-1, q=1)) * (
        LaurentPoly.one() + LaurentPoly.monomial(1, Multidegree(a=2, tr=1, tc=1)))
    assert series.numerator == expect


def test_sl_cancel_trefoil():
    series = rank_collapse_input("3_1:1", [1], order=40)
    survivors, window = sl_cancel(series, Multidegree(a=-2, q=4, t=-1), 2,
                                  cutoff=20)
    assert survivors == P("q + q^3 + q^5*t^2 + q^9*t^3").truncate("q", window)


def test_sl_cancel_s2_unknot():
    series = rank_collapse_input("unknot:S2", [2], order=60)
    survivors, window = sl_cancel(series, Multidegree(a=-2, q=4, t=-1), 2,
                                  cutoff=24)
    tail = RationalSeries(P("q^2*t^2*(1 + q^4*t)"),
                          (Multidegree(q=4, t=2),), "q", window)
    expect = (P("q^-2 + 1") + tail.expand()).truncate("q", window)
    assert survivors == expect


def test_sl_cancel_figure_eight_fundamental():
    series = rank_collapse_input("4_1:1", [1], order=40)
    survivors, window = sl_cancel(series, Multidegree(a=-2, q=4, t=-1), 2,
                                  cutoff=20)
    expect = P("q^5*t^2 + q*t + q + q^-1 + q^-1*t^-1 + q^-5*t^-2")
    assert survivors == expect.truncate("q", window)


def test_sl_cancel_stable_under_cutoff():
    series = rank_collapse_input("3_1:S2", [2], order=80)
    s1, w1 = sl_cancel(series, Multidegree(a=-2, q=4, t=-1), 2, cutoff=26)
    s2, w2 = sl_cancel(series, Multidegree(a=-2, q=4, t=-1), 2, cutoff=32)
    assert w2 >= w1
    assert s2.truncate("q", w1) == s1


def test_rank_collapse_is_the_cancel_pipeline(capsys):
    """``rank_collapse`` is the input series, expanded 4 past the cutoff,
    cancelled along ``a^-2 q^(2n) t^-1``; ``knothom cancel`` prints it."""
    got = rank_collapse("3_1:S2", [2], 2, cutoff=30)
    series = rank_collapse_input("3_1:S2", [2], order=34)
    assert got == sl_cancel(series, Multidegree(a=-2, q=4, t=-1), 2, cutoff=30)
    argv = ["cancel", "--knot", "3_1", "--color", "S2", "--n", "2",
            "--cutoff", "30", "--format", "json"]
    assert main(argv) == 0
    assert LaurentPoly.from_json(json.loads(capsys.readouterr().out)) == got[0]


def test_sl_cancel_needs_decreasing_t():
    series = RationalSeries(P("1"), (), "q", 10)
    with pytest.raises(ValueError):
        sl_cancel(series, Multidegree(a=-2, q=4, t=1), 2)
