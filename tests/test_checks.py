import itertools
import json

import pytest
from hypothesis import given, settings, strategies as st

from knothom import checks, laurent
from knothom.cli import main
from knothom.errors import UsageError
from knothom.laurent import (
    LaurentPoly,
    Multidegree,
    RationalSeries,
    max_cancel,
    parse_poly,
)
from knothom.checks import (
    DifferentialSpec,
    _t_top,
    check_delta_thin,
    check_differential,
    check_growth,
    check_hfk_growth,
    check_mirror,
    check_self_symmetry,
    colored_differential,
    mirror_swap,
    rank_collapse,
    rank_collapse_input,
    sl_cancel,
    unreduced_from_reduced,
)
from knothom.fixtures import from_tilde, load_fixture, to_tilde
from knothom.models import aqt_projection
from knothom.partitions import Partition
from knothom.suite import SL2_TARGETS

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


def test_mirror_refuses_a_colour_paired_with_itself():
    """S^2 is not its own transpose, and its table is not its own mirror."""
    s2 = load_fixture("3_1:S2").tilde()
    assert not check_mirror(s2, s2, 1, 2)


def test_growth_trefoil():
    unc = load_fixture("3_1:1")
    assert check_growth(TILQUAD31, unc.tilde(), 2, "tr")
    assert not check_growth(TILQUAD31, unc.tilde(), 3, "tr")


def test_delta():
    s2 = load_fixture("3_1:S2")
    ok, deltas = check_delta_thin(s2.poincare, 2, 2)
    assert ok and deltas == [2]
    f8 = load_fixture("4_1:S2")
    ok, deltas = check_delta_thin(f8.poincare, 2, 0)
    assert ok and deltas == [0]
    t34 = load_fixture("T3_4:S2")
    ok, deltas = check_delta_thin(t34.poincare, 2, 6)
    assert not ok and len(deltas) > 1


def test_colored_degree_table():
    def degree(kind, k=0):
        return colored_differential(kind, 2, 2, k).degree

    assert degree("+row", 1) == Multidegree(a=-2, q=6, tr=-3, tc=-1)
    assert degree("-row", 1) == Multidegree(a=-2, q=-2, tr=-7, tc=-5)
    assert degree("-col", 1) == Multidegree(a=-2, q=-6, tr=-5, tc=-7)
    assert degree("+col", 1) == Multidegree(a=-2, q=2, tr=-1, tc=-3)
    assert degree("up") == Multidegree(q=2, tr=-2)
    assert degree("left") == Multidegree(q=2, tc=2)
    with pytest.raises(ValueError, match="0 <= k < 2"):
        degree("+row", 2)


#: every kind on a 3x4 colour, which has no fixture: the kept rows or
#: columns, the label, the (a,q,tr,tc)-degree, the target rectangle, and
#: the regrade at sigma = 2 of a^2 q^5 tr^3 tc^2, whose Q is an integer for
#: target rows 1, 2 and 3
COLORED_3X4 = [
    ("+row", 2, "d5|0", (-2, 10, -5, -1), (2, 4), (10, -35, 22, 2)),
    ("-row", 2, "d2|4", (-2, -4, -11, -9), (2, 4), (10, 24, 43, 34)),
    ("+col", 3, "d3|3", (-2, 0, -1, -7), (3, 3), (8, 7, 3, 22)),
    ("-col", 3, "d0|7", (-2, -14, -7, -15), (3, 3), (8, 47, 21, 44)),
    ("up", 0, "d^", (0, 2, -2, 0), (1, 4), (4, 28, 12, 4)),
    ("left", 0, "d<-", (0, 2, 0, 2), (3, 3), (4, 14, 6, 8)),
]


def test_colored_labels_and_targets_follow_the_kind():
    gradings = ("a", "q", "tr", "tc")
    source = Multidegree(a=2, q=5, tr=3, tc=2)
    for kind, k, label, degree, target, image in COLORED_3X4:
        spec = colored_differential(kind, 3, 4, k, sigma=2)
        assert spec.name == label, kind
        assert spec.degree == Multidegree(zip(gradings, degree)), kind
        assert spec.target == target, kind
        assert spec.regrade(LaurentPoly.monomial(1, source)) == LaurentPoly.monomial(
            1, Multidegree(zip(gradings, image))), kind
    # a canceling differential keeps nothing: its target rectangle is empty
    canceling = [colored_differential(kind, 3, 4) for kind in ("+row", "-col")]
    assert [(spec.name, spec.target) for spec in canceling] == [
        ("d3|0", (0, 4)), ("d0|4", (3, 0))]
    with pytest.raises(ValueError, match="unknown differential kind"):
        colored_differential("down", 3, 4)
    with pytest.raises(ValueError, match="0 <= k < 4"):
        colored_differential("+col", 3, 4, 4)


@pytest.mark.parametrize("kind,param", [("up", 5), ("left", -3), ("up", 1)])
def test_universal_differentials_take_no_parameter(kind, param):
    with pytest.raises(ValueError, match=f"{kind} needs 0 <= k < 1, got {param}"):
        colored_differential(kind, 2, 2, param)


def test_regrade_refuses_targets_off_the_lattice():
    with pytest.raises(ValueError, match="non-integral exponent 1/2 on variable 'Q'"):
        colored_differential("+row", 3, 2, 2, 2).regrade(LaurentPoly.var("q"))
    with pytest.raises(ValueError, match="empty-color"):
        colored_differential("+row", 3, 2, 0, 2).regrade(LaurentPoly.var("q", 2))


def survivor(kind, R, S, param, sigma) -> Multidegree:
    """The degree of the image of the unit generator under the regrade."""
    return colored_differential(kind, R, S, param, sigma).regrade(
        LaurentPoly.one()).as_monomial()[1]


def test_canceling_survivors():
    # canceling differentials send the unit generator to the printed survivor
    assert survivor("+row", 2, 2, 0, 2) == Multidegree(a=8, q=-16)
    assert survivor("-row", 2, 2, 0, 2) == Multidegree(a=8, q=16, tr=16, tc=16)
    img = survivor("+row", 3, 2, 0, 2)
    assert (img.e("a"), img.e("q"), img.e("tc")) == (12, -36, 0)
    img = survivor("-row", 3, 2, 0, 2)
    assert (img.e("a"), img.e("q"), img.e("tc")) == (12, 24, 24)


def test_regrade_sigma_zero_reduces_to_q_shifts():
    # with vanishing S-invariant only the Q-proportional terms remain
    fn = colored_differential("+col", 1, 2, 1).regrade
    md = Multidegree(a=2, q=2, tr=2, tc=2)   # Q = 2
    _, img = fn(LaurentPoly.monomial(1, md)).as_monomial()
    assert img.e("a") == 2 and img.e("tr") == 2
    assert img.e("tc") == 2 + 2  # tc + (S-l)*Q
    assert img.e("q") == 2 + 2


# -- the hat maps as they were written on degrees, the reference for the
# regrades of colored_differential

def tilde_degree(md: Multidegree, R: int) -> Multidegree:
    """``md`` in ``(a, Q, tr, tc)``, ``Q = (q + tr - tc)/R``, every other
    variable dropped; raises where ``R`` does not divide ``q + tr - tc``."""
    a, q, tr, tc = md._e("a"), md._e("q"), md._e("tr"), md._e("tc")
    Q, rest = divmod(q + tr - tc, R)
    if rest:
        raise ValueError(f"(q + tr - tc) = {q + tr - tc} is not divisible by {R}")
    return Multidegree(a=a, Q=Q, tr=tr, tc=tc)


def untilde_degree(md: Multidegree, R: int) -> Multidegree:
    """The inverse of :func:`tilde_degree`: ``q = R*Q - tr + tc``."""
    tr, tc = md._e("tr"), md._e("tc")
    return Multidegree(a=md._e("a"), q=R * md._e("Q") - tr + tc, tr=tr, tc=tc)


#: kind -> ``(R, S, k)`` -> ``(hat, target rows)``: ``hat(sigma, a, Q, tr,
#: tc)`` sends a target generator's tilde gradings to the survivor's
HATS = {
    "+row": lambda R, S, k: (
        lambda s, a, Q, tr, tc: (a + S * (R - k) * s, Q - S * (R - k) * s,
                                 tr + (R - k) * Q + S * k * (R - k) * s, tc), k),
    "+col": lambda R, S, l: (
        lambda s, a, Q, tr, tc: (a + R * (S - l) * s, Q - R * (S - l) * s,
                                 tr, tc + (S - l) * Q + R * l * (S - l) * s), R),
    "-row": lambda R, S, k: (
        lambda s, a, Q, tr, tc: (a + S * (R - k) * s, Q + S * (R - k) * s,
                                 tr + S * (R - k) * (R + k) * s,
                                 tc + S * S * (R - k) * s), k),
    "-col": lambda R, S, l: (
        lambda s, a, Q, tr, tc: (a + R * (S - l) * s, Q + R * (S - l) * s,
                                 tr + R * R * (S - l) * s,
                                 tc + R * (S - l) * (S + l) * s), R),
    "up": lambda R, S, k: (lambda s, a, Q, tr, tc: (2 * a, 2 * Q, 4 * tr, 2 * tc), 1),
    "left": lambda R, S, k: (lambda s, a, Q, tr, tc: (2 * a, 2 * Q, 2 * tr, 4 * tc), R),
}


def hat_by_terms(kind, R, S, k, sigma, p: LaurentPoly) -> LaurentPoly:
    """The target ``p`` mapped upstairs term by term, through the tilde
    gradings of the target's rows and back with ``R`` rows."""
    hat, rows = HATS[kind](R, S, k)

    def image(md):
        tilde = tilde_degree(md, rows or 1)
        if not rows and not md.is_zero():
            raise ValueError("empty-color target admits only the unit generator")
        a, Q, tr, tc = hat(sigma, *(tilde._e(v) for v in ("a", "Q", "tr", "tc")))
        return untilde_degree(Multidegree(a=a, Q=Q, tr=tr, tc=tc), R)

    return p.map_exponents(image)


#: every colored differential of a colour of at most 4 rows and 4 columns,
#: with every ``k`` and ``sigma`` in -2..2
DIFFERENTIAL_CASES = [(kind, R, S, k, sigma)
                      for kind, bound in [("+row", "R"), ("-row", "R"), ("+col", "S"),
                                          ("-col", "S"), ("up", 1), ("left", 1)]
                      for R in range(1, 5) for S in range(1, 5)
                      for k in range({"R": R, "S": S}.get(bound, 1))
                      for sigma in range(-2, 3)]


@st.composite
def tilde_targets(draw):
    """A polynomial in ``(a, Q, tr, tc)`` summed from up to 8 terms over at
    most 4 degrees, so that terms of one degree add or cancel."""
    degrees = draw(st.lists(st.tuples(*[st.integers(-4, 4)] * 4), min_size=1, max_size=4))
    terms = draw(st.lists(st.tuples(st.sampled_from(degrees), st.sampled_from([1, -1, 2, -3])),
                          max_size=8))
    return sum((LaurentPoly.monomial(c, Multidegree(zip(("a", "Q", "tr", "tc"), e)))
                for e, c in terms), LaurentPoly.zero())


@settings(derandomize=True, deadline=None, database=None, max_examples=10)
@given(tilde_targets(), st.integers(-3, 3).filter(bool))
def test_colored_regrades_match_the_hat_maps(tilde, unit):
    """``colored_differential(...).regrade`` equals the hat map written on
    degrees for every kind, colour and ``sigma`` of
    :data:`DIFFERENTIAL_CASES`.  The target is drawn in ``(a, Q, tr, tc)``
    (:func:`tilde_targets`) and read in ``(a, q, tr, tc)`` on the lattice of
    the target's rows; the same target moved one step of ``q`` is off the
    lattice where there are at least two rows, and both sides refuse it.
    An empty target colour takes a constant and refuses every other target
    on both sides."""
    for kind, R, S, k, sigma in DIFFERENTIAL_CASES:
        spec = colored_differential(kind, R, S, k, sigma)
        rows = spec.target[0]
        on = from_tilde(tilde, rows or 1)
        off = on * LaurentPoly.var("q")
        for target, refused in [(on, not rows and on.variables()),
                                (off, rows != 1 and not off.is_zero()),
                                (LaurentPoly.const(unit), False)]:
            try:
                want = hat_by_terms(kind, R, S, k, sigma, target)
            except ValueError:
                assert refused, (kind, R, S, k, sigma)
                with pytest.raises(ValueError, match="empty-color" if not rows
                                   else "^non-integral exponent .* on variable 'Q'$"):
                    spec.regrade(target)
            else:
                assert not refused, (kind, R, S, k, sigma)
                assert spec.regrade(target) == want, (kind, R, S, k, sigma)


def test_check_differential_canceling_quad31():
    fix = load_fixture("3_1:S2")
    spec = colored_differential("+row", 1, 2, 0, 2)
    assert spec.name == "d1|0"
    ok, witness = check_differential(fix.poincare, LaurentPoly.one(), spec)
    assert ok
    # the witness reconstructs the residual exactly
    mono = LaurentPoly.monomial(1, spec.degree)
    survivor = LaurentPoly.monomial(1, Multidegree(a=4, q=-4))
    assert (LaurentPoly.one() + mono) * witness == fix.poincare - survivor


def test_check_differential_t34_d12():
    t34 = load_fixture("T3_4:S2")
    d12 = load_fixture("T3_4:S2:d1|2")
    spec = DifferentialSpec("d1|2", Multidegree(a=-2, Q=0, tr=-3, tc=-5))
    ok, _ = check_differential(t34.tilde(), d12.tilde(), spec)
    assert ok


def test_check_differential_refuses_a_shifted_target():
    """The ``d1|2`` target times ``Q^2`` leaves a residual with no
    nonnegative witness, so the check fails and hands on the residual."""
    t34 = load_fixture("T3_4:S2")
    target = load_fixture("T3_4:S2:d1|2").tilde() * LaurentPoly.monomial(1, Multidegree(Q=2))
    spec = DifferentialSpec("d1|2", Multidegree(a=-2, Q=0, tr=-3, tc=-5))
    ok, residual = check_differential(t34.tilde(), target, spec)
    assert ok is False
    assert residual == t34.tilde() - target


def test_check_differential_222_to_22():
    fix = load_fixture("3_1:3x2")
    target = load_fixture("3_1:2x2")
    spec = colored_differential("+row", 3, 2, 2, 2)
    assert spec.name == "d5|0"
    ok, _ = check_differential(fix.poincare, target.poincare, spec,
                               project=("a", "q", "tc"))
    assert ok


def test_hfk_r1_tautology():
    unc = load_fixture("T3_4:1").tilde()
    d11 = load_fixture("T3_4:1:d1|1").poincare.map_exponents(
        lambda md: Multidegree(a=md.e("a"), q=md.e("q"), t=md.e("tr")))
    ok, _ = check_hfk_growth(unc, d11, 1, Multidegree(a=-2, Q=0, tr=-3, tc=-3))
    assert ok


def test_hfk_growth_refuses_a_shifted_table():
    """The ``d1|1`` table times ``q^2`` is not what maximal cancellation of
    T3_4:1 leaves."""
    unc = load_fixture("T3_4:1").tilde()
    d11 = load_fixture("T3_4:1:d1|1").poincare.map_exponents(
        lambda md: Multidegree(a=md.e("a"), q=md.e("q"), t=md.e("tr")))
    ok, _ = check_hfk_growth(unc, d11 * LaurentPoly.var("q", 2), 1,
                             Multidegree(a=-2, Q=0, tr=-3, tc=-3))
    assert ok is False


def test_hfk_thin_reduces_to_growth():
    # the parity differential has no aligned pairs on the thin trefoil
    s2 = load_fixture("3_1:S2").tilde()
    unc = load_fixture("3_1:1").poincare.map_exponents(
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
    series = unreduced_from_reduced(fix.poincare, [1], order=12)
    reduced = fix.poincare
    expect = reduced * LaurentPoly.monomial(1, Multidegree(a=-1, q=1)) * (
        LaurentPoly.one() + LaurentPoly.monomial(1, Multidegree(a=2, tr=1, tc=1)))
    assert series.numerator == expect


def test_sl_cancel_trefoil():
    series = rank_collapse_input("3_1", [1])
    survivors, window = sl_cancel(series, Multidegree(a=-2, q=4, t=-1), 2,
                                  cutoff=20)
    assert survivors == P("q + q^3 + q^5*t^2 + q^9*t^3").truncate("q", window)


def test_sl_cancel_s2_unknot():
    series = rank_collapse_input("unknot", [2])
    survivors, window = sl_cancel(series, Multidegree(a=-2, q=4, t=-1), 2,
                                  cutoff=24)
    tail = RationalSeries(P("q^2*t^2*(1 + q^4*t)"),
                          (Multidegree(q=4, t=2),), "q", window)
    expect = (P("q^-2 + 1") + tail.expand()).truncate("q", window)
    assert survivors == expect


def test_sl_cancel_figure_eight_fundamental():
    series = rank_collapse_input("4_1", [1])
    survivors, window = sl_cancel(series, Multidegree(a=-2, q=4, t=-1), 2,
                                  cutoff=20)
    expect = P("q^5*t^2 + q*t + q + q^-1 + q^-1*t^-1 + q^-5*t^-2")
    assert survivors == expect.truncate("q", window)


def test_sl_cancel_stable_under_cutoff():
    series = rank_collapse_input("3_1", [2])
    s1, w1 = sl_cancel(series, Multidegree(a=-2, q=4, t=-1), 2, cutoff=26)
    s2, w2 = sl_cancel(series, Multidegree(a=-2, q=4, t=-1), 2, cutoff=32)
    assert w2 >= w1
    assert s2.truncate("q", w1) == s1


def test_rank_collapse_is_the_cancel_pipeline(capsys):
    """``rank_collapse`` is the input series cancelled along
    ``a^-2 q^(2n) t^-1``; ``knothom cancel`` prints it."""
    got = rank_collapse("3_1", [2], 2, cutoff=30)
    series = rank_collapse_input("3_1", [2])
    assert got == sl_cancel(series, Multidegree(a=-2, q=4, t=-1), 2, cutoff=30)
    argv = ["cancel", "--knot", "3_1", "--color", "S2", "--n", "2",
            "--cutoff", "30", "--format", "json"]
    assert main(argv) == 0
    assert LaurentPoly.from_json(json.loads(capsys.readouterr().out)) == got[0]


def test_rank_collapse_names_the_fixture_from_the_colour():
    """The knot and the colour name one fixture, so a fixture key cannot be
    paired with another colour's unknot factor."""
    got = rank_collapse("3_1", [1], 2, cutoff=20)
    series = aqt_projection(unreduced_from_reduced(load_fixture("3_1:1").poincare, [1]))
    assert got == sl_cancel(series, Multidegree(a=-2, q=4, t=-1), 2, cutoff=20)
    with pytest.raises(UsageError, match="no fixture file"):
        rank_collapse("3_1:S2", [1], 2, cutoff=20)


#: the ``(n, cutoff)`` of a rank-collapse sweep over one knot and colour
SWEEP = [(n, cutoff) for n in (2, 3) for cutoff in (24, 30)]


def test_rank_collapse_builds_its_input_once_per_knot_and_colour(monkeypatch):
    """A sweep over ``n`` and the cutoff builds the unreduced series once,
    and each result equals a run on a series built afresh for it; the shared
    series is not changed by the sweep."""
    fresh = {}
    for n, cutoff in SWEEP:
        checks._collapse_input.cache_clear()
        fresh[n, cutoff] = rank_collapse("3_1", [2], n, cutoff=cutoff)
    built = []
    unreduced = checks.unreduced_from_reduced

    def counted(*args, **kwargs):
        built.append(args)
        return unreduced(*args, **kwargs)

    monkeypatch.setattr(checks, "unreduced_from_reduced", counted)
    checks._collapse_input.cache_clear()
    series = rank_collapse_input("3_1", [2])
    numerator, denominators = dict(series.numerator.terms), series.denominators
    for n, cutoff in SWEEP:
        assert rank_collapse("3_1", [2], n, cutoff=cutoff) == fresh[n, cutoff]
    assert len(built) == 1
    assert rank_collapse_input("3_1", [2]) is series
    assert series.numerator.terms == numerator
    assert series.denominators == denominators


def test_rank_collapse_input_has_one_entry_per_knot_and_colour():
    """``"unknot"`` and ``"3_1"``, and ``[1]`` and ``[2]``, never share an
    entry; a list and its ``Partition`` do."""
    checks._collapse_input.cache_clear()
    inputs = {(knot, lam[0]): rank_collapse_input(knot, lam)
              for knot in ("unknot", "3_1") for lam in ([1], [2])}
    assert checks._collapse_input.cache_info().currsize == 4
    assert len({id(series) for series in inputs.values()}) == 4
    for (knot, size), series in inputs.items():
        reduced = (LaurentPoly.one() if knot == "unknot"
                   else load_fixture(f"3_1:{'1' if size == 1 else 'S2'}").poincare)
        expect = aqt_projection(unreduced_from_reduced(reduced, [size]))
        assert series.numerator == expect.numerator
        assert series.denominators == expect.denominators
        assert rank_collapse_input(knot, Partition([size])) is series
    assert checks._collapse_input.cache_info().currsize == 4


def test_rank_collapse_input_refuses_a_table_without_the_column_grading():
    """``3_1:2_1`` is tabled in ``(a, q, t)``, and no table says which
    homological grading its ``t`` is, so the input is refused, naming the
    table and its gradings, instead of dropping ``t`` for the unknot
    factor's ``tc``; every other fixture colour of ``3_1`` carries ``tc``."""
    assert load_fixture("3_1:2_1").gradings == ("a", "q", "t")
    with pytest.raises(UsageError) as err:
        rank_collapse_input("3_1", [2, 1])
    assert str(err.value) == ("3_1:2_1 is graded (a, q, t); "
                              "rank collapse needs its column grading tc")
    for lam in ([1], [2], [1, 1], [2, 2], [2, 2, 2]):
        assert "t" in rank_collapse_input("3_1", lam).numerator.variables()


def test_sl_cancel_expands_through_the_window_edge():
    """The last term the window reads, ``a^-2 q^6 t^3``, has ``q``-degree
    ``e = cutoff - 2*den_margin = 6``, ``t``-degree ``t_top(e) = 3`` and so
    ``w``-degree ``e + 4*t_top = 18``: an expansion one short of that drops
    it."""
    series = RationalSeries(P("a^-2"), (Multidegree(q=2, t=1),), "q", 30)
    diff = Multidegree(a=-2, q=4, t=-1)
    got = sl_cancel(series, diff, 2, cutoff=10)
    assert got == (P("q^-4 + q^-2*t + t^2 + q^2*t^3"), 2)
    assert got == _reference_sl_cancel(series, diff, 2, 10)


def survivor_pass_by_term(survivors, tvar, step_q, n, cutoff, window):
    """:func:`checks._collapsed` one term at a time: ``q -> q -
    step_q*tvar``, kept through ``q^cutoff``; then ``a -> q^n``, kept
    through ``q^window``; the images summed by degree."""
    out = {}
    for md, c in survivors.terms.items():
        e = dict(md.items())
        q = e.pop("q", 0) - step_q * e.get(tvar, 0)
        if q <= cutoff and q + n * e.get("a", 0) <= window:
            e["q"] = q + n * e.pop("a", 0)
            image = Multidegree(e)
            out[image] = out.get(image, 0) + c
    return LaurentPoly(out)


def survivor_pass_chain(survivors, tvar, step_q, n, cutoff, window):
    """The chain :func:`checks._collapsed` replaced, on a plain copy:
    ``map_exponents``, ``truncate``, ``substitute``, ``truncate``."""
    lift = Multidegree(q=step_q)
    back = LaurentPoly(survivors.terms).map_exponents(lambda md: md._shift(lift, -md._e(tvar)))
    collapsed = back.truncate("q", cutoff).substitute("a", LaurentPoly.var("q", n))
    return collapsed.truncate("q", window)


@st.composite
def survivor_cases(draw):
    """Survivors in ``(a, q, tvar)`` with negative ``a``-degrees, and the
    parameters of the pass: ``n`` in 2..4, a lift step, a cutoff and a
    window at most the cutoff.  Some terms get a partner one ``a`` lower and
    ``n`` higher in ``q``, whose image under ``a -> q^n`` is the same; the
    partner's count may be the negative, so that the two cancel."""
    n = draw(st.sampled_from([2, 3, 4]))
    tvar = draw(st.sampled_from(["t", "tc"]))
    exps = st.tuples(st.integers(-4, 2), st.integers(-6, 12), st.integers(-2, 4))
    terms = draw(st.lists(st.tuples(exps, st.integers(1, 3)), max_size=10))
    for (a, q, t), c in terms[:draw(st.integers(0, len(terms)))]:
        terms.append(((a - 1, q + n, t), draw(st.sampled_from([c, -c, 2]))))
    survivors = LaurentPoly.zero()
    for (a, q, t), c in terms:
        survivors = survivors + LaurentPoly.monomial(c, Multidegree({"a": a, "q": q, tvar: t}))
    cutoff = draw(st.integers(-4, 14))
    window = cutoff - draw(st.integers(0, 12))
    return survivors, tvar, draw(st.sampled_from([2 * n, 1, 3])), n, cutoff, window


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(survivor_cases())
def test_survivor_pass_matches_the_term_by_term_chain(case):
    """``sl_cancel``'s pass over the survivors reads and hands on exponent
    columns, on a plain or a carried input; it equals the term-by-term
    reference and the chain it replaced, colliding images summed and zero
    sums dropped, and ``to_json`` writes it without a term map.  The input
    is left as it was."""
    survivors, *args = case
    want = survivor_pass_by_term(survivors, *args)
    assert survivor_pass_chain(survivors, *args) == want
    columns, den, ints = survivors._columnar()
    assert den == 1
    for given_ in (survivors, LaurentPoly._carried(columns, ints)):
        got = checks._collapsed(given_, *args)
        obj = got.to_json()
        assert got._map is None and all(got._columnar()[2])
        assert obj == want.to_json()
        assert got == want
        assert given_ == survivors


@pytest.mark.parametrize("knot, lam, n, cutoff", [("3_1", [2], 2, 24), ("unknot", [2], 3, 30)])
def test_cancel_json_builds_no_term_map(monkeypatch, knot, lam, n, cutoff):
    """``rank_collapse`` hands its lifted numerator to ``expand``, its
    expansion to ``max_cancel``, and the survivors on through the survivor
    pass, as exponent columns, and ``to_json`` writes the result from them:
    the term map slot of the lifted numerator, of the expansion, of the
    survivors and of the result is still empty afterwards, so a term map
    built by accident fails here instead of only costing time.  After the
    memoised input, ``map_exponents``, the one grading pass that still reads
    ``terms``, does not run, and no polynomial builds its term map: the
    ``regrade`` and ``truncate`` passes of the survivor pass read and give
    columns.  The JSON is the plain copy's."""
    series = rank_collapse_input(knot, lam)
    seen = []
    real = checks.max_cancel
    real_expand = RationalSeries.expand

    def recording(p, m, keep="early"):
        out = real(p, m, keep)
        seen.extend([p, out[0]])
        return out

    def expanding(self, order=None):
        seen.append(self.numerator)
        return real_expand(self, order)

    def refused(*args):
        raise AssertionError("the cancel path ran a term-map pass")

    def held(self):
        if self._map is None:
            raise AssertionError("the cancel path built a term map")
        return self._map

    monkeypatch.setattr(checks, "max_cancel", recording)
    monkeypatch.setattr(RationalSeries, "expand", expanding)
    monkeypatch.setattr(LaurentPoly, "map_exponents", refused)
    monkeypatch.setattr(LaurentPoly, "terms", property(held))
    survivors, _ = rank_collapse(knot, lam, n, cutoff=cutoff)
    obj = survivors.to_json()
    monkeypatch.undo()
    assert len(seen) == 3 and seen[0] is not series.numerator
    for p in (*seen, survivors):
        assert p._map is None
    assert obj == LaurentPoly(survivors.terms).to_json()


def test_sl_cancel_needs_decreasing_t():
    series = RationalSeries(P("1"), (), "q", 10)
    for diff in (Multidegree(a=-2, q=4, t=1), Multidegree(a=-2, q=4, t=-2),
                 Multidegree(a=-2, t=-1), Multidegree(a=-2, q=4)):
        with pytest.raises(ValueError):
            sl_cancel(series, diff, 2)


def test_sl_cancel_needs_a_series_in_q_and_passes_zero_through():
    """A series expanded in ``t`` is refused, and a zero numerator gives the
    zero polynomial with the cutoff as its window."""
    diff = Multidegree(a=-2, q=4, t=-1)
    with pytest.raises(ValueError) as err:
        sl_cancel(RationalSeries(P("1"), (), "t", 10), diff, 2)
    assert str(err.value) == "sl_cancel needs a series expanded in q"
    survivors, window = sl_cancel(RationalSeries(P("0"), (Multidegree(q=2),), "q", 10),
                                  diff, 2, cutoff=12)
    assert survivors.is_zero() and window == 12


def test_sl_cancel_needs_denominators_of_nonnegative_a_degree():
    """A denominator of negative ``a``-degree makes expansion terms below the
    numerator's least ``a``-degree, which the window does not allow for:
    on this series the expansion in ``w`` would miss ``q*t^4 + q^-3*t^4``
    of the probe reference's window.  It is refused."""
    series = RationalSeries(P("a*q^2*t^-1 + a*q^-3*t^2 + 3*a*q^-2 + 2*q^3"),
                            (Multidegree(q=4, t=2), Multidegree(a=-2, q=4)), "q", 30)
    with pytest.raises(ValueError) as err:
        sl_cancel(series, Multidegree(a=-2, q=8, t=-1), 4, cutoff=11)
    assert str(err.value) == "sl_cancel needs denominators of nonnegative a-degree"


def _reference_sl_cancel(series, diff, n, cutoff):
    """``sl_cancel`` as it was before it expanded in ``w = q + 2n*t``: a
    probe expansion to ``cutoff`` for ``t_top``, then one to
    ``cutoff + 2n*(t_top - t_min + 1)`` in ``q``."""
    num = series.numerator
    if num.is_zero():
        return LaurentPoly.zero(), cutoff
    den_margin = max((int(md.e("q")) for md in series.denominators), default=0)
    a_min = int(num.min_degree("a")) if "a" in num.variables() else 0
    window = cutoff - 2 * den_margin - n * max(0, -a_min)
    if window < 0:
        raise UsageError(f"cutoff {cutoff} leaves no safe degrees")
    probe = series.expand(cutoff)
    t_top = max((md.e("t") for md in probe.terms), default=0)
    t_min = min((md.e("t") for md in num.terms), default=0)
    big = cutoff + int(diff.e("q")) * int(t_top - t_min + 1)
    survivors, _ = max_cancel(series.expand(big), diff, keep="early")
    collapsed = survivors.truncate("q", cutoff).substitute(
        "a", LaurentPoly.var("q", n))
    return collapsed.truncate("q", window), window


#: (key, colour) of every sl2 target (``unknot:1`` is also the unknot in
#: S1), the unknot in S3 and the trefoil in L2; the 2x2 trefoil only where
#: the reference takes about a second or less (``test_cli`` pins its
#: ``n = 2``, cutoff 16 output)
ORACLE_KEYS = [(key, [1] if key.endswith(":1") else [2]) for key in SL2_TARGETS]
ORACLE_KEYS += [("unknot:S3", [3]), ("3_1:L2", [1, 1])]
ORACLE_CASES = [(key, lam, n, cutoff) for key, lam in ORACLE_KEYS
                for n in (1, 2, 3, 4) for cutoff in (8, 16, 24, 30)]
ORACLE_CASES += [("3_1:2x2", [2, 2], n, 8) for n in (1, 2, 3, 4)]
ORACLE_CASES += [("3_1:2x2", [2, 2], 1, 16)]


def _outcome(fn, *args):
    try:
        return fn(*args)
    except UsageError as err:
        return str(err)


@pytest.mark.parametrize("key,lam,n,cutoff", ORACLE_CASES)
def test_sl_cancel_matches_probe_reference(key, lam, n, cutoff):
    """One expansion in ``w`` keeps exactly the survivors and the window of
    the probe-then-``big`` expansion in ``q``, or raises the same
    ``UsageError``."""
    knot = key.split(":")[0]
    series = rank_collapse_input(knot, lam)
    diff = Multidegree(a=-2, q=2 * n, t=-1)
    assert (_outcome(rank_collapse, knot, lam, n, cutoff)
            == _outcome(_reference_sl_cancel, series, diff, n, cutoff))


@pytest.mark.parametrize("key,lam", ORACLE_KEYS)
def test_t_top_bounds_the_probe(key, lam):
    """The knapsack bound is at least the largest ``t`` of the expansion to
    ``cutoff``, and on these series it is that largest ``t``."""
    for cutoff in (8, 16, 24, 30):
        series = rank_collapse_input(key.split(":")[0], lam)
        probe = series.expand(cutoff)
        assert _t_top(series, "t", cutoff) == max(
            (md._e("t") for md in probe.terms), default=0)


def _monomials(terms, tvar="t"):
    """The polynomial of ``((a, q, t), count)`` pairs, ``t`` named ``tvar``."""
    out = LaurentPoly.zero()
    for (a, q, t), c in terms:
        out = out + LaurentPoly.monomial(c, Multidegree({"a": a, "q": q, tvar: t}))
    return out


@st.composite
def small_series(draw):
    """A series in ``q`` of a few numerator terms in ``(a, q, t)``, with
    positive counts and ``a``-degrees down to -3, over one or two
    denominators of positive ``q``-degree and nonnegative ``t``- and
    ``a``-degree; a rank ``n`` in 1..4; and a cutoff whose window (see
    :func:`sl_cancel`) is -1, 0, 1 or 2, so that it sits at the edge where
    the window opens."""
    n = draw(st.integers(1, 4))
    exps = st.tuples(st.integers(-3, 1), st.integers(-3, 4), st.integers(-1, 2))
    num = _monomials(draw(st.lists(st.tuples(exps, st.integers(1, 3)),
                                   min_size=1, max_size=4)))
    dens = draw(st.lists(st.tuples(st.integers(0, 1), st.integers(1, 4), st.integers(0, 2)),
                         min_size=1, max_size=2))
    dens = tuple(Multidegree(a=a, q=q, t=t) for a, q, t in dens)
    a_min = min(num._exponents("a"))
    margin = 2 * max(md._e("q") for md in dens) + n * max(0, -a_min)
    cutoff = margin + draw(st.integers(-1, 2))
    return RationalSeries(num, dens, "q", 30), n, cutoff


@settings(derandomize=True, deadline=None, database=None, max_examples=150)
@given(small_series())
def test_sl_cancel_matches_probe_reference_on_random_series(case):
    """On random small series, with the window at its edge, the expansion in
    ``w`` and the column passes around it keep exactly the survivors and
    the window of the probe-then-``big`` expansion in ``q``, or raise the
    same ``UsageError``."""
    series, n, cutoff = case
    diff = Multidegree(a=-2, q=2 * n, t=-1)
    assert (_outcome(sl_cancel, series, diff, n, cutoff)
            == _outcome(_reference_sl_cancel, series, diff, n, cutoff))


def _t_top_by_products(series, tvar, cutoff):
    """The largest ``tvar``-degree of a numerator term of ``q``-degree at most
    ``cutoff`` times a product of denominator monomials that stays within
    ``cutoff``, every product enumerated; 0 when no numerator term is that
    low."""
    dens = series.denominators
    best = None
    for md in series.numerator.terms:
        room = cutoff - md._e("q")
        if room < 0:
            continue
        for ks in itertools.product(*[range(room // d._e("q") + 1) for d in dens]):
            if sum(k * d._e("q") for k, d in zip(ks, dens)) <= room:
                t = md._e(tvar) + sum(k * d._e(tvar) for k, d in zip(ks, dens))
                best = t if best is None else max(best, t)
    return 0 if best is None else best


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(st.sampled_from(["t", "tc"]),
       st.lists(st.tuples(st.tuples(st.integers(-2, 1), st.integers(-4, 8), st.integers(-3, 3)),
                          st.integers(1, 2)), min_size=1, max_size=5),
       st.lists(st.tuples(st.integers(1, 4), st.integers(-2, 3)), max_size=3),
       st.integers(-5, 12))
def test_t_top_matches_the_products_enumerated(tvar, terms, dens, cutoff):
    """:func:`_t_top`'s knapsack equals the brute force over numerator terms
    and products of denominator monomials, whether the numerator holds a
    term map or only exponent columns."""
    num = _monomials(terms, tvar)
    dens = tuple(Multidegree({"q": q, tvar: t}) for q, t in dens)
    want = _t_top_by_products(RationalSeries(num, dens, "q", 30), tvar, cutoff)
    columns, den, ints = num._columnar()
    for numerator in (num, LaurentPoly._carried(columns, ints, den)):
        assert _t_top(RationalSeries(numerator, dens, "q", 30), tvar, cutoff) == want
