"""The full structural verification suite, as named, independent checks.

Every check is one row of a table: its name and a thunk that computes it.
A group returns its rows, in report order, without computing anything or
loading any fixture.  A thunk returns ``ok``, ``(ok, detail)``, or ``None``
when only its loaded fixture shows that the check does not apply.
:func:`run_group` and :func:`run_all` alone select rows by name, with a
predicate ``wanted``, and call the selected thunks, so a selection such as
``knothom check all --fixture 3_1:S2`` costs only the checks it selects;
:func:`run_all` reports them sorted by name, so the output is canonical
regardless of evaluation order.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, partial
from math import gcd

from .laurent import LaurentPoly, Multidegree, RationalSeries, parse_poly, series_log
from .partitions import Partition, catalan_count, parse_color, partitions_of
from .invariants import (
    hirota_check,
    macdonald_dim,
    match_up_to_monomial,
    stable_limit_check,
    torus_homfly,
    unknot_homfly,
    unknot_super,
)
from .models import (
    extend_potential,
    macaulay_basis,
    potential_antisym,
    poly_substitute,
    scheme_presentation,
    scheme_relations,
    split_potential_check,
    torus_potential,
)
from .checks import (
    DifferentialSpec,
    check_delta_thin,
    check_differential,
    check_growth,
    check_hfk_growth,
    check_mirror,
    check_self_symmetry,
    colored_differential,
    rank_collapse,
)
from .fixtures import (
    DIFFERENTIALS,
    HOMOLOGY_FIXTURES,
    KNOTS,
    PRINTED_DEGREES,
    PRINTED_SURVIVORS,
    fixture_name,
    load_fixture,
)
from .bottom import bottom_poincare, qbinom, row_count, trefoil_recursion_check, vortex_character


class CheckResult:
    """The verdict of one named check, with a detail shown on failure."""

    def __init__(self, name: str, ok: bool, detail: str = ""):
        self.name = name
        self.ok = ok
        self.detail = detail

    def line(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        return f"{status} {self.name}" + (f"  [{self.detail}]" if self.detail
                                          and not self.ok else "")


# -- fixture-level checks -----------------------------------------------------------


def _dimension(name):
    fix = load_fixture(name)
    return (fix.poincare.dimension() == fix.dimension,
            f"{fix.poincare.dimension()} != {fix.dimension}")


def _categorification(name):
    fix = load_fixture(name)
    lhs, rhs = fix.specializations()
    return lhs == rhs and (fix.homfly is None or lhs == fix.homfly)


def _self_symmetry(name):
    fix = load_fixture(name)
    if not (fix.is_rectangular() and fix.quadruple()):
        return None
    return check_self_symmetry(fix.tilde(), fix.R, fix.S)


def dimension_rows():
    return {f"dimension:{n}": partial(_dimension, n) for n in HOMOLOGY_FIXTURES}


def categorification_rows():
    return {f"categorification:{n}": partial(_categorification, n)
            for n in HOMOLOGY_FIXTURES}


def self_symmetry_rows():
    return {f"self-symmetry:{n}": partial(_self_symmetry, n)
            for n in HOMOLOGY_FIXTURES}


def _mirror(a, b):
    fa, fb = load_fixture(a), load_fixture(b)
    return check_mirror(fa.tilde(), fb.tilde(), fa.R, fa.S)


def _mirror_hook():
    p = load_fixture("3_1:2_1").poincare
    return p.regrade({"q": {"q": -1}, "t": {"t": 1, "q": -1}}) == p


def mirror_rows():
    pairs = [("3_1:S2", "3_1:L2"), ("3_1:2x2", "3_1:2x2"),
             ("3_1:1", "3_1:1"), ("4_1:1", "4_1:1"), ("T3_4:1", "T3_4:1")]
    rows = {f"mirror:{a}~{b}": partial(_mirror, a, b) for a, b in pairs}
    rows["mirror:3_1:2_1"] = _mirror_hook
    return rows


def _delta(name, thin):
    fix = load_fixture(name)
    ok, deltas = check_delta_thin(fix.poincare, fix.color.size(), fix.sigma)
    got = ok if thin else (not ok)
    return got, (f"deltas {deltas}" if not got else "")


def delta_rows():
    return {f"delta:{name}": partial(_delta, name, thin)
            for name, thin in [("3_1:S2", True), ("4_1:S2", True), ("T3_4:S2", False),
                               ("3_1:1", True), ("4_1:1", True)]}


def _growth(name, base, side):
    """The growth of ``name`` over ``base``, to the power of the ratio of
    their colour sizes."""
    fix, bfix = load_fixture(name), load_fixture(base)
    exponent = fix.color.size() // bfix.color.size()
    return check_growth(fix.tilde(), bfix.tilde(), exponent, side)


def growth_rows():
    return {f"growth:{name}": partial(_growth, name, base, side)
            for name, base, side in [
                ("3_1:S2", "3_1:1", "tr"),
                ("4_1:S2", "4_1:1", "tr"),
                ("T3_4:S2", "T3_4:1", "tr"),
                ("3_1:2x2", "3_1:L2", "tr"),
            ]}


def _differential(fname, kind, param):
    fix = load_fixture(fname)
    spec = colored_differential(kind, fix.R, fix.S, param, fix.sigma)
    printed = PRINTED_DEGREES.get((fname, spec.name))
    if printed is not None:
        want = Multidegree(printed)
        got = Multidegree({v: spec.degree._e(v) for v in printed})
        if want != got:
            return False, f"degree {got!r} != printed {want!r}"
    rows, cols = spec.target
    target = (load_fixture(fixture_name(fix.knot, Partition([cols] * rows))).poincare
              if rows and cols else LaurentPoly.one())
    project = None if "tr" in fix.gradings else fix.gradings
    ok, _ = check_differential(fix.poincare, target, spec, project=project)
    surv = PRINTED_SURVIVORS.get((fname, spec.name))
    if ok and surv is not None:
        _, image = spec.regrade(LaurentPoly.one()).as_monomial()
        want = Multidegree(surv)
        ok = all(image._e(v) == want._e(v) for v in surv)
    return ok


def differential_rows():
    """One row per registered differential, named by its label; a
    canceling one's target is the unit, another's is the fixture of its
    target rectangle."""
    rows = {}
    for (knot, R, S), diffs in DIFFERENTIALS.items():
        fname = fixture_name(knot, Partition([S] * R))
        for kind, param in diffs:
            label = colored_differential(kind, R, S, param).name
            rows[f"differential:{fname}:{label}"] = partial(
                _differential, fname, kind, param)
    return rows


HFK_DEGREE = Multidegree(a=-2, Q=0, tr=-3, tc=-5)


def _hfk_growth():
    t34, d12 = load_fixture("T3_4:S2"), load_fixture("T3_4:S2:d1|2")
    d11 = load_fixture("T3_4:1:d1|1").poincare
    d11 = d11.regrade({"t": {"tr": 1}, "tr": {}, "tc": {}})
    ok, survivors = check_hfk_growth(t34.tilde(), d11, 2, HFK_DEGREE)
    return ok and survivors == d12.tilde()


def _hfk_differential():
    t34, d12 = load_fixture("T3_4:S2"), load_fixture("T3_4:S2:d1|2")
    ok, _ = check_differential(t34.tilde(), d12.tilde(),
                               DifferentialSpec("d1|2", HFK_DEGREE))
    return ok


def hfk_rows():
    return {"hfk-growth:T3_4:S2": _hfk_growth,
            "differential:T3_4:S2:d1|2": _hfk_differential}


# -- invariant-level checks ---------------------------------------------------------


def _hook_macdonald():
    ok = True
    for n in range(1, 7):
        for parts in partitions_of(n):
            lam = Partition(parts)
            md = macdonald_dim(lam)
            num = md.numerator.substitute("t", LaurentPoly.var("q"))
            den = md.denominator().substitute("t", LaurentPoly.var("q"))
            u = unknot_homfly(lam)
            shift = LaurentPoly.var("q", lam.n_stat())
            ok = ok and num * u.denominator() == shift * u.numerator * den
    s1, s2 = unknot_super([1]), unknot_super([2])
    ok = ok and s1.numerator == parse_poly("1 + a^2*t")
    ok = ok and s1.denominator() == parse_poly("1 - q^2")
    ok = ok and s2.numerator == parse_poly("(1 + a^2*t)*(1 + a^2*q^2*t^3)")
    ok = ok and s2.denominator() == parse_poly("(1 - q^2)*(1 - q^4*t^2)")
    return ok


def hook_macdonald_rows():
    return {"hook-macdonald": _hook_macdonald}


ROSSO_JONES_CASES = ["3_1:S2", "3_1:L2", "3_1:2x2", "3_1:3x2", "3_1:2_1", "T3_4:S2"]


def _halved_homfly(fix) -> LaurentPoly:
    """Fixture HOMFLY specialization mapped to hook variables (a^2->a, q^2->q)."""
    half = Fraction(1, 2)
    try:
        return fix.homfly_specialization().regrade({"a": {"a": half}, "q": {"q": half}})
    except ValueError as err:
        raise ValueError(f"odd exponent in {fix.name} specialization") from err


def _rosso_jones(fname):
    fix = load_fixture(fname)
    p, report = torus_homfly(fix.color, *KNOTS[fix.knot])
    ok = match_up_to_monomial(p, _halved_homfly(fix)) is not None
    if len(fix.color.parts) == 1:
        # single-row colors exist over sl(1), so the canonical form is
        # pinned by P(a=q, q) = 1 there
        ok = ok and report.sl1
    return ok, ("" if ok else "no monomial match")


def rosso_jones_rows():
    return {f"rosso-jones:{name}": partial(_rosso_jones, name)
            for name in ROSSO_JONES_CASES}


def _stable_limit():
    rep = stable_limit_check([1], 2, [5, 7, 9], order=10)
    orders = [r["agreement_order"] for r in rep["rows"]]
    ok = rep["nondecreasing"] and all(
        o >= m - 2 for o, m in zip(orders, [5, 7, 9]))
    return ok, f"orders {orders}"


def _hirota():
    bad = [rs for rs, ok in hirota_check(4, 4) if not ok]
    return not bad, f"failed at {bad}"


def stable_rows():
    return {"stable-limit:T(2,m)": _stable_limit}


def hirota_rows():
    return {"hirota:unknot": _hirota}


# -- scheme and potential checks ------------------------------------------------------


def _scheme_dim(basis, p, q, r, dim):
    mb = basis(p, q, r)
    return mb.dimension() == dim, f"dim {mb.dimension()}"


def _scheme_bottom():
    bottom = macaulay_basis(scheme_presentation(3, 4, 2, with_forms=False))
    paper25 = {
        "1", "u3", "u3^2", "u3^3", "u3^4", "u3^5", "u3^6",
        "u4", "u3*u4", "u3^2*u4", "u3^3*u4", "u3^4*u4",
        "u5", "u3*u5", "u3^2*u5", "u3^3*u5",
        "u6", "u3*u6", "u3^2*u6", "u3^3*u6",
        "u4^2", "u3*u4^2", "u3^2*u4^2", "u5^2", "u4^3",
    }
    return set(bottom.monomial_names()) == paper25


def scheme_rows():
    # the M(2,3,2) basis serves three checks: computed once, when wanted
    basis = cache(lambda p, q, r: macaulay_basis(scheme_presentation(p, q, r)))

    def dims(*cases):
        return {f"scheme-dim:M({p},{q},{r})": partial(_scheme_dim, basis, p, q, r, dim)
                for p, q, r, dim in cases}

    return {
        **dims((2, 3, 1, 3), (2, 3, 2, 9), (2, 3, 3, 27)),
        "scheme-basis:M(2,3,2)": lambda: set(basis(2, 3, 2).monomial_names()) == {
            "1", "u3", "u4", "u3^2", "du3", "du4", "u3*du3", "u3*du4", "du3*du4"},
        "scheme-poincare:M(2,3,2)": lambda: basis(2, 3, 2).poincare(
            ("a", "q", "tr")) == parse_poly(
            "1 + q^6*tr^2 + q^8*tr^2 + q^12*tr^4 + a^2*q^4*tr^3 + a^2*q^6*tr^3"
            " + a^2*q^10*tr^5 + a^2*q^12*tr^5 + a^4*q^10*tr^6"),
        **dims((3, 4, 1, 11), (3, 4, 2, 121)),
        "scheme-bottom:M(3,4,2)": _scheme_bottom,
    }


def _log_coefficient(k: int) -> LaurentPoly:
    """The ``z^4`` coefficient of the truncated series ``ln(1 + u_1 z + ... +
    u_k z^k)``, the route that ``potential_antisym`` skips."""
    base = parse_poly(" + ".join(["1", *(f"u{i}*z^{i}" for i in range(1, k + 1))]))
    return series_log(base, 4).coefficient_of("z", 4)


def potential_rows():
    w = cache(lambda k: potential_antisym(k, 3).body)
    zero = LaurentPoly.zero()
    return {
        "potential:L1,3": lambda: w(1) == parse_poly("-u1^4")/4 == _log_coefficient(1),
        "potential:L2,3": lambda: w(2) == parse_poly("-u1^4")/4
        + parse_poly("u1^2*u2") - parse_poly("u2^2")/2 == _log_coefficient(2),
        "potential:split-example": lambda: w(2) == -w(1) - parse_poly("(u2 - u1^2)^2")/2,
        "potential:split-quadratic": lambda: all(
            split_potential_check(k, j)[0] for k, j in [(2, 1), (3, 1), (3, 2)]),
        "potential:W(3_1,S1)": lambda: poly_substitute(
            torus_potential(2, 3, 1).body, {"u1": zero})
        == Fraction(5, 16) * parse_poly("u2^3"),
        "potential:W(8_19,S1)": lambda: poly_substitute(
            torus_potential(3, 4, 1).body, {"u1": zero})
        == parse_poly("-7*u2^4")/243 + parse_poly("14*u2*u3^2")/27,
        "potential:W(3_1,S2)": lambda: poly_substitute(
            torus_potential(2, 3, 2).body, {"u1": zero})
        == Fraction(5, 256) * parse_poly(
            "u3*(3*u2^4 - 8*u2*u3^2 - 24*u2^2*u4 + 48*u4^2)"),
        "potential:derivative-ideals": _derivative_ideals,
        "potential:extension-2L2": lambda: extend_potential(
            potential_antisym(2, 3), 2).body == parse_poly(
            "-u1_1^3*u1_2 + u1_1^2*u2_2 + 2*u1_1*u1_2*u2_1 - u2_1*u2_2"),
    }


def _derivative_ideals():
    """The derivatives of each torus potential span its scheme's relations."""
    ok = True
    for (p, q, r) in [(2, 3, 1), (2, 3, 2), (3, 4, 1)]:
        W = torus_potential(p, q, r)
        rels = scheme_relations(p, q, r, reduced=False)
        ders = [W.body.derivative(f"u{i}") for i in range(1, r * p + 1)]
        ders = [d for d in ders if not d.is_zero()]
        scaled = [Fraction(p + q, p) * rel for rel in rels]
        ok = ok and sorted(map(str, ders)) == sorted(map(str, scaled))
    return ok


# -- counting and bottom row ----------------------------------------------------------


def _fixture_rows():
    ok = True
    for name in ("3_1:1", "T3_4:1"):
        fix = load_fixture(name)
        (p, q), amin = KNOTS[fix.knot], min(fix.poincare._exponents("a"))
        for k in range(0, p):
            row = fix.poincare.coefficient_of("a", amin + 2 * k)
            ok = ok and row.dimension() == row_count(p, q, k)
    return ok


def counting_rows():
    return {
        "counting:fixture-rows": _fixture_rows,
        "counting:bottom-dimensions": lambda: all(
            bottom_poincare(p, q, r).dimension() == catalan_count(p, q) ** r
            for p in range(1, 6) for q in range(1, 6) for r in (1, 2, 3)
            if gcd(p, q) == 1),
    }


def _vortex_trefoil():
    v12 = vortex_character(1, 2)
    printed = parse_poly("q^-2*(1 + q^3*t^2 + q^4*t^2 + q^6*t^4)")
    # the nested sum at p = 1, m = 2 from the q-binomial polynomials:
    # q^(5k - 2k - 2) t^(2k) [2, k] over k = 0, 1, 2
    summed = sum((qbinom(2, k) * parse_poly(f"q^{3 * k - 2}*t^{2 * k}") for k in range(3)),
                 LaurentPoly.zero())
    return (v12.numerator == printed == summed
            and list(v12.denominators) == [Multidegree(q=1), Multidegree(q=2)])


def _trefoil_recursion():
    bad = [m for m, ok_m, _ in trefoil_recursion_check(6) if not ok_m]
    return not bad, f"failed {bad}"


def vortex_rows():
    return {"vortex:S2-trefoil": _vortex_trefoil,
            "vortex:trefoil-recursion": _trefoil_recursion}


# -- rank-collapse cancellation --------------------------------------------------------

SL2_TARGETS = {
    "unknot:1": ("q^-1 + q", None),
    "unknot:S2": ("q^-2 + 1", "q^2*t^2*(1 + q^4*t)"),
    "3_1:1": ("q + q^3 + q^5*t^2 + q^9*t^3", None),
    "3_1:S2": (
        "q^2 + q^4 + q^6*t^2 + q^10*t^3 + q^8*t^4 + q^10*t^4 + q^12*t^5"
        " + q^14*t^5 + q^14*t^7 + q^16*t^7 + q^14*t^8 + q^18*t^9 + q^20*t^11"
        " + q^24*t^12 + q^10*t^6 + q^12*t^6",
        "q^14*t^8*(1 + q^4*t)",
    ),
    "4_1:1": ("q^5*t^2 + q*t + q + q^-1 + q^-1*t^-1 + q^-5*t^-2", None),
    "4_1:S2": (
        "q^-14*t^-8 + q^-10*t^-7 + q^-8*t^-5 + q^-8*t^-4 + q^-4*t^-4"
        " + q^-6*t^-3 + q^-4*t^-3 + q^-6*t^-2 + q^-4*t^-2 + q^-2*t^-2"
        " + q^-4*t^-1 + 2*q^-2*t^-1 + t^-1 + q^-2 + 2 + q^2"
        " + t + 2*q^2*t + q^4*t + q^2*t^2 + q^4*t^2 + q^6*t^2"
        " + q^4*t^3 + q^6*t^3 + q^4*t^4 + q^8*t^4 + q^8*t^5 + q^10*t^7"
        " + q^14*t^8 + q^-2 + 1",
        "q^2*t^2*(1 + q^4*t)",
    ),
}

#: tail factor shared by all the rank-2 fixed points: 1/(1 - q^4 t^2)
SL2_TAIL = Multidegree(q=4, t=2)


def _sl2_expected(key, window):
    poly_str, tail_str = SL2_TARGETS[key]
    base = parse_poly(poly_str)
    if tail_str:
        tail = RationalSeries(parse_poly(tail_str), (SL2_TAIL,), "q", window)
        base = base + tail.expand()
    return base.truncate("q", window)


#: the figure-eight S^2 table in the source is provably unreachable by any
#: degree-(-2,4,-1) pairing of its own stated input (its two printed forms
#: also disagree with each other); the canonical maximal cancellation agrees
#: with it through q^9 and differs beyond by exactly this polynomial
SL2_41S2_KNOWN_GAP = "-q^10*t^6 - q^10*t^7"


def _sl2(key):
    """The rank-2 collapse of ``key``, ``<knot>:<colour>``, in the colour
    its name spells."""
    knot, color = key.split(":")
    survivors, window = rank_collapse(knot, parse_color(color), 2, cutoff=30)
    expected = _sl2_expected(key, window)
    if key == "4_1:S2":
        gap = survivors - expected
        ok = (window >= 10
              and gap.truncate("q", 9).is_zero()
              and gap == parse_poly(SL2_41S2_KNOWN_GAP))
        return ok, "known tabulation defect beyond q^9"
    return survivors == expected, f"window {window}"


def sl2_rows():
    return {f"sl2:{key}": partial(_sl2, key) for key in SL2_TARGETS}


# -- driver -------------------------------------------------------------------------

CHECK_GROUPS = {
    "dimensions": dimension_rows,
    "categorification": categorification_rows,
    "self-symmetry": self_symmetry_rows,
    "mirror": mirror_rows,
    "delta": delta_rows,
    "growth": growth_rows,
    "differentials": differential_rows,
    "hfk": hfk_rows,
    "hook-macdonald": hook_macdonald_rows,
    "rosso-jones": rosso_jones_rows,
    "stable": stable_rows,
    "hirota": hirota_rows,
    "schemes": scheme_rows,
    "potentials": potential_rows,
    "counting": counting_rows,
    "vortex": vortex_rows,
    "sl2": sl2_rows,
}


def _every(name) -> bool:
    """The default selection: every check."""
    return True


def run_group(name, wanted=_every):
    """The checks of one group whose names ``wanted`` accepts, in group
    order; a check whose thunk finds it not applicable is left out."""
    results = []
    for check, thunk in CHECK_GROUPS[name]().items():
        if not wanted(check):
            continue
        outcome = thunk()
        if outcome is None:
            continue
        ok, detail = outcome if isinstance(outcome, tuple) else (outcome, "")
        results.append(CheckResult(check, bool(ok), detail))
    return results


def run_all(wanted=_every):
    """The checks of every group whose names ``wanted`` accepts, by name."""
    results = [r for name in CHECK_GROUPS for r in run_group(name, wanted)]
    return sorted(results, key=lambda r: r.name)
