"""Structural checks on quadruply-graded superpolynomials.

Everything here operates on Laurent polynomials whose monomials record
generator degrees: a generator of degree ``(i, j, k, l)`` in the gradings
``(a, q, tr, tc)`` is the monomial ``a^i q^j tr^k tc^l``, and coefficients
count generators with multiplicity.

The auxiliary grading ``Q = (q + tr - tc) / R`` replaces ``q`` in the
"tilde" regrading, defined once by :func:`knothom.fixtures._to_tilde_degree`
and its inverse, in which the self-symmetry and mirror maps are
integer-linear maps of the exponents, each one ``LaurentPoly.regrade``.
Differentials known only by their multidegree are checked through
nonnegative witness division: a differential of degree ``d`` cancels
generator pairs ``x, x*d``, so the difference between a homology and the
surviving part must be ``(1 + monomial(d))`` times a nonnegative polynomial.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache

from .errors import UsageError
from .laurent import LaurentPoly, Multidegree, RationalSeries, max_cancel, nonneg_divisibility
from .fixtures import _from_tilde_degree, _to_tilde_degree, fixture_name, load_fixture
from .models import aqt_projection, unknot_model
from .partitions import Partition


# -- symmetries ---------------------------------------------------------------------


def self_symmetry_image(p: LaurentPoly, R: int, S: int) -> LaurentPoly:
    """Image under ``(i,j,k,l) -> (i,-j,k-Rj,l-Sj)`` in tilde gradings."""
    return p.regrade({"Q": {"Q": -1}, "tr": {"tr": 1, "Q": -R}, "tc": {"tc": 1, "Q": -S}})


def check_self_symmetry(p_tilde: LaurentPoly, R: int, S: int) -> bool:
    return self_symmetry_image(p_tilde, R, S) == p_tilde


def mirror_swap(p_tilde: LaurentPoly) -> LaurentPoly:
    """Exchange the two homological gradings."""
    return p_tilde.regrade({"tr": {"tc": 1}, "tc": {"tr": 1}})


def check_mirror(p_tilde_lam: LaurentPoly, p_tilde_lamt: LaurentPoly,
                 R: int, S: int) -> bool:
    """Both forms of the mirror relation between a color and its transpose.

    The plain form swaps the two homological gradings.  The composite form
    swaps them after the self-symmetry of the ``R x S`` theory, so a
    generator at ``(i, j, k, l)`` contributes to the transpose theory at
    ``(i, -j, l - Sj, k - Rj)``.
    """
    plain = mirror_swap(p_tilde_lam) == p_tilde_lamt
    composite = mirror_swap(self_symmetry_image(p_tilde_lam, R, S)) == p_tilde_lamt
    return plain and composite


def check_growth(p_tilde: LaurentPoly, base_tilde: LaurentPoly,
                 exponent: int, side="tr") -> bool:
    """Refined exponential growth: kill one homological grading and compare powers."""
    drop = "tc" if side == "tr" else "tr"
    one = LaurentPoly.one()
    lhs = p_tilde.substitute(drop, one)
    rhs = base_tilde.substitute(drop, one) ** exponent
    return lhs == rhs


def delta_degrees(p: LaurentPoly):
    """The set of values ``a + q/2 - (tr + tc)/2`` over the monomials."""
    return {Fraction(2 * md._e("a") + md._e("q") - md._e("tr") - md._e("tc"), 2)
            for md in p.terms}


def check_delta_thin(p: LaurentPoly, r: int, sigma: int):
    """Whether all generators share delta = r*sigma/2.

    Returns ``(is_thin, deltas)``; a thick homology reports its spread.
    """
    deltas = delta_degrees(p)
    expected = Fraction(r * sigma, 2)
    return (len(deltas) == 1 and expected in deltas), sorted(deltas)


# -- colored differentials ----------------------------------------------------------

#: One definition per kind of colored differential of an ``R x S`` colour
#: (``R`` rows of ``S`` boxes) that keeps ``k`` rows or columns, as a map of
#: ``(R, S, k)`` to ``(bound, degree, hat, target, label)``: ``k`` must lie
#: in ``range(bound)``, so a universal kind takes only ``k = 0``; ``degree``
#: is in ``(a, q, tr, tc)``; ``hat(sigma, a, Q, tr, tc)`` sends a target
#: generator's ``(a, Q, tr, tc)`` to the surviving generator's upstairs;
#: ``target`` is the ``(rows, cols)`` of the surviving colour, empty when
#: ``k = 0`` cancels; ``label`` is the paper's name.
_KINDS = {
    "+row": lambda R, S, k: (
        R, (-2, 2 * R + 2 * k, -2 * k - 1, -1),
        lambda s, a, Q, tr, tc: (a + S * (R - k) * s, Q - S * (R - k) * s,
                                 tr + (R - k) * Q + S * k * (R - k) * s, tc),
        (k, S), f"d{R + k}|0"),
    "+col": lambda R, S, l: (
        S, (-2, 2 * R - 2 * l, -1, -2 * l - 1),
        lambda s, a, Q, tr, tc: (a + R * (S - l) * s, Q - R * (S - l) * s,
                                 tr, tc + (S - l) * Q + R * l * (S - l) * s),
        (R, l), f"d{R}|{l}"),
    "-row": lambda R, S, k: (
        R, (-2, 2 * k - 2 * S, -2 * k - 2 * R - 1, -2 * S - 1),
        lambda s, a, Q, tr, tc: (a + S * (R - k) * s, Q + S * (R - k) * s,
                                 tr + S * (R - k) * (R + k) * s,
                                 tc + S * S * (R - k) * s),
        (k, S), f"d{k}|{S}"),
    "-col": lambda R, S, l: (
        S, (-2, -2 * l - 2 * S, -2 * R - 1, -2 * l - 2 * S - 1),
        lambda s, a, Q, tr, tc: (a + R * (S - l) * s, Q + R * (S - l) * s,
                                 tr + R * R * (S - l) * s,
                                 tc + R * (S - l) * (S + l) * s),
        (R, l), f"d0|{S + l}"),
    "up": lambda R, S, k: (
        1, (0, 2, -2, 0), lambda s, a, Q, tr, tc: (2 * a, 2 * Q, 4 * tr, 2 * tc),
        (1, S), "d^"),
    "left": lambda R, S, k: (
        1, (0, 2, 0, 2), lambda s, a, Q, tr, tc: (2 * a, 2 * Q, 2 * tr, 4 * tc),
        (R, S - 1), "d<-"),
}


class DifferentialSpec:
    """A differential known by its multidegree, with an optional regrade map
    ``regrade: Multidegree -> Multidegree`` and, for a colored one, the
    ``(rows, cols)`` of its ``target`` colour."""

    def __init__(self, name: str, degree: Multidegree, regrade=None, target=None):
        self.name = name
        self.degree = degree
        self.regrade = regrade
        self.target = target


def colored_differential(kind: str, R: int, S: int, param: int = 0,
                         sigma: int = 0) -> DifferentialSpec:
    """The row/column-removing differential ``kind`` of the ``R x S`` colour
    (:data:`_KINDS`): its label, ``(a,q,tr,tc)``-degree, regrade and target.

    ``param`` is the number of rows (columns) kept: ``0`` gives the
    canceling differentials; the two universal differentials take none.
    Only the regrade reads ``sigma``: it maps the ``(a,q,tr,tc)`` exponents
    of a generator of the target homology to the degrees of the matching
    surviving generator upstairs.  It reads the target in the tilde
    gradings of its ``rows`` (:func:`knothom.fixtures._to_tilde_degree`);
    the hat formulas fix ``(a, Q, tr, tc)``, and the source's ``q`` follows
    from the inverse regrading with ``R`` rows, which keeps the five printed
    degrees mutually consistent.
    """
    if kind not in _KINDS:
        raise ValueError(f"unknown differential kind {kind!r}")
    bound, degree, hat, target, label = _KINDS[kind](R, S, param)
    if not 0 <= param < bound:
        raise ValueError(f"{kind} needs 0 <= k < {bound}, got {param}")
    rows = target[0]

    def regrade(md):
        tilde = _to_tilde_degree(md, rows or 1)
        if not rows and not md.is_zero():
            raise ValueError("empty-color target admits only the unit generator")
        a, Q, tr, tc = hat(sigma, *(tilde._e(v) for v in ("a", "Q", "tr", "tc")))
        return _from_tilde_degree(Multidegree(a=a, Q=Q, tr=tr, tc=tc), R)

    return DifferentialSpec(label, Multidegree(zip(("a", "q", "tr", "tc"), degree)),
                            regrade, target)


def project_gradings(p: LaurentPoly, variables) -> LaurentPoly:
    """Forget all gradings not listed (multiplicities accumulate)."""
    return p.regrade({v: {} for v in p.variables() if v not in variables})


def check_differential(source: LaurentPoly, target: LaurentPoly,
                       spec: DifferentialSpec, project=None):
    """Witness that ``source`` cancels down to the regraded ``target``.

    Applies the regrade to the target, optionally projects both sides to a
    grading subset, and divides the residual by ``1 + monomial(degree)``
    demanding a nonnegative witness.  Returns ``(ok, witness_or_residual)``.
    """
    mapped = target if spec.regrade is None else target.map_exponents(spec.regrade)
    src = source
    degree = spec.degree
    if project:
        mapped = project_gradings(mapped, project)
        src = project_gradings(src, project)
        degree = Multidegree({v: degree._e(v) for v in project})
    residual = src - mapped
    witness = nonneg_divisibility(residual, degree)
    if witness is None:
        return False, residual
    return True, witness


def check_hfk_growth(p_tilde: LaurentPoly, uncolored_d11: LaurentPoly,
                     r: int, degree_tilde: Multidegree):
    """Maximal cancellation followed by the one-grading power comparison.

    ``p_tilde`` is the tilde-graded symmetric homology, ``uncolored_d11`` the
    uncolored homology surviving the parity differential, as a polynomial in
    ``(a, q, t)``.  Returns ``(ok, survivors)``.
    """
    survivors, _ = max_cancel(p_tilde, degree_tilde, keep="late")
    collapsed = survivors.regrade({"q": {"Q": 1}, "t": {"tr": 1}, "Q": {}, "tr": {}, "tc": {}})
    return collapsed == uncolored_d11 ** r, survivors


# -- unreduced homology and rank-collapse cancellation ------------------------------


def unreduced_from_reduced(reduced: LaurentPoly, lam,
                           order=30) -> RationalSeries:
    """Multiply by the free unknot-model series ``(q/a)^|lam| * prod(...)``.

    The unknot factor is ``prod (1 + mono(deg xi)) / (1 - mono(deg u))`` over
    the model generators, normalized to leading term ``(a^-1 q)^|lam|``.
    """
    lam = lam if isinstance(lam, Partition) else Partition(lam)
    shift = LaurentPoly.monomial(1, Multidegree(a=-lam.size(), q=lam.size()))
    return unknot_model(lam).hilbert_series(order) * (reduced * shift)


def rank_collapse_input(knot: str, lam) -> RationalSeries:
    """Unreduced series of ``knot`` in colour ``lam``, in ``(a, q, t)`` with
    ``t`` the column grading.

    ``knot`` is ``"unknot"`` or a fixture knot, whose table is the fixture
    :func:`knothom.fixtures.fixture_name` names for ``lam``.  The series
    carries the default order; :func:`sl_cancel` sets its own.  It is
    memoised per ``(knot, Partition)`` (:func:`_collapse_input`), so a sweep
    over ``n`` and the cutoff builds it once; every caller shares the one
    series and must not mutate it.
    """
    return _collapse_input(knot, lam if isinstance(lam, Partition) else Partition(lam))


@cache
def _collapse_input(knot: str, lam: Partition) -> RationalSeries:
    if knot == "unknot":
        reduced = LaurentPoly.one()
    else:
        reduced = load_fixture(fixture_name(knot, lam)).poincare
    return aqt_projection(unreduced_from_reduced(reduced, lam))


def _t_top(series: RationalSeries, tvar: str, cutoff) -> int:
    """A bound on the ``tvar``-degree of every term of ``q``-degree at most
    ``cutoff`` in the expansion of ``series``, which must expand in ``q``.

    ``reach[r]`` is the largest ``tvar``-degree of a product of denominator
    monomials of ``q``-degree at most ``r`` (an unbounded knapsack).  A
    monomial of ``tvar``-degree at most 0 never raises it, since leaving it
    out lowers the ``q``-degree, so only the others are packed, each any
    number of times, over ascending ``r``.  A term of the
    expansion is a numerator term times such a product, so the bound is the
    largest ``t(x) + reach[cutoff - q(x)]`` over numerator terms ``x`` with
    ``q(x) <= cutoff``, read from the numerator's ``q`` and ``tvar``
    exponents (``_exponents``); it ignores cancellation, so it may exceed
    the largest ``tvar``-degree the expansion really has.  It is 0 when no
    numerator term is that low.
    """
    num = series.numerator
    low = [(q, t) for q, t in zip(num._exponents("q"), num._exponents(tvar)) if q <= cutoff]
    if not low:
        return 0
    reach = [0] * (cutoff - min(q for q, _ in low) + 1)
    for q, t in {(md._e("q"), md._e(tvar)) for md in series.denominators}:
        for r in range(q, len(reach)) if t > 0 else ():
            if reach[r - q] + t > reach[r]:
                reach[r] = reach[r - q] + t
    return max(t + reach[cutoff - q] for q, t in low)


def sl_cancel(series: RationalSeries, diff: Multidegree, n: int,
              cutoff=30):
    """Rank-``n`` collapse of an unreduced series by maximal cancellation.

    Removes a maximum matching of generator pairs differing by ``diff``,
    substitutes ``a -> q^n`` and truncates to the degrees unaffected by the
    cutoff.  ``diff`` must lower the homological grading ``t`` by one and
    raise ``q`` by some ``s > 0``, and ``series`` must expand in ``q`` over
    denominators of nonnegative ``a``-degree, so that no term of the
    expansion has an ``a``-degree below the numerator's least, ``a_min``.
    Every cancellation ray then lies in one level of ``w = q + s*t``, and a
    denominator of nonnegative ``t``-degree has positive ``w``-degree (the
    regraded series rejects any other), so the series is expanded exactly
    in ``w`` through ``top = e + s*t_top``, with ``t_top`` the bound of
    :func:`_t_top` on the ``t``-degree of every term of ``q``-degree at most
    ``e = cutoff - 2*den_margin``.  That expansion holds every term the
    output reads, with its ray complete: the window is
    ``e - n*max(0, -a_min)``, so a term of ``a``-degree ``a >= a_min``
    lands in it under ``a -> q^n`` only if its ``q``-degree is at most
    ``e``; then its ``t``-degree is at most ``t_top`` and its ``w``-degree
    at most ``top``, and its ray lies in that one ``w``-level.  The
    expansion is cancelled in ``w`` along the image of ``diff``, which fixes
    ``w``; only the survivors are mapped back to ``q`` (:func:`_collapsed`).
    Ambiguous survivors sit at the early end of their rays, matching the
    tabulated computations.

    ``a_min`` is the least of the numerator's ``a`` exponents
    (``_exponents``), and the lift to ``w`` is the
    :meth:`~LaurentPoly.regrade` ``q -> q + s*t``, which is one to one, so
    no degrees meet and no rows are summed.  The lifted numerator, the
    expansion, the survivors and the result are each handed on in exponent
    columns, with ``int`` counts, so no term map is built after the
    input's.  Returns ``(survivors, window)``.
    """
    tvar = "t" if diff._e("t") else "tc"
    step_q = diff._e("q")
    if diff._e(tvar) != -1 or step_q <= 0:
        raise ValueError("cancellation direction must lower t by one and raise q")
    if series.var != "q":
        raise ValueError("sl_cancel needs a series expanded in q")
    if any(md._e("a") < 0 for md in series.denominators):
        raise ValueError("sl_cancel needs denominators of nonnegative a-degree")
    a_exps = series.numerator._exponents("a")
    if not a_exps:
        return LaurentPoly.zero(), cutoff
    den_margin = max((md._e("q") for md in series.denominators), default=0)
    a_min = min(a_exps)
    edge = cutoff - 2 * den_margin
    window = edge - n * max(0, -a_min)
    if window < 0:
        raise UsageError(f"cutoff {cutoff} leaves no safe degrees")
    top = edge + step_q * _t_top(series, tvar, edge)
    lift = Multidegree(q=step_q)
    regraded = RationalSeries(
        series.numerator.regrade({"q": {"q": 1, tvar: step_q}}),
        tuple(md._shift(lift, md._e(tvar)) for md in series.denominators),
        "q", top)
    survivors, _ = max_cancel(regraded.expand(), diff._shift(lift, diff._e(tvar)),
                              keep="early")
    return _collapsed(survivors, tvar, step_q, n, cutoff, window), window


def _collapsed(survivors: LaurentPoly, tvar: str, step_q: int, n: int, cutoff, window):
    """The survivors of :func:`sl_cancel` back in ``q``, through ``q^cutoff``,
    then with ``a -> q^n`` through ``q^window``: four column passes
    (:meth:`~LaurentPoly.regrade` and :meth:`~LaurentPoly.truncate`).
    ``q' = q - step_q*tvar`` undoes the lift ``w = q + step_q*tvar``, one to
    one, and ``q'' = q' + n*a`` substitutes ``a``, summing the terms that
    meet; a term is kept when ``q' <= cutoff`` and ``q'' <= window``.  Both
    cuts stay, so that the result is exact on any survivors: the first
    follows from the second only where no term's ``a``-degree is below the
    least that the window allows for.  No term map is built, and the input
    is left as it was."""
    back = survivors.regrade({"q": {"q": 1, tvar: -step_q}}).truncate("q", cutoff)
    return back.regrade({"q": {"q": 1, "a": n}, "a": {}}).truncate("q", window)


def rank_collapse(knot: str, lam, n: int, cutoff=30):
    """Rank-``n`` collapse of the unreduced series of ``knot`` in colour
    ``lam``: :func:`rank_collapse_input`, then :func:`sl_cancel` along the
    differential of degree ``a^-2 q^(2n) t^-1``.  Returns ``(survivors,
    window)``.  ``knothom cancel`` and the suite's ``sl2`` checks both run
    this.
    """
    series = rank_collapse_input(knot, lam)
    return sl_cancel(series, Multidegree(a=-2, q=2 * n, t=-1), n, cutoff=cutoff)
