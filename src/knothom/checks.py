"""Structural checks on quadruply-graded superpolynomials.

Everything here operates on Laurent polynomials whose monomials record
generator degrees: a generator of degree ``(i, j, k, l)`` in the gradings
``(a, q, tr, tc)`` is the monomial ``a^i q^j tr^k tc^l``, and coefficients
count generators with multiplicity.

The auxiliary grading ``Q = (q + tr - tc) / R`` replaces ``q`` in the
"tilde" regrading, in which the self-symmetry and mirror maps are plain
monomial substitutions.  Differentials known only by their multidegree are
checked through nonnegative witness division: a differential of degree ``d``
cancels generator pairs ``x, x*d``, so the difference between a homology and
the surviving part must be ``(1 + monomial(d))`` times a nonnegative
polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import UsageError
from .laurent import (
    LaurentPoly,
    Multidegree,
    RationalSeries,
    max_cancel,
    nonneg_divisibility,
)
from .models import unknot_model
from .partitions import Partition


# -- tilde regrading ----------------------------------------------------------------


def to_tilde(p: LaurentPoly, R: int) -> LaurentPoly:
    """Replace the ``q``-grading by ``Q = (q + tr - tc)/R``.

    Raises when some monomial has ``q + tr - tc`` not divisible by ``R``,
    naming the offender.
    """
    def fn(md):
        num = md.e("q") + md.e("tr") - md.e("tc")
        Q = num / R
        if Q.denominator != 1:
            raise ValueError(
                f"monomial a^{md.e('a')} q^{md.e('q')} tr^{md.e('tr')} "
                f"tc^{md.e('tc')}: (q + tr - tc) = {num} is not divisible by {R}")
        return Multidegree(a=md.e("a"), Q=Q, tr=md.e("tr"), tc=md.e("tc"))

    return p.map_exponents(fn)


def from_tilde(p: LaurentPoly, R: int) -> LaurentPoly:
    """Inverse of :func:`to_tilde`: ``q = R*Q - tr + tc``."""
    def fn(md):
        return Multidegree(
            a=md.e("a"), q=R * md.e("Q") - md.e("tr") + md.e("tc"),
            tr=md.e("tr"), tc=md.e("tc"))

    return p.map_exponents(fn)


# -- symmetries ---------------------------------------------------------------------


def self_symmetry_image(p: LaurentPoly, R: int, S: int) -> LaurentPoly:
    """Image under ``(i,j,k,l) -> (i,-j,k-Rj,l-Sj)`` in tilde gradings."""
    def fn(md):
        j = md.e("Q")
        return Multidegree(a=md.e("a"), Q=-j, tr=md.e("tr") - R * j,
                           tc=md.e("tc") - S * j)

    return p.map_exponents(fn)


def check_self_symmetry(p_tilde: LaurentPoly, R: int, S: int) -> bool:
    return self_symmetry_image(p_tilde, R, S) == p_tilde


def mirror_swap(p_tilde: LaurentPoly) -> LaurentPoly:
    """Exchange the two homological gradings."""
    def fn(md):
        return Multidegree(a=md.e("a"), Q=md.e("Q"), tr=md.e("tc"),
                           tc=md.e("tr"))

    return p_tilde.map_exponents(fn)


def mirror_composite_image(p_tilde: LaurentPoly, R: int, S: int) -> LaurentPoly:
    """The transpose-color polynomial via grading flip and swap combined.

    Composing the grading swap with the self-symmetry of the ``R x S``
    theory, a generator at ``(i, j, k, l)`` contributes to the transpose
    theory at ``(i, -j, l - Sj, k - Rj)``.
    """
    def fn(md):
        j = md.e("Q")
        return Multidegree(a=md.e("a"), Q=-j, tr=md.e("tc") - S * j,
                           tc=md.e("tr") - R * j)

    return p_tilde.map_exponents(fn)


def check_mirror(p_tilde_lam: LaurentPoly, p_tilde_lamt: LaurentPoly,
                 R: int, S: int) -> bool:
    """Both forms of the mirror relation between a color and its transpose."""
    plain = mirror_swap(p_tilde_lam) == p_tilde_lamt
    composite = mirror_composite_image(p_tilde_lam, R, S) == p_tilde_lamt
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
    return {md.e("a") + md.e("q") / 2 - (md.e("tr") + md.e("tc")) / 2
            for md in p.terms}


def check_delta_thin(p: LaurentPoly, r: int, sigma: int):
    """Whether all generators share delta = r*sigma/2.

    Returns ``(is_thin, deltas)``; a thick homology reports its spread.
    """
    deltas = delta_degrees(p)
    expected = Fraction(r * sigma, 2)
    return (len(deltas) == 1 and expected in deltas), sorted(deltas)


# -- colored differentials ----------------------------------------------------------

KINDS = ("+row", "+col", "-row", "-col", "up", "left")


def colored_degree(kind: str, R: int, S: int, param: int = 0) -> Multidegree:
    """The ``(a,q,tr,tc)``-degree of a row/column-removing differential.

    ``param`` is the number of rows (columns) kept: ``0`` gives the
    canceling differentials.  The two universal differentials take no
    parameter.
    """
    k = l = param
    if kind == "+row":
        if not 0 <= k < R:
            raise ValueError("need 0 <= k < R")
        return Multidegree(a=-2, q=2 * R + 2 * k, tr=-2 * k - 1, tc=-1)
    if kind == "+col":
        if not 0 <= l < S:
            raise ValueError("need 0 <= l < S")
        return Multidegree(a=-2, q=2 * R - 2 * l, tr=-1, tc=-2 * l - 1)
    if kind == "-row":
        if not 0 <= k < R:
            raise ValueError("need 0 <= k < R")
        return Multidegree(a=-2, q=2 * k - 2 * S, tr=-2 * k - 2 * R - 1,
                           tc=-2 * S - 1)
    if kind == "-col":
        if not 0 <= l < S:
            raise ValueError("need 0 <= l < S")
        return Multidegree(a=-2, q=-2 * l - 2 * S, tr=-2 * R - 1,
                           tc=-2 * l - 2 * S - 1)
    if kind == "up":
        return Multidegree(q=2, tr=-2)
    if kind == "left":
        return Multidegree(q=2, tc=2)
    raise ValueError(f"unknown differential kind {kind!r}")


def _target_Q(md: Multidegree, target_R: int) -> Fraction:
    if target_R == 0:
        if not md.is_zero():
            raise ValueError("empty-color target admits only the unit generator")
        return Fraction(0)
    Q = (md.e("q") + md.e("tr") - md.e("tc")) / target_R
    if Q.denominator != 1:
        raise ValueError(f"target monomial fails Q-integrality: {md!r}")
    return Q


def colored_regrade(kind: str, R: int, S: int, param: int, sigma: int):
    """Exponent map sending target-homology degrees into the source homology.

    Implements the explicit hat-formula regradings of the removal
    isomorphisms: the returned function maps the ``(a,q,tr,tc)`` exponents of
    a generator of the smaller-color homology to the degrees of the matching
    surviving generator upstairs.
    """
    k = l = param
    if kind in ("+row", "-row"):
        target_R = k
    elif kind in ("-col", "+col", "left"):
        target_R = R
    elif kind == "up":
        target_R = 1
    else:
        raise ValueError(f"unknown differential kind {kind!r}")

    def fn(md):
        a = md.e("a")
        tr, tc = md.e("tr"), md.e("tc")
        Q = _target_Q(md, target_R)
        # the hat formulas fix (a, Q, tr, tc); the q-hat follows from
        # q = R*Q - tr + tc in the source theory, which keeps the five
        # printed degrees mutually consistent
        if kind == "+row":
            hat = dict(a=a + S * (R - k) * sigma,
                       Q=Q - S * (R - k) * sigma,
                       tr=tr + (R - k) * Q + S * k * (R - k) * sigma,
                       tc=tc)
        elif kind == "+col":
            hat = dict(a=a + R * (S - l) * sigma,
                       Q=Q - R * (S - l) * sigma,
                       tr=tr,
                       tc=tc + (S - l) * Q + R * l * (S - l) * sigma)
        elif kind == "-row":
            hat = dict(a=a + S * (R - k) * sigma,
                       Q=Q + S * (R - k) * sigma,
                       tr=tr + S * (R - k) * (R + k) * sigma,
                       tc=tc + S * S * (R - k) * sigma)
        elif kind == "-col":
            hat = dict(a=a + R * (S - l) * sigma,
                       Q=Q + R * (S - l) * sigma,
                       tr=tr + R * R * (S - l) * sigma,
                       tc=tc + R * (S - l) * (S + l) * sigma)
        elif kind == "up":
            hat = dict(a=2 * a, Q=2 * Q, tr=4 * tr, tc=2 * tc)
        elif kind == "left":
            hat = dict(a=2 * a, Q=2 * Q, tr=2 * tr, tc=4 * tc)
        else:
            raise AssertionError
        return Multidegree(
            a=hat["a"], q=R * hat["Q"] - hat["tr"] + hat["tc"],
            tr=hat["tr"], tc=hat["tc"])

    return fn


@dataclass
class DifferentialSpec:
    """A differential known by its multidegree, with an optional regrade map."""

    name: str
    degree: Multidegree
    regrade: object = None  # callable Multidegree -> Multidegree

    @classmethod
    def colored(cls, kind, R, S, param, sigma, name=None):
        return cls(
            name or f"{kind}:{param}",
            colored_degree(kind, R, S, param),
            colored_regrade(kind, R, S, param, sigma),
        )


def project_gradings(p: LaurentPoly, variables) -> LaurentPoly:
    """Forget all gradings not listed (multiplicities accumulate)."""
    return p.map_exponents(
        lambda md: Multidegree({v: md.e(v) for v in variables}))


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
        degree = Multidegree({v: degree.e(v) for v in project})
    residual = src - mapped
    witness = nonneg_divisibility(residual, degree)
    if witness is None:
        return False, residual
    return True, witness


def cancel_homology(p: LaurentPoly, degree: Multidegree,
                    keep="late") -> LaurentPoly:
    """Survivors of the maximal pairwise cancellation along ``degree``.

    Homology tables for the knot-Floer-like differentials place ambiguous
    survivors at the late end of each cancellation ray, hence the default.
    """
    survivors, _ = max_cancel(p, degree, keep=keep)
    return survivors


def check_hfk_growth(p_tilde: LaurentPoly, uncolored_d11: LaurentPoly,
                     r: int, degree_tilde: Multidegree):
    """Maximal cancellation followed by the one-grading power comparison.

    ``p_tilde`` is the tilde-graded symmetric homology, ``uncolored_d11`` the
    uncolored homology surviving the parity differential, as a polynomial in
    ``(a, q, t)``.  Returns ``(ok, survivors)``.
    """
    survivors = cancel_homology(p_tilde, degree_tilde)
    collapsed = survivors.map_exponents(
        lambda md: Multidegree(a=md.e("a"), q=md.e("Q"), t=md.e("tr")))
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


def rank_collapse_input(key: str, lam, order=30) -> RationalSeries:
    """Unreduced series in ``(a, q, t)`` with ``t`` the column grading.

    ``key`` names a fixture, or ``unknot:*`` for the unknot itself.
    """
    from .fixtures import load_fixture  # fixtures imports this module

    if key.startswith("unknot:"):
        reduced = LaurentPoly.one()
    else:
        reduced = load_fixture(key).standard()
    series = unreduced_from_reduced(reduced, lam, order)

    def to_aqt(md):
        return Multidegree(a=md.e("a"), q=md.e("q"), t=md.e("tc"))

    return RationalSeries(series.numerator.map_exponents(to_aqt),
                          tuple(map(to_aqt, series.denominators)), "q", order)


def sl_cancel(series: RationalSeries, diff: Multidegree, n: int,
              cutoff=30):
    """Rank-``n`` collapse of an unreduced series by maximal cancellation.

    Removes a maximum matching of generator pairs differing by ``diff``,
    substitutes ``a -> q^n`` and truncates to the degrees unaffected by the
    cutoff.  The cancellation rays descend in the homological grading, so the
    series is internally expanded far enough that every ray meeting the
    reported window is complete; ambiguous survivors then sit at the early
    end of their rays, matching the tabulated computations.  Returns
    ``(survivors, window)``.
    """
    tvar = "t" if diff.e("t") != 0 else "tc"
    if diff.e(tvar) >= 0:
        raise ValueError("cancellation direction must decrease the t-grading")
    num = series.numerator
    if num.is_zero():
        return LaurentPoly.zero(), cutoff
    den_margin = max((int(md.e("q")) for md in series.denominators), default=0)
    a_min = int(num.min_degree("a")) if "a" in num.variables() else 0
    window = cutoff - 2 * den_margin - n * max(0, -a_min)
    if window < 0:
        raise UsageError(f"cutoff {cutoff} leaves no safe degrees")
    probe = series.expand(cutoff)
    t_top = max((md.e(tvar) for md in probe.terms), default=0)
    t_min = min((md.e(tvar) for md in num.terms), default=0)
    step_q = int(diff.e("q"))
    big = cutoff + step_q * int(t_top - t_min + 1)
    expansion = series.expand(big)
    survivors, _ = max_cancel(expansion, diff, keep="early")
    survivors = survivors.truncate("q", cutoff)
    collapsed = survivors.substitute("a", LaurentPoly.var("q", n))
    return collapsed.truncate("q", window), window


def rank_collapse(key: str, lam, n: int, cutoff=30):
    """Rank-``n`` collapse of the unreduced series of ``key`` in colour
    ``lam``: :func:`rank_collapse_input` to order ``cutoff + 4``, then
    :func:`sl_cancel` along the differential of degree ``a^-2 q^(2n) t^-1``.
    Returns ``(survivors, window)``.  ``knothom cancel`` and the suite's
    ``sl2`` checks both run this.
    """
    series = rank_collapse_input(key, lam, cutoff + 4)
    return sl_cancel(series, Multidegree(a=-2, q=2 * n, t=-1), n, cutoff=cutoff)
