"""Colored HOMFLY invariants: unknot products, torus knots, stable limits.

The unknot carrier is the hook-content product

    P^lambda(a, q) = prod_x (1 - a*q^content(x)) / (1 - q^hook(x)),

in which the rank specialization is ``a = q^N``.  The homological gradings
used elsewhere in this package square these variables: a fixture monomial
``a_h^(2i) q_h^(2j)`` corresponds to ``a^i q^j`` here.

Torus knots are summed by the plethysm formula

    P^lambda(T(n, m)) ~ sum_mu  w_mu * c^mu_(lambda,n) * P^mu(unknot)

over ``|mu| = n*|lambda|``, where the weight ``w_mu`` carries the framing
factor ``q^(-(m/n)*kappa(mu))``.  Because the hook-content product is the
*unbalanced* character, the weight also carries the bookkeeping monomial
``q^(n_stat(mu))`` that converts it to the balanced quantum dimension; the
leftover global monomial is fixed a posteriori by the rank-one constraint
``P(a=q, q) = 1``.  The framing ``m`` enters only through the weights.
The plethysm coefficients ``c_mu``, and for every ``mu`` its ``kappa``,
``n_stat``, contents and binomial exponents ``e_k`` below, with
``common``, depend on ``(lambda, n)`` alone: they are computed once per
pair and memoised, so a sweep over ``m`` (the stable limit) pays for the
plethysm once.

Over the common denominator ``prod_k (1 - q^k)^common[k]``, where
``common`` is the union of the hook multisets of every ``mu``, the sum's
numerator is ``sum_mu c_mu q^(W_mu) prod_cells (1 - a*q^content)
prod_k (1 - q^k)^e_k`` with ``e_k = (common - hooks(mu))[k]``.  It is built
by Kronecker substitution (Harvey, J. Symbolic Comput. 2009) in one Python
``int``: the coefficient of ``a^i q^j`` sits in a signed slot of ``B`` bits
at index ``i*L_q + j - q_lo``, for a stride of ``B`` per power of ``q`` and
``B*L_q`` per power of ``a``, where ``[q_lo, q_lo + L_q)`` holds every ``q``
exponent of every term.  Each factor is then one shift and one subtraction,
done in C, and the integer is unpacked once, by the signed-slot codec of
:mod:`knothom.kronecker` that exact division also uses.  ``B`` is the least
multiple of 8 with

    sum_mu |c_mu| * 2^(cells(mu) + sum_k e_k) < 2^(B-1),

which bounds every coefficient of the sum, since each binomial factor at
most doubles the sum of absolute values of a product's coefficients; so
no slot overflows, and the slot width involves no guess.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import cache
from math import gcd

from .errors import UsageError
from .kronecker import _slot_bits, _unpack
from .laurent import (
    DivisionError,
    LaurentPoly,
    Multidegree,
    RationalSeries,
)
from .models import aqt_projection, unknot_model
from .partitions import Partition
from .symmetric import plethysm_pn

_UNIT = Multidegree()
_ONE, _MINUS_ONE = Fraction(1), Fraction(-1)


def unknot_homfly(lam) -> RationalSeries:
    """Hook-content product for the colored unknot, in variables ``a, q``."""
    lam = lam if isinstance(lam, Partition) else Partition(lam)
    num, dens = LaurentPoly.one(), []
    for cell in lam.cells():
        num = num * (LaurentPoly.one() - LaurentPoly.monomial(
            1, Multidegree(a=1, q=lam.content(cell))))
        dens.append(Multidegree(q=lam.hook(cell)))
    return RationalSeries(num, dens)


def macdonald_dim(lam) -> RationalSeries:
    """Evaluation product ``prod (t^coleg - a*q^coarm)/(1 - q^arm t^(leg+1))``.

    At ``q = t`` it degenerates to ``q^n_stat(lam)`` times the hook-content
    product :func:`unknot_homfly`.  Arms can vanish, so the series is in ``t``.
    """
    lam = lam if isinstance(lam, Partition) else Partition(lam)
    num, dens = LaurentPoly.one(), []
    for cell in lam.cells():
        num = num * (
            LaurentPoly.monomial(1, Multidegree(t=lam.coleg(cell)))
            - LaurentPoly.monomial(1, Multidegree(a=1, q=lam.coarm(cell))))
        dens.append(Multidegree(q=lam.arm(cell), t=lam.leg(cell) + 1))
    return RationalSeries(num, dens, "t")


def unknot_super(lam) -> RationalSeries:
    """Positive-coefficient unknot superpolynomial product in ``a, q, t``.

    ``prod_x (1 + a^2 q^(2c) t^(2*coarm+1)) / (1 - q^(2h) t^(2*arm))``,
    expanded in ``q``: the Hilbert series of :func:`unknot_model` in the
    gradings ``(a, q, tc)``, with ``tc`` renamed ``t``.
    """
    return aqt_projection(unknot_model(lam).hilbert_series())


class NormalizationReport:
    """How a torus-knot polynomial was brought to canonical form.

    ``sl1`` tells whether the reduced quotient at ``a = q`` was a unit
    monomial, which the shift and sign then made 1; it is always ``False``
    for unreduced output.
    """

    def __init__(self, monomial_shift: Multidegree | None = None, sign: int = 1,
                 fractional_offset: Fraction = Fraction(0), sl1: bool = False):
        self.monomial_shift = Multidegree() if monomial_shift is None else monomial_shift
        self.sign = sign
        self.fractional_offset = fractional_offset
        self.sl1 = sl1


def _hook_multiset(mu: Partition) -> Counter:
    return Counter(mu.hook(c) for c in mu.cells())


@cache
def _torus_terms(lam: Partition, n: int):
    """The half of the plethysm sum that does not depend on the framing ``m``.

    Returns ``(common, terms)``, all tuples: ``common`` holds the ``(k,
    multiplicity)`` pairs of the union of the hook multisets of every
    ``mu`` in ``s_lam[p_n]``, ascending in ``k``, and ``terms`` one entry
    ``(c_mu, kappa(mu), n_stat(mu), contents, binomials)`` per ``mu``, with
    the contents of its cells and the ``k`` of every factor ``1 - q^k`` of
    ``common - hooks(mu)``.  Memoised per ``(lam, n)``, so a sweep over
    ``m`` computes the plethysm once.
    """
    common = Counter()
    items = []
    for mu, c in plethysm_pn(lam, n).items():
        hooks = _hook_multiset(mu)
        common |= hooks
        items.append((mu, c, hooks))
    terms = tuple((c, mu.kappa(), mu.n_stat(),
                   tuple([mu.content(x) for x in mu.cells()]),
                   tuple((common - hooks).elements()))
                  for mu, c, hooks in items)
    return tuple(sorted(common.items())), terms


def _packed_torus_sum(lam: Partition, n: int, m: int):
    """The plethysm-sum numerator packed into one ``int``.

    Returns ``(packed, (bits, q_lo, q_len), common, offset)``: ``packed``
    holds the coefficient of ``a^i q^j`` in the slot of ``bits`` bits at
    index ``i*q_len + j - q_lo`` (see the module docstring), with ``common``
    and ``offset`` as :func:`_torus_sum` returns them.  Only the weights
    depend on ``m``; the rest comes from :func:`_torus_terms`.
    """
    common, terms = _torus_terms(lam, n)
    bases, rests, lows, highs, bound = [], set(), [], [], 0
    for c, kappa, n_stat, contents, binomials in terms:
        # n * weight = -m*kappa + n*n_stat = n*base + r, with 0 <= r < n
        base, r = divmod(n * n_stat - m * kappa, n)
        bases.append(base)
        rests.add(r)
        bound += abs(c) << (len(contents) + len(binomials))
        lows.append(base + sum(x for x in contents if x < 0))
        highs.append(base + sum(x for x in contents if x > 0) + sum(binomials))
    if len(rests) != 1:
        raise ValueError("terms carry distinct fractional q-offsets: "
                         f"{sorted(Fraction(r, n) for r in rests)}")
    offset = Fraction(rests.pop(), n)
    bits = _slot_bits(bound)
    q_lo = min(lows)
    q_len = max(highs) - q_lo + 1
    packed = 0
    for base, (c, _, _, contents, binomials) in zip(bases, terms):
        # a content x shifts by q_len + x > 0 slots; starting at q^base
        # leaves room below for every negative content, since q_lo <= lows
        p = c << (bits * (base - q_lo))
        for k in binomials:
            p -= p << (bits * k)
        for x in contents:
            p -= p << (bits * (q_len + x))
        packed += p
    return packed, (bits, q_lo, q_len), Counter(dict(common)), offset


def _torus_sum(lam: Partition, n: int, m: int):
    """Shared numerator/denominator of the plethysm sum.

    Returns ``(total, common, offset)`` with the unreduced invariant equal
    to ``total / prod_k (1 - q^k)^common[k]`` times ``q^offset``, where
    ``offset`` in ``[0, 1)`` is the fractional ``q``-offset shared by every
    weight and ``total`` is the polynomial numerator of the module
    docstring, built packed and unpacked once.  ``total`` is held as its
    unpacked ``q`` and ``a`` exponent columns and ``int`` coefficients
    (``LaurentPoly._carried``): the first exact division reads those
    columns, and the ``Fraction`` term map is built only if ``terms`` is
    read.
    Weights with distinct fractional offsets raise ``ValueError``.  The
    framing ``m`` enters only through the weights: the plethysm
    coefficients, ``kappa``, ``n_stat``, contents and binomials of every
    ``mu``, and ``common``, come from the memo of :func:`_torus_terms` per
    ``(lam, n)``, and each call gets a fresh ``common``.
    """
    packed, (bits, q_lo, q_len), common, offset = _packed_torus_sum(lam, n, m)
    indices, values = _unpack(packed, bits)
    a_exps = [*map(q_len.__rfloordiv__, indices)]
    q_exps = [*map(q_lo.__add__, map(q_len.__rmod__, indices))]
    return LaurentPoly._carried([q_exps, a_exps], values), common, offset


@cache
def _one_minus(a: int, q: int) -> LaurentPoly:
    """``1 - a^a q^q`` as a two-term map of shared constants, memoised on
    the two ``int`` exponents: :func:`torus_homfly` builds each of its cell
    and binomial divisors once per process.  Polynomials are never mutated,
    so every call shares the one divisor, and its column view, built on
    its first division, is kept for the next."""
    return LaurentPoly._of({_UNIT: _ONE, Multidegree(a=a, q=q): _MINUS_ONE})


def match_up_to_monomial(p: LaurentPoly, target: LaurentPoly):
    """Monomial ``mu`` and sign ``s`` with ``p == s * mu * target``, or ``None``."""
    if p.is_zero() or target.is_zero():
        return None if p.terms != target.terms else (Multidegree(), 1)
    if len(p.terms) != len(target.terms):
        return None
    variables = sorted(set(p.variables()) | set(target.variables()))
    pmd, pc = max(((md, c) for md, c in p.terms.items()),
                  key=lambda kv: kv[0].key(variables))
    tmd, tc = max(((md, c) for md, c in target.terms.items()),
                  key=lambda kv: kv[0].key(variables))
    if pc not in (tc, -tc):
        return None
    shift, sign = pmd - tmd, 1 if pc == tc else -1
    if target.map_exponents(lambda md: md + shift) * sign == p:
        return shift, sign
    return None


def torus_homfly(lam, n: int, m: int, reduced=True):
    """Colored HOMFLY invariant of the ``(n, m)`` torus knot.

    Reduced output is a Laurent polynomial in ``a, q`` canonicalized so that
    ``P(a=q, q) == 1``; the applied monomial shift and sign live in the
    returned :class:`NormalizationReport`.  Unreduced output is a
    :class:`RationalSeries` in ``q`` (the invariant is an infinite series)
    without its factor ``q^offset``: the unreduced invariant is the series
    times ``q^report.fractional_offset``, an offset in ``[0, 1)`` that is
    ``1/2`` for ``T(2, 3)`` in ``S1``, so the series keeps integer exponents.

    The reduced invariant is the exact quotient of ``total * prod_(lam
    hooks) (1 - q^k)`` by ``prod_common (1 - q^k)`` times the unknot
    numerator ``prod_(cells of lam) (1 - a*q^content)``.  The hooks of
    ``lam`` cancel, and nothing is multiplied: ``common`` holds every one of
    them for each pair ``(lam, n)`` that :func:`plethysm_pn` accepts, which
    ``test_symmetric`` checks pair by pair.  The quotient is taken one
    factor at a time, every cell factor first and then the binomials
    ``1 - q^k`` of ``common - hooks(lam)`` in descending ``k``.  Any order
    is exact: the product of the divisors still to come divides each
    intermediate quotient, by unique factorisation in ``Z[a, q^+-1]``.
    This order is the cheap one, since a division costs in proportion to
    its dividend's exponent box: each cell factor removes an ``a``-row of
    the box, and a larger ``k`` shrinks the ``q``-span sooner.  An inexact
    input raises :class:`DivisionError`.  The quotient at ``a = q`` is read
    in one pass that sums its integer coefficients by ``a``- plus
    ``q``-exponent; the shift and sign apply when exactly one sum survives
    and it is ``+-1``.

    No term map is built here.  The numerator is handed to the first
    division as exponent columns, each division hands its quotient to the
    next as columns (see :meth:`LaurentPoly.divide_exact`), and the
    normalisation reads and shifts the last quotient's columns.  The
    returned polynomial builds its ``Fraction`` term map once, when its
    ``terms`` are first read; ``to_json`` writes it from its columns.
    """
    lam = lam if isinstance(lam, Partition) else Partition(lam)
    if gcd(n, m) != 1:
        raise UsageError(f"({n},{m}) are not coprime")
    total, common, offset = _torus_sum(lam, n, m)
    report = NormalizationReport(fractional_offset=offset)
    if not reduced:
        dens = []
        for k, e in sorted(common.items()):
            dens.extend([Multidegree(q=k)] * e)
        return RationalSeries(total, dens), report
    factors = [_one_minus(1, lam.content(cell)) for cell in lam.cells()]
    factors += [_one_minus(0, k)
                for k in sorted((common - _hook_multiset(lam)).elements(), reverse=True)]
    quotient = total
    try:
        for factor in factors:
            quotient = quotient.divide_exact(factor)
    except DivisionError as exc:
        raise DivisionError("non-polynomial reduced quotient") from exc
    # P(a=q, q): the quotient is in a and q alone, so a term's exponent
    # columns sum to its a- plus q-exponent; its coefficients are integers,
    # since every divisor is 1 - x^k
    columns, _, values = quotient._columnar()
    sums = {}
    for d, c in zip(map(sum, zip(*columns)), values):
        sums[d] = sums.get(d, 0) + c
    at_sl1 = [(d, c) for d, c in sums.items() if c]
    if len(at_sl1) == 1 and at_sl1[0][1] in (1, -1):
        ((d, sign),) = at_sl1
        shift = Multidegree(q=-d)
        # the q column moves: a shift is one-to-one, so no two terms meet
        quotient = LaurentPoly._carried([[*map((-d).__add__, columns[0])], *columns[1:]],
                                        values if sign > 0 else [-c for c in values])
        report.sign = sign
        report.monomial_shift = shift
        report.sl1 = True
    return quotient, report


def stable_limit_check(lam, n: int, m_list, order=10):
    """Compare normalized ``T(m, n)`` invariants against the ``n*lam`` unknot.

    Each unreduced invariant is aligned to ``unknot_homfly(n*lam)`` by a
    single monomial fixed at the lowest ``q``-slice and expanded to
    ``order``.  Its agreement order is the highest ``q``-degree of the
    target, at most ``order``, below the lowest ``q``-degree at which the
    two differ, or -1 if there is none.  Returns a report whose agreement
    orders must be nondecreasing in ``m`` (the stable-limit property).
    """
    lam = lam if isinstance(lam, Partition) else Partition(lam)
    target = unknot_homfly(lam.scale(n)).expand(order + 1)
    q_degrees = set(target._exponents("q"))
    rows = []
    for m in m_list:
        if gcd(n, m) != 1:
            raise UsageError(f"({n},{m}) not coprime")
        fr, _ = torus_homfly(lam, n, m, reduced=False)
        approx = fr.expand(order + 1 + _alignment_pad(fr))
        shifted = _align_lowest(approx, target)
        agree = -1
        if shifted is not None:
            differs = min((shifted - target)._exponents("q"), default=order + 1)
            agree = max([d for d in q_degrees if d <= order and d < differs], default=-1)
        rows.append({"m": m, "agreement_order": agree})
    orders = [r["agreement_order"] for r in rows]
    return {
        "n": n,
        "color": lam,
        "order": order,
        "rows": rows,
        "nondecreasing": all(x <= y for x, y in zip(orders, orders[1:])),
    }


def _alignment_pad(fr: RationalSeries) -> int:
    return max(0, -min(fr.numerator._exponents("q"), default=0))


def _align_lowest(p: LaurentPoly, target: LaurentPoly):
    """Shift ``p`` by the monomial matching its lowest q-term to the target's."""
    if p.is_zero() or target.is_zero():
        return None
    def lowest(poly):
        qmin = min(poly._exponents("q"))
        slice_ = poly.coefficient_of("q", qmin)
        amin = min(slice_._exponents("a"))
        return Multidegree(q=qmin, a=amin), slice_.coefficient_of("a", amin).coefficient_sum()
    pmd, pc = lowest(p)
    tmd, tc = lowest(target)
    if tc not in (pc, -pc):
        return None
    shift = tmd - pmd
    return p.map_exponents(lambda md: md + shift) * (1 if tc == pc else -1)


# -- Hirota bilinear identity -----------------------------------------------------


def _rect_unknot_factors(R: int, S: int):
    """Balanced factor multisets of the ``R x S`` unknot product.

    Numerator keys are contents (factor ``a*q^k - a^-1*q^-k``), denominator
    keys are hooks (factor ``q^h - q^-h``).
    """
    rect = Partition([S] * R)
    return Counter(rect.content(c) for c in rect.cells()), _hook_multiset(rect)


def _num_factor(k: int) -> LaurentPoly:
    return (LaurentPoly.monomial(1, Multidegree(a=1, q=k))
            - LaurentPoly.monomial(1, Multidegree(a=-1, q=-k)))


def _den_factor(h: int) -> LaurentPoly:
    return LaurentPoly.var("q", h) - LaurentPoly.var("q", -h)


def _counter_ratio_poly(delta_num: Counter, delta_den: Counter):
    """Split signed factor multisets into an (expanded) fraction ``N / D``."""
    N, D = LaurentPoly.one(), LaurentPoly.one()
    for k, e in delta_num.items():
        if e > 0:
            N = N * _num_factor(k) ** e
        elif e < 0:
            D = D * _num_factor(k) ** (-e)
    for h, e in delta_den.items():
        if e > 0:
            D = D * _den_factor(h) ** e
        elif e < 0:
            N = N * _den_factor(h) ** (-e)
    return N, D


def _cross_ratio(up, down, base):
    """``P_up * P_down / P_base^2`` as an expanded fraction ``(N, D)``, from
    the ``(contents, hooks)`` multisets of :func:`_rect_unknot_factors`,
    whose shared factors cancel before anything is multiplied out."""
    deltas = []
    for u, d, b in zip(up, down, base):
        delta = u + d
        delta.subtract(b)
        delta.subtract(b)
        deltas.append(delta)
    return _counter_ratio_poly(*deltas)


def hirota_check(Rmax: int, Smax: int):
    """Verify ``P^2 = P_up*P_down + P_left*P_right`` for unknot rectangle products.

    The boundary convention is ``P_(0,S) = P_(R,0) = 1``.  Exact: the two
    cross ratios ``X`` and ``Y`` are formed by multiset cancellation of the
    shared binomial factors and the identity ``X + Y = 1`` is cleared of
    denominators.  Failures are reported, not raised.
    """
    results = []
    for R in range(1, Rmax + 1):
        for S in range(1, Smax + 1):
            base = _rect_unknot_factors(R, S)
            NX, DX = _cross_ratio(_rect_unknot_factors(R + 1, S),
                                  _rect_unknot_factors(R - 1, S), base)
            NY, DY = _cross_ratio(_rect_unknot_factors(R, S + 1),
                                  _rect_unknot_factors(R, S - 1), base)
            ok = NX * DY + NY * DX == DX * DY
            results.append(((R, S), ok))
    return results
