"""Oracles for the packed plethysm sum ``invariants._torus_sum``.

The sum is built as one Kronecker-packed integer and unpacked once.  These
tests check it three ways: by value at integer points against an exact
rational evaluation of the Rosso-Jones sum, term by term against the
general-product loop it replaced (kept here as ``_reference_torus_sum``),
and, for the packing itself, on hand-packed slots at the edges of the slot
range and against the proven slot-width bound.  The signed-slot codec
(``laurent._pack`` and ``laurent._unpack``) is the one exact division uses.
The half of the sum that does not depend on ``m`` is memoised per ``(lam,
n)``; the memo is pinned to one plethysm per sweep over ``m`` and to a fresh
``common`` per call.  The ``sl(1)`` normalisation of ``torus_homfly`` is
checked against ``LaurentPoly.substitute`` on the benchmark's pool.
"""

from collections import Counter
from fractions import Fraction

import pytest

from knothom import invariants
from knothom.invariants import (
    _hook_multiset,
    _packed_torus_sum,
    _torus_sum,
    torus_homfly,
    unknot_homfly,
)
from knothom.laurent import LaurentPoly, Multidegree, _pack as _pack_slots, _unpack
from knothom.partitions import Partition, partitions_of
from knothom.symmetric import PLETHYSM_SIZE_CAP, plethysm_pn

KNOTS = [(2, 3), (2, 5), (2, 7), (3, 4), (3, 5), (4, 5)]
#: every colour under the plethysm cap on each knot
SWEEP = [(Partition(parts), n, m)
         for n, m in KNOTS
         for size in range(1, PLETHYSM_SIZE_CAP // n + 1)
         for parts in partitions_of(size)]
#: the torus knots of the benchmark's torus-table pool
POOL_KNOTS = [(2, 3), (2, 5), (2, 7), (2, 9), (3, 4), (3, 5), (3, 7), (4, 5)]
#: its 56 colours, |lam| * n <= 8
POOL = [(Partition(parts), n, m)
        for n, m in POOL_KNOTS
        for size in range(1, 8 // n + 1)
        for parts in partitions_of(size)]
#: integer points (a, q) away from the zeros of every (1 - q^k)
POINTS = [(2, 3), (-3, 2), (5, -2)]


def _case_id(case):
    lam, n, m = case
    return f"{''.join(map(str, lam.parts))}-T{n},{m}"


def _reference_torus_sum(lam, n, m):
    """The plethysm sum as a loop of general ``LaurentPoly`` products.

    Each weight ``q^(-(m/n) kappa(mu) + n_stat(mu))`` is reduced by the
    offset that all weights share mod 1 before it becomes a monomial, so
    every exponent is an integer."""
    common = Counter()
    items = []
    for mu, c in plethysm_pn(lam, n).items():
        hooks = _hook_multiset(mu)
        common |= hooks
        items.append((mu, c, hooks, -Fraction(m, n) * mu.kappa() + mu.n_stat()))
    offsets = {w % 1 for *_, w in items}
    assert len(offsets) == 1, f"weights with distinct offsets: {sorted(offsets)}"
    offset = offsets.pop()
    total = LaurentPoly.zero()
    for mu, c, hooks, w in items:
        weight = LaurentPoly.monomial(c, Multidegree(q=w - offset))
        num = unknot_homfly(mu).numerator
        comp = LaurentPoly.one()
        for k, e in (common - hooks).items():
            comp = comp * (LaurentPoly.one() - LaurentPoly.var("q", k)) ** e
        total = total + weight * num * comp
    return total, common, offset


def _evaluate(p: LaurentPoly, points) -> list:
    """``p(a, q)`` exactly at each point, for a polynomial in ``a`` and ``q``."""
    low = int(p.min_degree("q"))
    terms = [(int(md.e("a")), int(md.e("q")) - low, int(c))
             for md, c in p.terms.items()]
    return [sum(c * a ** i * q ** j for i, j, c in terms) * Fraction(q) ** low
            for a, q in points]


def _rosso_jones_value(coeffs, n, m, offset, a, q) -> Fraction:
    """``sum_mu c_mu q^(W_mu) prod (1 - a q^content) prod_k (1 - q^k)^e_k``
    at the point ``(a, q)``, over the Schur coefficients ``coeffs`` of the
    plethysm, with ``W_mu = -(m/n) kappa(mu) + n_stat(mu) - offset`` and
    ``e_k`` the hooks of the union that ``mu`` lacks."""
    hooks = {mu: Counter(mu.hook(x) for x in mu.cells()) for mu in coeffs}
    union = Counter()
    for h in hooks.values():
        union |= h
    q = Fraction(q)
    total = Fraction(0)
    for mu, c in coeffs.items():
        w = Fraction(-m * mu.kappa(), n) + mu.n_stat() - offset
        assert w.denominator == 1
        term = c * q ** int(w)
        for x in mu.cells():
            term *= 1 - a * q ** mu.content(x)
        for k, e in (union - hooks[mu]).items():
            term *= (1 - q ** k) ** e
        total += term
    return total


@pytest.mark.parametrize("case", SWEEP, ids=_case_id)
def test_torus_sum_at_integer_points(case):
    lam, n, m = case
    total, common, offset = _torus_sum(lam, n, m)
    assert 0 <= offset < 1
    coeffs = plethysm_pn(lam, n)
    union = Counter()
    for mu in coeffs:
        union |= Counter(mu.hook(x) for x in mu.cells())
    assert common == union
    assert _evaluate(total, POINTS) == [
        _rosso_jones_value(coeffs, n, m, offset, a, q) for a, q in POINTS]


@pytest.mark.parametrize("case", [c for c in SWEEP if c[0].size() * c[1] <= 8],
                         ids=_case_id)
def test_torus_sum_matches_product_loop(case):
    got = _torus_sum(*case)
    want = _reference_torus_sum(*case)
    assert got[0].terms == want[0].terms
    assert got[1:] == want[1:]


@pytest.mark.parametrize("case", SWEEP, ids=_case_id)
def test_slot_width_meets_bound(case):
    """``sum |c_mu| 2^(cells + binomials) < 2^(B-1)`` for the slot width
    ``B``, the least multiple of 8 that meets it."""
    lam, n, m = case
    packed, (bits, q_lo, q_len), common, _ = _packed_torus_sum(lam, n, m)
    coeffs = plethysm_pn(lam, n)
    bound = 0
    for mu, c in coeffs.items():
        factors = mu.size() + sum((common - _hook_multiset(mu)).values())
        bound += abs(c) * 2 ** factors
    assert bits % 8 == 0
    assert bound < 2 ** (bits - 1)
    assert bits == 8 or bound >= 2 ** (bits - 9)
    largest = max(map(abs, _unpack(packed, bits)[1]))
    assert largest <= bound


def _pack(coeffs, bits, q_lo, q_len):
    """``sum c * 2^(bits * (i*q_len + j - q_lo))`` over ``{(i, j): c}``."""
    return sum(c << bits * (i * q_len + j - q_lo) for (i, j), c in coeffs.items())


@pytest.mark.parametrize("q_lo", [-2, 5])
@pytest.mark.parametrize("bits", [8, 16, 24])
@pytest.mark.parametrize("coeffs", [
    # extreme slots, both signs, beside a zero slot at (0, 1)
    {(0, 0): 1, (0, 2): -1, (1, 0): 1, (1, 2): 1, (2, 1): -1},
    # negative leading slot: the packed integer is negative
    {(0, 0): 1, (2, 2): -1},
    {(0, 0): -1, (1, 1): -1, (2, 1): -1},
    # small values, in the top slot of the first row only
    {(0, 2): 3},
    {},
], ids=["extremes", "negative-lead", "all-negative", "small", "zero"])
def test_unpack_signed_slots(coeffs, bits, q_lo):
    """The signed-slot codec of ``laurent`` against packing by shifts, on
    three rows of three slots.  Slots ``(i, j)`` count ``q`` from ``q_lo``; a
    value of 1 stands for the largest slot value ``2^(bits-1) - 1``.  Widths
    of 8 and 16 bits read slots through a ``memoryview``, 24 bits by slices.
    ``_pack`` takes the indices and the values as two sequences, in any
    order, and ``_unpack`` gives back the nonzero slots as two lists, the
    indices ascending."""
    top = 2 ** (bits - 1) - 1
    coeffs = {(i, j + q_lo): c * top if abs(c) == 1 else c
              for (i, j), c in coeffs.items()}
    packed = _pack(coeffs, bits, q_lo, 3)
    if coeffs and coeffs[max(coeffs)] < 0:
        assert packed < 0
    slots = {i * 3 + j - q_lo: c for (i, j), c in coeffs.items()}
    assert _pack_slots(list(slots), list(slots.values()), bits, 9) == packed
    assert _pack_slots(list(slots)[::-1], list(slots.values())[::-1], bits, 9) == packed
    indices, values = _unpack(packed, bits)
    assert type(indices) is list and type(values) is list
    assert indices == sorted(slots)
    assert values == [slots[index] for index in indices]


def test_negative_contents_single_colour():
    """With ``n = 1`` the sum is the one term ``q^W prod (1 - a q^content)``;
    a column colour has only nonpositive contents."""
    lam = Partition([1, 1, 1])
    total, common, offset = _torus_sum(lam, 1, 2)
    assert common == _hook_multiset(lam) and offset == 0
    expect = LaurentPoly.var("q", -2 * lam.kappa() + lam.n_stat())
    for x in (0, -1, -2):
        expect = expect * (LaurentPoly.one()
                           - LaurentPoly.monomial(1, Multidegree(a=1, q=x)))
    assert total == expect


@pytest.mark.parametrize("lam, n, m, divisions, box", [
    ([3, 1], 3, 5, 24, 26_377),
    ([2, 1, 1], 3, 4, 24, 22_771),
    ([3, 3], 2, 5, 20, 15_501),
])
def test_divisions_take_the_smallest_boxes_first(monkeypatch, lam, n, m, divisions, box):
    """``torus_homfly`` divides by every cell factor first, then by the
    binomials in descending ``k``.  The divisions are the same in any order,
    but a division costs in proportion to its dividend's exponent box, the
    product over ``a`` and ``q`` of (max - min + 1).  Summed over one call,
    the box was 34,717, 32,509 and 20,533 with the binomials first."""
    real, boxes = LaurentPoly.divide_exact, []

    def counting(self, divisor):
        size = 1
        for var in ("a", "q"):
            size *= self.max_degree(var) - self.min_degree(var) + 1
        boxes.append(size)
        return real(self, divisor)

    monkeypatch.setattr(LaurentPoly, "divide_exact", counting)
    torus_homfly(lam, n, m)
    assert len(boxes) == divisions
    assert sum(boxes) == box


def test_plethysm_is_computed_once_per_colour_and_n(monkeypatch):
    """The framing ``m`` enters the sum only through the weights, so a sweep
    over ``m`` at a fixed ``(lam, n)`` expands the plethysm once."""
    invariants._torus_terms.cache_clear()
    real, calls = invariants.plethysm_pn, []

    def counting(lam, n):
        calls.append((lam, n))
        return real(lam, n)

    monkeypatch.setattr(invariants, "plethysm_pn", counting)
    for m in (3, 5, 7, 9):
        torus_homfly([2, 1], 2, m)
    assert calls == [(Partition([2, 1]), 2)]


def test_each_call_gets_its_own_common():
    """Changing the ``common`` one call returns leaves the memo as it was."""
    invariants._torus_terms.cache_clear()
    lam = Partition([2, 1])
    total, common, offset = _torus_sum(lam, 2, 3)
    kept = Counter(common)
    common[1] += 5
    common[99] = 2
    del common[2]
    again = _torus_sum(lam, 2, 3)
    assert again[0] == total
    assert again[1] == kept
    assert again[2] == offset
    assert _torus_sum(lam, 2, 5)[1] == kept


@pytest.mark.parametrize("case", POOL, ids=_case_id)
def test_sl1_normalisation_against_substitute(case):
    """``torus_homfly`` reads ``P(a=q, q)`` by summing coefficients by
    ``a``- plus ``q``-exponent; ``LaurentPoly.substitute`` is the reference.
    A normalized quotient is 1 there, and one left as it was is not a unit
    monomial there."""
    quotient, report = torus_homfly(*case)
    at_sl1 = quotient.substitute("a", LaurentPoly.var("q"))
    if report.sl1:
        assert at_sl1 == LaurentPoly.one()
    else:
        assert not (at_sl1.is_monomial() and abs(at_sl1.as_monomial()[0]) == 1)


def test_sl1_pool_takes_both_branches():
    """24 of the pool's 56 colours normalize and 32 do not, so the oracle
    above covers both branches."""
    assert len(POOL) == 56
    assert sum(torus_homfly(*case)[1].sl1 for case in POOL) == 24
