"""Differential tests of the exact elimination against sympy.

``_row_reduce`` must return the rank and the pivot columns of the reduced
row echelon form of its rows, with the columns in the integer order of
their keys.  sympy's ``Matrix.rref`` is the reference.  Matrices are
sparse and drawn with mixed ``int``/``Fraction`` entries, explicit zeros,
zero rows and duplicate rows, and are cleared to the integer rows
``_row_reduce`` takes by ``laurent._primitive``; some fill the rank and
then keep sending rows, which must never be read.  The runs are
derandomized, so every run checks the same examples.

``macaulay_basis`` packs each monomial into one ``int`` whose order is the
elimination order.  The scheme tests rebuild its Macaulay matrices here,
block by block, from the presentation's relations with sympy polynomial
products, order the columns by a copy of the elimination priority as
written before the packing (the oracle), and read the surviving monomials
off sympy's pivots.  The scheme relations themselves are checked against
sympy's ``rs_pow``.  Two small presentations add odd generators of
q-degree 0 and below 0.  The pruning tests check that every basis of the
benchmark's scheme pool is an order ideal, that blocks without candidates
are skipped, and that a survivor outside the candidates raises.

``koszul_homology`` and ``universal_pair_homology`` eliminate on the same
packed keys.  Their tests enumerate the monomials here, build each (a, q)
block's differential from ``LaurentPoly`` products, take its rank with
sympy, and also pin a digest of each case's dimensions.  A rank cannot see
a wrong key that stays distinct, so every packed row is also decoded and
compared with the image it stands for.
"""

import hashlib
from fractions import Fraction
from itertools import combinations

import pytest
import sympy
from hypothesis import given, settings, strategies as st
from sympy.polys.ring_series import rs_pow
from sympy.polys.rings import ring

from knothom import models
from knothom.laurent import (
    LaurentPoly,
    Multidegree,
    _primitive,
    parse_poly,
)
from knothom.models import (
    EVEN,
    ODD,
    DegreeCeilingError,
    GradedPresentation,
    Generator,
    _row_reduce,
    koszul_homology,
    macaulay_basis,
    potential_antisym,
    scheme_presentation,
    sl_differential_images,
    universal_pair_homology,
    unknot_model,
)

entries = st.one_of(
    st.integers(-5, 5),
    st.fractions(min_value=-4, max_value=4, max_denominator=6),
)
nonzero = entries.filter(bool)


def oracle(max_examples):
    return settings(derandomize=True, deadline=None, database=None,
                    max_examples=max_examples)


def _rational(x):
    x = Fraction(x)
    return sympy.Rational(x.numerator, x.denominator)


def sympy_pivots(rows, order):
    """Pivot columns of the rref of ``rows`` with the columns in ``order``."""
    if not rows or not order:
        return set()
    matrix = sympy.Matrix([[_rational(row.get(c, 0)) for c in order] for row in rows])
    _, pivots = matrix.rref(pivots=True)
    return {order[i] for i in pivots}


def first_sight(rows):
    order = []
    for row in rows:
        for c, v in row.items():
            if v and c not in order:
                order.append(c)
    return order


def keyed(row, key):
    """``row`` as the non-zero integer row of its keys, scaled by ``_primitive``."""
    return {key[c]: v for c, v in _primitive(row).items() if v}


@st.composite
def matrices(draw):
    """``(columns in elimination order, rows)``; columns are Macaulay-like keys."""
    ncols = draw(st.integers(1, 6))
    cols = [(frozenset({("u", i)}), ()) for i in range(ncols)]
    row = st.dictionaries(st.sampled_from(cols), entries, max_size=min(3, ncols))
    rows = draw(st.lists(row, max_size=10))
    if rows and draw(st.booleans()):
        twin = dict(draw(st.sampled_from(rows)))
        rows.insert(draw(st.integers(0, len(rows))), twin)
    if draw(st.booleans()):
        # fill the rank, then keep sending rows
        rows += [{c: draw(nonzero)} for c in draw(st.permutations(cols))]
        rows += draw(st.lists(row, min_size=1, max_size=3))
    return draw(st.permutations(cols)), rows


@oracle(150)
@given(matrices())
def test_rank_and_pivots_match_sympy_in_key_order(case):
    order, rows = case
    key = {c: i for i, c in enumerate(order)}
    read = []

    def lazily():
        for row in rows:
            read.append(row)
            yield keyed(row, key)

    rank, pivots = _row_reduce(lazily(), set(key.values()))
    expected = sympy_pivots(rows, order)
    assert {order[p] for p in pivots} == expected
    assert rank == len(expected)
    # rows are read up to the one that fills the rank, and no further
    prefix = next((n for n in range(1, len(rows) + 1)
                   if len(sympy_pivots(rows[:n], order)) == len(order)), len(rows))
    assert len(read) == prefix


@oracle(100)
@given(matrices())
def test_rank_and_pivots_match_sympy_in_first_sight_order(case):
    """Keys numbered in the order the rows first name their columns: the
    same matrices, with early rows on the low keys."""
    _, rows = case
    order = first_sight(rows)
    key = {c: i for i, c in enumerate(order)}
    rank, pivots = _row_reduce([keyed(row, key) for row in rows], set(key.values()))
    expected = sympy_pivots(rows, order)
    assert {order[p] for p in pivots} == expected
    assert rank == len(expected)


@oracle(150)
@given(st.dictionaries(st.integers(0, 5), nonzero, min_size=1, max_size=5))
def test_primitive_rows(row):
    """Coprime integers, and a positive rational multiple of the input row."""
    out = _primitive(row)
    assert out.keys() == row.keys()
    assert all(type(v) is int for v in out.values())
    assert sympy.igcd(0, *out.values()) == 1
    ratios = {_rational(out[c]) / _rational(v) for c, v in row.items()}
    assert len(ratios) == 1 and ratios.pop() > 0


def test_row_outside_the_column_set_raises():
    with pytest.raises(ArithmeticError):
        _row_reduce([{0: 1}, {1: 2, 5: 3}], {0, 1})


def test_rows_after_full_rank_are_not_read():
    rows = [{1: 2, 0: 4}, {0: -3}, {5: 1}]
    assert _row_reduce(rows, {1, 0}) == (2, {0, 1})


def test_rows_are_not_changed():
    rows = [{0: 2, 1: 4}, {0: 3, 1: 5, 2: 7}]
    copies = [dict(row) for row in rows]
    assert _row_reduce(rows, {0, 1, 2}) == (2, {0, 1})
    assert rows == copies


# -- the packed Macaulay path against sympy -------------------------------------


def reference_priority(pres):
    """The elimination order of ``macaulay_basis`` as a tuple key per column:
    heavy in everything but the cheapest even generator first, ties toward
    eliminating the most expensive generators, then odd names in order."""
    even_deg = {g.name: int(g.q_degree()) for g in pres.evens()}
    odd_deg = {g.name: int(g.q_degree()) for g in pres.odds()}
    cheapest = min(even_deg, key=even_deg.get, default=None)
    by_desc_degree = sorted(even_deg, key=lambda n: (-even_deg[n], n))

    def elimination_priority(col):
        exps, odds = col
        ed = dict(exps)
        content = sum(e * even_deg[n] for n, e in ed.items() if n != cheapest)
        content += sum(odd_deg[o] for o in odds)
        vec = tuple(-ed.get(n, 0) for n in by_desc_degree)
        return (-content, vec, odds)

    return elimination_priority


def even_monomials(even_deg, target):
    """Exponent tuples (in ``even_deg`` order) of q-degree ``target``."""
    names = list(even_deg)
    if not names:
        return [()] if target == 0 else []

    def rec(i, rem):
        if i == len(names) - 1:
            d = even_deg[names[i]]
            return [(rem // d,)] if rem >= 0 and rem % d == 0 else []
        return [(e, *rest) for e in range(rem // even_deg[names[i]] + 1)
                for rest in rec(i + 1, rem - e * even_deg[names[i]])]

    return rec(0, target)


def as_sympy(poly, symbols):
    return sum((_rational(c) * sympy.Mul(*[symbols[v] ** int(e) for v, e in md.items()])
                for md, c in poly.terms.items()), sympy.Integer(0))


def oracle_basis(pres, top_degree):
    """Non-pivot monomials of every block up to ``top_degree``, as
    ``(exponent dict, odd name tuple)`` in degree, odd count and column order."""
    even_deg = {g.name: int(g.q_degree()) for g in pres.evens()}
    odd_deg = {g.name: int(g.q_degree()) for g in pres.odds()}
    names = list(even_deg)
    symbols = {g.name: sympy.Symbol(g.name) for g in pres.generators}
    gens = [symbols[n] for n in names]
    odd_names = sorted(odd_deg)
    # per relation: (odd factor or None, even coefficient as a sympy Poly)
    parts = []
    for rel in pres.relations:
        parts.append([(None, sympy.Poly(as_sympy(rel, symbols), *gens))])
    for rel in pres.form_relations:
        expr = sympy.expand(as_sympy(rel, symbols))
        parts.append([(o, sympy.Poly(expr.coeff(symbols[o]), *gens))
                      for o in odd_names if expr.coeff(symbols[o]) != 0])
    degree_of = [pres.poly_degree(rel, "q")
                 for rel in (*pres.relations, *pres.form_relations)]
    priority = reference_priority(pres)
    out = []
    for degree in range(sum(min(d, 0) for d in odd_deg.values()), top_degree + 1):
        for k in range(len(odd_names) + 1):
            columns = [(dict(e for e in zip(names, exps) if e[1]), odds)
                       for odds in combinations(odd_names, k)
                       for exps in even_monomials(
                           even_deg, degree - sum(odd_deg[o] for o in odds))]
            if not columns:
                continue
            columns.sort(key=priority)
            index = {(tuple(sorted(e.items())), o): i for i, (e, o) in enumerate(columns)}
            rows = []
            for terms, dg in zip(parts, degree_of):
                n_odd = 0 if terms[0][0] is None else 1
                if k < n_odd:
                    continue
                for odds in combinations(odd_names, k - n_odd):
                    rest = degree - int(dg) - sum(odd_deg[o] for o in odds)
                    for exps in even_monomials(even_deg, rest):
                        mono = sympy.Poly(sympy.Mul(*[s ** e for s, e in zip(gens, exps)]), *gens)
                        row = [0] * len(columns)
                        for dv, coef in terms:
                            if dv in odds:
                                continue  # the form squares to zero
                            sign, target = 1, odds
                            if dv is not None:
                                sign = (-1) ** sum(1 for s in odds if s < dv)
                                target = tuple(sorted((*odds, dv)))
                            for mexp, c in (coef * mono).terms():
                                key = (tuple((n, e) for n, e in sorted(zip(names, mexp)) if e),
                                       target)
                                row[index[key]] += sign * c
                        rows.append(row)
            pivots = set(sympy.Matrix(rows).rref(pivots=True)[1]) if rows else set()
            out += [col for i, col in enumerate(columns) if i not in pivots]
    return out


def artinian(evens, odds, relations, form_relations):
    """A presentation graded in ``q`` only, relations given as text."""
    return GradedPresentation(
        [Generator(n, EVEN, Multidegree(q=d)) for n, d in evens.items()]
        + [Generator(n, ODD, Multidegree(q=d)) for n, d in odds.items()],
        [P(r) for r in relations], [P(r) for r in form_relations])


BASIS_CASES = {
    f"{p}-{q}-{r}-{forms}": lambda p=p, q=q, r=r, forms=forms:
        scheme_presentation(p, q, r, with_forms=forms)
    for p, q, r, forms in [
        (2, 3, 2, True), (3, 4, 1, True), (3, 4, 2, False),
        (3, 4, 2, True),  # the smallest whose basis depends on the forms' signs
    ]
}
# an odd generator of q-degree 0 steps into the next odd count of its own
# degree; one of negative q-degree divides monomials of a later block
BASIS_CASES["odd-q-0"] = lambda: artinian(
    {"u": 2, "v": 4}, {"x": 0, "y": 2}, ["u^3 - u*v", "v^2"], ["u*x - y", "v*x + u*y"])
BASIS_CASES["odd-q-negative"] = lambda: artinian(
    {"u": 2, "v": 6}, {"z": -2, "y": 4}, ["u^4", "v^2", "u^2*v"], ["u^3*z - y", "v*z"])


@pytest.mark.parametrize("name", BASIS_CASES)
def test_packed_basis_matches_sympy_elimination(name):
    pres = BASIS_CASES[name]()
    mb = macaulay_basis(pres)
    assert mb.elements == oracle_basis(pres, mb.top_degree)


def test_packed_order_is_the_elimination_priority():
    """Modulo a monomial ideal no surviving monomial is a pivot, so each
    block lists all of its survivors in column order.  Even generators of
    one q-degree and odd subsets of one weight make every digit of the key
    decide somewhere."""
    evens = {"g": 2, "i": 4, "h": 4, "k": 6}
    odds = {"y": 3, "x": 1, "z": 3, "w": 5}
    caps = {"g": 3, "i": 2, "h": 2, "k": 2}
    pres = GradedPresentation(
        [Generator(n, EVEN, Multidegree(q=d)) for n, d in evens.items()]
        + [Generator(n, ODD, Multidegree(q=d)) for n, d in odds.items()],
        [LaurentPoly.var(n) ** caps[n] for n in evens])
    blocks = {}
    for exps, odd in macaulay_basis(pres).elements:
        degree = sum(evens[n] * e for n, e in exps.items()) + sum(odds[o] for o in odd)
        blocks.setdefault((degree, len(odd)), []).append((exps, odd))
    priority = reference_priority(pres)
    assert all(cols == sorted(cols, key=priority) for cols in blocks.values())
    assert sum(map(len, blocks.values())) == 3 * 2 * 2 * 2 * 2 ** 4


# -- pruning by the standard monomials of earlier blocks ------------------------

#: the ``scheme`` requests of the ``scheme-basis`` benchmark pool: (p, q, r, forms)
SCHEME_POOL = (
    [(p, q, r, True) for p, q, rmax in ((2, 3, 5), (2, 5, 3), (2, 7, 2), (3, 4, 2),
                                       (3, 5, 2), (4, 5, 1), (5, 6, 1))
     for r in range(1, rmax + 1)]
    + [(3, 4, 2, False), (3, 4, 3, False), (3, 5, 2, False), (4, 5, 1, False)])


@pytest.mark.parametrize("p, q, r, reduced", sorted(
    {(p, q, r, True) for p, q, r, _ in SCHEME_POOL} | {(2, 3, 2, False), (3, 4, 1, False)}))
def test_scheme_relations_are_the_series_coefficients(p, q, r, reduced):
    """The relations are the z-coefficients of the binomial series, as
    sympy's ``rs_pow`` expands it, and each form relation is its relation's
    total differential ``sum_i d(rel)/du_i * du_i``, built here with
    ``LaurentPoly`` arithmetic."""
    lo = r + 1 if reduced else 1
    indices = range(lo, p * r + 1)
    names = ["z"] + [f"u{i}" for i in indices]
    _, z, *us = ring(",".join(names), sympy.QQ)
    base = 1 + sum(u * z**i for u, i in zip(us, indices))
    series = rs_pow(base, sympy.Rational(q, p), z, (p + q) * r + 1)
    coefficients = {}
    for (n, *exps), c in series.terms():
        md = Multidegree(dict(zip(names[1:], exps)))
        coefficients.setdefault(n, {})[md] = Fraction(int(c.numerator), int(c.denominator))
    expected = [LaurentPoly(coefficients[n]) for n in range(q * r + 1, (p + q) * r + 1)
                if n in coefficients]
    pres = scheme_presentation(p, q, r, reduced=reduced)
    assert pres.relations == expected
    assert all(type(c) is Fraction for rel in pres.relations + pres.form_relations
               for c in rel.terms.values())
    for rel, form in zip(expected, pres.form_relations, strict=True):
        total = LaurentPoly.zero()
        for i in indices:
            total = total + rel.derivative(f"u{i}") * LaurentPoly.var(f"du{i}")
        assert form == total


def monomial_id(exps, odds):
    return tuple(sorted(exps.items())), tuple(odds)


def quotients(exps, odds, names):
    """``m/g`` for each generator ``g`` in ``names`` that divides ``m``."""
    for g in names:
        if g in odds:
            yield exps, tuple(o for o in odds if o != g)
        elif exps.get(g):
            yield {n: e - (n == g) for n, e in exps.items() if e - (n == g)}, odds


@pytest.mark.parametrize("p, q, r, forms", SCHEME_POOL)
def test_basis_is_an_order_ideal(p, q, r, forms):
    """Every divisor of a standard monomial is standard."""
    pres = scheme_presentation(p, q, r, with_forms=forms)
    elements = macaulay_basis(pres).elements
    standard = {monomial_id(*m) for m in elements}
    names = [g.name for g in pres.generators]
    assert all(monomial_id(*d) in standard
               for m in elements for d in quotients(*m, names))


def test_blocks_without_candidates_are_skipped(monkeypatch):
    """Eliminating every block of M(2,3,5) with forms takes 173 calls; 35
    of those blocks hold no monomial whose earlier quotients are all standard."""
    real, calls = models._row_reduce, []

    def counting(rows, columns, zeros=None, basis=None):
        calls.append(len(columns))
        return real(rows, columns, zeros, basis)

    monkeypatch.setattr(models, "_row_reduce", counting)
    macaulay_basis(scheme_presentation(2, 3, 5, with_forms=True))
    assert len(calls) == 173 - 35


def test_multiples_of_zero_rows_are_not_built(monkeypatch):
    """M(3,5,2) with forms reads 1,287 rows when every row is built; an even
    multiple of a row that reduced to zero, or of one not built, is not.
    Skipping those made it 1,146.  A form block also builds no even
    relation's row: it starts from the reduced bases of the bottom blocks
    it shifts, which span those rows, so 569 of them are read no more
    (577 rows).  Skipping the odd multiples as well leaves 537."""
    real, read = models._row_reduce, []

    def counting(rows, columns, zeros=None, basis=None):
        def reading():
            for row in rows:
                read.append(row)
                yield row
        return real(reading(), columns, zeros, basis)

    monkeypatch.setattr(models, "_row_reduce", counting)
    mb = macaulay_basis(scheme_presentation(3, 5, 2, with_forms=True))
    assert len(read) == 537
    assert mb.dimension() == 289


def test_odd_multiples_of_zero_rows_are_not_built(monkeypatch):
    """No row read is a multiple of the product of a row that reduced to
    zero with an odd step generator ``du_j`` (q-degree >= 0): it would lie
    in the span of the rows before it and reduce to zero too.  Right
    multiplication by ``du_j`` kills a monomial holding ``du_j`` and takes
    the key ``c`` of any other to ``c - bit_j``, with the sign of moving
    ``du_j`` past its odd factors after ``j`` in name order (the lower
    bits).  On M(2,3,5) with forms, 821 rows were read and 199 reduced to
    zero when only even multiples were skipped; skipping the odd ones too
    leaves 733 and 111."""
    real, read, zero = models._row_reduce, [], []

    def recording(rows, columns, zeros=None, basis=None):
        start = len(read)

        def reading():
            for row in rows:
                read.append(row)
                yield row
        out = real(reading(), columns, zeros, basis)
        zero.extend(start + n for n in zeros)
        return out

    monkeypatch.setattr(models, "_row_reduce", recording)
    pres = scheme_presentation(2, 3, 5, with_forms=True)
    mb = macaulay_basis(pres)
    space = models._KeySpace(pres, 200)
    bits = [space.odd_bit[g.name] for g in pres.odds() if g.q_degree() >= 0]

    def ray(row):
        """The row scaled to coprime entries, positive at its least key."""
        g = sympy.igcd(0, *row.values()) * (1 if row[min(row)] > 0 else -1)
        return frozenset((c, v // g) for c, v in row.items())

    products = [{c - bit: -v if (space.mask(c) & (bit - 1)).bit_count() % 2 else v
                 for c, v in read[n].items() if c & bit} for n in zero for bit in bits]
    assert not {ray(row) for row in products if row} & {ray(row) for row in read if row}
    assert (len(read), len(zero), mb.dimension()) == (733, 111, 243)


def test_zero_rows_are_reported_in_read_order():
    zeros = []
    rows = [{0: 2, 1: 4}, {}, {0: 1, 1: 2}, {1: 3}, {0: -5}, {2: 1}]
    assert _row_reduce(rows, {0, 1, 2}, zeros) == (3, {0, 1, 2})
    assert zeros == [1, 2, 4]


@oracle(150)
@given(matrices(), st.data())
def test_a_starting_basis_stands_for_the_rows_it_came_from(case, data):
    """Rows reduced against the basis of the rows before them, taken as it
    is or back-substituted, give the pivots of all the rows read in order;
    ``zeros`` indexes only the rows passed in, from 0."""
    order, rows = case
    key = {c: i for i, c in enumerate(order)}
    rows, columns = [keyed(row, key) for row in rows], set(key.values())
    cut = data.draw(st.integers(0, len(rows)))
    whole_zeros, zeros, basis, read = [], [], {}, []
    whole = _row_reduce(rows, columns, whole_zeros)
    _row_reduce(rows[:cut], columns, None, basis)
    if data.draw(st.booleans()):
        pivots = set(basis)
        models._back_substitute(basis)
        assert set(basis) == pivots
        for b, rest in basis.values():
            assert b > 0 and sympy.igcd(0, b, *rest.values()) == 1
            assert not rest.keys() & pivots
    full = len(basis) == len(columns)

    def lazily():
        for row in rows[cut:]:
            read.append(row)
            yield row

    assert _row_reduce(lazily(), columns, zeros, basis) == whole
    assert zeros == [n - cut for n in whole_zeros if n >= cut]
    if full:
        assert not read


def test_a_full_starting_basis_reads_no_row():
    read = []

    def rows():
        read.append(0)
        yield {0: 1}

    basis = {0: (2, {1: 1}), 1: (1, {})}
    assert _row_reduce(rows(), {0, 1}, [], basis) == (2, {0, 1})
    assert not read


@pytest.mark.parametrize("p, q, r, forms", SCHEME_POOL)
def test_basis_holds_at_every_ceiling_near_the_top(p, q, r, forms):
    """The key's digits are as wide as the ceiling allows, and a row that is
    not built is found by its key offset: below the top degree the run
    raises, and from it up the basis is the one of ceiling 200."""
    pres = scheme_presentation(p, q, r, with_forms=forms)
    mb = macaulay_basis(pres)
    for ceiling in range(mb.top_degree - 12, mb.top_degree + 3):
        if ceiling < mb.top_degree:
            with pytest.raises(DegreeCeilingError):
                macaulay_basis(pres, ceiling)
        else:
            assert macaulay_basis(pres, ceiling).elements == mb.elements


def test_multiples_past_the_reach_are_not_recorded():
    """At ceiling 13 the key's digit of ``v`` holds exponents up to 1, so
    ``v^2`` would take the key offset of ``w``.  ``u*y * v`` reduces to zero
    in block 12, and its multiple by ``v`` lies in block 19, past the
    reach: recorded, it would keep ``u*y * w`` of block 13 from being built."""
    pres = artinian({"u": 1, "v": 7, "w": 8}, {"y": 4, "z": 1},
                    ["v", "w^2", "u^3"], ["u*y"])
    mb = macaulay_basis(pres)
    assert (mb.dimension(), mb.top_degree) == (16, 22)
    for ceiling in range(1, mb.top_degree + 3):
        if ceiling < mb.top_degree:
            with pytest.raises(DegreeCeilingError):
                macaulay_basis(pres, ceiling)
        else:
            assert macaulay_basis(pres, ceiling).elements == mb.elements


def test_a_survivor_with_a_non_standard_quotient_raises(monkeypatch):
    """Dropping one pivot whose quotient by a step generator is a pivot
    itself makes a survivor outside the candidates, which must raise."""
    pres = scheme_presentation(2, 3, 3, with_forms=True)
    standard = {monomial_id(*m) for m in macaulay_basis(pres).elements}
    steps = [g.name for g in pres.generators if g.parity == EVEN or g.q_degree() >= 0]
    space = models._KeySpace(pres, 200)
    real, dropped = models._row_reduce, []

    def dropping(rows, columns, zeros=None, basis=None):
        rank, pivots = real(rows, columns, zeros, basis)
        if not dropped:
            bad = sorted(c for c in pivots
                         if any(monomial_id(*d) not in standard
                                for d in quotients(*space.decode(c), steps)))
            if bad:
                dropped.append(bad[0])
                return rank - 1, pivots - {bad[0]}
        return rank, pivots

    monkeypatch.setattr(models, "_row_reduce", dropping)
    with pytest.raises(ArithmeticError, match="non-standard quotient"):
        macaulay_basis(pres)
    assert dropped


@pytest.mark.parametrize("name", BASIS_CASES)
def test_candidates_are_the_blocks_with_standard_step_quotients(name, monkeypatch):
    """The bookkeeping's candidates of each block of positive q-degree are,
    by definition, its monomials ``c`` whose every step-divisor quotient
    ``c/g`` is a basis monomial, the steps being every even generator and
    each odd one of q-degree >= 0.  Each block is enumerated whole and
    checked against the set the elimination took its candidates from."""
    pres = BASIS_CASES[name]()
    real, recorded = models._candidates, []

    def recording(counts):
        found = real(counts)
        recorded.append(found)
        return found

    monkeypatch.setattr(models, "_candidates", recording)
    mb = macaulay_basis(pres)
    standard = {monomial_id(*m) for m in mb.elements}
    steps = [g.name for g in pres.generators if g.parity == EVEN or g.q_degree() >= 0]
    space = models._KeySpace(pres, 200)
    expected = {}
    for degree in range(1, mb.top_degree + 1):
        for k in range(len(space.odd_subsets)):
            monomials = map(space.decode, space.block(degree, k))
            found = {monomial_id(*m) for m in monomials
                     if all(monomial_id(*d) in standard for d in quotients(*m, steps))}
            if found:
                expected[degree, k] = found
    got = {}
    for found in filter(None, recorded):
        exps, odds = space.decode(next(iter(found)))
        degree = (sum(pres.generator(n).q_degree() * e for n, e in exps.items())
                  + sum(pres.generator(o).q_degree() for o in odds))
        got[degree, len(odds)] = {monomial_id(*space.decode(c)) for c in found}
    assert got == expected


GRADED_CASES = {
    **{f"{p}-{q}-{r}-{forms}": lambda p=p, q=q, r=r, forms=forms:
       scheme_presentation(p, q, r, with_forms=forms) for p, q, r, forms in SCHEME_POOL},
    # an odd generator of negative q-degree makes monomials below degree 0
    "negative": lambda: GradedPresentation(
        [Generator("u", EVEN, Multidegree(q=2)), Generator("x", ODD, Multidegree(q=-2))],
        [LaurentPoly.var("u") ** 2]),
}


@pytest.mark.parametrize("name", GRADED_CASES)
def test_packed_gradings_are_the_monomial_degrees(name):
    """Each basis monomial's grading is packed into one ``int`` when it is
    decoded; ``degrees`` and ``poincare`` unpack those.  They must equal
    the presentation's own grading of each monomial, counted after
    projecting to the chosen variables."""
    pres = GRADED_CASES[name]()
    mb = macaulay_basis(pres)
    degrees = [pres.monomial_degree(exps, odds) for exps, odds in mb.elements]
    assert mb.degrees() == degrees
    for variables in (("a", "q", "tr"), ("a", "q", "tr", "tc")):
        counts = {}
        for md in degrees:
            key = Multidegree(zip(variables, (md._e(v) for v in variables)))
            counts[key] = counts.get(key, 0) + 1
        assert mb.poincare(variables) == LaurentPoly(counts)


# -- Koszul and pair homology against sympy ranks -------------------------------


def all_monomials(pres, bound):
    """``(even exponent dict, odd name tuple)`` of every monomial of q-degree
    at most ``bound``, odd names in name order."""
    even_deg = {g.name: int(g.q_degree()) for g in pres.evens()}
    odd_deg = {g.name: int(g.q_degree()) for g in pres.odds()}
    out = []
    for k in range(len(odd_deg) + 1):
        for odds in combinations(sorted(odd_deg), k):
            budget = bound - sum(odd_deg[o] for o in odds)
            for degree in range(budget + 1):
                out += [(dict(e for e in zip(even_deg, exps) if e[1]), odds)
                        for exps in even_monomials(even_deg, degree)]
    return out


def koszul_image(exps, odds, images):
    """``d(u^exps * xi_odds)`` for the odd derivation ``xi -> images[xi]``,
    as ``{(even Multidegree, odd tuple): coefficient}``."""
    out = {}
    mono = LaurentPoly.monomial(1, Multidegree(exps))
    for pos, xi in enumerate(odds):
        img = images.get(xi, LaurentPoly.zero())
        rest = odds[:pos] + odds[pos + 1:]
        for md, c in (img * mono).terms.items():
            out[md, rest] = out.get((md, rest), 0) + (-1) ** pos * c
    return out


def pair_image(exps, odds, x, y, xi_x, xi_y):
    """The pair differential of ``universal_pair_homology`` on one monomial:
    ``x^odd -> 2 x^(a-1) y^(b+1)`` times the odd part, plus ``xi_x -> xi_y``
    signed by the position of ``xi_x`` and by ``(-1)^a``, the parity of the
    exponent of ``x``, which makes the differential square to zero."""
    out = {}
    mono = LaurentPoly.monomial(1, Multidegree(exps))
    parity = exps.get(x, 0) % 2
    if parity:
        step = LaurentPoly.monomial(2, Multidegree({x: -1, y: 1}))
        for md, c in (step * mono).terms.items():
            out[md, odds] = c
    if xi_x in odds and xi_y not in odds:
        swapped = tuple(sorted(xi_y if o == xi_x else o for o in odds))
        for md, c in mono.terms.items():
            out[md, swapped] = (-1) ** (odds.index(xi_x) + parity) * c
    return out


def oracle_dims(pres, image, delta, cutoff):
    """``dim ker - dim im`` per ``(a, q)`` up to ``cutoff``, each block's
    rank taken by sympy from the rows of ``image`` over every monomial."""
    da, dq = int(delta.e("a")), int(delta.e("q"))
    blocks = {}
    for exps, odds in all_monomials(pres, cutoff + max(0, -dq)):
        md = pres.monomial_degree(exps, odds)
        blocks.setdefault((int(md.e("a")), int(md.e("q"))), []).append(image(exps, odds))
    ranks = {}
    for key, rows in blocks.items():
        order = sorted({c for row in rows for c in row}, key=repr)
        ranks[key] = sympy.Matrix([[_rational(row.get(c, 0)) for c in order]
                                   for row in rows]).rank() if order else 0
    dims = {}
    for (a, q), rows in blocks.items():
        d = len(rows) - ranks[a, q] - ranks.get((a - da, q - dq), 0)
        if q <= cutoff and d:
            dims[a, q] = d
    return dims


def pinned(dims):
    return hashlib.sha256(repr(sorted(dims.items())).encode()).hexdigest()[:16]


def graded(evens, odds):
    """A presentation graded in ``a`` and ``q`` only: ``evens`` maps names
    to q-degrees, ``odds`` to ``(a, q)``."""
    return GradedPresentation(
        [Generator(n, EVEN, Multidegree(q=d)) for n, d in evens.items()]
        + [Generator(n, ODD, Multidegree(a=a, q=d)) for n, (a, d) in odds.items()])


def jacobi_case(xi_degrees):
    """The Jacobi images ``xi_i -> dW/du_i`` of ``potential_antisym(2, 3)``."""
    pot = potential_antisym(2, 3)
    pres = graded({"u1": 2, "u2": 4},
                  {"xi1": (2, xi_degrees[0]), "xi2": (2, xi_degrees[1])})
    return pres, pot.jacobi_images()


def lowering_case():
    """Images that lower q, one with a non-integer coefficient, and an odd
    generator of negative q-degree with a zero image."""
    pres = graded({"u": 2, "v": 4}, {"xi": (2, 8), "eta": (2, 10), "zeta": (2, -2)})
    images = {"xi": Fraction(1, 2) * P("u^2") - P("v"), "eta": P("u*v"),
              "zeta": LaurentPoly.zero()}
    return pres, images


def P(text):
    return parse_poly(text)


def sl_case(r, n):
    pres = unknot_model([r])
    return pres, sl_differential_images(pres, n)


KOSZUL_CASES = {
    **{f"sl{n}-r{r}": (lambda r=r, n=n: sl_case(r, n), 16)
       for r in range(1, 5) for n in range(1, 4)},
    "jacobi-antisym-2-3": (lambda: jacobi_case((4, 2)), 24),
    "jacobi-odd-q-le-0": (lambda: jacobi_case((0, -2)), 24),
    "lowering": (lowering_case, 24),
}

#: ``pinned(koszul_homology(...).dims)`` as first computed
KOSZUL_PINS = {
    'sl1-r1': 'f07bf0c685b4b736',
    'sl2-r1': 'f893acfa602d35ff',
    'sl3-r1': 'bea5c00202b07d07',
    'sl1-r2': 'f07bf0c685b4b736',
    'sl2-r2': '08068c89bb563140',
    'sl3-r2': '418104a39853689e',
    'sl1-r3': 'f07bf0c685b4b736',
    'sl2-r3': '1eaf0308659a5ac4',
    'sl3-r3': '13866e230039a04d',
    'sl1-r4': 'f07bf0c685b4b736',
    'sl2-r4': '5f1faf2cc6081828',
    'sl3-r4': '70ba9cff1f0a8308',
    'jacobi-antisym-2-3': 'bea5c00202b07d07',
    'jacobi-odd-q-le-0': 'bea5c00202b07d07',
    'lowering': '6ead0873c1acfc7a',
}


@pytest.mark.parametrize("name", KOSZUL_CASES)
def test_koszul_homology_matches_sympy_ranks(name):
    make, cutoff = KOSZUL_CASES[name]
    pres, images = make()
    h = koszul_homology(pres, images, cutoff)
    expected = oracle_dims(pres, lambda e, o: koszul_image(e, o, images),
                           h.differential_degree, cutoff)
    assert h.dims == expected
    assert pinned(h.dims) == KOSZUL_PINS[name]


PAIR_CASES = {
    "two-generators": (graded({"u3": 6, "u4": 8}, {"xi3": (2, 4), "xi4": (2, 6)}), 60),
    # xi1 comes before xi3 in name order, so the odd term's sign matters
    "with-bystanders": (graded({"u1": 2, "u3": 6, "u4": 8},
                               {"xi1": (2, 0), "xi3": (2, 4), "xi4": (2, 6)}), 30),
}

#: ``pinned(universal_pair_homology(...).dims)`` as first computed
PAIR_PINS = {
    'two-generators': 'd0b71cb82a3b6e16',
    'with-bystanders': '4e4fecbcf9fedee8',
}


@pytest.mark.parametrize("name", PAIR_CASES)
def test_pair_homology_matches_sympy_ranks(name):
    pres, cutoff = PAIR_CASES[name]
    args = ("u3", "u4", "xi3", "xi4")
    h = universal_pair_homology(pres, *args, cutoff)
    expected = oracle_dims(pres, lambda e, o: pair_image(e, o, *args),
                           h.differential_degree, cutoff)
    assert h.dims == expected
    assert pinned(h.dims) == PAIR_PINS[name]


def captured_block_homology(monkeypatch, compute):
    """The ``(pres, space, row, delta, cutoff)`` that ``compute`` hands to
    ``_block_homology``."""
    real, seen = models._block_homology, []

    def capture(*args):
        seen.append(args)
        return real(*args)

    monkeypatch.setattr(models, "_block_homology", capture)
    compute()
    (args,) = seen
    return args


def koszul_run(name):
    make, cutoff = KOSZUL_CASES[name]
    pres, images = make()
    return (lambda: koszul_homology(pres, images, cutoff),
            lambda e, o: koszul_image(e, o, images))


def pair_run(name):
    pres, cutoff = PAIR_CASES[name]
    args = ("u3", "u4", "xi3", "xi4")
    return (lambda: universal_pair_homology(pres, *args, cutoff),
            lambda e, o: pair_image(e, o, *args))


#: every Koszul and pair case, as ``(run, name)``
every_block_run = pytest.mark.parametrize("run, name", [
    *[(koszul_run, name) for name in KOSZUL_CASES],
    *[(pair_run, name) for name in PAIR_CASES],
], ids=[*KOSZUL_CASES, *PAIR_CASES])


@every_block_run
def test_packed_rows_decode_to_their_images(monkeypatch, run, name):
    """Every key of every packed row stands for the monomial of the image
    built with ``LaurentPoly`` products, with the image's sign.  The
    differential's rows are positive multiples of its images per odd
    generator, so only the signs are compared."""
    compute, image = run(name)
    pres, space, row, delta, cutoff = captured_block_homology(monkeypatch, compute)
    dq = int(delta.e("q"))
    for q in range(space.low, cutoff + max(0, -dq) + 1):
        for k in range(len(space.odd_subsets)):
            for key in space.block(q, k):
                exps, odds = space.decode(key)
                expected = {m: c > 0 for m, c in image(exps, odds).items() if c}
                got = {}
                for t, c in row(key).items():
                    e, o = space.decode(t)
                    got[Multidegree(e), o] = c > 0
                assert got == expected, (exps, odds)


@every_block_run
def test_differential_squares_to_zero(monkeypatch, run, name):
    """``d(d(m)) = 0`` for every monomial ``m`` of every block up to the
    cutoff, on the packed rows that ``_block_homology`` ranks: homology is
    only defined for a differential.  Keys are affine in the exponents, so
    summing the rows of a row's keys sums ``d(d(m))`` by monomial."""
    compute, _ = run(name)
    pres, space, row, delta, cutoff = captured_block_homology(monkeypatch, compute)
    for q in range(space.low, cutoff + 1):
        for k in range(len(space.odd_subsets)):
            for key in space.block(q, k):
                twice = {}
                for mid, c in row(key).items():
                    for end, c2 in row(mid).items():
                        twice[end] = twice.get(end, 0) + c * c2
                assert not any(twice.values()), space.decode(key)
