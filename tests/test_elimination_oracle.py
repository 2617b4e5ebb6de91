"""Differential tests of the exact row reduction against sympy.

``_row_reduce`` must return the rank and the pivot columns of the reduced
row echelon form of its rows, with the columns in ``prefer`` order (or in
order of first sight without ``prefer``).  sympy's ``Matrix.rref`` is the
reference.  Matrices are sparse, with mixed ``int``/``Fraction`` entries,
explicit zeros, zero rows and duplicate rows; some fill the rank and then
keep sending rows, which must never be read.  The runs are derandomized, so
every run checks the same examples.
"""

from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from knothom.models import _primitive, _row_reduce

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
def test_rank_and_pivots_match_sympy_with_prefer(case):
    order, rows = case
    read = []

    def lazily():
        for row in rows:
            read.append(row)
            yield row

    rank, pivots = _row_reduce(lazily(), prefer=order)
    expected = sympy_pivots(rows, order)
    assert pivots == expected
    assert rank == len(expected)
    # rows are read up to the one that fills the rank, and no further
    prefix = next((n for n in range(1, len(rows) + 1)
                   if len(sympy_pivots(rows[:n], order)) == len(order)), len(rows))
    assert len(read) == prefix


@oracle(100)
@given(matrices())
def test_rank_and_pivots_match_sympy_without_prefer(case):
    _, rows = case
    rank, pivots = _row_reduce(iter(rows))
    expected = sympy_pivots(rows, first_sight(rows))
    assert pivots == expected
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
        _row_reduce([{"a": 1}, {"b": Fraction(1, 2), "z": 3}], prefer=["a", "b"])


def test_rows_after_full_rank_are_not_read():
    rows = [{"a": 2, "b": 4}, {"b": Fraction(-1, 3)}, {"z": 1}]
    assert _row_reduce(rows, prefer=["b", "a"]) == (2, {"a", "b"})
