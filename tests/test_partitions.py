from fractions import Fraction
from math import gcd

import pytest

from knothom.errors import UsageError
from knothom.partitions import (
    Partition,
    catalan_count,
    color_name,
    dyck_paths,
    h_plus,
    parse_color,
    partitions_of,
)


def test_parts_must_be_integers():
    assert Partition([2, 0, 1]).parts == (2, 1)
    assert Partition((p for p in [3, 3])).parts == (3, 3)
    for parts in ([1.5], [2.0], ["2"], [2, None], [True]):
        with pytest.raises(UsageError, match="integers"):
            Partition(parts)


def test_cell_stats_single_box():
    lam, cell = Partition([1]), (1, 1)
    assert (lam.arm(cell), lam.leg(cell), lam.hook(cell), lam.content(cell)) == (0, 0, 1, 0)


def test_cell_stats_21():
    lam = Partition([2, 1])
    hooks = sorted(lam.hook(c) for c in lam.cells())
    contents = sorted(lam.content(c) for c in lam.cells())
    assert hooks == [1, 1, 3]
    assert contents == [-1, 0, 1]


def test_rectangle_hook():
    lam = Partition([5] * 4)  # 4 rows, 5 columns
    assert lam.hook((1, 1)) == 4 + 5 - 1
    # box (row j, col i) of an R x S rectangle: arm S-i, leg R-j
    assert lam.arm((2, 3)) == 5 - 3
    assert lam.leg((2, 3)) == 4 - 2


def test_cell_outside_raises():
    lam = Partition([2, 1])
    assert not lam.contains((2, 2))
    assert all(lam.contains(cell) for cell in lam.cells())


def test_kappa_and_transpose():
    for n in range(0, 9):
        for parts in partitions_of(n):
            lam = Partition(parts)
            assert lam.kappa() == sum(
                p * (p - 2 * j + 1) for j, p in enumerate(lam.parts, start=1)
            ) // 2
            assert lam.transpose().kappa() == -lam.kappa()
            assert lam.transpose().transpose() == lam
            assert lam.transpose().size() == lam.size()


def test_dyck_path_counts():
    assert len(dyck_paths(2, 3)) == 2
    assert len(dyck_paths(3, 4)) == 5
    assert dyck_paths(1, 5) == [Partition()]
    for p in range(1, 8):
        for q in range(1, 8):
            from math import gcd
            if gcd(p, q) != 1:
                continue
            assert len(dyck_paths(p, q)) == catalan_count(p, q)


def test_dyck_paths_are_every_diagram_under_the_bounds():
    """Every partition with at most ``q - 1`` rows and row ``i`` at most
    ``floor(p*(q-i)/q)``, each once, in decreasing lexicographic order of
    the rows (a diagram after its extensions)."""
    for p in range(1, 8):
        for q in range(1, 8):
            if gcd(p, q) != 1:
                continue
            bounds = [p * (q - i) // q for i in range(1, q)]
            expected = [parts for n in range(sum(bounds) + 1) for parts in partitions_of(n)
                        if len(parts) <= len(bounds)
                        and all(map(int.__le__, parts, bounds))]
            assert [D.parts for D in dyck_paths(p, q)] == sorted(expected, reverse=True)


def test_dyck_paths_non_coprime_raises():
    with pytest.raises(ValueError):
        dyck_paths(2, 4)


def test_h_plus():
    assert h_plus(Partition(), 2, 3) == 0
    assert h_plus(Partition([1]), 2, 3) == 1
    # count consistency: each path contributes exactly one tuple
    assert sum(1 for _ in dyck_paths(3, 4)) == catalan_count(3, 4)


def _h_plus_fractions(D, p, q):
    """``h_plus`` by ``Fraction`` comparisons, with ``x/0`` read as
    infinity."""
    return sum(1 for cell in D.cells()
               if Fraction(D.arm(cell), D.leg(cell) + 1) <= Fraction(p, q)
               and (D.leg(cell) == 0
                    or Fraction(p, q) < Fraction(D.arm(cell) + 1, D.leg(cell))))


def test_h_plus_matches_fraction_oracle():
    paths = 0
    for p in range(1, 10):
        for q in range(1, 10):
            if gcd(p, q) != 1:
                continue
            for D in dyck_paths(p, q):
                assert h_plus(D, p, q) == _h_plus_fractions(D, p, q), (D, p, q)
                paths += 1
    assert paths == 6433


def test_h_plus_needs_positive_slopes():
    for p, q in [(0, 1), (1, 0), (-1, 2), (2, -3)]:
        with pytest.raises(UsageError, match="positive"):
            h_plus(Partition([1]), p, q)


def test_color_grammar_round_trips_every_partition():
    """Each partition of 1 to 8 reads back from its name and from its
    bracketed ``str``."""
    count = 0
    for n in range(1, 9):
        for parts in partitions_of(n):
            lam = Partition(parts)
            assert parse_color(color_name(lam)) == lam, lam
            assert parse_color(str(lam)) == lam, lam
            count += 1
    assert count == 1 + 2 + 3 + 5 + 7 + 11 + 15 + 22


#: every shape of name that ``color_name`` prints, with its partition
CANONICAL_COLOR_NAMES = {
    "1": [1], "S2": [2], "S8": [8], "L2": [1, 1], "L8": [1] * 8, "2x2": [2, 2],
    "3x2": [2, 2, 2], "2x4": [4, 4], "2_1": [2, 1], "3_2_1": [3, 2, 1],
    "4_1_1_1": [4, 1, 1, 1], "0": [],
}


def test_canonical_color_names_round_trip():
    for name, parts in CANONICAL_COLOR_NAMES.items():
        assert parse_color(name) == Partition(parts), name
        assert color_name(parse_color(name)) == name
    assert {color_name(Partition(p)) for n in range(1, 9) for p in partitions_of(n)} >= {
        name for name, parts in CANONICAL_COLOR_NAMES.items() if parts}


@pytest.mark.parametrize("spelled, parts", [
    (" S2 ", [2]), ("1x2", [2]), ("2x1", [1, 1]), ("[2, 2]", [2, 2]), ("2", [2]),
    ("S0", []), ("L0", []), ("[]", []), ("2_0", [2]),
])
def test_other_color_spellings(spelled, parts):
    assert parse_color(spelled) == Partition(parts)


@pytest.mark.parametrize("text", [
    "", "_", "2_", "1_2", "x2", "2x", "S", "[1.5]", "[true]", "wat", "[2,1", "1x2x3",
    "S-1", "2x-1", "[[1]]", '["1"]',
])
def test_color_grammar_refuses(text):
    with pytest.raises(UsageError, match="cannot parse color"):
        parse_color(text)


def test_deeply_nested_color_is_a_usage_error():
    """``json`` raises ``RecursionError`` on deep nesting; it is refused as
    any other bad spelling is, not left to surface as an internal error."""
    with pytest.raises(UsageError, match="cannot parse color"):
        parse_color("[" * 100000)
