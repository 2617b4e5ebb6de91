import pytest

from knothom.errors import UsageError
from knothom.partitions import (
    Partition,
    balanced_diagrams,
    catalan_count,
    dyck_paths,
    h_plus,
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


def test_balanced_diagrams_small():
    assert balanced_diagrams(1, 1) == [
        (Partition([2]), 1),
        (Partition([1, 1]), -1),
    ]
    got = dict(balanced_diagrams(2, 1))
    assert got == {
        Partition([4]): 1,
        Partition([3, 1]): -1,
        Partition([2, 2]): 1,
    }


def test_balanced_diagram_count_is_subdiagram_count():
    for S in range(1, 4):
        for R in range(1, 4):
            # complement bijection: one balanced diagram per sub-diagram of
            # the S x R rectangle
            subcount = 0
            for n in range(S * R + 1):
                for parts in partitions_of(n):
                    if len(parts) <= R and all(p <= S for p in parts):
                        subcount += 1
            assert len(balanced_diagrams(S, R)) == subcount


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


def test_dyck_paths_non_coprime_raises():
    with pytest.raises(ValueError):
        dyck_paths(2, 4)


def test_h_plus():
    assert h_plus(Partition(), 2, 3) == 0
    assert h_plus(Partition([1]), 2, 3) == 1
    # count consistency: each path contributes exactly one tuple
    assert sum(1 for _ in dyck_paths(3, 4)) == catalan_count(3, 4)
