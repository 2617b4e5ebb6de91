from types import SimpleNamespace

import pytest

from knothom import suite
from knothom.laurent import parse_poly
from knothom.partitions import Partition
from knothom.suite import CHECK_GROUPS, run_all, run_group


def test_run_all_passes_and_is_sorted():
    results = run_all()
    names = [r.name for r in results]
    assert names == sorted(names)
    assert all(r.ok for r in results), [r.line() for r in results if not r.ok]


def test_groups_are_independent():
    for name in ("dimensions", "hirota", "counting"):
        results = run_group(name)
        assert results and all(r.ok for r in results)
    assert set(CHECK_GROUPS) >= {
        "dimensions", "categorification", "self-symmetry", "mirror", "delta",
        "growth", "differentials", "hfk", "rosso-jones", "stable", "hirota",
        "schemes", "potentials", "counting", "vortex", "sl2",
    }


@pytest.mark.parametrize("key, color", [
    ("3_1:L2", [1, 1]), ("unknot:L2", [1, 1]), ("3_1:2x2", [2, 2]),
    ("unknot:S2", [2]), ("3_1:1", [1]), ("unknot:2_1", [2, 1]),
])
def test_sl2_runs_in_the_color_of_its_key(monkeypatch, key, color):
    """An ``sl2`` key runs in its fixture's colour, or in the one its name
    gives where there is no fixture: ``3_1:L2`` runs in the exterior square,
    not in the symmetric one."""
    seen = []

    def collapse(knot, lam, n, cutoff):
        seen.append((knot, lam, n))
        raise LookupError  # no expected table for most of these keys

    monkeypatch.setattr(suite, "rank_collapse", collapse)
    with pytest.raises(LookupError):
        suite._sl2(key)
    assert seen == [(key.split(":")[0], Partition(color), 2)]


def test_growth_exponent_is_the_ratio_of_color_sizes(monkeypatch):
    """A growth check raises its base to the ratio of the colour sizes: 2
    for every row, and 4 for the 2x2 square over one box."""
    exponents = []
    monkeypatch.setattr(suite, "check_growth",
                        lambda p, base, exponent, side: exponents.append(exponent) or True)
    assert all(r.ok for r in run_group("growth"))
    suite._growth("3_1:2x2", "3_1:1", "tr")
    assert exponents == [2, 2, 2, 2, 4]


@pytest.mark.parametrize("row, key, wrong", [
    ("differential:3_1:2x2:d2|0", "PRINTED_DEGREES", {"a": -2, "q": 6, "tr": -1, "tc": -1}),
    ("differential:3_1:S2:d1|0", "PRINTED_SURVIVORS", {"a": 4, "q": -2}),
], ids=["degree", "survivor"])
def test_differential_rows_check_the_printed_tables(monkeypatch, row, key, wrong):
    """A differential row fails when its degree or its survivor differs
    from the paper's printed one, even though the cancellation itself
    succeeds; the degree row says which degree it found."""
    rows = suite.differential_rows()
    assert rows[row]() in (True, (True, ""))
    fname, label = row.removeprefix("differential:").rsplit(":", 1)
    monkeypatch.setitem(getattr(suite, key), (fname, label), wrong)
    got = rows[row]()
    if key == "PRINTED_DEGREES":
        assert got[0] is False and got[1].startswith("degree Multidegree(")
    else:
        assert got is False


def test_halved_homfly_refuses_an_odd_exponent():
    """Halving needs even ``a`` and ``q`` exponents; an odd one is refused,
    naming the fixture."""
    fix = SimpleNamespace(name="odd", homfly_specialization=lambda: parse_poly("a^2*q + 1"))
    with pytest.raises(ValueError) as err:
        suite._halved_homfly(fix)
    assert str(err.value) == "odd exponent in odd specialization"
