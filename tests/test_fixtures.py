import json
import pathlib
import runpy

import pytest

from knothom.fixtures import (
    DIFFERENTIALS,
    FIXTURE_IDS,
    HOMOLOGY_FIXTURES,
    FixtureError,
    fixture_name,
    from_tilde,
    load_fixture,
    to_tilde,
)
from knothom.checks import colored_differential
from knothom.errors import UsageError
from knothom.laurent import LaurentPoly, Multidegree
from knothom.partitions import Partition

EXPECTED_DIMS = {
    "3_1:1": 3, "3_1:S2": 9, "3_1:L2": 9, "3_1:2x2": 81, "3_1:3x2": 729,
    "3_1:2_1": 41, "4_1:1": 5, "4_1:S2": 25, "T3_4:1": 11, "T3_4:S2": 121,
}


def test_all_fixtures_load_and_validate():
    for name in FIXTURE_IDS:
        fix = load_fixture(name)
        assert fix.poincare.dimension() == fix.dimension


def test_fixture_name_from_knot_and_color():
    for name in HOMOLOGY_FIXTURES:
        fix = load_fixture(name)
        assert fixture_name(fix.knot, fix.color) == name
    with pytest.raises(UsageError):
        fixture_name("3_1", Partition())


def test_expected_dimensions():
    for name, dim in EXPECTED_DIMS.items():
        assert load_fixture(name).dimension == dim


def test_hook_fixture_refuses_tilde():
    fix = load_fixture("3_1:2_1")
    with pytest.raises(FixtureError):
        fix.tilde()


def test_sigma_values():
    assert load_fixture("3_1:1").sigma == 2
    assert load_fixture("4_1:1").sigma == 0
    assert load_fixture("T3_4:1").sigma == 6


def test_registry_targets_exist():
    """Every registered differential is a valid kind at its fixture's
    rectangle, its label is new on that fixture, and the fixture of its
    derived target rectangle loads, with that rectangle."""
    for (knot, R, S), diffs in DIFFERENTIALS.items():
        fname = fixture_name(knot, Partition([S] * R))
        assert fname in HOMOLOGY_FIXTURES
        fix = load_fixture(fname)
        assert (fix.knot, fix.R, fix.S) == (knot, R, S)
        # raises unless each kind and param is valid
        derived = [colored_differential(kind, R, S, param) for kind, param in diffs]
        labels = [label for *_, label in derived]
        assert len(set(labels)) == len(labels), fname
        for (kind, param), (_, _, (rows, cols), _) in zip(diffs, derived):
            if rows and cols:
                target = load_fixture(fixture_name(knot, Partition([cols] * rows)))
                assert (target.knot, target.R, target.S) == (knot, rows, cols)
            else:
                assert param == 0 and kind in ("+row", "-row", "+col", "-col")


def test_fixture_dir_override(tmp_path, monkeypatch):
    src = load_fixture("3_1:1")
    obj = {
        "knot": "3_1", "color": [1], "R": 1, "S": 1, "sigma": 2,
        "gradings": ["a", "q", "tr", "tc"],
        "dimension": 3,
        "poincare": src.poincare.to_json(["a", "q", "tr", "tc"]),
    }
    (tmp_path / "3_1-1.json").write_text(json.dumps(obj))
    monkeypatch.setenv("HOMOLOGY_FIXTURE_DIR", str(tmp_path))
    load_fixture.cache_clear()
    try:
        fix = load_fixture("3_1:1")
        assert fix.poincare == src.poincare
        with pytest.raises(FixtureError):
            load_fixture("4_1:1")  # not present in the override directory
    finally:
        monkeypatch.delenv("HOMOLOGY_FIXTURE_DIR")
        load_fixture.cache_clear()


def test_corrupted_fixture_fails_loudly(tmp_path, monkeypatch):
    src = load_fixture("3_1:1")
    obj = {
        "knot": "3_1", "color": [1], "R": 1, "S": 1, "sigma": 2,
        "gradings": ["a", "q", "tr", "tc"],
        "dimension": 4,  # wrong on purpose
        "poincare": src.poincare.to_json(["a", "q", "tr", "tc"]),
    }
    (tmp_path / "3_1-1.json").write_text(json.dumps(obj))
    monkeypatch.setenv("HOMOLOGY_FIXTURE_DIR", str(tmp_path))
    load_fixture.cache_clear()
    try:
        with pytest.raises(FixtureError):
            load_fixture("3_1:1")
    finally:
        monkeypatch.delenv("HOMOLOGY_FIXTURE_DIR")
        load_fixture.cache_clear()


def _raise_one_tc(obj):
    # one exponent of tc up by one: no term meets another and the generator
    # count holds, but that term's sign at tc = -1 flips
    obj["poincare"]["terms"][1]["exp"][3] = str(int(obj["poincare"]["terms"][1]["exp"][3]) + 1)


def _double_one_homfly_coefficient(obj):
    obj["homfly"]["terms"][0]["coeff"] = str(2 * int(obj["homfly"]["terms"][0]["coeff"]))


@pytest.mark.parametrize("name, corrupt, message", [
    ("3_1:S2", _raise_one_tc, "categorification mismatch"),
    # a table transcribed in the tilde gradings
    ("T3_4:S2", _raise_one_tc, "categorification mismatch"),
    ("3_1:S2", _double_one_homfly_coefficient, "specialization != tabled polynomial"),
])
def test_corrupted_table_names_the_failed_check(tmp_path, monkeypatch, name,
                                                corrupt, message):
    """A packaged table with one transcription error fails the check it
    breaks, after the generator count has passed."""
    packaged = pathlib.Path(__file__).resolve().parents[1] / "src" / "knothom" / "fixtures"
    filename = name.replace(":", "-") + ".json"
    obj = json.loads((packaged / filename).read_text())
    corrupt(obj)
    (tmp_path / filename).write_text(json.dumps(obj))
    monkeypatch.setenv("HOMOLOGY_FIXTURE_DIR", str(tmp_path))
    load_fixture.cache_clear()
    try:
        with pytest.raises(FixtureError, match=f"^{name}: {message}$"):
            load_fixture(name)
    finally:
        monkeypatch.delenv("HOMOLOGY_FIXTURE_DIR")
        load_fixture.cache_clear()


def test_homfly_specialization_matches_every_table():
    tabled = [name for name in FIXTURE_IDS if load_fixture(name).homfly is not None]
    assert len(tabled) == 7
    for name in tabled:
        fix = load_fixture(name)
        assert fix.homfly_specialization() == fix.homfly


def test_tilde_regrading_needs_divisibility():
    # q + tr - tc = 2 + 1 - 0 is not divisible by R = 2
    p = LaurentPoly.monomial(3, Multidegree(a=2, q=2, tr=1))
    with pytest.raises(ValueError) as err:
        to_tilde(p, 2)
    assert str(err.value) == ("monomial a^2 q^2 tr^1 tc^0: "
                              "(q + tr - tc) = 3 is not divisible by 2")


def test_tilde_regrading_round_trips_on_int_exponents():
    quadruple = [load_fixture(name) for name in FIXTURE_IDS
                 if load_fixture(name).quadruple()]
    assert {fix.R for fix in quadruple} == {1, 2}
    for fix in quadruple:
        tilde = to_tilde(fix.poincare, fix.R)
        assert tilde == fix.tilde()
        assert from_tilde(tilde, fix.R) == fix.poincare
        assert all(type(x) is int for md in tilde.terms for x in md)


def test_json_roundtrip_bit_exact():
    for name in ("3_1:S2", "T3_4:S2"):
        fix = load_fixture(name)
        dumped = fix.poincare.dumps(list(fix.gradings))
        from knothom.laurent import LaurentPoly
        assert LaurentPoly.loads(dumped).dumps(list(fix.gradings)) == dumped


def test_packaged_json_matches_transcriptions():
    # the transcription tool must reproduce every packaged file byte for byte
    root = pathlib.Path(__file__).resolve().parents[1]
    render = runpy.run_path(str(root / "tools" / "build_fixtures.py"))["render"]
    rendered = {name: text.encode() for name, text in render().items()}
    packaged = {path.name: path.read_bytes()
                for path in (root / "src" / "knothom" / "fixtures").glob("*.json")}
    assert rendered == packaged
