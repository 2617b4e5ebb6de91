import json
import pathlib
import runpy
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from knothom.fixtures import (
    DIFFERENTIALS,
    FIXTURE_IDS,
    HOMOLOGY_FIXTURES,
    KNOT_ALIASES,
    KNOTS,
    FixtureError,
    HomologyFixture,
    fixture_name,
    from_tilde,
    knot_name,
    load_fixture,
    rectangle,
    to_tilde,
)
from knothom.checks import colored_differential
from knothom.cli import main
from knothom.errors import UsageError
from knothom.laurent import LaurentPoly, Multidegree
from knothom.partitions import Partition, parse_color, partitions_of

EXPECTED_DIMS = {
    "3_1:1": 3, "3_1:S2": 9, "3_1:L2": 9, "3_1:2x2": 81, "3_1:3x2": 729,
    "3_1:2_1": 41, "4_1:1": 5, "4_1:S2": 25, "T3_4:1": 11, "T3_4:S2": 121,
}


def test_all_fixtures_load_and_validate():
    for name in FIXTURE_IDS:
        fix = load_fixture(name)
        assert fix.poincare.dimension() == fix.dimension


def test_fixture_name_from_knot_and_color():
    """``fixture_name`` names each fixture from its knot and colour, and
    ``parse_color`` reads the colour back from any name it gives."""
    for name in HOMOLOGY_FIXTURES:
        fix = load_fixture(name)
        assert fixture_name(fix.knot, fix.color) == name
        assert parse_color(name.split(":")[1]) == fix.color
    for size in range(1, 7):
        for parts in partitions_of(size):
            name = fixture_name("unknot", Partition(parts))
            assert parse_color(name.split(":")[1]) == Partition(parts)
    with pytest.raises(UsageError):
        fixture_name("3_1", Partition())


def test_every_fixture_is_a_table_knot_in_a_color():
    """Each fixture name is ``<knot>:<colour>[:<differential>]``, its knot is
    in the knot table and its colour parses to the fixture's colour."""
    for name in FIXTURE_IDS:
        knot, color, *_ = name.split(":")
        fix = load_fixture(name)
        assert knot_name(knot) == knot == fix.knot
        assert parse_color(color) == fix.color, name


def test_knot_table_names_each_knot_once():
    assert {knot_name(name) for name in KNOTS} == set(KNOTS)
    assert knot_name("8_19") == "T3_4"
    assert set(KNOT_ALIASES.values()) <= set(KNOTS)
    assert not set(KNOT_ALIASES) & set(KNOTS)
    for text in ("granny", "", "3_1:S2", "torus:2,3", "t3_4"):
        with pytest.raises(UsageError, match="unknown knot"):
            knot_name(text)


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
        specs = [colored_differential(kind, R, S, param) for kind, param in diffs]
        labels = [spec.name for spec in specs]
        assert len(set(labels)) == len(labels), fname
        for (kind, param), spec in zip(diffs, specs):
            rows, cols = spec.target
            if rows and cols:
                target = load_fixture(fixture_name(knot, Partition([cols] * rows)))
                assert (target.knot, target.R, target.S) == (knot, rows, cols)
            else:
                assert param == 0 and kind in ("+row", "-row", "+col", "-col")


#: each fixture's (R, S), as its JSON file carried it before the pair was
#: derived from the colour
RECTANGLES = {
    "3_1:1": (1, 1), "4_1:1": (1, 1), "T3_4:1": (1, 1), "T3_4:1:d1|1": (1, 1),
    "3_1:S2": (1, 2), "4_1:S2": (1, 2), "T3_4:S2": (1, 2), "T3_4:S2:d1|2": (1, 2),
    "3_1:L2": (2, 1), "3_1:2x2": (2, 2), "3_1:3x2": (3, 2), "3_1:2_1": (0, 0),
}


def test_rectangle_follows_from_the_color():
    assert sorted(RECTANGLES) == sorted(FIXTURE_IDS)
    for name, pair in RECTANGLES.items():
        fix = load_fixture(name)
        assert (fix.R, fix.S) == rectangle(fix.color) == pair, name
    assert rectangle(Partition()) == (0, 0)
    assert rectangle(Partition([3, 3, 3, 3])) == (4, 3)


def test_fixture_dir_override(tmp_path, monkeypatch):
    src = load_fixture("3_1:1")
    obj = {
        "knot": "3_1", "color": [1], "sigma": 2,
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
        "knot": "3_1", "color": [1], "sigma": 2,
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


def test_a_file_of_another_fixture_is_refused(tmp_path, monkeypatch, capsys):
    """A file whose own knot and colour name another fixture than the one
    asked for is refused, naming both, where it used to load under the
    asked name and fail later as an internal error of the colored
    differentials; the command line still exits 3.  A file whose colour is
    no partition is refused as a broken fixture too, not as a usage error."""
    packaged = pathlib.Path(__file__).resolve().parents[1] / "src" / "knothom" / "fixtures"
    for path in packaged.glob("*.json"):
        (tmp_path / path.name).write_bytes(path.read_bytes())
    (tmp_path / "3_1-S2.json").write_bytes((packaged / "3_1-L2.json").read_bytes())
    monkeypatch.setenv("HOMOLOGY_FIXTURE_DIR", str(tmp_path))
    load_fixture.cache_clear()
    try:
        with pytest.raises(FixtureError, match=r"3_1-S2\.json holds the fixture 3_1:L2, "
                                               r"not 3_1:S2$"):
            load_fixture("3_1:S2")
        # the differential tables name their fixture in the first two fields
        assert load_fixture("T3_4:S2:d1|2").color == Partition([2])
        assert main(["check", "all", "--fixture", "3_1:S2"]) == 3
        assert "holds the fixture 3_1:L2, not 3_1:S2" in capsys.readouterr().err
        obj = json.loads((packaged / "3_1-S2.json").read_text())
        obj["color"] = [1, 2]
        (tmp_path / "3_1-S2.json").write_text(json.dumps(obj))
        load_fixture.cache_clear()
        with pytest.raises(FixtureError, match=r"^3_1:S2: parts must weakly decrease"):
            load_fixture("3_1:S2")
    finally:
        monkeypatch.delenv("HOMOLOGY_FIXTURE_DIR")
        load_fixture.cache_clear()


def _raise_one_tc(obj):
    # one exponent of tc up by one: no term meets another and the generator
    # count holds, but that term's sign at tc = -1 flips
    obj["poincare"]["terms"][1]["exp"][3] = str(int(obj["poincare"]["terms"][1]["exp"][3]) + 1)


def _raise_one_t(obj):
    # a triply graded table: one exponent of t up by one flips that term's
    # sign at t = -1, and only the tabled polynomial can see it
    obj["poincare"]["terms"][1]["exp"][2] = str(int(obj["poincare"]["terms"][1]["exp"][2]) + 1)


def _drop_one_exponent(obj):
    del obj["poincare"]["terms"][1]["exp"][-1]


def _double_one_homfly_coefficient(obj):
    obj["homfly"]["terms"][0]["coeff"] = str(2 * int(obj["homfly"]["terms"][0]["coeff"]))


@pytest.mark.parametrize("name, corrupt, message", [
    ("3_1:S2", _raise_one_tc, "categorification mismatch"),
    # a table transcribed in the tilde gradings
    ("T3_4:S2", _raise_one_tc, "categorification mismatch"),
    ("3_1:S2", _double_one_homfly_coefficient, "specialization != tabled polynomial"),
    ("3_1:2_1", _raise_one_t, "specialization != tabled polynomial"),
    # a term one exponent short is refused while it is parsed, by name
    ("3_1:S2", _drop_one_exponent,
     r"term \{'coeff': '\d+', 'exp': \[('-?\d+', ){2}'-?\d+'\]\} does not have one exponent "
     r"for each of \['a', 'q', 'tr', 'tc'\]"),
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


def substitute_chain(p, gradings):
    """The two sides of the categorification identity as the chain of
    ``substitute`` calls that computed them before they were read from the
    exponent parities in one pass."""
    minus, one = LaurentPoly.const(-1), LaurentPoly.one()
    if "tr" in gradings:
        return (p.substitute("tr", minus).substitute("tc", one),
                p.substitute("tr", one).substitute("tc", minus))
    side = p.substitute("tc" if "tc" in gradings else "t", minus)
    return side, side


def term_by_term(p, gradings):
    """The same two sides, one monomial at a time through the public
    constructors: each side sets one homological variable to -1 and the
    others to +1."""
    dropped = [v for v in ("tr", "tc", "t") if v in gradings]
    negated = ["tr", "tc"] if "tr" in gradings else dropped * 2
    sides = []
    for minus in negated:
        total = LaurentPoly.zero()
        for md, c in p.terms.items():
            sign = -1 if md.e(minus) % 2 else 1
            kept = Multidegree({v: e for v, e in md.items() if v not in dropped})
            total = total + LaurentPoly.monomial(sign * c, kept)
        sides.append(total)
    return tuple(sides)


def _fixture_of(gradings, poincare):
    return HomologyFixture(name="drawn", knot="drawn", color=Partition([1]), sigma=0,
                           gradings=gradings, poincare=poincare, dimension=0)


def assert_specializations(fix):
    got = fix.specializations()
    assert got == substitute_chain(fix.poincare, fix.gradings)
    assert got == term_by_term(fix.poincare, fix.gradings)
    # handed on in columns, which _validate compares: no zeros, and every
    # value a Fraction once read
    sides = fix.specializations()
    assert all(side._map is None for side in sides)
    assert all(type(c) is Fraction and c for side in sides for c in side.terms.values())


@pytest.mark.parametrize("name", FIXTURE_IDS)
def test_specializations_match_the_substitute_chain(name):
    assert_specializations(load_fixture(name))


GRADINGS = (("a", "q", "tr", "tc"), ("a", "q", "t"), ("a", "q", "tc"))
_COEFFS = st.one_of(st.integers(-4, 4),
                    st.fractions(min_value=-3, max_value=3, max_denominator=4)).filter(bool)


@st.composite
def drawn_tables(draw):
    """A polynomial in one of the tables' gradings, with ``Fraction``
    coefficients, whose terms often cancel when specialized: each of some
    terms gets a partner one step up in a drawn variable, with the same or
    the opposite coefficient."""
    gradings = draw(st.sampled_from(GRADINGS))
    exps = st.tuples(*[st.integers(-3, 3)] * len(gradings))
    terms = draw(st.lists(st.tuples(exps, _COEFFS), max_size=8))
    for e, c in terms[:draw(st.integers(0, len(terms)))]:
        k = draw(st.integers(0, len(gradings) - 1))
        up = e[:k] + (e[k] + draw(st.sampled_from([1, 2])),) + e[k + 1:]
        terms.append((up, c * draw(st.sampled_from([1, -1]))))
    poincare = LaurentPoly.zero()
    for e, c in terms:
        poincare = poincare + LaurentPoly.monomial(c, Multidegree(zip(gradings, e)))
    return _fixture_of(gradings, poincare)


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(drawn_tables())
def test_specializations_match_the_substitute_chain_on_drawn_tables(fix):
    assert_specializations(fix)


def test_specializations_cancel_to_zero():
    # the two halves cancel at tr = -1 and add up to an integer at tc = -1
    p = LaurentPoly({Multidegree(a=1, tr=1, tc=1): Fraction(1, 2),
                     Multidegree(a=1, tr=2, tc=1): Fraction(1, 2)})
    fix = _fixture_of(("a", "q", "tr", "tc"), p)
    assert [side.terms for side in fix.specializations()] == [{}, {Multidegree(a=1): -1}]
    assert_specializations(fix)


def test_tilde_regrading_needs_divisibility():
    # q + tr - tc = 2 + 1 - 0 is not divisible by R = 2
    p = LaurentPoly.monomial(3, Multidegree(a=2, q=2, tr=1))
    with pytest.raises(ValueError) as err:
        to_tilde(p, 2)
    assert str(err.value) == "non-integral exponent 3/2 on variable 'Q'"


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(st.integers(1, 4), st.dictionaries(
    st.tuples(*[st.integers(-6, 6)] * 4), st.integers(-3, 3).filter(bool), max_size=8),
    st.integers(-2, 2))
def test_tilde_regrading_round_trips_on_the_lattice(R, exponents, t):
    """Random polynomials in ``(a, Q, tr, tc)``, times a power of ``t``,
    which both regradings keep, go to ``q = R*Q - tr + tc`` and back, and
    ``to_tilde`` refuses a term moved one step of ``q`` off the lattice
    when ``R > 1``."""
    tilde = LaurentPoly({Multidegree(dict(zip(("a", "Q", "tr", "tc"), e)), t=t): c
                         for e, c in exponents.items()})
    p = from_tilde(tilde, R)
    assert not any(p._exponents("Q"))
    assert to_tilde(p, R) == tilde
    assert from_tilde(to_tilde(p, R), R) == p
    off = p * LaurentPoly.var("q")
    if R > 1 and exponents:
        with pytest.raises(ValueError, match="^non-integral exponent .* on variable 'Q'$"):
            to_tilde(off, R)


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
    # no file states a rectangle: (R, S) follows from the colour
    assert [name for name, text in packaged.items() if {"R", "S"} & set(json.loads(text))] == []
