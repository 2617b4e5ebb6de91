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
    load_fixture,
)
from knothom.errors import UsageError
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
    for fname, diffs in DIFFERENTIALS.items():
        assert fname in HOMOLOGY_FIXTURES
        for (_, kind, param, target, project) in diffs:
            if target is not None:
                load_fixture(target)
            assert kind in ("+row", "+col", "-row", "-col", "up", "left")


def test_fixture_dir_override(tmp_path, monkeypatch):
    src = load_fixture("3_1:1")
    obj = {
        "knot": "3_1", "color": [1], "R": 1, "S": 1, "sigma": 2,
        "gradings": ["a", "q", "tr", "tc"], "form": "standard",
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
        "gradings": ["a", "q", "tr", "tc"], "form": "standard",
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
