import hashlib
import json
import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest

import knothom

from knothom import cli
from knothom.cli import main, parse_color, parse_knot, UsageError
from knothom.fixtures import load_fixture
from knothom.invariants import torus_homfly
from knothom.laurent import LaurentPoly, parse_poly
from knothom.partitions import Partition


def test_parse_color():
    assert parse_color("S2") == Partition([2])
    assert parse_color("L3") == Partition([1, 1, 1])
    assert parse_color("2x3") == Partition([3, 3])
    assert parse_color("[4,2]") == Partition([4, 2])
    with pytest.raises(UsageError):
        parse_color("wat")


def test_parse_knot():
    assert parse_knot("unknot") == ("unknot", None)
    assert parse_knot("torus:2,3") == ("torus", (2, 3))
    assert parse_knot("3_1") == ("fixture", "3_1")
    assert parse_knot("8_19") == ("fixture", "T3_4")
    with pytest.raises(UsageError):
        parse_knot("granny")


def test_homfly_text(capsys):
    rc = main(["homfly", "--knot", "torus:2,3", "--color", "S1", "--reduced"])
    out = capsys.readouterr().out.strip()
    assert rc == 0
    assert parse_poly(out) == parse_poly("1 + q^2 - a*q")


def test_homfly_json_roundtrip(capsys):
    main(["homfly", "--knot", "torus:2,3", "--color", "S1", "--reduced",
          "--format", "json"])
    out = capsys.readouterr().out.strip()
    poly = LaurentPoly.from_json(json.loads(out))
    assert poly == parse_poly("1 + q^2 - a*q")
    # bit-exact round trip
    assert json.dumps(poly.to_json(), separators=(",", ":")) == \
        json.dumps(LaurentPoly.from_json(json.loads(out)).to_json(),
                   separators=(",", ":"))


@pytest.mark.parametrize("color, offset", [("S1", "1/2"), ("S2", None)])
def test_unreduced_homfly_prints_offset_on_stderr(capsys, color, offset):
    """Unreduced ``homfly`` prints the series without its ``q^offset``
    factor; a nonzero offset goes to stderr in text mode, never to stdout."""
    argv = ["homfly", "--knot", "torus:2,3", "--color", color, "--cutoff", "6"]
    assert main(argv) == 0
    text = capsys.readouterr()
    series, report = torus_homfly(parse_color(color), 2, 3, reduced=False)
    assert parse_poly(text.out.strip()) == series.expand(6)
    assert report.fractional_offset == (Fraction(offset) if offset else 0)
    if offset:
        assert f"q^({offset})" in text.err
    else:
        assert text.err == ""
    assert main([*argv, "--format", "json"]) == 0
    assert capsys.readouterr().err == ""


def test_check_single_group(capsys):
    rc = main(["check", "self-symmetry", "--fixture", "3_1:S2"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "PASS self-symmetry:3_1:S2" in out


def test_check_unknown_group(capsys):
    rc = main(["check", "nonsense"])
    assert rc == 2


def test_check_failing_polynomial_reports(capsys):
    # hirota with custom bounds still passes; a bogus verb exits 2
    rc = main(["check", "hirota", "--rmax", "2", "--smax", "2"])
    out = capsys.readouterr().out
    assert rc == 0 and out.count("PASS") == 4


def test_scheme_listing(capsys):
    rc = main(["scheme", "--p", "2", "--q", "3", "--r", "2", "--reduced",
               "--forms"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "dimension 9" in out
    assert "du3*du4" in out


def test_bottom_count(capsys):
    rc = main(["bottom", "--p", "3", "--q", "4", "--r", "1", "--count"])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "5"


def test_bottom_rows(capsys):
    main(["bottom", "--p", "3", "--q", "4", "--rows"])
    assert capsys.readouterr().out.strip() == "5 5 1"


def test_potential_json(capsys):
    rc = main(["potential", "--p", "2", "--q", "3", "--r", "1",
               "--format", "json"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    body = LaurentPoly.from_json(out["body"])
    assert body.coefficient_of("u2", 3).num_terms() == 1
    assert "superBody" in out


def test_cancel(capsys):
    rc = main(["cancel", "--knot", "3_1", "--color", "S1", "--n", "2",
               "--cutoff", "20"])
    out = capsys.readouterr().out.strip()
    assert rc == 0
    assert parse_poly(out) == parse_poly("q + q^3 + q^5*t^2 + q^9*t^3")


def test_homfly_finds_a_non_rectangular_fixture(capsys):
    assert main(["homfly", "--knot", "3_1", "--color", "[2,1]"]) == 0
    out = capsys.readouterr().out.strip()
    assert parse_poly(out) == load_fixture("3_1:2_1").homfly_specialization()


#: (verb, color, its canonical spelling); ``cancel`` expands the unreduced
#: series, which takes a minute for the larger rectangles
SPELLINGS = [
    *[("homfly", spelled, canonical) for spelled, canonical in [
        ("[2]", "S2"), ("1x2", "S2"), ("[1,1]", "L2"), ("2x1", "L2"),
        ("[2,2]", "2x2"), ("[2,2,2]", "3x2"), ("L1", "S1")]],
    ("cancel", "[2]", "S2"), ("cancel", "[1,1]", "L2"), ("cancel", "L1", "S1"),
]


@pytest.mark.parametrize("verb, spelled, canonical", SPELLINGS)
def test_fixture_found_from_the_partition(capsys, verb, spelled, canonical):
    """A fixture is found from the color's partition, however it is spelled."""
    argv = [verb, "--knot", "3_1", "--cutoff", "16", "--color"]
    assert main(argv + [canonical]) == 0
    expected = capsys.readouterr().out
    assert main(argv + [spelled]) == 0
    assert capsys.readouterr().out == expected


def test_cancel_resolves_knot_alias(capsys):
    argv = ["cancel", "--color", "S1", "--n", "2", "--cutoff", "12"]
    assert main(argv + ["--knot", "T3_4"]) == 0
    expected = capsys.readouterr().out
    assert main(argv + ["--knot", "8_19"]) == 0
    assert capsys.readouterr().out == expected


def test_cancel_rejects_torus_knot(capsys):
    assert main(["cancel", "--knot", "torus:2,3", "--color", "S1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cancel needs a fixture knot or unknot")


def test_unknown_verb_exits_2():
    assert main(["frobnicate"]) == 2


#: stdout of the unknot product printers, pinned byte for byte
PINNED_UNKNOT_JSON = [
    (["homfly", "--knot", "unknot", "--color", "[2,1]", "--format", "json"],
     '{"numerator": {"variables": ["a", "q"], "terms": ['
     '{"coeff": "1", "exp": ["0", "0"]}, '
     '{"coeff": "-1", "exp": ["1", "-1"]}, '
     '{"coeff": "-1", "exp": ["1", "0"]}, '
     '{"coeff": "1", "exp": ["2", "-1"]}, '
     '{"coeff": "-1", "exp": ["1", "1"]}, '
     '{"coeff": "1", "exp": ["2", "0"]}, '
     '{"coeff": "1", "exp": ["2", "1"]}, '
     '{"coeff": "-1", "exp": ["3", "0"]}]}'
     ', "denominator": {"variables": ["q"], "terms": ['
     '{"coeff": "1", "exp": ["0"]}, {"coeff": "-2", "exp": ["1"]}, '
     '{"coeff": "1", "exp": ["2"]}, {"coeff": "-1", "exp": ["3"]}, '
     '{"coeff": "2", "exp": ["4"]}, {"coeff": "-1", "exp": ["5"]}]}}\n'),
    (["super", "--color", "S2", "--format", "json"],
     '{"numerator": {"variables": ["a", "q", "t"], "terms": ['
     '{"coeff": "1", "exp": ["0", "0", "0"]}, '
     '{"coeff": "1", "exp": ["2", "0", "1"]}, '
     '{"coeff": "1", "exp": ["2", "2", "3"]}, '
     '{"coeff": "1", "exp": ["4", "2", "4"]}]}'
     ', "denominator": {"variables": ["q", "t"], "terms": ['
     '{"coeff": "1", "exp": ["0", "0"]}, '
     '{"coeff": "-1", "exp": ["2", "0"]}, '
     '{"coeff": "-1", "exp": ["4", "2"]}, '
     '{"coeff": "1", "exp": ["6", "2"]}]}}\n'),
]


@pytest.mark.parametrize("argv, expected", PINNED_UNKNOT_JSON)
def test_unknot_product_json_pinned(capsys, argv, expected):
    assert main(argv) == 0
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize("argv", [argv[:-2] for argv, _ in PINNED_UNKNOT_JSON])
def test_unknot_product_text_names_no_order(capsys, argv):
    """The exact rational function is printed, never an expansion order."""
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert " / [" in out and "order" not in out


@pytest.mark.parametrize("argv", [
    ["bottom", "--p", "2"],
    ["potential"],
    ["scheme", "--p", "2", "--q", "3", "--r", "2", "--ceiling", "3"],
    ["homfly", "--knot", "torus:2,4"],  # not coprime
    ["homfly", "--knot", "torus:2"],
    ["homfly", "--knot", "torus:2,3", "--color", "S9", "--reduced"],  # over the cap
    ["homfly", "--knot", "unknot", "--color", "[1,2]"],
    ["homfly", "--knot", "unknot", "--color", "2xa"],
    ["bottom", "--vortex", "1,x"],
    ["bottom", "--vortex=-1,2"],
    ["potential", "--antisym", "2"],
    ["potential", "--antisym", "3,1"],
    ["scheme", "--p", "2", "--q", "4"],
    ["homfly", "--knot", "3_1", "--color", "S5"],  # no such fixture
    ["cancel", "--knot", "4_1", "--color", "S3"],
    ["cancel", "--knot", "3_1", "--cutoff", "1"],  # leaves no window
    ["cancel", "--knot", "3_1", "--color", "S0"],  # the empty color
    ["homfly", "--knot", "3_1", "--color", "[]"],
    ["homfly", "--knot", "torus:2,3", "--color", "[1.5]"],  # not integers
    ["homfly", "--knot", "torus:2,3", "--color", "[2.0]"],
    ["homfly", "--knot", "torus:2,3", "--color", '["2"]'],
    ["homfly", "--knot", "torus:2,3", "--color", "[true]"],
    ["check", "all", "--fixture", "zzz"],  # selects no check
])
def test_bad_input_is_a_usage_error(capsys, argv):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["bottom", "--p", "2", "--q", "3", "--r", "-1"],
    ["scheme", "--p", "0", "--q", "3"],
    ["potential", "--p", "2", "--q", "-3"],
    ["check", "hirota", "--rmax", "0"],
    ["check", "hirota", "--smax", "0"],
    ["cancel", "--knot", "3_1", "--n", "0"],
    ["cancel", "--knot", "3_1", "--n", "-1"],
])
def test_out_of_range_option_is_a_usage_error(capsys, argv):
    assert main(argv) == 2
    assert "error: argument --" in capsys.readouterr().err


@pytest.mark.parametrize("exc", [ValueError("bug"), KeyError("bug")])
def test_internal_error_exits_3(capsys, monkeypatch, exc):
    """An exception that is no usage error is reported as an internal
    error, never as a check failure (1) or a usage error (2)."""
    def broken(*args):
        raise exc
    monkeypatch.setattr(cli, "bottom_poincare", broken)
    assert main(["bottom", "--p", "2", "--q", "3"]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"internal error: {type(exc).__name__}: ")
    assert "Traceback" in err


#: SHA-256 of the ``scheme ... --reduced --format json`` stdout, recorded
#: before elimination went fraction-free; the bases pin which monomials
#: survive, which the pivot rule decides
PINNED_SCHEME_SHA256 = {
    "--p 2 --q 3 --r 5 --forms":
        "b5ea69a313e6cf239b2d03af1f3264272b5f71e72a57f3e41039349d231d6892",
    "--p 3 --q 5 --r 2 --forms":
        "2b23f762ded621e2ea7c7cc1c59263e09ae5eb9c0c4f37d80451a9b7c1f7d6de",
    "--p 3 --q 4 --r 3":
        "f8abae5de894e3eec324da720a0877f5665582f2ecccadef50cd07068b53b311",
    "--p 5 --q 6 --r 1 --forms":
        "748663785e4595d89dab75e542e8662097a60d0e27c0dcd01e96d916dd18110c",
}


@pytest.mark.parametrize("args", PINNED_SCHEME_SHA256)
def test_scheme_basis_json_pinned(capsys, args):
    assert main(["scheme", *args.split(), "--reduced", "--format", "json"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == PINNED_SCHEME_SHA256[args]


#: SHA-256 of the ``homfly ... --reduced --format json`` stdout, recorded
#: before the reduced quotient was taken one binomial at a time
PINNED_HOMFLY_SHA256 = {
    "--knot torus:3,4 --color S4":
        "e3f2cca241997acca8e89aa160829442d142b063d9a5b41229585907fe465b23",
    "--knot torus:2,5 --color 2x2":
        "533541d379b7b788c6f2b24dcca1b5ef48d8c7b8e3cb8732b00b7d9566517453",
}


@pytest.mark.parametrize("args", PINNED_HOMFLY_SHA256)
def test_heavy_homfly_json_pinned(capsys, args):
    assert main(["homfly", *args.split(), "--reduced", "--format", "json"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == PINNED_HOMFLY_SHA256[args]


#: SHA-256 of ``check all --format json``: every check's name, verdict and
#: detail, in name order
PINNED_CHECK_ALL_SHA256 = \
    "494bf8f799cb1d102c20bb7efc4f1ed5d2490e0ee6a5c82a6a026b0608c19a36"


def test_check_all_json_pinned(capsys):
    assert main(["check", "all", "--format", "json"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == PINNED_CHECK_ALL_SHA256


def test_replay_reference_matches_every_pin():
    """Every request pinned in ``bench/reference.json`` still prints the
    pinned bytes, replayed by ``tools/replay_reference.py``."""
    root = pathlib.Path(__file__).resolve().parents[1]
    done = subprocess.run([sys.executable, str(root / "tools" / "replay_reference.py")],
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-4000:]
    assert done.stdout.splitlines()[-1] == "130/130 requests match"


def run_module(*argv):
    src = str(pathlib.Path(knothom.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "knothom", *argv],
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=300)


def test_python_dash_m_runs_the_cli():
    done = run_module("check", "schemes", "--format", "json")
    assert done.returncode == 0, done.stderr
    assert all(r["ok"] for r in json.loads(done.stdout))
    done = run_module("bottom", "--p", "2")
    assert done.returncode == 2
    assert done.stderr.startswith("error: ")


def test_calls_in_one_process_share_no_state(capsys):
    """One parser serves every ``main`` call in a process: neither an option
    of an earlier request nor a usage error may reach a later one.  Nor may
    the exponent slots that earlier requests gave their variables (here the
    scheme's generators): output names variables in sorted order only."""
    request = ["homfly", "--knot", "torus:2,3", "--color", "S2", "--format", "json"]
    assert main(request + ["--cutoff", "12"]) == 0
    short = capsys.readouterr().out
    assert main(["bottom", "--p", "2"]) == 2
    assert main(["homfly", "--cutoff", "5"]) == 2  # --knot is missing
    assert main(["scheme", "--p", "2", "--q", "3", "--r", "2", "--reduced",
                 "--forms"]) == 0
    capsys.readouterr()
    cancel = ["cancel", "--knot", "3_1", "--color", "S2", "--cutoff", "14"]
    for argv in (request, cancel):
        assert main(argv) == 0
        fresh = run_module(*argv)
        assert fresh.returncode == 0, fresh.stderr
        assert capsys.readouterr().out == fresh.stdout != short
