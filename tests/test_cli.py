import json

import pytest

from knothom.cli import main, parse_color, parse_knot, UsageError
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


@pytest.mark.parametrize("argv", [
    ["bottom", "--p", "2"],
    ["potential"],
    ["scheme", "--p", "2", "--q", "3", "--r", "2", "--ceiling", "3"],
])
def test_bad_input_is_a_usage_error(capsys, argv):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
