import hashlib
import json
import os
import pathlib
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import knothom

from knothom import cli, suite
from knothom.cli import main, parse_knot, UsageError
from knothom.fixtures import load_fixture
from knothom.invariants import torus_homfly
from knothom.laurent import LaurentPoly, parse_poly
from knothom.partitions import Partition, parse_color


def test_parse_color():
    assert parse_color("S2") == Partition([2])
    assert parse_color("L3") == Partition([1, 1, 1])
    assert parse_color("2x3") == Partition([3, 3])
    assert parse_color("[4,2]") == Partition([4, 2])
    assert parse_color("1") == Partition([1])
    assert parse_color("2_1") == Partition([2, 1])
    with pytest.raises(UsageError):
        parse_color("wat")


def test_parse_knot():
    assert parse_knot("unknot") == ("unknot", None)
    assert parse_knot("torus:2,3") == ("torus", (2, 3))
    assert parse_knot("3_1") == ("fixture", "3_1")
    assert parse_knot("8_19") == ("fixture", "T3_4")
    assert parse_knot("T3_4") == ("fixture", "T3_4")
    assert parse_knot("4_1") == ("fixture", "4_1")
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
    factor; in text mode a nonzero offset goes to stderr, never to stdout,
    and the JSON object carries it as ``q_offset`` beside the series."""
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
    out = capsys.readouterr()
    assert out.err == ""
    obj = json.loads(out.out)
    assert obj.pop("q_offset") == (offset or "0")
    assert obj == series.expand(6).to_json()


def test_check_single_group(capsys):
    rc = main(["check", "self-symmetry", "--fixture", "3_1:S2"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "PASS self-symmetry:3_1:S2" in out


@pytest.fixture
def computed(monkeypatch):
    """The name of every check the suite computes, and of every fixture it
    loads, in order."""
    seen = {"checks": [], "fixtures": []}
    result, load = suite.CheckResult, suite.load_fixture

    def counted_result(name, ok, detail=""):
        seen["checks"].append(name)
        return result(name, ok, detail)

    def counted_load(name):
        seen["fixtures"].append(name)
        return load(name)

    monkeypatch.setattr(suite, "CheckResult", counted_result)
    monkeypatch.setattr(suite, "load_fixture", counted_load)
    return seen


@pytest.mark.parametrize("argv, count", [
    (["check", "all", "--fixture", "zzz"], 0),
    (["check", "self-symmetry", "--fixture", "3_1:S2"], 1),
    (["check", "schemes", "--fixture", "M(2,3,2)"], 3),
    (["check", "all", "--fixture", "3_1:S2"], 13),
])
def test_check_selects_before_computing(computed, capsys, argv, count):
    """``--fixture`` selects checks by name before any is computed: every
    check computed is printed, and a selection of none computes no check
    and loads no fixture before it exits 2."""
    rc = main(argv)
    out = capsys.readouterr().out
    assert len(computed["checks"]) == count
    assert sorted(computed["checks"]) == sorted(line.split()[1] for line in out.splitlines())
    assert rc == (0 if count else 2)
    if not count:
        assert computed["fixtures"] == []


def test_check_unknown_group(capsys):
    rc = main(["check", "nonsense"])
    assert rc == 2


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
#: series
SPELLINGS = [
    *[("homfly", spelled, canonical) for spelled, canonical in [
        ("[2]", "S2"), ("1x2", "S2"), ("[1,1]", "L2"), ("2x1", "L2"),
        ("[2,2]", "2x2"), ("[2,2,2]", "3x2"), ("L1", "S1")]],
    ("cancel", "[2]", "S2"), ("cancel", "[1,1]", "L2"), ("cancel", "L1", "S1"),
    ("cancel", "[2,2]", "2x2"), ("cancel", "[2,2,2]", "3x2"),
    ("homfly", "1", "S1"), ("homfly", "2_1", "[2,1]"), ("homfly", "2_2", "2x2"),
    ("cancel", "1", "S1"), ("cancel", "1x1", "S1"),
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


#: SHA-256 of ``cancel --knot 3_1 --color 2x2 --cutoff 16 --format json``,
#: recorded while ``sl_cancel`` still expanded in ``q`` to well past the cutoff
PINNED_CANCEL_2X2_SHA256 = \
    "10d1adfd4321cae0c8e7ba9bc69822a9c654fe61814bce224697effc628778ed"


def test_cancel_rectangle_json_pinned(capsys):
    argv = ["cancel", "--knot", "3_1", "--color", "2x2", "--cutoff", "16",
            "--format", "json"]
    assert main(argv) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == PINNED_CANCEL_2X2_SHA256


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
    ["scheme", "--p", "2", "--q", "3", "--r", "2", "--ceiling", "0"],
    ["scheme", "--p", "2", "--q", "3", "--r", "2", "--ceiling", "-1"],
])
def test_bad_input_is_a_usage_error(capsys, argv):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("reduced, advice", [
    (["--reduced"], "raise --ceiling"),
    pytest.param([], "the unreduced presentation never closes for --r >= 1 "
                     "(u1 is not nilpotent); use --reduced", id="unreduced"),
])
def test_scheme_ceiling_advice(capsys, reduced, advice):
    """Only a reduced scheme is told to raise the ceiling; the unreduced one
    never closes for r >= 1 and is refused before elimination."""
    argv = ["scheme", "--p", "2", "--q", "3", "--r", "1", "--ceiling", "3"]
    assert main(argv + reduced) == 2
    want = f"degree ceiling 3 exceeded; {advice}" if reduced else advice
    assert capsys.readouterr().err == f"error: {want}\n"


def test_unreduced_scheme_is_refused_at_once(capsys):
    """An unreduced scheme with forms at r = 2 ran for minutes before it
    reached the default ceiling; it is refused before elimination, and
    r = 0 still gives the basis ``1``."""
    start = time.perf_counter()
    assert main(["scheme", "--p", "2", "--q", "3", "--r", "2", "--forms"]) == 2
    assert time.perf_counter() - start < 1
    assert "use --reduced" in capsys.readouterr().err
    assert main(["scheme", "--p", "2", "--q", "3", "--r", "0", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["basis"] == ["1"]


@pytest.mark.parametrize("argv", [
    ["bottom", "--p", "2", "--q", "3", "--r", "-1"],
    ["scheme", "--p", "0", "--q", "3"],
    ["potential", "--p", "2", "--q", "-3"],
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


#: SHA-256 of ``super --color C`` stdout in text, in JSON and with ``--expand``,
#: recorded while ``unknot_super`` built its own product of cells
SUPER_SPELLINGS = {"text": [], "json": ["--format", "json"], "expand": ["--expand"]}
PINNED_SUPER_SHA256 = {
    "S1 text":
        "b5ef7e03a6be44dd42a91718d56db0e613ee899699c04fdfa1b6b5ce9dd81fc4",
    "S1 json":
        "0e29530e17fc1121b33115c66b8789dc27f50ee13c145b84e069b78f199de740",
    "S1 expand":
        "62fdfd41eb47ead13be6d3640c44d8c9f8cd4879a648086b5015165d5ce4b63d",
    "S2 text":
        "c85e7ead01993f961bdac7d7d53a2b2849803a2b6e134aa9ddc0ad0ab4dbd2e8",
    "S2 json":
        "5bd940ca61ce8ff5ac31de4eb696c4da33a9765d5daf9d0a5880cf60779cf7e4",
    "S2 expand":
        "eca321869d41a6003bb05af14d40d488c6ec2872aa52d81f0c26aab20f41ad41",
    "S3 text":
        "b20ed96b24e14a354f33ffc17ae53d01c6b98a56d823c87656b0a41e24138e2b",
    "S3 json":
        "5196ca3f182541890376acdc9ed26bb3eeb891b38c4a3e7de6453a08f67ce3f2",
    "S3 expand":
        "c3ac90dc2fcd04ed6d2f63e8e327c005f03f3071a4570389fe11a0f308c0023e",
    "L2 text":
        "bdbf77d8d23e1cce8272d8898f75e136a43036dfc67a54b3a318a4af17155420",
    "L2 json":
        "6643b7f158fc19272fbc95ae416d8da7cb90e604232c136e013322ec8239d7ab",
    "L2 expand":
        "8f07bdade1b84afbed28221c01c74c751fb979cd4942ab27f0e02a38acc5c960",
    "L3 text":
        "123ecb3dab9ecb5fdd1e77adfc4dd89f3274397a85030a2a47baa9fc1ec2f4d9",
    "L3 json":
        "22c0cd156381bc2e6678e687797ee2959b2e448bc8cd98ef592c4dfdbe41565b",
    "L3 expand":
        "3bbeb8bd944d8560c98df85f7cab4efceab53c4272d9e2280fc2d566f6b737bd",
    "2x2 text":
        "8acc6da1a80993cf4b14423a516207ae5988e121b39d328097409ae8d3d57c72",
    "2x2 json":
        "cab216c371cc3bde1b0373e08c7e44ce713a56605d7012c0874508b8fcffa044",
    "2x2 expand":
        "9693af3407f1466639710f3e424cc597b98f1c1b74ad398198bd9339466762d5",
    "3x2 text":
        "f8882b73d2c08386d331f5a12c817d964b4c4a065431a75e7c0dec36628a0608",
    "3x2 json":
        "e8a34c524802fc75aae9d8d0523911e38d61f317a01d289984913174d59b8b0f",
    "3x2 expand":
        "c05e6f4ba82510c4bf09310b6a875063e24e02e7476fa3c6fc34d69f5191a68b",
    "2x3 text":
        "296abef0d108dde412e120c2602232cfbf3717c867ecf31fe3d5cf8ab452e6df",
    "2x3 json":
        "5a1739d12e8b43afc1c085651a3cd2565536edfc27bcd62a077beab1c650b495",
    "2x3 expand":
        "44d9c02b3b327ef09da7ce504e55d8c08bc6d0382a6e55465b7a4c3cd3f99585",
    "3x3 text":
        "07c93a3d306591e24c3a4838711b294e3df355ad4322782a6cf4cdd57d2f1d20",
    "3x3 json":
        "946c2e8cd3cfbad29389a5401724bb9d4f0e3f8d04171fc1036dfb0944066044",
    "3x3 expand":
        "70909bacb04d71b078fba475b0082aa384af57aa940208e05015b49841bdb7a1",
    "[2,1] text":
        "2f1a67df465432420f787aff15c221f9953b014cd0a4ed7c47adb30209acfa47",
    "[2,1] json":
        "07b753622ebe22bf2f097d00f9db52d396861f63a844cab785c9f989a037c7f5",
    "[2,1] expand":
        "0973f39b1cc39f5709402ff383ce7a0b825f5e1aa1acf773f2a4a3e6a084e510",
    "[3,1] text":
        "2d4dcfb48b3e4322a64bbbb276d81346c9edcd3157f369177e93ace9fddb05c2",
    "[3,1] json":
        "683403f23d70beba18eec3b9a6d8be681f4876d4e7beee43bbe5620f90b5ca04",
    "[3,1] expand":
        "dd07e68a9b1b50a816126cfe250e9b12bce4c1f207d0978e4d2c300dd9e0435a",
    "[3,2,1] text":
        "8ed5abc790785a7bd04ee60c89afc1489e2a2838d955c64410c42375ee541f7c",
    "[3,2,1] json":
        "e7847485c95a02df86f56139cbdcf788f7816d28745691b8b2be0f43267412d2",
    "[3,2,1] expand":
        "4a78837e338170711ec192dc381ab07aee9957538c218f695ad3389e61913ba7",
    "[4,2] text":
        "a7039cc607f01d93eba8e7075f4aebdc8552c6509d8499f31805a5ba3cb6e374",
    "[4,2] json":
        "91b11497f394393fe627a191beadfa0a3fad1960888901deb8db52e232b31ff3",
    "[4,2] expand":
        "1bdf7befa739edb36a1fd869afb277e63c2f74fdc5f291eab8ec7c4b37e5b8e5",
    "[2,2,1] text":
        "586968e43ba5a0b91a399d172ea0af6cea482000abeaea5246d716edcbfc776d",
    "[2,2,1] json":
        "b1b8c3035236ab23d2a771d8afee4d2ad09e1deafa1ad1120403e193551c4976",
    "[2,2,1] expand":
        "9d9f42267673e3293b5943bac7e0256e4dd589d5f12b15c3f4cd8108e90863c9",
}


@pytest.mark.parametrize("key", PINNED_SUPER_SHA256)
def test_super_pinned(capsys, key):
    color, spelling = key.split()
    assert main(["super", "--color", color, *SUPER_SPELLINGS[spelling]]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == PINNED_SUPER_SHA256[key]


#: SHA-256 of ``check all --format json``: every check's name, verdict and
#: detail, in name order
PINNED_CHECK_ALL_SHA256 = \
    "3c5c6b77478c591bf4b5f5247921929acaa75d49f8566e55fa63fef88efeb047"


def test_check_all_json_pinned(capsys):
    assert main(["check", "all", "--format", "json"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == PINNED_CHECK_ALL_SHA256


#: SHA-256 of ``check <group>`` stdout, in JSON (group order, every detail)
#: and in text (name order), recorded before each check became a row of one
#: table; ``check all`` is sorted, so its pin cannot see group order.  The
#: ``hirota`` group prints one check, ``PASS hirota:unknot`` in text.
PINNED_CHECK_GROUP_SHA256 = {
    "dimensions json":
        "1520e8ddcddb8f0e43a107f6dbd5ee45ba699a8a4430f062c4e7a845ea89376c",
    "dimensions text":
        "f2c42433df018460ade8bd9c6b1ff6213d5b0b165a196c813668e0d64ba9ec0f",
    "categorification json":
        "d3591f9ead40918fe03414ab86b420cb135fb678a430d343a9274f2ff4d9271e",
    "categorification text":
        "16dd9cbf77ee81a51ec5f4056d234a49616a19b7744e6fa036c7f45728c1d299",
    "self-symmetry json":
        "2771b147c2f3781278ed44159e18721ebf737cebc7d994d886e819b6fb408555",
    "self-symmetry text":
        "7d1bcde0107ac1533bb8ff240db5ae57b26cc2045e68b9ae76a29f4a638414f9",
    "mirror json":
        "a6f97a409d6f9ad6b9401f8f72d27916ae5700f6c8b1406ceb8dca63082e1de5",
    "mirror text":
        "45c4f7e7ce1b8541008767f792b208389fdbd0bf1b5832449ed00a184fd468f5",
    "delta json":
        "9fec73d3687c19998ad92ac53b34e45fe1fda5968fe091d225526ffc9b92ed0c",
    "delta text":
        "3391ab33622cfb84c5d49785cdce68c10afc1752e27882b771d4af2f60f1bdbb",
    "growth json":
        "fb31192a8e1b5c1cc4ec10e1ec21d6028877e264dfcbff38fce8eb40501a62b9",
    "growth text":
        "cc10a759b2d43d6980fd0ffc62c35dac64530d356b2b4419fbb2acb54408d95d",
    "differentials json":
        "9e9458c7f2c8f9d02af969d6c7b6a72931b940a6b8e797eeea1a565afd41bc6b",
    "differentials text":
        "35515709a1956837639194d795c86da0c51de9b1d1a940a1dd354133c7687f79",
    "hfk json":
        "971377e74b26c533155a7f72efdd57e2aa2afe511cf5481844a68ec3558795a1",
    "hfk text":
        "e387d972eac5c6155e1af8045c992960b336c60833517c9da4ba68814bca58f8",
    "hook-macdonald json":
        "ce153f4fca8539355161dc0a6490c44a0825efdb0858e6a24df4e5868e267ca7",
    "hook-macdonald text":
        "000895cd6d28aec195fa276652aae04bd0a94ebcd1c3e22e3b7abefaa6355392",
    "rosso-jones json":
        "d3884443f270511720347c99282cbcfa2c6446c1dd42385c5cfe759b22564a14",
    "rosso-jones text":
        "e6c1b58038bc9c44e9ee83d4b0c8382535221592716c29a16de9ebd6f8eb7083",
    "stable json":
        "9f684653ef586ec23070ec110d4f315f0a070627b25137ccd4d0c54d2e2e1b6e",
    "stable text":
        "1b6e788f1f3a6451b58b0b9b3b9f0aca12690598fe3f7db83a7746a08a6f2295",
    "hirota json":
        "17de2b43f2d86c678e605cf77efea29f5175a7177e1bd076e390ccfe98e6aeea",
    "hirota text":
        "2959699719c2bc879a41f46d1d24f60b7a2ac4946e75c0a97dc2ff47bb741b6b",
    "schemes json":
        "11c5eccd499278d68d3053b7a657d048b593de1bb4fd72489a42364c8ca5d197",
    "schemes text":
        "7b1679e9621551369a5d6bc15c4051aacd94ff20c08159c9603058576fe79187",
    "potentials json":
        "88e0afd70312460339da2efef9f5fd87100b92b76a28092b6d63ba3d0c3b86a8",
    "potentials text":
        "6ebf40a07d89544936ede6491700f1049bf86e90bd3ffba3c8e2091212720b07",
    "counting json":
        "d29ee176fb75da4819a844a36ce1367a25cc2637bbc54f0bf7dd36748a50b886",
    "counting text":
        "4456dd315bb1ae9e62ad970be5b0a47694024dc622aece3359010ce0703cffae",
    "vortex json":
        "3fc039eb472a4e99b15b35d520503abad17d15eb310a6a3f21fec16ca0e1eef1",
    "vortex text":
        "369d4056488e659e70b45d400af78072158e5d6f3a0b262062266fe95ec4a2e2",
    "sl2 json":
        "57e63be7eae523cbe05c75d976b7d60fcd91426765d10c9060f657554996764e",
    "sl2 text":
        "63a7eaeef9d7950fea325414413050cb420c2be64d8992f3a0f3d7691eedeb7f",
}


@pytest.mark.parametrize("key", PINNED_CHECK_GROUP_SHA256)
def test_check_group_pinned(capsys, key):
    group, fmt = key.split()
    assert main(["check", group, "--format", fmt]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == PINNED_CHECK_GROUP_SHA256[key]


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
    """Every ``main`` call in a process reads the one option table, which
    parsing never writes: neither an option of an earlier request nor a
    usage error may reach a later one.  Nor may the exponent slots that
    earlier requests gave their variables (here the scheme's generators):
    output names variables in sorted order only."""
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
