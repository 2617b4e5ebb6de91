"""The command line's parser, against argparse and under a grammar fuzz.

``cli.parse`` reads an argument list against one table, ``cli.VERBS``.  The
parity oracle builds an argparse parser from that same table, with
``allow_abbrev=False``, and requires the same decision (a request, help or a
usage error) and, for a request, the same verb and values.  Argument lists
are drawn from every verb's options, in both ``--opt value`` and
``--opt=value`` forms, with repeats, junk tokens, unknown options and
abbreviations, missing values and required options, bad integers,
out-of-range values, bad ``--format`` choices and values that start with
``-``.  A token that starts with ``-`` is drawn as a value only where
argparse reads it the same way on every version: after ``=``, or when it
is ``-`` or a negative integer.  Not drawn, because the table-driven parser
reads them differently on purpose or argparse reads them differently by
version: ``--``, a ``-h`` with text glued to it, ``-``-leading tokens with a
space or that look like a negative decimal, and options before the verb.

The grammar fuzz runs the real commands on small argument lists: every exit
code is 0, 1 or 2, never 3 (an internal error), and every 2 prints exactly
one stderr line, which starts ``error: ``.  Every run is derandomized.
"""

import argparse
import contextlib
import io

import pytest
from hypothesis import given, settings, strategies as st

from knothom import cli
from knothom.cli import REQUIRED, VERBS, UsageError, main


def at_least(low):
    """The argparse type of an ``int`` option that must be ``>= low``."""
    def parse(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"{value} is less than {low}")
        return value
    return parse


def argparse_parser():
    """An argparse parser with the verbs, options, defaults and help of
    ``cli.VERBS``."""
    ap = argparse.ArgumentParser(prog="knothom", allow_abbrev=False)
    sub = ap.add_subparsers(dest="verb", required=True)
    for verb, (_, text, options) in VERBS.items():
        p = sub.add_parser(verb, help=text, allow_abbrev=False)
        for name, (kind, default, *helps) in options.items():
            spec = {"help": " ".join(helps) or None}
            if kind is bool:
                spec["action"] = "store_true"
            elif isinstance(kind, tuple):
                spec["choices"] = kind
            else:
                spec["type"] = kind if kind in (str, int) else at_least(kind)
            if not name.startswith("-"):
                spec["nargs"] = "?"
            if default is REQUIRED:
                spec["required"] = True
            else:
                spec["default"] = default
            p.add_argument(name, **spec)
    return ap


PARSER = argparse_parser()


def argparse_outcome(argv):
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            values = vars(PARSER.parse_args(argv))
    except SystemExit as exc:
        return "help" if exc.code == 0 else "usage error"
    return values.pop("verb"), values


def table_outcome(argv):
    """The table parser's decision and values.  Its record of the options
    that ``argv`` names, which argparse does not keep, is checked here and
    left out of the values: it holds every option token of ``argv`` and
    nothing that is not an option of the verb."""
    try:
        verb, args = cli.parse(argv)
    except UsageError:
        return "usage error"
    if args is None:
        return "help"
    values = dict(vars(args))
    given, options = values.pop("given"), VERBS[verb][2]
    named = {token.partition("=")[0] for token in argv[1:]} & {*options}
    assert {name for name in named if name[0] == "-"} <= given <= {*options}
    return verb, values


#: option names drawn as junk: every verb's (so that a verb meets the other
#: verbs' options), abbreviations of real ones, unknown ones and help
JUNK_NAMES = sorted({name for *_, options in VERBS.values() for name in options
                     if name.startswith("-")}
                    | {"--kno", "--form", "--cut", "--red", "--bogus", "-x", "-h", "--help"})
#: junk words, which only ``check`` reads as its positional ``what``
WORDS = ["all", "schemes", "x", "", "-", "-3", "3_1", "json", "-x"]
#: good and bad values of each kind; bad ones include values that start
#: with ``-`` and are no negative integer, which only ``=`` can give
INTS = ["0", "2", "7", "30", "-1", "-12", " 3", "+4", "1_0"]
BAD_INTS = ["x", "1.5", "", "-x", "--p", "-h"]
TEXTS = ["3_1", "S2", "all", "schemes", "x", "", "-", "-1", "a=b"]
BAD_TEXTS = ["-x", "-h", "--format", "--knot=3_1"]


def values(kind):
    """The good and the bad values of an option of ``kind``."""
    if isinstance(kind, tuple):
        return list(kind), ["xml", "", "-1", "-x", "TEXT"]
    if kind in (str, bool):
        return TEXTS, BAD_TEXTS
    return ([v for v in INTS if kind is int or int(v) >= kind] or INTS,
            BAD_INTS + [v for v in INTS if kind is not int and int(v) < kind])


@st.composite
def command_lines(draw):
    """An argument list: mostly a verb with its required options, then a few
    of its options in either form (a tenth of them junk, an eighth of their
    values bad), and words."""
    if draw(st.integers(0, 29)) == 0:
        return []
    first = draw(st.sampled_from([*VERBS] * 3 + ["frobnicate", "", "-h", "--help",
                                                 "--help=x", "-3"]))
    options = VERBS[first][2] if first in VERBS else {}
    own = [name for name in options if name.startswith("-")]
    argv = [first]
    for name in own:
        if options[name][1] is REQUIRED and draw(st.integers(0, 9)):
            argv += [name, draw(st.sampled_from(values(options[name][0])[0]))]
    for _ in range(draw(st.integers(0, 5))):
        shape = draw(st.sampled_from(["space"] * 6 + ["="] * 3 + ["word"]))
        if shape == "word":
            argv.append(draw(st.sampled_from(WORDS)))
            continue
        junk = not own or draw(st.integers(0, 9)) == 0
        name = draw(st.sampled_from(JUNK_NAMES if junk else own))
        good, bad = values(options.get(name, (str,))[0])
        value = draw(st.sampled_from(bad if draw(st.integers(0, 7)) == 0 else good))
        if shape == "=":
            argv.append(f"{name}={value}")
        elif options.get(name, (None,))[0] is bool or draw(st.integers(0, 19)) == 0:
            argv.append(name)  # a flag, or an option left without its value
        else:
            argv += [name, value]
    return argv


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(command_lines())
def test_parse_matches_argparse(argv):
    assert table_outcome(argv) == argparse_outcome(argv)


@pytest.mark.parametrize("argv", [
    [],
    ["-h"], ["--help"], ["--help=x"], ["frobnicate"],
    ["homfly", "--knot", "3_1"],
    ["homfly", "--knot=3_1", "--cutoff=-3", "--format=json"],
    ["homfly", "--knot", "3_1", "--knot", "4_1", "--cutoff", "5", "--cutoff=6"],
    ["homfly", "--kno", "3_1"],
    ["homfly", "--knot", "3_1", "--form", "json"],
    ["homfly", "--knot", "-x"],
    ["homfly", "--knot=-x"],
    ["homfly", "--knot", "-"],
    ["homfly", "--knot", "-7"],
    ["homfly", "--knot"],
    ["homfly", "--cutoff", "5"],
    ["homfly", "--knot", "3_1", "--cutoff", "x"],
    ["homfly", "--knot", "3_1", "--reduced=1"],
    ["homfly", "--knot", "3_1", "--reduced", "--reduced"],
    ["homfly", "--knot", "3_1", "--bogus", "-h"],
    ["homfly", "--knot", "3_1", "extra"],
    ["homfly", "-h", "--cutoff", "x"],
    ["homfly", "--cutoff", "x", "-h"],
    ["homfly", "-h=1"],
    ["check"], ["check", "schemes"], ["check", "-5"], ["check", "a", "b"], ["check", "-h"],
    ["check", "-x", "all"],
    ["check", "--format", "json", "all"], ["check", "--fixture", "x", "sl2"],
    ["check", "a", "--format", "json", "b"], ["check", "--format", "xml"],
    ["check", "--format="],
    ["scheme", "--p", "2"], ["scheme", "--p", "0", "--q", "3"],
    ["scheme", "--p=2", "--q=3", "--r=-1"], ["scheme", "--p", "2", "--q", "3", "--r", "0"],
    ["bottom", "--vortex", "-1,2"], ["bottom", "--vortex=-1,2"],
    ["cancel", "--knot", "3_1", "--n", "0"], ["cancel", "--knot", "3_1", "--n=1"],
])
def test_parse_matches_argparse_on_named_cases(argv):
    assert table_outcome(argv) == argparse_outcome(argv)


def test_options_are_exact_names():
    """argparse took any unique prefix of an option name; the table takes none."""
    with pytest.raises(UsageError, match="unrecognized arguments"):
        cli.parse(["homfly", "--kno", "3_1", "--knot", "3_1"])


@pytest.mark.parametrize("argv, first", [
    (["--help"], "usage: knothom VERB"),
    (["check", "-h"], "usage: knothom check"),
    (["homfly", "--knot", "3_1", "--help", "--cutoff", "x"], "usage: knothom homfly"),
])
def test_help_lists_the_table(capsys, argv, first):
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert out.startswith(first)
    verb = argv[0] if argv[0] in VERBS else None
    names = list(VERBS) if verb is None else list(VERBS[verb][2])
    assert all(name in out for name in names)


#: option values of the fuzz, as (values the parser takes, values it refuses),
#: each small enough that a request stays fast
FUZZ_VALUES = {
    "--knot": (["unknot", "3_1", "4_1", "T3_4", "8_19", "torus:2,3", "torus:2,5",
                "torus:3,2", "torus:2,4", "torus:2", "torus:a,b", "granny", ""], []),
    "--color": (["S1", "S2", "L2", "[2,1]", "2x1", "[]", "S0", "[1,2]", "[1.5]", "wat",
                 "S9", "1", "2_1", "1x1", "2_2", "1_2", "_", "2_"], []),
    "--cutoff": (["-1", "0", "1", "3", "6"], ["x"]),
    "--ceiling": (["-1", "0", "3", "8", "12", "20"], ["1.5"]),
    "--p": (["1", "2", "3"], ["0", "x"]),
    "--q": (["1", "2", "3"], ["-1"]),
    "--r": (["0", "1", "2"], ["-1"]),
    "--n": (["1", "2", "3"], ["0", "-1"]),
    "--vortex": (["1,2", "2,2", "1,x", "0,1", "-1,2", "3"], []),
    "--antisym": (["2,3", "3,1", "1,1", "2", "x,y"], []),
    "--fixture": (["3_1:S2", "M(2,3,2)", "hirota", "zzz"], []),
    "--format": (["text", "json"], ["xml"]),
    "what": (["all", "hirota", "mirror", "delta", "schemes", "nonsense", ""], []),
}


def fuzz_token(draw, options, name):
    """``name`` with a drawn value, as one or two tokens; one value in eight
    is one that the parser refuses."""
    good, bad = FUZZ_VALUES.get(name, (["x"], []))
    if name not in options or options[name][0] is bool:
        return [name]
    value = draw(st.sampled_from(bad if bad and draw(st.integers(0, 7)) == 0 else good))
    if not name.startswith("-"):
        return [value]
    return [f"{name}={value}"] if draw(st.booleans()) else [name, value]


#: options that every request of a verb that reads them gives, so that no
#: request falls back to a default that can take seconds: the ceiling of
#: 200 (a reduced scheme with forms can eliminate for seconds below it), a
#: cutoff of 30, or every check of the suite
BOUNDED = ("--ceiling", "--cutoff", "--fixture")


@st.composite
def fuzz_lines(draw):
    """A verb with its :data:`BOUNDED` options, mostly its required options
    and half of the others, then a few more options (a repeat, an unknown
    one or ``-h``)."""
    verb = draw(st.sampled_from(list(VERBS)))
    options = VERBS[verb][2]
    argv = [verb]
    for name, (_, default, *_) in options.items():
        if (name in BOUNDED
                or draw(st.integers(0, 9)) < (9 if default is REQUIRED else 5)):
            argv += fuzz_token(draw, options, name)
    for _ in range(draw(st.integers(0, 3))):
        argv += fuzz_token(draw, options, draw(st.sampled_from([*options, "--bogus", "-h"])))
    return argv


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(fuzz_lines())
def test_fuzzed_requests_keep_the_exit_code_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    assert rc in (0, 1, 2), (argv, err.getvalue()[-2000:])
    if rc == 2:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), (argv, lines)
