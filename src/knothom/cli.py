"""Command-line interface: compute invariants, bases and verification reports.

Verbs:

    homfly     colored invariants of torus knots and the unknot
    super      unknot superpolynomial series and evaluation products
    check      structural checks (one group or ``all``)
    scheme     quotient-scheme bases and Poincare polynomials
    bottom     bottom-row counts, gradings and vortex characters
    potential  Landau-Ginzburg potentials
    cancel     rank-collapse cancellation of unreduced series

All numeric output is exact; ``--format json`` emits the canonical
polynomial JSON used throughout the package.  Exit codes: 0 on success or
pass, 1 on a check failure, 2 on usage errors, 3 on internal errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .laurent import LaurentPoly, RationalSeries
from .partitions import Partition, catalan_count
from .invariants import torus_homfly, unknot_homfly, unknot_super
from .models import (
    DegreeCeilingError,
    macaulay_basis,
    potential_antisym,
    scheme_presentation,
    torus_potential,
)
from .checks import rank_collapse
from .errors import UsageError
from .fixtures import fixture_name, load_fixture
from .bottom import bottom_poincare, row_count, vortex_character
from . import suite


def parse_color(text: str) -> Partition:
    """``S2``, ``L3``, ``2x3`` (rows x cols) or an explicit ``[4,2]``."""
    text = text.strip()
    try:
        if text.startswith("S") and text[1:].isdigit():
            return Partition([int(text[1:])])
        if text.startswith("L") and text[1:].isdigit():
            return Partition([1] * int(text[1:]))
        if "x" in text:
            rows, cols = text.split("x")
            return Partition([int(cols)] * int(rows))
        if text.startswith("["):
            return Partition(json.loads(text))
    except (ValueError, TypeError) as exc:
        raise UsageError(f"cannot parse color {text!r}: {exc}") from None
    raise UsageError(f"cannot parse color {text!r}")


def parse_pair(text: str, what: str):
    """Two comma-separated integers, as in ``torus:2,3`` or ``--vortex 1,2``."""
    try:
        first, second = (int(x) for x in text.split(","))
    except ValueError:
        raise UsageError(
            f"{what} needs two comma-separated integers, not {text!r}") from None
    return first, second


def parse_knot(text: str):
    """``torus:p,q``, ``unknot`` or a fixture knot name like ``3_1``."""
    if text == "unknot":
        return ("unknot", None)
    if text.startswith("torus:"):
        return ("torus", parse_pair(text[len("torus:"):], "a torus knot"))
    if text in ("3_1", "4_1", "T3_4"):
        return ("fixture", text)
    if text == "8_19":
        return ("fixture", "T3_4")
    raise UsageError(f"unknown knot {text!r}")


def emit_poly(p: LaurentPoly, fmt: str, variables=None):
    if fmt == "json":
        print(json.dumps(p.to_json(variables)))
    else:
        print(p)


def emit_rational(s: RationalSeries, fmt: str):
    if fmt == "json":
        print(json.dumps({
            "numerator": s.numerator.to_json(),
            "denominator": s.denominator().to_json(),
        }))
    else:
        print(s)


def cmd_homfly(args):
    color = parse_color(args.color)
    kind, data = parse_knot(args.knot)
    if kind == "unknot":
        emit_rational(unknot_homfly(color), args.format)
        return 0
    if kind == "fixture":
        fix = load_fixture(fixture_name(data, color))
        emit_poly(fix.homfly_specialization(), args.format)
        return 0
    p, q = data
    if args.reduced:
        poly, report = torus_homfly(color, p, q, reduced=True)
        emit_poly(poly, args.format)
        if args.format == "text":
            shift = LaurentPoly.monomial(report.sign, report.monomial_shift)
            print(f"# normalization: sign*shift = {shift}; "
                  f"sl1 = {report.sl1}", file=sys.stderr)
    else:
        fr, report = torus_homfly(color, p, q, reduced=False)
        series = fr.expand(args.cutoff)
        if args.format == "json":
            print(json.dumps({**series.to_json(),
                              "q_offset": str(report.fractional_offset)}))
            return 0
        print(series)
        if report.fractional_offset:
            print(f"# offset: the invariant is q^({report.fractional_offset}) "
                  "times this series", file=sys.stderr)
    return 0


def cmd_super(args):
    color = parse_color(args.color)
    s = unknot_super(color)
    if args.expand:
        emit_poly(s.expand(args.cutoff), args.format)
    else:
        emit_rational(s, args.format)
    return 0


def cmd_check(args):
    fixture = args.fixture or ""

    def wanted(name):
        return fixture in name

    if args.what == "all":
        results = suite.run_all(wanted)
    elif args.what in suite.CHECK_GROUPS:
        results = suite.run_group(args.what, wanted)
    else:
        raise UsageError(f"unknown check group {args.what!r}; "
                         f"choose from {sorted(suite.CHECK_GROUPS)} or 'all'")
    if not results:
        raise UsageError(f"no check in {args.what!r} names {args.fixture!r}")
    if args.format == "json":
        print(json.dumps([
            {"name": r.name, "ok": r.ok, "detail": r.detail} for r in results
        ]))
    else:
        for r in sorted(results, key=lambda r: r.name):
            print(r.line())
    return 0 if all(r.ok for r in results) else 1


def cmd_scheme(args):
    pres = scheme_presentation(args.p, args.q, args.r, reduced=args.reduced,
                               with_forms=args.forms)
    try:
        mb = macaulay_basis(pres, ceiling=args.ceiling)
    except DegreeCeilingError as exc:
        if args.reduced:
            raise UsageError(f"{exc}; raise --ceiling") from exc
        # e.g. (2, 3, 1): one relation is a multiple of the other
        raise UsageError(f"{exc}; the unreduced presentation may not close "
                         "at any ceiling, try --reduced") from exc
    if args.format == "json":
        print(json.dumps({
            "dimension": mb.dimension(),
            "basis": mb.monomial_names(),
            "poincare": mb.poincare(("a", "q", "tr")).to_json(["a", "q", "tr"]),
            "presentation": pres.to_json(),
        }))
    else:
        print(f"dimension {mb.dimension()}")
        for name, md in zip(mb.monomial_names(), mb.degrees()):
            degs = ", ".join(f"{v}={md.e(v)}" for v in ("a", "q", "tr", "tc"))
            print(f"  {name:20s} {degs}")
        print(f"poincare (a,q,tr): {mb.poincare(('a', 'q', 'tr'))}")
    return 0


def cmd_bottom(args):
    if args.vortex:
        p, m = parse_pair(args.vortex, "--vortex")
        series = vortex_character(p, m)
        if args.format == "json":
            print(json.dumps({
                "numerator": series.numerator.to_json(),
                "denominators": [
                    {v: str(e) for v, e in md.items()}
                    for md in series.denominators],
            }))
        else:
            print(series)
        return 0
    if args.p is None or args.q is None:
        raise UsageError("bottom needs --p and --q, or --vortex")
    if args.count:
        print(catalan_count(args.p, args.q) ** args.r)
        return 0
    if args.rows:
        counts = [row_count(args.p, args.q, k) for k in range(args.p)]
        print(" ".join(str(c) for c in counts))
        return 0
    emit_poly(bottom_poincare(args.p, args.q, args.r), args.format,
              ["Q", "tr"])
    return 0


def cmd_potential(args):
    if args.antisym:
        k, N = parse_pair(args.antisym, "--antisym")
        pot = potential_antisym(k, N)
    elif args.p is None or args.q is None:
        raise UsageError("potential needs --p and --q, or --antisym")
    else:
        pot = torus_potential(args.p, args.q, args.r)
    if args.format == "json":
        obj = {"body": pot.body.to_json(), "variables": list(pot.variables)}
        if pot.super_body is not None:
            obj["superBody"] = pot.super_body.to_json()
        print(json.dumps(obj))
    else:
        print(f"W = {pot.body}")
        if pot.super_body is not None:
            print(f"W_super = {pot.super_body}")
    return 0


def cmd_cancel(args):
    color = parse_color(args.color)
    kind, name = parse_knot(args.knot)
    if kind == "torus":
        raise UsageError(f"cancel needs a fixture knot or unknot, not {args.knot!r}")
    key = "unknot:" if kind == "unknot" else fixture_name(name, color)
    survivors, window = rank_collapse(key, color, args.n, cutoff=args.cutoff)
    emit_poly(survivors, args.format)
    if args.format == "text":
        print(f"# exact through q^{window}", file=sys.stderr)
    return 0


def at_least(low: int):
    """The argparse type of an ``int`` option that must be ``>= low``."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"{value} is less than {low}")
        return value
    parse.__name__ = "int"  # argparse names the type in its messages
    return parse


@functools.cache
def build_parser():
    """The argument parser, built on first use and then shared: parsing
    leaves no state in it, and building it costs about a millisecond."""
    ap = argparse.ArgumentParser(
        prog="knothom",
        description="Exact colored invariants of torus knots and their "
                    "graded homology models.")
    sub = ap.add_subparsers(dest="verb", required=True)

    def common(p):
        p.add_argument("--format", choices=["text", "json"], default="text")

    p = sub.add_parser("homfly", help="colored torus-knot invariants")
    p.add_argument("--knot", required=True)
    p.add_argument("--color", default="S1")
    p.add_argument("--reduced", action="store_true")
    p.add_argument("--cutoff", type=int, default=30)
    common(p)
    p.set_defaults(fn=cmd_homfly)

    p = sub.add_parser("super", help="unknot superpolynomial products")
    p.add_argument("--color", required=True)
    p.add_argument("--expand", action="store_true")
    p.add_argument("--cutoff", type=int, default=12)
    common(p)
    p.set_defaults(fn=cmd_super)

    p = sub.add_parser("check", help="structural verification")
    p.add_argument("what", nargs="?", default="all")
    p.add_argument("--fixture", help="restrict to checks naming this fixture")
    common(p)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("scheme", help="torus-knot quotient scheme bases")
    p.add_argument("--p", type=at_least(1), required=True)
    p.add_argument("--q", type=at_least(1), required=True)
    p.add_argument("--r", type=at_least(0), default=1)
    p.add_argument("--reduced", action="store_true")
    p.add_argument("--forms", action="store_true",
                   help="include differential forms (odd generators)")
    p.add_argument("--ceiling", type=int, default=200)
    common(p)
    p.set_defaults(fn=cmd_scheme)

    p = sub.add_parser("bottom", help="bottom-row combinatorics")
    p.add_argument("--p", type=at_least(1))
    p.add_argument("--q", type=at_least(1))
    p.add_argument("--r", type=at_least(0), default=1)
    p.add_argument("--count", action="store_true")
    p.add_argument("--rows", action="store_true")
    p.add_argument("--vortex", help="p,m for the vortex character")
    common(p)
    p.set_defaults(fn=cmd_bottom)

    p = sub.add_parser("potential", help="Landau-Ginzburg potentials")
    p.add_argument("--p", type=at_least(1))
    p.add_argument("--q", type=at_least(1))
    p.add_argument("--r", type=at_least(0), default=1)
    p.add_argument("--antisym", help="k,N for the antisymmetric potential")
    common(p)
    p.set_defaults(fn=cmd_potential)

    p = sub.add_parser("cancel", help="rank collapse of unreduced series")
    p.add_argument("--knot", required=True)
    p.add_argument("--color", default="S1")
    p.add_argument("--n", type=at_least(1), default=2)
    p.add_argument("--cutoff", type=int, default=30)
    common(p)
    p.set_defaults(fn=cmd_cancel)

    return ap


def main(argv=None):
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # a bug must not pass for a check failure (1) or a usage error (2)
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        # imported here: ``traceback`` loads ``linecache``, ``tokenize`` and
        # ``textwrap``, which no other path needs
        import traceback
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
