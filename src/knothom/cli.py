"""Command-line interface: compute invariants, bases and verification reports.

Each verb is one entry of :data:`VERBS`: its command, options and help text.
``knothom --help`` lists the verbs and ``knothom VERB --help`` one verb's
options.  All numeric output is exact; ``--format json`` emits the canonical
polynomial JSON used throughout the package.  Exit codes: 0 on success or
pass, 1 on a check failure, 2 on usage errors, 3 on internal errors."""

from __future__ import annotations

import json
import sys
from types import SimpleNamespace

from .laurent import LaurentPoly, RationalSeries
from .partitions import catalan_count, parse_color
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
from .fixtures import fixture_name, knot_name, load_fixture
from .bottom import bottom_poincare, row_count, vortex_character
from . import suite


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
    if text.startswith("torus:"):
        return ("torus", parse_pair(text[len("torus:"):], "a torus knot"))
    name = knot_name(text)
    return ("unknot", None) if name == "unknot" else ("fixture", name)


def emit_poly(p: LaurentPoly, fmt: str, variables=None):
    print(json.dumps(p.to_json(variables)) if fmt == "json" else p)


def emit_rational(s: RationalSeries, fmt: str):
    print(json.dumps({"numerator": s.numerator.to_json(),
                      "denominator": s.denominator().to_json()}) if fmt == "json" else s)


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
    else:
        results = suite.run_group(args.what, wanted)
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
    # For r >= 1 the unreduced quotient is infinite, so it is refused before
    # any elimination.  U(z) = (1 + cz)^(pr) gives U^(q/p) = (1 + cz)^(qr),
    # whose coefficients of z^(qr+1) .. z^((p+q)r), the unreduced relations,
    # all vanish: u_i = C(pr, i)*c^i is a common zero of them for every c.
    # On that line u1 = pr*c != 0, so no power of u1 vanishes in the
    # quotient, and no ceiling is ever enough.
    if args.r >= 1 and not args.reduced:
        raise UsageError("the unreduced presentation never closes for --r >= 1 "
                         "(u1 is not nilpotent); use --reduced")
    pres = scheme_presentation(args.p, args.q, args.r, reduced=args.reduced,
                               with_forms=args.forms)
    try:
        mb = macaulay_basis(pres, ceiling=args.ceiling)
    except DegreeCeilingError as exc:
        raise UsageError(f"{exc}; raise --ceiling") from exc
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
            degs = ", ".join(f"{v}={md._e(v)}" for v in ("a", "q", "tr", "tc"))
            print(f"  {name:20s} {degs}")
        print(f"poincare (a,q,tr): {mb.poincare(('a', 'q', 'tr'))}")
    return 0


def refuse_together(args, option, *others):
    """A usage error when ``option`` is given with any of ``others``, each a
    choice of what the verb computes or an option that ``option`` leaves
    unread; an option counts as given when the argv names it
    (``args.given``), whatever its value."""
    clash = [other for other in others if other in args.given]
    if option in args.given and clash:
        raise UsageError(f"{option} cannot be combined with {', '.join(clash)}")


def cmd_bottom(args):
    refuse_together(args, "--vortex", "--p", "--q", "--r", "--count", "--rows")
    refuse_together(args, "--count", "--rows")
    refuse_together(args, "--rows", "--r")
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
        print(json.dumps(counts) if args.format == "json" else " ".join(map(str, counts)))
        return 0
    emit_poly(bottom_poincare(args.p, args.q, args.r), args.format,
              ["Q", "tr"])
    return 0


def cmd_potential(args):
    refuse_together(args, "--antisym", "--p", "--q", "--r")
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
    survivors, window = rank_collapse("unknot" if kind == "unknot" else name, color,
                                      args.n, cutoff=args.cutoff)
    emit_poly(survivors, args.format)
    if args.format == "text":
        print(f"# exact through q^{window}", file=sys.stderr)
    return 0


#: the default of an option that every request of its verb must give
REQUIRED = object()
FORMAT = {"--format": (("text", "json"), "text")}
COLOR = "1, S<n>, L<n>, <rows>x<cols>, 2_1 or [2,1]"
TORUS = {"--p": (1, None), "--q": (1, None), "--r": (0, 1)}
#: verb -> (command, help, {option: (kind, default[, help])}); a kind is ``str``,
#: ``int``, an ``int`` n (an integer of at least n), a tuple of choices or ``bool``
#: (a flag, given without a value); ``check``'s ``what`` is an optional positional
VERBS = {
    "homfly": (cmd_homfly, "colored torus-knot invariants", {
        "--knot": (str, REQUIRED), "--color": (str, "S1", COLOR), "--reduced": (bool, False),
        "--cutoff": (int, 30), **FORMAT}),
    "super": (cmd_super, "unknot superpolynomial products", {
        "--color": (str, REQUIRED, COLOR), "--expand": (bool, False), "--cutoff": (int, 12), **FORMAT}),
    "check": (cmd_check, "structural verification", {
        "what": (("all", *suite.CHECK_GROUPS), "all"),
        "--fixture": (str, None, "restrict to checks naming this fixture"), **FORMAT}),
    "scheme": (cmd_scheme, "torus-knot quotient scheme bases", {
        "--p": (1, REQUIRED), "--q": (1, REQUIRED), "--r": (0, 1), "--reduced": (bool, False),
        "--forms": (bool, False, "include differential forms (odd generators)"),
        "--ceiling": (int, 200), **FORMAT}),
    "bottom": (cmd_bottom, "bottom-row combinatorics", {
        **TORUS, "--count": (bool, False), "--rows": (bool, False),
        "--vortex": (str, None, "p,m for the vortex character"), **FORMAT}),
    "potential": (cmd_potential, "Landau-Ginzburg potentials", {
        **TORUS, "--antisym": (str, None, "k,N for the antisymmetric potential"), **FORMAT}),
    "cancel": (cmd_cancel, "rank collapse of unreduced series", {
        "--knot": (str, REQUIRED), "--color": (str, "S1", COLOR), "--n": (1, 2), "--cutoff": (int, 30),
        **FORMAT}),
}
HELP = ("-h", "--help")


def is_value(token: str) -> bool:
    """Whether ``token`` is a value; led by ``-``, only ``-`` or a negative integer is."""
    return token[:1] != "-" or token == "-" or token[1:].isdecimal()


def convert(option: str, kind, text: str):
    """``text`` as a value of ``option``, whose kind is not ``bool``."""
    choices = isinstance(kind, tuple)
    try:
        value = text if choices or kind is str else int(text)
    except ValueError:
        raise UsageError(f"argument {option}: invalid int value: {text!r}") from None
    if choices and value not in kind or type(kind) is int and value < kind:
        raise UsageError(f"argument {option}: {text!r} is not "
                         + (f"one of {', '.join(kind)}" if choices else f"at least {kind}"))
    return value


def parse(argv):
    """``(verb, args)``, ``args`` holding each option of ``VERBS[verb]`` and,
    as ``given``, the set of options that ``argv`` names, or ``(verb,
    None)`` for ``-h``/``--help`` (``verb`` None: the verb list).  As in
    argparse, a bad or missing value is refused and help is answered at
    once, an unknown token or a missing option after the last token."""
    verb = argv[0] if argv else None
    if verb in HELP:
        return None, None
    if verb not in VERBS:
        raise UsageError(f"the verb must be one of {', '.join(VERBS)}"
                         + (f", not {verb!r}" if argv else ""))
    options = VERBS[verb][2]
    values = {name.lstrip("-"): default for name, (_, default, *_) in options.items()}
    positional = [name for name in options if name[0] != "-"]
    unknown, given, tokens = [], set(), iter(argv[1:])
    for token in tokens:
        name, eq, text = token.partition("=")
        if is_value(token) and positional:
            name = positional.pop()
            values[name] = convert(name, options[name][0], token)
        elif is_value(token) or name not in options and name not in HELP:
            unknown.append(token)
        elif name in HELP or options[name][0] is bool:
            if eq:
                raise UsageError(f"argument {name}: ignored explicit argument {text!r}")
            if name in HELP:
                return verb, None
            values[name[2:]] = True
        else:
            if not eq:
                text = next(tokens, "--")  # never a value: argv has ended
                if not is_value(text):
                    raise UsageError(f"argument {name}: expected one argument")
            values[name[2:]] = convert(name, options[name][0], text)
        given.add(name)
    missing = [name for name in options if values[name.lstrip("-")] is REQUIRED]
    if missing or unknown:
        raise UsageError(f"the following arguments are required: {', '.join(missing)}"
                         if missing else f"unrecognized arguments: {unknown}")
    return verb, SimpleNamespace(**values, given=given)


def usage(verb=None) -> str:
    """The help text of ``verb``, or of the whole command when it is None."""
    if verb is None:
        return "usage: knothom VERB [options]\n\nverbs:" + "".join(
            f"\n  {name:10s} {text}" for name, (_, text, _) in VERBS.items())
    text = f"usage: knothom {verb} [options]\n\n{VERBS[verb][1]}\n\noptions:"
    for name, (kind, default, *helps) in VERBS[verb][2].items():
        value = ("" if kind is bool else "{" + ",".join(kind) + "}"
                 if isinstance(kind, tuple) else name[2:].upper() if kind is str
                 else "INT" if kind is int else f"INT>={kind}")
        note = "required" if default is REQUIRED else f"default {default}" * bool(default)
        text += f"\n  {name + ' ' + value:22s}  {'; '.join(filter(None, (*helps, note)))}".rstrip()
    return text


def main(argv=None):
    try:
        verb, args = parse(sys.argv[1:] if argv is None else argv)
        if args is None:
            print(usage(verb))
            return 0
        return VERBS[verb][0](args)
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
