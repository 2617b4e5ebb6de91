"""Verifier: every output of a batch is checked byte-for-byte and by identities.

A request fails when it raises, exits non-zero, prints output whose SHA-256
differs from the digest recorded at the seed commit (``reference.json``), or
breaks an identity that holds independently of how the output was computed:

* ``homfly`` (reduced torus invariants): ``P(a=q, q) = 1`` for single-row
  colours; ``P^lam(a, 1) = +-monomial * P^box(a, 1)^|lam|``;
  ``P^{lam^T}(a, q) = +-monomial * P^lam(a, 1/q)`` when the transpose is in
  the batch; and the packaged fixture's HOMFLY specialisation, up to one
  monomial, for the colours that have one.
* ``cancel``: the Euler characteristic at ``t = -1`` of the survivors equals
  that of the collapsed expansion on the exact window, and at ``N = 2``,
  cutoff 30 the survivors equal the printed rank-2 tables (for ``4_1:S2`` up
  to exactly the documented gap).
* ``scheme``: at ``r = 1`` each ``a``-row of the Poincare polynomial has
  ``row_count(p, q, k)`` elements; with forms ``dim M(p,q,r)`` is the
  ``r``-th power of the ``r = 1`` dimension, without forms the ``r``-th power
  of the rational Catalan number.
* ``bottom``: generator counts against the rational Catalan number.
"""

from __future__ import annotations

import hashlib
import json
from math import comb
from functools import lru_cache

from knothom import suite
from knothom.bottom import row_count
from knothom.checks import unreduced_from_reduced
from knothom.fixtures import load_fixture
from knothom.invariants import torus_homfly
from knothom.laurent import LaurentPoly, Multidegree, RationalSeries, parse_poly


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def options(argv):
    """``{"verb": ..., "--flag": value or True}`` from an argv list."""
    out = {"verb": argv[0]}
    i = 1
    while i < len(argv):
        if i + 1 < len(argv) and not argv[i + 1].startswith("--"):
            out[argv[i]] = argv[i + 1]
            i += 2
        else:
            out[argv[i]] = True
            i += 1
    return out


def catalan(p: int, q: int) -> int:
    """Rational Catalan number of coprime ``(p, q)``."""
    return comb(p + q, p) // (p + q)


def parse_parts(color: str):
    if color.startswith("S"):
        return (int(color[1:]),)
    if color.startswith("L"):
        return (1,) * int(color[1:])
    if "x" in color:
        rows, cols = color.split("x")
        return (int(cols),) * int(rows)
    return tuple(json.loads(color))


def transpose(parts):
    return tuple(sum(1 for p in parts if p > i) for i in range(parts[0]))


def up_to_monomial(p: LaurentPoly, target: LaurentPoly) -> bool:
    """``p == +-monomial * target``."""
    if len(p.terms) != len(target.terms) or not p.terms:
        return p.terms == target.terms
    variables = sorted(set(p.variables()) | set(target.variables()))
    pmd, pc = max(p.terms.items(), key=lambda kv: kv[0].key(variables))
    tmd, tc = max(target.terms.items(), key=lambda kv: kv[0].key(variables))
    if pc / tc not in (1, -1):
        return False
    shift = pmd - tmd
    return p == target.map_exponents(lambda md: md + shift) * (pc / tc)


# -- homfly -----------------------------------------------------------------------

#: (torus knot, colour) -> fixture with a tabulated HOMFLY specialisation
FIXTURE_OF = {
    ((2, 3), (2,)): "3_1:S2", ((2, 3), (1, 1)): "3_1:L2",
    ((2, 3), (2, 2)): "3_1:2x2", ((2, 3), (2, 2, 2)): "3_1:3x2",
    ((2, 3), (2, 1)): "3_1:2_1", ((3, 4), (2,)): "T3_4:S2",
}

@lru_cache(maxsize=None)
def _fundamental_at_q1(n: int, m: int) -> LaurentPoly:
    return torus_homfly([1], n, m)[0].substitute("q", LaurentPoly.one())


def _fixture_homfly(name: str) -> LaurentPoly:
    """Fixture HOMFLY specialisation in hook variables (``a^2 -> a``, ``q^2 -> q``)."""
    spec = load_fixture(name).homfly_specialization()
    return spec.map_exponents(lambda md: Multidegree(a=md.e("a") / 2, q=md.e("q") / 2))


def check_homfly(opts, poly, batch):
    n, m = (int(x) for x in opts["--knot"][len("torus:"):].split(","))
    parts = parse_parts(opts["--color"])
    if len(parts) == 1 and poly.substitute("a", LaurentPoly.var("q")) != LaurentPoly.one():
        return "sl(1) normalisation P(a=q, q) != 1"
    growth = _fundamental_at_q1(n, m) ** sum(parts)
    if not up_to_monomial(poly.substitute("q", LaurentPoly.one()), growth):
        return "special polynomial is not +-monomial * P^box(a,1)^|lam|"
    partner = batch.get((n, m, transpose(parts)))
    if partner is not None:
        mirrored = poly.substitute("q", LaurentPoly.var("q", -1))
        if not up_to_monomial(partner, mirrored):
            return "transpose colour is not +-monomial * P(a, 1/q)"
    fixture = FIXTURE_OF.get(((n, m), parts))
    if fixture and not up_to_monomial(poly, _fixture_homfly(fixture)):
        return f"no monomial match with fixture {fixture}"
    return None


# -- cancel -----------------------------------------------------------------------


def _unreduced_aqt(knot, color, order):
    size = int(color[1:])
    if knot == "unknot":
        reduced = LaurentPoly.one()
    else:
        reduced = load_fixture(f"{knot}:{color}" if size > 1 else f"{knot}:1").standard()
    series = unreduced_from_reduced(reduced, [size], order)

    def to_aqt(md):
        return Multidegree(a=md.e("a"), q=md.e("q"), t=md.e("tc"))

    return (series.numerator.map_exponents(to_aqt),
            tuple(to_aqt(md) for md in series.denominators))


def _printed_table(key, window):
    poly_str, tail_str = suite.SL2_TARGETS[key]
    table = parse_poly(poly_str)
    if tail_str:
        tail = RationalSeries(parse_poly(tail_str), (suite.SL2_TAIL,), "q", window)
        table = table + tail.expand()
    return table.truncate("q", window)


def check_cancel(opts, poly):
    knot, color = opts["--knot"], opts["--color"]
    n, cutoff = int(opts["--n"]), int(opts["--cutoff"])
    num, dens = _unreduced_aqt(knot, color, cutoff + 4)
    # the window on which the collapse is exact: the cancellation rays reach
    # down two denominator steps, and a -> q^n lowers degrees by n|a_min|
    den_margin = max(int(md.e("q")) for md in dens)
    a_min = int(num.min_degree("a")) if "a" in num.variables() else 0
    window = cutoff - 2 * den_margin - n * max(0, -a_min)
    if poly.terms and poly.max_degree("q") > window:
        return f"terms beyond the exact window q^{window}"
    minus = LaurentPoly.const(-1)
    expansion = RationalSeries(num, dens, "q", cutoff).expand()
    euler = (expansion.substitute("a", LaurentPoly.var("q", n))
             .substitute("t", minus).truncate("q", window))
    if poly.substitute("t", minus) != euler:
        return "Euler characteristic at t=-1 differs from the expansion's"
    key = f"{knot}:{'1' if color == 'S1' else color}"
    if (n, cutoff) == (2, 30) and key in suite.SL2_TARGETS:
        gap = poly - _printed_table(key, window)
        known = (parse_poly(suite.SL2_41S2_KNOWN_GAP) if key == "4_1:S2"
                 else LaurentPoly.zero())
        if gap != known:
            return f"differs from the printed rank-2 table by {gap}"
    return None


# -- scheme and bottom ----------------------------------------------------------------


@lru_cache(maxsize=None)
def _forms_dimension_r1(p: int, q: int) -> int:
    return sum(row_count(p, q, k) for k in range(p))


def check_scheme(opts, obj):
    p, q, r = int(opts["--p"]), int(opts["--q"]), int(opts["--r"])
    dim = obj["dimension"]
    if len(obj["basis"]) != dim:
        return "basis size differs from the dimension"
    poincare = LaurentPoly.from_json(obj["poincare"])
    if poincare.coefficient_sum() != dim:
        return "Poincare polynomial does not count the basis"
    if "--forms" not in opts:
        if dim != catalan(p, q) ** r:
            return f"dimension {dim} != catalan({p},{q})^{r}"
        return None
    if dim != _forms_dimension_r1(p, q) ** r:
        return f"dimension {dim} != dim M({p},{q},1)^{r}"
    if r == 1:
        rows = [poincare.coefficient_of("a", 2 * k).coefficient_sum() for k in range(p)]
        if rows != [row_count(p, q, k) for k in range(p)]:
            return f"a-rows {rows} differ from row_count"
    return None


def check_bottom(opts, text):
    if "--vortex" in opts:
        json.loads(text)
        return None
    p, q = int(opts["--p"]), int(opts["--q"])
    if "--rows" in opts:
        if int(text.split()[0]) != catalan(p, q):
            return "row 0 is not the rational Catalan number"
        return None
    total = catalan(p, q) ** int(opts.get("--r", 1))
    if "--count" in opts:
        ok = int(text) == total
    else:
        ok = LaurentPoly.from_json(json.loads(text)).coefficient_sum() == total
    return None if ok else f"generator count != catalan({p},{q})^r"


# -- batches --------------------------------------------------------------------------


def verify_batch(requests, results, reference, memo=None):
    """One failure reason (or ``None``) per request.

    ``memo`` carries identity-check verdicts between batches of the same
    requests: an output that matches its reference digest is byte-for-byte
    the one already checked.
    """
    memo = {} if memo is None else memo
    homfly = {}
    for argv, res in zip(requests, results):
        opts = options(argv)
        if opts["verb"] == "homfly" and res["rc"] == 0 and not res["error"]:
            n, m = (int(x) for x in opts["--knot"][len("torus:"):].split(","))
            try:
                poly = LaurentPoly.from_json(json.loads(res["stdout"]))
            except (ValueError, KeyError, TypeError):
                continue
            homfly[(n, m, parse_parts(opts["--color"]))] = poly
    reasons = []
    for argv, res in zip(requests, results):
        reason = _check_digest(argv, res, reference)
        if reason is None:
            key = " ".join(argv)
            if key not in memo:
                memo[key] = _check_identities(argv, res["stdout"], homfly)
            reason = memo[key]
        reasons.append(reason)
    return reasons


def _check_digest(argv, res, reference):
    if res["error"]:
        return "raised: " + res["error"].strip().splitlines()[-1]
    if res["rc"] != 0:
        return f"exit code {res['rc']}: {res['stderr'].strip()[-200:]}"
    key = " ".join(argv)
    if key not in reference:
        return "no reference digest for this request"
    if digest(res["stdout"]) != reference[key]["sha256"]:
        return "output differs from the reference digest"
    return None


def _check_identities(argv, text, homfly):
    opts = options(argv)
    try:
        if opts["verb"] == "homfly":
            return check_homfly(opts, LaurentPoly.from_json(json.loads(text)), homfly)
        if opts["verb"] == "cancel":
            return check_cancel(opts, LaurentPoly.from_json(json.loads(text)))
        if opts["verb"] == "scheme":
            return check_scheme(opts, json.loads(text))
        if opts["verb"] == "bottom":
            return check_bottom(opts, text)
        json.loads(text)
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable output: {exc!r}"
    return None
