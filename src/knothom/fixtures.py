"""Packaged homology fixtures: quadruply-graded superpolynomial tables.

Fixtures are stored as JSON files (schema: ``knot``, ``color``, ``sigma``,
``gradings``, ``dimension``, ``poincare``, ``homfly``) under
``knothom/fixtures``; the environment variable ``HOMOLOGY_FIXTURE_DIR``
overrides the search path.
Loading validates the generator count and both categorification
specializations, so transcription errors fail loudly.  Every table is
stored in the standard gradings ``(a, q, ...)``; :func:`to_tilde` gives the
"tilde" gradings, in which ``Q = (q + tr - tc)/R`` replaces ``q``.  The
degree-level pair :func:`_to_tilde_degree` and :func:`_from_tilde_degree`
is the package's one definition of that regrading and its inverse.

The registry also knows which colored differentials act on each fixture.
"""

from __future__ import annotations

import json
import os
from functools import lru_cache

from .errors import UsageError
from .laurent import LaurentPoly, Multidegree, _padded
from .partitions import Partition, color_name

# -- tilde regrading ----------------------------------------------------------------


def _to_tilde_degree(md: Multidegree, R: int) -> Multidegree:
    """``md`` in the tilde gradings ``(a, Q, tr, tc)``, ``Q = (q + tr - tc)/R``.

    The one definition of ``Q``: :func:`to_tilde`, the colored regradings
    of :mod:`knothom.checks` and :class:`knothom.models.StableTorusModel`
    all read it here.  Raises when ``q + tr - tc`` is not divisible by
    ``R``, naming the monomial.
    """
    a, q, tr, tc = md._e("a"), md._e("q"), md._e("tr"), md._e("tc")
    Q, rest = divmod(q + tr - tc, R)
    if rest:
        raise ValueError(
            f"monomial a^{a} q^{q} tr^{tr} tc^{tc}: "
            f"(q + tr - tc) = {q + tr - tc} is not divisible by {R}")
    return Multidegree(a=a, Q=Q, tr=tr, tc=tc)


def _from_tilde_degree(md: Multidegree, R: int) -> Multidegree:
    """Inverse of :func:`_to_tilde_degree`: ``q = R*Q - tr + tc``."""
    tr, tc = md._e("tr"), md._e("tc")
    return Multidegree(a=md._e("a"), q=R * md._e("Q") - tr + tc, tr=tr, tc=tc)


def to_tilde(p: LaurentPoly, R: int) -> LaurentPoly:
    """Replace the ``q``-grading by ``Q = (q + tr - tc)/R`` in every monomial."""
    return p.map_exponents(lambda md: _to_tilde_degree(md, R))


def from_tilde(p: LaurentPoly, R: int) -> LaurentPoly:
    """Inverse of :func:`to_tilde`: ``q = R*Q - tr + tc``."""
    return p.map_exponents(lambda md: _from_tilde_degree(md, R))


# -- fixtures -----------------------------------------------------------------------


#: every knot known by name: its torus pair ``(p, q)``, or None for the
#: unknot and ``4_1``; the fixtures of a knot are named ``<knot>:<colour>``
KNOTS = {"unknot": None, "3_1": (2, 3), "4_1": None, "T3_4": (3, 4)}
#: other names of knots in :data:`KNOTS`
KNOT_ALIASES = {"8_19": "T3_4"}


def knot_name(text: str) -> str:
    """The :data:`KNOTS` name of the knot that ``text`` names."""
    name = KNOT_ALIASES.get(text, text)
    if name not in KNOTS:
        raise UsageError(f"unknown knot {text!r}")
    return name


FIXTURE_IDS = (
    "3_1:1", "3_1:S2", "3_1:L2", "3_1:2x2", "3_1:3x2", "3_1:2_1",
    "4_1:1", "4_1:S2", "T3_4:1", "T3_4:1:d1|1", "T3_4:S2", "T3_4:S2:d1|2",
)

#: names of the actual homology fixtures (the others are auxiliary
#: differential-homology tables)
HOMOLOGY_FIXTURES = tuple(n for n in FIXTURE_IDS if n.count(":") == 1)


class FixtureError(ValueError):
    pass


class UnknownFixtureError(FixtureError, UsageError):
    """No fixture file for the requested name."""


def rectangle(color: Partition) -> tuple:
    """``(R, S)``: rows and columns of a rectangular ``color``, else ``(0, 0)``."""
    parts = color.parts
    return (len(parts), parts[0]) if parts and color.is_rectangle() else (0, 0)


class HomologyFixture:
    """One transcribed table: its Poincare polynomial in the standard
    ``gradings``, the expected generator count ``dimension`` and, when
    tabled, the HOMFLY specialization."""

    def __init__(self, name: str, knot: str, color: Partition, sigma: int,
                 gradings: tuple, poincare: LaurentPoly, dimension: int,
                 homfly: LaurentPoly | None = None):
        self.name = name
        self.knot = knot
        self.color = color
        self.R, self.S = rectangle(color)
        self.sigma = sigma
        self.gradings = gradings
        self.poincare = poincare
        self.dimension = dimension
        self.homfly = homfly

    def is_rectangular(self) -> bool:
        return self.R > 0

    def quadruple(self) -> bool:
        return set(self.gradings) >= {"tr", "tc"}

    def standard(self) -> LaurentPoly:
        """``poincare``, the polynomial in ``(a, q, ...)`` gradings; only the
        benchmark's ``bench/verify.py`` reads it through this alias."""
        return self.poincare

    def tilde(self) -> LaurentPoly:
        if not self.quadruple():
            raise FixtureError(
                f"{self.name} is not quadruply graded; no tilde regrading")
        return to_tilde(self.poincare, self.R)

    def specializations(self) -> tuple:
        """The two sides of the categorification identity on the standard
        form ``P``: ``P(tr=-1, tc=1)`` and ``P(tr=1, tc=-1)``.  Both equal
        the HOMFLY polynomial.  A table without ``tr`` has the one
        specialization ``P(tc=-1)`` (or ``P(t=-1)``), given as both sides.
        One pass over the table's exponent columns drops the ``tr``/``tc``
        (or ``t``) slots, each side's signs the parities of the exponents it
        sets to ``-1``, and each side is handed on in columns."""
        if "tr" in self.gradings:
            columns, den, sided = self.poincare._substituted(("tr", "tc"), [("tr",), ("tc",)])
        else:
            var = "tc" if "tc" in self.gradings else "t"
            columns, den, sided = self.poincare._substituted((var,), [(var,)])
        sides = [LaurentPoly._from_rows(columns, ints, den) for ints in sided]
        return sides[0], sides[-1]

    def homfly_specialization(self) -> LaurentPoly:
        """``P(a, q, tr=-1, tc=1)`` (or ``t=-1`` for triply-graded data)."""
        return self.specializations()[0]


def fixture_dir() -> str:
    return (os.environ.get("HOMOLOGY_FIXTURE_DIR")
            or os.path.join(os.path.dirname(__file__), "fixtures"))


def _file_for(name: str) -> str:
    return os.path.join(fixture_dir(), name.replace(":", "-").replace("|", "") + ".json")


def _same(p: LaurentPoly, q: LaurentPoly) -> bool:
    """``p == q``, read from the two column views: the same least common
    denominator and the same ``int`` value at each exponent row, the rows
    padded to one width, so that neither builds its term map."""
    (pc, pd, pi), (qc, qd, qi) = p._columnar(), q._columnar()
    width = max(len(pc), len(qc))
    return pd == qd and (dict(zip(zip(*_padded(pc, width)), pi))
                         == dict(zip(zip(*_padded(qc, width)), qi)))


def _validate(fix: HomologyFixture):
    """Refuse a table whose generator count is not its ``dimension`` or
    whose specializations differ from each other or from its ``homfly``
    (:func:`_same`)."""
    if fix.poincare.dimension() != fix.dimension:
        raise FixtureError(
            f"{fix.name}: {fix.poincare.dimension()} generators, "
            f"expected {fix.dimension}")
    if "tr" in fix.gradings or fix.homfly is not None:
        specialization, mirrored = fix.specializations()
        if not _same(specialization, mirrored):
            raise FixtureError(f"{fix.name}: categorification mismatch")
        if fix.homfly is not None and not _same(specialization, fix.homfly):
            raise FixtureError(f"{fix.name}: specialization != tabled polynomial")


@lru_cache(maxsize=None)
def load_fixture(name: str) -> HomologyFixture:
    path = _file_for(name)
    if not os.path.exists(path):
        raise UnknownFixtureError(f"no fixture file for {name!r} at {path}")
    with open(path) as f:
        obj = json.load(f)
    try:
        poincare = LaurentPoly.from_json(obj["poincare"])
        homfly = LaurentPoly.from_json(obj["homfly"]) if "homfly" in obj else None
        knot, color = obj["knot"], Partition(obj["color"])
        stated = fixture_name(knot, color)
    except ValueError as err:
        raise FixtureError(f"{name}: {err}") from err
    # the file must name the fixture asked for, less any differential suffix
    if stated != ":".join(name.split(":")[:2]):
        raise FixtureError(f"{path} holds the fixture {stated}, not {name}")
    fix = HomologyFixture(
        name=name,
        knot=knot,
        color=color,
        sigma=obj["sigma"],
        gradings=tuple(obj["gradings"]),
        poincare=poincare,
        dimension=obj.get("dimension", 0),
        homfly=homfly,
    )
    _validate(fix)
    return fix


def fixture_name(knot: str, color: Partition) -> str:
    """The fixture of ``knot`` in ``color``, ``<knot>:<color_name(color)>``."""
    if not color.parts:
        raise UsageError(f"the empty color has no fixture of {knot}")
    return f"{knot}:{color_name(color)}"


# -- differential registry ----------------------------------------------------------

#: the colored differentials acting on each fixture, keyed by ``(knot, R,
#: S)``, as ``(kind, param)`` in report order; :mod:`knothom.checks` derives
#: each one's label and target colour
DIFFERENTIALS = {
    ("3_1", 1, 1): [("+row", 0), ("-row", 0)],
    ("4_1", 1, 1): [("+row", 0), ("-row", 0)],
    ("T3_4", 1, 1): [("+row", 0), ("-row", 0)],
    ("3_1", 1, 2): [("+row", 0), ("-row", 0), ("+col", 1), ("-col", 1), ("left", 0)],
    ("3_1", 2, 1): [("+row", 0), ("-row", 0), ("+row", 1), ("-row", 1), ("up", 0)],
    ("4_1", 1, 2): [("+row", 0), ("-row", 0), ("+col", 1), ("-col", 1), ("left", 0)],
    ("T3_4", 1, 2): [("+row", 0), ("-row", 0), ("+col", 1), ("-col", 1), ("left", 0)],
    ("3_1", 2, 2): [("+row", 0), ("-row", 0), ("+row", 1), ("-row", 1),
                    ("-col", 1), ("+col", 1), ("up", 0), ("left", 0)],
    # the (2,2,2) fixture is tabled in (a,q,tc) only, so every check is
    # projected to those gradings; its column removals land on the
    # untabulated third antisymmetric color and cannot be checked
    ("3_1", 3, 2): [("+row", 0), ("-row", 0), ("+row", 1), ("-row", 1),
                    ("+row", 2), ("-row", 2)],
}

#: expected printed degrees for the listed differentials, in the fixture's
#: own grading projection (sanity cross-check of the general formulas)
PRINTED_DEGREES = {
    ("3_1:2x2", "d2|0"): {"a": -2, "q": 4, "tr": -1, "tc": -1},
    ("3_1:2x2", "d0|2"): {"a": -2, "q": -4, "tr": -5, "tc": -5},
    ("3_1:2x2", "d3|0"): {"a": -2, "q": 6, "tr": -3, "tc": -1},
    ("3_1:2x2", "d1|2"): {"a": -2, "q": -2, "tr": -7, "tc": -5},
    ("3_1:2x2", "d0|3"): {"a": -2, "q": -6, "tr": -5, "tc": -7},
    ("3_1:2x2", "d2|1"): {"a": -2, "q": 2, "tr": -1, "tc": -3},
    ("3_1:2x2", "d^"): {"a": 0, "q": 2, "tr": -2, "tc": 0},
    ("3_1:2x2", "d<-"): {"a": 0, "q": 2, "tr": 0, "tc": 2},
    ("3_1:3x2", "d3|0"): {"a": -2, "q": 6, "tc": -1},
    ("3_1:3x2", "d0|2"): {"a": -2, "q": -4, "tc": -5},
    ("3_1:3x2", "d4|0"): {"a": -2, "q": 8, "tc": -1},
    ("3_1:3x2", "d1|2"): {"a": -2, "q": -2, "tc": -5},
    ("3_1:3x2", "d5|0"): {"a": -2, "q": 10, "tc": -1},
    ("3_1:3x2", "d2|2"): {"a": -2, "q": 0, "tc": -5},
}

#: survivors of the canceling differentials printed in the examples,
#: in the fixture's grading projection
PRINTED_SURVIVORS = {
    ("3_1:S2", "d1|0"): {"a": 4, "q": -4},
    ("3_1:S2", "d0|2"): {"a": 4, "q": 8, "tr": 4, "tc": 8},
    ("3_1:2x2", "d2|0"): {"a": 8, "q": -16, "tr": 0, "tc": 0},
    ("3_1:2x2", "d0|2"): {"a": 8, "q": 16, "tr": 16, "tc": 16},
    ("3_1:3x2", "d3|0"): {"a": 12, "q": -36, "tc": 0},
    ("3_1:3x2", "d0|2"): {"a": 12, "q": 24, "tc": 24},
}
