"""Packaged homology fixtures: quadruply-graded superpolynomial tables.

Fixtures are stored as JSON files (schema: ``knot``, ``color``, ``R``, ``S``,
``sigma``, ``gradings``, ``poincare``) under ``knothom/fixtures``; the
environment variable ``HOMOLOGY_FIXTURE_DIR`` overrides the search path.
Loading validates the generator count and both categorification
specializations, so transcription errors fail loudly.  Every table is
stored in the standard gradings ``(a, q, ...)``; :func:`to_tilde` gives the
"tilde" gradings, in which ``Q = (q + tr - tc)/R`` replaces ``q``.

The registry also knows which colored differentials act on each fixture.
"""

from __future__ import annotations

import json
import os
from functools import lru_cache

from .errors import UsageError
from .laurent import LaurentPoly, Multidegree
from .partitions import Partition

# -- tilde regrading ----------------------------------------------------------------


def to_tilde(p: LaurentPoly, R: int) -> LaurentPoly:
    """Replace the ``q``-grading by ``Q = (q + tr - tc)/R``.

    Raises when some monomial has ``q + tr - tc`` not divisible by ``R``,
    naming the offender.
    """
    def fn(md):
        a, q, tr, tc = md._e("a"), md._e("q"), md._e("tr"), md._e("tc")
        num = q + tr - tc
        Q, rest = divmod(num, R)
        if rest:
            raise ValueError(
                f"monomial a^{a} q^{q} tr^{tr} tc^{tc}: "
                f"(q + tr - tc) = {num} is not divisible by {R}")
        return Multidegree(a=a, Q=Q, tr=tr, tc=tc)

    return p.map_exponents(fn)


def from_tilde(p: LaurentPoly, R: int) -> LaurentPoly:
    """Inverse of :func:`to_tilde`: ``q = R*Q - tr + tc``."""
    def fn(md):
        tr, tc = md._e("tr"), md._e("tc")
        return Multidegree(a=md._e("a"), q=R * md._e("Q") - tr + tc, tr=tr, tc=tc)

    return p.map_exponents(fn)


# -- fixtures -----------------------------------------------------------------------


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


class HomologyFixture:
    """One transcribed table: its Poincare polynomial in the standard
    ``gradings``, the expected generator count ``dimension`` and, when
    tabled, the HOMFLY specialization."""

    def __init__(self, name: str, knot: str, color: Partition, R: int, S: int,
                 sigma: int, gradings: tuple, poincare: LaurentPoly,
                 dimension: int, homfly: LaurentPoly | None = None):
        self.name = name
        self.knot = knot
        self.color = color
        self.R = R
        self.S = S
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
        specialization ``P(tc=-1)`` (or ``P(t=-1)``), given as both sides."""
        p = self.poincare
        minus, one = LaurentPoly.const(-1), LaurentPoly.one()
        if "tr" in self.gradings:
            return (p.substitute("tr", minus).substitute("tc", one),
                    p.substitute("tr", one).substitute("tc", minus))
        specialization = p.substitute("tc" if "tc" in self.gradings else "t", minus)
        return specialization, specialization

    def homfly_specialization(self) -> LaurentPoly:
        """``P(a, q, tr=-1, tc=1)`` (or ``t=-1`` for triply-graded data)."""
        return self.specializations()[0]


def fixture_dir() -> str:
    return (os.environ.get("HOMOLOGY_FIXTURE_DIR")
            or os.path.join(os.path.dirname(__file__), "fixtures"))


def _file_for(name: str) -> str:
    return os.path.join(fixture_dir(), name.replace(":", "-").replace("|", "") + ".json")


def _validate(fix: HomologyFixture):
    if fix.poincare.dimension() != fix.dimension:
        raise FixtureError(
            f"{fix.name}: {fix.poincare.dimension()} generators, "
            f"expected {fix.dimension}")
    if "tr" in fix.gradings or fix.homfly is not None:
        specialization, mirrored = fix.specializations()
        if specialization != mirrored:
            raise FixtureError(f"{fix.name}: categorification mismatch")
        if fix.homfly is not None and specialization != fix.homfly:
            raise FixtureError(f"{fix.name}: specialization != tabled polynomial")


@lru_cache(maxsize=None)
def load_fixture(name: str) -> HomologyFixture:
    path = _file_for(name)
    if not os.path.exists(path):
        raise UnknownFixtureError(f"no fixture file for {name!r} at {path}")
    with open(path) as f:
        obj = json.load(f)
    fix = HomologyFixture(
        name=name,
        knot=obj["knot"],
        color=Partition(obj["color"]),
        R=obj["R"],
        S=obj["S"],
        sigma=obj["sigma"],
        gradings=tuple(obj["gradings"]),
        poincare=LaurentPoly.from_json(obj["poincare"]),
        dimension=obj.get("dimension", 0),
        homfly=(LaurentPoly.from_json(obj["homfly"])
                if "homfly" in obj else None),
    )
    _validate(fix)
    return fix


def fixture_name(knot: str, color: Partition) -> str:
    """The fixture of ``knot`` in ``color``, named from the partition alone:
    ``1`` for one box, ``S<n>`` for one row, ``L<n>`` for one column,
    ``<rows>x<cols>`` for another rectangle, else the parts joined by ``_``.
    """
    parts = color.parts
    if not parts:
        raise UsageError(f"the empty color has no fixture of {knot}")
    if color.size() == 1:
        tail = "1"
    elif len(parts) == 1:
        tail = f"S{parts[0]}"
    elif parts[0] == 1:
        tail = f"L{len(parts)}"
    elif color.is_rectangle():
        tail = f"{len(parts)}x{parts[0]}"
    else:
        tail = "_".join(map(str, parts))
    return f"{knot}:{tail}"


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
