"""Acceptance suite: one test per criterion, one printed line per criterion.

Every tolerance is exact equality of exact rationals; series comparisons are
exact through the stated windows.  Criterion 7 carries one documented source
defect (see the strict xfail at the bottom and the decisions ledger).
"""

import pytest

from knothom.laurent import parse_poly
from knothom.checks import rank_collapse
from knothom.suite import SL2_41S2_KNOWN_GAP, _sl2_expected, run_group


def _require(results, label):
    bad = [r for r in results if not r.ok]
    status = "PASS" if not bad else "FAIL"
    print(f"criterion {label}: {status} "
          f"({len(results) - len(bad)}/{len(results)} checks)")
    assert not bad, [r.line() for r in bad]


def test_criterion_1_hook_macdonald():
    # unknot_homfly == macdonald evaluation at q=t for |lambda| <= 6;
    # superpolynomial products for (1) and (2) exactly
    _require(run_group("hook-macdonald"), "1 (hook/macdonald)")


def test_criterion_2_rosso_jones():
    # reduced torus invariants match the fixture specializations up to a
    # single monomial, for the five trefoil colors and T(3,4) S^2
    _require(run_group("rosso-jones"), "2 (rosso-jones)")


def test_criterion_3_fixture_structure():
    results = [r for group in ("categorification", "dimensions", "self-symmetry",
                               "mirror", "delta", "growth", "differentials", "hfk")
               for r in run_group(group)]
    _require(results, "3 (fixture structural suite)")


def test_criterion_4_scheme_bases():
    _require(run_group("schemes"), "4 (scheme bases)")


def test_criterion_5_counting():
    _require(run_group("counting"), "5 (counting)")


def test_criterion_6_potentials():
    _require(run_group("potentials"), "6 (potentials)")


def test_criterion_7_sl2_cancellation():
    # five of the six tabulated rank-2 results reproduce exactly; the
    # figure-eight S^2 table is provably inconsistent with its own input
    # (see ledger) and is pinned through q^9 plus the frozen discrepancy
    results = run_group("sl2")
    _require(results, "7 (sl(2) cancellation; 4_1:S2 pinned, see ledger)")


def test_criterion_8_stable_limit():
    _require(run_group("stable"), "8 (stable limit)")


def test_criterion_9_hirota():
    _require(run_group("hirota"), "9 (hirota)")


def test_criterion_10_vortex_bottom():
    results = (run_group("vortex")
               + run_group("counting", lambda name: name == "counting:bottom-dimensions"))
    _require(results, "10 (vortex/bottom)")


@pytest.mark.xfail(
    strict=True,
    reason="the tabulated figure-eight S^2 sl(2) homology cannot arise from "
           "any degree-(-2,4,-1) pairing of its own stated input (exact "
           "per-ray obstruction; the source's two printed forms also "
           "disagree with each other); the canonical maximal cancellation "
           "agrees through q^9 and differs beyond by exactly "
           f"{SL2_41S2_KNOWN_GAP}")
def test_criterion_7_figure_eight_s2_literal():
    key = "4_1:S2"
    survivors, window = rank_collapse(key, [2], 2, cutoff=30)
    assert survivors == _sl2_expected(key, window)


def test_known_gap_is_exactly_as_documented():
    key = "4_1:S2"
    survivors, window = rank_collapse(key, [2], 2, cutoff=30)
    gap = survivors - _sl2_expected(key, window)
    assert gap == parse_poly(SL2_41S2_KNOWN_GAP)
