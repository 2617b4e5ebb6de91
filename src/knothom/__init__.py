"""Exact colored HOMFLY invariants of torus knots and graded homology models.

The package computes, over exact rationals:

* colored invariants of the unknot and of torus knots (hook-content
  products, evaluation products, the plethysm sum over power-scaled Schur
  expansions);
* free superalgebra models of knot homology: one model of the colored
  unknot (``unknot_model``), whose ``(a, q, t)`` Hilbert series is the
  superpolynomial series ``unknot_super``; torus-knot quotient schemes and
  their differential-form bases, Landau-Ginzburg potentials and Koszul
  homology;
* the structural verification suite for the packaged quadruply-graded
  superpolynomial fixtures: regradings, self- and mirror symmetry, removal
  differentials, growth laws, rank-collapse cancellations, bottom-row
  combinatorics and vortex characters.

See ``demos/`` for narrative walkthroughs and ``knothom --help`` for the
command line.  Every name exported here is read by some module of the
package, except the paper models that ``tests/test_imports.py`` lists with
their reasons.
"""

from .laurent import (
    DivisionError,
    LaurentPoly,
    Multidegree,
    RationalSeries,
    max_cancel,
    nonneg_divisibility,
    parse_poly,
    series_log,
    series_pow_rational,
)
from .partitions import (
    Partition,
    catalan_count,
    dyck_paths,
    h_plus,
    partitions_of,
)
from .symmetric import plethysm_pn, zee
from .invariants import (
    NormalizationReport,
    hirota_check,
    macdonald_dim,
    match_up_to_monomial,
    stable_limit_check,
    torus_homfly,
    unknot_homfly,
    unknot_super,
)
from .models import (
    GradedPresentation,
    Generator,
    HomologyDims,
    MacaulayBasis,
    Potential,
    StableTorusModel,
    extend_differential,
    extend_potential,
    koszul_homology,
    macaulay_basis,
    potential_antisym,
    scheme_presentation,
    scheme_relations,
    sl_differential_images,
    split_potential_check,
    torus_potential,
    universal_pair_homology,
    unknot_mirror_map,
    unknot_model,
)
from .checks import (
    DifferentialSpec,
    check_delta_thin,
    check_differential,
    check_growth,
    check_hfk_growth,
    check_mirror,
    check_self_symmetry,
    colored_differential,
    mirror_swap,
    rank_collapse,
    rank_collapse_input,
    sl_cancel,
    unreduced_from_reduced,
)
from .fixtures import HomologyFixture, load_fixture, to_tilde
from .bottom import (
    bottom_poincare,
    qbinom,
    row_count,
    trefoil_recursion_check,
    vortex_character,
)
from .suite import CheckResult, run_all, run_group

__version__ = "0.1.0"
