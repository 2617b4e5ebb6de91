import os
import pathlib
import runpy
import subprocess
import sys
from fractions import Fraction
from itertools import combinations_with_replacement, permutations
from math import gcd

import pytest

import knothom

from knothom.laurent import (
    LaurentPoly,
    Multidegree,
    parse_poly,
    series_log,
    series_pow_rational,
)
from knothom.models import (
    EVEN,
    ODD,
    _scheme_degree_even,
    _scheme_degree_odd,
    DegreeCeilingError,
    GradedPresentation,
    Generator,
    Potential,
    StableTorusModel,
    extend_differential,
    extend_potential,
    koszul_homology,
    macaulay_basis,
    poly_substitute,
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
from knothom.checks import colored_differential
from knothom.fixtures import to_tilde
from knothom.partitions import Partition

P = parse_poly


def test_unknot_model_single_box():
    m = unknot_model([1])
    u = m.generator("u11")
    xi = m.generator("xi11")
    assert (u.degree.e("a"), u.degree.e("q"), u.degree.e("tc"),
            u.degree.e("tr")) == (0, 2, 0, 0)
    assert (xi.degree.e("a"), xi.degree.e("q"), xi.degree.e("tc"),
            xi.degree.e("tr")) == (2, 0, 1, 1)


def test_unknot_model_row_poincare():
    # one-row model matches prod (1 + a^2 q^(2i-2)) / (1 - q^(2i)) at t = 1
    for k in (1, 2, 3, 4):
        m = unknot_model([k])
        hs = m.hilbert_series()
        num = hs.numerator.substitute("tr", LaurentPoly.one()) \
            .substitute("tc", LaurentPoly.one())
        expect_num = LaurentPoly.one()
        expect_dens = set()
        for i in range(1, k + 1):
            expect_num = expect_num * (
                LaurentPoly.one()
                + LaurentPoly.monomial(1, Multidegree(a=2, q=2 * i - 2)))
            expect_dens.add((2 * i,))
        assert num == expect_num
        got_dens = sorted(int(md.e("q")) for md in hs.denominators)
        assert got_dens == sorted(2 * i for i in range(1, k + 1))


@pytest.mark.parametrize("parts", [[1], [3], [1, 1], [2, 2], [3, 3], [2, 2, 2],
                                   [2, 1], [3, 2, 1]])
def test_unknot_model_generators_follow_cells(parts):
    """One even and one odd generator per box, in ``lam.cells()`` order,
    named ``u{col}{row}`` / ``xi{col}{row}`` on a rectangle and by the box's
    place in that order otherwise."""
    lam = Partition(parts)
    cells = list(lam.cells())
    if lam.is_rectangle():
        tags = [f"{col}{row}" for row, col in cells]
    else:
        tags = [str(k) for k in range(1, len(cells) + 1)]
    names = [g.name for g in unknot_model(lam).generators]
    assert names == [name for tag in tags for name in (f"u{tag}", f"xi{tag}")]
    hooks = [int(g.degree.e("q")) // 2 for g in unknot_model(lam).evens()]
    assert hooks == [lam.hook(cell) for cell in cells]


def test_unknot_model_q_gradings():
    m = unknot_model([2, 2])
    for g in m.generators:
        aux = g.degree.e("q") + g.degree.e("tr") - g.degree.e("tc")
        assert aux / 2 == (2 if g.parity == EVEN else 0)


def test_unknot_model_nonrectangular_has_no_tr():
    m = unknot_model([2, 1])
    assert all(g.degree.e("tr") == 0 for g in m.generators)
    hooks = sorted(int(g.degree.e("q")) // 2 for g in m.evens())
    assert hooks == [1, 1, 3]


def test_unknot_mirror_map_swaps_gradings():
    # the mirror bijection preserves (a, Q) and exchanges the two
    # homological gradings; the plain q-grading is reversed, not kept
    R, S = 2, 3
    m = unknot_model([S] * R)
    mt = unknot_model([R] * S)
    bij = unknot_mirror_map(R, S)
    assert sorted(bij.values()) == sorted(g.name for g in mt.generators)
    for src, dst in bij.items():
        d1 = m.generator(src).degree
        d2 = mt.generator(dst).degree
        assert d1.e("a") == d2.e("a")
        assert d1.e("tr") == d2.e("tc") and d1.e("tc") == d2.e("tr")
        q1 = (d1.e("q") + d1.e("tr") - d1.e("tc")) / R
        q2 = (d2.e("q") + d2.e("tr") - d2.e("tc")) / S
        assert q1 == q2


def test_stable_model_degrees_22():
    # the eight stable (2,2) generators
    model = StableTorusModel(2, 2, 2, reduced=True)
    expect = {
        "u11n2": (0, 10, 6, 4), "u12n2": (0, 8, 6, 6),
        "u21n2": (0, 8, 4, 4), "u22n2": (0, 6, 4, 6),
        "xi11n2": (2, 4, 5, 5), "xi12n2": (2, 2, 5, 7),
        "xi21n2": (2, 6, 7, 5), "xi22n2": (2, 4, 7, 7),
    }
    for name, (a, q, tc, tr) in expect.items():
        d = model.presentation.generator(name).degree
        assert (d.e("a"), d.e("q"), d.e("tc"), d.e("tr")) == (a, q, tc, tr)
    for g in model.presentation.generators:
        assert model.q_aux(g.name) == (4 if g.parity == EVEN else 2)


def test_stable_model_degrees_222():
    model = StableTorusModel(3, 2, 2, reduced=True)
    expect = {
        "u11n2": (0, 12, 6, 6), "u12n2": (0, 10, 6, 8),
        "u13n2": (0, 8, 6, 10), "u21n2": (0, 10, 4, 6),
        "u22n2": (0, 8, 4, 8), "u23n2": (0, 6, 4, 10),
        "xi11n2": (2, 4, 5, 7), "xi12n2": (2, 2, 5, 9),
        "xi13n2": (2, 0, 5, 11), "xi21n2": (2, 6, 7, 7),
        "xi22n2": (2, 4, 7, 9), "xi23n2": (2, 2, 7, 11),
    }
    for name, (a, q, tc, tr) in expect.items():
        d = model.presentation.generator(name).degree
        assert (d.e("a"), d.e("q"), d.e("tc"), d.e("tr")) == (a, q, tc, tr)


def test_repeated_generator_names_are_refused():
    """A presentation looks generators up by name, so a repeated name is an
    error that names it.  A rectangle's boxes are named ``{col}{row}``, so
    the 11 x 11 model names boxes (1, 11) and (11, 1) alike."""
    x = Generator("x", EVEN, Multidegree(q=2))
    with pytest.raises(ValueError, match="repeated generator names: x$"):
        GradedPresentation([x, Generator("y", ODD, Multidegree(a=2)), x])
    with pytest.raises(ValueError, match="repeated generator names: u111, xi111$"):
        unknot_model([11] * 11)
    with pytest.raises(ValueError, match="u111"):
        StableTorusModel(11, 11, 2)


def test_every_rectangle_to_10x10_builds():
    """Every rectangle model up to 10 x 10 has distinct names, so it still
    builds; ``test_basis_is_an_order_ideal`` builds every scheme
    presentation of the ``scheme-basis`` benchmark pool."""
    for R in range(1, 11):
        for S in range(1, 11):
            assert len(unknot_model([S] * R).generators) == 2 * R * S


def test_stable_model_matches_scheme_gradings():
    # for the one-row color, u_{i,1}^{(n)} = u_{rn+1-i} and
    # xi_{i,1}^{(n)} = du_{(n-1)r+i}
    for r in range(1, 5):
        model = StableTorusModel(1, r, 4, reduced=False)
        for n in range(1, 5):
            for i in range(1, r + 1):
                u = model.presentation.generator(f"u{i}1n{n}").degree
                xi = model.presentation.generator(f"xi{i}1n{n}").degree
                assert u == _scheme_degree_even(r * n + 1 - i, r)
                assert xi == _scheme_degree_odd((n - 1) * r + i, r)


def test_unknot_model_tilde_gradings():
    # the docstring's Q(u) = 2, Q(xi) = 0, through the shared tilde map
    for R in range(1, 4):
        for S in range(1, 4):
            for g in unknot_model([S] * R).generators:
                Q = to_tilde(LaurentPoly.monomial(1, g.degree), R).as_monomial()[1]._e("Q")
                assert Q == (2 if g.parity == EVEN else 0), (R, S, g.name)


def _explicit_stable_generators(R, S, p, reduced):
    """The stable model's generators from closed degree formulas, an oracle
    that does not read :func:`unknot_model`."""
    gens = []
    for n in range(2 if reduced else 1, p + 1):
        for i in range(1, S + 1):
            for j in range(1, R + 1):
                gens.append(Generator(
                    f"u{i}{j}n{n}", EVEN,
                    Multidegree(q=2 * (n * S - i + R - j + 1), tc=2 * (n * S - i),
                                tr=2 * ((n - 1) * R + j - 1))))
                gens.append(Generator(
                    f"xi{i}{j}n{n}", ODD,
                    Multidegree(a=2, q=2 * ((n - 1) * S + i - j),
                                tc=2 * ((n - 1) * S + i) - 1,
                                tr=2 * ((n - 1) * R + j) - 1)))
    return gens


@pytest.mark.parametrize("reduced", [True, False])
def test_stable_model_matches_explicit_formulas(reduced):
    for R in range(1, 4):
        for S in range(1, 4):
            for p in range(2, 4):
                model = StableTorusModel(R, S, p, reduced=reduced)
                want = _explicit_stable_generators(R, S, p, reduced)
                assert sorted(model.presentation.generators, key=repr) == sorted(
                    want, key=repr), (R, S, p)


def test_stable_mirror_map_reads_two_digit_indices():
    # box (10, 1) of the 1 x 10 model: u101n2 goes to u11n2 and xi101n2
    # to xi110n2, both generators of the 10 x 1 model
    bij = StableTorusModel(1, 10, 2).mirror_map()
    names = {g.name for g in StableTorusModel(10, 1, 2).presentation.generators}
    assert sorted(bij.values()) == sorted(names)
    assert (bij["u101n2"], bij["xi101n2"]) == ("u11n2", "xi110n2")


def test_lefschetz_generator_degree():
    for R, S in [(1, 2), (2, 2), (2, 3)]:
        model = StableTorusModel(R, S, 2, reduced=True)
        d = model.presentation.generator(model.lefschetz_generator()).degree
        assert d.e("q") == 2 * (R + S)
        assert model.q_aux(model.lefschetz_generator()) == 4
        assert d.e("tr") == 2 * R and d.e("tc") == 2 * S


def test_stable_mirror_map():
    model = StableTorusModel(2, 3, 2)
    other = StableTorusModel(3, 2, 2)
    bij = model.mirror_map()
    for src, dst in bij.items():
        d1 = model.presentation.generator(src).degree
        d2 = other.presentation.generator(dst).degree
        assert d1.e("tr") == d2.e("tc") and d1.e("tc") == d2.e("tr")
        assert model.q_aux(src) == other.q_aux(dst)
    assert bij[model.lefschetz_generator()] == other.lefschetz_generator()


@pytest.mark.parametrize("kind,param", [
    ("+row", 0), ("+row", 1), ("+col", 0), ("+col", 1),
    ("-row", 0), ("-row", 1), ("-col", 0), ("-col", 1),
])
def test_colored_images_have_expected_degree(kind, param):
    R, S = 2, 2
    model = StableTorusModel(R, S, 2, reduced=True)
    images = model.colored_images(kind, param)
    want = colored_differential(kind, R, S, param).degree
    degs = {g.name: g.degree for g in model.presentation.generators}
    for xi, img in images.items():
        got = model.presentation.monomial_degree(next(iter(img.terms)))
        step = got - degs[xi]
        for v in ("a", "q", "tr", "tc"):
            assert step.e(v) == want.e(v), (xi, v)


def test_scheme_relations_small():
    rels = scheme_relations(2, 3, 1)
    assert rels == [Fraction(3, 8) * P("u2^2")]
    rels34 = scheme_relations(3, 4, 1)
    assert rels34[0] == Fraction(4, 9) * P("u2*u3")
    assert rels34[1] == Fraction(2, 9) * (P("u3^2") - Fraction(2, 9) * P("u2^3"))


def test_scheme_relations_s2_trefoil_display():
    rels = scheme_relations(2, 3, 2, reduced=False)
    at0 = [poly_substitute(r, {"u1": LaurentPoly.zero()}) for r in rels]
    assert at0[0] == Fraction(-3, 16) * P("u3*(u2^2 - 4*u4)")
    assert at0[1] == Fraction(3, 128) * P(
        "u2^4 - 8*u2*u3^2 - 8*u2^2*u4 + 16*u4^2")
    assert at0[2] == Fraction(-1, 32) * P("u3*(-3*u2^3 + 2*u3^2 + 12*u2*u4)")


def test_scheme_relations_noncoprime():
    with pytest.raises(ValueError):
        scheme_relations(2, 4, 1)


def test_macaulay_trefoil_s2():
    mb = macaulay_basis(scheme_presentation(2, 3, 2))
    assert set(mb.monomial_names()) == {
        "1", "u3", "u4", "u3^2", "du3", "du4", "u3*du3", "u3*du4", "du3*du4"}


def test_macaulay_exponential_growth():
    for r in (1, 2):
        mb = macaulay_basis(scheme_presentation(2, 3, r))
        assert mb.dimension() == 3 ** r


def test_macaulay_t34_r1():
    assert macaulay_basis(scheme_presentation(3, 4, 1)).dimension() == 11
    bottom = macaulay_basis(scheme_presentation(3, 4, 1, with_forms=False))
    assert bottom.dimension() == 5


def test_forms_are_the_presentations_odd_generators():
    """Form terms are found by the presentation's odd generator names, so
    renaming the forms ``du_i`` to ``eta_i`` changes no basis."""
    pres = scheme_presentation(2, 3, 2)
    rename = {g.name: "eta" + g.name[len("du"):] for g in pres.odds()}
    images = {du: LaurentPoly.var(eta) for du, eta in rename.items()}
    renamed = GradedPresentation(
        [Generator(rename.get(g.name, g.name), g.parity, g.degree)
         for g in pres.generators],
        pres.relations,
        [poly_substitute(fr, images) for fr in pres.form_relations])
    assert all("du" not in v for fr in renamed.form_relations
               for v in fr.variables())
    ours, theirs = macaulay_basis(pres), macaulay_basis(renamed)
    assert theirs.dimension() == ours.dimension() == 9
    gradings = ("a", "q", "tr", "tc")
    assert theirs.poincare(gradings) == ours.poincare(gradings)


def test_macaulay_ceiling():
    pres = GradedPresentation(
        [Generator("u1", EVEN, Multidegree(q=2))], [], [])
    with pytest.raises(ArithmeticError):
        macaulay_basis(pres, ceiling=10)


def test_macaulay_rejects_what_the_key_cannot_hold():
    """A negative exponent would borrow from the next digit of a column key,
    and an even generator of q-degree 0 would have no exponent bound."""
    u1, u2 = LaurentPoly.var("u1"), LaurentPoly.var("u2")
    gens = [Generator("u1", EVEN, Multidegree(q=2)),
            Generator("u2", EVEN, Multidegree(q=4))]
    with pytest.raises(ArithmeticError):
        macaulay_basis(GradedPresentation(gens, [u2 * u1 ** -1 - u1]))
    with pytest.raises(ValueError):
        macaulay_basis(GradedPresentation(
            [*gens, Generator("z", EVEN, Multidegree(a=2))], [u1 ** 2]))


@pytest.mark.parametrize("forms", [True, False])
def test_macaulay_ceiling_edge(forms):
    """The key's field width comes from the ceiling: a ceiling equal to the
    top degree gives the default basis, and one below it raises."""
    pres = scheme_presentation(2, 3, 2, with_forms=forms)
    mb = macaulay_basis(pres)
    assert mb.top_degree == 21
    assert macaulay_basis(pres, ceiling=21).elements == mb.elements
    with pytest.raises(DegreeCeilingError):
        macaulay_basis(pres, ceiling=20)


def test_macaulay_window_spans_odd_generators():
    """The vanishing window is as wide as the largest q-degree of any
    generator: an odd x above every other generator is still reached after
    the empty degree 1."""
    pres = GradedPresentation([Generator("x", ODD, Multidegree(q=2)),
                               Generator("y", ODD, Multidegree(q=0))])
    assert macaulay_basis(pres).monomial_names() == ["1", "y", "x", "x*y"]


def test_macaulay_drops_a_zero_relation():
    """A zero relation spans nothing: it is not an inhomogeneous one."""
    u = LaurentPoly.var("u")
    gens = [Generator("u", EVEN, Multidegree(q=2))]
    mb = macaulay_basis(GradedPresentation(gens, [u ** 2, LaurentPoly.zero()]))
    assert mb.monomial_names() == ["1", "u"]
    assert mb.elements == macaulay_basis(GradedPresentation(gens, [u ** 2])).elements


def test_macaulay_reaches_negative_degrees():
    """An odd generator of negative q-degree makes monomials below degree 0."""
    pres = GradedPresentation([Generator("u", EVEN, Multidegree(q=2)),
                               Generator("x", ODD, Multidegree(q=-2))],
                              [LaurentPoly.var("u") ** 2])
    mb = macaulay_basis(pres)
    assert mb.monomial_names() == ["x", "1", "u*x", "u"]
    assert [md.e("q") for md in mb.degrees()] == [-2, 0, 0, 2]


def test_potential_antisym_displays():
    assert potential_antisym(1, 3).body == -P("u1^4") / 4
    assert potential_antisym(2, 3).body == \
        -P("u1^4") / 4 + P("u1^2*u2") - P("u2^2") / 2


def test_split_checks():
    for k, j in [(2, 1), (3, 1), (3, 2), (4, 2)]:
        ok, _ = split_potential_check(k, j)
        assert ok, (k, j)
    # the explicit closed form
    assert potential_antisym(2, 3).body == \
        -potential_antisym(1, 3).body - P("(u2 - u1^2)^2") / 2


def test_torus_potentials():
    zero = LaurentPoly.zero()
    w231 = poly_substitute(torus_potential(2, 3, 1).body, {"u1": zero})
    assert w231 == Fraction(5, 16) * P("u2^3")
    w341 = poly_substitute(torus_potential(3, 4, 1).body, {"u1": zero})
    assert w341 == -P("7*u2^4") / 243 + P("14*u2*u3^2") / 27
    w232 = poly_substitute(torus_potential(2, 3, 2).body, {"u1": zero})
    assert w232 == Fraction(5, 256) * P(
        "u3*(3*u2^4 - 8*u2*u3^2 - 24*u2^2*u4 + 48*u4^2)")


def test_torus_potential_super_body():
    pot = torus_potential(2, 3, 1)
    expect = LaurentPoly.zero()
    for i in (1, 2):
        expect = expect + pot.body.derivative(f"u{i}") * LaurentPoly.var(f"xi{i}")
    assert pot.super_body == expect


def _unit_series_base(n):
    """``1 + u_1 z + ... + u_n z^n``."""
    return LaurentPoly.one() + sum(
        (LaurentPoly.var(f"u{i}") * LaurentPoly.var("z", i) for i in range(1, n + 1)),
        LaurentPoly.zero())


def _per_variable_super_body(pot):
    """``sum_i dW/du_i * xi_i``, one product and one sum per variable."""
    out = LaurentPoly.zero()
    for xi, image in pot.jacobi_images().items():
        out = out + image * LaurentPoly.var(xi)
    return out


TORUS_POTENTIAL_GRID = [(p, q, r) for p in (1, 2, 3, 4) for q in range(1, 8)
                        for r in (1, 2, 3) if gcd(p, q) == 1 and p * r <= 6]


@pytest.mark.parametrize("p,q,r", TORUS_POTENTIAL_GRID)
def test_torus_potential_is_the_truncated_series_coefficient(p, q, r):
    """The body read off the series recurrence equals the ``z^order``
    coefficient of the whole truncated series, and the super body the sum
    of the per-variable products."""
    order = (p + q) * r + 1
    pot = torus_potential(p, q, r)
    series = series_pow_rational(_unit_series_base(p * r), Fraction(p + q, p), order)
    assert pot.body == series.coefficient_of("z", order)
    assert pot.variables == tuple(f"u{i}" for i in range(1, p * r + 1))
    assert pot.super_body == _per_variable_super_body(pot)


@pytest.mark.parametrize("k,N", [(k, N) for N in range(1, 9) for k in range(1, N + 1)])
def test_potential_antisym_is_the_truncated_log_coefficient(k, N):
    pot = potential_antisym(k, N)
    assert pot.body == series_log(_unit_series_base(k), N + 1).coefficient_of("z", N + 1)
    assert pot.variables == tuple(f"u{i}" for i in range(1, k + 1))
    assert pot.super_body is None
    assert pot.with_super().super_body == _per_variable_super_body(pot)


def test_with_super_treats_other_variables_as_parameters():
    pot = Potential(P("s*u1^2*u2 + s^2 + u2^3"), ("u1", "u2")).with_super()
    assert pot.super_body == _per_variable_super_body(pot)
    assert pot.super_body == P("2*s*u1*u2*xi1 + s*u1^2*xi2 + 3*u2^2*xi2")


def _scheme_forms_cases():
    """``(p, q, r)`` of every presentation with forms that the scheme-basis
    benchmark requests."""
    root = pathlib.Path(__file__).resolve().parents[1]
    forms = runpy.run_path(str(root / "bench" / "workloads.py"))["SCHEME_FORMS"]
    return [(p, q, r) for p, q, rmax in forms for r in range(1, rmax + 1)]


@pytest.mark.parametrize("p,q,r", _scheme_forms_cases())
def test_form_relations_are_the_total_differentials(p, q, r):
    """Each form relation is its relation's total differential, built term
    map by term map as ``c*e * (m/u_i) * du_i``."""
    pres = scheme_presentation(p, q, r, reduced=True)
    assert pres.relations == scheme_relations(p, q, r, reduced=True)
    moves = {f"u{i}": Multidegree({f"u{i}": -1, f"du{i}": 1}) for i in range(r + 1, p * r + 1)}
    assert pres.form_relations == [
        LaurentPoly({md + moves[u]: c * e for md, c in rel.terms.items() for u, e in md.items()})
        for rel in pres.relations]
    assert all(not rel.is_zero() for rel in pres.relations)


def test_scheme_family_takes_low_slots():
    """Reduced schemes name ``u2..``; a potential named after them still
    finds ``u1`` in a low slot, so its degrees stay short.  Slots live for
    the process, so a fresh interpreter runs the sequence."""
    code = (
        "from knothom.models import scheme_presentation, torus_potential\n"
        "for r in range(1, 6):\n"
        "    scheme_presentation(2, 3, r)\n"
        "print(max(len(md) for md in torus_potential(2, 3, 1).body.terms))\n")
    src = str(pathlib.Path(knothom.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120, env=dict(os.environ, PYTHONPATH=src))
    assert done.returncode == 0, done.stderr
    # the kernel's five variables, then u1, u2 and their forms
    assert int(done.stdout) <= 7


@pytest.mark.parametrize("p,q,r", [(2, 3, 1), (2, 3, 2), (3, 4, 1)])
def test_super_jacobi_ring_is_forms_presentation(p, q, r):
    # the odd derivatives of the superpotential recover the even scheme
    # relations, and its even derivatives recover their total differentials
    # with the same unit scalars, so the Jacobi ring is the forms quotient
    pot = torus_potential(p, q, r)
    rels = scheme_relations(p, q, r, reduced=False)
    n = r * p
    scalar = Fraction(p + q, p)
    for i in range(1, n + 1):
        # the odd derivative is the relation printed at z-power (p+q)r+1-i
        rel = rels[p * r - i]
        odd_der = pot.super_body.derivative(f"xi{i}")
        assert odd_der == scalar * rel
        # the even derivative is the total differential of that relation,
        # with the same scalar and xi_j in place of du_j
        even_der = pot.super_body.derivative(f"u{i}")
        expect = LaurentPoly.zero()
        for j in range(1, n + 1):
            expect = expect + rel.derivative(f"u{j}") * LaurentPoly.var(f"xi{j}")
        assert even_der == scalar * expect


def test_extend_potential_2L2_display():
    ext = extend_potential(potential_antisym(2, 3), 2)
    assert ext.body == P(
        "-u1_1^3*u1_2 + u1_1^2*u2_2 + 2*u1_1*u1_2*u2_1 - u2_1*u2_2")


def test_extension_q_homogeneous():
    # box degrees 2,4 / 4,6; every monomial of the widened potential has
    # q-degree 10
    ext = extend_potential(potential_antisym(2, 3), 2).body
    deg = {"u1_1": 2, "u1_2": 4, "u2_1": 4, "u2_2": 6}
    for md in ext.terms:
        assert sum(deg[v] * int(e) for v, e in md.items()) == 10


def test_extend_identity():
    pot = potential_antisym(2, 3)
    same = extend_potential(pot, 1).body
    renamed = poly_substitute(pot.body, {
        "u1": LaurentPoly.var("u1_1"), "u2": LaurentPoly.var("u2_1")})
    assert same == renamed


def test_extend_differential_matches_potential():
    pot = potential_antisym(2, 3)
    images = {"xi1": pot.body.derivative("u1"), "xi2": pot.body.derivative("u2")}
    ext_images = extend_differential(images, pot.variables, 2)
    wide = extend_potential(pot, 2).body
    for l in (1, 2):
        for i in (1, 2):
            assert ext_images[f"xi{l}_{i}"] == wide.derivative(f"u{l}_{i}")


def test_koszul_sl2_unknot():
    pres = unknot_model([1])
    h = koszul_homology(pres, sl_differential_images(pres, 2), 16)
    assert h.dims == {(0, 0): 1, (0, 2): 1}
    assert h.poincare() == P("1 + q^2")
    assert h.poincare(qmax=1) == P("1")


@pytest.mark.parametrize("r", [1, 2, 3, 4])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_sl_differential_images_brute_force(r, n):
    """``xi_i``, of q-degree ``2i - 2``, maps to the sum over ordered
    ``n``-tuples of indices with sum ``i + n - 1`` of the products of the
    ``u_a`` of q-degree ``2a``: each multiset of indices once per distinct
    ordering."""
    pres = unknot_model([r])
    u = {g.q_degree() // 2: g.name for g in pres.evens()}
    xi = {g.q_degree() // 2 + 1: g.name for g in pres.odds()}
    images = sl_differential_images(pres, n)
    assert set(images) == set(xi.values())
    for i in range(1, r + 1):
        expected = LaurentPoly.zero()
        for combo in combinations_with_replacement(range(1, r + 1), n):
            if sum(combo) == i + n - 1:
                term = LaurentPoly.const(len(set(permutations(combo))))
                for a in combo:
                    term = term * LaurentPoly.var(u[a])
                expected = expected + term
        assert images[xi[i]] == expected, (r, n, i)


def test_koszul_sl2_unknot_s2():
    pres = unknot_model([2])
    images = sl_differential_images(pres, 2)
    assert images["xi11"] == P("u21^2")
    assert images["xi21"] == P("2*u11*u21")
    h = koszul_homology(pres, images, 20)
    expect = {(0, 0): 1, (0, 2): 1}
    k = 1
    while 4 * k <= 20:
        expect[(0, 4 * k)] = 1
        k += 1
    k = 0
    while 4 + 4 * k <= 20:
        expect[(2, 4 + 4 * k)] = 1
        k += 1
    assert {kk: v for kk, v in h.dims.items() if kk[1] <= 16} == \
        {kk: v for kk, v in expect.items() if kk[1] <= 16}


def test_koszul_zero_differential():
    pres = unknot_model([1])
    h = koszul_homology(pres, {"xi11": LaurentPoly.zero()}, 6)
    # whole free algebra survives
    assert h.dims[(0, 0)] == 1 and h.dims[(2, 0)] == 1
    assert h.dims[(0, 2)] == 1 and h.dims[(2, 2)] == 1


def test_koszul_inhomogeneous_image_rejected():
    pres = unknot_model([2])
    with pytest.raises(ArithmeticError):
        koszul_homology(pres, {"xi11": P("u21^2 + u11")}, 10)


def test_universal_pair_homology_free_on_two_generators():
    gens = [
        Generator("u3", EVEN, Multidegree(q=6, tc=4, tr=2)),
        Generator("u4", EVEN, Multidegree(q=8, tc=6, tr=2)),
        Generator("xi3", ODD, Multidegree(a=2, q=4, tc=5, tr=3)),
        Generator("xi4", ODD, Multidegree(a=2, q=6, tc=7, tr=3)),
    ]
    h = universal_pair_homology(
        GradedPresentation(gens), "u3", "u4", "xi3", "xi4", 40)
    expect = {}
    for j in (0, 1):          # xi3*xi4 exponent
        k = 0
        while 12 * k + 10 * j <= 36:
            expect[(4 * j, 12 * k + 10 * j)] = 1
            k += 1
    got = {kk: v for kk, v in h.dims.items() if kk[1] <= 36}
    assert got == expect


def test_f1_closed_form_matches_basis():
    # quantum multinomials in q^2, printed exponents as-is, prefactor
    # a^(2r) q^(-r); matches the Macaulay Poincare polynomial exactly
    from knothom.bottom import qbinom

    def multinom_q2(r, i, j):
        k = r - i - j
        num = LaurentPoly.one()
        for x in range(1, r + 1):
            num = num * (LaurentPoly.one() - LaurentPoly.var("q", 2 * x))
        den = LaurentPoly.one()
        for block in (i, j, k):
            for x in range(1, block + 1):
                den = den * (LaurentPoly.one() - LaurentPoly.var("q", 2 * x))
        return num.divide_exact(den)

    for r in (1, 2):
        total = LaurentPoly.zero()
        for i in range(r + 1):
            for j in range(r + 1 - i):
                term = LaurentPoly.monomial(1, Multidegree(
                    a=2 * j, q=2 * (r + 1) * i + 2 * r * j + j * (j - 1),
                    tr=2 * i + 3 * j))
                total = total + term * multinom_q2(r, i, j)
        f1 = LaurentPoly.monomial(1, Multidegree(a=2 * r, q=-r)) * total
        mb = macaulay_basis(scheme_presentation(2, 3, r))
        shifted = LaurentPoly.monomial(1, Multidegree(a=2 * r, q=-r)) * \
            mb.poincare(("a", "q", "tr"))
        assert f1 == shifted


def test_presentation_json_roundtrip():
    pres = scheme_presentation(2, 3, 1)
    back = GradedPresentation.from_json(pres.to_json())
    assert [g.name for g in back.generators] == [g.name for g in pres.generators]
    assert back.relations == pres.relations
    assert back.form_relations == pres.form_relations


def test_generator_is_an_immutable_value():
    g = Generator("u1", EVEN, Multidegree(q=2, tr=1))
    same = Generator("u1", EVEN, Multidegree(tr=1, q=2))
    assert g == same and hash(g) == hash(same) and len({g, same}) == 1
    assert g != Generator("u1", ODD, g.degree) and g != Generator("u2", EVEN, g.degree)
    assert g != ("u1", EVEN, g.degree)
    with pytest.raises(AttributeError):
        g.name = "u2"
    with pytest.raises(AttributeError):
        del g.degree
    assert (g.name, g.parity, g.degree) == ("u1", EVEN, Multidegree(q=2, tr=1))
    assert repr(g) == "Generator(name='u1', parity='even', degree=Multidegree(q=2, tr=1))"
