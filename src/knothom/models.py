"""Graded homology models: free superalgebras, quotient schemes, potentials.

The models here present homology spaces as supercommutative algebras with
multigraded generators.  Free models (unknot, stable torus limits) are given
by generator tables; torus-knot quotients are cut out by the coefficients of
fractional-power series and analyzed degree by degree with exact Macaulay
matrices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import gcd

from .laurent import (
    LaurentPoly,
    Multidegree,
    RationalSeries,
    series_log,
    series_pow_rational,
)
from .partitions import Partition

EVEN, ODD = "even", "odd"


@dataclass(frozen=True)
class Generator:
    name: str
    parity: str
    degree: Multidegree

    def q_degree(self):
        return self.degree.e("q")


@dataclass
class GradedPresentation:
    """Generators of a supercommutative algebra plus an optional relation ideal.

    ``relations`` are polynomials in the even generator names;
    ``form_relations`` are linear in the odd names with even-polynomial
    coefficients.
    """

    generators: list
    relations: list = field(default_factory=list)
    form_relations: list = field(default_factory=list)

    def evens(self):
        return [g for g in self.generators if g.parity == EVEN]

    def odds(self):
        return [g for g in self.generators if g.parity == ODD]

    def generator(self, name) -> Generator:
        for g in self.generators:
            if g.name == name:
                return g
        raise KeyError(name)

    def degree_map(self):
        return {g.name: g.degree for g in self.generators}

    def monomial_degree(self, md: Multidegree) -> Multidegree:
        """Grading of a monomial in the generator variables."""
        degs = self.degree_map()
        out = Multidegree()
        for v, e in md.items():
            out = out + degs[v].scale(e)
        return out

    def poly_degree(self, p: LaurentPoly, grading_var=None):
        """The common grading of a homogeneous polynomial; None if mixed."""
        seen = None
        for md in p.terms:
            d = self.monomial_degree(md)
            d = d.e(grading_var) if grading_var else d
            if seen is None:
                seen = d
            elif seen != d:
                return None
        return seen

    def hilbert_series(self, order=30) -> RationalSeries:
        """Free-algebra Hilbert series ``prod(1+odd)/prod(1-even)`` in ``q``."""
        num = LaurentPoly.one()
        for g in self.odds():
            num = num * (LaurentPoly.one() + LaurentPoly.monomial(1, g.degree))
        return RationalSeries(num, [g.degree for g in self.evens()], "q", order)

    def to_json(self):
        return {
            "generators": [
                {"name": g.name, "parity": g.parity,
                 "degree": {v: str(e) for v, e in g.degree.items()}}
                for g in self.generators
            ],
            "relations": [r.to_json() for r in self.relations],
            "formRelations": [r.to_json() for r in self.form_relations],
        }

    @classmethod
    def from_json(cls, obj):
        gens = [
            Generator(g["name"], g["parity"],
                      Multidegree({v: Fraction(e)
                                   for v, e in g["degree"].items()}))
            for g in obj["generators"]
        ]
        return cls(
            gens,
            [LaurentPoly.from_json(r) for r in obj.get("relations", [])],
            [LaurentPoly.from_json(r) for r in obj.get("formRelations", [])],
        )


@dataclass
class Potential:
    """A polynomial in even variables, optionally with its odd-linear partner."""

    body: LaurentPoly
    variables: tuple
    super_body: LaurentPoly | None = None

    def jacobi_images(self, odd_prefix="xi"):
        """Koszul images ``xi_i -> dW/du_i`` for the matching odd names."""
        out = {}
        for v in self.variables:
            out[odd_prefix + v.lstrip("u")] = self.body.derivative(v)
        return out

    def with_super(self, odd_prefix="xi") -> "Potential":
        sb = LaurentPoly.zero()
        for xi, img in self.jacobi_images(odd_prefix).items():
            sb = sb + img * LaurentPoly.var(xi)
        return Potential(self.body, self.variables, sb)


def poly_substitute(p: LaurentPoly, images: dict) -> LaurentPoly:
    """Full polynomial substitution; mapped variables need integer exponents >= 0."""
    out = LaurentPoly.zero()
    for md, c in p.terms.items():
        term = LaurentPoly.const(c)
        for v, e in md.items():
            if v in images:
                if e.denominator != 1 or e < 0:
                    raise ValueError(
                        f"cannot substitute into {v}^{e}: need a nonnegative integer")
                term = term * images[v] ** int(e)
            else:
                term = term * LaurentPoly.monomial(1, Multidegree({v: e}))
        out = out + term
    return out


# -- unknot and stable torus models ------------------------------------------------


def unknot_model(lam) -> GradedPresentation:
    """Free supercommutative model of the colored unknot.

    One even and one odd generator per box, graded by
    ``(a,q,tc)[u_x] = (0, 2*hook, 2*arm)`` and
    ``(a,q,tc)[xi_x] = (2, 2*content, 2*coarm+1)``.  For an R x S rectangle
    the fourth grading comes from the mirror rule ``tr(w) = tc(M(w))``:
    ``tr(u_ij) = 2j-2`` and ``tr(xi_ij) = 2j-1`` (box ``(i,j)`` = column i,
    row j), which makes ``Q(u) = 2`` and ``Q(xi) = 0``.
    """
    lam = lam if isinstance(lam, Partition) else Partition(lam)
    rect = lam.rect_shape()
    gens = []
    if rect and not lam.is_empty():
        R, S = rect
        for i in range(1, S + 1):       # column
            for j in range(1, R + 1):   # row
                cell = (j, i)
                gens.append(Generator(
                    f"u{i}{j}", EVEN,
                    Multidegree(q=2 * lam.hook(cell), tc=2 * lam.arm(cell),
                                tr=2 * j - 2)))
                gens.append(Generator(
                    f"xi{i}{j}", ODD,
                    Multidegree(a=2, q=2 * lam.content(cell),
                                tc=2 * lam.coarm(cell) + 1, tr=2 * j - 1)))
    else:
        for k, cell in enumerate(lam.cells(), start=1):
            gens.append(Generator(
                f"u{k}", EVEN,
                Multidegree(q=2 * lam.hook(cell), tc=2 * lam.arm(cell))))
            gens.append(Generator(
                f"xi{k}", ODD,
                Multidegree(a=2, q=2 * lam.content(cell),
                            tc=2 * lam.coarm(cell) + 1)))
    return GradedPresentation(gens)


def unknot_mirror_map(R: int, S: int):
    """Generator bijection of the R x S model onto the S x R model.

    Bosonic boxes reflect through the southeast corner, fermionic ones
    through the southwest corner; it swaps the two homological gradings.
    """
    out = {}
    for i in range(1, S + 1):
        for j in range(1, R + 1):
            out[f"u{i}{j}"] = f"u{R - j + 1}{S - i + 1}"
            out[f"xi{i}{j}"] = f"xi{j}{i}"
    return out


class StableTorusModel:
    """Free generators of the stable rectangle-colored torus homology.

    Generators ``u_ij^(n)`` / ``xi_ij^(n)`` (named ``u{i}{j}n{n}``) for
    ``n = 1..p`` (``2..p`` in the reduced model) carry the gradings

        (a,q)[u]  = (0, 2(nS - i + R - j + 1)),
        (tc,tr)[u]  = (2(nS - i), 2((n-1)R + j - 1)),
        (a,q)[xi] = (2, 2((n-1)S + i - j)),
        (tc,tr)[xi] = (2((n-1)S + i) - 1, 2((n-1)R + j) - 1),

    so that ``Q[u^(n)] = 2n`` and ``Q[xi^(n)] = 2n - 2``.
    """

    def __init__(self, R: int, S: int, p: int, reduced=True):
        if p < 2:
            raise ValueError("need p >= 2 for a torus knot")
        self.R, self.S, self.p, self.reduced = R, S, p, reduced
        gens = []
        for n in range(2 if reduced else 1, p + 1):
            for i in range(1, S + 1):
                for j in range(1, R + 1):
                    gens.append(Generator(
                        f"u{i}{j}n{n}", EVEN,
                        Multidegree(q=2 * (n * S - i + R - j + 1),
                                    tc=2 * (n * S - i),
                                    tr=2 * ((n - 1) * R + j - 1))))
                    gens.append(Generator(
                        f"xi{i}{j}n{n}", ODD,
                        Multidegree(a=2, q=2 * ((n - 1) * S + i - j),
                                    tc=2 * ((n - 1) * S + i) - 1,
                                    tr=2 * ((n - 1) * R + j) - 1)))
        self.presentation = GradedPresentation(gens)
        for g in gens:
            qq = (g.degree.e("q") + g.degree.e("tr") - g.degree.e("tc"))
            if qq % R != 0:
                raise ArithmeticError(f"noninteger auxiliary grading on {g.name}")

    def q_aux(self, name) -> int:
        """The auxiliary grading ``(q + tr - tc)/R`` of a generator."""
        d = self.presentation.generator(name).degree
        return int((d.e("q") + d.e("tr") - d.e("tc")) / self.R)

    def lefschetz_generator(self) -> str:
        """Multiplication by this generator realizes the self-symmetry flip."""
        return f"u{self.S}1n2"

    def mirror_map(self):
        other = {}
        for g in self.presentation.generators:
            if g.parity == EVEN:
                i, j, n = self._split(g.name, "u")
                other[g.name] = f"u{self.R - j + 1}{self.S - i + 1}n{n}"
            else:
                i, j, n = self._split(g.name, "xi")
                other[g.name] = f"xi{j}{i}n{n}"
        return other

    @staticmethod
    def _split(name, prefix):
        body = name[len(prefix):]
        ij, n = body.split("n")
        return int(ij[0]), int(ij[1]), int(n)

    def colored_images(self, kind, param):
        """Images of the odd generators under one colored differential.

        ``kind`` is one of ``"+row" | "+col" | "-row" | "-col"``; the
        parameter is the count of kept rows / columns.  Generators not
        listed map to zero.
        """
        R, S = self.R, self.S
        out = {}
        lo = 2 if self.reduced else 1
        if kind == "+row":
            k = param
            for n in range(lo, self.p + 1):
                for i in range(1, S + 1):
                    for j in range(k + 1, R + 1):
                        out[f"xi{i}{j}n{n}"] = LaurentPoly.var(
                            f"u{S + 1 - i}{j - k}n{n}")
        elif kind == "+col":
            l = param
            for n in range(lo, self.p + 1):
                for i in range(l + 1, S + 1):
                    for j in range(1, R + 1):
                        out[f"xi{i}{j}n{n}"] = LaurentPoly.var(
                            f"u{S + l + 1 - i}{j}n{n}")
        elif kind == "-row":
            out[f"xi1{param + 1}n2"] = LaurentPoly.one()
        elif kind == "-col":
            out[f"xi{param + 1}1n2"] = LaurentPoly.one()
        else:
            raise ValueError(f"unknown colored differential kind {kind!r}")
        return out


# -- torus-knot quotient schemes ---------------------------------------------------


def scheme_relations(p: int, q: int, r: int, reduced=True):
    """Defining relations of the torus-knot quotient scheme.

    Coefficients of ``z^(qr+1) .. z^((p+q)r)`` in
    ``(1 + sum u_i z^i)**(q/p)``; the unreduced scheme uses ``u_1..u_pr``,
    the reduced one ``u_(r+1)..u_pr``.  Zero coefficients are dropped; each
    relation is homogeneous for ``q-degree(u_i) = 2i``.
    """
    if gcd(p, q) != 1:
        raise ValueError(f"({p},{q}) not coprime")
    lo = r + 1 if reduced else 1
    base = LaurentPoly.one()
    for i in range(lo, r * p + 1):
        base = base + LaurentPoly.var(f"u{i}") * LaurentPoly.var("z", i)
    series = series_pow_rational(base, Fraction(q, p), (p + q) * r)
    rels = []
    for d in range(q * r + 1, (p + q) * r + 1):
        rel = series.coefficient_of("z", d)
        if not rel.is_zero():
            rels.append(rel)
    return rels


def _scheme_degree_even(i: int, r: int) -> Multidegree:
    return Multidegree(q=2 * i, tc=2 * i - 2, tr=2 * ((i - 1) // r))


def _scheme_degree_odd(i: int, r: int) -> Multidegree:
    return Multidegree(a=2, q=2 * i - 2, tc=2 * i - 1,
                       tr=2 * ((i - 1) // r) + 1)


def scheme_presentation(p: int, q: int, r: int, reduced=True,
                        with_forms=True) -> GradedPresentation:
    """Quotient-scheme presentation with differential-form relations.

    Even generators ``u_i`` carry ``(q,tc,tr) = (2i, 2i-2, 2*floor((i-1)/r))``
    and the odd forms ``du_i`` carry ``(a,q,tc,tr) = (2, 2i-2, 2i-1, ...+1)``.
    The odd-linear relations are the total differentials of the even ones.
    The relations are q-homogeneous but only filtered by the homological
    gradings; basis elements later inherit the degrees of their monomial
    representatives.
    """
    lo = r + 1 if reduced else 1
    gens = []
    for i in range(lo, r * p + 1):
        gens.append(Generator(f"u{i}", EVEN, _scheme_degree_even(i, r)))
    if with_forms:
        for i in range(lo, r * p + 1):
            gens.append(Generator(f"du{i}", ODD, _scheme_degree_odd(i, r)))
    rels = scheme_relations(p, q, r, reduced)
    form_rels = []
    if with_forms:
        for rel in rels:
            fr = LaurentPoly.zero()
            for i in range(lo, r * p + 1):
                d = rel.derivative(f"u{i}")
                if not d.is_zero():
                    fr = fr + d * LaurentPoly.var(f"du{i}")
            form_rels.append(fr)
    pres = GradedPresentation(gens, rels, form_rels)
    for rel in rels:
        if pres.poly_degree(rel, "q") is None:
            raise ArithmeticError("scheme relation is not q-homogeneous")
    return pres


# -- exact linear algebra -----------------------------------------------------------


def _row_reduce(rows, prefer=()):
    """Gaussian elimination over Fractions; returns (rank, pivot column set).

    Rows are dicts mapping hashable column keys to nonzero Fractions; columns
    are indexed on first sight and pivots taken at the smallest index, so the
    pivot set is deterministic for a fixed row order.  Columns listed in
    ``prefer`` are registered first, i.e. eliminated with priority.
    """
    col_index = {}
    col_key = []

    def idx(c):
        i = col_index.get(c)
        if i is None:
            i = col_index[c] = len(col_key)
            col_key.append(c)
        return i

    for c in prefer:
        idx(c)

    basis = {}  # pivot index -> normalized row dict
    rank = 0
    for row in rows:
        r = {idx(c): v for c, v in row.items() if v != 0}
        while r:
            p = min(r)
            if p in basis:
                coef = r[p]
                for c, v in basis[p].items():
                    nv = r.get(c, Fraction(0)) - coef * v
                    if nv == 0:
                        r.pop(c, None)
                    else:
                        r[c] = nv
            else:
                inv = Fraction(1) / r[p]
                basis[p] = {c: v * inv for c, v in r.items()}
                rank += 1
                break
    return rank, {col_key[p] for p in basis}


def _u_monomials(degrees, target):
    """Exponent dicts over the even generators with total q-degree ``target``."""
    names = sorted(degrees, key=lambda n: -degrees[n])
    out = []

    def rec(idx, rem, acc):
        if rem == 0:
            out.append(dict(acc))
            return
        if idx >= len(names):
            return
        name = names[idx]
        d = degrees[name]
        top = rem // d
        for e in range(top, -1, -1):
            if e:
                acc[name] = e
            rec(idx + 1, rem - e * d, acc)
            acc.pop(name, None)

    rec(0, target, {})
    return out


@dataclass
class MacaulayBasis:
    """Monomial basis of an Artinian quotient with representative gradings."""

    presentation: GradedPresentation
    elements: list               # (even exponent dict, odd name tuple)
    complete: bool
    top_degree: int

    def dimension(self) -> int:
        return len(self.elements)

    def degrees(self):
        out = []
        for exps, odds in self.elements:
            md = Multidegree()
            for name, e in exps.items():
                md = md + self.presentation.generator(name).degree.scale(e)
            for name in odds:
                md = md + self.presentation.generator(name).degree
            out.append(md)
        return out

    def poincare(self, variables=("a", "q", "tr")) -> LaurentPoly:
        out = LaurentPoly.zero()
        for md in self.degrees():
            keep = Multidegree({v: md.e(v) for v in variables})
            out = out + LaurentPoly.monomial(1, keep)
        return out

    def monomial_names(self):
        names = []
        for exps, odds in self.elements:
            parts = [f"{n}^{e}" if e > 1 else n
                     for n, e in sorted(exps.items())]
            parts += list(odds)
            names.append("*".join(parts) if parts else "1")
        return names


class DegreeCeilingError(ArithmeticError):
    """The quotient did not close below the caller's degree ceiling."""


def macaulay_basis(pres: GradedPresentation, with_forms=True,
                   ceiling=200) -> MacaulayBasis:
    """Monomial basis of the quotient by degreewise exact elimination.

    Processes one q-degree at a time: the span of ``relation * monomial`` in
    that degree is row-reduced and the non-pivot monomials survive into the
    basis.  Terminates once the quotient vanishes on a window of consecutive
    degrees as wide as the largest generator degree (the quotient is then
    zero forever); raises :class:`DegreeCeilingError` if the ceiling is hit
    first.
    """
    even_deg = {g.name: int(g.q_degree()) for g in pres.evens()}
    odd_deg = {g.name: int(g.q_degree()) for g in pres.odds()} if with_forms else {}
    odd_names = sorted(odd_deg)
    rel_deg = []
    for rel in pres.relations:
        d = pres.poly_degree(rel, "q")
        if d is None:
            raise ArithmeticError("inhomogeneous relation")
        rel_deg.append((rel, int(d)))
    form_deg = []
    if with_forms:
        for rel in pres.form_relations:
            d = pres.poly_degree(rel, "q")
            if d is None:
                raise ArithmeticError("inhomogeneous form relation")
            form_deg.append((rel, int(d)))
    window = max(even_deg.values(), default=0)
    cheap = min(even_deg.values(), default=0)
    cheapest = min(even_deg, key=even_deg.get, default=None) if even_deg else None

    by_desc_degree = sorted(even_deg, key=lambda n: (-even_deg[n], n))

    def elimination_priority(col):
        # eliminate columns heavy in everything but the cheapest generator
        # first, so that surviving representatives are the natural low
        # monomials (powers of the cheapest generator times little else);
        # ties break toward eliminating the most expensive generators
        exps, odds = col
        ed = dict(exps)
        content = sum(e * even_deg[n] for n, e in ed.items() if n != cheapest)
        content += sum(odd_deg[o] for o in odds)
        vec = tuple(-ed.get(n, 0) for n in by_desc_degree)
        return (-content, vec, odds)

    elements = []
    zero_run = 0
    degree = 0
    while degree <= ceiling:
        dim_here = 0
        for k in range(0, len(odd_names) + 1):
            columns = []
            for odds in combinations(odd_names, k):
                rem = degree - sum(odd_deg[o] for o in odds)
                if rem < 0:
                    continue
                columns.extend((frozenset(exps.items()), odds)
                               for exps in _u_monomials(even_deg, rem))
            if not columns:
                continue
            columns.sort(key=elimination_priority)
            rows = []
            for rel, dg in rel_deg:
                for odds in combinations(odd_names, k):
                    rem = degree - dg - sum(odd_deg[o] for o in odds)
                    if rem < 0:
                        continue
                    for exps in _u_monomials(even_deg, rem):
                        rows.append(_expand_even_row(rel, exps, odds))
            if k > 0:
                for rel, dg in form_deg:
                    for sub in combinations(odd_names, k - 1):
                        rem = degree - dg - sum(odd_deg[o] for o in sub)
                        if rem < 0:
                            continue
                        for exps in _u_monomials(even_deg, rem):
                            row = _expand_form_row(rel, exps, sub)
                            if row:
                                rows.append(row)
            rank, pivots = _row_reduce(rows, prefer=columns)
            for col in columns:
                if col not in pivots:
                    elements.append((dict(col[0]), col[1]))
                    dim_here += 1
        if dim_here == 0 and degree > 0:
            zero_run += 1
            if zero_run >= window + 1:
                return MacaulayBasis(pres, elements, True, degree)
        else:
            zero_run = 0
        degree += 1
    raise DegreeCeilingError(f"degree ceiling {ceiling} exceeded")


def _expand_even_row(rel, exps, odds):
    row = {}
    for md, c in rel.terms.items():
        combined = dict(exps)
        for v, e in md.items():
            combined[v] = combined.get(v, 0) + int(e)
        key = (frozenset(combined.items()), odds)
        row[key] = row.get(key, Fraction(0)) + c
    return {k: v for k, v in row.items() if v != 0}


def _expand_form_row(rel, exps, sub):
    """Row for ``rel * u^exps * du_sub``; terms hitting ``du_sub`` twice vanish."""
    row = {}
    sub_set = set(sub)
    for md, c in rel.terms.items():
        odd_here = [v for v in md.variables() if v.startswith("du")]
        if len(odd_here) != 1:
            raise ArithmeticError("form relation must be odd-linear")
        dv = odd_here[0]
        if dv in sub_set:
            continue
        target = tuple(sorted(sub_set | {dv}))
        sign = (-1) ** sum(1 for s in sub if s < dv)
        combined = dict(exps)
        for v, e in md.items():
            if v == dv:
                continue
            combined[v] = combined.get(v, 0) + int(e)
        key = (frozenset(combined.items()), target)
        row[key] = row.get(key, Fraction(0)) + sign * c
    return {k: v for k, v in row.items() if v != 0}


# -- potentials ---------------------------------------------------------------------


def potential_antisym(k: int, N: int) -> Potential:
    """Antisymmetric-color potential: the ``z^(N+1)`` coefficient of a log."""
    if not (N >= k >= 1):
        raise ValueError("need N >= k >= 1")
    base = LaurentPoly.one()
    for i in range(1, k + 1):
        base = base + LaurentPoly.var(f"u{i}") * LaurentPoly.var("z", i)
    body = series_log(base, N + 1).coefficient_of("z", N + 1)
    return Potential(body, tuple(f"u{i}" for i in range(1, k + 1)))


def split_potential_check(k: int, j: int):
    """Quadratic normal form of the potential difference in ratio coordinates.

    Let ``w_s`` be the coefficients of ``U_k / U_(k-j)``.  Rewriting
    ``W_(k,2k-j) - W_(k-j,2k-j)`` in the coordinates
    ``(u_1..u_(k-j), w_(k-j+1)..w_k)``, the quadratic w-part must be exactly
    ``-1/2 sum_s w_(k-j+s) w_(k+1-s)``.  The remaining pure-u and w-linear
    terms are absorbed by completing the square (the pairing is
    nondegenerate) and the higher Morse tail is not checked.  Returns
    ``(ok, low_order_part)``.
    """
    if not (k > j >= 1):
        raise ValueError("need k > j >= 1")
    N = 2 * k - j
    Wk = potential_antisym(k, N).body
    Wkj = potential_antisym(k - j, N).body if k > j else LaurentPoly.zero()
    order = N + 1
    Uk = LaurentPoly.one()
    for i in range(1, k + 1):
        Uk = Uk + LaurentPoly.var(f"u{i}") * LaurentPoly.var("z", i)
    Ukj = LaurentPoly.one()
    for i in range(1, k - j + 1):
        Ukj = Ukj + LaurentPoly.var(f"u{i}") * LaurentPoly.var("z", i)
    inv = series_pow_rational(Ukj, -1, order)
    rho = (Uk * inv).truncate("z", order)
    w = {s: rho.coefficient_of("z", s) for s in range(k - j + 1, order + 1)}
    delta = Wk - Wkj
    # triangular inversion u_s = w_s - (lower terms), ascending s
    images = {}
    for s in range(k - j + 1, k + 1):
        g = w[s] - LaurentPoly.var(f"u{s}")
        expr = LaurentPoly.var(f"w{s}") - poly_substitute(g, images)
        images[f"u{s}"] = expr
    mixed = poly_substitute(delta, images)
    w_vars = [f"w{s}" for s in range(k - j + 1, k + 1)]

    def w_order(md):
        return sum(int(md.e(v)) for v in w_vars)

    low = LaurentPoly({md: c for md, c in mixed.terms.items()
                       if w_order(md) <= 2})
    quad_part = LaurentPoly(
        {md: c for md, c in low.terms.items()
         if w_order(md) == 2 and all(md.e(v) == 0 for v in md.variables()
                                     if not v.startswith("w"))})
    expected_quad = LaurentPoly.zero()
    for s0 in range(1, j + 1):
        expected_quad = expected_quad - Fraction(1, 2) * (
            LaurentPoly.var(f"w{k - j + s0}") * LaurentPoly.var(f"w{k + 1 - s0}"))
    return quad_part == expected_quad, low


def extend_potential(pot: Potential, n: int) -> Potential:
    """Potential for the ``n``-fold widened color via generating functions.

    Each variable ``v`` becomes ``v_1 + v_2*tau + ... + v_n*tau^(n-1)`` and
    the ``tau^(n-1)`` coefficient is extracted.  ``n = 1`` renames only.
    """
    images = {}
    for v in pot.variables:
        s = LaurentPoly.zero()
        for mm in range(1, n + 1):
            s = s + LaurentPoly.var(f"{v}_{mm}") * LaurentPoly.var("tau", mm - 1)
        images[v] = s
    body = poly_substitute(pot.body, images).coefficient_of("tau", n - 1)
    variables = tuple(f"{v}_{mm}" for v in pot.variables
                      for mm in range(1, n + 1))
    return Potential(body, variables)


def extend_differential(images: dict, variables, n: int) -> dict:
    """Extend odd-generator images to the widened color, matching the potential.

    ``D_n(xi_l^(i))`` is the ``tau^(n-i)`` coefficient of the image of
    ``xi_l`` with every even variable replaced by its generating function.
    """
    subs = {}
    for v in variables:
        s = LaurentPoly.zero()
        for mm in range(1, n + 1):
            s = s + LaurentPoly.var(f"{v}_{mm}") * LaurentPoly.var("tau", mm - 1)
        subs[v] = s
    out = {}
    for xi, img in images.items():
        widened = poly_substitute(img, subs)
        for i in range(1, n + 1):
            out[f"{xi}_{i}"] = widened.coefficient_of("tau", n - i)
    return out


def torus_potential(p: int, q: int, r: int) -> Potential:
    """Landau-Ginzburg potential whose Jacobi ideal cuts the unreduced scheme.

    ``W = Coef_((p+q)r+1) (1 + u_1 z + ... + u_pr z^pr)**((q+p)/p)``; the
    partial derivatives reproduce the scheme relations up to one common
    scalar, and the odd-linear partner is ``sum dW/du_i * xi_i``.
    """
    if gcd(p, q) != 1:
        raise ValueError(f"({p},{q}) not coprime")
    base = LaurentPoly.one()
    for i in range(1, r * p + 1):
        base = base + LaurentPoly.var(f"u{i}") * LaurentPoly.var("z", i)
    order = (p + q) * r + 1
    series = series_pow_rational(base, Fraction(q + p, p), order)
    body = series.coefficient_of("z", order)
    pot = Potential(body, tuple(f"u{i}" for i in range(1, r * p + 1)))
    return pot.with_super()


# -- differential homology ----------------------------------------------------------


def _monomials_up_to(pres: GradedPresentation, cutoff: int):
    """All supercommutative monomials with q-degree <= cutoff.

    Returns a list of ``(even exponents, odd subset, Multidegree)``.
    Requires positive even q-degrees; odd generators of nonpositive degree
    are allowed (they appear at most once).
    """
    even_deg = {g.name: int(g.q_degree()) for g in pres.evens()}
    if any(d <= 0 for d in even_deg.values()):
        raise ValueError("even generators need positive q-degrees")
    odd_names = sorted(g.name for g in pres.odds())
    odd_deg = {g.name: int(g.q_degree()) for g in pres.odds()}
    out = []
    for k in range(len(odd_names) + 1):
        for odds in combinations(odd_names, k):
            base = sum(odd_deg[o] for o in odds)
            for d in range(0, cutoff - base + 1):
                for exps in _u_monomials(even_deg, d):
                    md = Multidegree()
                    for nm, e in exps.items():
                        md = md + pres.generator(nm).degree.scale(e)
                    for nm in odds:
                        md = md + pres.generator(nm).degree
                    out.append((exps, odds, md))
    return out


def _apply_koszul(exps, odds, images):
    """Image of ``u^exps * xi_odds`` under the odd derivation ``xi -> image``."""
    out = {}
    for pos, xi in enumerate(odds):
        img = images.get(xi)
        if img is None or img.is_zero():
            continue
        rest = tuple(o for o in odds if o != xi)
        sign = (-1) ** pos
        for md, c in img.terms.items():
            combined = dict(exps)
            for v, e in md.items():
                combined[v] = combined.get(v, 0) + int(e)
            key = (frozenset(combined.items()), rest)
            val = out.get(key, Fraction(0)) + sign * c
            if val == 0:
                out.pop(key, None)
            else:
                out[key] = val
    return out


@dataclass
class HomologyDims:
    """Graded dimensions of a chain complex, valid through a q-cutoff."""

    dims: dict
    cutoff: int
    differential_degree: Multidegree

    def dimension_upto(self, qmax=None):
        qmax = self.cutoff if qmax is None else qmax
        return sum(d for (a, q), d in self.dims.items() if q <= qmax)

    def poincare(self, qmax=None) -> LaurentPoly:
        qmax = self.cutoff if qmax is None else qmax
        out = LaurentPoly.zero()
        for (a, q), d in self.dims.items():
            if q <= qmax and d:
                out = out + LaurentPoly.monomial(d, Multidegree(a=a, q=q))
        return out


def _block_homology(pres, d_apply, delta: Multidegree, cutoff: int):
    """Kernel-modulo-image dimensions of a degree-``delta`` differential."""
    monos = _monomials_up_to(pres, cutoff + max(0, int(-delta.e("q"))))
    blocks = {}
    for exps, odds, md in monos:
        key = (int(md.e("a")), int(md.e("q")))
        blocks.setdefault(key, []).append((exps, odds))
    da, dq = int(delta.e("a")), int(delta.e("q"))
    ranks = {}
    for key, items in blocks.items():
        rows = []
        for exps, odds in items:
            row = d_apply(exps, odds)
            if row:
                rows.append(row)
        ranks[key], _ = _row_reduce(rows)
    dims = {}
    for (a, q), items in blocks.items():
        if q > cutoff:
            continue
        d = len(items) - ranks.get((a, q), 0) - ranks.get((a - da, q - dq), 0)
        if d:
            dims[(a, q)] = d
    return HomologyDims(dims, cutoff, delta)


def koszul_homology(pres: GradedPresentation, images: dict,
                    cutoff: int) -> HomologyDims:
    """Degreewise homology of the odd derivation ``xi_i -> images[xi_i]``.

    All images must shift the full multidegree uniformly; the returned
    dimensions are exact for blocks whose incoming and outgoing blocks fit
    under the cutoff.
    """
    delta = None
    for xi, img in images.items():
        if img.is_zero():
            continue
        src = pres.generator(xi).degree
        d = pres.poly_degree(img)
        if d is None:
            raise ArithmeticError(f"inhomogeneous image for {xi}")
        step = d - src
        if delta is None:
            delta = step
        elif delta != step:
            raise ArithmeticError("images do not share a common degree shift")
    if delta is None:
        delta = Multidegree()
    return _block_homology(
        pres, lambda exps, odds: _apply_koszul(exps, odds, images),
        delta, cutoff)


def symmetric_unknot_presentation(r: int) -> GradedPresentation:
    """One-row unknot model with the index-graded generators ``u_i, xi_i``.

    ``(a,q,tc,tr)[u_i] = (0, 2i, 2i-2, 0)`` and
    ``(a,q,tc,tr)[xi_i] = (2, 2i-2, 2i-1, 1)`` for ``i = 1..r``; this is the
    hook-graded model of :func:`unknot_model` after reindexing boxes from the
    far end of the row.
    """
    gens = []
    for i in range(1, r + 1):
        gens.append(Generator(f"u{i}", EVEN,
                              Multidegree(q=2 * i, tc=2 * i - 2)))
        gens.append(Generator(f"xi{i}", ODD,
                              Multidegree(a=2, q=2 * i - 2, tc=2 * i - 1, tr=1)))
    return GradedPresentation(gens)


def universal_pair_homology(pres: GradedPresentation, x: str, y: str,
                            xi_x: str, xi_y: str, cutoff: int) -> HomologyDims:
    """Homology of the pair differential ``x^odd -> 2*x^(a-1)*y^(b+1)``, ``xi_x -> xi_y``.

    This is the universal column-removing differential on a two-generator
    block; its homology is the free algebra on ``x^2`` and ``xi_x xi_y``.
    """
    delta = pres.generator(y).degree - pres.generator(x).degree
    if delta != pres.generator(xi_y).degree - pres.generator(xi_x).degree:
        raise ArithmeticError("pair generators are not aligned in degree")

    def d_apply(exps, odds):
        out = {}
        a = exps.get(x, 0)
        if a % 2 == 1:
            ne = dict(exps)
            if a == 1:
                ne.pop(x)
            else:
                ne[x] = a - 1
            ne[y] = ne.get(y, 0) + 1
            key = (frozenset(ne.items()), odds)
            out[key] = out.get(key, Fraction(0)) + 2
        if xi_x in odds and xi_y not in odds:
            sign = (-1) ** odds.index(xi_x)
            swapped = tuple(sorted(o if o != xi_x else xi_y for o in odds))
            key = (frozenset(exps.items()), swapped)
            out[key] = out.get(key, Fraction(0)) + sign
        return {k: v for k, v in out.items() if v != 0}

    return _block_homology(pres, d_apply, delta, cutoff)


def sl_differential_images(pres: GradedPresentation, n: int) -> dict:
    """Rank-``n`` Koszul images on a one-row unknot model.

    With even generators ``u_1..u_r`` (q-degrees ``2, 4, ..``) the image of
    ``xi_i`` is the complete degree-``(i+n-1)`` sum of ``n``-fold products
    ``u_(a_1)...u_(a_n)``; for ``n = 2`` this is
    ``xi_1 -> u_1^2, xi_2 -> 2 u_1 u_2, xi_3 -> u_2^2 + 2 u_1 u_3, ...``.
    """
    evens = sorted((int(g.q_degree()) // 2, g.name) for g in pres.evens())
    indices = [i for i, _ in evens]
    names = {i: nm for i, nm in evens}
    out = {}
    odds = sorted(pres.odds(), key=lambda g: int(g.q_degree()))
    for pos, g in enumerate(odds):
        i = indices[pos]
        target = i + n - 1
        total = LaurentPoly.zero()

        def rec(rem, count, lo, acc):
            nonlocal total
            if count == n:
                if rem == 0:
                    term = LaurentPoly.one()
                    for b in acc:
                        term = term * LaurentPoly.var(names[b])
                    # multinomial count of orderings
                    from math import factorial
                    mult = factorial(n)
                    seen = {}
                    for b in acc:
                        seen[b] = seen.get(b, 0) + 1
                    for m in seen.values():
                        mult //= factorial(m)
                    total = total + mult * term
                return
            for b in indices:
                if b < lo or b > rem:
                    continue
                rec(rem - b, count + 1, b, acc + [b])

        rec(target, 0, min(indices), [])
        out[g.name] = total
    return out
