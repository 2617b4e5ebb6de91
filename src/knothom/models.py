"""Graded homology models: free superalgebras, quotient schemes, potentials.

The models here present homology spaces as supercommutative algebras with
multigraded generators.  Free models (unknot, stable torus limits) are given
by generator tables; torus-knot quotients are cut out by the coefficients of
fractional-power series and analyzed degree by degree with exact Macaulay
matrices.  A presentation decides everything about its monomials: the
grading of one is summed by :meth:`GradedPresentation.monomial_degree`, and
its odd generators, if any, are the differential forms that the quotient
carries.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from itertools import combinations
from math import factorial, gcd, lcm, prod

from .errors import UsageError
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

    def monomial_degree(self, exps, odds=()) -> Multidegree:
        """Grading of the monomial ``prod(name**e) * prod(odds)``.

        ``exps`` maps generator names to exponents (a ``Multidegree`` in the
        generator variables works too), and ``odds`` lists odd generator
        names, each taken once.  Every grading of a monomial is summed here.
        """
        degs = self.degree_map()
        out = Multidegree()
        for v, e in exps.items():
            out = out + degs[v].scale(e)
        for v in odds:
            out = out + degs[v]
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

    def jacobi_images(self):
        """Koszul images ``xi_i -> dW/du_i`` for the matching odd names."""
        return {"xi" + v.lstrip("u"): self.body.derivative(v)
                for v in self.variables}

    def with_super(self) -> "Potential":
        sb = LaurentPoly.zero()
        for xi, img in self.jacobi_images().items():
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


def _generating_function(names, var, first=1) -> LaurentPoly:
    """``sum_k names[k] * var**(first + k)``, one generator name per power."""
    return LaurentPoly({Multidegree({name: 1, var: first + k}): 1
                        for k, name in enumerate(names)})


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
            raise UsageError("need p >= 2 for a torus knot")
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
        raise UsageError(f"({p},{q}) not coprime")
    lo = r + 1 if reduced else 1
    names = [f"u{i}" for i in range(lo, r * p + 1)]
    base = 1 + _generating_function(names, "z", lo)
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
    """Quotient-scheme presentation, with differential-form relations unless
    ``with_forms`` is false.

    Even generators ``u_i`` carry ``(q,tc,tr) = (2i, 2i-2, 2*floor((i-1)/r))``
    and the odd forms ``du_i`` carry ``(a,q,tc,tr) = (2, 2i-2, 2i-1, ...+1)``.
    The odd-linear relations are the total differentials of the even ones.
    Without forms the presentation has no odd generators, and its quotient
    is the bottom row of the scheme.  The relations are q-homogeneous but
    only filtered by the homological gradings; basis elements later inherit
    the degrees of their monomial representatives.
    """
    indices = range(r + 1 if reduced else 1, r * p + 1)
    gens = [Generator(f"u{i}", EVEN, _scheme_degree_even(i, r)) for i in indices]
    rels = scheme_relations(p, q, r, reduced)
    form_rels = []
    if with_forms:
        gens += [Generator(f"du{i}", ODD, _scheme_degree_odd(i, r)) for i in indices]
        form_rels = [sum((rel.derivative(f"u{i}") * LaurentPoly.var(f"du{i}")
                          for i in indices), LaurentPoly.zero())
                     for rel in rels]
    pres = GradedPresentation(gens, rels, form_rels)
    for rel in rels:
        if pres.poly_degree(rel, "q") is None:
            raise ArithmeticError("scheme relation is not q-homogeneous")
    return pres


# -- exact linear algebra -----------------------------------------------------------


def _primitive(row):
    """``row`` times the positive rational that makes it coprime integers.

    Values may be ``int`` or ``Fraction``; the result holds ``int`` only.
    """
    den = lcm(*[v.denominator for v in row.values()])
    out = {c: v.numerator * (den // v.denominator) for c, v in row.items()}
    g = gcd(*out.values())
    if g > 1:
        out = {c: v // g for c, v in out.items()}
    return out


def _row_reduce(rows, prefer=None):
    """Fraction-free Gaussian elimination; returns (rank, pivot column set).

    Rows are dicts mapping hashable column keys to ``int`` or ``Fraction``
    values and may come from a generator.  Each row is cleared to a primitive
    integer row and reduced by ``r <- (b/g)*r - (a/g)*basis_row`` with
    ``g = gcd(a, b)``, ``a`` and ``b`` the two entries in the pivot column;
    basis rows are stored primitive, with a positive pivot entry so that
    ``b/g`` is never ``-1``.  Pivots are taken at the smallest column index,
    so the pivot set depends only on the row space and the column order.

    ``prefer`` is the complete column set in elimination order: a row
    touching any other column raises :class:`ArithmeticError`, and no further
    row is read once the rank equals the number of columns.  Without it,
    columns are indexed on first sight and every row is read.
    """
    col_key = [] if prefer is None else list(dict.fromkeys(prefer))
    col_index = {c: i for i, c in enumerate(col_key)}
    full = None if prefer is None else len(col_key)

    basis = {}  # pivot index -> (pivot entry, rest of the primitive row)
    for row in rows:
        r = {}
        for c, v in row.items():
            if not v:
                continue
            i = col_index.get(c)
            if i is None:
                if full is not None:
                    raise ArithmeticError(f"row touches column {c!r} outside prefer")
                i = col_index[c] = len(col_key)
                col_key.append(c)
            r[i] = v
        r = _primitive(r)
        while r:
            p = min(r)
            pivot = basis.get(p)
            if pivot is None:
                r = _primitive(r)
                if r[p] < 0:
                    r = {c: -v for c, v in r.items()}
                basis[p] = (r.pop(p), r)
                break
            b, rest = pivot
            a = r.pop(p)
            g = gcd(a, b)
            s, t = b // g, a // g
            if s != 1:
                r = {c: s * v for c, v in r.items()}
            for c, v in rest.items():
                nv = r.get(c, 0) - t * v
                if nv:
                    r[c] = nv
                else:
                    del r[c]
        if len(basis) == full:
            break
    return len(basis), {col_key[p] for p in basis}


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
        return [self.presentation.monomial_degree(exps, odds)
                for exps, odds in self.elements]

    def poincare(self, variables=("a", "q", "tr")) -> LaurentPoly:
        return LaurentPoly(Counter(Multidegree({v: md.e(v) for v in variables})
                                   for md in self.degrees()))

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


def macaulay_basis(pres: GradedPresentation, ceiling=200) -> MacaulayBasis:
    """Monomial basis of the quotient by degreewise exact elimination.

    The presentation decides the forms: its odd generators take part, each
    at most once per monomial, and its form relations are linear in them; a
    presentation without odd generators has no forms.  Processes one
    q-degree, and within it one count of odd factors, at a time: the span of
    ``relation * monomial`` there is row-reduced over the integers and the
    non-pivot monomials survive into the basis.  Rows are built lazily from
    relations scaled once to integer coefficients, so none is built after
    the span covers every monomial; the even monomials of each degree are
    enumerated once per call.  Terminates once the quotient vanishes on a
    window of consecutive degrees as wide as the largest generator degree
    (the quotient is then zero forever); raises :class:`DegreeCeilingError`
    if the ceiling is hit first.
    """
    even_deg = {g.name: int(g.q_degree()) for g in pres.evens()}
    odd_deg = {g.name: int(g.q_degree()) for g in pres.odds()}
    odd_names = sorted(odd_deg)
    odd_subsets = [[(odds, sum(odd_deg[o] for o in odds))
                    for odds in combinations(odd_names, k)]
                   for k in range(len(odd_names) + 1)]
    relations = []  # (integer terms, q-degree, odd factors per term)
    for rels, n_odd in ((pres.relations, 0), (pres.form_relations, 1)):
        for rel in rels:
            d = pres.poly_degree(rel, "q")
            if d is None:
                raise ArithmeticError("inhomogeneous relation")
            relations.append((_row_terms(rel, n_odd, odd_deg), int(d), n_odd))
    window = max(even_deg.values(), default=0)
    cheapest = min(even_deg, key=even_deg.get, default=None)

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

    @cache
    def monomials(rem):
        """``(exponent dict, column key part)`` pairs of q-degree ``rem``."""
        return [(exps, frozenset(exps.items())) for exps in _u_monomials(even_deg, rem)]

    def rows(degree, k):
        for terms, dg, n_odd in relations:
            if k >= n_odd:
                for odds, od in odd_subsets[k - n_odd]:
                    for exps, _ in monomials(degree - dg - od):
                        yield _expand_row(terms, exps, odds)

    elements = []
    zero_run = 0
    degree = 0
    while degree <= ceiling:
        dim_here = 0
        for k, subsets in enumerate(odd_subsets):
            columns = [(key, odds) for odds, od in subsets
                       for _, key in monomials(degree - od)]
            if not columns:
                continue
            columns.sort(key=elimination_priority)
            _, pivots = _row_reduce(rows(degree, k), prefer=columns)
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


def _row_terms(rel, n_odd, odd_names):
    """``(odd name or None, even exponent pairs, int coefficient)`` per term.

    The coefficients are scaled to coprime integers, which leaves every span
    of multiples of ``rel`` unchanged; each term needs ``n_odd`` factors
    among ``odd_names``.
    """
    out = []
    for md, c in _primitive(rel.terms).items():
        odd = [v for v, _ in md.items() if v in odd_names]
        if len(odd) != n_odd:
            raise ArithmeticError(f"relation terms need {n_odd} odd factors")
        dv = odd[0] if odd else None
        out.append((dv, [(v, e) for v, e in md.items() if v != dv], c))
    return out


def _expand_row(terms, exps, odds):
    """Row for ``rel * u^exps * du_odds``; a form hitting ``du_odds`` vanishes.

    Distinct terms give distinct columns, so no two are summed.
    """
    row = {}
    for dv, items, c in terms:
        if dv is None:
            target = odds
        elif dv in odds:
            continue
        else:
            target = tuple(sorted(odds + (dv,)))
            c *= (-1) ** sum(1 for s in odds if s < dv)
        combined = dict(exps)
        for v, e in items:
            combined[v] = combined.get(v, 0) + e
        row[(frozenset(combined.items()), target)] = c
    return row


# -- potentials ---------------------------------------------------------------------


def potential_antisym(k: int, N: int) -> Potential:
    """Antisymmetric-color potential: the ``z^(N+1)`` coefficient of a log."""
    if not (N >= k >= 1):
        raise UsageError("need N >= k >= 1")
    names = tuple(f"u{i}" for i in range(1, k + 1))
    body = series_log(1 + _generating_function(names, "z"), N + 1)
    return Potential(body.coefficient_of("z", N + 1), names)


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
        raise UsageError("need k > j >= 1")
    N = 2 * k - j
    Wk = potential_antisym(k, N).body
    Wkj = potential_antisym(k - j, N).body
    order = N + 1
    Uk = 1 + _generating_function([f"u{i}" for i in range(1, k + 1)], "z")
    Ukj = 1 + _generating_function([f"u{i}" for i in range(1, k - j + 1)], "z")
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
    body = poly_substitute(pot.body, _widened(pot.variables, n))
    variables = tuple(f"{v}_{mm}" for v in pot.variables
                      for mm in range(1, n + 1))
    return Potential(body.coefficient_of("tau", n - 1), variables)


def extend_differential(images: dict, variables, n: int) -> dict:
    """Extend odd-generator images to the widened color, matching the potential.

    ``D_n(xi_l^(i))`` is the ``tau^(n-i)`` coefficient of the image of
    ``xi_l`` with every even variable replaced by its generating function.
    """
    subs = _widened(variables, n)
    out = {}
    for xi, img in images.items():
        widened = poly_substitute(img, subs)
        for i in range(1, n + 1):
            out[f"{xi}_{i}"] = widened.coefficient_of("tau", n - i)
    return out


def _widened(variables, n: int) -> dict:
    """``v -> v_1 + v_2*tau + ... + v_n*tau^(n-1)`` for each variable."""
    return {v: _generating_function([f"{v}_{mm}" for mm in range(1, n + 1)],
                                   "tau", 0)
            for v in variables}


def torus_potential(p: int, q: int, r: int) -> Potential:
    """Landau-Ginzburg potential whose Jacobi ideal cuts the unreduced scheme.

    ``W = Coef_((p+q)r+1) (1 + u_1 z + ... + u_pr z^pr)**((q+p)/p)``; the
    partial derivatives reproduce the scheme relations up to one common
    scalar, and the odd-linear partner is ``sum dW/du_i * xi_i``.
    """
    if gcd(p, q) != 1:
        raise UsageError(f"({p},{q}) not coprime")
    names = tuple(f"u{i}" for i in range(1, r * p + 1))
    order = (p + q) * r + 1
    series = series_pow_rational(1 + _generating_function(names, "z"),
                                 Fraction(q + p, p), order)
    return Potential(series.coefficient_of("z", order), names).with_super()


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
                    out.append((exps, odds, pres.monomial_degree(exps, odds)))
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

    def poincare(self, qmax=None) -> LaurentPoly:
        qmax = self.cutoff if qmax is None else qmax
        return LaurentPoly({Multidegree(a=a, q=q): d
                            for (a, q), d in self.dims.items() if q <= qmax})


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
    index = {g.name: int(g.q_degree()) // 2 for g in pres.evens()}
    indices = sorted(index.values())
    out = {}
    odds = sorted(pres.odds(), key=lambda g: int(g.q_degree()))
    for pos, g in enumerate(odds):
        # u^exps with n factors, counted once per ordering of the factors
        out[g.name] = LaurentPoly({
            Multidegree(exps): factorial(n) // prod(map(factorial, exps.values()))
            for exps in _u_monomials(index, indices[pos] + n - 1)
            if sum(exps.values()) == n})
    return out
