"""Graded homology models: free superalgebras, quotient schemes, potentials.

The models here present homology spaces as supercommutative algebras with
multigraded generators.  The free unknot model is a generator table and the
stable torus model is shifted copies of it; the tilde grading ``Q`` of their
generators is read by the one tilde map,
:func:`knothom.fixtures.to_tilde`.  Torus-knot quotients are cut out
by the coefficients of fractional-power series and analyzed degree by degree
with exact Macaulay matrices.  A presentation decides everything about its
monomials: the grading of one is summed by
:meth:`GradedPresentation.monomial_degree`, and its odd generators, if any,
are the differential forms that the quotient carries.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import cache
from itertools import combinations, compress
from math import factorial, gcd, prod
from operator import mul, not_

from .errors import UsageError
from .fixtures import to_tilde
from .laurent import (
    LaurentPoly,
    Multidegree,
    RationalSeries,
    _from_slots,
    _primitive,
    _series_terms,
    _slot,
    _slots,
    register_variables,
    series_pow_rational,
)
from .partitions import Partition

EVEN, ODD = "even", "odd"


class Generator:
    """A named generator, ``EVEN`` or ``ODD``, with its multidegree.

    Immutable, and equal and hashed by its three fields.
    """

    def __init__(self, name: str, parity: str, degree: Multidegree):
        # every assignment through ``__setattr__`` raises
        self.__dict__.update(name=name, parity=parity, degree=degree)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign {name!r}: a Generator is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: a Generator is immutable")

    def _fields(self):
        return self.name, self.parity, self.degree

    def __eq__(self, other):
        if type(other) is not Generator:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        return (f"Generator(name={self.name!r}, parity={self.parity!r}, "
                f"degree={self.degree!r})")

    def q_degree(self) -> int:
        return self.degree._e("q")


class GradedPresentation:
    """Generators of a supercommutative algebra plus an optional relation ideal.

    ``relations`` are polynomials in the even generator names;
    ``form_relations`` are linear in the odd names with even-polynomial
    coefficients.  Generator names must be distinct: a repeated name raises
    ``ValueError`` naming it, since :meth:`generator` and
    :meth:`monomial_degree` look generators up by name.
    """

    def __init__(self, generators: list, relations: list | None = None,
                 form_relations: list | None = None):
        repeated = sorted(name for name, k in Counter(g.name for g in generators).items()
                          if k > 1)
        if repeated:
            raise ValueError(f"repeated generator names: {', '.join(repeated)}")
        self.generators = generators
        self.relations = [] if relations is None else relations
        self.form_relations = [] if form_relations is None else form_relations
        self._weights = {}  # grading variable -> its weight per exponent slot

    def evens(self):
        return [g for g in self.generators if g.parity == EVEN]

    def odds(self):
        return [g for g in self.generators if g.parity == ODD]

    def generator(self, name) -> Generator:
        for g in self.generators:
            if g.name == name:
                return g
        raise KeyError(name)

    def monomial_degree(self, exps, odds=()) -> Multidegree:
        """Grading of the monomial ``prod(name**e) * prod(odds)``.

        ``exps`` maps generator names to exponents (a ``Multidegree`` in the
        generator variables works too), and ``odds`` lists odd generator
        names, each taken once.  Every grading of a monomial is summed here.
        """
        degs = {g.name: g.degree for g in self.generators}
        out = Multidegree()
        for v, e in exps.items():
            out = out + degs[v].scale(e)
        for v in odds:
            out = out + degs[v]
        return out

    def poly_degree(self, p: LaurentPoly, grading_var=None):
        """The common grading of a homogeneous polynomial; None if mixed.

        With ``grading_var`` it is that one grading, the sum of exponent
        times generator degree over each term, read as one dot product of
        the term's exponent slots with a weight per slot that the
        presentation builds once per variable, registering the generators'
        names (a variable outside them weighs 0); without, the full
        :meth:`monomial_degree`.
        """
        if grading_var:
            if grading_var not in self._weights:
                self._weights[grading_var] = _from_slots(
                    {_slot(g.name): g.degree._e(grading_var) for g in self.generators})
            weights = self._weights[grading_var]

            def degree(md):
                return sum(map(mul, md, weights))
        else:
            degree = self.monomial_degree
        seen = None
        for md in p.terms:
            d = degree(md)
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


class Potential:
    """A polynomial in even variables, optionally with its odd-linear partner."""

    def __init__(self, body: LaurentPoly, variables: tuple,
                 super_body: LaurentPoly | None = None):
        self.body = body
        self.variables = variables
        self.super_body = super_body

    def jacobi_images(self):
        """Koszul images ``xi_i -> dW/du_i`` for the matching odd names."""
        return {"xi" + v.lstrip("u"): self.body.derivative(v)
                for v in self.variables}

    def with_super(self) -> "Potential":
        """With ``super_body = sum_i dW/du_i * xi_i``, the total differential
        of the body, whose terms are the :meth:`jacobi_images`."""
        return Potential(self.body, self.variables,
                         *_total_differentials([self.body], self.variables, "xi"))


def _total_differentials(polys, variables, d):
    """``sum_v dp/dv * dv`` for each ``p`` of ``polys``, over ``variables``
    named ``u<i>``, ``dv`` named ``d + "<i>"``: a term ``c*m`` with ``v^e``
    in ``m`` gives ``c*e * (m/v) * dv``, and no two such terms meet."""
    moves = {v: Multidegree({v: -1, d + v.lstrip("u"): 1}) for v in variables}
    return [LaurentPoly._of({md + moves[v]: c * e for md, c in p.terms.items()
                             for v, e in md.items() if v in moves}) for p in polys]


def poly_substitute(p: LaurentPoly, images: dict) -> LaurentPoly:
    """Full polynomial substitution; mapped variables need integer exponents >= 0."""
    out = LaurentPoly.zero()
    for md, c in p.terms.items():
        term = LaurentPoly.const(c)
        for v, e in md.items():
            if v in images:
                if e < 0:
                    raise ValueError(
                        f"cannot substitute into {v}^{e}: need a nonnegative integer")
                term = term * images[v] ** e
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

    One even and one odd generator per box, in the order of
    :meth:`Partition.cells`, graded by
    ``(a,q,tc)[u_x] = (0, 2*hook, 2*arm)`` and
    ``(a,q,tc)[xi_x] = (2, 2*content, 2*coarm+1)``.  For an R x S rectangle
    the fourth grading comes from the mirror rule ``tr(w) = tc(M(w))``:
    ``tr(u_ij) = 2j-2`` and ``tr(xi_ij) = 2j-1`` (box ``(i,j)`` = column i,
    row j), which makes ``Q(u) = 2`` and ``Q(xi) = 0``.
    """
    lam = lam if isinstance(lam, Partition) else Partition(lam)
    rect = lam.is_rectangle()
    gens = []
    for k, cell in enumerate(lam.cells(), start=1):
        row, col = cell
        tag, tr_u, tr_xi = (f"{col}{row}", 2 * row - 2, 2 * row - 1) if rect else (k, 0, 0)
        gens.append(Generator(
            f"u{tag}", EVEN,
            Multidegree(q=2 * lam.hook(cell), tc=2 * lam.arm(cell), tr=tr_u)))
        gens.append(Generator(
            f"xi{tag}", ODD,
            Multidegree(a=2, q=2 * lam.content(cell), tc=2 * lam.coarm(cell) + 1,
                        tr=tr_xi)))
    return GradedPresentation(gens)


def aqt_projection(series: RationalSeries) -> RationalSeries:
    """``series`` in ``(a, q, t)``, with ``t`` the column grading ``tc``:
    ``tr`` is forgotten, and the numerator keeps every other variable."""
    return RationalSeries(series.numerator.regrade({"t": {"tc": 1}, "tc": {}, "tr": {}}),
                          [Multidegree(a=md._e("a"), q=md._e("q"), t=md._e("tc"))
                           for md in series.denominators],
                          series.var, series.order)


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

    Layer ``n = 1..p`` (``2..p`` in the reduced model) is the ``R x S``
    unknot model, :func:`unknot_model` of ``[S] * R``, with each generator
    renamed ``{name}n{n}`` and shifted by
    ``(q, tc, tr) = (2(n-1)S, 2(n-1)S, 2(n-1)R)``.  The shift raises the
    auxiliary grading ``Q`` (:func:`knothom.fixtures.to_tilde`) by
    ``2(n - 1)``, so ``Q[u^(n)] = 2n`` and ``Q[xi^(n)] = 2n - 2``.
    """

    def __init__(self, R: int, S: int, p: int, reduced=True):
        if p < 2:
            raise UsageError("need p >= 2 for a torus knot")
        self.R, self.S, self.p, self.reduced = R, S, p, reduced
        self._layers = range(2 if reduced else 1, p + 1)
        unknot = unknot_model([S] * R).generators
        self.presentation = GradedPresentation([
            Generator(f"{g.name}n{n}", g.parity,
                      g.degree + Multidegree(q=2 * (n - 1) * S, tc=2 * (n - 1) * S,
                                             tr=2 * (n - 1) * R))
            for n in self._layers for g in unknot])

    def q_aux(self, name) -> int:
        """The auxiliary grading ``Q = (q + tr - tc)/R`` of a generator."""
        return to_tilde(LaurentPoly.monomial(1, self.presentation.generator(name).degree),
                        self.R)._exponents("Q")[0]

    def lefschetz_generator(self) -> str:
        """Multiplication by this generator realizes the self-symmetry flip."""
        return f"u{self.S}1n2"

    def mirror_map(self):
        """Generator bijection onto the ``S x R`` model: :func:`unknot_mirror_map`
        on each layer."""
        return {f"{src}n{n}": f"{dst}n{n}" for n in self._layers
                for src, dst in unknot_mirror_map(self.R, self.S).items()}

    def colored_images(self, kind, param):
        """Images of the odd generators under one colored differential.

        ``kind`` is one of ``"+row" | "+col" | "-row" | "-col"``; the
        parameter is the count of kept rows / columns.  Generators not
        listed map to zero.
        """
        R, S = self.R, self.S
        out = {}
        if kind == "+row":
            k = param
            for n in self._layers:
                for i in range(1, S + 1):
                    for j in range(k + 1, R + 1):
                        out[f"xi{i}{j}n{n}"] = LaurentPoly.var(
                            f"u{S + 1 - i}{j - k}n{n}")
        elif kind == "+col":
            l = param
            for n in self._layers:
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


def _register_scheme_family(p: int, r: int):
    """Slots for ``u1..u_pr`` and then ``du1..du_pr``, in index order.

    Reduced schemes, unreduced ones and potentials name overlapping parts of
    this family; registering all of it first keeps ``u1`` in a low slot
    after any sequence of them.
    """
    register_variables([f"u{i}" for i in range(1, p * r + 1)]
                       + [f"du{i}" for i in range(1, p * r + 1)])


def scheme_relations(p: int, q: int, r: int, reduced=True):
    """Defining relations of the torus-knot quotient scheme.

    Coefficients of ``z^(qr+1) .. z^((p+q)r)`` in
    ``(1 + sum u_i z^i)**(q/p)``; the unreduced scheme uses ``u_1..u_pr``,
    the reduced one ``u_(r+1)..u_pr``.  Zero coefficients are dropped; each
    relation is homogeneous for ``q-degree(u_i) = 2i``.  They are
    :func:`_unit_coefficients` of ``q/p``.
    """
    if gcd(p, q) != 1:
        raise UsageError(f"({p},{q}) not coprime")
    _register_scheme_family(p, r)
    return [rel for rel in _unit_coefficients(range(r + 1 if reduced else 1, r * p + 1),
                                              Fraction(q, p), q * r + 1, (p + q) * r)
            if rel.terms]


def _unit_coefficients(indices, exponent, first, top) -> list:
    """The coefficients of ``z^first .. z^top`` in ``U**exponent``, or in
    ``ln(U)`` when ``exponent`` is ``None``, for ``U = 1 + sum u_i z^i``
    over ``indices``.

    The kernel's series recurrence, :func:`knothom.laurent._series_terms`,
    on ``f_k = u_k`` gives them in ``int`` as ``n! * den**n * h_n``, sums
    of monomial shifts, and only these are divided; no truncated series
    in ``z`` is built.
    """
    f = {k: {Multidegree({f"u{k}": 1}): 1} for k in indices}
    H, den = _series_terms(f, top, exponent), 1 if exponent is None else exponent.denominator
    return [LaurentPoly._of({md: Fraction(v, factorial(n) * den ** n) for md, v in H[n].items()})
            for n in range(first, top + 1)]


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
        form_rels = _total_differentials(rels, [g.name for g in gens], "du")
        gens += [Generator(f"du{i}", ODD, _scheme_degree_odd(i, r)) for i in indices]
    pres = GradedPresentation(gens, rels, form_rels)
    for rel in rels:
        if pres.poly_degree(rel, "q") is None:
            raise ArithmeticError("scheme relation is not q-homogeneous")
    return pres


# -- exact linear algebra -----------------------------------------------------------


def _row_reduce(rows, columns, zeros=None, basis=None):
    """Fraction-free Gaussian elimination; returns (rank, pivot column set).

    Columns are ``int`` keys whose integer order is the elimination order
    (:class:`_KeySpace` gives the key layout), and ``columns`` holds
    every column of the block.  Pivots are taken at the smallest key,
    ``min(row)``, so the pivot set depends only on the row space and that
    order.  Rows map keys to non-zero ``int`` values, may come from a
    generator and are never changed; a row touching a key outside
    ``columns`` raises :class:`ArithmeticError`, and no row is read after
    the rank reaches ``len(columns)``.  A row is reduced by
    ``r <- (b/g)*r - (a/g)*basis_row``, ``a`` and ``b`` the two entries in
    the pivot column and ``g = gcd(a, b)``; basis rows are stored primitive
    with a positive pivot entry, so ``b/g`` is never ``-1``.  If ``zeros``
    is a list, the read position (from 0) of each row that reduced to zero,
    an empty row included, is appended to it: such a row lies in the span
    of the rows read before it.

    ``basis`` is a starting basis, extended in place: each pivot key maps to
    ``(pivot entry, rest of the row)``, a primitive row with a positive
    entry at its least key.  The pivots are those of reading the rows it
    came from first; ``zeros`` indexes ``rows`` alone, and no row is read
    if ``basis`` already covers ``columns``.
    """
    full = len(columns)
    basis = {} if basis is None else basis
    for n, row in enumerate(rows if len(basis) < full else ()):
        if not row.keys() <= columns:
            raise ArithmeticError(
                f"row touches columns {sorted(row.keys() - columns)} outside the block")
        r = dict(row)
        while r:
            p = min(r)
            pivot = basis.get(p)
            if pivot is None:
                g = gcd(*r.values())
                if r[p] < 0:
                    g = -g
                if g != 1:
                    r = {c: v // g for c, v in r.items()}
                basis[p] = (r.pop(p), r)
                break
            _, r = _eliminate(r, r.pop(p), pivot)
        else:
            if zeros is not None:
                zeros.append(n)
        if len(basis) == full:
            break
    return len(basis), set(basis)


def _eliminate(r, a, pivot):
    """``(s, s*r - t*row)``, ``g = gcd(a, b)``, ``s = b/g``, ``t = a/g``, for the
    basis row ``pivot = (b, rest)`` and ``a`` popped from ``r`` at its pivot."""
    b, rest = pivot
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
    return s, r


def _back_substitute(basis):
    """Reduce a basis of :func:`_row_reduce` in place, largest pivot first
    and fraction-free, so that no row has an entry in another's pivot column;
    span, pivots, primitive rows and positive pivot entries are kept."""
    for p in sorted(basis, reverse=True):
        b, r = basis[p]
        for c in r.keys() & basis.keys():
            s, r = _eliminate(r, r.pop(c), basis[c])
            b *= s
        g = gcd(b, *r.values())
        basis[p] = (b // g, {k: v // g for k, v in r.items()}) if g != 1 else (b, r)


class _KeySpace:
    """Packed keys of the monomials of a presentation up to q-degree ``reach``.

    A key is one non-negative ``int`` whose integer order is the elimination
    order: monomials heavy in everything but the cheapest even generator go
    first, so the survivors of an elimination are the natural low monomials,
    and ties eliminate the most expensive generators first.  The key is a
    mixed-radix numeral with these digits, the most significant first: the
    cheapest even generator's exponent; ``top_n - e_n`` in radix
    ``top_n + 1`` for each other even ``n`` by descending q-degree (ties by
    name), where ``top_n`` bounds ``e_n`` in every monomial up to ``reach``,
    beside odd factors of negative q-degree too; the complement of the odd
    factors' bitmask, the first odd name highest.  In a block of one q-degree
    and one count of odd factors, the cheapest exponent fixes the weight of
    the rest, a larger exponent makes a smaller digit, of two odd subsets the
    one first in name order holds the highest bit where they differ, and no
    digit leaves its radix.  The key is affine in the exponents: multiplying
    by an even monomial adds its packed offset (by ``weight``), and taking
    an odd factor away adds its bit.  So a row of ``relation * u^e * du_S``,
    or the image of a monomial under a differential, is one dict of ``int``
    sums, a block is one set, and only the keys a caller keeps are decoded.
    A decoded monomial also gets its grading, the presentation's
    :meth:`~GradedPresentation.monomial_degree` packed in one ``int`` as
    ``sum((d_i + radix/2) * radix**i)`` over the ``width`` exponent slots
    ``d_i`` of that ``Multidegree``: ``radix`` exceeds twice any ``|d_i|``
    up to ``reach``, so each digit stays in its radix.
    """

    def __init__(self, pres: GradedPresentation, reach: int):
        even_deg = {g.name: g.q_degree() for g in pres.evens()}
        odd_deg = {g.name: g.q_degree() for g in pres.odds()}
        if any(d <= 0 for d in even_deg.values()):
            raise ValueError("even generators need positive q-degrees")
        self.odd_names = sorted(odd_deg)
        self.low = sum(min(d, 0) for d in odd_deg.values())  # least monomial q-degree
        by_desc_degree = sorted(even_deg, key=lambda n: (-even_deg[n], n))
        self.cheapest = min(even_deg, key=even_deg.get, default=None)
        n_odd = len(self.odd_names)
        self.odd_bit = {o: 1 << (n_odd - 1 - i) for i, o in enumerate(self.odd_names)}
        self.odd_field = (1 << n_odd) - 1
        # each even generator's largest exponent up to ``reach``; an odd one's is 1
        tops = {n: max(reach - self.low, 0) // d for n, d in even_deg.items()}
        degrees = {g.name: g.degree for g in pres.generators}
        self.radix = 2 << sum(tops.get(n, 1) * max(map(abs, d), default=0)
                              for n, d in degrees.items()).bit_length()
        self.width = max(map(len, degrees.values()), default=0)
        self.grading = {n: sum(e * self.radix ** i for i, e in enumerate(d))
                        for n, d in degrees.items()}
        bias = self.radix // 2 * (self.radix ** self.width - 1) // (self.radix - 1)
        # (name, radix, top, packed grading) of each digit but the leading
        # one, the least first; the key of 1 has each digit at its top
        self.places, self.weight, self.origin = [], {}, self.odd_field
        unit = self.odd_field + 1
        for n in reversed(by_desc_degree):
            if n != self.cheapest:
                self.places.append((n, tops[n] + 1, tops[n], self.grading[n]))
                self.weight[n], self.origin = -unit, self.origin + tops[n] * unit
                unit *= tops[n] + 1
        if self.cheapest is not None:
            self.weight[self.cheapest] = unit
        subsets = [list(combinations(self.odd_names, k)) for k in range(n_odd + 1)]
        # mask -> (odd name tuple, packed grading with the bias) of each odd subset
        self.odd_monomials = {sum(self.odd_bit[o] for o in odds):
                              (odds, bias + sum(self.grading[o] for o in odds))
                              for size in subsets for odds in size}
        # per odd count k: (bitmask, q-degree) of each odd subset of size k
        self.odd_subsets = [[(sum(self.odd_bit[o] for o in odds), sum(odd_deg[o] for o in odds))
                             for odds in size] for size in subsets]
        evens = [(even_deg[n], self.weight[n]) for n in by_desc_degree]

        @cache
        def even_offsets(degree, idx=0):
            """Key offsets of the monomials in ``by_desc_degree[idx:]`` of q-degree ``degree``."""
            if idx == len(evens):
                return [0] if degree == 0 else []
            d, w = evens[idx]
            return [e * w + rest for e in range(degree // d, -1, -1)
                    for rest in even_offsets(degree - e * d, idx + 1)]

        self.even_offsets = even_offsets

    def mask(self, key):
        """The bitmask of the odd factors of ``key``."""
        return self.odd_field ^ (key & self.odd_field)

    @staticmethod
    def sign(mask, bit):
        """``-1`` if the odd factor ``bit`` moves past an odd number of the
        factors in ``mask`` before it in name order (the higher bits), else ``1``."""
        return -1 if (mask & -(bit << 1)).bit_count() & 1 else 1

    def block(self, degree, k):
        """The set of keys of q-degree ``degree`` with ``k`` odd factors."""
        return {self.origin - mask + offset for mask, od in self.odd_subsets[k]
                for offset in self.even_offsets(degree - od)}

    def decode(self, key):
        """``(even exponent dict, odd name tuple)`` of a key."""
        return self.monomial(key)[:2]

    def monomial(self, key):
        """``(even exponent dict, odd name tuple, packed grading)`` of a key."""
        rest, field = divmod(key, self.odd_field + 1)
        odds, grading = self.odd_monomials[self.odd_field ^ field]
        exps = {}
        for n, radix, top, g in self.places:
            rest, digit = divmod(rest, radix)
            if digit != top:
                exps[n] = e = top - digit
                grading += e * g
        if rest:
            exps[self.cheapest] = rest
            grading += rest * self.grading[self.cheapest]
        return exps, odds, grading

    def terms(self, poly, n_odd):
        """``(key offset, odd bit or 0, int coefficient)`` per term of ``poly``.

        The coefficients are scaled to coprime integers, which leaves every
        span of multiples of ``poly`` unchanged; each term needs ``n_odd``
        factors among the odd names and non-negative even exponents.  The key
        offset is the term's even part packed by ``weight`` less its odd bit,
        so distinct terms give distinct keys and no two are summed.
        """
        out = []
        for md, c in _primitive(poly.terms).items():
            items = md.items()
            odd = [self.odd_bit[v] for v, _ in items if v in self.odd_bit]
            if len(odd) != n_odd:
                raise ArithmeticError(f"terms need {n_odd} odd factors")
            if min(md, default=0) < 0:
                raise ArithmeticError("terms need non-negative exponents")
            bit = odd[0] if odd else 0
            out.append((sum(e * self.weight[v] for v, e in items if v not in self.odd_bit)
                        - bit, bit, c))
        return out


class MacaulayBasis:
    """Monomial basis of an Artinian quotient with representative gradings.

    ``elements`` lists each basis monomial as ``(even exponent dict, odd
    name tuple)``, and ``gradings`` the grading of each, the
    presentation's :meth:`~GradedPresentation.monomial_degree`, packed in
    one ``int`` as ``sum((d_i + radix/2) * radix**i)`` over its ``width``
    exponent slots ``d_i``.  :meth:`poincare` counts these ints and unpacks
    each distinct one once, in the requested variables only, and
    :meth:`degrees` unpacks each in full.
    """

    def __init__(self, presentation: GradedPresentation, elements: list,
                 top_degree: int, gradings: list, radix: int, width: int):
        self.presentation = presentation
        self.elements = elements
        self.top_degree = top_degree
        self.gradings, self.radix, self.width = gradings, radix, width

    def dimension(self) -> int:
        return len(self.elements)

    def _degree(self, packed, slots):
        """The ``Multidegree`` of one packed grading, read in ``slots`` only."""
        half = self.radix >> 1
        return _from_slots({i: packed // self.radix ** i % self.radix - half
                            for i in slots if i < self.width})

    def degrees(self):
        return [self._degree(g, range(self.width)) for g in self.gradings]

    def poincare(self, variables=("a", "q", "tr")) -> LaurentPoly:
        slots, counts = _slots(variables), Counter()
        for packed, n in Counter(self.gradings).items():
            counts[self._degree(packed, slots)] += n
        return LaurentPoly._wrap(counts)

    def monomial_names(self):
        names = []
        for exps, odds in self.elements:
            parts = [f"{n}^{e}" if e > 1 else n
                     for n, e in sorted(exps.items())]
            parts += odds
            names.append("*".join(parts) if parts else "1")
        return names


def _candidates(counts):
    """The keys of ``counts`` (key -> step divisors whose quotient is not
    yet standard) with none left: a block's candidates."""
    return set(compress(counts, map(not_, counts.values())))


class DegreeCeilingError(ArithmeticError):
    """The quotient did not close below the caller's degree ceiling."""


def macaulay_basis(pres: GradedPresentation, ceiling=200) -> MacaulayBasis:
    """Monomial basis of the quotient by degreewise exact elimination.

    The presentation decides the forms: its odd generators take part, each
    at most once per monomial, and its form relations are linear in them.
    Processes one q-degree, from the least of any monomial (below 0 beside
    an odd generator of negative q-degree), and within it one count of odd
    factors, at a time: the span of ``relation * monomial`` there is row-reduced over the
    integers and the non-pivot monomials survive into the basis.  Rows are
    built lazily, and none after the span covers the block.  Terminates once
    the quotient vanishes on a window of consecutive positive degrees as
    wide as the largest generator degree, odd ones included (it is then
    zero forever); raises :class:`DegreeCeilingError` if the ceiling is hit
    first.  Columns are the keys of :class:`_KeySpace` up to the ceiling, in
    their elimination order.

    A block of positive q-degree is eliminated only if it has a candidate:
    a monomial ``c`` such that ``c/g`` is standard for every step generator
    ``g`` dividing ``c``.  The steps are the generators whose quotient block
    comes earlier: every even one, and each odd one of q-degree >= 0 (its
    quotient has one odd factor less, so q-degree 0 is earlier too).  Each
    survivor ``s`` counts off one unmet step divisor of each ``s*g``; ``c``
    is a candidate when none is left.  This is exact: a block's pivots are
    the least keys of the ideal's elements there, and the key is affine, so
    the least key of ``g*f`` is ``g`` times that of ``f`` whenever the
    product is not zero; a monomial with a non-standard quotient is a pivot.
    Every monomial of positive q-degree has a step divisor, and the premise
    is checked: a survivor that is not a candidate raises
    :class:`ArithmeticError`.

    No row is built that is a step generator's multiple of a row that
    reduced to zero, or of one not built (the syzygy criterion of F5).
    Such a row is recorded by its template and the key offset of its even
    monomial.  This keeps every pivot:

    - a block's rows are read in template order, relation order first and
      then the odd subsets in lexicographic name order, and a template's
      rows in ``even_offsets`` order, descending lexicographic in the
      exponents; multiplying by an even monomial keeps these orders, and
      so does multiplying by an odd step ``du_j``, which takes the row of
      a relation times ``du_S`` to plus or minus the row of the same
      relation and even monomial times ``du_(S+j)`` (to 0 if ``j`` is in
      ``S``): inserting ``j`` into two odd subsets keeps their
      lexicographic order;
    - the starting basis of a form block (below) comes first, and a seed
      of subset ``S`` times ``du_j`` is a seed of ``S+j``, whose q-degree
      is ``od(S) + deg du_j >= 0``;
    - a row that reduces to zero lies in the span of the rows read before
      it in its block, so its product with a step generator ``g`` lies in
      the span of the rows before that product in the block of degree
      ``+ deg g``, which comes later;
    - by induction over the read order, a row not built lies in the span
      of the rows built before it, so no block's span changes, and the
      pivots, the survivors and the candidate check are as if every row
      were built.

    A multiple is recorded only up to the ceiling, the key space's
    ``reach``: beyond it a digit of the key can leave its radix, and the
    offset then names a different monomial.

    A block with odd factors builds no row of an even relation times an odd
    subset ``S`` of q-degree ``od >= 0``, but starts from the basis of bottom
    block ``(degree - od, 0)`` times ``du_S``, reduced by
    :func:`_back_substitute` (all of it, if that block was skipped).  This
    also keeps every pivot:

    - those rows span the sum over ``S`` of the ideal's part in the bottom
      block times ``du_S``, which the starting basis spans;
    - in read order all of them came before every form relation's row;
    - so each form row reduces to zero, or not, as before, and the skipped
      multiples, the pivots, the survivors and the candidate check are
      unchanged.  A subset of q-degree below 0 keeps its rows: its bottom
      block comes later.

    The bookkeeping runs once per block or per basis monomial: a block
    fetches each step's target map once, and a survivor is decoded once,
    with its packed grading (:class:`MacaulayBasis`).
    """
    space = _KeySpace(pres, ceiling)
    # (key shift, q-degree, odd count shift, name) of each step generator
    steps = ([(space.weight[g.name], g.q_degree(), 0, g.name) for g in pres.evens()]
             + [(-space.odd_bit[g.name], g.q_degree(), 1, g.name) for g in pres.odds()
                if g.q_degree() >= 0])
    step_bits = -sum(shift for shift, _, dk, _ in steps if dk)
    # per odd count k: (q-degree, key of du_S, signed packed terms, the even
    # key offsets of its rows not to build, (that set of the template of
    # S+j, deg du_j) per odd step j) of each relation times each odd subset
    # S; a form hitting a factor of S vanishes, and one moved past an odd
    # number of the factors before it changes sign.  A zero relation spans
    # nothing.  An even relation times a non-empty S of q-degree >= 0 is
    # left to seeds.
    templates = [[] for _ in space.odd_subsets]
    for rels, n_odd in ((pres.relations, 0), (pres.form_relations, 1)):
        for rel in rels:
            if rel.is_zero():
                continue
            d = pres.poly_degree(rel, "q")
            if d is None:
                raise ArithmeticError("inhomogeneous relation")
            terms = space.terms(rel, n_odd)
            skips = {}  # mask -> the skip set of its template, larger masks first
            for k in reversed(range(n_odd, len(templates))):
                for mask, od in space.odd_subsets[k - n_odd]:
                    if n_odd or not mask or od < 0:
                        skips[mask] = set()
                        templates[k].append((
                            d + od, space.origin - mask,
                            [(t, -c if (mask & -(bit << 1)).bit_count() & 1 else c)
                             for t, bit, c in terms if not bit & mask], skips[mask],
                            [(skips[mask - shift], dj) for shift, dj, dk, _ in steps
                             if dk and mask - shift in skips and not mask & -shift]))
    window = max((g.q_degree() for g in pres.generators), default=0)
    even_offsets = space.even_offsets

    def skip_multiples(template, offset, degree):
        """Mark the multiples of the row at ``offset`` of ``template`` by
        each step generator, up to the ceiling, as not to build."""
        *_, skip, odd = template
        skip.update([offset + w for w, d, dk, _ in steps if not dk and degree + d <= ceiling])
        for target, d in odd:
            if degree + d <= ceiling:
                target.add(offset)

    def rows(degree, k, read):
        """The rows of block ``(degree, k)`` to build, in read order; ``read``
        gets the template and the offset of each."""
        for template in templates[k]:
            dg, odd_key, terms, skip, _ = template
            for offset in even_offsets(degree - dg):
                if offset in skip:
                    skip.remove(offset)
                    skip_multiples(template, offset, degree)
                    continue
                read.append((template, offset))
                base = odd_key + offset
                yield {base + t: c for t, c in terms}

    bottom = {}  # degree -> basis of block (degree, 0); None if all in the ideal

    def seeds(degree, k):
        """The basis of block ``(degree - od, 0)`` times ``du_S`` for each odd
        subset ``S`` of size ``k`` and q-degree ``od >= 0``, keys shifted."""
        basis = {}
        for mask, od in space.odd_subsets[k]:
            below = bottom.get(degree - od, {}) if od >= 0 else {}
            if below is None:
                below = dict.fromkeys(space.block(degree - od, 0), (1, {}))
            for p, (b, rest) in below.items():
                basis[p - mask] = b, rest and {c - mask: v for c, v in rest.items()}
        return basis

    elements, gradings = [], []
    unmet = {}  # (degree, k) -> {key: step divisors whose quotient is not yet standard}
    zero_run = 0
    degree = space.low
    while degree <= ceiling:
        dim_here = 0
        for k in range(len(templates)):
            if degree > 0:
                counts = unmet.pop((degree, k), None)
                candidates = _candidates(counts) if counts else ()
                if not candidates:
                    if not k:
                        bottom[degree] = None
                    continue
            columns = space.block(degree, k)
            if not columns:
                continue
            read, zeros, basis = [], [], seeds(degree, k) if k else {}
            _, pivots = _row_reduce(rows(degree, k, read), columns, zeros, basis)
            if not k and space.odd_names:  # only form blocks read it
                _back_substitute(basis)
                bottom[degree] = basis
            for n in zeros:
                skip_multiples(*read[n], degree)
            survivors = sorted(columns - pivots)
            if degree > 0 and not candidates.issuperset(survivors):
                raise ArithmeticError(
                    f"a survivor of block ({degree}, {k}) has a non-standard quotient")
            dim_here += len(survivors)
            # each step's target map, fetched once per block
            targets = [(shift, unmet.setdefault((degree + d, k + dk), {}), name)
                       for shift, d, dk, name in steps if survivors]
            for c in survivors:
                exps, odds, grading = space.monomial(c)
                elements.append((exps, odds))
                gradings.append(grading)
                # c's step divisors; c*g has one more unless g divides c
                n = len(exps) + (step_bits & ~c).bit_count()
                for shift, target, name in targets:
                    if name not in odds:
                        target[c + shift] = target.get(c + shift, n + (name not in exps)) - 1
        if dim_here == 0 and degree > 0:
            zero_run += 1
            if zero_run >= window + 1:
                return MacaulayBasis(pres, elements, degree, gradings, space.radix,
                                     space.width)
        else:
            zero_run = 0
        degree += 1
    raise DegreeCeilingError(f"degree ceiling {ceiling} exceeded")


# -- potentials ---------------------------------------------------------------------


def potential_antisym(k: int, N: int) -> Potential:
    """Antisymmetric-color potential: the ``z^(N+1)`` coefficient of a log."""
    if not (N >= k >= 1):
        raise UsageError("need N >= k >= 1")
    return _unit_potential(k, None, N + 1)


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
        return sum(md._e(v) for v in w_vars)

    low = LaurentPoly({md: c for md, c in mixed.terms.items()
                       if w_order(md) <= 2})
    quad_part = LaurentPoly(
        {md: c for md, c in low.terms.items()
         if w_order(md) == 2 and all(md._e(v) == 0 for v in md.variables()
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
    _register_scheme_family(p, r)
    return _unit_potential(r * p, Fraction(q + p, p), (p + q) * r + 1).with_super()


def _unit_potential(n, exponent, order) -> Potential:
    """The potential in ``u_1 .. u_n`` that is the ``z^order`` coefficient
    of ``U**exponent``, or of ``ln(U)`` (:func:`_unit_coefficients`)."""
    return Potential(*_unit_coefficients(range(1, n + 1), exponent, order, order),
                     tuple(f"u{i}" for i in range(1, n + 1)))


# -- differential homology ----------------------------------------------------------


class HomologyDims:
    """Graded dimensions of a chain complex, valid through a q-cutoff."""

    def __init__(self, dims: dict, cutoff: int, differential_degree: Multidegree):
        self.dims = dims
        self.cutoff = cutoff
        self.differential_degree = differential_degree

    def poincare(self, qmax=None) -> LaurentPoly:
        qmax = self.cutoff if qmax is None else qmax
        return LaurentPoly({Multidegree(a=a, q=q): d
                            for (a, q), d in self.dims.items() if q <= qmax})


def _block_homology(pres, space, row, delta: Multidegree, cutoff: int):
    """Kernel-modulo-image dimensions of a degree-``delta`` differential.

    ``row(key)`` is the image of the monomial ``key`` of ``space`` as a dict
    of keys to ``int`` values; ``space`` reaches ``cutoff + |delta_q|``.  The
    differential shifts the count of odd factors by a fixed amount, so it
    maps the monomials of one a-degree, q-degree and odd count into one such
    block, and the rank on an (a, q) block is the sum over its odd counts.
    """
    da, dq = delta._e("a"), delta._e("q")
    a_deg = {g.name: g.degree._e("a") for g in pres.generators}
    sizes, ranks = Counter(), Counter()
    for q in range(space.low, cutoff + max(0, -dq) + 1):
        for k in range(len(space.odd_subsets)):
            by_a = {}
            for key in space.block(q, k):
                exps, odds = space.decode(key)
                a = sum(a_deg[n] * e for n, e in exps.items()) + sum(a_deg[o] for o in odds)
                by_a.setdefault(a, []).append(row(key))
            for a, rows in by_a.items():
                sizes[a, q] += len(rows)
                ranks[a, q] += _row_reduce(rows, set().union(*rows))[0]
    dims = {}
    for (a, q), size in sizes.items():
        d = size - ranks[a, q] - ranks[a - da, q - dq]
        if q <= cutoff and d:
            dims[a, q] = d
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
    space = _KeySpace(pres, cutoff + abs(delta._e("q")))
    # a positive multiple of an image rescales its odd generator, which
    # keeps every rank, so each image is packed with coprime coefficients
    packed = [(space.odd_bit[xi], space.terms(img, 0))
              for xi, img in images.items() if not img.is_zero()]

    def row(key):
        mask = space.mask(key)
        out = {}
        for bit, terms in packed:
            if mask & bit:
                sign = space.sign(mask, bit)
                out.update({key + bit + t: sign * c for t, _, c in terms})
        return out

    return _block_homology(pres, space, row, delta, cutoff)


def universal_pair_homology(pres: GradedPresentation, x: str, y: str,
                            xi_x: str, xi_y: str, cutoff: int) -> HomologyDims:
    """Homology of the pair differential ``x^odd -> 2*x^(a-1)*y^(b+1)``, ``xi_x -> xi_y``.

    This is the universal column-removing differential on a two-generator
    block; its homology is the free algebra on ``x^2`` and ``xi_x xi_y``.
    On a monomial ``x^a * y^b * omega``, with ``omega`` its odd factors, the
    differential is ``d(x^a y^b) * omega + (-1)^a * x^a y^b * d(omega)``.
    The sign ``(-1)^a`` makes it square to zero: ``d(x^a y^b)`` is nonzero
    only for odd ``a`` and has ``x``-exponent ``a - 1``, so on
    ``x^a y^b * omega`` the two paths to ``x^(a-1) y^(b+1) * d(omega)``
    carry the signs ``(-1)^(a-1)`` and ``(-1)^a`` and cancel.  Without it,
    ``d(d(x*xi_x)) = 4*y*xi_y``.
    """
    delta = pres.generator(y).degree - pres.generator(x).degree
    if delta != pres.generator(xi_y).degree - pres.generator(xi_x).degree:
        raise ArithmeticError("pair generators are not aligned in degree")

    space = _KeySpace(pres, cutoff + abs(delta._e("q")))
    step = space.weight[y] - space.weight[x]
    bit_x, bit_y = space.odd_bit[xi_x], space.odd_bit[xi_y]

    def row(key):
        odd = space.decode(key)[0].get(x, 0) % 2
        out = {key + step: 2} if odd else {}
        mask = space.mask(key)
        if mask & bit_x and not mask & bit_y:
            out[key + bit_x - bit_y] = (-1) ** odd * space.sign(mask, bit_x)
        return out

    return _block_homology(pres, space, row, delta, cutoff)


def sl_differential_images(pres: GradedPresentation, n: int) -> dict:
    """Rank-``n`` Koszul images on a one-row unknot model.

    With even generators ``u_1..u_r`` (q-degrees ``2, 4, ..``) the image of
    ``xi_i`` is the complete degree-``(i+n-1)`` sum of ``n``-fold products
    ``u_(a_1)...u_(a_n)``; for ``n = 2`` this is
    ``xi_1 -> u_1^2, xi_2 -> 2 u_1 u_2, xi_3 -> u_2^2 + 2 u_1 u_3, ...``.
    """
    indices = sorted(g.q_degree() // 2 for g in pres.evens())
    space = _KeySpace(pres, 2 * (max(indices, default=0) + n - 1))
    out = {}
    odds = sorted(pres.odds(), key=Generator.q_degree)
    for pos, g in enumerate(odds):
        # u^exps with n factors, counted once per ordering of the factors
        monomials = (space.decode(key)[0]
                     for key in space.block(2 * (indices[pos] + n - 1), 0))
        out[g.name] = LaurentPoly({
            Multidegree(exps): factorial(n) // prod(map(factorial, exps.values()))
            for exps in monomials if sum(exps.values()) == n})
    return out
