"""Torus-knot quotient schemes, their form bases, and potentials.

The reduced homology of a torus knot is modeled by differential forms on a
zero-dimensional quotient scheme cut out by fractional-power series
coefficients; the same relations arise as derivatives of a Landau-Ginzburg
potential.  Exact Macaulay matrices extract the monomial bases.
"""

from knothom import (
    LaurentPoly,
    koszul_homology,
    macaulay_basis,
    potential_antisym,
    scheme_presentation,
    scheme_relations,
    sl_differential_images,
    torus_potential,
    unknot_model,
)
from knothom.models import poly_substitute

print("defining relations of the reduced S^2 trefoil scheme:")
for rel in scheme_relations(2, 3, 2):
    print("  ", rel, "= 0")

mb = macaulay_basis(scheme_presentation(2, 3, 2))
print(f"\nform basis ({mb.dimension()} elements):")
print(" ", ", ".join(sorted(mb.monomial_names())))
print("Poincare polynomial (a, q, tr):", mb.poincare(("a", "q", "tr")))

print("\nexponential growth of the trefoil schemes:")
for r in (1, 2, 3):
    dim = macaulay_basis(scheme_presentation(2, 3, r)).dimension()
    print(f"  r = {r}: dimension {dim} = 3^{r}")

print("\nLandau-Ginzburg potential of the uncolored trefoil:")
W = torus_potential(2, 3, 1)
print("  W =", W.body)
print("  W_super =", W.super_body)
print("  at u1 = 0:", poly_substitute(W.body, {"u1": LaurentPoly.zero()}))

print("\nantisymmetric potentials and the square-splitting:")
w13, w23 = potential_antisym(1, 3).body, potential_antisym(2, 3).body
print("  W(1,3) =", w13)
print("  W(2,3) =", w23)
from knothom import parse_poly
assert w23 == -w13 - parse_poly("(u2 - u1^2)^2") / 2
print("  W(2,3) = -W(1,3) - (u2 - u1^2)^2 / 2  (checked)")

print("\nKoszul homology of the rank-2 differential on the two-box model:")
pres = unknot_model([2])
h = koszul_homology(pres, sl_differential_images(pres, 2), cutoff=16)
print("  graded dimensions (a, q):", sorted(h.dims.items()))
print("  (a polynomial tower: 1, u21, u11^k and the odd class mu1 u11^k)")
