"""The lowest homological row: lattice paths, characters, recursions.

The a-minimal row of torus-knot homology is counted by lattice paths
strictly below the rectangle diagonal; its symmetric-color refinement is an
explicit q-binomial character, which for the trefoil satisfies an exact
three-term recursion in the color size.
"""

from knothom import (
    bottom_poincare,
    catalan_count,
    dyck_paths,
    h_plus,
    load_fixture,
    row_count,
    trefoil_recursion_check,
    vortex_character,
)

p, q = 3, 4
print(f"paths strictly below the {p} x {q} diagonal: {catalan_count(p, q)}")
for D in dyck_paths(p, q):
    print(f"  diagram {D}: size {D.size()}, slope statistic {h_plus(D, p, q)}")

print("\nrow counts vs the tabulated torus-knot homology:")
t34 = load_fixture("T3_4:1").poincare
for k in range(3):
    row = t34.coefficient_of("a", 6 + 2 * k)
    print(f"  row a^{6 + 2 * k}: fixture {row.dimension()}, "
          f"formula {row_count(p, q, k)}")

print("\ngraded bottom row for two path-tuples:")
print("  (2,3), r = 2:", bottom_poincare(2, 3, 2))

print("\nvortex character of two rank-2 vortices (the S^2 trefoil row):")
print(" ", vortex_character(1, 2))

print("\nthree-term recursion of the trefoil bottom rows:")
for m, ok, _ in trefoil_recursion_check(6):
    print(f"  m = {m}: {'holds' if ok else 'fails'}")
