"""Quadruply-graded superpolynomials and their structural checks.

The packaged fixtures are generator tables of the conjectural homology,
graded by (a, q, tr, tc).  Replacing q by Q = (q + tr - tc)/R makes two
symmetries plain monomial substitutions, and every removal differential is
checked through a nonnegative witness division.
"""

from knothom import (
    LaurentPoly,
    check_delta_thin,
    check_differential,
    check_growth,
    check_mirror,
    check_self_symmetry,
    colored_differential,
    load_fixture,
)

s2 = load_fixture("3_1:S2")
print(f"trefoil S^2 homology: {s2.dimension} generators")
print("  P  =", s2.poincare)
print("  P~ =", s2.tilde())

print("\nself-symmetry of the regraded polynomial:",
      check_self_symmetry(s2.tilde(), s2.R, s2.S))

l2 = load_fixture("3_1:L2")
print("mirror relation against the transpose color:",
      check_mirror(s2.tilde(), l2.tilde(), s2.R, s2.S))

unc = load_fixture("3_1:1")
print("refined growth (one grading dropped, squared):",
      check_growth(s2.tilde(), unc.tilde(), 2, "tr"))

ok, deltas = check_delta_thin(s2.poincare, 2, s2.sigma)
print(f"delta-thin with delta = {deltas}: {ok}")

print("\nremoval differentials (nonnegative witness division):")
spec = colored_differential("+row", s2.R, s2.S, 0, s2.sigma)
ok, witness = check_differential(s2.poincare, LaurentPoly.one(), spec)
_, survivor = spec.regrade(LaurentPoly.one()).as_monomial()
print(f"  canceling {spec.name}: {ok}; survivor degree "
      f"a^{survivor.e('a')} q^{survivor.e('q')}")

spec = colored_differential("+col", s2.R, s2.S, 1, s2.sigma)
ok, _ = check_differential(s2.poincare, unc.poincare, spec)
print(f"  {spec.name} down to the uncolored homology: {ok}")

big = load_fixture("3_1:3x2")
print(f"\nthe (2,2,2)-colored trefoil has {big.dimension} generators "
      f"(= 3^6, exponential growth)")
spec = colored_differential("+row", 3, 2, 2, big.sigma)
ok, _ = check_differential(big.poincare,
                           load_fixture("3_1:2x2").poincare,
                           spec, project=("a", "q", "tc"))
print(f"  row removal {spec.name} lands on the (2,2) homology: {ok}")
