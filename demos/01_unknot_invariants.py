"""Colored invariants of the unknot: three product formulas, one story.

The colored invariant of the unknot is a product over the boxes of the
coloring diagram.  This demo evaluates the hook-content product, its
(q,t)-refinement, and the positive-coefficient superpolynomial series, and
shows how they degenerate into one another.
"""

from knothom import (
    LaurentPoly,
    Partition,
    cell_stats,
    macdonald_dim,
    unknot_homfly,
    unknot_super,
)

lam = Partition([2, 1])
print(f"color {lam}: cells and statistics")
for cell in lam.cells():
    st = cell_stats(lam, cell)
    print(f"  cell {cell}: arm {st.arm}, leg {st.leg}, hook {st.hook}, "
          f"content {st.content}")

print("\nhook-content product (variables a, q; rank lives at a = q^N):")
print(" ", unknot_homfly(lam))

print("\nevaluation product with the extra t-grading:")
print(" ", macdonald_dim(lam))

# At q = t the evaluation product collapses onto the hook-content product
# (up to the monomial q^n_stat).
md = macdonald_dim(lam)
num = md.numerator.substitute("t", LaurentPoly.var("q"))
den = md.denominator().substitute("t", LaurentPoly.var("q"))
u = unknot_homfly(lam)
shift = LaurentPoly.var("q", lam.n_stat())
assert num * u.denominator() == shift * u.numerator * den
print(f"\nq = t degeneration checked (monomial shift q^{lam.n_stat()})")

print("\nsuperpolynomial series, expanded to q^8 (all coefficients positive):")
series = unknot_super(lam)
print(" ", series)
print("  =", series.expand(8))
