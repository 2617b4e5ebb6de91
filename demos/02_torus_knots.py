"""Colored torus-knot invariants via the power-plethysm sum.

The (n, m) torus knot invariant is a weighted sum of unknot invariants over
the Schur expansion of the color in n-th power variables.  This demo
computes a few reduced invariants, exhibits the transpose/mirror relation,
the stable large-m limit, and the bilinear product identity for rectangles.
"""

from knothom import (
    LaurentPoly,
    Partition,
    hirota_check,
    match_up_to_monomial,
    plethysm_pn,
    stable_limit_check,
    torus_homfly,
)


def schur_sum(coeffs):
    """``{Partition([2]): 1, Partition([1, 1]): -1}`` as ``s[2] - s[1,1]``."""
    text = ""
    for mu, c in coeffs.items():
        term = f"s{mu}" if abs(c) == 1 else f"{abs(c)}*s{mu}"
        if text:
            text += f" {'-' if c < 0 else '+'} {term}"
        else:
            text = f"-{term}" if c < 0 else term
    return text or "0"


print("Schur expansion of the doubled fundamental color:")
print("  s[1](x^2) =", schur_sum(plethysm_pn([1], 2)))
print("  s[2](x^2) =", schur_sum(plethysm_pn([2], 2)))

print("\nreduced trefoil invariants (canonical form has P(a=q, q) = 1):")
for color in ([1], [2], [1, 1]):
    poly, report = torus_homfly(color, 2, 3)
    print(f"  color {Partition(color)}: {poly}")

print("\nrank-2 collapse of the fundamental trefoil (a -> q^2):")
p, _ = torus_homfly([1], 2, 3)
print(" ", p.substitute("a", LaurentPoly.var("q", 2)))

print("\nmirror/transpose relation P^color(a,q) ~ P^transpose(a,1/q):")
p2, _ = torus_homfly([2], 2, 3)
p11, _ = torus_homfly([1, 1], 2, 3)
flipped = p11.substitute("q", LaurentPoly.var("q", -1))
shift, sign = match_up_to_monomial(p2, flipped)
print(f"  S2 vs transposed L2: equal up to the monomial {shift!r} (sign {sign})")

print("\nstable limit: T(2,m) approaches the doubled-color unknot")
report = stable_limit_check([1], 2, [3, 5, 7], order=10)
for row in report["rows"]:
    print(f"  m = {row['m']}: agreement through q^{row['agreement_order']}")
print(f"  nondecreasing: {report['nondecreasing']}")

print("\nbilinear product identity for rectangle-colored unknots:")
for (R, S), ok in hirota_check(2, 2):
    print(f"  {R} x {S}: {'holds' if ok else 'fails'}")
