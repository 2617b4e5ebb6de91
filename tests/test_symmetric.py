from fractions import Fraction

import pytest

from knothom.partitions import Partition, partitions_of
from knothom.symmetric import (
    PLETHYSM_SIZE_CAP,
    _beta_set,
    _mn_rec,
    _parts,
    plethysm_pn,
    zee,
)


def mn_character(lam, mu) -> int:
    """Irreducible symmetric-group character ``chi^lam(mu)``, read from the
    package's memoised border-strip table."""
    lam, mu = Partition(_parts(lam)), Partition(_parts(mu))
    if lam.size() != mu.size():
        raise ValueError(f"size mismatch: |{lam}| != |{mu}|")
    return _mn_rec(_beta_set(lam.parts), mu.parts)


def balanced_diagrams(S: int, R: int):
    """All diagrams with ``2R`` parts pairing to ``2S``, with their signs.

    A diagram ``mu`` of length ``2R`` (zeros allowed) is balanced when
    ``mu[i] + mu[2R+1-i] == 2S`` for the first ``R`` indices; its sign is
    ``(-1)**(mu[1]+...+mu[R])``.  These index the closed-form Schur expansion
    of ``s_(S^R)`` in doubled variables (Chen-Remmel).
    """
    results = []

    def rec(prefix, lo):
        if len(prefix) == R:
            if prefix[-1] < S:
                return
            tail = [2 * S - prefix[R - 1 - k] for k in range(R)]
            sign = (-1) ** sum(prefix)
            results.append((Partition(list(prefix) + tail), sign))
            return
        for part in range(lo, S - 1, -1):
            rec(prefix + [part], part)

    rec([], 2 * S)
    return results


def test_balanced_diagrams_small():
    assert balanced_diagrams(1, 1) == [
        (Partition([2]), 1),
        (Partition([1, 1]), -1),
    ]
    got = dict(balanced_diagrams(2, 1))
    assert got == {
        Partition([4]): 1,
        Partition([3, 1]): -1,
        Partition([2, 2]): 1,
    }


def test_balanced_diagram_count_is_subdiagram_count():
    for S in range(1, 4):
        for R in range(1, 4):
            # complement bijection: one balanced diagram per sub-diagram of
            # the S x R rectangle
            subcount = 0
            for n in range(S * R + 1):
                for parts in partitions_of(n):
                    if len(parts) <= R and all(p <= S for p in parts):
                        subcount += 1
            assert len(balanced_diagrams(S, R)) == subcount


def test_trivial_and_sign_characters():
    for n in range(1, 7):
        for mu in partitions_of(n):
            assert mn_character((n,), mu) == 1
    assert mn_character((1, 1), (2,)) == -1
    assert mn_character((2, 1), (1, 1, 1)) == 2  # dimension by hook lengths
    assert Partition([2, 1]).sym_dimension() == 2


def test_character_size_mismatch():
    with pytest.raises(ValueError):
        mn_character((2,), (3,))


def test_character_orthogonality():
    for n in range(1, 7):
        lams = [Partition(p) for p in partitions_of(n)]
        for lam in lams:
            for nu in lams:
                total = sum(
                    Fraction(
                        mn_character(lam, mu) * mn_character(nu, mu),
                        zee(mu),
                    )
                    for mu in partitions_of(n)
                )
                assert total == (1 if lam == nu else 0)


def test_plethysm_examples():
    assert plethysm_pn((1,), 2) == {Partition([2]): 1, Partition([1, 1]): -1}
    assert plethysm_pn((2,), 2) == {
        Partition([4]): 1, Partition([3, 1]): -1, Partition([2, 2]): 1}
    assert plethysm_pn((1,), 3) == {
        Partition([3]): 1, Partition([2, 1]): -1, Partition([1, 1, 1]): 1}


def test_plethysm_cap():
    with pytest.raises(ValueError):
        plethysm_pn((7,), 2)


def test_chen_remmel_matches_plethysm():
    """The Chen-Remmel closed form: ``s_(S^R)`` in doubled variables is the
    signed sum over the balanced diagrams."""
    assert dict(balanced_diagrams(1, 1)) == plethysm_pn((1,), 2)
    assert dict(balanced_diagrams(2, 1)) == plethysm_pn((2,), 2)
    for S in range(1, 4):
        for R in range(1, 4):
            if R * S > 6:
                continue
            rect = Partition([S] * R)
            assert dict(balanced_diagrams(S, R)) == plethysm_pn(rect, 2)


def test_balanced_sign_dimension_sum():
    # the signed dimension count forced by the doubled-variable expansion
    for S in range(1, 4):
        for R in range(1, 3):
            if R * S > 6:
                continue
            rect = Partition([S] * R)
            oracle = plethysm_pn(rect, 2)
            signed = sum(sign * mu.sym_dimension()
                         for mu, sign in balanced_diagrams(S, R))
            forced = sum(c * mu.sym_dimension()
                         for mu, c in oracle.items())
            assert signed == forced


def _complete(xs, degree) -> list:
    """``[h_0(xs), ..., h_degree(xs)]``, the complete homogeneous sums,
    from ``sum_r h_r t^r = prod_i 1 / (1 - x_i t)``."""
    h = [1] + [0] * degree
    for x in xs:
        for r in range(1, degree + 1):
            h[r] += x * h[r - 1]
    return h


def _det(rows) -> int:
    """Determinant of an integer matrix by fraction-free (Bareiss)
    elimination."""
    m = [list(row) for row in rows]
    sign, prev = 1, 1
    for k in range(len(m) - 1):
        pivot = next((i for i in range(k, len(m)) if m[i][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        for i in range(k + 1, len(m)):
            for j in range(k + 1, len(m)):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[-1][-1] if m else 1


def _schur_at(mu, xs) -> int:
    """``s_mu(xs)`` by the Jacobi-Trudi determinant ``det h_(mu_i - i + j)``."""
    h = _complete(xs, sum(mu))
    ell = len(mu)
    return _det([[h[mu[i] - i + j] if mu[i] - i + j >= 0 else 0
                  for j in range(ell)] for i in range(ell)])


#: every (lambda, n >= 2) under the plethysm cap
PLETHYSM_CASES = [(Partition(parts), n)
                  for n in range(2, PLETHYSM_SIZE_CAP + 1)
                  for size in range(1, PLETHYSM_SIZE_CAP // n + 1)
                  for parts in partitions_of(size)]


def test_plethysm_against_jacobi_trudi():
    """``sum_mu c_mu s_mu(x) = s_lam(x_1^n, ..., x_k^n)`` at two integer
    points with ``k = |lam|*n`` variables, enough that the Schur polynomials
    of degree ``k`` are linearly independent."""
    assert len(PLETHYSM_CASES) == 58
    for lam, n in PLETHYSM_CASES:
        k = lam.size() * n
        for xs in ([i + 1 for i in range(k)],
                   [(-1) ** i * (i + 2) for i in range(k)]):
            expansion = sum(c * _schur_at(mu.parts, xs)
                            for mu, c in plethysm_pn(lam, n).items())
            assert expansion == _schur_at(lam.parts, [x ** n for x in xs]), \
                (lam, n, xs)


def test_jacobi_trudi_helpers():
    assert _complete([1, 2], 2) == [1, 3, 7]
    assert _det([]) == 1 and _det([[0, 1], [1, 0]]) == -1
    # s_(2,1)(x, y, z) counts 8 semistandard tableaux at (1, 1, 1)
    assert _schur_at((2, 1), [1, 1, 1]) == 8
    assert _schur_at((1, 1), [2, 3]) == 6
