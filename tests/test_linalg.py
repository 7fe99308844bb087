"""Exact integer linear algebra: Smith forms, lattices, subquotients."""

import doctest
import random
import time

from macoh import complexes, linalg
from macoh.linalg import (
    FieldOps,
    GroupMorphism,
    IntMatrix,
    LinalgError,
    PresentedGroup,
    SmithSolver,
    field_rank,
    homology_of_pair,
    is_prime,
    kernel_subgroup,
    merge_torsion,
    smith_normal_form,
)

import pytest

# Connecting map of the 5-cycle between its rank-5 cohomology layers,
# in the reference generator order; its Smith form is diag(1,1,1,1,0),
# so the map has rank 4 onto a direct summand.
PENTAGON_CONNECTING_MATRIX = [
    [0, 0, 1, -1, 0],
    [0, 0, 0, 1, -1],
    [-1, 0, 0, 0, 1],
    [1, -1, 0, 0, 0],
    [0, 1, -1, 0, 0],
]


def _det(mat):
    # fraction-free determinant, for unimodularity checks
    m = [row[:] for row in mat.rows]
    n = mat.nrows
    assert mat.ncols == n
    sign = 1
    denom = 1
    for col in range(n):
        pivot = None
        for i in range(col, n):
            if m[i][col]:
                pivot = i
                break
        if pivot is None:
            return 0
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            sign = -sign
        for i in range(col + 1, n):
            for j in range(col + 1, n):
                m[i][j] = (m[i][j] * m[col][col] - m[i][col] * m[col][j]) // denom
        denom = m[col][col]
    return sign * m[n - 1][n - 1]


def _random_matrix(rng, nrows, ncols, span=4):
    return IntMatrix([[rng.randint(-span, span) for _ in range(ncols)]
                      for _ in range(nrows)], ncols)


def test_doctests_pass():
    # the doctests of both modules that carry them: linalg and complexes
    for module in (linalg, complexes):
        results = doctest.testmod(module)
        assert results.attempted > 0, module.__name__
        assert results.failed == 0, module.__name__


def test_matmul_and_stacking():
    a = IntMatrix([[1, 2], [3, 4]])
    b = IntMatrix([[0, 1], [1, 0]])
    assert (a @ b).rows == [[2, 1], [4, 3]]
    assert a.hstack(b).shape == (2, 4)
    assert a.vstack(b).shape == (4, 2)
    assert a.transpose().rows == [[1, 3], [2, 4]]
    assert a.mulvec([1, 1]) == [3, 7]
    empty = IntMatrix.zeros(0, 3)
    assert (empty @ IntMatrix.identity(3)).shape == (0, 3)


def test_smith_of_diag_2_3_is_diag_1_6():
    dec = smith_normal_form(IntMatrix([[2, 0], [0, 3]]))
    assert dec.divisors == (1, 6)
    assert dec.S.rows[0][0] == 1 and dec.S.rows[1][1] == 6


def test_smith_of_pentagon_connecting_matrix():
    dec = smith_normal_form(IntMatrix(PENTAGON_CONNECTING_MATRIX))
    assert dec.divisors == (1, 1, 1, 1)
    assert dec.rank == 4


def test_smith_transform_identity_holds():
    rng = random.Random(20260814)
    for _ in range(60):
        m = rng.randint(0, 5)
        n = rng.randint(0, 5)
        a = _random_matrix(rng, m, n)
        dec = smith_normal_form(a)
        assert dec.U @ a @ dec.V == dec.S
        assert dec.U @ dec.U_inv == IntMatrix.identity(m)
        if n:
            assert abs(_det(dec.V)) == 1
        if m:
            assert abs(_det(dec.U)) == 1
        divisors = dec.divisors
        assert all(d > 0 for d in divisors)
        for d1, d2 in zip(divisors, divisors[1:]):
            assert d2 % d1 == 0
        # off-diagonal entries vanish
        for i in range(m):
            for j in range(n):
                if i != j:
                    assert dec.S.rows[i][j] == 0


def test_kernel_is_saturated_and_complete():
    rng = random.Random(7)
    for _ in range(40):
        a = _random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        ker = SmithSolver(a).kernel_basis()
        assert (a @ ker).is_zero()
        assert ker.ncols == a.ncols - smith_normal_form(a).rank
        if ker.ncols:
            # saturated: the basis extends to a basis of Z^n
            assert all(d == 1 for d in smith_normal_form(ker).divisors)


def test_solver_roundtrip_and_unsolvable():
    rng = random.Random(11)
    for _ in range(40):
        a = _random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        solver = SmithSolver(a)
        x = [rng.randint(-3, 3) for _ in range(a.ncols)]
        b = a.mulvec(x)
        got = solver.solve(b)
        assert got is not None
        assert a.mulvec(got) == b
    solver = SmithSolver(IntMatrix([[2]]))
    assert solver.solve([1]) is None
    assert solver.solve([4]) == [2]


def test_merge_torsion():
    assert merge_torsion([]) == ()
    assert merge_torsion([2, 3]) == (6,)
    assert merge_torsion([2, 2]) == (2, 2)
    assert merge_torsion([4, 6]) == (2, 12)
    assert merge_torsion([2, 4, 3]) == (2, 12)


def test_invariants_of_huge_orders_are_fast():
    p = 2 ** 61 - 1
    start = time.perf_counter()
    invariants = PresentedGroup((p, p, 6)).invariants()
    assert time.perf_counter() - start < 0.1
    assert invariants == (0, (p, 6 * p))


def test_presented_group_invariants():
    g = PresentedGroup((2, 3))
    assert g.invariants() == (0, (6,))
    free = PresentedGroup.free(3)
    assert free.invariants() == (3, ())
    diag = PresentedGroup((0, 4, 2))
    assert diag.invariants() == (1, (2, 4))
    assert diag.element_is_zero([0, 4, 0])
    assert not diag.element_is_zero([0, 1, 0])


def test_presentation_independence():
    # C6 from two sets of orders and from a det -6 relation matrix
    assert PresentedGroup((6,)).invariants() == (0, (6,))
    assert PresentedGroup((3, 2)).invariants() == (0, (6,))
    assert smith_normal_form(IntMatrix([[2, 1], [2, -2]])).divisors == (1, 6)


def test_homology_of_pair_z_times_two():
    # Z --x2--> Z --> 0 has homology C2 at the middle spot
    zed = PresentedGroup.free(1)
    trivial = PresentedGroup.free(0)
    f = GroupMorphism(zed, zed, IntMatrix([[2]]))
    g = GroupMorphism(zed, trivial, IntMatrix.zeros(0, 1))
    h = homology_of_pair(f, g)
    assert h.invariants() == (0, (2,))
    assert h.express([1]) == [1]
    assert h.express([2]) == [0]
    assert h.class_is_zero([4])
    assert not h.class_is_zero([3])


def test_homology_of_pair_with_torsion_middle():
    # B = Z + C4, g kills the free part mod 2, f hits twice the C4 part
    b = PresentedGroup((0, 4))
    c2 = PresentedGroup((2,))
    f = GroupMorphism(PresentedGroup.free(1), b, IntMatrix([[0], [2]]))
    g = GroupMorphism(b, c2, IntMatrix([[0, 1]]))
    h = homology_of_pair(f, g)
    assert h.invariants() == (1, ())
    assert not h.class_is_zero([1, 0])
    assert h.class_is_zero([0, 2])


def test_homology_of_pair_rejects_nonzero_composite():
    zed = PresentedGroup.free(1)
    f = GroupMorphism(zed, zed, IntMatrix([[1]]))
    g = GroupMorphism(zed, zed, IntMatrix([[1]]))
    with pytest.raises(LinalgError):
        homology_of_pair(f, g)


def test_kernel_subgroup():
    g = GroupMorphism(PresentedGroup.free(2), PresentedGroup.free(1),
                      IntMatrix([[1, 1]]))
    ker = kernel_subgroup(g)
    assert ker.invariants() == (1, ())
    col = ker.gens.column(0)
    assert sorted(col) == [-1, 1]
    assert ker.class_is_zero([0, 0])
    assert ker.express([2, -2]) in ([2], [-2])


def test_generator_lifting_random_complexes():
    # homology of random pairs built as (im f) inside (ker g) by construction:
    # take g random, f = kernel basis scaled by random diagonal
    rng = random.Random(99)
    for _ in range(25):
        n = rng.randint(1, 5)
        g_mat = _random_matrix(rng, rng.randint(0, 4), n)
        mid = PresentedGroup.free(n)
        g = GroupMorphism(mid, PresentedGroup.free(g_mat.nrows), g_mat)
        ker = SmithSolver(g_mat).kernel_basis()
        scales = [rng.choice([1, 1, 2, 3]) for _ in range(ker.ncols)]
        f_mat = IntMatrix.from_columns(
            [[s * x for x in ker.column(j)] for j, s in enumerate(scales)], n)
        f = GroupMorphism(PresentedGroup.free(f_mat.ncols), mid, f_mat)
        h = homology_of_pair(f, g)
        expected_torsion = merge_torsion([s for s in scales if s > 1])
        assert h.invariants() == (0, expected_torsion)
        # each stored generator expresses to a unit coordinate vector
        for j in range(h.n_gens):
            coords = h.express(h.gens.column(j))
            expected = [0] * h.n_gens
            d = h.orders[j]
            expected[j] = 1 % d if d else 1
            assert coords == expected


def test_field_rank_q_vs_fp():
    a = IntMatrix([[2, 4], [1, 2]])
    assert field_rank(a, "Q") == 1
    assert field_rank(a, 2) == 1
    b = IntMatrix([[2]])
    assert field_rank(b, "Q") == 1
    assert field_rank(b, 2) == 0
    assert field_rank(b, 3) == 1
    with pytest.raises(LinalgError):
        field_rank(b, 4)


def test_is_prime_is_exact_and_fast_on_large_inputs():
    small = [n for n in range(2, 2000) if all(n % d for d in range(2, int(n ** 0.5) + 1))]
    assert [n for n in range(-3, 2000) if is_prime(n)] == small
    assert is_prime(2 ** 61 - 1)
    assert is_prime(2 ** 64 - 59)  # the largest prime below 2**64
    # a Carmichael number, a strong pseudoprime to bases 2, 3, 5 and 7, and
    # one to every prime base up to 23
    for composite in (561, 3215031751, 3825123056546413051):
        assert not is_prime(composite)
    assert FieldOps(2 ** 61 - 1).p == 2 ** 61 - 1
    with pytest.raises(LinalgError):
        is_prime(2 ** 64 + 13)
    with pytest.raises(LinalgError):
        FieldOps(2 ** 64 + 13)  # a prime, but beyond the exact range


def test_field_rank_matches_smith_rank_over_q():
    # rank over F_p = rank over Q - #{invariant factors d : p | d}; field_rank
    # and smith_normal_form are independent eliminations
    rng = random.Random(5)
    for trial in range(60):
        a = _random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        if trial % 2:
            # force torsion: scale random rows by a small prime
            a = IntMatrix([[x * rng.choice((2, 3, 5)) for x in row] if rng.random() < 0.5
                           else row for row in a.rows], a.ncols)
        dec = smith_normal_form(a)
        assert field_rank(a, "Q") == dec.rank
        for p in (2, 3, 5):
            assert field_rank(a, p) == dec.rank - sum(1 for d in dec.divisors if d % p == 0)
    # a torsion-only example where the ranks differ
    a = IntMatrix([[2, 0, 0], [0, 6, 0], [0, 0, 15]])
    assert [field_rank(a, f) for f in ("Q", 2, 3, 5)] == [3, 1, 1, 2]


def test_field_ops_kernel_and_solve():
    for field in ("Q", 5):
        ops = FieldOps(field)

        def is_zero(x):
            return x == 0 if field == "Q" else x % 5 == 0

        m = ops.of_int_matrix(IntMatrix([[1, 2, 3], [2, 4, 6]]))
        ker = ops.kernel_basis(m, 3)
        assert len(ker) == 2
        for vec in ker:
            for row in m:
                assert is_zero(sum(a * b for a, b in zip(row, vec)))
        cols = [[ops.of_int(1), ops.of_int(0)], [ops.of_int(1), ops.of_int(1)]]
        x = ops.solve(cols, [ops.of_int(3), ops.of_int(2)])
        assert x is not None
        assert is_zero(x[0] + x[1] - ops.of_int(3))
        assert is_zero(x[1] - ops.of_int(2))
        unsolvable = ops.solve([[ops.of_int(0), ops.of_int(0)]],
                               [ops.of_int(1), ops.of_int(0)])
        assert unsolvable is None
