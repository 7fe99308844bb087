"""Exact integer linear algebra: Smith forms, lattices, subquotients."""

import doctest
import random
import time

from dense_oracle import element_is_zero, kernel_basis, kernel_subgroup, smith_diagonal
from macoh import complexes, linalg
from macoh.linalg import (
    FieldOps,
    GroupMorphism,
    IntMatrix,
    LinalgError,
    PresentedGroup,
    SmithSolver,
    homology_of_pair,
    is_prime,
    merge_torsion,
    smith_normal_form,
)
from macoh.verification import PENTAGON_CONNECTING

import pytest


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
    assert a.transpose().rows == [[1, 3], [2, 4]]
    assert a.mulvec([1, 1]) == [3, 7]
    empty = IntMatrix.zeros(0, 3)
    assert (empty @ IntMatrix.identity(3)).shape == (0, 3)


def test_results_on_fresh_rows_share_no_row_with_their_operands():
    # these results adopt the row dicts they build without a copy, so
    # writing into the stored rows of one must leave every operand as it was
    a = IntMatrix([[1, 2], [3, 4]])
    b = IntMatrix([[0, 1], [1, 0]])
    cols = [[5, 6], [7, 8]]
    cycles = IntMatrix([[1, 0], [0, 1]])
    field_groups = [FieldOps(f).free_homology(IntMatrix.zeros(2, 0), IntMatrix.zeros(0, 2))
                    for f in ("Q", 3)]
    results = [a @ b, a @ IntMatrix.identity(2), IntMatrix.identity(2) @ a, a.transpose(),
               IntMatrix.from_columns(cols, 2), a + b, a.hstack(b),
               smith_normal_form(a).U]
    results += [sq.express_columns(cycles) for sq in field_groups]
    for result in results:
        for row in result._rows:
            row[0] = row.get(0, 0) + 100
    assert a == IntMatrix([[1, 2], [3, 4]]) and b == IntMatrix([[0, 1], [1, 0]])
    assert cols == [[5, 6], [7, 8]] and cycles == IntMatrix([[1, 0], [0, 1]])
    for sq in field_groups:
        assert sq.express_columns(cycles) == IntMatrix([[1, 0], [0, 1]])
    zeros = IntMatrix.zeros(2, 2)
    zeros._rows[0][0] = 1
    assert zeros._rows[1] == {}
    # the dense rows are a copy: writing into them changes nothing
    view = a.rows
    view[0][0] = 9
    assert a.rows == [[1, 2], [3, 4]]


def test_smith_of_diag_2_3_is_diag_1_6():
    a = IntMatrix([[2, 0], [0, 3]])
    dec = smith_normal_form(a)
    assert dec.divisors == (1, 6)
    assert dec.U @ a @ dec.V == IntMatrix([[1, 0], [0, 6]])


def test_smith_of_pentagon_connecting_matrix():
    # the stored d' of the 5-cycle between its rank-5 cohomology layers has
    # Smith form diag(1, 1, 1, 1, 0): rank 4 onto a direct summand
    dec = smith_normal_form(PENTAGON_CONNECTING)
    assert dec.divisors == (1, 1, 1, 1)


@pytest.mark.parametrize("m, n", [(0, 0), (0, 3), (3, 0), (2, 3)])
def test_smith_of_a_matrix_without_rows_columns_or_nonzeros(m, n):
    for a in (IntMatrix.zeros(m, n), IntMatrix([[0] * n for _ in range(m)], n)):
        dec = smith_normal_form(a)
        assert (dec.U.shape, dec.V.shape, dec.U_inv.shape) == ((m, m), (n, n), (m, m))
        assert dec.U @ a @ dec.V == IntMatrix.zeros(m, n)
        assert dec.U @ dec.U_inv == IntMatrix.identity(m)
        assert dec.divisors == ()
        assert linalg.smith_divisors(a) == ()
    if not (m or n):  # every 0 x 0 input gets the one shared decomposition
        assert smith_normal_form(IntMatrix([])) is smith_normal_form(IntMatrix.zeros(0, 0))


def test_representatives_of_a_zero_f_leave_the_shared_empty_smith_form_as_it_was():
    empty = smith_normal_form(IntMatrix.zeros(0, 0))
    fields = (empty.U, empty.V, empty.U_inv)
    z2 = PresentedGroup.free(2)
    cases = [(PresentedGroup.free(0), GroupMorphism(z2, z2, IntMatrix.identity(2))),
             (PresentedGroup.free(0), GroupMorphism.zero(PresentedGroup.free(0), z2))]
    for zero_source, g in cases:
        f = GroupMorphism.zero(zero_source, g.source)
        orders, gens, target, stacked, z_coords = linalg._representatives(f, g)
        assert (orders, gens.shape, z_coords.shape) == ((), (g.source.n_gens, 0), (0, 0))
        assert target is g.target and stacked == g.matrix  # no class rows over the rows of g
        sq = linalg.Subquotient(f, g)
        assert sq.express([0] * g.source.n_gens) == []
    assert all(now is before for now, before in zip((empty.U, empty.V, empty.U_inv), fields))
    assert all(mat.shape == (0, 0) and mat.rows == [] for mat in fields)
    assert empty.divisors == ()
    assert smith_normal_form(IntMatrix.zeros(0, 0)) is empty


def test_smith_transform_identity_holds():
    rng = random.Random(20260814)
    for _ in range(60):
        m = rng.randint(0, 5)
        n = rng.randint(0, 5)
        a = _random_matrix(rng, m, n)
        dec = smith_normal_form(a)
        assert dec.U @ a @ dec.V == smith_diagonal(a, dec.divisors)
        assert dec.U @ dec.U_inv == IntMatrix.identity(m)
        if n:
            assert abs(_det(dec.V)) == 1
        if m:
            assert abs(_det(dec.U)) == 1
        divisors = dec.divisors
        assert all(d > 0 for d in divisors)
        for d1, d2 in zip(divisors, divisors[1:]):
            assert d2 % d1 == 0


def test_kernel_is_saturated_and_complete():
    rng = random.Random(7)
    for _ in range(40):
        a = _random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        ker = kernel_basis(a)
        assert (a @ ker).is_zero()
        assert ker.ncols == a.ncols - len(smith_normal_form(a).divisors)
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
    assert element_is_zero(diag, [0, 4, 0])
    assert not element_is_zero(diag, [0, 1, 0])


def test_direct_sum_joins_checked_orders_and_the_constructor_still_checks():
    total = PresentedGroup.direct_sum([PresentedGroup((0, 4)), PresentedGroup.free(0),
                                       PresentedGroup((2,))])
    assert type(total) is PresentedGroup
    assert total.orders == (0, 4, 2) and total.invariants() == (1, (2, 4))
    for orders in [(-1,), (2, 1.5), ("3",)]:
        with pytest.raises(LinalgError, match="non-negative"):
            PresentedGroup(orders)


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


def test_homology_of_pair_rejects_middle_groups_of_different_orders():
    # f lands in Z and g leaves C2: one generator each, but not one group
    f = GroupMorphism(PresentedGroup.free(1), PresentedGroup.free(1), IntMatrix([[1]]))
    g = GroupMorphism(PresentedGroup((2,)), PresentedGroup.free(0), IntMatrix.zeros(0, 1))
    with pytest.raises(LinalgError, match="disagree"):
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
        ker = kernel_basis(g_mat)
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
    assert FieldOps("Q").rank(a) == 1
    assert FieldOps(2).rank(a) == 1
    b = IntMatrix([[2]])
    assert FieldOps("Q").rank(b) == 1
    assert FieldOps(2).rank(b) == 0
    assert FieldOps(3).rank(b) == 1
    with pytest.raises(LinalgError):
        FieldOps(4)


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
    # rank over F_p = rank over Q - #{invariant factors d : p | d}; FieldOps
    # and smith_normal_form are independent eliminations
    rng = random.Random(5)
    for trial in range(60):
        a = _random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        if trial % 2:
            # force torsion: scale random rows by a small prime
            a = IntMatrix([[x * rng.choice((2, 3, 5)) for x in row] if rng.random() < 0.5
                           else row for row in a.rows], a.ncols)
        divisors = smith_normal_form(a).divisors
        assert FieldOps("Q").rank(a) == len(divisors)
        for p in (2, 3, 5):
            assert FieldOps(p).rank(a) == len(divisors) - sum(1 for d in divisors if d % p == 0)
    # a torsion-only example where the ranks differ
    a = IntMatrix([[2, 0, 0], [0, 6, 0], [0, 0, 15]])
    assert [FieldOps(f).rank(a) for f in ("Q", 2, 3, 5)] == [3, 1, 1, 2]


def test_field_ops_kernel_and_solve():
    for field in ("Q", 5):
        ops = FieldOps(field)

        def is_zero(x):
            return x == 0 if field == "Q" else x % 5 == 0

        m = [[1, 2, 3], [2, 4, 6]]
        ker = ops.free_homology(IntMatrix.zeros(3, 0), IntMatrix(m))
        assert ker.n_gens == 2 and ker.orders == (0, 0) and ker.invariants() == (2, ())
        for j in range(ker.n_gens):
            vec = ker.gens.column(j)
            for row in m:
                assert is_zero(sum(a * b for a, b in zip(row, vec)))
        # (3, 2) = 3 * (1, 0) + 2 * (0, 1): modulo the boundary (1, 0) it is 2
        # times the representative (0, 1), the cycle pivot of [(1, 0) | e_0, e_1]
        h = ops.free_homology(IntMatrix([[1], [0]]), IntMatrix.zeros(0, 2))
        assert h.gens.rows == [[0], [1]]
        (x,) = h.express([3, 2])
        assert is_zero(x - 2)
        assert is_zero(h.express([1, 1])[0] - 1)
        with pytest.raises(LinalgError):
            ops.free_homology(IntMatrix.zeros(2, 0), IntMatrix([[1, 0]])).express([1, 0])
        with pytest.raises(LinalgError):
            ops.free_homology(IntMatrix.zeros(3, 0), IntMatrix([[1, 0]]))
