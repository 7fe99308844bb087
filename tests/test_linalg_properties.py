"""Property tests for the exact linear algebra core, over Z and over fields."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from macoh.linalg import (
    FieldOps,
    GroupMorphism,
    IntMatrix,
    LinalgError,
    PresentedGroup,
    SmithSolver,
    free_homology,
    homology_of_pair,
    kernel_subgroup,
    merge_torsion,
    smith_normal_form,
)

PROPERTY = settings(derandomize=True, deadline=None, max_examples=60)

entries = st.integers(min_value=-6, max_value=6)


@st.composite
def matrices(draw, max_rows=4, max_cols=4):
    nrows = draw(st.integers(min_value=0, max_value=max_rows))
    ncols = draw(st.integers(min_value=0, max_value=max_cols))
    rows = draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols),
                         min_size=nrows, max_size=nrows))
    return IntMatrix(rows, ncols)


orders = st.lists(st.sampled_from((0, 0, 1, 2, 3, 4, 6)), min_size=0, max_size=4)


@PROPERTY
@given(matrices())
def test_smith_transforms_and_divisor_chain(a):
    dec = smith_normal_form(a)
    assert dec.U @ a @ dec.V == dec.S
    assert dec.U @ dec.U_inv == IntMatrix.identity(a.nrows)
    for i in range(a.nrows):
        for j in range(a.ncols):
            expected = dec.divisors[i] if i == j and i < dec.rank else 0
            assert dec.S.rows[i][j] == expected
    assert all(d > 0 for d in dec.divisors)
    assert all(big % small == 0 for small, big in zip(dec.divisors, dec.divisors[1:]))


def _smith_by_full_scan(a):
    """Smith normal form with the pivot rule applied literally: every step
    scans the whole working submatrix for the smallest nonzero |x|, ties
    by (row, column), and checks the divisibility of the rest whatever the
    pivot.  The oracle for the early stops of smith_normal_form.
    Returns (U, S, V, U_inv)."""
    m, n = a.nrows, a.ncols
    s = [row[:] for row in a.rows]
    u = [[int(i == j) for j in range(m)] for i in range(m)]
    ui = [[int(i == j) for j in range(m)] for i in range(m)]
    v = [[int(i == j) for j in range(n)] for i in range(n)]

    def row_swap(i, j):
        s[i], s[j] = s[j], s[i]
        u[i], u[j] = u[j], u[i]
        for row in ui:
            row[i], row[j] = row[j], row[i]

    def row_add(i, j, c):
        s[i] = [x + c * y for x, y in zip(s[i], s[j])]
        u[i] = [x + c * y for x, y in zip(u[i], u[j])]
        for row in ui:
            row[j] -= c * row[i]

    def col_swap(i, j):
        for row in s + v:
            row[i], row[j] = row[j], row[i]

    def col_add(i, j, c):
        for row in s + v:
            row[i] += c * row[j]

    for t in range(min(m, n)):
        nonzero = [(abs(s[i][j]), i, j) for i in range(t, m) for j in range(t, n) if s[i][j]]
        if not nonzero:
            break
        _, bi, bj = min(nonzero)
        if bi != t:
            row_swap(t, bi)
        if bj != t:
            col_swap(t, bj)
        while True:
            if s[t][t] < 0:
                s[t] = [-x for x in s[t]]
                u[t] = [-x for x in u[t]]
                for row in ui:
                    row[t] = -row[t]
            p = s[t][t]
            stolen = next((i for i in range(t + 1, m) if s[i][t] % p), None)
            for i in range(t + 1, m if stolen is None else stolen + 1):
                if s[i][t] // p:
                    row_add(i, t, -(s[i][t] // p))
            if stolen is not None:
                row_swap(t, stolen)
                continue
            stolen = next((j for j in range(t + 1, n) if s[t][j] % p), None)
            for j in range(t + 1, n if stolen is None else stolen + 1):
                if s[t][j] // p:
                    col_add(j, t, -(s[t][j] // p))
            if stolen is not None:
                col_swap(t, stolen)
                continue
            pull = next((i for i in range(t + 1, m)
                         if any(s[i][j] % p for j in range(t + 1, n))), None)
            if pull is None:
                break
            row_add(t, pull, 1)
    return (IntMatrix(u, m), IntMatrix(s, n), IntMatrix(v, n), IntMatrix(ui, m))


unit_rich = st.sampled_from((0, 0, 0, 1, -1, 1, -1, 2, -2, 3, -4, 6))


@st.composite
def unit_rich_matrices(draw):
    """Matrices of mostly zeros and units, with some zero rows and columns
    and a few non-unit entries."""
    nrows = draw(st.integers(min_value=0, max_value=6))
    ncols = draw(st.integers(min_value=0, max_value=7))
    rows = draw(st.lists(st.lists(unit_rich, min_size=ncols, max_size=ncols),
                         min_size=nrows, max_size=nrows))
    for i in draw(st.lists(st.integers(0, nrows - 1), max_size=2)) if nrows else ():
        rows[i] = [0] * ncols
    for j in draw(st.lists(st.integers(0, ncols - 1), max_size=2)) if ncols else ():
        for row in rows:
            row[j] = 0
    return IntMatrix(rows, ncols)


def _assert_same_as_full_scan(a):
    dec = smith_normal_form(a)
    assert (dec.U, dec.S, dec.V, dec.U_inv) == _smith_by_full_scan(a)


@PROPERTY
@given(st.one_of(unit_rich_matrices(), matrices()))
def test_smith_early_stops_match_the_full_scan(a):
    _assert_same_as_full_scan(a)


def test_smith_early_stops_match_the_full_scan_on_sparse_unit_matrices():
    rng = random.Random(5)
    for values in ((1, -1), (1, -1), (1, -1, 1, -1, 2)):
        rows = [[rng.choice(values) if rng.random() < 0.08 else 0 for _ in range(40)]
                for _ in range(30)]
        _assert_same_as_full_scan(IntMatrix(rows, 40))


def _well_defined_step(d, e):
    """Smallest x > 0 with d * x in e * Z, or 0 when only x = 0 works."""
    if d == 0:
        return 1
    if e == 0:
        return 0
    return e // math.gcd(d, e)


def _diagonal_pair(b_orders, c_orders, data):
    """(h, g, f_cols): h = ker(g)/im(f) for a random well-defined
    g: B -> C between diagonal groups and f given by the columns f_cols,
    random elements of ker(g)."""
    b, c = PresentedGroup(b_orders), PresentedGroup(c_orders)
    # g is well defined: each relation d * e_k of B maps into the relations of C
    g_mat = IntMatrix([[data.draw(entries) * _well_defined_step(d, e) for d in b_orders]
                       for e in c_orders], b.n_gens)
    g = GroupMorphism(b, c, g_mat)
    # f: random combinations of the lattice {x : g(x) = 0 in C}
    lattice = SmithSolver(g_mat.hstack(c.relations)).kernel_basis()
    n_f = data.draw(st.integers(min_value=0, max_value=3))
    coefs = [data.draw(st.lists(entries, min_size=lattice.ncols, max_size=lattice.ncols))
             for _ in range(n_f)]
    f_cols = [lattice.mulvec(w)[:b.n_gens] for w in coefs]
    f = GroupMorphism(PresentedGroup.free(n_f), b, IntMatrix.from_columns(f_cols, b.n_gens))
    return homology_of_pair(f, g), g, f_cols


@PROPERTY
@given(orders, orders, st.data())
def test_homology_of_pair_on_diagonal_groups(b_orders, c_orders, data):
    h, g, f_cols = _diagonal_pair(b_orders, c_orders, data)
    b = g.source
    for j in range(h.n_gens):
        d = h.orders[j]
        assert h.express(h.gens.column(j)) == [int(i == j) % d if d else int(i == j)
                                               for i in range(h.n_gens)]
    for col in f_cols + [b.relations.column(j) for j in range(b.relations.ncols)]:
        assert h.class_is_zero(col)


@PROPERTY
@given(orders, orders, st.data())
def test_express_columns_matches_express_column_by_column(b_orders, c_orders, data):
    h, g, f_cols = _diagonal_pair(b_orders, c_orders, data)
    b = g.source
    n = b.n_gens
    boundaries = f_cols + [b.relations.column(j) for j in range(b.relations.ncols)]
    # columns: combinations of the generators plus boundaries, so the
    # coordinates are known, torsion ones reduced into [0, order)
    cols, expected = [], []
    for _ in range(data.draw(st.integers(min_value=0, max_value=4))):
        coefs = data.draw(st.lists(entries, min_size=h.n_gens, max_size=h.n_gens))
        col = h.gens.mulvec(coefs)
        for bound in boundaries:
            c = data.draw(entries)
            col = [x + c * y for x, y in zip(col, bound)]
        cols.append(col)
        expected.append([x % d if d else x for x, d in zip(coefs, h.orders)])
    got = h.express_columns(IntMatrix.from_columns(cols, n))
    assert got == IntMatrix.from_columns(expected, h.n_gens)
    assert got == IntMatrix.from_columns([h.express(col) for col in cols], h.n_gens)
    # a column outside ker(g) fails the whole matrix
    v = data.draw(st.lists(entries, min_size=n, max_size=n))
    if not g.target.element_is_zero(g.matrix.mulvec(v)):
        with pytest.raises(LinalgError, match="does not lie in the kernel subgroup"):
            h.express_columns(IntMatrix.from_columns(cols + [v], n))
        with pytest.raises(LinalgError, match="does not lie in the kernel subgroup"):
            h.express(v)


@PROPERTY
@given(orders, orders, st.data())
def test_kernel_subgroup_spans_the_lattice_of_the_smith_solver(b_orders, c_orders, data):
    _, g, _ = _diagonal_pair(b_orders, c_orders, data)
    n = g.source.n_gens
    ker = kernel_subgroup(g)
    # the oracle: the first n_B rows of a kernel basis of [g | R_C] span
    # L = {x : g(x) = 0 in C}; the generators span L modulo the relations
    # of B, which lie in L because g is well defined
    full = SmithSolver(g.matrix.hstack(g.target.relations)).kernel_basis()
    oracle = IntMatrix(full.rows[:n], full.ncols)
    spanned = ker.gens.hstack(g.source.relations)
    for basis, other in ((spanned, oracle), (oracle, spanned)):
        solver = SmithSolver(basis)
        for j in range(other.ncols):
            assert solver.solve(other.column(j)) is not None
    # express accepts exactly the vectors of L
    in_oracle = SmithSolver(oracle)
    for _ in range(4):
        v = oracle.mulvec(data.draw(st.lists(entries, min_size=oracle.ncols,
                                             max_size=oracle.ncols)))
        if data.draw(st.booleans()):  # often leaves the lattice
            v = [x + y for x, y in zip(v, data.draw(st.lists(entries, min_size=n,
                                                             max_size=n)))]
        if in_oracle.solve(v) is None:
            with pytest.raises(LinalgError, match="does not lie in the kernel subgroup"):
                ker.express(v)
        else:
            assert len(ker.express(v)) == ker.n_gens


@PROPERTY
@given(orders, st.data())
def test_element_is_zero_agrees_with_the_smith_solver(group_orders, data):
    group = PresentedGroup(group_orders)
    solver = SmithSolver(group.relations)
    for _ in range(4):
        # a multiple of each order, sometimes off by one, so both answers occur
        vec = [d * data.draw(entries) + data.draw(st.sampled_from((0, 0, 0, 1, -1)))
               for d in group_orders]
        assert group.element_is_zero(vec) == (solver.solve(vec) is not None)


sparse_entries = st.sampled_from((0, 0, 0, 0, 0, 1, -1, 2, -3))


@st.composite
def sparse_matrix(draw, nrows, ncols):
    rows = draw(st.lists(st.lists(sparse_entries, min_size=ncols, max_size=ncols),
                         min_size=nrows, max_size=nrows))
    return IntMatrix(rows, ncols)


@PROPERTY
@given(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5), st.data())
def test_matmul_matches_the_triple_sum(n, k, m, data):
    a = data.draw(sparse_matrix(n, k))
    b = data.draw(sparse_matrix(k, m))
    naive = [[sum(a.rows[i][t] * b.rows[t][j] for t in range(k)) for j in range(m)]
             for i in range(n)]
    assert a @ b == IntMatrix(naive, m)


@PROPERTY
@given(st.lists(st.integers(min_value=2, max_value=72), max_size=5))
def test_merge_torsion_matches_smith_of_the_diagonal(group_orders):
    n = len(group_orders)
    diagonal = IntMatrix([[d if i == j else 0 for j in range(n)]
                          for i, d in enumerate(group_orders)], n)
    divisors = smith_normal_form(diagonal).divisors
    assert merge_torsion(group_orders) == tuple(d for d in divisors if d > 1)


@st.composite
def free_complexes(draw):
    """(d_in, d_out, cycles): d_out random, d_in built from its kernel so
    d_out @ d_in = 0, and cycles a basis of ker(d_out)."""
    d_out = draw(matrices())
    cycles = SmithSolver(d_out).kernel_basis()
    n_in = draw(st.integers(min_value=0, max_value=3))
    coefs = draw(sparse_matrix(cycles.ncols, n_in))
    return cycles @ coefs, d_out, cycles


@PROPERTY
@given(free_complexes(), st.data())
def test_free_homology_express_leaves_a_boundary(cx, data):
    d_in, d_out, cycles = cx
    h = free_homology(d_in, d_out)
    boundaries = SmithSolver(d_in)  # independent of the kernel coordinates
    for _ in range(3):
        w = data.draw(st.lists(entries, min_size=cycles.ncols, max_size=cycles.ncols))
        v = cycles.mulvec(w)
        coords = h.express(v)
        residual = v[:]
        for j, c in enumerate(coords):
            residual = [x - c * y for x, y in zip(residual, h.gens.column(j))]
        assert boundaries.solve(residual) is not None


@PROPERTY
@given(free_complexes(), st.data())
def test_free_homology_rejects_a_non_cycle(cx, data):
    d_in, d_out, _ = cx
    h = free_homology(d_in, d_out)
    v = data.draw(st.lists(entries, min_size=d_out.ncols, max_size=d_out.ncols))
    if any(d_out.mulvec(v)):
        with pytest.raises(LinalgError):
            h.express(v)
    else:
        h.express(v)


FIELDS = ("Q", 2, 3, 5)


def _naive_rref(m, field):
    """Textbook Gauss-Jordan on field elements: the oracle for FieldOps.rref."""
    p = None if field == "Q" else field

    def inverse(x):
        return 1 / x if p is None else pow(x, p - 2, p)

    def canonical(x):
        return x if p is None else x % p

    m = [[canonical(x) for x in row] for row in m]
    pivots, r = [], 0
    for col in range(len(m[0]) if m else 0):
        rows = [i for i in range(r, len(m)) if m[i][col]]
        if not rows:
            continue
        m[r], m[rows[0]] = m[rows[0]], m[r]
        inv = inverse(m[r][col])
        m[r] = [canonical(x * inv) for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][col]:
                c = m[i][col]
                m[i] = [canonical(x - c * y) for x, y in zip(m[i], m[r])]
        pivots.append(col)
        r += 1
    return m, pivots


def _field_entries(field):
    if field == "Q":
        integral = st.integers(min_value=-10 ** 6, max_value=10 ** 6)
        fractional = st.builds(Fraction, integral, st.integers(min_value=1, max_value=30))
        return st.one_of(st.just(0), st.integers(-2, 2), integral, fractional).map(Fraction)
    return st.integers(min_value=0, max_value=field - 1)


@st.composite
def field_matrices(draw, field, max_rows=6, max_cols=8):
    """Random matrices over the field, with shapes 0 x n and n x 0, zero
    rows, rows that are combinations of earlier ones, and rows with a
    large common factor."""
    ops = FieldOps(field)
    entries = _field_entries(field)
    ncols = draw(st.integers(min_value=0, max_value=max_cols))
    rows = []
    for _ in range(draw(st.integers(min_value=0, max_value=max_rows))):
        kind = draw(st.sampled_from(("random", "random", "zero", "combination", "scaled")))
        row = draw(st.lists(entries, min_size=ncols, max_size=ncols))
        if kind == "zero":
            row = [ops.of_int(0)] * ncols
        elif kind == "combination" and rows:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            c = draw(entries)
            row = [ops.add(x, ops.mul(c, y)) for x, y in zip(a, b)]
        elif kind == "scaled":
            c = ops.of_int(draw(st.integers(min_value=1, max_value=10 ** 6)))
            row = [ops.mul(c, x) for x in row]
        rows.append(row)
    return rows


@PROPERTY
@given(st.data())
def test_field_rref_matches_naive_gauss_jordan(data):
    for field in FIELDS:
        m = data.draw(field_matrices(field))
        ops = FieldOps(field)
        rows, pivots = ops.rref(m)
        expected_rows, expected_pivots = _naive_rref(m, field)
        assert pivots == expected_pivots
        assert rows == expected_rows
        if field == "Q":
            assert all(type(x) is Fraction for row in rows for x in row)
        assert ops.rank(m) == len(pivots)


def test_field_rref_is_exact_on_dense_rows_with_large_entries():
    # cross-multiplied rows pass 2**53 within two pivots, so any step that
    # goes through floats loses low bits; hypothesis rarely draws such rows
    rng = random.Random(1)
    for _ in range(20):
        m = [[Fraction(rng.randint(-10 ** 6, 10 ** 6), rng.choice((1, 1, 7, 30)))
              for _ in range(6)] for _ in range(4)]
        assert FieldOps("Q").rref(m) == _naive_rref(m, "Q")


def _combine(ops, coefs, vectors, n):
    out = [ops.of_int(0)] * n
    for c, vec in zip(coefs, vectors):
        out = [ops.add(x, ops.mul(c, y)) for x, y in zip(out, vec)]
    return out


def _dot(ops, a, b):
    out = ops.of_int(0)
    for x, y in zip(a, b):
        out = ops.add(out, ops.mul(x, y))
    return out


@st.composite
def field_complexes(draw, field):
    """(ops, n, out_rows, in_cols) with out * in = 0: the boundaries are
    random combinations of a kernel basis of out."""
    ops = FieldOps(field)
    out_rows = draw(field_matrices(field, max_rows=4, max_cols=5))
    n = len(out_rows[0]) if out_rows else draw(st.integers(min_value=0, max_value=4))
    cycles = ops.kernel_basis(out_rows, n)
    in_cols = [_combine(ops, draw(st.lists(_field_entries(field), min_size=len(cycles),
                                           max_size=len(cycles))), cycles, n)
               for _ in range(draw(st.integers(min_value=0, max_value=3)))]
    return ops, n, out_rows, in_cols


@PROPERTY
@given(st.data())
def test_field_subquotient_express_round_trips(data):
    for field in FIELDS:
        _check_express_round_trips(field, data)


def _check_express_round_trips(field, data):
    ops, n, out_rows, in_cols = data.draw(field_complexes(field))
    sq = ops.subquotient(n, out_rows, in_cols)
    for rep in sq.reps:
        assert not any(_dot(ops, row, rep) for row in out_rows)
    entries = _field_entries(field)
    for _ in range(3):
        coefs = data.draw(st.lists(entries, min_size=sq.dim, max_size=sq.dim))
        weights = data.draw(st.lists(entries, min_size=len(in_cols), max_size=len(in_cols)))
        boundary = _combine(ops, weights, in_cols, n)
        for j, rep in enumerate(sq.reps):
            unit = [ops.of_int(int(i == j)) for i in range(sq.dim)]
            assert sq.express(rep) == unit
            assert sq.express([ops.add(x, y) for x, y in zip(rep, boundary)]) == unit
        cycle = _combine(ops, coefs, sq.reps, n)
        assert sq.express([ops.add(x, y) for x, y in zip(cycle, boundary)]) == coefs
    v = data.draw(st.lists(entries, min_size=n, max_size=n))
    if any(_dot(ops, row, v) for row in out_rows):
        with pytest.raises(LinalgError):
            sq.express(v)
