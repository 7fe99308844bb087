"""Property tests for the exact linear algebra core, over Z and over fields."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dense_oracle import (
    DenseMatrix,
    element_is_zero,
    kernel_basis,
    kernel_subgroup,
    scaled,
    smith_by_full_scan,
    smith_diagonal,
    smith_divisors_by_full_scan,
)
from macoh import linalg
from macoh.complexes import SimplicialComplex, cycle, rp2_minimal
from macoh.hochster import double_cohomology, double_field, hochster_cohomology, hochster_field
from macoh.linalg import (
    FieldOps,
    GroupMorphism,
    IntMatrix,
    LinalgError,
    PresentedGroup,
    SmithSolver,
    Subquotient,
    free_homology,
    homology_of_pair,
    merge_torsion,
    smith_divisors,
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
    assert dec.U @ a @ dec.V == smith_diagonal(a, dec.divisors)
    assert dec.U @ dec.U_inv == IntMatrix.identity(a.nrows)
    assert all(d > 0 for d in dec.divisors)
    assert all(big % small == 0 for small, big in zip(dec.divisors, dec.divisors[1:]))


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
    assert (dec.U, smith_diagonal(a, dec.divisors), dec.V, dec.U_inv) == smith_by_full_scan(a)


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


@PROPERTY
@given(st.one_of(unit_rich_matrices(), matrices(max_rows=6, max_cols=6)))
@example(IntMatrix.zeros(0, 3))
@example(IntMatrix.zeros(3, 0))
@example(IntMatrix([[2, 4], [6, 8]]))
@example(IntMatrix([[0, 0, 3], [0, 0, 0], [5, 0, 0]]))
def test_smith_divisors_match_the_dense_smith_form(a):
    assert smith_divisors(a) == smith_normal_form(a).divisors == smith_divisors_by_full_scan(a)


@PROPERTY
@given(st.one_of(unit_rich_matrices(), matrices(max_rows=6, max_cols=6)))
@example(IntMatrix.zeros(0, 3))
@example(IntMatrix([[2, 4], [6, 8]]))
def test_smith_divisors_read_twice_match_the_dense_oracle(a):
    expected = smith_divisors_by_full_scan(a)
    assert smith_divisors(a) == expected
    assert smith_divisors(a) == expected
    # a matrix built from a has a slot of its own
    assert smith_divisors(scaled(a, 2)) == tuple(2 * d for d in expected)


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
    lattice = kernel_basis(g_mat.hstack(c.relations))
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
    # a subquotient is the group of its orders
    group = PresentedGroup(h.orders)
    assert (h.invariants(), h.is_trivial(), h.rank) == \
        (group.invariants(), group.is_trivial(), group.rank)
    assert repr(h).startswith("Subquotient<")
    for j in range(h.n_gens):
        d = h.orders[j]
        assert h.express(h.gens.column(j)) == [int(i == j) % d if d else int(i == j)
                                               for i in range(h.n_gens)]
    for col in f_cols + [b.relations.column(j) for j in range(b.relations.ncols)]:
        assert h.class_is_zero(col)


free_orders = st.lists(st.just(0), max_size=4)


@PROPERTY
@given(free_orders, free_orders, st.data())
def test_lazy_subquotient_equals_the_eager_build(b_orders, c_orders, data):
    lazy, g, f_cols = _diagonal_pair(b_orders, c_orders, data)
    n = g.source.n_gens
    f = GroupMorphism(PresentedGroup.free(len(f_cols)), g.source,
                      IntMatrix.from_columns(f_cols, n))
    eager = Subquotient(f, g)
    assert lazy._reps is None and eager._pair is None
    assert lazy.orders == eager.orders
    assert lazy.gens == eager.gens
    assert lazy._pair is None  # the build released f and g
    # cycles: combinations of the generators plus boundaries
    cols = []
    for _ in range(3):
        coefs = data.draw(st.lists(entries, min_size=eager.n_gens, max_size=eager.n_gens))
        bounds = data.draw(st.lists(entries, min_size=len(f_cols), max_size=len(f_cols)))
        cols.append([x + y for x, y in zip(eager.gens.mulvec(coefs), f.matrix.mulvec(bounds))])
    mat = IntMatrix.from_columns(cols, n)
    assert lazy.express_columns(mat) == eager.express_columns(mat)


def test_integral_h_of_a_cycle_reads_no_representatives(monkeypatch):
    def refuse(f, g):
        raise AssertionError("a representative was built")

    monkeypatch.setattr(linalg, "_representatives", refuse)
    got = hochster_cohomology(cycle(8)).invariants()
    assert got == {b: (dim, ()) for b, dim in hochster_field(cycle(8), "Q").dims.items()}


def test_field_h_of_a_cycle_builds_no_representatives(monkeypatch):
    def refuse(f, g, p):
        raise AssertionError("a representative was built")

    monkeypatch.setattr(linalg, "_representatives", refuse)
    got = hochster_field(cycle(8), "Q").dims
    assert got == {b: rank for b, (rank, _) in hochster_cohomology(cycle(8)).invariants().items()}


def test_orders_that_the_build_contradicts_raise(monkeypatch):
    real = linalg.smith_divisors
    monkeypatch.setattr(linalg, "smith_divisors",
                        lambda a: tuple(d for d in real(a) if d == 1))
    h = free_homology(IntMatrix([[2], [0]]), IntMatrix.zeros(0, 2))
    assert h.orders == (0, 0)  # Z/2 + Z, with the 2 dropped
    for _ in range(2):  # and again: nothing of the failed build is kept
        with pytest.raises(LinalgError, match="orders"):
            h.gens


# per kind of pair: the entries of g, the orders of B and C, and the
# coefficients of f over a kernel basis.  Units only; no unit in g or the
# orders, so that smith_normal_form gets the whole kernel step; or both
PAIR_KINDS = {
    "all-unit": (st.sampled_from((0, 0, 1, -1)), (0, 0, 0, 1, 2), st.sampled_from((0, 1, -1))),
    "unit-free": (st.sampled_from((0, 0, 2, -2, 3, -4, 6)), (0, 0, 2, 3, 4),
                  st.sampled_from((0, 2, -2, 4))),
    "mixed": (unit_rich, (0, 0, 1, 2, 3, 4, 6), entries),
}


@st.composite
def presented_pairs(draw, kind, torsion):
    """(f, g): g: B -> C well defined between diagonal groups, free ones
    unless torsion, and f: A -> B with random combinations of a kernel
    basis of [g | R_C] as columns."""
    g_entries, order_values, f_coefs = PAIR_KINDS[kind]
    group_orders = st.lists(st.sampled_from(order_values if torsion else (0,)), max_size=5)
    b, c = PresentedGroup(draw(group_orders)), PresentedGroup(draw(group_orders))
    g_mat = IntMatrix([[draw(g_entries) * _well_defined_step(d, e) for d in b.orders]
                       for e in c.orders], b.n_gens)
    lattice = kernel_basis(g_mat.hstack(c.relations))
    coefs = st.lists(f_coefs, min_size=lattice.ncols, max_size=lattice.ncols)
    f_cols = [lattice.mulvec(draw(coefs))[:b.n_gens]
              for _ in range(draw(st.integers(min_value=0, max_value=3)))]
    f_mat = IntMatrix.from_columns(f_cols, b.n_gens)
    return GroupMorphism(PresentedGroup.free(len(f_cols)), b, f_mat), GroupMorphism(b, c, g_mat)


def _orders_by_ranks(f, g):
    """The orders of ker(g)/im(f) from Smith divisors on dense rows: with
    F the columns y of [f | R_B] lifted to (y; z), z_k = -(g y)_k / d_k on
    the generators of order d_k > 0 of C, the divisors > 1 of F, then
    n_B + r_C - rank [g | R_C] - rank F free generators."""
    a = g.matrix.hstack(g.target.relations)
    dense_g = DenseMatrix.of(g.matrix)
    lifts = []
    for y in DenseMatrix.of(f.matrix.hstack(g.source.relations)).transpose().rows:
        gy = dense_g.mulvec(y)
        lifts.append(y + [-x // d for x, d in zip(gy, g.target.orders) if d])
    f_divisors = smith_divisors_by_full_scan(IntMatrix.from_columns(lifts, a.ncols))
    n_free = a.ncols - len(smith_divisors_by_full_scan(a)) - len(f_divisors)
    return tuple(d for d in f_divisors if d > 1) + (0,) * n_free


@settings(PROPERTY, max_examples=150)
@given(st.sampled_from(sorted(PAIR_KINDS)), st.booleans(), st.data())
def test_representatives_match_the_dense_oracle(kind, torsion, data):
    f, g = data.draw(presented_pairs(kind, torsion))
    n = g.source.n_gens
    orders, gens, *_ = linalg._representatives(f, g)
    assert orders == _orders_by_ranks(f, g)
    if not any(g.source.orders + g.target.orders):  # the dimension-first path
        assert orders == homology_of_pair(f, g).orders
    # gens lie in L = {x : g(x) = 0 in C} ...
    dense_g = DenseMatrix.of(g.matrix)
    assert all(element_is_zero(g.target, dense_g.mulvec(col))
               for col in DenseMatrix.of(gens).transpose().rows)
    # ... and with im(f) and the relations of B, which lie in L too, they
    # span it: the same divisors as a basis of L
    full = kernel_basis(g.matrix.hstack(g.target.relations))
    lattice = IntMatrix(full.rows[:n], full.ncols)
    spanned = gens.hstack(f.matrix).hstack(g.source.relations)
    assert smith_divisors_by_full_scan(spanned) == smith_divisors_by_full_scan(lattice)
    sq = Subquotient(f, g)
    assert (sq.orders, sq.gens) == (orders, gens)
    for j in range(len(orders)):
        assert sq.express(gens.column(j)) == [int(i == j) % d if d else int(i == j)
                                              for i, d in enumerate(orders)]
    relators = f.matrix.hstack(g.source.relations)
    assert sq.express_columns(relators).is_zero()
    v = data.draw(st.lists(entries, min_size=n, max_size=n))
    if not element_is_zero(g.target, dense_g.mulvec(v)):
        with pytest.raises(LinalgError, match="does not lie in the kernel subgroup"):
            sq.express(v)


# the square 1234 with the diagonal 24 and the triangle 234 filled: d' reads
# the class of the hollow triangle 124 in degree 1, whose kernel is eliminated
KITE = SimplicialComplex.from_maximal_faces(4, [[1, 2], [1, 4], [2, 3, 4]])


@pytest.mark.parametrize("k, field", [
    pytest.param(KITE, None, id="kite"),
    pytest.param(rp2_minimal(), None, id="rp2"),
    *(pytest.param(k, field, id=f"{name}-{field}")
      for field in ("Q", 3) for name, k in (("kite", KITE), ("rp2", rp2_minimal()))),
])
def test_a_sign_flipped_by_back_substitution_fails_the_build(monkeypatch, k, field):
    # negative control: one entry of the first pivot variable that has
    # one, with its sign flipped, in every back-substitution; over F_2 a
    # flipped sign changes nothing, so the fields are Q and F_3.  Degree 0
    # reads its representatives off the components, so each input has a
    # class that d' reads in degree 1
    real = linalg._back_substitute

    def flipped(pivots, p=0):
        solved = real(pivots, p)
        e = next((e for e in solved.values() if e), {})
        for v in list(e)[:1]:
            e[v] = -e[v]
        return solved

    monkeypatch.setattr(linalg, "_back_substitute", flipped)
    with pytest.raises(LinalgError, match=r"representatives of ker\(g\)/im\(f\) escape"):
        double_cohomology(k) if field is None else double_field(k, field)


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
    if not element_is_zero(g.target, g.matrix.mulvec(v)):
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
    full = kernel_basis(g.matrix.hstack(g.target.relations))
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
    vecs = []
    for _ in range(4):
        # a multiple of each order, sometimes off by one, so both answers occur
        vec = [d * data.draw(entries) + data.draw(st.sampled_from((0, 0, 0, 1, -1)))
               for d in group_orders]
        assert element_is_zero(group, vec) == (solver.solve(vec) is not None)
        vecs.append(vec)
    # the four vectors as the columns of one matrix: zero exactly when each is
    mat = IntMatrix.from_columns(vecs, group.n_gens)
    assert group.is_zero(mat) == all(solver.solve(v) is not None for v in vecs)
    with pytest.raises(LinalgError, match="wrong height"):
        group.is_zero(IntMatrix.zeros(group.n_gens + 1, 4))


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


def _same(sparse, dense):
    """sparse, an IntMatrix, holds the entries of the DenseMatrix dense."""
    assert sparse.shape == dense.shape
    assert sparse.rows == dense.rows
    assert sparse == dense.sparse()
    assert list(sparse.entries()) == dense.entries()
    assert sparse.is_zero() == dense.is_zero()


def _check_against_the_dense_oracle(a, b, c, vec):
    """Every IntMatrix operation on a, b (n x k) and c (k x m) against the
    dense oracle; vec has k entries."""
    da, db, dc = (DenseMatrix.of(x) for x in (a, b, c))
    _same(a, da)
    _same(a @ c, da @ dc)
    _same(a + b, da + db)
    _same(a + scaled(b, -1), da - db)
    _same(a + scaled(a, -1), da - da)  # every entry cancels
    for s in (0, 1, -2):
        _same(scaled(a, s), da.scaled(s))
    _same(a.transpose(), da.transpose())
    _same(a.hstack(b), da.hstack(db))
    columns = [a.column(j) for j in range(a.ncols)]
    assert columns == [da.column(j) for j in range(a.ncols)]
    _same(IntMatrix.from_columns(columns, a.nrows), DenseMatrix.from_columns(columns, a.nrows))
    _same(IntMatrix.from_entries(*a.shape, da.entries() + db.entries()), da + db)
    assert a.mulvec(vec) == da.mulvec(vec)
    assert (a == b) == (da.rows == db.rows)
    _same(IntMatrix.zeros(*a.shape), DenseMatrix.zeros(*a.shape))
    _same(IntMatrix.identity(a.nrows), DenseMatrix.identity(a.nrows))


@PROPERTY
@given(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4), st.data())
def test_sparse_operations_match_the_dense_oracle(n, k, m, data):
    a, b = data.draw(sparse_matrix(n, k)), data.draw(sparse_matrix(n, k))
    c = data.draw(sparse_matrix(k, m))
    vec = data.draw(st.lists(sparse_entries, min_size=k, max_size=k))
    _check_against_the_dense_oracle(a, b, c, vec)


def test_sparse_operations_match_the_dense_oracle_on_empty_shapes():
    rng = random.Random(3)
    for n, k, m in ((0, 3, 2), (3, 0, 2), (2, 3, 0), (0, 0, 0), (1, 0, 0), (0, 2, 0)):
        def draw(nrows, ncols):
            return IntMatrix([[rng.choice((0, 1, -1, 2)) for _ in range(ncols)]
                              for _ in range(nrows)], ncols)
        a, b, c = draw(n, k), draw(n, k), draw(k, m)
        _check_against_the_dense_oracle(a, b, c, [rng.randint(-2, 2) for _ in range(k)])


@st.composite
def entry_lists(draw):
    """(nrows, ncols, triples) with repeated positions and values that cancel."""
    nrows = draw(st.integers(0, 4))
    ncols = draw(st.integers(0, 4))
    if nrows == 0 or ncols == 0:
        return nrows, ncols, []
    position = st.tuples(st.integers(0, nrows - 1), st.integers(0, ncols - 1))
    triples = []
    for r, c in draw(st.lists(position, max_size=12)):
        v = draw(st.integers(-3, 3))
        triples.append((r, c, v))
        if draw(st.booleans()):
            triples.append((r, c, -v))  # cancels to 0 with the triple before
    return nrows, ncols, triples


@PROPERTY
@given(entry_lists())
@example((0, 3, []))
@example((3, 0, []))
@example((2, 2, [(1, 0, 2), (1, 0, -2), (0, 1, 1), (0, 1, 1)]))
def test_from_entries_matches_a_dense_accumulation(case):
    nrows, ncols, triples = case
    dense = [[0] * ncols for _ in range(nrows)]
    for r, c, v in triples:
        dense[r][c] += v
    mat = IntMatrix.from_entries(nrows, ncols, triples)
    assert mat == IntMatrix(dense, ncols)
    assert list(mat.entries()) == [(r, c, v) for r, row in enumerate(dense)
                                   for c, v in enumerate(row) if v]


@PROPERTY
@given(entry_lists(), st.randoms(use_true_random=False))
def test_matrices_built_in_different_entry_orders_are_equal_and_unhashable(case, rnd):
    nrows, ncols, triples = case
    shuffled = triples[:]
    rnd.shuffle(shuffled)
    a = IntMatrix.from_entries(nrows, ncols, triples)
    b = IntMatrix.from_entries(nrows, ncols, shuffled)
    dense = DenseMatrix.from_entries(nrows, ncols, triples).sparse()
    # the transpose of the transpose has its rows in column order
    for other in (b, dense, a.transpose().transpose(), b + IntMatrix.zeros(nrows, ncols)):
        assert a == other
    # nothing hashes a matrix, so IntMatrix defines __eq__ alone
    with pytest.raises(TypeError):
        hash(a)


@PROPERTY
@given(st.integers(0, 6), st.integers(0, 6), st.data())
def test_from_entries_rebuilds_a_matrix_from_its_entries(n, m, data):
    a = data.draw(sparse_matrix(n, m))
    assert IntMatrix.from_entries(*a.shape, a.entries()) == a


@pytest.mark.parametrize("r, c", [(2, 0), (0, 3), (-1, 0), (0, -1), (5, 5)])
def test_from_entries_refuses_an_index_outside_the_shape(r, c):
    with pytest.raises(LinalgError):
        IntMatrix.from_entries(2, 3, [(0, 0, 1), (r, c, 1)])


def test_from_entries_refuses_any_entry_of_an_empty_shape():
    for shape in ((0, 3), (3, 0)):
        with pytest.raises(LinalgError):
            IntMatrix.from_entries(*shape, [(0, 0, 1)])


@PROPERTY
@given(st.integers(0, 5), st.integers(0, 5), st.integers(0, 6), st.data())
def test_rows_at_is_the_zero_one_chain_matrix_times_the_operand(n, m, k, data):
    a = data.draw(sparse_matrix(n, m))
    position = st.one_of(st.none(), st.integers(0, n - 1)) if n else st.none()
    positions = data.draw(st.lists(position, min_size=k, max_size=k))
    before = a.rows
    chain = IntMatrix.from_entries(k, n, [(r, i, 1) for r, i in enumerate(positions)
                                          if i is not None])
    gathered = a.rows_at(positions)
    assert gathered == chain @ a
    assert a.rows == before
    # every row of the result is a new dict: writing it cannot reach a
    assert not {id(row) for row in gathered._rows} & {id(row) for row in a._rows}


@pytest.mark.parametrize("position", [3, -1])
def test_rows_at_refuses_a_position_outside_the_rows(position):
    with pytest.raises(LinalgError):
        IntMatrix.identity(3).rows_at([0, None, position])


@st.composite
def placed_blocks(draw):
    """(nrows, ncols, blocks): (row offset, column offset, sign, block)
    tuples that fit the shape and may overlap."""
    nrows, ncols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    blocks = []
    for _ in range(draw(st.integers(0, 4))):
        r0, c0 = draw(st.integers(0, nrows)), draw(st.integers(0, ncols))
        block = draw(sparse_matrix(draw(st.integers(0, nrows - r0)),
                                   draw(st.integers(0, ncols - c0))))
        blocks.append((r0, c0, draw(st.sampled_from((1, -1, 2, 0))), block))
    return nrows, ncols, blocks


_square = IntMatrix([[1, -2], [0, 3]])


@PROPERTY
@given(placed_blocks())
@example((2, 3, [(0, 1, 1, _square), (0, 1, -1, _square)]))  # every entry cancels
@example((3, 3, [(0, 0, 1, _square), (1, 1, 2, _square), (2, 0, -1, IntMatrix([[4]]))]))
def test_from_blocks_equals_from_entries_of_the_shifted_signed_entries(case):
    nrows, ncols, blocks = case
    before = [block.rows for _, _, _, block in blocks]
    expected = IntMatrix.from_entries(nrows, ncols, [
        (r0 + r, c0 + c, sign * v) for r0, c0, sign, block in blocks
        for r, c, v in block.entries()])
    assert IntMatrix.from_blocks(nrows, ncols, blocks) == expected
    assert [block.rows for _, _, _, block in blocks] == before


@pytest.mark.parametrize("r0, c0, shape", [
    (2, 0, (2, 2)), (0, 2, (2, 2)), (-1, 0, (1, 1)), (0, -1, (1, 1)), (3, 0, (1, 0))])
def test_from_blocks_refuses_a_block_that_overruns_its_offsets(r0, c0, shape):
    # the overrunning blocks have no entries outside the shape, or none at all
    with pytest.raises(LinalgError):
        IntMatrix.from_blocks(3, 3, [(0, 0, 1, IntMatrix.identity(3)),
                                     (r0, c0, 1, IntMatrix.zeros(*shape))])


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
    cycles = kernel_basis(d_out)
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


@PROPERTY
@given(free_complexes())
@example((IntMatrix([[2], [0]]), IntMatrix.zeros(0, 2), None))
@example((IntMatrix([[3, 0], [0, 0], [0, 0]]), IntMatrix([[0, 0, 2]]), None))
def test_field_dimension_from_ranks_is_that_of_the_built_generators(cx):
    d_in, d_out, _ = cx
    for field in ("Q", 2, 3):
        ops = FieldOps(field)
        sq = ops.free_homology(d_in, d_out)
        assert sq._reps is None  # the dimension came from ranks alone
        dim = sq.n_gens
        assert sq.invariants() == (dim, ()) and sq.gens.ncols == dim
        assert sq._pair is None  # the build released d_in and d_out
        # the Smith divisors prime to p, by the dense oracle: smith_divisors
        # would share _unit_pivots with the field ranks
        for mat in (d_in, d_out):
            assert ops.rank(mat) == sum(1 for d in smith_divisors_by_full_scan(mat)
                                        if field == "Q" or d % field)


def test_a_field_pair_whose_composite_is_not_zero_raises():
    # d_out @ d_in = [1]: ranks give dimension 2 - 1 - 1 = 0, but im(d_in)
    # leaves ker(d_out), so the build keeps its one cycle e_2 as a class
    d_in, d_out = IntMatrix([[1], [1]]), IntMatrix([[1, 0]])
    for field in ("Q", 2, 3):
        sq = FieldOps(field).free_homology(d_in, d_out)
        assert sq.n_gens == 0
        for _ in range(2):  # and again: nothing of the failed build is kept
            with pytest.raises(LinalgError, match="orders"):
                sq.gens
        # ranks that exceed the middle dimension need no build to fail
        with pytest.raises(LinalgError, match="not zero"):
            FieldOps(field).free_homology(IntMatrix([[1]]), IntMatrix([[1]]))


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


def _canonical(field, x):
    """x as a field element: a Fraction over Q, an int in [0, p) over F_p."""
    return Fraction(x) if field == "Q" else x % field


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
    entries = _field_entries(field)
    ncols = draw(st.integers(min_value=0, max_value=max_cols))
    rows = []
    for _ in range(draw(st.integers(min_value=0, max_value=max_rows))):
        kind = draw(st.sampled_from(("random", "random", "zero", "combination", "scaled")))
        row = draw(st.lists(entries, min_size=ncols, max_size=ncols))
        if kind == "zero":
            row = [_canonical(field, 0)] * ncols
        elif kind == "combination" and rows:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            c = draw(entries)
            row = [_canonical(field, x + c * y) for x, y in zip(a, b)]
        elif kind == "scaled":
            c = draw(st.integers(min_value=1, max_value=10 ** 6))
            row = [_canonical(field, c * x) for x in row]
        rows.append(row)
    return rows


def _over_q(m):
    return [[Fraction(x) for x in row] for row in m]


@PROPERTY
@given(st.fixed_dictionaries({field: field_matrices(field) for field in FIELDS}))
# the first row's lowest column is not the leftmost pivot column, so the
# unit pivots come in another order than Gauss-Jordan's
@example({"Q": _over_q([[0, 0, 1], [1, 1, 0], [2, 2, 0]]), 2: [[0, 0, 1], [1, 1, 0], [2, 2, 0]]})
# pivot entries 3 and -4 over Q: back-substitution divides by them
@example({"Q": _over_q([[0, 3, 6, 1], [0, 2, 1, 0], [-4, 0, 0, 2]])})
def test_field_rref_matches_naive_gauss_jordan(matrices_by_field):
    for field, m in matrices_by_field.items():
        ops = FieldOps(field)
        rows, pivots = ops.rref(m)
        expected_rows, expected_pivots = _naive_rref(m, field)
        assert pivots == expected_pivots
        assert rows == expected_rows
        if field == "Q":
            assert all(type(x) is Fraction for row in rows for x in row)
        assert ops.rank(IntMatrix(m)) == len(pivots)


def test_field_rref_is_exact_on_dense_rows_with_large_entries():
    # cross-multiplied rows pass 2**53 within two pivots, so any step that
    # goes through floats loses low bits; hypothesis rarely draws such rows
    rng = random.Random(1)
    for _ in range(20):
        m = [[Fraction(rng.randint(-10 ** 6, 10 ** 6), rng.choice((1, 1, 7, 30)))
              for _ in range(6)] for _ in range(4)]
        assert FieldOps("Q").rref(m) == _naive_rref(m, "Q")


def _combine(field, coefs, vectors, n):
    out = [_canonical(field, 0)] * n
    for c, vec in zip(coefs, vectors):
        out = [_canonical(field, x + c * y) for x, y in zip(out, vec)]
    return out


def _dot(field, a, b):
    return _canonical(field, sum(x * y for x, y in zip(a, b)))


def _reps(sq):
    return [sq.gens.column(j) for j in range(sq.n_gens)]


def _homology(ops, n, out_rows, in_cols):
    """ker(out)/im(in) on F^n, out given by its rows and in by its columns."""
    return ops.free_homology(IntMatrix.from_columns(in_cols, n), IntMatrix(out_rows, n))


@st.composite
def field_complexes(draw, field):
    """(ops, n, out_rows, in_cols) with out * in = 0: the boundaries are
    random combinations of a kernel basis of out."""
    ops = FieldOps(field)
    out_rows = draw(field_matrices(field, max_rows=4, max_cols=5))
    n = len(out_rows[0]) if out_rows else draw(st.integers(min_value=0, max_value=4))
    cycles = _reps(_homology(ops, n, out_rows, []))
    in_cols = [_combine(field, draw(st.lists(_field_entries(field), min_size=len(cycles),
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
    sq = _homology(ops, n, out_rows, in_cols)
    reps = _reps(sq)
    for rep in reps:
        assert not any(_dot(field, row, rep) for row in out_rows)
    entries = _field_entries(field)
    for _ in range(3):
        coefs = data.draw(st.lists(entries, min_size=sq.n_gens, max_size=sq.n_gens))
        weights = data.draw(st.lists(entries, min_size=len(in_cols), max_size=len(in_cols)))
        boundary = _combine(field, weights, in_cols, n)
        for j, rep in enumerate(reps):
            unit = [_canonical(field, int(i == j)) for i in range(sq.n_gens)]
            assert sq.express(rep) == unit
            assert sq.express([_canonical(field, x + y) for x, y in zip(rep, boundary)]) == unit
        cycle = _combine(field, coefs, reps, n)
        assert sq.express([_canonical(field, x + y) for x, y in zip(cycle, boundary)]) == coefs
    v = data.draw(st.lists(entries, min_size=n, max_size=n))
    if any(_dot(field, row, v) for row in out_rows):
        with pytest.raises(LinalgError):
            sq.express(v)


@PROPERTY
@given(st.data())
def test_field_subquotient_has_integer_reps_and_expresses_columns(data):
    for field in FIELDS:
        ops, n, out_rows, in_cols = data.draw(field_complexes(field))
        sq = _homology(ops, n, out_rows, in_cols)
        reps = _reps(sq)
        for rep in reps:
            assert all(type(x) is int for x in rep)
            assert not any(_dot(field, row, rep) for row in out_rows)
        # integer cycles: integer combinations of the representatives
        weights = st.lists(st.integers(min_value=-9, max_value=9),
                           min_size=sq.n_gens, max_size=sq.n_gens)
        cols = [sq.gens.mulvec(ws) for ws in data.draw(st.lists(weights, max_size=3))]
        coords = sq.express_columns(IntMatrix.from_columns(cols, n))
        assert [coords.column(j) for j in range(len(cols))] == [sq.express(col) for col in cols]
        v = data.draw(st.lists(st.integers(min_value=-9, max_value=9), min_size=n, max_size=n))
        if any(_dot(field, row, v) for row in out_rows):
            with pytest.raises(LinalgError):
                sq.express_columns(IntMatrix.from_columns(cols + [v], n))
