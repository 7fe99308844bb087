"""Property tests for the integer linear algebra core."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from macoh.linalg import (
    GroupMorphism,
    IntMatrix,
    PresentedGroup,
    SmithSolver,
    homology_of_pair,
    kernel_basis,
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


def _well_defined_step(d, e):
    """Smallest x > 0 with d * x in e * Z, or 0 when only x = 0 works."""
    if d == 0:
        return 1
    if e == 0:
        return 0
    return e // math.gcd(d, e)


@PROPERTY
@given(orders, orders, st.data())
def test_homology_of_pair_on_diagonal_groups(b_orders, c_orders, data):
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
    h = homology_of_pair(f, g)
    for j in range(h.n_gens):
        d = h.orders[j]
        assert h.express(h.gens.column(j)) == [int(i == j) % d if d else int(i == j)
                                               for i in range(h.n_gens)]
    for col in f_cols + [b.relations.column(j) for j in range(b.relations.ncols)]:
        assert h.class_is_zero(col)


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
