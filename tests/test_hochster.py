"""Bigraded cohomology via subsets, connecting differential, double groups."""

import random

import pytest

from macoh.complexes import (
    ComplexError,
    SimplicialComplex,
    boundary_simplex,
    cycle,
    disjoint_points,
    join,
    mask_of,
    random_complex,
    rp2_minimal,
    simplex,
    square_edge,
    two_squares,
    two_triangles,
)
from macoh.errors import VerificationError
from macoh.hochster import (
    ch_restriction_morphism,
    ch_subcomplex_morphisms,
    d_prime,
    d_prime_field,
    double_cohomology,
    double_field,
    double_homology,
    hochster_cohomology,
    hochster_field,
    hochster_homology,
)
from macoh.homology import FieldComplexCohomology, cohomology, homology, reduced_complex
from macoh.linalg import (
    FieldOps,
    GroupMorphism,
    PresentedGroup,
    homology_of_pair,
    kernel_subgroup,
    smith_normal_form,
)

# bidegrees are keyed (k, l); the display bidegree is (-k, 2l)

PENTAGON_H = {(0, 0): (1, ()), (1, 2): (5, ()), (2, 3): (5, ()), (3, 5): (1, ())}

RP2_H = {
    (0, 0): (1, ()),
    (1, 3): (10, ()),
    (2, 4): (15, ()),
    (3, 5): (6, ()),
    (3, 6): (0, (2,)),
}

SQUARE_EDGE_H = {
    (0, 0): (1, ()), (1, 2): (5, ()), (2, 3): (5, ()),
    (3, 4): (1, ()), (2, 4): (1, ()), (3, 5): (1, ()),
}

TWO_TRIANGLES_H = {
    (0, 0): (1, ()), (1, 2): (4, ()), (1, 3): (2, ()), (2, 3): (4, ()),
    (3, 4): (1, ()), (2, 4): (4, ()), (3, 5): (2, ()),
}

TWO_SQUARES_H = {
    (0, 0): (1, ()), (1, 2): (8, ()), (2, 3): (12, ()), (3, 4): (5, ()),
    (2, 4): (2, ()), (3, 5): (4, ()), (4, 6): (2, ()),
}


def test_pentagon_bigraded_table():
    hd = hochster_cohomology(cycle(5))
    assert hd.invariants() == PENTAGON_H


def test_pentagon_connecting_map_is_rank_four_onto_summand():
    hd = hochster_cohomology(cycle(5))
    mor = d_prime(hd)[(2, 3)]
    assert mor.matrix.shape == (5, 5)
    dec = smith_normal_form(mor.matrix)
    assert dec.divisors == (1, 1, 1, 1)


def test_pentagon_double_cohomology():
    hh = double_cohomology(cycle(5))
    assert hh.invariants() == {
        (0, 0): (1, ()), (1, 2): (1, ()), (2, 3): (1, ()), (3, 5): (1, ()),
    }
    assert hh.total_rank() == 4
    assert hh.euler_characteristic() == 0


def test_rp2_bigraded_table_and_double():
    hd = hochster_cohomology(rp2_minimal())
    assert {b: v for b, v in hd.invariants().items() if b in RP2_H} == RP2_H
    hh = double_cohomology(rp2_minimal())
    inv = hh.invariants()
    assert inv[(0, 0)] == (1, ())
    assert inv[(3, 6)] == (0, (2,))


def test_rp2_homology_side_kills_the_torsion_line():
    hh = double_homology(rp2_minimal())
    inv = hh.invariants()
    assert (3, 6) not in inv
    assert (4, 6) not in inv
    assert inv[(0, 0)] == (1, ())


def test_named_complex_tables():
    assert hochster_cohomology(square_edge()).invariants() == SQUARE_EDGE_H
    assert hochster_cohomology(two_triangles()).invariants() == TWO_TRIANGLES_H
    assert hochster_cohomology(two_squares()).invariants() == TWO_SQUARES_H


def test_named_complexes_have_wedge_double_cohomology():
    for k in (square_edge(), two_triangles(), two_squares()):
        hh = double_cohomology(k)
        assert hh.invariants() == {(0, 0): (1, ()), (1, 2): (1, ())}


def test_disjoint_points_tables():
    for m in range(3, 6):
        hd = hochster_cohomology(disjoint_points(m))
        inv = hd.invariants()
        from math import comb

        for q in range(2, m + 1):
            assert inv[(q - 1, q)] == ((q - 1) * comb(m, q), ())
        hh = double_cohomology(disjoint_points(m))
        assert hh.invariants() == {(0, 0): (1, ()), (1, 2): (1, ())}


def test_boundary_simplex_double():
    for m in range(2, 6):
        hh = double_cohomology(boundary_simplex(m))
        assert hh.invariants() == {(0, 0): (1, ()), (1, m): (1, ())}
        assert hh.euler_characteristic() == 0


def test_simplex_double_is_a_single_z():
    for m in range(1, 5):
        hh = double_cohomology(simplex(m))
        assert hh.invariants() == {(0, 0): (1, ())}
        assert hh.euler_characteristic() == 1


def test_cycle_double_tables():
    for m in range(4, 7):
        hh = double_cohomology(cycle(m))
        inv = hh.invariants()
        expected = {(0, 0): 1, (1, 2): 1, (m - 3, m - 2): 1, (m - 2, m): 1}
        if m == 4:
            expected = {(0, 0): 1, (1, 2): 2, (2, 4): 1}
        assert {b: r for b, (r, t) in inv.items()} == expected
        assert all(t == () for _, t in inv.values())


def test_cohomology_and_homology_decompositions_are_uct_consistent():
    rng = random.Random(21)
    complexes = [cycle(5), rp2_minimal(), two_triangles()]
    complexes += [random_complex(rng, rng.randint(2, 5)) for _ in range(5)]
    for k in complexes:
        co = hochster_cohomology(k).invariants()
        ho = hochster_homology(k).invariants()
        bidegrees = set(co) | set(ho)
        for kk, l in bidegrees:
            c_rank, c_tors = co.get((kk, l), (0, ()))
            h_rank, _ = ho.get((kk, l), (0, ()))
            _, h_tors_next = ho.get((kk + 1, l), (0, ()))
            assert c_rank == h_rank
            assert c_tors == h_tors_next


def test_sign_fault_is_caught():
    with pytest.raises(VerificationError):
        d_prime(hochster_cohomology(rp2_minimal()), sign_fault=True)


def test_full_subcomplex_inclusion_morphism():
    k = SimplicialComplex.from_maximal_faces(
        6, [[1, 2, 6], [2, 3], [3, 4], [4, 5], [1, 5]])
    hd_sub, hd_full, matrices = ch_restriction_morphism(k, [1, 2, 3, 4, 5])
    assert hd_sub.invariants() == PENTAGON_H
    for b, mat in matrices.items():
        # offset-placed identity: columns are distinct unit vectors
        for j in range(mat.ncols):
            col = mat.column(j)
            assert sorted(col, reverse=True)[0] == 1 and sum(abs(x) for x in col) == 1


def test_support_outside_the_vertex_set_is_an_input_error():
    k = cycle(4)
    for bad in (1 << 6, k.full_mask() | 1 << 4, -1, -(1 << 2)):
        for sweep in (hochster_cohomology, hochster_homology,
                      lambda k, support: hochster_field(k, 2, support=support)):
            with pytest.raises(ComplexError, match="exceed the ground set"):
                sweep(k, support=bad)
    with pytest.raises(ComplexError, match="exceed the ground set"):
        ch_restriction_morphism(k, [1, 9])
    # the two opposite vertices 1 and 3 of the square: two points
    assert hochster_cohomology(k, support=0b0101).invariants() == {
        (0, 0): (1, ()), (1, 2): (1, ())}


def _pentagon_plus_triangle():
    return SimplicialComplex.from_maximal_faces(
        5, [[1, 2, 3], [3, 4], [4, 5], [1, 5]])


def test_subcomplex_pushforward_kernel_is_generated_by_vertex_differences():
    ell = cycle(5)
    kay = _pentagon_plus_triangle()
    hd_src, hd_dst, matrices = ch_subcomplex_morphisms(ell, kay, side="homology")
    kernels = {}
    for b, mat in matrices.items():
        src_group = hd_src.layouts[b].group
        dst_layout = hd_dst.layouts.get(b)
        dst_group = dst_layout.group if dst_layout else PresentedGroup.free(0)
        mor = GroupMorphism(src_group, dst_group, mat)
        ker = kernel_subgroup(mor)
        if not ker.is_trivial():
            kernels[b] = ker
        # cokernel vanishes everywhere: the pushforward is onto
        coker = homology_of_pair(mor, GroupMorphism.zero(dst_group, PresentedGroup.free(0)))
        assert coker.is_trivial()
    assert {b: ker.invariants() for b, ker in kernels.items()} == {
        (1, 2): (1, ()), (2, 3): (2, ())}
    # the kernel class at (1,2) is the difference of the two chord endpoints
    layout = hd_src.layouts[(1, 2)]
    summand = next(s for s in layout.summands if s.mask == mask_of([1, 3]))
    basis = hd_src.cxs[summand.mask].basis(0)
    assert basis == [mask_of([1]), mask_of([3])]
    coords = summand.group.express([1, -1])
    ambient = [0] * layout.group.n_gens
    for i, c in enumerate(coords):
        ambient[summand.offset + i] = c
    gen = kernels[(1, 2)].gens.column(0)
    assert gen == ambient or gen == [-x for x in ambient]


def test_field_dimensions_match_integral_ranks_over_q():
    for k in (cycle(5), square_edge(), disjoint_points(4)):
        q_dims = double_field(k, "Q")
        integral = {b: r for b, (r, t) in double_cohomology(k).invariants().items() if r}
        assert q_dims == integral


def test_field_two_sees_rp2_torsion():
    dims = hochster_field(rp2_minimal(), 2).dims
    # mod 2 the torsion class appears on both adjacent degrees
    assert dims[(3, 6)] == 1
    assert dims[(4, 6)] == 1
    q_dims = hochster_field(rp2_minimal(), "Q").dims
    assert (3, 6) not in q_dims
    assert (4, 6) not in q_dims


def test_homology_side_field_matches_cohomology_side_field():
    for k in (cycle(4), two_triangles()):
        co = double_field(k, "Q", side="cohomology")
        ho = double_field(k, "Q", side="homology")
        assert co == ho


def test_double_field_reuses_a_decomposition_and_ranks_each_matrix_once(monkeypatch):
    k = cycle(6)
    for field in ("Q", 3):
        fh = hochster_field(k, field)
        n_matrices = sum(1 for mat in d_prime_field(fh).values() if mat)
        calls = []
        rank = FieldOps.rank
        monkeypatch.setattr(FieldOps, "rank", lambda ops, m: calls.append(m) or rank(ops, m))
        assert double_field(fh, field) == double_field(k, field)
        assert len(calls) == 2 * n_matrices
        monkeypatch.undo()
        with pytest.raises(ValueError):
            double_field(fh, field, side="homology")


def test_sweep_results_equal_a_direct_computation_for_every_subset():
    # the sweep computes each distinct subcomplex once and hands the result
    # to every subset with equal coboundary matrices
    relabelled = cycle(7).relabeled(dict(zip(range(1, 8), (4, 7, 1, 6, 2, 5, 3))))
    cases = [relabelled, rp2_minimal(), join(cycle(4), cycle(4)),
             random_complex(random.Random(17), 7)]
    for k in cases:
        for decompose, direct in ((hochster_cohomology, cohomology),
                                  (hochster_homology, homology)):
            hd = decompose(k)
            assert len(hd.cohs) == 1 << k.m
            for mask, coh in hd.cohs.items():
                expected = direct(reduced_complex(k, mask))
                assert coh.degrees() == expected.degrees()
                for p in expected.degrees():
                    assert coh.group(p).orders == expected.group(p).orders
                    assert coh.group(p).gens.rows == expected.group(p).gens.rows
        fh = hochster_field(k, "Q")
        for mask, coh in fh.cohs.items():
            expected = FieldComplexCohomology(reduced_complex(k, mask), fh.ops)
            assert coh.degrees() == expected.degrees()
            for p in expected.degrees():
                assert coh.group(p).reps == expected.group(p).reps


def test_sweep_shares_results_between_repeated_subcomplexes():
    hd = hochster_cohomology(cycle(8))
    assert len({id(coh) for coh in hd.cohs.values()}) < len(hd.cohs)
