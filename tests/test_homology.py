"""Reduced cohomology of full subcomplexes: oracles and invariants."""

import random
from functools import partial

from dense_oracle import (
    DenseMatrix,
    coboundaries_by_column_scan,
    inclusion_matrix,
    induced_by_chain,
    kernel_subgroup,
    restriction_matrix,
)
from hypothesis import given, settings
from hypothesis import strategies as st
from macoh.complexes import (
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
    zoo,
)
from macoh.hochster import double_cohomology
from macoh.homology import (
    FieldComplexCohomology,
    cohomology,
    face_positions,
    homology,
    induced_map,
    reduced_complex,
)
from macoh.linalg import FieldOps, GroupMorphism, IntMatrix, PresentedGroup


def uct_consistency(cx):
    """Universal coefficients: in each degree p the cohomology rank equals
    the homology rank, and the cohomology torsion equals the homology
    torsion one degree down."""
    co = cohomology(cx)
    ho = homology(cx)
    for p in set(co.degrees()) | set(ho.degrees()):
        assert co.invariants(p) == (ho.invariants(p)[0], ho.invariants(p - 1)[1]), p
    return True


def _coh(k, support=None):
    return cohomology(reduced_complex(k, support))


def test_empty_support_has_reduced_h_minus_one():
    co = _coh(cycle(4), support=0)
    assert co.invariants(-1) == (1, ())
    assert co.degrees() == [-1]


def test_single_vertex_is_acyclic():
    co = _coh(cycle(4), support=mask_of([2]))
    assert co.degrees() == []


def test_boundary_simplex_is_a_sphere():
    for m in range(2, 6):
        co = _coh(boundary_simplex(m))
        assert co.degrees() == [m - 2]
        assert co.invariants(m - 2) == (1, ())


def test_cycle_is_a_circle():
    for m in range(3, 7):
        co = _coh(cycle(m))
        assert co.degrees() == [1]
        assert co.invariants(1) == (1, ())


def test_disjoint_points():
    for m in range(2, 6):
        co = _coh(disjoint_points(m))
        assert co.invariants(0) == (m - 1, ())


def test_rp2_integral_cohomology_and_homology():
    k = rp2_minimal()
    cx = reduced_complex(k)
    co = cohomology(cx)
    assert co.invariants(1) == (0, ())
    assert co.invariants(2) == (0, (2,))
    ho = homology(cx)
    assert ho.invariants(1) == (0, (2,))
    assert ho.invariants(2) == (0, ())
    assert uct_consistency(cx)


def test_cones_are_acyclic():
    for base in (cycle(4), rp2_minimal(), disjoint_points(3)):
        cone = join(base, simplex(1))
        co = _coh(cone)
        assert co.degrees() == []


def test_coboundary_squares_to_zero():
    rng = random.Random(2)
    for _ in range(15):
        k = random_complex(rng, rng.randint(1, 6))
        cx = reduced_complex(k)
        for p in range(-1, len(cx.bases) - 1):
            comp = cx.coboundary(p + 1) @ cx.coboundary(p)
            assert comp.is_zero()


def _check_coboundaries_against_the_column_scan(k):
    for mask in range(1 << k.m):
        got = reduced_complex(k, mask).coboundaries
        want = coboundaries_by_column_scan(k, mask)
        assert [m.shape for m in got] == [m.shape for m in want], mask
        assert [DenseMatrix.of(m).rows for m in got] == [m.rows for m in want], mask


@settings(derandomize=True, deadline=None, max_examples=40)
@given(st.integers(0, 7).flatmap(lambda m: st.tuples(
    st.just(m), st.lists(st.integers(1, max(1, (1 << m) - 1)), max_size=2 * m))))
def test_facet_built_coboundaries_equal_the_column_scan(m_and_faces):
    # every subset of a random complex: the rows built from facets are the
    # columns built by scanning the vertices outside each face, entry by entry
    m, faces = m_and_faces
    _check_coboundaries_against_the_column_scan(
        SimplicialComplex.from_maximal_faces(m, faces if m else []))


def test_facet_built_coboundaries_equal_the_column_scan_on_the_zoo():
    for _, k in zoo():
        _check_coboundaries_against_the_column_scan(k)


def test_representatives_are_cocycles_with_nonzero_classes():
    for k in (cycle(5), rp2_minimal(), two_squares()):
        cx = reduced_complex(k)
        co = cohomology(cx)
        for p in co.degrees():
            sq = co.group(p)
            d = cx.coboundary(p)
            for j in range(sq.n_gens):
                rep = sq.gens.column(j)
                assert all(x == 0 for x in d.mulvec(rep))
                assert not sq.class_is_zero(rep)
            # coboundaries express to zero
            d_in = cx.coboundary(p - 1)
            for j in range(d_in.ncols):
                assert sq.class_is_zero(d_in.column(j))


def test_restriction_commutes_with_coboundary():
    rng = random.Random(3)
    for _ in range(10):
        k = random_complex(rng, rng.randint(2, 6))
        full = k.full_mask()
        drop = rng.randint(1, k.m)
        sub = full & ~(1 << (drop - 1))
        cx_big = reduced_complex(k, full)
        cx_small = reduced_complex(k, sub)
        for p in range(-1, len(cx_big.bases) - 1):
            left = restriction_matrix(cx_big.bases, cx_small.bases, p + 1) @ cx_big.coboundary(p)
            right = cx_small.coboundary(p) @ restriction_matrix(cx_big.bases, cx_small.bases, p)
            assert left == right


def test_inclusion_commutes_with_boundary():
    rng = random.Random(4)
    for _ in range(10):
        k = random_complex(rng, rng.randint(2, 6))
        full = k.full_mask()
        drop = rng.randint(1, k.m)
        sub = full & ~(1 << (drop - 1))
        cx_big = reduced_complex(k, full)
        cx_small = reduced_complex(k, sub)
        for p in range(0, len(cx_big.bases) - 1):
            left = inclusion_matrix(cx_small.bases, cx_big.bases, p - 1) @ cx_small.boundary(p)
            right = cx_big.boundary(p) @ inclusion_matrix(cx_small.bases, cx_big.bases, p)
            assert left == right


def test_restrictions_compose():
    k = rp2_minimal()
    full = k.full_mask()
    mid = full & ~mask_of([6])
    small = mid & ~mask_of([4])
    cx_full = reduced_complex(k, full)
    cx_mid = reduced_complex(k, mid)
    cx_small = reduced_complex(k, small)
    for p in range(0, 3):
        direct = restriction_matrix(cx_full.bases, cx_small.bases, p)
        via = restriction_matrix(cx_mid.bases, cx_small.bases, p) @ restriction_matrix(
            cx_full.bases, cx_mid.bases, p)
        assert direct == via


def test_face_positions_gather_what_the_chain_matrices_map():
    # restriction K -> K - v and inclusion K - v -> K, over Z and F_3: the
    # gather is the 0/1 chain matrix, and induced_map the class map it induces
    rng = random.Random(8)
    cases = [k for _, k in zoo()] + [random_complex(rng, rng.randint(2, 7)) for _ in range(12)]
    f3 = FieldOps(3)
    for k in cases:
        full = k.full_mask()
        cx_big = reduced_complex(k, full)
        for v in range(k.m):
            cx_small = reduced_complex(k, full & ~(1 << v))
            for side, compute in (("cohomology", cohomology), ("homology", homology),
                                  ("cohomology", partial(FieldComplexCohomology, ops=f3))):
                if side == "cohomology":
                    src, dst, chain_matrix = cx_big, cx_small, restriction_matrix
                else:
                    src, dst, chain_matrix = cx_small, cx_big, inclusion_matrix
                src_coh, dst_coh = compute(src), compute(dst)
                for p in range(-1, len(cx_big.bases) - 1):
                    positions = face_positions(src.bases, dst.bases, p)
                    chain = chain_matrix(src.bases, dst.bases, p)
                    assert IntMatrix.identity(chain.ncols).rows_at(positions) == chain
                    assert (induced_map(src_coh, dst_coh, positions, p)
                            == induced_by_chain(src_coh, dst_coh, chain, p)), (k, v, side, p)


def test_universal_coefficients_on_random_complexes():
    rng = random.Random(5)
    for _ in range(12):
        k = random_complex(rng, rng.randint(1, 6))
        assert uct_consistency(reduced_complex(k))


def _top_classes(k):
    """(degree, order, coords, cocycle) per generator of HH at l = m, by
    ascending degree; coords are in the generators of H~^degree(K), the one
    summand at l = m, and cocycle represents the class.  These are the top
    classes, those of H~*(K) that restrict to zero on every K - v: nothing
    maps into l = m, and d' out of it stacks those restrictions."""
    hh = double_cohomology(k)
    out = []
    for kk, l in hh.bidegrees():
        if l == k.m:
            group = hh.group((kk, l))
            (summand,) = hh.decomposition.layouts[(kk, l)].summands
            for j, order in enumerate(group.orders):
                coords = group.gens.column(j)
                out.append((k.m - kk - 1, order, coords, summand.group.gens.mulvec(coords)))
    return sorted(out, key=lambda top: top[0])


def test_top_classes_of_spheres():
    for m in range(2, 6):
        found = _top_classes(boundary_simplex(m))
        assert len(found) == 1
        degree, order, coords, cocycle = found[0]
        assert degree == m - 2
        assert order == 0
        assert any(coords)
        assert any(cocycle)


def test_top_classes_of_rp2():
    found = _top_classes(rp2_minimal())
    assert [(d, o) for d, o, _, _ in found] == [(2, 2)]


def test_top_classes_of_two_points():
    found = _top_classes(disjoint_points(2))
    assert [(d, o) for d, o, _, _ in found] == [(0, 0)]


def test_cycle_top_class():
    found = _top_classes(cycle(5))
    assert [(d, o) for d, o, _, _ in found] == [(1, 0)]


def test_square_edge_has_no_top_classes():
    # its circle class survives restriction away from the pendant vertex
    assert _top_classes(square_edge()) == []
    # a circle disjoint from a 2-sphere: classes in degrees 0, 1 and 2,
    # none killed by every restriction
    k = SimplicialComplex.from_maximal_faces(
        7, [[1, 2], [2, 3], [1, 3], [4, 5, 6], [4, 5, 7], [4, 6, 7], [5, 6, 7]])
    assert _coh(k).degrees() == [0, 1, 2]
    assert _top_classes(k) == []


def test_top_classes_are_the_kernel_of_the_restrictions_to_each_k_minus_v():
    rng = random.Random(21)
    cases = [k for _, k in zoo()] + [random_complex(rng, rng.randint(2, 7)) for _ in range(30)]
    for k in cases:
        full = k.full_mask()
        cx = reduced_complex(k, full)
        coh = cohomology(cx)
        subs = [reduced_complex(k, full & ~(1 << v)) for v in range(k.m)]
        sub_cohs = [cohomology(sub) for sub in subs]
        kernels = {}
        for p in coh.degrees():
            # H~^p(K) -> the direct sum of H~^p(K - v), one block of rows per v
            orders, entries = [], []
            for sub, sub_coh in zip(subs, sub_cohs):
                chain = restriction_matrix(cx.bases, sub.bases, p)
                block = induced_by_chain(coh, sub_coh, chain, p)
                entries += [(len(orders) + r, c, x) for r, c, x in block.entries()]
                orders += sub_coh.group(p).orders if sub_coh.group(p) else []
            src = coh.group(p)
            stacked = IntMatrix.from_entries(len(orders), src.n_gens, entries)
            ker = kernel_subgroup(GroupMorphism(src, PresentedGroup(orders), stacked))
            if not ker.is_trivial():
                kernels[k.m - p - 1] = ker.invariants()
        hh = double_cohomology(k).invariants()
        assert {kk: inv for (kk, l), inv in hh.items() if l == k.m} == kernels, k
