"""Bigraded cohomology via subsets, connecting differential, double groups."""

import random

import pytest
from dense_oracle import kernel_subgroup, scaled
from hypothesis import given, settings
from hypothesis import strategies as st

from macoh import hochster
from macoh.complexes import (
    SimplicialComplex,
    boundary_simplex,
    cycle,
    disjoint_points,
    join,
    mask_of,
    random_complex,
    rp2_minimal,
    sign_eps,
    simplex,
    square_edge,
    two_squares,
    two_triangles,
    vertices_of,
    zoo,
)
from macoh.errors import VerificationError
from macoh.hochster import (
    _connecting,
    d_prime,
    double_cohomology,
    double_field,
    double_homology,
    hochster_cohomology,
    hochster_field,
    hochster_homology,
)
from macoh.homology import (
    FaceBases,
    FieldComplexCohomology,
    cohomology,
    homology,
    induced_map,
    inclusion_matrix,
    reduced_complex,
    restriction_matrix,
)
from macoh.linalg import (
    FieldOps,
    GroupMorphism,
    IntMatrix,
    LinalgError,
    PresentedGroup,
    homology_of_pair,
    smith_normal_form,
)
from macoh.verification import (
    DOUBLE_Z2,
    FOUR_CYCLE_HH,
    PENTAGON_H,
    RP2_H,
    SQUARE_EDGE_H,
    TWO_SQUARES_H,
    TWO_TRIANGLES_H,
)

# bidegrees are keyed (k, l); the display bidegree is (-k, 2l).  The paper's
# tables are stored once, in macoh.verification.


def test_pentagon_connecting_map_is_rank_four_onto_summand():
    hd = hochster_cohomology(cycle(5))
    mor = d_prime(hd)[(2, 3)]
    assert mor.matrix.shape == (5, 5)
    dec = smith_normal_form(mor.matrix)
    assert dec.divisors == (1, 1, 1, 1)


def test_pentagon_double_cohomology():
    hh = double_cohomology(cycle(5))
    assert hh.invariants() == {b: (1, ()) for b in PENTAGON_H}
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
        assert hh.invariants() == DOUBLE_Z2


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
            expected = {b: r for b, (r, _) in FOUR_CYCLE_HH.items()}
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
        double_cohomology(rp2_minimal(), sign_fault=True)


@pytest.mark.parametrize("complex_, side, displayed", [
    (rp2_minimal, double_cohomology, "(-3, 10)"),
    (rp2_minimal, double_homology, "(-1, 6)"),
    (two_squares, double_cohomology, "(-3, 8)"),
    (two_squares, double_homology, "(-1, 4)"),
])
def test_sign_fault_names_the_displayed_bidegree(complex_, side, displayed):
    message = f"connecting differential does not square to zero at bidegree {displayed}"
    with pytest.raises(VerificationError) as caught:
        side(complex_(), sign_fault=True)
    assert str(caught.value) == message


@pytest.mark.parametrize("field", ["Q", 3])
@pytest.mark.parametrize("complex_, side, displayed", [
    (rp2_minimal, "cohomology", "(-3, 10)"),
    (rp2_minimal, "homology", "(-1, 6)"),
    (two_squares, "cohomology", "(-3, 8)"),
    (two_squares, "homology", "(-1, 4)"),
])
def test_sign_fault_over_a_field_names_the_integral_bidegree(monkeypatch, complex_, side,
                                                             displayed, field):
    # the displayed bidegrees are those of the integral path above
    real = hochster._connecting
    monkeypatch.setattr(hochster, "_connecting",
                        lambda hd, sign_fault=False: real(hd, sign_fault=True))
    message = f"connecting differential does not square to zero at bidegree {displayed}"
    with pytest.raises(VerificationError) as caught:
        double_field(complex_(), field, side)
    assert str(caught.value) == message


def _summand_block(hd, b, inside):
    """Generator indices of hd at b in the summands whose masks lie in inside."""
    layout = hd.layouts.get(b)
    return [s.offset + i for s in (layout.summands if layout else [])
            if s.mask & ~inside == 0 for i in range(s.group.n_gens)]


def test_full_subcomplex_inclusion_morphism():
    # d' of K_I is the block of d' of K on the summands whose subsets lie in
    # I, in ascending mask order, which the relabelling of I keeps
    k = SimplicialComplex.from_maximal_faces(6, [[1, 2, 6], [2, 3], [3, 4], [4, 5], [1, 5]])
    assert hochster_cohomology(k.full_subcomplex([1, 2, 3, 4, 5])).invariants() == PENTAGON_H
    # the two opposite vertices 1 and 3 of the square: two points
    assert hochster_cohomology(cycle(4).full_subcomplex(0b0101)).invariants() == {
        (0, 0): (1, ()), (1, 2): (1, ())}
    rng = random.Random(20)
    cases = [k for _, k in zoo()] + [random_complex(rng, rng.randint(2, 7)) for _ in range(20)]
    for k in cases:
        hd = hochster_cohomology(k)
        d = d_prime(hd)
        for _ in range(3):
            inside = rng.randrange(1, 1 << k.m)
            blocks = {}
            for (kk, l), mor in d.items():
                cols = _summand_block(hd, (kk, l), inside)
                if cols:
                    rows = _summand_block(hd, (kk - 1, l - 1), inside)
                    dense = mor.matrix.rows
                    blocks[(kk, l)] = IntMatrix([[dense[r][c] for c in cols] for r in rows],
                                                len(cols))
            sub = d_prime(hochster_cohomology(k.full_subcomplex(inside)))
            assert {b: mor.matrix for b, mor in sub.items()} == blocks, (k, inside)


def _pushforward(l_complex, k_complex):
    """The chain pushforward CH_*(Z_L) -> CH_*(Z_K) of a subcomplex L of K
    on the same vertex set: (hd_src, hd_dst, matrices keyed by source
    bidegree), after checking that it commutes with d'."""
    assert l_complex.m == k_complex.m
    assert all(k_complex.has_face(face) for face in l_complex.maximal_faces)
    hd_src, hd_dst = hochster_homology(l_complex), hochster_homology(k_complex)

    def pushed(summand, dst_index):
        # the faces of L_I are among those of K_I
        target = dst_index.get(summand.mask)
        if target is None:
            return []
        mask, p = summand.mask, summand.degree
        chain = inclusion_matrix(hd_src.cxs[mask], hd_dst.cxs[mask], p)
        return [(1, target, induced_map(hd_src.cohs[mask], hd_dst.cohs[mask], chain, p))]

    matrices = {b: hochster._assemble(layout, hd_dst.layouts.get(b), pushed)
                for b, layout in hd_src.layouts.items()}
    d_src, d_dst = d_prime(hd_src), d_prime(hd_dst)
    for (kk, l), mat in matrices.items():
        nxt = (kk + 1, l + 1)  # d' raises the bidegree on the homology side
        dst_next = hd_dst.layouts.get(nxt)
        if dst_next is None:
            continue
        zero = IntMatrix.zeros(dst_next.group.n_gens, mat.ncols)
        left = matrices[nxt] @ d_src[(kk, l)].matrix if nxt in matrices else zero
        right = d_dst[(kk, l)].matrix @ mat if (kk, l) in d_dst else zero
        assert dst_next.group.is_zero(left + scaled(right, -1)), (kk, l)
    return hd_src, hd_dst, matrices


def _pentagon_plus_triangle():
    return SimplicialComplex.from_maximal_faces(
        5, [[1, 2, 3], [3, 4], [4, 5], [1, 5]])


def test_subcomplex_pushforward_kernel_is_generated_by_vertex_differences():
    ell = cycle(5)
    kay = _pentagon_plus_triangle()
    hd_src, hd_dst, matrices = _pushforward(ell, kay)
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


@pytest.mark.parametrize("field", [None, "Q", 2, 3])
def test_double_groups_take_the_ring_of_a_reused_decomposition(field):
    k = rp2_minimal()
    for side, double in (("cohomology", double_cohomology), ("homology", double_homology)):
        hd = hochster_field(k, field, side)
        dd = double(hd)
        assert dd.decomposition is hd
        if field is None:
            assert dd.invariants() == double(k).invariants()
        else:
            assert dd.invariants() == {b: (n, ()) for b, n in double_field(k, field, side).items()}
    with pytest.raises(ValueError, match="on the cohomology side, not the homology side"):
        double_homology(hochster_field(k, field))
    with pytest.raises(ValueError, match="needs Q or a prime"):
        double_field(k, None)  # generator counts over Z would drop the torsion orders


def test_an_unknown_side_is_rejected():
    with pytest.raises(ValueError, match="side must be"):
        hochster_field(rp2_minimal(), 2, side="Cohomology")
    with pytest.raises(ValueError, match="side must be"):
        double_field(cycle(4), "Q", side="cohomolgy")


def test_double_field_reuses_a_decomposition_and_ranks_each_matrix_once(monkeypatch):
    # the sweep ranks its (co)boundaries through FieldOps.rank as well, so
    # only the calls on the d' matrices that _connecting hands out count
    k = cycle(6)
    for field in ("Q", 3):
        fh = hochster_field(k, field)
        n_matrices = sum(1 for mat in _connecting(fh).values() if mat.nrows)
        sweeps, d_primes, ranked, eliminated = [], [], [], []

        def record(wrapped, calls):
            return lambda *args: calls.append(args[-1]) or wrapped(*args)

        def connecting(hd, sign_fault=False, real=hochster._connecting):
            out = real(hd, sign_fault)
            d_primes.extend(out.values())
            return out

        monkeypatch.setattr(hochster, "_sweep", record(hochster._sweep, sweeps))
        monkeypatch.setattr(hochster, "_connecting", connecting)
        monkeypatch.setattr(FieldOps, "rank", record(FieldOps.rank, ranked))
        monkeypatch.setattr(FieldOps, "_rank", record(FieldOps._rank, eliminated))
        reused = double_field(fh, field)
        assert not sweeps and len(d_primes) == len(fh.layouts)
        assert reused == double_field(k, field)
        assert len(sweeps) == 1 and len(d_primes) == 2 * len(fh.layouts)
        # the sweep eliminates each (co)boundary once, though it is read at two degrees
        assert len({id(m) for m in eliminated}) == len(eliminated)
        # each d' matrix is ranked as the outgoing map at one spot and as the
        # incoming one at the next, and each one with rows is eliminated once
        with_rows = sorted(id(mat) for mat in d_primes if mat.nrows)
        assert len(with_rows) == 2 * n_matrices
        assert {id(m) for m in ranked if any(m is d for d in d_primes)} >= set(with_rows)
        assert sorted(id(m) for m in eliminated
                      if m.nrows and any(m is d for d in d_primes)) == with_rows
        monkeypatch.undo()
        with pytest.raises(ValueError):
            double_field(fh, field, side="homology")


def test_sweep_results_equal_a_direct_computation_for_every_subset():
    # the sweep computes each distinct subcomplex once and hands the result
    # to every subset whose full subcomplex relabels onto it
    # and reads the groups of a subset whose highest vertex is isolated or
    # coned off from the smaller subset; reading gens builds its own complex
    relabelled = cycle(7).relabeled(dict(zip(range(1, 8), (4, 7, 1, 6, 2, 5, 3))))
    cases = [relabelled, rp2_minimal(), join(cycle(4), cycle(4)),
             random_complex(random.Random(17), 7), disjoint_points(6), boundary_simplex(6)]
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
        for field in ("Q", 2):
            fh = hochster_field(k, field)
            for mask, coh in fh.cohs.items():
                expected = FieldComplexCohomology(reduced_complex(k, mask), fh.ops)
                assert coh.degrees() == expected.degrees()
                for p in expected.degrees():
                    assert coh.group(p).orders == expected.group(p).orders
                    assert coh.group(p).gens == expected.group(p).gens


def test_the_sweep_builds_no_complex_where_the_new_vertex_is_isolated_or_coned_off(
        monkeypatch):
    built = []
    monkeypatch.setattr(hochster, "reduced_complex",
                        lambda *args: built.append(args[1]) or reduced_complex(*args))
    # points: only the empty set and one point; cycle(8): 29 of its 80 classes
    for k, n_built, n_classes in ((disjoint_points(6), 2, 7), (cycle(8), 29, 80)):
        del built[:]
        hd = hochster_cohomology(k)
        assert (len(built), len(set(hd.classes.values()))) == (n_built, n_classes)
    # d' then builds the read-off classes that it reads, each once: 40 of 51
    del built[:]
    double_cohomology(cycle(8))
    assert len(built) == len(set(built)) == 69


def test_read_off_groups_that_disagree_with_their_built_complex_raise(monkeypatch):
    real = hochster.read_off_cohomology

    def one_more_generator(orders, build):
        return real({**orders, 0: orders.get(0, ()) + (0,)}, build)

    monkeypatch.setattr(hochster, "read_off_cohomology", one_more_generator)
    with pytest.raises(LinalgError, match="groups read off a smaller subset"):
        double_cohomology(cycle(6))


def test_sweep_shares_results_between_repeated_subcomplexes():
    hd = hochster_cohomology(cycle(8))
    assert len({id(coh) for coh in hd.cohs.values()}) < len(hd.cohs)


def test_the_sweep_keeps_bases_and_no_coboundary_matrix():
    k = cycle(8)
    for hd in (hochster_cohomology(k), hochster_homology(k), hochster_field(k, 2)):
        assert len(hd.cxs) == 1 << k.m
        for mask, cx in hd.cxs.items():
            # a FaceBases has the fields support and bases only, and no coboundary
            assert type(cx) is FaceBases and not hasattr(cx, "coboundary")
            assert vars(cx) == {"support": mask, "bases": k.faces_within(mask)}


def _relabelled_faces(bases):
    """Oracle class key of one subset, read off all of its faces: (number
    of vertices, the faces with two or more vertices in basis order, each
    relabelled so that the i-th smallest vertex becomes bit i)."""
    bit = {v: 1 << i for i, v in enumerate(bases[1])} if len(bases) > 1 else {}
    out = []
    for group in bases[2:]:
        for face in group:
            out.append(sum(bit[1 << (v - 1)] for v in vertices_of(face)))
    return len(bit), tuple(out)


def _check_sweep_against_the_oracle(hd):
    """The incremental sweep of hd has the bases of faces_within and the
    classes, with their indices, of a relabelled-faces key; and one
    (co)homology object per class."""
    k = hd.complex
    masks = list(range(1 << k.m))
    assert sorted(hd.cxs) == masks == sorted(hd.classes)
    oracle = {}  # relabelled faces -> class index, in order of first appearance
    for mask in masks:
        faces = k.faces_within(mask)
        assert hd.cxs[mask].bases == faces, mask
        assert hd.classes[mask] == oracle.setdefault(_relabelled_faces(faces), len(oracle)), mask
    shared = {}
    for mask in masks:
        assert shared.setdefault(hd.classes[mask], hd.cohs[mask]) is hd.cohs[mask]
    assert len({id(coh) for coh in shared.values()}) == len(oracle)


@st.composite
def full_subcomplexes(draw):
    m = draw(st.sampled_from(range(8, 0, -1)))  # hypothesis favours the first: m = 8
    faces = draw(st.lists(st.integers(1, (1 << m) - 1), max_size=2 * m))
    k = SimplicialComplex.from_maximal_faces(m, faces)
    dropped = draw(st.sets(st.integers(0, m - 1), max_size=2))  # K, or a proper K_I
    return k.full_subcomplex(k.full_mask() & ~sum(1 << i for i in dropped))


@settings(derandomize=True, deadline=None, max_examples=60)
@given(full_subcomplexes(), st.sampled_from(["cohomology", "homology"]),
       st.sampled_from([None, 2]))
def test_the_incremental_sweep_equals_faces_within_and_relabelled_classes(k, side, field):
    _check_sweep_against_the_oracle(hochster._decompose(k, side, field))


@pytest.mark.parametrize("field", [None, 2], ids=["Z", "F_2"])
@pytest.mark.parametrize("side", ["cohomology", "homology"])
def test_the_sweep_of_the_zoo_reads_no_face_list_of_k(monkeypatch, side, field):
    def refused(k, support_mask):
        raise AssertionError("the sweep scanned the faces of K for one subset")

    cases = []
    for _, k in zoo() + [("cycle:8", cycle(8))]:
        cases += [k, k.full_subcomplex(k.full_mask() & ~(1 << (k.m // 2)))]  # K and a proper K_I
    monkeypatch.setattr(SimplicialComplex, "faces_within", refused)
    hds = [hochster._decompose(k, side, field) for k in cases]
    monkeypatch.undo()
    for hd in hds:
        _check_sweep_against_the_oracle(hd)


def _dprime_block_by_block(hd):
    """(d' of hd per source bidegree, number of blocks), with one
    induced_map call for every vertex move of every summand: the
    assembly that _moves memoises."""
    cohomology_side = hd.side == "cohomology"
    step = -1 if cohomology_side else 1
    out = {}
    n_blocks = 0
    for (kk, l), layout in hd.layouts.items():
        dst = hd.layouts.get((kk + step, l + step))
        dst_index = {s.mask: s for s in dst.summands} if dst else {}
        entries = []
        for s in layout.summands:
            mask, p = s.mask, s.degree
            if cohomology_side:
                moves = [(v, mask & ~(1 << (v - 1))) for v in vertices_of(mask)]
            else:
                moves = [(v, mask | (1 << (v - 1))) for v in vertices_of(hd.support & ~mask)]
            for v, other in moves:
                target = dst_index.get(other)
                if target is None:
                    continue
                sign = sign_eps(v, mask) * (-1) ** (p + 1)
                chain = (restriction_matrix(hd.cxs[mask], hd.cxs[other], p) if cohomology_side
                         else inclusion_matrix(hd.cxs[mask], hd.cxs[other], p))
                block = induced_map(hd.cohs[mask], hd.cohs[other], chain, p)
                n_blocks += 1
                entries.extend((target.offset + r, s.offset + c, sign * x)
                               for r, c, x in block.entries())
        out[(kk, l)] = IntMatrix.from_entries(dst.group.n_gens if dst else 0,
                                              layout.group.n_gens, entries)
    return out, n_blocks


@pytest.mark.parametrize("field", [None, 2], ids=["Z", "F_2"])
@pytest.mark.parametrize("side", ["cohomology", "homology"])
def test_memoised_dprime_equals_the_block_by_block_assembly(monkeypatch, side, field):
    calls = []
    monkeypatch.setattr(hochster, "induced_map",
                        lambda *args: calls.append(1) or induced_map(*args))
    # a square, an edge and a point: subsets with classes in degrees 0 and 1
    # both, whose blocks differ in shape
    apart = SimplicialComplex.from_maximal_faces(7, [[1, 2], [2, 3], [3, 4], [1, 4], [5, 6]])
    for name, k in zoo() + [("square|edge|point", apart), ("cycle:8", cycle(8))]:
        hd = hochster._decompose(k, side, field)
        # one class index per (co)homology object of the sweep
        assert (len(set(hd.classes.values())) == len({id(c) for c in hd.cohs.values()})
                == len({(hd.classes[mask], id(c)) for mask, c in hd.cohs.items()})), name
        del calls[:]
        memoised = _connecting(hd)
        expected, n_blocks = _dprime_block_by_block(hd)
        assert memoised == expected, name
    # the 672 blocks of cycle:8 fall into 228 classes, on either side
    assert (len(calls), n_blocks) == (228, 672)
