"""Acceptance suite: one test per headline guarantee.

Each test exercises one of the computations or structural theorems the
package is built around, end to end and in exact arithmetic.  The tables
of the worked examples are read from macoh.verification, the one store of
them, whose checks tests/test_verification.py runs one by one.  Run

    pytest -v tests/test_acceptance.py

to get one pass or fail line per guarantee.
"""

import itertools
import math
import random
import time

from macoh import complexes
from macoh import hochster
from macoh import koszul
from macoh.linalg import smith_normal_form
from macoh.verification import (
    FOUR_CYCLE_HH,
    PENTAGON_H,
    RP2_H,
    SQUARE_EDGE_H,
    TWO_SQUARES_H,
    TWO_TRIANGLES_H,
)

Z = (1, ())
RANK_TWO_DOUBLE = {(0, 0): Z, (1, 2): Z}


def _fuzz_corpus():
    rng = random.Random(10)
    return [complexes.random_complex(rng, rng.randint(1, 6)) for _ in range(100)]


CORPUS = _fuzz_corpus()


def test_01_pentagon_tables_connecting_rank_and_double_cohomology():
    k = complexes.cycle(5)
    hd = hochster.hochster_cohomology(k)
    assert hd.invariants() == PENTAGON_H
    connecting = hochster.d_prime(hd)[(2, 3)].matrix
    assert len(smith_normal_form(connecting).divisors) == 4
    dd = hochster.double_cohomology(k)
    assert dd.invariants() == {b: Z for b in PENTAGON_H}


def test_02_cycle_double_cohomology_through_nine_vertices():
    # m = 4-7 are the stored check "cycles double cohomology"
    for m in (8, 9):
        started = time.monotonic()
        dd = hochster.double_cohomology(complexes.cycle(m))
        assert dd.invariants() == {(0, 0): Z, (1, 2): Z, (m - 3, m - 2): Z, (m - 2, m): Z}
        assert time.monotonic() - started < 60.0


def test_03_projective_plane_integral_tables():
    k = complexes.rp2_minimal()
    assert hochster.hochster_cohomology(k).invariants() == RP2_H
    inv = hochster.double_cohomology(k).invariants()
    assert inv[(0, 0)] == Z
    assert inv[(3, 6)] == (0, (2,))
    hom = hochster.double_homology(k).invariants()
    assert (3, 6) not in hom
    assert (4, 6) not in hom


def test_04_disjoint_points_tables_and_binomial_identity():
    for m in range(3, 8):
        k = complexes.disjoint_points(m)
        hd = hochster.hochster_cohomology(k)
        expected = {(0, 0): Z}
        for q in range(2, m + 1):
            expected[(q - 1, q)] = ((q - 1) * math.comb(m, q), ())
        assert hd.invariants() == expected
        dd = hochster.double_cohomology(k)
        assert dd.invariants() == RANK_TWO_DOUBLE
        # the Euler characteristic of H vanishes, which is exactly the
        # binomial identity sum_q (-1)^q (q-1) C(m,q) = 1
        table_euler = sum((-1) ** (kk & 1) * rank
                          for (kk, l), (rank, _) in hd.invariants().items())
        assert table_euler == dd.euler_characteristic() == 0
        assert sum((-1) ** (q & 1) * (q - 1) * math.comb(m, q)
                   for q in range(1, m + 1)) == 1


def test_05_boundary_simplices_double_cohomology():
    for m in range(2, 8):
        dd = hochster.double_cohomology(complexes.boundary_simplex(m))
        assert dd.invariants() == {(0, 0): Z, (1, m): Z}


def test_06_surgery_yields_rank_two_double_cohomology():
    rng = random.Random(6)
    non_simplex = 0
    for _ in range(200):
        k = complexes.random_surgery(rng, m_cap=7)
        if k.is_simplex():
            continue
        non_simplex += 1
        assert hochster.double_cohomology(k).invariants() == RANK_TWO_DOUBLE, k
    assert non_simplex >= 100


def test_07_flag_chordal_equivalence_and_rank_two():
    memo = {}
    for m in range(1, 7):
        edge_bits = len(complexes.graph_edge_pairs(m))
        labeled_chordal = sum(complexes.graph_is_chordal(m, g)
                              for g in range(1 << edge_bits))
        counted = 0
        for rep, orbit_size in complexes.graph_isomorphism_classes(m):
            k = complexes.clique_complex(m, rep)
            assert k.is_flag()
            chordal = complexes.graph_is_chordal(m, rep)
            assert k.is_chordal_skeleton()[0] == chordal
            assert complexes.is_attachment_reachable(k, memo) == chordal
            if chordal:
                counted += orbit_size
                if not k.is_simplex():
                    inv = hochster.double_cohomology(k).invariants()
                    assert inv == RANK_TWO_DOUBLE, k
        assert counted == labeled_chordal


def _convolve(a, b):
    out = {}
    for (k1, l1), d1 in a.items():
        for (k2, l2), d2 in b.items():
            key = (k1 + k2, l1 + l2)
            out[key] = out.get(key, 0) + d1 * d2
    return out


def test_08_join_dimensions_convolve_over_q():
    members = [(name, k) for name, k in complexes.zoo() if k.m <= 5]
    pairs = [(a, b) for a, b in itertools.combinations_with_replacement(members, 2)
             if a[1].m + b[1].m <= 8]
    pairs.sort(key=lambda p: (p[0][1].m + p[1][1].m, p[0][0], p[1][0]))
    assert len(pairs) >= 20
    factor_dims = {name: hochster.double_field(k, "Q") for name, k in members}
    for (name1, k1), (name2, k2) in pairs[:20]:
        joined = complexes.join(k1, k2)
        dims = hochster.double_field(joined, "Q")
        assert dims == _convolve(factor_dims[name1], factor_dims[name2]), (name1, name2)

    s0 = complexes.disjoint_points(2)
    square = complexes.join(s0, s0)
    assert square.relabeled({1: 1, 2: 3, 3: 2, 4: 4}) == complexes.cycle(4)
    dims = hochster.double_field(square, "Q")
    assert dims == {b: r for b, (r, _) in FOUR_CYCLE_HH.items()}
    assert sum(dims.values()) == 4


def test_09_pipelines_agree_and_the_bijection_commutes():
    # the zoo is the stored check "pipeline agreement on the zoo"
    for k in CORPUS:
        rc = koszul.RComplex(k)
        double_koszul = koszul.hh_via_koszul(rc)
        dd = hochster.double_cohomology(k)
        assert double_koszul.kc.invariants() == dd.decomposition.invariants(), k
        assert double_koszul.invariants() == dd.invariants(), k
    # the basis bijection is checked against both differentials on every
    # bidegree inside hochster_koszul_iso, which raises on any mismatch
    assert koszul.hochster_koszul_iso(complexes.rp2_minimal())
    assert koszul.hochster_koszul_iso(complexes.cycle(5))


def test_10_bicomplex_identities_hold_on_fuzzed_complexes():
    # the zoo is test_koszul.py::test_bicomplex_identities_on_zoo
    for k in CORPUS:
        koszul.RComplex(k).check_identities()


def test_11_second_differential_acyclicity():
    for _, k in complexes.zoo():
        if k.is_simplex():
            continue
        _, groups = koszul.d_prime_acyclicity(k)
        assert groups == {}
    for m in range(2, 6):
        rc, groups = koszul.d_prime_acyclicity(complexes.simplex(m))
        assert list(groups) == [(0, m)]
        sq = groups[(0, m)]
        assert sq.invariants() == Z
        full = complexes.mask_of(range(1, m + 1))
        position = rc.basis((0, m)).index((0, full))
        coords = sq.express([1 if i == position else 0
                             for i in range(rc.dim((0, m)))])
        assert coords in ([1], [-1])


def test_12_euler_characteristic_and_even_rank():
    for _, k in complexes.zoo():
        dd = hochster.double_cohomology(k)
        if k.is_simplex():
            assert dd.euler_characteristic() == 1
            assert dd.total_rank() == 1
        else:
            assert dd.euler_characteristic() == 0
            assert dd.total_rank() % 2 == 0
    for k in CORPUS[:30]:
        dd = hochster.double_cohomology(k)
        if k.is_simplex():
            assert dd.euler_characteristic() == 1
        else:
            assert dd.euler_characteristic() == 0
            assert dd.total_rank() % 2 == 0


def test_13_pendant_square_glued_triangles_glued_squares_tables():
    cases = [(complexes.square_edge(), SQUARE_EDGE_H),
             (complexes.two_triangles(), TWO_TRIANGLES_H),
             (complexes.two_squares(), TWO_SQUARES_H)]
    for k, table in cases:
        assert hochster.hochster_cohomology(k).invariants() == table
        assert hochster.double_cohomology(k).invariants() == RANK_TWO_DOUBLE


def test_14_top_classes_survive_and_poincare_duality():
    # a top class of H~^p(K) restricts to zero on every K - v; the top
    # classes are HH at (m - p - 1, m), where nothing maps in and d' stacks
    # those restrictions.  (degree, invariants) of each survivor:
    survivors = [(complexes.boundary_simplex(m), m - 2, (1, ())) for m in range(2, 7)]
    survivors.append((complexes.rp2_minimal(), 2, (0, (2,))))
    for k, degree, invariants in survivors:
        dd = hochster.double_cohomology(k)
        tops = {b: inv for b, inv in dd.invariants().items() if b[1] == k.m}
        b = (k.m - degree - 1, k.m)
        assert tops == {b: invariants}
        # each generator is a nonzero class of H~^p(K), the one summand at b
        group = dd.group(b)
        assert not dd.decomposition.layouts[b].group.is_zero(group.gens)
        assert not any(group.class_is_zero(group.gens.column(j)) for j in range(group.n_gens))

    duals = [complexes.boundary_simplex(m) for m in range(2, 7)]
    duals.extend(complexes.cycle(m) for m in range(4, 8))
    for k in duals:
        dims = hochster.double_field(k, "Q")
        top_k = max(kk for kk, l in dims if l == k.m)
        assert all(dims.get((top_k - kk, k.m - l)) == d
                   for (kk, l), d in dims.items()), k
