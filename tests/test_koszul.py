"""Tests for the Koszul bicomplex pipeline.

The stored matrices and tables in this file were derived by hand from
the differential formulas and cross-checked against the subset-complex
pipeline, which is implemented independently.
"""

import random

import pytest

from macoh import complexes, hochster, koszul
from macoh.errors import VerificationError
from macoh.linalg import IntMatrix, SmithSolver, smith_normal_form

PENTAGON_H = {
    (0, 0): (1, ()),
    (1, 2): (5, ()),
    (2, 3): (5, ()),
    (3, 5): (1, ()),
}


def mask(*vertices):
    out = 0
    for v in vertices:
        out |= 1 << (v - 1)
    return out


def unit(n, i):
    vec = [0] * n
    vec[i] = 1
    return vec


def test_monomial_counts():
    k = complexes.cycle(4)
    rc = koszul.RComplex(k)
    total = sum(rc.dim(b) for b in rc.bidegrees)
    assert total == sum(2 ** (4 - f.bit_count()) for f in k.faces)
    assert rc.dim((1, 2)) == 12
    assert rc.dim((0, 0)) == 1
    assert rc.basis((0, 0)) == [(0, 0)]
    assert rc.dim((2, 4)) == 4


def test_bicomplex_identities_on_zoo():
    for name, k in complexes.zoo():
        assert koszul.RComplex(k).check_identities(), name


def test_bicomplex_identities_on_random_complexes():
    rng = random.Random(20260814)
    for _ in range(15):
        k = complexes.random_complex(rng, rng.randint(2, 6))
        assert koszul.RComplex(k).check_identities()


def test_pentagon_cohomology_table():
    kc = koszul.cohomology_via_koszul(complexes.cycle(5))
    assert kc.invariants() == PENTAGON_H


def test_pentagon_cochain_level_connecting_values():
    rc = koszul.RComplex(complexes.cycle(5))
    b = (2, 3)
    source = rc.index[b][(mask(4, 5), mask(2))]
    image = rc.dprime_matrix(b).column(source)
    target = rc.basis((1, 2))
    hits = {target[i]: c for i, c in enumerate(image) if c}
    assert hits == {(mask(5), mask(2)): 1, (mask(4), mask(2)): -1}


def test_pentagon_connecting_matrix_in_the_standard_class_basis():
    """The fixed cocycle bases of the two middle bidegrees turn the
    descended map into this exact matrix, Smith form diag(1, 1, 1, 1, 0)."""
    row_basis = [(1, (mask(1), mask(3))), (1, (mask(1), mask(4))),
                 (1, (mask(2), mask(4))), (1, (mask(2), mask(5))),
                 (1, (mask(3), mask(5)))]
    # the third column label writes its exterior factors as u5 u1, which
    # is minus the normalized monomial u1 u5 v3
    col_basis = [(1, (mask(4, 5), mask(2))), (1, (mask(2, 3), mask(5))),
                 (-1, (mask(1, 5), mask(3))), (1, (mask(3, 4), mask(1))),
                 (1, (mask(1, 2), mask(4)))]
    stated = IntMatrix([
        [0, 0, 1, -1, 0],
        [0, 0, 0, 1, -1],
        [-1, 0, 0, 0, 1],
        [1, -1, 0, 0, 0],
        [0, 1, -1, 0, 0],
    ], 5)

    kc = koszul.cohomology_via_koszul(complexes.cycle(5))
    rc = kc.rc
    low, high = kc.groups[(1, 2)], kc.groups[(2, 3)]
    p_cols = [low.express([s * v for v in unit(rc.dim((1, 2)),
                                               rc.index[(1, 2)][mon])])
              for s, mon in row_basis]
    q_cols = [high.express([s * v for v in unit(rc.dim((2, 3)),
                                                rc.index[(2, 3)][mon])])
              for s, mon in col_basis]
    p = IntMatrix.from_columns(p_cols, 5)
    q = IntMatrix.from_columns(q_cols, 5)

    descended = koszul._descend_dprime(kc)[(2, 3)].matrix
    assert descended @ q == p @ stated
    assert smith_normal_form(stated).divisors == (1, 1, 1, 1)


def test_pentagon_double_cohomology():
    kd = koszul.hh_via_koszul(complexes.cycle(5))
    assert kd.invariants() == {b: (1, ()) for b in PENTAGON_H}
    assert kd.total_rank() == 4
    assert kd.euler_characteristic() == 0


def test_projective_plane_agreement_with_subset_pipeline():
    k = complexes.rp2_minimal()
    kc = koszul.cohomology_via_koszul(k)
    assert kc.invariants() == hochster.hochster_cohomology(k).invariants()
    assert kc.invariants()[(3, 6)] == (0, (2,))
    kd = koszul.hh_via_koszul(k)
    assert kd.invariants() == hochster.double_cohomology(k).invariants()
    assert kd.invariants()[(3, 6)] == (0, (2,))


def test_boundary_simplex_generator():
    """For the boundary of a simplex the nonzero group away from (0, 0)
    sits in bidegree (1, m) and u_1 v_2 ... v_m generates it."""
    for m in (3, 4, 5):
        k = complexes.boundary_simplex(m)
        kc = koszul.cohomology_via_koszul(k)
        assert set(kc.invariants()) == {(0, 0), (1, m)}
        assert kc.invariants()[(1, m)] == (1, ())
        rc = kc.rc
        full = k.full_mask()
        mon = (1, full & ~1)
        coords = kc.groups[(1, m)].express(
            unit(rc.dim((1, m)), rc.index[(1, m)][mon]))
        assert coords in ([1], [-1])


def test_dprime_acyclic_away_from_the_full_simplex():
    for name, k in complexes.zoo():
        if k.is_simplex():
            continue
        _, groups = koszul.d_prime_acyclicity(k)
        assert groups == {}, name


def test_dprime_homology_of_a_simplex():
    for m in range(2, 6):
        k = complexes.simplex(m)
        rc, groups = koszul.d_prime_acyclicity(k)
        assert list(groups) == [(0, m)]
        sq = groups[(0, m)]
        assert sq.invariants() == (1, ())
        mon = (0, k.full_mask())
        coords = sq.express(unit(rc.dim((0, m)), rc.index[(0, m)][mon]))
        assert coords in ([1], [-1])


def test_iso_is_a_signed_permutation_and_commutes():
    for k in (complexes.cycle(5), complexes.rp2_minimal(),
              complexes.square_edge(), complexes.two_squares()):
        iso = koszul.hochster_koszul_iso(k)
        for b, mat in iso.items():
            assert mat.nrows == mat.ncols
            for j in range(mat.ncols):
                assert [x for x in mat.column(j) if x] in ([1], [-1])
            for row in mat.rows:
                assert [x for x in row if x] in ([1], [-1])


def test_iso_commutes_on_random_complexes():
    rng = random.Random(7)
    for _ in range(10):
        k = complexes.random_complex(rng, rng.randint(2, 6))
        koszul.hochster_koszul_iso(k)


def test_iso_detects_a_sign_error():
    """Flipping one entry of the bijection must break commutation."""
    k = complexes.cycle(4)
    iso = koszul.hochster_koszul_iso(k)
    assert iso, "sanity"
    original = koszul.sign_eps_set

    def faulty(lmask, imask):
        return 1

    koszul.sign_eps_set = faulty
    try:
        with pytest.raises(VerificationError):
            koszul.hochster_koszul_iso(k)
    finally:
        koszul.sign_eps_set = original


def test_pipelines_agree_on_the_zoo():
    for name, k in complexes.zoo():
        kc = koszul.cohomology_via_koszul(k)
        hc = hochster.hochster_cohomology(k)
        assert kc.invariants() == hc.invariants(), name
        kd = koszul.hh_via_koszul(k)
        hd = hochster.double_cohomology(k)
        assert kd.invariants() == hd.invariants(), name


def test_pipelines_agree_on_random_complexes():
    rng = random.Random(99)
    for _ in range(12):
        k = complexes.random_complex(rng, rng.randint(2, 6))
        assert (koszul.cohomology_via_koszul(k).invariants()
                == hochster.hochster_cohomology(k).invariants())
        assert (koszul.hh_via_koszul(k).invariants()
                == hochster.double_cohomology(k).invariants())


def test_product_is_graded_commutative_and_d_is_a_derivation():
    rng = random.Random(5)
    for _ in range(8):
        k = complexes.random_complex(rng, rng.randint(3, 5))
        rc = koszul.RComplex(k)
        bidegrees = [b for b in rc.bidegrees if rc.dim(b) <= 20]
        if len(bidegrees) < 2:
            continue
        b1, b2 = rng.sample(bidegrees, 2)
        x = [rng.randint(-2, 2) for _ in range(rc.dim(b1))]
        y = [rng.randint(-2, 2) for _ in range(rc.dim(b2))]
        target, xy = rc.multiply(b1, x, b2, y)
        _, yx = rc.multiply(b2, y, b1, x)
        comm = -1 if (b1[0] & 1) and (b2[0] & 1) else 1
        assert xy == [comm * v for v in yx]
        left = rc.d_matrix(target).mulvec(xy)
        dx = rc.d_matrix(b1).mulvec(x)
        dy = rc.d_matrix(b2).mulvec(y)
        t1, term1 = rc.multiply((b1[0] - 1, b1[1]), dx, b2, y)
        t2, term2 = rc.multiply(b1, x, (b2[0] - 1, b2[1]), dy)
        assert t1 == t2 == (target[0] - 1, target[1])
        sign = -1 if b1[0] & 1 else 1
        assert left == [a + sign * c for a, c in zip(term1, term2)]


def test_dprime_leibniz_defect_on_cocycles_is_a_coboundary():
    """d' fails the Leibniz rule on R(K) because removing an exterior
    factor can resolve a support collision that made the product vanish.
    On products of d-cocycles the defect is always a d-coboundary, which
    is what lets the product descend to double cohomology."""
    rng = random.Random(11)
    checked = nonzero = 0
    for _ in range(60):
        k = complexes.random_complex(rng, rng.randint(3, 5))
        rc = koszul.RComplex(k)
        bidegrees = [b for b in rc.bidegrees if 0 < rc.dim(b) <= 25]
        if len(bidegrees) < 2:
            continue
        b1, b2 = rng.sample(bidegrees, 2)
        kb1 = SmithSolver(rc.d_matrix(b1)).kernel_basis()
        kb2 = SmithSolver(rc.d_matrix(b2)).kernel_basis()
        if kb1.ncols == 0 or kb2.ncols == 0:
            continue
        x = kb1.mulvec([rng.randint(-2, 2) for _ in range(kb1.ncols)])
        y = kb2.mulvec([rng.randint(-2, 2) for _ in range(kb2.ncols)])
        target, xy = rc.multiply(b1, x, b2, y)
        assert not any(rc.d_matrix(target).mulvec(xy))
        dpx = rc.dprime_matrix(b1).mulvec(x)
        dpy = rc.dprime_matrix(b2).mulvec(y)
        _, term1 = rc.multiply((b1[0] - 1, b1[1] - 1), dpx, b2, y)
        _, term2 = rc.multiply(b1, x, (b2[0] - 1, b2[1] - 1), dpy)
        sign = -1 if b1[0] & 1 else 1
        lhs = rc.dprime_matrix(target).mulvec(xy)
        defect = [a - b - sign * c for a, b, c in zip(lhs, term1, term2)]
        if any(defect):
            nonzero += 1
            d_in = rc.d_matrix((target[0], target[1] - 1))
            assert SmithSolver(d_in).solve(defect) is not None
        checked += 1
    assert checked >= 20
    assert nonzero >= 1


def test_square_cycle_cochain_product():
    rc = koszul.RComplex(complexes.cycle(4))
    b = (1, 2)
    x = unit(rc.dim(b), rc.index[b][(mask(1), mask(3))])
    y = unit(rc.dim(b), rc.index[b][(mask(2), mask(4))])
    target, prod = rc.multiply(b, x, b, y)
    assert target == (2, 4)
    hits = {rc.basis(target)[i]: c for i, c in enumerate(prod) if c}
    assert hits == {(mask(1, 2), mask(3, 4)): 1}


def test_square_cycle_double_cohomology_products_over_q():
    alg = koszul.KoszulFieldAlgebra(complexes.cycle(4), "Q")
    assert alg.hh_dims() == {(0, 0): 1, (1, 2): 2, (2, 4): 1}
    _, p01 = alg.hh_product((1, 2), 0, (1, 2), 1)
    assert p01 and p01[0] != 0
    for i in range(2):
        _, sq = alg.hh_product((1, 2), i, (1, 2), i)
        assert not any(sq)


def test_pentagon_pairing_is_nondegenerate():
    alg = koszul.KoszulFieldAlgebra(complexes.cycle(5), "Q")
    assert alg.hh_dims() == {(0, 0): 1, (1, 2): 1, (2, 3): 1, (3, 5): 1}
    target, coords = alg.hh_product((1, 2), 0, (2, 3), 0)
    assert target == (3, 5)
    assert coords and coords[0] != 0


def test_field_dims_match_between_pipelines():
    for k in (complexes.rp2_minimal(), complexes.cycle(5),
              complexes.two_squares()):
        for field in ("Q", 2, 3):
            alg = koszul.KoszulFieldAlgebra(k, field)
            assert alg.hh_dims() == hochster.double_field(k, field, "cohomology")


def test_field_dims_over_q_equal_integral_ranks():
    k = complexes.two_triangles()
    alg = koszul.KoszulFieldAlgebra(k, "Q")
    integral = koszul.hh_via_koszul(k).invariants()
    assert alg.hh_dims() == {b: r for b, (r, _) in integral.items() if r}
