"""Tests for the Koszul bicomplex pipeline.

The cochain-level values in this file were derived by hand from the
differential formulas.  The paper's tables and stated d' matrices live in
macoh.verification, whose checks compare both pipelines against them;
the tests below that need them import them from there.
"""

import math
import random

import pytest

from dense_oracle import kernel_basis, scaled
from macoh import complexes, hochster, koszul, linalg
from macoh.complexes import mask_of, sign_eps
from macoh.errors import VerificationError
from macoh.linalg import IntMatrix, SmithSolver, smith_normal_form
from macoh.verification import (
    FOUR_CYCLE_HH,
    PENTAGON_COL_BASIS,
    PENTAGON_CONNECTING,
    PENTAGON_H,
    PENTAGON_ROW_BASIS,
)


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


def _flip(mat, r, c):
    """mat with its (r, c) entry negated."""
    return mat + IntMatrix.from_entries(mat.nrows, mat.ncols, [(r, c, -2 * mat.column(c)[r])])


def _mutant(k, name, change):
    """An RComplex of k whose method name returns change(b, value) in
    place of the value it returns at b."""
    real = getattr(koszul.RComplex, name)

    def method(self, b, *rest):
        return change(b, real(self, b, *rest))

    return type("Mutant", (koszul.RComplex,), {"__slots__": (), name: method})(k)


def _displayed(b):
    return rf"bidegree \({-b[0]}, {2 * b[1]}\)"


@pytest.mark.parametrize("name", ["rp2", "cycle:6"])
def test_check_identities_catches_a_flipped_entry_of_d(name):
    """Flip d at a column u_J v_I of full support, in a row whose d is not
    zero: d^2 breaks at that bidegree, and d' has no term into u_J v_I, so
    d d' + d' d cannot break first."""
    k = complexes.ZOO_BUILDERS[name]()
    rc = koszul.RComplex(k)
    b, r, c = next((b, r, c) for b in rc.bidegrees
                   for r, c, _ in rc.d_matrix(b).entries()
                   if rc.basis(b)[c][0] | rc.basis(b)[c][1] == k.full_mask()
                   and any(rc.d_matrix((b[0] - 1, b[1])).column(r)))
    mutant = _mutant(k, "d_matrix", lambda bb, mat: _flip(mat, r, c) if bb == b else mat)
    with pytest.raises(VerificationError, match=r"^d\^2 != 0 at bidegree"):
        mutant.check_identities()


@pytest.mark.parametrize("name", ["rp2", "cycle:6"])
def test_check_identities_catches_a_flipped_entry_of_dprime(name):
    """Flip d' at a column u_J v_0 with |J| >= 2: d'^2 breaks at that
    bidegree, and d has no term into v_0, so d d' + d' d cannot break first."""
    k = complexes.ZOO_BUILDERS[name]()
    rc = koszul.RComplex(k)
    b, r, c = next((b, r, c) for b in rc.bidegrees
                   for r, c, _ in rc.dprime_matrix(b).entries()
                   if rc.basis(b)[c][1] == 0 and b[0] >= 2)
    mutant = _mutant(k, "dprime_matrix", lambda bb, mat: _flip(mat, r, c) if bb == b else mat)
    with pytest.raises(VerificationError, match=r"^d'\^2 != 0 at bidegree"):
        mutant.check_identities()


@pytest.mark.parametrize("name", ["rp2", "cycle:6"])
def test_check_identities_catches_dprime_negated_at_one_bidegree(name):
    """-d' at one bidegree b still squares to zero; only d d' + d' d, at b
    or at b + (1, 0), sees it."""
    k = complexes.ZOO_BUILDERS[name]()
    rc = koszul.RComplex(k)
    b = next(b for b in rc.bidegrees
             if not (rc.d_matrix((b[0] - 1, b[1] - 1)) @ rc.dprime_matrix(b)).is_zero())
    mutant = _mutant(k, "dprime_matrix", lambda bb, mat: scaled(mat, -1) if bb == b else mat)
    with pytest.raises(VerificationError, match=rf"^d d' \+ d' d != 0 at "
                       rf"({_displayed(b)}|{_displayed((b[0] + 1, b[1]))})$"):
        mutant.check_identities()


@pytest.mark.parametrize("name", ["rp2", "cycle:6"])
def test_check_identities_catches_a_missing_iota(name):
    """Leave iota_2 out of the sum: d and d' are unchanged, so only the last
    check fails, at the first bidegree where iota_2 is not zero."""
    k = complexes.ZOO_BUILDERS[name]()
    rc = koszul.RComplex(k)
    b = next(b for b in rc.bidegrees if not rc.iota_matrix(b, 2).is_zero())
    mutant = _mutant(k, "_iotas", lambda bb, mat: mat + scaled(rc.iota_matrix(bb, 2), -1))
    with pytest.raises(VerificationError, match=rf"^d' is not the sum of the iota derivations "
                       rf"at {_displayed(b)}$"):
        mutant.check_identities()


def test_signed_bits_agree_with_sign_eps_on_every_subset_of_seven_labels():
    for mask in range(1 << 7):
        signed = koszul._signed_bits(mask)
        assert [low.bit_length() for _, low in signed] == _labels(mask)
        assert [sign for sign, _ in signed] == [sign_eps(j, mask) for j in _labels(mask)]


@pytest.mark.parametrize("name", list(complexes.ZOO_BUILDERS))
def test_one_pass_iota_sum_is_the_sum_of_the_iota_matrices(name):
    k = complexes.ZOO_BUILDERS[name]()
    rc = koszul.RComplex(k)
    for b in rc.bidegrees:
        total = IntMatrix.zeros(rc.dim((b[0] - 1, b[1] - 1)), rc.dim(b))
        for i in range(1, k.m + 1):
            total = total + rc.iota_matrix(b, i)
        assert rc._iotas(b, k.full_mask()) == total, b


def test_pentagon_cochain_level_connecting_values():
    rc = koszul.RComplex(complexes.cycle(5))
    b = (2, 3)
    source = rc.index[b][(mask_of([4, 5]), mask_of([2]))]
    image = rc.dprime_matrix(b).column(source)
    target = rc.basis((1, 2))
    hits = {target[i]: c for i, c in enumerate(image) if c}
    assert hits == {(mask_of([5]), mask_of([2])): 1, (mask_of([4]), mask_of([2])): -1}


def test_pentagon_connecting_matrix_in_the_standard_class_basis():
    """The stored cocycle bases of the two middle bidegrees turn the
    descended map into the stored matrix, Smith form diag(1, 1, 1, 1, 0)."""
    kc = koszul.cohomology_via_koszul(complexes.cycle(5))
    rc = kc.rc

    def classes(b, basis):
        return IntMatrix.from_columns(
            [kc.groups[b].express([s * v for v in unit(rc.dim(b),
                                                       rc.index[b][(mask_of(j), mask_of(i))])])
             for s, j, i in basis], 5)

    p, q = classes((1, 2), PENTAGON_ROW_BASIS), classes((2, 3), PENTAGON_COL_BASIS)
    descended = koszul._descend_dprime(kc)[(2, 3)].matrix
    assert descended @ q == p @ PENTAGON_CONNECTING
    assert smith_normal_form(PENTAGON_CONNECTING).divisors == (1, 1, 1, 1)


def test_descended_dprime_failure_names_the_displayed_bidegree(monkeypatch):
    original = koszul._class_dprime

    def faulty(rc, layers):
        out = original(rc, layers)
        for b in ((3, 4), (2, 3)):  # (3,4) -> (2,3) -> (1,2) is a chain on two_squares
            out[b] = IntMatrix.from_entries(out[b].nrows, out[b].ncols, [(0, 0, 1)])
        return out

    monkeypatch.setattr(koszul, "_class_dprime", faulty)
    with pytest.raises(VerificationError, match=r"square to zero at bidegree \(-3, 8\)$"):
        koszul.hh_via_koszul(complexes.two_squares())


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


def _labels(mask):
    return [v for v in range(1, mask.bit_length() + 1) if mask >> (v - 1) & 1]


def _sign(j, mask):
    """(-1)^#{i in mask : i < j}, counted label by label."""
    return (-1) ** sum(1 for i in _labels(mask) if i < j)


def _dense(src, dst, image):
    """The dense rows of the map whose column c is the sum of sign * e_t over
    the (sign, t) of image(src[c]); a t outside dst raises KeyError."""
    where = {mon: r for r, mon in enumerate(dst)}
    rows = [[0] * len(src) for _ in dst]
    for c, mon in enumerate(src):
        for sign, target in image(mon):
            rows[where[target]][c] += sign
    return IntMatrix(rows, len(src))


def _reference_basis(k, b):
    """u_J v_I with I a face and J a set of the other vertices, in bidegree
    b = (|J|, |J| + |I|), in ascending (J, I) masks."""
    kk, l = b
    return sorted((jmask, imask) for imask in k.faces for jmask in range(k.full_mask() + 1)
                  if not jmask & imask and jmask.bit_count() == kk
                  and imask.bit_count() == l - kk)


def _bit(v):
    return 1 << (v - 1)


def _check_against_the_definitions(k):
    """d, d' and every iota_i of R(K), and the bijection to the Hochster
    cochains, built from the formulas of the koszul module docstring."""
    rc = koszul.RComplex(k)
    faces = set(k.faces)
    for b in rc.bidegrees:
        kk, l = b
        src = _reference_basis(k, b)
        assert rc.basis(b) == src
        d_dst = _reference_basis(k, (kk - 1, l))
        dp_dst = _reference_basis(k, (kk - 1, l - 1))
        assert rc.d_matrix(b) == _dense(src, d_dst, lambda mon: [
            (_sign(j, mon[0]), (mon[0] ^ _bit(j), mon[1] | _bit(j)))
            for j in _labels(mon[0]) if mon[1] | _bit(j) in faces]), b
        assert rc.dprime_matrix(b) == _dense(src, dp_dst, lambda mon: [
            (_sign(j, mon[0]), (mon[0] ^ _bit(j), mon[1])) for j in _labels(mon[0])]), b
        for i in range(1, k.m + 1):
            assert rc.iota_matrix(b, i) == _dense(src, dp_dst, lambda mon: [
                (_sign(i, mon[0]), (mon[0] ^ _bit(i), mon[1]))] if mon[0] & _bit(i) else []), b
    # (I, L) -> prod over l in L of sign_eps(l, I) u_{I-L} v_L
    for b, mat in koszul.hochster_koszul_iso(k).items():
        kk, l = b
        pairs = sorted((imask, lmask) for imask in range(k.full_mask() + 1) for lmask in faces
                       if not lmask & ~imask and imask.bit_count() == l
                       and lmask.bit_count() == l - kk)
        assert mat == _dense(pairs, _reference_basis(k, b), lambda pair: [
            (math.prod(_sign(v, pair[0]) for v in _labels(pair[1])),
             (pair[0] & ~pair[1], pair[1]))]), b


@pytest.mark.parametrize("name", [name for name, _ in complexes.zoo()])
def test_bicomplex_matrices_match_the_definitions_on_the_zoo(name):
    _check_against_the_definitions(dict(complexes.zoo())[name])


def test_bicomplex_matrices_match_the_definitions_on_random_complexes():
    rng = random.Random(13)
    for _ in range(4):
        _check_against_the_definitions(complexes.random_complex(rng, rng.randint(2, 6)))


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


@pytest.mark.parametrize("run", [
    lambda: hochster.double_cohomology(complexes.cycle(6)),
    lambda: hochster.double_homology(complexes.rp2_minimal()),
    lambda: koszul.hh_via_koszul(complexes.two_squares()),
], ids=["HH cycle:6", "HH_* rp2", "Koszul HH two_squares"])
def test_each_dprime_composite_is_multiplied_once(monkeypatch, run):
    # d'^2 = 0 is tested only where homology_of_pair takes the homology,
    # so no pair of operands is multiplied twice
    real = IntMatrix.__matmul__
    operands = []  # held, so that no id is reused

    def recording(left, right):
        operands.append((left, right))
        return real(left, right)

    monkeypatch.setattr(IntMatrix, "__matmul__", recording)
    run()
    pairs = [(id(left), id(right)) for left, right in operands]
    assert len(set(pairs)) == len(pairs)


@pytest.mark.parametrize("run", [
    lambda: hochster.hochster_cohomology(complexes.rp2_minimal()).invariants(),
    lambda: hochster.hochster_homology(complexes.rp2_minimal()).invariants(),
    lambda: hochster.double_cohomology(complexes.cycle(6)),
    lambda: hochster.double_homology(complexes.two_squares()),
    lambda: koszul.cohomology_via_koszul(complexes.two_squares()),
], ids=["H cohomology rp2", "H homology rp2", "HH cycle:6", "HH_* two_squares",
        "Koszul H two_squares"])
def test_each_differential_is_eliminated_once(monkeypatch, run):
    # a differential is the outgoing map at one spot and the incoming map
    # at the next, and smith_divisors keeps its result on the matrix
    operands = _eliminated(monkeypatch, run)
    ids = [id(a) for a in operands]
    assert operands and len(set(ids)) == len(ids)


def _eliminated(monkeypatch, run):
    """The matrices that reach the elimination of smith_divisors in run(),
    held, so that no id is reused."""
    real = linalg._eliminate_units
    operands = []

    def recording(a):
        operands.append(a)
        return real(a)

    monkeypatch.setattr(linalg, "_eliminate_units", recording)
    run()
    monkeypatch.undo()
    return operands


@pytest.mark.parametrize("k", [complexes.rp2_minimal(), complexes.two_squares()],
                         ids=["rp2", "two_squares"])
def test_the_homology_side_eliminates_as_many_matrices_as_the_cohomology_side(monkeypatch, k):
    # each boundary is built once, as each coboundary is, so the transposed
    # differentials are not eliminated again under a new id
    cohomology = _eliminated(monkeypatch, lambda: hochster.hochster_cohomology(k).invariants())
    homology = _eliminated(monkeypatch, lambda: hochster.hochster_homology(k).invariants())
    assert len(homology) == len(cohomology)


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
        kb1 = kernel_basis(rc.d_matrix(b1))
        kb2 = kernel_basis(rc.d_matrix(b2))
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
    x = unit(rc.dim(b), rc.index[b][(mask_of([1]), mask_of([3]))])
    y = unit(rc.dim(b), rc.index[b][(mask_of([2]), mask_of([4]))])
    target, prod = rc.multiply(b, x, b, y)
    assert target == (2, 4)
    hits = {rc.basis(target)[i]: c for i, c in enumerate(prod) if c}
    assert hits == {(mask_of([1, 2]), mask_of([3, 4])): 1}


def test_square_cycle_double_cohomology_products_over_q():
    alg = koszul.KoszulFieldAlgebra(complexes.cycle(4), "Q")
    assert alg.hh_dims() == {b: r for b, (r, _) in FOUR_CYCLE_HH.items()}
    _, p01 = alg.hh_product((1, 2), 0, (1, 2), 1)
    assert p01 and p01[0] != 0
    for i in range(2):
        _, sq = alg.hh_product((1, 2), i, (1, 2), i)
        assert not any(sq)


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
