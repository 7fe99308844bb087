"""Stored reference computations and the checklist runner behind the
verify-paper command.

This module is the one store of the worked examples: each bigraded
table, and each d' matrix stated in fixed class bases, is written here
once, and the tests read them from here.  Each check recomputes a
documented example from scratch and compares against them.  A check
passes by returning normally and fails by raising VerificationError,
which _expect raises with what differed, so the checks hold under
python -O as well.
"""

from __future__ import annotations

import math

from . import complexes, hochster, koszul
from .complexes import mask_of
from .errors import VerificationError
from .linalg import IntMatrix, smith_normal_form

CHECKS = []


def _check(name):
    def register(fn):
        CHECKS.append((name, fn))
        return fn
    return register


def _expect(got, expected, what):
    """Raise VerificationError naming what, got and expected unless they are equal."""
    if got != expected:
        raise VerificationError(f"{what}: got {got!r}, expected {expected!r}")


def _chain(rc, b, *terms):
    """The cochain of R(K) in bidegree b that is the sum of sign * u_J v_I
    over the terms (sign, J, I), with J and I given by their vertex labels."""
    vec = [0] * rc.dim(b)
    for sign, j_labels, i_labels in terms:
        vec[rc.index[b][(mask_of(j_labels), mask_of(i_labels))]] += sign
    return vec


PENTAGON_H = {
    (0, 0): (1, ()),
    (1, 2): (5, ()),
    (2, 3): (5, ()),
    (3, 5): (1, ()),
}

PENTAGON_CONNECTING = IntMatrix([
    [0, 0, 1, -1, 0],
    [0, 0, 0, 1, -1],
    [-1, 0, 0, 0, 1],
    [1, -1, 0, 0, 0],
    [0, 1, -1, 0, 0],
], 5)

# row classes [u1v3],[u1v4],[u2v4],[u2v5],[u3v5]; column classes
# [u4u5v2],[u2u3v5],[u5u1v3],[u3u4v1],[u1u2v4] (u5u1 = -u1u5)
PENTAGON_ROW_BASIS = [(1, [1], [3]), (1, [1], [4]), (1, [2], [4]), (1, [2], [5]), (1, [3], [5])]
PENTAGON_COL_BASIS = [(1, [4, 5], [2]), (1, [2, 3], [5]), (-1, [1, 5], [3]), (1, [3, 4], [1]),
                      (1, [1, 2], [4])]

RP2_H = {
    (0, 0): (1, ()),
    (1, 3): (10, ()),
    (2, 4): (15, ()),
    (3, 5): (6, ()),
    (3, 6): (0, (2,)),
}

SQUARE_EDGE_H = {
    (0, 0): (1, ()),
    (1, 2): (5, ()),
    (2, 3): (5, ()),
    (3, 4): (1, ()),
    (2, 4): (1, ()),
    (3, 5): (1, ()),
}

# rows [u1v3],[u2v4],[u1v5],[u2v5],[u3v5]; columns
# [u1u2v5],[u2u3v5],[u1u3v5],[u3u5v1],[u4u5v2]
SQUARE_EDGE_CONNECTING = IntMatrix([
    [0, 0, 0, -1, 0],
    [0, 0, 0, 0, -1],
    [-1, 0, -1, 1, 0],
    [1, -1, 0, 0, 1],
    [0, 1, 1, 0, 0],
], 5)
SQUARE_EDGE_ROW_BASIS = [(1, [1], [3]), (1, [2], [4]), (1, [1], [5]), (1, [2], [5]), (1, [3], [5])]
SQUARE_EDGE_COL_BASIS = [(1, [1, 2], [5]), (1, [2, 3], [5]), (1, [1, 3], [5]), (1, [3, 5], [1]),
                         (1, [4, 5], [2])]

TWO_TRIANGLES_H = {
    (0, 0): (1, ()),
    (1, 2): (4, ()),
    (1, 3): (2, ()),
    (2, 3): (4, ()),
    (2, 4): (4, ()),
    (3, 4): (1, ()),
    (3, 5): (2, ()),
}

# rows [u1v3],[u1v4],[u2v3],[u2v4]; columns [u1u2v3],[u1u2v4],[u3u4v1],[u3u4v2]
TWO_TRIANGLES_CONNECTING = IntMatrix([
    [-1, 0, -1, 0],
    [0, -1, 1, 0],
    [1, 0, 0, -1],
    [0, 1, 0, 1],
], 4)
TWO_TRIANGLES_ROW_BASIS = [(1, [1], [3]), (1, [1], [4]), (1, [2], [3]), (1, [2], [4])]
TWO_TRIANGLES_COL_BASIS = [(1, [1, 2], [3]), (1, [1, 2], [4]), (1, [3, 4], [1]), (1, [3, 4], [2])]

TWO_SQUARES_H = {
    (0, 0): (1, ()),
    (1, 2): (8, ()),
    (2, 3): (12, ()),
    (2, 4): (2, ()),
    (3, 4): (5, ()),
    (3, 5): (4, ()),
    (4, 6): (2, ()),
}

DOUBLE_Z2 = {(0, 0): (1, ()), (1, 2): (1, ())}

# HH of cycle(4) over Z; over Q its dimensions are these ranks
FOUR_CYCLE_HH = {(0, 0): (1, ()), (1, 2): (2, ()), (2, 4): (1, ())}


def _stated_connecting(k, name, stated, row_basis, col_basis, divisors):
    """Check that the descended Koszul d' from (2, 3) to (1, 2) is the stored
    matrix in the stored cocycle class bases, and the stored matrix's Smith
    divisors.  Returns the Koszul cohomology, its descended d' and the
    matrix of the column basis."""
    kc = koszul.cohomology_via_koszul(k)

    def in_group(b, basis):
        group = kc.groups[b]
        return IntMatrix.from_columns([group.express(_chain(kc.rc, b, c)) for c in basis],
                                      group.n_gens)

    p, q = in_group((1, 2), row_basis), in_group((2, 3), col_basis)
    descended = koszul._descend_dprime(kc)
    _expect(descended[(2, 3)].matrix @ q, p @ stated, f"d' of {name} in the stated bases")
    _expect(smith_normal_form(stated).divisors, divisors, f"divisors of the stored d' of {name}")
    return kc, descended, q


@_check("pentagon cohomology table")
def _pentagon_cohomology():
    k = complexes.cycle(5)
    _expect(hochster.hochster_cohomology(k).invariants(), PENTAGON_H, "H of cycle(5), Hochster")
    _expect(koszul.cohomology_via_koszul(k).invariants(), PENTAGON_H, "H of cycle(5), Koszul")


@_check("pentagon connecting matrix")
def _pentagon_connecting():
    k = complexes.cycle(5)
    _stated_connecting(k, "cycle(5)", PENTAGON_CONNECTING, PENTAGON_ROW_BASIS,
                       PENTAGON_COL_BASIS, (1, 1, 1, 1))
    dprime = hochster.d_prime(hochster.hochster_cohomology(k))[(2, 3)].matrix
    _expect((dprime.shape, smith_normal_form(dprime).divisors), ((5, 5), (1, 1, 1, 1)),
            "shape and divisors of the Hochster d' of cycle(5)")


@_check("pentagon double cohomology")
def _pentagon_double():
    k = complexes.cycle(5)
    for pipeline, hh in (("Hochster", hochster.double_cohomology(k)),
                         ("Koszul", koszul.hh_via_koszul(k))):
        _expect((hh.invariants(), hh.total_rank(), hh.euler_characteristic()),
                ({b: (1, ()) for b in PENTAGON_H}, 4, 0),
                f"HH of cycle(5), its total rank and Euler characteristic, {pipeline}")


@_check("pentagon pairing over Q")
def _pentagon_pairing():
    alg = koszul.KoszulFieldAlgebra(complexes.cycle(5), "Q")
    _expect(alg.hh_dims(), {b: 1 for b in PENTAGON_H}, "HH of cycle(5) over Q")
    target, coords = alg.hh_product((1, 2), 0, (2, 3), 0)
    _expect(target, (3, 5), "bidegree of the product")
    _expect(bool(coords and coords[0]), True, "the product of the two HH classes is nonzero")


@_check("projective plane tables")
def _projective_plane():
    k = complexes.rp2_minimal()
    _expect(hochster.hochster_cohomology(k).invariants(), RP2_H, "H of rp2")
    hh = hochster.double_cohomology(k).invariants()
    _expect([hh.get((0, 0)), hh.get((3, 6))], [(1, ()), (0, (2,))],
            "HH^* of rp2 at (0, 0) and (-3, 12)")
    hom = hochster.double_homology(k).invariants()
    _expect([hom.get((0, 0)), hom.get((3, 6)), hom.get((4, 6))], [(1, ()), None, None],
            "HH_* of rp2 at (0, 0), (-3, 12) and (-4, 12)")


@_check("square with pendant edge")
def _square_edge():
    k = complexes.square_edge()
    _expect(hochster.hochster_cohomology(k).invariants(), SQUARE_EDGE_H, "H of square_edge")
    kc, descended, q = _stated_connecting(k, "square_edge", SQUARE_EDGE_CONNECTING,
                                          SQUARE_EDGE_ROW_BASIS, SQUARE_EDGE_COL_BASIS,
                                          (1, 1, 1, 1))
    # the column above H^{-2,6}: d'[u1u2u3v5] = [u2u3v5] - [u1u3v5] + [u1u2v5]
    image = kc.rc.dprime_matrix((3, 4)).mulvec(_chain(kc.rc, (3, 4), (1, [1, 2, 3], [5])))
    _expect(kc.groups[(2, 3)].express(image), q.mulvec([1, 1, -1, 0, 0]),
            "d'[u1u2u3v5] of square_edge")
    # d': H^{-3,10} -> H^{-2,8} is an isomorphism of rank-one groups
    top = descended[(3, 5)].matrix
    _expect((top.shape, [abs(v) for _, _, v in top.entries()]), ((1, 1), [1]),
            "|d'| on H^{-3,10}")

    _expect(hochster.double_cohomology(k).invariants(), DOUBLE_Z2, "HH of square_edge")


@_check("two triangle boundaries glued at a vertex")
def _two_triangles():
    k = complexes.two_triangles()
    _expect(hochster.hochster_cohomology(k).invariants(), TWO_TRIANGLES_H, "H of two_triangles")
    kc, _, q = _stated_connecting(k, "two_triangles", TWO_TRIANGLES_CONNECTING,
                                  TWO_TRIANGLES_ROW_BASIS, TWO_TRIANGLES_COL_BASIS, (1, 1, 1))
    rc, group = kc.rc, kc.groups[(2, 3)]
    # the two relations that reduce d' of the top generator
    for terms in (((1, [3, 4], [2]), (-1, [2, 4], [3]), (1, [2, 3], [4])),
                  ((1, [1, 3], [4]), (-1, [1, 4], [3]), (1, [3, 4], [1]))):
        _expect(group.class_is_zero(_chain(rc, (2, 3), *terms)), True,
                f"the relation {terms} is zero")
    # d'([u1u2u3v4] - [u1u2u4v3]) = -[u3u4v2] + [u3u4v1] + [u1u2v4] - [u1u2v3]
    source = _chain(rc, (3, 4), (1, [1, 2, 3], [4]), (-1, [1, 2, 4], [3]))
    _expect(group.express(rc.dprime_matrix((3, 4)).mulvec(source)), q.mulvec([-1, 1, 1, -1]),
            "d'([u1u2u3v4] - [u1u2u4v3]) of two_triangles")

    _expect(hochster.double_cohomology(k).invariants(), DOUBLE_Z2, "HH of two_triangles")


@_check("two squares glued along an edge")
def _two_squares():
    k = complexes.two_squares()
    _expect(hochster.hochster_cohomology(k).invariants(), TWO_SQUARES_H, "H of two_squares")
    _expect(hochster.double_cohomology(k).invariants(), DOUBLE_Z2, "HH of two_squares")


@_check("four-cycle product")
def _four_cycle_product():
    k = complexes.cycle(4)
    rc = koszul.RComplex(k)
    b = (1, 2)
    target, prod = rc.multiply(b, _chain(rc, b, (1, [1], [3])), b, _chain(rc, b, (1, [2], [4])))
    hits = {rc.basis(target)[i]: c for i, c in enumerate(prod) if c}
    _expect(hits, {(mask_of([1, 2]), mask_of([3, 4])): 1}, "u1v3 * u2v4 in R(cycle(4))")
    alg = koszul.KoszulFieldAlgebra(k, "Q")
    _expect(alg.hh_dims(), {b: rank for b, (rank, _) in FOUR_CYCLE_HH.items()},
            "HH of cycle(4) over Q")
    _, coords = alg.hh_product((1, 2), 0, (1, 2), 1)
    _expect(bool(coords and coords[0]), True, "the product of the two HH classes is nonzero")


@_check("cycles double cohomology")
def _cycles():
    for m in range(4, 8):
        hh = hochster.double_cohomology(complexes.cycle(m))
        if m == 4:
            expected = FOUR_CYCLE_HH
        else:
            expected = {(0, 0): (1, ()), (1, 2): (1, ()),
                        (m - 3, m - 2): (1, ()), (m - 2, m): (1, ())}
        _expect(hh.invariants(), expected, f"HH of cycle({m})")


@_check("boundary of a simplex")
def _boundaries():
    for m in range(2, 8):
        k = complexes.boundary_simplex(m)
        table = {(0, 0): (1, ()), (1, m): (1, ())}
        kc = koszul.cohomology_via_koszul(k)
        _expect(kc.invariants(), table, f"H of boundary({m}), Koszul")
        coords = kc.groups[(1, m)].express(_chain(kc.rc, (1, m), (1, [1], range(2, m + 1))))
        _expect(list(map(abs, coords)), [1], f"|coordinates| of [u1 v_rest] of boundary({m})")
        hh = hochster.double_cohomology(k)
        _expect((hh.invariants(), hh.euler_characteristic()), (table, 0),
                f"HH of boundary({m}) and its Euler characteristic")


@_check("disjoint points tables")
def _points():
    for m in range(3, 8):
        k = complexes.disjoint_points(m)
        inv = hochster.hochster_cohomology(k).invariants()
        expected = {(0, 0): (1, ())}
        for q in range(2, m + 1):
            expected[(q - 1, q)] = ((q - 1) * math.comb(m, q), ())
        _expect(inv, expected, f"H of points({m})")
        hh = hochster.double_cohomology(k)
        _expect(hh.invariants(), DOUBLE_Z2, f"HH of points({m})")
        # on this table, Euler characteristic 0 is sum_q (-1)^q (q - 1) C(m, q) = 1
        euler = sum((-1) ** kk * rank for (kk, _), (rank, _) in inv.items())
        _expect((euler, hh.euler_characteristic()), (0, 0),
                f"Euler characteristics of H and HH of points({m})")


@_check("join dimensions over Q")
def _join():
    pairs = [(complexes.cycle(4), complexes.boundary_simplex(2)),
             (complexes.disjoint_points(2), complexes.disjoint_points(2)),
             (complexes.cycle(5), complexes.simplex(2)),
             (complexes.two_triangles(), complexes.disjoint_points(2))]
    for k1, k2 in pairs:
        d1 = hochster.double_field(k1, "Q", "cohomology")
        d2 = hochster.double_field(k2, "Q", "cohomology")
        expected = {}
        for b1, n1 in d1.items():
            for b2, n2 in d2.items():
                b = (b1[0] + b2[0], b1[1] + b2[1])
                expected[b] = expected.get(b, 0) + n1 * n2
        joined = hochster.double_field(complexes.join(k1, k2), "Q", "cohomology")
        _expect(joined, expected, "HH over Q of a join")
    two = complexes.join(complexes.disjoint_points(2), complexes.disjoint_points(2))
    _expect(sum(hochster.double_field(two, "Q", "cohomology").values()), 4,
            "total HH over Q of points(2) * points(2)")


@_check("acyclicity of the second differential")
def _dprime_acyclicity():
    for name, k in complexes.zoo():
        if not k.is_simplex():
            _expect(koszul.d_prime_acyclicity(k)[1], {}, f"homology of (R, d') of {name}")
    for m in range(2, 6):
        rc, groups = koszul.d_prime_acyclicity(complexes.simplex(m))
        _expect(list(groups), [(0, m)], f"bidegrees of the homology of (R, d') of simplex({m})")
        _expect(groups[(0, m)].invariants(), (1, ()), f"homology of (R, d') of simplex({m})")
        coords = groups[(0, m)].express(_chain(rc, (0, m), (1, [], range(1, m + 1))))
        _expect(list(map(abs, coords)), [1], f"|coordinates| of v_1...v_m of simplex({m})")


@_check("pipeline agreement on the zoo")
def _zoo_agreement():
    for name, k in complexes.zoo():
        kd, hd = koszul.hh_via_koszul(k), hochster.double_cohomology(k)
        _expect(kd.kc.invariants(), hd.decomposition.invariants(), f"H of {name}, Koszul")
        _expect(kd.invariants(), hd.invariants(), f"HH of {name}, Koszul")


@_check("bijection between the pipelines")
def _iso():
    for k in (complexes.cycle(5), complexes.two_squares(), complexes.rp2_minimal()):
        koszul.hochster_koszul_iso(k)


def run_checks(only=None, out=print):
    """Run the (filtered) checklist; returns the number of failures."""
    failures = 0
    ran = 0
    for name, fn in CHECKS:
        if only and only not in name:
            continue
        ran += 1
        try:
            fn()
        except Exception as exc:
            failures += 1
            out(f"FAIL {name}: {exc!r}")
        else:
            out(f"ok   {name}")
    if ran == 0:
        out(f"no checks match {only!r}")
        return 1
    out(f"{ran - failures}/{ran} checks passed")
    return failures
