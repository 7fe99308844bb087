"""The finite Koszul bicomplex of a simplicial complex and its double
cohomology, the second of the two independent pipelines.

R(K) has basis the monomials u_J v_I with I a face of K, J a subset of
the remaining vertices, in bidegree (k, l) = (|J|, |J| + |I|)
(displayed (-k, 2l)).  The two differentials are

    d(u_J v_I)  = sum over j in J with I+j a face of sign_eps(j, J) u_{J-j} v_{I+j}
    d'(u_J v_I) = sum over j in J of sign_eps(j, J) u_{J-j} v_I

with d^2 = 0, d'^2 = 0, d d' = -d' d, and d' the sum of the derivations
iota_i that strip u_i.  sign_eps(j, J) is (-1) to the position of j in
J, counted from 0 at the lowest label: along J it starts at +1 and
alternates.  Cohomology of (R, d) is the bigraded cohomology of Z_K;
descending d' to it and taking homology again gives HH.  Both steps are
walks of linalg.graded_homology over Z, Q and F_p alike: the field
argument picks only the routine that computes each spot.

The multiplication is u_J v_I * u_{J'} v_{I'} = 0 unless the supports
are disjoint and I + I' is a face, in which case the coefficient is
(-1)^#{(a,b) in J x J' : b < a}.
"""

from __future__ import annotations

from functools import cache

from .complexes import sign_eps, sign_eps_set, submasks
from .errors import VerificationError
from .linalg import (
    BigradedGroups,
    FieldOps,
    GroupMorphism,
    IntMatrix,
    NonzeroComposite,
    PresentedGroup,
    graded_homology,
    homology_of_pair,
)


def _bits(mask):
    """The one-bit masks of mask, lowest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low)
        mask ^= low
    return out


@cache
def _signed_bits(mask):
    """(sign_eps(j, mask), bit of j) for each label j of mask, lowest first;
    cached, as each J recurs across the basis."""
    out = []
    sign = 1
    while mask:
        low = mask & -mask
        out.append((sign, low))
        mask ^= low
        sign = -sign
    return tuple(out)


def _d_terms(mon):
    """The terms of d(u_J v_I), I+j a face or not, signed by the position
    of j along J (_signed_bits) rather than by sign_eps."""
    jmask, imask = mon
    return [(sign, (jmask ^ low, imask | low)) for sign, low in _signed_bits(jmask)]


def _dprime_terms(mon):
    jmask, imask = mon
    return [(sign, (jmask ^ low, imask)) for sign, low in _signed_bits(jmask)]


def _iota_terms(mon, strip):
    """The term (sign_eps(i, J), u_{J-i} v_I) of iota_i for each label i of
    both J and strip, signed by sign_eps itself."""
    jmask, imask = mon
    return [(sign_eps(low.bit_length(), jmask), (jmask ^ low, imask))
            for low in _bits(jmask & strip)]


def _signed_matrix(basis, index, terms):
    """The matrix from basis into index whose column c has sign in the row
    of each (sign, monomial) of terms(basis[c]) that index holds."""
    get = index.get
    return IntMatrix.from_entries(len(index), len(basis), [
        (r, c, sign) for c, mon in enumerate(basis) for sign, target in terms(mon)
        if (r := get(target)) is not None])


class RComplex:
    """Bigraded basis and differentials of R(K)."""

    __slots__ = ("complex", "bidegrees", "index", "_d", "_dp")

    def __init__(self, k):
        self.complex = k
        full = k.full_mask()
        bidegrees = {}
        for imask in sorted(k.faces):
            l_part = imask.bit_count()
            for jmask in submasks(full & ~imask):
                kk = jmask.bit_count()
                bidegrees.setdefault((kk, kk + l_part), []).append((jmask, imask))
        self.bidegrees = {b: sorted(mons) for b, mons in bidegrees.items()}
        self.index = {b: {mon: i for i, mon in enumerate(mons)}
                      for b, mons in self.bidegrees.items()}
        self._d = {}
        self._dp = {}

    def basis(self, b):
        return self.bidegrees.get(b, [])

    def dim(self, b):
        return len(self.bidegrees.get(b, ()))

    def d_matrix(self, b):
        """d: (k, l) -> (k-1, l).  The target index holds u_J v_I only for
        faces I, so _signed_matrix drops the terms whose I+j is not a face."""
        if b not in self._d:
            kk, l = b
            self._d[b] = _signed_matrix(self.basis(b), self.index.get((kk - 1, l), {}),
                                        _d_terms)
        return self._d[b]

    def dprime_matrix(self, b):
        """d': (k, l) -> (k-1, l-1)."""
        if b not in self._dp:
            kk, l = b
            self._dp[b] = _signed_matrix(self.basis(b), self.index.get((kk - 1, l - 1), {}),
                                         _dprime_terms)
        return self._dp[b]

    def iota_matrix(self, b, i):
        """The derivation stripping u_i: (k, l) -> (k-1, l-1)."""
        return self._iotas(b, 1 << (i - 1))

    def _iotas(self, b, strip):
        """The sum of iota_i over the labels i of strip, at b, from one walk
        over the basis of b."""
        kk, l = b
        return _signed_matrix(self.basis(b), self.index.get((kk - 1, l - 1), {}),
                              lambda mon: _iota_terms(mon, strip))

    def check_identities(self):
        """d^2 = 0, d'^2 = 0, d d' + d' d = 0, d' = sum of iotas, per
        bidegree.  The sum of the iota_i is built in one walk over the
        basis, with the signs of sign_eps, while d' takes its signs by
        position along J: the last check compares the two.

        Raises VerificationError on any failure, naming the displayed
        bidegree (-k, 2l)."""
        full = self.complex.full_mask()
        for b in self.bidegrees:
            kk, l = b
            at = f"bidegree ({-kk}, {2 * l})"
            if not (self.d_matrix((kk - 1, l)) @ self.d_matrix(b)).is_zero():
                raise VerificationError(f"d^2 != 0 at {at}")
            if not (self.dprime_matrix((kk - 1, l - 1)) @ self.dprime_matrix(b)).is_zero():
                raise VerificationError(f"d'^2 != 0 at {at}")
            anti = (self.d_matrix((kk - 1, l - 1)) @ self.dprime_matrix(b)
                    + self.dprime_matrix((kk - 1, l)) @ self.d_matrix(b))
            if not anti.is_zero():
                raise VerificationError(f"d d' + d' d != 0 at {at}")
            if self._iotas(b, full) != self.dprime_matrix(b):
                raise VerificationError(f"d' is not the sum of the iota derivations at {at}")
        return True

    # -- multiplication ----------------------------------------------------

    def monomial_product(self, mon1, mon2):
        """(sign, monomial) or None if the product vanishes."""
        j1, i1 = mon1
        j2, i2 = mon2
        if (j1 | i1) & (j2 | i2):
            return None
        iboth = i1 | i2
        if not self.complex.has_face(iboth):
            return None
        sign = 1
        rest = j1
        while rest:
            low = rest & -rest
            rest ^= low
            if (j2 & (low - 1)).bit_count() & 1:
                sign = -sign
        return sign, (j1 | j2, iboth)

    def multiply(self, b1, vec1, b2, vec2):
        """Product of homogeneous elements, in the basis of b1 + b2."""
        target = (b1[0] + b2[0], b1[1] + b2[1])
        out = [0] * self.dim(target)
        idx = self.index.get(target, {})
        basis1 = self.basis(b1)
        basis2 = self.basis(b2)
        for c1, x1 in enumerate(vec1):
            if not x1:
                continue
            for c2, x2 in enumerate(vec2):
                if not x2:
                    continue
                hit = self.monomial_product(basis1[c1], basis2[c2])
                if hit is None:
                    continue
                sign, mon = hit
                out[idx[mon]] += sign * x1 * x2
        return target, out


class KoszulCohomology(BigradedGroups):
    """Cohomology of (R, d) per bidegree, with representatives."""

    __slots__ = ("rc",)

    def __init__(self, rc, groups):
        super().__init__(groups)
        self.rc = rc


def _homology_at(field):
    """The spot routine of graded_homology over the ring: homology_of_pair
    over Z (field None), FieldOps(field).homology_of_pair over Q or F_p."""
    return homology_of_pair if field is None else FieldOps(field).homology_of_pair


def _free_morphisms(matrices):
    """Per bidegree, matrix as a morphism between free groups."""
    return {b: GroupMorphism(PresentedGroup.free(mat.ncols), PresentedGroup.free(mat.nrows), mat)
            for b, mat in matrices.items()}


def cohomology_via_koszul(k_or_rc, field=None):
    """Cohomology of (R, d) over Z, or over Q or F_p when field is "Q" or p."""
    rc = k_or_rc if isinstance(k_or_rc, RComplex) else RComplex(k_or_rc)
    d = _free_morphisms({b: rc.d_matrix(b) for b in rc.bidegrees})
    return KoszulCohomology(rc, graded_homology(d, (-1, 0), _homology_at(field)))


def _descend_dprime(kc):
    """d' on classes per source bidegree b: the morphism from the group at
    b to the one at (k-1, l-1), or to the zero group when there is none,
    whose columns are the coordinates of d' of b's representatives there.
    hh_via_koszul tests d'^2 = 0."""
    out = {}
    for b, sq in kc.groups.items():
        tgt = kc.groups.get((b[0] - 1, b[1] - 1), PresentedGroup.free(0))
        out[b] = GroupMorphism(sq, tgt, tgt.express_columns(kc.rc.dprime_matrix(b) @ sq.gens)
                               if tgt.n_gens else IntMatrix.zeros(0, sq.n_gens))
    return out


class KoszulDouble(BigradedGroups):
    """HH from the Koszul side: per-bidegree subquotients of classes."""

    __slots__ = ("kc",)

    def __init__(self, kc, groups):
        super().__init__(groups)
        self.kc = kc


def hh_via_koszul(k_or_rc, field=None):
    """HH over Z, or over Q or F_p when field is "Q" or p: the homology of
    the descended d' by graded_homology, whose spot routine is the only
    part that the ring picks."""
    kc = cohomology_via_koszul(k_or_rc, field)
    try:
        groups = graded_homology(_descend_dprime(kc), (-1, -1), _homology_at(field))
    except NonzeroComposite as exc:
        kk, l = exc.bidegree
        raise VerificationError(
            f"descended d' does not square to zero at bidegree (-{kk}, {2 * l})") from exc
    return KoszulDouble(kc, groups)


# ---------------------------------------------------------------------------
# the bridge between the two pipelines


def _hochster_cochain_bases(k):
    """Per bidegree, the pairs (I, L) with L a face of K inside I, |I| = l,
    |L| = l - k, ordered by ascending (I, L) masks."""
    full = k.full_mask()
    faces = sorted(k.faces)
    out = {}
    for imask in range(full + 1):
        l = imask.bit_count()
        for lmask in faces:
            if lmask & ~imask:
                continue
            kk = l - lmask.bit_count()
            out.setdefault((kk, l), []).append((imask, lmask))
    return out


def hochster_koszul_iso(k):
    """The signed bijection (I, L) -> sign_eps_set(L, I) u_{I-L} v_L.

    Builds the subset-side cochain differentials independently and
    checks the bijection intertwines both d and d' on every bidegree;
    raises VerificationError otherwise.  Returns the per-bidegree
    matrices.
    """
    rc = RComplex(k)
    bases = _hochster_cochain_bases(k)
    index = {b: {pair: i for i, pair in enumerate(pairs)} for b, pairs in bases.items()}

    def iso_terms(pair):
        imask, lmask = pair
        return [(sign_eps_set(lmask, imask), (imask & ~lmask, lmask))]

    def subset_d_terms(pair):
        # coboundary inside each summand I: add a vertex of I to L
        imask, lmask = pair
        return [(sign_eps(low.bit_length(), lmask), (imask, lmask | low))
                for low in _bits(imask & ~lmask)]

    def subset_dprime_terms(pair):
        # (-1)^{|L|} sum over i in I - L of sign_eps(i, I) (I - i, L)
        imask, lmask = pair
        sgn = -1 if lmask.bit_count() & 1 else 1
        return [(sgn * sign_eps(low.bit_length(), imask), (imask ^ low, lmask))
                for low in _bits(imask & ~lmask)]

    iso = {b: _signed_matrix(pairs, rc.index.get(b, {}), iso_terms) for b, pairs in bases.items()}

    for b, pairs in bases.items():
        kk, l = b
        if iso[b].ncols != rc.dim(b):
            raise VerificationError(f"basis sizes differ at bidegree {b}")
        left_d = rc.d_matrix(b) @ iso[b]
        right_d = iso.get((kk - 1, l), IntMatrix.zeros(rc.dim((kk - 1, l)), 0))
        subset_d = _signed_matrix(pairs, index.get((kk - 1, l), {}), subset_d_terms)
        if left_d != right_d @ subset_d:
            raise VerificationError(f"the bijection does not intertwine d at {b}")
        left_dp = rc.dprime_matrix(b) @ iso[b]
        right_dp = iso.get((kk - 1, l - 1),
                           IntMatrix.zeros(rc.dim((kk - 1, l - 1)), 0))
        subset_dprime = _signed_matrix(pairs, index.get((kk - 1, l - 1), {}),
                                       subset_dprime_terms)
        if left_dp != right_dp @ subset_dprime:
            raise VerificationError(f"the bijection does not intertwine d' at {b}")
    return iso


def d_prime_acyclicity(k):
    """Homology of (R, d') per bidegree; nonzero only for a full simplex,
    where it is a single Z in bidegree (0, m) generated by v_1...v_m."""
    rc = RComplex(k)
    return rc, graded_homology(_free_morphisms({b: rc.dprime_matrix(b) for b in rc.bidegrees}),
                               (-1, -1), homology_of_pair)


# ---------------------------------------------------------------------------
# products over a field


class KoszulFieldAlgebra:
    """Cohomology and double cohomology of R(K) over a field, with the
    multiplicative structure on classes.

    h_layers and hh_layers are the groups of hh_via_koszul(k_or_rc,
    field), the integral path with the field's spot routine; this class
    adds only the products.
    """

    def __init__(self, k_or_rc, field):
        hh = hh_via_koszul(k_or_rc, field)
        self.rc = hh.kc.rc
        self.h_layers = hh.kc.groups
        self.hh_layers = hh.groups

    def hh_dims(self):
        return {b: layer.n_gens for b, layer in self.hh_layers.items()}

    def hh_cocycle(self, b, i):
        """An R-cocycle representing the i-th double cohomology class at b."""
        return self.h_layers[b].gens.mulvec(self.hh_layers[b].gens.column(i))

    def hh_product(self, b1, i, b2, j):
        """Coordinates of the product of two double cohomology classes in
        the double cohomology basis at b1 + b2 (empty if that is zero)."""
        x = self.hh_cocycle(b1, i)
        y = self.hh_cocycle(b2, j)
        target, z = self.rc.multiply(b1, x, b2, y)
        h_layer = self.h_layers.get(target)
        if h_layer is None:
            return target, []
        h_coords = h_layer.express(z)
        hh_layer = self.hh_layers.get(target)
        if hh_layer is None:
            return target, []
        return target, hh_layer.express(h_coords)
