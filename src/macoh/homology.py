"""Reduced simplicial cohomology of full subcomplexes, with representatives.

The reduced cochain complex of K0 = K_I is augmented: the empty face
sits in degree -1, so for I = ∅ the complex is a single Z in degree -1
and H^{-1} = Z there.  Bases are faces grouped by cardinality q (the
degree is p = q - 1), each group sorted by ascending bitmask, which
makes every matrix in the package byte-stable across runs.

The coboundary of the basis cochain dual to a face L is

    d(alpha_L) = sum over j in I \\ L with L + j a face of sign_eps(j, L) alpha_{L+j},

built row by row: the row of a face g has one entry per facet g - j.
The boundary operator on chains is its transpose.  Restriction to a
smaller subset deletes the faces that meet the removed vertex;
inclusion into a larger subset is the dual injection on chains.  Both
are face_positions, and induced_map gathers rows of representatives by it.

Some groups are known before their complex is built.  Let t be the
highest vertex of I, P = I - t nonempty, and L the link of t in K_P.
Then K_I = K_P ∪ t*L.  If L is only the empty face, K_I is K_P plus the
isolated point t: the same groups, and one more free generator in
degree 0.  If L is the simplex σ on the union of its faces, t*L is the
simplex σ + t, which meets K_P in σ; both are contractible, so K_I
collapses onto K_P and has its groups (Barmak–Minian, "Strong homotopy
types, nerves and collapses", 2012).  Either way this holds over Z, Q
and F_p, for homology and cohomology.  read_off_cohomology holds such
groups and builds the complex itself only when representatives are read.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .complexes import sign_eps
from .linalg import IntMatrix, LinalgError, PresentedGroup, free_homology


def _basis(bases, p):
    """The faces of degree p (p + 1 vertices) of a bases list, or []."""
    return bases[p + 1] if 0 <= p + 1 < len(bases) else []


@dataclass
class ReducedComplex:
    """Cochain data of one full subcomplex K_I.  bases[q] lists the faces
    with q vertices (q = 0 holds the empty face), so degree p cochains
    live on bases[p + 1]; coboundaries[q] maps q-cochains to
    (q+1)-cochains."""

    bases: list
    coboundaries: list
    _boundaries: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def coboundary(self, p):
        """Matrix of d: C^p -> C^{p+1}."""
        if 0 <= p + 1 < len(self.coboundaries):
            return self.coboundaries[p + 1]
        return IntMatrix.zeros(len(_basis(self.bases, p + 1)), len(_basis(self.bases, p)))

    def boundary(self, p):
        """Matrix of the transpose operator C_p -> C_{p-1} on chains, built
        on the first call for p and returned again after, so that the
        homology side, like the cohomology side, hands homology_of_pair
        one matrix object per differential."""
        mat = self._boundaries.get(p)
        if mat is None:
            mat = self._boundaries[p] = self.coboundary(p - 1).transpose()
        return mat

    def differentials(self, p, side):
        """(incoming, outgoing) matrices at degree p: coboundaries on the
        "cohomology" side, boundaries on the "homology" side."""
        if side == "cohomology":
            return self.coboundary(p - 1), self.coboundary(p)
        return self.boundary(p + 1), self.boundary(p)


def reduced_complex(k, support=None, faces=None):
    """Reduced cochain complex of the full subcomplex on the support mask;
    faces, when the caller has them, is k.faces_within(support).

    Row g of each coboundary has one entry per facet g - j, with sign
    sign_eps(j, g - j); a full subcomplex holds every facet of its faces.
    The facets come by descending j, so each row's columns ascend."""
    if support is None:
        support = k.full_mask()
    groups = k.faces_within(support) if faces is None else faces
    coboundaries = []
    for q, cols in enumerate(groups):
        rows = groups[q + 1] if q + 1 < len(groups) else ()
        index = {mask: i for i, mask in enumerate(cols)}
        entries = []
        for ri, g in enumerate(rows):
            rest = g
            while rest:
                j = rest.bit_length()
                bit = 1 << (j - 1)
                rest ^= bit
                entries.append((ri, index[g ^ bit], sign_eps(j, g ^ bit)))
        coboundaries.append(IntMatrix.from_entries(len(rows), len(cols), entries))
    return ReducedComplex(bases=groups, coboundaries=coboundaries)


class ComplexCohomology:
    """Cohomology of one reduced complex, every degree, with representatives."""

    __slots__ = ("groups",)

    def __init__(self, groups):
        self.groups = groups  # degree p -> Subquotient, only nondegenerate p kept

    def degrees(self):
        return sorted(self.groups)

    def group(self, p):
        return self.groups.get(p)

    def invariants(self, p):
        g = self.groups.get(p)
        return g.invariants() if g is not None else (0, ())


class ReadOffGroup(PresentedGroup):
    """The group at degree p of a complex whose orders per degree, read_off,
    were read off a smaller subset (see the module docstring).

    gens, express_columns and express read the group at p of build(), the
    (co)homology of the complex itself, which must have the orders of
    read_off in every degree, or LinalgError.  The groups of one complex
    share memo, [build, its result once called], and none refers back to
    another, so a decomposition is freed without the cyclic collector.
    """

    __slots__ = ("_p", "_read_off", "_memo", "_group")

    def __init__(self, p, read_off, memo):
        self.orders = read_off[p]
        self._p, self._read_off, self._memo, self._group = p, read_off, memo, None

    def _read(self):
        memo = self._memo
        built = memo[1] = memo[1] or memo[0]()
        got = {q: built.group(q).orders for q in built.degrees()}
        if got != self._read_off:
            raise LinalgError(f"groups read off a smaller subset have the orders "
                              f"{self._read_off} per degree, their built complex {got}")
        self._group = built.groups[self._p]
        self._read_off = self._memo = None
        return self._group

    @property
    def gens(self):
        return (self._group or self._read()).gens

    def express_columns(self, mat):
        return (self._group or self._read()).express_columns(mat)

    def express(self, vec):
        return (self._group or self._read()).express(vec)


def read_off_cohomology(orders, build):
    """ComplexCohomology of ReadOffGroups with orders[p] at each degree p;
    build() gives the (co)homology of the complex, on the first read of
    representatives, once for all its degrees."""
    memo = [build, None]
    return ComplexCohomology({p: ReadOffGroup(p, orders, memo) for p in orders})


def _groups(cx, side, homology_at):
    """Degree p -> the nontrivial homology_at(incoming, outgoing) at p."""
    groups = {}
    for q, basis in enumerate(cx.bases):
        if basis:
            sq = homology_at(*cx.differentials(q - 1, side))
            if not sq.is_trivial():
                groups[q - 1] = sq
    return groups


def cohomology(cx):
    """Reduced cohomology with representatives, per degree."""
    return ComplexCohomology(_groups(cx, "cohomology", free_homology))


def homology(cx):
    """Reduced homology with representatives, per degree, on the same bases."""
    return ComplexCohomology(_groups(cx, "homology", free_homology))


def face_positions(bases_from, bases_to, p):
    """For each degree-p face of the bases list bases_to, its position
    among those of bases_from, or None: the 0/1 chain matrix, one 1 per
    row at most, of restriction (bases_to inside bases_from) and of
    inclusion (the reverse)."""
    index = {mask: i for i, mask in enumerate(_basis(bases_from, p))}
    return [index.get(mask) for mask in _basis(bases_to, p)]


def induced_map(src_coh, dst_coh, positions, p):
    """Class-level matrix in degree p of the (co)chain map that
    face_positions gives as positions: the rows of the source
    representatives that it picks, expressed in the target generators."""
    src, dst = src_coh.group(p), dst_coh.group(p)
    n_src, n_dst = (g.n_gens if g is not None else 0 for g in (src, dst))
    if n_src == 0 or n_dst == 0:
        return IntMatrix.zeros(n_dst, n_src)
    return dst.express_columns(src.gens.rows_at(positions))


class FieldComplexCohomology(ComplexCohomology):
    """(Co)homology of one reduced complex over the field of ops, as
    Subquotients over it: dimension first, representatives on first read."""

    __slots__ = ()

    def __init__(self, cx, ops, side="cohomology"):
        super().__init__(_groups(cx, side, ops.free_homology))
