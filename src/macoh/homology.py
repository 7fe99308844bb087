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
highest vertex of I, P = I - t nonempty, and L the link of t in K_P, so
that K_I = K_P ∪ t*L with K_P ∩ t*L = L.  Let L have c components, each
a simplex, lying in c distinct components of K_P.  If c = 0, K_I is K_P
plus the isolated point t.  Otherwise the cone t*L is acyclic, and L has
H~_0 = Z^{c-1} and nothing above, so the reduced Mayer–Vietoris sequence
of K_P and t*L gives H~_n(K_I) = H~_n(K_P) for n >= 1 and

    0 -> H~_0(L) -> H~_0(K_P) -> H~_0(K_I) -> 0,

exact on the left because no component of K_P meets two of L.  Either
way K_I has the groups of K_P in every degree, with 1 - c more free
generators in degree 0: t joins c components into one.  The same holds
over Q and F_p, and for cohomology by the dual sequence.
read_off_cohomology holds such groups and builds the complex itself
only when representatives in a degree above 0 are read.

Degree 0 needs no elimination, on any ring.  Let K_I have the
components C_0, ..., C_{c-1}, each given by its lowest vertex v_i, in
ascending order, so that v_0 is the lowest vertex of I.  A 0-cochain x
is a cocycle exactly when it is constant on each component, and the
coboundaries are the constants, so H~^0 is free on the indicator
cochains of C_1, ..., C_{c-1}, and the class of a cocycle x has the
coordinates x(v_i) - x(v_0).  Dually a 0-chain is a boundary exactly
when its coefficients sum to 0 over each component, so H~_0, the
chains with coefficient sum 0 modulo boundaries, is free on v_i - v_0
for i >= 1, and the class of a chain has as coordinates its
coefficient sums over C_1, ..., C_{c-1}.  Both pairs are inverse on
the nose, over Z and so over Q and F_p.  _components reads them off the
vertices and edges (complexes.merged), for built and read-off groups
alike; the orders of a built group still come from its differentials,
those of a read-off one from the smaller subset, and either must equal
the c - 1 free generators of the components, or LinalgError.
express_columns tests that each column is a cocycle or a cycle of
coefficient sum 0, over the ring, before it reads coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

from .complexes import merged, sign_eps
from .linalg import (
    IntMatrix,
    LinalgError,
    PresentedGroup,
    Subquotient,
    free_homology,
    free_pair,
)


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
    faces, when the caller has them, is k.faces_within(support)."""
    if support is None:
        support = k.full_mask()
    groups = k.faces_within(support) if faces is None else faces
    return ReducedComplex(bases=groups, coboundaries=[_coboundary(groups, q)
                                                      for q in range(len(groups))])


def _coboundary(bases, q):
    """The coboundary from the faces bases[q] to bases[q + 1] (none when
    there are none).  Row g has one entry per facet g - j, with sign
    sign_eps(j, g - j); a full subcomplex holds every facet of its faces.
    The facets come by descending j, so each row's columns ascend."""
    cols, rows = bases[q], bases[q + 1] if q + 1 < len(bases) else ()
    index = {mask: i for i, mask in enumerate(cols)}
    entries = []
    for ri, g in enumerate(rows):
        rest = g
        while rest:
            j = rest.bit_length()
            bit = 1 << (j - 1)
            rest ^= bit
            entries.append((ri, index[g ^ bit], sign_eps(j, g ^ bit)))
    return IntMatrix.from_entries(len(rows), len(cols), entries)


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
    read_off in every degree, or LinalgError.  At p = 0 they read that of
    build(0) instead, the group in degree 0 alone from the components,
    which must have the orders of read_off there.  The groups of one
    complex share memo, [build, the result of build() once called], and
    none refers back to another, so a decomposition is freed without the
    cyclic collector.
    """

    __slots__ = ("_p", "_read_off", "_memo", "_group")

    def __init__(self, p, read_off, memo):
        self.orders = read_off[p]
        self._p, self._read_off, self._memo, self._group = p, read_off, memo, None

    def _read(self):
        memo, p, want = self._memo, self._p, self._read_off
        if p == 0:
            built, source, want = memo[0](0), "components", {0: want[0]}
        else:
            built = memo[1] = memo[1] or memo[0]()
            source = "built complex"
        got = {q: built.group(q).orders for q in built.degrees()}
        if got != want:
            raise LinalgError(f"groups read off a smaller subset have the orders "
                              f"{want} per degree, their {source} {got}")
        self._group = built.groups[p]
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
    representatives in a degree p > 0, once for all its degrees, and
    build(0) its group in degree 0 alone, read off the components."""
    memo = [build, None]
    return ComplexCohomology({p: ReadOffGroup(p, orders, memo) for p in orders})


def _components(bases, side):
    """(orders, gens, coords) of the group in degree 0 of the complex on the
    bases list, read off the components of its vertices and edges with no
    elimination (see the module docstring): one free generator per
    component but the one of the lowest vertex v_0."""
    vertices = _basis(bases, 0)
    at = {v: j for j, v in enumerate(vertices)}
    parts = sorted(merged(_basis(bases, 1) + vertices), key=lambda part: part & -part)[1:]
    # (vertex, component i) for each vertex of component i, and for its
    # lowest vertex v_i with 1 and v_0 with -1
    spread = [(at[v], i, 1) for i, part in enumerate(parts) for v in vertices if v & part]
    pinned = [e for i, part in enumerate(parts) for e in ((at[part & -part], i, 1), (0, i, -1))]
    gens, coords = (spread, pinned) if side == "cohomology" else (pinned, spread)
    n, c = len(vertices), len(parts)
    return ((0,) * c, IntMatrix.from_entries(n, c, gens),
            IntMatrix.from_entries(c, n, [(i, j, x) for j, i, x in coords]))


def _groups(cx, side, homology_at):
    """Degree p -> the nontrivial homology_at(incoming, outgoing) at p; in
    degree 0 its representatives come from the components."""
    groups = {}
    for q, basis in enumerate(cx.bases):
        if basis:
            sq = homology_at(*cx.differentials(q - 1, side))
            if not sq.is_trivial():
                if q == 1:
                    sq.represented_by(partial(_components, cx.bases, side))
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


class Coefficients:
    """The (co)homology of reduced complexes on side ("cohomology" or
    "homology"), over Z when ops is None, else over the field of the
    FieldOps ops: self(cx) of a complex in every degree, and
    degree_zero(bases) of the complex on a bases list in degree 0 alone."""

    __slots__ = ("side", "ops")

    def __init__(self, side, ops=None):
        self.side, self.ops = side, ops

    def __call__(self, cx):
        if self.ops is not None:
            return FieldComplexCohomology(cx, self.ops, self.side)
        return (cohomology if self.side == "cohomology" else homology)(cx)

    def degree_zero(self, bases):
        """ComplexCohomology of the group in degree 0 alone, with no
        elimination: its orders and representatives from _components, and
        its differentials, for the kernel test of express_columns, from the
        vertices and edges only."""
        orders, *reps = _components(bases, self.side)
        if not orders:
            return ComplexCohomology({})
        cx = ReducedComplex(bases=bases[:3], coboundaries=[_coboundary(bases, q) for q in (0, 1)])
        pair = free_pair(*cx.differentials(0, self.side))
        sq = Subquotient(*pair, orders, 0 if self.ops is None else self.ops.p)
        return ComplexCohomology({0: sq.represented_by(lambda: (orders, *reps))})
