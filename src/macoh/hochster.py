"""Bigraded cohomology of a moment-angle complex via full subcomplexes,
and the double (co)homology built from the connecting differential.

Hochster's decomposition identifies H^{-k,2l}(Z_K) with the direct sum
of H~^{l-k-1}(K_I) over the vertex subsets I of size l; the empty
subset contributes H~^{-1} = Z in bidegree (0,0).  The connecting
differential of bidegree (-k,2l) -> (-k+1,2l-2) is

    d' = (-1)^{p+1} * sum over i in I of sign_eps(i, I) * psi_{i;I},

where p = l-k-1 and psi_{i;I} restricts classes from K_I to K_{I-i}.
Double cohomology HH is the homology of the bigraded groups under d'.
The homology-side mirror uses inclusions K_I -> K_{I+j} over vertices j
outside I, with the same sign rule, and moves by (-k,2l) -> (-k-1,2l+2).

Bidegrees are stored as pairs (k, l) with k >= 0; the displayed
bidegree is (-k, 2l).
"""

from __future__ import annotations

from dataclasses import dataclass

from .complexes import sign_eps, vertices_of
from .errors import VerificationError
from .homology import (
    FieldComplexCohomology,
    cohomology,
    homology,
    induced_map,
    inclusion_matrix,
    reduced_complex,
    restriction_matrix,
)
from .linalg import (
    BigradedGroups,
    FieldOps,
    GroupMorphism,
    IntMatrix,
    PresentedGroup,
    graded_homology,
    homology_of_pair,  # noqa: F401 (perfbench tests read hochster.homology_of_pair)
)


@dataclass
class Summand:
    mask: int
    degree: int
    offset: int
    group: object  # Subquotient or FieldSubquotient of the subset (co)homology


@dataclass
class BidegreeLayout:
    summands: list
    group: PresentedGroup  # generator orders of the summands, in layout order


class HochsterDecomposition:
    """Per-bidegree direct sums of subset (co)homology, with layouts."""

    __slots__ = ("complex", "support", "side", "cxs", "cohs", "layouts")

    def __init__(self, complex_, support, side, cxs, cohs, layouts):
        self.complex = complex_
        self.support = support
        self.side = side  # "cohomology" or "homology"
        self.cxs = cxs
        self.cohs = cohs
        self.layouts = layouts

    def bidegrees(self):
        return sorted(self.layouts)

    def invariants(self):
        """dict (k, l) -> (rank, invariant factors) per nontrivial bidegree."""
        return {b: layout.group.invariants() for b, layout in self.layouts.items()}


def _support(k, support):
    """The swept vertex mask: all of K by default, else a checked subset."""
    return k.full_mask() if support is None else k.vertex_mask(support)


def _sweep(k, support, compute):
    """Reduced complex and compute(complex) for every subset of support.

    Subsets whose coboundary matrices are equal share one result object,
    computed once.  An order-preserving relabelling of a full subcomplex
    keeps its ascending-mask bases and every sign_eps, so repeats are
    common, and equal matrices give an identical computation.
    """
    cxs = {}
    cohs = {}
    computed = {}
    for mask in range(support + 1):
        if mask & ~support == 0:
            cxs[mask] = cx = reduced_complex(k, mask)
            key = tuple(cx.coboundaries)  # IntMatrix compares shape and entries
            coh = computed.get(key)
            if coh is None:
                coh = computed[key] = compute(cx)
            cohs[mask] = coh
    return cxs, cohs


def _summands(cohs, size):
    """Per bidegree, the nonzero subset summands in ascending mask order,
    each at the offset where its generators start; size(group) counts them."""
    layouts = {}
    for mask in sorted(cohs):
        l = mask.bit_count()
        coh = cohs[mask]
        for p in coh.degrees():
            summands = layouts.setdefault((l - p - 1, l), [])
            last = summands[-1] if summands else None
            offset = last.offset + size(last.group) if last else 0
            summands.append(Summand(mask=mask, degree=p, offset=offset, group=coh.group(p)))
    return layouts


def _decompose(k, support, side):
    compute = cohomology if side == "cohomology" else homology
    cxs, cohs = _sweep(k, support, compute)
    layouts = {}
    for b, summands in _summands(cohs, lambda sq: sq.n_gens).items():
        group = PresentedGroup(d for s in summands for d in s.group.orders)
        layouts[b] = BidegreeLayout(summands=summands, group=group)
    return HochsterDecomposition(k, support, side, cxs, cohs, layouts)


def hochster_cohomology(k, support=None):
    """Bigraded cohomology of Z_K as subset-graded direct sums."""
    return _decompose(k, _support(k, support), "cohomology")


def hochster_homology(k, support=None):
    """Bigraded homology of Z_K as subset-graded direct sums."""
    return _decompose(k, _support(k, support), "homology")


def _step(side):
    """Bidegree change of d': down on the cohomology side, up on the homology side."""
    return (-1, -1) if side == "cohomology" else (1, 1)


def _next_bidegree(b, side):
    dk, dl = _step(side)
    return (b[0] + dk, b[1] + dl)


def _moves(hd, summand, dst_index, sign_fault=False):
    """The d' blocks out of one summand: (sign, target summand, chain
    matrix) per vertex move whose subset has a summand in dst_index.

    Cohomology removes a vertex of the subset and restricts cochains;
    homology adds a vertex of the support and includes chains.
    """
    mask, p = summand.mask, summand.degree
    if hd.side == "cohomology":
        moves = [(v, mask & ~(1 << (v - 1))) for v in vertices_of(mask)]
        chain_matrix = restriction_matrix
    else:
        moves = [(v, mask | (1 << (v - 1))) for v in vertices_of(hd.support & ~mask)]
        chain_matrix = inclusion_matrix
    for vertex, other in moves:
        target = dst_index.get(other)
        if target is None:
            continue
        if sign_fault:
            sign = 1  # deliberately wrong, for harness negative controls
        else:
            sign = sign_eps(vertex, mask)
            sign = -sign if (p + 1) & 1 else sign
        yield sign, target, chain_matrix(hd.cxs[mask], hd.cxs[other], p)


def d_prime(hd, sign_fault=False):
    """Connecting differentials per source bidegree, verified d'^2 = 0.

    Returns a dict bidegree -> GroupMorphism into the adjacent bidegree
    ((k-1, l-1) on the cohomology side, (k+1, l+1) on the homology
    side); a trivial target yields a morphism to the zero group.
    """
    morphisms = {}
    for b in hd.bidegrees():
        src_layout = hd.layouts[b]
        src_group = src_layout.group
        dst_layout = hd.layouts.get(_next_bidegree(b, hd.side))
        if dst_layout is None:
            morphisms[b] = GroupMorphism.zero(src_group, PresentedGroup.free(0))
            continue
        dst_group = dst_layout.group
        dst_index = {s.mask: s for s in dst_layout.summands}
        mat = IntMatrix.zeros(dst_group.n_gens, src_group.n_gens)
        for summand in src_layout.summands:
            for sign, target, chain in _moves(hd, summand, dst_index, sign_fault):
                block = induced_map(hd.cohs[summand.mask], hd.cohs[target.mask], chain,
                                    summand.degree)
                for r in range(block.nrows):
                    row = mat.rows[target.offset + r]
                    brow = block.rows[r]
                    for c in range(block.ncols):
                        row[summand.offset + c] += sign * brow[c]
        morphisms[b] = GroupMorphism(src_group, dst_group, mat)
    _verify_squares_to_zero(hd, morphisms)
    return morphisms


def _verify_squares_to_zero(hd, morphisms):
    for b, first in morphisms.items():
        second = morphisms.get(_next_bidegree(b, hd.side))
        if second is None or first.target.n_gens == 0 or second.target.n_gens == 0:
            continue
        composite = second.matrix @ first.matrix
        for j in range(composite.ncols):
            if not second.target.element_is_zero(composite.column(j)):
                raise VerificationError(
                    f"connecting differential does not square to zero at bidegree "
                    f"(-{b[0]}, {2 * b[1]})")


class DoubleGroups(BigradedGroups):
    """Double (co)homology: per-bidegree subquotients under d'."""

    __slots__ = ("decomposition",)

    def __init__(self, decomposition, groups):
        super().__init__(groups)
        self.decomposition = decomposition


def _double(hd, sign_fault=False):
    morphisms = d_prime(hd, sign_fault=sign_fault)
    return DoubleGroups(hd, graded_homology(morphisms, _step(hd.side)))


def double_cohomology(k, sign_fault=False):
    """HH*(Z_K) over Z, from the cohomology-side connecting differential."""
    return _double(hochster_cohomology(k), sign_fault=sign_fault)


def double_homology(k, sign_fault=False):
    """HH_*(Z_K) over Z, from the homology-side connecting differential."""
    return _double(hochster_homology(k), sign_fault=sign_fault)


# ---------------------------------------------------------------------------
# morphisms of decompositions


def _check_commutes(hd_src, hd_dst, matrices, message):
    d_src = d_prime(hd_src)
    d_dst = d_prime(hd_dst)
    side = hd_src.side
    for b in hd_src.bidegrees():
        nxt = _next_bidegree(b, side)
        dst_next = hd_dst.layouts.get(nxt)
        if dst_next is None:
            continue
        n_rows = dst_next.group.n_gens
        n_cols = hd_src.layouts[b].group.n_gens
        left = IntMatrix.zeros(n_rows, n_cols)
        if nxt in hd_src.layouts and nxt in matrices:
            left = matrices[nxt] @ d_src[b].matrix
        right = IntMatrix.zeros(n_rows, n_cols)
        if b in matrices and b in d_dst and hd_dst.layouts.get(b) is not None:
            right = d_dst[b].matrix @ matrices[b]
        diff = left - right
        for j in range(diff.ncols):
            if not dst_next.group.element_is_zero(diff.column(j)):
                raise VerificationError(message)


def ch_restriction_morphism(k, vertices):
    """Inclusion CH*(Z_{K_I}) -> CH*(Z_K) for a vertex subset I.

    The decomposition over subsets of I is a sub-collection of summands
    of the decomposition of K (identical generators, original labels),
    so the morphism is an offset-placed identity on every bidegree.
    Returns (hd_sub, hd_full, matrices keyed by sub bidegree) after
    checking commutation with d'.
    """
    imask = k.vertex_mask(vertices)
    hd_full = hochster_cohomology(k)
    hd_sub = hochster_cohomology(k, support=imask)
    matrices = {}
    for b, sub_layout in hd_sub.layouts.items():
        full_layout = hd_full.layouts.get(b)
        if full_layout is None:
            raise VerificationError("subcomplex summand missing from the ambient complex")
        full_index = {s.mask: s for s in full_layout.summands}
        mat = IntMatrix.zeros(full_layout.group.n_gens, sub_layout.group.n_gens)
        for summand in sub_layout.summands:
            target = full_index.get(summand.mask)
            if target is None or target.group.n_gens != summand.group.n_gens:
                raise VerificationError("subcomplex summand differs from ambient summand")
            for c in range(summand.group.n_gens):
                mat.rows[target.offset + c][summand.offset + c] = 1
        matrices[b] = mat
    _check_commutes(hd_sub, hd_full, matrices,
                    "full-subcomplex inclusion does not commute with d'")
    return hd_sub, hd_full, matrices


def _basis_injection(basis_small, basis_big):
    """Chains supported on a sub-list of faces include into the bigger list."""
    index = {mask: i for i, mask in enumerate(basis_big)}
    mat = IntMatrix.zeros(len(basis_big), len(basis_small))
    for c, mask in enumerate(basis_small):
        mat.rows[index[mask]][c] = 1
    return mat


def ch_subcomplex_morphisms(l_complex, k_complex, side="homology"):
    """Bigraded morphism induced by a subcomplex L of K on the same
    vertex set: the chain pushforward CH_*(Z_L) -> CH_*(Z_K) on the
    homology side, the cochain restriction CH*(Z_K) -> CH*(Z_L) on the
    cohomology side.  Returns (hd_src, hd_dst, matrices keyed by source
    bidegree) after checking commutation with the connecting
    differential.
    """
    if l_complex.m != k_complex.m:
        raise VerificationError("subcomplex morphism needs a common vertex set")
    for face in l_complex.maximal_faces:
        if not k_complex.has_face(face):
            raise VerificationError("L is not a subcomplex of K")
    if side == "homology":
        hd_src = hochster_homology(l_complex)
        hd_dst = hochster_homology(k_complex)
        small, big = hd_src, hd_dst
    else:
        hd_src = hochster_cohomology(k_complex)
        hd_dst = hochster_cohomology(l_complex)
        small, big = hd_dst, hd_src
    matrices = {}
    for b, src_layout in hd_src.layouts.items():
        dst_layout = hd_dst.layouts.get(b)
        n_dst = dst_layout.group.n_gens if dst_layout else 0
        mat = IntMatrix.zeros(n_dst, src_layout.group.n_gens)
        if dst_layout is not None:
            dst_index = {(s.mask, s.degree): s for s in dst_layout.summands}
            for summand in src_layout.summands:
                target = dst_index.get((summand.mask, summand.degree))
                if target is None:
                    continue
                mask, p = summand.mask, summand.degree
                injection = _basis_injection(small.cxs[mask].basis(p),
                                             big.cxs[mask].basis(p))
                chain = injection if side == "homology" else injection.transpose()
                block = induced_map(hd_src.cohs[mask], hd_dst.cohs[mask], chain, p)
                for r in range(block.nrows):
                    for c in range(block.ncols):
                        mat.rows[target.offset + r][summand.offset + c] = block.rows[r][c]
        matrices[b] = mat
    _check_commutes(hd_src, hd_dst, matrices,
                    "subcomplex morphism does not commute with the connecting differential")
    return hd_src, hd_dst, matrices


# ---------------------------------------------------------------------------
# field coefficients


class FieldHochster:
    """Field-coefficient decomposition: dimensions and class maps only."""

    __slots__ = ("complex", "support", "side", "field", "ops", "cxs", "cohs",
                 "dims", "layouts")

    def __init__(self, complex_, support, side, field, ops, cxs, cohs, dims, layouts):
        self.complex = complex_
        self.support = support
        self.side = side
        self.field = field
        self.ops = ops
        self.cxs = cxs
        self.cohs = cohs
        self.dims = dims          # (k, l) -> dimension
        self.layouts = layouts    # (k, l) -> list of Summand


def hochster_field(k, field, side="cohomology", support=None):
    """Bigraded (co)homology dimensions over Q or F_p, with class data."""
    support = _support(k, support)
    ops = FieldOps(field)
    cxs, cohs = _sweep(k, support, lambda cx: FieldComplexCohomology(cx, ops, side=side))
    layouts = _summands(cohs, lambda sq: sq.dim)
    dims = {b: summands[-1].offset + summands[-1].group.dim
            for b, summands in layouts.items()}
    return FieldHochster(k, support, side, field, ops, cxs, cohs, dims, layouts)


def d_prime_field(fh):
    """Connecting differential matrices over the field, keyed by source bidegree."""
    ops = fh.ops
    out = {}
    for b, layout in fh.layouts.items():
        target_b = _next_bidegree(b, fh.side)
        dst_layout = fh.layouts.get(target_b)
        if dst_layout is None:
            out[b] = None
            continue
        dst_index = {s.mask: s for s in dst_layout}
        mat = [[ops.of_int(0)] * fh.dims[b] for _ in range(fh.dims[target_b])]
        for summand in layout:
            for sign, target, chain in _moves(fh, summand, dst_index):
                for c, rep in enumerate(summand.group.reps):
                    coords = target.group.express(ops.apply_int_matrix(chain, rep))
                    for r, x in enumerate(coords):
                        if x:
                            row = mat[target.offset + r]
                            row[summand.offset + c] = ops.add(
                                row[summand.offset + c], ops.scale_int(sign, x))
        out[b] = mat
    return out


def double_field(k_or_fh, field, side="cohomology"):
    """Dimensions of double (co)homology over the field, per bidegree.

    k_or_fh is a complex, or the FieldHochster that hochster_field(k,
    field, side) returned, whose sweep is then reused.
    """
    if isinstance(k_or_fh, FieldHochster):
        fh = k_or_fh
        if (fh.field, fh.side) != (field, side):
            raise ValueError(f"decomposition is over {fh.field} on the {fh.side} side, "
                             f"not over {field} on the {side} side")
    else:
        fh = hochster_field(k_or_fh, field, side=side)
    ops = fh.ops
    ranks = {b: ops.rank(mat) if mat else 0 for b, mat in d_prime_field(fh).items()}
    dk, dl = _step(fh.side)
    dims = {}
    for b, dim in fh.dims.items():
        hh = dim - ranks[b] - ranks.get((b[0] - dk, b[1] - dl), 0)
        if hh:
            dims[b] = hh
    return dims
