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
from functools import partial

from .complexes import sign_eps, vertices_of
from .errors import VerificationError
from .homology import (
    FaceBases,
    FieldComplexCohomology,
    cohomology,
    homology,
    induced_map,
    inclusion_matrix,
    read_off_cohomology,
    reduced_complex,
    restriction_matrix,
)
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


@dataclass
class Summand:
    mask: int
    degree: int
    offset: int
    group: object  # Subquotient, or over a field FieldSubquotient, of the subset


@dataclass
class BidegreeLayout:
    summands: list
    group: PresentedGroup  # generator orders of the summands, in layout order


class HochsterDecomposition:
    """Per-bidegree direct sums of subset (co)homology, with layouts.

    field is None over Z, else "Q" or a prime p, with ops its FieldOps;
    over a field every generator is free, so invariants() gives
    (dimension, ()) per bidegree.  cxs holds the FaceBases of every
    subset, cohs its (co)homology, and classes its class index from
    _sweep, the same for two subsets exactly when they share one
    (co)homology object, which _moves reads to share d' blocks.
    """

    __slots__ = ("complex", "support", "side", "field", "ops", "cxs", "cohs", "classes",
                 "layouts")

    def __init__(self, complex_, side, field, ops, cxs, cohs, classes, layouts):
        self.complex = complex_
        self.support = complex_.full_mask()  # every vertex: the largest subset swept
        self.side = side  # "cohomology" or "homology"
        self.field = field
        self.ops = ops
        self.cxs = cxs
        self.cohs = cohs
        self.classes = classes
        self.layouts = layouts

    def bidegrees(self):
        return sorted(self.layouts)

    def invariants(self):
        """dict (k, l) -> (rank, invariant factors) per nontrivial bidegree."""
        return {b: layout.group.invariants() for b, layout in self.layouts.items()}

    @property
    def dims(self):
        """dict (k, l) -> number of generators (over a field, the dimension)."""
        return {b: layout.group.n_gens for b, layout in self.layouts.items()}


def _sweep(k, compute):
    """FaceBases, compute(reduced complex) and the class of every vertex
    subset of K.

    Subsets come in ascending mask order, each I after P = I - t, t its
    highest vertex.  The faces of K_I with q + 1 vertices are those of P,
    then f | t for the link faces f of P with q vertices (f | t in K),
    already ascending as t exceeds every vertex of P.

    Subsets whose full subcomplexes agree under an order-preserving
    relabelling form a class and share one result object, computed on the
    first one's reduced complex: the relabelling keeps the bases and every
    sign_eps, so the coboundary matrices.  It sends t to t, P onto P and
    each link face to the one at its position in P's bases, so the key
    (class of P, those positions) names the class.  A repeat builds no
    matrix, only the bases are kept, and a class is its index in results.

    A new class whose P is nonempty and whose link of t is the simplex on
    the union of the link faces (union | t a face of K) builds no matrix
    either: t is isolated (union empty) or coned off, so K_I has the
    groups of P, plus one free generator in degree 0 when t is isolated
    (see homology).  read_off_cohomology builds its reduced complex only
    when d' reads representatives, and checks the orders then.
    """
    faces = k.faces
    cxs, cohs, classes = {}, {}, {}
    computed, results = {}, []  # key -> class index into results
    bases, key, top, union = [[0]], None, 0, 0  # the empty set; each later I is built from its P
    for mask in range(1 << k.m):
        if mask:
            top = 1 << (mask.bit_length() - 1)
            below = cxs[mask ^ top].bases
            link, raised, position, union = [], [], 0, 0
            for group in below:
                up = []
                for f in group:
                    if f | top in faces:
                        up.append(f | top)
                        link.append(position)
                        union |= f
                    position += 1
                raised.append(up)
            bases = [a + b for a, b in zip(below + [[]], [[]] + raised)]
            if not bases[-1]:  # no link face of P's top cardinality
                bases.pop()
            key = (classes[mask ^ top], tuple(link))
        cxs[mask] = FaceBases(mask, bases)
        index = computed.get(key)
        if index is None:
            index = computed[key] = len(results)
            build = partial(_build_class, compute, k, mask, bases)
            if mask != top and union | top in faces:
                orders = {p: g.orders for p, g in cohs[mask ^ top].groups.items()}
                if not union:
                    orders[0] = orders.get(0, ()) + (0,)
                results.append(read_off_cohomology(orders, build))
            else:
                results.append(build())
        classes[mask] = index
        cohs[mask] = results[index]
    return cxs, cohs, classes


def _build_class(compute, k, mask, bases):
    return compute(reduced_complex(k, mask, bases))


def _summands(cohs):
    """Per bidegree, the nonzero subset summands in ascending mask order,
    each at the offset where its generators start."""
    layouts = {}
    for mask in sorted(cohs):
        l = mask.bit_count()
        coh = cohs[mask]
        for p in coh.degrees():
            summands = layouts.setdefault((l - p - 1, l), [])
            last = summands[-1] if summands else None
            offset = last.offset + last.group.n_gens if last else 0
            summands.append(Summand(mask=mask, degree=p, offset=offset, group=coh.group(p)))
    return layouts


def _decompose(k, side, field=None):
    ops = None if field is None else FieldOps(field)
    if ops is None:
        compute = cohomology if side == "cohomology" else homology
    else:
        compute = partial(FieldComplexCohomology, ops=ops, side=side)
    cxs, cohs, classes = _sweep(k, compute)
    layouts = {}
    for b, summands in _summands(cohs).items():
        group = PresentedGroup(d for s in summands for d in s.group.orders)
        layouts[b] = BidegreeLayout(summands=summands, group=group)
    return HochsterDecomposition(k, side, field, ops, cxs, cohs, classes, layouts)


def hochster_cohomology(k):
    """Bigraded cohomology of Z_K as subset-graded direct sums."""
    return _decompose(k, "cohomology")


def hochster_homology(k):
    """Bigraded homology of Z_K as subset-graded direct sums."""
    return _decompose(k, "homology")


def _check_side(side):
    if side not in ("cohomology", "homology"):
        raise ValueError(f"side must be 'cohomology' or 'homology', not {side!r}")


def _step(side):
    """Bidegree change of d': down on the cohomology side, up on the homology side."""
    return (-1, -1) if side == "cohomology" else (1, 1)


def _next_bidegree(b, side):
    dk, dl = _step(side)
    return (b[0] + dk, b[1] + dl)


def _moves(hd, summand, dst_index, memo, sign_fault=False):
    """The d' blocks out of one summand: (sign, target summand, class
    matrix) per vertex move whose subset has a summand in dst_index.

    Cohomology removes a vertex of the subset and restricts cochains;
    homology adds a vertex outside it and includes chains.

    The class matrix depends only on the class of the larger subset (the
    subset itself on the cohomology side, the one with the vertex added
    on the homology side), the position of the moved vertex among its
    vertices (K has no ghost vertices, so those of K_I are I) and the
    degree.  An order-preserving relabelling of the larger subset
    carries the smaller one, both bases and the chain matrix along, and
    both subsets keep their (co)homology objects.  So memo, one dict per
    _connecting call, keeps each class matrix under that triple; the
    sign stays outside it.
    """
    mask, p = summand.mask, summand.degree
    cohomology_side = hd.side == "cohomology"
    if cohomology_side:
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
        larger = mask if cohomology_side else other
        key = (hd.classes[larger], (larger & ((1 << (vertex - 1)) - 1)).bit_count(), p)
        block = memo.get(key)
        if block is None:
            chain = chain_matrix(hd.cxs[mask], hd.cxs[other], p)
            block = memo[key] = induced_map(hd.cohs[mask], hd.cohs[other], chain, p)
        yield sign, target, block


def _assemble(src_layout, dst_layout, blocks):
    """The matrix from src_layout into dst_layout (None: no rows) that adds
    sign * block at (target, summand) for each (sign, target summand, block)
    of blocks(summand, dst_index), where dst_index keys the targets by mask."""
    dst_index = {s.mask: s for s in dst_layout.summands} if dst_layout else {}
    entries = []
    for summand in src_layout.summands:
        for sign, target, block in blocks(summand, dst_index):
            entries.extend((target.offset + r, summand.offset + c, sign * v)
                           for r, c, v in block.entries())
    return IntMatrix.from_entries(dst_layout.group.n_gens if dst_layout else 0,
                                  src_layout.group.n_gens, entries)


def _connecting(hd, sign_fault=False):
    """d' per source bidegree over the ring of hd, into the adjacent
    bidegree (no rows when that is zero).  Over F_p the entries stay
    unreduced: FieldOps.rank, their only reader there, reduces them."""
    blocks = partial(_moves, hd, memo={}, sign_fault=sign_fault)
    return {b: _assemble(hd.layouts[b], hd.layouts.get(_next_bidegree(b, hd.side)), blocks)
            for b in hd.bidegrees()}


def _morphisms(hd, connecting):
    """The matrices of connecting, per source bidegree, as morphisms into
    the adjacent bidegree; a trivial target yields the zero group."""
    morphisms = {}
    for b, mat in connecting.items():
        dst_layout = hd.layouts.get(_next_bidegree(b, hd.side))
        dst_group = dst_layout.group if dst_layout else PresentedGroup.free(0)
        morphisms[b] = GroupMorphism(hd.layouts[b].group, dst_group, mat)
    return morphisms


def d_prime(hd, sign_fault=False):
    """Connecting differentials per source bidegree over Z; _double tests d'^2 = 0.

    Returns a dict bidegree -> GroupMorphism into the adjacent bidegree
    ((k-1, l-1) on the cohomology side, (k+1, l+1) on the homology
    side); a trivial target yields a morphism to the zero group.
    """
    return _morphisms(hd, _connecting(hd, sign_fault))


class DoubleGroups(BigradedGroups):
    """Double (co)homology: per-bidegree subquotients under d'."""

    __slots__ = ("decomposition",)

    def __init__(self, decomposition, groups):
        super().__init__(groups)
        self.decomposition = decomposition


def _double(k_or_hd, side, sign_fault=False):
    """HH on side by graded_homology, over Z from a complex, or over the
    ring of k_or_hd, a decomposition on side.  The ring picks only the
    spot routine.  d_prime is the integral entry point; a field d' (over Q
    with Fraction entries) comes straight from _connecting."""
    hd = k_or_hd
    if not isinstance(hd, HochsterDecomposition):
        hd = hochster_field(hd, None, side=side)
    elif hd.side != side:
        raise ValueError(f"decomposition is on the {hd.side} side, not the {side} side")
    if hd.ops is None:
        morphisms, homology_at = d_prime(hd, sign_fault), homology_of_pair
    else:
        morphisms = _morphisms(hd, _connecting(hd, sign_fault))
        homology_at = hd.ops.homology_of_pair
    try:
        groups = graded_homology(morphisms, _step(side), homology_at)
    except NonzeroComposite as exc:
        kk, l = exc.bidegree
        raise VerificationError(f"connecting differential does not square to zero at "
                                f"bidegree (-{kk}, {2 * l})") from exc
    return DoubleGroups(hd, groups)


def double_cohomology(k_or_hd, sign_fault=False):
    """HH*(Z_K): over Z, or over the ring of a decomposition (reused)."""
    return _double(k_or_hd, "cohomology", sign_fault=sign_fault)


def double_homology(k_or_hd, sign_fault=False):
    """HH_*(Z_K): over Z, or over the ring of a decomposition (reused)."""
    return _double(k_or_hd, "homology", sign_fault=sign_fault)


# ---------------------------------------------------------------------------
# field coefficients


def hochster_field(k, field, side="cohomology"):
    """Bigraded (co)homology over Q or F_p (over Z when field is None): a
    HochsterDecomposition whose dims are the dimensions and whose summands
    are FieldSubquotients, each with its dimension first and
    representatives only when d' reads them."""
    _check_side(side)
    return _decompose(k, side, field)


def double_field(k_or_hd, field, side="cohomology"):
    """Dimensions of double (co)homology over the field, per bidegree, from
    the walk of _double; each d' matrix is eliminated once, as FieldOps.rank
    keeps its rank.  k_or_hd is a complex, or the decomposition that
    hochster_field(k, field, side) returned, whose sweep is then reused.

    Ranks alone do not test d'^2 = 0, but they catch a failure that makes
    a dimension negative, and _double then names its source bidegree.
    """
    if field is None:
        raise ValueError("double_field needs Q or a prime; over Z use double_cohomology")
    if not isinstance(k_or_hd, HochsterDecomposition):
        k_or_hd = hochster_field(k_or_hd, field, side=side)
    elif (k_or_hd.field, k_or_hd.side) != (field, side):
        raise ValueError(f"decomposition is over {k_or_hd.field or 'Z'} on the "
                         f"{k_or_hd.side} side, not over {field} on the {side} side")
    return {b: group.n_gens for b, group in _double(k_or_hd, side).groups.items()}
