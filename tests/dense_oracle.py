"""Dense integer matrix arithmetic on lists of rows, with a literal Smith
normal form: the oracle that the sparse IntMatrix operations and the
eliminations of macoh.linalg are checked against, and the searches that
faster routines elsewhere replace.

A DenseMatrix holds its rows as lists and its width, so 0 x n and n x 0
shapes keep their shape.  Nothing here shares code with macoh.linalg,
except the helpers after the Smith form, which read what tests ask of
the Smith decomposition, of homology_of_pair and of a PresentedGroup, scale an
IntMatrix, and build the 0/1 chain matrices of restriction and
inclusion from face lists, with the class maps they induce: the
block-by-block oracle of d', which shares nothing with face_positions,
IntMatrix.rows_at or IntMatrix.from_blocks.  coboundaries_by_column_scan
builds the coboundaries of a full subcomplex column by column, on dense
rows: the oracle of the facet-built homology.reduced_complex.
wedge_decomposition_by_search tries every nonempty face τ and every
bipartition of the vertices outside it: the oracle of
SimplicialComplex.is_wedge_decomposable, which merges the pieces of the
maximal faces outside τ that meet instead.
"""

from macoh.complexes import WedgeDecomposition, submasks, vertices_of
from macoh.linalg import (
    GroupMorphism,
    IntMatrix,
    PresentedGroup,
    homology_of_pair,
    smith_normal_form,
)


class DenseMatrix:
    def __init__(self, rows, ncols):
        self.rows = [list(row) for row in rows]
        self.nrows = len(self.rows)
        self.ncols = ncols
        assert all(len(row) == ncols for row in self.rows)

    @classmethod
    def of(cls, mat):
        """The dense copy of an IntMatrix."""
        return cls(mat.rows, mat.ncols)

    @classmethod
    def zeros(cls, nrows, ncols):
        return cls([[0] * ncols for _ in range(nrows)], ncols)

    @classmethod
    def identity(cls, n):
        return cls([[int(i == j) for j in range(n)] for i in range(n)], n)

    @classmethod
    def from_columns(cls, columns, nrows):
        return cls([[c[i] for c in columns] for i in range(nrows)], len(columns))

    @classmethod
    def from_entries(cls, nrows, ncols, entries):
        out = cls.zeros(nrows, ncols)
        for r, c, v in entries:
            out.rows[r][c] += v
        return out

    def sparse(self):
        return IntMatrix(self.rows, self.ncols)

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    def entries(self):
        return [(r, c, v) for r, row in enumerate(self.rows) for c, v in enumerate(row) if v]

    def transpose(self):
        return DenseMatrix([[row[j] for row in self.rows] for j in range(self.ncols)],
                           self.nrows)

    def column(self, j):
        return [row[j] for row in self.rows]

    def hstack(self, other):
        return DenseMatrix([a + b for a, b in zip(self.rows, other.rows)],
                           self.ncols + other.ncols)

    def __matmul__(self, other):
        return DenseMatrix([[sum(row[k] * other.rows[k][j] for k in range(self.ncols))
                             for j in range(other.ncols)] for row in self.rows], other.ncols)

    def mulvec(self, vec):
        return [sum(a * b for a, b in zip(row, vec)) for row in self.rows]

    def scaled(self, c):
        return DenseMatrix([[c * x for x in row] for row in self.rows], self.ncols)

    def __add__(self, other):
        return DenseMatrix([[a + b for a, b in zip(r1, r2)]
                            for r1, r2 in zip(self.rows, other.rows)], self.ncols)

    def __sub__(self, other):
        return self + other.scaled(-1)

    def is_zero(self):
        return all(x == 0 for row in self.rows for x in row)


def smith_by_full_scan(a):
    """Smith normal form of the IntMatrix a with the pivot rule applied
    literally, on dense rows: every step scans the whole working submatrix
    for the smallest nonzero |x|, ties by (row, column), and checks the
    divisibility of the rest whatever the pivot.  Returns (U, S, V, U_inv)
    as IntMatrix."""
    m, n = a.nrows, a.ncols
    s = DenseMatrix.of(a).rows
    u = DenseMatrix.identity(m).rows
    ui = DenseMatrix.identity(m).rows
    v = DenseMatrix.identity(n).rows

    def row_swap(i, j):
        s[i], s[j] = s[j], s[i]
        u[i], u[j] = u[j], u[i]
        for row in ui:
            row[i], row[j] = row[j], row[i]

    def row_add(i, j, c):
        s[i] = [x + c * y for x, y in zip(s[i], s[j])]
        u[i] = [x + c * y for x, y in zip(u[i], u[j])]
        for row in ui:
            row[j] -= c * row[i]

    def col_swap(i, j):
        for row in s + v:
            row[i], row[j] = row[j], row[i]

    def col_add(i, j, c):
        for row in s + v:
            row[i] += c * row[j]

    for t in range(min(m, n)):
        nonzero = [(abs(s[i][j]), i, j) for i in range(t, m) for j in range(t, n) if s[i][j]]
        if not nonzero:
            break
        _, bi, bj = min(nonzero)
        if bi != t:
            row_swap(t, bi)
        if bj != t:
            col_swap(t, bj)
        while True:
            if s[t][t] < 0:
                s[t] = [-x for x in s[t]]
                u[t] = [-x for x in u[t]]
                for row in ui:
                    row[t] = -row[t]
            p = s[t][t]
            stolen = next((i for i in range(t + 1, m) if s[i][t] % p), None)
            for i in range(t + 1, m if stolen is None else stolen + 1):
                if s[i][t] // p:
                    row_add(i, t, -(s[i][t] // p))
            if stolen is not None:
                row_swap(t, stolen)
                continue
            stolen = next((j for j in range(t + 1, n) if s[t][j] % p), None)
            for j in range(t + 1, n if stolen is None else stolen + 1):
                if s[t][j] // p:
                    col_add(j, t, -(s[t][j] // p))
            if stolen is not None:
                col_swap(t, stolen)
                continue
            pull = next((i for i in range(t + 1, m)
                         if any(s[i][j] % p for j in range(t + 1, n))), None)
            if pull is None:
                break
            row_add(t, pull, 1)
    return (IntMatrix(u, m), IntMatrix(s, n), IntMatrix(v, n), IntMatrix(ui, m))


def smith_divisors_by_full_scan(a):
    """The nonzero diagonal of smith_by_full_scan(a)."""
    s = smith_by_full_scan(a)[1].rows
    return tuple(s[i][i] for i in range(min(a.nrows, a.ncols)) if s[i][i])


def smith_diagonal(a, divisors):
    """The matrix of the shape of a with divisors on its diagonal, from
    (0, 0) on: U @ a @ V for the Smith decomposition of a."""
    return IntMatrix.from_entries(a.nrows, a.ncols, [(i, i, d) for i, d in enumerate(divisors)])


def kernel_basis(a):
    """A basis of the saturated kernel lattice of the IntMatrix a: the
    columns of V past the divisors of smith_normal_form(a)."""
    dec = smith_normal_form(a)
    return IntMatrix.from_columns([dec.V.column(j) for j in range(len(dec.divisors), a.ncols)],
                                  a.ncols)


def kernel_subgroup(g):
    """ker(g) as a subquotient of g.source: homology_of_pair with f = 0."""
    return homology_of_pair(GroupMorphism.zero(PresentedGroup.free(0), g.source), g)


def element_is_zero(group, coords):
    """Whether the element with generator coordinates coords is zero in the
    PresentedGroup group: is_zero of the one-column matrix coords."""
    return group.is_zero(IntMatrix.from_columns([coords], len(coords)))


def scaled(a, c):
    """c times the IntMatrix a, built from its entries; a - b is
    a + scaled(b, -1)."""
    return IntMatrix.from_entries(a.nrows, a.ncols, [(r, j, c * v) for r, j, v in a.entries()])


def coboundaries_by_column_scan(k, support):
    """The coboundary matrices of the reduced cochain complex of the full
    subcomplex on support, as DenseMatrix, built column by column: the
    column of a face L holds (-1)^#{i in L : i < j} in the row of L + j
    for every vertex j of support outside L with L + j a face.  Entry q
    maps the faces with q vertices to those with q + 1."""
    groups = k.faces_within(support)
    out = []
    for q, cols in enumerate(groups):
        rows = groups[q + 1] if q + 1 < len(groups) else []
        row_index = {mask: i for i, mask in enumerate(rows)}
        mat = DenseMatrix.zeros(len(rows), len(cols))
        for ci, face in enumerate(cols):
            for j in range(1, k.m + 1):
                bit = 1 << (j - 1)
                if support & bit and not face & bit and face | bit in row_index:
                    below = (face & (bit - 1)).bit_count()
                    mat.rows[row_index[face | bit]][ci] = -1 if below & 1 else 1
        out.append(mat)
    return out


def _faces_of_degree(bases, p):
    """The faces with p + 1 vertices of a bases list (bases[q] holds the
    faces with q vertices), or []."""
    return bases[p + 1] if 0 <= p + 1 < len(bases) else []


def restriction_matrix(bases_big, bases_small, p):
    """Cochain restriction C^p(K_I) -> C^p(K_J) for J a subset of I, from
    the bases lists of the two subsets (a sweep's cxs, or the bases of
    ReducedComplexes): row r holds one 1, in the column of the r-th face
    of K_J among the faces of K_I."""
    small = _faces_of_degree(bases_small, p)
    index = {mask: i for i, mask in enumerate(_faces_of_degree(bases_big, p))}
    return IntMatrix.from_entries(len(small), len(index),
                                  [(r, index[mask], 1) for r, mask in enumerate(small)])


def inclusion_matrix(bases_small, bases_big, p):
    """Chain inclusion C_p(K_I) -> C_p(K_J) for I a subset of J."""
    return restriction_matrix(bases_big, bases_small, p).transpose()


def induced_by_chain(src_coh, dst_coh, chain, p):
    """Class-level matrix in degree p of the (co)chain map with matrix
    chain: the source representatives pushed through the product with
    chain and expressed in the target generators."""
    src, dst = src_coh.group(p), dst_coh.group(p)
    n_src, n_dst = (g.n_gens if g is not None else 0 for g in (src, dst))
    if n_src == 0 or n_dst == 0:
        return IntMatrix.zeros(n_dst, n_src)
    return dst.express_columns(chain @ src.gens)


def wedge_decomposition_by_search(k):
    """The WedgeDecomposition K = K_{A∪τ} ∪_τ K_{B∪τ} with A, B nonempty
    that a search finds, or None: over the nonempty faces τ in ascending
    mask order, and for each over the bipartitions of the vertices
    outside τ, A holding the lowest of them and A descending, the first
    with every maximal face in A ∪ τ or in B ∪ τ."""
    full = k.full_mask()
    for tau in sorted(k.faces):
        if tau == 0:
            continue
        rest = full & ~tau
        if rest.bit_count() < 2:
            continue
        low = rest & -rest
        for part in submasks(rest ^ low):
            a = low | part
            b = rest ^ a
            if b and all(top & ~(a | tau) == 0 or top & ~(b | tau) == 0
                         for top in k.maximal_faces):
                return WedgeDecomposition(
                    tau=vertices_of(tau),
                    left_vertices=vertices_of(a | tau),
                    right_vertices=vertices_of(b | tau),
                    left=k.full_subcomplex(a | tau),
                    right=k.full_subcomplex(b | tau),
                )
    return None
