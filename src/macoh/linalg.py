"""Exact linear algebra over the integers and over fields.

Everything in the bigraded pipelines reduces to a handful of integer
lattice computations: Smith normal forms with tracked unimodular
transforms, saturated kernel lattices, solving A x = b over Z, and
presenting subquotients ker(g)/im(f) with enough bookkeeping to express
an arbitrary element in the chosen generators.  The groups involved are
direct sums of cyclic groups, each given by its generator orders (0 for
Z, d for Z/d), so membership in their relations is a divisibility test.
All entries are Python ints, so results are exact.

Matrix convention: morphism matrices act on column vectors of generator
coordinates; a group's relation matrix has one column d * e_k per
generator k of order d > 0.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce


class LinalgError(ValueError):
    """A contract of this module was violated (unsolvable system, bad shapes, ...)."""


class IntMatrix:
    """Dense integer matrix.  0 x n and n x 0 shapes are legal.

    >>> IntMatrix([[1, 2], [3, 4]]) @ IntMatrix.identity(2) == IntMatrix([[1, 2], [3, 4]])
    True
    """

    __slots__ = ("rows", "nrows", "ncols")

    def __init__(self, rows, ncols=None):
        rows = list(map(list, rows))
        if rows:
            width = len(rows[0])
            if len(set(map(len, rows))) > 1:
                raise LinalgError("ragged rows")
            if ncols is not None and ncols != width:
                raise LinalgError("ncols disagrees with row width")
            ncols = width
        elif ncols is None:
            ncols = 0
        self.rows = rows
        self.nrows = len(rows)
        self.ncols = ncols

    @classmethod
    def zeros(cls, nrows, ncols):
        return cls([[0] * ncols for _ in range(nrows)], ncols)

    @classmethod
    def identity(cls, n):
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)], n)

    @classmethod
    def from_columns(cls, columns, nrows):
        columns = [list(c) for c in columns]
        for c in columns:
            if len(c) != nrows:
                raise LinalgError("column of wrong height")
        return cls([[c[i] for c in columns] for i in range(nrows)], len(columns))

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    def transpose(self):
        if not self.rows:
            return IntMatrix([[] for _ in range(self.ncols)], 0)
        return IntMatrix(zip(*self.rows), self.nrows)

    def column(self, j):
        return [row[j] for row in self.rows]

    def hstack(self, other):
        if other.nrows != self.nrows:
            raise LinalgError("hstack height mismatch")
        return IntMatrix([self.rows[i] + other.rows[i] for i in range(self.nrows)],
                         self.ncols + other.ncols)

    def vstack(self, other):
        if other.ncols != self.ncols:
            raise LinalgError("vstack width mismatch")
        return IntMatrix([row[:] for row in self.rows] + [row[:] for row in other.rows],
                         self.ncols)

    def __matmul__(self, other):
        if self.ncols != other.nrows:
            raise LinalgError("matmul shape mismatch")
        # row i of the product is the sum of a * (row k of other) over the
        # nonzero entries a = self[i][k]; zero entries cost nothing
        n = other.ncols
        out = []
        for row in self.rows:
            acc = [0] * n
            for a, brow in zip(row, other.rows):
                if a:
                    acc = [x + a * y for x, y in zip(acc, brow)]
            out.append(acc)
        return IntMatrix(out, n)

    def mulvec(self, vec):
        vec = list(vec)
        if len(vec) != self.ncols:
            raise LinalgError("mulvec length mismatch")
        return [sum(a * b for a, b in zip(row, vec)) for row in self.rows]

    def scaled(self, c):
        return IntMatrix([[c * x for x in row] for row in self.rows], self.ncols)

    def __add__(self, other):
        if self.shape != other.shape:
            raise LinalgError("add shape mismatch")
        return IntMatrix([[a + b for a, b in zip(r1, r2)]
                          for r1, r2 in zip(self.rows, other.rows)], self.ncols)

    def __sub__(self, other):
        return self + other.scaled(-1)

    def is_zero(self):
        return all(x == 0 for row in self.rows for x in row)

    def __eq__(self, other):
        return (isinstance(other, IntMatrix) and self.shape == other.shape
                and self.rows == other.rows)

    def __hash__(self):
        return hash((self.shape, tuple(tuple(r) for r in self.rows)))

    def __repr__(self):
        if self.nrows == 0 or self.ncols == 0:
            return f"IntMatrix(shape={self.shape})"
        body = "; ".join(" ".join(str(x) for x in row) for row in self.rows)
        return f"IntMatrix([{body}])"


@dataclass
class SmithDecomposition:
    """S = U @ A @ V with U, V unimodular and S diagonal, d1 | d2 | ... | dr > 0.

    U_inv is the inverse of U, tracked during reduction; it gives an
    explicit basis of the column lattice of A (d_i times column i of U_inv).
    """

    matrix: IntMatrix
    U: IntMatrix
    S: IntMatrix
    V: IntMatrix
    U_inv: IntMatrix
    rank: int
    divisors: tuple


def smith_normal_form(a):
    """Smith normal form with transforms, deterministic pivoting.

    Pivot choice: smallest nonzero absolute value in the working
    submatrix, ties broken by (row, column).  No entry is smaller than a
    unit, so the search stops at the first entry of absolute value 1 in
    row-major order, which is that same pick; a unit pivot divides every
    entry, so the divisibility scan of the rest is skipped for it.

    >>> smith_normal_form(IntMatrix([[2, 0], [0, 3]])).divisors
    (1, 6)
    """
    m, n = a.nrows, a.ncols
    s = [row[:] for row in a.rows]
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    ui = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    v = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def row_swap(i, j):
        s[i], s[j] = s[j], s[i]
        u[i], u[j] = u[j], u[i]
        for row in ui:  # inverse of a swap is the same swap, applied to columns
            row[i], row[j] = row[j], row[i]

    def row_neg(i):
        s[i] = [-x for x in s[i]]
        u[i] = [-x for x in u[i]]
        for row in ui:
            row[i] = -row[i]

    def row_add(i, j, c):
        # row_i += c * row_j on S and U; U_inv gets col_j -= c * col_i
        si, sj = s[i], s[j]
        for k in range(n):
            si[k] += c * sj[k]
        uirow, ujrow = u[i], u[j]
        for k in range(m):
            uirow[k] += c * ujrow[k]
        for row in ui:
            row[j] -= c * row[i]

    def col_swap(i, j):
        for row in s:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def col_add(i, j, c):
        # col_i += c * col_j on S and V
        for row in s:
            row[i] += c * row[j]
        for row in v:
            row[i] += c * row[j]

    t = 0
    limit = min(m, n)
    while t < limit:
        best = None
        for i in range(t, m):
            row = s[i]
            for j in range(t, n):
                x = row[j]
                if x:
                    ax = abs(x)
                    if best is None or ax < best[0]:
                        best = (ax, i, j)
                        if ax == 1:
                            break
            if best is not None and best[0] == 1:
                break
        if best is None:
            break
        _, bi, bj = best
        if bi != t:
            row_swap(t, bi)
        if bj != t:
            col_swap(t, bj)
        while True:
            if s[t][t] < 0:
                row_neg(t)
            p = s[t][t]
            dirty = False
            for i in range(t + 1, m):
                if s[i][t]:
                    q = s[i][t] // p
                    if q:
                        row_add(i, t, -q)
                    if s[i][t]:  # remainder is smaller than p: steal the pivot
                        row_swap(t, i)
                        dirty = True
                        break
            if dirty:
                continue
            for j in range(t + 1, n):
                if s[t][j]:
                    q = s[t][j] // p
                    if q:
                        col_add(j, t, -q)
                    if s[t][j]:
                        col_swap(t, j)
                        dirty = True
                        break
            if dirty:
                continue
            if p == 1:
                break
            # pivot divides its row and column; enforce divisibility of the rest
            pull = None
            for i in range(t + 1, m):
                row = s[i]
                for j in range(t + 1, n):
                    if row[j] % p:
                        pull = i
                        break
                if pull is not None:
                    break
            if pull is None:
                break
            row_add(t, pull, 1)
        t += 1

    divisors = tuple(s[i][i] for i in range(limit) if s[i][i])
    return SmithDecomposition(
        matrix=a,
        U=IntMatrix(u, m),
        S=IntMatrix(s, n),
        V=IntMatrix(v, n),
        U_inv=IntMatrix(ui, m),
        rank=len(divisors),
        divisors=divisors,
    )


class SmithSolver:
    """One Smith decomposition, many exact questions about A.

    solve(b) finds x with A x = b over Z (or None), kernel_basis() gives
    a basis of the saturated kernel lattice, column_lattice_basis() a
    basis of the image lattice and lattice_coordinates(B) the
    coordinates of every column of a matrix B in that basis at once.
    """

    def __init__(self, a):
        self.a = a
        self.dec = smith_normal_form(a)

    @property
    def rank(self):
        return self.dec.rank

    def solve(self, b):
        b = list(b)
        if len(b) != self.a.nrows:
            raise LinalgError("rhs length mismatch")
        y = self.dec.U.mulvec(b)
        n = self.a.ncols
        xhat = [0] * n
        for i, d in enumerate(self.dec.divisors):
            if y[i] % d:
                return None
            xhat[i] = y[i] // d
        if any(y[i] for i in range(self.dec.rank, len(y))):
            return None
        return self.dec.V.mulvec(xhat)

    def kernel_basis(self):
        cols = [self.dec.V.column(j) for j in range(self.dec.rank, self.a.ncols)]
        return IntMatrix.from_columns(cols, self.a.ncols)

    def column_lattice_basis(self):
        cols = [[d * x for x in self.dec.U_inv.column(i)]
                for i, d in enumerate(self.dec.divisors)]
        return IntMatrix.from_columns(cols, self.a.nrows)

    def lattice_coordinates(self, b):
        """The unique X with column_lattice_basis() @ X = B, or None when
        some column of B lies outside the lattice.

        U times that basis is diag(d_1, ..., d_r) above a zero block, so
        X[i][j] = (U B)[i][j] / d_i, provided every division is exact and
        U B vanishes below row r.  U B is formed as (B^T U^T)^T, so the
        product walks the nonzeros of B, which is sparse in every caller.
        """
        if b.nrows != self.a.nrows:
            raise LinalgError("rhs length mismatch")
        divisors = self.dec.divisors
        r = len(divisors)
        coords = []
        for y in (b.transpose() @ self.dec.U.transpose()).rows:  # U @ (column j of B)
            if any(y[r:]):
                return None
            x = []
            for yi, d in zip(y, divisors):
                if yi % d:
                    return None
                x.append(yi // d)
            coords.append(x)
        return IntMatrix(coords, r).transpose()


def kernel_basis(a):
    """Basis of the saturated lattice {x : A x = 0}."""
    return SmithSolver(a).kernel_basis()


def merge_torsion(orders):
    """Invariant factors of a direct sum of cyclic groups of the given orders.

    Z/a + Z/b is isomorphic to Z/gcd(a, b) + Z/lcm(a, b), so one pass of
    that replacement over every pair i < j leaves a divisor chain.

    >>> merge_torsion([2, 3])
    (6,)
    >>> merge_torsion([2, 2, 4])
    (2, 2, 4)
    """
    factors = list(orders)
    if any(n <= 1 for n in factors):
        raise LinalgError("cyclic order must exceed 1")
    for i in range(len(factors)):
        for j in range(i + 1, len(factors)):
            a, b = factors[i], factors[j]
            g = math.gcd(a, b)
            factors[i], factors[j] = g, a // g * b
    return tuple(f for f in factors if f > 1)


class PresentedGroup:
    """Direct sum of cyclic groups, one generator per order: Z/d for
    d > 0, Z for d = 0.

    >>> PresentedGroup((0, 4, 2)).invariants()
    (1, (2, 4))
    """

    __slots__ = ("orders",)

    def __init__(self, orders):
        orders = tuple(orders)
        if any(not isinstance(d, int) or d < 0 for d in orders):
            raise LinalgError("generator orders must be non-negative integers")
        self.orders = orders

    @classmethod
    def free(cls, n):
        return cls((0,) * n)

    @property
    def n_gens(self):
        return len(self.orders)

    @property
    def relations(self):
        """Relation matrix: one column d * e_k per generator k of order d > 0."""
        n = len(self.orders)
        cols = [[d if i == k else 0 for i in range(n)]
                for k, d in enumerate(self.orders) if d]
        return IntMatrix.from_columns(cols, n)

    def invariants(self):
        """(rank, invariant factors > 1, ascending divisibility)."""
        return (self.orders.count(0), merge_torsion([d for d in self.orders if d > 1]))

    def element_is_zero(self, coords):
        """Whether each coordinate is divisible by its generator's order."""
        coords = list(coords)
        if len(coords) != len(self.orders):
            raise LinalgError("coordinate vector has wrong length")
        return all(x % d == 0 if d else x == 0 for x, d in zip(coords, self.orders))

    def __repr__(self):
        rank, torsion = self.invariants()
        parts = []
        if rank:
            parts.append("Z" if rank == 1 else f"Z^{rank}")
        parts.extend(f"C{d}" for d in torsion)
        return "PresentedGroup<%s>" % (" x ".join(parts) if parts else "0")


@dataclass
class GroupMorphism:
    """Morphism of presented groups, given on generators by an integer matrix."""

    source: PresentedGroup
    target: PresentedGroup
    matrix: IntMatrix

    def __post_init__(self):
        if self.matrix.shape != (self.target.n_gens, self.source.n_gens):
            raise LinalgError("morphism matrix has wrong shape")

    @classmethod
    def zero(cls, source, target):
        return cls(source, target, IntMatrix.zeros(target.n_gens, source.n_gens))


class Subquotient:
    """ker(g)/im(f) with normalized generators and express() maps.

    Generators are coordinate vectors in the middle group's generator
    basis.  Units are dropped; torsion generators come first, each with
    its order, then free generators with order 0.
    """

    __slots__ = ("rank", "torsion", "orders", "gens", "_kernel_coords", "_ux")

    def __init__(self, rank, torsion, orders, gens, kernel_coords, ux):
        self.rank = rank
        self.torsion = torsion
        self.orders = orders
        self.gens = gens
        self._kernel_coords = kernel_coords
        self._ux = ux  # the rows of U that give the kept coordinates

    @property
    def n_gens(self):
        return len(self.orders)

    def invariants(self):
        return (self.rank, self.torsion)

    def is_trivial(self):
        return self.rank == 0 and not self.torsion

    def express_columns(self, mat):
        """Coordinates of the classes of the columns of mat, one column each,
        in the normalized generators.

        Every column must represent an element of ker(g); torsion
        coordinates are reduced into [0, order).
        """
        a = self._kernel_coords(mat)
        if a is None:
            raise LinalgError("vector does not lie in the kernel subgroup")
        z = self._ux @ a
        for row, d in zip(z.rows, self.orders):
            if d:
                row[:] = [x % d for x in row]
        return z

    def express(self, vec):
        """express_columns of the one-column matrix vec."""
        vec = list(vec)
        return self.express_columns(IntMatrix.from_columns([vec], len(vec))).column(0)

    def class_is_zero(self, vec):
        return all(c == 0 for c in self.express(vec))

    def __repr__(self):
        parts = []
        if self.rank:
            parts.append("Z" if self.rank == 1 else f"Z^{self.rank}")
        parts.extend(f"C{d}" for d in self.torsion)
        return "Subquotient<%s>" % (" x ".join(parts) if parts else "0")


def homology_of_pair(f, g):
    """ker(g)/im(f) for morphisms A --f--> B --g--> C with g∘f = 0.

    Raises LinalgError if the composite is nonzero or if f does not land
    in ker(g).  Generators are returned in the coordinates of B.
    """
    if f.target.n_gens != g.source.n_gens:
        raise LinalgError("f.target and g.source disagree")
    b = g.source
    n_b = b.n_gens

    composite = g.matrix @ f.matrix
    for j in range(composite.ncols):
        if not g.target.element_is_zero(composite.column(j)):
            raise LinalgError("g∘f is not the zero morphism")

    # lattice {x in Z^n_b : g(x) lies in the relation lattice of C}, with
    # the coordinates of the columns of a matrix in its basis ker (None
    # when a column lies outside it)
    if g.target.n_gens == 0:
        ker = IntMatrix.identity(n_b)
        kernel_coords = _same_columns
    else:
        stacked = g.matrix.hstack(g.target.relations)
        full_kernel = kernel_basis(stacked)
        projected = SmithSolver(IntMatrix(full_kernel.rows[:n_b], full_kernel.ncols))
        ker = projected.column_lattice_basis()
        kernel_coords = projected.lattice_coordinates

    x_mat = kernel_coords(f.matrix.hstack(b.relations))
    if x_mat is None:
        raise LinalgError("im(f) or a relation of B escapes ker(g)")
    k = ker.ncols
    dec = smith_normal_form(x_mat)

    divisors = list(dec.divisors) + [0] * (k - dec.rank)
    kept = [i for i in range(k) if divisors[i] != 1]
    orders = tuple(divisors[i] for i in kept)
    torsion = tuple(d for d in orders if d)
    rank = sum(1 for d in orders if d == 0)

    gens = ker @ IntMatrix([[row[i] for i in kept] for row in dec.U_inv.rows], len(kept))

    return Subquotient(
        rank=rank,
        torsion=torsion,
        orders=orders,
        gens=gens,
        kernel_coords=kernel_coords,
        ux=IntMatrix([dec.U.rows[i] for i in kept], k),
    )


def _same_columns(mat):
    """Coordinates in the standard basis: the matrix itself."""
    return mat


def kernel_subgroup(g):
    """ker(g) as a subquotient of g.source (f = 0)."""
    zero = GroupMorphism.zero(PresentedGroup.free(0), g.source)
    return homology_of_pair(zero, g)


def free_homology(d_in, d_out):
    """ker(d_out)/im(d_in) for integer matrices Z^a --d_in--> Z^n --d_out--> Z^b."""
    mid = PresentedGroup.free(d_out.ncols)
    f = GroupMorphism(PresentedGroup.free(d_in.ncols), mid, d_in)
    g = GroupMorphism(mid, PresentedGroup.free(d_out.nrows), d_out)
    return homology_of_pair(f, g)


def graded_homology(morphisms, step):
    """Homology of a bigraded complex of groups at every bidegree.

    morphisms maps each bidegree b to its outgoing morphism, into
    b + step; a bidegree with no incoming morphism gets the zero map.
    Returns bidegree -> Subquotient for the nontrivial homology groups.
    """
    groups = {}
    for (kk, l), g in morphisms.items():
        f = morphisms.get((kk - step[0], l - step[1]))
        if f is None:
            f = GroupMorphism.zero(PresentedGroup.free(0), g.source)
        sq = homology_of_pair(f, g)
        if not sq.is_trivial():
            groups[(kk, l)] = sq
    return groups


class BigradedGroups:
    """Subquotients per bidegree (k, l), nontrivial ones only."""

    __slots__ = ("groups",)

    def __init__(self, groups):
        self.groups = groups

    def bidegrees(self):
        return sorted(self.groups)

    def group(self, b):
        return self.groups.get(b)

    def invariants(self):
        return {b: sq.invariants() for b, sq in self.groups.items()}

    def total_rank(self):
        return sum(sq.rank for sq in self.groups.values())

    def euler_characteristic(self):
        return sum((-1) ** (b[0] & 1) * sq.rank for b, sq in self.groups.items())


def is_prime(p):
    """Deterministic Miller-Rabin, exact for every p < 2**64.

    >>> [n for n in range(30) if is_prime(n)]
    [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    >>> is_prime(2 ** 61 - 1), is_prime(3215031751)
    (True, False)
    """
    if p >= 1 << 64:
        raise LinalgError(f"primality is only decided below 2**64, got {p}")
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if p < 2:
        return False
    for a in bases:
        if p % a == 0:
            return p == a
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in bases:
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def field_rank(a, field):
    """Rank over Q (field='Q') or over F_p (field=p, p prime).

    >>> field_rank(IntMatrix([[2, 4], [1, 2]]), 'Q')
    1
    >>> field_rank(IntMatrix([[2, 4], [1, 2]]), 2)
    1
    """
    ops = FieldOps(field)
    return ops.rank(ops.of_int_matrix(a))


class FieldOps:
    """Minimal dense linear algebra over Q or F_p, for the field fast paths.

    Matrices are lists of rows of field elements: Fractions over Q, ints
    in [0, p) over F_p.  Over Q the elimination runs on integer rows: each
    row is cleared of denominators, rows are combined by cross-multiplying
    and divided by the gcd of their entries, and Fractions are built only
    from the finished rows.
    """

    def __init__(self, field):
        if field == "Q":
            self.p = None
        else:
            if not isinstance(field, int) or not is_prime(field):
                raise LinalgError(f"not a prime: {field!r}")
            self.p = field
        self.field = field

    def of_int(self, x):
        if self.p is None:
            return Fraction(x)
        return x % self.p

    def of_int_matrix(self, a):
        return [[self.of_int(x) for x in row] for row in a.rows]

    def _integers(self, vec):
        """(v, s) with vec = v / s and v a list of ints; s = 1 over F_p."""
        if self.p is not None:
            return [x % self.p for x in vec], 1
        # reduce, not lcm(*...) or gcd(*row): the argument tuples of starred
        # calls raised the tracemalloc peak of a field-ladder pass from 1.2
        # to 1.6 MiB
        s = reduce(math.lcm, [x.denominator for x in vec], 1)
        return [x.numerator * (s // x.denominator) for x in vec], s

    def _echelon(self, m, reduced):
        """Eliminate the rows of m in place; returns the pivot columns.

        The pivot rows come first, in pivot order, and zero rows last.
        With reduced, each pivot column is cleared above its pivot as well
        as below.  Over F_p the pivot entries are scaled to 1; over Q the
        rows are ints and each pivot entry is left as it is.
        """
        p = self.p
        nrows = len(m)
        ncols = len(m[0]) if m else 0
        pivots = []
        r = 0
        for col in range(ncols):
            pivot = next((i for i in range(r, nrows) if m[i][col]), None)
            if pivot is None:
                continue
            m[r], m[pivot] = m[pivot], m[r]
            prow = m[r]
            if p is not None and prow[col] != 1:
                inv = pow(prow[col], -1, p)
                prow = m[r] = [x * inv % p for x in prow]
            a = prow[col]
            support = [j for j in range(col, ncols) if prow[j]]
            for i in range(0 if reduced else r + 1, nrows):
                c = m[i][col]
                if not c or i == r:
                    continue
                row = m[i]
                if p is not None:
                    for j in support:
                        row[j] = (row[j] - c * prow[j]) % p
                    continue
                g = math.gcd(a, c)
                a_g, c_g = a // g, c // g
                if a_g != 1:
                    row = [a_g * x for x in row]
                for j in support:
                    row[j] -= c_g * prow[j]
                g = reduce(math.gcd, row, 0)
                m[i] = [x // g for x in row] if g > 1 else row
            pivots.append(col)
            r += 1
            if r == nrows:
                break
        return pivots

    def rref(self, m):
        """Reduced row echelon form, returns (rows, pivot column list)."""
        ints = [self._integers(row)[0] for row in m]
        pivots = self._echelon(ints, reduced=True)
        if self.p is not None:
            return ints, pivots
        zero = Fraction(0)
        out = []
        for row, col in zip(ints, pivots):
            d = row[col]
            out.append([Fraction(x, d) if x else zero for x in row])
        out.extend([zero] * len(row) for row in ints[len(pivots):])
        return out, pivots

    def mul(self, a, b):
        return (a * b) % self.p if self.p is not None else a * b

    def _sub(self, a, b):
        return (a - b) % self.p if self.p is not None else a - b

    def add(self, a, b):
        return (a + b) % self.p if self.p is not None else a + b

    def scale_int(self, c, x):
        if self.p is not None:
            return (c * x) % self.p
        return c * x

    def apply_int_matrix(self, int_matrix, vec):
        """Push a field vector through an integer matrix."""
        out = []
        for row in int_matrix.rows:
            acc = self.of_int(0)
            for coef, x in zip(row, vec):
                if coef:
                    acc = self.add(acc, self.scale_int(coef, x))
            out.append(acc)
        return out

    def rank(self, m):
        if not m or not m[0]:
            return 0
        return len(self._echelon([self._integers(row)[0] for row in m], reduced=False))

    def kernel_basis(self, m, ncols):
        """Basis vectors of the right kernel of the matrix (rows given)."""
        if not m:
            return [[self.of_int(1) if i == j else self.of_int(0) for i in range(ncols)]
                    for j in range(ncols)]
        r, pivots = self.rref(m)
        pivot_set = set(pivots)
        free = [j for j in range(ncols) if j not in pivot_set]
        basis = []
        for fj in free:
            vec = [self.of_int(0)] * ncols
            vec[fj] = self.of_int(1)
            for i, pj in enumerate(pivots):
                vec[pj] = self._sub(self.of_int(0), r[i][fj])
            basis.append(vec)
        return basis

    def subquotient(self, n, out_rows, in_cols):
        """ker(out)/im(in) on F^n, out given by its rows and in by its columns.

        The representatives are the cycles among the pivot columns of the
        echelon form of [boundaries | kernel basis], so they are
        deterministic and their classes form a basis.
        """
        cycles = self.kernel_basis(out_rows, n)
        reps = []
        if cycles:
            allcols = in_cols + cycles
            _, pivots = self.rref([[col[i] for col in allcols] for i in range(n)])
            reps = [allcols[j] for j in pivots if j >= len(in_cols)]
        return FieldSubquotient(self, in_cols, reps)

    def solver(self, columns, first=0):
        """A function b -> the coefficients of columns[first:] in some x with
        sum x_j * columns[j] = b, or None when b is outside their span.

        [columns | identity] is eliminated once: its rows then hold T and
        T * columns in echelon form.  A pivot in the identity block gives a
        row t of T with t * b = 0 exactly on the span; a pivot in column j
        gives x_j = t * b / pivot entry, and x_j = 0 off the pivots.
        """
        width = len(columns)
        n = len(columns[0]) if columns else 0
        m = [self._integers([col[i] for col in columns] + [int(i == j) for j in range(n)])[0]
             for i in range(n)]
        pivots = self._echelon(m, reduced=True)
        checks = [row[width:] for row, col in zip(m, pivots) if col >= width]
        coords = {col - first: (row[width:], row[col])
                  for row, col in zip(m, pivots) if first <= col < width}
        zero = self.of_int(0)
        p = self.p

        def solve(b):
            v, s = self._integers(b)
            if not columns:
                return None if any(v) else []
            for t in checks:
                dot = sum(map(operator.mul, t, v))
                if dot % p if p else dot:
                    return None
            x = [zero] * (width - first)
            for j, (t, d) in coords.items():
                dot = sum(map(operator.mul, t, v))
                x[j] = dot % p if p else Fraction(dot, d * s)  # d = s = 1 over F_p
            return x

        return solve

    def solve(self, columns, b):
        """Any coefficient vector x with sum x_j * columns[j] = b, or None."""
        return self.solver(columns)(b)


class FieldSubquotient:
    """ker(out)/im(in) over a field, with cycle representatives of a basis."""

    __slots__ = ("ops", "bounds", "reps", "_coords")

    def __init__(self, ops, bounds, reps):
        self.ops = ops
        self.bounds = bounds
        self.reps = reps
        self._coords = None

    @property
    def dim(self):
        return len(self.reps)

    def express(self, vec):
        """Coordinates of the class of a cycle in the representatives.

        Every representative column is a pivot of [bounds | reps], so the
        coordinates are unique; the elimination runs on the first call."""
        if self._coords is None:
            self._coords = self.ops.solver(self.bounds + self.reps, first=len(self.bounds))
        x = self._coords(vec)
        if x is None:
            raise LinalgError("vector is not a cycle")
        return x
