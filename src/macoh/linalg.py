"""Exact linear algebra over the integers and over fields.

Everything in the bigraded pipelines reduces to a handful of integer
lattice computations: Smith divisors, Smith normal forms with tracked
unimodular transforms, saturated kernel lattices, solving A x = b over
Z, and presenting subquotients ker(g)/im(f) with enough bookkeeping to
express an arbitrary element in the chosen generators.  The groups
involved are direct sums of cyclic groups, each given by its generator
orders (0 for Z, d for Z/d), so membership in their relations is a
divisibility test.
All entries are Python ints, so results are exact.  An IntMatrix keeps
only its nonzero entries, a dict per row: the matrices of both pipelines
are mostly zeros.  Smith normal form and field elimination work on
their own copies of the rows; nothing here writes into an operand.

Matrix convention: morphism matrices act on column vectors of generator
coordinates; a group's relation matrix has one column d * e_k per
generator k of order d > 0.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce


class LinalgError(ValueError):
    """A contract of this module was violated (unsolvable system, bad shapes, ...)."""


class NonzeroComposite(LinalgError):
    """g∘f is not zero; graded_homology sets bidegree, the source of f."""

    bidegree = None


class IntMatrix:
    """Sparse integer matrix (Fractions for the Q coordinates of
    FieldSubquotient): row i is a dict {column: entry} of its nonzero
    entries only, so products, sums and zero tests skip the zeros that
    make up most of every matrix of both pipelines.  0 x n and n x 0
    shapes are legal.  The constructor takes dense rows, checks their
    widths and keeps their nonzeros; results built here adopt the fresh
    row dicts they build (_adopt).  No operation writes into the rows of
    an operand.

    A matrix is written only by the function that builds it, and never
    after that function hands it out.  So what is read off a matrix holds
    for its lifetime: smith_divisors keeps its result in the slot
    _divisors, FieldOps.rank its own in _ranks, keyed by p (None over Q),
    and a differential that is the outgoing map at one spot and the
    incoming one at the next is eliminated once per ring.

    >>> IntMatrix([[1, 2], [3, 4]]) @ IntMatrix.identity(2) == IntMatrix([[1, 2], [3, 4]])
    True
    """

    __slots__ = ("_rows", "nrows", "ncols", "_divisors", "_ranks")

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
        self._rows = [{j: x for j, x in enumerate(row) if x} for row in rows]
        self.nrows = len(rows)
        self.ncols = ncols
        self._divisors = self._ranks = None

    @classmethod
    def _adopt(cls, rows, ncols):
        """The matrix on row dicts that nothing else holds and that have no
        zero entry: no copy, no check."""
        mat = cls.__new__(cls)
        mat._rows, mat.nrows, mat.ncols = rows, len(rows), ncols
        mat._divisors = mat._ranks = None
        return mat

    @classmethod
    def zeros(cls, nrows, ncols):
        return cls._adopt([{} for _ in range(nrows)], ncols)

    @classmethod
    def identity(cls, n):
        return cls._adopt([{i: 1} for i in range(n)], n)

    @classmethod
    def from_columns(cls, columns, nrows):
        columns = [list(c) for c in columns]
        if any(len(c) != nrows for c in columns):
            raise LinalgError("column of wrong height")
        return cls.from_entries(nrows, len(columns), [(i, j, x) for j, c in enumerate(columns)
                                                      for i, x in enumerate(c) if x])

    @classmethod
    def from_entries(cls, nrows, ncols, entries):
        """The matrix whose (r, c) entry is the sum of v over the triples
        (r, c, v) of entries.  An index outside the shape, negative ones
        included, is an error; one test of the sign of r | c covers both
        lower bounds.  Modules above this one build matrices here."""
        rows = [{} for _ in range(nrows)]
        for r, c, v in entries:
            if (r | c) < 0 or r >= nrows or c >= ncols:
                raise LinalgError(f"entry ({r}, {c}) outside a {nrows} x {ncols} matrix")
            row = rows[r]
            if c in row:
                v += row[c]
                if not v:  # the sum cancels: no stored zero
                    del row[c]
                    continue
            elif not v:
                continue
            row[c] = v
        return cls._adopt(rows, ncols)

    def entries(self):
        """(r, c, v) for each nonzero entry v at (r, c), in row-major order."""
        for r, row in enumerate(self._rows):
            for c, v in sorted(row.items()):
                yield r, c, v

    @property
    def rows(self):
        """The rows as dense lists, built on each read: a view for readers
        outside the package.  Writing into it changes nothing."""
        out = []
        for row in self._rows:
            dense = [0] * self.ncols
            for j, x in row.items():
                dense[j] = x
            out.append(dense)
        return out

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    def transpose(self):
        out = [{} for _ in range(self.ncols)]
        for i, row in enumerate(self._rows):
            for j, x in row.items():
                out[j][i] = x
        return IntMatrix._adopt(out, self.nrows)

    def column(self, j):
        if not 0 <= j < self.ncols:
            raise LinalgError(f"column {j} outside a matrix of {self.ncols} columns")
        return [row.get(j, 0) for row in self._rows]

    def hstack(self, other):
        if other.nrows != self.nrows:
            raise LinalgError("hstack height mismatch")
        shift = self.ncols
        return IntMatrix._adopt([{**a, **{shift + j: x for j, x in b.items()}}
                                 for a, b in zip(self._rows, other._rows)], shift + other.ncols)

    def __matmul__(self, other):
        if self.ncols != other.nrows:
            raise LinalgError("matmul shape mismatch")
        # row i of the product is the sum of a * (row k of other) over the
        # nonzero entries a = self[i][k]
        brows = other._rows
        out = []
        for row in self._rows:
            acc = {}
            for k, a in row.items():
                for j, b in brows[k].items():
                    acc[j] = acc.get(j, 0) + a * b
            if 0 in acc.values():
                acc = {j: x for j, x in acc.items() if x}
            out.append(acc)
        return IntMatrix._adopt(out, other.ncols)

    def mulvec(self, vec):
        vec = list(vec)
        if len(vec) != self.ncols:
            raise LinalgError("mulvec length mismatch")
        return [sum(x * vec[j] for j, x in row.items()) for row in self._rows]

    def __add__(self, other):
        if self.shape != other.shape:
            raise LinalgError("add shape mismatch")
        out = []
        for a, b in zip(self._rows, other._rows):
            row = dict(a)
            _axpy(row, b, 1)
            out.append(row)
        return IntMatrix._adopt(out, self.ncols)

    def is_zero(self):
        return not any(self._rows)

    def __eq__(self, other):
        return (isinstance(other, IntMatrix) and self.shape == other.shape
                and self._rows == other._rows)

    def __repr__(self):
        if self.nrows == 0 or self.ncols == 0:
            return f"IntMatrix(shape={self.shape})"
        body = "; ".join(" ".join(str(x) for x in row) for row in self.rows)
        return f"IntMatrix([{body}])"


def _one_column(vec):
    """The one-column matrix of the vector vec."""
    return IntMatrix._adopt([{0: x} if x else {} for x in vec], 1)


def _axpy(row, other, c):
    """row += c * other on sparse rows, in place; c is not 0."""
    for k, y in other.items():
        x = row.get(k, 0) + c * y
        if x:
            row[k] = x
        else:
            del row[k]


@dataclass
class SmithDecomposition:
    """U @ A @ V is diagonal, with U, V unimodular and the nonzero diagonal
    entries divisors, d1 | d2 | ... | dr > 0, in its first r places.  So
    the rank of A is len(divisors), and the columns r... of V are a basis
    of the kernel lattice of A.

    U_inv is the inverse of U, tracked during reduction: w^T U_inv holds
    the coordinates of w in the basis formed by the rows of U.
    """

    U: IntMatrix
    V: IntMatrix
    U_inv: IntMatrix
    divisors: tuple


_EMPTY_SMITH = SmithDecomposition(*[IntMatrix.zeros(0, 0)] * 3, divisors=())


def smith_normal_form(a):
    """Smith normal form with transforms, deterministic pivoting.

    Pivot choice: smallest nonzero absolute value in the working
    submatrix, ties broken by (row, column).  No entry is smaller than a
    unit, so the search stops at the first entry of absolute value 1 in
    row-major order, which is that same pick; a unit pivot divides every
    entry, so the divisibility scan of the rest is skipped for it.

    A 0 x 0 input gets the shared _EMPTY_SMITH at once (see IntMatrix).

    >>> smith_normal_form(IntMatrix([[2, 0], [0, 3]])).divisors
    (1, 6)
    """
    m, n = a.nrows, a.ncols
    if not (m or n):  # what _eliminate_units leaves when unit pivots clear all
        return _EMPTY_SMITH
    if a.is_zero():  # no pivot: every transform is an identity
        return SmithDecomposition(U=IntMatrix.identity(m), V=IntMatrix.identity(n),
                                  U_inv=IntMatrix.identity(m), divisors=())
    s = a.rows  # dense working rows, a fresh copy
    # the transforms are sparse rows: U, and the transposes of U_inv and V,
    # so that the column operations on U_inv and V are row operations
    u = [{i: 1} for i in range(m)]
    ui_t = [{i: 1} for i in range(m)]
    v_t = [{i: 1} for i in range(n)]

    def row_swap(i, j):
        s[i], s[j] = s[j], s[i]
        u[i], u[j] = u[j], u[i]
        ui_t[i], ui_t[j] = ui_t[j], ui_t[i]  # the inverse of a swap swaps columns

    def row_neg(i):
        s[i] = [-x for x in s[i]]
        u[i] = {k: -x for k, x in u[i].items()}
        ui_t[i] = {k: -x for k, x in ui_t[i].items()}

    def row_add(i, j, c):
        # row_i += c * row_j on S and U; U_inv gets col_j -= c * col_i
        si, sj = s[i], s[j]
        for k in range(n):
            si[k] += c * sj[k]
        _axpy(u[i], u[j], c)
        _axpy(ui_t[j], ui_t[i], -c)

    def col_swap(i, j):
        for row in s:
            row[i], row[j] = row[j], row[i]
        v_t[i], v_t[j] = v_t[j], v_t[i]

    def col_add(i, j, c):
        # col_i += c * col_j on S and V
        for row in s:
            row[i] += c * row[j]
        _axpy(v_t[i], v_t[j], c)

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

    return SmithDecomposition(
        U=IntMatrix._adopt(u, m),
        V=IntMatrix._adopt(v_t, n).transpose(),
        U_inv=IntMatrix._adopt(ui_t, m).transpose(),
        divisors=tuple(s[i][i] for i in range(limit) if s[i][i]),
    )


def smith_divisors(a):
    """The divisors of smith_normal_form(a), without its transforms.

    The first call eliminates a (_eliminate_units) and keeps the result
    on a, in its _divisors slot; later calls return it.  No matrix is
    written after it is handed out (see IntMatrix), so the kept result
    stays that of a.

    >>> smith_divisors(IntMatrix([[0, 2, 0], [1, 4, 0], [-1, 0, 6]]))
    (1, 2, 6)
    """
    if a._divisors is None:
        a._divisors = _eliminate_units(a)
    return a._divisors


def _eliminate_units(a):
    """The divisors of smith_normal_form(a), by unit pivots first.

    Each step takes the first entry of absolute value 1 in row-major
    order as pivot and clears its column in the other rows.  Column
    operations then clear the pivot row without touching the others, so
    the pivot splits off a divisor 1 and its row and column are dropped.
    Rows that become zero are dropped as they appear, zero columns at
    the end, and smith_normal_form gives the divisors of what is left,
    also when nothing is.
    """
    rows = [dict(row) for row in a._rows if row]
    units = 0
    while True:
        for i, row in enumerate(rows):
            values = row.values()
            if 1 in values or -1 in values:
                break
        else:
            break
        j = min([c for c, x in row.items() if x == 1 or x == -1])
        pivot = rows.pop(i)
        sign = pivot[j]
        kept = []
        for row in rows:
            c = row.get(j)
            if c:
                _axpy(row, pivot, -c * sign)
                if not row:
                    continue
            kept.append(row)
        rows = kept
        units += 1
    cols = {c: t for t, c in enumerate(sorted(set().union(*rows)))} if rows else {}
    rest = IntMatrix._adopt([{cols[c]: x for c, x in row.items()} for row in rows], len(cols))
    return (1,) * units + smith_normal_form(rest).divisors


class SmithSolver:
    """One Smith decomposition, many exact questions about A: solve(b)
    finds x with A x = b over Z, or None.  The pipelines do not use it,
    so tests use it as an oracle independent of homology_of_pair.
    """

    def __init__(self, a):
        self.a = a
        self.dec = smith_normal_form(a)

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
        if any(y[i] for i in range(len(self.dec.divisors), len(y))):
            return None
        return self.dec.V.mulvec(xhat)


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
    d > 0, Z for d = 0.  Everything here derives from orders, so a
    Subquotient, which adds representatives, is one of these groups.

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
        group = cls.__new__(cls)
        group.orders = (0,) * n  # n zeros need no check
        return group

    @property
    def n_gens(self):
        return len(self.orders)

    @property
    def rank(self):
        return self.orders.count(0)

    @property
    def relations(self):
        """Relation matrix: one column d * e_k per generator k of order d > 0."""
        cols = [(k, d) for k, d in enumerate(self.orders) if d]
        return IntMatrix.from_entries(len(self.orders), len(cols),
                                      [(k, j, d) for j, (k, d) in enumerate(cols)])

    def invariants(self):
        """(rank, invariant factors > 1, ascending divisibility)."""
        return (self.rank, merge_torsion([d for d in self.orders if d > 1]))

    def is_trivial(self):
        return self.orders.count(1) == len(self.orders)

    def is_zero(self, mat):
        """Whether every column of mat, in generator coordinates, is zero in
        the group: each row divisible by its generator's order."""
        if mat.nrows != len(self.orders):
            raise LinalgError("coordinate matrix has wrong height")
        return not any(row and (not d or any(x % d for x in row.values()))
                       for row, d in zip(mat._rows, self.orders))

    def __repr__(self):
        rank, torsion = self.invariants()
        parts = []
        if rank:
            parts.append("Z" if rank == 1 else f"Z^{rank}")
        parts.extend(f"C{d}" for d in torsion)
        return "%s<%s>" % (type(self).__name__, " x ".join(parts) if parts else "0")


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


class Subquotient(PresentedGroup):
    """ker(g)/im(f): a PresentedGroup with representatives and express() maps.

    Generators are coordinate vectors in the middle group's generator
    basis.  Units are dropped; torsion generators come first, each with
    its order, then free generators with order 0.

    orders is known from the start; the representatives (gens,
    express_columns, express, class_is_zero) are built from f and g on
    first use, by _represent.  That build must find the same orders, or
    it raises LinalgError; after it, f and g are released.
    express_columns needs only the coordinate map of _kernel_lattice and
    the kept rows of the relator U, so nothing else of the Smith forms is
    kept.
    """

    __slots__ = ("_pair", "_reps")

    def __init__(self, f, g, orders=None):
        """With orders None, the representatives are built now and give them."""
        self.orders = orders
        self._pair = (f, g)
        self._reps = None
        if orders is None:
            self._built()

    def _represent(self, f, g):
        return _representatives(f, g)

    def _built(self):
        """The representatives from _represent, built on the first call."""
        if self._reps is None:
            orders, *reps = self._represent(*self._pair)
            if self.orders is None:
                self.orders = orders
            elif orders != self.orders:
                raise LinalgError(f"the representatives of ker(g)/im(f) give the orders "
                                  f"{orders}, the ranks and divisors {self.orders}")
            self._reps = reps
            self._pair = None
        return self._reps

    @property
    def gens(self):
        return self._built()[0]

    def express_columns(self, mat):
        """Coordinates of the classes of the columns of mat, one column each,
        in the normalized generators.

        Every column must represent an element of ker(g); torsion
        coordinates are reduced into [0, order).
        """
        _, kernel_coords, ux = self._built()
        a = kernel_coords(mat)
        if a is None:
            raise LinalgError("vector does not lie in the kernel subgroup")
        z = ux @ a
        rows = z._rows
        for i, d in enumerate(self.orders):
            if d and rows[i]:
                rows[i] = {j: y for j, x in rows[i].items() if (y := x % d)}
        return z

    def express(self, vec):
        """express_columns of the one-column matrix vec."""
        return self.express_columns(_one_column(vec)).column(0)

    def class_is_zero(self, vec):
        return all(c == 0 for c in self.express(vec))


def homology_of_pair(f, g):
    """ker(g)/im(f) for morphisms A --f--> B --g--> C with g∘f = 0.

    A, B and C may be any PresentedGroup, a Subquotient too.  Raises
    LinalgError if f.target and g.source have different orders, and its
    subclass NonzeroComposite if g∘f is not zero in C: the one d^2 = 0
    test of both pipelines.  Generators are given in the coordinates of B.

    When B and C are free, g∘f = 0 puts im(f) in ker(g), a saturated
    lattice of rank n_B - rank(g).  So f has the Smith divisors of its
    coordinates in a basis of ker(g), and the group is Z^(n_B - rank(g)
    - rank(f)) plus Z/d for each divisor d > 1 of f.  smith_divisors of
    f and of g give these orders, and the representatives wait for
    their first use.  Otherwise (a generator of B or C has a nonzero
    order) they are built now, which also raises LinalgError if im(f)
    or a relation of B escapes ker(g).
    """
    if f.target.orders != g.source.orders:
        raise LinalgError("f.target and g.source disagree")
    if not g.target.is_zero(g.matrix @ f.matrix):
        raise NonzeroComposite("g∘f is not the zero morphism")
    if any(g.source.orders) or any(g.target.orders):
        return Subquotient(f, g)
    f_divisors = smith_divisors(f.matrix)
    n_free = g.source.n_gens - len(smith_divisors(g.matrix)) - len(f_divisors)
    return Subquotient(f, g, tuple(d for d in f_divisors if d != 1) + (0,) * n_free)


def _representatives(f, g):
    """(orders, gens, kernel_coords, ux) of ker(g)/im(f), from two Smith
    forms at most: _kernel_lattice's when C has generators, and one of the
    kernel coordinates of im(f) and the relations of B."""
    ker, kernel_coords = _kernel_lattice(g)
    x_mat = kernel_coords(f.matrix.hstack(g.source.relations))
    if x_mat is None:
        raise LinalgError("im(f) or a relation of B escapes ker(g)")
    k = ker.ncols
    dec = smith_normal_form(x_mat)

    divisors = list(dec.divisors) + [0] * (k - len(dec.divisors))
    kept = [i for i in range(k) if divisors[i] != 1]
    orders = tuple(divisors[i] for i in kept)
    place = {i: t for t, i in enumerate(kept)}
    picked = [{place[i]: x for i, x in row.items() if i in place} for row in dec.U_inv._rows]
    gens = ker @ IntMatrix._adopt(picked, len(kept))  # the kept columns of U_inv
    ux = IntMatrix._adopt([dec.U._rows[i] for i in kept], k)  # U rows of the kept coordinates
    return orders, gens, kernel_coords, ux


def _kernel_lattice(g):
    """(ker, coords): a basis ker of L = {x : g(x) = 0 in C}, and the map
    from a matrix to the coordinates of its columns in ker, or None when
    some column lies outside L.

    L is the projection to B of the kernel of A = [g | R_C], R_C the
    relation matrix of C.  With U A^T V = S of rank r, rows r... of U are
    a basis of ker A, and R_C is injective, so their first n_B entries
    are a basis of L.  A column w = (x; z) lies in ker A exactly when rows
    0..r-1 of U^-T w vanish, and rows r... are its coordinates.  z is
    forced: z_k = -(g x)_k / d_k for the generator of order d_k on row k
    of C, and a division that is not exact puts x outside L.
    """
    n_b = g.source.n_gens
    if g.target.n_gens == 0:
        return IntMatrix.identity(n_b), lambda mat: mat  # the standard basis
    dec = smith_normal_form(g.matrix.hstack(g.target.relations).transpose())
    r = len(dec.divisors)
    ker = IntMatrix._adopt([{j: x for j, x in row.items() if j < n_b} for row in dec.U._rows[r:]],
                           n_b).transpose()
    u_inv = dec.U_inv
    torsion = [d for d in g.target.orders if d]
    # transpose copies the rows it reads, so g.matrix keeps its own
    g_torsion_t = IntMatrix._adopt([row for row, d in zip(g.matrix._rows, g.target.orders) if d],
                                   n_b).transpose()

    def coords(mat):
        ws = mat.transpose()._rows  # the columns x of mat, extended below by z
        if torsion:
            gxs = (IntMatrix._adopt(ws, n_b) @ g_torsion_t)._rows
            for x, gx in zip(ws, gxs):
                for t, y in gx.items():
                    z, rem = divmod(-y, torsion[t])
                    if rem:
                        return None
                    x[n_b + t] = z
        cs = (IntMatrix._adopt(ws, u_inv.nrows) @ u_inv)._rows
        if any(c and min(c) < r for c in cs):
            return None
        return IntMatrix._adopt([{j - r: x for j, x in c.items()} for c in cs],
                                u_inv.nrows - r).transpose()

    return ker, coords


def free_homology(d_in, d_out):
    """ker(d_out)/im(d_in) for integer matrices Z^a --d_in--> Z^n --d_out--> Z^b."""
    mid = PresentedGroup.free(d_out.ncols)
    f = GroupMorphism(PresentedGroup.free(d_in.ncols), mid, d_in)
    g = GroupMorphism(mid, PresentedGroup.free(d_out.nrows), d_out)
    return homology_of_pair(f, g)


def graded_homology(morphisms, step, homology_at):
    """Homology of a bigraded complex of groups at every bidegree, over
    every ring: the ring picks only homology_at(incoming, outgoing), which
    is homology_of_pair over Z and FieldOps(field).homology_of_pair over a
    field.  Callers pass it by a name of their own module, so that the
    benchmark tracer, which rebinds module names, sees every spot.

    morphisms maps each bidegree b to its outgoing morphism, into
    b + step; a bidegree with no incoming morphism gets the zero map.
    Returns bidegree -> Subquotient for the nontrivial homology groups.
    A nonzero composite raises NonzeroComposite with bidegree set to its
    source, b - step.
    """
    groups = {}
    for (kk, l), g in morphisms.items():
        f = morphisms.get((kk - step[0], l - step[1]))
        if f is None:
            f = GroupMorphism.zero(PresentedGroup.free(0), g.source)
        try:
            sq = homology_at(f, g)
        except NonzeroComposite as exc:
            exc.bidegree = (kk - step[0], l - step[1])
            raise
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


class FieldOps:
    """Linear algebra over Q or F_p: the coefficient ring of the field
    paths, which pass its free_homology where Z passes the module's: like
    homology_of_pair, dimension first, representatives on first read.
    Rows are dicts {column: nonzero int}, as in IntMatrix: entries in
    [0, p) over F_p, integer multiples of the vectors they stand for over
    Q, where an input row may also hold Fractions that _integers clears.
    Elimination is fraction-free (Bareiss): over Q rows are
    cross-multiplied and divided by the gcd of their entries.  Fractions
    appear only in rref's rows and in the coordinates that
    FieldSubquotient returns over Q.

    >>> [FieldOps(f).rank(IntMatrix([[2, 4], [1, 3]])) for f in ('Q', 2, 3)]
    [2, 1, 2]
    """

    def __init__(self, field):
        if field == "Q":
            self.p = None
        else:
            if not isinstance(field, int) or not is_prime(field):
                raise LinalgError(f"not a prime: {field!r}")
            self.p = field

    def _integers(self, row):
        """(v, s) with row = v / s and v a new dict of nonzero ints; s = 1
        over F_p."""
        p = self.p
        if p is not None:
            return {j: y for j, x in row.items() if (y := x % p)}, 1
        # reduce, not lcm(*...) or gcd(*row): the argument tuples of starred
        # calls raised the tracemalloc peak of a field-ladder pass from 1.2
        # to 1.6 MiB
        s = reduce(math.lcm, [x.denominator for x in row.values()], 1)
        return {j: x.numerator * (s // x.denominator) for j, x in row.items()}, s

    def _echelon(self, m, stop, reduced):
        """Eliminate the rows of m in place, in the columns before stop;
        returns the pivot columns.

        Each pivot is the first row, from the next pivot row on, with an
        entry in the leftmost column that has one there.  The pivot rows
        come first, in pivot order, and zero rows last.  With reduced,
        each pivot column is cleared above its pivot as well as below.
        Over F_p the pivot entries are scaled to 1; over Q the rows are
        ints and each pivot entry is left as it is.
        """
        p = self.p
        nrows = len(m)
        pivots = []
        r = 0
        for col in range(stop if nrows else 0):
            pivot = next((i for i in range(r, nrows) if col in m[i]), None)
            if pivot is None:
                continue
            m[r], m[pivot] = m[pivot], m[r]
            prow = m[r]
            if p is not None and prow[col] != 1:
                inv = pow(prow[col], -1, p)
                prow = m[r] = {j: x * inv % p for j, x in prow.items()}
            a = prow[col]
            # every row from r on, prow too, is zero left of col
            for i in range(0 if reduced else r + 1, nrows):
                row = m[i]
                c = row.get(col)
                if c is None or i == r:
                    continue
                if p is not None:
                    for j, y in prow.items():
                        x = (row.get(j, 0) - c * y) % p
                        if x:
                            row[j] = x
                        else:
                            del row[j]
                    continue
                g = math.gcd(a, c)
                a_g, c_g = a // g, c // g
                if a_g != 1:
                    row = {j: a_g * x for j, x in row.items()}
                _axpy(row, prow, -c_g)
                g = reduce(math.gcd, row.values(), 0)
                m[i] = {j: x // g for j, x in row.items()} if g > 1 else row
            pivots.append(col)
            r += 1
            if r == nrows:
                break
        return pivots

    def rref(self, m):
        """Reduced row echelon form of the dense rows m, returns (dense
        rows, pivot column list)."""
        ncols = len(m[0]) if m else 0
        ints = [self._integers({j: x for j, x in enumerate(row) if x})[0] for row in m]
        pivots = self._echelon(ints, ncols, reduced=True)
        if self.p is not None:
            return [[row.get(j, 0) for j in range(ncols)] for row in ints], pivots
        zero = Fraction(0)
        out = []
        for row, col in zip(ints, pivots):
            d = row[col]
            out.append([Fraction(row[j], d) if j in row else zero for j in range(ncols)])
        out.extend([zero] * ncols for _ in ints[len(pivots):])
        return out, pivots

    def rank(self, mat):
        """Rank of mat over the field, eliminated once per field (see IntMatrix)."""
        ranks = mat._ranks = mat._ranks or {}
        if self.p not in ranks:
            ranks[self.p] = self._rank(mat)
        return ranks[self.p]

    def _rank(self, mat):
        m = [v for v in (self._integers(row)[0] for row in mat._rows) if v]
        return len(self._echelon(m, mat.ncols, reduced=False))

    def free_homology(self, d_in, d_out):
        """ker(d_out)/im(d_in) for F^a --d_in--> F^n --d_out--> F^b, integer
        (over Q, also Fraction) entries: dimension n - rank(d_out) - rank(d_in)
        first.  If that is negative, d_out @ d_in != 0: NonzeroComposite, as
        over Z.  No product is taken, so a nonzero one may go unseen."""
        n = d_out.ncols
        if d_in.nrows != n:
            raise LinalgError("d_in and d_out disagree")
        dim = n - self.rank(d_out) - self.rank(d_in)
        if dim < 0:
            raise NonzeroComposite("d_out @ d_in is not zero")
        return FieldSubquotient(self, d_in, d_out, dim)

    def homology_of_pair(self, f, g):
        """free_homology(f.matrix, g.matrix): graded_homology's spot routine."""
        return self.free_homology(f.matrix, g.matrix)


class FieldSubquotient(Subquotient):
    """ker(out)/im(in) over the field of ops, all orders 0: the dimension
    comes from ranks, the rest from two eliminations in _represent, on
    first read.  The reduced echelon form of out gives the cycle checks,
    its nonzero rows, and an integer kernel vector per free column (over
    F_p with free coordinate 1).  [in | kernel | identity] is then
    eliminated up to the identity block: its kernel pivot columns are
    gens, integer cycles whose classes form a basis, and the identity
    block t of their rows maps a cycle v to its coordinates (t @ v) / pivots.
    """

    __slots__ = ("ops",)

    def __init__(self, ops, d_in, d_out, dim):
        self.ops = ops
        super().__init__(d_in, d_out, (0,) * dim)

    def _represent(self, d_in, d_out):
        ops, n, p = self.ops, d_out.ncols, self.ops.p
        ints = [ops._integers(row)[0] for row in d_out._rows]
        pivots = ops._echelon(ints, n, reduced=True)
        checks = IntMatrix._adopt(ints[:len(pivots)], n)
        # a reduced pivot row has no other pivot column, so its other
        # entries sit in free columns: (entry, pivot entry, pivot column)
        # per free column
        terms = defaultdict(list)
        for row, col in zip(ints, pivots):
            a = row[col]
            for f, x in row.items():
                if f != col:
                    terms[f].append((x, a, col))
        cycles = []
        for f in sorted(set(range(n)).difference(pivots)):
            # the least s > 0 that makes every -x * s / a whole; 1 over F_p,
            # where the pivot entries are 1
            s = reduce(math.lcm, [a // math.gcd(a, x) for x, a, _ in terms[f]], 1)
            vec = {f: s}
            for x, a, col in terms[f]:
                vec[col] = -x * s // a
            cycles.append({j: y % p for j, y in vec.items()} if p else vec)
        first = d_in.ncols
        width = first + len(cycles)
        # the identity block goes through _integers too, so that it records
        # the scaling of each row over Q; with no cycles there is nothing to pick
        m = []
        if cycles:
            rows = [dict(row) for row in d_in._rows]
            for t, vec in enumerate(cycles):
                for i, x in vec.items():
                    rows[i][first + t] = x
            for i, row in enumerate(rows):
                row[width + i] = 1
                m.append(ops._integers(row)[0])
        kept = [(row, col) for row, col in zip(m, ops._echelon(m, width, reduced=True))
                if col >= first]
        gens = IntMatrix.from_entries(n, len(kept), [(i, t, x) for t, (_, col) in enumerate(kept)
                                                     for i, x in cycles[col - first].items()])
        t = [{j - width: x for j, x in row.items() if j >= width} for row, _ in kept]
        return ((0,) * len(kept), gens, checks, IntMatrix._adopt(t, n),
                [row[col] for row, col in kept])

    def express_columns(self, mat):
        """Coordinates of the classes of the columns of the integer matrix
        mat, one column each: ints in [0, p) over F_p, Fractions over Q.
        Raises LinalgError on a column not a cycle."""
        _, checks, t, pivots = self._built()
        p = self.ops.p
        checks = (checks @ mat)._rows
        if any(any(x % p for x in row.values()) if p else row for row in checks):
            raise LinalgError("vector is not a cycle")
        z = (t @ mat)._rows
        if p:
            return IntMatrix._adopt([{j: y for j, x in row.items() if (y := x % p)}
                                     for row in z], mat.ncols)
        return IntMatrix._adopt([{j: Fraction(x, d) for j, x in row.items()}
                                 for row, d in zip(z, pivots)], mat.ncols)

    def express(self, vec):
        """express_columns of the one-column matrix vec; over Q, vec may
        hold Fractions, and so does every coordinate returned."""
        v, s = self.ops._integers({i: x for i, x in enumerate(vec) if x})
        coords = self.express_columns(_one_column([v.get(i, 0) for i in range(len(vec))]))
        return coords.column(0) if self.ops.p else [Fraction(x, s) for x in coords.column(0)]
