"""Exact linear algebra over the integers and over fields.

Everything in the bigraded pipelines reduces to a handful of integer
lattice computations: Smith divisors, elimination by unit pivots with
Smith normal forms (with tracked unimodular transforms) for what units
leave, solving A x = b over Z, and presenting subquotients ker(g)/im(f)
with enough bookkeeping to express an element in chosen generators.  The groups
involved are direct sums of cyclic groups, each given by its generator
orders (0 for Z, d for Z/d), so membership in their relations is a
divisibility test.
One elimination serves Z, Q and F_p: _unit_pivots, with _back_substitute
and _unit_frame on top.  The ring is p, as FieldOps holds it (None over
Q, the prime over F_p; Z is the default), and it decides only which
entries are units, how a row is updated and the coefficient of
back-substitution.  Over a field every nonzero entry is a unit, so no
Smith normal form is needed there.
All entries are Python ints (over Q, Fractions in coordinates), so
results are exact.  An IntMatrix keeps only its nonzero entries, a dict
per row: the matrices of both pipelines are mostly zeros.  Smith normal
form and unit-pivot elimination work on their own copies of the rows;
nothing here writes into an operand.

Matrix convention: morphism matrices act on column vectors of generator
coordinates; a group's relation matrix has one column d * e_k per
generator k of order d > 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce


class LinalgError(ValueError):
    """A contract of this module was violated (unsolvable system, bad shapes, ...)."""


class NonzeroComposite(LinalgError):
    """g∘f is not zero; graded_homology sets bidegree, the source of f."""

    bidegree = None


class IntMatrix:
    """Sparse integer matrix (Fractions for the Q coordinates of a
    Subquotient over Q): row i is a dict {column: entry} of its nonzero
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
        return cls(columns, nrows).transpose()

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

    @classmethod
    def from_blocks(cls, nrows, ncols, blocks):
        """from_entries of the entries of sign * block shifted by (r0, c0),
        for each (r0, c0, sign, block) of blocks; each block must fit."""
        rows = [{} for _ in range(nrows)]
        for r0, c0, sign, block in blocks:
            if (r0 | c0) < 0 or r0 + block.nrows > nrows or c0 + block.ncols > ncols:
                raise LinalgError(f"block at ({r0}, {c0}) outside a {nrows} x {ncols} matrix")
            for i, brow in enumerate(block._rows if sign else ()):
                if brow:
                    _axpy(rows[r0 + i], {c0 + c: v for c, v in brow.items()}, sign)
        return cls._adopt(rows, ncols)

    def rows_at(self, positions):
        """The matrix whose row r is a copy of row positions[r], or a zero
        row where positions[r] is None: a 0/1 matrix with at most one 1 per
        row times this one, without the product."""
        if any(i is not None and not 0 <= i < self.nrows for i in positions):
            raise LinalgError(f"a row position outside a matrix of {self.nrows} rows")
        rows = self._rows
        return IntMatrix._adopt([{} if i is None else dict(rows[i]) for i in positions],
                                self.ncols)

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

    A matrix with no entries has none, at once.  Otherwise the first call
    eliminates a (_eliminate_units) and keeps the result on a, in its
    _divisors slot; later calls return it.  No matrix is written after it
    is handed out (see IntMatrix), so the kept result stays that of a.

    >>> smith_divisors(IntMatrix([[0, 2, 0], [1, 4, 0], [-1, 0, 6]]))
    (1, 2, 6)
    """
    if a._divisors is None:
        a._divisors = () if a.is_zero() else _eliminate_units(a)
    return a._divisors


def _eliminate_units(a):
    """The divisors of smith_normal_form(a): a 1 per pivot of _unit_pivots,
    then those of smith_normal_form on the rows left, also when none is."""
    pivots, _, rest = _unit_pivots(a._rows)
    return (1,) * len(pivots) + smith_normal_form(rest).divisors


def _mod(rows, p):
    """The sparse rows with their entries reduced into [0, p), new dicts,
    over F_p; the rows themselves over Z and Q (p 0 or None)."""
    return [{j: y for j, x in row.items() if (y := x % p)} for row in rows] if p else rows


def _cleared(row):
    """(v, s): the sparse row of ints v = s * row, for the least s > 0."""
    # reduce, not lcm(*...): the argument tuples of starred calls raised
    # the tracemalloc peak of a field-ladder pass from 1.2 to 1.6 MiB
    s = reduce(math.lcm, [x.denominator for x in row.values()], 1)
    return {j: x.numerator * (s // x.denominator) for j, x in row.items()}, s


def _unit_pivots(rows, p=0):
    """(pivots, cols, rest): copies of the sparse rows, eliminated by unit
    pivots over the ring of p, as FieldOps holds it: Z for 0, the default,
    Q for None, F_p for a prime p.

    A unit is ±1 over Z and any nonzero entry over a field, so over a
    field the first row is the pivot row and no row is left.  Each step
    takes the first row holding a unit, at its lowest such column j,
    clears column j in the other rows, and drops the pivot row and any
    zero row.  The ring decides how.  With pivot entry a and entry c at
    j, a row gets -c * a times the pivot row over Z, where a = ±1, and
    over F_p, where the pivot row is scaled to a = 1 and every entry is
    kept in [0, p).  Over Q the rows are kept integral, their
    denominators cleared first: a row becomes (a/g) row - (c/g) pivot,
    g = gcd(a, c), divided by the gcd of its entries (fraction-free, as
    in Bareiss's elimination).  pivots holds (j, a, row) in order; rest
    is the matrix of the rows left, on the sorted columns cols that they
    touch.
    """
    if p == 0:
        rows = [dict(row) for row in rows if row]
        update = _axpy
    elif p:
        rows = [row for row in _mod(rows, p) if row]

        def update(row, pivot, b):
            for k, y in pivot.items():
                x = (row.get(k, 0) + b * y) % p
                if x:
                    row[k] = x
                else:
                    del row[k]
    else:
        rows = [_cleared(row)[0] for row in rows if row]

        def update(row, pivot, b):
            c = -b // a  # the loop passes b = -c * a
            g = math.gcd(a, c)
            if a != g:
                s = a // g
                for k in row:
                    row[k] *= s
            _axpy(row, pivot, -c // g)
            g = reduce(math.gcd, row.values(), 0)
            if g > 1:
                for k in row:
                    row[k] //= g
    pivots = []
    while rows:
        if p == 0:
            for i, row in enumerate(rows):
                values = row.values()
                if 1 in values or -1 in values:
                    break
            else:
                break
            j = min([c for c, x in row.items() if x == 1 or x == -1])
        else:
            i, j = 0, min(rows[0])
        pivot = rows.pop(i)
        if p and pivot[j] != 1:
            inv = pow(pivot[j], -1, p)
            pivot = {k: x * inv % p for k, x in pivot.items()}
        a = pivot[j]
        kept = []
        for row in rows:
            c = row.get(j)
            if c:
                update(row, pivot, -c * a)
                if not row:
                    continue
            kept.append(row)
        rows = kept
        pivots.append((j, a, pivot))
    place = {c: t for t, c in enumerate(sorted(set().union(*rows)))} if rows else {}
    return pivots, list(place), IntMatrix._adopt([{place[c]: x for c, x in row.items()}
                                                  for row in rows], len(place))


def _back_substitute(pivots, p=0):
    """{j: e}: each pivot variable x_j of _unit_pivots(..., p) through the
    others, so that its row (j, a, row) reads 0: x_j = -(1/a) * sum of
    row[k] x_k over k != j, last pivot first, each later pivot x_k
    replaced by its e.  So e holds only variables that no pivot took.
    -1/a is -a for a = ±1, as over Z and F_p, where e is reduced into
    [0, p), and a Fraction otherwise, over Q."""
    solved = {}
    for j, a, row in reversed(pivots):
        coef = -a if a == 1 or a == -1 else Fraction(-1, a)
        e = {}
        for k, x in row.items():
            if k != j:
                _axpy(e, solved[k] if k in solved else {k: 1}, coef * x)
        solved[j] = _mod([e], p)[0]
    return solved


def _unit_frame(rows, n, quotient, p=0):
    """(orders, w, q) for the matrix A of the sparse rows, n columns wide,
    over the ring of p (see _unit_pivots).

    Unit pivots write each pivot variable through the others (e_v
    extended: e_v plus, at each pivot variable, its coefficient of x_v).
    smith_normal_form(R^T) = (U, U_inv) takes the rest, R on the columns
    T it touches; over a field there is none.  Paired rows of w and q: per
    kept i, row i of U extended and column i of U_inv, on T; per other
    column v that no pivot took, e_v extended and e_v: so q @ w^T = 1.
    quotient False keeps i >= rank R: w^T is a basis of ker A, q gives
    coordinates in it; over Q each e_v extended is scaled to ints, and
    its e_v by the inverse.  quotient True keeps divisors other than 1:
    q^T generates Z^n / (rows of A), w gives coordinates.
    """
    pivots, cols, rem = _unit_pivots(rows, p) if any(rows) else ((), (), None)
    ext = {}
    for j, e in _back_substitute(pivots, p).items():
        for v, x in e.items():
            ext.setdefault(v, {v: 1})[j] = x
    taken = {j for j, _, _ in pivots}
    orders, w, q = [], [], []
    if cols:
        taken.update(cols)
        dec = smith_normal_form(rem.transpose())
        divisors = dec.divisors + (0,) * (len(cols) - len(dec.divisors))
        kept = [i for i, d in enumerate(divisors) if not d or quotient and d != 1]
        u = IntMatrix._adopt([dec.U._rows[i] for i in kept], len(cols))
        w = (u @ IntMatrix._adopt([ext.get(c) or {c: 1} for c in cols], n))._rows
        ui_t = dec.U_inv.transpose()._rows
        q = [{cols[t]: x for t, x in ui_t[i].items()} for i in kept]
        orders = [divisors[i] for i in kept]
    free = [v for v in range(n) if v not in taken]
    for v in free:
        vec, s = ext.get(v) or {v: 1}, 1
        if p is None and not quotient:
            vec, s = _cleared(vec)
        w.append(vec)
        q.append({v: Fraction(1, s) if s > 1 else 1})
    return tuple(orders) + (0,) * len(free), IntMatrix._adopt(w, n), IntMatrix._adopt(q, n)


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

    @classmethod
    def direct_sum(cls, groups):
        """The sum of groups whose orders were checked when they were built."""
        group = cls.__new__(cls)
        group.orders = tuple(d for g in groups for d in g.orders)
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
    """ker(g)/im(f) over the ring of p (see _unit_pivots): a
    PresentedGroup with representatives and express() maps.

    Generators are coordinate vectors in the basis of the middle group,
    units dropped: torsion ones first, each with its order, then free
    ones; over a field every order is 0.  orders is known from the start;
    _representatives builds the representatives on first use, and must
    find the same orders or raise LinalgError.  They keep the rows of g
    under the coordinate map, so that one product gives a column's
    coordinates and its test g x = 0.
    """

    __slots__ = ("_pair", "_reps", "p")

    def __init__(self, f, g, orders=None, p=0):
        """With orders None, the representatives are built now and give them."""
        self.orders = orders
        self._pair = (f, g)
        self._reps = None
        self.p = p
        if orders is None:
            self._built()

    def _built(self):
        """The representatives from _representatives, built on the first call."""
        if self._reps is None:
            orders, *reps = _representatives(*self._pair, self.p)
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
        torsion ones reduced into [0, order); over F_p every one into
        [0, p), over Q they may be Fractions, as mat's entries may.  Every
        column must lie in ker(g)."""
        _, target, stacked, z_coords = self._built()
        rows, n = _mod((stacked @ mat)._rows, self.p), len(self.orders)
        z = _torsion_lift(target, IntMatrix._adopt(rows[n:], mat.ncols))
        if z is None:
            raise LinalgError("vector does not lie in the kernel subgroup")
        out = IntMatrix._adopt(rows[:n], mat.ncols)
        if z:
            out = out + z_coords @ IntMatrix._adopt(z, mat.ncols)
        rows = out._rows
        for i, d in enumerate(self.orders):
            if d and rows[i]:
                rows[i] = {j: y for j, x in rows[i].items() if (y := x % d)}
        return out

    def express(self, vec):
        """express_columns of the one-column matrix vec."""
        col = IntMatrix._adopt([{0: x} if x else {} for x in vec], 1)
        return self.express_columns(col).column(0)

    def class_is_zero(self, vec):
        return all(c == 0 for c in self.express(vec))


def homology_of_pair(f, g):
    """ker(g)/im(f) for morphisms A --f--> B --g--> C with g∘f = 0.

    A, B and C may be any PresentedGroup, a Subquotient too.  Raises
    LinalgError if f.target and g.source have different orders, and its
    subclass NonzeroComposite if g∘f is not zero in C: the one d^2 = 0
    test of both pipelines, which takes no product when f or g has no
    entries (the orders test and GroupMorphism's shape check make the
    shapes agree).  Generators are given in the coordinates of B.

    When B and C are free, g∘f = 0 puts im(f) in ker(g), a saturated
    lattice of rank n_B - rank(g).  So f has the Smith divisors of its
    coordinates in a basis of ker(g), and the group is Z^(n_B - rank(g)
    - rank(f)) plus Z/d for each divisor d > 1 of f.  smith_divisors of
    f and of g give these orders, and the representatives wait for
    their first use.  Otherwise (B or C has torsion) _representatives
    builds them now, raising LinalgError if im(f) or R_B escapes ker(g).
    """
    if f.target.orders != g.source.orders:
        raise LinalgError("f.target and g.source disagree")
    if not (f.matrix.is_zero() or g.matrix.is_zero()
            or g.target.is_zero(g.matrix @ f.matrix)):
        raise NonzeroComposite("g∘f is not the zero morphism")
    if any(g.source.orders) or any(g.target.orders):
        return Subquotient(f, g)
    f_divisors = smith_divisors(f.matrix)
    n_free = g.source.n_gens - len(smith_divisors(g.matrix)) - len(f_divisors)
    return Subquotient(f, g, tuple(d for d in f_divisors if d != 1) + (0,) * n_free)


def _torsion_lift(target, gx):
    """z with gx + R z = 0, R the relations of target: z_k = -gx_k / d_k
    per generator of order d_k > 0.  None when gx is not zero in target."""
    if not target.is_zero(gx):
        return None
    return [{j: -x // d for j, x in row.items()} for row, d in zip(gx._rows, target.orders) if d]


def _representatives(f, g, p=0):
    """(orders, gens, C, stacked, z_coords) of ker(g)/im(f) over the ring
    of p, by two _unit_frame calls.

    ker(g) is the projection to B of ker [g | R_C], one to one as R_C is:
    the first frame gives a basis w1^T of it, and q1 maps a lift (x; z)
    (_torsion_lift) to coordinates.  The lifts of [f | R_B] in those
    coordinates are the relations of the second frame: generators q2^T,
    coordinates w2.  So gens is the B part of (q2 @ w1)^T; stacked holds
    the x columns of w2 @ q1 over the rows of g, z_coords its z columns.
    LinalgError if im(f) or a relation of B escapes ker(g), or gens does.
    Over a field, where only ranks gave the orders, one product tests
    that im(f) lies in ker(g)."""
    n_b, target = g.source.n_gens, g.target
    a = g.matrix.hstack(target.relations) if any(target.orders) else g.matrix
    _, w1, q1 = _unit_frame(a._rows, a.ncols, False, p)
    lifts = f.matrix  # over Z, with B and C free, homology_of_pair has tested g∘f = 0
    if any(g.source.orders) or a is not g.matrix:
        y = f.matrix.hstack(g.source.relations)
        z = _torsion_lift(target, g.matrix @ y)
        if z is None:
            raise LinalgError("im(f) or a relation of B escapes ker(g)")
        lifts = IntMatrix._adopt(y._rows + z, y.ncols)
    elif p != 0 and any(_mod((g.matrix @ f.matrix)._rows, p)):
        raise LinalgError("im(f) escapes ker(g): the ranks of f and g do not give the "
                          "orders of ker(g)/im(f)")
    orders, w2, q2 = _unit_frame((q1 @ lifts).transpose()._rows, w1.nrows, True, p)
    gens, coords = (q2 @ w1)._rows, (w2 @ q1)._rows
    z_coords = [{j - n_b: x for j, x in row.items() if j >= n_b} for row in coords]
    if a is not g.matrix:  # drop the z columns
        gens, coords = ([{j: x for j, x in row.items() if j < n_b} for row in rows]
                        for rows in (gens, coords))
    gens = IntMatrix._adopt(gens, n_b).transpose()
    if not target.is_zero(IntMatrix._adopt(_mod((g.matrix @ gens)._rows, p), gens.ncols)):
        raise LinalgError("the representatives of ker(g)/im(f) escape ker(g)")
    return (orders, gens, target, IntMatrix._adopt(coords + list(map(dict, g.matrix._rows)), n_b),
            IntMatrix._adopt(z_coords, a.ncols - n_b))


def _free_pair(d_in, d_out):
    """(f, g): the matrices as morphisms between free groups."""
    mid = PresentedGroup.free(d_out.ncols)
    return (GroupMorphism(PresentedGroup.free(d_in.ncols), mid, d_in),
            GroupMorphism(mid, PresentedGroup.free(d_out.nrows), d_out))


def free_homology(d_in, d_out):
    """ker(d_out)/im(d_in) for integer matrices Z^a --d_in--> Z^n --d_out--> Z^b."""
    return homology_of_pair(*_free_pair(d_in, d_out))


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
    p is None over Q and the prime over F_p, and it is all the ring needs:
    ranks, representatives and rref run on _unit_pivots and
    _back_substitute, the elimination of Z, which takes p.  Entries are
    ints, over Q also Fractions; Fractions appear only in rref's rows and
    in the coordinates that a Subquotient over Q returns.

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

    def rref(self, m):
        """Reduced row echelon form of the dense rows m, returns (dense
        rows, pivot column list).  The pivot rows of _unit_pivots have
        distinct lowest columns, so their pivot columns are those of the
        reduced form, whose row for pivot j is x_j minus the expression
        that _back_substitute gives for x_j."""
        ncols, p = len(m[0]) if m else 0, self.p
        pivots = _unit_pivots([{j: x for j, x in enumerate(row) if x} for row in m], p)[0]
        solved = _back_substitute(pivots, p)
        zero, cols = 0 if p else Fraction(0), sorted(solved)
        out = []
        for j in cols:
            row = [zero] * ncols
            row[j] = zero + 1
            for k, x in solved[j].items():
                row[k] = -x % p if p else zero - x
            out.append(row)
        out.extend([zero] * ncols for _ in m[len(out):])
        return out, cols

    def rank(self, mat):
        """Rank of mat over the field: the number of pivots of _unit_pivots,
        eliminated once per field (see IntMatrix); 0 at once for a matrix
        with no entries, whatever its shape."""
        if mat.is_zero():
            return 0
        ranks = mat._ranks = mat._ranks or {}
        if self.p not in ranks:
            ranks[self.p] = self._rank(mat)
        return ranks[self.p]

    def _rank(self, mat):
        return len(_unit_pivots(mat._rows, self.p)[0])

    def free_homology(self, d_in, d_out):
        """ker(d_out)/im(d_in) for F^a --d_in--> F^n --d_out--> F^b, integer
        (over Q, also Fraction) entries."""
        return self.homology_of_pair(*_free_pair(d_in, d_out))

    def homology_of_pair(self, f, g):
        """ker(g)/im(f) over the field, graded_homology's spot routine: a
        Subquotient whose dimension n - rank(g) - rank(f) comes first.  If
        that is negative, g∘f != 0: NonzeroComposite, as over Z.  No product
        is taken until representatives are built, so a nonzero one may go
        unseen until then."""
        dim = g.source.n_gens - self.rank(g.matrix) - self.rank(f.matrix)
        if dim < 0:
            raise NonzeroComposite("g∘f is not zero")
        return Subquotient(f, g, (0,) * dim, self.p)
