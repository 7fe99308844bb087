"""Abstract simplicial complexes on a ground set {1, ..., m}, m <= 24.

Vertex subsets are bitmasks internally (vertex v is bit v-1); the public
API speaks 1-based labels.  A complex is stored by its maximal faces and
always contains every singleton of the ground set, so there are no ghost
vertices.  The empty complex {∅} on m = 0 vertices is allowed; the void
complex (no faces at all) is not.

sign_eps(j, I) = (-1)^#{i in I : i < j} is the sign attached to
inserting or removing a vertex; every differential in the package is
built from it.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from itertools import combinations

MAX_VERTICES = 24


class ComplexError(ValueError):
    """Invalid construction or input data for a simplicial complex."""


def mask_of(vertices):
    """Bitmask of an iterable of 1-based labels.

    >>> mask_of([1, 3])
    5
    """
    mask = 0
    for v in vertices:
        if not isinstance(v, int) or isinstance(v, bool):
            raise ComplexError(f"vertex label must be an integer, got {v!r}")
        if v < 1 or v > MAX_VERTICES:
            raise ComplexError(f"vertex label out of range: {v}")
        bit = 1 << (v - 1)
        if mask & bit:
            raise ComplexError(f"repeated vertex label: {v}")
        mask |= bit
    return mask


def _as_mask(face):
    """A raw mask as it is, labels through mask_of; a bool is neither."""
    if isinstance(face, bool):
        raise ComplexError(f"face must be a list of labels or a mask, got {face!r}")
    return face if isinstance(face, int) else mask_of(face)


def vertices_of(mask):
    """Sorted tuple of 1-based labels of a bitmask; a negative mask, which
    has infinitely many bits set, is an input error.

    >>> vertices_of(5)
    (1, 3)
    """
    if mask < 0:
        raise ComplexError(f"vertex mask must be nonnegative, got {mask}")
    out = []
    v = 1
    while mask:
        if mask & 1:
            out.append(v)
        mask >>= 1
        v += 1
    return tuple(out)


def submasks(mask):
    """All subsets of a bitmask, descending, ending with 0."""
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def merged(pieces):
    """The nonempty masks of pieces merged while they meet, as pairwise
    disjoint masks: of a graph's vertices and edges, its components."""
    groups = []
    for piece in pieces:
        if piece:  # the groups are disjoint, so one that meets piece | g met piece
            kept = []
            for g in groups:
                if g & piece:
                    piece |= g
                else:
                    kept.append(g)
            kept.append(piece)
            groups = kept
    return groups


def sign_eps(j, mask):
    """(-1)^#{i in mask : i < j} for a 1-based label j."""
    below = mask & ((1 << (j - 1)) - 1)
    return -1 if below.bit_count() & 1 else 1


def sign_eps_set(lmask, imask):
    """Product of sign_eps(l, imask) over the labels l of lmask."""
    sign = 1
    rest = lmask
    while rest:
        low = rest & -rest
        j = low.bit_length()
        sign *= sign_eps(j, imask)
        rest ^= low
    return sign


def _object_once(pairs):
    """The dict of one JSON object; a key given twice is an input error."""
    data = {}
    for key, value in pairs:
        if key in data:
            raise ComplexError(f"invalid JSON: key {key!r} appears twice in one object")
        data[key] = value
    return data


class SimplicialComplex:
    """Simplicial complex given by maximal faces, closed downward implicitly."""

    __slots__ = ("m", "maximal_faces", "_faces", "_min_non_faces")

    def __init__(self, m, maximal_masks, _internal=False):
        if not _internal:
            raise ComplexError("use SimplicialComplex.from_maximal_faces")
        self.m = m
        self.maximal_faces = tuple(sorted(maximal_masks))
        self._faces = None
        self._min_non_faces = None

    @classmethod
    def from_maximal_faces(cls, m, faces):
        """Build from 1-based label lists (or nonnegative raw masks); faces
        may be redundant.  Singletons are added as maximal faces for the
        vertices of {1..m} that no face covers.
        """
        if not isinstance(m, int) or isinstance(m, bool) or m < 0:
            raise ComplexError("vertex count must be a nonnegative integer")
        if m > MAX_VERTICES:
            raise ComplexError(f"at most {MAX_VERTICES} vertices supported, got {m}")
        full = (1 << m) - 1
        masks = []
        for face in faces:
            mask = _as_mask(face)
            if mask < 0:
                raise ComplexError(f"face mask must be nonnegative, got {mask}")
            if mask & ~full:
                raise ComplexError(
                    f"face {vertices_of(mask)} exceeds the ground set of {m} vertices")
            masks.append(mask)
        covered = 0
        for mask in masks:
            covered |= mask
        for v in vertices_of(full & ~covered):
            masks.append(1 << (v - 1))
        pruned = _prune_to_maximal(masks)
        if m > 0 and not pruned:
            pruned = [1 << (v - 1) for v in range(1, m + 1)]
        return cls(m, pruned, _internal=True)

    @property
    def faces(self):
        """Frozenset of all face masks, including the empty face 0."""
        if self._faces is None:
            seen = {0}
            for top in self.maximal_faces:
                seen.update(submasks(top))
            self._faces = frozenset(seen)
        return self._faces

    def has_face(self, mask):
        mask = _as_mask(mask)
        return any(mask & top == mask for top in self.maximal_faces) or mask == 0

    def dim(self):
        if not self.maximal_faces:
            return -1
        return max(top.bit_count() for top in self.maximal_faces) - 1

    def vertices(self):
        return tuple(range(1, self.m + 1))

    def full_mask(self):
        return (1 << self.m) - 1

    def edges(self):
        """1-based label pairs of the 1-skeleton."""
        return [(u, v) for u, v in combinations(range(1, self.m + 1), 2)
                if self.has_face((1 << (u - 1)) | (1 << (v - 1)))]

    def faces_within(self, support_mask):
        """Faces contained in the support, grouped by cardinality, masks ascending."""
        top = max((f.bit_count() for f in self.faces if f & ~support_mask == 0),
                  default=0)
        groups = [[] for _ in range(top + 1)]
        for f in self.faces:
            if f & ~support_mask == 0:
                groups[f.bit_count()].append(f)
        for g in groups:
            g.sort()
        return groups

    def vertex_mask(self, vertices):
        """Bitmask of a vertex subset given as a mask or as labels; a
        negative mask or a vertex beyond the ground set is an input error."""
        imask = _as_mask(vertices)
        if imask & ~self.full_mask():
            raise ComplexError("subcomplex vertices exceed the ground set")
        return imask

    def full_subcomplex(self, vertices):
        """Full subcomplex on the given vertices, relabeled order-preservingly.

        The label map sends the i-th smallest chosen vertex to i.
        """
        imask = self.vertex_mask(vertices)
        labels = vertices_of(imask)
        newbit = {v: 1 << i for i, v in enumerate(labels)}
        faces = []
        for top in self.maximal_faces:
            inner = top & imask
            mask = 0
            for v in vertices_of(inner):
                mask |= newbit[v]
            faces.append(mask)
        return SimplicialComplex.from_maximal_faces(len(labels), _prune_to_maximal(faces))

    def is_simplex(self):
        return self.has_face(self.full_mask())

    def minimal_non_faces(self):
        """Masks S not in K with every proper subset in K, ascending.  Each
        is f | v for its face f = S - v, v its highest vertex, so only those
        are tried: S is kept when it is no face but every S - u is."""
        if self._min_non_faces is None:
            faces = self.faces
            self._min_non_faces = tuple(sorted(
                s for f in faces for j in range(f.bit_length(), self.m)
                if (s := f | 1 << j) not in faces
                and all(s ^ 1 << (u - 1) in faces for u in vertices_of(f))))
        return self._min_non_faces

    def is_flag(self):
        """Whether every minimal non-face has exactly two vertices."""
        return all(s.bit_count() == 2 for s in self.minimal_non_faces())

    def is_chordal_skeleton(self):
        """Maximum cardinality search plus a perfect elimination check.

        Returns (True, ordering) with a perfect elimination ordering of the
        1-skeleton, or (False, None).
        """
        adj = [0] * self.m
        for u, v in self.edges():
            adj[u - 1] |= 1 << (v - 1)
            adj[v - 1] |= 1 << (u - 1)
        ok, order = _peo_order(self.m, adj)
        if not ok:
            return False, None
        return True, [v + 1 for v in order]

    def is_wedge_decomposable(self):
        """K = K_{A∪τ} ∪_τ K_{B∪τ} with A, B nonempty, as a WedgeDecomposition, or None.

        Every maximal face lies in A ∪ τ or in B ∪ τ exactly when A and B
        are unions of groups, the pieces top - τ of the maximal faces merged
        while they meet.  τ is the first face by mask with two groups or more;
        A holds the lowest vertex outside τ, B is the least group without it.
        """
        for tau in sorted(self.faces)[1:]:  # the empty face comes first
            groups = merged(top & ~tau for top in self.maximal_faces)
            if len(groups) > 1:
                rest = self.full_mask() & ~tau
                right = tau | min(g for g in groups if not g & rest & -rest)
                left = tau | rest & ~right
                return WedgeDecomposition(vertices_of(tau), vertices_of(left), vertices_of(right),
                                          self.full_subcomplex(left), self.full_subcomplex(right))
        return None

    def relabeled(self, perm):
        """Image under a permutation of 1..m given as a dict label -> label;
        any other map raises ComplexError."""
        labels = set(range(1, self.m + 1))
        if set(perm) != labels or set(perm.values()) != labels:
            raise ComplexError(f"relabelling is not a permutation of 1..{self.m}: {perm!r}")
        faces = []
        for top in self.maximal_faces:
            faces.append(mask_of(perm[v] for v in vertices_of(top)))
        return SimplicialComplex.from_maximal_faces(self.m, faces)

    def to_json_dict(self):
        return {
            "m": self.m,
            "maximal_faces": [list(vertices_of(f)) for f in self.maximal_faces],
        }

    def to_json(self):
        return json.dumps(self.to_json_dict(), sort_keys=True)

    @classmethod
    def from_json_dict(cls, data):
        if not isinstance(data, dict):
            raise ComplexError("expected a JSON object")
        try:
            m = data["m"]
            faces = data["maximal_faces"]
        except (KeyError, TypeError) as exc:
            raise ComplexError(f"missing field in complex description: {exc}")
        if not isinstance(faces, list) or not all(isinstance(f, list) for f in faces):
            raise ComplexError("maximal_faces must be a list of vertex lists")
        return cls.from_maximal_faces(m, faces)

    @classmethod
    def from_json(cls, text):
        try:
            data = json.loads(text, object_pairs_hook=_object_once)
        except json.JSONDecodeError as exc:
            raise ComplexError(f"invalid JSON: {exc}")
        except RecursionError:
            raise ComplexError("invalid JSON: nested too deeply")
        return cls.from_json_dict(data)

    @classmethod
    def from_text(cls, text):
        """Line format: first data line 'm', then one face per line as
        space-separated labels; '#' starts a comment."""
        m = None
        faces = []
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            try:
                numbers = [int(p) for p in parts]
            except ValueError:
                raise ComplexError(f"line {lineno}: expected integers, got {line!r}")
            if m is None:
                if len(numbers) != 1:
                    raise ComplexError(f"line {lineno}: first line must be the vertex count")
                m = numbers[0]
            else:
                faces.append(numbers)
        if m is None:
            raise ComplexError("empty complex description")
        return cls.from_maximal_faces(m, faces)

    def to_text(self):
        lines = [f"{self.m}  # vertices"]
        for f in self.maximal_faces:
            lines.append(" ".join(str(v) for v in vertices_of(f)))
        return "\n".join(lines) + "\n"

    def __eq__(self, other):
        return (isinstance(other, SimplicialComplex)
                and self.m == other.m
                and self.maximal_faces == other.maximal_faces)

    def __hash__(self):
        return hash((self.m, self.maximal_faces))

    def __repr__(self):
        tops = [vertices_of(f) for f in self.maximal_faces]
        return f"SimplicialComplex(m={self.m}, maximal={tops})"


@dataclass
class WedgeDecomposition:
    tau: tuple
    left_vertices: tuple
    right_vertices: tuple
    left: SimplicialComplex
    right: SimplicialComplex


def _prune_to_maximal(masks):
    uniq = sorted(set(masks), key=lambda f: (f.bit_count(), f), reverse=True)
    out = []
    for mask in uniq:
        if not any(mask & kept == mask for kept in out):
            out.append(mask)
    return sorted(out)


# ---------------------------------------------------------------------------
# constructions


def join(k1, k2):
    """Simplicial join; the second factor's labels are shifted past the first."""
    m = k1.m + k2.m
    if m > MAX_VERTICES:
        raise ComplexError("join exceeds the vertex cap")
    faces = []
    shift = k1.m
    tops2 = [sum(1 << (v - 1 + shift) for v in vertices_of(f)) for f in k2.maximal_faces]
    if not k1.maximal_faces:
        faces = tops2
    elif not tops2:
        faces = list(k1.maximal_faces)
    else:
        for f1 in k1.maximal_faces:
            for f2 in tops2:
                faces.append(f1 | f2)
    return SimplicialComplex.from_maximal_faces(m, faces)


def attach_simplex(k, sigma, n):
    """Glue an n-simplex to K along a face sigma of K.

    sigma must be a face of K (possibly empty) and n >= |sigma| - 1.  The
    n+1-|sigma| fresh vertices are appended after K's ground set; with
    n = |sigma| - 1 nothing is added and K is returned unchanged.
    """
    sigma_mask = _as_mask(sigma)
    if not k.has_face(sigma_mask):
        raise ComplexError(f"sigma {vertices_of(sigma_mask)} is not a face")
    size = sigma_mask.bit_count()
    if n < size - 1:
        raise ComplexError(f"simplex dimension {n} too small for |sigma| = {size}")
    fresh = n + 1 - size
    if fresh == 0:
        return k
    m = k.m + fresh
    if m > MAX_VERTICES:
        raise ComplexError("attachment exceeds the vertex cap")
    fresh_mask = ((1 << fresh) - 1) << k.m
    delta = sigma_mask | fresh_mask
    return SimplicialComplex.from_maximal_faces(m, list(k.maximal_faces) + [delta])


# ---------------------------------------------------------------------------
# generators


def simplex(m):
    """Full simplex on m vertices (m >= 0)."""
    if m == 0:
        return SimplicialComplex.from_maximal_faces(0, [])
    return SimplicialComplex.from_maximal_faces(m, [list(range(1, m + 1))])


def boundary_simplex(m):
    """Boundary of the (m-1)-simplex; m >= 2."""
    if m < 2:
        raise ComplexError("boundary needs at least 2 vertices")
    verts = list(range(1, m + 1))
    faces = [[v for v in verts if v != drop] for drop in verts]
    return SimplicialComplex.from_maximal_faces(m, faces)


def cycle(m):
    """The m-cycle graph as a 1-dimensional complex; m >= 3."""
    if m < 3:
        raise ComplexError("a cycle needs at least 3 vertices")
    faces = [[i, i + 1] for i in range(1, m)] + [[m, 1]]
    return SimplicialComplex.from_maximal_faces(m, faces)


def disjoint_points(m):
    """m isolated vertices; m >= 1."""
    if m < 1:
        raise ComplexError("need at least one point")
    return SimplicialComplex.from_maximal_faces(m, [[v] for v in range(1, m + 1)])


def rp2_minimal():
    """The 6-vertex triangulation of the real projective plane."""
    facets = [
        [1, 2, 3], [1, 2, 5], [1, 3, 6], [1, 4, 5], [1, 4, 6],
        [2, 3, 4], [2, 4, 6], [2, 5, 6], [3, 4, 5], [3, 5, 6],
    ]
    return SimplicialComplex.from_maximal_faces(6, facets)


def square_edge():
    """4-cycle on {1,2,3,4} plus the pendant edge {4,5}."""
    return SimplicialComplex.from_maximal_faces(
        5, [[1, 2], [2, 3], [3, 4], [4, 1], [4, 5]])


def two_triangles():
    """Two hollow triangles (1,2,5) and (3,4,5) glued at vertex 5."""
    return SimplicialComplex.from_maximal_faces(
        5, [[1, 2], [1, 5], [2, 5], [3, 4], [3, 5], [4, 5]])


def two_squares():
    """Two hollow squares 1-2-4-3 and 3-4-6-5 glued along the edge {3,4}."""
    return SimplicialComplex.from_maximal_faces(
        6, [[1, 2], [1, 3], [2, 4], [3, 4], [3, 5], [4, 6], [5, 6]])


def iterated_attachment(seed, steps=6, m_cap=7):
    """Complex built by repeatedly gluing simplices along faces, seeded."""
    rng = random.Random(seed)
    k = simplex(rng.randint(1, 3))
    for _ in range(steps):
        room = m_cap - k.m
        if room <= 0:
            break
        sigma = rng.choice(sorted(k.faces))
        fresh = rng.randint(1, room)
        k = attach_simplex(k, sigma, sigma.bit_count() + fresh - 1)
    return k


def random_complex(rng, m):
    """Random complex on exactly m vertices, for fuzzing."""
    if m < 1:
        raise ComplexError("need at least one vertex")
    count = rng.randint(1, 2 * m)
    faces = []
    for _ in range(count):
        size = min(m, 1 + min(rng.randint(0, m - 1), rng.randint(0, m - 1), 3))
        faces.append(rng.sample(range(1, m + 1), size))
    return SimplicialComplex.from_maximal_faces(m, faces)


def random_surgery(rng, m_cap=7):
    """Random iterated attachment with a random seed complex, for fuzzing."""
    return iterated_attachment(rng.randrange(1 << 30), steps=rng.randint(1, 6),
                               m_cap=m_cap)


ZOO_BUILDERS = {
    "simplex:1": lambda: simplex(1),
    "simplex:2": lambda: simplex(2),
    "simplex:3": lambda: simplex(3),
    "simplex:4": lambda: simplex(4),
    "boundary:2": lambda: boundary_simplex(2),
    "boundary:3": lambda: boundary_simplex(3),
    "boundary:4": lambda: boundary_simplex(4),
    "boundary:5": lambda: boundary_simplex(5),
    "cycle:4": lambda: cycle(4),
    "cycle:5": lambda: cycle(5),
    "cycle:6": lambda: cycle(6),
    "cycle:7": lambda: cycle(7),
    "points:2": lambda: disjoint_points(2),
    "points:3": lambda: disjoint_points(3),
    "points:4": lambda: disjoint_points(4),
    "points:5": lambda: disjoint_points(5),
    "rp2": rp2_minimal,
    "square_edge": square_edge,
    "two_triangles": two_triangles,
    "two_squares": two_squares,
    "cycle5_tri": lambda: attach_simplex(cycle(5), [1, 2], 2),
}


def zoo():
    """Named example complexes used across the verification suites."""
    return [(name, build()) for name, build in ZOO_BUILDERS.items()]


def _peo_order(m, adj):
    """Maximum cardinality search elimination order, 0-based.

    adj is a list of neighbor bitmasks.  Returns (ok, order) where ok
    says the order is a perfect elimination ordering, which happens for
    exactly the chordal graphs.  Ties pick the smallest vertex.
    """
    weight = [0] * m
    removed = 0
    numbered = []
    for _ in range(m):
        best = -1
        for v in range(m):
            if not removed >> v & 1 and (best < 0 or weight[v] > weight[best]):
                best = v
        removed |= 1 << best
        numbered.append(best)
        rest = adj[best] & ~removed
        while rest:
            low = rest & -rest
            rest ^= low
            weight[low.bit_length() - 1] += 1
    order = numbered[::-1]
    position = [0] * m
    for i, v in enumerate(order):
        position[v] = i
    for v in order:
        later = [u for u in vertices_of(adj[v]) if position[u - 1] > position[v]]
        if not later:
            continue
        first = min(later, key=lambda u: position[u - 1])
        for u in later:
            if u != first and not adj[first - 1] >> (u - 1) & 1:
                return False, order
    return True, order


def graph_edge_pairs(m):
    """The C(m, 2) vertex pairs in the fixed order used by edge bitmasks."""
    return list(combinations(range(1, m + 1), 2))


def _graph_adjacency(m, edge_mask):
    pairs = graph_edge_pairs(m)
    adj = [0] * m
    rest = edge_mask
    while rest:
        low = rest & -rest
        rest ^= low
        u, v = pairs[low.bit_length() - 1]
        adj[u - 1] |= 1 << (v - 1)
        adj[v - 1] |= 1 << (u - 1)
    return adj


def graph_is_chordal(m, edge_mask):
    """Chordality of the graph given as an edge bitmask."""
    return _peo_order(m, _graph_adjacency(m, edge_mask))[0]


def clique_complex(m, edge_mask):
    """The complex whose faces are the cliques of the graph."""
    adj = _graph_adjacency(m, edge_mask)
    cliques = []
    for s in range(1 << m):
        ok = True
        rest = s
        while ok and rest:
            low = rest & -rest
            rest ^= low
            v = low.bit_length() - 1
            ok = s & ~(adj[v] | low) == 0
        if ok:
            cliques.append(s)
    return SimplicialComplex.from_maximal_faces(m, _prune_to_maximal(cliques))


def graph_isomorphism_classes(m):
    """All graphs on m labeled vertices grouped by isomorphism.

    Returns a list of (representative edge mask, orbit size) covering
    every labeled graph exactly once; representatives are the smallest
    edge masks of their orbits.
    """
    from itertools import permutations

    pairs = graph_edge_pairs(m)
    position = {pair: i for i, pair in enumerate(pairs)}
    tables = []
    for p in permutations(range(1, m + 1)):
        tables.append([position[tuple(sorted((p[u - 1], p[v - 1])))]
                       for u, v in pairs])
    seen = bytearray(1 << len(pairs))
    classes = []
    for g in range(1 << len(pairs)):
        if seen[g]:
            continue
        orbit = set()
        for table in tables:
            h = 0
            rest = g
            while rest:
                low = rest & -rest
                rest ^= low
                h |= 1 << table[low.bit_length() - 1]
            orbit.add(h)
        for h in orbit:
            seen[h] = 1
        classes.append((g, len(orbit)))
    return classes


def is_attachment_reachable(k, memo=None):
    """Whether K arises from a simplex by repeatedly gluing on a simplex
    along one of its faces (possibly the empty face).

    Reverse search: guess the vertex set W introduced by the final
    gluing.  Every face meeting W must then lie inside one face of K
    (the glued simplex), and deleting W must leave a reachable complex.
    Memoized on facet masks; pass a shared dict to reuse work across
    many related complexes.
    """
    if memo is None:
        memo = {}
    return _reachable_facets(tuple(k.maximal_faces), memo)


def _reachable_facets(facets, memo):
    if len(facets) <= 1:
        return True
    cached = memo.get(facets)
    if cached is not None:
        return cached
    full = 0
    for f in facets:
        full |= f
    result = False
    w = full
    while w:
        w = (w - 1) & full
        if w == 0:
            break
        star = 0
        for f in facets:
            if f & w:
                star |= f
        if any(star & ~f == 0 for f in facets):
            rest = tuple(_prune_to_maximal([f & ~w for f in facets]))
            if _reachable_facets(rest, memo):
                result = True
                break
    memo[facets] = result
    return result
