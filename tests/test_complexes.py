"""Simplicial complex construction, predicates, and IO."""

import os
import random
import subprocess
import sys

import pytest
from dense_oracle import wedge_decomposition_by_search
from hypothesis import given, settings
from hypothesis import strategies as st

import macoh
from macoh import complexes
from macoh.complexes import (
    ComplexError,
    SimplicialComplex,
    attach_simplex,
    boundary_simplex,
    clique_complex,
    cycle,
    disjoint_points,
    graph_edge_pairs,
    graph_is_chordal,
    graph_isomorphism_classes,
    is_attachment_reachable,
    iterated_attachment,
    join,
    mask_of,
    random_complex,
    rp2_minimal,
    sign_eps,
    sign_eps_set,
    simplex,
    square_edge,
    submasks,
    two_squares,
    two_triangles,
    vertices_of,
    zoo,
)


def test_mask_roundtrip():
    assert mask_of([1, 3]) == 0b101
    assert vertices_of(0b101) == (1, 3)
    assert mask_of([]) == 0
    assert vertices_of(0) == ()
    with pytest.raises(ComplexError):
        mask_of([0])
    with pytest.raises(ComplexError):
        mask_of([2, 2])


def test_submasks_enumerates_power_set():
    subs = list(submasks(0b1011))
    assert len(subs) == 8
    assert subs[0] == 0b1011 and subs[-1] == 0
    assert len(set(subs)) == 8


def test_sign_eps():
    # inserting 3 into {1, 5}: one smaller element present
    assert sign_eps(3, mask_of([1, 5])) == -1
    assert sign_eps(1, mask_of([2, 3])) == 1
    assert sign_eps(4, mask_of([1, 2, 3])) == -1
    assert sign_eps_set(mask_of([2]), mask_of([1, 2, 3])) == -1
    assert sign_eps_set(mask_of([1, 2]), mask_of([1, 2, 3])) == -1
    assert sign_eps_set(0, mask_of([1, 2])) == 1


def test_downward_closure_and_pruning():
    k = simplex(3)
    assert len(k.faces) == 8
    assert k.is_simplex()
    redundant = SimplicialComplex.from_maximal_faces(3, [[1, 2, 3], [1, 2], [3]])
    assert redundant == k
    assert k.dim() == 2


def test_isolated_vertices_are_completed():
    k = SimplicialComplex.from_maximal_faces(4, [[1, 2]])
    assert k.has_face([3])
    assert k.has_face([4])
    assert not k.has_face([3, 4])
    assert k.maximal_faces == (mask_of([1, 2]), mask_of([3]), mask_of([4]))


def test_ground_set_validation():
    with pytest.raises(ComplexError):
        SimplicialComplex.from_maximal_faces(2, [[1, 2, 3]])
    with pytest.raises(ComplexError):
        SimplicialComplex.from_maximal_faces(25, [])
    with pytest.raises(ComplexError):
        SimplicialComplex.from_maximal_faces(-1, [])
    empty = SimplicialComplex.from_maximal_faces(0, [])
    assert empty.faces == frozenset({0})
    assert empty.dim() == -1


@pytest.mark.parametrize("call", [
    "vertices_of(-1)",
    "SimplicialComplex.from_maximal_faces(3, [-1])",
    "attach_simplex(cycle(4), -1, 3)",
])
def test_negative_masks_are_refused_without_hanging(call):
    # a fresh interpreter under a timeout, so that a hang fails here
    # instead of stalling the suite
    code = ("from macoh.complexes import ComplexError, SimplicialComplex, "
            "attach_simplex, cycle, vertices_of\n"
            f"try:\n    {call}\nexcept ComplexError:\n    pass\n"
            "else:\n    raise SystemExit('no ComplexError')\n")
    src = os.path.dirname(os.path.dirname(macoh.__file__))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=30, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("call", [
    lambda: attach_simplex(cycle(4), True, 2),
    lambda: cycle(4).vertex_mask(True),
    lambda: cycle(4).has_face(True),
], ids=["attach_simplex", "vertex_mask", "has_face"])
def test_a_bool_is_not_a_mask(call):
    with pytest.raises(ComplexError, match="list of labels or a mask"):
        call()


def test_full_subcomplex_relabels_order_preserving():
    k = cycle(5)
    sub = k.full_subcomplex([2, 3, 5])
    # vertices 2,3,5 become 1,2,3; only the edge {2,3} survives
    assert sub.m == 3
    assert sub.has_face([1, 2])
    assert not sub.has_face([2, 3])
    assert not sub.has_face([1, 3])


def test_faces_within():
    k = cycle(4)
    groups = k.faces_within(mask_of([1, 2, 3]))
    assert groups[0] == [0]
    assert groups[1] == [mask_of([1]), mask_of([2]), mask_of([3])]
    assert groups[2] == [mask_of([1, 2]), mask_of([2, 3])]


def test_join_of_two_point_pairs_is_a_four_cycle():
    k = join(disjoint_points(2), disjoint_points(2))
    assert k.relabeled({1: 1, 2: 3, 3: 2, 4: 4}) == cycle(4)


@pytest.mark.parametrize("perm", [
    {1: 1, 2: 2, 3: 1, 4: 4},  # two labels onto one
    {1: 2, 2: 1, 3: 3},  # label 4 missing
    {1: 2, 2: 1, 3: 3, 4: 5},  # a value outside 1..4
    {1: 2, 2: 1, 3: 3, 4: 4, 5: 5},  # a key outside 1..4
])
def test_relabeled_rejects_a_map_that_is_not_a_permutation(perm):
    with pytest.raises(ComplexError, match="not a permutation of 1..4"):
        cycle(4).relabeled(perm)


def test_join_with_point_cones():
    cone = join(cycle(3), simplex(1))
    assert cone.is_simplex() is False
    assert cone.has_face([1, 2, 4])
    assert cone.dim() == 2


def test_attach_simplex_examples():
    # empty gluing face: disjoint point
    k = attach_simplex(cycle(4), [], 0)
    assert k.m == 5
    assert k.has_face([5])
    assert not k.has_face([1, 5])
    # gluing a 1-simplex along a vertex: pendant edge
    assert attach_simplex(cycle(4), [4], 1) == square_edge()
    # degenerate: n = |sigma| - 1 adds nothing
    assert attach_simplex(cycle(4), [1, 2], 1) is cycle(4) or \
        attach_simplex(cycle(4), [1, 2], 1) == cycle(4)
    # gluing a triangle along an edge of the 5-cycle
    k = attach_simplex(cycle(5), [1, 2], 2)
    assert k.m == 6
    assert k.has_face([1, 2, 6])
    assert k.full_subcomplex([1, 2, 3, 4, 5]) == cycle(5)


def test_attach_simplex_validation():
    with pytest.raises(ComplexError):
        attach_simplex(cycle(4), [1, 3], 2)  # diagonal is not a face
    with pytest.raises(ComplexError):
        attach_simplex(cycle(4), [1, 2], 0)  # dimension below |sigma| - 1


def test_boundary_simplex_face_count():
    for m in range(2, 6):
        k = boundary_simplex(m)
        assert len(k.faces) == 2 ** m - 1
        assert not k.is_simplex()


def test_rp2_is_a_closed_pseudosurface():
    k = rp2_minimal()
    assert len(k.maximal_faces) == 10
    edges = k.edges()
    assert len(edges) == 15  # complete 1-skeleton on 6 vertices
    for u, v in edges:
        containing = [f for f in k.maximal_faces
                      if k.has_face([u, v]) and (mask_of([u, v]) & f) == mask_of([u, v])]
        assert len(containing) == 2
    f_vector = (6, 15, 10)
    assert f_vector[0] - f_vector[1] + f_vector[2] == 1


def test_minimal_non_faces_and_flag():
    k4 = cycle(4)
    assert k4.minimal_non_faces() == (mask_of([1, 3]), mask_of([2, 4]))
    assert k4.is_flag()
    assert not boundary_simplex(3).is_flag()
    assert simplex(3).is_flag()
    assert disjoint_points(3).is_flag()
    assert not rp2_minimal().is_flag()


def _is_clique(k, vertices):
    return all(k.has_face([u, v]) for u in vertices for v in vertices if u < v)


def test_chordality_verdicts():
    ok, order = simplex(4).is_chordal_skeleton()
    assert ok and sorted(order) == [1, 2, 3, 4]
    assert disjoint_points(3).is_chordal_skeleton()[0]
    assert not cycle(4).is_chordal_skeleton()[0]
    assert not cycle(6).is_chordal_skeleton()[0]
    chorded = SimplicialComplex.from_maximal_faces(
        4, [[1, 2], [2, 3], [3, 4], [4, 1], [1, 3]])
    ok, order = chorded.is_chordal_skeleton()
    assert ok
    # independently verify the witness is a perfect elimination ordering
    pos = {v: i for i, v in enumerate(order)}
    for v in order:
        later = [u for (a, b) in chorded.edges() for u in ((b,) if a == v else (a,) if b == v else ())
                 if pos[u] > pos[v]]
        assert _is_clique(chorded, later)


def test_wedge_decompositions():
    dec = two_squares().is_wedge_decomposable()
    assert dec is not None
    assert dec.tau == (3, 4)
    assert dec.left_vertices == (1, 2, 3, 4)
    assert dec.right_vertices == (3, 4, 5, 6)
    assert dec.left == cycle(4).relabeled({1: 1, 2: 2, 3: 4, 4: 3})

    dec = square_edge().is_wedge_decomposable()
    assert dec is not None
    assert dec.tau == (4,)

    assert cycle(5).is_wedge_decomposable() is None
    assert rp2_minimal().is_wedge_decomposable() is None
    assert two_triangles().is_wedge_decomposable() is not None


def _check_wedge_definition(k, dec):
    """τ is a face, A and B are nonempty and split the vertices outside τ,
    every maximal face lies in A ∪ τ or in B ∪ τ, and the sides are the
    full subcomplexes on them."""
    tau, left, right = (mask_of(vs) for vs in (dec.tau, dec.left_vertices, dec.right_vertices))
    a, b = left & ~tau, right & ~tau
    assert tau in k.faces and tau
    assert a and b and not a & b and a | b | tau == k.full_mask() and left & right == tau
    assert all(top & ~left == 0 or top & ~right == 0 for top in k.maximal_faces)
    assert dec.left == k.full_subcomplex(left) and dec.right == k.full_subcomplex(right)


@st.composite
def wedge_candidates(draw):
    """Complexes on m <= 9 vertices from large faces (the ground set minus
    a hole) and small ones, so that both verdicts come up at every m."""
    m = draw(st.sampled_from(range(9, 0, -1)))
    full = (1 << m) - 1
    holes = draw(st.lists(st.integers(1, full), max_size=2 * m))
    small = draw(st.lists(st.sets(st.integers(1, m), min_size=1, max_size=3), max_size=m))
    return SimplicialComplex.from_maximal_faces(
        m, [full & ~hole for hole in holes] + [sorted(face) for face in small])


@settings(derandomize=True, deadline=None, max_examples=150)
@given(wedge_candidates())
def test_wedge_decomposition_equals_the_search_and_the_definition(k):
    dec = k.is_wedge_decomposable()
    assert dec == wedge_decomposition_by_search(k)
    if dec is not None:
        _check_wedge_definition(k, dec)


def test_wedge_decomposition_of_the_zoo_equals_the_search():
    for name, k in zoo():
        dec = k.is_wedge_decomposable()
        assert dec == wedge_decomposition_by_search(k), name
        if dec is not None:
            _check_wedge_definition(k, dec)


def test_wedge_decomposition_enumerates_no_subsets(monkeypatch):
    k = boundary_simplex(12)
    assert k.faces  # built before submasks is refused

    def refused(mask):
        raise AssertionError("the wedge test enumerated the subsets of a mask")

    monkeypatch.setattr(complexes, "submasks", refused)
    assert k.is_wedge_decomposable() is None


def test_iterated_attachment_is_deterministic():
    a = iterated_attachment(42)
    b = iterated_attachment(42)
    assert a == b
    assert a.m <= 7
    c = iterated_attachment(43)
    assert isinstance(c, SimplicialComplex)


def test_random_complex_is_wellformed():
    rng = random.Random(1)
    for _ in range(20):
        k = random_complex(rng, rng.randint(1, 6))
        assert all(k.has_face([v]) for v in k.vertices())
        # antichain property of maximal faces
        tops = k.maximal_faces
        for i, a in enumerate(tops):
            for j, b in enumerate(tops):
                if i != j:
                    assert a & b != a


def test_json_roundtrip():
    k = two_squares()
    again = SimplicialComplex.from_json(k.to_json())
    assert again == k
    with pytest.raises(ComplexError):
        SimplicialComplex.from_json("{not json")
    with pytest.raises(ComplexError):
        SimplicialComplex.from_json('{"m": 3}')
    with pytest.raises(ComplexError):
        SimplicialComplex.from_json('{"m": 2, "maximal_faces": [[1, 2, 3]]}')
    for bad in ('{"m": 3, "maximal_faces": [[1.7, 2]]}',
                '{"m": 3, "maximal_faces": [[true, 2]]}',
                '{"m": 3, "maximal_faces": [["a", 2]]}',
                '{"m": true, "maximal_faces": [[1]]}'):
        with pytest.raises(ComplexError):
            SimplicialComplex.from_json(bad)


def test_json_with_a_repeated_key_is_an_input_error():
    # json.loads alone keeps the last value: this would be a complex on 3 vertices
    for text in ('{"m": 2, "maximal_faces": [[1, 2]], "m": 3}',
                 '{"m": 2, "maximal_faces": [[1]], "maximal_faces": [[1, 2]]}'):
        with pytest.raises(ComplexError, match="appears twice"):
            SimplicialComplex.from_json(text)
    # a repeat inside a nested object is refused as well
    with pytest.raises(ComplexError, match="'x' appears twice"):
        SimplicialComplex.from_json('{"m": 1, "maximal_faces": [[1]], "n": {"x": 1, "x": 2}}')
    assert SimplicialComplex.from_json('{"maximal_faces": [[1, 2]], "m": 2}').m == 2


def test_text_roundtrip():
    text = """
    # a 4-cycle with a pendant edge
    5
    1 2
    2 3
    3 4
    4 1
    4 5  # the pendant
    """
    k = SimplicialComplex.from_text(text)
    assert k == square_edge()
    assert SimplicialComplex.from_text(k.to_text()) == k
    with pytest.raises(ComplexError):
        SimplicialComplex.from_text("# nothing here")
    with pytest.raises(ComplexError):
        SimplicialComplex.from_text("3 4\n1 2\n")


def test_zoo_members_are_wellformed():
    names = set()
    for name, k in zoo():
        names.add(name)
        assert k.m >= 1
        assert all(k.has_face([v]) for v in k.vertices())
    assert "rp2" in names and "cycle:5" in names and "two_squares" in names


def _edge_mask(m, edges):
    pairs = graph_edge_pairs(m)
    position = {p: i for i, p in enumerate(pairs)}
    out = 0
    for e in edges:
        out |= 1 << position[tuple(sorted(e))]
    return out


def test_clique_complexes():
    square = _edge_mask(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
    assert clique_complex(4, square) == cycle(4)
    triangle = _edge_mask(3, [(1, 2), (2, 3), (1, 3)])
    assert clique_complex(3, triangle) == simplex(3)
    assert clique_complex(3, 0) == disjoint_points(3)
    chain = _edge_mask(3, [(1, 2), (2, 3)])
    assert tuple(clique_complex(3, chain).maximal_faces) == (3, 6)


def test_graph_chordality_matches_the_complex_predicate():
    for m in range(1, 5):
        for g in range(1 << len(graph_edge_pairs(m))):
            assert graph_is_chordal(m, g) == clique_complex(m, g).is_chordal_skeleton()[0]


def test_graph_isomorphism_class_counts():
    # numbers of graphs on m unlabeled vertices
    expected = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34}
    for m, count in expected.items():
        classes = graph_isomorphism_classes(m)
        assert len(classes) == count
        assert sum(size for _, size in classes) == 1 << len(graph_edge_pairs(m))


def test_labeled_chordal_graph_counts():
    # numbers of chordal graphs on m labeled vertices
    expected = {1: 1, 2: 2, 3: 8, 4: 61, 5: 822}
    for m, count in expected.items():
        total = sum(graph_is_chordal(m, g)
                    for g in range(1 << len(graph_edge_pairs(m))))
        assert total == count


def test_attachment_reachability():
    memo = {}
    assert is_attachment_reachable(simplex(4), memo)
    assert is_attachment_reachable(disjoint_points(5), memo)
    assert is_attachment_reachable(attach_simplex(simplex(2), [1], 2), memo)
    assert not is_attachment_reachable(cycle(4), memo)
    assert not is_attachment_reachable(cycle(5), memo)
    assert not is_attachment_reachable(boundary_simplex(4), memo)
    assert not is_attachment_reachable(two_triangles(), memo)
    assert not is_attachment_reachable(square_edge(), memo)
    assert not is_attachment_reachable(rp2_minimal(), memo)
    for seed in range(6):
        assert is_attachment_reachable(iterated_attachment(seed), memo)
