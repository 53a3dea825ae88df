import json
import random
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    glue,
    graph_from_json_reference,
    laplacian_minor_by_copy,
    load_fixture,
    prune_tails_quadratic,
    random_connected_graph,
    sparse_rows,
    UnionFind,
)
from segtower.forests import forest_count_det, kappa
from segtower.graph import (
    Edge,
    GraphError,
    Multigraph,
    RamificationData,
    acyclic_subsets,
    build_graph,
    check_marks,
    graph_from_json,
    graph_to_json,
    laplacian,
    laplacian_rows,
    prune_tails,
)
from segtower.cover import CoverGraph
from segtower.iwasawa import CharElement, InvariantTriple, Verdict
from segtower.linalg import LaurentPoly, det_int, det_laurent
from segtower.seal import AdmissiblePath, Segment, SegmentDecomposition, decompose


def test_edge_is_an_immutable_value():
    e = Edge("e0", "a", "b")
    assert e == Edge("e0", "a", "b") and hash(e) == hash(Edge("e0", "a", "b"))
    assert e != Edge("e0", "b", "a") and len({e, Edge("e0", "a", "b"), Edge("e1", "a", "b")}) == 2
    with pytest.raises(AttributeError):
        e.u = "c"
    assert (e.other("a"), e.other("b"), e.is_loop, Edge("e1", "a", "a").is_loop) == ("b", "a", False, True)
    with pytest.raises(GraphError, match="'c' is not an endpoint of edge 'e0'"):
        e.other("c")


_PATH_GRAPH = build_graph(["a", "x", "b"], [("a", "x", "e0"), ("x", "b", "e1")])
_SEGMENT = (0, 2, ("a", "b"), frozenset({"e0", "e1"}), frozenset({"a", "x", "b"}))
_RECORDS = [
    (CharElement, (1, (1, 2), LaurentPoly({0: 1, 1: 2}), 3)),
    (InvariantTriple, (0, 1, None)),
    (Verdict, (True, 5, [5], {"level": 1})),
    (AdmissiblePath, (("a", "x", "b"), ("e0", "e1"))),
    (Segment, (*_SEGMENT, False)),
    (SegmentDecomposition, (_PATH_GRAPH, (Segment(*_SEGMENT),), ("a", "b"))),
    (CoverGraph, (_PATH_GRAPH, _PATH_GRAPH, RamificationData.totally_ramified(["a"]), {"e0": "e0"}, 1)),
]


@pytest.mark.parametrize("cls, fields", _RECORDS, ids=[cls.__name__ for cls, _ in _RECORDS])
def test_record_is_an_immutable_value(cls, fields):
    """Each record of the package compares by its fields, refuses a new
    value for one and shows its class in its repr, as a frozen dataclass did."""
    x = cls(*fields)
    assert x == cls(*fields)
    with pytest.raises(AttributeError):
        setattr(x, x._fields[0], fields[0])
    assert repr(x).startswith(cls.__name__ + "(")


def test_segment_is_hashable_and_no_loop_by_default():
    s = Segment(*_SEGMENT)
    assert not s.is_loop and hash(s) == hash(Segment(*_SEGMENT, False)) and len({s, Segment(*_SEGMENT, True)}) == 2


def test_acyclic_subsets():
    # a triangle a-b-c, a loop at a and a second a-b edge: a loop closes a
    # cycle at once and the parallel pair closes a 2-cycle
    pairs = [("a", "b"), ("b", "c"), ("a", "c"), ("a", "a"), ("a", "b")]
    assert list(acyclic_subsets(pairs, 2)) == [(0, 1), (0, 2), (1, 2), (1, 4), (2, 4)]
    assert list(acyclic_subsets(pairs, 0)) == [()]
    assert list(acyclic_subsets(pairs, 3)) == []


class TestBuildGraph:
    def test_cycle(self):
        g = build_graph(["v1", "v2", "v3", "v4", "v5"], [(f"v{i}", f"v{i % 5 + 1}") for i in range(1, 6)])
        assert len(g.edges) == 5
        assert all(g.degree(v) == 2 for v in g.vertices)

    def test_single_vertex(self):
        g = build_graph(["v"], [])
        assert g.connected()

    def test_parallel_edges(self):
        g = build_graph(["a", "b"], [("a", "b"), ("a", "b")])
        assert len(g.edges) == 2
        assert [e.other("a") for e in g.incident_edges("a")] == ["b", "b"]

    def test_loop_degree(self):
        g = build_graph(["a"], [("a", "a")])
        assert g.degree("a") == 2
        assert {e.other("a") for e in g.incident_edges("a")} == {"a"}

    def test_errors(self):
        with pytest.raises(GraphError, match="^duplicate vertex id$"):
            build_graph(["a", "a"], [])
        with pytest.raises(GraphError, match="^edge 'e0' has unknown endpoint$"):
            build_graph(["a"], [("a", "b")])
        with pytest.raises(GraphError, match="^duplicate edge id 'e'$"):
            build_graph(["a", "b"], [("a", "b", "e"), ("a", "b", "e")])
        with pytest.raises(GraphError, match="^duplicate edge id 'e'$"):
            Multigraph(["a", "b"], [Edge("e", "a", "b"), Edge("e", "b", "a")])
        with pytest.raises(GraphError, match="^duplicate edge id 'f'$"):  # the first id seen twice
            Multigraph(["a", "b"], [Edge("e", "a", "b"), Edge("f", "a", "b"), Edge("f", "b", "a"), Edge("e", "b", "a")])
        hashable = "^vertex ids and edge endpoints must be hashable$"
        with pytest.raises(GraphError, match=hashable):
            Multigraph([["a"]], [])
        with pytest.raises(GraphError, match=hashable):
            Multigraph(["a"], [Edge("e0", "a", ["a"])])

    @pytest.mark.parametrize(
        "vertices, edges, message",
        [
            # every end is hashed before the duplicate vertex is reported
            (["a", "a"], [Edge("e0", "a", ["a"])], "vertex ids and edge endpoints must be hashable"),
            (["a", "a"], [Edge("e0", "a", "z")], "duplicate vertex id"),
            (["a", "a"], [Edge("e", "a", "a"), Edge("e", "a", "a")], "duplicate vertex id"),
            pytest.param(
                ["a"], [Edge("e", "a", "z"), Edge("e", "a", "a")], "duplicate edge id 'e'", id="vertices3-edges3-duplicate edge id"
            ),
            # an unknown u hides v, even an unhashable one; later edges are still hashed
            (["a"], [Edge("e0", "z", ["a"])], "edge 'e0' has unknown endpoint"),
            (["a"], [Edge("e0", "z", "a"), Edge("e1", "a", ["a"])], "vertex ids and edge endpoints must be hashable"),
            (["a"], [Edge("e0", "a", "a"), Edge("e1", "a", "y"), Edge("e2", "z", "a")], "edge 'e1' has unknown endpoint"),
        ],
    )
    def test_which_error_wins(self, vertices, edges, message):
        with pytest.raises(GraphError) as exc:
            Multigraph(vertices, edges)
        assert str(exc.value) == message

    def test_json_unknown_from_hides_an_unhashable_to(self):
        with pytest.raises(GraphError, match="^edge 'e0' has unknown endpoint$"):
            graph_from_json({"vertices": ["a"], "edges": [{"from": "z", "to": ["a"]}]})


class TestLaplacian:
    def test_cycle5(self):
        g = build_graph(["v1", "v2", "v3", "v4", "v5"], [(f"v{i}", f"v{i % 5 + 1}") for i in range(1, 6)])
        m = laplacian(g)
        assert m[0] == {0: 2, 1: -1, 4: -1}
        assert all(m[i][i] == 2 and len(m[i]) == 3 for i in range(5))

    def test_loop_cancels(self):
        # the zero diagonal entry is left out
        g = build_graph(["a"], [("a", "a")])
        assert laplacian(g) == [{}]

    def test_fill_from_pairs_of_rows(self):
        # -1 leaves an end out, a pair whose ends coincide adds nothing, and
        # a row lists its diagonal first, then its columns in edge order
        rows = laplacian_rows(4, [(2, 0), (-1, 1), (3, 3), (0, 1), (-1, -1), (1, 0)])
        assert rows == [{0: 3, 2: -1, 1: -2}, {1: 3, 0: -2}, {2: 1, 0: -1}, {}]
        assert [list(row) for row in rows] == [[0, 2, 1], [1, 0], [2, 0], []]
        assert laplacian_rows(0, []) == []

    def test_triangle_minor(self):
        g = build_graph(["a", "b", "c"], [("a", "b"), ("b", "c"), ("c", "a")])
        assert laplacian(g, ["a"]) == [{0: 2, 1: -1}, {0: -1, 1: 2}]
        assert det_int(laplacian(g, ["a"])) == 3

    def test_row_sums_and_symmetry(self, rng):
        for _ in range(20):
            g = random_connected_graph(rng)
            m = laplacian(g)
            for i, row in enumerate(m):
                assert sum(row.values()) == 0
                assert all(x and m[j][i] == x for j, x in row.items())


@st.composite
def multigraphs_with_deleted(draw):
    """A multigraph with loops and parallel edges, and 0-3 distinct vertices in any order."""
    vertices = draw(st.lists(st.integers(0, 9) | st.sampled_from("abc"), min_size=1, max_size=6, unique_by=str))
    ends = st.sampled_from(vertices)
    edges = draw(st.lists(st.tuples(ends, ends), max_size=12))
    deleted = draw(st.lists(ends, max_size=min(3, len(vertices)), unique=True))
    return build_graph(vertices, edges), deleted


class TestLaplacianMinor:
    @given(multigraphs_with_deleted())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_copied_minor(self, case):
        g, deleted = case
        assert laplacian(g, deleted) == sparse_rows(laplacian_minor_by_copy(g, set(deleted)))

    @given(multigraphs_with_deleted())
    @settings(max_examples=100, deadline=None)
    def test_every_vertex_deleted(self, case):
        g, _ = case
        assert laplacian(g, g.vertices) == []

    @given(multigraphs_with_deleted())
    @settings(max_examples=100, deadline=None)
    def test_forest_count_ignores_the_order_of_marks(self, case):
        g, _ = case
        for a, b in zip(g.vertices, g.vertices[1:]):
            assert forest_count_det(g, [b, a]) == forest_count_det(g, [a, b])

    @given(multigraphs_with_deleted(), st.integers(-3, 3))
    @settings(max_examples=200, deadline=None)
    def test_one_builder_for_both_entry_kinds(self, case, a):
        # with a nonzero voltage the builder makes the same rows with
        # LaurentPoly entries, whose values at g = 1 are the integer rows'
        # nonzero entries; with none (voltage 0, or no edge) it makes the
        # integer rows themselves; both determinants take what it builds
        g, deleted = case
        ints = laplacian(g, deleted)
        laurent = laplacian(g, deleted, {e.id: a for e in g.edges})
        assert laplacian(g, deleted, {}) == ints and all(type(x) is int for row in ints for x in row.values())
        if a and g.edges:
            assert all(type(x) is LaurentPoly for row in laurent for x in row.values())
            assert [{j: v for j, x in row.items() if (v := sum(x.coeffs.values()))} for row in laurent] == ints
        else:
            assert laurent == ints and all(type(x) is int for row in laurent for x in row.values())
        assert det_laurent(laplacian(g, deleted, {})) == det_int(ints) >= 0
        det_laurent(laurent)

    @given(multigraphs_with_deleted())
    @settings(max_examples=100, deadline=None)
    def test_no_voltage_builds_int_rows(self, case):
        # an empty voltage map, or one whose every value is 0, builds the
        # rows of voltage None: int entries, no LaurentPoly
        g, deleted = case
        ints = laplacian(g, deleted)
        for voltage in ({}, {e.id: 0 for e in g.edges}, {e.id: 0 for e in g.edges[:1]}):
            rows = laplacian(g, deleted, voltage)
            assert rows == ints and all(type(x) is int for row in rows for x in row.values())


class TestPruneTails:
    def test_star_collapses(self):
        g = build_graph(["c", "l1", "l2", "l3"], [("c", "l1"), ("c", "l2"), ("c", "l3")])
        r = RamificationData.totally_ramified(["c"])
        pruned = prune_tails(g, r)
        assert pruned.vertices == ("c",)
        assert pruned.edges == ()

    def test_cycle_unchanged(self):
        g = build_graph(["a", "b", "c"], [("a", "b"), ("b", "c"), ("c", "a")])
        pruned = prune_tails(g, RamificationData())
        assert pruned.vertices == g.vertices and pruned.edges == g.edges

    def test_no_tail_returns_the_graph_itself(self):
        g = build_graph(["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("c", "a"), ("a", "d"), ("d", "d")])
        assert prune_tails(g, RamificationData()) is g
        g = build_graph(["a", "d"], [("a", "d")])
        assert prune_tails(g, RamificationData.totally_ramified(["a", "d"])) is g

    def test_ramified_endpoint_kept(self):
        g = build_graph(["v1", "v2", "v3"], [("v1", "v2"), ("v2", "v3")])
        r = RamificationData.totally_ramified(["v1", "v3"])
        assert prune_tails(g, r).vertices == g.vertices

    def test_parallel_tail_not_pruned(self):
        g = build_graph(["a", "b"], [("a", "b"), ("a", "b")])
        assert prune_tails(g, RamificationData()).edges == g.edges

    def test_idempotent_and_kappa_preserved(self, rng):
        for _ in range(50):
            g = random_connected_graph(rng, max_vertices=6, max_edges=9)
            # attach random tails
            vertices = list(g.vertices)
            edges = [(e.u, e.v, e.id) for e in g.edges]
            for i in range(rng.randint(1, 3)):
                anchor = rng.choice(vertices)
                tail = f"tail{i}"
                vertices.append(tail)
                edges.append((anchor, tail, f"tailedge{i}"))
            gt = build_graph(vertices, edges)
            r = RamificationData.totally_ramified([g.vertices[0]])
            pruned = prune_tails(gt, r)
            assert kappa(pruned) == kappa(gt)
            again = prune_tails(pruned, r)
            assert again.vertices == pruned.vertices and again.edges == pruned.edges

    def test_isolated_edge_keeps_the_later_vertex(self):
        g = build_graph(["b", "a", "c"], [("a", "b"), ("c", "c")])
        pruned = prune_tails(g, RamificationData())
        assert pruned.vertices == ("a", "c") and [e.id for e in pruned.edges] == ["e1"]

    @given(st.integers(0, 2**32), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_matches_quadratic_oracle(self, seed, long_tails):
        # a random multigraph, possibly disconnected, with pendant trees hung
        # on it and a free-standing tree, vertices shuffled so that tree
        # vertices interleave with the rest; with long_tails also the seal
        # workload's shape: pendant paths of up to 30 vertices, hung on its
        # marks (drawn first) and on unmarked vertices
        rng = random.Random(seed)
        g = random_connected_graph(rng, max_vertices=6, max_edges=9)
        vertices = list(g.vertices)
        edges = [(e.u, e.v, e.id) for e in g.edges]
        if long_tails:
            marks = rng.sample(vertices, rng.randint(1, 2))
            unmarked = [v for v in vertices if v not in marks] or marks
            for i in range(rng.randint(1, 4)):
                path = [rng.choice(marks if i % 2 else unmarked)] + [f"p{i}_{j}" for j in range(rng.randint(1, 30))]
                edges += [(u, v, f"pe{i}_{j}") for j, (u, v) in enumerate(zip(path, path[1:]))]
                vertices += path[1:]
        for i in range(rng.randint(0, 12)):
            new = f"t{i}"
            edges.append((rng.choice(vertices), new, f"te{i}"))
            vertices.append(new)
        for i in range(rng.randint(0, 4)):
            new = f"f{i}"
            if i:
                edges.append((f"f{rng.randrange(i)}", new, f"fe{i}"))
            vertices.append(new)
        rng.shuffle(vertices)
        rng.shuffle(edges)
        gt = build_graph(vertices, edges)
        if not long_tails:
            marks = rng.sample(vertices, rng.randint(0, min(3, len(vertices))))
        r = RamificationData.totally_ramified(marks)
        pruned, expected = prune_tails(gt, r), prune_tails_quadratic(gt, r)
        # the oracle keeps a tree without marks at the last vertex in vertex
        # order, prune_tails at the end of its last walk: such a component
        # keeps one vertex and no edge, and all else is the oracle's
        component = UnionFind()
        for _, u, v in gt.edges:
            component.union(u, v)
        excess = {}  # vertices less edges: 1 for a tree
        for v in gt.vertices:
            excess[component.find(v)] = excess.get(component.find(v), 0) + 1
        for _, u, _ in gt.edges:
            excess[component.find(u)] -= 1
        trees = {c for c, x in excess.items() if x == 1} - {component.find(m) for m in marks}
        outside = lambda h: [v for v in h.vertices if component.find(v) not in trees]
        assert pruned.edges == expected.edges and outside(pruned) == outside(expected)
        kept = [component.find(v) for v in pruned.vertices if component.find(v) in trees]
        assert sorted(kept) == sorted(trees)
        assert not any(component.find(u) in trees for _, u, _ in pruned.edges)

    def test_star_without_marks_keeps_where_the_last_walk_ends(self):
        # x-a, x-b, x-c in vertex order [a, b, c, x]: the walk from a leaves
        # x two edges, the walk from b goes on through x and ends at c, where
        # prune_tails_quadratic's rule (the first deletable vertex each time)
        # keeps x
        g = build_graph(["a", "b", "c", "x"], [("x", "a"), ("x", "b"), ("x", "c")])
        pruned = prune_tails(g, RamificationData())
        assert pruned.vertices == ("c",) and pruned.edges == ()

    @given(st.integers(0, 2**32), st.sampled_from(["connected", "with a free tree", "a tree"]), st.integers(0, 2))
    @settings(max_examples=150, deadline=None)
    def test_kappa_and_forest_counts_preserved(self, seed, shape, t):
        """What pruning owes every reply: κ and F_t of the result are the
        input's, for t = 1 or 2 marks (t = 0: κ alone, with no mark), on
        graphs with pendant trees, a tree without marks beside them, or a
        tree alone, vertices shuffled."""
        rng = random.Random(seed)
        vertices, edges = [], []
        if shape != "a tree":
            g = random_connected_graph(rng, max_vertices=6, max_edges=9)
            vertices, edges = list(g.vertices), [(e.u, e.v, e.id) for e in g.edges]
            for i in range(rng.randint(1, 8)):
                edges.append((rng.choice(vertices), f"p{i}", f"pe{i}"))
                vertices.append(f"p{i}")
        if shape != "connected":
            for i in range(rng.randint(1, 8)):
                if i:
                    edges.append((f"f{rng.randrange(i)}", f"f{i}", f"fe{i}"))
                vertices.append(f"f{i}")
        rng.shuffle(vertices)
        gt = build_graph(vertices, edges)
        marks = rng.sample(vertices, min(t, len(vertices)))
        pruned = prune_tails(gt, RamificationData.totally_ramified(marks))
        assert kappa(pruned) == kappa(gt)
        if marks:
            assert forest_count_det(pruned, marks) == forest_count_det(gt, marks)

    def test_long_tail_is_linear(self):
        n = 20_000
        vertices = ["root"] + [f"p{i}" for i in range(n)]
        edges = [("root", "root", "loop"), ("root", "p0", "e0")]
        edges += [(f"p{i}", f"p{i + 1}", f"e{i + 1}") for i in range(n - 1)]
        g = build_graph(vertices, edges)
        t0 = time.process_time()
        pruned = prune_tails(g, RamificationData())
        assert time.process_time() - t0 < 2.0
        assert pruned.vertices == ("root",) and [e.id for e in pruned.edges] == ["loop"]


class TestGlue:
    def test_one_vertex_gluing_kappa(self):
        g1, r1, _ = load_fixture("glue_kappa_l1.json")
        g2, r2, _ = load_fixture("glue_kappa_l2.json")
        glued, rr = glue(g1, r1, g2, r2, [("v1", "w1")])
        assert len(glued.vertices) == 5
        assert kappa(glued) == 8
        assert len(rr.depths) == 1

    def test_two_vertex_gluing(self):
        g1, r1, _ = load_fixture("glue_two_l1.json")
        g2, r2, _ = load_fixture("glue_two_l2.json")
        glued, rr = glue(g1, r1, g2, r2, [("v1", "w1"), ("v2", "w2")])
        assert len(glued.vertices) == len(g1.vertices) + len(g2.vertices) - 2
        assert len(rr.depths) == 2

    def test_identity_gluing(self):
        g1, r1, _ = load_fixture("glue_kappa_l1.json")
        point = Multigraph(["z"], [])
        rp = RamificationData.totally_ramified(["z"])
        glued, _ = glue(g1, r1, point, rp, [("v1", "z")])
        assert set(glued.vertices) == set(g1.vertices)
        assert kappa(glued) == kappa(g1)

    def test_name_collisions_resolved(self):
        g1 = build_graph(["a", "b"], [("a", "b", "e0")])
        g2 = build_graph(["a", "b"], [("a", "b", "e0")])
        r = RamificationData.totally_ramified(["a"])
        glued, _ = glue(g1, r, g2, r, [("a", "a")])
        assert glued.vertices == ("a", "b", "b'")
        assert glued.edges == (Edge("e0", "a", "b"), Edge("e0'", "a", "b'"))

    def test_errors(self):
        g1, r1, _ = load_fixture("glue_kappa_l1.json")
        g2, r2, _ = load_fixture("glue_kappa_l2.json")
        with pytest.raises(GraphError):
            glue(g1, r1, g2, r2, [])
        with pytest.raises(GraphError):
            glue(g1, r1, g2, r2, [("v2", "w1")])  # v2 unramified
        with pytest.raises(GraphError):
            glue(g1, r1, g2, r2, [("nope", "w1")])


# ids of every JSON type, some printing alike ("1", 1, True, None and "None"; "e1" and the default e1)
JSON_IDS = st.sampled_from([None, 0, 1, 2, True, False, 1.0, "0", "1", "e0", "e1", "e2", "None", "a", [1], {"k": 1}])


@st.composite
def messy_graph_json(draw):
    """Graph JSON with ids of every type, voltages 0, false, 0.0, null, "x"
    and big ints, edges that are not objects or lack from/to, unknown
    endpoints and marks listed twice.  Each oddity is drawn for one item in
    a few, so that many graphs are read whole."""
    rng = draw(st.randoms(use_true_random=True))  # the rates: Hypothesis favours the ends of a range

    def pick(clean, messy, rate):
        return draw(messy if rng.random() < rate else clean)

    vertices = [pick(st.just(v), JSON_IDS, 0.1) for v in draw(st.lists(st.sampled_from("abcdef"), max_size=6, unique=True))]
    if rng.random() < 0.1:
        vertices += draw(st.sampled_from([[1, "1"], [None, "None"], ["0", 0]]))  # alike as strings
    ends = st.sampled_from(vertices) if vertices else JSON_IDS
    edges = []
    for _ in range(draw(st.integers(0, 7))):
        if rng.random() < 0.05:  # not an object
            edges.append(draw(st.sampled_from([None, 3, "ab", ["a", "b"]])))
            continue
        e = {}
        if rng.random() < 0.5:
            e["id"] = pick(st.sampled_from(["e0", "e1", "e2", "x", None]), JSON_IDS, 0.4)
        for end in ("from", "to"):
            if rng.random() > 0.05:
                e[end] = pick(ends, JSON_IDS, 0.05)
        if rng.random() < 0.5:
            e["voltage"] = pick(st.sampled_from([0, 1, -2, 2**70, -(2**64)]), st.sampled_from([False, True, 0.0, None, "x", 1.5]), 0.2)
        edges.append(e)
    obj = {"vertices": vertices, "edges": edges}
    marks = []
    for _ in range(draw(st.integers(0, 3))):
        if rng.random() < 0.05:
            marks.append(draw(st.sampled_from([None, "a", {"depth": 1}])))
            continue
        m = {"vertex": pick(ends, JSON_IDS, 0.05)}
        if rng.random() < 0.5:
            m["depth"] = pick(st.sampled_from([0, 1, 2]), st.sampled_from([-1, True, 1.0, None]), 0.2)
        marks.append(m)
    if marks and rng.random() < 0.15:
        marks.append(marks[0])  # listed twice
    if marks or rng.random() < 0.5:
        obj["ramified"] = marks
    return obj


class TestJson:
    def test_round_trip(self):
        g, r, volt = load_fixture("voltage_segment.json")
        obj = graph_to_json(g, r, volt)
        g2, r2, volt2 = graph_from_json(obj)
        assert g2.vertices == g.vertices
        assert [e.id for e in g2.edges] == [e.id for e in g.edges]
        assert r2 == r
        assert volt2 == volt

    def test_defaults(self):
        g, r, volt = graph_from_json({"vertices": ["a", "b"], "edges": [{"from": "a", "to": "b"}]})
        assert [e.id for e in g.edges] == ["e0"]
        assert volt == {}
        assert r.depths == {}

    def test_malformed(self):
        with pytest.raises(GraphError):
            graph_from_json({"vertices": ["a"]})
        with pytest.raises(GraphError):
            graph_from_json({"vertices": ["a"], "edges": [{"from": "a"}]})
        with pytest.raises(GraphError):
            graph_from_json([1, 2, 3])

    def test_each_mark_listed_once(self):
        edge = [{"from": "a", "to": "b"}]
        with pytest.raises(GraphError, match="ramified vertex 'a' is listed twice"):
            graph_from_json({"vertices": ["a", "b"], "edges": edge, "ramified": [{"vertex": "a"}, {"vertex": "a", "depth": 2}]})

    @given(messy_graph_json())
    @example({"vertices": ["a", "b"], "edges": [{"id": None, "from": "a", "to": "b"}]})
    @settings(max_examples=400, deadline=None)
    def test_matches_the_reference_reader(self, obj):
        # the same graph, marks and voltage, or the same GraphError text
        def read(reader):
            try:
                g, r, voltage = reader(obj)
            except GraphError as exc:
                return str(exc)
            return repr((g.vertices, g.edges, r.depths, voltage))  # repr: 1, 1.0 and True differ

        assert read(graph_from_json) == read(graph_from_json_reference)

    def test_ids_distinct_as_strings(self):
        # every reply prints vertex ids as strings, so 1 and "1" would be ambiguous
        with pytest.raises(GraphError, match="must differ as strings"):
            graph_from_json({"vertices": [1, "1"], "edges": []})
        g, _, _ = graph_from_json({"vertices": [1, 2], "edges": [{"from": 1, "to": 2}]})
        assert g.vertices == (1, 2)


def test_marks_must_be_vertices():
    g, r, _ = load_fixture("cycle5_ram45.json")
    check_marks(g, r)
    stray = RamificationData({**r.depths, "zz": 0})
    with pytest.raises(GraphError, match="ramified vertex 'zz' is not a vertex of the graph"):
        check_marks(g, stray)
    with pytest.raises(GraphError, match="'zz'"):
        prune_tails(g, stray)
    with pytest.raises(GraphError, match="'zz'"):
        decompose(g, stray)
