import contextlib
import io
import json
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    admissible_sets_by_trees,
    all_fixture_names,
    closure_groups_by_edge_ids,
    enumerate_spanning_trees,
    grid_graph,
    load_fixture,
    path_decompose,
    random_connected_graph,
    segment_subgraph,
)
from segtower.cli import run
from segtower.forests import kappa
from segtower.graph import RamificationData, build_graph, graph_to_json, prune_tails
from segtower.seal import (
    DecompositionError,
    PathCapExceeded,
    _closure_groups,
    admissible_paths,
    admissible_sets,
    decompose,
)


class TestAdmissiblePaths:
    def test_cycle_single_route(self):
        g, _, _ = load_fixture("cycle5_ram245.json")
        r = RamificationData.totally_ramified(["v2", "v4", "v5"])
        paths = admissible_paths(g, r, "v2", "v5")
        assert len(paths) == 1
        assert set(paths[0].edge_ids) == {"c1", "c5"}

    def test_parallel_edge_cycle_to_self(self):
        # two parallel edges v1-v2 plus edge v2-v3, ramified v1 and v3:
        # the 2-cycle through both parallel edges is an admissible v1-v1 path
        g = build_graph(["v1", "v2", "v3"], [("v1", "v2", "p1"), ("v1", "v2", "p2"), ("v2", "v3", "q")])
        r = RamificationData.totally_ramified(["v1", "v3"])
        loops = admissible_paths(g, r, "v1", "v1")
        assert len(loops) == 1
        assert set(loops[0].edge_ids) == {"p1", "p2"}

    def test_k5_pair_count(self):
        g, r, _ = load_fixture("k5_ram245.json")
        paths = admissible_paths(g, r, "v2", "v4")
        # direct edge, two one-stop routes, two two-stop routes through v1, v3
        assert len(paths) == 5
        lengths = sorted(len(p.edge_ids) for p in paths)
        assert lengths == [1, 2, 2, 3, 3]

    def test_reported_once_up_to_reversal(self):
        g, r, _ = load_fixture("cycle5_ram45.json")
        paths = admissible_paths(g, r, "v4", "v5")
        assert len(paths) == 2  # direct edge and the long way round

    def test_cap(self):
        g, r, _ = load_fixture("k5_ram245.json")
        with pytest.raises(PathCapExceeded):
            admissible_paths(g, r, "v2", "v4", cap=2)


class TestDecompose:
    def test_cycle5_three_segments(self):
        g, r, _ = load_fixture("cycle5_ram245.json")
        d = decompose(g, r)
        assert d.k == 3
        assert all(s.t == 2 for s in d.segments)
        assert d.l == 3

    def test_motivating_two_segments(self):
        g, r, _ = load_fixture("cycle5_ram45.json")
        d = decompose(g, r)
        assert d.k == d.k_prime == 2
        sizes = sorted(len(s.edge_ids) for s in d.segments)
        assert sizes == [1, 4]

    def test_pendant_triangle_one_segment(self):
        g, r, _ = load_fixture("doubled_cycle_pendant_triangle.json")
        d = decompose(g, r)
        assert d.k_prime == 3
        assert len(d.segments[d.k_prime :]) == 1
        one = d.segments[d.k_prime]
        assert one.ramified == ("v5",)
        assert one.edge_ids == frozenset({"e56", "e67", "e57"})

    def test_chorded_variant_extra_singleton(self):
        # adding the direct chord v2-v4 produces a fourth 2-segment
        g, r, _ = load_fixture("chorded_cycle_pendant_triangle.json")
        d = decompose(g, r)
        assert d.k_prime == 4
        assert len(d.segments[d.k_prime :]) == 1
        singletons = [s for s in d.two_segments if s.edge_ids == frozenset({"e24"})]
        assert len(singletons) == 1

    def test_k5_conflict_witness(self):
        g, r, _ = load_fixture("k5_ram245.json")
        with pytest.raises(DecompositionError) as exc:
            decompose(g, r)
        assert "edge" in exc.value.witness
        assert len(exc.value.witness["pairs"]) == 2

    def test_loop_at_ramified_vertex(self):
        g = build_graph(["a", "b"], [("a", "b", "e"), ("a", "a", "loop")])
        r = RamificationData.totally_ramified(["a", "b"])
        d = decompose(g, r)
        loops = [s for s in d.segments[d.k_prime :] if s.is_loop]
        assert len(loops) == 1
        assert loops[0].edge_ids == frozenset({"loop"})

    def test_edge_partition(self):
        for name in ["cycle5_ram45.json", "doubled_cycle_pendant_triangle.json", "three_segment.json"]:
            g, r, _ = load_fixture(name)
            d = decompose(g, r)
            covered = set()
            for s in d.segments:
                assert not (covered & s.edge_ids)
                covered |= s.edge_ids
            assert covered == {e.id for e in g.edges}

    def test_one_ramified_always_decomposes(self, rng):
        # a connected graph with a single ramified vertex is one big
        # 1-segment plus flagged loop segments
        from segtower.graph import prune_tails

        done = 0
        while done < 20:
            g = random_connected_graph(rng, max_vertices=6, max_edges=10)
            v = rng.choice(list(g.vertices))
            r = RamificationData.totally_ramified([v])
            g2 = prune_tails(g, r)
            if len(g2.edges) == 0:
                continue
            d = decompose(g2, r)
            assert d.l == 1 and len(d.two_segments) == 0
            assert all(s.t == 1 for s in d.segments)
            done += 1

    def test_random_two_terminal_graphs_decompose(self, rng):
        # random unions of internally disjoint paths between two ramified
        # vertices: every edge lies on an admissible path, so decomposition
        # always succeeds with a single ramified pair
        done = 0
        while done < 20:
            n_paths = rng.randint(1, 4)
            vertices = ["a", "z"]
            edges = []
            for pi in range(n_paths):
                length = rng.randint(1, 3)
                prev = "a"
                for step in range(length - 1):
                    w = f"m{pi}_{step}"
                    vertices.append(w)
                    edges.append((prev, w))
                    prev = w
                edges.append((prev, "z"))
            g = build_graph(vertices, edges)
            r = RamificationData.totally_ramified(["a", "z"])
            d = decompose(g, r)
            assert d.l == 2 and d.k >= 1
            assert set().union(*(s.edge_ids for s in d.segments)) == {e.id for e in g.edges}
            done += 1

    def test_cycle_hanging_off_a_two_class(self):
        # the triangle a-b-c meets the v-w path only at a, so it lies on no
        # admissible path; both edge orders make the DFS close its block at a
        for order in ([("b", "c"), ("a", "b"), ("c", "a")], [("c", "a"), ("a", "b"), ("b", "c")]):
            g = build_graph(["v", "a", "w", "b", "c"], [("v", "a"), ("a", "w")] + order)
            r = RamificationData.totally_ramified(["v", "w"])
            with pytest.raises(DecompositionError) as exc:
                decompose(g, r)
            assert exc.value.witness == {"edges": ["e2", "e3", "e4"], "ramified": []}

    def test_uncoloured_triangle_at_a_two_class(self):
        # a-x-b carries the a-b paths; the triangle x-y-z hangs off x
        g = build_graph(["a", "x", "b", "y", "z"], [("a", "x"), ("x", "b"), ("x", "y"), ("y", "z"), ("z", "x"), ("a", "b")])
        r = RamificationData.totally_ramified(["a", "b"])
        with pytest.raises(DecompositionError) as exc:
            decompose(g, r)
        assert exc.value.reason == "uncoloured edge group touches 0 ramified vertices"
        assert exc.value.witness == {"edges": ["e2", "e3", "e4"], "ramified": []}
        code, reply = seal_reply(g, r)
        assert code == 2 and reply["witness"] == exc.value.witness

    @pytest.mark.parametrize("first", ["p", "q"])
    def test_first_uncoloured_group_is_the_witness(self, first):
        # triangles at p and at q on the v-p-q-w path, sharing no vertex: the
        # triangle that owns the first uncoloured edge is the witness
        path = [("v", "p", "vp"), ("p", "q", "pq"), ("q", "w", "qw")]
        tri = {x: [(x, f"{x}1", f"{x}a"), (f"{x}1", f"{x}2", f"{x}b"), (f"{x}2", x, f"{x}c")] for x in "pq"}
        other = "q" if first == "p" else "p"
        edges = [tri[first][0], tri[other][0]] + path + tri[other][1:] + tri[first][1:]
        g = build_graph(["v", "p", "q", "w", "p1", "p2", "q1", "q2"], edges)
        with pytest.raises(DecompositionError) as exc:
            decompose(g, RamificationData.totally_ramified(["v", "w"]))
        assert exc.value.witness == {"edges": [f"{first}a", f"{first}b", f"{first}c"], "ramified": []}

    def test_disconnected_rejected(self):
        g = build_graph(["a", "b"], [])
        with pytest.raises(DecompositionError):
            decompose(g, RamificationData.totally_ramified(["a"]))

    @pytest.mark.parametrize("anchor", ["m", "a"])
    def test_tails_pruned(self, anchor):
        # the path a-m-b marked at a and b, with a pendant vertex at m (an
        # uncoloured edge if kept) or at a (a 1-segment if kept)
        g = build_graph(["a", "m", "b", "t"], [("a", "m"), ("m", "b"), (anchor, "t")])
        r = RamificationData.totally_ramified(["a", "b"])
        d = decompose(g, r)
        assert [(s.t, s.edge_ids) for s in d.segments] == [(2, {"e0", "e1"})]
        pruned = prune_tails(g, r)
        assert d.segments == decompose(pruned, r).segments
        assert (d.graph.vertices, d.graph.edges) == (pruned.vertices, pruned.edges)


def seal_reply(g, r):
    """Exit code and JSON reply of `segtower seal` on (g, r) through stdin."""
    stdin, sys.stdin = sys.stdin, io.StringIO(json.dumps(graph_to_json(g, r)))
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = run(["seal"])
    finally:
        sys.stdin = stdin
    return code, json.loads(out.getvalue())


@given(st.randoms(use_true_random=False), st.integers(1, 3), st.integers(0, 3))
@settings(max_examples=200, deadline=None)
def test_library_and_cli_agree_with_tails(rnd, marks, tails):
    """decompose and `segtower seal` give the same segments, or the same
    reason for having none, on random graphs with pendant paths."""
    g = random_connected_graph(rnd, max_vertices=7, max_edges=10)
    vertices, edges = list(g.vertices), [(e.u, e.v, e.id) for e in g.edges]
    for i in range(tails):
        anchor = rnd.choice(vertices)
        for j in range(rnd.randint(1, 2)):
            vertices.append(f"t{i}_{j}")
            edges.append((anchor, vertices[-1], f"te{i}_{j}"))
            anchor = vertices[-1]
    g = build_graph(vertices, edges)
    r = RamificationData.totally_ramified(rnd.sample(list(g.vertices), min(marks, len(g.vertices))))
    code, reply = seal_reply(g, r)
    try:
        d = decompose(g, r)
    except DecompositionError as exc:
        assert code == 2 and reply["reason"] == exc.reason
        return
    assert code == 0
    got = [(s["t"], s["endpoints"], s["edges"]) for s in reply["segments"]]
    assert got == [(s.t, [str(v) for v in s.ramified], sorted(s.edge_ids)) for s in d.segments]


@st.composite
def marked_multigraphs(draw):
    """Tail-free multigraphs on 2-8 vertices with loops, parallel edges and
    1-5 ramified vertices; a random spanning tree keeps them connected."""
    nv = draw(st.integers(2, 8))
    vs = [f"v{i}" for i in range(nv)]
    edges = [(vs[draw(st.integers(0, i - 1))], vs[i]) for i in range(1, nv)]
    extra = draw(st.lists(st.tuples(st.sampled_from(vs), st.sampled_from(vs)), max_size=8))
    ram = draw(st.lists(st.sampled_from(vs), min_size=1, max_size=5, unique=True))
    g = build_graph(vs, draw(st.permutations(edges + extra)))  # edge order steers the DFS
    r = RamificationData.totally_ramified(ram)
    g2 = prune_tails(g, r)
    return g2, r


@st.composite
def marked_edge_subsets(draw):
    """A multigraph on 1-8 vertices with loops and parallel edges, 0-5 marks
    and a random subset of its edges in edge order.  Vertices may be named
    like edges (e0, e1, ...)."""
    prefix = draw(st.sampled_from("ve"))
    vs = [f"{prefix}{i}" for i in range(draw(st.integers(1, 8)))]
    g = build_graph(vs, draw(st.lists(st.tuples(st.sampled_from(vs), st.sampled_from(vs)), max_size=14)))
    r = RamificationData.totally_ramified(draw(st.lists(st.sampled_from(vs), max_size=5, unique=True)))
    keep = draw(st.lists(st.booleans(), min_size=len(g.edges), max_size=len(g.edges)))
    return g, r, [e for e, k in zip(g.edges, keep) if k]


@given(marked_edge_subsets())
@settings(max_examples=400, deadline=None)
def test_closure_groups_match_the_union_find(case):
    """seal's labelling gives the union-find's groups, in the same order,
    each in edge order, with the ids, marks and vertices of its edges."""
    g, r, edges = case
    groups = _closure_groups(edges, r)
    assert [ids for _, ids, _, _ in groups] == closure_groups_by_edge_ids(g, r, [e.id for e in edges])
    for group, ids, touched, vertices in groups:
        assert ids == [e.id for e in group]
        assert vertices == {w for e in group for w in (e.u, e.v)}
        assert touched == {w for w in vertices if r.is_ramified(w)}


class TestAgainstPaths:
    """decompose against path_decompose, the formulation over listed paths."""

    @given(marked_multigraphs())
    @settings(max_examples=400, deadline=None)
    def test_same_segments_or_reason(self, graph):
        g, r = graph
        try:
            want = path_decompose(g, r)
        except DecompositionError as exc:
            with pytest.raises(DecompositionError) as got:
                decompose(g, r)
            assert got.value.reason == exc.reason
            witness = got.value.witness
            if "pairs" in witness:
                (a, b), (a2, c) = witness["pairs"]
                assert a == a2 and len({a, b, c}) == 3
                for pair in witness["pairs"]:
                    assert any(witness["edge"] in p.edge_ids for p in admissible_paths(g, r, *pair))
            return
        d = decompose(g, r)
        assert d.segments == want.segments and d.ramified == want.ramified

    def test_fixtures(self):
        for name in all_fixture_names():
            g, r, _ = load_fixture(name)
            g = prune_tails(g, r)
            try:
                want = path_decompose(g, r)
            except DecompositionError as exc:
                with pytest.raises(DecompositionError, match=exc.reason):
                    decompose(g, r)
                continue
            assert decompose(g, r).segments == want.segments, name


class TestGrids:
    def test_6x6_one_segment(self):
        g, r = grid_graph(6, 6)
        with pytest.raises(PathCapExceeded):
            path_decompose(g, r)
        d = decompose(g, r)
        assert d.k == d.k_prime == 1 and d.segments[0].edge_ids == {e.id for e in g.edges}

    def test_30x30_one_segment(self):
        g, r = grid_graph(30, 30)
        d = decompose(g, r)
        assert d.k == d.k_prime == 1 and len(d.segments[0].edge_ids) == 1740


class TestLemmaCount:
    def test_spanning_tree_segment_count(self):
        # every spanning tree restricts to a spanning tree on exactly l-1
        # of the 2-segments
        for name in [
            "cycle5_ram45.json",
            "cycle5_ram245.json",
            "three_segment.json",
            "doubled_cycle_pendant_triangle.json",
            "chorded_cycle_pendant_triangle.json",
        ]:
            g, r, _ = load_fixture(name)
            d = decompose(g, r)
            seg_trees = []
            for s in d.two_segments:
                sub = segment_subgraph(g, s)
                seg_trees.append(set(enumerate_spanning_trees(sub)))
            for tree in enumerate_spanning_trees(g):
                hits = 0
                for s, trees in zip(d.two_segments, seg_trees):
                    if frozenset(tree & s.edge_ids) in trees:
                        hits += 1
                assert hits == d.l - 1, name


@st.composite
def segment_graphs(draw):
    """A decomposable graph on 2-5 marks whose 2-segments follow a random
    multigraph G_R on the marks, parallel segments included: each is a
    direct edge, a path through one unramified vertex, or two parallel
    edges from such a vertex.  Some marks carry a 2-cycle as a 1-segment."""
    marks = [f"m{i}" for i in range(draw(st.integers(2, 5)))]
    pairs = [(draw(st.sampled_from(marks[:i])), m) for i, m in enumerate(marks) if i]  # G_R connected
    pairs += draw(st.lists(st.lists(st.sampled_from(marks), min_size=2, max_size=2, unique=True), max_size=6))
    vs, edges = list(marks), []
    for i, ((a, b), shape) in enumerate(zip(pairs, draw(st.lists(st.integers(0, 2), min_size=len(pairs), max_size=len(pairs))))):
        if shape == 0:
            edges.append((a, b))
        else:
            vs.append(f"x{i}")
            edges += [(a, f"x{i}"), (f"x{i}", b)] + [(f"x{i}", b)] * (shape == 2)
    for m in draw(st.lists(st.sampled_from(marks), unique=True)):
        vs.append(f"y{m}")
        edges += [(m, f"y{m}"), (f"y{m}", m)]
    return build_graph(vs, draw(st.permutations(edges))), RamificationData.totally_ramified(marks)


@given(segment_graphs())
@settings(max_examples=200, deadline=None)
def test_admissible_sets_are_the_spanning_trees_of_g_r(case):
    d = decompose(*case)
    got = admissible_sets(d)
    assert len(set(got)) == len(got) and set(got) == admissible_sets_by_trees(d)


class TestAdmissibleSets:
    def test_motivating(self):
        g, r, _ = load_fixture("cycle5_ram45.json")
        d = decompose(g, r)
        assert sorted(sorted(I) for I in admissible_sets(d)) == [[0], [1]]

    def test_single_segment(self):
        g, r, _ = load_fixture("voltage_segment.json")
        d = decompose(g, r)
        assert admissible_sets(d) == [frozenset({0})]

    def test_triangle_of_segments(self):
        g, r, _ = load_fixture("cycle5_ram245.json")
        d = decompose(g, r)
        assert sorted(sorted(I) for I in admissible_sets(d)) == [[0, 1], [0, 2], [1, 2]]

    def test_matches_bruteforce_definition(self):
        # I is admissible iff some spanning tree restricts to a spanning tree
        # of S^i exactly for i in I
        for name in ["cycle5_ram45.json", "cycle5_ram245.json", "doubled_cycle_pendant_triangle.json"]:
            g, r, _ = load_fixture(name)
            d = decompose(g, r)
            expected = set()
            seg_trees = [set(enumerate_spanning_trees(segment_subgraph(g, s))) for s in d.two_segments]
            for tree in enumerate_spanning_trees(g):
                hit = frozenset(
                    i for i, (s, trees) in enumerate(zip(d.two_segments, seg_trees))
                    if frozenset(tree & s.edge_ids) in trees
                )
                expected.add(hit)
            assert set(admissible_sets(d)) == expected, name
