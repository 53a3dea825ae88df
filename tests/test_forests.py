import math
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import enumerate_spanning_trees, forest_count_by_roots, glue, grid_graph, kappa_enumerate, load_fixture, random_connected_graph
from segtower.forests import forest_count_bruteforce, forest_count_det, kappa
from segtower.graph import GraphError, Multigraph, RamificationData, build_graph


class TestKappa:
    def test_cycle5(self):
        g, _, _ = load_fixture("cycle5_ram45.json")
        assert kappa(g) == 5
        assert kappa_enumerate(g) == 5

    def test_complete_k4(self):
        from segtower.families import complete_graph

        g, _ = complete_graph(4)
        assert kappa(g) == 16

    def test_triangle(self):
        g = build_graph(["a", "b", "c"], [("a", "b"), ("b", "c"), ("c", "a")])
        assert kappa(g) == 3
        assert kappa_enumerate(g) == 3

    def test_loops_ignored(self):
        g = build_graph(["a", "b"], [("a", "b"), ("a", "a")])
        assert kappa(g) == 1

    def test_disconnected_gives_zero(self):
        g = build_graph(["a", "b", "c"], [("a", "b")])
        assert kappa(g) == 0

    def test_single_vertex(self):
        g = build_graph(["a"], [])
        assert kappa(g) == 1

    def test_counts_are_ints(self):
        g, _, _ = load_fixture("cycle5_ram45.json")
        v = g.vertices[0]
        assert type(kappa(g)) is type(forest_count_det(g, [v])) is type(forest_count_bruteforce(g, [v])) is int

    def test_against_enumeration(self, rng):
        for _ in range(60):
            g = random_connected_graph(rng, max_vertices=6, max_edges=10)
            assert kappa(g) == kappa_enumerate(g)

    def test_shuffled_grid_within_budget(self):
        # a 20 x 20 grid in shuffled vertex order: the 399 x 399 minor has
        # little fill only after reordering.  Measured on a 2-core x86 host:
        # 0.3 s in the minimum-degree order, 0.4 s in a reverse Cuthill-McKee
        # order (the kernel this one replaced), 5 s in the shuffled order
        grid, _ = grid_graph(20, 20)
        g = Multigraph(random.Random(5).sample(grid.vertices, len(grid.vertices)), grid.edges)
        t0 = time.process_time()
        value = kappa(g)
        assert time.process_time() - t0 < 4.0
        # matrix-tree over the product of two paths: the nonzero Laplacian
        # eigenvalues are (2 - 2 cos(pi i / 20)) + (2 - 2 cos(pi j / 20))
        path = [2 - 2 * math.cos(math.pi * i / 20) for i in range(20)]
        log_kappa = sum(math.log(a + b) for a in path for b in path if a + b > 0) - math.log(400)
        assert math.isclose(math.log(value), log_kappa, rel_tol=1e-12)


class TestForestCounts:
    def test_four_path_endpoints(self):
        g = build_graph(["a", "b", "c", "d", "e"], [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e")])
        assert forest_count_det(g, ["a", "e"]) == 4

    def test_triangle_two_marked(self):
        g = build_graph(["a", "b", "c"], [("a", "b"), ("b", "c"), ("c", "a")])
        assert forest_count_det(g, ["a", "b"]) == 2
        assert forest_count_bruteforce(g, ["a", "b"]) == 2

    def test_empty_minor_convention(self):
        g = build_graph(["a", "b"], [("a", "b")])
        assert forest_count_det(g, ["a", "b"]) == 1
        assert forest_count_bruteforce(g, ["a", "b"]) == 1
        # extra parallel edges between two marked vertices change nothing
        g2 = build_graph(["a", "b"], [("a", "b"), ("a", "b"), ("a", "b")])
        assert forest_count_det(g2, ["a", "b"]) == 1
        assert forest_count_bruteforce(g2, ["a", "b"]) == 1

    def test_f1_equals_kappa(self, rng):
        for _ in range(20):
            g = random_connected_graph(rng, max_vertices=6, max_edges=9)
            v = g.vertices[0]
            assert forest_count_det(g, [v]) == kappa(g)
            assert forest_count_bruteforce(g, [v]) == kappa(g)

    def test_det_nonnegative(self, rng):
        for _ in range(30):
            g = random_connected_graph(rng)
            marked = list(g.vertices[:2])
            assert forest_count_det(g, marked) >= 0

    def test_glued_examples(self):
        g1, r1, _ = load_fixture("glue_kappa_l1.json")
        l2, rl2, _ = load_fixture("glue_forest_l2.json")
        glued, rr = glue(g1, r1, l2, rl2, [("v1", "w2")])
        marked = list(rr.depths)
        assert forest_count_det(glued, marked) == 18
        assert forest_count_bruteforce(glued, marked) == 18

    def test_errors(self):
        g = build_graph(["a", "b", "c"], [("a", "b"), ("b", "c"), ("c", "a")])
        for count in (forest_count_det, forest_count_bruteforce):  # one check of the marks
            with pytest.raises(GraphError):
                count(g, [])
            with pytest.raises(GraphError):
                count(g, ["a", "a"])
            with pytest.raises(GraphError):
                count(g, ["nope"])
            with pytest.raises(GraphError):
                count(g, ["a", "b", "c"])


@st.composite
def marked_small_multigraphs(draw):
    """A multigraph on 1-6 vertices with at most 10 edges, loops and parallel
    edges allowed, and t = 1 or 2 distinct marks."""
    vs = [f"v{i}" for i in range(draw(st.integers(1, 6)))]
    g = build_graph(vs, draw(st.lists(st.tuples(st.sampled_from(vs), st.sampled_from(vs)), max_size=10)))
    t = draw(st.integers(1, min(2, len(vs))))
    return g, draw(st.lists(st.sampled_from(vs), min_size=t, max_size=t, unique=True))


@given(marked_small_multigraphs())
@settings(max_examples=300, deadline=None)
def test_bruteforce_matches_det_and_root_filter(case):
    """Spanning trees with the marks merged count the forests that the root
    filter keeps, and the determinant agrees."""
    g, marked = case
    assert forest_count_bruteforce(g, marked) == forest_count_det(g, marked) == forest_count_by_roots(g, marked)


class TestEnumeration:
    def test_cycle_trees(self):
        g, _, _ = load_fixture("cycle5_ram45.json")
        trees = enumerate_spanning_trees(g)
        assert len(trees) == 5
        all_edges = {e.id for e in g.edges}
        assert {next(iter(all_edges - t)) for t in trees} == all_edges

    def test_parallel_edges(self):
        g = build_graph(["a", "b"], [("a", "b", "p"), ("a", "b", "q")])
        assert sorted(enumerate_spanning_trees(g)) in ([frozenset({"p"}), frozenset({"q"})],
                                                       [frozenset({"q"}), frozenset({"p"})])

    def test_k4_count(self):
        from segtower.families import complete_graph

        g, _ = complete_graph(4)
        assert len(enumerate_spanning_trees(g)) == 16

    def test_cap(self):
        from segtower.families import complete_graph

        g, _ = complete_graph(7)  # 21 edges
        with pytest.raises(GraphError, match="21 edges exceeds enumeration cap 20"):
            kappa_enumerate(g)
        with pytest.raises(GraphError, match="21 edges exceeds enumeration cap 20"):
            forest_count_bruteforce(g, ["v1", "v2"])


class TestGluingMultiplicativity:
    def test_random_gluings(self, rng):
        # F_t(glue) = F_{t1}(L1) * F_{t2}(L2) for random pieces and g in {1,2}
        done = 0
        while done < 30:
            g1 = random_connected_graph(rng, max_vertices=4, max_edges=6)
            g2 = random_connected_graph(rng, max_vertices=4, max_edges=6)
            gl = rng.choice([1, 2])
            t1 = rng.choice([gl, 2] if gl == 1 else [2])
            t2 = rng.choice([gl, 2] if gl == 1 else [2])
            if t1 > len(g1.vertices) or t2 > len(g2.vertices):
                continue
            m1 = rng.sample(list(g1.vertices), t1)
            m2 = rng.sample(list(g2.vertices), t2)
            r1 = RamificationData.totally_ramified(m1)
            r2 = RamificationData.totally_ramified(m2)
            try:
                glued, rr = glue(g1, r1, g2, r2, list(zip(m1[:gl], m2[:gl])))
            except GraphError:
                continue
            if len(rr.depths) > 2:
                continue
            lhs = forest_count_det(glued, list(rr.depths))
            rhs = forest_count_det(g1, m1) * forest_count_det(g2, m2)
            assert lhs == rhs
            done += 1
