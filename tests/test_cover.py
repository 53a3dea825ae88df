import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import explicit_cover_laplacian, load_fixture, segment_subgraph
from segtower.cover import (build_cover, check_prime, check_request, cover_laplacian, fibre_size, level_size,
                            segment_preimage)
from segtower.forests import forest_count_det, kappa
from segtower.graph import GraphError, RamificationData, build_graph
from segtower.seal import decompose


def fiber_sizes(c):
    sizes = {}
    for v in c.graph.vertices:
        sizes[v[0]] = sizes.get(v[0], 0) + 1
    return sizes


class TestBuildCover:
    def test_figure_cover(self):
        g, r, volt = load_fixture("cycle5_ram45.json")
        c = build_cover(g, r, volt, 3, 1)
        assert len(c.graph.vertices) == 11
        assert len(c.graph.edges) == 15
        sizes = fiber_sizes(c)
        assert sizes == {"v1": 3, "v2": 3, "v3": 3, "v4": 1, "v5": 1}
        assert c.graph.connected()

    def test_level_zero_is_base(self):
        g, r, volt = load_fixture("three_segment.json")
        c = build_cover(g, r, volt, 3, 0)
        assert len(c.graph.vertices) == len(g.vertices)
        assert len(c.graph.edges) == len(g.edges)
        assert kappa(c.graph) == kappa(g)

    def test_fiber_counts_with_depths(self):
        g, r, volt = load_fixture("cycle5_partial.json")  # depths v4:1, v5:0
        for n in (0, 1, 2):
            c = build_cover(g, r, volt, 2, n)
            sizes = fiber_sizes(c)
            assert sizes["v5"] == 1
            assert sizes["v4"] == 2 ** min(n, 1)
            assert sizes["v1"] == 2**n
            assert len(c.graph.edges) == 2**n * len(g.edges)
            assert sizes == {v: fibre_size(r, 2, n, v) for v in g.vertices}
            assert level_size(g, r, 2, n) == len(c.graph.vertices)

    def test_voltage_cover_adjacency(self):
        # level-1 cover of the doubled-edge path: 8 vertices, marked minor det 320
        g, r, volt = load_fixture("voltage_segment.json")
        c = build_cover(g, r, volt, 3, 1)
        assert len(c.graph.vertices) == 8
        assert len(c.graph.edges) == 12
        marked = [v for v in c.graph.vertices if v[0] in ("v1", "v4")]
        assert forest_count_det(c.graph, marked) == 320

    def test_deck_action_is_automorphism(self):
        g, r, volt = load_fixture("voltage_segment.json")
        p, n = 3, 1
        c = build_cover(g, r, volt, p, n)
        mods = {v: sum(cv[0] == v for cv in c.graph.vertices) for v in g.vertices}

        def shift(cv):
            base, t = cv
            return (base, (t + 1) % mods[base])

        # the shifted edge multiset must coincide with the original
        original = sorted(
            (str(min(str(e.u), str(e.v))), str(max(str(e.u), str(e.v)))) for e in c.graph.edges
        )
        shifted = sorted(
            (str(min(str(shift(e.u)), str(shift(e.v)))), str(max(str(shift(e.u)), str(shift(e.v)))))
            for e in c.graph.edges
        )
        assert original == shifted

    def test_connected_for_trivial_voltage_total_ramification(self):
        g, r, volt = load_fixture("cycle5_ram245.json")
        for p, n in [(2, 1), (2, 2), (3, 1)]:
            assert build_cover(g, r, volt, p, n).graph.connected()

    def test_residual_depths(self):
        g, r, _ = load_fixture("cycle5_partial.json")
        c = build_cover(g, r, {}, 2, 1)
        assert all(k == 0 for k in c.ram.depths.values())
        c0 = build_cover(g, r, {}, 2, 0)
        assert c0.ram.depths[("v4", 0)] == 1

    def test_bad_level(self):
        g, r, _ = load_fixture("cycle5_ram45.json")
        with pytest.raises(GraphError):
            build_cover(g, r, {}, 2, -1)

    def test_stray_mark_rejected(self):
        g, r, _ = load_fixture("cycle5_ram45.json")
        with pytest.raises(GraphError, match="'zz' is not a vertex"):
            build_cover(g, RamificationData({**r.depths, "zz": 0}), {}, 2, 1)

    def test_size_refused_before_building(self):
        g, r, _ = load_fixture("cycle5_ram45.json")
        # level 7 has 386 vertices and 640 edges; level 8 has 770 and 1280
        assert len(build_cover(g, r, {}, 2, 7).graph.vertices) == 386
        with pytest.raises(GraphError, match="level-8 cover would have at least 770 vertices and 1280 edges, past 2"):
            build_cover(g, r, {}, 2, 8)
        # a level whose p^n alone could not be formed is refused as quickly
        with pytest.raises(GraphError, match="level-1000000000 cover"):
            build_cover(g, r, {}, 101, 10**9)
        # with no edge and every vertex marked the size stops growing
        one = build_graph(["a"], [])
        c = build_cover(one, RamificationData({"a": 2}), {}, 3, 10**9)
        assert c.graph.vertices == (("a", 0), ("a", 1), ("a", 2), ("a", 3), ("a", 4), ("a", 5), ("a", 6), ("a", 7), ("a", 8))


@st.composite
def voltage_multigraphs(draw):
    """(g, r, voltage, p, n): 1-5 vertices, 0-16 edges drawn as vertex pairs
    (loops and parallel edges included), marks of depth 0-2 on a subset,
    voltages -3..3, p in 2, 3, 5 and n <= 3: some covers pass SIZE_LIMIT."""
    vs = [f"v{i}" for i in range(draw(st.integers(1, 5)))]
    edges = draw(st.lists(st.tuples(st.sampled_from(vs), st.sampled_from(vs)), max_size=16))
    g = build_graph(vs, edges)
    r = RamificationData(draw(st.dictionaries(st.sampled_from(vs), st.integers(0, 2))))
    voltage = {e.id: draw(st.integers(-3, 3)) for e in g.edges}
    return g, r, voltage, draw(st.sampled_from((2, 3, 5))), draw(st.integers(0, 3))


def replies(f, *args):
    """f(*args), or the message of the GraphError it raised."""
    try:
        return f(*args)
    except GraphError as exc:
        return str(exc)


class TestCoverLaplacian:
    """cover_laplacian, filled from the lifts of X's edges, against the
    Laplacian of the explicit cover without its first vertex."""

    @given(voltage_multigraphs())
    @settings(max_examples=300, deadline=None)
    def test_equals_the_explicit_cover(self, x):
        assert replies(cover_laplacian, *x) == replies(explicit_cover_laplacian, *x)

    def test_same_refusal(self):
        # build_cover's fibre sizes and its SIZE_LIMIT refusal, message and all
        g, r, _ = load_fixture("cycle5_ram45.json")
        assert cover_laplacian(g, r, {}, 2, 7) == explicit_cover_laplacian(g, r, {}, 2, 7)
        for n in (8, 10**9):
            with pytest.raises(GraphError) as want:
                build_cover(g, r, {}, 2, n)
            with pytest.raises(GraphError, match=f"^{re.escape(str(want.value))}$"):
                cover_laplacian(g, r, {}, 2, n)

    def test_coinciding_lift_adds_nothing(self):
        # a loop of voltage 3 at p = 3 lifts to three loops; a mark's loop to one
        g = build_graph(["m", "x"], [("m", "x", "e0"), ("x", "x", "e1"), ("m", "m", "e2")])
        r = RamificationData({"m": 0})
        assert cover_laplacian(g, r, {"e1": 3, "e2": 1}, 3, 1) == [{0: 1}, {1: 1}, {2: 1}]
        assert cover_laplacian(g, r, {"e1": 1}, 3, 1)[0] == {0: 3, 1: -1, 2: -1}


class TestCheckPrime:
    @pytest.mark.parametrize("p", [0, 1, 4, 561, 3215031751, -7])
    def test_composites_rejected(self, p):
        # 561 is a Carmichael number; 3215031751 is a strong pseudoprime to
        # the bases 2, 3, 5 and 7
        with pytest.raises(GraphError, match=f"p must be a prime, got {p}"):
            check_prime(p)

    def test_large_primes_accepted(self):
        # a prime near 2^62, where trial division would take minutes
        check_prime(2**62 - 57)
        check_prime(2**61 - 1)

    def test_bound_named(self):
        check_prime(3 * 10**23 - 13, "--p")  # the largest prime below the bound
        with pytest.raises(GraphError, match=r"--p must be below 3 \* 10\^23"):
            check_prime(3 * 10**23 + 37, "--p")  # the least prime above it


class TestCheckRequest:
    @pytest.mark.parametrize("check", [check_request, lambda g, r, v, p: build_cover(g, r, v, p, 1)],
                             ids=["check_request", "build_cover"])
    def test_p_then_marks_then_voltage(self, check):
        g = build_graph(["a", "b"], [("a", "b", "e0")])
        good, stray, bad = RamificationData.totally_ramified(["a"]), RamificationData.totally_ramified(["z"]), {"e0": 1.5}
        for r, voltage, p, message in [
            (stray, bad, 4, "p must be a prime, got 4"),
            (stray, bad, 3, "ramified vertex 'z' is not a vertex of the graph"),
            (good, bad, 3, "voltage of edge 'e0' must be an integer, got 1.5"),
        ]:
            with pytest.raises(GraphError, match=f"^{re.escape(message)}$"):
                check(g, r, voltage, p)
        check(g, good, {"e0": 1}, 3)
        check(g, good, None, 3)


class TestSegmentPreimage:
    def test_level_zero_identity(self):
        g, r, _ = load_fixture("cycle5_ram45.json")
        d = decompose(g, r)
        c = build_cover(g, r, {}, 3, 0)
        for s in d.segments:
            sub, marks = segment_preimage(c, s)
            assert len(sub.edges) == len(s.edge_ids)
            assert len(marks.depths) == s.t

    def test_two_glued_copies_at_p2(self):
        # 2-segment with totally ramified endpoints, trivial voltage, p=2, n=1:
        # two edge-disjoint copies sharing exactly the two ramified vertices
        g, r, _ = load_fixture("cycle5_ram45.json")
        d = decompose(g, r)
        long_seg = max(d.segments, key=lambda s: len(s.edge_ids))
        c = build_cover(g, r, {}, 2, 1)
        sub, marks = segment_preimage(c, long_seg)
        assert len(sub.edges) == 2 * len(long_seg.edge_ids)
        assert len(marks.depths) == 2
        unram = [v for v in sub.vertices if v not in marks.depths]
        assert len(unram) == 2 * (len(long_seg.vertices) - 2)
        # forest count multiplies across the two copies
        base_sub = segment_subgraph(g, long_seg)
        base_f = forest_count_det(base_sub, list(long_seg.ramified))
        assert forest_count_det(sub, list(marks.depths)) == base_f**2

    def test_motivating_long_segment_cover(self):
        g, r, _ = load_fixture("cycle5_ram45.json")
        d = decompose(g, r)
        long_seg = max(d.segments, key=lambda s: len(s.edge_ids))
        c = build_cover(g, r, {}, 3, 1)
        sub, marks = segment_preimage(c, long_seg)
        # 9 interior vertices (three fibers of size 3) plus the two ramified ones
        assert len(sub.vertices) == 11
        assert len(sub.vertices) - len(marks.depths) == 9
        assert len(sub.edges) == 12

    def test_foreign_segment_rejected(self):
        g, r, _ = load_fixture("cycle5_ram45.json")
        g2, r2, _ = load_fixture("three_segment.json")
        d2 = decompose(g2, r2)
        c = build_cover(g, r, {}, 2, 1)
        with pytest.raises(GraphError):
            segment_preimage(c, max(d2.segments, key=lambda s: len(s.edge_ids)))
