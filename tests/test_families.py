import pytest

from segtower.families import (
    chorded_cycle_f2,
    chorded_cycle_graph,
    complete_f2,
    complete_graph,
    f2_closed_form,
    line_f2,
    line_graph,
    make_family,
    modified_line_f2,
    modified_line_graph,
)
from segtower.forests import forest_count_bruteforce, forest_count_det, kappa
from segtower.graph import GraphError


class TestLine:
    def test_simple_path(self):
        g, r = line_graph([1, 1, 1, 1])
        assert len(g.vertices) == 5 and len(g.edges) == 4
        assert set(r.depths) == {"v1", "v5"}
        assert line_f2([1, 1, 1, 1]) == 4

    def test_multiplicities(self):
        assert line_f2([2, 3]) == 5
        g, r = line_graph([2, 3])
        assert forest_count_det(g, list(r.depths)) == 5

    def test_single_block(self):
        # one block of 4 parallel edges between the marked endpoints: only
        # the empty forest separates them
        assert line_f2([4]) == 1
        g, r = line_graph([4])
        assert forest_count_bruteforce(g, list(r.depths)) == 1

    def test_invalid(self):
        with pytest.raises(GraphError, match="line multiplicities must be positive integers"):
            line_f2([])
        with pytest.raises(GraphError, match="line multiplicities must be positive integers"):
            line_graph([0, 2])


class TestModifiedLine:
    def test_example(self):
        g, r = modified_line_graph(6, 2, 4)
        assert len(g.edges) == 6
        assert modified_line_f2(6, 2, 4) == forest_count_det(g, list(r.depths))

    def test_chord_to_endpoint(self):
        assert modified_line_f2(6, 2, 6) == (6 - 6 + 2) * (6 - 2 + 1) - 1

    def test_invalid(self):
        with pytest.raises(GraphError, match="modified line needs 2 <= n <= k-2"):
            modified_line_graph(5, 1, 3)
        with pytest.raises(GraphError, match="modified line needs 2 <= n <= k-2"):
            modified_line_f2(6, 2, 3)


class TestChordedCycle:
    def test_parallel_edge_case(self):
        g, r = chorded_cycle_graph(5, 2, 1, 2)
        assert len(g.edges) == 6
        assert sum(e.other("v1") == "v2" for e in g.incident_edges("v1")) == 2
        assert chorded_cycle_f2(5, 2, 1, 2) == 4  # n - 1

    def test_short_side_adjacent(self):
        assert chorded_cycle_f2(7, 4, 2, 3) == (2 * 4 - 3) * (7 - 4 + 1)

    def test_marked_to_marked_chord(self):
        assert chorded_cycle_f2(6, 3, 1, 3) == (3 - 1) * (6 - 3 + 1)

    def test_invalid(self):
        with pytest.raises(GraphError, match=r"chorded cycle needs 2 <= t <= ceil\(n/2\)"):
            chorded_cycle_graph(5, 4, 1, 2)  # t beyond ceil(n/2)
        with pytest.raises(GraphError, match="chord endpoints need 1 <= i < j <= n"):
            chorded_cycle_f2(5, 2, 3, 3)


class TestComplete:
    def test_k3(self):
        assert complete_f2(3) == 2

    def test_k4(self):
        g, r = complete_graph(4)
        assert kappa(g) == 16
        assert complete_f2(4) == forest_count_det(g, list(r.depths))

    def test_invalid(self):
        with pytest.raises(GraphError, match="complete graph needs n >= 2"):
            complete_graph(1)


class TestDispatch:
    def test_make_family(self):
        g, r = make_family("line", multiplicities=[2, 2])
        assert f2_closed_form("line", multiplicities=[2, 2]) == 4 * 1  # 4*(1/2+1/2)
        g, r = make_family("complete", n=5)
        assert len(g.edges) == 10

    def test_unknown_variant(self):
        with pytest.raises(GraphError, match="unknown family variant 'moebius'"):
            make_family("moebius", n=5)

    def test_wrong_parameter_name(self):
        with pytest.raises(GraphError, match="unexpected keyword argument 'm'"):
            make_family("complete", m=5)
        with pytest.raises(GraphError, match="missing"):
            f2_closed_form("chorded_cycle", n=5)

    @pytest.mark.parametrize(
        "variant, params, name",
        [
            ("complete", {"n": 3.7}, "n"),
            ("complete", {"n": True}, "n"),
            ("modified_line", {"k": 6, "n": 2, "m": "4"}, "m"),
            ("chorded_cycle", {"n": 5, "t": 2, "i": 1, "j": 2.0}, "j"),
        ],
    )
    def test_parameters_are_not_coerced(self, variant, params, name):
        # int(3.7) would build K(3) and answer its count
        for call in (make_family, f2_closed_form):
            with pytest.raises(GraphError, match=f"^{name} must be an integer"):
                call(variant, **params)

    @pytest.mark.parametrize("ns", ["12", (1, 2.0), [True, 2], 3])
    def test_multiplicities_are_not_coerced(self, ns):
        # "12" would be read as [1, 2]
        for call in (make_family, f2_closed_form):
            with pytest.raises(GraphError, match="line multiplicities must be positive integers"):
                call("line", multiplicities=ns)

    def test_size_refused_before_building(self):
        # K(64) has 64 + 2016 vertices and edges, past 2^11; K(63) has 2016
        assert len(complete_graph(63)[0].edges) == 1953
        for build, args in [(complete_graph, (64,)), (complete_graph, (100_000,)), (line_graph, ([10**9],)),
                            (modified_line_graph, (10**9, 2, 4)), (chorded_cycle_graph, (10**9, 2, 1, 2))]:
            with pytest.raises(GraphError, match="past 2"):
                build(*args)


class TestConsistency:
    def test_line_spot_checks(self):
        for mult in [[1], [3], [1, 2], [2, 2, 2], [1, 1, 4], [5, 1]]:
            g, r = line_graph(mult)
            marked = list(r.depths)
            f = line_f2(mult)
            assert forest_count_det(g, marked) == f
            assert forest_count_bruteforce(g, marked) == f

    def test_chorded_spot_checks(self):
        for spec in [(5, 3, 2, 4), (6, 3, 2, 6), (7, 4, 2, 7), (8, 4, 3, 6), (9, 5, 6, 7)]:
            g, r = chorded_cycle_graph(*spec)
            marked = list(r.depths)
            f = chorded_cycle_f2(*spec)
            assert forest_count_det(g, marked) == f, spec
            assert forest_count_bruteforce(g, marked) == f, spec

    def test_lemma_matches_degenerate_proposition(self):
        # setting j = i + 1 in the two-endpoint-side formula recovers the
        # adjacent-chord formula where both apply
        for n in range(4, 9):
            for t in range(3, -(-n // 2) + 1):
                for i in range(2, t - 1):
                    j = i + 1
                    adjacent = (2 * t - 3) * (n - t + 1)
                    general = (n - t + 1) * ((t - j + i) * (j - i + 1) - 1)
                    assert adjacent == general
