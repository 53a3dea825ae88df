import json
import math
import random
import re
import time
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    bareiss_det_laurent,
    dense,
    empirical_fit,
    explicit_forest_counts,
    explicit_tower_kappas,
    grid_graph,
    load_fixture,
    parallel_voltage_json,
    preimage_segment_counts,
    run_limited,
    segment_forest_counts,
    segment_subgraph,
    taylor_shift_oracle,
)
from segtower import forests, iwasawa, linalg
from segtower.cover import build_cover, check_request, cover_laplacian, segment_preimage
from segtower.forests import forest_count_det, kappa
from segtower.graph import GraphError, RamificationData, build_graph, graph_from_json, laplacian, prune_tails
from segtower.iwasawa import (
    CharElement,
    DisconnectedCover,
    InvariantTriple,
    TowerError,
    char_element,
    fit_orders,
    symbolic_invariants,
    tower_kappas,
    tower_report,
    verify_char_factorization,
    verify_general_case,
    verify_partial_ramification,
    verify_theorem_A,
)
from segtower.linalg import LaurentPoly, LinalgError, WorkLimitExceeded, det_int, det_laurent, expand_at_gamma, mu_lambda, ord_p
from segtower.seal import DecompositionError, decompose


class TestBuildMatrices:
    """graph.laplacian with a voltage: M = D - A on the unramified vertices, in vertex order."""

    def test_glued_triangles_display(self):
        # the two triangles meet only in ramified vertices, so M is diagonal
        g, r, volt = load_fixture("glued_voltage_triangles.json")
        assert laplacian(g, r.depths, volt) == [{0: LaurentPoly({0: 3})}, {1: LaurentPoly({0: 3})}]

    def test_unramified_block_is_m(self):
        # sparse rows: the zero entries at [0][2] and [2][0] are left out
        g, r, _ = load_fixture("cycle5_ram45.json")
        assert laplacian(g, r.depths, {}) == [
            {0: LaurentPoly({0: 2}), 1: LaurentPoly({0: -1})},
            {0: LaurentPoly({0: -1}), 1: LaurentPoly({0: 2}), 2: LaurentPoly({0: -1})},
            {1: LaurentPoly({0: -1}), 2: LaurentPoly({0: 2})},
        ]

    def test_voltage_entries(self):
        # voltage a on a dart u -> w puts -g^a at [w][u]; a loop of voltage a
        # takes g^a + g^-a off its diagonal entry, which counts it twice
        g = build_graph(["u", "w", "b"], [("u", "w", "e"), ("w", "u", "f"), ("u", "u", "l"), ("w", "b", "h")])
        r = RamificationData.totally_ramified(["b"])
        assert laplacian(g, r.depths, {"e": 2, "l": 1, "h": 5}) == [
            {0: LaurentPoly({0: 4, 1: -1, -1: -1}), 1: LaurentPoly({-2: -1, 0: -1})},
            {0: LaurentPoly({2: -1, 0: -1}), 1: LaurentPoly({0: 3})},
        ]

    def test_zero_diagonal_left_out(self):
        # a vertex whose only edge is a loop of voltage 0 has a zero row
        g = build_graph(["u", "b"], [("u", "u", "l"), ("b", "b", "k")])
        assert laplacian(g, ["b"], {}) == [{}]
        assert laplacian(g, ["b"], {"l": 3}) == [{0: LaurentPoly({0: 2, 3: -1, -3: -1})}]

    def test_single_unramified_vertex(self):
        g, r, volt = load_fixture("voltage_triangle_a.json")
        assert laplacian(g, r.depths, volt) == [{0: LaurentPoly({0: 3})}]

    def test_no_unramified_vertex_gives_empty_block(self):
        # every vertex ramified: M is empty and det M = 1, so the symbolic
        # half of a report is defined too
        g = build_graph(["a", "b"], [("a", "b")])
        r = RamificationData.totally_ramified(["a", "b"])
        assert laplacian(g, r.depths, {}) == []
        assert char_element(g, r, {}, 2).det_gamma == LaurentPoly({0: 1})


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_every_block_is_one_det_laurent_takes(data):
    # multigraphs with loops, parallel edges and isolated vertices, any marks
    # of depth 0-2 and voltages -6..6: the block of every mark set that
    # char_element or a tower level uses is mirrored, its rows' 2 c_0 less
    # their norm counts their edges to marks, and det_laurent takes it as far
    # as its one assignment
    vs = [f"v{i}" for i in range(data.draw(st.integers(1, 7)))]
    ends = st.sampled_from(vs)
    g = build_graph(vs, data.draw(st.lists(st.tuples(ends, ends), max_size=12)))
    depths = data.draw(st.dictionaries(ends, st.integers(0, 2)))
    voltage = dict(zip([e.id for e in g.edges], data.draw(st.lists(st.integers(-6, 6), min_size=len(g.edges), max_size=len(g.edges)))))

    class Accepted(Exception):
        pass

    def accepted(w):
        raise Accepted

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "_max_assignment", accepted)
        for marks in {tuple(v for v, k in depths.items() if k < a) for a in range(4)}:
            m = laplacian(g, marks, voltage)
            for i, (v, row) in enumerate(zip([v for v in vs if v not in marks], m)):
                to_marks = sum((e.u == v and e.v in marks) + (e.v == v and e.u in marks) for e in g.edges)
                c0 = row[i].coeffs.get(0, 0) if i in row else 0
                assert 2 * c0 - sum(abs(c) for x in row.values() for c in x.coeffs.values()) == to_marks
                assert all(i in m[j] and m[j][i] == LaurentPoly({-e: c for e, c in x.coeffs.items()}) for j, x in row.items())
            with pytest.raises(Accepted):
                det_laurent(m)


class TestCharElement:
    def test_motivating_placements(self):
        g, r, _ = load_fixture("cycle5_ram45.json")
        ce = char_element(g, r, {}, 2)
        assert ce.t_power == 2
        assert ce.body == (4,)
        g, r, _ = load_fixture("cycle5_ram25.json")
        ce = char_element(g, r, {}, 3)
        assert ce.t_power == 2
        assert ce.body == (6,)

    def test_glued_voltage_triangles(self):
        g, r, volt = load_fixture("glued_voltage_triangles.json")
        ce = char_element(g, r, volt, 3)
        assert ce.t_power == 2
        assert ce.body == (9,)

    def test_body_at_origin_matches_forest_product(self):
        # with trivial voltage, body(0) is the product of the segment counts
        for name in ["cycle5_ram45.json", "cycle5_ram245.json", "three_segment.json"]:
            g, r, _ = load_fixture(name)
            ce = char_element(g, r, {}, 2)
            d = decompose(g, r)
            prod = 1
            for s in d.segments:
                prod *= forest_count_det(segment_subgraph(g, s), list(s.ramified))
            assert ce.body[0] == prod, name


class TestSymbolicInvariants:
    def test_examples(self):
        assert symbolic_invariants(CharElement(2, (4,), LaurentPoly({0: 4}), 2)) == InvariantTriple(2, 1)
        assert symbolic_invariants(CharElement(2, (9,), LaurentPoly({0: 9}), 3)) == InvariantTriple(2, 1)
        assert symbolic_invariants(CharElement(4, (1,), LaurentPoly({0: 1}), 5)) == InvariantTriple(0, 3)

    def test_zero_body_rejected(self):
        with pytest.raises(TowerError):
            symbolic_invariants(CharElement(1, (), LaurentPoly(), 2))


class TestEmpiricalInvariants:
    def test_motivating_p2(self):
        g, r, _ = load_fixture("cycle5_ram45.json")
        fit, levels, stable = empirical_fit(g, r, {}, 2, 3)
        assert fit == InvariantTriple(2, 1, -2)
        assert stable
        assert [lv["kappa"] for lv in levels][:2] == [5, 5 * 2 * 4]

    def test_motivating_p3(self):
        g, r, _ = load_fixture("cycle5_ram45.json")
        fit, _, _ = empirical_fit(g, r, {}, 3, 2)
        assert fit == InvariantTriple(0, 1, 0)

    def test_second_placement_p3(self):
        g, r, _ = load_fixture("cycle5_ram25.json")
        fit, _, _ = empirical_fit(g, r, {}, 3, 3)
        assert fit == InvariantTriple(1, 1, -1)

    def test_matches_symbolic_for_trivial_voltage(self):
        for name, p in [("cycle5_ram45.json", 2), ("cycle5_ram245.json", 2), ("three_segment.json", 3)]:
            g, r, _ = load_fixture(name)
            sym = symbolic_invariants(char_element(g, r, {}, p))
            fit, levels, _ = empirical_fit(g, r, {}, p)
            assert (sym.mu, sym.lam) == (fit.mu, fit.lam), name
            # the relation is exact at every level for trivial voltage
            from segtower.linalg import ord_p

            for lv in levels:
                assert ord_p(lv["kappa"], p) == fit.mu * p ** lv["n"] + fit.lam * lv["n"] + fit.nu

    def test_fit_orders_rejects_bad_data(self):
        # these points force lambda = -1, which is not a valid invariant
        assert fit_orders([(0, 0), (1, 0), (2, 1)], 2)[0] is None
        # and these force mu = 1/2 at p = 3
        assert fit_orders([(1, 0), (2, 1), (3, 8)], 3)[0] is None
        with pytest.raises(TowerError):
            fit_orders([(0, 1)], 2)


@st.composite
def voltage_towers(draw, depths=(0, 1, 2), voltages=(-1, 0, 1, 2), marks=(0, 3), ps=(2, 3, 5), top=3):
    """(graph, ramification, voltage, p, n_max) on at most four vertices.

    Edges start from a random spanning tree (so most draws are connected);
    extra edges may be loops or parallel.  n_max <= top is capped so that
    the explicit covers stay below 65 vertices.
    """
    nv = draw(st.integers(1, 4))
    vs = [f"v{i}" for i in range(nv)]
    edges = [(vs[draw(st.integers(0, i - 1))], vs[i], f"t{i}") for i in range(1, nv)]
    for i in range(draw(st.integers(0, 4))):
        edges.append((vs[draw(st.integers(0, nv - 1))], vs[draw(st.integers(0, nv - 1))], f"x{i}"))
    voltage = {eid: draw(st.sampled_from(voltages)) for _, _, eid in edges}
    marked = draw(st.lists(st.sampled_from(vs), min_size=marks[0], max_size=marks[1], unique=True))
    r = RamificationData({v: draw(st.sampled_from(depths)) for v in marked})
    p = draw(st.sampled_from(ps))
    n_max = max(n for n in range(top + 1) if p**n * nv <= 64)
    return build_graph(vs, edges), r, voltage, p, n_max


def assert_same_tower(g, r, voltage, p, n_max):
    try:
        want = explicit_tower_kappas(g, r, voltage, p, n_max)
    except DisconnectedCover as exc:
        with pytest.raises(DisconnectedCover) as got:
            tower_kappas(g, r, voltage, p, n_max)
        assert got.value.level == exc.level
        return exc.level
    assert tower_kappas(g, r, voltage, p, n_max) == want
    return None


class TestTowerKappas:
    """The root-of-unity product against explicit covers."""

    @given(voltage_towers())
    @settings(max_examples=150, deadline=None)
    def test_matches_explicit_covers(self, tower):
        assert_same_tower(*tower)

    @given(
        voltage_towers(depths=(0, 1, 2, 3), ps=(2,), top=4)
        | voltage_towers(depths=(1, 2, 3), marks=(1, 3), ps=(2,), top=4)
    )
    @settings(max_examples=120, deadline=None)
    def test_deep_marks(self, tower):
        # without a depth-0 mark, s_n < 0 at low levels: the count is divided by a power of p
        assert_same_tower(*tower)

    @pytest.mark.parametrize("p, depths", [(2, {"v4": 1, "v5": 0}), (3, {"v4": 1, "v5": 0}), (2, {"v4": 3, "v5": 0})])
    def test_builds_no_cover(self, monkeypatch, p, depths):
        def no_cover(*args):
            raise AssertionError("tower_kappas built a cover")

        g, _, volt = load_fixture("cycle5_partial.json")
        r, n_max = RamificationData(depths), 4 if p == 2 else 3
        want = explicit_tower_kappas(g, r, volt, p, n_max)
        monkeypatch.setattr(iwasawa, "cover_laplacian", no_cover)
        assert tower_kappas(g, r, volt, p, n_max) == want

    @given(voltage_towers(voltages=(0, 2, -2), marks=(0, 0), ps=(2,)))
    @settings(max_examples=40, deadline=None)
    def test_unramified_even_voltages_disconnect(self, tower):
        # every cycle has an even voltage, so X_1 splits into two copies
        g, r, voltage, p, n_max = tower
        assert assert_same_tower(g, r, voltage, p, n_max) in (0, 1)

    def test_fixtures(self):
        for name in ["glued_voltage_triangles.json", "voltage_segment.json", "three_segment.json",
                     "cycle5_partial.json", "cycle5_ram245.json"]:
            g, r, volt = load_fixture(name)
            for p in (2, 3):
                assert_same_tower(g, r, volt, p, 2 if p == 3 else 3)

    def test_disconnected_base(self):
        g = build_graph(["a", "b", "c"], [("a", "b")])
        with pytest.raises(DisconnectedCover) as exc:
            tower_kappas(g, RamificationData.totally_ramified(["a"]), {}, 2, 3)
        assert exc.value.level == 0

    def test_unramified_trivial_voltage_disconnects_at_level_one(self):
        g = build_graph(["a", "b"], [("a", "b"), ("a", "b")])
        with pytest.raises(DisconnectedCover) as exc:
            tower_kappas(g, RamificationData(), {}, 3, 2)
        assert exc.value.level == 1

    def test_all_vertices_ramified(self):
        # no unramified block: every edge lifts to p^n parallel copies
        g = build_graph(["a", "b", "c"], [("a", "b"), ("b", "c"), ("c", "a")])
        r = RamificationData.totally_ramified(["a", "b", "c"])
        levels = tower_kappas(g, r, {}, 3, 3)
        assert [lv["kappa"] for lv in levels] == [3 * 3 ** (2 * n) for n in range(4)]

    def test_high_level_matches_theorem_A(self):
        # kappa(X_n) = kappa(X) p^{n(l-1)} prod F^{p^n - 1}, with kappa(X),
        # l and the segment counts F taken from the theorem A harness
        g, r, _ = load_fixture("three_segment.json")
        detail = verify_theorem_A(g, r, {}, 3, 1).detail
        f = math.prod(detail["segment_counts"])
        levels = tower_kappas(g, r, {}, 3, 8)
        for lv in levels:
            n = lv["n"]
            assert lv["kappa"] == detail["kappa_n0"] * 3 ** (n * (detail["l_n0"] - 1)) * f ** (3**n - 1)
        assert levels[8]["vertices"] == 5 * 3**8 + 2 and levels[8]["edges"] == 9 * 3**8

    def test_grid_within_budget(self):
        # a 5 x 5 grid with +-1 voltages and two corner marks: det M has span
        # 20, so level 5 multiplies integers of thousands of bits.  Measured
        # on a 2-core x86 host: 0.21 s with the root-power chain, 60 s with a
        # companion-matrix determinant per level
        g, r = grid_graph(5, 5)
        rng = random.Random(7)
        voltage = {e.id: rng.choice([-1, 1]) for e in g.edges}
        t0 = time.process_time()
        levels = tower_kappas(g, r, voltage, 3, 5)
        assert time.process_time() - t0 < 4.0
        assert levels[:3] == explicit_tower_kappas(g, r, voltage, 3, 2)
        assert levels[5]["kappa"].bit_length() > 7000

    def test_refuses_a_level_past_the_work_limit(self):
        # with trivial voltage det M is constant, 2 here: level 1 passes, and
        # level 2 would raise 2 to the power p^2
        g, r, _ = load_fixture("glue_kappa_l1.json")
        with pytest.raises(GraphError, match="level 2 "):
            tower_kappas(g, r, {}, 1000000007, 2)

    def test_stray_mark_rejected(self):
        # a mark off the graph once entered s_n: 5, 80, 5120, 5242880 at p = 2
        # instead of the 5, 40, 1280, 655360 of the graph's own marks
        g, r, _ = load_fixture("cycle5_ram45.json")
        assert [lv["kappa"] for lv in tower_kappas(g, r, {}, 2, 3)] == [5, 40, 1280, 655360]
        stray = RamificationData({**r.depths, "zz": 0})
        for call in (lambda: tower_kappas(g, stray, {}, 2, 3), lambda: char_element(g, stray, {}, 2)):
            with pytest.raises(GraphError, match="'zz' is not a vertex"):
                call()

    def test_empty_graph_rejected(self):
        # T^0 times the empty block's det 1 would give the symbolic lambda -1
        with pytest.raises(GraphError, match="empty graph"):
            char_element(build_graph([], []), RamificationData({}), {}, 3)


class TestDefaultLevels:
    def test_empirical_default_spans_five_levels(self):
        g, r, _ = load_fixture("cycle5_ram45.json")
        _, levels, stable = empirical_fit(g, r, {}, 5)
        assert [lv["n"] for lv in levels] == [0, 1, 2, 3, 4]
        assert stable
        g, r, _ = load_fixture("cycle5_partial.json")
        _, levels, _ = empirical_fit(g, r, {}, 2)
        assert len(levels) == max(r.depths.values()) + 5

    def test_explicit_n_max_still_clamped(self):
        g, r, _ = load_fixture("cycle5_partial.json")
        _, levels, _ = empirical_fit(g, r, {}, 2, 0)
        assert len(levels) == max(r.depths.values()) + 3

    def test_segment_default_spans_five_levels(self):
        # every mark of a segment has depth 0, so its default fit window is
        # levels 0..FIT_DEPTH, where the fit is stable and symbolic
        g, r, volt = load_fixture("voltage_segment.json")
        ce = char_element(g, r, volt, 3)
        counts = segment_forest_counts(ce, iwasawa.FIT_DEPTH)
        assert len(counts) == 5
        fit, stable = segment_fit(counts, 3)
        assert stable and (fit.mu, fit.lam) == mu_lambda(ce.body, 3)


class TestVerdicts:
    def test_theorem_A_levels(self):
        g, r, _ = load_fixture("cycle5_ram45.json")
        for p, n, expected in [(3, 1, 240), (2, 1, 40), (2, 2, 1280), (3, 0, 5)]:
            v = verify_theorem_A(g, r, {}, p, n)
            assert v.ok and v.lhs == expected == v.rhs

    def test_theorem_A_needs_trivial_voltage(self):
        g, r, volt = load_fixture("voltage_segment.json")
        with pytest.raises(TowerError):
            verify_theorem_A(g, r, volt, 3, 1)

    def test_partial_ramification(self):
        g, r, _ = load_fixture("cycle5_partial.json")
        v = verify_partial_ramification(g, r, {}, 2, 2)
        assert v.ok and v.lhs == 1600
        assert v.detail["n0"] == 1 and v.detail["l_n0"] == 3
        v = verify_partial_ramification(g, r, {}, 3, 2)
        assert v.ok

    @pytest.mark.parametrize(
        "harness, name, n, levels",
        [
            (verify_partial_ramification, "cycle5_partial.json", 1, [1]),
            (verify_partial_ramification, "cycle5_partial.json", 2, [2]),
            (verify_theorem_A, "cycle5_ram45.json", 0, [0]),
            (verify_theorem_A, "cycle5_ram45.json", 2, [2]),
        ],
    )
    def test_builds_each_level_once(self, monkeypatch, harness, name, n, levels):
        # one witness, the level-n cover's Laplacian, whose det_int the check
        # counts; kappa(X_{n0}) comes from X's blocks, with no level-n0 witness
        g, r, _ = load_fixture(name)
        want = harness(g, r, {}, 2, n)
        built = []

        def counted(g, r, voltage, p, n):
            built.append(n)
            return cover_laplacian(g, r, voltage, p, n)

        monkeypatch.setattr(iwasawa, "cover_laplacian", counted)
        assert harness(g, r, {}, 2, n) == want and want.ok
        assert built == levels

    @pytest.mark.parametrize("name", ["cycle5_ram45.json", "cycle5_partial.json"])
    def test_negative_level_is_bad_input(self, name):
        # refused before the n < n0 check, which answered a hypothesis violation
        g, r, _ = load_fixture(name)
        for harness in (verify_theorem_A, verify_partial_ramification):
            if harness is verify_theorem_A and any(r.depths.values()):
                continue
            with pytest.raises(GraphError, match="non-negative, got -1"):
                harness(g, r, {}, 2, -1)

    @pytest.mark.parametrize("a", [1.5, True, "1", None])
    @pytest.mark.parametrize("name", ["cycle5_ram45.json", "cycle5_partial.json"])
    def test_voltage_that_is_no_int_is_bad_input(self, name, a):
        # checked before the trivial-voltage hypothesis, which answered 1.5 as
        # a nontrivial voltage (TowerError) instead of bad input
        g, r, _ = load_fixture(name)
        for harness in (verify_theorem_A, verify_partial_ramification):
            with pytest.raises(GraphError, match=f"must be an integer, got {re.escape(repr(a))}$"):
                harness(g, r, {g.edges[0].id: a}, 2, 1)

    @pytest.mark.parametrize("name, n0", [("cycle5_partial.json", 1), ("cycle5_ram45.json", 0)])
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_kappa_n0_is_the_explicit_count(self, name, n0, p):
        # kappa(X_{n0}) from X's blocks against the tree count of the level-n0 cover
        g, r, _ = load_fixture(name)
        want = explicit_tower_kappas(g, r, {}, p, n0)[n0]["kappa"]
        for n in (n0, n0 + 1):
            v = verify_partial_ramification(g, r, {}, p, n)
            assert v.ok and v.detail["n0"] == n0 and v.detail["kappa_n0"] == want

    @pytest.mark.parametrize("name", ["three_segment.json", "glue_kappa_l2.json", "cycle5_ram245.json"])
    def test_general_counts_a_one_segment_once(self, monkeypatch, name):
        # kappa(S_n) and F_1(S_n) of a 1-segment are one number: det_int runs
        # once for kappa(X_n) and once for kappa(S) of each 2-segment, and
        # never on a segment preimage
        g, r, _ = load_fixture(name)
        d = decompose(g, r)
        calls = []

        def counted(m):
            calls.append(m)
            return det_int(m)

        monkeypatch.setattr(iwasawa, "det_int", counted)
        monkeypatch.setattr(forests, "det_int", counted)
        v = verify_general_case(g, r, {}, 2, 1)
        assert v.ok and len(calls) == 1 + d.k_prime
        c = build_cover(d.graph, r, {}, 2, 1)
        for s, k, f in zip(d.segments, v.detail["segment_kappas"], v.detail["segment_forests"]):
            sub, marks = segment_preimage(c, s)
            assert k == kappa(sub) and f == forest_count_det(sub, list(marks.depths))
            assert s.t == 2 or k == f

    def test_partial_reduces_to_A_at_depth_zero(self):
        g, r, _ = load_fixture("cycle5_ram45.json")
        va = verify_theorem_A(g, r, {}, 2, 2)
        vp = verify_partial_ramification(g, r, {}, 2, 2)
        assert vp.ok and vp.lhs == va.lhs and vp.rhs == va.rhs

    def test_general_case_voltage(self):
        g, r, volt = load_fixture("voltage_segment.json")
        v = verify_general_case(g, r, volt, 3, 1)
        assert v.ok
        assert v.detail["admissible_sets"] == [[0]]
        assert v.detail["segment_forests"] == [320]

    def test_general_matches_A_for_trivial_voltage(self):
        for name in ["cycle5_ram45.json", "cycle5_ram245.json", "three_segment.json"]:
            g, r, _ = load_fixture(name)
            va = verify_theorem_A(g, r, {}, 2, 1)
            vg = verify_general_case(g, r, {}, 2, 1)
            assert va.ok and vg.ok and va.lhs == vg.lhs, name

    def test_general_at_level_zero(self):
        g, r, _ = load_fixture("cycle5_ram245.json")
        v = verify_general_case(g, r, {}, 5, 0)
        assert v.ok and v.lhs == 5

    def test_char_factorization_glued(self):
        g, r, volt = load_fixture("glued_voltage_triangles.json")
        v = verify_char_factorization(g, r, volt, 3)
        assert v.ok
        assert v.lhs == {"mu": 2, "lambda": 1}
        assert [f["mu"] for f in v.detail["factors"]] == [1, 1]
        assert [f["lambda"] for f in v.detail["factors"]] == [0, 0]

    def test_char_factorization_single_segment(self):
        g, r, volt = load_fixture("voltage_segment.json")
        v = verify_char_factorization(g, r, volt, 3)
        assert v.ok and v.detail["factorization_exact"]


@st.composite
def glued_segments(draw):
    """(g, r, voltage, p): X glued at marks from 1-5 segments, each a
    2-segment (a path between two marks with chords, parallel to an earlier
    one when both marks exist), a 1-segment (a cycle through a mark with
    chords and loops inside), an edge between marks or a loop at a mark;
    vertices shuffled, voltages -2..2, p in 2, 3, 5."""
    marks, edges = ["m0"], []
    for s in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(["two", "one", "direct", "loop"]))
        a = b = draw(st.sampled_from(marks))
        if kind in ("two", "direct"):
            others = [m for m in marks if m != a]
            if others and draw(st.booleans()):
                b = draw(st.sampled_from(others))
            else:
                b = f"m{len(marks)}"
                marks.append(b)
        if kind in ("direct", "loop"):
            edges.append((a, b))
            continue
        xs = [f"s{s}x{i}" for i in range(draw(st.integers(1, 3)))]
        path = [a, *xs, b]
        edges += zip(path, path[1:])
        for _ in range(draw(st.integers(0, 3))):  # a chord or parallel edge with an unramified end
            u = draw(st.sampled_from(xs))
            v = draw(st.sampled_from(path if kind == "two" else xs + [a]))  # a loop at u only inside a 1-segment
            if u != v or kind == "one":
                edges.append((u, v))
    vertices = draw(st.permutations(sorted({w for e in edges for w in e} | {"m0"})))
    g = build_graph(vertices, edges)
    voltage = {e.id: draw(st.integers(-2, 2)) for e in g.edges}
    return g, RamificationData.totally_ramified(marks), voltage, draw(st.sampled_from((2, 3, 5)))


def spied_factorization(g, r, voltage, p):
    """verify_char_factorization's verdict and the (block, det) of each
    det_laurent call it made."""
    calls = []

    def spy(m):
        calls.append((m, det := det_laurent(m)))
        return det

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(iwasawa, "det_laurent", spy)
        return verify_char_factorization(g, r, voltage, p), calls


def doubled_spokes(k, a):
    """k 1-segments m-b_i at the one mark m, each b_i = c_i doubled with
    voltages a and 0: det M_S = 4 - g^a - g^-a for every segment."""
    edges = [(f"b{i}", f"c{i}", f"v{i}") for i in range(k)] + [(f"b{i}", f"c{i}", f"z{i}") for i in range(k)]
    g = build_graph(["m"] + [f"{x}{i}" for i in range(k) for x in "bc"], edges + [("m", f"b{i}", f"t{i}") for i in range(k)])
    return g, RamificationData.totally_ramified(["m"]), {f"v{i}": a for i in range(k)}


class TestCharFactorization:
    """det M from the blocks of one Laplacian cut along the segments, against
    the uncut block and against char_element of the whole graph."""

    @given(glued_segments())
    @settings(max_examples=150, deadline=None)
    def test_cut_blocks_multiply_to_the_whole_block(self, x):
        g, r, voltage, p = x
        v, calls = spied_factorization(g, r, voltage, p)
        assert v.ok and v.detail["factorization_exact"]
        d = decompose(g, r)
        whole = laplacian(d.graph, r.depths, voltage)
        assert len(calls) == sum(1 for s in d.segments if s.vertices - r.depths.keys())  # none for a block of 0 rows
        assert sum(len(m) for m, _ in calls) == len(whole)
        # each cut block is its own segment's Laplacian without its marks
        own = [laplacian(segment_subgraph(d.graph, s), s.ramified, voltage) for s in d.segments if s.vertices - r.depths.keys()]
        assert [m for m, _ in calls] == own
        product = LaurentPoly({0: 1})
        for _, det in calls:
            product = product * det
        assert product == det_laurent(whole)
        if len(whole) <= 5:
            assert product == bareiss_det_laurent(dense(whole, LaurentPoly()))
        inv = symbolic_invariants(char_element(d.graph, r, voltage, p))
        assert v.lhs == {"mu": inv.mu, "lambda": inv.lam} == v.rhs
        assert [f["segment"] for f in v.detail["factors"]] == list(range(d.k))

    @pytest.mark.parametrize("name", ["glued_voltage_triangles.json", "doubled_cycle_pendant_triangle.json", "three_segment.json"])
    def test_never_the_whole_block(self, monkeypatch, name):
        # two or more segments with unramified vertices: each det_laurent
        # takes one segment's block, never all of M.  The reply's (mu,
        # lambda) are sums over the factors: no product of them is formed,
        # and only each factor is expanded
        g, r, volt = load_fixture(name)
        d = decompose(g, r)
        whole = laplacian(d.graph, r.depths, volt)
        expanded = []
        monkeypatch.setattr(iwasawa, "expand_at_gamma", lambda f: expanded.append(f) or expand_at_gamma(f))
        monkeypatch.setattr(LaurentPoly, "__mul__", lambda *args: pytest.fail("a product was formed"))
        v, calls = spied_factorization(g, r, volt, 3)
        assert v.ok and len(calls) >= 2
        assert all(len(m) < len(whole) for m, _ in calls)
        assert expanded == [det for _, det in calls]

    def test_answered_past_the_whole_estimate(self, monkeypatch):
        # two 1-segments m-b_i, b_i = c_i doubled with voltages 330 and 0:
        # det_laurent refuses the whole det M, of degree bound 4 * 330, before
        # any node, but each factor det M_S = 4 - g^330 - g^-330 passes its
        # estimate, and no product of the factors is formed: the invariants
        # are twice the factor's, plus l - 1 = 0
        a = 330
        g, r, volt = doubled_spokes(2, a)
        factor = LaurentPoly({0: 4, a: -1, -a: -1})
        assert det_laurent(laplacian(g, ["m", "b1", "c1"], volt)) == factor
        with pytest.raises(WorkLimitExceeded, match=f"^det M has degree up to {4 * a}; "):
            det_laurent(laplacian(g, r.depths, volt))
        monkeypatch.setattr(iwasawa, "det_laurent", lambda m: factor)  # each block's det M, without its 2a + 1 nodes
        v = verify_char_factorization(g, r, volt, 3)
        mu, lam = mu_lambda(expand_at_gamma(factor), 3)
        assert v.ok and v.lhs == v.rhs == {"mu": 2 * mu, "lambda": 2 * lam}
        assert v.detail["factors"] == [{"segment": i, "mu": mu, "lambda": lam} for i in range(2)]

    def test_refused_once_the_factors_pass_the_limit(self, monkeypatch):
        # ten such 1-segments at a = 330: each factor takes about
        # 661^2 * (3 + 660) < 2^29 bit operations, and the first eight pass
        # WORK_LIMIT = 2^31 together.  The eighth factor is not expanded,
        # and no later block reaches det_laurent
        a = 330
        g, r, volt = doubled_spokes(10, a)
        factor = LaurentPoly({0: 4, a: -1, -a: -1})
        blocks, expanded = [], []
        monkeypatch.setattr(iwasawa, "det_laurent", lambda m: blocks.append(m) or factor)
        monkeypatch.setattr(iwasawa, "expand_at_gamma", lambda f: expanded.append(f) or expand_at_gamma(f))
        with pytest.raises(GraphError, match="^characteristic element: interpolating and expanding the factors of segments 0..7 "
                                             "would take about 2\\^31 bit operations, past 2\\^31$"):
            verify_char_factorization(g, r, volt, 3)
        assert len(blocks) == 8 and len(expanded) == 7

    @pytest.mark.parametrize("case", ["edges only", "with its ends", "listed twice"])
    def test_moved_edge_is_not_exact(self, monkeypatch, case):
        # two parallel 2-segments a-x-b and a-y-b.  The edge x-b moved into
        # the second segment (with or without x) leaves a cut block without
        # its segment's degrees or a vertex in two segments; a chord x-y
        # listed in both segments leaves M an entry between their blocks
        g = build_graph(["a", "x", "y", "b"], [("a", "x", "e0"), ("x", "b", "e1"), ("a", "y", "e2"), ("y", "b", "e3")])
        r = RamificationData.totally_ramified(["a", "b"])
        d = decompose(g, r)
        s0, s1 = d.segments
        assert s0.edge_ids == {"e0", "e1"} and s1.edge_ids == {"e2", "e3"}
        if case == "listed twice":
            g = build_graph(g.vertices, [(e.u, e.v, e.id) for e in g.edges] + [("x", "y", "e4")])
            d = d._replace(graph=g)
            s0, s1 = (s._replace(edge_ids=s.edge_ids | {"e4"}) for s in (s0, s1))
        else:
            s0 = s0._replace(edge_ids=s0.edge_ids - {"e1"})
            s1 = s1._replace(edge_ids=s1.edge_ids | {"e1"}, vertices=s1.vertices | ({"x"} if case == "with its ends" else set()))
        monkeypatch.setattr(iwasawa, "decompose", lambda g, r: d._replace(segments=(s0, s1)))
        v = verify_char_factorization(g, r, {"e0": 1}, 3)
        assert not v.ok and v.detail["factorization_exact"] is False


class TestGeneralCounts:
    """verify_general_case's kappa(S_n) and F_t(S_n), read from each segment's
    block, against forest_count_det on the segment preimages of the explicit
    cover."""

    @given(glued_segments(), st.integers(0, 2))
    @settings(max_examples=150, deadline=None)
    def test_counts_are_the_preimages_counts(self, x, n):
        # glued_segments holds parallel edges between marks (kappa(S) = F(S)
        # = 1) and loops at marks
        g, r, voltage, p = x
        d = decompose(g, r)
        try:
            want = preimage_segment_counts(d, r, voltage, p, n)
        except GraphError:  # past SIZE_LIMIT
            assume(False)
        v = verify_general_case(g, r, voltage, p, n)
        assert v.ok and (v.detail["segment_kappas"], v.detail["segment_forests"]) == want

    @pytest.mark.parametrize("module", [iwasawa, linalg])
    @given(x=glued_segments(), n=st.integers(0, 2))
    @settings(max_examples=60, deadline=None)
    def test_lifted_counts_are_the_preimages_counts(self, module, x, n):
        # with no work allowed, each segment whose chain (iwasawa's estimate)
        # or det M_S (det_laurent) has any work is counted on its lifts
        g, r, voltage, p = x
        d = decompose(g, r)
        try:
            want = preimage_segment_counts(d, r, voltage, p, n)
        except GraphError:  # past SIZE_LIMIT
            assume(False)
        with mock.patch.object(module, "WORK_LIMIT", 0):
            v = verify_general_case(g, r, voltage, p, n)
        assert v.ok and (v.detail["segment_kappas"], v.detail["segment_forests"]) == want

    def test_a_chain_past_the_work_limit_is_not_run(self, monkeypatch):
        # one 1-segment over m whose det M_S has span 176 at p = 101: its chain
        # is estimated at about 2^36 bit operations and took 3.7 s of CPU,
        # where a count on the segment's preimage, or on its lifted block, would
        # take 0.15 s, start-up included (Python 3.11.7, 2-core x86).  In a
        # child process with a CPU budget, so that the chain fails the test
        graph = {"vertices": ["m", "u0", "u1", "u2", "u3"], "ramified": [{"vertex": "m"}],
                 "edges": [{"from": u, "to": v, "voltage": a} for u, v, a in
                           [("m", "u0", 82), ("u0", "u1", 83), ("m", "u2", 58), ("u0", "u3", 58), ("u1", "u3", 83),
                            ("u1", "u2", 58), ("u2", "u1", 56)]]}
        argv = ["-m", "segtower.cli", "verify", "--theorem", "general", "--p", "101", "--n", "1"]
        done = run_limited(argv, timeout=30, cpu=2, stdin=json.dumps(graph))
        assert done.returncode == 0, done.stderr[-300:]
        g, r, voltage = graph_from_json(graph)
        d = decompose(g, r)
        (k,), (f,) = preimage_segment_counts(d, r, voltage, 101, 1)
        out = json.loads(done.stdout)
        assert out["ok"] is True and out["lhs"] == out["rhs"] == str(f) and out["detail"]["segment_forests"] == [str(f)]
        monkeypatch.setattr(iwasawa, "root_of_unity_products", None)  # never called
        assert verify_general_case(g, r, voltage, 101, 1).detail["segment_kappas"] == [k] == [f]

    def test_large_voltage_is_read_mod_p_n(self):
        # a triangle x-y-z of voltage 10^9 inside the 2-segment a-x ... z-b: at
        # p = 3, n = 2 the voltage counts as 10^9 mod 9 = 1, so det M_S keeps a
        # small degree; read as given, det_laurent would refuse it
        g = build_graph(["a", "x", "y", "z", "b"],
                        [("a", "x", "e0"), ("x", "y", "e1"), ("y", "z", "e2"), ("z", "x", "e3"), ("z", "b", "e4")])
        r = RamificationData.totally_ramified(["a", "b"])
        voltage = {"e3": 10**9}
        with pytest.raises(WorkLimitExceeded):
            det_laurent(laplacian(g, r.depths, voltage))
        v = verify_general_case(g, r, voltage, 3, 2)
        d = decompose(g, r)
        assert v.ok and v.lhs == kappa(build_cover(g, r, voltage, 3, 2).graph) == 3080261547
        assert v.detail == {"admissible_sets": [[0]], "segment_kappas": [3080261547], "segment_forests": [912670088]}
        assert (v.detail["segment_kappas"], v.detail["segment_forests"]) == preimage_segment_counts(d, r, voltage, 3, 2)


class TestPartialCounts:
    """verify_partial_ramification's segment counts, det_int of the cut
    blocks, against F_t of each segment built as a graph of its own."""

    @given(glued_segments())
    @settings(max_examples=100, deadline=None)
    def test_counts_are_the_segments_forest_counts(self, x):
        g, r, _, p = x
        v = verify_partial_ramification(g, r, {}, p, 1)
        d = decompose(g, r)
        assert v.ok
        assert v.detail["segment_counts"] == [forest_count_det(segment_subgraph(d.graph, s), list(s.ramified)) for s in d.segments]


class TestHarnessChecks:
    """Every harness checks p, its marks and the voltage before it
    decomposes: here d touches three marks, so decompose would fail."""

    @pytest.mark.parametrize(
        "harness",
        [
            lambda g, r, v, p: verify_theorem_A(g, r, v, p, 1),
            lambda g, r, v, p: verify_partial_ramification(g, r, v, p, 1),
            lambda g, r, v, p: verify_general_case(g, r, v, p, 1),
            verify_char_factorization,
        ],
        ids=["A", "partial", "general", "factorization"],
    )
    @pytest.mark.parametrize(
        "marks, voltage, p, message",
        [
            (["a", "b", "c"], {}, 4, "p must be a prime, got 4"),
            (["a", "b", "c"], {"e0": 1.5}, 3, "voltage of edge 'e0' must be an integer, got 1.5"),
            (["a", "b", "c", "z"], {}, 3, "ramified vertex 'z' is not a vertex of the graph"),
            (["a"], {}, 4, "p must be a prime, got 4"),
        ],
        ids=["prime", "voltage", "mark", "single vertex"],
    )
    def test_checked_before_decomposing(self, harness, marks, voltage, p, message):
        if len(marks) == 1:
            g = build_graph(["a"], [])
        else:
            g = build_graph(["a", "b", "c", "d"], [("a", "d", "e0"), ("b", "d", "e1"), ("c", "d", "e2"), ("a", "b", "e3")])
            with pytest.raises(DecompositionError):
                decompose(g, RamificationData.totally_ramified(["a", "b", "c"]))
        with pytest.raises(GraphError, match=f"^{re.escape(message)}$"):
            harness(g, RamificationData.totally_ramified(marks), voltage, p)

    def test_one_request_check(self):
        # the three checks are cover.check_request's, in its order, with no copy here
        assert not {"_check_request", "check_prime", "check_marks", "check_voltage"} & set(vars(iwasawa))
        assert iwasawa.check_request is check_request

    def test_single_vertex_factorization(self):
        # no segment, no unramified vertex: det M = 1 and no det_laurent call
        v, calls = spied_factorization(build_graph(["a"], []), RamificationData.totally_ramified(["a"]), {}, 2)
        assert v.ok and not calls
        assert v.lhs == v.rhs == {"mu": 0, "lambda": 0}
        assert v.detail == {"factorization_exact": True, "factors": [], "l": 1}


def segment_fit(counts, p):
    """(fit, stable) of fit_orders over the orders of segment forest counts."""
    return fit_orders([(n, ord_p(x, p)) for n, x in enumerate(counts)], p)


class TestSegmentGrowth:
    """F_t(S_n) from the segment's det M and root-of-unity products, against
    explicit covers, and its order fit against the symbolic (mu, lambda)."""

    def test_trivial_voltage_exact(self):
        # lambda = 0 and mu = ord_p(F_t) for trivial voltage, at every level
        g = build_graph(["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("b", "c"), ("c", "d")])
        r = RamificationData.totally_ramified(["a", "d"])
        ce = char_element(g, r, {}, 3)
        counts = segment_forest_counts(ce, 2)
        fit, _ = segment_fit(counts, 3)
        mu, lam = mu_lambda(ce.body, 3)
        assert lam == 0
        assert fit.lam == 0 and fit.mu == mu
        for n, x in enumerate(counts):
            assert x == counts[0] ** (3**n)

    def test_voltage_segment_growth(self):
        g, r, volt = load_fixture("voltage_segment.json")
        ce = char_element(g, r, volt, 3)
        counts = segment_forest_counts(ce, 2)
        fit, stable = segment_fit(counts, 3)
        assert counts[:2] == [5, 320]
        assert (fit.mu, fit.lam) == mu_lambda(ce.body, 3) == (0, 0)
        assert stable

    def test_voltage_triangles(self):
        for name in ["voltage_triangle_a.json", "voltage_triangle_b.json"]:
            g, r, volt = load_fixture(name)
            ce = char_element(g, r, volt, 3)
            fit, _ = segment_fit(segment_forest_counts(ce, 2), 3)
            assert mu_lambda(ce.body, 3) == (1, 0), name
            assert (fit.mu, fit.lam) == (1, 0), name

    def test_fixtures_match_explicit_preimages(self):
        for name in ["voltage_segment.json", "voltage_triangle_a.json", "voltage_triangle_b.json"]:
            g, r, volt = load_fixture(name)
            for p in (2, 3, 5):
                n_max = 3 if p < 5 else 2
                counts = segment_forest_counts(char_element(g, r, volt, p), n_max)
                assert counts == explicit_forest_counts(g, r, volt, p, n_max), name

    @given(voltage_towers(depths=(0,), marks=(1, 2)))
    @settings(max_examples=80, deadline=None)
    def test_matches_explicit_preimages(self, tower):
        # a count of 0 (a det M that vanishes at a root of unity) included
        g, r, voltage, p, n_max = tower
        if len(r.depths) == len(g.vertices):
            return  # no unramified block, so no characteristic element
        n_max = max(n_max, 2)
        counts = segment_forest_counts(char_element(g, r, voltage, p), n_max)
        assert counts == explicit_forest_counts(g, r, voltage, p, n_max)


class TestCharElementOracle:
    """The exact g-shift against an independent binomial Taylor shift."""

    @given(voltage_towers(voltages=tuple(range(-6, 7)), marks=(0, 2)))
    @settings(max_examples=200, deadline=None)
    def test_matches_taylor_shift(self, tower):
        g, r, voltage, p, _ = tower
        assume(len(r.depths) < len(g.vertices))
        ce = char_element(g, r, voltage, p)
        if ce.det_gamma.is_zero:
            assert ce.body == ()
            return
        q_at_gamma, s = taylor_shift_oracle(ce.det_gamma)
        # the body is f(1+T) to its first deg Q + 1 terms: times (1+T)^s it is Q(1+T)
        body = list(ce.body)
        assert len(body) <= len(q_at_gamma)
        body += [0] * (len(q_at_gamma) - len(body))
        for _ in range(s):
            body = [c + (body[i - 1] if i else 0) for i, c in enumerate(body)]
        assert body == q_at_gamma
        mu, lam = mu_lambda(q_at_gamma, p)
        assert symbolic_invariants(ce) == InvariantTriple(mu, ce.t_power - 1 + lam)


class TestInterpolationWork:
    """det_laurent bounds det M once and refuses, before ordering M, a degree
    bound whose interpolation and Taylor shift pass WORK_LIMIT; iwasawa names
    the stage."""

    def test_estimate_admits_a_degree_of_1000(self, monkeypatch):
        # 4 - g^500 - g^-500: interpolated in about 2.5 s, still answered.
        # The first node's elimination ends the call, so none is paid for
        class Sentinel(Exception):
            pass

        def first_node(*args):
            raise Sentinel

        monkeypatch.setattr(linalg, "_det_mod", first_node)
        with pytest.raises(Sentinel):
            char_element(*graph_from_json(parallel_voltage_json(500)), 2)

    @pytest.mark.parametrize(
        "call, stage",
        [
            (lambda g, r, v: char_element(g, r, v, 2), "characteristic element"),
            (lambda g, r, v: tower_kappas(g, r, v, 2, 2), "level 1"),
            (lambda g, r, v: tower_report(g, r, v, 2, n_max=2, empirical=False), "characteristic element"),
            (lambda g, r, v: verify_char_factorization(g, r, v, 2), "characteristic element"),
        ],
    )
    def test_refused_before_any_node(self, monkeypatch, call, stage):
        monkeypatch.setattr(linalg, "_det_mod", lambda *args: pytest.fail("_det_mod ran"))
        with pytest.raises(GraphError, match=f"^{stage}: det M has degree up to 2000000; .* past 2\\^31"):
            call(*graph_from_json(parallel_voltage_json(10**6)))

    def test_det_laurent_refuses_before_ordering(self, monkeypatch):
        # the estimate belongs to det_laurent itself, not to its callers
        monkeypatch.setattr(linalg, "_det_mod", lambda *args: pytest.fail("_det_mod ran"))
        g, r, volt = graph_from_json(parallel_voltage_json(10**6))
        m = laplacian(g, r.depths, volt)
        with pytest.raises(WorkLimitExceeded, match="^det M has degree up to 2000000; .* past 2\\^31$"):
            det_laurent(m)

    def test_one_bounds_pass_per_det_m(self, monkeypatch):
        # the degree bound is one assignment per det M; a matrix that is no
        # mirrored, dominant block is refused before any
        calls, assignment = [], linalg._max_assignment

        def counted(w):
            calls.append(len(w))
            return assignment(w)

        monkeypatch.setattr(linalg, "_max_assignment", counted)
        g, r, volt = load_fixture("voltage_segment.json")
        char_element(g, r, volt, 3)
        assert len(calls) == 1
        calls.clear()
        with pytest.raises(LinalgError, match="row 0 is not one"):
            det_laurent([{0: LaurentPoly({1: 1}), 1: LaurentPoly({0: 2})}, {1: LaurentPoly({1: 1})}])
        assert not calls


class TestPrimeCheck:
    @pytest.mark.parametrize(
        "call",
        [
            lambda g, r: build_cover(g, r, {}, 4, 1),
            lambda g, r: tower_kappas(g, r, {}, 4, 3),
            lambda g, r: char_element(g, r, {}, 4),
            lambda g, r: tower_report(g, r, {}, 4, n_max=3),
        ],
        ids=["build_cover", "tower_kappas", "char_element", "tower_report"],
    )
    def test_non_prime_p_rejected(self, call):
        g, r, _ = load_fixture("cycle5_ram45.json")
        with pytest.raises(GraphError, match="p must be a prime, got 4"):
            call(g, r)


class TestVoltageCheck:
    # a triangle a-b-c with b-c doubled, a marked: a voltage of 1.5 on e2 was
    # taken as 1 by tower_kappas, True acted as 1, and "1" or None raised a
    # bare TypeError; build_cover blamed an unknown endpoint
    @pytest.mark.parametrize("a", [1.5, True, "1", None], ids=["float", "bool", "str", "None"])
    @pytest.mark.parametrize(
        "call",
        [
            lambda g, r, v: build_cover(g, r, v, 3, 1),
            lambda g, r, v: tower_kappas(g, r, v, 3, 2),
            lambda g, r, v: char_element(g, r, v, 3),
            lambda g, r, v: tower_report(g, r, v, 3, n_max=2),
        ],
        ids=["build_cover", "tower_kappas", "char_element", "tower_report"],
    )
    def test_non_integer_voltage_rejected(self, call, a):
        g = build_graph(["a", "b", "c"], [("a", "b", "e1"), ("b", "c", "e2"), ("b", "c", "e3"), ("c", "a", "e4")])
        r = RamificationData({"a": 0})
        assert [lv["kappa"] for lv in tower_kappas(g, r, {"e2": 1}, 3, 2)] == [5, 320, 33385280]
        with pytest.raises(GraphError, match=f"^voltage of edge 'e2' must be an integer, got {re.escape(repr(a))}$"):
            call(g, r, {"e2": a})


@st.composite
def tailed_voltage_graphs(draw):
    """(g, r, voltage, p): a connected core of 2-5 vertices with 0-4 extra
    edges (loops and parallels allowed), 1 or 2 of them marked, and 1-5
    pendant-tree vertices each hung on an unmarked core or tree vertex;
    vertices shuffled, voltages -2..2 on every edge, p in 2, 3, 5."""
    n = draw(st.integers(2, 5))
    core = [f"c{i}" for i in range(n)]
    edges = [(f"c{draw(st.integers(0, i - 1))}", f"c{i}") for i in range(1, n)]
    edges += [(draw(st.sampled_from(core)), draw(st.sampled_from(core))) for _ in range(draw(st.integers(0, 4)))]
    marks = draw(st.lists(st.sampled_from(core), min_size=1, max_size=min(2, n - 1), unique=True))
    hooks = [v for v in core if v not in marks]
    for i in range(draw(st.integers(1, 5))):
        edges.append((draw(st.sampled_from(hooks)), f"t{i}"))
        hooks.append(f"t{i}")
    g = build_graph(draw(st.permutations(core + hooks[n - len(marks):])), edges)
    voltage = {e.id: draw(st.integers(-2, 2)) for e in g.edges}
    return g, RamificationData.totally_ramified(marks), voltage, draw(st.sampled_from((2, 3, 5)))


class TestTowerReport:
    @pytest.mark.parametrize("name", ["glued_voltage_triangles.json", "cycle5_ram45.json"])
    def test_one_det_m_per_report(self, monkeypatch, name):
        # char_element's det M on the pruned X serves the tower's last levels too
        calls = []

        def counted(m):
            calls.append(m)
            return det_laurent(m)

        monkeypatch.setattr(iwasawa, "det_laurent", counted)
        g, r, volt = load_fixture(name)
        report = tower_report(g, r, volt, 3)
        assert len(calls) == 1
        assert report["levels"] == explicit_tower_kappas(g, r, volt, 3, 4)

    def test_char_element_takes_the_pruned_graph(self, monkeypatch):
        # every block tower_report builds, the level-1 block of the depth-0
        # mark included, is a block of X without its tails; the levels still
        # count X's own covers, tails and all
        built = []
        monkeypatch.setattr(iwasawa, "laplacian", lambda h, marks, *rest: built.append((h, tuple(marks))) or laplacian(h, marks, *rest))
        x, r, _ = load_fixture("cycle5_partial.json")
        g = build_graph([*x.vertices, "t0", "t1"], [*((u, v, e) for e, u, v in x.edges), ("v1", "t0", "tail0"), ("t0", "t1", "tail1")])
        volt = {"c1": 1, "tail0": 1, "tail1": -2}
        report = tower_report(g, r, volt, 2)
        assert sorted(marks for _, marks in built) == [("v4", "v5"), ("v5",)]
        assert all(h.vertices == x.vertices for h, _ in built)
        assert report["levels"] == explicit_tower_kappas(g, r, volt, 2, 5)

    @settings(max_examples=60, deadline=None)
    @given(tailed_voltage_graphs())
    def test_tails_leave_the_char_element(self, x):
        # the Schur complement at a pendant vertex takes back the 1 it added
        # to its neighbour's degree, so det M of X without its tails is X's
        g, r, voltage, p = x
        assert prune_tails(g, r) is not g
        assert char_element(g, r, voltage, p).det_gamma == det_laurent(laplacian(g, r.depths, voltage))

    def test_report_fields(self):
        g, r, _ = load_fixture("cycle5_ram45.json")
        report = tower_report(g, r, {}, 2, 3)
        assert report["symbolic"] == {"mu": 2, "lambda": 1}
        assert report["empirical"] == {"mu": 2, "lambda": 1, "nu": -2}
        assert report["agreement"] is True
        assert report["fit_stable"] is True
        assert len(report["levels"]) == 4

    def test_negative_powers_past_the_old_truncation(self):
        # det M runs from g^-16 to g^16, so lambda = 32 needs all 33 terms;
        # the first 27 alone have their least valuation 2 at index 16
        g = build_graph(
            ["v0", "v1", "v2", "v3"],
            [("v0", "v1", "e0"), ("v1", "v2", "e1"), ("v2", "v3", "e2"), ("v3", "v0", "e3"), ("v1", "v3", "e4")],
        )
        voltage = {"e0": 5, "e1": -6, "e2": -6, "e3": -1, "e4": 4}
        report = tower_report(g, RamificationData({"v0": 0}), voltage, 2, n_max=7)
        assert report["symbolic"] == {"mu": 0, "lambda": 32}
        assert report["empirical"]["mu"] == 0 and report["empirical"]["lambda"] == 32
        assert report["fit_stable"] is True
        assert report["agreement"] is True
