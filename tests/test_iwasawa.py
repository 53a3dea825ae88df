import math
import random
import time

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    explicit_forest_counts,
    explicit_tower_kappas,
    grid_graph,
    load_fixture,
    parallel_voltage_json,
    segment_forest_counts,
    taylor_shift_oracle,
)
from segtower import iwasawa, linalg
from segtower.cover import build_cover
from segtower.graph import GraphError, RamificationData, build_graph, graph_from_json
from segtower.iwasawa import (
    CharElement,
    DisconnectedCover,
    InvariantTriple,
    TowerError,
    char_element,
    empirical_invariants,
    fit_orders,
    symbolic_invariants,
    tower_kappas,
    tower_report,
    unramified_block,
    verify_char_factorization,
    verify_general_case,
    verify_partial_ramification,
    verify_theorem_A,
)
from segtower.linalg import LaurentPoly, WorkLimitExceeded, det_laurent, mu_lambda, ord_p


class TestBuildMatrices:
    """unramified_block: M = D - A on the unramified vertices, in vertex order."""

    def test_glued_triangles_display(self):
        # the two triangles meet only in ramified vertices, so M is diagonal
        g, r, volt = load_fixture("glued_voltage_triangles.json")
        assert unramified_block(g, r, volt) == [{0: LaurentPoly({0: 3})}, {1: LaurentPoly({0: 3})}]

    def test_unramified_block_is_m(self):
        # sparse rows: the zero entries at [0][2] and [2][0] are left out
        g, r, _ = load_fixture("cycle5_ram45.json")
        assert unramified_block(g, r, {}) == [
            {0: LaurentPoly({0: 2}), 1: LaurentPoly({0: -1})},
            {0: LaurentPoly({0: -1}), 1: LaurentPoly({0: 2}), 2: LaurentPoly({0: -1})},
            {1: LaurentPoly({0: -1}), 2: LaurentPoly({0: 2})},
        ]

    def test_voltage_entries(self):
        # voltage a on a dart u -> w puts -g^a at [w][u]; a loop of voltage a
        # takes g^a + g^-a off its diagonal entry, which counts it twice
        g = build_graph(["u", "w", "b"], [("u", "w", "e"), ("w", "u", "f"), ("u", "u", "l"), ("w", "b", "h")])
        r = RamificationData.totally_ramified(["b"])
        assert unramified_block(g, r, {"e": 2, "l": 1, "h": 5}) == [
            {0: LaurentPoly({0: 4, 1: -1, -1: -1}), 1: LaurentPoly({-2: -1, 0: -1})},
            {0: LaurentPoly({2: -1, 0: -1}), 1: LaurentPoly({0: 3})},
        ]

    def test_zero_diagonal_left_out(self):
        # a vertex whose only edge is a loop of voltage 0 has a zero row
        g = build_graph(["u", "b"], [("u", "u", "l"), ("b", "b", "k")])
        assert unramified_block(g, RamificationData.totally_ramified(["b"]), {}) == [{}]
        assert unramified_block(g, RamificationData.totally_ramified(["b"]), {"l": 3}) == [{0: LaurentPoly({0: 2, 3: -1, -3: -1})}]

    def test_single_unramified_vertex(self):
        g, r, volt = load_fixture("voltage_triangle_a.json")
        assert unramified_block(g, r, volt) == [{0: LaurentPoly({0: 3})}]

    def test_no_unramified_vertex_gives_empty_block(self):
        # every vertex ramified: M is empty and det M = 1, so the symbolic
        # half of a report is defined too
        g = build_graph(["a", "b"], [("a", "b")])
        r = RamificationData.totally_ramified(["a", "b"])
        assert unramified_block(g, r, {}) == []
        assert char_element(g, r, {}, 2).det_gamma == LaurentPoly({0: 1})


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
        from segtower.forests import forest_count_det
        from segtower.seal import decompose

        for name in ["cycle5_ram45.json", "cycle5_ram245.json", "three_segment.json"]:
            g, r, _ = load_fixture(name)
            ce = char_element(g, r, {}, 2)
            d = decompose(g, r)
            prod = 1
            for s in d.segments:
                prod *= forest_count_det(s.subgraph(g), list(s.ramified))
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
        fit, levels, stable = empirical_invariants(g, r, {}, 2, 3)
        assert fit == InvariantTriple(2, 1, -2)
        assert stable
        assert [lv["kappa"] for lv in levels][:2] == [5, 5 * 2 * 4]

    def test_motivating_p3(self):
        g, r, _ = load_fixture("cycle5_ram45.json")
        fit, _, _ = empirical_invariants(g, r, {}, 3, 2)
        assert fit == InvariantTriple(0, 1, 0)

    def test_second_placement_p3(self):
        g, r, _ = load_fixture("cycle5_ram25.json")
        fit, _, _ = empirical_invariants(g, r, {}, 3, 3)
        assert fit == InvariantTriple(1, 1, -1)

    def test_matches_symbolic_for_trivial_voltage(self):
        for name, p in [("cycle5_ram45.json", 2), ("cycle5_ram245.json", 2), ("three_segment.json", 3)]:
            g, r, _ = load_fixture(name)
            sym = symbolic_invariants(char_element(g, r, {}, p))
            fit, levels, _ = empirical_invariants(g, r, {}, p)
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
        monkeypatch.setattr(iwasawa, "build_cover", no_cover)
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
        _, levels, stable = empirical_invariants(g, r, {}, 5)
        assert [lv["n"] for lv in levels] == [0, 1, 2, 3, 4]
        assert stable
        g, r, _ = load_fixture("cycle5_partial.json")
        _, levels, _ = empirical_invariants(g, r, {}, 2)
        assert len(levels) == max(r.depths.values()) + 5

    def test_explicit_n_max_still_clamped(self):
        g, r, _ = load_fixture("cycle5_partial.json")
        _, levels, _ = empirical_invariants(g, r, {}, 2, 0)
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

    @pytest.mark.parametrize("name", ["cycle5_ram45.json", "cycle5_partial.json"])
    def test_negative_level_is_bad_input(self, name):
        # refused before the n < n0 check, which answered a hypothesis violation
        g, r, _ = load_fixture(name)
        for harness in (verify_theorem_A, verify_partial_ramification):
            if harness is verify_theorem_A and any(r.depths.values()):
                continue
            with pytest.raises(GraphError, match="non-negative, got -1"):
                harness(g, r, {}, 2, -1)

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
        m = unramified_block(*graph_from_json(parallel_voltage_json(10**6)))
        with pytest.raises(WorkLimitExceeded, match="^det M has degree up to 2000000; .* past 2\\^31$"):
            det_laurent(m)

    def test_one_bounds_pass_per_det_m(self, monkeypatch):
        # the degree bound is one assignment for a mirrored det M, as every
        # voltage Laplacian block is, and two (max and min exponents) otherwise
        calls, assignment = [], linalg._max_assignment

        def counted(w):
            calls.append(len(w))
            return assignment(w)

        monkeypatch.setattr(linalg, "_max_assignment", counted)
        g, r, volt = load_fixture("voltage_segment.json")
        char_element(g, r, volt, 3)
        assert len(calls) == 1
        calls.clear()
        assert det_laurent([{0: LaurentPoly({1: 1}), 1: LaurentPoly({0: 2})}, {1: LaurentPoly({1: 1})}]) == LaurentPoly({2: 1})
        assert len(calls) == 2


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


class TestTowerReport:
    @pytest.mark.parametrize("name", ["glued_voltage_triangles.json", "cycle5_ram45.json"])
    def test_one_det_m_per_report(self, monkeypatch, name):
        # char_element's det M on the pruned X serves the tower levels too
        calls = []

        def counted(m):
            calls.append(m)
            return det_laurent(m)

        monkeypatch.setattr(iwasawa, "det_laurent", counted)
        g, r, volt = load_fixture(name)
        report = tower_report(g, r, volt, 3)
        assert len(calls) == 1
        assert report["levels"] == explicit_tower_kappas(g, r, volt, 3, 4)

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
