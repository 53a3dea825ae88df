"""Acceptance suite: the twelve contract criteria, all exact."""

import random
from itertools import product

from conftest import empirical_fit, enumerate_spanning_trees, load_fixture, random_connected_graph, segment_forest_counts, segment_subgraph
from segtower.cover import build_cover, segment_preimage
from segtower.families import (
    chorded_cycle_f2,
    chorded_cycle_graph,
    complete_f2,
    complete_graph,
    line_f2,
    line_graph,
    modified_line_f2,
    modified_line_graph,
)
from segtower.forests import forest_count_bruteforce, forest_count_det, kappa
from segtower.graph import RamificationData, glue, laplacian
from segtower.iwasawa import (
    char_element,
    fit_orders,
    symbolic_invariants,
    verify_char_factorization,
    verify_general_case,
    verify_partial_ramification,
    verify_theorem_A,
)
from segtower.linalg import mu_lambda, ord_p
from segtower.seal import DecompositionError, admissible_sets, decompose

import pytest

DECOMPOSABLE_FIXTURES = [
    "cycle5_ram45.json",
    "cycle5_ram25.json",
    "cycle5_ram245.json",
    "doubled_cycle_pendant_triangle.json",
    "chorded_cycle_pendant_triangle.json",
    "three_segment.json",
    "voltage_segment.json",
    "glued_voltage_triangles.json",
    "voltage_triangle_a.json",
    "voltage_triangle_b.json",
    "glue_two_l1.json",
    "glue_two_l2.json",
]


def test_criterion_01_symbolic_motivating_example():
    """char element is T^2 * 4 for one placement and T^2 * 6 for the other."""
    g, r, _ = load_fixture("cycle5_ram45.json")
    ce = char_element(g, r, {}, 2)
    assert (ce.t_power, ce.body) == (2, (4,))
    g, r, _ = load_fixture("cycle5_ram25.json")
    ce = char_element(g, r, {}, 3)
    assert (ce.t_power, ce.body) == (2, (6,))


def test_criterion_02_combinatorial_motivating_example():
    """matrix-tree on the built covers equals 5 p^n 4^(p^n - 1), resp. base 6."""
    for name, base in [("cycle5_ram45.json", 4), ("cycle5_ram25.json", 6)]:
        g, r, _ = load_fixture(name)
        for p, n in product((2, 3), (1, 2)):
            c = build_cover(g, r, {}, p, n)
            assert kappa(c.graph) == 5 * p**n * base ** (p**n - 1), (name, p, n)


def test_criterion_03_three_segment_product_formula():
    g, r, _ = load_fixture("three_segment.json")
    for p, n in [(3, 1), (2, 1), (2, 2)]:
        v = verify_theorem_A(g, r, {}, p, n)
        assert v.ok
        assert v.lhs == p**n * 27 * 21 ** (p**n - 1)
    assert verify_theorem_A(g, r, {}, 3, 1).lhs == 35721


def test_criterion_04_det_equals_bruteforce():
    """determinant and exhaustive forest counts agree on fixtures and on
    200+ random connected graphs with <= 8 vertices and <= 14 edges."""
    for name in DECOMPOSABLE_FIXTURES:
        g, r, _ = load_fixture(name)
        marked = list(r.depths)[:2]
        assert forest_count_det(g, marked) == forest_count_bruteforce(g, marked), name
    rng = random.Random(404)
    for i in range(200):
        g = random_connected_graph(rng, max_vertices=8, max_edges=14)
        t = rng.choice([1, 2])
        marked = rng.sample(list(g.vertices), t)
        assert forest_count_det(g, marked) == forest_count_bruteforce(g, marked), i


def test_criterion_05_voltage_cover_forest_count():
    """the level-1 cover of the voltage segment at p=3 has F2 = 320."""
    g, r, volt = load_fixture("voltage_segment.json")
    c = build_cover(g, r, volt, 3, 1)
    marked = [v for v in c.graph.vertices if v[0] in ("v1", "v4")]
    assert forest_count_det(c.graph, marked) == 320
    assert forest_count_bruteforce(c.graph, marked) == 320


def test_criterion_06_gluing():
    """worked gluings give kappa 8, F2 18, F2 27; multiplicativity holds on
    100 random gluings."""
    l1, r1, _ = load_fixture("glue_kappa_l1.json")
    l2, r2, _ = load_fixture("glue_kappa_l2.json")
    glued, _ = glue(l1, r1, l2, r2, [("v1", "w1")])
    assert kappa(glued) == 8

    lf, rf, _ = load_fixture("glue_forest_l2.json")
    glued, rr = glue(l1, r1, lf, rf, [("v1", "w2")])
    assert forest_count_det(glued, list(rr.depths)) == 18

    t1, rt1, _ = load_fixture("glue_two_l1.json")
    t2, rt2, _ = load_fixture("glue_two_l2.json")
    glued, rr = glue(t1, rt1, t2, rt2, [("v1", "w1"), ("v2", "w2")])
    assert forest_count_det(glued, list(rr.depths)) == 27

    rng = random.Random(606)
    done = 0
    while done < 100:
        g1 = random_connected_graph(rng, max_vertices=5, max_edges=7)
        g2 = random_connected_graph(rng, max_vertices=5, max_edges=7)
        gl = rng.choice([1, 2])
        t1n = 2 if gl == 2 else rng.choice([1, 2])
        t2n = 2 if gl == 2 else rng.choice([1, 2])
        if t1n > len(g1.vertices) or t2n > len(g2.vertices) or t1n + t2n - gl > 2:
            continue
        m1 = rng.sample(list(g1.vertices), t1n)
        m2 = rng.sample(list(g2.vertices), t2n)
        glued, rr = glue(
            g1,
            RamificationData.totally_ramified(m1),
            g2,
            RamificationData.totally_ramified(m2),
            list(zip(m1[:gl], m2[:gl])),
        )
        lhs = forest_count_det(glued, list(rr.depths))
        rhs = forest_count_det(g1, m1) * forest_count_det(g2, m2)
        assert lhs == rhs
        done += 1


def test_criterion_07_seal():
    """5-cycle with three ramified vertices: 3 segments; the doubled-cycle
    pendant-triangle graph: three 2-segments and one 1-segment; K5 with
    three ramified vertices: conflict witness."""
    g, r, _ = load_fixture("cycle5_ram245.json")
    d = decompose(g, r)
    assert d.k == 3 and all(s.t == 2 for s in d.segments)

    g, r, _ = load_fixture("doubled_cycle_pendant_triangle.json")
    d = decompose(g, r)
    assert d.k_prime == 3
    assert len(d.segments[d.k_prime :]) == 1
    assert d.segments[d.k_prime].ramified == ("v5",)

    g, r, _ = load_fixture("k5_ram245.json")
    with pytest.raises(DecompositionError) as exc:
        decompose(g, r)
    assert exc.value.witness.get("edge")
    assert len(exc.value.witness.get("pairs", [])) == 2


def test_criterion_08_admissible_set_sum():
    """the admissible-set sum equals direct matrix-tree on the voltage
    segment's level-1 cover, and agrees with the product formula on
    trivial-voltage fixtures via the cover-level identities."""
    g, r, volt = load_fixture("voltage_segment.json")
    v = verify_general_case(g, r, volt, 3, 1)
    assert v.ok and v.detail["admissible_sets"] == [[0]]

    for name in ["cycle5_ram45.json", "cycle5_ram245.json", "three_segment.json"]:
        g, r, _ = load_fixture(name)
        for p, n in [(2, 1), (3, 1)]:
            va = verify_theorem_A(g, r, {}, p, n)
            vg = verify_general_case(g, r, {}, p, n)
            assert va.ok and vg.ok and va.lhs == vg.lhs, (name, p, n)
            # trivial-voltage identities: kappa(S_n) = p^n kappa(S) F^(p^n - 1)
            # and F(S_n) = F(S)^(p^n)
            g2 = g
            d = decompose(g2, r)
            c = build_cover(g2, r, {}, p, n)
            for i, s in enumerate(d.segments):
                sub = segment_subgraph(g2, s)
                f_base = forest_count_det(sub, list(s.ramified))
                k_base = kappa(sub)
                assert vg.detail["segment_forests"][i] == f_base ** (p**n)
                if s.t == 2:
                    assert vg.detail["segment_kappas"][i] == p**n * k_base * f_base ** (p**n - 1)


def test_criterion_09_partial_ramification():
    g, r, _ = load_fixture("cycle5_partial.json")
    for p in (2, 3):
        n0 = max(r.depths.values())
        v = verify_partial_ramification(g, r, {}, p, n0 + 1)
        assert v.ok, p
    assert verify_partial_ramification(g, r, {}, 2, 2).lhs == 1600


def test_criterion_10_invariants():
    """glued voltage triangles: mu=2, lambda=1 symbolically and empirically;
    each triangle segment has mu=1, lambda=0; additivity on all decomposable
    fixtures."""
    g, r, volt = load_fixture("glued_voltage_triangles.json")
    sym = symbolic_invariants(char_element(g, r, volt, 3))
    assert (sym.mu, sym.lam) == (2, 1)
    fit, _, _ = empirical_fit(g, r, volt, 3, 2)
    assert (fit.mu, fit.lam) == (2, 1)

    for name in ["voltage_triangle_a.json", "voltage_triangle_b.json"]:
        gt, rt, vt = load_fixture(name)
        ce = char_element(gt, rt, vt, 3)
        counts = segment_forest_counts(ce, 2)
        fitg, _ = fit_orders([(n, ord_p(x, 3)) for n, x in enumerate(counts)], 3)
        assert mu_lambda(ce.body, 3) == (1, 0), name
        assert (fitg.mu, fitg.lam) == (1, 0), name

    for name in DECOMPOSABLE_FIXTURES:
        gx, rx, vx = load_fixture(name)
        v = verify_char_factorization(gx, rx, vx, 3)
        assert v.ok, name


def test_criterion_11_family_sweep():
    """closed-form F2 equals determinant (always) and brute force (within
    the enumeration cap) across the family parameter sweeps."""

    def check(g, r, expected, cap=14):
        marked = list(r.depths)
        assert forest_count_det(g, marked) == expected
        if len(g.edges) <= cap:
            assert forest_count_bruteforce(g, marked) == expected

    # line graphs: multiplicity tuples of length <= 4 with product <= 64
    def tuples(maxlen, maxprod):
        stack = [()]
        while stack:
            tup = stack.pop()
            if tup:
                yield tup
            if len(tup) < maxlen:
                import math

                prod = math.prod(tup) if tup else 1
                for x in range(1, maxprod + 1):
                    if prod * x <= maxprod:
                        stack.append(tup + (x,))

    for tup in tuples(4, 64):
        g, r = line_graph(tup)
        check(g, r, line_f2(tup))

    for k in range(4, 9):
        for n in range(2, k - 1):
            for m in range(n + 2, k + 1):
                g, r = modified_line_graph(k, n, m)
                check(g, r, modified_line_f2(k, n, m))

    for n in range(3, 10):
        for t in range(2, -(-n // 2) + 1):
            for i in range(1, n + 1):
                for j in range(i + 1, n + 1):
                    g, r = chorded_cycle_graph(n, t, i, j)
                    check(g, r, chorded_cycle_f2(n, t, i, j))

    for n in range(2, 7):
        g, r = complete_graph(n)
        check(g, r, complete_f2(n), cap=15)


def test_criterion_12_property_suite():
    rng = random.Random(1212)

    # Laplacian row sums vanish
    for _ in range(25):
        g = random_connected_graph(rng)
        assert all(sum(row.values()) == 0 for row in laplacian(g))

    # tail pruning preserves the spanning-tree count
    from segtower.graph import build_graph, prune_tails

    for i in range(25):
        g = random_connected_graph(rng, max_vertices=6, max_edges=9)
        vertices = list(g.vertices)
        edges = [(e.u, e.v, e.id) for e in g.edges]
        for j in range(rng.randint(1, 3)):
            anchor = rng.choice(vertices)
            vertices.append(f"t{j}")
            edges.append((anchor, f"t{j}", f"te{j}"))
        gt = build_graph(vertices, edges)
        r = RamificationData.totally_ramified([g.vertices[0]])
        assert kappa(prune_tails(gt, r)) == kappa(gt)

    # every spanning tree restricts to a spanning tree of exactly l-1 of the
    # 2-segments (graphs with <= 12 edges)
    for name in DECOMPOSABLE_FIXTURES:
        g, r, _ = load_fixture(name)
        if len(g.edges) > 12:
            continue
        d = decompose(g, r)
        seg_trees = [set(enumerate_spanning_trees(segment_subgraph(g, s))) for s in d.two_segments]
        for tree in enumerate_spanning_trees(g):
            hits = sum(
                1
                for s, trees in zip(d.two_segments, seg_trees)
                if frozenset(tree & s.edge_ids) in trees
            )
            assert hits == d.l - 1, name

    # the admissible-set identity reproduces kappa(X) at level 0
    for name in DECOMPOSABLE_FIXTURES:
        g, r, _ = load_fixture(name)
        d = decompose(g, r)
        total = 0
        for I in admissible_sets(d):
            term = 1
            for i, s in enumerate(d.segments):
                sub = segment_subgraph(g, s)
                if i in I:
                    term *= kappa(sub)
                else:
                    term *= forest_count_det(sub, list(s.ramified))
            total += term
        assert total == kappa(g), name
