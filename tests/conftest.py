import heapq
import json
import math
import os
import random
import resource
import subprocess
import sys
from itertools import combinations, zip_longest
from pathlib import Path

import pytest

from segtower.cover import build_cover, segment_preimage
from segtower.forests import forest_count_det, kappa
from segtower.graph import GraphError, Multigraph, RamificationData, build_graph, graph_from_json, laplacian
from segtower.iwasawa import DisconnectedCover, InvariantTriple, tower_report
from segtower.linalg import LaurentPoly, LinalgError, laurent_exact_div, root_of_unity_products
from segtower.seal import DecompositionError, Segment, SegmentDecomposition, admissible_paths

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
SRC = str(Path(__file__).resolve().parent.parent / "src")


def load_fixture(name):
    """Returns (graph, ramification, voltage) for a fixture file."""
    with open(FIXTURES / name) as fh:
        return graph_from_json(json.load(fh))


def fixture_path(name):
    return str(FIXTURES / name)


def all_fixture_names():
    return sorted(p.name for p in FIXTURES.glob("*.json"))


def run_limited(argv, timeout, cpu=None, address_space=None, stdin=None):
    """Run `python argv...` on the repo's sources in a child process with a
    CPU limit in seconds or an address-space limit in bytes, so that a hang
    or a runaway allocation fails the calling test instead of the suite.
    Returns the CompletedProcess, its output as text."""

    def limit():
        if cpu is not None:
            resource.setrlimit(resource.RLIMIT_CPU, (cpu, cpu))
        if address_space is not None:
            resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))

    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run(
        [sys.executable, *argv], input=stdin, env=env, capture_output=True, text=True, timeout=timeout, preexec_fn=limit
    )


def random_connected_graph(rng, max_vertices=8, max_edges=14):
    """Random connected multigraph (loops and parallel edges allowed)."""
    while True:
        nv = rng.randint(2, max_vertices)
        vertices = [f"v{i}" for i in range(nv)]
        ne = rng.randint(nv - 1, max_edges)
        edges = []
        # random spanning tree first so connectivity is likely
        for i in range(1, nv):
            edges.append((f"v{rng.randrange(i)}", f"v{i}", f"t{i}"))
        for i in range(ne - (nv - 1)):
            u = rng.randrange(nv)
            v = rng.randrange(nv)
            edges.append((f"v{u}", f"v{v}", f"x{i}"))
        g = build_graph(vertices, edges)
        if g.connected():
            return g


def parallel_voltage_json(a):
    """Graph JSON: two parallel edges b-c, one of voltage a, and a pendant
    mark a.  Its det M = 4 - g^a - g^-a has degree bound 2a."""
    return {
        "vertices": ["a", "b", "c"],
        "edges": [{"from": "b", "to": "c", "voltage": a}, {"from": "b", "to": "c"}, {"from": "a", "to": "b"}],
        "ramified": [{"vertex": "a"}],
    }


def grid_graph(rows, cols):
    """rows x cols grid with its two opposite corners ramified: one 2-segment."""
    name = lambda i, j: f"g{i}_{j}"
    vertices = [name(i, j) for i in range(rows) for j in range(cols)]
    edges = [(name(i, j), name(i, j + 1)) for i in range(rows) for j in range(cols - 1)]
    edges += [(name(i, j), name(i + 1, j)) for i in range(rows - 1) for j in range(cols)]
    return build_graph(vertices, edges), RamificationData.totally_ramified([name(0, 0), name(rows - 1, cols - 1)])


def empirical_fit(g, r, voltage, p, n_max=None):
    """(InvariantTriple, levels, fit_stable) of iwasawa.tower_report's
    empirical half."""
    report = tower_report(g, r, voltage, p, n_max, symbolic=False)
    fit = report["empirical"]
    return InvariantTriple(fit["mu"], fit["lambda"], fit["nu"]), report["levels"], report["fit_stable"]


def explicit_tower_kappas(g, r, voltage, p, n_max):
    """Oracle for iwasawa.tower_kappas: build every X_n and count its trees."""
    out = []
    for n in range(n_max + 1):
        c = build_cover(g, r, voltage, p, n)
        if not c.graph.connected():
            raise DisconnectedCover(n)
        out.append(
            {
                "n": n,
                "vertices": len(c.graph.vertices),
                "edges": len(c.graph.edges),
                "kappa": kappa(c.graph),
            }
        )
    return out


def explicit_cover_laplacian(g, r, voltage, p, n):
    """Oracle for cover.cover_laplacian: the level-n cover built as a graph,
    its Laplacian without its first vertex by graph.laplacian."""
    c = build_cover(g, r, voltage, p, n).graph
    return laplacian(c, c.vertices[:1])


def preimage_segment_counts(d, r, voltage, p, n):
    """Oracle for verify_general_case's segment counts: ([kappa(S_n)],
    [F_t(S_n)]) of d's segments, by forest_count_det on each segment's
    preimage in the explicit level-n cover of d.graph."""
    c = build_cover(d.graph, r, voltage, p, n)
    kappas, forests = [], []
    for s in d.segments:
        sub, marks = segment_preimage(c, s)
        ends = list(marks.depths)
        forests.append(forest_count_det(sub, ends))
        kappas.append(forest_count_det(sub, ends[:1]))
    return kappas, forests


def explicit_forest_counts(g, r, voltage, p, n_max):
    """Oracle for the segment forest counts: F_t on every explicit S_n."""
    out = []
    for n in range(n_max + 1):
        c = build_cover(g, r, voltage, p, n)
        marks = [v for v in c.graph.vertices if r.is_ramified(v[0])]
        out.append(forest_count_det(c.graph, marks))
    return out


def segment_forest_counts(ce, n_max):
    """F_t(S_n) for n = 0..n_max from a segment's characteristic element
    alone: det M(1) times the product of det M over the p^n-th roots of unity
    other than 1."""
    det = ce.det_gamma
    return [sum(det.coeffs.values()) * x for x in root_of_unity_products(det, ce.p, n_max)]


def ord_p_oracle(x, p):
    """Oracle for linalg.ord_p: divide out one p per step."""
    if x == 0:
        return None
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def taylor_shift_oracle(f):
    """Oracle for linalg.expand_at_gamma: (Q(1+T) by binomials, s), where
    Q = g^s * f is a polynomial and s = max(0, -min exponent of f)."""
    s = max(0, -f.min_exp())
    d = f.max_exp() + s
    return [sum(c * math.comb(e + s, i) for e, c in f.coeffs.items()) for i in range(d + 1)], s


def sparse_rows(m):
    """The sparse rows [{column: entry}] of a dense matrix, zero entries left
    out: the one way a dense test matrix reaches det_int and det_laurent."""
    return [{j: x for j, x in enumerate(row) if x != 0} for row in m]


def dense(rows, zero=0):
    """The dense matrix of sparse rows, for the dense oracles."""
    return [[row.get(j, zero) for j in range(len(rows))] for row in rows]


def laplacian_minor_by_copy(g, deleted):
    """The full Laplacian from per-pair edge counts, copied element by element
    into the dense minor without the deleted vertices: oracle for
    graph.laplacian(g, deleted)."""
    vs = g.vertices
    between = {}
    for e in g.edges:
        for pair in {(e.u, e.v), (e.v, e.u)}:
            between[pair] = between.get(pair, 0) + 1
    full = [[(g.degree(u) - 2 * between.get((u, u), 0) if u == v else -between.get((u, v), 0)) for v in vs] for u in vs]
    keep = [i for i, v in enumerate(vs) if v not in deleted]
    return [[full[i][j] for j in keep] for i in keep]


def bareiss_det_int(m):
    """Oracle for linalg.det_int: Bareiss fraction-free elimination over Z
    in the given order, with every division checked."""
    n = len(m)
    for row in m:
        if len(row) != n:
            raise LinalgError("matrix is not square")
    if n == 0:
        return 1
    a = [[int(x) for x in row] for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = a[i][j] * a[k][k] - a[i][k] * a[k][j]
                q, r = divmod(num, prev)
                if r:
                    raise LinalgError("inexact Bareiss division")
                a[i][j] = q
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def min_degree_order(rows):
    """A greedy minimum-degree order of the symmetrised nonzero pattern of a
    square matrix whose rows list their columns: take a vertex of least
    degree in the elimination graph, join its neighbours into a clique (the
    fill its elimination makes) and repeat.  A heap holds (degree, vertex)
    entries; one whose degree has changed since it was pushed is skipped, and
    ties go to the lower index.  A cover Laplacian's sheets go first and the
    marks, which touch every sheet, last.  Oracle for the order in which
    linalg's elimination kernel takes its pivots.
    """
    adj = [set(row) for row in rows]
    for i, row in enumerate(rows):
        for j in row:
            adj[j].add(i)
    for i, nbrs in enumerate(adj):
        nbrs.discard(i)
    heap = [(len(nbrs), v) for v, nbrs in enumerate(adj)]
    heapq.heapify(heap)
    order = []
    while heap:
        d, v = heapq.heappop(heap)
        nbrs = adj[v]
        if nbrs is None or d != len(nbrs):
            continue
        adj[v] = None
        order.append(v)
        for w in nbrs:
            s = adj[w]
            s |= nbrs
            s.discard(v)
            s.discard(w)
            heapq.heappush(heap, (len(s), w))
    return order


def laurent_sub(a, b):
    """a - b: LaurentPoly itself offers only * and ==."""
    return LaurentPoly({e: a.coeffs.get(e, 0) - b.coeffs.get(e, 0) for e in a.coeffs.keys() | b.coeffs.keys()})


def bareiss_det_laurent(m):
    """Oracle for linalg.det_laurent: Bareiss fraction-free elimination over
    Z[g] with polynomial products and exact long division.

    Negative exponents are cleared row by row (multiply row i by g^{k_i}),
    and the result is shifted back by g^{-sum k_i}.
    """
    n = len(m)
    for row in m:
        if len(row) != n:
            raise LinalgError("matrix is not square")
    if n == 0:
        return LaurentPoly({0: 1})
    a = [list(row) for row in m]
    total_shift = 0
    for i in range(n):
        mins = [x.min_exp() for x in a[i] if not x.is_zero]
        if mins and min(mins) < 0:
            k = -min(mins)
            a[i] = [x.shift(k) for x in a[i]]
            total_shift += k
    sign = 1
    prev = LaurentPoly({0: 1})
    for k in range(n - 1):
        if a[k][k].is_zero:
            for i in range(k + 1, n):
                if not a[i][k].is_zero:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return LaurentPoly()
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = laurent_sub(a[i][j] * a[k][k], a[i][k] * a[k][j])
                a[i][j] = laurent_exact_div(num, prev)
            a[i][k] = LaurentPoly()
        prev = a[k][k]
    det = a[n - 1][n - 1]
    if sign < 0:
        det = laurent_sub(LaurentPoly(), det)
    return det.shift(-total_shift)


def interpolated_det_laurent(m):
    """Oracle for linalg.det_laurent on a dense matrix: evaluation at integer
    nodes by bareiss_det_int and exact interpolation over Z.

    Row i times g^-a_i, a_i its least exponent, has polynomial entries, so
    its determinant P has degree at most D = sum_i (b_i - a_i), b_i the
    row's largest exponent.  P is evaluated at x = 0..D; its forward
    differences at 0 are k! times its coefficients in the falling factorials
    x(x-1)...(x-k+1), which are multiplied out; det = g^(sum a_i) * P.
    """
    spans = [(min(es), max(es)) if (es := [e for x in row for e in x.coeffs]) else (0, 0) for row in m]
    terms = [[[(e - a, c) for e, c in y.coeffs.items()] for y in row] for row, (a, _) in zip(m, spans)]
    size = sum(b - a for a, b in spans) + 1
    values = []
    for x in range(size):
        powers = [x**k for k in range(max((b - a for a, b in spans), default=0) + 1)]
        values.append(bareiss_det_int([[sum(c * powers[k] for k, c in t) for t in row] for row in terms]))
    for k in range(1, size):  # values[k] becomes the k-th forward difference at 0
        for i in range(size - 1, k - 1, -1):
            values[i] -= values[i - 1]
    coeffs, falling = [0] * size, [1]  # falling: x(x-1)...(x-k+1), lowest first
    for k, v in enumerate(values):
        q, r = divmod(v, math.factorial(k))
        if r:
            raise LinalgError("a forward difference is not divisible by k!")
        for i, c in enumerate(falling):
            coeffs[i] += q * c
        falling = [(falling[i - 1] if i else 0) - k * (falling[i] if i < len(falling) else 0) for i in range(len(falling) + 1)]
    return LaurentPoly({i + sum(a for a, _ in spans): c for i, c in enumerate(coeffs)})


def _matmul(a, b):
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def companion_root_of_unity_product(f, n):
    """Oracle for linalg.root_of_unity_products at large n: prod of f(zeta)
    over the n-th roots of unity zeta != 1.

    Write f = g^s * Q(g), Q of degree d with leading coefficient c.  The
    product is (-1)^((n-1)(d+s)) * c^(n-1) * det(I + C + ... + C^(n-1)) for
    the companion matrix C of Q/c.  With B = c*C that sum is S / c^(n-1) for
    the integer S = sum_k c^(n-1-k) B^k, formed by doubling in O(d^3 log n);
    the product is then the sign times det(S) / c^((n-1)(d-1)).
    """
    if n == 1:
        return 1
    if f.is_zero:
        return 0
    s = f.min_exp()
    q = [f.coeffs.get(e, 0) for e in range(s, f.max_exp() + 1)]
    d, c = len(q) - 1, q[-1]
    sign = -1 if (n - 1) * (d + s) % 2 else 1
    if d == 0:
        return sign * c ** (n - 1)
    b = [[c if j == i - 1 else 0 for j in range(d - 1)] + [-q[i]] for i in range(d)]
    eye = [[int(i == j) for j in range(d)] for i in range(d)]
    total, power, cpow = eye, b, c  # S, B^k and c^k for k = 1
    for bit in bin(n)[3:]:
        scaled = [[x + cpow if i == j else x for j, x in enumerate(row)] for i, row in enumerate(power)]
        total, power, cpow = _matmul(scaled, total), _matmul(power, power), cpow * cpow
        if bit == "1":
            total = [[c * x + y for x, y in zip(tr, pr)] for tr, pr in zip(total, power)]
            power, cpow = _matmul(power, b), cpow * c
    value, rem = divmod(bareiss_det_int(total), c ** ((n - 1) * (d - 1)))
    if rem:
        raise LinalgError("root-of-unity product is not an integer")
    return sign * value


def ring_product(f, n):
    """Oracle: prod over zeta^n = 1, zeta != 1 of f(zeta) is the determinant of
    multiplication by f on Z[x] / (1 + x + ... + x^(n-1)).  Column k is x^k f
    modulo x^n - 1 with x^(n-1) replaced by -(1 + x + ... + x^(n-2))."""
    d = n - 1
    cyc = [0] * n  # f modulo x^n - 1
    for e, c in f.coeffs.items():
        cyc[e % n] += c
    m = [[0] * d for _ in range(d)]
    for k in range(d):
        col = [cyc[(i - k) % n] for i in range(n)]
        for i in range(d):
            m[i][k] = col[i] - col[d]
    return bareiss_det_int(m)


def laurent_pow(f, n):
    """f^n for n >= 0, by repeated squaring."""
    res, base = LaurentPoly({0: 1}), f
    while n:
        if n & 1:
            res = res * base
        base = base * base
        n >>= 1
    return res


def _strip(cs):
    """Coefficients lowest first as a tuple, trailing zeros dropped."""
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def poly_add(a, b):
    """Sum of two coefficient tuples (lowest first)."""
    return _strip(x + y for x, y in zip_longest(a, b, fillvalue=0))


def poly_mul(a, b):
    """Product of two coefficient tuples (lowest first)."""
    res = [0] * (len(a) + len(b))
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            res[i + j] += x * y
    return _strip(res)


class UnionFind:
    """Disjoint sets over hashable items, created on first use."""

    def __init__(self):
        self.parent = {}

    def find(self, x):
        p = self.parent.setdefault(x, x)
        while p != self.parent[p]:
            self.parent[p] = self.parent[self.parent[p]]
            p = self.parent[p]
        self.parent[x] = p
        return p

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb
            return True
        return False


def forest_subsets(g, size):
    """Yield (combo, uf): each acyclic edge subset of the given size as a
    tuple of Edge, with the union-find of its components."""
    for combo in combinations(g.edges, size):
        uf = UnionFind()
        if all(not e.is_loop and uf.union(e.u, e.v) for e in combo):
            yield combo, uf


def kappa_enumerate(g, cap=20):
    """Oracle for forests.kappa: count spanning trees exhaustively."""
    if len(g.edges) > cap:
        raise GraphError(f"{len(g.edges)} edges exceeds enumeration cap {cap}")
    size = len(g.vertices) - 1
    if size < 0:
        raise GraphError("kappa of the empty graph")
    return sum(1 for _ in forest_subsets(g, size))


def enumerate_spanning_trees(g, cap=20):
    """All spanning trees as frozensets of edge ids."""
    if len(g.edges) > cap:
        raise GraphError(f"{len(g.edges)} edges exceeds enumeration cap {cap}")
    return [frozenset(e.id for e in combo) for combo, _ in forest_subsets(g, len(g.vertices) - 1)]


def forest_count_by_roots(g, marked):
    """Oracle for forests.forest_count_bruteforce: the (|V| - t)-edge forests
    of g itself, t = len(marked), kept when the marks have distinct roots
    (t trees, one mark in each)."""
    t = len(marked)
    return sum(len({uf.find(v) for v in marked}) == t for _, uf in forest_subsets(g, len(g.vertices) - t))


def admissible_sets_by_trees(d):
    """Oracle for seal.admissible_sets: the spanning trees of G_R, built as a
    Multigraph on the marks with one edge per 2-segment (parallel ones
    included), as sets of 2-segment indices."""
    ends = [(*s.ramified, i) for i, s in enumerate(d.two_segments)]
    return {frozenset(combo) for combo in enumerate_spanning_trees(build_graph(d.ramified, ends))}


def prune_tails_quadratic(g, r):
    """Oracle for graph.prune_tails: rebuild the incidence map after every
    deletion and delete the first deletable vertex in vertex order."""
    vertices = list(g.vertices)
    edges = list(g.edges)
    while True:
        incident = {v: [] for v in vertices}
        for e in edges:
            incident[e.u].append(e)
            incident[e.v].append(e)
        victim = None
        for v in vertices:
            if r.is_ramified(v):
                continue
            es = incident[v]
            if len(es) == 1 and not es[0].is_loop:
                victim = v
                break
        if victim is None:
            break
        vertices.remove(victim)
        edges.remove(incident[victim][0])
    return Multigraph(vertices, edges)


def closure_groups_by_edge_ids(g, r, edge_ids):
    """Oracle for seal._closure_groups: a union-find over edge ids joins the
    edges at each unramified vertex; groups in the order of their first
    edges, each in the order of edge_ids."""
    uf = UnionFind()
    by_vertex = {}
    edge = {e.id: e for e in g.edges}
    for eid in edge_ids:
        uf.find(eid)
        e = edge[eid]
        for w in {e.u, e.v}:
            if not r.is_ramified(w):
                by_vertex.setdefault(w, []).append(eid)
    for eids in by_vertex.values():
        for other in eids[1:]:
            uf.union(eids[0], other)
    groups = {}
    for eid in edge_ids:
        groups.setdefault(uf.find(eid), []).append(eid)
    return list(groups.values())


def segment_subgraph(g, s):
    """Segment s of g as a Multigraph of its own: its vertices and edges, in
    g's order.  The tests' own builder, independent of the cut of X's
    Laplacian that the harnesses read their segment blocks from."""
    return Multigraph([v for v in g.vertices if v in s.vertices], [e for e in g.edges if e.id in s.edge_ids])


def segment_by_edge_ids(g, color, t, ram, edge_ids, is_loop=False):
    """The Segment of the given edge ids, their ends looked up in g."""
    vs = set()
    edge = {e.id: e for e in g.edges}
    for eid in edge_ids:
        e = edge[eid]
        vs.update((e.u, e.v))
    return Segment(color, t, tuple(ram), frozenset(edge_ids), frozenset(vs), is_loop)


def path_decompose(g, r):
    """Oracle for seal.decompose: the pairwise formulation over listed paths.

      1. for each pair of distinct ramified vertices, collect the edges on
         admissible paths between them;
      2. fail if an edge occurs for two pairs;
      3. a pair's edges form its 2-segments: each direct edge alone, the rest
         by the closure of "shares an unramified vertex";
      4. the leftover edges, grouped by the same closure, are 1-segments;
      5. fail if a leftover group does not touch exactly one ramified vertex.

    The conflict witness depends on set iteration order; compare reasons."""
    if not g.connected():
        raise DecompositionError("graph is disconnected")
    ram = [v for v in g.vertices if r.is_ramified(v)]
    if not ram:
        raise DecompositionError("no ramified vertex")
    edge = {e.id: e for e in g.edges}
    owner = {}
    two_segments = []
    for v, v2 in combinations(ram, 2):
        eids = {eid for path in admissible_paths(g, r, v, v2) for eid in path.edge_ids}
        for eid in eids:
            if eid in owner:
                raise DecompositionError(
                    "edge lies on admissible paths between two ramified pairs",
                    {"edge": eid, "pairs": [list(owner[eid]), [v, v2]]},
                )
            owner[eid] = (v, v2)
        direct = [eid for eid in eids if {edge[eid].u, edge[eid].v} == {v, v2}]
        rest = [eid for eid in eids if eid not in direct]
        two_segments += [((v, v2), piece) for piece in [[eid] for eid in direct] + closure_groups_by_edge_ids(g, r, rest)]
    one_segments = []
    for piece in closure_groups_by_edge_ids(g, r, [e.id for e in g.edges if e.id not in owner]):
        touched = {w for eid in piece for w in (edge[eid].u, edge[eid].v) if r.is_ramified(w)}
        if len(touched) != 1:
            raise DecompositionError(
                "uncoloured edge group touches %d ramified vertices" % len(touched),
                {"edges": sorted(piece), "ramified": sorted(map(str, touched))},
            )
        one_segments.append((touched.pop(), piece, len(piece) == 1 and edge[piece[0]].is_loop))
    two_segments.sort(key=lambda sp: (str(min(map(str, sp[0]))), str(max(map(str, sp[0]))), sorted(sp[1])))
    one_segments.sort(key=lambda sp: (str(sp[0]), sorted(sp[1])))
    segments = [segment_by_edge_ids(g, c, 2, sorted(ends, key=str), piece) for c, (ends, piece) in enumerate(two_segments)]
    segments += [
        segment_by_edge_ids(g, c, 1, (v,), piece, is_loop)
        for c, (v, piece, is_loop) in enumerate(one_segments, start=len(two_segments))
    ]
    return SegmentDecomposition(g, tuple(segments), tuple(ram))


@pytest.fixture
def rng():
    return random.Random(20260824)
