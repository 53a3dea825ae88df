"""Derived covers of voltage graphs at finite tower levels.

At level n the deck group is Z/p^n.  The fiber over a vertex v has
p^min(n, k_v) elements (k_v the ramification depth, unramified vertices
behave like k_v = infinity), and every edge fiber has p^n elements.  The
edge (e, t) joins (o(e), t mod m_o) to (t(e), (t + a_e) mod m_t) where a_e
is the voltage exponent of e and m_v the fiber modulus of v.

Tree counts along the tower build no cover (see iwasawa.tower_kappas).
build_cover serves the `cover` subcommand.  lift_laplacian alone numbers
lifted rows: the theorem harnesses count their witness on it (through
cover_laplacian), and the general one each segment it counts on its lifts.
It and build_cover read one lift rule (lifts).  segment_preimage has no
caller in the library (the benchmark's tracer wraps it by name).
"""

from __future__ import annotations

from typing import NamedTuple

from .graph import SIZE_LIMIT, Edge, GraphError, Multigraph, RamificationData, check_marks, check_size, check_voltage, heaviest
from .linalg import PRIME_TEST_LIMIT, is_prime


class CoverGraph(NamedTuple):
    graph: Multigraph
    base: Multigraph
    ram: RamificationData  # residual ramification of the cover's vertices (v, i), each over v
    edge_projection: dict  # cover edge id -> base edge id
    n: int


def check_prime(p, name="p"):
    """Raise GraphError unless p is a prime, by deterministic Miller-Rabin
    (linalg.is_prime), which is exact only below 3 * 10^23."""
    if p >= PRIME_TEST_LIMIT:
        raise GraphError(f"{name} must be below 3 * 10^23, the limit of the primality test, got {p}")
    if not is_prime(p):
        raise GraphError(f"{name} must be a prime, got {p}")


def check_request(g: Multigraph, r: RamificationData, voltage, p: int):
    """GraphError on a bad p, mark or voltage, checked in that order: what every entry point runs first."""
    check_prime(p)
    check_marks(g, r)
    check_voltage(voltage)


def fibre_size(r: RamificationData, p: int, n: int, v) -> int:
    """p^min(n, k_v): the number of vertices over v at level n."""
    return p ** min(n, r.depths.get(v, n))


def level_size(g: Multigraph, r: RamificationData, p: int, n: int) -> int:
    """|V(X_n)|: p^n vertices over each unmarked vertex, fibre_size over each mark."""
    return (len(g.vertices) - len(r.depths)) * p**n + sum(fibre_size(r, p, n, v) for v in r.depths)


def _fibres(g: Multigraph, r: RamificationData, voltage, p: int, n: int) -> int:
    """The level m <= n whose fibres the level-n cover has, each edge with
    p^m lifts, after its checks: the level, the request (check_request),
    then a cover past SIZE_LIMIT, refused before anything is built."""
    if n < 0:
        raise GraphError("cover level must be non-negative")
    check_request(g, r, voltage, p)
    # from level m on, a fibre that still grows or one over an edge is past
    # SIZE_LIMIT: a cover within it has the fibres of level m, p^n unformed
    m = min(n, SIZE_LIMIT.bit_length())
    check_size(level_size(g, r, p, m), len(g.edges) * p**m, f"the level-{n} cover")
    return m


def lifts(edges, fibres, pm, voltage):
    """The pm lifts of each edge (eid, u, v), fibres[v] listing what stands
    for (v, i) in the order of i: (eid, the ends of (e, t) in the order of
    t), the lift (e, t) joining (u, t mod |fibres[u]|) to (v, (t + a_e) mod
    |fibres[v]|).  Each fibre's size divides pm."""
    for eid, u, v in edges:
        fu, fv = fibres[u], fibres[v]
        a = voltage.get(eid, 0) % len(fv)
        yield eid, zip(fu * (pm // len(fu)), (fv[a:] + fv[:a]) * (pm // len(fv)))


def build_cover(g: Multigraph, r: RamificationData, voltage, p: int, n: int) -> CoverGraph:
    """Build the level-n derived cover as an explicit multigraph.

    voltage maps base edge id to the exponent a_e carried by the edge in its
    stored direction (u -> v); the reverse dart carries -a_e.  Missing edges
    default to voltage 0.  n = 0 returns an isomorphic copy of the base.
    """
    m = _fibres(g, r, voltage, p, n)
    fibres = {v: [(v, i) for i in range(fibre_size(r, p, m, v))] for v in g.vertices}
    edges = []
    eproj = {}
    for eid, ends in lifts(g.edges, fibres, p**m, voltage or {}):
        for t, (x, y) in enumerate(ends):
            cid = f"{eid}@{t}"
            edges.append(Edge(cid, x, y))
            eproj[cid] = eid

    graph = Multigraph([w for v in g.vertices for w in fibres[v]], edges)
    residual = RamificationData({w: max(k - n, 0) for v, k in r.depths.items() for w in fibres[v]})
    return CoverGraph(graph, g, residual, eproj, n)


def lift_laplacian(g: Multigraph, r: RamificationData, voltage, p: int, n: int, drop, part=None):
    """The sparse rows of the Laplacian of the level-n lifts of g's edges, or
    of part's alone (a segment), over their fibres in build_cover's vertex
    order, without the row of (v, 0) for each v in drop.  A lift whose ends
    coincide adds nothing."""
    index, size = {}, 0  # index[v][i]: the row of (v, i), -1 when it is left out
    for v in g.vertices:
        if part is None or v in part.vertices:
            k, out = fibre_size(r, p, n, v), v in drop
            index[v] = [-1] * out + list(range(size, size + k - out))
            size += k - out
    edges = g.edges if part is None else [e for e in g.edges if e.id in part.edge_ids]
    rows = [{} for _ in range(size)]
    for _, ends in lifts(edges, index, p**n, voltage or {}):
        for i, j in ends:
            if i != j:
                if i >= 0:
                    rows[i][i] = rows[i].get(i, 0) + 1
                if j >= 0:
                    rows[j][j] = rows[j].get(j, 0) + 1
                    if i >= 0:
                        rows[i][j] = rows[i].get(j, 0) - 1
                        rows[j][i] = rows[j].get(i, 0) - 1
    return rows


def cover_laplacian(g: Multigraph, r: RamificationData, voltage, p: int, n: int):
    """graph.laplacian(build_cover(...).graph, the lift (v, 0) of largest degree deg(v) * p^(m - min(m, k_v)),
    m the fibres' level: graph.heaviest), after the same checks: the det_int block of kappa(X_n)."""
    m = _fibres(g, r, voltage, p, n)
    return lift_laplacian(g, r, voltage, p, m, heaviest(g.vertices, lambda v: g.degree(v) * p**m // fibre_size(r, p, m, v)))


def segment_preimage(c: CoverGraph, segment):
    """(graph, ramification) over a base segment: the fibres over its
    vertices in cover order and the edges over its edges; the ramification
    marks the fibres over its ramified ends."""
    if foreign := segment.edge_ids - {e.id for e in c.base.edges}:
        raise GraphError(f"segment edge {min(foreign, key=str)!r} is not an edge of the cover's base")
    vertices = [w for w in c.graph.vertices if w[0] in segment.vertices]
    edges = [e for e in c.graph.edges if c.edge_projection[e.id] in segment.edge_ids]
    marked = {v: k for v, k in c.ram.depths.items() if v[0] in segment.ramified}
    return Multigraph(vertices, edges), RamificationData(marked)
