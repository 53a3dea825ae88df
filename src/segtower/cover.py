"""Derived covers of voltage graphs at finite tower levels.

At level n the deck group is Z/p^n.  The fiber over a vertex v has
p^min(n, k_v) elements (k_v the ramification depth, unramified vertices
behave like k_v = infinity), and every edge fiber has p^n elements.  The
edge (e, t) joins (o(e), t mod m_o) to (t(e), (t + a_e) mod m_t) where a_e
is the voltage exponent of e and m_v the fiber modulus of v.

Tree counts along the tower build no cover (see iwasawa.tower_kappas).
build_cover serves the `cover` subcommand; the theorem harnesses count their
level-n witness on cover_laplacian, and the general one a segment past the
work limit on lift_laplacian.  build_cover and lift_laplacian read one
lift rule (lifts).  segment_preimage has no caller in the library (the
benchmark's tracer wraps it by name).
"""

from __future__ import annotations

from typing import NamedTuple

from .graph import SIZE_LIMIT, Edge, GraphError, Multigraph, RamificationData, check_marks, check_size, check_voltage
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


def _fibres(g: Multigraph, r: RamificationData, voltage, p: int, n: int):
    """({v: fibre size}, p^m) of the level-n cover, p^m the lifts of each
    edge, after its checks: the level, the request (check_request), then a
    cover past SIZE_LIMIT, refused before anything is built."""
    if n < 0:
        raise GraphError("cover level must be non-negative")
    check_request(g, r, voltage, p)
    # from level m on, a fibre that still grows or one over an edge is past
    # SIZE_LIMIT: a cover within it has the fibres of level m, p^n unformed
    m = min(n, SIZE_LIMIT.bit_length())
    check_size(level_size(g, r, p, m), len(g.edges) * p**m, f"the level-{n} cover")
    return {v: fibre_size(r, p, m, v) for v in g.vertices}, p**m


def lifts(edges, mods, pm, voltage):
    """The pm lifts of each edge (eid, u, v), with fibre sizes mods:
    (eid, u, v, [(i, j) for t < pm]), the lift (e, t) joining (u, i) to (v, j)."""
    for eid, u, v in edges:
        a, mu, mv = voltage.get(eid, 0), mods[u], mods[v]
        yield eid, u, v, [(t % mu, (t + a) % mv) for t in range(pm)]


def build_cover(g: Multigraph, r: RamificationData, voltage, p: int, n: int) -> CoverGraph:
    """Build the level-n derived cover as an explicit multigraph.

    voltage maps base edge id to the exponent a_e carried by the edge in its
    stored direction (u -> v); the reverse dart carries -a_e.  Missing edges
    default to voltage 0.  n = 0 returns an isomorphic copy of the base.
    """
    mods, pm = _fibres(g, r, voltage, p, n)
    vertices = [(v, i) for v in g.vertices for i in range(mods[v])]
    edges = []
    eproj = {}
    for eid, u, v, ends in lifts(g.edges, mods, pm, voltage or {}):
        for t, (i, j) in enumerate(ends):
            cid = f"{eid}@{t}"
            edges.append(Edge(cid, (u, i), (v, j)))
            eproj[cid] = eid

    graph = Multigraph(vertices, edges)
    residual = RamificationData(
        {(v, i): max(k - n, 0) for v, k in r.depths.items() for i in range(mods[v])}
    )
    return CoverGraph(graph, g, residual, eproj, n)


def lift_laplacian(edges, mods, pm, voltage, first, size):
    """The size rows of the Laplacian of the lifts of edges (see lifts),
    where (v, i) has row first[v] + i and a negative row is left out.  A
    lift whose ends coincide adds nothing."""
    rows = [{} for _ in range(size)]
    for _, u, v, ends in lifts(edges, mods, pm, voltage):
        fu, fv = first[u], first[v]
        for i, j in ends:
            i, j = fu + i, fv + j
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
    """graph.laplacian(build_cover(...).graph, its first vertex), after the
    same checks, filled straight from the p^n lifts of each edge of g: the
    det_int block of kappa(X_n)."""
    mods, pm = _fibres(g, r, voltage, p, n)
    first, size = {}, -1  # the row of each (v, 0); the cover's first vertex has none
    for v in g.vertices:
        first[v] = size
        size += mods[v]
    return lift_laplacian(g.edges, mods, pm, voltage or {}, first, size)


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
