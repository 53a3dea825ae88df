"""Derived covers of voltage graphs at finite tower levels.

At level n the deck group is Z/p^n.  The fiber over a vertex v has
p^min(n, k_v) elements (k_v the ramification depth, unramified vertices
behave like k_v = infinity), and every edge fiber has p^n elements.  The
edge (e, t) joins (o(e), t mod m_o) to (t(e), (t + a_e) mod m_t) where a_e
is the voltage exponent of e and m_v the fiber modulus of v.

Tree counts along the tower build no cover (see iwasawa.tower_kappas);
covers serve the `cover` subcommand and the theorem harnesses.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import SIZE_LIMIT, Edge, GraphError, Multigraph, RamificationData, check_marks, check_size, check_voltage
from .linalg import PRIME_TEST_LIMIT, is_prime


@dataclass(frozen=True)
class CoverGraph:
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


def build_cover(g: Multigraph, r: RamificationData, voltage, p: int, n: int) -> CoverGraph:
    """Build the level-n derived cover as an explicit multigraph.

    voltage maps base edge id to the exponent a_e carried by the edge in its
    stored direction (u -> v); the reverse dart carries -a_e.  Missing edges
    default to voltage 0.  n = 0 returns an isomorphic copy of the base.
    """
    if n < 0:
        raise GraphError("cover level must be non-negative")
    check_request(g, r, voltage, p)
    # from level m on, a fibre that still grows or one over an edge is past
    # SIZE_LIMIT: a cover within it has the fibres of level m, p^n unformed
    m = min(n, SIZE_LIMIT.bit_length())
    mods = {v: fibre_size(r, p, m, v) for v in g.vertices}
    pm = p**m
    check_size(sum(mods.values()), len(g.edges) * pm, f"the level-{n} cover")
    voltage = voltage or {}

    vertices = [(v, i) for v in g.vertices for i in range(mods[v])]
    edges = []
    eproj = {}
    for e in g.edges:
        a = voltage.get(e.id, 0)
        for t in range(pm):
            cu = (e.u, t % mods[e.u])
            cv = (e.v, (t + a) % mods[e.v])
            eid = f"{e.id}@{t}"
            edges.append(Edge(eid, cu, cv))
            eproj[eid] = e.id

    graph = Multigraph(vertices, edges)
    residual = RamificationData(
        {(v, i): max(k - n, 0) for v, k in r.depths.items() for i in range(mods[v])}
    )
    return CoverGraph(graph, g, residual, eproj, n)


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
