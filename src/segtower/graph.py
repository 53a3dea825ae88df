"""Finite multigraphs with ramification marks.

Loops and parallel edges are allowed; a loop contributes 2 to the degree of
its vertex.  Vertex and edge identifiers are stable, so derived objects
(segments, cover fibers) can refer back to base objects.  acyclic_subsets,
the one enumerator, counts spanning trees for forests and seal.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Hashable
from itertools import combinations
from typing import NamedTuple

from .linalg import LaurentPoly


class GraphError(ValueError):
    pass


SIZE_LIMIT = 2**11  # vertices + edges of a graph built explicitly (covers, families)


def check_size(vertices, edges, what):
    """Refuse, before building it, a graph past SIZE_LIMIT."""
    if vertices + edges > SIZE_LIMIT:
        raise GraphError(f"{what} would have at least {vertices} vertices and {edges} edges, past 2^{SIZE_LIMIT.bit_length() - 1} in all")


# Every record of the package is a NamedTuple, not a frozen dataclass: cheaper to build per
# request, and no class made by exec nor dataclasses' import of inspect at every call's start-up.
class Edge(NamedTuple):
    id: str
    u: object
    v: object

    @property
    def is_loop(self):
        return self.u == self.v

    def other(self, w):
        if w == self.u:
            return self.v
        if w == self.v:
            return self.u
        raise GraphError(f"vertex {w!r} is not an endpoint of edge {self.id!r}")


class Multigraph:
    """Immutable-by-convention multigraph. Do not mutate after construction."""

    def __init__(self, vertices, edges):
        vs = tuple(vertices)
        es = tuple(edges)
        unknown = None  # the id of the first edge with an unknown end
        try:  # one incidence pass validates the ends; an unknown u hides v
            incident = {v: [] for v in vs}
            for e in es:
                _, u, v = e
                if (at_u := incident.get(u)) is None or (at_v := incident.get(v)) is None:
                    unknown = e.id if unknown is None else unknown
                    continue
                at_u.append(e)
                at_v.append(e)  # loops listed twice: degree contribution 2
        except TypeError:
            raise GraphError("vertex ids and edge endpoints must be hashable") from None
        if len(incident) != len(vs):
            raise GraphError("duplicate vertex id")
        if len({e.id for e in es}) != len(es):
            seen = set()  # name the first id seen twice
            dup = next(e.id for e in es if e.id in seen or seen.add(e.id))
            raise GraphError(f"duplicate edge id {dup!r}")
        if unknown is not None:
            raise GraphError(f"edge {unknown!r} has unknown endpoint")
        self.vertices = vs
        self.edges = es
        self._incident = incident

    def has_vertex(self, v):
        return v in self._incident

    def degree(self, v):
        return len(self._incident[v])

    def incident_edges(self, v):
        """Edges at v; loops appear twice (once per end)."""
        return list(self._incident[v])

    def connected(self) -> bool:
        if not self.vertices:
            return True
        seen = {self.vertices[0]}
        todo = deque(seen)
        while todo:
            w = todo.popleft()
            for _, u, v in self._incident[w]:
                x = v if u == w else u
                if x not in seen:
                    seen.add(x)
                    todo.append(x)
        return len(seen) == len(self.vertices)

    def __repr__(self):
        return f"Multigraph(|V|={len(self.vertices)}, |E|={len(self.edges)})"


def acyclic_subsets(pairs, size):
    """Yield the index tuple, increasing, of each size-subset of the (u, v)
    pairs that forms a forest.  Each subset keeps its trees as vertex lists,
    the smaller merged into the larger; a loop (u, u) closes a cycle at once."""
    for combo in combinations(range(len(pairs)), size):
        tree = {}  # vertex -> its tree's vertex list
        for i in combo:
            u, v = pairs[i]
            tu = tree.setdefault(u, [u])
            tv = tree.get(v)
            if tv is None:
                tu.append(v)
                tree[v] = tu
            elif tv is tu:
                break
            else:
                if len(tu) < len(tv):
                    tu, tv = tv, tu
                tu += tv
                tree.update(dict.fromkeys(tv, tu))
        else:
            yield combo


class RamificationData:
    """Map vertex -> ramification depth k_v >= 0; absent vertices unramified.

    Depth 0 means totally ramified (a single vertex above at every level).
    """

    def __init__(self, depths=None):
        self.depths = {}
        for v, k in (depths or {}).items():
            if type(k) is not int or k < 0:
                raise GraphError(f"ramification depth of {v!r} must be a non-negative integer, got {k!r}")
            self.depths[v] = k

    @classmethod
    def totally_ramified(cls, vertices):
        return cls({v: 0 for v in vertices})

    def is_ramified(self, v):
        return v in self.depths

    def __eq__(self, other):
        if not isinstance(other, RamificationData):
            return NotImplemented
        return self.depths == other.depths

    def __repr__(self):
        return f"RamificationData({self.depths})"


def check_marks(g: Multigraph, r: RamificationData):
    """Raise GraphError unless every mark of r is a vertex of g."""
    for v in r.depths:
        if not g.has_vertex(v):
            raise GraphError(f"ramified vertex {v!r} is not a vertex of the graph")


def check_voltage(voltage):
    """Raise GraphError unless every value of voltage, {edge id: exponent}
    or None, is an int: bool and float are not voltages."""
    for eid, a in (voltage or {}).items():
        if type(a) is not int:
            raise GraphError(f"voltage of edge {eid!r} must be an integer, got {a!r}")


def build_graph(vertex_ids, edges) -> Multigraph:
    """Build a multigraph from (u, v) or (u, v, edge_id) tuples.

    Edges without an explicit id get consecutive ids e0, e1, ...
    """
    out = []
    used = set()
    auto = 0
    for spec in edges:
        if len(spec) == 2:
            u, v = spec
            while f"e{auto}" in used:
                auto += 1
            e = Edge(f"e{auto}", u, v)
        else:
            u, v, eid = spec
            e = Edge(eid, u, v)
        if e.id in used:
            raise GraphError(f"duplicate edge id {e.id!r}")
        used.add(e.id)
        out.append(e)
    return Multigraph(vertex_ids, out)


def laplacian_index(g: Multigraph, deleted=()):
    """{vertex: row} of laplacian(g, deleted): the vertices not in deleted,
    in vertex order."""
    deleted = set(deleted)
    return {v: i for i, v in enumerate(v for v in g.vertices if v not in deleted)}


def heaviest(vertices, degree):
    """(The first of vertices of largest degree(v),), or () with none: the row tree counts delete."""
    return (max(vertices, key=degree),) if vertices else ()


def laplacian(g: Multigraph, deleted=(), voltage=None):
    """Sparse rows [{column: entry}] of the nonzero entries of the Laplacian
    Val - A without the rows and columns of the vertices in deleted, rows
    as laplacian_index numbers them, from one pass over the edges: every
    block that linalg.det_int takes (int entries, when voltage holds no
    nonzero value) and linalg.det_laurent takes (those, or with a voltage
    map {edge id: a} with some a != 0: LaurentPoly entries in g, each dart
    u -> v of voltage a adding -g^a at (v, u)).  Loops add 2 to both the
    degree and the adjacency diagonal, so at voltage 0 they cancel.
    """
    ints, index = not any((voltage or {}).values()), laplacian_index(g, deleted)
    rows = [{i: g.degree(v)} if ints else {i: {0: g.degree(v)}} for v, i in index.items()]
    for eid, u, v in g.edges:
        if u in index and v in index:
            i, j = index[u], index[v]
            if ints:
                rows[i][j] = rows[i].get(j, 0) - 1
                rows[j][i] = rows[j].get(i, 0) - 1
            else:
                a = voltage.get(eid, 0)
                for row, col, b in ((j, i, a), (i, j, -a)):
                    cs = rows[row].setdefault(col, {})
                    cs[b] = cs.get(b, 0) - 1
    if not ints:
        return [{j: x for j, cs in row.items() if (x := LaurentPoly(cs)).coeffs} for row in rows]
    for i, row in enumerate(rows):  # a vertex with no edge but loops
        if not row[i]:
            del row[i]
    return rows


def prune_tails(g: Multigraph, r: RamificationData) -> Multigraph:
    """Iteratively delete unramified vertices with a single neighbour joined
    by a single edge.  The spanning-tree count is unchanged.

    The result is that of deleting, each time, the first deletable vertex
    in vertex order.  Deletions commute but for the last edge of a component
    that is a tree without marks: that rule keeps the tree's last vertex in
    vertex order, found by one walk of the tree.  So each tail is walked
    from its leaf inwards, in order of the leaves, and degrees are kept only
    for the vertices a deletion reaches.  Only unmarked vertices go, so r
    holds for the result unchanged.  A g with no tail (no unmarked vertex of
    degree 1) is returned itself.
    """
    check_marks(g, r)
    incident, marks = g._incident, r.depths
    leaves = [v for v, es in incident.items() if len(es) == 1 and v not in marks]  # a loop counts 2: never one
    if not leaves:
        return g
    degree = {}  # the degrees that deletions lowered
    gone_vertices, gone_edges = set(), set()
    position = None  # vertex order, built for the first tree without marks
    for v in leaves:
        while v not in gone_vertices:
            for e in incident[v]:  # v's last edge
                if e.id not in gone_edges:
                    break
            else:  # a tree without marks left v alone
                break
            w = e.v if e.u == v else e.u
            d = degree.get(w, len(incident[w]))
            if d == 1 and w not in marks:  # the last edge of a tree without marks
                if position is None:
                    position = {x: i for i, x in enumerate(g.vertices)}
                tree, todo = {v}, [v]
                while todo:
                    for _, a, b in incident[todo.pop()]:
                        for x in (a, b):
                            if x not in tree:
                                tree.add(x)
                                todo.append(x)
                gone_vertices |= tree
                gone_vertices.remove(max(tree, key=position.__getitem__))
                gone_edges.add(e.id)
                break
            gone_vertices.add(v)
            gone_edges.add(e.id)
            degree[w] = d - 1
            if d != 2 or w in marks:
                break
            v = w
    return Multigraph(
        [v for v in g.vertices if v not in gone_vertices],
        [e for e in g.edges if e.id not in gone_edges],
    )


def glue(g1: Multigraph, r1: RamificationData, g2: Multigraph, r2: RamificationData, identification):
    """Glue g2 onto g1 by identifying g ramified vertex pairs (1 <= g <= 2).

    identification is a list of (vertex_in_g1, vertex_in_g2) pairs.  Vertices
    and edges of g2 whose ids collide with g1 are renamed with a "'" suffix.
    Identified vertices keep g1's id and depth.
    """
    pairs = list(identification)
    if not 1 <= len(pairs) <= 2:
        raise GraphError("identification must list 1 or 2 vertex pairs")
    for a, b in pairs:
        if not g1.has_vertex(a) or not g2.has_vertex(b):
            raise GraphError(f"identification pair ({a!r}, {b!r}) references a missing vertex")
        if not r1.is_ramified(a) or not r2.is_ramified(b):
            raise GraphError(f"identification pair ({a!r}, {b!r}) references an unramified vertex")
    if len({a for a, _ in pairs}) != len(pairs) or len({b for _, b in pairs}) != len(pairs):
        raise GraphError("identification pairs must be distinct on both sides")

    vertices = list(g1.vertices)
    taken = set(vertices)
    vmap = {b: a for a, b in pairs}
    for v in g2.vertices:
        if v in vmap:
            continue
        name = v
        while name in taken:
            name = f"{name}'"
        vmap[v] = name
        taken.add(name)
        vertices.append(name)

    edge_ids = {e.id for e in g1.edges}
    edges = list(g1.edges)
    for e in g2.edges:
        eid = e.id
        while eid in edge_ids:
            eid = f"{eid}'"
        edge_ids.add(eid)
        edges.append(Edge(eid, vmap[e.u], vmap[e.v]))

    depths = dict(r1.depths)
    for v, k in r2.depths.items():
        depths.setdefault(vmap[v], k)
    return Multigraph(vertices, edges), RamificationData(depths)


# --- shared JSON format -----------------------------------------------------

def graph_to_json(g: Multigraph, r: RamificationData, voltage=None) -> dict:
    voltage = voltage or {}
    return {
        "vertices": list(g.vertices),
        "edges": [
            {"id": e.id, "from": e.u, "to": e.v, **({"voltage": voltage[e.id]} if voltage.get(e.id) else {})}
            for e in g.edges
        ],
        "ramified": [{"vertex": v, "depth": k} for v, k in r.depths.items()],
    }


def graph_from_json(obj):
    """Parse the shared JSON format; returns (graph, ramification, voltage).

    Malformed input raises GraphError: ids must be hashable and distinct as
    strings, voltages and depths integers, and ramified vertices vertices of
    the graph, each listed once.  One loop reads each edge's ends, then its
    id (str of "id", e<i> without one), then its voltage, judged as
    check_voltage judges it."""
    if not isinstance(obj, dict):
        raise GraphError("graph JSON must be an object")
    try:
        vertices = obj["vertices"]
        raw_edges = obj["edges"]
    except KeyError as exc:
        raise GraphError(f"graph JSON missing field: {exc}") from None
    marks = obj.get("ramified", [])
    if not all(isinstance(x, list) for x in (vertices, raw_edges, marks)):
        raise GraphError("vertices, edges and ramified must be lists")
    edges = []
    voltage = {}
    for i, e in enumerate(raw_edges):
        try:
            u, v = e["from"], e["to"]
        except (KeyError, TypeError):
            raise GraphError(f"edge #{i} missing from/to") from None
        eid = str(e["id"]) if "id" in e else f"e{i}"
        edges.append(Edge(eid, u, v))
        a = e.get("voltage", 0)
        if type(a) is not int:
            raise GraphError(f"voltage of edge {eid!r} must be an integer, got {a!r}")
        if a:
            voltage[eid] = a
    g = Multigraph(vertices, edges)
    if len(set(map(str, g.vertices))) != len(g.vertices):  # replies print ids as strings
        raise GraphError('vertex ids must differ as strings (1 and "1" do not)')
    depths = {}
    for m in marks:
        try:
            v = m["vertex"]
        except (KeyError, TypeError):
            raise GraphError("ramified entries need a 'vertex' field") from None
        if not isinstance(v, Hashable) or not g.has_vertex(v):
            raise GraphError(f"ramified vertex {v!r} is not a vertex of the graph")
        if v in depths:
            raise GraphError(f"ramified vertex {v!r} is listed twice")
        depths[v] = m.get("depth", 0)
    return g, RamificationData(depths), voltage
