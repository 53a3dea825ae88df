"""Segment decomposition of a multigraph with its tails pruned.

Tails change neither kappa nor F_t, so decompose first deletes unmarked
pendant vertices until none is left (graph.prune_tails).  A 2-segment
collects the edges lying on admissible paths (simple paths with unramified
interior) between one fixed pair of adjacent ramified vertices; a 1-segment
is a block of leftover edges hanging off a single ramified vertex.
Decomposition fails when some edge lies on admissible paths between two
different ramified pairs.

No path is listed.  The closure classes of "shares an unramified vertex"
over all edges are the direct edges and loops at ramified vertices, and the
components of X minus its ramified vertices with their attaching edges:
one pass over the Edge tuples labels the components, a second groups the
edges by label and collects each class's edge ids and marks, each class in
the order of its first edge.  An admissible
path runs inside one class, so each class is judged by the ramified
vertices it touches:

  1. three or more, a, b, c first in vertex order: fail; the witness is the
     first edge from a into the component, on admissible a-b and a-c paths;
  2. one: the class is a 1-segment (a loop segment if it is one loop);
  3. two, v and v2: an edge is on an admissible v-v2 path iff it shares a
     biconnected block with a virtual edge v-v2.  If the block is the whole
     class, the class is a 2-segment; else the rest, which avoids v and v2,
     fails as uncoloured (its first closure group is the witness).

Conflicts are reported before uncoloured groups.  admissible_sets lists the
spanning trees of G_R, the marks joined by the 2-segments.
"""

from __future__ import annotations

from typing import NamedTuple

from .graph import GraphError, Multigraph, RamificationData, acyclic_subsets, prune_tails


class PathCapExceeded(RuntimeError):
    def __init__(self, pair, partial_count, cap):
        self.pair = pair
        self.partial_count = partial_count
        self.cap = cap
        super().__init__(f"admissible path cap {cap} exceeded for pair {pair} (found {partial_count})")


class DecompositionError(ValueError):
    """No segment decomposition exists; carries a structured witness."""

    def __init__(self, reason, witness=None):
        self.reason = reason
        self.witness = witness or {}
        super().__init__(reason)


class AdmissiblePath(NamedTuple):
    """Simple path between ramified vertices through unramified interior."""

    vertices: tuple  # v_0 .. v_m, endpoints ramified (possibly equal)
    edge_ids: tuple  # m edge ids in path order


class Segment(NamedTuple):
    color: int
    t: int  # 1 or 2
    ramified: tuple  # one vertex for t=1, two for t=2
    edge_ids: frozenset
    vertices: frozenset
    is_loop: bool = False  # loop edge at a ramified vertex, special-cased


class SegmentDecomposition(NamedTuple):
    graph: Multigraph  # X with its tails pruned: the segments partition its edges
    segments: tuple  # 2-segments first, then 1-segments
    ramified: tuple

    @property
    def l(self):
        return len(self.ramified)

    @property
    def k(self):
        return len(self.segments)

    @property
    def k_prime(self):
        """Number of 2-segments (they come first)."""
        return sum(1 for s in self.segments if s.t == 2)

    @property
    def two_segments(self):
        return self.segments[: self.k_prime]


def admissible_paths(g: Multigraph, r: RamificationData, v, v2, cap=10000):
    """All simple admissible paths between ramified v and v2, once per
    direction class.  For v == v2 these are the simple cycles through v with
    unramified interior, including 2-cycles from parallel edges; loop edges
    at v are not reported (they are handled as 1-segments downstream)."""
    if not r.is_ramified(v) or not r.is_ramified(v2):
        raise GraphError("admissible paths are only defined between ramified vertices")
    results, seen = [], set()

    def extend(x, vs, eids):  # eids: the path's edges so far, in order
        for e in g.incident_edges(x):
            if e.is_loop or e.id in eids:
                continue
            w = e.other(x)
            if w == v2:
                if (key := frozenset(eids + (e.id,))) not in seen:
                    seen.add(key)
                    results.append(AdmissiblePath(vs + (w,), eids + (e.id,)))
                    if len(results) > cap:
                        raise PathCapExceeded((v, v2), len(results), cap)
            elif not r.is_ramified(w) and w not in vs:
                extend(w, vs + (w,), eids + (e.id,))

    extend(v, (v,), ())
    return results


def _closure_groups(edges, r):
    """The closure classes of "shares an unramified vertex" over edges (Edge
    tuples), in the order of their first edges: one pass labels the
    components of the edges' unramified vertices, a second groups the edges
    by label.  An edge with no unramified end is alone.  Each class comes as
    (its edges in edge order, their ids, the set of marks they touch, its
    vertex set): the second pass collects the ids and the marks, and the
    vertex set is the component's list from the first with those marks."""
    marks, comp = r.depths, {}  # unramified vertex -> its component's vertex list
    for _, u, v in edges:
        if u in marks:
            u, v = v, u
        if u in marks:
            continue
        cu = comp.setdefault(u, [u])
        cv = cu if v in marks else comp.get(v)
        if cv is None:
            cu.append(v)
            comp[v] = cu
        elif cv is not cu:  # the smaller component joins the larger
            if len(cu) < len(cv):
                cu, cv = cv, cu
            cu += cv
            comp.update(dict.fromkeys(cv, cu))
    groups = {}  # a component by its list's identity, an edge between marks by itself
    for e in edges:
        eid, u, v = e
        cu, cv = comp.get(u), comp.get(v)  # None: a mark
        c = cu or cv
        key = id(c) if c else e
        group = groups.get(key)
        if group is None:
            group = groups[key] = ([], [], set(), c or ())
        group[0].append(e)
        group[1].append(eid)
        if cu is None:
            group[2].add(u)
        if cv is None:
            group[2].add(v)
    return [(es, ids, touched, frozenset(c).union(touched)) for es, ids, touched, c in groups.values()]


def _block_with(edges, v, v2):
    """The edges (Edge tuples, in their order) that share no biconnected
    block with a virtual edge v-v2 (those on no simple v-v2 path), by one
    iterative lowpoint DFS from v whose first tree edge is the virtual one:
    its block stays last."""
    adj = {v: [(v2, 0)], v2: [(v, 0)]}  # index 0: virtual
    for i, (_, a, b) in enumerate(edges, 1):
        if a != b:
            adj.setdefault(a, []).append((b, i))
            adj.setdefault(b, []).append((a, i))
    disc, low = {v: 0}, {v: 0}
    stack = []  # edge indices of the blocks still open
    dfs = [(v, -1, iter(adj[v]))]
    while dfs:
        x, via, nbrs = dfs[-1]
        for y, i in nbrs:
            if i == via:
                continue
            if y not in disc:
                stack.append(i)
                disc[y] = low[y] = len(disc)
                dfs.append((y, i, iter(adj[y])))
                break
            if disc[y] < disc[x]:
                stack.append(i)
                low[x] = min(low[x], disc[y])
        else:
            dfs.pop()
            if via > 0:
                parent = dfs[-1][0]
                low[parent] = min(low[parent], low[x])
                if low[x] >= disc[parent]:  # x's subtree closes a block without the virtual edge
                    while stack.pop() != via:
                        pass
    if len(stack) > len(edges):  # the virtual edge's block holds every edge: each is stacked once
        return []
    kept = set(stack)
    return [e for i, e in enumerate(edges, 1) if i not in kept]


def decompose(g: Multigraph, r: RamificationData) -> SegmentDecomposition:
    """Segment decomposition of g with its tails pruned, or
    DecompositionError with a witness.

    The graph must be connected and have at least one ramified vertex; a
    mark that is not a vertex of g is a GraphError (prune_tails checks).
    Each class is judged, and its segment built and keyed for sorting, from
    what _closure_groups collected while building it.
    """
    g = prune_tails(g, r)
    if not g.connected():
        raise DecompositionError("graph is disconnected")
    marks = r.depths
    ram = [v for v in g.vertices if v in marks]
    if not ram:
        raise DecompositionError("no ramified vertex")
    rank = {v: i for i, v in enumerate(ram)}

    two_segments = []
    one_segments = []
    uncoloured = set()
    for piece, ids, touched, vertices in _closure_groups(g.edges, r):
        touched = sorted(touched, key=rank.__getitem__)
        if len(touched) > 2:
            a, b, c = touched[:3]
            eid = next(e.id for e in piece if a in e[1:])
            raise DecompositionError(
                "edge lies on admissible paths between two ramified pairs",
                {"edge": eid, "pairs": [[a, b], [a, c]]},
            )
        if len(touched) == 2:
            if rest := _block_with(piece, *touched):  # rest avoids the two ramified vertices
                uncoloured.update(e.id for e in rest)
            else:
                two_segments.append((tuple(sorted(touched, key=str)), ids, vertices, False))
        else:  # a connected graph has no class without a ramified vertex
            one_segments.append(((touched[0],), ids, vertices, len(piece) == 1 and piece[0].is_loop))
    if uncoloured:
        piece = _closure_groups([e for e in g.edges if e.id in uncoloured], r)[0][1]
        raise DecompositionError("uncoloured edge group touches 0 ramified vertices", {"edges": sorted(piece), "ramified": []})

    # deterministic: by endpoints as strings, then by sorted edge ids, which segments with the
    # same endpoints share none of, so that their least ids decide
    for found in (two_segments, one_segments):
        found.sort(key=lambda sp: ([str(w) for w in sp[0]], min(sp[1])))
    segments = [
        Segment(color, len(ends), ends, frozenset(ids), vertices, is_loop)
        for color, (ends, ids, vertices, is_loop) in enumerate(two_segments + one_segments)  # 2-segments first
    ]
    return SegmentDecomposition(g, tuple(segments), tuple(ram))


def admissible_sets(d: SegmentDecomposition):
    """The spanning trees of G_R, the multigraph on the ramified vertices
    whose edges are the 2-segments, by graph.acyclic_subsets: the (l-1)-subsets
    I of 2-segment indices (positions in d.segments) with no cycle."""
    return [frozenset(combo) for combo in acyclic_subsets([s.ramified for s in d.two_segments], d.l - 1)]
