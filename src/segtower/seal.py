"""Segment decomposition of a tail-free multigraph.

A 2-segment collects the edges lying on admissible paths (simple paths with
unramified interior) between one fixed pair of adjacent ramified vertices;
a 1-segment is a block of leftover edges hanging off a single ramified
vertex.  Decomposition fails when some edge lies on admissible paths between
two different ramified pairs.

The classical presentation colours path by path, which makes the outcome
depend on iteration order.  Here we use an equivalent order-independent
edge-set formulation:

  1. for each unordered pair of distinct ramified vertices, collect the set
     of edges on admissible paths between them;
  2. fail if an edge occurs for two distinct pairs (conflict witness);
  3. within one pair's edge set, segments are the classes of the transitive
     closure of "shares an unramified vertex"; a direct edge between the two
     ramified vertices is its own singleton 2-segment;
  4. leftover edges are grouped by the same closure; each group must touch
     exactly one ramified vertex and becomes a 1-segment;
  5. fail if a leftover group touches zero or two ramified vertices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

from .graph import GraphError, Multigraph, RamificationData, UnionFind


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


@dataclass(frozen=True)
class AdmissiblePath:
    """Simple path between ramified vertices through unramified interior."""

    vertices: tuple  # v_0 .. v_m, endpoints ramified (possibly equal)
    edge_ids: tuple  # m edge ids in path order

    @property
    def endpoints(self):
        return (self.vertices[0], self.vertices[-1])


@dataclass(frozen=True)
class Segment:
    color: int
    t: int  # 1 or 2
    ramified: tuple  # one vertex for t=1, two for t=2
    edge_ids: frozenset
    vertices: frozenset
    is_loop: bool = False  # loop edge at a ramified vertex, special-cased

    def subgraph(self, g: Multigraph) -> Multigraph:
        vs = [v for v in g.vertices if v in self.vertices]
        es = [e for e in g.edges if e.id in self.edge_ids]
        return Multigraph(vs, es)


@dataclass(frozen=True)
class SegmentDecomposition:
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

    @property
    def one_segments(self):
        return self.segments[self.k_prime :]


def admissible_paths(g: Multigraph, r: RamificationData, v, v2, cap=10000):
    """All simple admissible paths between ramified v and v2, once per
    direction class.  For v == v2 these are the simple cycles through v with
    unramified interior, including 2-cycles from parallel edges; loop edges
    at v are not reported (they are handled as 1-segments downstream)."""
    if not r.is_ramified(v) or not r.is_ramified(v2):
        raise GraphError("admissible paths are only defined between ramified vertices")
    closed = v == v2
    results = []
    seen_edge_sets = set()

    def record(edge_key, vs, eids):
        if edge_key in seen_edge_sets:
            return
        seen_edge_sets.add(edge_key)
        results.append((vs, eids))
        if len(results) > cap:
            raise PathCapExceeded((v, v2), len(results), cap)

    def extend(current, used_edges, interior):
        for e in g.incident_edges(current):
            if e.id in used_edges or e.is_loop:
                continue
            w = e.other(current)
            if w == v2 and (not closed or used_edges):
                if closed and len(used_edges) == 0:
                    continue
                record(frozenset(used_edges | {e.id}),
                       interior + (w,), tuple(list(path_order) + [e.id]))
                continue
            if r.is_ramified(w) or w in set(interior):
                continue
            path_order.append(e.id)
            extend(w, used_edges | {e.id}, interior + (w,))
            path_order.pop()

    path_order = []
    # note: single-edge v-v2 paths for v != v2 are produced by the first branch
    def run():
        for e in g.incident_edges(v):
            if e.is_loop:
                continue
            w = e.other(v)
            if w == v2:
                record(frozenset({e.id}), (v, w), (e.id,))
                continue
            if r.is_ramified(w):
                continue
            path_order.append(e.id)
            extend(w, {e.id}, (v, w))
            path_order.pop()

    run()
    return [AdmissiblePath(vs, eids) for vs, eids in results]


def _closure_groups(g, r, edge_ids):
    """Group edges by the transitive closure of sharing an unramified vertex."""
    uf = UnionFind()
    by_vertex = {}
    for eid in edge_ids:
        uf.find(eid)
        e = g.edge(eid)
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


def _segment_from_edges(g, color, t, ram, edge_ids, is_loop=False):
    vs = set()
    for eid in edge_ids:
        e = g.edge(eid)
        vs.update((e.u, e.v))
    return Segment(color, t, tuple(ram), frozenset(edge_ids), frozenset(vs), is_loop)


def decompose(g: Multigraph, r: RamificationData, cap=10000) -> SegmentDecomposition:
    """Segment decomposition, or DecompositionError with a witness.

    The graph must be connected, tail-free and have at least one ramified
    vertex; tails should be removed by prune_tails beforehand.
    """
    if not g.connected():
        raise DecompositionError("graph is disconnected")
    ram = [v for v in g.vertices if r.is_ramified(v)]
    if not ram:
        raise DecompositionError("no ramified vertex")

    # steps 1-2: edge sets per ramified pair, with conflict detection
    owner = {}  # edge id -> pair
    pair_edges = {}
    for v, v2 in combinations(ram, 2):
        paths = admissible_paths(g, r, v, v2, cap=cap)
        if not paths:
            continue
        eids = set()
        for path in paths:
            eids.update(path.edge_ids)
        pair = (v, v2)
        pair_edges[pair] = eids
        for eid in eids:
            if eid in owner and owner[eid] != pair:
                raise DecompositionError(
                    "edge lies on admissible paths between two ramified pairs",
                    {"edge": eid, "pairs": [list(owner[eid]), list(pair)]},
                )
            owner[eid] = pair

    # step 3: split each pair's edge set into segments
    two_segments = []
    for (v, v2), eids in pair_edges.items():
        direct = [eid for eid in eids if {g.edge(eid).u, g.edge(eid).v} == {v, v2}]
        rest = [eid for eid in eids if eid not in set(direct)]
        pieces = [[eid] for eid in direct] + _closure_groups(g, r, rest)
        for piece in pieces:
            two_segments.append(((v, v2), piece))

    # step 4-5: leftover edges become 1-segments
    colored = set(owner)
    leftovers = [e.id for e in g.edges if e.id not in colored]
    one_segments = []
    for piece in _closure_groups(g, r, leftovers):
        touched = set()
        for eid in piece:
            e = g.edge(eid)
            touched.update(w for w in (e.u, e.v) if r.is_ramified(w))
        if len(touched) != 1:
            raise DecompositionError(
                "uncoloured edge group touches %d ramified vertices" % len(touched),
                {"edges": sorted(piece), "ramified": sorted(map(str, touched))},
            )
        is_loop = len(piece) == 1 and g.edge(piece[0]).is_loop
        one_segments.append((touched.pop(), piece, is_loop))

    # deterministic ordering: 2-segments by endpoint pair then edge ids,
    # 1-segments by attachment vertex then edge ids
    two_segments.sort(key=lambda sp: (str(min(map(str, sp[0]))), str(max(map(str, sp[0]))), sorted(sp[1])))
    one_segments.sort(key=lambda sp: (str(sp[0]), sorted(sp[1])))

    segments = []
    for color, ((v, v2), piece) in enumerate(two_segments):
        segments.append(_segment_from_edges(g, color, 2, sorted((v, v2), key=str), piece))
    for color, (v, piece, is_loop) in enumerate(one_segments, start=len(two_segments)):
        segments.append(_segment_from_edges(g, color, 1, (v,), piece, is_loop))

    # safety net: segments must be pairwise disjoint in unramified vertices
    seen_unram = {}
    for s in segments:
        for w in s.vertices:
            if r.is_ramified(w):
                continue
            if w in seen_unram:
                raise DecompositionError(
                    "two segments share an unramified vertex",
                    {"vertex": str(w), "segments": [seen_unram[w], s.color]},
                )
            seen_unram[w] = s.color

    return SegmentDecomposition(tuple(segments), tuple(ram))


def admissible_sets(d: SegmentDecomposition):
    """All (l-1)-subsets I of 2-segment indices whose endpoint pairs form a
    spanning tree on the ramified vertices.  Indices are positions in
    d.segments (0-based)."""
    l = d.l
    k_prime = d.k_prime
    out = []
    for combo in combinations(range(k_prime), l - 1):
        uf = UnionFind()
        for v in d.ramified:
            uf.find(v)
        ok = True
        for i in combo:
            a, b = d.segments[i].ramified
            if not uf.union(a, b):
                ok = False
                break
        if ok:
            roots = {uf.find(v) for v in d.ramified}
            if len(roots) == 1:
                out.append(frozenset(combo))
    return out
