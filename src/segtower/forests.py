"""Spanning-tree and segmental spanning-forest counts.

kappa counts spanning trees by the matrix-tree theorem (determinant of a
Laplacian minor); forest_count_det counts spanning forests with t components,
each containing exactly one marked vertex, by deleting the t marked
rows/columns.  forest_count_bruteforce counts the same forests as the
spanning trees of g with its marks merged into one vertex, by
graph.acyclic_subsets under an edge cap (the CLI's `forests --method brute`).
All three return ints; a bad mark (not 1 or 2 distinct vertices of g) and
the cap raise GraphError.
"""

from __future__ import annotations

from .graph import GraphError, Multigraph, acyclic_subsets, heaviest, laplacian
from .linalg import det_int


ENUMERATION_CAP = 20  # most edges whose subsets forest_count_bruteforce enumerates


def kappa(g: Multigraph) -> int:
    """Number of spanning trees by matrix-tree, without a densest row (graph.heaviest).  A disconnected graph gives 0."""
    if not g.vertices:
        raise GraphError("kappa of the empty graph")
    return det_int(laplacian(g, heaviest(g.vertices, g.degree)))


def _check_marked(g: Multigraph, marked) -> list:
    """marked as a list of 1 or 2 distinct vertices of g."""
    marked = list(marked)
    if len(marked) not in (1, 2):
        raise GraphError("marked must contain 1 or 2 vertices")
    if len(set(marked)) != len(marked):
        raise GraphError("marked vertices must be distinct")
    for v in marked:
        if not g.has_vertex(v):
            raise GraphError(f"marked vertex {v!r} is not in the graph")
    return marked


def forest_count_det(g: Multigraph, marked) -> int:
    """F_t by determinant: delete the rows/columns of the t marked vertices.

    The empty minor has determinant 1, so a graph whose vertices are all
    marked (e.g. a single edge between two marked vertices) yields 1.
    """
    return det_int(laplacian(g, _check_marked(g, marked)))


def forest_count_bruteforce(g: Multigraph, marked) -> int:
    """Exhaustive F_t count (oracle for forest_count_det).

    A forest of t = len(marked) trees, one mark in each, is a spanning tree
    of g with every mark mapped to the first: the (|V| - t)-subsets of the
    mapped edges with no cycle.  An edge between two marks becomes a loop.
    """
    marked = _check_marked(g, marked)
    if len(g.edges) > ENUMERATION_CAP:
        raise GraphError(f"{len(g.edges)} edges exceeds enumeration cap {ENUMERATION_CAP}")
    m = marked[0]
    pairs = [(m if u in marked else u, m if v in marked else v) for _, u, v in g.edges]
    return sum(1 for _ in acyclic_subsets(pairs, len(g.vertices) - len(marked)))
