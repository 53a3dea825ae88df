import json
import random
from pathlib import Path

import pytest

from segtower.cover import build_cover
from segtower.forests import forest_count_det, kappa
from segtower.graph import build_graph, graph_from_json
from segtower.iwasawa import DisconnectedCover

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def load_fixture(name):
    """Returns (graph, ramification, voltage) for a fixture file."""
    with open(FIXTURES / name) as fh:
        return graph_from_json(json.load(fh))


def fixture_path(name):
    return str(FIXTURES / name)


def all_fixture_names():
    return sorted(p.name for p in FIXTURES.glob("*.json"))


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
                "kappa": kappa(c.graph).value,
            }
        )
    return out


def explicit_forest_counts(g, r, voltage, p, n_max):
    """Oracle for the segment forest counts: F_t on every explicit S_n."""
    out = []
    for n in range(n_max + 1):
        c = build_cover(g, r, voltage, p, n)
        marks = [v for v in c.graph.vertices if r.is_ramified(c.vertex_projection[v])]
        out.append(forest_count_det(c.graph, marks).value)
    return out


@pytest.fixture
def rng():
    return random.Random(20260824)
