"""Seeded request lists for the four workloads.

A request is one ``segtower`` CLI call: an argv list and the graph JSON that
goes to standard input.  Each workload is a fixed list whose length is set by
``--seconds`` (``RATE`` requests per second of work at reference speed).
Slot i of the list has a size graded geometrically between the workload's
smallest and largest input, so request costs form a continuum and no
percentile falls on a gap between classes; the top slots share the largest
size and kind, so the tail percentile falls inside a plateau.  The seed picks
only what leaves a slot's cost about the same: voltage signs, vertex names,
mirror images, theta path lengths, some ramified positions and the order in
which the slots are sent.

Why each workload exists:
  tower    -- explicit covers: forests.kappa -> linalg.det_int on cover
              Laplacians of about 16-130 vertices (resultant route, ROADMAP 2)
  symbolic -- characteristic elements: det_laurent, laurent_exact_div,
              expand_at_gamma; builds no cover (ROADMAP 4; bypass for 2)
  seal     -- segment decomposition: seal.admissible_paths; no determinant
              (ROADMAP 3; bypass for 2 and 4)
  small    -- many tiny requests over every subcommand plus malformed JSON:
              per-request fixed costs (ROADMAP 5, set-up costs, trace hooks)
"""

from __future__ import annotations

import json
import os
import random

WORKLOADS = ("tower", "symbolic", "seal", "small")

# Requests per second of measured work at reference speed.
RATE = {"tower": 19.0, "symbolic": 27.0, "seal": 23.0, "small": 380.0}


class Request:
    __slots__ = ("name", "argv", "stdin", "kind", "graph")

    def __init__(self, name, argv, graph, kind=None, stdin=None):
        self.name = name
        self.argv = argv
        self.graph = graph  # parsed input (None for malformed requests)
        self.kind = kind or argv[0]
        self.stdin = stdin if stdin is not None else json.dumps(graph)


# --- graph builders -----------------------------------------------------------

def _graph(vertices, edges, ramified, rng, volt=False):
    """Graph JSON; edges are (u, v) pairs, ramified maps vertex -> depth.

    The seed renames the vertices (keeping their order, which sets the
    elimination order and so the cost) and, with volt, draws the signs of
    the voltages on a fixed 70% of the edges (which edges carry a voltage
    sets the polynomial spans, and so the cost).
    """
    labels = rng.sample(range(10 * len(vertices)), len(vertices))
    name = {v: f"v{x}" for v, x in zip(vertices, labels)}
    out = []
    for i, (u, v) in enumerate(edges):
        e = {"id": f"e{i}", "from": name[u], "to": name[v]}
        if volt and i % 10 < 7:
            e["voltage"] = rng.choice((-1, 1))
        out.append(e)
    return {
        "vertices": [name[v] for v in vertices],
        "edges": out,
        "ramified": [{"vertex": name[v], "depth": k} for v, k in ramified.items()],
    }


def grid(r, c, ram_cells, tag="g", extra=0):
    """r x c grid plus ``extra`` cells of a partial column c (rows 0..extra-1)."""
    name = lambda i, j: f"{tag}{i}_{j}"  # noqa: E731
    cells = {(i, j) for i in range(r) for j in range(c)} | {(i, c) for i in range(extra)}
    vs = [name(i, j) for i in range(r) for j in range(c + 1) if (i, j) in cells]
    es = []
    for i, j in sorted(cells):
        if (i, j + 1) in cells:
            es.append((name(i, j), name(i, j + 1)))
        if (i + 1, j) in cells:
            es.append((name(i, j), name(i + 1, j)))
    return vs, es, [name(i, j) for i, j in ram_cells]


def _columns(lo, hi, s, rows):
    """Grid width for size knob s in [0, 1]: whole columns plus a partial
    one, so admissible-path counts grow in small steps."""
    x = lo + (hi - lo) * s
    return int(x), int((x - int(x)) * rows)


def cycle(n, chords=(), tag="c"):
    vs = [f"{tag}{i}" for i in range(n)]
    es = [(vs[i], vs[(i + 1) % n]) for i in range(n)]
    es += [(vs[a], vs[b]) for a, b in chords]
    return vs, es


def theta(lengths, tag="t"):
    """Two hubs joined by internally disjoint paths with the given lengths."""
    s, t = f"{tag}s", f"{tag}t"
    vs = [s, t]
    es = []
    for k, length in enumerate(lengths):
        prev = s
        for j in range(length - 1):
            w = f"{tag}{k}_{j}"
            vs.append(w)
            es.append((prev, w))
            prev = w
        es.append((prev, t))
    return vs, es, s, t


def base_graph(kind, u, depths=(0, 0)):
    """Connected, decomposable graph with about u unramified vertices and
    len(depths) ramified vertices (2 or 3)."""
    if kind == "cycle":
        n = u + 2
        vs, es = cycle(n, [(n // 3, 2 * n // 3)] if u >= 4 else [])
        ram = [vs[0], vs[1]]
    elif kind == "theta":
        paths = max(2, min(4, u // 2))
        vs, es, s, t = theta([1 + u // paths + (j < u % paths) for j in range(paths)])
        ram = [s, t]
    else:  # grid with two opposite corners ramified
        c = max(2, round((u + 2) ** 0.5))
        r = max(2, round((u + 2) / c))
        vs, es, ram = grid(r, c, [(0, 0), (r - 1, c - 1)])
    if len(depths) == 3:
        # a pendant cycle glued at the first ramified vertex, with its own mark
        cvs, ces = cycle(3, tag="p")
        vs = vs + cvs[1:]
        es = es + [(ram[0] if a == cvs[0] else a, ram[0] if b == cvs[0] else b) for a, b in ces]
        ram = ram + [cvs[1]]
    return vs, es, dict(zip(ram, depths))


# --- workloads ----------------------------------------------------------------

# Share of the slots at the top size: the tail percentile then falls inside
# a plateau of equal-sized inputs, not on the sparse top of the grading.
PLATEAU = 0.12


def _position(i, n):
    """Slot i of n mapped to [0, 1], flat at 1 for the top PLATEAU share."""
    return min(1.0, i / max(1.0, (1 - PLATEAU) * (n - 1)))


def _graded(i, n, lo, hi):
    return lo * (hi / lo) ** _position(i, n)


def _p_n(size, p, n_min):
    """Largest level n >= n_min with at least three unramified base vertices."""
    n = n_min
    while size / p ** (n + 1) >= 3:
        n += 1
    return n, max(2, round(size / p ** n))


def tower(rng, count):
    out = []
    kinds = ("cycle", "theta", "grid")
    for i in range(count):
        cmd = ("invariants", "verify-A", "invariants", "verify-partial", "invariants", "verify-general")[i % 6]
        p = (2, 3, 5, 2, 3)[i % 5]
        kind = kinds[(i // 6) % 3]
        top = _position(i, count) == 1.0
        if top:  # one kind of request fills the plateau
            cmd, p, kind = "invariants", 3, "cycle"
        size = _graded(i, count, 16, 130 if cmd != "verify-general" else 80)
        n, u = _p_n(size, p, 2 if cmd == "invariants" else 1)
        if cmd == "invariants":
            volt = top or i % 3 != 0
            vs, es, ram = base_graph(kind, u)
            g = _graph(vs, es, ram, rng, volt)
            argv = ["invariants", "--p", str(p), "--nmax", str(n), "--empirical-only"]
        elif cmd == "verify-partial":
            vs, es, ram = base_graph(kind, u, depths=(1, 0))
            g = _graph(vs, es, ram, rng)
            argv = ["verify", "--theorem", "partial", "--p", str(p), "--n", str(max(n, 1))]
        else:
            theorem = cmd.split("-")[1]
            vs, es, ram = base_graph(kind, u, depths=(0, 0, 0) if i % 4 == 1 else (0, 0))
            g = _graph(vs, es, ram, rng, volt=theorem == "general")
            argv = ["verify", "--theorem", theorem, "--p", str(p), "--n", str(n)]
        out.append(Request(f"tower/{i}:{kind}-u{u}-p{p}-n{n}/{cmd}", argv, g))
    return out


def symbolic(rng, count):
    out = []
    for i in range(count):
        size = _graded(i, count, 6, 26)  # unramified vertices: det M dimension
        # one kind of request fills the plateau
        kind = "grid" if _position(i, count) == 1.0 else ("grid", "cycle", "glued")[i % 3]
        p = (2, 3, 5)[(i // 3) % 3]
        if kind == "grid":
            c = min(5, max(3, round((size + 2) ** 0.5)))
            r = max(3, min(5, round((size + 2) / c)))
            vs, es, ram = grid(r, c, [(0, 0), (r - 1, c - 1)])
            ram = dict.fromkeys(ram, 0)
        elif kind == "cycle":
            n = round(size) + 2
            vs, es = cycle(n, [(a, a + 2) for a in range(2, n - 2, 3)])
            ram = {vs[0]: 0, vs[1]: 0}
        else:
            # a ladder and a chorded cycle glued at a ramified vertex: 3 marks
            u = round(size)
            k = max(2, (u // 2 + 2) // 2)
            vs, es, ram = grid(2, k, [(0, 0), (1, k - 1)], tag="a")
            cvs, ces = cycle(u - 2 * k + 4, [(2, 4)] if u - 2 * k >= 3 else [], tag="b")
            vs += cvs[1:]
            es += [(ram[0] if a == cvs[0] else a, ram[0] if b == cvs[0] else b) for a, b in ces]
            ram = {ram[0]: 0, ram[1]: 0, cvs[1]: 0}
        g = _graph(vs, es, ram, rng, volt=True)
        # factorization decomposes by path enumeration, which would dominate
        # on the large grids; those get the symbolic report only
        if i % 5 in (1, 3) and (kind != "grid" or size <= 14):
            argv = ["verify", "--theorem", "factorization", "--p", str(p)]
        else:
            argv = ["invariants", "--p", str(p), "--symbolic-only"]
        out.append(Request(f"symbolic/{i}:{kind}-u{round(size)}-p{p}/{argv[0]}", argv, g))
    return out


# Grids past the admissible-path cap of the seed code; they raise
# PathCapExceeded, which counts as a failure.
CAPPED_GRIDS = ((5, 6), (6, 6))


def seal(rng, count):
    out = []
    regular = count - len(CAPPED_GRIDS)
    for i in range(regular):
        s = _position(i, regular)  # admissible paths grow exponentially in s
        kind = ("ladder", "grid3", "theta", "grid4", "glued")[i % 5]
        l = 2 + (i // 5) % 3  # 2..4 ramified vertices
        if s == 1.0:  # one kind of request fills the plateau
            kind, l = "grid3", 2
        if kind in ("ladder", "grid3", "grid4"):
            r, lo, hi = {"ladder": (2, 6, 14.9), "grid3": (3, 3, 8.9), "grid4": (4, 4, 6.4)}[kind]
            k, extra = _columns(lo, hi, s, r)
            # the seed mirrors the marks top to bottom, which keeps the cost
            flip = rng.random() < 0.5 and not extra
            cells = [(0, 0), (r - 1, k - 1), (0, k - 1), (r - 1, k // 2)][:l]
            vs, es, ram = grid(r, k, [(r - 1 - a if flip else a, b) for a, b in cells], extra=extra)
        elif kind == "theta":
            vs, es, a, b = theta([rng.randint(2, 6) for _ in range(2 + round(6 * s))])
            ram = [a, b] + rng.sample(vs[2:], l - 2)
        else:
            k, extra = _columns(5, 12.9, s, 2)
            vs, es, ram = grid(2, k, [(0, 0), (1, k - 1)], tag="a", extra=extra)
            cvs, ces = cycle(4 + round(6 * s), [(1, 3)], tag="b")
            vs += cvs[1:]
            es += [(ram[1] if a == cvs[0] else a, ram[1] if b == cvs[0] else b) for a, b in ces]
            ram = ram + rng.sample(cvs[1:], l - 2)
        # a pendant path that prune_tails removes vertex by vertex: its
        # length spreads the costs between the grid sizes
        tail = [f"tail{j}" for j in range((i * 7) % 31)]
        es += list(zip([vs[-1]] + tail, tail))
        vs += tail
        g = _graph(vs, es, dict.fromkeys(ram, 0), rng)
        out.append(Request(f"seal/{i}:{kind}-s{s:.2f}-l{l}-t{len(tail)}/seal", ["seal"], g))
    for j, (r, c) in enumerate(CAPPED_GRIDS):
        vs, es, ram = grid(r, c, [(0, 0), (r - 1, c - 1)])
        g = _graph(vs, es, dict.fromkeys(ram, 0), rng)
        out.append(Request(f"seal/cap{j}:grid{r}x{c}/seal", ["seal"], g))
    return out


# Malformed inputs; the right answer is exit 1 with a JSON error.  The seed
# code raises on the unhashable vertex id and on the non-integer voltage.
MALFORMED = (
    ("bad-json", '{"vertices": ["a", "b"], "edges": ['),
    ("not-object", '[1, 2, 3]'),
    ("no-edges", '{"vertices": ["a", "b"]}'),
    ("unknown-endpoint", '{"vertices": ["a"], "edges": [{"from": "a", "to": "z"}]}'),
    ("unhashable-vertex", '{"vertices": [[1]], "edges": []}'),
    ("voltage-string", '{"vertices": ["a", "b"], "edges": [{"from": "a", "to": "b", "voltage": "x"}]}'),
)


FIXTURES = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "fixtures")


def _fixtures():
    """The repository's example graphs, by file name."""
    names = sorted(f for f in os.listdir(FIXTURES) if f.endswith(".json")) if os.path.isdir(FIXTURES) else []
    out = []
    for name in names:
        with open(os.path.join(FIXTURES, name)) as fh:
            out.append((name[:-5], json.load(fh)))
    return out


def small(rng, count):
    out = []
    cmds = ("seal", "kappa", "forests", "cover", "invariants", "seal", "kappa", "verify",
            "family", "forests", "malformed", "cover", "invariants", "family")
    fixtures = _fixtures()
    for i in range(count):
        cmd = cmds[i % len(cmds)]
        u = round(_graded(i, count, 3, 9))
        label = f"u{u}"
        if fixtures and i % 5 == 4:
            # a fixture, with its vertices renamed by the seed
            tag, fx = fixtures[(i // 5) % len(fixtures)]
            g = _graph(fx["vertices"], [(e["from"], e["to"]) for e in fx["edges"]],
                       {m["vertex"]: m.get("depth", 0) for m in fx.get("ramified", [])}, rng)
            for e, src in zip(g["edges"], fx["edges"]):
                if src.get("voltage"):
                    e["voltage"] = src["voltage"]
            label = tag
        else:
            vs, es, ram = base_graph(("cycle", "theta", "grid")[i % 3], u)
            volt = cmd in ("cover", "invariants") and i % 2 == 0
            g = _graph(vs, es, ram, rng, volt)
        ramv = [m["vertex"] for m in g["ramified"]]
        if cmd == "malformed":
            tag, text = MALFORMED[(i // len(cmds)) % len(MALFORMED)]
            out.append(Request(f"small/{i}:malformed-{tag}", ["kappa"], None, kind="malformed", stdin=text))
            continue
        if cmd == "family":
            variant = ("line", "modified_line", "chorded_cycle", "complete")[(i // len(cmds)) % 4]
            k = max(4, u + 1)
            params = {
                "line": "multiplicities=" + "+".join(str(rng.randint(1, 3)) for _ in range(k - 1)),
                "modified_line": f"k={k},n=2,m={rng.randint(4, k)}",
                "chorded_cycle": f"n={k + 1},t={rng.randint(2, (k + 2) // 2)},i=1,j={rng.randint(3, k + 1)}",
                "complete": f"n={min(k, 7)}",
            }[variant]
            argv = ["family", "--variant", variant, "--params", params]
            out.append(Request(f"small/{i}:family-{variant}", argv, None, kind="family", stdin=""))
            continue
        argv = {
            "seal": ["seal"],
            "kappa": ["kappa"],
            "forests": ["forests", "--marked", ",".join(ramv[: 1 + i % 2])]
            + (["--method", "brute"] if len(g["edges"]) <= 12 and i % 3 == 0 else []),
            "cover": ["cover", "--p", str((2, 3)[i % 2]), "--n", "1"],
            "invariants": ["invariants", "--p", str((2, 3)[i % 2]), "--nmax", "2"],
            "verify": ["verify", "--theorem", ("A", "partial", "general", "factorization")[(i // 14) % 4],
                       "--p", "2", "--n", "1"],
        }[cmd]
        out.append(Request(f"small/{i}:{label}/{cmd}", argv, g))
    return out


def requests(workload, seed, seconds):
    """The fixed request list of one run, in sending order."""
    rng = random.Random(f"{workload}:{seed}")
    out = globals()[workload](rng, max(20, round(RATE[workload] * seconds)))
    rng.shuffle(out)
    return out


def warmups(workload):
    """One tiny request per subcommand the workload uses (for set-up)."""
    vs, es, ram = base_graph("cycle", 2)
    g = _graph(vs, es, ram, random.Random(0))
    argvs = {
        "tower": [["invariants", "--p", "2", "--nmax", "2", "--empirical-only"],
                  ["verify", "--theorem", "A", "--p", "2", "--n", "1"]],
        "symbolic": [["invariants", "--p", "2", "--symbolic-only"],
                     ["verify", "--theorem", "factorization", "--p", "2"]],
        "seal": [["seal"]],
        "small": [["seal"], ["kappa"], ["forests", "--marked", g["ramified"][0]["vertex"]], ["cover", "--p", "2", "--n", "1"],
                  ["invariants", "--p", "2", "--nmax", "2"], ["verify", "--theorem", "A", "--p", "2", "--n", "1"],
                  ["family", "--variant", "line", "--params", "multiplicities=1+2"]],
    }[workload]
    return [Request(f"warmup/{a[0]}", a, g) for a in argvs]
