"""Independent checks of segtower CLI outputs.

Nothing here imports segtower.  Counts are checked by the benchmark's own
elimination modulo fixed word-size primes (and by enumeration for graphs with
at most ``ENUM_EDGES`` edges); characteristic elements by exact
interpolation of det M(g) through the Chinese remainder theorem; segment
decompositions by biconnected blocks instead of path enumeration.

Each check returns ``None`` when the output is right and a short reason
string when it is not.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import combinations

PRIMES = (2305843009213693951, 4611686018427387847)  # 2^61 - 1, 2^62 - 57
ENUM_EDGES = 14


# --- parsed input -------------------------------------------------------------

class Graph:
    """Vertices, edges as (id, u, v, voltage), ramification depths."""

    def __init__(self, obj):
        self.vertices = list(obj["vertices"])
        self.edges = []
        for i, e in enumerate(obj["edges"]):
            self.edges.append((str(e.get("id", f"e{i}")), e["from"], e["to"], int(e.get("voltage", 0))))
        self.depths = {m["vertex"]: int(m.get("depth", 0)) for m in obj.get("ramified", [])}

    def restricted(self, vertices, edges):
        g = Graph({"vertices": [], "edges": []})
        g.vertices = list(vertices)
        g.edges = list(edges)
        g.depths = {v: k for v, k in self.depths.items() if v in set(vertices)}
        return g


def pruned(g: Graph) -> Graph:
    """Remove unramified vertices joined to the rest by one non-loop edge."""
    vertices = list(g.vertices)
    edges = list(g.edges)
    while True:
        inc = {v: [] for v in vertices}
        for e in edges:
            inc[e[1]].append(e)
            inc[e[2]].append(e)
        victim = next(
            (v for v in vertices if v not in g.depths and len(inc[v]) == 1 and inc[v][0][1] != inc[v][0][2]),
            None,
        )
        if victim is None:
            return g.restricted(vertices, edges)
        vertices.remove(victim)
        edges.remove(inc[victim][0])


def connected(vertices, edges) -> bool:
    if not vertices:
        return True
    adj = {v: [] for v in vertices}
    for _, u, v, *_ in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = {vertices[0]}
    todo = [vertices[0]]
    while todo:
        for x in adj[todo.pop()]:
            if x not in seen:
                seen.add(x)
                todo.append(x)
    return len(seen) == len(vertices)


# --- counts -------------------------------------------------------------------

def laplacian_minor(vertices, edges, deleted):
    index = {v: i for i, v in enumerate(v for v in vertices if v not in deleted)}
    n = len(index)
    m = [[0] * n for _ in range(n)]
    for _, u, v, *_ in edges:
        if u == v:
            continue
        iu, iv = index.get(u), index.get(v)
        if iu is not None:
            m[iu][iu] += 1
        if iv is not None:
            m[iv][iv] += 1
        if iu is not None and iv is not None:
            m[iu][iv] -= 1
            m[iv][iu] -= 1
    return m


def det_mod(m, p):
    """Determinant of an integer matrix modulo the prime p."""
    a = [[x % p for x in row] for row in m]
    n = len(a)
    det = 1
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k]), None)
        if piv is None:
            return 0
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            det = -det
        rowk = a[k]
        det = det * rowk[k] % p
        inv = pow(rowk[k], -1, p)
        for i in range(k + 1, n):
            rowi = a[i]
            f = rowi[k] * inv % p
            if f:
                a[i] = rowi[:k + 1] + [(x - f * y) % p for x, y in zip(rowi[k + 1:], rowk[k + 1:])]
    return det % p


def det_exact(m):
    """Exact determinant by Gaussian elimination over the rationals."""
    a = [[Fraction(x) for x in row] for row in m]
    n = len(a)
    det = Fraction(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k]), None)
        if piv is None:
            return 0
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            det = -det
        det *= a[k][k]
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            if f:
                a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return int(det)


def forest_count_enum(vertices, edges, marked):
    """Spanning forests with one tree per marked vertex, by enumeration."""
    index = {v: i for i, v in enumerate(vertices)}
    pairs = [(index[u], index[v]) for _, u, v, *_ in edges if u != v]
    roots = [index[v] for v in marked]
    count = 0
    for combo in combinations(pairs, len(vertices) - len(marked)):
        parent = list(range(len(vertices)))
        for u, v in combo:
            while parent[u] != u:
                u = parent[u]
            while parent[v] != v:
                v = parent[v]
            if u == v:
                break
            parent[u] = v
        else:
            tops = set()
            for r in roots:
                while parent[r] != r:
                    r = parent[r]
                tops.add(r)
            count += len(tops) == len(roots)
    return count


def check_count(value, vertices, edges, marked):
    """None if value is the number of spanning forests rooted at marked
    (spanning trees when marked is one vertex)."""
    if len(edges) <= ENUM_EDGES:
        want = forest_count_enum(vertices, edges, marked)
        return None if value == want else f"count {value} != enumerated {want}"
    m = laplacian_minor(vertices, edges, set(marked))
    for p in PRIMES:
        if (value - det_mod(m, p)) % p:
            return f"count wrong modulo {p}"
    return None


def det_valuation(m, p, bits=512):
    """p-adic valuation of det m, by elimination modulo p^K with the pivot of
    least valuation in each column.  Raises ValueError when the working
    precision runs out before the valuation is known."""
    K = bits // p.bit_length() + 1
    mod = p ** K
    a = [[x % mod for x in row] for row in m]
    n = len(a)
    total = 0
    for k in range(n):
        best = None
        for i in range(k, n):
            x = a[i][k]
            if x:
                v = ord_p(x, p)
                if best is None or v < best[0]:
                    best = (v, i)
        if best is None or total + best[0] >= K:
            raise ValueError("valuation exceeds working precision")
        v, piv = best
        a[k], a[piv] = a[piv], a[k]
        total += v
        rowk = a[k]
        inv = pow(rowk[k] // p ** v, -1, mod)
        for i in range(k + 1, n):
            rowi = a[i]
            if rowi[k]:
                f = (rowi[k] // p ** v) * inv % mod
                a[i] = rowi[:k + 1] + [(x - f * y) % mod for x, y in zip(rowi[k + 1:], rowk[k + 1:])]
    return total


def ord_p(x, p):
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


# --- covers -------------------------------------------------------------------

def cover(g: Graph, p, n):
    """Level-n derived cover: vertices (v, i), edges (id, cu, cv)."""
    pn = p ** n
    mod = {v: p ** min(n, g.depths[v]) if v in g.depths else pn for v in g.vertices}
    vertices = [(v, i) for v in g.vertices for i in range(mod[v])]
    edges = [
        (f"{eid}@{t}", (u, t % mod[u]), (v, (t + a) % mod[v]))
        for eid, u, v, a in g.edges
        for t in range(pn)
    ]
    return vertices, edges


# --- characteristic element ---------------------------------------------------

# Mersenne primes, for exact reconstruction from one modular image.
MERSENNE = tuple(2**k - 1 for k in (61, 89, 107, 127, 521, 607, 1279))


def unram_block(g: Graph):
    """Rows of M = D - A on the unramified vertices as {exponent: coeff}."""
    unram = [v for v in g.vertices if v not in g.depths]
    index = {v: i for i, v in enumerate(unram)}
    r = len(unram)
    rows = [[{} for _ in range(r)] for _ in range(r)]
    for _, u, v, a in g.edges:
        for x, y, b in ((u, v, a), (v, u, -a)):
            ix = index.get(x)
            if ix is None:
                continue
            rows[ix][ix][0] = rows[ix][ix].get(0, 0) + 1
            iy = index.get(y)
            if iy is not None:
                # dart x -> y adds g^b to A[y][x]
                cell = rows[iy][ix]
                cell[b] = cell.get(b, 0) - 1
    return rows


def char_poly_shifted(rows):
    """Exact Q(g) = g^S det M(g) as a coefficient list, and the shift S.

    Q is interpolated modulo a Mersenne prime larger than four times the
    bound prod_i sum_j |M_ij|_1 on its coefficients, then lifted to the
    symmetric residues, which are then exact."""
    shifts = []
    top = 0
    bound = 1
    for row in rows:
        exps = [e for cell in row for e, c in cell.items() if c]
        k = max(0, -min(exps)) if exps else 0
        shifts.append(k)
        top += (max(exps) + k) if exps else 0
        bound *= max(1, sum(abs(c) for cell in row for c in cell.values()))
    p = next((q for q in MERSENNE if q > 4 * bound), None)
    if p is None:
        raise ValueError("coefficient bound exceeds the largest prime")
    xs = list(range(1, top + 2))
    ys = []
    for x in xs:
        powers = [pow(x, e, p) for e in range(top + 1)]
        m = [
            [sum(c * powers[e + shifts[i]] for e, c in cell.items()) % p for cell in row]
            for i, row in enumerate(rows)
        ]
        ys.append(det_mod(m, p))
    coeffs = [c - p if c > p // 2 else c for c in _interpolate_mod(xs, ys, p)]
    return coeffs, sum(shifts)


def _interpolate_mod(xs, ys, p):
    """Coefficients (lowest first) of the polynomial through (xs, ys) mod p."""
    n = len(xs)
    coef = list(ys)
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            coef[i] = (coef[i] - coef[i - 1]) * pow(xs[i] - xs[i - j], -1, p) % p
    poly = [0] * n
    for i in range(n - 1, -1, -1):
        # poly = poly * (x - xs[i]) + coef[i]
        new = [0] * n
        for d in range(n - 1):
            new[d + 1] = (new[d + 1] + poly[d]) % p
            new[d] = (new[d] - xs[i] * poly[d]) % p
        new[0] = (new[0] + coef[i]) % p
        poly = new
    return poly


def taylor_shift(q):
    """Coefficients of q(1 + T) from those of q(g)."""
    out = [0] * len(q)
    binom_row = [1]
    for e, c in enumerate(q):
        if e:
            binom_row = [1] + [binom_row[i] + binom_row[i + 1] for i in range(len(binom_row) - 1)] + [1]
        if c:
            for i, b in enumerate(binom_row):
                out[i] += c * b
    while out and out[-1] == 0:
        out.pop()
    return out


def mu_lambda(coeffs, p):
    best = None
    for i, c in enumerate(coeffs):
        if c:
            v = ord_p(c, p)
            if best is None or v < best[0]:
                best = (v, i)
    return best


class Symbolic:
    """Exact characteristic data of a graph: Q(1+T), shift, mu, lambda_body."""

    def __init__(self, g: Graph, p):
        q, self.shift = char_poly_shifted(unram_block(g))
        self.q_at_gamma = taylor_shift(q)
        self.p = p
        self.mu_lambda = mu_lambda(self.q_at_gamma, p) if self.q_at_gamma else None

    def check_body(self, body):
        """body must agree with (1+T)^-shift * Q(1+T) on its own length, and
        equal it exactly when no negative exponent was truncated."""
        if not self.q_at_gamma:
            return None if not body else "body should be zero"
        L = len(body)
        lhs = body[:]
        for _ in range(self.shift):  # multiply by (1 + T), truncated to L
            lhs = [lhs[i] + (lhs[i - 1] if i else 0) for i in range(L)]
        want = self.q_at_gamma[:L] + [0] * max(0, L - len(self.q_at_gamma))
        if lhs != want:
            return "char_body disagrees with interpolated det M"
        if self.shift == 0 and len(self.q_at_gamma) != L:
            return "char_body truncated"
        return None


# --- segment decomposition ----------------------------------------------------

def _block_edges(vertices, edges, s, t):
    """Edge ids sharing a biconnected block with a virtual edge s-t."""
    adj = {v: [] for v in vertices}
    virt = ("__virtual__", s, t)
    for e in list(edges) + [virt]:
        eid, u, v = e[0], e[1], e[2]
        if u == v:
            continue
        adj[u].append((v, eid))
        adj[v].append((u, eid))
    disc = {}
    low = {}
    stack = []
    result = set()
    counter = 0
    root = s
    disc[root] = low[root] = counter
    counter += 1
    it = [(root, None, iter(adj[root]))]
    while it:
        v, via, nbrs = it[-1]
        advanced = False
        for w, eid in nbrs:
            if eid == via:
                continue
            if w not in disc:
                stack.append(eid)
                disc[w] = low[w] = counter
                counter += 1
                it.append((w, eid, iter(adj[w])))
                advanced = True
                break
            if disc[w] < disc[v]:
                stack.append(eid)
                low[v] = min(low[v], disc[w])
        if advanced:
            continue
        it.pop()
        if it:
            parent = it[-1][0]
            low[parent] = min(low[parent], low[v])
            if low[v] >= disc[parent]:
                block = []
                while True:
                    x = stack.pop()
                    block.append(x)
                    if x == via:
                        break
                if "__virtual__" in block:
                    result = set(block)
    result.discard("__virtual__")
    return result


def admissible_edges(g: Graph, v, v2):
    """Edges on some simple v-v2 path with unramified interior."""
    others = {w for w in g.depths if w not in (v, v2)}
    vs = [w for w in g.vertices if w not in others]
    es = [e for e in g.edges if e[1] not in others and e[2] not in others and e[1] != e[2]]
    return _block_edges(vs, es, v, v2)


def _closure_groups(g: Graph, eids):
    by_id = {e[0]: e for e in g.edges}
    parent = {x: x for x in eids}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    first = {}
    for eid in eids:
        _, u, v, _ = by_id[eid]
        for w in {u, v}:
            if w in g.depths:
                continue
            if w in first:
                parent[find(eid)] = find(first[w])
            else:
                first[w] = eid
    groups = {}
    for eid in eids:
        groups.setdefault(find(eid), []).append(eid)
    return list(groups.values())


def decomposition(g: Graph):
    """Expected segments as {(t, endpoints, edge ids)}, or None if none exists."""
    by_id = {e[0]: e for e in g.edges}
    if not connected(g.vertices, g.edges):
        return None
    ram = [v for v in g.vertices if v in g.depths]
    if not ram:
        return None
    owner = {}
    segments = set()
    for v, v2 in combinations(ram, 2):
        eids = admissible_edges(g, v, v2)
        for eid in eids:
            if eid in owner:
                return None
            owner[eid] = (v, v2)
        direct = [e for e in eids if {by_id[e][1], by_id[e][2]} == {v, v2}]
        rest = [e for e in eids if e not in direct]
        for piece in [[e] for e in direct] + _closure_groups(g, rest):
            segments.add((2, frozenset((v, v2)), frozenset(piece)))
    leftovers = [e[0] for e in g.edges if e[0] not in owner]
    for piece in _closure_groups(g, leftovers):
        touched = {w for eid in piece for w in by_id[eid][1:3] if w in g.depths}
        if len(touched) != 1:
            return None
        segments.add((1, frozenset(touched), frozenset(piece)))
    return segments


# --- per-subcommand checks ----------------------------------------------------

def _json(out):
    try:
        return json.loads(out)
    except ValueError:
        return None


def check_seal(g: Graph, rc, out):
    d = _json(out)
    if d is None:
        return "stdout is not JSON"
    gp = pruned(g)
    want = decomposition(gp)
    if want is None:
        return None if rc == 2 and d.get("error") == "no_decomposition" else f"expected exit 2, got {rc}"
    if rc != 0:
        return f"expected a decomposition, got exit {rc}"
    got = {(s["t"], frozenset(s["endpoints"]), frozenset(s["edges"])) for s in d["segments"]}
    want_str = {(t, frozenset(map(str, ends)), eids) for t, ends, eids in want}
    if got != want_str or len(d["segments"]) != len(want):
        return "segments differ from the block decomposition"
    l = len(gp.depths)
    if d["l"] != l or d["k"] != len(want) or d["k_prime"] != sum(1 for s in want if s[0] == 2):
        return "l, k or k_prime wrong"
    pairs = [frozenset(s["endpoints"]) for s in d["segments"]]
    expect_sets = set()
    two = [i for i, s in enumerate(d["segments"]) if s["t"] == 2]
    for combo in combinations(two, l - 1):
        parent = {str(v): str(v) for v in gp.depths}

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x

        ok = True
        for i in combo:
            a, b = sorted(pairs[i])
            ra, rb = find(a), find(b)
            if ra == rb:
                ok = False
                break
            parent[ra] = rb
        if ok:
            expect_sets.add(frozenset(combo))
    if {frozenset(s) for s in d["admissible_sets"]} != expect_sets:
        return "admissible sets wrong"
    return None


def _fit(points, p):
    def solve(window):
        (n0, y0), (n1, y1), (n2, y2) = window
        a1, b1, c1 = p**n1 - p**n0, n1 - n0, y1 - y0
        a2, b2, c2 = p**n2 - p**n1, n2 - n1, y2 - y1
        den = a1 * b2 - a2 * b1
        if den == 0:
            return None
        mu = Fraction(c1 * b2 - c2 * b1, den)
        lam = Fraction(a1 * c2 - a2 * c1, den)
        nu = Fraction(y0) - mu * p**n0 - lam * n0
        if any(x.denominator != 1 for x in (mu, lam, nu)) or mu < 0 or lam < 0:
            return None
        return (int(mu), int(lam), int(nu))

    fit = solve(points[-3:])
    stable = fit is not None and (len(points) < 4 or solve(points[-4:-1]) == fit)
    return fit, stable


def check_empirical(g: Graph, p, nmax, rc, d):
    """Levels of an invariants report, its exact fit and, for trivial voltage
    with total ramification, agreement with the closed form."""
    nmax = max(nmax, max(g.depths.values(), default=0) + 2)
    if rc == 2:
        points = []
        for n in range(nmax + 1):
            vs, es = cover(g, p, n)
            if not connected(vs, es):
                return None
            points.append((n, det_valuation(laplacian_minor(vs, es, {vs[0]}), p)))
        if _fit(points, p)[0] is None:
            return None
        return "exit 2 although the cover orders have an exact fit"
    levels = d["levels"]
    if [lv["n"] for lv in levels] != list(range(nmax + 1)):
        return "wrong levels"
    points = []
    for lv in levels:
        vs, es = cover(g, p, lv["n"])
        if lv["vertices"] != len(vs) or lv["edges"] != len(es):
            return f"level {lv['n']} size wrong"
        k = int(lv["kappa"])
        why = check_count(k, vs, es, [vs[0]])
        if why:
            return f"level {lv['n']}: {why}"
        points.append((lv["n"], ord_p(k, p)))
    fit, stable = _fit(points, p)
    if fit is None or list(fit) != [d["empirical"][x] for x in ("mu", "lambda", "nu")]:
        return "empirical fit wrong"
    if d["fit_stable"] != stable:
        return "fit_stable wrong"
    if not any(e[3] for e in g.edges) and all(k == 0 for k in g.depths.values()):
        gp = pruned(g)
        f = det_exact(laplacian_minor(gp.vertices, gp.edges, set(gp.depths)))
        if (fit[0], fit[1]) != (ord_p(f, p), len(gp.depths) - 1):
            return "empirical (mu, lambda) disagree with the trivial-voltage closed form"
    return None


def check_symbolic(g: Graph, p, d, sym: Symbolic):
    gp = pruned(g)
    if d["t_power"] != len(gp.depths):
        return "t_power wrong"
    why = sym.check_body([int(c) for c in d["char_body"]])
    if why:
        return why
    mu, lam = sym.mu_lambda
    if (d["symbolic"]["mu"], d["symbolic"]["lambda"]) != (mu, lam + len(gp.depths) - 1):
        return "symbolic (mu, lambda) wrong"
    return None


def check_invariants(g: Graph, argv, rc, out):
    d = _json(out)
    if d is None:
        return "stdout is not JSON"
    p = int(argv[argv.index("--p") + 1])
    if "--symbolic-only" not in argv:
        why = check_empirical(g, p, int(argv[argv.index("--nmax") + 1]), rc, d)
        if why or rc == 2:
            return why
    elif rc != 0:
        return f"exit {rc}"
    if "--empirical-only" not in argv:
        why = check_symbolic(g, p, d, Symbolic(pruned(g), p))
        if why:
            return why
        if "--symbolic-only" not in argv and d["agreement"] != (
            (d["symbolic"]["mu"], d["symbolic"]["lambda"]) == (d["empirical"]["mu"], d["empirical"]["lambda"])
        ):
            return "agreement flag wrong"
    return None


def _expected_violation(g: Graph, gp: Graph, theorem, n):
    """The error a verify request must exit 2 with, or None."""
    trivial = not any(e[3] for e in g.edges)
    depths = g.depths.values()
    if theorem in ("A", "partial") and not trivial:
        return "hypothesis_violation"
    if theorem in ("A", "general") and any(depths):
        return "hypothesis_violation"
    if theorem == "partial" and (not depths or 0 not in depths or n < max(depths)):
        return "hypothesis_violation"
    if decomposition(gp) is None:
        return "no_decomposition"
    return None


def check_verify(g: Graph, argv, rc, out):
    d = _json(out)
    if d is None:
        return "stdout is not JSON"
    theorem = argv[argv.index("--theorem") + 1]
    p = int(argv[argv.index("--p") + 1])
    n = int(argv[argv.index("--n") + 1]) if "--n" in argv else 1
    gp = pruned(g)
    violation = _expected_violation(g, gp, theorem, n)
    if violation:
        return None if rc == 2 and d.get("error") == violation else f"expected exit 2 with {violation}"
    if theorem == "factorization":
        if rc != 0 or not d["ok"]:
            return f"factorization not confirmed (exit {rc})"
        mu, lam = Symbolic(gp, p).mu_lambda
        want = {"mu": str(mu), "lambda": str(lam + len(gp.depths) - 1)}
        return None if d["lhs"] == want and d["rhs"] == want else "factorization invariants wrong"
    levels = [n]
    if theorem == "partial":
        levels.append(max(gp.depths.values()))
    for lv in levels:
        vs, es = cover(gp, p, lv)
        if not connected(vs, es):
            return None if rc == 2 and d.get("error") == "hypothesis_violation" else "disconnected cover not reported"
    if rc != 0 or not d["ok"] or d["lhs"] != d["rhs"]:
        return f"theorem {theorem} not confirmed (exit {rc})"
    vs, es = cover(gp, p, n)
    return check_count(int(d["lhs"]), vs, es, [vs[0]])


def check_kappa(g: Graph, rc, out):
    d = _json(out)
    if d is None or rc != 0:
        return f"exit {rc}"
    if not connected(g.vertices, g.edges):
        return None if d["kappa"] == "0" else "disconnected graph needs kappa 0"
    return check_count(int(d["kappa"]), g.vertices, g.edges, [g.vertices[0]])


def check_forests(g: Graph, argv, rc, out):
    d = _json(out)
    if d is None or rc != 0:
        return f"exit {rc}"
    marked = [m for m in argv[argv.index("--marked") + 1].split(",") if m]
    return check_count(int(d["forest_count"]), g.vertices, g.edges, marked)


def check_cover(g: Graph, argv, rc, out):
    d = _json(out)
    if d is None or rc != 0:
        return f"exit {rc}"
    p = int(argv[argv.index("--p") + 1])
    n = int(argv[argv.index("--n") + 1])
    vs, es = cover(g, p, n)
    name = {v: f"{v[0]}@{v[1]}" for v in vs}
    if d["vertices"] != [name[v] for v in vs]:
        return "cover vertices wrong"
    if sorted((e["id"], e["from"], e["to"]) for e in d["edges"]) != sorted((i, name[u], name[v]) for i, u, v in es):
        return "cover edges wrong"
    if d["connected"] != connected(vs, [(i, u, v) for i, u, v in es]):
        return "connected flag wrong"
    return None


def check_family(rc, out):
    d = _json(out)
    if d is None or rc != 0:
        return f"exit {rc}"
    g = Graph(d)
    want = det_exact(laplacian_minor(g.vertices, g.edges, set(g.depths)))
    return None if d["f2_closed_form"] == str(want) else f"f2 {d['f2_closed_form']} != det {want}"


def check_malformed(rc, out):
    d = _json(out)
    if rc != 1:
        return f"malformed input gave exit {rc}"
    return None if isinstance(d, dict) and "error" in d else "no JSON error on stdout"
