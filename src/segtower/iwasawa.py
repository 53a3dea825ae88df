"""Characteristic elements, Iwasawa invariants and theorem harnesses.

The characteristic element of a tower over (g, r, voltage) is T^l * f(T)
where l is the number of ramified vertices and f is det(M) expanded at
gamma = 1 + T, M the unramified block of the voltage Laplacian.  From f we
read off mu (minimal p-adic coefficient valuation) and lambda; the Jacobian
invariants are mu(f) and (l - 1) + lambda(f).  When det(M) has negative
powers of gamma, f is a power series, kept to its first span + 1 terms
(span = max exponent - min exponent of det(M)): gamma = 1 + T is a unit of
Z_p[[T]], so shifting det(M) by a power of gamma changes neither mu nor
lambda, and lambda <= span (see linalg.expand_at_gamma).

The spanning-tree counts along the tower come from blocks of X alone.  A
character of Z/p^n of order p^a lives on the fibre over v exactly when
k_v >= a (k_v the depth, infinite when v is unmarked).  There L(X_n) is
diag(p^max(0, n - k_v)) * M_a(zeta), M_a the unramified block for R_a, the
marks of depth < a taken as depth 0 (M_a = M for a > n0, the largest depth);
on the trivial part it is that diagonal times L(X).  The matrix-tree theorem
with sum_v p^min(n, k_v) = |V_n| and sum_{a <= k} phi(p^a) = p^k - 1 gives

    kappa(X_n) = kappa(X) * p^s_n * prod_{a=1..n} prod_{ord zeta = p^a} det M_a(zeta),
    s_n = sum_{marks v} p^k_v * max(0, n - k_v) - n.

The inner product is P_a / P_(a-1), for P_a the product of det M_a over
the p^a-th roots of unity other than 1, from one root-power chain per block
(linalg.root_of_unity_products); over a run of levels with the same block
the quotients telescope.  P_(a-1) is never 0: if R_a is not empty and X is
connected, M_a(zeta) is positive definite on |zeta| = 1; if R_a is empty,
M_a = M_a' for every a' < a, whose values entered kappa(X_a') != 0.  Both
divisions (by that product, and by p^-s_n when s_n < 0) are checked.

Empirically, ord_p of the spanning-tree count at level n is mu*p^n +
lambda*n + nu for n large (exactly for all n when the voltage is trivial);
we fit the triple exactly over the integers from the last three levels.

The harnesses check the paper's identities; each checks p, the marks and
the voltage before it decomposes X.  Three count trees on explicit covers.
Theorem A (every mark totally ramified, trivial voltage) is the
partial-ramification formula at n0 = 0, so verify_theorem_A checks its one
extra hypothesis and calls verify_partial_ramification.  The factorization
of the characteristic element builds M once and cuts it along the segments:
det M is the product of the segment blocks' determinants, and
factorization_exact checks that the segments partition the unramified
vertices and the edges, so that no entry of M joins two segments.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cover import build_cover, check_prime, fibre_size, segment_preimage
from .forests import forest_count_det, kappa
from .graph import GraphError, Multigraph, RamificationData, check_marks, check_voltage, laplacian, laplacian_index, prune_tails
from .linalg import (WORK_LIMIT, LaurentPoly, LinalgError, WorkLimitExceeded, check_work, det_laurent, expand_at_gamma, mu_lambda,
                     ord_p, root_of_unity_products)
from .seal import admissible_sets, decompose


class TowerError(ValueError):
    pass


class DisconnectedCover(TowerError):
    def __init__(self, level):
        self.level = level
        super().__init__(f"cover at level {level} is disconnected")


@dataclass(frozen=True)
class CharElement:
    t_power: int  # exponent l of the leading T^l factor
    body: tuple  # coefficients of det(M) at gamma = 1 + T, to its first span + 1 terms
    det_gamma: LaurentPoly  # det(M) as a Laurent polynomial in gamma
    p: int


@dataclass(frozen=True)
class InvariantTriple:
    mu: int
    lam: int
    nu: int | None = None  # empirical fits only


@dataclass(frozen=True)
class Verdict:
    ok: bool
    lhs: object
    rhs: object
    detail: dict


def _check_request(g, r, voltage, p):
    """The checks every entry point runs first, so a bad p, mark or voltage
    is a GraphError before any decomposition, cover or determinant."""
    check_prime(p)
    check_marks(g, r)
    check_voltage(voltage)


def _within_limit(stage, work, *args):
    """work(*args), det_laurent of a graph.laplacian block or linalg.check_work;
    a WorkLimitExceeded is a GraphError naming the stage."""
    try:
        return work(*args)
    except WorkLimitExceeded as exc:
        raise GraphError(f"{stage}: {exc}") from exc


def char_element(g: Multigraph, r: RamificationData, voltage, p: int) -> CharElement:
    """T^l * det M at gamma = 1 + T, M = graph.laplacian(g, r.depths, voltage)
    the block of the voltage Laplacian on the unramified vertices (empty, with
    det M = 1, when every vertex is ramified)."""
    _check_request(g, r, voltage, p)
    if not g.vertices:
        raise GraphError("kappa of the empty graph")  # as forests.kappa refuses it
    det = _within_limit("characteristic element", det_laurent, laplacian(g, r.depths, voltage or {}))
    body = expand_at_gamma(det)
    return CharElement(len(r.depths), body, det, p)


def symbolic_invariants(c: CharElement) -> InvariantTriple:
    """Jacobian mu/lambda from the characteristic element."""
    if not c.body:
        raise TowerError("characteristic body is zero (degenerate segment)")
    mu, lam = mu_lambda(c.body, c.p)
    return InvariantTriple(mu, (c.t_power - 1) + lam)


FIT_DEPTH = 4  # levels past the largest depth n0 that a default fit runs to


def tower_kappas(g, r, voltage, p, n_max, *, _det_m=None):
    """kappa(X_n) for n = 0..n_max (see the module docstring); raises
    DisconnectedCover at the first level whose count is 0.  _det_m is det M of
    X's block with every mark ramified, when the caller has it (pruning tails
    leaves det M unchanged: the Schur complement at a pendant vertex takes back
    the 1 it added to its neighbour's degree).  Level n takes about
    (p*d^2 + 1) * (p^n * log2(||det M_n||_1 * |c|^d) + (s_n + n) * log2 p) bit
    operations, d the span and c the leading coefficient of det M_n; GraphError
    names the level where their sum passes WORK_LIMIT before any chain starts."""
    _check_request(g, r, voltage, p)
    marks, shifts, dets, work = [()], [0], {}, 0  # R_n, s_n, det M_n by R_n
    for n in range(1, n_max + 1):
        m = tuple(v for v, k in r.depths.items() if k < n)
        if m not in dets:
            full = _det_m is not None and len(m) == len(r.depths)
            dets[m] = _det_m if full else _within_limit(f"level {n}", det_laurent, laplacian(g, m, voltage or {}))
        marks.append(m)
        shifts.append(sum(p**k * (n - k) for k in r.depths.values() if k < n) - n)
        cs = dets[m].coeffs
        d = max(cs, default=0) - min(cs, default=0)
        size = dets[m].norm() * abs(cs.get(max(cs, default=0), 0)) ** d
        bits = max(size - 1, 0).bit_length()  # 0 when det M = ±1: then p**n, huge at a high level, is never built
        work += (p * d * d + 1) * ((bits and p**n * bits) + (max(shifts[n], 0) + n) * p.bit_length())
        if work > WORK_LIMIT:
            raise GraphError(f"level {n} of the tower would take about 2^{work.bit_length() - 1} bit operations, "
                             f"past 2^{WORK_LIMIT.bit_length() - 1}")
    chains = {m: root_of_unity_products(dets[m], p, max(n for n, x in enumerate(marks) if x == m)) for m in dets}

    base, primitive, start, out = kappa(g), [1], 0, []  # primitive[n]: prod over a <= n of order p^a
    for n, s in enumerate(shifts):
        if n:
            if marks[n] != marks[n - 1]:
                start = n - 1  # levels start+1..n share M_n: their products telescope
            # one division by the chain at the run's start (chain[0] = 1 in a
            # one-block tower), not one by the previous level at every level:
            # on glue_kappa_l1 at p = 7, n <= 7 that is 0.008 s against 0.18 s
            # of process time (Python 3.11, 2-core Xeon)
            q, rem = divmod(chains[marks[n]][n], chains[marks[n]][start])
            if rem:
                raise LinalgError(f"level {n}: root-of-unity product not divisible by the one at level {start}")
            primitive.append(primitive[start] * q)
        count, rem = divmod(base * primitive[n] * p ** max(s, 0), p ** max(-s, 0))
        if rem:
            raise LinalgError(f"level {n}: tree count not divisible by {p}^{-s}")
        if count == 0:
            raise DisconnectedCover(n)
        vertices = sum(fibre_size(r, p, n, v) for v in g.vertices)
        out.append({"n": n, "vertices": vertices, "edges": len(g.edges) * p**n, "kappa": count})
    return out


def fit_orders(points, p):
    """Exact fit of ord = mu*p^n + lambda*n + nu through (n, ord) pairs.

    Uses the last three points; returns (InvariantTriple, stable) where
    stable reports whether the window shifted one level down (when
    available) gives the same triple.  Returns (None, False) when no exact
    integer fit exists.
    """
    if len(points) < 3:
        raise TowerError("need at least three tower levels for a fit")

    def solve(window):
        (n0, y0), (n1, y1), (n2, y2) = window
        # eliminate nu by differencing
        a1, b1, c1 = p**n1 - p**n0, n1 - n0, y1 - y0
        a2, b2, c2 = p**n2 - p**n1, n2 - n1, y2 - y1
        den = a1 * b2 - a2 * b1
        if den == 0:
            return None
        mu, rem_mu = divmod(c1 * b2 - c2 * b1, den)
        lam, rem_lam = divmod(a1 * c2 - a2 * c1, den)
        if rem_mu or rem_lam or mu < 0 or lam < 0:
            return None
        return InvariantTriple(mu, lam, y0 - mu * p**n0 - lam * n0)

    fit = solve(points[-3:])
    if fit is None:
        return None, False
    stable = True
    if len(points) >= 4:
        prev = solve(points[-4:-1])
        stable = prev == fit
    return fit, stable


def empirical_invariants(g, r, voltage, p, n_max=None, *, _det_m=None):
    """Fit (mu, lambda, nu) from tower spanning-tree counts.

    Returns (InvariantTriple, levels, stable); levels is the per-level data.
    """
    if n_max is not None and n_max < 0:
        raise GraphError(f"tower level must be non-negative, got {n_max}")
    n0 = max(r.depths.values(), default=0)
    n_max = n0 + FIT_DEPTH if n_max is None else max(n_max, n0 + 2)
    levels = tower_kappas(g, r, voltage, p, n_max, _det_m=_det_m)
    fit, stable = fit_orders([(lv["n"], ord_p(lv["kappa"], p)) for lv in levels], p)  # kappa > 0: tower_kappas raised on 0
    if fit is None:
        raise TowerError("no exact integer fit for the tower orders")
    return fit, levels, stable


def _explicit_kappa(c):
    """kappa of an explicitly built cover; DisconnectedCover when it is 0."""
    count = kappa(c.graph)
    if count == 0:
        raise DisconnectedCover(c.n)
    return count


def verify_theorem_A(g, r, voltage, p, n) -> Verdict:
    """kappa(X_n) = kappa(X) * p^{n(l-1)} * prod F_{t_i}(S^i)^{p^n - 1}: the
    partial-ramification formula at n0 = 0, where every mark has depth 0."""
    _check_request(g, r, voltage, p)
    if any(r.depths.values()):
        raise TowerError("the product formula requires totally ramified vertices")
    if not any((voltage or {}).values()) and not r.depths:
        decompose(g, r)  # a graph with no mark has no decomposition
    return verify_partial_ramification(g, r, voltage, p, n)


def verify_partial_ramification(g, r, voltage, p, n) -> Verdict:
    """kappa(X_n) = kappa(X_{n0}) * p^{(n-n0)(l-1)} * prod F_{t_i}(S^i)^{p^n - p^{n0}}
    where n0 = max depth and l is the ramified-vertex count at level n0; at
    n0 = 0 this is theorem A.  X decomposes, so it is connected, and a mark of
    depth 0 keeps every cover connected; _explicit_kappa still checks."""
    _check_request(g, r, voltage, p)
    if n < 0:
        raise GraphError(f"tower level must be non-negative, got {n}")
    if any(a for a in (voltage or {}).values()):
        raise TowerError("the partial-ramification formula requires trivial voltage")
    if 0 not in r.depths.values():
        raise TowerError("unsupported: no totally ramified vertex (covers may disconnect)")
    n0 = max(r.depths.values())
    if n < n0:
        raise TowerError("n must be at least n0")
    d = decompose(g, r)
    counts = [forest_count_det(s.subgraph(d.graph), list(s.ramified)) for s in d.segments]
    base = _explicit_kappa(build_cover(d.graph, r, voltage, p, n0))
    # build_cover refuses a level past SIZE_LIMIT before the powers by p^n below
    lhs = base if n == n0 else _explicit_kappa(build_cover(d.graph, r, voltage, p, n))
    l_n0 = sum(fibre_size(r, p, n0, v) for v in r.depths)
    rhs = base * p ** ((n - n0) * (l_n0 - 1))
    for f in counts:
        rhs *= f ** (p**n - p**n0)
    return Verdict(
        lhs == rhs,
        lhs,
        rhs,
        {"n0": n0, "kappa_n0": base, "l_n0": l_n0, "segment_counts": counts},
    )


def verify_general_case(g, r, voltage, p, n) -> Verdict:
    """kappa(X_n) = sum over admissible I of
    prod_{i in I} kappa(S^i_n) * prod_{i not in I} F_{t_i}(S^i_n)."""
    _check_request(g, r, voltage, p)
    if any(k != 0 for k in r.depths.values()):
        raise TowerError("the admissible-set formula requires totally ramified vertices")
    d = decompose(g, r)
    c = build_cover(d.graph, r, voltage, p, n)
    lhs = _explicit_kappa(c)
    kappas = []
    forests = []
    for s in d.segments:
        sub, marks = segment_preimage(c, s)
        kappas.append(kappa(sub))
        forests.append(forest_count_det(sub, list(marks.depths)))
    sets = admissible_sets(d)
    rhs = 0
    for I in sets:
        term = 1
        for i in range(d.k):
            term *= kappas[i] if i in I else forests[i]
        rhs += term
    return Verdict(
        lhs == rhs,
        lhs,
        rhs,
        {
            "admissible_sets": [sorted(I) for I in sets],
            "segment_kappas": kappas,
            "segment_forests": forests,
        },
    )


def verify_char_factorization(g, r, voltage, p) -> Verdict:
    """det M = prod_S det M_S over the segments S, and the invariants add up:
    mu = sum mu_S, lambda = sum lambda_S + l - 1.

    M = graph.laplacian(d.graph, r.depths, voltage) is built once, for X with
    its tails pruned, and cut along the segments: M_S holds the rows and
    columns of S's unramified vertices, in vertex order.  A segment with no
    unramified vertex (an edge between marks, a loop at a mark) has
    det M_S = 1.  M is block-diagonal with the blocks M_S, so the product is
    det M, exactly when every unramified vertex and every edge lies in one
    segment and every edge at an unramified vertex is an edge of that
    vertex's segment (then M_S is also the block of S as a graph of its
    own, with the same degrees): factorization_exact reports that
    hypothesis.  The reply's (mu, lambda) come from the product.
    """
    _check_request(g, r, voltage, p)
    d = decompose(g, r)
    m = laplacian(d.graph, r.depths, voltage or {})
    index = laplacian_index(d.graph, r.depths)  # M's rows
    owner = [[] for _ in m]  # the segments that hold each row's vertex
    holders = {}  # edge id -> the segments that hold it
    product = LaurentPoly({0: 1})
    mu_sum = 0
    lam_sum = 0
    factors = []
    for s in d.segments:
        rows = sorted(index[v] for v in s.vertices if v in index)
        for i in rows:
            owner[i].append(s)
        for eid in s.edge_ids:
            holders.setdefault(eid, []).append(s)
        local = {i: k for k, i in enumerate(rows)}
        det = LaurentPoly({0: 1})
        if rows:
            block = [{local[j]: x for j, x in m[i].items() if j in local} for i in rows]
            det = _within_limit("characteristic element", det_laurent, block)
            product = product * det
            # the product is expanded below: each partial product has at most
            # the degree and coefficients that det_laurent bounds the whole
            # det M by, so a det M its estimate admits passes
            span = product.max_exp() - product.min_exp()
            _within_limit("characteristic element", check_work,
                          f"the factors of segments 0..{s.color} multiply to degree {span}; expanding their product",
                          span, max(map(abs, product.coeffs.values())).bit_length())
        mu_i, lam_i = mu_lambda(expand_at_gamma(det), p)
        mu_sum += mu_i
        lam_sum += lam_i
        factors.append({"segment": s.color, "mu": mu_i, "lambda": lam_i})
    inv = symbolic_invariants(CharElement(d.l, expand_at_gamma(product), product, p))
    factor_ok = (all(len(ss) == 1 for ss in owner)
                 and all(len(holders.get(e.id, ())) == 1 for e in d.graph.edges)
                 and all(holders[e.id][0] is owner[index[w]][0] for e in d.graph.edges for w in e[1:] if w in index))
    additive_ok = inv.mu == mu_sum and inv.lam == lam_sum + d.l - 1
    return Verdict(
        factor_ok and additive_ok,
        {"mu": inv.mu, "lambda": inv.lam},
        {"mu": mu_sum, "lambda": lam_sum + d.l - 1},
        {"factorization_exact": factor_ok, "factors": factors, "l": d.l},
    )


def tower_report(g, r, voltage, p, n_max=None, empirical=True, symbolic=True):
    """Combined report: per-level counts, empirical fit, symbolic invariants."""
    report = {"p": p}
    sym = ce = None
    if symbolic:
        g2 = prune_tails(g, r)
        ce = char_element(g2, r, voltage, p)
        sym = symbolic_invariants(ce)
        report["char_body"] = list(ce.body)
        report["t_power"] = ce.t_power
        report["symbolic"] = {"mu": sym.mu, "lambda": sym.lam}
    if empirical:
        fit, levels, stable = empirical_invariants(g, r, voltage, p, n_max, _det_m=ce.det_gamma if ce else None)
        report["levels"] = levels
        report["empirical"] = {"mu": fit.mu, "lambda": fit.lam, "nu": fit.nu}
        report["fit_stable"] = stable
        if sym is not None:
            report["agreement"] = sym.mu == fit.mu and sym.lam == fit.lam
    return report
