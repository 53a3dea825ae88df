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

The spanning-tree counts along the tower come from blocks of X alone, built
without X's tails (graph.prune_tails): the Schur complement at a pendant
unmarked vertex gives back the 1 it added to its neighbour's degree, so no
det M_a changes, nor kappa(X).  A character of Z/p^n of order p^a lives on
the fibre over v exactly when k_v >= a (k_v the depth, infinite when v is
unmarked).  There L(X_n) is diag(p^max(0, n - k_v)) * M_a(zeta), M_a the
unramified block for R_a, the marks of depth < a taken as depth 0 (M_a = M
for a > n0, the largest depth); on the trivial part it is that diagonal
times L(X).  The matrix-tree theorem with sum_v p^min(n, k_v) = |V_n| and
sum_{a <= k} phi(p^a) = p^k - 1 gives

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
the voltage (cover.check_request) before it decomposes X.  Each counts one
witness, kappa(X_n), as det_int of the level-n cover's Laplacian filled
straight from the lifts of X's edges (cover.cover_laplacian), so no cover
is built as a graph.  Every other number comes from X's blocks.  Theorem A
is the partial-ramification formula at n0 = 0.  The segment harnesses cut
M once along the segments: S's block M_S is S's Laplacian without its
marks, whose det_int is F_t(S).  When no entry of M joins two segments
(factorization_exact checks), det M is the product of the Laurent blocks'
determinants, and their (mu, lambda) add up.

The general identity's segment counts come from M_S too: a mark has depth
0, so its fibre is one vertex, whose row lies in the trivial part.  With P
the product of det M_S(zeta) over zeta^(p^n) = 1, zeta != 1,
F_t(S_n) = det M_S(1) * P, and kappa(S_n) = p^n * kappa(S) * P at a
2-segment (kappa(S) = det_int of S's Laplacian without one mark).  The
cover and each such zeta see a voltage only mod p^n, so M_S takes the
symmetric residues: det M_S has degree at most |V_S| * p^n, where a voltage
as given (10^9, say) would pass det_laurent's work limit.  A segment whose
det M_S or chain would pass WORK_LIMIT (the chain by tower_kappas' estimate)
takes its counts as det_int of S_n's Laplacian, filled from the lifts of
S's edges alone (cover.lift_laplacian): a part of the witness, so no larger.
"""

from __future__ import annotations

import sys
from typing import NamedTuple

from .cover import check_request, cover_laplacian, fibre_size, level_size, lift_laplacian
from .forests import kappa
from .graph import GraphError, Multigraph, RamificationData, laplacian, laplacian_index, prune_tails
from .linalg import (WORK_LIMIT, LaurentPoly, LinalgError, WorkLimitExceeded, det_int, det_laurent, expand_at_gamma,
                     mu_lambda, ord_p, root_of_unity_products)
from .seal import admissible_sets, decompose


class TowerError(ValueError):
    pass


class DisconnectedCover(TowerError):
    def __init__(self, level):
        self.level = level
        super().__init__(f"cover at level {level} is disconnected")


class CharElement(NamedTuple):
    t_power: int  # exponent l of the leading T^l factor
    body: tuple  # coefficients of det(M) at gamma = 1 + T, to its first span + 1 terms
    det_gamma: LaurentPoly  # det(M) as a Laurent polynomial in gamma
    p: int


class InvariantTriple(NamedTuple):
    mu: int
    lam: int
    nu: int | None = None  # empirical fits only


class Verdict(NamedTuple):
    ok: bool
    lhs: object
    rhs: object
    detail: dict


def _within_limit(stage, block):
    """det_laurent of a graph.laplacian block; WorkLimitExceeded becomes a GraphError naming the stage."""
    try:
        return det_laurent(block)
    except WorkLimitExceeded as exc:
        raise GraphError(f"{stage}: {exc}") from exc


def _segment_blocks(d, voltage):
    """Each segment's block of M = graph.laplacian(d.graph, d.ramified, voltage), built
    once: the rows and columns of its unramified vertices, in vertex order, which is
    the segment's own Laplacian without its marks (see seal.decompose)."""
    m = laplacian(d.graph, d.ramified, voltage)
    index = laplacian_index(d.graph, d.ramified)
    for s in d.segments:
        rows = sorted(index[v] for v in s.vertices if v in index)
        local = {i: k for k, i in enumerate(rows)}
        yield [{local[j]: x for j, x in m[i].items() if j in local} for i in rows]


def char_element(g: Multigraph, r: RamificationData, voltage, p: int) -> CharElement:
    """T^l * det M at gamma = 1 + T, M = graph.laplacian(g, r.depths, voltage)
    the block of the voltage Laplacian on the unramified vertices (empty, with
    det M = 1, when every vertex is ramified)."""
    check_request(g, r, voltage, p)
    if not g.vertices:
        raise GraphError("kappa of the empty graph")  # as forests.kappa refuses it
    if not g.connected():
        raise DisconnectedCover(0)
    det = _within_limit("characteristic element", laplacian(prune_tails(g, r), r.depths, voltage or {}))
    body = expand_at_gamma(det)
    return CharElement(len(r.depths), body, det, p)


def symbolic_invariants(c: CharElement) -> InvariantTriple:
    """Jacobian mu/lambda from the characteristic element."""
    if not c.body:
        raise TowerError("characteristic body is zero (degenerate segment)")
    mu, lam = mu_lambda(c.body, c.p)
    return InvariantTriple(mu, (c.t_power - 1) + lam)


def _chain_work(det, p, n, extra=0):
    """About the bit operations of level n of det's chain (root_of_unity_products)
    with extra more bits per step: (p*d^2 + 1) * (p^n * log2(||det||_1 * |c|^d) + extra),
    d the span and c the leading coefficient of det."""
    cs = det.coeffs
    d = max(cs, default=0) - min(cs, default=0)
    size = det.norm() * abs(cs.get(max(cs, default=0), 0)) ** d
    bits = max(size - 1, 0).bit_length()  # 0 when det = ±1: then p**n, huge at a high level, is never built
    return (p * d * d + 1) * ((bits and p**n * bits) + extra)


FIT_DEPTH = 4  # levels past the largest depth n0 that a default fit runs to


def tower_kappas(g, r, voltage, p, n_max, *, _det_m=None):
    """kappa(X_n) for n = 0..n_max, read from the blocks of X without its
    tails (see the module docstring); raises DisconnectedCover at the first
    level whose count is 0.  _det_m is det M with every mark ramified, when
    the caller has it.  Level n takes about
    (p*d^2 + 1) * (p^n * log2(||det M_n||_1 * |c|^d) + (s_n + n) * log2 p) bit
    operations, d the span and c the leading coefficient of det M_n.  Before
    any chain starts, GraphError names the level where their sum passes
    WORK_LIMIT, or n_max if its counts would not print."""
    check_request(g, r, voltage, p)
    core = prune_tails(g, r)
    marks, shifts, dets, work = [()], [0], {}, 0  # R_n, s_n, det M_n by R_n
    for n in range(1, n_max + 1):
        m = tuple(v for v, k in r.depths.items() if k < n)
        if m not in dets:
            full = _det_m is not None and len(m) == len(r.depths)
            dets[m] = _det_m if full else _within_limit(f"level {n}", laplacian(core, m, voltage or {}))
        marks.append(m)
        shifts.append(sum(p**k * (n - k) for k in r.depths.values() if k < n) - n)
        work += _chain_work(dets[m], p, n, (max(shifts[n], 0) + n) * p.bit_length())
        if work > WORK_LIMIT:
            raise GraphError(f"level {n} of the tower would take about 2^{work.bit_length() - 1} bit operations, "
                             f"past 2^{WORK_LIMIT.bit_length() - 1}")
    # here work >= n_max^2, so p^n_max is cheap.  Each level's counts print: refuse a last level past Python's
    # int-to-str digit limit (0, or Python 3.10: none); a number below 2^(3 * limit) is below 10^limit
    limit = getattr(sys, "get_int_max_str_digits", int)()
    top = max(len(g.edges) * p**n_max, level_size(g, r, p, n_max))
    if limit and top.bit_length() > 3 * limit and top >= 10**limit:
        raise GraphError(f"level {n_max} of the tower would have an edge or vertex count past Python's int-to-str digit limit")
    chains = {m: root_of_unity_products(dets[m], p, max(n for n, x in enumerate(marks) if x == m)) for m in dets}

    base, primitive, start, out = kappa(core), [1], 0, []  # primitive[n]: prod over a <= n of order p^a
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
        out.append({"n": n, "vertices": level_size(g, r, p, n), "edges": len(g.edges) * p**n, "kappa": count})
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


def _witness(g, r, voltage, p, n):
    """kappa(X_n) from cover.cover_laplacian; DisconnectedCover when it is 0."""
    count = det_int(cover_laplacian(g, r, voltage, p, n))
    if count == 0:
        raise DisconnectedCover(n)
    return count


def _lifted_segment(d, s, r, voltage, p, n, drop):
    """The Laplacian of S_n, the lifts of S's edges alone at level n, without
    the marks in drop (of depth 0: one vertex each), so a mark left in counts
    only those lifts; at n = 0 it is S's own Laplacian."""
    mods, first, size = {}, {}, 0
    for v in d.graph.vertices:
        if v in s.vertices:
            mods[v] = fibre_size(r, p, n, v)
            first[v] = -1 if v in drop else size
            size += 0 if v in drop else mods[v]
    edges = [e for e in d.graph.edges if e.id in s.edge_ids]
    return lift_laplacian(edges, mods, p**n, voltage, first, size)


def _segment_chain(block, p, n):
    """(det M_S(1), P) for S's block M_S, P the product of det M_S(zeta) over
    zeta^(p^n) = 1, zeta != 1, or None where det_laurent or the chain would
    pass WORK_LIMIT (see tower_kappas).  A segment with no unramified vertex
    has det M_S = 1."""
    try:
        det = det_laurent(block) if block else LaurentPoly({0: 1})
    except WorkLimitExceeded:
        return None
    if sum(_chain_work(det, p, a) for a in range(1, n + 1)) > WORK_LIMIT:
        return None
    return sum(det.coeffs.values()), root_of_unity_products(det, p, n)[n]


def verify_theorem_A(g, r, voltage, p, n) -> Verdict:
    """kappa(X_n) = kappa(X) * p^{n(l-1)} * prod F_{t_i}(S^i)^{p^n - 1}: the
    partial-ramification formula at n0 = 0, where every mark has depth 0."""
    check_request(g, r, voltage, p)
    if any(r.depths.values()):
        raise TowerError("the product formula requires totally ramified vertices")
    if not any((voltage or {}).values()) and not r.depths:
        decompose(g, r)  # a graph with no mark has no decomposition
    return verify_partial_ramification(g, r, voltage, p, n)


def verify_partial_ramification(g, r, voltage, p, n) -> Verdict:
    """kappa(X_n) = kappa(X_{n0}) * p^{(n-n0)(l-1)} * prod F_{t_i}(S^i)^{p^n - p^{n0}}
    where n0 = max depth and l is the ramified-vertex count at level n0; at
    n0 = 0 this is theorem A.  X decomposes, so it is connected, and a mark of
    depth 0 keeps every cover connected; _witness still checks.  The witness,
    cover_laplacian at level n, refuses a level past SIZE_LIMIT before any
    count; kappa(X_{n0}) = tower_kappas(...)[n0] comes from X's blocks."""
    check_request(g, r, voltage, p)
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
    # the witness refuses a level past SIZE_LIMIT before any count and before the powers by p^n below
    lhs = _witness(d.graph, r, voltage, p, n)
    base = tower_kappas(d.graph, r, voltage, p, n0)[n0]["kappa"]
    counts = [det_int(block) for block in _segment_blocks(d, None)]  # F_t(S) of each segment S
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
    prod_{i in I} kappa(S^i_n) * prod_{i not in I} F_{t_i}(S^i_n), the right
    side from the segment blocks (see the module docstring), after the
    witness has refused a cover past SIZE_LIMIT."""
    check_request(g, r, voltage, p)
    if any(k != 0 for k in r.depths.values()):
        raise TowerError("the admissible-set formula requires totally ramified vertices")
    d = decompose(g, r)
    lhs = _witness(d.graph, r, voltage, p, n)
    kappas, forests = [], []
    if d.segments:  # X has an edge, so the witness has bounded p^n
        order, half = p**n, (p**n - 1) // 2
        residue = {eid: (a + half) % order - half for eid, a in (voltage or {}).items()}  # in -half..order - 1 - half
        for s, block in zip(d.segments, _segment_blocks(d, residue)):
            if (chain := _segment_chain(block, p, n)) is None:  # S_n's own counts, on a part of the witness
                forests.append(det_int(_lifted_segment(d, s, r, residue, p, n, s.ramified)))
                kappas.append(det_int(_lifted_segment(d, s, r, residue, p, n, s.ramified[:1])) if s.t == 2 else forests[-1])
            else:
                at_one, product = chain
                forests.append(at_one * product)
                kappas.append(order * det_int(_lifted_segment(d, s, r, {}, p, 0, s.ramified[:1])) * product
                              if s.t == 2 else forests[-1])
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
    """det M = prod_S det M_S over the segments S, and mu and lambda add over
    products in Z_p[[T]]: mu = sum mu_S, lambda = sum lambda_S + l - 1.

    M_S is S's block of one cut of M (_segment_blocks); a segment with no
    unramified vertex (an edge between marks, a loop at a mark) has
    det M_S = 1.  M is block-diagonal with the blocks M_S, so the product is
    det M, exactly when every unramified vertex and every edge lies in one
    segment and every edge at an unramified vertex is an edge of that
    vertex's segment: factorization_exact reports that hypothesis, and ok
    is that flag.  The reply's (mu, lambda) are those sums: no product is
    formed.  Interpolating and expanding a factor of span d and b-bit
    coefficients takes about (d + 1)^2 * (b + d) bit operations; GraphError
    names the segment where their sum passes WORK_LIMIT.
    """
    check_request(g, r, voltage, p)
    d = decompose(g, r)
    owner, holders = {}, {}  # vertex -> the segments that hold it; edge id -> the same
    work, factors = 0, []  # the factors' bit operations so far, and their (mu, lambda)
    for s, block in zip(d.segments, _segment_blocks(d, voltage or {})):
        for v in s.vertices:
            owner.setdefault(v, []).append(s)
        for eid in s.edge_ids:
            holders.setdefault(eid, []).append(s)
        mu_i = lam_i = 0
        if block:
            det = _within_limit("characteristic element", block)
            span = max(det.coeffs, default=0) - min(det.coeffs, default=0)
            if (work := work + (span + 1) ** 2 * (det.norm().bit_length() + span)) > WORK_LIMIT:
                raise GraphError(f"characteristic element: interpolating and expanding the factors of segments 0..{s.color} "
                                 f"would take about 2^{work.bit_length() - 1} bit operations, past 2^{WORK_LIMIT.bit_length() - 1}")
            mu_i, lam_i = mu_lambda(expand_at_gamma(det), p)
        factors.append({"segment": s.color, "mu": mu_i, "lambda": lam_i})
    factor_ok = (all(len(owner.get(v, ())) == 1 for v in d.graph.vertices if v not in r.depths)
                 and all(len(holders.get(e.id, ())) == 1 for e in d.graph.edges)
                 and all(holders[e.id][0] is owner[w][0] for e in d.graph.edges for w in e[1:] if w not in r.depths))
    sums = {"mu": sum(f["mu"] for f in factors), "lambda": sum(f["lambda"] for f in factors) + d.l - 1}
    return Verdict(factor_ok, sums, sums, {"factorization_exact": factor_ok, "factors": factors, "l": d.l})


def tower_report(g, r, voltage, p, n_max=None, empirical=True, symbolic=True):
    """Combined report: per-level counts, empirical fit, symbolic invariants."""
    report = {"p": p}
    sym = ce = None
    if symbolic:
        ce = char_element(g, r, voltage, p)
        sym = symbolic_invariants(ce)
        report["char_body"] = list(ce.body)
        report["t_power"] = ce.t_power
        report["symbolic"] = {"mu": sym.mu, "lambda": sym.lam}
    if empirical:
        if n_max is not None and n_max < 0:
            raise GraphError(f"tower level must be non-negative, got {n_max}")
        n0 = max(r.depths.values(), default=0)
        n_max = n0 + FIT_DEPTH if n_max is None else max(n_max, n0 + 2)
        levels = report["levels"] = tower_kappas(g, r, voltage, p, n_max, _det_m=ce.det_gamma if ce else None)
        fit, stable = fit_orders([(lv["n"], ord_p(lv["kappa"], p)) for lv in levels], p)  # kappa > 0: tower_kappas raised on 0
        if fit is None:
            raise TowerError("no exact integer fit for the tower orders")
        report["empirical"] = {"mu": fit.mu, "lambda": fit.lam, "nu": fit.nu}
        report["fit_stable"] = stable
        if sym is not None:
            report["agreement"] = sym.mu == fit.mu and sym.lam == fit.lam
    return report
