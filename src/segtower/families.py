"""Parametrised example families with closed-form 2-forest counts.

Four families, each marking two vertices:

  line          -- path v1..vk with multiplicities n_i between consecutive
                   vertices; endpoints marked; F2 = prod(n_i) * sum(1/n_i)
  modified_line -- simple path v1..vk plus one extra edge (v_n, v_m);
                   endpoints marked; F2 = (k - m + n)(m - n + 1) - 1
  chorded_cycle -- cycle v1..vn with marked v1, v_t plus one chord (v_i, v_j);
                   F2 by a three-way case split on where the chord sits
  complete      -- complete graph K(n) with v1, v2 marked;
                   F2 = sum_i C(n-2, i-1) kappa_i kappa_{n-i}
                   with kappa_i = i^{i-2} spanning trees of K(i)
"""

from __future__ import annotations

import math

from .graph import GraphError, RamificationData, build_graph, check_size


def _check_ints(**params):
    """Raise GraphError naming the first parameter that is no int (a bool is none)."""
    for name, x in params.items():
        if type(x) is not int:
            raise GraphError(f"{name} must be an integer, got {x!r}")


def _multiplicities(ns):  # a list (or tuple) of positive ints
    if type(ns) not in (list, tuple) or not ns or any(type(x) is not int or x < 1 for x in ns):
        raise GraphError("line multiplicities must be positive integers")
    return ns


def line_graph(multiplicities):
    ns = _multiplicities(multiplicities)
    k = len(ns) + 1
    check_size(k, sum(ns), "the line graph")
    vertices = [f"v{i}" for i in range(1, k + 1)]
    edges = []
    for i, n in enumerate(ns, start=1):
        for c in range(n):
            edges.append((f"v{i}", f"v{i+1}", f"e{i}_{c}"))
    g = build_graph(vertices, edges)
    return g, RamificationData.totally_ramified(["v1", f"v{k}"])


def line_f2(multiplicities):
    ns = _multiplicities(multiplicities)
    prod = math.prod(ns)
    return sum(prod // n for n in ns)  # prod * sum(1/n), exact: n divides prod


def _validate_modified_line(k, n, m):
    _check_ints(k=k, n=n, m=m)
    if not (2 <= n <= k - 2 and n + 2 <= m <= k):
        raise GraphError("modified line needs 2 <= n <= k-2 and n+2 <= m <= k")


def modified_line_graph(k, n, m):
    _validate_modified_line(k, n, m)
    check_size(k, k, "the modified line graph")
    vertices = [f"v{i}" for i in range(1, k + 1)]
    edges = [(f"v{i}", f"v{i+1}", f"e{i}") for i in range(1, k)]
    edges.append((f"v{n}", f"v{m}", "chord"))
    g = build_graph(vertices, edges)
    return g, RamificationData.totally_ramified(["v1", f"v{k}"])


def modified_line_f2(k, n, m):
    _validate_modified_line(k, n, m)
    return (k - m + n) * (m - n + 1) - 1


def chorded_cycle_graph(n, t, i, j):
    _validate_chorded(n, t, i, j)
    check_size(n, n + 1, "the chorded cycle")
    vertices = [f"v{x}" for x in range(1, n + 1)]
    edges = [(f"v{x}", f"v{x % n + 1}", f"c{x}") for x in range(1, n + 1)]
    edges.append((f"v{i}", f"v{j}", "chord"))
    g = build_graph(vertices, edges)
    return g, RamificationData.totally_ramified(["v1", f"v{t}"])


def _validate_chorded(n, t, i, j):
    _check_ints(n=n, t=t, i=i, j=j)
    if n < 3:
        raise GraphError("chorded cycle needs n >= 3")
    if not (2 <= t <= -(-n // 2)):
        raise GraphError("chorded cycle needs 2 <= t <= ceil(n/2)")
    if not (1 <= i < j <= n):
        raise GraphError("chord endpoints need 1 <= i < j <= n")


def _chorded_presentations(n, t, i, j):
    """Relabelings of the cycle fixing position 1 on a marked vertex.

    Yields (t, i, j) for: identity; reflection through v1; rotation putting
    v_t at position 1; and that rotation composed with reflection.
    """
    def refl(x):
        return 1 if x == 1 else n + 2 - x

    def rot(x):
        return (x - t) % n + 1

    for f in (lambda x: x, refl, lambda x: rot(x), lambda x: refl(rot(x))):
        tt = max(f(1), f(t))  # the marked vertex not at position 1
        ii, jj = sorted((f(i), f(j)))
        yield tt, ii, jj


def chorded_cycle_f2(n, t, i, j):
    _validate_chorded(n, t, i, j)
    for tt, ii, jj in _chorded_presentations(n, t, i, j):
        if jj == ii + 1 and 1 <= ii < tt and jj <= tt:
            # chord between consecutive vertices of the short side
            if ii == 1 and tt == 2:
                return n - 1
            return (2 * tt - 3) * (n - tt + 1)
        if jj <= tt and jj != ii + 1:
            # both chord endpoints on the side through the marked vertices
            if ii == 1 and jj == tt:
                return (tt - 1) * (n - tt + 1)
            return (n - tt + 1) * ((tt - jj + ii) * (jj - ii + 1) - 1)
        if 2 <= ii <= tt - 1 and tt + 1 <= jj <= n:
            # chord straddling the two sides; when both chord endpoints and the
            # marked v1 sit in one tree, that tree omits one edge of a cycle
            # with (n - jj) + ii + 1 edges (arc through v_n, v_1 plus chord)
            return (n - jj + 1) * ((ii - 1) * (jj - ii + 1) + (tt - ii)) + (jj - tt) * (
                (tt - ii) * (n - jj + ii + 1) + (ii - 1)
            )
    raise GraphError(f"no case applies to chorded cycle ({n}, {t}, {i}, {j})")


def _validate_complete(n):
    _check_ints(n=n)
    if n < 2:
        raise GraphError("complete graph needs n >= 2")


def complete_graph(n):
    _validate_complete(n)
    check_size(n, n * (n - 1) // 2, "the complete graph")
    vertices = [f"v{x}" for x in range(1, n + 1)]
    edges = [(f"v{a}", f"v{b}", f"e{a}_{b}") for a in range(1, n + 1) for b in range(a + 1, n + 1)]
    g = build_graph(vertices, edges)
    return g, RamificationData.totally_ramified(["v1", "v2"])


def _kappa_complete(i):
    return 1 if i == 1 else i ** (i - 2)


def complete_f2(n):
    _validate_complete(n)
    return sum(
        math.comb(n - 2, i - 1) * _kappa_complete(i) * _kappa_complete(n - i)
        for i in range(1, n)
    )


_VARIANTS = {
    "line": (line_graph, line_f2),
    "modified_line": (modified_line_graph, modified_line_f2),
    "chorded_cycle": (chorded_cycle_graph, chorded_cycle_f2),
    "complete": (complete_graph, complete_f2),
}


def _call(variant, which, params):
    if variant not in _VARIANTS:
        raise GraphError(f"unknown family variant {variant!r}")
    try:
        return _VARIANTS[variant][which](**params)
    except TypeError as exc:  # a wrong parameter name
        raise GraphError(str(exc)) from None


def make_family(variant, **params):
    return _call(variant, 0, params)


def f2_closed_form(variant, **params):
    return _call(variant, 1, params)
