"""Exact linear algebra over Z and over Z[g, g^-1].

A matrix is a list of sparse rows [{column: entry}] of its nonzero entries:
a block as graph.laplacian builds it, the one kind both determinants take
(see det_int, det_laurent).  Both determinants eliminate modulo a product of primes
below 2^30 (one CPython digit each), pivoting on the diagonal of the block's
symmetric pattern in a minimum-degree order read from the row lengths as
they go: det_int one matrix (_det_mod, which borrows no row), det_laurent up
to GROUP_WIDTH interpolation nodes in one pass (_det_mod_nodes, where a node
may borrow one), each entry a list of its values at the nodes, reduced only
in pivot rows, and interpolates in g + 1/g.
Products of a Laurent polynomial over the p^a-th roots of unity come from
one root-power (Graeffe) chain over Z, with no matrix and no prime.  Laurent
polynomials in the deck generator g expand at g = 1 + T to integer tuples
(series prefixes for negative powers), whose p-adic valuations give mu, lambda.
"""

from __future__ import annotations

import heapq
import itertools
import math
import operator


class LinalgError(ValueError):
    pass


class WorkLimitExceeded(LinalgError):
    """An estimate passes WORK_LIMIT before the work it estimates starts."""


WORK_LIMIT = 2**31  # bit operations that det_laurent, a tower or the factors of a factorization may take
GROUP_WIDTH = 16  # the most nodes one pass of det_laurent's kernel eliminates: W copies of the filled block


class LaurentPoly:
    """Laurent polynomial sum c_e * g^e with integer coefficients.

    Stored as a dict mapping exponent -> coefficient; zero coefficients are
    never stored, so the zero polynomial is the empty dict.  Unhashable:
    it compares equal to ints, whose hashes it would have to match.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        self.coeffs = {int(e): int(c) for e, c in (coeffs or {}).items() if c != 0}

    @property
    def is_zero(self):
        return not self.coeffs

    def min_exp(self):
        if self.is_zero:
            raise LinalgError("zero polynomial has no exponents")
        return min(self.coeffs)

    def max_exp(self):
        if self.is_zero:
            raise LinalgError("zero polynomial has no exponents")
        return max(self.coeffs)

    def shift(self, k):
        """Multiply by g^k."""
        return LaurentPoly({e + k: c for e, c in self.coeffs.items()})

    def norm(self):  # the l1 norm of the coefficients
        return sum(map(abs, self.coeffs.values()))

    def __mul__(self, other):
        res = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                res[e] = res.get(e, 0) + c1 * c2
        return LaurentPoly(res)

    def __eq__(self, other):
        if isinstance(other, int):
            other = LaurentPoly({0: other})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __repr__(self):
        if self.is_zero:
            return "LaurentPoly(0)"
        terms = " + ".join(f"{c}*g^{e}" for e, c in sorted(self.coeffs.items()))
        return f"LaurentPoly({terms})"


def laurent_exact_div(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """Divide a by b, requiring the quotient to lie in Z[g, g^-1].

    A non-exact division raises LinalgError.  No production path divides
    polynomials (det_laurent interpolates); this serves the tests' Bareiss
    reference over Z[g], and the benchmark's tracer wraps it by name.
    """
    if b.is_zero:
        raise LinalgError("division by zero polynomial")
    if a.is_zero:
        return LaurentPoly()
    shift = a.min_exp() - b.min_exp()
    rem = {e - a.min_exp(): c for e, c in a.coeffs.items()}
    bb = {e - b.min_exp(): c for e, c in b.coeffs.items()}
    bmax = max(bb)
    blead = bb[bmax]
    quot = {}
    while rem:
        rmax = max(rem)
        if rmax < bmax:
            raise LinalgError("inexact polynomial division")
        c, r = divmod(rem[rmax], blead)
        if r != 0:
            raise LinalgError("inexact polynomial division")
        e = rmax - bmax
        quot[e] = c
        for be, bc in bb.items():
            k = be + e
            v = rem.get(k, 0) - c * bc
            if v:
                rem[k] = v
            elif k in rem:
                del rem[k]
    return LaurentPoly(quot).shift(shift)


_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
PRIME_TEST_LIMIT = 3 * 10**23  # Miller-Rabin with these bases is exact below it


def is_prime(n):
    """Trial division by the bases, then Miller-Rabin with them: exact for
    n < PRIME_TEST_LIMIT."""
    if n < 2:
        return False
    if math.gcd(n, math.prod(_BASES)) != 1:
        return n in _BASES
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# the largest primes below 2^30 (a residue fits one CPython digit, not three as below 2^62), descending,
# as far as any call has needed; every caller sees the same sequence, so one cache serves the process
_PRIMES = []


def _primes():
    """Yield the primes below 2^30 (one CPython digit each) in descending
    order.  Each is found on first use and kept for later calls."""
    for i in itertools.count():
        if i == len(_PRIMES):
            q = (_PRIMES[-1] if _PRIMES else 2**30 + 1) - 2
            while not is_prime(q):
                q -= 2
            _PRIMES.append(q)
        yield _PRIMES[i]


class _NonUnitPivot(ArithmeticError):
    """A pivot shares a prime factor with the modulus; args[0] is their gcd."""


def _symmetric_lift(residues, bound):
    """The integers of absolute value at most bound whose residues modulo m
    are residues(m), by the symmetric lift, for m a product of primes past
    2 * bound, with no Chinese remaindering.  A pivot that is no unit modulo
    m drops the primes that divide it, and the next primes are drawn until
    the product passes again; each retry drops a prime for good, so at the
    latest the primes running out ends the loop."""
    qs, m, primes = [], 1, _primes()
    while True:
        while m <= 2 * bound:
            if (q := next(primes, None)) is None:
                raise LinalgError("the primes ran out before their product passed the bound")
            qs.append(q)
            m *= q
        try:
            return [x - m if 2 * x > m else x for x in residues(m)]
        except _NonUnitPivot as exc:
            qs = [q for q in qs if exc.args[0] % q]
            m = math.prod(qs)


def _least_length_first(a):
    """Yield the rows of a to eliminate, each a row of least length among
    those left, ties to the lower index, as both kernels take them: a lazy
    heap of (length, row) whose stale entries are skipped.  A step changes
    only the lengths of the rows it updates, the taken row's neighbours;
    each of them whose length changed is pushed again.  In a symmetric
    pattern a row's length is its degree plus one, so this is the greedy
    minimum-degree order (George & Liu, SIAM Review 1989).
    """
    lens = [len(row) for row in a]  # the length each row was last pushed with
    heap = list(zip(lens, range(len(a))))
    heapq.heapify(heap)
    while heap:
        d, k = heapq.heappop(heap)
        if (row := a[k]) is not None and d == len(row):
            yield k
            for i in row:
                if (n := len(a[i])) != lens[i]:
                    lens[i] = n
                    heapq.heappush(heap, (n, i))


def _inverses(xs, q):
    """[x^-1 mod q for x in xs] from one pow: the prefix products are
    inverted at once and unwound (Montgomery, Math. Comp. 48, 1987).  When
    some x shares a prime factor with q, _NonUnitPivot names the gcd of
    their product with q."""
    prefix, acc = [], 1
    for x in xs:
        prefix.append(acc)
        acc = acc * x % q
    try:
        inv = pow(acc, -1, q)
    except ValueError:
        raise _NonUnitPivot(math.gcd(acc, q)) from None
    out = [0] * len(xs)
    for t in range(len(xs) - 1, -1, -1):
        out[t] = inv * prefix[t] % q
        inv = inv * xs[t] % q
    return out


def _det_mod(a, q):
    """det mod q of det_int's block a, sparse rows [{column: entry}], which
    it overwrites.  q is a product of primes; a pivot it must invert whose
    gcd with q is g > 1 raises _NonUnitPivot(g).  An entry that q divides
    must be 0 (|entry| < q).

    The pattern of a must be symmetric (j in a[i] exactly when i in a[j])
    and hold every diagonal entry; zero residues stay.  Each step pivots on
    the diagonal of a row of least length (see _least_length_first).  It
    updates the rows of the pivot row's columns, every one by all of its
    columns, even for a factor of 0, so the pattern stays symmetric and no
    zero is deleted.  No row is borrowed: q passes twice the bound of the
    semidefinite block and earlier pivots are units, so a zero pivot is 0
    over Q, and in a semidefinite Schur complement so is its column: det 0.
    A nonzero residue in that column is a LinalgError.
    """
    det = 1
    for k in _least_length_first(a):
        rp = a[k]
        x = rp.pop(k)
        if not x:
            if any(a[i][k] for i in rp):
                raise LinalgError(f"pivot {k} is 0 over a nonzero column, so the matrix is no block det_int takes")
            return 0
        a[k] = None
        det = det * x % q
        if not rp:
            continue
        try:
            inv = pow(x, -1, q)
        except ValueError:  # a prime of q divides the pivot
            raise _NonUnitPivot(math.gcd(x, q)) from None
        for i in rp:
            ri = a[i]
            f = ri.pop(k) * inv % q
            for j, y in rp.items():
                ri[j] = (ri.get(j, 0) - f * y) % q
    return det


def _det_mod_nodes(a, q, width):
    """[det mod q at each node] of the square matrix a at width nodes at
    once: its sparse rows [{column: [entry at each node]}], which it
    overwrites, its entries any ints: a row is reduced mod q once, as it
    becomes the pivot row.  It takes _det_mod's pattern and order, which
    depends only on the pattern and so serves every node; each step inverts
    the pivots of all nodes by one pow (see _inverses).

    M(x) is neither symmetric nor definite, so a node's pivot can be 0 over
    a nonzero column: that node alone adds to row k the first row i of its
    columns with a[i][k] nonzero there, which leaves det unchanged; the
    columns row k gains hold zeros at the other nodes and get zero mirrors.
    A node whose column k is zero has det 0 and is frozen: its later pivots
    count as 1, so it never borrows, raises _NonUnitPivot or drops a prime
    again.  When every node is frozen the elimination ends.  Every update
    builds a new list, so entries may share one.
    """
    dets, frozen, zero = [1] * width, set(), [0] * width
    for k in _least_length_first(a):
        rp = a[k]
        for j, v in rp.items():  # in place: the pivot order reads this dict after the step
            rp[j] = [x % q for x in v]
        if 0 in rp[k]:
            for t, x in enumerate(rp[k]):
                if x or t in frozen:
                    continue
                if (i := next((i for i in rp if a[i][k][t] % q), None)) is None:
                    frozen.add(t)
                    continue
                for j, y in a[i].items():
                    a[j].setdefault(k, zero)
                    v = rp[j] = list(rp.get(j, zero))
                    v[t] = (v[t] + y[t]) % q
            if len(frozen) == width:
                return zero
        xs = rp.pop(k)
        a[k] = None
        dets = [d * x % q for d, x in zip(dets, xs)]
        if not rp:
            continue
        invs = _inverses([1 if t in frozen else x for t, x in enumerate(xs)] if frozen else xs, q)
        for i in rp:
            ri = a[i]
            fs = [f * inv % q for f, inv in zip(ri.pop(k), invs)]
            for j, ys in rp.items():
                ri[j] = [r - f * y for r, f, y in zip(ri.get(j, zero), fs, ys)]
    return dets


def _square(m):  # whether m is n sparse rows {column: entry}, every column in range(n)
    return all(map(isinstance, m, itertools.repeat(dict))) and set().union(*m) <= set(range(len(m)))


def _block_bound(m):
    """prod_i M_ii of det_int's int block m (see _square), M_ji = M_ij and
    2 M_ii >= sum_j |M_ij| (M_ii = 0 if absent), so a row is empty (the
    bound 0) or holds its diagonal; else a LinalgError naming the first row
    that fails (a TypeError when the |M_ij| do not sum to an int, as floats do)."""
    if not _square(m):
        raise LinalgError("a matrix must be n rows {column: entry} with every column in range(n)")
    bound = 1
    for i, row in enumerate(m):
        d = row.get(i, 0)
        dominant = operator.index(sum(map(abs, row.values()))) <= 2 * int(d)
        for j, x in row.items():
            if not (dominant and x == m[j].get(i)):
                raise LinalgError(f"det_int takes only symmetric, diagonally dominant blocks; row {i} is not one")
        bound *= abs(d)
    return bound


def det_int(m, *, _bound=None) -> int:
    """Exact determinant of a symmetric integer block M, 2 M_ii >= sum_j
    |M_ij|, as graph.laplacian builds it with no voltage (else LinalgError
    before any prime): 0 <= det M <= prod_i M_ii (Hadamard; M is positive
    semidefinite), 0 when a row is empty.  One elimination (see _det_mod)
    modulo a product of primes that passes twice that bound, or _bound if
    the caller has just checked M against it (see _symmetric_lift), which
    takes the rows unreduced: |M_ij| <= M_ii <= bound."""
    try:  # abs refuses a LaurentPoly or a str, operator.index a float
        bound = _bound or _block_bound(m)
    except TypeError:
        raise LinalgError("det_int takes only rows whose entries are all int") from None
    return _symmetric_lift(lambda q: [_det_mod(list(map(dict.copy, m)), q)], bound)[0] if bound else 0


def _max_assignment(w):
    """The maximum of sum_i w_i,s(i) over the permutations s through the
    entries of the sparse weight rows w = [{column: w_ij}], or None when no
    permutation runs through them.  Shortest augmenting paths: potentials
    u_i + v_j >= w_ij start at the row maxima and v = 0, where each row takes
    the first free column at its maximum (tight); each row left free in turn
    runs Dijkstra on the reduced weights u_i + v_j - w_ij >= 0 to the nearest
    free column, the potentials shift so that the path becomes tight, and the
    path flips.  Matched entries stay tight, so the maximum is sum u + sum v.
    """
    u, v = [max(row.values(), default=0) for row in w], [0] * len(w)
    row_of, col_of = [None] * len(w), [None] * len(w)  # the matching, from each side
    for i, row in enumerate(w):
        if (j := next((j for j, x in row.items() if x == u[i] and row_of[j] is None), None)) is not None:
            row_of[j], col_of[i] = i, j
    for start in [i for i, j in enumerate(col_of) if j is None]:
        heap = [(u[start] + v[j] - x, j, start) for j, x in w[start].items()]
        heapq.heapify(heap)
        dist, came = {}, {}  # of each column reached: its distance, the row it was reached from
        while heap:
            d, j, i = heapq.heappop(heap)
            if j in dist:
                continue
            dist[j], came[j] = d, i
            if (k := row_of[j]) is None:
                break
            for t, x in w[k].items():  # k is reached at distance d
                if t not in dist:
                    heapq.heappush(heap, (d + u[k] + v[t] - x, t, k))
        else:
            return None
        u[start] -= d
        for t, dt in dist.items():
            v[t] += d - dt
            if row_of[t] is not None:
                u[row_of[t]] -= d - dt
        while j is not None:
            i = came[j]
            row_of[j], col_of[i], j = i, j, col_of[i]
    return sum(u) + sum(v)


def det_laurent(m) -> LaurentPoly:
    """Exact determinant of an unramified block M, given by its sparse rows
    [{column: entry}] of nonzero entries, as graph.laplacian builds it: with
    no voltage all int, handed to det_int as it is; else all LaurentPoly,
    mirrored, M_ji(g) = M_ij(1/g), and diagonally dominant, 2 c_0(M_ii) >=
    sum_j ||M_ij||_1 (c_0 the constant coefficient).  Any other M is a
    LinalgError before any prime or node: the shape's, else the first
    failing row's, else a zero entry's, from one pass that reads each
    distinct entry (by its terms) once and compares dicts, not term orders.

    hi, the exact maximum over the permutations through M's entries of the
    sum of their top exponents (see _max_assignment), bounds det M at both
    ends, as M(1/g) = M(g)^T: det M is palindromic, and Q = g^hi * det M has
    degree at most d = 2 hi.  With no such permutation (an empty row)
    det M = 0.  On |g| = 1, M is Hermitian and diagonally dominant with a
    nonnegative diagonal, so positive semidefinite, and Hadamard's
    inequality gives 0 <= det M(g) <= prod_i M_ii(g) <= prod_i ||M_ii||_1 =
    2^b, which by Parseval bounds every coefficient of Q.  Interpolating Q
    at d + 1 points and Taylor-shifting it to g = 1 + T take about
    (d + 1)^2 * (b + d) bit operations; past WORK_LIMIT, WorkLimitExceeded
    names d before any node is evaluated.  (The interpolation below takes
    about 3/8 of those products, so the estimate over-counts it.)

    At hi = 0, det M is the integer det M(1), which det_int takes with the
    bound just checked: ||M_ii||_1 >= M_ii(1) >= sum_j ||M_ij||_1.  Else,
    modulo a product of primes that passes 2^(b + 1) (see _symmetric_lift),
    _det_mod_nodes eliminates M at the nodes x = 1..hi + 1, GROUP_WIDTH at
    a time, each distinct entry evaluated once per group as a list of its
    values; a node is raised to each exponent that occurs by one pow, so an
    exponent E costs O(log E) multiplications, not E.  As det M(1/g) =
    det M(g), det M = P(g + 1/g) with deg P <= hi, and P is
    Newton-interpolated at the points u = x + 1/x, which are distinct units
    (u_x - u_y = (x - y)(x y - 1)/(x y), and x * y < q for every prime q);
    a divided difference inverts the small integer (x - y)(x y - 1).
    Horner over the Newton form, each step a product with
    g (u - u_j) = g^2 - u_j g + 1, gives Q = g^hi * P(g + 1/g).
    """
    if not (any(m) and all(type(x) is LaurentPoly for row in m if isinstance(row, dict) for x in row.values()) and _square(m)):
        return LaurentPoly({0: det_int(m)})  # all int (or no entry), or a block det_int refuses
    seen, rows, weights, bound = {}, [{} for _ in m], [{} for _ in m], 1  # seen: terms -> l1 norm, top exponent, terms at 1/g
    for i, (row, keys, tops) in enumerate(zip(m, rows, weights)):
        s, ok = 0, True
        for j, x in row.items():
            if (f := seen.get(k := tuple(x.coeffs.items()))) is None:
                f = seen[k] = (sum(map(abs, x.coeffs.values())), max(x.coeffs, default=0), {-e: c for e, c in k})
            keys[j], tops[j], s = k, f[1], s + f[0]
            ok = ok and (y := m[j].get(i)) is not None and y.coeffs == f[2]
        if row and not (ok and s <= 2 * (row[i].coeffs.get(0, 0) if i in row else 0)):
            raise LinalgError(f"det_laurent takes only mirrored, diagonally dominant blocks; row {i} is not one")
        bound *= seen[keys[i]][0] if i in row else 0
    if () in seen:
        raise LinalgError("zero polynomial has no exponents")
    if (hi := _max_assignment(weights)) is None:
        return LaurentPoly()
    size = 2 * hi + 1  # d + 1
    if (work := size**2 * (bound.bit_length() + 2 * hi)) > WORK_LIMIT:
        raise WorkLimitExceeded(f"det M has degree up to {2 * hi}; interpolating and expanding it would take about "
                                f"2^{work.bit_length() - 1} bit operations, past 2^{WORK_LIMIT.bit_length() - 1}")
    if not hi:
        return LaurentPoly({0: det_int([{j: sum(x.coeffs.values()) for j, x in row.items()} for row in m], _bound=bound)})
    exps = {e for terms in seen for e, _ in terms}

    def residues(q):
        values = []
        for first in range(1, hi + 2, GROUP_WIDTH):
            nodes = range(first, min(first + GROUP_WIDTH, hi + 2))
            powers = {e: [pow(x, e, q) for x in nodes] for e in exps}
            at = {}
            for terms in seen:
                v = [0] * len(nodes)
                for e, c in terms:
                    v = [s + c * y for s, y in zip(v, powers[e])]
                at[terms] = [s % q for s in v]
            values += _det_mod_nodes([{j: at[k] for j, k in row.items()} for row in rows], q, len(nodes))
        us = [(x + pow(x, -1, q)) % q for x in range(1, hi + 2)]
        for j in range(1, hi + 1):  # values[i] becomes P[u_i-j, ..., u_i]
            for i in range(hi, j - 1, -1):
                x, y = i + 1, i + 1 - j
                values[i] = (values[i] - values[i - 1]) * x * y * pow((x - y) * (x * y - 1), -1, q) % q
        out = [values[hi]]  # g^(hi - j) times the Newton tail from j, lowest first
        for j in range(hi - 1, -1, -1):
            u = us[j]
            out = [(a + b - u * c) % q for a, b, c in zip(out + [0, 0], [0, 0] + out, [0, *out, 0])]
            out[hi - j] = (out[hi - j] + values[j]) % q
        return out

    return LaurentPoly({e - hi: c for e, c in enumerate(_symmetric_lift(residues, bound))})


def root_of_unity_products(f: LaurentPoly, p: int, n: int) -> list:
    """[prod of f(zeta) over zeta^N = 1, zeta != 1, for N = p^a], a = 0..n.

    Write f = g^s (g - 1)^j R(g), R(1) != 0, deg R = d, leading coefficient
    c.  B_0 = c^(d-1) R(x/c) = x^d + a_1 x^(d-1) + ... is monic with the roots
    c*alpha of R, and B_a has their p^a-th powers: Newton's identities give
    the power sums s_1..s_pd of B_(a-1)'s roots, s_p, ..., s_dp are B_a's,
    and back again k*b_k, exactly divisible by k.  The product over all N-th
    roots is (-1)^(d(N+1)) c^(N(1-d)) B_a(c^N); R(1) leaves zeta = 1 out, and
    g^s and (g - 1)^j add (-1)^((N-1)s) and ((-1)^(N-1) N)^j.  Every division
    is checked.
    """
    if n < 0:
        raise LinalgError("need a level n >= 0")
    if f.is_zero:
        return [1] + [0] * n
    s = f.min_exp()
    r = [f.coeffs.get(e, 0) for e in range(s, f.max_exp() + 1)]  # lowest first
    j = 0
    while sum(r) == 0:  # divide by g - 1: the quotient's coefficients are suffix sums
        r, j = list(itertools.accumulate(r[:0:-1]))[::-1], j + 1
    d, c, out = len(r) - 1, r[-1], []
    a = [r[d - k] * c ** (k - 1) for k in range(1, d + 1)]  # [a_1..a_d]
    for level in range(n + 1):
        if level:
            ps = [0]  # power sums
            for k in range(1, p * d + 1):
                ps.append(-sum(a[k - i - 1] * ps[i] for i in range(max(1, k - d), k)) - (k * a[k - 1] if k <= d else 0))
            b = []
            for k in range(1, d + 1):
                q, rem = divmod(-ps[p * k] - sum(b[i - 1] * ps[p * (k - i)] for i in range(1, k)), k)
                if rem:
                    raise LinalgError(f"root-power step {level}: Newton division by {k} is not exact")
                b.append(q)
            a = b
        N, value = p**level, 1
        x = c**N
        for coeff in a:
            value = value * x + coeff
        value, rem = divmod(x * value, x**d)  # c^(N(1-d)) * B_a(c^N)
        if not rem:
            value, rem = divmod(value, sum(r))
        if rem:
            raise LinalgError(f"root-of-unity product at N = {N} is not an integer")
        out.append((-1 if (d * (N + 1) + (N - 1) * (s + j)) % 2 else 1) * value * N**j)
    return out


def expand_at_gamma(f: LaurentPoly) -> tuple:
    """Substitute g = 1 + T: the coefficients of f(1+T), lowest first, to
    its first deg Q + 1 terms, where Q = g^s * f and s = max(0, -min
    exponent); exact when s = 0.  Trailing zeros are dropped: f = 0 gives ().

    Q(1+T) is one Taylor shift (Horner); each of the s divisions by 1 + T
    is a running difference.  (1+T)^-s is a unit of Z_p[[T]] with constant
    term 1, so f(1+T) has the mu and lambda of Q(1+T), and lambda <= deg Q:
    the prefix always reaches index lambda.
    """
    if f.is_zero:
        return ()
    s = max(0, -f.min_exp())
    a = [f.coeffs.get(e - s, 0) for e in range(f.max_exp() + s + 1)]
    d = len(a) - 1
    for i in range(d):
        for j in range(d - 1, i - 1, -1):
            a[j] += a[j + 1]
    for _ in range(s):
        for i in range(1, d + 1):
            a[i] -= a[i - 1]
    while not a[-1]:
        a.pop()
    return tuple(a)


def ord_p(x: int, p: int):
    """p-adic valuation; None stands in for +infinity at x = 0.  Each step
    divides by the largest p^(2^k) dividing x: O(log^2 v) divisions, not v.
    A p below 2 divides x forever or not at all: LinalgError."""
    if p < 2:
        raise LinalgError(f"ord_p needs a base p >= 2, got {p}")
    if x == 0:
        return None
    v = 0
    while x % p == 0:
        q, k = p, 1
        while x % (q * q) == 0:
            q, k = q * q, 2 * k
        x //= q
        v += k
    return v


def mu_lambda(f, p: int):
    """Weierstrass data of a nonzero integer polynomial, given by its
    coefficients lowest first.

    mu is the minimum p-adic valuation over the coefficients, lambda the least
    index attaining it.
    """
    mu = lam = None
    for i, c in enumerate(f):
        v = ord_p(c, p)
        if v is not None and (mu is None or v < mu):
            mu, lam = v, i
    if mu is None:
        raise LinalgError("mu_lambda of the zero polynomial")
    return mu, lam
