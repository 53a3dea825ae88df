"""Exact linear algebra over Z and over Z[g, g^-1].

A matrix is a list of sparse rows [{column: entry}] of its nonzero entries:
a block as graph.laplacian builds it, the one kind both determinants take
(see _block_bound).  One elimination kernel serves det_int directly and
det_laurent at interpolation nodes, modulo a product of primes below 2^30
(one CPython digit each); it pivots on the diagonal of the block's symmetric
pattern and reads a minimum-degree order from the row lengths as it goes.
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


WORK_LIMIT = 2**31  # bit operations that det_laurent, a product of its factors (check_work) or a tower may take


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

    def mirrors(self, other):  # whether other is this polynomial at 1/g
        return isinstance(other, LaurentPoly) and other.coeffs == {-e: c for e, c in self.coeffs.items()}

    def constant(self):
        return self.coeffs.get(0, 0)

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
    """A pivot shares a prime factor with a composite modulus."""


def _crt(residues, bound, size):
    """The size integers of absolute value at most bound whose residues
    modulo m are residues(m), for m the product of the primes drawn until it
    exceeds 2 * bound, by the symmetric lift.  One call modulo m serves
    unless an elimination meets a pivot that one of the primes divides;
    then residues(q) for each prime q, combined by Chinese remaindering."""
    qs, m = [], 1
    primes = _primes()
    while m <= 2 * bound:
        q = next(primes, None)
        if q is None:
            raise LinalgError("the primes ran out before their product passed the bound")
        qs.append(q)
        m *= q
    try:
        xs = residues(m)
    except _NonUnitPivot:
        xs, m = [0] * size, 1
        for q in qs:
            minv = pow(m, -1, q)
            xs = [x + m * ((r - x) * minv % q) for x, r in zip(xs, residues(q))]
            m *= q
    return [x - m if 2 * x > m else x for x in xs]


def _least_length_first(a):
    """Yield the rows of a to eliminate, each a row of least length among
    those left, ties to the lower index, as _det_mod eliminates them: a lazy
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


def _det_mod(a, order, q):
    """(det mod q, the order of the eliminated columns) of the square matrix
    of sparse rows a, [{column: entry}], which it overwrites; the order is
    None when a zero column ends the elimination early.  q is a prime or a
    product of primes; _NonUnitPivot is raised when a pivot it must invert
    is not a unit modulo q.  An entry q divides must be reduced to 0.

    The pattern of a must be symmetric (j in a[i] exactly when i in a[j])
    and hold every diagonal entry; zero residues stay.  Each step pivots on
    the diagonal of the next column k in order, or, with order None, of a
    row of least length (see _least_length_first).  It updates the rows of
    the pivot row's columns, every one by all of its columns, even for a
    factor of 0, so the pattern stays symmetric and no zero is deleted.  A
    zero diagonal first borrows a row: the first row i of the pivot row's
    columns with a[i][k] nonzero is added to row k, which leaves det
    unchanged, and each column that row k gains gets a zero mirror.  With no
    such row column k is zero, and so is det.
    """
    used, det = [], 1
    for k in order or _least_length_first(a):
        rp = a[k]
        if not rp[k]:
            i = next((i for i in rp if a[i][k]), None)
            if i is None:
                return 0, None
            for j, y in a[i].items():
                a[j].setdefault(k, 0)
                rp[j] = (rp.get(j, 0) + y) % q
        x = rp.pop(k)
        a[k] = None
        used.append(k)
        det = det * x % q
        if not rp:
            continue
        try:
            inv = pow(x, -1, q)
        except ValueError:  # q is a product of primes and one divides the pivot
            raise _NonUnitPivot from None
        for i in rp:
            ri = a[i]
            f = ri.pop(k) * inv % q
            for j, y in rp.items():
                ri[j] = (ri.get(j, 0) - f * y) % q
    return det, used


def _block_bound(m, what, norm, constant, mirrors, zero):
    """prod_i norm(M_ii) of the block m: n sparse rows {column: entry}, every
    column in range(n), with mirrors(M_ij, M_ji) for every entry and
    2 constant(M_ii) >= sum_j norm(M_ij) (M_ii = zero if absent), so a row
    is empty (the bound 0) or holds its diagonal.  Else a LinalgError, for a
    row that fails at its first entry, naming what takes blocks and the row."""
    if not all(isinstance(row, dict) for row in m) or not set().union(*m) <= set(range(len(m))):
        raise LinalgError("a matrix must be n rows {column: entry} with every column in range(n)")
    bound = 1
    for i, row in enumerate(m):
        d = row.get(i, zero)
        dominant = 2 * constant(d) >= sum(map(norm, row.values()))
        for j, x in row.items():
            if not (dominant and mirrors(x, m[j].get(i))):
                raise LinalgError(f"{what}, diagonally dominant blocks; row {i} is not one")
        bound *= norm(d)
    return bound


def det_int(m) -> int:
    """Exact determinant of a symmetric integer block M, 2 M_ii >= sum_j
    |M_ij|, as graph.laplacian builds it with no voltage (else LinalgError
    before any prime): 0 <= det M <= prod_i M_ii (Hadamard; M is positive
    semidefinite), 0 when a row is empty.  One elimination (see _det_mod)
    modulo the product of the primes that passes twice that bound, which
    takes the rows unreduced (|M_ij| <= M_ii), or one per prime (see _crt)."""
    if not (bound := _block_bound(m, "det_int takes only symmetric", abs, int, operator.eq, 0)):
        return 0

    def residue(q):  # one prime of the fallback may divide an entry: it takes the rows reduced
        rows = m if q > 2 * bound else [{j: x % q for j, x in row.items()} for row in m]
        return [_det_mod([dict(row) for row in rows], None, q)[0]]

    return _crt(residue, bound, 1)[0]


def _max_assignment(w):
    """The maximum of sum_i w_i,s(i) over the permutations s through the
    entries of the sparse weight rows w = [{column: w_ij}], or None when no
    permutation runs through them.  Shortest augmenting paths: potentials
    u_i + v_j >= w_ij start at the row maxima and v = 0; each row in turn
    runs Dijkstra on the reduced weights u_i + v_j - w_ij >= 0 to the nearest
    free column, the potentials shift so that the path becomes tight, and the
    path flips.  Matched entries stay tight, so the maximum is sum u + sum v.
    """
    u, v = [max(row.values(), default=0) for row in w], [0] * len(w)
    row_of, col_of = [None] * len(w), [None] * len(w)  # the matching, from each side
    for start in range(len(w)):
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


def check_work(what, d, b):
    """Raise WorkLimitExceeded, led by what, when a Laurent polynomial of
    degree d with b-bit coefficients would take past WORK_LIMIT bit
    operations, about (d + 1)^2 * (b + d), to interpolate and Taylor-shift;
    a Taylor shift alone is of the same order."""
    if (work := (d + 1) ** 2 * (b + d)) > WORK_LIMIT:
        raise WorkLimitExceeded(f"{what} would take about 2^{work.bit_length() - 1} bit operations, "
                                f"past 2^{WORK_LIMIT.bit_length() - 1}")


def det_laurent(m) -> LaurentPoly:
    """Exact determinant of an unramified block M, given by its sparse rows
    [{column: LaurentPoly}] of nonzero entries: mirrored, M_ji(g) =
    M_ij(1/g), and diagonally dominant, 2 c_0(M_ii) >= sum_j ||M_ij||_1 (c_0
    the constant coefficient), as graph.laplacian builds it with a voltage;
    any other M is a LinalgError before any node (see _block_bound).

    hi, the exact maximum over the permutations through M's entries of the
    sum of their top exponents (see _max_assignment), bounds det M at both
    ends, as M(1/g) = M(g)^T: det M is palindromic, and Q = g^hi * det M has
    degree at most d = 2 hi.  With no such permutation (an empty row)
    det M = 0.  On |g| = 1, M is Hermitian and diagonally dominant with a
    nonnegative diagonal, so positive semidefinite, and Hadamard's
    inequality gives 0 <= det M(g) <= prod_i M_ii(g) <= prod_i ||M_ii||_1 =
    2^b, which by Parseval bounds every coefficient of Q.  Interpolating Q
    and Taylor-shifting it to g = 1 + T take about (d + 1)^2 * (b + d) bit
    operations; past WORK_LIMIT, WorkLimitExceeded names d before any node
    is evaluated.

    Modulo the product of the primes that passes 2^(b + 1) (see _crt), the
    kernel eliminates M at the nodes x = 1..hi + 1.  det M(1/x) = det M(x)
    gives Q at x and at 1/x (x * y < q for every prime q, so the nodes and
    their differences are units), and Newton interpolation recovers Q.  The
    first node whose elimination runs to the end chooses the minimum-degree
    order (see _det_mod), and every later node replays it.  A node is raised
    to each exponent that occurs by one pow, so an exponent E costs
    O(log E) multiplications, not E.
    """
    bound = _block_bound(m, "det_laurent takes only mirrored", LaurentPoly.norm, LaurentPoly.constant, LaurentPoly.mirrors, LaurentPoly())
    # max_exp raises LinalgError on a zero entry
    if (hi := _max_assignment([{j: x.max_exp() for j, x in row.items()} for row in m])) is None:
        return LaurentPoly()
    check_work(f"det M has degree up to {2 * hi}; interpolating and expanding it", 2 * hi, bound.bit_length())
    size = 2 * hi + 1  # d + 1
    rows = [[(j, list(x.coeffs.items())) for j, x in row.items()] for row in m]
    exps = {e for row in m for x in row.values() for e in x.coeffs}

    def residues(q):
        xs, values, order = [], [], None
        for x in range(1, hi + 2):
            xp = {e: pow(x, e, q) for e in exps}
            a = []
            for row in rows:
                r = {}
                for j, terms in row:
                    v = 0
                    for e, c in terms:
                        v += c * xp[e]
                    r[j] = v % q
                a.append(r)
            d, used = _det_mod(a, order, q)  # det M(x) = det M(1/x)
            order = order or used
            xs.append(x)
            values.append(d * pow(x, hi, q) % q)  # Q(x) = x^hi * d
            if x > 1:  # Q(1/x) = x^-hi * d
                xs.append(pow(x, -1, q))
                values.append(d * pow(x, -hi, q) % q)
        for j in range(1, size):  # values[i] becomes Q[x_i-j, ..., x_i]
            for i in range(size - 1, j - 1, -1):
                values[i] = (values[i] - values[i - 1]) * pow(xs[i] - xs[i - j], -1, q) % q
        for j in range(size - 2, -1, -1):  # Newton form to monomials, Horner from the top
            for i in range(j, size - 1):
                values[i] = (values[i] - xs[j] * values[i + 1]) % q
        return values

    return LaurentPoly({e - hi: c for e, c in enumerate(_crt(residues, bound, size))})


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
