"""Exact linear algebra over Z and over Z[g, g^-1].

det_int, Bareiss fraction-free elimination over Z, is the one elimination
routine.  det_laurent reduces a determinant over Z[g, g^-1] to det_int values
at integer points of g and recovers the polynomial by Newton interpolation,
exactly and with no prime or coefficient bound.  Laurent polynomials in the
deck-group generator g can be expanded at g = 1 + T, giving integer
polynomials (series prefixes when g has negative powers) whose p-adic
coefficient data yield the mu/lambda invariants.
"""

from __future__ import annotations


class LinalgError(ValueError):
    pass


class LaurentPoly:
    """Laurent polynomial sum c_e * g^e with integer coefficients.

    Stored as a dict mapping exponent -> coefficient; zero coefficients are
    never stored, so the zero polynomial is the empty dict.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        self.coeffs = {int(e): int(c) for e, c in (coeffs or {}).items() if c != 0}

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls({0: 1})

    @classmethod
    def const(cls, c):
        return cls({0: c})

    @classmethod
    def gamma(cls, exponent, coeff=1):
        """coeff * g^exponent"""
        return cls({exponent: coeff})

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

    def __add__(self, other):
        res = dict(self.coeffs)
        for e, c in other.coeffs.items():
            res[e] = res.get(e, 0) + c
        return LaurentPoly(res)

    def __neg__(self):
        return LaurentPoly({e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            other = LaurentPoly.const(other)
        res = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                res[e] = res.get(e, 0) + c1 * c2
        return LaurentPoly(res)

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, int):
            other = LaurentPoly.const(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def at_one(self):
        """Evaluate at g = 1."""
        return sum(self.coeffs.values())

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
        return LaurentPoly.zero()
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


class IntPoly:
    """Polynomial in T with integer coefficients, dense list lowest-first."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [int(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def is_zero(self):
        return not self.coeffs

    def degree(self):
        """Degree, or None for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else None

    def __getitem__(self, i):
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def __eq__(self, other):
        if isinstance(other, int):
            other = IntPoly([other])
        if not isinstance(other, IntPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"IntPoly({list(self.coeffs)})"


def det_int(m) -> int:
    """Exact determinant of a square integer matrix (Bareiss elimination)."""
    n = len(m)
    for row in m:
        if len(row) != n:
            raise LinalgError("matrix is not square")
    if n == 0:
        return 1
    a = [[int(x) for x in row] for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = a[i][j] * a[k][k] - a[i][k] * a[k][j]
                q, r = divmod(num, prev)
                if r:
                    raise LinalgError("inexact Bareiss division")
                a[i][j] = q
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def det_laurent(m) -> LaurentPoly:
    """Exact determinant of a square matrix of LaurentPoly entries.

    Row i times g^{k_i}, k_i = max(0, -min exponent of the row), has only
    non-negative powers, so Q = g^S * det, S = sum k_i, is a polynomial of
    degree at most D = sum of the shifted rows' max exponents.  Q is
    evaluated by det_int at the D + 1 nodes 0, 1, -1, 2, -2, ... and
    recovered by Newton interpolation.  The divided differences of an
    integer polynomial at integer nodes are integers, so every division is
    exact; an inexact one raises LinalgError.
    """
    n = len(m)
    for row in m:
        if len(row) != n:
            raise LinalgError("matrix is not square")
    rows, shift, deg = [], 0, 0
    for row in m:
        exps = [e for x in row for e in x.coeffs]
        if not exps:
            return LaurentPoly.zero()
        k = max(0, -min(exps))
        rows.append([[(e + k, c) for e, c in x.coeffs.items()] for x in row])
        shift, deg = shift + k, deg + max(exps) + k
    nodes = [(i + 1) // 2 if i % 2 else -(i // 2) for i in range(deg + 1)]
    q = []
    for x in nodes:
        q.append(det_int([[sum(c * x**e for e, c in entry) for entry in row] for row in rows]))
    for j in range(1, deg + 1):  # q[i] becomes Q[x_{i-j}, ..., x_i]
        for i in range(deg, j - 1, -1):
            q[i], r = divmod(q[i] - q[i - 1], nodes[i] - nodes[i - j])
            if r:
                raise LinalgError("inexact divided difference: det_int values do not fit a polynomial")
    for j in range(deg - 1, -1, -1):  # Newton form to monomials, Horner from the top
        for i in range(j, deg):
            q[i] -= nodes[j] * q[i + 1]
    return LaurentPoly({e - shift: c for e, c in enumerate(q)})


def _matmul(a, b):
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def root_of_unity_product(f: LaurentPoly, n: int) -> int:
    """prod of f(zeta) over the n-th roots of unity zeta != 1, exactly.

    Write f = g^s * Q(g), Q of degree d with leading coefficient c.  The
    product is (-1)^((n-1)(d+s)) * c^(n-1) * det(I + C + ... + C^(n-1)) for
    the companion matrix C of Q/c.  With B = c*C that sum is S / c^(n-1) for
    the integer S = sum_k c^(n-1-k) B^k, formed by doubling in O(d^3 log n);
    the product is then the sign times det(S) / c^((n-1)(d-1)).
    """
    if n < 1:
        raise LinalgError("need n >= 1 roots of unity")
    if n == 1:
        return 1
    if f.is_zero:
        return 0
    s = f.min_exp()
    q = [f.coeffs.get(e, 0) for e in range(s, f.max_exp() + 1)]
    d, c = len(q) - 1, q[-1]
    sign = -1 if (n - 1) * (d + s) % 2 else 1
    if d == 0:
        return sign * c ** (n - 1)
    b = [[c if j == i - 1 else 0 for j in range(d - 1)] + [-q[i]] for i in range(d)]
    eye = [[int(i == j) for j in range(d)] for i in range(d)]
    total, power, cpow = eye, b, c  # S, B^k and c^k for k = 1
    for bit in bin(n)[3:]:
        scaled = [[x + cpow if i == j else x for j, x in enumerate(row)] for i, row in enumerate(power)]
        total, power, cpow = _matmul(scaled, total), _matmul(power, power), cpow * cpow
        if bit == "1":
            total = [[c * x + y for x, y in zip(tr, pr)] for tr, pr in zip(total, power)]
            power, cpow = _matmul(power, b), cpow * c
    value, rem = divmod(det_int(total), c ** ((n - 1) * (d - 1)))
    if rem:
        raise LinalgError("root-of-unity product is not an integer")
    return sign * value


def expand_at_gamma(f: LaurentPoly) -> IntPoly:
    """Substitute g = 1 + T: f(1+T) to its first deg Q + 1 terms, where
    Q = g^s * f and s = max(0, -min exponent); exact when s = 0.

    Q(1+T) is one Taylor shift (Horner); each of the s divisions by 1 + T
    is a running difference.  (1+T)^-s is a unit of Z_p[[T]] with constant
    term 1, so f(1+T) has the mu and lambda of Q(1+T), and lambda <= deg Q:
    the prefix always reaches index lambda.
    """
    if f.is_zero:
        return IntPoly()
    s = max(0, -f.min_exp())
    a = [f.coeffs.get(e - s, 0) for e in range(f.max_exp() + s + 1)]
    d = len(a) - 1
    for i in range(d):
        for j in range(d - 1, i - 1, -1):
            a[j] += a[j + 1]
    for _ in range(s):
        for i in range(1, d + 1):
            a[i] -= a[i - 1]
    return IntPoly(a)


def ord_p(x: int, p: int):
    """p-adic valuation; None stands in for +infinity at x = 0."""
    if x == 0:
        return None
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def mu_lambda(f: IntPoly, p: int):
    """Weierstrass data of a nonzero integer polynomial.

    mu is the minimum p-adic valuation over the coefficients, lambda the least
    index attaining it.
    """
    if f.is_zero:
        raise LinalgError("mu_lambda of the zero polynomial")
    mu = None
    lam = None
    for i, c in enumerate(f.coeffs):
        v = ord_p(c, p)
        if v is None:
            continue
        if mu is None or v < mu:
            mu = v
            lam = i
    return mu, lam
