import math
import os
import random
import subprocess
import sys
import time
from itertools import groupby, islice, permutations
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    bareiss_det_int,
    bareiss_det_laurent,
    companion_root_of_unity_product,
    dense,
    grid_graph,
    interpolated_det_laurent,
    laplacian_minor_by_copy,
    laurent_pow,
    laurent_sub,
    load_fixture,
    min_degree_order,
    ord_p_oracle,
    poly_add,
    poly_mul,
    random_connected_graph,
    ring_product,
    run_limited,
    sparse_rows,
)
from segtower import linalg
from segtower.cover import build_cover
from segtower.graph import Multigraph, RamificationData, laplacian
from segtower.linalg import (
    LaurentPoly,
    LinalgError,
    det_int,
    det_laurent,
    expand_at_gamma,
    laurent_exact_div,
    mu_lambda,
    ord_p,
    root_of_unity_products,
)

ONE = LaurentPoly({0: 1})


def det_cofactor(m):
    """Independent oracle: Leibniz expansion."""
    n = len(m)
    total = 0
    for perm in permutations(range(n)):
        sign = 1
        seen = list(perm)
        # count inversions for the sign
        inv = sum(1 for i in range(n) for j in range(i + 1, n) if seen[i] > seen[j])
        sign = -1 if inv % 2 else 1
        prod = 1
        for i in range(n):
            prod *= m[i][perm[i]]
        total += sign * prod
    return total


class TestLaurentPoly:
    def test_constructors_and_zero(self):
        assert LaurentPoly().is_zero
        assert LaurentPoly({0: 0, 1: 0}).is_zero
        assert LaurentPoly({3: 1}).coeffs == {3: 1}
        assert LaurentPoly({0: -2}).coeffs == {0: -2}

    def test_arithmetic(self):
        g = LaurentPoly({1: 1})
        gi = LaurentPoly({-1: 1})
        assert g * gi == LaurentPoly({0: 1})

    def test_equal_to_int_and_unhashable(self):
        # equal objects must hash alike: a polynomial equal to 5 but hashed
        # apart from it would be missed as a dict key, so it has no hash
        assert LaurentPoly({0: 5}) == 5 and LaurentPoly() == 0
        with pytest.raises(TypeError):
            hash(LaurentPoly({0: 5}))

    def test_shift_and_exponents(self):
        f = LaurentPoly({-2: 1, 3: 5})
        assert f.min_exp() == -2 and f.max_exp() == 3
        assert f.shift(2).min_exp() == 0

    def test_exact_division(self):
        a = LaurentPoly({0: 1, 1: 2, 2: 1})  # (1+g)^2
        b = LaurentPoly({0: 1, 1: 1})
        assert laurent_exact_div(a, b) == b
        assert laurent_exact_div(a.shift(-3), b) == b.shift(-3)
        with pytest.raises(LinalgError):
            laurent_exact_div(LaurentPoly({0: 1, 1: 1}), LaurentPoly({0: 2}))

    def test_division_by_zero(self):
        with pytest.raises(LinalgError):
            laurent_exact_div(LaurentPoly({0: 1}), LaurentPoly())


class TestDetInt:
    def test_identity(self):
        m = [[1 if i == j else 0 for j in range(4)] for i in range(4)]
        assert det_int(sparse_rows(m)) == 1

    def test_level_one_cover_matrix(self):
        # doubled-edge path cover at level 1: minor with marked rows removed
        m = [
            [3, 0, 0, -1, -1, 0],
            [0, 3, 0, 0, -1, -1],
            [0, 0, 3, -1, 0, -1],
            [-1, 0, -1, 3, 0, 0],
            [-1, -1, 0, 0, 3, 0],
            [0, -1, -1, 0, 0, 3],
        ]
        assert det_int(sparse_rows(m)) == 320

    def test_against_cofactor_oracle(self):
        rng = random.Random(7)
        for _ in range(60):
            m = int_block(rng, rng.randint(1, 4), 9)
            assert det_int(sparse_rows(m)) == det_cofactor(m)

    def test_repeated_row_is_zero(self):
        m = [[2, 2, 0], [2, 2, 0], [0, 0, 1]]
        assert det_int(sparse_rows(m)) == 0

    def test_block_diagonal_multiplicative(self):
        rng = random.Random(11)
        for _ in range(20):
            a, b = int_block(rng, 2, 5), int_block(rng, 2, 5)
            m = [
                [a[0][0], a[0][1], 0, 0],
                [a[1][0], a[1][1], 0, 0],
                [0, 0, b[0][0], b[0][1]],
                [0, 0, b[1][0], b[1][1]],
            ]
            assert det_int(sparse_rows(m)) == det_int(sparse_rows(a)) * det_int(sparse_rows(b))

    def test_non_square_rejected(self):
        # one row with an entry in column 1: the matrix is 1 x 2
        with pytest.raises(LinalgError, match="rows"):
            det_int([{0: 1, 1: 2}])

    @pytest.mark.parametrize(
        "m",
        [
            [{0: 1}, {2: 1}],
            [{-1: 1}, {1: 1}],
            [[1]],
            [{0: 1}, [0, 1]],
            [None],
            [{0: LaurentPoly({0: 2})}],
            [{0: 2.0}],
            [{0: 2.0, 1: -1.0}, {0: -1.0, 1: 2.0}],
            [{0: 2, 1: -1}, {0: -1, 1: 2.0}],
            [{0: 2, 1: -1}, {0: LaurentPoly({0: -1}), 1: 2}],
            [{0: "2"}],
            [{0: "x"}],
        ],
    )
    def test_malformed_rows_rejected(self, monkeypatch, m):
        # a column outside range(n), a negative column, a row that is no dict;
        # an entry that is no int: a LaurentPoly, a float (in a 1 x 1 block
        # or a larger one, alone or among ints), a str (one that int reads,
        # and one it does not); before any prime
        monkeypatch.setattr(linalg, "_primes", lambda: pytest.fail("a prime was drawn"))
        with pytest.raises(LinalgError, match="rows"):
            det_int(m)

    def test_shape_is_checked_before_entries(self):
        # a float in a block of the wrong shape: the shape's error
        with pytest.raises(LinalgError, match="^a matrix must be n rows"):
            det_int([{0: 2.0}, {2: 1}])
        with pytest.raises(LinalgError, match="^det_int takes only rows whose entries are all int$"):
            det_int([{0: 2, 1: -1}, {0: -1, 1: 2.0}])

    def test_empty_matrix(self):
        assert det_int([]) == 1

    def test_empty_row_gives_zero(self, monkeypatch):
        # a zero diagonal is an empty row: det M = 0 with no prime and no elimination
        monkeypatch.setattr(linalg, "_primes", lambda: pytest.fail("a prime was drawn"))
        monkeypatch.setattr(linalg, "_det_mod", lambda *args: pytest.fail("_det_mod ran"))
        assert det_int([{}]) == det_int([{0: 3, 2: -1}, {}, {0: -1, 2: 1}]) == 0

    @pytest.mark.parametrize(
        "m",
        [
            [{0: 2, 1: -1}, {0: 1, 1: 2}],  # mirrored values differ
            [{0: 2, 1: -1}, {1: 2}],  # an entry without its mirror
            [{0: 2, 1: 0}, {1: 2}],  # a stored zero without its mirror
            [{0: 1, 1: -2}, {0: -2, 1: 4}],  # not dominant
            [{0: -1}],  # a negative diagonal
            [{1: 1}, {0: 1}],  # no diagonal
        ],
    )
    def test_refuses_any_other_matrix(self, monkeypatch, m):
        # before any prime is drawn
        monkeypatch.setattr(linalg, "_primes", lambda: pytest.fail("a prime was drawn"))
        monkeypatch.setattr(linalg, "_det_mod", lambda *args: pytest.fail("_det_mod ran"))
        with pytest.raises(LinalgError, match="^det_int takes only symmetric, diagonally dominant blocks; row 0 is not one$"):
            det_int(m)

    def test_symmetric_lift_at_the_bound(self):
        # the diagonal bound is exact on diagonal blocks: with det M = q - 1
        # for the first prime q, one prime does not pass twice the bound
        q = next(linalg._primes())
        for m in ([[q - 1]], [[q - 1, 0], [0, 1]], [[1, 0], [0, q - 1]]):
            assert det_int(sparse_rows(m)) == bareiss_det_int(m) == q - 1
        # and on a Laurent block: det M = q - 1 meets the coefficient bound prod_i ||M_ii||_1
        assert det_laurent([{0: LaurentPoly({0: q - 1})}]) == q - 1
        # a block's det is never negative; the lift's other end, by itself
        assert linalg._symmetric_lift(lambda m: [(1 - q) % m], q - 1) == [1 - q]

    def test_short_prime_supply_raises(self, monkeypatch):
        # |det| = 2^70 needs three primes below 2^30: one must not be lifted
        one_prime = [next(linalg._primes())]
        monkeypatch.setattr(linalg, "_primes", lambda: iter(one_prime))
        with pytest.raises(LinalgError, match="primes ran out"):
            det_int([{0: 2**70}])


def int_block(rng, n, size):
    """A dense symmetric n x n integer block: off-diagonal entries in
    [-size, size], each zero half the time, and each diagonal entry the sum
    of its row's other |entries| and of a draw in [0, size]."""
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            m[i][j] = m[j][i] = rng.choice((0, rng.randint(-size, size)))
    for i, row in enumerate(m):
        row[i] = sum(map(abs, row)) + rng.randint(0, size)
    return m


def mirror(x):
    """x(1/g)"""
    return LaurentPoly({-e: c for e, c in x.coeffs.items()})


@st.composite
def blocks(draw, max_dim=6, coefficients=st.integers(-3, 3), prime=False, laurent=True):
    """Mirrored, diagonally dominant blocks, the matrices det_laurent takes,
    as sparse rows: dimension 0-max_dim; up to 3n off-diagonal terms g^e,
    e in [-6, 6], each with its mirror; up to n loops c * (g^a + g^-a) on
    the diagonal; and on each diagonal a constant coefficient, the sum of
    the row's other |coefficients| and of one more |coefficient|, at least
    1.  With prime, the constant may instead be the prime Q0 or Q1 of the
    modulus, when that is no smaller.  Sometimes a row and its column are empty,
    as for an isolated unmarked vertex.  Without laurent every exponent is 0
    and there is no loop: the symmetric integer blocks that det_int takes."""
    n = draw(st.integers(0, max_dim))
    if not n:
        return []
    index = st.integers(0, n - 1)
    upper = [{} for _ in range(n)]  # {column: {exponent: coefficient}} for the columns right of the diagonal
    for i, j, e, c in draw(st.lists(st.tuples(index, index, st.integers(-6, 6) if laurent else st.just(0), coefficients), max_size=3 * n)):
        if i != j:
            i, j, e = (i, j, e) if i < j else (j, i, -e)
            terms = upper[i].setdefault(j, {})
            terms[e] = terms.get(e, 0) + c
    loops = [{} for _ in range(n)]
    for i, a, c in draw(st.lists(st.tuples(index, st.integers(1, 6), coefficients), max_size=n if laurent else 0)):
        for e in (a, -a):
            loops[i][e] = loops[i].get(e, 0) + c
    empty = draw(index) if draw(st.integers(0, 4)) == 4 else None
    m = [{} for _ in range(n)]
    for i, row in enumerate(upper):
        for j, terms in row.items():
            if (x := LaurentPoly(terms)).coeffs and empty not in (i, j):
                m[i][j], m[j][i] = x, mirror(x)
    for i, (row, diag) in enumerate(zip(m, loops)):
        c0 = max(1, sum(abs(c) for x in [*row.values(), LaurentPoly(diag)] for c in x.coeffs.values()) + abs(draw(coefficients)))
        if prime and c0 <= Q1:
            c0 = draw(st.sampled_from([c0, Q0, Q1]))
        if i != empty and (x := LaurentPoly({**diag, 0: c0})).coeffs:
            row[i] = x
    return m if laurent else [{j: x.coeffs[0] for j, x in row.items()} for row in m]


def block(diagonal, off=()):
    """The sparse rows of the mirrored matrix with the given diagonal entries
    and M_ij = x, M_ji = x(1/g) for each (i, j, x) in off, every entry given
    as {exponent: coefficient}."""
    m = [{i: LaurentPoly(d)} for i, d in enumerate(diagonal)]
    for i, j, x in off:
        m[i][j] = LaurentPoly(x)
        m[j][i] = mirror(m[i][j])
    return m


class TestDetLaurent:
    def test_unit_cancellation(self):
        # (-g) * (-g^-1) = 1: det M = 2 * 1 - 1
        assert det_laurent(block([{0: 2}, {0: 1}], [(0, 1, {1: -1})])) == LaurentPoly({0: 1})

    def test_voltage_triangle_determinants(self):
        # both placements of the voltage on a doubled triangle give constant 3
        # single unramified vertex of degree 3: the block is just [3]
        assert det_laurent([{0: LaurentPoly({0: 3})}]) == LaurentPoly({0: 3})
        # doubled path block with one voltage edge: det = 9 - (1+g)(1+g^-1)
        m = [
            [LaurentPoly({0: 3}), LaurentPoly({0: -1, 1: -1})],
            [LaurentPoly({0: -1, -1: -1}), LaurentPoly({0: 3})],
        ]
        assert det_laurent(sparse_rows(m)) == LaurentPoly({0: 7, 1: -1, -1: -1})

    def test_against_2x2_oracle(self):
        # [[a, b], [b(1/g), d]] with ||a||_1 <= 6, ||b||_1 <= 2 and d >= 2: dominant
        rng = random.Random(3)
        pool = [LaurentPoly({-1: 1}), LaurentPoly({0: 1}), LaurentPoly({1: 1}), LaurentPoly({1: 2})]
        for _ in range(40):
            s = rng.randint(-1, 1)
            a, b, d = LaurentPoly({0: 4, 1: s, -1: s}), rng.choice(pool), LaurentPoly({0: rng.randint(2, 5)})
            assert det_laurent(sparse_rows([[a, b], [mirror(b), d]])) == laurent_sub(a * d, b * mirror(b))

    def test_zero_column(self, monkeypatch):
        # one edge of voltage 1 between two unmarked vertices: det M = 0.
        # hi = 0, so det M is det_int of M(1) = [[1, -1], [-1, 1]], whose
        # column 1 cancels with no row left to borrow
        calls = record_eliminations(monkeypatch)
        assert det_laurent(block([{0: 1}, {0: 1}], [(0, 1, {1: -1})])).is_zero
        assert [(c.width, c.result, c.order) for c in calls] == [(None, 0, None)]

    def test_pivot_swap(self, monkeypatch):
        # hi = 1: the nodes 1 and 2 in one pass.  M(1) is singular, so the
        # node 1 ends frozen at det 0; at the node 2 the first pivot
        # 5 - 4 - 1 = 0 borrows row 1, which brings column 2 into row 0 and
        # so needs a zero in row 2 at column 0
        m = block([{0: 5, 1: -2, -1: -2}, {0: 2}, {0: 1}], [(0, 1, {0: -1}), (1, 2, {0: -1})])
        calls = record_eliminations(monkeypatch)
        assert det_laurent(m) == bareiss_det_laurent(dense(m, LaurentPoly())) == LaurentPoly({0: 4, 1: -2, -1: -2})
        (call,) = calls
        rows, order = call.rows, call.order
        assert call.width == 2 and call.result[0] == 0 and call.result[1]
        assert rows[0][0] == [1, 0] and 0 not in rows[2] and order[0] == 0

    @given(blocks(max_dim=3))
    @settings(max_examples=25, deadline=None)
    def test_commutes_with_expansion(self, m):
        # det then expand equals expand entrywise then det over Z[T], each row
        # times g^s_i, s_i its least exponent negated, so that its entries
        # are polynomials, whose expansions are exact
        n = len(m)
        shifts = [max(0, -min((x.min_exp() for x in row.values()), default=0)) for row in m]
        lhs = expand_at_gamma(det_laurent(m).shift(sum(shifts)))
        rows = [[expand_at_gamma(row.get(j, LaurentPoly()).shift(s)) for j in range(n)] for row, s in zip(m, shifts)]
        # Leibniz over Z[T]
        total = ()
        for perm in permutations(range(n)):
            inv = sum(1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])
            prod = (1,) if inv % 2 == 0 else (-1,)
            for i in range(n):
                prod = poly_mul(prod, rows[i][perm[i]])
            total = poly_add(total, prod)
        assert lhs == total

    def test_diagonal_power(self):
        for f in [LaurentPoly({-2: -1, 0: 3, 2: -1}), LaurentPoly({0: 2, 5: 1, -5: 1}), LaurentPoly({0: 7})]:
            for n in range(5):
                assert det_laurent([{i: f} for i in range(n)]) == laurent_pow(f, n)

    @pytest.mark.parametrize(
        "m",
        [
            [{0: LaurentPoly({1: 1})}],  # a diagonal that is not palindromic
            [{0: LaurentPoly({0: 2}), 1: LaurentPoly({1: -1})}, {1: LaurentPoly({0: 2})}],  # an entry without a mirror
            [{0: LaurentPoly({0: 2}), 1: LaurentPoly({1: -1})}, {0: LaurentPoly({1: -1}), 1: LaurentPoly({0: 2})}],
            [{0: LaurentPoly({0: 1}), 1: LaurentPoly({0: -2})}, {0: LaurentPoly({0: -2}), 1: LaurentPoly({0: 4})}],
            [{0: LaurentPoly({0: -1})}],  # a negative diagonal
            [{1: LaurentPoly({0: 1})}, {0: LaurentPoly({0: 1})}],  # no diagonal
            [{0: LaurentPoly({0: 2, 1: -1, -1: -1}), 1: LaurentPoly({0: -1})}, {0: LaurentPoly({0: -1}), 1: LaurentPoly({0: 1})}],
        ],
    )
    def test_refuses_any_other_matrix(self, monkeypatch, m):
        # before any bound or node
        monkeypatch.setattr(linalg, "_max_assignment", lambda w: pytest.fail("_max_assignment ran"))
        monkeypatch.setattr(linalg, "_det_mod", lambda *args: pytest.fail("_det_mod ran"))
        monkeypatch.setattr(linalg, "_det_mod_nodes", lambda *args: pytest.fail("_det_mod_nodes ran"))
        with pytest.raises(LinalgError, match="^det_laurent takes only mirrored, diagonally dominant blocks; row 0 is not one$"):
            det_laurent(m)

    def test_empty_row_is_accepted(self, monkeypatch):
        # an isolated unmarked vertex: no permutation runs through M's entries
        monkeypatch.setattr(linalg, "_det_mod", lambda *args: pytest.fail("_det_mod ran"))
        monkeypatch.setattr(linalg, "_det_mod_nodes", lambda *args: pytest.fail("_det_mod_nodes ran"))
        assert det_laurent([{}, {1: LaurentPoly({0: 1})}]).is_zero

    def test_non_square_rejected(self):
        with pytest.raises(LinalgError, match="rows"):
            det_laurent([{0: LaurentPoly({0: 1}), 1: LaurentPoly({0: 1})}])

    @pytest.mark.parametrize(
        "m",
        [
            [{0: ONE}, {2: ONE}],
            [{-1: ONE}, {1: ONE}],
            [[1]],
            [{0: ONE}, [0, 1]],
            [None],
            [{0: LaurentPoly({0: 2}), 1: -1}, {0: LaurentPoly({0: -1}), 1: LaurentPoly({0: 2})}],
            [{0: 2, 1: -1}, {0: LaurentPoly({0: -1}), 1: 2}],
            [{0: 2.0}],
            [{0: LaurentPoly({0: 2}), 1: LaurentPoly({0: -1})}, {0: LaurentPoly({0: -1}), 1: 2.0}],
            [{0: "2"}],
            [{0: "x"}],
        ],
    )
    def test_malformed_rows_rejected(self, monkeypatch, m):
        # a column outside range(n), a negative column, a row that is no dict;
        # entries neither all int nor all LaurentPoly: the two kinds mixed,
        # a float, a str; before any prime or assignment
        monkeypatch.setattr(linalg, "_primes", lambda: pytest.fail("a prime was drawn"))
        monkeypatch.setattr(linalg, "_max_assignment", lambda w: pytest.fail("_max_assignment ran"))
        with pytest.raises(LinalgError, match="rows"):
            det_laurent(m)

    def test_an_int_block_is_det_ints(self, monkeypatch):
        # graph.laplacian's block with no nonzero voltage: det_int takes it
        # as it is, with no LaurentPoly, no mirrored check and no assignment,
        # and refuses it as det_int refuses it
        monkeypatch.setattr(linalg, "_max_assignment", lambda w: pytest.fail("_max_assignment ran"))
        monkeypatch.setattr(LaurentPoly, "mirrors", lambda *args: pytest.fail("a mirrored check ran"))
        assert det_laurent([{0: 2}]) == 2 and type(det_laurent([{0: 2}])) is LaurentPoly
        for m in ([], [{}], [{0: 2, 1: -1}, {0: -1, 1: 2}], [{0: 3, 1: -1, 2: -1}, {0: -1, 1: 2, 2: -1}, {0: -1, 1: -1, 2: 3}]):
            assert det_laurent(m) == LaurentPoly({0: det_int(m)}) == bareiss_det_int(dense(m))
        with pytest.raises(LinalgError, match="^det_int takes only symmetric, diagonally dominant blocks; row 0 is not one$"):
            det_laurent([{0: 2, 1: -1}, {1: 2}])

    def test_zero_entry_rejected(self):
        with pytest.raises(LinalgError, match="zero polynomial"):
            det_laurent([{0: LaurentPoly()}])

    def test_short_prime_supply_raises(self, monkeypatch):
        # the coefficient 2^70 needs three primes below 2^30: one must not be lifted
        one_prime = [next(linalg._primes())]
        monkeypatch.setattr(linalg, "_primes", lambda: iter(one_prime))
        with pytest.raises(LinalgError, match="primes ran out"):
            det_laurent([{0: LaurentPoly({0: 2**70})}])


def count_primes(monkeypatch):
    """Wrap linalg._primes; the returned list grows by one per prime drawn."""
    drawn, primes = [], linalg._primes

    def counting():
        for q in primes():
            drawn.append(q)
            yield q

    monkeypatch.setattr(linalg, "_primes", counting)
    return drawn


class Elimination(NamedTuple):
    """One call of a kernel: linalg._det_mod (width None) or
    linalg._det_mod_nodes at width nodes.  Its rows as they were passed in,
    the modulus q, the width, the pivot order it took (None when it ended
    early: a zero column, or every node frozen), and its result (det, or
    the dets of the nodes), or, when a pivot was no unit, None and that
    pivot's gcd with q (gcd None when there was none)."""

    rows: list
    q: int
    width: object
    order: object
    result: object
    gcd: object


def record_eliminations(monkeypatch):
    """Wrap both kernels and their pivot order (linalg._least_length_first);
    the returned list holds an Elimination per kernel call, in call order."""
    calls, order, take = [], [], linalg._least_length_first

    def taking(a):
        order.clear()
        for k in take(a):
            order.append(k)
            yield k
        order.append(None)  # the order ran to its end

    def recorded(kernel):
        def recording(a, q, *args):  # _det_mod_nodes also takes the width
            rows, width = [dict(row) for row in a], (args or [None])[0]  # no kernel changes an entry list in place
            try:
                result = kernel(a, q, *args)
            except linalg._NonUnitPivot as exc:
                calls.append(Elimination(rows, q, width, None, None, exc.args[0]))
                raise
            calls.append(Elimination(rows, q, width, order[:-1] if order[-1:] == [None] else None, result, None))
            return result

        return recording

    monkeypatch.setattr(linalg, "_least_length_first", taking)
    monkeypatch.setattr(linalg, "_det_mod", recorded(linalg._det_mod))
    monkeypatch.setattr(linalg, "_det_mod_nodes", recorded(linalg._det_mod_nodes))
    return calls


def pivot_gcds(calls):
    """(modulus, gcd) of each recorded elimination."""
    return [(c.q, c.gcd) for c in calls]


def retried_moduli(bound, gcds):
    """(the moduli, the primes drawn) of _symmetric_lift for a bound when the
    elimination modulo each modulus but the last meets a pivot that shares
    the next of gcds with it: first the leading primes whose product passes
    2 * bound; after each failure the primes that divide its gcd are
    dropped and the next primes drawn until the product passes again."""
    primes, qs, drawn, moduli = linalg._primes(), [], [], []
    for g in [*gcds, 1]:
        while math.prod(qs) <= 2 * bound:
            drawn.append(next(primes))
            qs.append(drawn[-1])
        moduli.append(math.prod(qs))
        qs = [q for q in qs if g % q]
    return moduli, drawn


# the leading primes of the modulus; an entry that one of them divides can
# make a pivot that is no unit modulo their product
Q0, Q1, Q2, Q3, Q4 = islice(linalg._primes(), 5)
prime_multiples = st.one_of(
    st.integers(-3, 3),
    st.builds(lambda c, q: c * q, st.integers(-3, 3).filter(bool), st.sampled_from([Q0, Q1, Q0 * Q1])),
)


class TestDetIntOracle:
    """Modular elimination against Bareiss elimination over Z, on the
    symmetric integer blocks that det_int takes."""

    @given(blocks(max_dim=12, coefficients=st.integers(-9, 9), laurent=False))
    @settings(max_examples=300, deadline=None)
    def test_random_matrices(self, m):
        assert det_int(m) == bareiss_det_int(dense(m))

    @given(blocks(max_dim=8, coefficients=st.integers(-(2**200), 2**200), laurent=False))
    @settings(max_examples=100, deadline=None)
    def test_huge_entries(self, m):
        assert det_int(m) == bareiss_det_int(dense(m))

    def test_huge_entries_use_many_primes(self, monkeypatch):
        rng = random.Random(17)
        m = int_block(rng, 6, 2**200)
        drawn = count_primes(monkeypatch)
        calls = record_eliminations(monkeypatch)
        assert det_int(sparse_rows(m)) == bareiss_det_int(m)
        assert len(drawn) >= 20  # the diagonal bound is about 2^1200
        assert pivot_gcds(calls) == [(math.prod(drawn), None)]  # one elimination, modulo their product

    def test_pivot_divisible_by_a_prime_falls_back(self, monkeypatch):
        # either order puts a multiple of Q0 on the diagonal; the bound
        # 2 * Q0^2 takes three primes.  Modulo Q0 * Q1 * Q2 the first pivot
        # 2 * Q0 is no unit: Q0 is dropped, and Q1 * Q2 does not pass twice
        # the bound, so Q3 is drawn and one more elimination runs modulo
        # Q1 * Q2 * Q3 on the same unreduced rows
        m = [[2 * Q0, 3], [3, Q0]]
        drawn = count_primes(monkeypatch)
        calls = record_eliminations(monkeypatch)
        assert det_int(sparse_rows(m)) == bareiss_det_int(m) == 2 * Q0 * Q0 - 9
        assert drawn == [Q0, Q1, Q2, Q3] and pivot_gcds(calls) == [(Q0 * Q1 * Q2, Q0), (Q1 * Q2 * Q3, None)]

    @pytest.mark.parametrize("det", [det_int, det_laurent])
    def test_pivots_divisible_by_two_primes(self, monkeypatch, det):
        # two blocks [[Q0, 1], [1, 1]] and [[Q3, 1], [1, 1]]: the bound
        # Q0 * Q3 takes three primes.  The pivot Q0 fails modulo Q0 * Q1 * Q2,
        # and Q3, drawn in its place, fails modulo Q1 * Q2 * Q3: two retries.
        # As constants the block has hi = 0, and det_laurent hands it to det_int
        m = [[Q0, 1, 0, 0], [1, 1, 0, 0], [0, 0, Q3, 1], [0, 0, 1, 1]]
        drawn = count_primes(monkeypatch)
        calls = record_eliminations(monkeypatch)
        assert det(sparse_rows(m if det is det_int else constants(m))) == bareiss_det_int(m) == (Q0 - 1) * (Q3 - 1)
        assert drawn == [Q0, Q1, Q2, Q3, Q4]
        assert pivot_gcds(calls) == [(Q0 * Q1 * Q2, Q0), (Q1 * Q2 * Q3, Q3), (Q1 * Q2 * Q4, None)]
        assert all(c.width is None for c in calls)

    def test_entries_divisible_by_a_prime(self, monkeypatch):
        # the rows go to the kernel unreduced; no pivot is divisible by a prime
        m = [[Q0 + 1, Q0], [Q0, Q0 + 1]]
        calls = record_eliminations(monkeypatch)
        assert det_int(sparse_rows(m)) == bareiss_det_int(m) == 2 * Q0 + 1
        assert len(calls) == 1 and calls[0].gcd is None

    @given(st.one_of(blocks(max_dim=7, coefficients=prime_multiples, laurent=False),
                     blocks(max_dim=7, coefficients=prime_multiples, prime=True, laurent=False)))
    @settings(max_examples=200, deadline=None)
    def test_prime_multiple_entries(self, m):
        assert det_int(m) == bareiss_det_int(dense(m))

    @given(st.integers(0, 2**32), st.data())
    @settings(max_examples=200, deadline=None)
    def test_laplacian_minors(self, seed, data):
        rng = random.Random(seed)
        g = random_connected_graph(rng, max_vertices=12, max_edges=24)
        deleted = data.draw(st.sets(st.sampled_from(g.vertices), max_size=3))
        assert det_int(laplacian(g, deleted)) == bareiss_det_int(laplacian_minor_by_copy(g, deleted))

    @pytest.mark.parametrize(
        "name, p, n",
        [("chorded_cycle_pendant_triangle.json", 5, 2), ("glue_kappa_l2.json", 2, 6), ("three_segment.json", 3, 3)],
    )
    def test_cover_laplacians(self, name, p, n):
        # covers list their vertices fibre by fibre, far from a band
        g, r, voltage = load_fixture(name)
        c = build_cover(g, r, voltage, p, n).graph
        assert len(c.vertices) >= 100
        assert det_int(laplacian(c, c.vertices[:1])) == bareiss_det_int(laplacian_minor_by_copy(c, c.vertices[:1]))


@st.composite
def arrowhead_matrices(draw):
    """Symmetric integer blocks: 1-3 hub rows and columns with an entry in
    every one of 1-6 diagonal blocks of size 1-5, as a totally ramified mark
    of a cover touches every sheet, and each diagonal entry the sum of its
    row's other |entries| and of a draw in [0, 9]; then one symmetric
    renumbering, so the hubs sit anywhere."""
    blocks, size, hubs = draw(st.integers(1, 6)), draw(st.integers(1, 5)), draw(st.integers(1, 3))
    n = blocks * size + hubs
    entry = st.integers(-9, 9)
    m = [[0] * n for _ in range(n)]
    for b in range(blocks):
        for i in range(b * size, (b + 1) * size):
            for j in range(i + 1, (b + 1) * size):
                m[i][j] = m[j][i] = draw(entry)
    for h in range(blocks * size, n):
        for b in range(blocks):
            i = b * size + draw(st.integers(0, size - 1))
            m[h][i] = m[i][h] = draw(entry.filter(bool))
        for j in range(h + 1, n):
            m[h][j] = m[j][h] = draw(entry)
    for i, row in enumerate(m):
        row[i] = sum(map(abs, row)) + draw(st.integers(0, 9))
    perm = draw(st.permutations(range(n)))
    return [[m[i][j] for j in perm] for i in perm]


@st.composite
def zero_diagonal_matrices(draw):
    """Dimension 1-10, a zero diagonal, the entries of one random
    permutation nonzero and the rest sparse and not symmetric: every pivot
    in any order is off the diagonal."""
    n = draw(st.integers(1, 10))
    m = [[draw(st.one_of(st.just(0), st.integers(-9, 9))) for _ in range(n)] for _ in range(n)]
    for i, j in enumerate(draw(st.permutations(range(n)))):
        m[i][j] = draw(st.integers(-9, 9).filter(bool))
    for i in range(n):
        m[i][i] = 0
    return m


def kernel_rows(m, q=Q0):
    """The integer sparse rows m as the kernel takes them: residues modulo q,
    with a zero added at (j, i) for every entry (i, j) without its mirror
    and at (i, i) for every row without its diagonal."""
    rows = [{j: x % q for j, x in row.items()} for row in m]
    for i, row in enumerate(rows):
        row.setdefault(i, 0)
        for j in row:
            rows[j].setdefault(i, 0)
    return rows


def kernel_det(m, q=Q0):
    """det mod q of the dense integer matrix m, from the kernel itself."""
    return linalg._det_mod(kernel_rows(sparse_rows(m), q), q)


def kernel_order(m, q=Q0):
    """The order in which the kernel eliminates the integer sparse rows m
    modulo q (see kernel_rows); None when a zero column ends it early."""
    with pytest.MonkeyPatch.context() as mp:
        calls = record_eliminations(mp)
        linalg._det_mod(kernel_rows(m, q), q)
    return calls[0].order


def pattern_rows(pattern):
    """Rows with entry 1 at each listed column and 10 on the diagonal: with
    at most 9 columns besides the diagonal in a row, even with the mirrored
    zeros added, strictly diagonally dominant, so no pivot vanishes."""
    return [{**dict.fromkeys(cols, 1), i: 10} for i, cols in enumerate(pattern)]


def at_node(m, x, q=Q0):
    """The residues modulo q of the sparse rows m at g = x: of each LaurentPoly
    entry's value there, and of each int entry (a block with no voltage)."""
    return [{j: (sum(c * pow(x, e, q) for e, c in y.coeffs.items()) if isinstance(y, LaurentPoly) else y) % q
             for j, y in row.items()} for row in m]


class TestSparseKernel:
    """The minimum-degree order and the sparse elimination against Bareiss."""

    @given(arrowhead_matrices())
    @settings(max_examples=150, deadline=None)
    def test_arrowhead_matrices(self, m):
        assert det_int(sparse_rows(m)) == bareiss_det_int(m)

    @given(zero_diagonal_matrices())
    @settings(max_examples=200, deadline=None)
    def test_zero_diagonal(self, m):
        # no block has a zero diagonal but an empty row; the kernel itself
        # borrows a row for every one of them, modulo a prime
        assert kernel_det(m) == bareiss_det_int(m) % Q0

    @given(st.integers(0, 2**32), st.sampled_from([(2, 1), (2, 2), (3, 1)]))
    @settings(max_examples=60, deadline=None)
    def test_trivial_voltage_cover_laplacians(self, seed, level):
        rng = random.Random(seed)
        g = random_connected_graph(rng, max_vertices=6, max_edges=10)
        r = RamificationData.totally_ramified([rng.choice(g.vertices)])
        c = build_cover(g, r, {}, *level).graph
        deleted = [rng.choice(c.vertices)]
        assert det_int(laplacian(c, deleted)) == bareiss_det_int(laplacian_minor_by_copy(c, deleted))

    def test_marks_are_eliminated_last(self):
        # the cycle v4 v5 v1 v2 v3 with its marks listed first: at p = 3,
        # n = 2 each mark touches all nine sheets, and the order leaves
        # them to the last three of 28 (ties at the end go to the index)
        g, r, _ = load_fixture("cycle5_ram45.json")
        g = Multigraph(["v4", "v5", "v1", "v2", "v3"], g.edges)
        c = build_cover(g, r, {}, 3, 2)
        assert c.graph.vertices[:2] == (("v4", 0), ("v5", 0))
        minor = laplacian(c.graph, c.graph.vertices[-1:])
        order = kernel_order(minor)
        assert len(order) == 28 and {0, 1} <= set(order[-3:])
        assert det_int(minor) == bareiss_det_int(dense(minor))

    @pytest.mark.parametrize(
        "rows",
        [[], [[]], [[]] * 5, [list(range(6))] * 6, [[1], [2], [0]], [[4], [], [0, 1, 2, 3, 4], [], [3]]],
    )
    def test_order_is_a_permutation(self, rows):
        order = kernel_order(pattern_rows(rows))
        assert sorted(order) == list(range(len(rows)))

    def test_order_breaks_ties_by_index(self):
        assert kernel_order(pattern_rows([[]] * 4)) == [0, 1, 2, 3]
        assert kernel_order(pattern_rows([list(range(5))] * 5)) == [0, 1, 2, 3, 4]
        # a star with its centre at the last index: the leaves first
        assert kernel_order(pattern_rows([[3], [3], [3], []])) == [0, 1, 2, 3]
        # with its centre at index 0 it ties with the last leaf, and goes first
        assert kernel_order(pattern_rows([[1, 2, 3], [], [], []])) == [1, 2, 0, 3]

    @given(st.integers(0, 2**32), st.sampled_from(["minor", "cover", "block"]), st.integers(1, 5))
    @settings(max_examples=200, deadline=None)
    def test_order_is_the_minimum_degree_order(self, seed, kind, node):
        # symmetric patterns with a nonzero diagonal and no pivot that
        # vanishes, so no row is borrowed: the kernel's order is the
        # greedy minimum-degree order of the pattern
        rng = random.Random(seed)
        g = random_connected_graph(rng, max_vertices=10, max_edges=20)
        marks = rng.sample(g.vertices, rng.randint(1, min(3, len(g.vertices))))
        r = RamificationData.totally_ramified(marks)
        if kind == "minor":
            m = laplacian(g, marks)
        elif kind == "cover":
            c = build_cover(g, r, {}, rng.choice((2, 3)), rng.randint(1, 2)).graph
            m = laplacian(c, [rng.choice(c.vertices)])
        else:
            m = at_node(laplacian(g, marks, {e.id: rng.randint(-2, 2) for e in g.edges}), node)
        order = min_degree_order([list(row) for row in m])
        if kind == "block":
            # at a node a block is neither symmetric nor definite: a diagonal
            # (10 - 3 * (3 + 1/3) at 3) or a pivot, the ratio of two leading
            # minors in the order, can vanish modulo Q0; then the premise
            # fails, not the kernel
            assume(all(m[i].get(i) for i in range(len(m))))
            assume(all(bareiss_det_int([[m[i].get(j, 0) for j in order[:k]] for i in order[:k]]) % Q0 for k in range(1, len(m) + 1)))
        assert all(m[i].get(i) for i in range(len(m)))
        assert kernel_order(m) == order


def constants(m):
    """The dense integer matrix m as constant Laurent polynomials."""
    return [[LaurentPoly({0: x}) for x in row] for row in m]


class TestBorrowedRow:
    """A zero diagonal pivot borrows a row of its column, against Bareiss
    over Z.  In a block over Z a diagonal that cancels leaves its row and
    column zero (a Schur complement of a positive semidefinite matrix is one),
    so a block borrows only modulo a prime that divides a pivot, or at a
    node of det_laurent; the kernel itself borrows for any matrix."""

    @pytest.mark.parametrize(
        "m, det",
        [
            # the diagonal of column 1 cancels after the first step
            ([[1, 1, 0], [1, 1, 1], [0, 1, 0]], -1),
            # the borrowed row brings column 2 into row 0, which needs its mirror
            ([[0, 1, 0], [1, 0, 1], [0, 1, 1]], -1),
            # column 1 cancels, borrows row 2, and then column 2 is zero
            ([[1, 2, 0], [2, 4, 0], [0, 1, 3]], 0),
            # the last column cancels with no row left to borrow
            ([[1, 1], [1, 1]], 0),
        ],
    )
    def test_cancelling_diagonals(self, m, det):
        assert kernel_det(m) == bareiss_det_int(m) % Q0 == det % Q0

    def test_borrowed_pivot_divisible_by_a_prime_falls_back(self, monkeypatch):
        # column 0 of [[0, Q0], [Q0, 1]] borrows row 1, which brings the
        # pivot Q0: no unit modulo Q0 * Q1 * Q2, the primes that pass twice
        # |det| <= Q0^2.  Q0 is dropped and Q3 drawn, and modulo
        # Q1 * Q2 * Q3 the borrowed pivot is a unit
        drawn = count_primes(monkeypatch)
        calls = record_eliminations(monkeypatch)
        det = linalg._symmetric_lift(lambda q: [linalg._det_mod([{0: 0, 1: Q0}, {0: Q0, 1: 1}], q)], Q0 * Q0)
        assert det == [bareiss_det_int([[0, Q0], [Q0, 1]])] == [-Q0 * Q0]
        assert drawn == [Q0, Q1, Q2, Q3] and pivot_gcds(calls) == [(Q0 * Q1 * Q2, Q0), (Q1 * Q2 * Q3, None)]

    def test_first_node_ends_early(self, monkeypatch):
        # the one-vertex block 2 - g^2 - g^-2 vanishes at the first node 1,
        # where column 0 is zero with no row to borrow: node 1 ends frozen
        # at det 0, and the nodes 2 and 3 run on in the same pass
        m = [{0: LaurentPoly({0: 2, 2: -1, -2: -1})}]
        calls = record_eliminations(monkeypatch)
        assert det_laurent(m) == m[0][0]
        assert [(c.width, c.order) for c in calls] == [(3, [0])]
        assert calls[0].result[0] == 0 and 0 not in calls[0].result[1:]


laurent_terms = st.dictionaries(st.integers(-6, 6), st.integers(-5, 5), max_size=3)
constant_terms = st.dictionaries(st.just(0), st.integers(-5, 5), max_size=1)


@st.composite
def laurent_matrices(draw):
    """Square matrices of dimension 0-7; entries with 0-3 terms, or constants
    only (degree 0); sometimes with a zero row."""
    n = draw(st.integers(0, 7))
    terms = draw(st.sampled_from([laurent_terms, constant_terms]))
    m = [[LaurentPoly(draw(terms)) for _ in range(n)] for _ in range(n)]
    if n and draw(st.integers(0, 4)) == 4:
        m[draw(st.integers(0, n - 1))] = [LaurentPoly()] * n
    return m


sparse_weights = st.one_of(st.none(), st.integers(-6, 6))


@st.composite
def greedy_hard_weights(draw):
    """Dense weight rows, None where the entry is 0, in two shapes.  A path
    block of 1-7 rows has top exponents a and -a on mirrored off-diagonal
    entries and -1..1 on the diagonal.  At a = 1 everywhere, every row but
    the first has its maximum one column back, so the greedy pass leaves a
    row free whose search runs down the path.  Otherwise rows 0..k-1 (3 <= k
    <= n <= 7) have their strict maximum 7 in one column, so the greedy pass
    leaves at least k - 1 of them free; every other entry is sparse_weights."""
    n = draw(st.integers(1, 7))
    if draw(st.booleans()):
        w = [[None] * n for _ in range(n)]
        for i in range(n):
            w[i][i] = draw(st.integers(-1, 1))
            if i:
                a = draw(st.sampled_from([1, 1, -1, 0, 2]))
                w[i][i - 1], w[i - 1][i] = a, -a
        return w
    n = max(n, 3)
    k, c = draw(st.integers(3, n)), draw(st.integers(0, n - 1))
    w = draw(st.lists(st.lists(sparse_weights, min_size=n, max_size=n), min_size=n, max_size=n))
    for i in range(k):
        w[i] = [7 if j == c else x for j, x in enumerate(w[i])]
    return w


@st.composite
def hermitian_matrices(draw):
    """M_ji(g) = M_ij(1/g), as for a voltage Laplacian block, but in general
    not diagonally dominant: dimension 0-8, entries with exponents in
    [-6, 6], a constant plus loops c * (g^a + g^-a) on the diagonal;
    sometimes a zero row and column."""
    n = draw(st.integers(0, 8))
    m = [[LaurentPoly()] * n for _ in range(n)]
    for i in range(n):
        diag = {0: draw(st.integers(-5, 5))}
        for a, c in draw(st.lists(st.tuples(st.integers(-6, 6), st.integers(-3, 3)), max_size=2)):
            diag[a] = diag.get(a, 0) + c
            diag[-a] = diag.get(-a, 0) + c
        m[i][i] = LaurentPoly(diag)
        for j in range(i + 1, n):
            m[i][j] = LaurentPoly(draw(laurent_terms))
            m[j][i] = mirror(m[i][j])
    if n and draw(st.integers(0, 4)) == 4:
        k = draw(st.integers(0, n - 1))
        for i in range(n):
            m[k][i] = m[i][k] = LaurentPoly()
    return m


big_coefficients = st.one_of(st.integers(2**63, 2**70), st.integers(-(2**70), -(2**63)))


class TestDetLaurentOracle:
    """Modular evaluation and interpolation against evaluation at integer
    nodes by Bareiss over Z and exact interpolation over Z."""

    @given(st.one_of(hermitian_matrices(), laurent_matrices()))
    @settings(max_examples=40, deadline=None)
    def test_oracle_matches_bareiss_over_z_g(self, m):
        assert interpolated_det_laurent(m) == bareiss_det_laurent(m)

    @given(st.integers(1, 6).flatmap(lambda n: st.lists(st.lists(sparse_weights, min_size=n, max_size=n), min_size=n, max_size=n)))
    @settings(max_examples=300, deadline=None)
    def test_assignment_is_the_permutation_maximum(self, w):
        # w[i][j] is the weight of entry (i, j), None where the entry is 0;
        # None also when no permutation runs through the entries
        n = len(w)
        terms = [
            sum(w[i][s[i]] for i in range(n))
            for s in permutations(range(n))
            if None not in (w[i][s[i]] for i in range(n))
        ]
        rows = [{j: x for j, x in enumerate(row) if x is not None} for row in w]
        assert linalg._max_assignment(rows) == max(terms, default=None)

    @given(greedy_hard_weights())
    @settings(max_examples=300, deadline=None)
    def test_assignment_after_the_greedy_pass(self, w):
        # the greedy tight matching, then a search from each row it left
        # free, against the maximum over every permutation
        n = len(w)
        terms = [sum(w[i][s[i]] for i in range(n)) for s in permutations(range(n)) if None not in (w[i][s[i]] for i in range(n))]
        rows = [{j: x for j, x in enumerate(row) if x is not None} for row in w]
        assert linalg._max_assignment(rows) == max(terms, default=None)

    @given(blocks())
    @settings(max_examples=200, deadline=None)
    def test_assignment_brackets_the_determinant(self, m):
        # hi is at least the top exponent of det M; the assignment on the
        # negated least exponents, whose weights are the transpose of the
        # first, gives hi again, so -hi is at most the bottom one
        det = det_laurent(m)
        hi = linalg._max_assignment([{j: x.max_exp() for j, x in row.items()} for row in m])
        lo = linalg._max_assignment([{j: -x.min_exp() for j, x in row.items()} for row in m])
        assert hi == lo and (hi is None) == (not all(m))
        if not det.is_zero:
            assert hi >= det.max_exp() and -hi <= det.min_exp()

    def test_mirrored_nodes_on_a_grid_block(self, monkeypatch):
        # one elimination, modulo the product of the primes, per node x
        # serves x and 1/x: hi + 1 of them for hi the one assignment's value,
        # GROUP_WIDTH to a kernel call at most;
        # a row-span bound D = sum_i (row max - min(0, row min)) needs D + 1;
        # the diagonal coefficient bound takes 2 primes at 5x5 and 4 at 8x8,
        # where the row norms take 3 and 6
        for k, seed, nodes, primes in (5, 0, 17, 2), (8, 0, 41, 4), (8, 1, 37, 4), (8, 2, 31, 4):
            g, r = grid_graph(k, k)
            rng = random.Random(seed)
            m = laplacian(g, r.depths, {e.id: rng.choice((-1, 1)) for e in g.edges})
            spans = sum(max(x.max_exp() for x in row.values()) - min(0, min(x.min_exp() for x in row.values())) for row in m)
            with monkeypatch.context() as mp:
                bounds, assignment = [], linalg._max_assignment
                mp.setattr(linalg, "_max_assignment", lambda w: bounds.append(assignment(w)) or bounds[-1])
                calls = record_eliminations(mp)
                drawn = count_primes(mp)
                assert det_laurent(m) == interpolated_det_laurent(dense(m, LaurentPoly()))
            widths = [c.width for c in calls]
            assert len(bounds) == 1 and sum(widths) == bounds[0] + 1 == nodes
            assert len(calls) == -(-nodes // linalg.GROUP_WIDTH) and max(widths) <= linalg.GROUP_WIDTH
            assert len(drawn) == primes and len({c.q for c in calls}) == 1
            assert 2 * sum(widths) < spans + 1

    @given(st.one_of(blocks(), blocks(prime=True)))
    @settings(max_examples=200, deadline=None)
    def test_dominant_hermitian_matrices(self, m):
        # every coefficient of g^hi * det M is at most prod_i ||M_ii||_1, and
        # det_laurent draws just the primes that pass twice that bound.  A
        # diagonal constant Q0 or Q1 can make a pivot that is no unit modulo
        # their product: then the eliminations modulo it stop at that pass,
        # and all hi + 1 nodes run again modulo the retried product, in
        # passes of at most GROUP_WIDTH nodes.  At hi = 0 (no loop, so each
        # diagonal is its constant and both bounds agree) det_int takes M(1)
        bound = math.prod(sum(map(abs, row[i].coeffs.values())) if i in row else 0 for i, row in enumerate(m))
        hi = linalg._max_assignment([{j: x.max_exp() for j, x in row.items()} for row in m])
        with pytest.MonkeyPatch.context() as mp:
            drawn = count_primes(mp)
            calls = record_eliminations(mp)
            det = det_laurent(m)
        assert det == interpolated_det_laurent(dense(m, LaurentPoly()))
        assert all(abs(c) <= bound for c in det.coeffs.values())
        if hi is None:  # an empty row: det M = 0, no prime drawn
            assert det.is_zero and drawn == calls == []
            return
        runs = [list(run) for _, run in groupby(calls, key=lambda call: call.q)]
        gcds = [run[-1].gcd for run in runs[:-1]]
        assert ([run[0].q for run in runs], drawn) == retried_moduli(bound, gcds)
        assert all(c.gcd is None for run in runs for c in run[:-1]) and all(gcds)
        assert all((c.width is None) == (hi == 0) and (c.width or 1) <= linalg.GROUP_WIDTH for c in calls)
        nodes = [sum(c.width or 1 for c in run) for run in runs]  # M(1) is the one node at hi = 0
        assert all(k <= hi + 1 for k in nodes) and nodes[-1] == hi + 1 and runs[-1][-1].gcd is None
        assert len(runs[-1]) == -(-(hi + 1) // linalg.GROUP_WIDTH)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_diagonal_bound_is_nearly_tight(self, n):
        # diag(2 + g + 1/g): g^n det M = (1 + g)^(2n), whose central
        # coefficient C(2n, n) is close to the bound 4^n
        x = LaurentPoly({-1: 1, 0: 2, 1: 1})
        det = det_laurent([{i: x} for i in range(n)])
        assert det == LaurentPoly({e - n: math.comb(2 * n, e) for e in range(2 * n + 1)})
        assert max(det.coeffs.values()) == math.comb(2 * n, n) <= 4**n

    @pytest.mark.parametrize("c", [1, 7, 2**40, Q0, Q0 * Q1])
    def test_constant_meets_the_diagonal_bound(self, c):
        assert det_laurent([{0: LaurentPoly({0: c})}]) == c

    @given(blocks(), st.lists(st.integers(-9, 9), min_size=6, max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_gauge_invariance(self, m, phi):
        # D M D^-1 with D = diag(g^phi) has entries g^(phi_i - phi_j) M_ij:
        # again a mirrored, dominant block, with the same determinant
        gauged = [{j: x.shift(phi[i] - phi[j]) for j, x in row.items()} for i, row in enumerate(m)]
        assert det_laurent(gauged) == det_laurent(m)

    def test_forest_block_takes_one_node(self, monkeypatch):
        # a tower block whose pattern is the path 1-0-3-2: its permutations
        # are the diagonal and transpositions of mirrored pairs, whose
        # exponents sum to 0, so hi = 0: det M is det_int of M(1), one
        # elimination and one prime
        neg_g, neg_gi = LaurentPoly({1: -1}), LaurentPoly({-1: -1})
        m = [
            {0: LaurentPoly({0: 3}), 1: neg_g, 3: neg_gi},
            {1: LaurentPoly({0: 2}), 0: neg_gi},
            {2: LaurentPoly({0: 2}), 3: neg_g},
            {3: LaurentPoly({0: 3}), 0: neg_g, 2: neg_gi},
        ]
        calls = record_eliminations(monkeypatch)
        drawn = count_primes(monkeypatch)
        assert det_laurent(m) == 21
        assert len(calls) == len(drawn) == 1 and calls[0].width is None

    @given(blocks(max_dim=5, coefficients=big_coefficients))
    @settings(max_examples=100, deadline=None)
    def test_large_coefficients(self, m):
        # every coefficient is at least 2^63 in absolute value, and so is a
        # row's diagonal constant: n rows need more than 2n primes below 2^30
        assert det_laurent(m) == interpolated_det_laurent(dense(m, LaurentPoly()))

    def test_large_coefficients_use_three_primes(self, monkeypatch):
        m = block([{0: 2**65 + 1}, {0: 2**64 + 5, 1: -(2**61), -1: -(2**61)}], [(0, 1, {1: 2**63, -2: 5})])
        drawn = count_primes(monkeypatch)
        calls = record_eliminations(monkeypatch)
        assert det_laurent(m) == interpolated_det_laurent(dense(m, LaurentPoly()))
        assert len(drawn) >= 3
        # the off-diagonal pair gives hi = 1 + 2 = 3: the nodes 1..4 in one
        # pass, modulo the product of the primes
        assert pivot_gcds(calls) == [(math.prod(drawn), None)] and calls[0].width == 4

    def test_coefficient_equal_to_a_prime(self, monkeypatch):
        # hi = 1: the nodes 1 and 2 in one pass.  At both nodes the first
        # pivot is Q0, no unit modulo Q0 * Q1, the primes that pass twice the
        # bound 5 * Q0; both nodes run again modulo Q1 * Q2
        m = block([{0: Q0}, {0: 3, 1: -1, -1: -1}], [(0, 1, {1: -1})])
        drawn = count_primes(monkeypatch)
        calls = record_eliminations(monkeypatch)
        assert det_laurent(m) == interpolated_det_laurent(dense(m, LaurentPoly()))
        assert drawn == [Q0, Q1, Q2] and pivot_gcds(calls) == [(Q0 * Q1, Q0), (Q1 * Q2, None)]
        assert [c.width for c in calls] == [2, 2]

    @given(st.integers(0, 2**32), st.data())
    @settings(max_examples=150, deadline=None)
    def test_unramified_blocks(self, seed, data):
        rng = random.Random(seed)
        g = random_connected_graph(rng, max_vertices=9, max_edges=16)
        voltage = {e.id: rng.randint(-6, 6) for e in g.edges}
        marks = data.draw(st.lists(st.sampled_from(g.vertices), unique=True, max_size=len(g.vertices) - 1))
        m = laplacian(g, marks, voltage)
        assert det_laurent(m) == interpolated_det_laurent(dense(m, LaurentPoly()))


def direct_sum(*ms):
    """The block-diagonal matrix of the sparse-row matrices ms, in order."""
    out = []
    for m in ms:
        base = len(out)
        out += [{base + j: x for j, x in row.items()} for row in m]
    return out


# Mirrored blocks, as block's arguments, that each do one thing at a node.
# A block's first row goes first among its rows, so they do it in any direct sum.
# test_pivot_swap's block: the first pivot 5 - 2(x + 1/x) is 0 at the node 2 only, and M(1) is singular
ZERO_PIVOT_AT_2 = ([{0: 5, 1: -2, -1: -2}, {0: 2}, {0: 1}], [(0, 1, {0: -1}), (1, 2, {0: -1})])
# test_zero_column's block with a loop 2 - g - 1/g on its first vertex: column 1 vanishes at the node 1 only
VANISHES_AT_1 = ([{0: 3, 1: -1, -1: -1}, {0: 1}], [(0, 1, {1: -1})])
# test_zero_column's block: column 1 vanishes at every node
VANISHES = ([{0: 1}, {0: 1}], [(0, 1, {1: -1})])
# the first pivot Q0 + 2 - x - 1/x is Q0 at the node 1 only: no unit modulo a product of primes with Q0
PRIME_PIVOT_AT_1 = ([{0: Q0 + 2, 1: -1, -1: -1}, {0: 1}], [(0, 1, {0: -1})])
GADGETS = (ZERO_PIVOT_AT_2, VANISHES_AT_1, VANISHES, PRIME_PIVOT_AT_1)


class TestNodeGroups:
    """_det_mod_nodes eliminates up to GROUP_WIDTH nodes in one pass: one
    pivot order, one batched inverse per pivot, borrowing and freezing node
    by node."""

    @given(blocks(max_dim=4), st.lists(st.sampled_from(range(len(GADGETS))), unique=True), st.sampled_from([1, 2, 3, linalg.GROUP_WIDTH]))
    @settings(max_examples=200, deadline=None)
    def test_gadget_blocks(self, rand, picks, width):
        # a random block, then the gadgets in the drawn order, at the drawn
        # group width: against both oracles, in passes of at most that many
        # nodes, with the retried moduli of the pivots that failed
        m = direct_sum(rand, *(block(*GADGETS[i]) for i in picks))
        bound = math.prod(sum(map(abs, row[i].coeffs.values())) if i in row else 0 for i, row in enumerate(m))
        hi = linalg._max_assignment([{j: x.max_exp() for j, x in row.items()} for row in m])
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(linalg, "GROUP_WIDTH", width)
            drawn = count_primes(mp)
            calls = record_eliminations(mp)
            det = det_laurent(m)
        assert det == interpolated_det_laurent(dense(m, LaurentPoly())) == bareiss_det_laurent(dense(m, LaurentPoly()))
        if hi is None:
            assert det.is_zero and drawn == calls == []
            return
        assert all((c.width is None) == (hi == 0) and (c.width or 1) <= width for c in calls)
        runs = [list(run) for _, run in groupby(calls, key=lambda call: call.q)]
        gcds = [run[-1].gcd for run in runs[:-1]]
        assert ([run[0].q for run in runs], drawn) == retried_moduli(bound, gcds)
        assert sum(c.width or 1 for c in runs[-1]) == hi + 1 and len(runs[-1]) == -(-(hi + 1) // width)
        if (prime := GADGETS.index(PRIME_PIVOT_AT_1)) in picks:
            # each of the others ends the node 1 at det 0 before the prime
            # pivot: then that frozen node draws no prime.  With none of them
            # and no zero of the random block's det at 1, it draws Q2 for Q0
            if picks.index(prime):
                assert gcds == []
            elif bareiss_det_int([[sum(x.coeffs.values()) for x in row] for row in dense(rand, LaurentPoly())]):
                assert gcds[0] == Q0 and Q2 in drawn

    @pytest.mark.parametrize("first", [True, False])
    def test_frozen_node_draws_no_prime(self, monkeypatch, first):
        # VANISHES_AT_1 ends the node 1 at det 0; the first pivot of
        # PRIME_PIVOT_AT_1 is Q0 there, no unit modulo Q0 * Q1, the primes
        # that pass twice the bound 5 * (Q0 + 4).  hi = 2: the nodes 1..3 in
        # one pass.  When the vanishing block goes first, the node 1 is frozen
        # before that pivot, which it then never inverts; else the pivot drops
        # Q0 and draws Q2
        a, b = block(*VANISHES_AT_1), block(*PRIME_PIVOT_AT_1)
        m = direct_sum(a, b) if first else direct_sum(b, a)
        drawn = count_primes(monkeypatch)
        calls = record_eliminations(monkeypatch)
        assert det_laurent(m) == bareiss_det_laurent(dense(m, LaurentPoly()))
        assert [c.width for c in calls] == ([3] if first else [3, 3])
        if first:
            assert drawn == [Q0, Q1] and pivot_gcds(calls) == [(Q0 * Q1, None)] and calls[0].result[0] == 0
        else:
            assert drawn == [Q0, Q1, Q2] and pivot_gcds(calls) == [(Q0 * Q1, Q0), (Q1 * Q2, None)]

    def test_hi_zero_hands_m1_to_det_int(self, monkeypatch):
        # a triangle whose voltages 1, -1 and 0 sum to 0 around it, so
        # hi = 0: det M is the integer det M(1), the block of the sums of
        # M's coefficients, which det_int takes with the bound
        # prod_i ||M_ii||_1 = 18 just checked on M: M(1) is not checked
        # again, and no node is evaluated
        m = block([{0: 3}, {0: 2}, {0: 3}], [(0, 1, {1: -1}), (1, 2, {-1: -1}), (0, 2, {0: -1})])
        taken, det, checked, bound = [], linalg.det_int, [], linalg._block_bound
        monkeypatch.setattr(linalg, "det_int", lambda rows, **kw: taken.append((rows, kw)) or det(rows, **kw))
        monkeypatch.setattr(linalg, "_block_bound", lambda rows, *args: checked.append(rows) or bound(rows, *args))
        monkeypatch.setattr(linalg, "_det_mod_nodes", lambda *args: pytest.fail("_det_mod_nodes ran"))
        assert det_laurent(m) == bareiss_det_laurent(dense(m, LaurentPoly())) == 8
        assert taken == [([{0: 3, 1: -1, 2: -1}, {1: 2, 0: -1, 2: -1}, {2: 3, 1: -1, 0: -1}], {"_bound": 18})]
        assert checked == [m]

    def test_batched_inverses(self):
        q = Q0 * Q1
        xs = [1, 2, q - 1, Q0 + 1, 12345678901]
        assert linalg._inverses(xs, q) == [pow(x, -1, q) for x in xs] and linalg._inverses([], q) == []
        # an x that is no unit: the product's gcd with q names its primes
        for xs, g in ([3, 2 * Q1, 5], Q1), ([Q0, 7, 2 * Q1], q):
            with pytest.raises(linalg._NonUnitPivot) as exc:
                linalg._inverses(xs, q)
            assert exc.value.args == (g,)


class TestExpandAtGamma:
    def test_gamma(self):
        assert expand_at_gamma(LaurentPoly({1: 1})) == (1, 1)

    def test_geometric_series(self):
        # (1+T)^-1 = sum (-T)^i is kept to span + 1 terms: span 0 for g^-1,
        # span 3 for g^-1 + g^2 = (1+T)^-1 + 1 + 2T + T^2
        assert expand_at_gamma(LaurentPoly({-1: 1})) == (1,)
        assert expand_at_gamma(LaurentPoly({-1: 1, 2: 1})) == (2, 1, 2, -1)
        assert expand_at_gamma(LaurentPoly({-4: 3})) == (3,)

    def test_binomial_square(self):
        f = LaurentPoly({2: 1, 1: -2, 0: 1})  # (g-1)^2
        assert expand_at_gamma(f) == (0, 0, 1)

    def test_inverse_pair_truncates_consistently(self):
        # g + g^-1 - 2 = T^2/(1+T) = T^2 - T^3 + ..., span 2: three terms
        f = LaurentPoly({1: 1, -1: 1, 0: -2})
        assert expand_at_gamma(f) == (0, 0, 1)
        # a shift by g^-2 = (1+T)^-2 keeps the span: T^2 (1 - 3T + ...)
        assert expand_at_gamma(f.shift(-2)) == (0, 0, 1)
        # g - 2 + 3g^-1 = 2 - 2T + 3T^2 - 3T^3 + ...
        assert expand_at_gamma(LaurentPoly({1: 1, 0: -2, -1: 3})) == (2, -2, 3)

    def test_zero(self):
        assert expand_at_gamma(LaurentPoly()) == ()


class TestMuLambda:
    def test_examples(self):
        assert mu_lambda((0, 0, 4), 2) == (2, 2)
        assert mu_lambda((0, 0, 6), 3) == (1, 2)
        assert mu_lambda((0, 0, 9), 3) == (2, 2)

    def test_least_index_rule(self):
        # coefficients 12, 2, 8 at p=2: orders 2, 1, 3 -> mu 1 at index 1
        assert mu_lambda((12, 2, 8), 2) == (1, 1)

    def test_zero_rejected(self):
        with pytest.raises(LinalgError):
            mu_lambda((), 2)
        with pytest.raises(LinalgError):
            mu_lambda((0, 0), 2)

    @given(
        st.lists(st.integers(-50, 50), min_size=1, max_size=5).filter(lambda cs: any(cs)),
        st.sampled_from([2, 3, 5]),
        st.integers(0, 3),
    )
    @settings(max_examples=60, deadline=None)
    def test_unit_multiplier_invariance(self, coeffs, p, k):
        # multiplying by the unit (1+T)^k changes neither mu nor lambda
        f = tuple(coeffs)
        unit = (1, 1)
        fk = f
        for _ in range(k):
            fk = poly_mul(fk, unit)
        assert mu_lambda(f, p) == mu_lambda(fk, p)


def test_is_prime_below_two():
    # in a child process with a timeout, so that a loop that never ends
    # fails the test instead of hanging the suite
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = "from segtower.linalg import is_prime; print([is_prime(n) for n in (-7, -1, 0, 1, 2, 3)])"
    done = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60
    )
    assert done.stdout.strip() == "[False, False, False, False, True, True]"


@pytest.mark.parametrize("p", [1, -1, 0])
def test_ord_p_refuses_a_base_below_two(p):
    # x % 1 == 0 always holds, so p = +-1 divided forever: mu_lambda((3, 6), 1)
    # never returned.  In a child process with a CPU budget, so that a hang
    # fails the test instead of the suite
    code = f"from segtower.linalg import mu_lambda; mu_lambda((3, 6), {p})"
    done = run_limited(["-c", code], timeout=20, cpu=5)
    assert done.returncode == 1, done.stderr[-300:]
    assert done.stderr.strip().splitlines()[-1] == f"segtower.linalg.LinalgError: ord_p needs a base p >= 2, got {p}"
    with pytest.raises(LinalgError, match=f"got {p}$"):
        ord_p(0, p)


def test_ord_p():
    assert ord_p(0, 2) is None
    assert ord_p(320, 2) == 6
    assert ord_p(320, 3) == 0
    assert ord_p(-27, 3) == 3


@given(st.integers(-10**6, 10**6), st.sampled_from([2, 3, 5, 7, 97, 2**61 - 1]), st.integers(0, 300))
def test_ord_p_matches_one_step_loop(m, p, k):
    x = m * p**k
    assert ord_p(x, p) == ord_p_oracle(x, p)


def test_ord_p_within_budget():
    # valuation 200000 of a 464000-bit integer.  Measured on a 2-core x86
    # host: 0.5 s dividing by the largest p^(2^k) at each step, 27 s
    # dividing by one p per step
    x = 7 * 5**200000
    t0 = time.process_time()
    assert ord_p(x, 5) == 200000
    assert time.process_time() - t0 < 4.0


class TestRootOfUnityProduct:
    """The root-power chain against the ring determinant and the companion matrix."""

    @given(
        st.dictionaries(st.integers(-3, 4), st.integers(-5, 5), max_size=5),
        st.sampled_from([2, 3, 5, 7]),
        st.integers(0, 2),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_ring_determinant(self, coeffs, p, j):
        # negative exponents, leading coefficients other than +-1, zero and
        # constant f, and (g - 1)^j, so that f(1) = 0 for j > 0
        f = LaurentPoly(coeffs) * laurent_pow(LaurentPoly({1: 1, 0: -1}), j)
        n = max(n for n in range(6) if p**n <= 49)
        assert root_of_unity_products(f, p, n) == [ring_product(f, p**a) for a in range(n + 1)]

    def test_small_cases(self):
        assert root_of_unity_products(LaurentPoly(), 3, 1) == [1, 0]
        assert root_of_unity_products(LaurentPoly({0: -2}), 2, 2) == [1, -2, -8]
        # prod (zeta - 1) over zeta != 1 is (-1)^(n-1) n
        assert root_of_unity_products(LaurentPoly({1: 1, 0: -1}), 3, 2) == [1, 3, 9]
        assert root_of_unity_products(LaurentPoly({1: 1, 0: -1}), 2, 3) == [1, -2, -4, -8]
        # g + g^-1 at the cube roots w, w^2: (w + w^2)^2 = 1
        assert root_of_unity_products(LaurentPoly({1: 1, -1: 1}), 3, 1) == [1, 1]

    def test_non_monic_large_n(self):
        f = LaurentPoly({-1: 2, 0: 3, 2: 6})
        assert root_of_unity_products(f, 5, 2) == [1, ring_product(f, 5), ring_product(f, 25)]

    @pytest.mark.parametrize("p, n", [(2, 12), (7, 5)])
    def test_voltage_segment_against_companion(self, p, n):
        g, r, volt = load_fixture("voltage_segment.json")
        f = det_laurent(laplacian(g, r.depths, volt))
        assert root_of_unity_products(f, p, n) == [companion_root_of_unity_product(f, p**a) for a in range(n + 1)]

    def test_bad_n(self):
        with pytest.raises(LinalgError):
            root_of_unity_products(LaurentPoly({0: 1}), 2, -1)
