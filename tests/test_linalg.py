import math
import os
import random
import subprocess
import sys
import time
from itertools import islice, permutations
from pathlib import Path

import pytest
from hypothesis import given, settings
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
from segtower.iwasawa import unramified_block
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
            n = rng.randint(1, 4)
            m = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            assert det_int(sparse_rows(m)) == det_cofactor(m)

    def test_repeated_row_is_zero(self):
        m = [[1, 2, 3], [1, 2, 3], [4, 5, 6]]
        assert det_int(sparse_rows(m)) == 0

    def test_block_diagonal_multiplicative(self):
        rng = random.Random(11)
        for _ in range(20):
            a = [[rng.randint(-5, 5) for _ in range(2)] for _ in range(2)]
            b = [[rng.randint(-5, 5) for _ in range(2)] for _ in range(2)]
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

    @pytest.mark.parametrize("m", [[{0: 1}, {2: 1}], [{-1: 1}, {1: 1}], [[1]], [{0: 1}, [0, 1]], [None]])
    def test_malformed_rows_rejected(self, m):
        # a column outside range(n), a negative column, a row that is no dict
        with pytest.raises(LinalgError, match="rows"):
            det_int(m)

    def test_empty_matrix(self):
        assert det_int([]) == 1

    def test_symmetric_lift_at_the_bound(self):
        # Hadamard's bound is exact on diagonal matrices: with |det| = q - 1
        # for the first prime q, one prime does not pass twice the bound
        q = next(linalg._primes())
        for m in ([[q - 1]], [[-(q - 1)]], [[1 - q, 0], [0, 1]], [[0, q - 1], [1, 0]]):
            assert det_int(sparse_rows(m)) == bareiss_det_int(m)
        assert det_laurent([{0: LaurentPoly({3: 1 - q})}]) == LaurentPoly({3: 1 - q})

    def test_short_prime_supply_raises(self, monkeypatch):
        # |det| = 2^70 needs three primes below 2^30: one must not be lifted
        one_prime = [next(linalg._primes())]
        monkeypatch.setattr(linalg, "_primes", lambda: iter(one_prime))
        with pytest.raises(LinalgError, match="primes ran out"):
            det_int([{0: 2**70}])


class TestDetLaurent:
    def test_unit_cancellation(self):
        g = LaurentPoly({1: 1})
        gi = LaurentPoly({-1: 1})
        z = LaurentPoly()
        assert det_laurent(sparse_rows([[g, z], [z, gi]])) == LaurentPoly({0: 1})

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
        rng = random.Random(3)
        pool = [LaurentPoly({-1: 1}), LaurentPoly({0: 1}), LaurentPoly({1: 1}), LaurentPoly({1: 2})]
        for _ in range(40):
            a, b, c, d = (rng.choice(pool) for _ in range(4))
            assert det_laurent(sparse_rows([[a, b], [c, d]])) == laurent_sub(a * d, b * c)

    def test_zero_column(self):
        z = LaurentPoly()
        one = LaurentPoly({0: 1})
        assert det_laurent(sparse_rows([[z, one], [z, one]])).is_zero

    def test_pivot_swap(self):
        z = LaurentPoly()
        one = LaurentPoly({0: 1})
        assert det_laurent(sparse_rows([[z, one], [one, z]])) == LaurentPoly({0: -1})

    def test_commutes_with_expansion(self):
        # det then expand equals expand entrywise then det over Z[T],
        # for non-negative exponents
        rng = random.Random(5)
        for _ in range(25):
            m = [
                [LaurentPoly({e: rng.randint(-3, 3) for e in range(0, 3)}) for _ in range(3)]
                for _ in range(3)
            ]
            lhs = expand_at_gamma(det_laurent(sparse_rows(m)))
            rows = [[expand_at_gamma(x) for x in row] for row in m]
            # Leibniz over Z[T]
            total = ()
            for perm in permutations(range(3)):
                inv = sum(1 for i in range(3) for j in range(i + 1, 3) if perm[i] > perm[j])
                prod = (1,) if inv % 2 == 0 else (-1,)
                for i in range(3):
                    prod = poly_mul(prod, rows[i][perm[i]])
                total = poly_add(total, prod)
            assert lhs == total

    def test_diagonal_power(self):
        for f in [LaurentPoly({-2: 3, 1: -1}), LaurentPoly({0: 2, 5: 1}), LaurentPoly({-3: -2})]:
            for n in range(5):
                m = [[f if i == j else LaurentPoly() for j in range(n)] for i in range(n)]
                assert det_laurent(sparse_rows(m)) == laurent_pow(f, n)

    def test_non_square_rejected(self):
        with pytest.raises(LinalgError, match="rows"):
            det_laurent([{0: LaurentPoly({0: 1}), 1: LaurentPoly({0: 1})}])

    @pytest.mark.parametrize("m", [[{0: 1}, {2: 1}], [{-1: 1}, {1: 1}], [[1]], [{0: 1}, [0, 1]], [None]])
    def test_malformed_rows_rejected(self, m):
        # a column outside range(n), a negative column, a row that is no dict
        one = LaurentPoly({0: 1})
        rows = [{j: one for j in row} if isinstance(row, dict) else row for row in m]
        with pytest.raises(LinalgError, match="rows"):
            det_laurent(rows)

    def test_zero_entry_rejected(self):
        with pytest.raises(LinalgError, match="zero polynomial"):
            det_laurent([{0: LaurentPoly()}])

    def test_short_prime_supply_raises(self, monkeypatch):
        # the coefficient 2^70 needs three primes below 2^30: one must not be lifted
        one_prime = [next(linalg._primes())]
        monkeypatch.setattr(linalg, "_primes", lambda: iter(one_prime))
        with pytest.raises(LinalgError, match="primes ran out"):
            det_laurent([{0: LaurentPoly({1: 2**70})}])


def count_primes(monkeypatch):
    """Wrap linalg._primes; the returned list grows by one per prime drawn."""
    drawn, primes = [], linalg._primes

    def counting():
        for q in primes():
            drawn.append(q)
            yield q

    monkeypatch.setattr(linalg, "_primes", counting)
    return drawn


def count_eliminations(monkeypatch):
    """Wrap linalg._det_mod; the returned list holds the modulus of each call."""
    moduli, det_mod = [], linalg._det_mod

    def counting(*args):
        moduli.append(args[-1])
        return det_mod(*args)

    monkeypatch.setattr(linalg, "_det_mod", counting)
    return moduli


# the first two primes of the CRT; an entry that one of them divides can make
# a pivot that is no unit modulo their product
Q0, Q1 = islice(linalg._primes(), 2)
prime_multiples = st.one_of(
    st.integers(-3, 3),
    st.builds(lambda c, q: c * q, st.integers(-3, 3).filter(bool), st.sampled_from([Q0, Q1, Q0 * Q1])),
)


@st.composite
def int_matrices(draw, entries=st.integers(-9, 9), max_dim=12):
    """Square matrices of dimension 0-max_dim whose patterns are sparse or
    dense and in general not symmetric; some with a repeated row or a zero
    column, which make them singular."""
    n = draw(st.integers(0, max_dim))
    cell = st.one_of(st.just(0), entries) if draw(st.booleans()) else entries
    m = draw(st.lists(st.lists(cell, min_size=n, max_size=n), min_size=n, max_size=n))
    kind = draw(st.sampled_from(["plain", "repeated row", "zero column"]))
    if n >= 2 and kind == "repeated row":
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        m[j] = list(m[i])
    elif n and kind == "zero column":
        j = draw(st.integers(0, n - 1))
        for row in m:
            row[j] = 0
    return m


class TestDetIntOracle:
    """Modular elimination against Bareiss elimination over Z."""

    @given(int_matrices())
    @settings(max_examples=300, deadline=None)
    def test_random_matrices(self, m):
        assert det_int(sparse_rows(m)) == bareiss_det_int(m)

    @given(int_matrices(entries=st.integers(-(2**200), 2**200), max_dim=8))
    @settings(max_examples=100, deadline=None)
    def test_huge_entries(self, m):
        assert det_int(sparse_rows(m)) == bareiss_det_int(m)

    def test_huge_entries_use_many_primes(self, monkeypatch):
        rng = random.Random(17)
        m = [[rng.randint(-(2**200), 2**200) for _ in range(6)] for _ in range(6)]
        drawn = count_primes(monkeypatch)
        moduli = count_eliminations(monkeypatch)
        assert det_int(sparse_rows(m)) == bareiss_det_int(m)
        assert len(drawn) >= 20  # Hadamard's bound is about 2^1200
        assert moduli == [math.prod(drawn)]  # one elimination, modulo their product

    def test_pivot_divisible_by_a_prime_falls_back(self, monkeypatch):
        # either order puts a multiple of Q0 on the diagonal: modulo the
        # product of the primes the first pivot is no unit, so each prime
        # gets its own elimination
        m = [[2 * Q0, 3], [5, Q0]]
        drawn = count_primes(monkeypatch)
        moduli = count_eliminations(monkeypatch)
        assert det_int(sparse_rows(m)) == bareiss_det_int(m) == 2 * Q0 * Q0 - 15
        assert len(drawn) >= 2 and moduli == [math.prod(drawn), *drawn]

    def test_entries_divisible_by_a_prime(self):
        m = [[1, Q0], [Q0, Q0 * Q0 + 1]]
        assert det_int(sparse_rows(m)) == bareiss_det_int(m) == 1

    @given(int_matrices(entries=prime_multiples, max_dim=7))
    @settings(max_examples=200, deadline=None)
    def test_prime_multiple_entries(self, m):
        assert det_int(sparse_rows(m)) == bareiss_det_int(m)

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
    """1-3 hub rows and columns with an entry in every one of 1-6 diagonal
    blocks of size 1-5, as a totally ramified mark of a cover touches every
    sheet; then one symmetric renumbering, so the hubs sit anywhere."""
    blocks, size, hubs = draw(st.integers(1, 6)), draw(st.integers(1, 5)), draw(st.integers(1, 3))
    n = blocks * size + hubs
    entry = st.integers(-9, 9)
    m = [[0] * n for _ in range(n)]
    for b in range(blocks):
        for i in range(b * size, (b + 1) * size):
            for j in range(b * size, (b + 1) * size):
                m[i][j] = draw(entry)
    for h in range(blocks * size, n):
        for b in range(blocks):
            i = b * size + draw(st.integers(0, size - 1))
            m[h][i], m[i][h] = draw(entry.filter(bool)), draw(entry.filter(bool))
        for j in range(blocks * size, n):
            m[h][j] = draw(entry)
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


def kernel_order(m, q=Q0):
    """The order in which the kernel eliminates the integer sparse rows m
    modulo q, their pattern made symmetric as det_int makes it; None when a
    zero column ends it early."""
    return linalg._det_mod(linalg._symmetric([{j: x % q for j, x in row.items()} for row in m], 0), None, q)[1]


def pattern_rows(pattern):
    """Rows with entry 1 at each listed column and 10 on the diagonal: with
    at most 9 columns besides the diagonal in a row, even with the mirrored
    zeros added, strictly diagonally dominant, so no pivot vanishes."""
    return [{**dict.fromkeys(cols, 1), i: 10} for i, cols in enumerate(pattern)]


def at_node(m, x, q=Q0):
    """The residues modulo q of the Laurent sparse rows m at g = x."""
    return [{j: sum(c * pow(x, e, q) for e, c in y.coeffs.items()) % q for j, y in row.items()} for row in m]


class TestSparseKernel:
    """The minimum-degree order and the sparse elimination against Bareiss."""

    @given(arrowhead_matrices())
    @settings(max_examples=150, deadline=None)
    def test_arrowhead_matrices(self, m):
        assert det_int(sparse_rows(m)) == bareiss_det_int(m)

    @given(zero_diagonal_matrices())
    @settings(max_examples=200, deadline=None)
    def test_zero_diagonal(self, m):
        assert det_int(sparse_rows(m)) == bareiss_det_int(m)

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
            m = at_node(unramified_block(g, r, {e.id: rng.randint(-2, 2) for e in g.edges}), node)
        assert all(m[i].get(i) for i in range(len(m)))
        assert kernel_order(m) == min_degree_order([list(row) for row in m])


def constants(m):
    """The dense integer matrix m as constant Laurent polynomials."""
    return [[LaurentPoly({0: x}) for x in row] for row in m]


class TestBorrowedRow:
    """A zero diagonal pivot borrows a row of its column, against the
    Bareiss oracles over Z and Z[g]."""

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
        assert det_int(sparse_rows(m)) == bareiss_det_int(m) == det
        assert det_laurent(sparse_rows(constants(m))) == bareiss_det_laurent(constants(m)) == det

    def test_borrowed_pivot_divisible_by_a_prime_falls_back(self, monkeypatch):
        # column 0 borrows row 1, whose entry Q0 is no unit modulo Q0 * Q1;
        # modulo Q0 the column is zero, modulo Q1 the borrow succeeds
        m = [[0, 1], [Q0, 0]]
        for det, rows in (det_int, sparse_rows(m)), (det_laurent, sparse_rows(constants(m))):
            with monkeypatch.context() as mp:
                drawn = count_primes(mp)
                moduli = count_eliminations(mp)
                assert det(rows) == bareiss_det_int(m) == -Q0
            assert drawn == [Q0, Q1] and moduli == [Q0 * Q1, Q0, Q1]

    def test_first_node_ends_early(self, monkeypatch):
        # det M = (g - 1)(g + 1) vanishes at the first node 1, where column 1
        # cancels with no row to borrow: node 2 chooses the order, node 3
        # replays it
        m = [[LaurentPoly({1: 1}), LaurentPoly({0: 1}), LaurentPoly()],
             [LaurentPoly({0: 1}), LaurentPoly({0: 1}), LaurentPoly()],
             [LaurentPoly(), LaurentPoly(), LaurentPoly({0: 1, 1: 1})]]
        calls, det_mod = [], linalg._det_mod

        def recording(a, order, q):
            calls.append((order, det_mod(a, order, q)))
            return calls[-1][1]

        monkeypatch.setattr(linalg, "_det_mod", recording)
        assert det_laurent(sparse_rows(m)) == bareiss_det_laurent(m) == LaurentPoly({0: -1, 2: 1})
        assert [order for order, _ in calls] == [None, None, calls[1][1][1]]
        assert calls[0][1] == (0, None) and calls[2][1][1] == calls[1][1][1]


laurent_terms =st.dictionaries(st.integers(-6, 6), st.integers(-5, 5), max_size=3)
constant_terms = st.dictionaries(st.just(0), st.integers(-5, 5), max_size=1)


big_coefficients = st.one_of(st.integers(2**63, 2**70), st.integers(-(2**70), -(2**63)))
big_entries = st.dictionaries(st.integers(-4, 4), big_coefficients, min_size=1, max_size=2).map(LaurentPoly)


@st.composite
def laurent_matrices(draw):
    """Square matrices of dimension 0-7; entries with 0-3 terms, or constants
    only (degree 0); sometimes with a zero row."""
    n = draw(st.integers(0, 7))
    terms = draw(st.sampled_from([laurent_terms, constant_terms]))
    m = [[LaurentPoly(draw(terms)) for _ in range(n)] for _ in range(n)]
    if n and draw(st.integers(0, 4)) == 0:
        m[draw(st.integers(0, n - 1))] = [LaurentPoly()] * n
    return m


sparse_weights = st.one_of(st.none(), st.integers(-6, 6))


def mirror(x):
    """x(1/g)"""
    return LaurentPoly({-e: c for e, c in x.coeffs.items()})


@st.composite
def hermitian_matrices(draw, min_dim=0):
    """M_ji(g) = M_ij(1/g), as for a voltage Laplacian block: dimension
    0-8, entries with exponents in [-6, 6], a constant plus loops
    c * (g^a + g^-a) on the diagonal; sometimes a zero row and column."""
    n = draw(st.integers(min_dim, 8))
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
    if n and draw(st.integers(0, 4)) == 0:
        k = draw(st.integers(0, n - 1))
        for i in range(n):
            m[k][i] = m[i][k] = LaurentPoly()
    return m


@st.composite
def dominant_hermitian_matrices(draw):
    """Mirrored matrices of dimension 0-6 with off-diagonal entries of 0-3
    terms and loops c * (g^a + g^-a) on the diagonal, whose constant
    coefficient is the sum of the row's other |coefficients| plus 0-2: on
    |g| = 1 they are positive semidefinite."""
    n = draw(st.integers(0, 6))
    m = [[LaurentPoly()] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            m[i][j] = LaurentPoly(draw(laurent_terms))
            m[j][i] = mirror(m[i][j])
    for i in range(n):
        diag = {}
        for a, c in draw(st.lists(st.tuples(st.integers(1, 6), st.integers(-3, 3)), max_size=2)):
            diag[a] = diag.get(a, 0) + c
            diag[-a] = diag.get(-a, 0) + c
        rest = sum(abs(c) for j, x in enumerate(m[i]) if j != i for c in x.coeffs.values())
        diag[0] = rest + sum(abs(c) for c in diag.values()) + draw(st.integers(0, 2))
        m[i][i] = LaurentPoly(diag)
    return m


def primes_past(bound):
    """The number of primes _crt draws for a coefficient bound."""
    k, m = 0, 1
    for q in linalg._primes():
        if m > 2 * bound:
            return k
        k, m = k + 1, m * q


class TestDetLaurentOracle:
    """Modular evaluation and interpolation against evaluation at integer
    nodes by Bareiss over Z and exact interpolation over Z."""

    @given(st.one_of(hermitian_matrices(), laurent_matrices()))
    @settings(max_examples=40, deadline=None)
    def test_oracle_matches_bareiss_over_z_g(self, m):
        assert interpolated_det_laurent(m) == bareiss_det_laurent(m)

    @given(hermitian_matrices())
    @settings(max_examples=200, deadline=None)
    def test_hermitian_matrices(self, m):
        assert det_laurent(sparse_rows(m)) == interpolated_det_laurent(m)

    @given(hermitian_matrices(min_dim=1), st.data())
    @settings(max_examples=200, deadline=None)
    def test_one_entry_off_hermitian(self, m, data):
        # one added term breaks M_ji(g) = M_ij(1/g): det need not be palindromic
        n = len(m)
        i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        e = data.draw(st.integers(-6, 6).filter(lambda e: i != j or e != 0))
        m[i][j] = laurent_sub(m[i][j], LaurentPoly({e: -data.draw(st.sampled_from([-2, -1, 1, 2]))}))
        assert any(m[b][a] != mirror(m[a][b]) for a in range(n) for b in range(n))
        assert det_laurent(sparse_rows(m)) == interpolated_det_laurent(m)

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

    @given(st.one_of(hermitian_matrices(), laurent_matrices()))
    @settings(max_examples=200, deadline=None)
    def test_assignment_brackets_the_determinant(self, m):
        # hi is at least the top exponent of det M, lo at most its bottom one
        rows = sparse_rows(m)
        det = det_laurent(rows)
        hi = linalg._max_assignment([{j: x.max_exp() for j, x in row.items()} for row in rows])
        lo = linalg._max_assignment([{j: -x.min_exp() for j, x in row.items()} for row in rows])
        assert (hi is None) == (lo is None)
        if not det.is_zero:
            assert hi >= det.max_exp() and -lo <= det.min_exp()

    def test_mirrored_nodes_on_a_grid_block(self, monkeypatch):
        # one elimination, modulo the product of the primes, per node x
        # serves x and 1/x: hi + 1 of them for hi the one assignment's value;
        # a row-span bound D = sum_i (row max - min(0, row min)) needs D + 1;
        # the diagonal coefficient bound takes 2 primes at 5x5 and 4 at 8x8,
        # where the row norms take 3 and 6
        for k, seed, nodes, primes in (5, 0, 17, 2), (8, 0, 41, 4), (8, 1, 37, 4), (8, 2, 31, 4):
            g, r = grid_graph(k, k)
            rng = random.Random(seed)
            m = unramified_block(g, r, {e.id: rng.choice((-1, 1)) for e in g.edges})
            spans = sum(max(x.max_exp() for x in row.values()) - min(0, min(x.min_exp() for x in row.values())) for row in m)
            with monkeypatch.context() as mp:
                bounds, assignment = [], linalg._max_assignment
                mp.setattr(linalg, "_max_assignment", lambda w: bounds.append(assignment(w)) or bounds[-1])
                calls = count_eliminations(mp)
                drawn = count_primes(mp)
                assert det_laurent(m) == interpolated_det_laurent(dense(m, LaurentPoly()))
            assert len(bounds) == 1 and len(calls) == bounds[0] + 1 == nodes
            assert len(drawn) == primes
            assert 2 * len(calls) < spans + 1

    @given(dominant_hermitian_matrices())
    @settings(max_examples=200, deadline=None)
    def test_dominant_hermitian_matrices(self, m):
        # every coefficient of g^hi * det M is at most prod_i ||M_ii||_1, and
        # det_laurent draws just the primes that pass twice that bound
        bound = math.prod(sum(map(abs, m[i][i].coeffs.values())) for i in range(len(m)))
        with pytest.MonkeyPatch.context() as mp:
            drawn = count_primes(mp)
            det = det_laurent(sparse_rows(m))
        assert det == interpolated_det_laurent(m)
        assert all(abs(c) <= bound for c in det.coeffs.values())
        assert len(drawn) == (primes_past(bound) if bound else 0)  # a zero row: det M = 0, no prime drawn

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

    def test_mirrored_but_not_dominant_keeps_the_row_bound(self, monkeypatch):
        # the diagonal bound 1 would lift 1 - 2^80 modulo one prime
        m = [{0: LaurentPoly({0: 1}), 1: LaurentPoly({1: 2**40})}, {0: LaurentPoly({-1: 2**40}), 1: LaurentPoly({0: 1})}]
        drawn = count_primes(monkeypatch)
        assert det_laurent(m) == 1 - 2**80
        assert len(drawn) == 3

    @given(laurent_matrices())
    @settings(max_examples=300, deadline=None)
    def test_random_matrices(self, m):
        assert det_laurent(sparse_rows(m)) == interpolated_det_laurent(m)

    @given(laurent_matrices(), st.lists(st.integers(-9, 9), min_size=7, max_size=7))
    @settings(max_examples=200, deadline=None)
    def test_gauge_invariance(self, m, phi):
        # D M D^-1 with D = diag(g^phi) has entries g^(phi_i - phi_j) M_ij
        # and the same determinant
        gauged = [[x.shift(phi[i] - phi[j]) for j, x in enumerate(row)] for i, row in enumerate(m)]
        assert det_laurent(sparse_rows(gauged)) == det_laurent(sparse_rows(m))

    def test_forest_block_takes_one_node(self, monkeypatch):
        # a tower block whose pattern is the path 1-0-3-2: its permutations
        # are the diagonal and transpositions of mirrored pairs, whose
        # exponents sum to 0, so hi = 0: one node and one elimination per prime
        neg_g, neg_gi = LaurentPoly({1: -1}), LaurentPoly({-1: -1})
        m = [
            {0: LaurentPoly({0: 3}), 1: neg_g, 3: neg_gi},
            {1: LaurentPoly({0: 2}), 0: neg_gi},
            {2: LaurentPoly({0: 2}), 3: neg_g},
            {3: LaurentPoly({0: 3}), 0: neg_g, 2: neg_gi},
        ]
        calls = count_eliminations(monkeypatch)
        drawn = count_primes(monkeypatch)
        assert det_laurent(m) == 21
        assert len(calls) == len(drawn) == 1

    @given(st.integers(2, 5).flatmap(lambda n: st.lists(st.lists(big_entries, min_size=n, max_size=n), min_size=n, max_size=n)))
    @settings(max_examples=100, deadline=None)
    def test_large_coefficients(self, m):
        # every row holds a coefficient of at least 2^63, so the bound is at
        # least 2^126 and four primes below 2^30 cannot reach twice it
        assert det_laurent(sparse_rows(m)) == interpolated_det_laurent(m)

    def test_large_coefficients_use_three_primes(self, monkeypatch):
        m = [
            [LaurentPoly({1: 2**63, -2: 5}), LaurentPoly({0: -(2**64)})],
            [LaurentPoly({2: 3}), LaurentPoly({-1: 2**65 + 1})],
        ]
        drawn = count_primes(monkeypatch)
        moduli = count_eliminations(monkeypatch)
        assert det_laurent(sparse_rows(m)) == interpolated_det_laurent(m)
        assert len(drawn) >= 3
        # the assignments give exponents -3..2: one elimination at each of
        # six nodes, all modulo the product of the primes
        assert moduli == [math.prod(drawn)] * 6

    def test_coefficient_equal_to_a_prime(self, monkeypatch):
        # at the node 1 both diagonal entries are Q0, and a pivot that Q0
        # divides sends every prime through its own eliminations
        m = [
            [LaurentPoly({1: Q0 - 1, 2: 1}), LaurentPoly({0: 1})],
            [LaurentPoly({2: 1}), LaurentPoly({0: Q0 - 3, -1: 3})],
        ]
        drawn = count_primes(monkeypatch)
        moduli = count_eliminations(monkeypatch)
        assert det_laurent(sparse_rows(m)) == interpolated_det_laurent(m)
        assert len(drawn) >= 2 and moduli[0] == math.prod(drawn)
        assert sorted(set(moduli[1:])) == sorted(drawn)

    @given(st.integers(0, 2**32), st.data())
    @settings(max_examples=150, deadline=None)
    def test_unramified_blocks(self, seed, data):
        rng = random.Random(seed)
        g = random_connected_graph(rng, max_vertices=9, max_edges=16)
        voltage = {e.id: rng.randint(-6, 6) for e in g.edges}
        marks = data.draw(st.lists(st.sampled_from(g.vertices), unique=True, max_size=len(g.vertices) - 1))
        m = unramified_block(g, RamificationData.totally_ramified(marks), voltage)
        assert det_laurent(m) == interpolated_det_laurent(dense(m, LaurentPoly()))


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
        f = det_laurent(unramified_block(g, r, volt))
        assert root_of_unity_products(f, p, n) == [companion_root_of_unity_product(f, p**a) for a in range(n + 1)]

    def test_bad_n(self):
        with pytest.raises(LinalgError):
            root_of_unity_products(LaurentPoly({0: 1}), 2, -1)
