"""Closed-form counts against the brute-force enumeration oracle.

Every frozen number below was computed by filtering `enumerate_fc` and is
re-derived inside the test so the formula, the frozen value, and the oracle
must all agree.
"""

import itertools
import time
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fcdiag import (
    RankOutOfRangeError,
    appendix_binomial_identity_check,
    catalan,
    catalan_row,
    count_first_block,
    count_last_block,
    count_size_end,
    count_start_end,
    count_start_size,
    narayana,
    narayana_row,
    triangle_end,
    triangle_row,
    triangle_start,
)
from fcdiag.counting import _exact
from fcdiag.verify import _chain_column
from helpers import assert_holds, fc_list


def filtered(n, pred):
    return sum(1 for w in fc_list(n) if pred(w))


# The closed forms of the four counts that ``fcdiag.counting`` now reduces
# to one call of ``triangle_start``, ``count_first_block`` or
# ``count_start_size``, kept as they were as an oracle for the reductions.


def closed_triangle_end(n, j):
    if n < 0 or j < 1 or j > n:
        return 0
    return _exact(j * comb(2 * n - j + 1, n), n + 1)


def closed_first_block(n, i1, j1):
    if not 1 <= i1 <= j1 <= n:
        return 0
    return _exact((j1 - i1 + 2) * comb(j1 + i1 - 1, j1), j1 + 1)


def closed_last_block(n, ip, jp):
    if not 1 <= ip <= jp <= n:
        return 0
    return _exact((jp - ip + 2) * comb(2 * n - jp - ip + 1, n - jp), n - ip + 2)


def closed_size_end(n, p, j):
    if p == 0:
        return 1 if j == 0 and n >= 0 else 0
    if p < 0 or p > n or not 1 <= j <= n:
        return 0
    return _exact(j * comb(n - j, p - 1) * comb(n, p), n + 1 - p)


class TestCatalan:
    def test_initial_values(self):
        assert [catalan(m) for m in range(5)] == [1, 1, 2, 5, 14]

    def test_frozen_values(self):
        assert catalan(9) == 4862
        assert catalan(15) == 9694845

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            catalan(-1)

    def test_negative_is_a_domain_error(self):
        with pytest.raises(RankOutOfRangeError, match="m >= 0"):
            catalan(-2)

    @given(st.integers(min_value=0, max_value=300))
    def test_recurrence_matches_closed_form(self, m):
        assert catalan(m + 1) == sum(catalan(a) * catalan(m - a) for a in range(m + 1))

    def test_row_by_neighbour_ratio(self):
        assert catalan_row(-1) == [] and catalan_row(0) == [1]
        for m in range(301):
            assert catalan_row(m) == [catalan(g) for g in range(m + 1)]

    def test_inexact_division_raises(self):
        with pytest.raises(ArithmeticError, match="7 is not divisible by 2"):
            _exact(7, 2)


class TestNarayana:
    def test_edges(self):
        for n in range(8):
            assert narayana(n, 0) == 1
            assert narayana(n, n) == 1

    def test_out_of_range_is_zero(self):
        assert narayana(-1, 0) == 0
        assert narayana(3, -1) == 0
        assert narayana(3, 4) == 0

    def test_frozen_spot_value(self):
        assert narayana(4, 2) == 20 == filtered(4, lambda w: w.size == 2)

    def test_row_n4(self):
        assert [narayana(4, p) for p in range(5)] == [1, 10, 20, 10, 1]

    def test_row_by_neighbour_ratio(self):
        assert narayana_row(-1) == [] and narayana_row(0) == [1]
        for n in range(301):
            assert narayana_row(n) == [narayana(n, p) for p in range(n + 1)]

    @given(st.integers(min_value=0, max_value=60), st.integers(min_value=0, max_value=60))
    def test_symmetry(self, n, p):
        assert narayana(n, p) == narayana(n, n - p if p <= n else -1)

    @pytest.mark.parametrize("n", range(0, 21))
    def test_row_sums(self, n):
        assert_holds("counting.narayana-row-sums", n)


class TestCatalanTriangle:
    def test_known_columns(self):
        for n in range(1, 10):
            assert triangle_start(n, 1) == n
            assert triangle_start(n, n) == catalan(n)
            assert triangle_start(n, 0) == 1

    def test_end_outside_the_generators_is_zero(self):
        for n in range(6):
            assert triangle_end(n, 0) == triangle_end(n, n + 1) == 0

    def test_frozen_spot_values(self):
        assert triangle_start(5, 3) == 28 == filtered(
            5, lambda w: bool(w.pairs) and w.pairs[0][0] == 3
        )
        assert triangle_end(5, 5) == 5 == filtered(
            5, lambda w: bool(w.pairs) and w.pairs[-1][1] == 5
        )
        assert triangle_end(5, 1) == 42 == filtered(
            5, lambda w: bool(w.pairs) and w.pairs[-1][1] == 1
        )
        assert triangle_end(4, 2) == 14 == filtered(
            4, lambda w: bool(w.pairs) and w.pairs[-1][1] == 2
        )

    @pytest.mark.parametrize("n", range(1, 16))
    def test_reversal_symmetry(self, n):
        for j in range(1, n + 1):
            assert triangle_end(n, j) == triangle_start(n, n - j + 1)

    def test_row_by_neighbour_ratio(self):
        assert triangle_row(-1) == [] and triangle_row(0) == [1]
        for n in range(301):
            assert triangle_row(n) == [triangle_start(n, i) for i in range(n + 1)]

    @pytest.mark.parametrize("n", range(1, 16))
    def test_recurrences(self, n):
        assert_holds("counting.triangle-recurrence", n)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_mixed_recurrence_via_catalan(self, n):
        assert_holds("counting.mixed-recurrence", n)

    @pytest.mark.parametrize("n", range(0, 16))
    def test_rows_partition_catalan(self, n):
        assert_holds("counting.triangle-row-sums", n)


class TestTwoParameterCounts:
    def test_first_block_specials(self):
        for n in range(1, 8):
            for i in range(1, n + 1):
                assert count_first_block(n, i, i) == catalan(i)
            for j in range(1, n + 1):
                assert count_first_block(n, 1, j) == 1

    def test_first_block_frozen(self):
        assert count_first_block(5, 2, 4) == 4 == filtered(
            5, lambda w: bool(w.pairs) and w.pairs[0] == (2, 4)
        )

    def test_first_block_independent_of_rank(self):
        for n in range(4, 12):
            assert count_first_block(n, 2, 4) == count_first_block(11, 2, 4)

    def test_last_block_frozen(self):
        assert count_last_block(5, 5, 5) == 1
        assert count_last_block(4, 1, 1) == 14 == filtered(
            4, lambda w: bool(w.pairs) and w.pairs[-1] == (1, 1)
        )
        # reversal duality sends last block (i, j) to first block (n+1-j, n+1-i)
        assert count_last_block(5, 2, 4) == count_first_block(5, 2, 4) == 4

    @pytest.mark.parametrize("n", range(1, 9))
    def test_last_block_duality(self, n):
        for i in range(1, n + 1):
            for j in range(i, n + 1):
                assert count_last_block(n, i, j) == count_first_block(n, n + 1 - j, n + 1 - i)

    def test_start_size_frozen(self):
        assert count_start_size(5, 3, 2) == 15 == filtered(
            5, lambda w: w.size == 2 and w.pairs[0][0] == 3
        )
        assert count_start_size(4, 4, 1) == 1 == filtered(
            4, lambda w: w.size == 1 and w.pairs[0][0] == 4
        )

    def test_start_size_zero_when_size_exceeds_start(self):
        assert count_start_size(6, 2, 3) == 0
        assert count_start_size(6, 0, 1) == 0

    def test_size_zero_is_the_identity_at_index_zero(self):
        for n in range(6):
            assert count_start_size(n, 0, 0) == count_size_end(n, 0, 0) == 1
            assert all(count_start_size(n, i, 0) == 0 for i in range(1, n + 2))

    def test_size_end_frozen(self):
        assert count_size_end(5, 2, 3) == 15 == filtered(
            5, lambda w: w.size == 2 and w.pairs[-1][1] == 3
        )

    @pytest.mark.parametrize("n", range(1, 11))
    def test_start_size_marginals(self, n):
        for p in range(1, n + 1):
            assert sum(count_start_size(n, i, p) for i in range(1, n + 1)) == narayana(n, p)
        for i in range(1, n + 1):
            assert sum(count_start_size(n, i, p) for p in range(1, i + 1)) == triangle_start(n, i)

    def test_start_end_specials(self):
        for n in range(1, 8):
            for j in range(1, n + 1):
                assert count_start_end(n, 1, j) == (1, True)

    def test_start_end_frozen(self):
        assert count_start_end(5, 3, 2) == (9, True)  # comb(5, 2) - 1
        assert count_start_end(5, 2, 4) == (2, True)
        got = count_start_end(5, 4, 1)
        assert got.value == 14 == filtered(
            5, lambda w: bool(w.pairs) and w.pairs[0][0] == 4 and w.pairs[-1][1] == 1
        )
        assert got.closed_form

    @pytest.mark.parametrize("n", range(1, 8))
    def test_all_two_parameter_formulas_vs_enumeration(self, n):
        assert_holds("counting.formulas-vs-enumeration", n)


class TestReductions:
    """Each count that is one call of another equals its old closed form on
    every cell with indices in -1..n+2, for every rank -1..60."""

    def test_triangle_end(self):
        for n in range(-1, 61):
            for j in range(-1, n + 3):
                assert triangle_end(n, j) == closed_triangle_end(n, j), (n, j)

    @pytest.mark.parametrize(
        "count, closed",
        [
            (count_first_block, closed_first_block),
            (count_last_block, closed_last_block),
            (count_size_end, closed_size_end),
        ],
    )
    def test_two_parameter(self, count, closed):
        for n in range(-1, 61):
            around = range(-1, n + 3)
            for a, b in itertools.product(around, around):
                assert count(n, a, b) == closed(n, a, b), (n, a, b)


class TestStartEndRecurrence:
    """``count_start_end`` against the block-chain recurrence, past the brute force."""

    @pytest.mark.parametrize("n", [11, 20, 30])
    def test_margins_are_the_catalan_triangle(self, n):
        cells = {(i, j): count_start_end(n, i, j).value for i in range(1, n + 1) for j in range(1, n + 1)}
        for i in range(1, n + 1):
            assert sum(cells[i, j] for j in range(1, n + 1)) == triangle_start(n, i)
        for j in range(1, n + 1):
            assert sum(cells[i, j] for i in range(1, n + 1)) == triangle_end(n, j)

    @pytest.mark.parametrize("n", range(0, 25))
    def test_row_equals_cells(self, n):
        # inside 1..n the cells are the chain recurrence's columns, which
        # test_verify asks of counting.start-end-vs-chains; around them, zeros
        around = range(-1, n + 3)
        for i, j in itertools.product(around, around):
            if not (1 <= i <= n and 1 <= j <= n):
                assert count_start_end(n, i, j) == (0, True), (n, i, j)

    @given(st.data())
    def test_cell_equals_chain_count(self, data):
        n = data.draw(st.integers(min_value=1, max_value=150))
        i = data.draw(st.integers(min_value=1, max_value=n))
        j = data.draw(st.integers(min_value=1, max_value=n))
        assert count_start_end(n, i, j) == (_chain_column(n, i)[j], True)

    def test_large_cell_within_budget(self):
        start = time.perf_counter()
        got = count_start_end(300, 150, 20)
        assert time.perf_counter() - start < 2.0
        assert got.value > 0 and got.closed_form


class TestThickSlimRecurrence:
    @pytest.mark.parametrize("n", range(1, 13))
    def test_narayana_recurrence(self, n):
        assert_holds("counting.thick-slim-recurrence", n)


class TestAppendixIdentity:
    def test_trivial_and_spot(self):
        assert appendix_binomial_identity_check(5, 0)
        assert appendix_binomial_identity_check(6, 3)
        assert appendix_binomial_identity_check(10, 7)

    def test_rejects_bad_range(self):
        with pytest.raises(ValueError):
            appendix_binomial_identity_check(3, 5)

    def test_bad_range_is_a_domain_error(self):
        with pytest.raises(RankOutOfRangeError, match="0 <= p <= n"):
            appendix_binomial_identity_check(3, 5)

    @given(st.integers(min_value=0, max_value=80))
    def test_holds_everywhere(self, n):
        assert all(appendix_binomial_identity_check(n, p) for p in range(n + 1))
