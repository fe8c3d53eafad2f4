"""Exact closed-form counts of FC elements by various statistics.

Everything here is big-integer arithmetic; rational prefactors are applied
by exact division and a failed division raises ArithmeticError because it
would contradict the counting theorems these formulas implement.  Parameters
outside their meaningful range yield 0 instead of raising, which is the
convention the recurrences need.

Statistics and their counts, for rank n:

* ``catalan(m)``                 Catalan number C_m, in closed form; the
                                 convolution recurrence that defines it
                                 is a ``verify`` check.
* ``narayana(n, p)``             elements of size p; ``narayana_row(n)``
                                 gives all of them for one rank.
* ``triangle_start(n, i)``       canonical word starts with generator i
                                 (Catalan triangle; i = 0 counts the
                                 identity alone).
* ``triangle_end(n, j)``         canonical word ends with generator j.
* ``count_first_block(n, i, j)`` leading block equals [i, j]; independent
                                 of n.
* ``count_last_block(n, i, j)``  trailing block equals [i, j].
* ``count_start_size(n, i, p)``  starts with i and has size p.
* ``count_size_end(n, p, j)``    has size p and ends with j.
* ``count_start_end(n, i, j)``   starts with i and ends with j.  A closed
                                 form exists only for j >= i-1; below that
                                 the exact value comes from a recurrence
                                 over block chains, in O(i*n) additions,
                                 and is flagged as such.
                                 ``start_end_row(n, i)`` gives all j for
                                 one i from a single run of it.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import NamedTuple

from .errors import RankOutOfRangeError


def _exact(numerator: int, denominator: int) -> int:
    q, r = divmod(numerator, denominator)
    if r:
        raise ArithmeticError(
            f"internal error: {numerator} is not divisible by {denominator}; "
            "this contradicts the counting theorem"
        )
    return q


def catalan(m: int) -> int:
    """Catalan number C_m = C(2m, m) / (m+1).

    The paper defines C_{m+1} = sum C_a C_{m-a} with C_0 = 1; that
    recurrence is the ``verify`` check ``counting.catalan-convolution``.
    """
    if m < 0:
        raise RankOutOfRangeError(f"catalan is defined for m >= 0, got {m}")
    return _exact(comb(2 * m, m), m + 1)


def narayana(n: int, p: int) -> int:
    """Number of size-p elements: C(n,p) * C(n+1,p) / (p+1)."""
    if n < 0 or p < 0 or p > n:
        return 0
    return _exact(comb(n, p) * comb(n + 1, p), p + 1)


def narayana_row(n: int) -> list[int]:
    """``[narayana(n, p) for p in 0..n]``, each from its left neighbour.

    N(n, p+1) = N(n, p) (n-p)(n+1-p) / ((p+1)(p+2)), so the row costs one
    multiplication and one exact division per entry instead of two fresh
    binomials.  Empty for n < 0.
    """
    row = [1] if n >= 0 else []
    for p in range(n):
        row.append(_exact(row[-1] * (n - p) * (n + 1 - p), (p + 1) * (p + 2)))
    return row


def triangle_start(n: int, i: int) -> int:
    """Number of elements starting with generator i: (n+1-i)/(n+1) * C(n+i, i)."""
    if n < 0 or i < 0 or i > n:
        return 0
    return _exact((n + 1 - i) * comb(n + i, i), n + 1)


def triangle_end(n: int, j: int) -> int:
    """Number of elements ending with generator j: j/(n+1) * C(2n-j+1, n).

    Equals ``triangle_start(n, n-j+1)`` by the reversal symmetry.
    """
    if n < 0 or j < 1 or j > n:
        return 0
    return _exact(j * comb(2 * n - j + 1, n), n + 1)


def count_first_block(n: int, i1: int, j1: int) -> int:
    """Number of elements whose first block is [i1, j1].

    The value (j1-i1+2)/(j1+1) * C(j1+i1-1, j1) does not depend on n.
    """
    if not 1 <= i1 <= j1 <= n:
        return 0
    return _exact((j1 - i1 + 2) * comb(j1 + i1 - 1, j1), j1 + 1)


def count_last_block(n: int, ip: int, jp: int) -> int:
    """Number of elements whose last block is [ip, jp]."""
    if not 1 <= ip <= jp <= n:
        return 0
    return _exact((jp - ip + 2) * comb(2 * n - jp - ip + 1, n - jp), n - ip + 2)


def count_start_size(n: int, i: int, p: int) -> int:
    """Number of size-p elements starting with generator i.

    Zero whenever p > i; the size-0 case is the identity, counted under the
    i = 0 convention.
    """
    if p == 0:
        return 1 if i == 0 and n >= 0 else 0
    if p < 0 or p > i or not 1 <= i <= n:
        return 0
    return _exact((n + 1 - i) * comb(i - 1, p - 1) * comb(n, p), n + 1 - p)


def count_size_end(n: int, p: int, j: int) -> int:
    """Number of size-p elements ending with generator j."""
    if p == 0:
        return 1 if j == 0 and n >= 0 else 0
    if p < 0 or p > n or not 1 <= j <= n:
        return 0
    return _exact(j * comb(n - j, p - 1) * comb(n, p), n + 1 - p)


class StartEndCount(NamedTuple):
    """An exact count plus a provenance flag.

    ``closed_form`` is False when no closed formula is known for that
    parameter range; the value is then computed by the chain recurrence of
    :func:`count_start_end`, and is just as exact.
    """

    value: int
    closed_form: bool


def count_start_end(n: int, i: int, j: int) -> StartEndCount:
    """Number of elements starting with i and ending with j.

    Closed forms: C(n-j+i-1, i-1) for j >= i, and C(n, i-1) - 1 for
    j = i-1.  For j < i-1 no closed form is known and the exact value is
    computed by :func:`_chain_ends` (flagged via ``closed_form``).
    """
    if not (1 <= i <= n and 1 <= j <= n):
        return StartEndCount(0, True)
    if j >= i:
        return StartEndCount(comb(n - j + i - 1, i - 1), True)
    if j == i - 1:
        return StartEndCount(comb(n, i - 1) - 1, True)
    return StartEndCount(_chain_ends(n, i, j)[j], False)


def start_end_row(n: int, i: int) -> list[StartEndCount]:
    """``[count_start_end(n, i, j) for j in 1..n]``, in one chain recurrence.

    One run of :func:`_chain_ends` from start i counts the chains ending at
    every j at once, so a row costs O(i*n) additions instead of that much
    per cell, and the whole start-end table O(n^3) instead of O(n^4).
    """
    if not 1 <= i <= n:
        return [StartEndCount(0, True)] * max(n, 0)
    chains = _chain_ends(n, i, 1)
    return [
        StartEndCount(chains[j], False) if j < i - 1 else count_start_end(n, i, j)
        for j in range(1, n + 1)
    ]


def _chain_ends(n: int, i: int, j: int) -> list[int]:
    """Count block chains [i,b_1][a_2,b_2]...[a_p,b] of rank n by their end b.

    Let N(a, b) be the number of chains whose first start is i and whose
    last block is [a, b].  Then N(a, b) = [a = i] + sum N(a', b') over
    a < a' <= i and b' > b, for a <= b <= n.  Rows are filled from a = i
    down to 1; ``column[b]`` holds the sum of N(a', b) over the rows done so
    far, and ``above`` the sum of their entries right of b.  Only the ends
    b >= j are filled, since no others can reach them.  The returned
    ``column[b]`` is the number of chains ending at b, for every b >= j:
    O(i*n) big-integer additions.
    """
    column = [0] * (n + 1)
    for a in range(i, 0, -1):
        above = 0
        for b in range(n, max(a, j) - 1, -1):
            here = above + (a == i)
            above += column[b]
            column[b] += here
    return column


def appendix_binomial_identity_check(n: int, p: int) -> bool:
    """Check sum_t C(p,t) C(n-p,t) / (t+1) == C(n+1,p) / (p+1) exactly."""
    if not 0 <= p <= n:
        raise RankOutOfRangeError(f"need 0 <= p <= n, got p={p}, n={n}")
    lhs = sum(Fraction(comb(p, t) * comb(n - p, t), t + 1) for t in range(p + 1))
    return lhs == Fraction(comb(n + 1, p), p + 1)
