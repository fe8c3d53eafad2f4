"""Exact closed-form counts of FC elements by various statistics.

Everything here is big-integer arithmetic; rational prefactors are applied
by exact division and a failed division raises ArithmeticError because it
would contradict the counting theorems these formulas implement.  Parameters
outside their meaningful range yield 0 instead of raising, which is the
convention the recurrences need.

Statistics and their counts, for rank n.  Three formulas carry the
refinements: ``triangle_start``, ``count_start_size`` and
``count_start_end``.  The others are one call of these, by two partitions
the paper reads off the canonical form: reverse-and-reflect
(``FCElement.delta_involution``), which swaps starts with reflected ends
and first blocks with reflected last blocks, and the first-block
partition, which splits an element into its first block and what follows
it.

* ``catalan(m)``                 Catalan number C_m, in closed form; the
                                 convolution recurrence that defines it
                                 is a ``verify`` check.  ``catalan_row(m)``
                                 gives C_0..C_m.
* ``narayana(n, p)``             elements of size p; ``narayana_row(n)``
                                 gives all of them for one rank.
* ``triangle_start(n, i)``       canonical word starts with generator i
                                 (Catalan triangle; i = 0 counts the
                                 identity alone); ``triangle_row(n)``
                                 gives all of them for one rank.
* ``triangle_end(n, j)``         canonical word ends with generator j:
                                 ``triangle_start(n, n+1-j)``.
* ``count_first_block(n, i, j)`` leading block equals [i, j]:
                                 ``triangle_start(j, i-1)``, independent
                                 of n.
* ``count_last_block(n, i, j)``  trailing block equals [i, j]:
                                 ``count_first_block(n, n+1-j, n+1-i)``.
* ``count_start_size(n, i, p)``  starts with i and has size p.
* ``count_size_end(n, p, j)``    has size p and ends with j:
                                 ``count_start_size(n, n+1-j, p)``.
* ``count_start_end(n, i, j)``   starts with i and ends with j:
                                 C(n-j+i-1, i-1) - C(n-j+i-1, i-j-1), by
                                 a reflection argument given in its
                                 docstring.
"""

from __future__ import annotations

from math import comb
from typing import NamedTuple

from .errors import RankOutOfRangeError, shown


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
        raise RankOutOfRangeError(f"catalan is defined for m >= 0, got {shown(m)}")
    return _exact(comb(2 * m, m), m + 1)


def catalan_row(m: int) -> list[int]:
    """``[catalan(g) for g in 0..m]``, each from its left neighbour.

    C_{g+1} = C_g 2(2g+1) / (g+2), one multiplication and one exact
    division per entry, as ``narayana_row`` does.  Empty for m < 0.
    """
    row = [1] if m >= 0 else []
    for g in range(m):
        row.append(_exact(row[-1] * 2 * (2 * g + 1), g + 2))
    return row


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


def triangle_row(n: int) -> list[int]:
    """``[triangle_start(n, i) for i in 0..n]``, each from its left neighbour.

    T(n, i+1) = T(n, i) (n-i)(n+i+1) / ((i+1)(n+1-i)), so the row costs one
    multiplication and one exact division per entry, as ``narayana_row``
    does.  Empty for n < 0.
    """
    row = [1] if n >= 0 else []
    for i in range(n):
        row.append(_exact(row[-1] * (n - i) * (n + i + 1), (i + 1) * (n + 1 - i)))
    return row


def triangle_end(n: int, j: int) -> int:
    """Number of elements ending with generator j.

    Reverse-and-reflect sends last generator j to first generator n+1-j.
    """
    if n < 0 or j < 1 or j > n:
        return 0
    return triangle_start(n, n + 1 - j)


def count_first_block(n: int, i1: int, j1: int) -> int:
    """Number of elements whose first block is [i1, j1]; independent of n.

    What follows the block is any element of rank j1-1 whose first
    generator is below i1 (the identity under i = 0), so the count is
    sum_{i' < i1} T(j1-1, i') = T(j1, i1-1) by the column-sum recurrence.
    """
    if not 1 <= i1 <= j1 <= n:
        return 0
    return triangle_start(j1, i1 - 1)


def count_last_block(n: int, ip: int, jp: int) -> int:
    """Number of elements whose last block is [ip, jp].

    Reverse-and-reflect sends last block [ip, jp] to first block
    [n+1-jp, n+1-ip], and out of range to out of range.
    """
    return count_first_block(n, n + 1 - jp, n + 1 - ip)


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
    """Number of size-p elements ending with generator j.

    Reverse-and-reflect keeps the size, sends last generator j to first
    generator n+1-j, and out of range to out of range.  Size 0 is the
    identity, counted under j = 0, which the reflection does not carry.
    """
    if p == 0:
        return 1 if j == 0 and n >= 0 else 0
    return count_start_size(n, n + 1 - j, p)


class StartEndCount(NamedTuple):
    """An exact count plus a provenance flag that is always True.

    ``perfbench/tracer.py`` still reads ``closed_form``; ROADMAP item 1
    retires it.
    """

    value: int
    closed_form: bool


def count_start_end(n: int, i: int, j: int) -> StartEndCount:
    """Number of elements starting with i and ending with j.

    C(n-j+i-1, i-1) - C(n-j+i-1, i-j-1) for 1 <= i, j <= n, the second
    binomial being 0 for j >= i; 0 outside that range.  An element
    [i_1,j_1]...[i_p,j_p] is its starts A and ends B, |A| = |B|, with
    max A = i, min B = j and i_t <= j_t: the ballot condition
    D(x) = |A & [1,x]| - |B & [1,x]| >= 0 for all x.  Free are
    A' = A - {i} in [1, i-1] and B' = B - {j} in [j+1, n], of equal size.
    For j >= i no start exceeds an end (A <= i <= j <= B), and the count is
    sum_p C(i-1, p-1) C(n-j, p-1) = C(n-j+i-1, i-1) by Vandermonde.

    For j < i only j <= x < i can break the condition.  Write (A', B') as
    a walk of n-j+i-1 steps of +-1: for x = 1..j, +1 if x is in A' else
    -1; for x = j+1..i-1, that step, then -1 if x is in B' else +1; for
    x = i..n, the B' step alone.  Equal sizes mean n-j up-steps, ending
    at h = n-i-j+1.  After x in [j, i-1] the walk stands at 2 D(x) - j + 2,
    and within its first H = 2i-j-2 steps nowhere else at -j (parity, and
    |height| < j before x = j), so a bad pair is a walk touching -j within
    H steps.  Reflecting the tail after the first touch (the tail swap at
    the first break) maps these one to one onto all walks ending at
    -2j-h = i-j-1-n, which have i-j-1 up-steps: each touches -j by step
    H, where it stands at most n-i+1 above its end.  ``verify`` checks
    every cell against the block-chain recurrence for n <= 40 and against
    brute force for n <= 10.
    """
    if not (1 <= i <= n and 1 <= j <= n):
        return StartEndCount(0, True)
    steps = n - j + i - 1
    broken = comb(steps, i - j - 1) if i > j else 0
    return StartEndCount(comb(steps, i - 1) - broken, True)


def appendix_binomial_identity_check(n: int, p: int) -> bool:
    """Check sum_t C(p,t) C(n-p,t) / (t+1) == C(n+1,p) / (p+1) exactly."""
    if not 0 <= p <= n:
        raise RankOutOfRangeError(f"need 0 <= p <= n, got p={shown(p)}, n={shown(n)}")
    from fractions import Fraction  # here, so that loading counting does not load decimal

    lhs = sum(Fraction(comb(p, t) * comb(n - p, t), t + 1) for t in range(p + 1))
    return lhs == Fraction(comb(n + 1, p), p + 1)
