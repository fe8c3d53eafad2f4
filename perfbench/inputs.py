"""Seeded inputs for the benchmark workloads.

Everything here is the benchmark's own code and never calls the library, so
the same seed gives the same inputs on every commit.  FC elements are handed
to the library only as text forms such as ``n=8:[4,5][3,3][1,1]``.

A canonical form is a block list [i_1, j_1] ... [i_p, j_p] with both index
sequences strictly decreasing and 1 <= i_t <= j_t <= n.  Uniform random
elements come from the cycle lemma: a shuffled sequence of n+2 up-steps and
n+1 down-steps has exactly one rotation whose prefix sums stay positive, and
dropping its first step leaves a uniform Dyck path of semilength n+1.  The
path's peaks are the blocks.
"""

from __future__ import annotations

import random
from typing import Iterator

Blocks = tuple[tuple[int, int], ...]

MUL_SMALL_RANK = 8
MUL_SMALL_OPS = 20000
MUL_LARGE_RANK = 200
MUL_LARGE_OPS = 100
TABLES_MAX_RANK = 9
# Closed-form requests are cheap and frequent; each appears this many times
# per pass so that a run holds more than 1000 requests and its p99 falls on
# the enumeration-backed ones.
TABLES_CLOSED_WEIGHT = 4
TABLE_FORMATS = ("text", "csv", "json")
CLOSED_TABLE_KINDS = ("narayana", "triangle", "first-block", "last-block", "start-size", "size-end")
COUNT_MODES = ((), ("--narayana",), ("--triangle",))
VERIFY_ARGV = ("verify", "--all", "--max-n", "8")


def to_text(rank: int, blocks: Blocks) -> str:
    body = "".join(f"[{i},{j}]" for i, j in blocks) if blocks else "[]"
    return f"n={rank}:{body}"


def all_blocks(rank: int) -> Iterator[Blocks]:
    """Every canonical block list of the given rank, in a fixed order."""
    stack: list[tuple[int, int]] = []

    def rec(max_i: int, max_j: int) -> Iterator[Blocks]:
        yield tuple(stack)
        for i in range(1, max_i):
            for j in range(i, max_j):
                stack.append((i, j))
                yield from rec(i, j)
                stack.pop()

    yield from rec(rank + 1, rank + 1)


def random_blocks(rank: int, rng: random.Random) -> Blocks:
    """A uniformly random canonical block list of the given rank."""
    steps = [1] * (rank + 2) + [-1] * (rank + 1)
    rng.shuffle(steps)
    # The good rotation starts right after the last minimum of the prefix sums.
    total = low = cut = 0
    for k, step in enumerate(steps[:-1], start=1):
        total += step
        if total <= low:
            low, cut = total, k
    path = (steps[cut:] + steps[:cut])[1:]
    # A peak is a down-step followed by an up-step, at the point (x, y)
    # reached with x up-steps and y down-steps; it is the block [y, x].
    x = y = 0
    peaks = []
    for k, step in enumerate(path):
        if step == 1:
            x += 1
        else:
            y += 1
            if k + 1 < len(path) and path[k + 1] == 1:
                peaks.append((y, x))
    return tuple(reversed(peaks))


def mul_small_pairs(seed: int) -> list[tuple[str, str]]:
    """Uniform ordered pairs from all 4862 elements of rank 8."""
    rng = random.Random(seed)
    pool = [to_text(MUL_SMALL_RANK, b) for b in all_blocks(MUL_SMALL_RANK)]
    return [(rng.choice(pool), rng.choice(pool)) for _ in range(MUL_SMALL_OPS)]


def mul_large_pairs(rng: random.Random) -> list[tuple[str, str]]:
    """Fresh uniform pairs at rank 200.

    There are about 10^117 elements of rank 200, so no element repeats
    within a run; nothing is kept to check that, so memory stays flat.
    """
    texts = [to_text(MUL_LARGE_RANK, random_blocks(MUL_LARGE_RANK, rng)) for _ in range(2 * MUL_LARGE_OPS)]
    return list(zip(texts[::2], texts[1::2]))


def tables_requests(seed: int) -> list[tuple[str, ...]]:
    """A fixed multiset of table, count and census requests, in seeded order.

    It covers every table kind in every format, the three count modes in
    text and JSON, and every census (n, p) with n <= 9.  The seed shuffles
    the order and picks the formats whose cost does not depend on them.
    """
    rng = random.Random(seed)
    closed: list[tuple[str, ...]] = []
    for n in range(1, TABLES_MAX_RANK + 1):
        for kind in CLOSED_TABLE_KINDS:
            for fmt in TABLE_FORMATS:
                closed.append(("table", kind, "--n", str(n), "--format", fmt))
    for n in range(TABLES_MAX_RANK + 1):
        for mode in COUNT_MODES:
            for as_json in ((), ("--json",)):
                closed.append(("count", "--n", str(n), *mode, *as_json))
    requests = closed * TABLES_CLOSED_WEIGHT
    for n in range(1, TABLES_MAX_RANK):
        for fmt in TABLE_FORMATS:
            requests.append(("table", "start-end", "--n", str(n), "--format", fmt))
    fmt = rng.choice(TABLE_FORMATS)
    requests.append(("table", "start-end", "--n", str(TABLES_MAX_RANK), "--format", fmt))
    for n in range(1, TABLES_MAX_RANK + 1):
        for p in range(n + 1):
            as_json = ("--json",) if rng.random() < 0.5 else ()
            requests.append(("census", "--n", str(n), "--p", str(p), *as_json))
    rng.shuffle(requests)
    return requests
