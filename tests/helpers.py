"""Shared test utilities: cached enumerations, the verify catalogue as a
memoized assertion, hypothesis strategies, seeded random elements, a
context that sets the int digit limit, a literal transcription of the
paper's five-pass drawing, and a word-rewriting oracle for
Temperley-Lieb monomial products.

The rewriter is deliberately independent of the diagram machinery: it works
on raw generator words with the three presentation relations and identifies
the resulting reduced word through the permutation realization.  It is only
practical for small ranks, which is all the tests need.
"""

from __future__ import annotations

import contextlib
import copy
import random
import sys
from collections import deque
from functools import lru_cache

from hypothesis import strategies as st

from fcdiag import (
    BijectionTrace,
    Diagram,
    FCElement,
    dplus_condition,
    enumerate_diagrams,
    enumerate_fc,
    permutation_of_word,
)
from fcdiag.verify import CATALOGUE


@lru_cache(maxsize=None)
def fc_list(rank: int) -> tuple[FCElement, ...]:
    return tuple(enumerate_fc(rank))


@lru_cache(maxsize=None)
def diagram_list(strings: int) -> tuple:
    return tuple(enumerate_diagrams(strings))


@lru_cache(maxsize=None)
def fc_by_permutation(rank: int) -> dict[tuple[int, ...], FCElement]:
    return {w.to_permutation(): w for w in fc_list(rank)}


@lru_cache(maxsize=None)
def _verdict(check: str, n: int) -> str | None:
    return CATALOGUE[check].counterexample([n])


def assert_holds(check: str, ranks) -> None:
    """Assert that catalogue check ``suite.name`` holds at a rank or ranks.

    Each (check, rank) verdict is evaluated once per pytest session and
    shared by every test that asks for it: the first counterexample
    message, or None.  Only verdicts are cached, never enumerations.  They
    are taken on the unpatched library, so a test that monkeypatches the
    library must run checks through ``cli.main`` instead, as the
    fault-injection tests do.
    """
    for n in [ranks] if isinstance(ranks, int) else ranks:
        bad = _verdict(check, n)
        assert bad is None, f"{check}: {bad}"


@contextlib.contextmanager
def digit_limit(limit: int):
    """Run with the interpreter's int digit limit at ``limit`` (Python 3.11+),
    and put the process's limit back after."""
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


def assert_diagram_revalidates(d: Diagram) -> None:
    """The validating constructor accepts a diagram built without it, unchanged."""
    assert type(d.partner) is tuple and all(type(q) is int for q in d.partner)
    rebuilt = Diagram(d.strings, d.partner)
    assert rebuilt == d and hash(rebuilt) == hash(d)


# ----------------------------------------------------------------------
# hypothesis strategies


@st.composite
def fc_elements(draw, max_rank: int = 12) -> FCElement:
    """Random valid canonical forms, built block by block from the top."""
    n = draw(st.integers(min_value=0, max_value=max_rank))
    pairs: list[tuple[int, int]] = []
    prev_i = prev_j = n + 1
    while min(prev_i, prev_j) > 1 and draw(st.booleans()):
        i = draw(st.integers(min_value=1, max_value=min(prev_i, prev_j) - 1))
        j = draw(st.integers(min_value=i, max_value=prev_j - 1))
        pairs.append((i, j))
        prev_i, prev_j = i, j
    return FCElement(n, tuple(pairs))


@st.composite
def generator_words(draw, max_rank: int, max_length: int) -> tuple[int, tuple[int, ...]]:
    """A rank >= 1 and a random, possibly non-reduced, word in its generators."""
    rank = draw(st.integers(min_value=1, max_value=max_rank))
    word = draw(st.lists(st.integers(min_value=1, max_value=rank), max_size=max_length))
    return rank, tuple(word)


# Values a JSON reader may meet where it wants an integer: bools, floats
# (integral ones too), digit strings, null, containers, and integers of any
# size or sign.
JSON_JUNK = st.one_of(
    st.booleans(),
    st.floats(),
    st.integers(min_value=-3, max_value=12).map(float),
    st.integers(min_value=-3, max_value=12).map(str),
    st.none(),
    st.integers(min_value=-3, max_value=12),
    st.integers(min_value=-(10**30), max_value=10**30),
    st.lists(st.integers(min_value=-3, max_value=12), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(min_value=-3, max_value=12), max_size=2),
)


def _json_slots(value):
    """Every (container, key) pair inside ``value``, a nest of dicts and lists."""
    if isinstance(value, dict):
        items = list(value.items())
    elif isinstance(value, list):
        items = list(enumerate(value))
    else:
        items = []
    for key, child in items:
        yield value, key
        yield from _json_slots(child)


@st.composite
def mutated_json(draw, obj):
    """A copy of the JSON object ``obj`` in which one to three values are
    deleted, replaced by ``JSON_JUNK``, or, if integers, disguised as
    values that ``int()`` reads back as near them (a float, a digit string,
    True); or ``JSON_JUNK`` itself."""
    if draw(st.integers(min_value=0, max_value=9)) == 0:
        return draw(JSON_JUNK)
    obj = copy.deepcopy(obj)
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        slots = list(_json_slots(obj))
        if not slots:
            break
        container, key = draw(st.sampled_from(slots))
        value = container[key]
        how = draw(st.sampled_from(["delete", "junk", "disguise"]))
        if how == "delete":
            del container[key]
        elif how == "disguise" and isinstance(value, int):
            container[key] = draw(st.sampled_from([float(value), str(value), True, value + 0.7]))
        else:
            container[key] = draw(JSON_JUNK)
    return obj


def random_fc(rank: int, rng: random.Random) -> FCElement:
    """A uniformly random FC element of the given rank, by the cycle lemma.

    A shuffled sequence of rank+2 up-steps and rank+1 down-steps has one
    rotation whose prefix sums stay positive; without its first step it is
    a uniform Dyck path of semilength rank+1, and its valleys, after x
    up-steps and y down-steps, are the blocks [y, x], last block first.
    """
    steps = [1] * (rank + 2) + [-1] * (rank + 1)
    rng.shuffle(steps)
    height = low = cut = 0
    for position, step in enumerate(steps[:-1], start=1):
        height += step
        if height <= low:
            low, cut = height, position
    path = (steps[cut:] + steps[:cut])[1:]
    x = y = 0
    blocks = []
    for step, following in zip(path, path[1:]):
        if step == 1:
            x += 1
        else:
            y += 1
            if following == 1:
                blocks.append((y, x))
    return FCElement(rank, tuple(reversed(blocks)))


def staircase(n: int) -> FCElement:
    """Blocks [n/2, n-1], [n/2-1, n-3], ..., [1, 1]: length n/2 (n/2+1) / 2."""
    half = n // 2
    return FCElement(n, tuple((half + 1 - t, n + 1 - 2 * t) for t in range(1, half + 1)))


# ----------------------------------------------------------------------
# the five-pass drawing, literally


def fc_to_diagram_literal(w: FCElement) -> tuple[Diagram, BijectionTrace]:
    """Oracle for ``fc_to_diagram``: the five passes as the paper states them.

    Pass (b) tries every earlier block t < s, nearest first, through
    ``dplus_condition``, and passes (c) and (d) build each candidate set
    from its whole range, so this costs time quadratic in the size and
    more.  It must return the same diagram and the same trace.
    """
    k = w.rank + 1
    if not w.pairs:
        return Diagram.identity(k), BijectionTrace((), (), ())

    starts = [i for i, _ in w.pairs]
    ends = [j for _, j in w.pairs]
    p = len(w.pairs)

    partner = [-1] * (2 * k)

    def top(i: int) -> int:
        return i - 1

    def bottom(i: int) -> int:
        return k + i - 1

    def join(a: int, b: int) -> None:
        partner[a], partner[b] = b, a

    def free(d: int) -> bool:
        return partner[d] == -1

    # (a) outer verticals
    for u in range(1, starts[-1]):
        join(top(u), bottom(u))
    for u in range(ends[0] + 2, k + 1):
        join(top(u), bottom(u))

    # (b) positive arrows, nearest eligible earlier block first
    positive_pairs: list[tuple[int, int]] = []
    for s in range(2, p + 1):
        for t in range(s - 1, 0, -1):
            if free(bottom(ends[t - 1] + 1)) and dplus_condition(w, s, t):
                join(top(starts[s - 1]), bottom(ends[t - 1] + 1))
                positive_pairs.append((s, t))
                break

    positive_tails = {starts[s - 1] for s, _ in positive_pairs}
    positive_heads = {ends[t - 1] + 1 for _, t in positive_pairs}
    top_sets: list[tuple[frozenset[int], int | None]] = [(frozenset(), None)] * p
    bottom_sets = top_sets.copy()

    # (c) top arcs, first start first; each takes the lowest candidate
    taken: set[int] = set()
    for r in range(p):
        i_r = starts[r]
        if i_r in positive_tails:
            continue
        cands = frozenset(range(i_r + 1, ends[0] + 2)).difference(starts[:r], taken)
        f_r = min(cands)
        taken.add(f_r)
        join(top(i_r), top(f_r))
        top_sets[r] = (cands, f_r)

    # (d) bottom arcs, last end first; each takes the highest candidate
    taken.clear()
    for r in range(p - 1, -1, -1):
        j_r = ends[r]
        if j_r + 1 in positive_heads:
            continue
        cands = frozenset(range(starts[-1], j_r + 1)).difference(
            [j + 1 for j in ends[r + 1 :]], taken
        )
        g_r = max(cands)
        taken.add(g_r)
        join(bottom(g_r), bottom(j_r + 1))
        bottom_sets[r] = (cands, g_r)

    # (e) leftover strands, leftmost to leftmost
    free_top = [x for x in range(1, k + 1) if free(top(x))]
    free_bottom = [x for x in range(1, k + 1) if free(bottom(x))]
    for a, b in zip(free_top, free_bottom, strict=True):
        join(top(a), bottom(b))

    trace = BijectionTrace(tuple(positive_pairs), tuple(top_sets), tuple(bottom_sets))
    return Diagram(k, tuple(partner)), trace


# ----------------------------------------------------------------------
# word-rewriting oracle


def _one_reduction(word: tuple[int, ...]) -> tuple[int, tuple[int, ...]] | None:
    """Search the commutation class of the word for a shortening move.

    Returns (delta_exponent_gained, shorter_word) for the first word found
    containing an adjacent square e_a e_a or a sandwich e_a e_b e_a with
    |a-b| = 1, or None when the word is reduced.
    """
    seen = {word}
    queue = deque([word])
    while queue:
        u = queue.popleft()
        for a in range(len(u) - 1):
            if u[a] == u[a + 1]:
                return 1, u[:a] + u[a + 1 :]
        for a in range(len(u) - 2):
            if u[a] == u[a + 2] and abs(u[a] - u[a + 1]) == 1:
                return 0, u[: a + 1] + u[a + 3 :]
        for a in range(len(u) - 1):
            if abs(u[a] - u[a + 1]) > 1:
                v = u[:a] + (u[a + 1], u[a]) + u[a + 2 :]
                if v not in seen:
                    seen.add(v)
                    queue.append(v)
    return None


def rewrite_word(rank: int, word: tuple[int, ...]) -> tuple[FCElement, int]:
    """Reduce a generator word to (canonical element, delta exponent)."""
    exponent = 0
    current = tuple(word)
    while True:
        step = _one_reduction(current)
        if step is None:
            break
        gained, current = step
        exponent += gained
    element = fc_by_permutation(rank)[permutation_of_word(rank, current)]
    assert element.length() == len(current)
    return element, exponent
