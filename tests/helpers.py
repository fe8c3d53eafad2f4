"""Shared test utilities: cached enumerations, the verify catalogue as an
assertion, hypothesis strategies, and a word-rewriting oracle for
Temperley-Lieb monomial products.

The rewriter is deliberately independent of the diagram machinery: it works
on raw generator words with the three presentation relations and identifies
the resulting reduced word through the permutation realization.  It is only
practical for small ranks, which is all the tests need.
"""

from __future__ import annotations

from collections import deque
from functools import lru_cache

from hypothesis import strategies as st

from fcdiag import FCElement, enumerate_diagrams, enumerate_fc, permutation_of_word
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


def assert_holds(check: str, ranks) -> None:
    """Assert that catalogue check ``suite.name`` holds at a rank or ranks."""
    ranks = [ranks] if isinstance(ranks, int) else ranks
    bad = CATALOGUE[check].counterexample(ranks)
    assert bad is None, f"{check}: {bad}"


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
