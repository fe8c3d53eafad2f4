"""
Fully commutative elements of the type-A Coxeter group, in canonical form.

The Coxeter group W(A_n) is the symmetric group on n+1 points, generated by
the adjacent transpositions s_1, ..., s_n.  An element is *fully commutative*
(FC) when any of its reduced words can be turned into any other using only
the commutations s_a s_b = s_b s_a with |a - b| > 1.  Every FC element has a
unique canonical reduced word that factors into ascending runs

    [i, j] = s_i s_{i+1} ... s_j        (1 <= i <= j <= n)

chained as [i_1, j_1][i_2, j_2]...[i_p, j_p] where both index sequences are
strictly decreasing: i_1 > i_2 > ... > i_p and j_1 > j_2 > ... > j_p.  An
:class:`FCElement` stores exactly this block list and nothing else.  The
number p of blocks is the *size* of the element; the identity is the empty
block list.  There are Catalan-many (C_{n+1}) FC elements of rank n.

A cheap independent oracle comes from realizing the canonical word as a
permutation of {1, ..., n+1} (:meth:`FCElement.to_permutation`): the length
must equal the inversion count, the descent formulas must agree with the
inversion tests, and the image set is exactly the 321-avoiding permutations.
The helpers at the bottom of this module (`inversions`, `is_321_avoiding`,
...) exist for that purpose and are deliberately independent of the block
calculus.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .errors import (
    IdentityHasNoDescentsError,
    NotStandardError,
    NotThickError,
    ParseError,
    RankOutOfRangeError,
)

Pair = tuple[int, int]


class Classification(enum.Enum):
    """Coarse shape of an FC element."""

    IDENTITY = "identity"
    THICK = "thick"  # every block is a genuine run, j > i
    SLIM = "slim"  # at least one block is a single generator


@dataclass(frozen=True)
class FCElement:
    """An FC element of W(A_rank), stored as its canonical block list.

    Constructing the object validates the canonical-form inequalities, so
    every live instance is known to be well formed; the rank and indices
    must be ints, not bools, and blocks not given as a tuple are stored as
    a tuple of tuples.  Values are immutable and hashable; all methods are
    pure.  The one way round validation is a private unchecked constructor,
    kept for block lists that ``bijection.block_pairs`` reads off a diagram
    and that are canonical by construction.
    """

    rank: int
    pairs: tuple[Pair, ...] = ()

    def __post_init__(self) -> None:
        n = self.rank
        if type(n) is not int or n < 0:
            raise RankOutOfRangeError(f"rank must be a nonnegative integer, got {n!r}")
        pairs = self.pairs
        if type(pairs) is not tuple:
            pairs = tuple([tuple(pair) for pair in pairs])
            object.__setattr__(self, "pairs", pairs)
        prev_i = prev_j = n + 1
        for t, pair in enumerate(pairs, start=1):  # one pass, as parse_fc is on the hot path
            i, j = pair
            if type(pair) is not tuple or type(i) is not int or type(j) is not int:
                raise NotStandardError(f"block {t}: need a tuple of two ints, got {pair!r}")
            if not 1 <= i <= j <= n:
                raise NotStandardError(f"block {t}: need 1 <= i <= j <= {n}, got [{i},{j}]")
            if i >= prev_i:
                raise NotStandardError(
                    f"block {t}: start indices must strictly decrease, {i} follows {prev_i}"
                )
            if j >= prev_j:
                raise NotStandardError(
                    f"block {t}: end indices must strictly decrease, {j} follows {prev_j}"
                )
            prev_i, prev_j = i, j

    @classmethod
    def _trusted(cls, rank: int, pairs: tuple[Pair, ...]) -> FCElement:
        """An element built without validation, for ``block_pairs`` output only.

        ``block_pairs`` pairs the starts and ends of a non-crossing matching,
        which always form a canonical block list of int pairs; the tests run
        the validating constructor on every such result up to rank 8 and on
        random words.
        """
        self = object.__new__(cls)
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "pairs", pairs)
        return self

    # ------------------------------------------------------------------
    # basic statistics

    @property
    def size(self) -> int:
        """Number of blocks."""
        return len(self.pairs)

    def is_identity(self) -> bool:
        return not self.pairs

    def word(self) -> tuple[int, ...]:
        """The canonical reduced word as a sequence of generator indices."""
        out: list[int] = []
        for i, j in self.pairs:
            out.extend(range(i, j + 1))
        return tuple(out)

    def length(self) -> int:
        """Coxeter length, the sum of the block lengths."""
        return sum(j - i + 1 for i, j in self.pairs)

    def support(self) -> frozenset[int]:
        """Set of generator indices appearing in the canonical word."""
        out: set[int] = set()
        for i, j in self.pairs:
            out.update(range(i, j + 1))
        return frozenset(out)

    def classify(self) -> Classification:
        if not self.pairs:
            return Classification.IDENTITY
        if all(j > i for i, j in self.pairs):
            return Classification.THICK
        return Classification.SLIM

    # ------------------------------------------------------------------
    # structural maps

    def shrink(self) -> FCElement:
        """Thick elements of rank n map to nonidentity elements of rank n-1.

        Each block end drops by one.  This is a size-preserving bijection
        that shortens the length by exactly the size; :meth:`grow` is its
        inverse.
        """
        if self.classify() is not Classification.THICK:
            raise NotThickError(f"shrink needs a thick element, got {self}")
        return FCElement(self.rank - 1, tuple((i, j - 1) for i, j in self.pairs))

    def grow(self) -> FCElement:
        """Inverse of :meth:`shrink`: raise every block end by one."""
        if not self.pairs:
            raise NotThickError("grow is undefined for the identity")
        return FCElement(self.rank + 1, tuple((i, j + 1) for i, j in self.pairs))

    def dual(self) -> FCElement:
        """The size-reversing involution.

        The new start set is the complement of the old end set in {1..n} and
        vice versa, both read in decreasing order.  Sizes p and n-p swap and
        lengths satisfy len(w) - len(dual(w)) = 2p - n.
        """
        n = self.rank
        starts = {i for i, _ in self.pairs}
        ends = {j for _, j in self.pairs}
        new_i = [x for x in range(n, 0, -1) if x not in ends]
        new_j = [x for x in range(n, 0, -1) if x not in starts]
        return FCElement(n, tuple(zip(new_i, new_j)))

    def delta_involution(self) -> FCElement:
        """Reverse the word and reflect indices through i -> n+1-i.

        On blocks this reads: reverse the block order and map each [i, j] to
        [n+1-j, n+1-i].  The closed form was derived here and is validated
        exhaustively against the permutation oracle; it is an involution and
        carries left descents to reflected right descents.
        """
        n = self.rank
        return FCElement(n, tuple((n + 1 - j, n + 1 - i) for i, j in reversed(self.pairs)))

    # ------------------------------------------------------------------
    # descents

    def left_descents(self) -> frozenset[int]:
        """Generators s with len(s*w) < len(w), from the block starts.

        These are i_1 together with every later start that drops by at
        least 2 from its predecessor.
        """
        if not self.pairs:
            raise IdentityHasNoDescentsError("the identity has no left descents")
        starts = [i for i, _ in self.pairs]
        out = {starts[0]}
        out.update(starts[k] for k in range(1, len(starts)) if starts[k] < starts[k - 1] - 1)
        return frozenset(out)

    def right_descents(self) -> frozenset[int]:
        """Generators s with len(w*s) < len(w), from the block ends."""
        if not self.pairs:
            raise IdentityHasNoDescentsError("the identity has no right descents")
        ends = [j for _, j in self.pairs]
        out = {ends[-1]}
        out.update(ends[k] for k in range(len(ends) - 1) if ends[k] > ends[k + 1] + 1)
        return frozenset(out)

    # ------------------------------------------------------------------
    # oracle and serialization

    def to_permutation(self) -> tuple[int, ...]:
        """One-line notation of the permutation realized by the word."""
        return permutation_of_word(self.rank, self.word())

    def to_text(self) -> str:
        if not self.pairs:
            return f"n={self.rank}:[]"
        return f"n={self.rank}:" + "".join(f"[{i},{j}]" for i, j in self.pairs)

    def to_json(self) -> dict:
        return {"n": self.rank, "pairs": [[i, j] for i, j in self.pairs]}

    def __str__(self) -> str:
        return self.to_text()


# ----------------------------------------------------------------------
# enumeration and saturation


def enumerate_fc(rank: int, size: int | None = None) -> Iterator[FCElement]:
    """Yield every FC element of the given rank exactly once.

    Walks the tree of strictly decreasing start/end sequences in depth-first
    order, so the output order is deterministic: the identity first, then
    elements grouped under their leading blocks with starts and ends taken
    in decreasing order.  The count is the Catalan number C_{rank+1}.

    With ``size``, only the elements of exactly that many blocks are yielded,
    in the same order; there are ``narayana(rank, size)`` of them.  The walk
    stops descending at ``size`` blocks, and tries a start i only when the
    i-1 starts below it leave room for the blocks still missing, so every
    branch it takes ends in an element.  The walk keeps its own stack, so a
    long chain never meets the interpreter's recursion limit.
    """
    if rank < 0:
        raise RankOutOfRangeError(f"rank must be nonnegative, got {rank}")
    if size is not None and size < 0:
        return

    def lowest(depth: int) -> int:
        """Smallest start for a block after ``depth`` others."""
        return 1 if size is None else size - depth

    blocks: list[Pair] = []
    while True:
        if size is None or len(blocks) == size:
            yield FCElement(rank, tuple(blocks))
        # The next chain in depth-first order is the first child, if any ...
        top_i, top_j = blocks[-1] if blocks else (rank + 1, rank + 1)
        if (size is None or len(blocks) < size) and top_i > lowest(len(blocks)):
            blocks.append((top_i - 1, top_j - 1))
            continue
        # ... or else the next sibling of the deepest block that has one.
        while blocks:
            i, j = blocks.pop()
            if j > i:
                blocks.append((i, j - 1))
                break
            if i > lowest(len(blocks)):
                parent_j = blocks[-1][1] if blocks else rank + 1
                blocks.append((i - 1, parent_j - 1))
                break
        else:
            return


def is_saturated_in(blocks: Iterable[Pair], lo: int, hi: int) -> bool:
    """True when the blocks cover every generator index in [lo, hi].

    An empty window (lo > hi) is vacuously saturated.
    """
    if lo > hi:
        return True
    covered = [False] * (hi - lo + 1)
    for i, j in blocks:
        for h in range(max(i, lo), min(j, hi) + 1):
            covered[h - lo] = True
    return all(covered)


# ----------------------------------------------------------------------
# text and JSON input

_HEAD_RE = re.compile(r"^n=(\d+):(.*)$")
_BLOCK_RE = re.compile(r"\[(\d+),(\d+)\]")
_BODY_RE = re.compile(r"(?:\[\d+,\d+\])*")


def parse_fc(text: str) -> FCElement:
    """Parse the text form ``n=5:[4,5][3,3][1,1]`` (identity: ``n=5:[]``)."""
    m = _HEAD_RE.match(text.strip())
    if not m:
        raise ParseError(f"not an FC element text form: {text!r}")
    rank = int(m.group(1))
    body = m.group(2)
    if body == "[]":
        return FCElement(rank)
    if not _BODY_RE.fullmatch(body):
        raise ParseError(f"trailing junk in FC element text form: {text!r}")
    pairs = tuple([(int(i), int(j)) for i, j in _BLOCK_RE.findall(body)])
    if not pairs:
        raise ParseError(f"missing block list in FC element text form: {text!r}")
    return FCElement(rank, pairs)


def fc_from_json(obj: dict) -> FCElement:
    """Inverse of :meth:`FCElement.to_json`.

    ``pairs`` and every pair must be JSON lists, and the rank and every
    block index JSON integers: a bool, a float or a digit string is
    refused, not converted, and so is any other iterable.
    """
    try:
        rank, pairs = obj["n"], obj["pairs"]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"not an FC element JSON object: {obj!r}") from exc
    if type(pairs) is not list or not all(type(pair) is list and len(pair) == 2 for pair in pairs):
        raise ParseError(f"not an FC element JSON object: {obj!r}")
    if any(type(v) is not int for v in (rank, *(v for pair in pairs for v in pair))):
        raise ParseError(f"not an FC element JSON object: {obj!r}")
    return FCElement(rank, pairs)


# ----------------------------------------------------------------------
# permutation oracle helpers
#
# Permutations are tuples in one-line notation over {1..m}.  These functions
# are the independent re-implementation used to cross-check the block
# calculus; they know nothing about canonical forms.


def permutation_of_word(rank: int, word: Sequence[int]) -> tuple[int, ...]:
    """Multiply out a word of adjacent transpositions, left to right."""
    images = list(range(1, rank + 2))
    for k in word:
        images[k - 1], images[k] = images[k], images[k - 1]
    return tuple(images)


def inversions(images: Sequence[int]) -> int:
    m = len(images)
    return sum(1 for a in range(m) for b in range(a + 1, m) if images[a] > images[b])


def perm_right_descents(images: Sequence[int]) -> frozenset[int]:
    """Indices s with images[s] > images[s+1] (1-based)."""
    return frozenset(s for s in range(1, len(images)) if images[s - 1] > images[s])


def perm_left_descents(images: Sequence[int]) -> frozenset[int]:
    """Indices s such that the value s occurs to the right of s+1."""
    position = {v: idx for idx, v in enumerate(images)}
    return frozenset(s for s in range(1, len(images)) if position[s] > position[s + 1])


def is_321_avoiding(images: Sequence[int]) -> bool:
    """No indices a < b < c with images[a] > images[b] > images[c]."""
    m = len(images)
    suffix_min = [0] * m + [m + 2]
    for idx in range(m - 1, -1, -1):
        suffix_min[idx] = min(images[idx], suffix_min[idx + 1])
    prefix_max = 0
    for b in range(m):
        if prefix_max > images[b] > suffix_min[b + 1]:
            return False
        if images[b] > prefix_max:
            prefix_max = images[b]
    return True
