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

The rank, size and text-form number rules are stated in ``errors``.

:func:`parse_fc` stops parsing a text once it has read it twice.  A
process-wide memo notes every ``str`` text it reads, and holds the
element a text names from the second read of that text on; a text read
once is never held, so input that does not repeat keeps no element alive.
A held text returns the element already built, so callers share one
immutable, validated object, and a refused text is never noted.

A held element costs its text and its blocks, and once it has been the
left factor of a product also the partner array of its drawing, 2(n+1)
entries at rank n, which :func:`~fcdiag.tl.monomial_product` keeps on
it.  So the memo charges each text it notes its characters plus those
2(n+1) entries, and is bounded by that charge (``_MEMO_CHARS``, 2^18;
all 4862 texts of rank 8 take 204 206, of which 116 690 characters).  A
text that would take it past its bound empties it first, and a text
charged more than the bound is parsed but not noted: near rank 10^5 one
identity text is held at a time.  The elements held share their block
tuples.
"""

from __future__ import annotations

import enum
import re
import threading
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .errors import (
    MAX_DIGITS,
    IdentityHasNoDescentsError,
    IndexOutOfRangeError,
    NotStandardError,
    NotThickError,
    ParseError,
    check_rank,
    check_size,
    check_text,
    read_decimal,
    shown,
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
    kept for block lists that are canonical by construction: those that
    ``bijection.block_pairs`` reads off a diagram and those that
    :func:`enumerate_fc` walks.
    """

    rank: int
    pairs: tuple[Pair, ...] = ()
    # The partner array drawn by the canonical word, a tuple kept by
    # ``tl.monomial_product`` the first time the element is a left factor.
    # It is no field, so it is not compared, hashed, printed or pickled.
    _drawing = None

    def __post_init__(self) -> None:
        n = self.rank
        check_rank(n)
        pairs = self.pairs
        if type(pairs) is not tuple:
            try:
                pairs = tuple([tuple(pair) for pair in pairs])
            except TypeError:
                raise NotStandardError(
                    "blocks must be an iterable of blocks, each an iterable of two ints"
                ) from None
            object.__setattr__(self, "pairs", pairs)
        prev_i = prev_j = n + 1
        for t, pair in enumerate(pairs, start=1):  # one pass: each parse_fc memo miss runs it
            try:  # zero-cost from Python 3.11; a misshapen block falls to the check below
                i, j = pair
            except (TypeError, ValueError):
                i = j = None
            if type(pair) is not tuple or type(i) is not int or type(j) is not int:
                raise NotStandardError(f"block {t}: need a tuple of two ints, got {shown(pair)!r}")
            if not 1 <= i <= j <= n:
                raise NotStandardError(
                    f"block {t}: need 1 <= i <= j <= {n}, got [{shown(i)},{shown(j)}]"
                )
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
        """An element built without validation, for block lists that are
        canonical by construction only: ``block_pairs`` output and the
        chains ``enumerate_fc`` walks.

        ``block_pairs`` pairs the starts and ends of a non-crossing matching;
        ``enumerate_fc`` checks the rank first, then walks strictly
        decreasing start and end sequences with 1 <= i <= j <= rank.  Both
        give canonical block lists of int pairs.  The tests run the
        validating constructor on every ``block_pairs`` result up to rank 8
        and on random words, and on every enumerated element of every size
        up to rank 10.
        """
        self = object.__new__(cls)
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "pairs", pairs)
        return self

    def __getstate__(self) -> dict:
        """The fields alone, so that a copy or a pickle leaves out the
        drawing that a product keeps."""
        return {"rank": self.rank, "pairs": self.pairs}

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
    long chain never meets the interpreter's recursion limit.  Every chain
    the walk reaches is canonical, so its elements are built unchecked;
    the rank is refused first by ``errors.check_rank``, as the constructor
    refuses it, and a size by ``errors.check_size``.  A negative size, or
    one above the rank, takes no branch and yields nothing.
    """
    check_rank(rank)
    if size is not None:
        check_size(size)

    def lowest(depth: int) -> int:
        """Smallest start for a block after ``depth`` others."""
        return 1 if size is None else size - depth

    blocks: list[Pair] = []
    while True:
        if size is None or len(blocks) == size:
            yield FCElement._trusted(rank, tuple(blocks))
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

    An empty window (lo > hi) is vacuously saturated.  One sweep by start:
    once a block starts above ``need``, the lowest index not yet covered,
    so does every later one.
    """
    need = lo
    for i, j in sorted(blocks):
        if need > hi or i > need:
            break
        need = max(need, j + 1)
    return need > hi


# ----------------------------------------------------------------------
# text and JSON input

_HEAD_RE = re.compile(r"^n=(\d+):(.*)$", re.ASCII)
_BLOCK_RE = re.compile(r"\[(\d+),(\d+)\]", re.ASCII)
# A block list whose numbers have at most MAX_DIGITS digits, and the same
# with numbers of any length: a body that only the second takes holds a
# number too long, not junk.
_BODY_RE = re.compile(rf"(?:\[\d{{1,{MAX_DIGITS}}},\d{{1,{MAX_DIGITS}}}\])*", re.ASCII)
_LONG_BODY_RE = re.compile(r"(?:\[\d+,\d+\])*", re.ASCII)

# The memo of parse_fc (see the module docstring): text -> the element
# held, or None for a text read once; the charge of the texts noted; and
# the block tuples that the elements held share.  A bound on the number
# of texts would not do: one text of rank 10^5 is 641 kB, and the
# drawing of any element of that rank 200 002 entries.
_MEMO_CHARS = 1 << 18
_memo: dict[str, FCElement | None] = {}
_memo_chars = 0
_blocks: dict[Pair, Pair] = {}
_memo_lock = threading.Lock()


def parse_fc(text: str) -> FCElement:
    """Parse the text form ``n=5:[4,5][3,3][1,1]`` (identity: ``n=5:[]``).

    Each number is a run of at most :data:`MAX_DIGITS` ASCII digits.

    A process-wide memo, of a charge of at most ``_MEMO_CHARS`` (2^18)
    characters and drawing entries, notes each ``str`` text read and
    holds its element from the second read on: from then on the text
    returns the element already built, the same immutable object to every
    caller.  A refused text is never noted; it is parsed and refused
    again.  A text that is not a ``str`` is refused with
    :class:`ParseError`, and an instance of a ``str`` subclass is parsed
    but never noted.
    """
    if type(text) is not str:
        check_text(text, "an FC element text form")
        return _parse_fc(text)
    w = _memo.get(text)
    if w is None:
        w = _parse_fc(text)
        # the text, and the drawing a product may keep on its element
        charge = len(text) + 2 * (w.rank + 1)
        if charge <= _MEMO_CHARS:
            w = _note(text, w, charge)
    return w


def _parse_fc(text: str) -> FCElement:
    m = _HEAD_RE.match(text.strip())
    if not m:
        raise ParseError(f"not an FC element text form: {text!r}")
    rank = read_decimal(m.group(1))
    body = m.group(2)
    if body == "[]":
        return FCElement(rank)
    if not _BODY_RE.fullmatch(body):
        if _LONG_BODY_RE.fullmatch(body):  # refuse the first long number
            for pair in _BLOCK_RE.findall(body):
                for digits in pair:
                    read_decimal(digits)
        raise ParseError(f"trailing junk in FC element text form: {text!r}")
    pairs = tuple([(int(i), int(j)) for i, j in _BLOCK_RE.findall(body)])
    if not pairs:
        raise ParseError(f"missing block list in FC element text form: {text!r}")
    return FCElement(rank, pairs)


def _note(text: str, w: FCElement, charge: int) -> FCElement:
    """Note ``text``, just parsed to ``w``, at ``charge``, and return the
    element to give for it: ``w``, or the one another thread held first.

    A text read before has ``w`` held.  Holding only repeated texts keeps
    a stream of distinct texts from keeping every element alive until the
    memo is emptied, which slowed products of distinct rank-200 elements
    by about 8 % (2-vCPU Xeon, Python 3.11).  A new text that would take
    the memo past its bound empties it first.  No caller has seen ``w``
    yet, so its block tuples can still be swapped for the equal ones that
    the elements held already use.
    """
    global _memo_chars
    with _memo_lock:
        if text in _memo:
            held = _memo[text]
            if held is not None:
                return held
            share = _blocks.setdefault
            object.__setattr__(w, "pairs", tuple([share(pair, pair) for pair in w.pairs]))
            _memo[text] = w
            return w
        if _memo_chars + charge > _MEMO_CHARS:
            _memo.clear()
            _blocks.clear()
            _memo_chars = 0
        _memo[text] = None
        _memo_chars += charge
    return w


def fc_from_json(obj: dict) -> FCElement:
    """Inverse of :meth:`FCElement.to_json`.

    ``pairs`` and every pair must be JSON lists, and the rank and every
    block index JSON integers: a bool, a float or a digit string is
    refused, not converted, and so is any other iterable.
    """
    try:
        rank, pairs = obj["n"], obj["pairs"]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"not an FC element JSON object: {shown(obj)!r}") from exc
    if type(pairs) is not list or not all(type(pair) is list and len(pair) == 2 for pair in pairs):
        raise ParseError(f"not an FC element JSON object: {shown(obj)!r}")
    if any(type(v) is not int for v in (rank, *(v for pair in pairs for v in pair))):
        raise ParseError(f"not an FC element JSON object: {shown(obj)!r}")
    return FCElement(rank, pairs)


# ----------------------------------------------------------------------
# permutation oracle helpers
#
# Permutations are tuples in one-line notation over {1..m}.  These functions
# are the independent re-implementation used to cross-check the block
# calculus; they know nothing about canonical forms.


def permutation_of_word(rank: int, word: Sequence[int]) -> tuple[int, ...]:
    """Multiply out a word of adjacent transpositions, left to right,
    refusing a rank by the rank rule and a letter not an int in 1..rank."""
    check_rank(rank)
    images = list(range(1, rank + 2))
    for k in word:
        if type(k) is not int or not 0 < k <= rank:
            raise IndexOutOfRangeError(f"rank {rank} has no generator {shown(k)!r}")
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
    """No indices a < b < c with images[a] > images[b] > images[c].

    One pass, for any sequence of ints.  ``top`` is the largest value so
    far, and ``low`` the largest value so far that came strictly below the
    ``top`` of its time, that is the largest middle of a 21 pattern.  A
    value strictly below ``low`` ends a 321; any other value either raises
    ``top`` or, below it, may raise ``low``.  Equal values are never
    strictly ordered, so ties form no pattern.
    """
    top = low = float("-inf")
    for v in images:
        if v >= top:
            top = v
        elif v < low:
            return False
        elif v > low:
            low = v
    return True
