"""
Non-crossing diagrams on two rows of dots, the basis of the Temperley-Lieb
algebra of type A.

A diagram on k strings is a perfect matching of 2k dots, k on a top row
(numbered 1..k left to right) and k on a bottom row (numbered 1'..k'), that
can be drawn inside the rectangle without intersections.  Dots are totally
ordered by 1 < 2 < ... < k < 1' < 2' < ... < k'; an arrow is a matched pair
written (tail, head) with tail < head in that order.

Internally a dot is an integer code in [0, 2k): top i is i-1 and bottom i'
is k+i-1, so integer order on codes equals the total dot order.  The
matching is a flat involution ``partner`` (code -> code), which makes
partner lookup O(1); the set-of-arrows view is derived.

Planarity is *not* the bracket condition in the total order.  It is checked
on the boundary walk of the rectangle, top row left to right and then
bottom row right to left; on that circular order the matching must nest
like balanced brackets.

Products of generators are built by one kernel, :func:`run_action`, which
glues one cup-cap generator at a time below a partner array in place: four
writes per letter, or one closed circle.  It takes the word as ascending
runs [i, j] = e_i e_{i+1} ... e_j, so the block list of an FC element is
its input as it stands.  This kernel is the hot path of every product and
every trace-free drawing.  It returns the bare partner list and checks
nothing.  A raw generator word enters it only through
:meth:`Diagram.from_word`, which checks the indices, feeds the word one
letter per run, and validates the result as a :class:`Diagram`.

Concatenation stacks one diagram on top of another, traces the composite
strands through the glued middle row, and deletes closed circles, returning
their count.  Each deleted circle contributes one factor of the loop
parameter in the algebra.  It is kept as the independent oracle for the
kernel.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import chain, count
from typing import Iterable, Iterator, NoReturn

from .errors import (
    CrossingError,
    IndexOutOfRangeError,
    NotMatchingError,
    ParseError,
    StringMismatchError,
)

Arrow = tuple[int, int]  # (tail code, head code), tail < head


@dataclass(frozen=True)
class Diagram:
    """A non-crossing perfect matching on two rows of ``strings`` dots.

    Construction validates the matching and its planarity.  Planarity
    implies the parity invariant (same-row arrows join dots of different
    parity, cross-row arrows dots of equal parity): a non-crossing matching
    joins dots an odd distance apart on the boundary walk, so that is not
    checked separately.  ``strings`` and the partners must be ints, not
    bools.  Instances are immutable and hashable.
    """

    strings: int
    partner: tuple[int, ...]

    def __post_init__(self) -> None:
        k = self.strings
        if type(k) is not int or k < 1:
            raise NotMatchingError(f"strings must be a positive integer, got {k!r}")
        partner = tuple(self.partner)
        object.__setattr__(self, "partner", partner)
        m = 2 * k
        if len(partner) != m:
            raise NotMatchingError(f"partner array must have length {m}, got {len(partner)}")

        # One walk along the boundary, which visits the top row left to
        # right and then the bottom row right to left, so the b-th dot
        # visited sits at boundary position b.  Each dot either opens, when
        # its partner lies further along, or closes the last dot still
        # open, which must be its partner and point back at it.  That is a
        # non-crossing perfect matching exactly; anything else is named by
        # _diagnose, given the open dot that a closing dot failed to close.
        last = 3 * k - 1
        stack: list[int] = []
        for b, d in enumerate(chain(range(k), range(m - 1, k - 1, -1))):
            q = partner[d]
            if type(q) is not int or not 0 <= q < m:
                self._diagnose()
            if (q if q < k else last - q) > b:
                stack.append(d)
            elif not stack:
                self._diagnose()
            elif (top := stack.pop()) != q or partner[q] != d:
                self._diagnose((top, d))
        if stack:
            self._diagnose()

    def _diagnose(self, pair: tuple[int, int] | None = None) -> NoReturn:
        """Raise the error naming the first fault of an invalid partner array.

        Matching faults come first, in code order: a dot matched to a
        non-int, out of range, to itself, or not back.  An array free of
        them is a perfect matching, and the walk can only have stopped at a
        ``pair`` (top, d): dot d closed while top, an open dot other than
        its partner, lay on top of the stack.  The partner of d opened
        before top and the partner of top comes after d, so their arrows
        cross.
        """
        k = self.strings
        partner = self.partner
        m = 2 * k
        for d, q in enumerate(partner):
            if type(q) is not int:
                raise NotMatchingError(f"dot {self.dot_name(d)} is matched to {q!r}, not an int")
            if not 0 <= q < m:
                raise NotMatchingError(f"dot {self.dot_name(d)} is matched out of range")
            if q == d:
                raise NotMatchingError(f"dot {self.dot_name(d)} is matched to itself")
            if partner[q] != d:
                raise NotMatchingError(
                    f"matching is not an involution at dot {self.dot_name(d)}"
                )
        if pair is None:
            raise NotMatchingError("partner array is not a non-crossing perfect matching")
        first, second = (self._arrow_of(d) for d in pair)
        raise CrossingError(
            f"arrows {self.arrow_name(first)} and {self.arrow_name(second)} cross",
            first,
            second,
        )

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def identity(cls, strings: int) -> Diagram:
        """All strands vertical."""
        if strings < 1:
            raise IndexOutOfRangeError(f"strings must be >= 1, got {strings}")
        partner = tuple(range(strings, 2 * strings)) + tuple(range(strings))
        return cls(strings, partner)

    @classmethod
    def generator(cls, strings: int, i: int) -> Diagram:
        """The cup-cap diagram joining i with i+1 on both rows."""
        if not 1 <= i <= strings - 1:
            raise IndexOutOfRangeError(
                f"generator index must satisfy 1 <= i <= {strings - 1}, got {i}"
            )
        partner = list(range(strings, 2 * strings)) + list(range(strings))
        k = strings
        partner[i - 1], partner[i] = i, i - 1
        partner[k + i - 1], partner[k + i] = k + i, k + i - 1
        return cls(strings, tuple(partner))

    @classmethod
    def from_word(cls, strings: int, word: Iterable[int]) -> tuple[Diagram, int]:
        """The product of the generators along ``word``, and its circle count.

        The indices must be ints in 1..strings-1; :func:`run_action` glues
        the word one letter per run, and the result is validated.
        """
        word = tuple(word)
        for a in word:
            if type(a) is not int or not 1 <= a < strings:
                raise IndexOutOfRangeError(
                    f"generator index must satisfy 1 <= i <= {strings - 1}, got {a}"
                )
        partner, loops = run_action(strings, zip(word, word))
        return cls(strings, tuple(partner)), loops

    @classmethod
    def from_arrows(cls, strings: int, arrows: Iterable[Arrow]) -> Diagram:
        """Build and validate a diagram from dot-code pairs.

        Memory is proportional to the arrows given, not to ``strings``: an
        incomplete matching is rejected before any 2k-entry array exists.
        """
        partner: dict[int, int] = {}
        for x, y in arrows:
            for d in (x, y):
                if not 0 <= d < 2 * strings:
                    raise NotMatchingError(f"dot code {d} out of range for {strings} strings")
                if d in partner:
                    raise NotMatchingError(f"dot {_dot_name(d, strings)} used twice")
            partner[x], partner[y] = y, x
        if len(partner) < 2 * strings:
            unmatched = next(d for d in count() if d not in partner)
            raise NotMatchingError(f"dot {_dot_name(unmatched, strings)} is unmatched")
        return cls(strings, tuple(partner[d] for d in range(2 * strings)))

    # ------------------------------------------------------------------
    # views

    def arrows(self) -> tuple[Arrow, ...]:
        """All arrows as (tail, head) code pairs, sorted by tail."""
        return tuple(
            (d, q) for d, q in enumerate(self.partner) if d < q
        )

    def dot_name(self, code: int) -> str:
        return _dot_name(code, self.strings)

    def arrow_name(self, arrow: Arrow) -> str:
        return f"{self.dot_name(arrow[0])}-{self.dot_name(arrow[1])}"

    def _arrow_of(self, code: int) -> Arrow:
        q = self.partner[code]
        return (code, q) if code < q else (q, code)

    def components(self) -> Components:
        """Split the arrows into the four structural families."""
        k = self.strings
        top_arcs: set[Arrow] = set()
        bottom_arcs: set[Arrow] = set()
        positive: set[Arrow] = set()
        vertical_or_negative: set[Arrow] = set()
        for x, y in self.arrows():
            if y < k:
                top_arcs.add((x, y))
            elif x >= k:
                bottom_arcs.add((x, y))
            elif (y - k) > x:
                positive.add((x, y))
            else:
                vertical_or_negative.add((x, y))
        starts = frozenset(x + 1 for x, _ in top_arcs) | frozenset(x + 1 for x, _ in positive)
        ends = frozenset(y - k for _, y in bottom_arcs) | frozenset(y - k for _, y in positive)
        return Components(
            top_arcs=frozenset(top_arcs),
            bottom_arcs=frozenset(bottom_arcs),
            positive=frozenset(positive),
            vertical_or_negative=frozenset(vertical_or_negative),
            starts=starts,
            ends=ends,
            size=len(top_arcs) + len(positive),
        )

    # ------------------------------------------------------------------
    # symmetries

    def flip_vertical(self) -> Diagram:
        """Swap the two rows; an involution."""
        k = self.strings
        return self._relabel([*range(k, 2 * k), *range(k)])

    def flip_horizontal(self) -> Diagram:
        """Mirror left to right; an involution realizing i -> k-i on generators."""
        k = self.strings
        return self._relabel([*range(k - 1, -1, -1), *range(2 * k - 1, k - 1, -1)])

    def _relabel(self, label: list[int]) -> Diagram:
        """The diagram matching label[d] with label[q] wherever d matches q."""
        partner = [0] * len(label)
        for d, q in enumerate(self.partner):
            partner[label[d]] = label[q]
        return Diagram(self.strings, tuple(partner))

    # ------------------------------------------------------------------
    # serialization

    def to_text(self) -> str:
        body = ",".join(self.arrow_name(a) for a in self.arrows())
        return f"strings={self.strings};{body}"

    def to_json(self) -> dict:
        """Partner-array encoding with 1-based dots, top 1..k then bottom 1..k."""
        return {"strings": self.strings, "partner": [q + 1 for q in self.partner]}

    def __str__(self) -> str:
        return self.to_text()


@dataclass(frozen=True)
class Components:
    """The structural pieces of a diagram.

    ``top_arcs`` and ``bottom_arcs`` are the same-row arrows; ``positive``
    the top-to-bottom arrows heading strictly right of their tail's shadow;
    ``vertical_or_negative`` the remaining cross arrows.  ``starts`` are the
    1-based top indices that tail a rightward arrow and ``ends`` the indices
    j such that bottom dot (j+1)' heads a leftward arrow; read in decreasing
    order these are exactly the block starts and ends of the FC element the
    diagram corresponds to.  ``size`` counts top arcs plus positive arrows.
    """

    top_arcs: frozenset[Arrow]
    bottom_arcs: frozenset[Arrow]
    positive: frozenset[Arrow]
    vertical_or_negative: frozenset[Arrow]
    starts: frozenset[int]
    ends: frozenset[int]
    size: int


def _dot_name(code: int, strings: int) -> str:
    return str(code + 1) if code < strings else f"{code - strings + 1}'"


# ----------------------------------------------------------------------
# the generator-action kernel


def run_action(strings: int, runs: Iterable[tuple[int, int]]) -> tuple[list[int], int]:
    """Partner list and circle count of the product of the ascending runs.

    Run (i, j) stands for e_i e_{i+1} ... e_j.  Starts from the identity
    partner array and glues each generator below it in place.  If bottom
    dots a' and (a+1)' already form a cap, the glue closes one circle and
    nothing else changes; otherwise the strands ending at a' and (a+1)'
    are joined to each other and a' is capped with (a+1)'.  Linear in the
    word length.

    Nothing is checked: every run must satisfy 1 <= i <= j <= strings-1,
    as the blocks of an :class:`FCElement` of rank strings-1 do.  Every
    step keeps the list a non-crossing perfect matching, so callers that
    only read it (products) use it as it is.
    """
    k = strings
    partner = list(range(k, 2 * k)) + list(range(k))
    loops = 0
    for i, j in runs:
        for left in range(k + i - 1, k + j):
            right = left + 1
            x = partner[left]
            if x == right:
                loops += 1
                continue
            y = partner[right]
            partner[x], partner[y] = y, x
            partner[left], partner[right] = right, left
    return partner, loops


# ----------------------------------------------------------------------
# concatenation


def concatenate(upper: Diagram, lower: Diagram) -> tuple[Diagram, int]:
    """Stack ``lower`` below ``upper``; return the result and the circle count.

    The bottom row of ``upper`` is glued to the top row of ``lower``.  Each
    boundary dot's strand is traced through the glue; middle cycles never
    reaching the boundary are the deleted circles.
    """
    if upper.strings != lower.strings:
        raise StringMismatchError(
            f"cannot concatenate diagrams on {upper.strings} and {lower.strings} strings"
        )
    k = upper.strings
    up, lo = upper.partner, lower.partner
    result = [-1] * (2 * k)
    seen_mid = [False] * k

    def trace(in_upper: bool, cur: int) -> int:
        """Follow a strand to its terminal boundary dot (result coordinates)."""
        while True:
            if in_upper:
                nxt = up[cur]
                if nxt < k:
                    return nxt  # top boundary
                seen_mid[nxt - k] = True
                in_upper, cur = False, nxt - k
            else:
                nxt = lo[cur]
                if nxt >= k:
                    return nxt  # bottom boundary
                seen_mid[nxt] = True
                in_upper, cur = True, nxt + k

    for d in range(2 * k):
        if result[d] != -1:
            continue
        end = trace(d < k, d)
        result[d], result[end] = end, d

    loops = 0
    for m in range(k):
        if seen_mid[m]:
            continue
        loops += 1
        cur = m
        while not seen_mid[cur]:
            seen_mid[cur] = True
            via_lower = lo[cur]  # arc in the lower diagram's top row
            seen_mid[via_lower] = True
            cur = up[via_lower + k] - k  # arc in the upper diagram's bottom row

    return Diagram(k, tuple(result)), loops


# ----------------------------------------------------------------------
# enumeration


def enumerate_diagrams(strings: int) -> Iterator[Diagram]:
    """Yield every non-crossing diagram on the given number of strings.

    Generates balanced matchings along the boundary walk, so there are
    Catalan-many (C_strings) and the order is deterministic.
    """
    if strings < 1:
        raise IndexOutOfRangeError(f"strings must be >= 1, got {strings}")
    k = strings
    m = 2 * k
    seq = [-1] * m
    code_of = [*range(k), *range(m - 1, k - 1, -1)]  # boundary position -> dot code

    def fill(lo_pos: int, hi_pos: int) -> Iterator[None]:
        if lo_pos >= hi_pos:
            yield None
            return
        for mid in range(lo_pos + 1, hi_pos, 2):
            seq[lo_pos], seq[mid] = mid, lo_pos
            for _ in fill(lo_pos + 1, mid):
                yield from fill(mid + 1, hi_pos)

    for _ in fill(0, m):
        partner = [0] * m
        for b in range(m):
            partner[code_of[b]] = code_of[seq[b]]
        yield Diagram(k, tuple(partner))


# ----------------------------------------------------------------------
# text and JSON input

_DIAGRAM_HEAD_RE = re.compile(r"^strings=(\d+);(.*)$")
_DOT_RE = re.compile(r"^(\d+)('?)$")


def parse_dot(token: str, strings: int) -> int:
    m = _DOT_RE.match(token)
    if not m:
        raise ParseError(f"not a dot: {token!r}")
    idx = int(m.group(1))
    if not 1 <= idx <= strings:
        raise ParseError(f"dot index {idx} out of range for {strings} strings")
    return idx - 1 if not m.group(2) else strings + idx - 1


def parse_diagram(text: str) -> Diagram:
    """Parse the text form ``strings=2;1-2,1'-2'``."""
    m = _DIAGRAM_HEAD_RE.match(text.strip())
    if not m:
        raise ParseError(f"not a diagram text form: {text!r}")
    strings = int(m.group(1))
    arrows = []
    body = m.group(2)
    if not body:
        raise ParseError("diagram text form has no arrows")
    for chunk in body.split(","):
        halves = chunk.split("-")
        if len(halves) != 2:
            raise ParseError(f"not an arrow: {chunk!r}")
        x, y = (parse_dot(h.strip(), strings) for h in halves)
        if x > y:
            x, y = y, x
        arrows.append((x, y))
    return Diagram.from_arrows(strings, arrows)


def diagram_from_json(obj: dict) -> Diagram:
    """Inverse of :meth:`Diagram.to_json`.

    ``partner`` must be a JSON list, and the string count and every
    partner JSON integers: a bool, a float or a digit string is refused,
    not converted, and so is any other iterable.
    """
    try:
        strings, partner = obj["strings"], obj["partner"]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"not a diagram JSON object: {obj!r}") from exc
    if type(partner) is not list or any(type(v) is not int for v in (strings, *partner)):
        raise ParseError(f"not a diagram JSON object: {obj!r}")
    return Diagram(strings, tuple(q - 1 for q in partner))
