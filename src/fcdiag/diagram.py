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

One namer, :class:`ArrowTexts`, writes an arrow ``tail-head`` for
:meth:`Diagram.to_text`, :meth:`Diagram.arrow_name` and ``tl.key_texts``.

Planarity is *not* the bracket condition in the total order.  It is checked
on the boundary walk of the rectangle, top row left to right and then
bottom row right to left; on that circular order the matching must nest
like balanced brackets.

That walk runs where a diagram enters: the constructor, ``from_arrows``,
:func:`parse_diagram`, :func:`diagram_from_json`, ``from_word``,
``identity`` and ``generator``, once each string count has passed its
rule, stated in ``errors``, and each generator index
:func:`_check_generator_index`.  Four producers build their output
from valid diagrams or a valid canonical form, and it is a non-crossing
matching by construction, so they skip the walk: the product of two
diagrams, the two flips of the rectangle, the balanced walk of
:func:`enumerate_diagrams`, and the bijection's drawing of a canonical
block list.

Products of generators are built by one kernel, :func:`run_action`, which
glues one cup-cap generator at a time below a partner array in place: four
writes per letter, or one closed circle.  It takes the word as ascending
runs [i, j] = e_i e_{i+1} ... e_j, so the block list of an FC element is
its input as it stands, and it starts from the identity or from a partner
list it is given.  It serves three callers: monomial products, which glue
the left factor's runs from the identity once, keep that drawing on the
element, and glue the right factor's runs onto a copy of it, reading the
bare partner list; :meth:`Diagram.from_word`, the only entry for a raw
generator word, which checks the indices, feeds the word one letter per
run, and validates the result as a :class:`Diagram`; and ``verify``,
which holds the bijection's drawings against it.  It checks nothing
itself.  Drawing one FC element does not use it: the bijection's passes
draw from the canonical form.

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
    check_strings,
    check_text,
    read_decimal,
    shown,
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

    The one way round validation is a private unchecked constructor, kept
    for the four producers whose output is a non-crossing matching by
    construction.  :func:`concatenate` traces the strands of two valid
    diagrams through the glued middle row, and strands drawn without
    crossings in two stacked rectangles do not cross in their union.  The
    two flips are symmetries of the rectangle, so they keep arrows from
    crossing.  :func:`enumerate_diagrams` matches positions of the
    boundary walk as balanced brackets.  The bijection's five passes draw
    the paper's unique diagram of a canonical block list, and refuse a
    drawing that does not read back as its blocks.  Everything a caller
    hands in still validates.
    """

    strings: int
    partner: tuple[int, ...]

    def __post_init__(self) -> None:
        k = self.strings
        check_strings(k)
        try:
            partner = tuple(self.partner)
        except TypeError:
            raise NotMatchingError(
                f"partner array must be a sequence of ints, got {type(self.partner).__name__}"
            ) from None
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

    @classmethod
    def _trusted(cls, strings: int, partner: tuple[int, ...]) -> Diagram:
        """A diagram built without validation, for the four producers of
        the class docstring, whose partner arrays are non-crossing perfect
        matchings by construction.

        ``partner`` must be a tuple of ints.  The tests run the validating
        constructor on the output of each producer, and pin the call sites
        to those four.
        """
        self = object.__new__(cls)
        object.__setattr__(self, "strings", strings)
        object.__setattr__(self, "partner", partner)
        return self

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
                raise NotMatchingError(
                    f"dot {self.dot_name(d)} is matched to {shown(q)!r}, not an int"
                )
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
        check_strings(strings)
        partner = tuple(range(strings, 2 * strings)) + tuple(range(strings))
        return cls(strings, partner)

    @classmethod
    def generator(cls, strings: int, i: int) -> Diagram:
        """The cup-cap diagram joining i with i+1 on both rows."""
        check_strings(strings)
        _check_generator_index(strings, i)
        partner = list(range(strings, 2 * strings)) + list(range(strings))
        k = strings
        partner[i - 1], partner[i] = i, i - 1
        partner[k + i - 1], partner[k + i] = k + i, k + i - 1
        return cls(strings, tuple(partner))

    @classmethod
    def from_word(cls, strings: int, word: Iterable[int]) -> tuple[Diagram, int]:
        """The product of the generators along ``word``, and its circle count.

        ``strings`` is checked as :meth:`identity` checks it and the
        indices as :meth:`generator` checks its one; :func:`run_action`
        glues the word one letter per run, and the result is validated.
        """
        check_strings(strings)
        word = tuple(word)
        for a in word:
            _check_generator_index(strings, a)
        partner, loops = run_action(strings, zip(word, word))
        return cls(strings, tuple(partner)), loops

    @classmethod
    def from_arrows(cls, strings: int, arrows: Iterable[Arrow]) -> Diagram:
        """Build and validate a diagram from dot-code pairs.

        Memory is proportional to the arrows given, not to ``strings``: an
        incomplete matching is rejected before any 2k-entry array exists.
        ``strings`` is checked as :meth:`identity` checks it, and each
        arrow must be a pair of int dot codes.
        """
        check_strings(strings)
        partner: dict[int, int] = {}
        for arrow in arrows:
            try:  # a misshapen arrow falls to the check below
                x, y = arrow
            except (TypeError, ValueError):
                x = y = None
            if type(x) is not int or type(y) is not int:
                raise NotMatchingError(
                    f"arrow must be a pair of int dot codes, got {shown(arrow)!r}"
                )
            for d in (x, y):
                if not 0 <= d < 2 * strings:
                    raise NotMatchingError(
                        f"dot code {shown(d)} out of range for {strings} strings"
                    )
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
        """``tail-head`` for int codes x < y that this diagram matches to
        each other; any other pair is refused with a NotMatchingError."""
        try:  # a misshapen pair, or a tail out of range, falls to the check below
            x, y = arrow
            matched = self.partner[x] == y
        except (TypeError, ValueError, IndexError):
            matched = False
        if not (matched and type(x) is int and type(y) is int and 0 <= x < y):
            raise NotMatchingError(f"{arrow!r} is not an arrow of this diagram")
        return ArrowTexts(self.strings)[x, y]

    def _arrow_of(self, code: int) -> Arrow:
        q = self.partner[code]
        return (code, q) if code < q else (q, code)

    def components(self) -> Components:
        """Split the arrows into the four structural families.

        One pass over the partner array, from each arrow's tail, collects
        every family and the starts and ends as lists, and each is frozen
        once.
        """
        k = self.strings
        top_arcs: list[Arrow] = []
        bottom_arcs: list[Arrow] = []
        positive: list[Arrow] = []
        vertical_or_negative: list[Arrow] = []
        starts: list[int] = []
        ends: list[int] = []
        for x, y in enumerate(self.partner):
            if y < x:
                continue
            if y < k:
                top_arcs.append((x, y))
                starts.append(x + 1)
            elif x >= k:
                bottom_arcs.append((x, y))
                ends.append(y - k)
            elif y - k > x:
                positive.append((x, y))
                starts.append(x + 1)
                ends.append(y - k)
            else:
                vertical_or_negative.append((x, y))
        return Components(
            top_arcs=frozenset(top_arcs),
            bottom_arcs=frozenset(bottom_arcs),
            positive=frozenset(positive),
            vertical_or_negative=frozenset(vertical_or_negative),
            starts=frozenset(starts),
            ends=frozenset(ends),
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
        return Diagram._trusted(self.strings, tuple(partner))

    # ------------------------------------------------------------------
    # serialization

    def to_text(self) -> str:
        # a diagram's arrows are distinct, so each is named with no lookup first
        k = self.strings
        return f"strings={k};{','.join(map(ArrowTexts(k).__missing__, self.arrows()))}"

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


def _check_generator_index(strings: int, i: object) -> None:
    """Refuse a generator index that is not an int in 1..strings-1, or is a bool."""
    if type(i) is not int or not 1 <= i < strings:
        raise IndexOutOfRangeError(
            f"generator index must satisfy 1 <= i <= {strings - 1}, got {shown(i)}"
        )


def _dot_name(code: int, strings: int) -> str:
    """The text name of one dot: 1..k on the top row, 1'..k' on the bottom.

    Constant memory, so ``from_arrows`` can name a dot of a diagram whose
    partner array it never builds.
    """
    return str(code + 1) if code < strings else f"{code - strings + 1}'"


class ArrowTexts(dict):
    """The ``tail-head`` text of each arrow on ``strings`` strings, written
    when first asked for, each dot named by :func:`_dot_name`.
    """

    def __init__(self, strings: int):
        super().__init__()
        self.strings = strings

    def __missing__(self, arrow: Arrow) -> str:
        x, y = arrow
        text = self[arrow] = f"{_dot_name(x, self.strings)}-{_dot_name(y, self.strings)}"
        return text


# ----------------------------------------------------------------------
# the generator-action kernel


def run_action(
    strings: int, runs: Iterable[tuple[int, int]], partner: list[int] | None = None
) -> tuple[list[int], int]:
    """Partner list and circle count of the product of the ascending runs.

    Run (i, j) stands for e_i e_{i+1} ... e_j.  Starts from ``partner``,
    a partner list on ``strings`` strings that it glues onto in place, or
    from the identity if none is given, and glues each generator below
    it.  The circles counted are those the runs close.  If bottom
    dots a' and (a+1)' already form a cap, the glue closes one circle and
    nothing else changes; otherwise the strands ending at a' and (a+1)'
    are joined to each other and a' is capped with (a+1)'.  Linear in the
    word length.

    Nothing is checked: every run must satisfy 1 <= i <= j <= strings-1,
    as the blocks of an :class:`FCElement` of rank strings-1 do, and a
    given ``partner`` must be a non-crossing perfect matching of 2 *
    strings dots.  Every step keeps the list one, so callers that only
    read it (products) use it as it is.
    """
    k = strings
    if partner is None:
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
    boundary dot's strand is followed through the glue, in a loop of its
    own for the strands that start on the top row and for those that start
    on the bottom row, with no call per strand; middle cycles never
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

    # A strand from the top row runs in ``upper`` until it ends on the top
    # row (a code below k) or reaches middle dot nxt-k; from there it runs
    # in ``lower`` until it ends on the bottom row (a code k or above) or
    # climbs back to middle dot nxt.  Result codes are those of the ends.
    for d in range(k):
        if result[d] != -1:
            continue
        nxt = up[d]
        while nxt >= k:
            seen_mid[nxt - k] = True
            nxt = lo[nxt - k]
            if nxt >= k:
                break
            seen_mid[nxt] = True
            nxt = up[nxt + k]
        result[d], result[nxt] = nxt, d
    # A strand from the bottom row: the same walk, entered from ``lower``.
    # Strands with a top-row end were all traced above, so this one ends
    # on the bottom row, and each climb into ``upper`` comes back down.
    for d in range(k, 2 * k):
        if result[d] != -1:
            continue
        nxt = lo[d]
        while nxt < k:
            seen_mid[nxt] = True
            nxt = up[nxt + k]
            seen_mid[nxt - k] = True
            nxt = lo[nxt - k]
        result[d], result[nxt] = nxt, d

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

    return Diagram._trusted(k, tuple(result)), loops


# ----------------------------------------------------------------------
# enumeration


def enumerate_diagrams(strings: int) -> Iterator[Diagram]:
    """Yield every non-crossing diagram on the given number of strings.

    Generates balanced matchings along the boundary walk, so there are
    Catalan-many (C_strings) and the order is deterministic.  The string
    count is checked before anything is built, and what is yielded is not
    revalidated: a balanced matching of the boundary walk is a non-crossing
    matching.

    The walk goes depth first over boundary positions, left to right.  The
    first free position p is matched with one of p+1, p+3, ... inside the
    innermost interval still open, nearest first; the interval before the
    chosen partner is filled first, then the one after it.  Moving on from
    a matching changes the partner of the last position that has a further
    choice and matches every free position after it with its neighbour,
    the first choice of each.  The walk keeps its own stack of choices and
    writes the partner array in place, so each step costs O(1) amortised,
    a diagram one copy of the array, and no string count meets the
    interpreter's recursion limit.
    """
    check_strings(strings)
    k = strings
    m = 2 * k
    code = [*range(k), *range(m - 1, k - 1, -1)]  # boundary position -> dot code
    partner = [0] * m
    # Each choice is (position, its partner's position, the ends of the
    # intervals around it); the ends are a linked list (end, outer ends),
    # innermost first, which every choice made inside them shares.
    choices: list[tuple[int, int, tuple]] = []
    ends: tuple = (m, None)
    p = 0
    while True:
        while p < m:
            if p == ends[0]:
                # the partner of an earlier position closes this interval
                ends = ends[1]
                p += 1
            else:
                choices.append((p, p + 1, ends))
                a, b = code[p], code[p + 1]
                partner[a], partner[b] = b, a
                p += 2
        yield Diagram._trusted(k, tuple(partner))
        while choices:
            p, q, ends = choices.pop()
            q += 2
            if q < ends[0]:
                break
        else:
            return
        choices.append((p, q, ends))
        ends = (q, ends)
        a, b = code[p], code[q]
        partner[a], partner[b] = b, a
        p += 1


# ----------------------------------------------------------------------
# text and JSON input

_DIAGRAM_HEAD_RE = re.compile(r"^strings=(\d+);(.*)$", re.ASCII)
_DOT_RE = re.compile(r"^(\d+)('?)$", re.ASCII)


def parse_dot(token: str, strings: int) -> int:
    m = _DOT_RE.match(token)
    if not m:
        raise ParseError(f"not a dot: {token!r}")
    idx = read_decimal(m.group(1))
    if not 1 <= idx <= strings:
        raise ParseError(f"dot index {idx} out of range for {strings} strings")
    return idx - 1 if not m.group(2) else strings + idx - 1


def parse_diagram(text: str) -> Diagram:
    """Parse the text form ``strings=2;1-2,1'-2'``; a text that is not a
    ``str`` is refused with :class:`ParseError`."""
    check_text(text, "a diagram text form")
    m = _DIAGRAM_HEAD_RE.match(text.strip())
    if not m:
        raise ParseError(f"not a diagram text form: {text!r}")
    strings = read_decimal(m.group(1))
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
        raise ParseError(f"not a diagram JSON object: {shown(obj)!r}") from exc
    if type(partner) is not list or any(type(v) is not int for v in (strings, *partner)):
        raise ParseError(f"not a diagram JSON object: {shown(obj)!r}")
    return Diagram(strings, tuple(q - 1 for q in partner))
