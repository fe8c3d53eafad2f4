"""Exception types shared by all modules of the package, and the argument
rules that raise them.

Everything derives from :class:`FCDiagramError`, itself a ``ValueError``, so
callers who do not care about the fine-grained class can catch either.

Each argument rule is stated here once, and checked by one helper wherever
its argument enters.  A bool is never taken for an int.

- A rank (:func:`check_rank`: ``FCElement``, ``enumerate_fc``,
  ``tl.census``, ``tl.TLElement``) that is not an int, is negative, or has
  more than :data:`MAX_DIGITS` digits raises :class:`RankOutOfRangeError`.
- A size (:func:`check_size`: ``enumerate_fc``, ``tl.census``) that is not
  an int raises :class:`RankOutOfRangeError`; an int out of range means no
  element.
- A string count (:func:`check_strings`: every ``Diagram`` constructor,
  ``enumerate_diagrams``, ``tl.expected_class_size``, ``tl.key_texts``,
  and ``tl.monomial_product`` for rank + 1)
  that is not an int raises :class:`NotMatchingError`, and an int below 1,
  of more than :data:`MAX_DIGITS` digits, or above :data:`MAX_STRINGS`,
  whose partner array of 2 * strings entries no Python sequence can
  index, :class:`IndexOutOfRangeError`.
- A text that is not a ``str`` (:func:`check_text`: every text reader), and
  a number of a text form, a run of ASCII digits, of more than
  :data:`MAX_DIGITS` digits (:func:`read_decimal`: ``parse_fc``,
  ``parse_diagram``), raise :class:`ParseError`.

That is the number rule: an int of more than MAX_DIGITS digits is no rank,
string count or text-form number, and a refusal message names it
(:func:`shown`) instead of writing it out.  MAX_DIGITS is the lowest int
digit limit that Python accepts (3.11+), so int() and str() work on every
int the rule admits, and no refusal depends on the limit.  Likewise
:func:`shown` names a container nested :data:`SHOWN_DEPTH` deep
instead of writing it out, so that no refusal runs into the recursion
limit.
"""

import sys

# The number rule; LONG_INT is the least positive int it refuses.
MAX_DIGITS = 640
LONG_INT = 10**MAX_DIGITS

# The most strings whose partner array, of 2 * strings entries, a Python
# sequence can index.
MAX_STRINGS = sys.maxsize // 2

# The depth at which a refusal message stops writing out nested containers:
# far below the default recursion limit of 1000, so that copying and
# writing out what is shown take at most this many frames each.
SHOWN_DEPTH = 100


class FCDiagramError(ValueError):
    """Base class for every domain error raised by this package."""


class NotStandardError(FCDiagramError):
    """A block list violates the canonical-form inequalities."""


class RankOutOfRangeError(FCDiagramError):
    """A rank (or similar size parameter) is outside its allowed range."""


class NotThickError(FCDiagramError):
    """An operation restricted to thick elements got something else."""


class IdentityHasNoDescentsError(FCDiagramError):
    """Descent sets are undefined for the identity element."""


class NotMatchingError(FCDiagramError):
    """A dot pairing is not a perfect matching."""


class CrossingError(FCDiagramError):
    """Two arrows of a diagram intersect.

    The offending arrows (as internal dot-code pairs) are available on the
    ``first`` and ``second`` attributes.
    """

    def __init__(self, message: str, first=None, second=None):
        super().__init__(message)
        self.first = first
        self.second = second


class StringMismatchError(FCDiagramError):
    """Two diagrams with different string counts cannot be concatenated."""


class IndexOutOfRangeError(FCDiagramError):
    """A generator or block index is outside its allowed range."""


class RankMismatchError(FCDiagramError):
    """Two algebra elements of different ranks cannot be combined."""


class UnexpectedLoopError(FCDiagramError):
    """A concatenation of a reduced word produced a closed circle.

    This cannot happen for valid inputs and signals an internal bug.
    """


class NotNormalizedError(FCDiagramError):
    """A polynomial or algebra element is not in its stored normal form.

    Exponents and terms must be sorted and distinct, with no zero entries.
    A polynomial that holds an int of more than MAX_DIGITS digits is
    refused with it when printed.
    """


class InvalidBallotError(FCDiagramError):
    """A sign sequence is not a ballot sequence."""


class InvalidPathError(FCDiagramError):
    """A step sequence is not a valid staircase lattice path."""


class ParseError(FCDiagramError):
    """A text form could not be parsed."""


class _LongInt:
    """What a message shows for an int of more than MAX_DIGITS digits."""

    def __repr__(self) -> str:
        return f"an int of more than {MAX_DIGITS} digits"

    __str__ = __repr__


class _Deep:
    """What a message shows for a container nested SHOWN_DEPTH deep."""

    def __init__(self, kind: type):
        self.kind = kind.__name__

    def __repr__(self) -> str:
        return f"a {self.kind} nested {SHOWN_DEPTH} deep"

    __str__ = __repr__


def shown(value):
    """``value`` as a refusal message may show it, by ``str`` or ``repr``.

    An int of more than :data:`MAX_DIGITS` digits, at any depth of tuples,
    lists and dicts, is replaced by a stand-in that names it by the number
    rule, and so is a container nested :data:`SHOWN_DEPTH` deep (``value``
    itself is at depth 0), which ``repr`` could not write out if it were
    nested past the recursion limit.  Anything else is shown as it is.  A
    container that holds itself is copied with its cycle, so it shows as it
    would.
    """
    return _shown(value, {}, 0)


def _shown(value, copies: dict, depth: int):
    if isinstance(value, int):
        return value if -LONG_INT < value < LONG_INT else _LongInt()
    kind = type(value)
    if kind not in (tuple, list, dict):
        return value
    if id(value) in copies:  # a cycle back to a container being copied
        return copies[id(value)]
    if depth == SHOWN_DEPTH:
        return _Deep(kind)
    depth += 1
    if kind is dict:
        copy = copies[id(value)] = {}
        for key, item in value.items():  # a fresh stand-in per int keeps keys apart
            copy[_shown(key, copies, depth)] = _shown(item, copies, depth)
        return copy
    items = []
    if kind is list:  # held before its items, as the dict above, for a cycle to find
        copies[id(value)] = items
    for item in value:  # a loop, not a comprehension: one frame a level
        items.append(_shown(item, copies, depth))
    # a cycle through a tuple copies it again, while its items are walked
    return items if kind is list else copies.setdefault(id(value), tuple(items))


def check_text(text: object, form: str) -> None:
    """Refuse a ``text`` that is not a str with :class:`ParseError`,
    naming ``form`` and the type given."""
    if not isinstance(text, str):
        raise ParseError(f"{form} must be a str, got {type(text).__name__}")


def check_rank(rank: object) -> None:
    """Refuse a rank by the rank rule."""
    if type(rank) is not int:
        raise RankOutOfRangeError(f"rank must be a nonnegative integer, got {shown(rank)!r}")
    if not 0 <= rank < LONG_INT:
        if rank < 0:
            raise RankOutOfRangeError(f"rank must be nonnegative, got {shown(rank)}")
        raise RankOutOfRangeError(
            f"rank has more than {MAX_DIGITS} digits, the most a rank may have"
        )


def check_size(size: object) -> None:
    """Refuse a size by the size rule: any int is a size."""
    if type(size) is not int:
        raise RankOutOfRangeError(f"size must be an integer, got {shown(size)!r}")


def check_strings(strings: object) -> None:
    """Refuse a string count by the string-count rule."""
    if type(strings) is not int:
        raise NotMatchingError(f"strings must be a positive integer, got {shown(strings)!r}")
    if not 1 <= strings <= MAX_STRINGS:
        if strings < 1:
            raise IndexOutOfRangeError(f"strings must be >= 1, got {shown(strings)}")
        if strings >= LONG_INT:
            raise IndexOutOfRangeError(
                f"strings has more than {MAX_DIGITS} digits, the most a string count may have"
            )
        raise IndexOutOfRangeError(
            f"strings is more than {MAX_STRINGS}, the most whose partner array"
            " of 2 * strings dots can be indexed"
        )


def read_decimal(digits: str) -> int:
    """The value of ``digits``, a run of ASCII digits from a text form."""
    if len(digits) > MAX_DIGITS:
        raise ParseError(
            f"a number of {len(digits)} digits is more than {MAX_DIGITS},"
            " the most a text form may hold"
        )
    return int(digits)
