"""Exception types shared by all modules of the package.

Everything derives from :class:`FCDiagramError`, itself a ``ValueError``, so
callers who do not care about the fine-grained class can catch either.

The number rule lives here too, so that every module can quote a caller's
value by it without loading another.  An int of more than
:data:`MAX_DIGITS` digits is no rank, string count or text-form number,
and a refusal message names it by the rule (:func:`shown`) instead of
writing it out, so messages do not depend on the int digit limit.
"""

# The most digits an int may have where the package reads or writes it: the
# lowest int digit limit that Python accepts (sys.int_info.
# str_digits_check_threshold, 3.11+), so int() and str() work on every such
# int under any limit.  LONG_INT is the least positive int it refuses.
MAX_DIGITS = 640
LONG_INT = 10**MAX_DIGITS


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


_LONG = _LongInt()


def shown(value):
    """``value`` as a refusal message may show it, by ``str`` or ``repr``.

    An int of more than :data:`MAX_DIGITS` digits, or such an int as an
    item of a tuple or list, is replaced by a stand-in that names it by
    the number rule; anything else is shown as it is.
    """
    if type(value) in (tuple, list):
        return type(value)(map(_shown_int, value))
    return _shown_int(value)


def _shown_int(value):
    if isinstance(value, int) and not -LONG_INT < value < LONG_INT:
        return _LONG
    return value


def check_text(text: object, form: str) -> None:
    """Refuse a ``text`` that is not a str with :class:`ParseError`,
    naming ``form`` and the type given."""
    if not isinstance(text, str):
        raise ParseError(f"{form} must be a str, got {type(text).__name__}")
