"""Exception types shared by all modules of the package.

Everything derives from :class:`FCDiagramError`, itself a ``ValueError``, so
callers who do not care about the fine-grained class can catch either.
"""


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


class ParityViolationError(FCDiagramError):
    """An arrow joins dots of the wrong parity for its kind."""


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
