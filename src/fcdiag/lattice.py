"""
Dyck paths and ballot sequences, and their maps to and from FC elements and
diagrams.

A Dyck path of rank n runs from (0,0) to (n+1, n+1) in unit steps R = (1,0)
and U = (0,1) without rising above the diagonal.  A ballot sequence is its
step-by-step reading R -> +1, U -> -1, so prefix sums stay nonnegative.

The classical bijection with FC elements sends the block (i, j) to a peak
of the path at the point (j, i), where a *peak* is a point reached by a U
step that is immediately followed by an R step.  The identity has no peaks
and maps to R...RU...U.  ``fc_to_ballot`` is the composition
``dyck_to_ballot(fc_to_dyck(w))``.

``diagram_to_ballot`` reads a diagram's dots in the total order (top row
left to right, then bottom row left to right) and writes + for each arrow
tail and - for each head.  It is a bijection onto ballots, but NOT the one
compatible with the rest: composing it with the path and block maps does
not reproduce the multiplication-compatible correspondence, and the tests
pin a concrete witness of the mismatch.
"""

from __future__ import annotations

from dataclasses import dataclass

from .diagram import Diagram
from .errors import InvalidBallotError, InvalidPathError, ParseError, check_text, shown
from .fc import FCElement


@dataclass(frozen=True)
class Ballot:
    """A sequence of int +1s and -1s with nonnegative prefix sums and total zero."""

    signs: tuple[int, ...]

    def __post_init__(self) -> None:
        total = 0
        for s in self.signs:
            if type(s) is not int or s not in (1, -1):
                raise InvalidBallotError(f"signs must be +1 or -1, got {shown(s)!r}")
            total += s
            if total < 0:
                raise InvalidBallotError("prefix sums must stay nonnegative")
        if total != 0:
            raise InvalidBallotError("total sum must be zero")

    def to_text(self) -> str:
        return "".join("+" if s > 0 else "-" for s in self.signs)

    def __str__(self) -> str:
        return self.to_text()


@dataclass(frozen=True)
class DyckPath:
    """A staircase path weakly below the diagonal, as a string of R/U steps."""

    steps: tuple[str, ...]

    def __post_init__(self) -> None:
        rights = ups = 0
        for step in self.steps:
            if step == "R":
                rights += 1
            elif step == "U":
                ups += 1
            else:
                raise InvalidPathError(f"steps must be 'R' or 'U', got {shown(step)!r}")
            if ups > rights:
                raise InvalidPathError("path must not rise above the diagonal")
        if rights != ups:
            raise InvalidPathError("path must end on the diagonal")

    def to_text(self) -> str:
        return "".join(self.steps)

    def __str__(self) -> str:
        return self.to_text()


def parse_ballot(text: str) -> Ballot:
    check_text(text, "a ballot text form")
    signs = []
    for ch in text.strip():
        if ch == "+":
            signs.append(1)
        elif ch in "-−":
            signs.append(-1)
        else:
            raise ParseError(f"not a ballot character: {ch!r}")
    return Ballot(tuple(signs))


def parse_dyck(text: str) -> DyckPath:
    check_text(text, "a path text form")
    steps = tuple(text.strip().upper())
    if any(ch not in "RU" for ch in steps):
        raise ParseError(f"not a path text form: {text!r}")
    return DyckPath(steps)


def peaks(path: DyckPath) -> tuple[tuple[int, int], ...]:
    """Points reached by a U step immediately followed by an R step."""
    out = []
    x = y = 0
    steps = path.steps
    for idx, step in enumerate(steps):
        if step == "R":
            x += 1
        else:
            y += 1
            if idx + 1 < len(steps) and steps[idx + 1] == "R":
                out.append((x, y))
    return tuple(out)


def fc_to_dyck(w: FCElement) -> DyckPath:
    """Block (i, j) becomes the peak at (j, i); blocks are read small to large."""
    side = w.rank + 1
    steps: list[str] = []
    prev_i = prev_j = 0
    for i, j in reversed(w.pairs):
        steps.extend("R" * (j - prev_j))
        steps.extend("U" * (i - prev_i))
        prev_i, prev_j = i, j
    steps.extend("R" * (side - prev_j))
    steps.extend("U" * (side - prev_i))
    return DyckPath(tuple(steps))


def dyck_to_fc(path: DyckPath) -> FCElement:
    """Inverse of :func:`fc_to_dyck`; rank is read off the path length."""
    if len(path.steps) % 2 or not path.steps:
        raise InvalidPathError("path length must be a positive even number")
    rank = len(path.steps) // 2 - 1
    pairs = tuple((y, x) for x, y in reversed(peaks(path)))
    return FCElement(rank, pairs)


def dyck_to_ballot(path: DyckPath) -> Ballot:
    return Ballot(tuple(1 if step == "R" else -1 for step in path.steps))


def ballot_to_dyck(ballot: Ballot) -> DyckPath:
    return DyckPath(tuple("R" if s > 0 else "U" for s in ballot.signs))


def fc_to_ballot(w: FCElement) -> Ballot:
    return dyck_to_ballot(fc_to_dyck(w))


def diagram_to_ballot(diagram: Diagram) -> Ballot:
    """Tails to +, heads to -, dots read in the total order."""
    return Ballot(
        tuple(1 if diagram.partner[d] > d else -1 for d in range(2 * diagram.strings))
    )
