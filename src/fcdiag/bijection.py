"""
The multiplication-compatible bijection between FC elements and diagrams.

There is exactly one bijection between FC elements of rank n and
non-crossing diagrams on n+1 strings under which monomial multiplication in
the Temperley-Lieb algebra becomes diagram concatenation.  It is pinned down
by a remarkable fact: the diagram of w is the unique non-crossing diagram
whose rightward top tails are the block starts {i_t} of w and whose shifted
leftward bottom heads are the block ends {j_t}.

Reading a diagram off (``diagram_to_fc``) is therefore immediate: one pass
over the partner array (``block_pairs``).  Drawing the diagram of w is the
paper's direct algorithm, which places arrows in five passes:

(a) vertical strands outside the active window, namely below the smallest
    start i_p and above the largest end + 1, j_1 + 1.  (e) draws them:
    (b)-(d) touch no dot outside i_p .. j_1 + 1 on either row, so these
    are the first and the last free dots of both rows;
(b) the positive arrows (i_s, (j_t+1)'), one for each block s that has an
    earlier block t passing the paper's predicate ``dplus_condition``;
(c) the top arcs, for r = 1..p: start i_r, unless a positive arrow took
    it, joins the lowest dot of its candidate set, the top dots
    i_r+1 .. j_1+1 less the earlier starts and the dots already taken by
    (c), so i_1 joins i_1+1;
(d) the bottom arcs, mirrored for r = p..1: head dot (j_r+1)', unless a
    positive arrow took it, joins the highest dot of its candidate set,
    the bottom dots i_p' .. j_r' less the later shifted ends (j_s+1)' and
    the dots already taken by (d), so (j_p+1)' joins j_p';
(e) whatever dots remain, joined left to right, lowest free top dot to
    lowest free bottom dot.

Each pass is one sweep, so a drawing costs O(strings + blocks), plus the
size of its trace when one is recorded:

* (b) keys block t by j_t + 2t.  The predicate's spacing rule,
  j_t = i_s + 2(s-t) - 1, says that t lies under the key i_s + 2s - 1,
  and its minimality rule forbids another block of that key between t
  and s, so the one candidate for s is the latest t < s under it.  The
  other minimality rule forbids a block r between them with
  i_r + 2r = i_s + 2s: the latest such r < s, kept under that key, is at
  most t.  Saturation holds when s = t + 1, or when i_{s-1} = i_s + 1,
  j_{t+1} = j_t - 1 and no gap j_{r+1} < i_r - 1 lies strictly between,
  for t < r < r+1 < s, which a running count of gaps answers at once.
  Two blocks s never share a head t: the first would lie between the
  second and t under the same start key.
* (c) keeps the free top dots of the current candidate range in a list,
  in descending order.  Moving to block r appends the dots
  i_{r-1}-1 .. i_r+1, the candidate set is the list as it stands, and the
  chosen dot is ``pop()``.  (d) keeps the bottom dots likewise, in
  ascending order, appending (j_{r+1}+2)' .. j_r'.
* (e) sweeps the top row once, with a pointer into the bottom row.

One routine runs the passes, and it has three entries.  As (c) and (d)
choose, it adds up the length of each candidate set, whether it records
the trace or not.  ``fc_to_diagram`` also records what passes (b), (c)
and (d) choose, as a :class:`BijectionTrace`: each candidate set as a
tuple in ascending order (the top list reversed, the bottom list as it
stands) with its chosen dot.  That record is the only source of
``--trace`` output.  ``diagram_of`` records nothing.
``trace_candidates`` returns only the sum, the number of dots the trace
lists, from one untraced drawing, so that the CLI can bound ``--trace``
before the trace is recorded.  Each entry builds its diagram with the
unchecked constructor of :class:`Diagram`: the passes on a canonical
block list draw the paper's unique non-crossing diagram of w, so the
boundary walk that validation runs would only repeat the theorem.  The
passes count no circles, though, so a block list that is not canonical,
planted past the validating constructor of :class:`FCElement`, could be
drawn quietly; the routine reads every drawing back with
``block_pairs``, in O(strings) and cheaper than that walk, and raises
unless that gives w's own blocks.

``dplus_condition`` states the predicate as the paper does and is kept
for the checks.  The ``verify`` check ``bijection.trace-consistency``
asserts the documented facts about the trace on both rows: a candidate
set is empty exactly when a positive arrow took its dot, the chosen dot
is the minimum (top) or maximum (bottom) of its set and is the partner
in the drawn diagram, and each positive pair is a drawn arrow that passes
``dplus_condition``.  The tests compare every drawing and trace with a
literal transcription of the five passes that calls the predicate on
every pair.

Two oracles share no code with the passes.  ``fc_to_diagram_reference``
multiplies out the canonical word as a stack of cup-cap generator
diagrams with :func:`concatenate`.  ``reference_drawings`` runs the same
oracle over a whole rank: it draws each element by extending its parent's
drawing with the last block, so each generator product is taken once per
rank rather than once per element containing it.  Both entry points share
one fold and its circle check.  The other oracle is the generator-action
kernel ``diagram.run_action``, which serves products and glues the word
one ascending run at a time.  The ``verify`` check ``bijection.oracle-equivalence`` asserts,
over that sweep, that the passes, the concatenation oracle and the kernel
agree.  None of them reads the drawing that ``tl.monomial_product`` keeps
on a left factor: the passes draw from the canonical form, the oracle
concatenates generators, and ``verify`` glues the kernel from the
identity, so all three stay independent of the products they check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .diagram import Diagram, concatenate
from .errors import FCDiagramError, IndexOutOfRangeError, UnexpectedLoopError, shown
from .fc import FCElement, Pair, enumerate_fc, is_saturated_in


@dataclass(frozen=True)
class BijectionTrace:
    """What the direct drawing algorithm chose, recorded as it drew.

    ``positive_pairs`` lists the (s, t) block-index pairs that produced a
    positive arrow.  ``top_sets[r-1]`` is the candidate set for the top
    partner of start i_r, in ascending order, together with the chosen dot
    (None when the set is empty), and ``bottom_sets[r-1]`` the same for end
    j_r.
    """

    positive_pairs: tuple[tuple[int, int], ...]
    top_sets: tuple[tuple[tuple[int, ...], int | None], ...]
    bottom_sets: tuple[tuple[tuple[int, ...], int | None], ...]

    def to_json(self) -> dict:
        return {
            "positive_pairs": [list(st) for st in self.positive_pairs],
            "top_sets": [{"candidates": list(a), "chosen": f} for a, f in self.top_sets],
            "bottom_sets": [{"candidates": list(b), "chosen": g} for b, g in self.bottom_sets],
        }


def dplus_condition(w: FCElement, s: int, t: int) -> bool:
    """Decide whether blocks (s, t) of w produce the positive arrow
    (i_s, (j_t+1)').

    The predicate requires, for 1 <= t < s <= size:

    * spacing:     j_t = i_s + 2(s-t) - 1;
    * minimality:  no r strictly between t and s has j_r = i_s + 2(s-r) - 1
                   or j_t = i_r + 2(r-t) - 1;
    * saturation:  blocks t+1 .. s-1 cover every generator index in
                   [i_s + 1, j_t - 1].

    Any other (s, t), or one that is not a pair of ints (a bool counts as
    not an int), is refused with :class:`IndexOutOfRangeError`.
    """
    p = w.size
    if type(s) is not int or type(t) is not int or not 1 <= t < s <= p:
        raise IndexOutOfRangeError(f"need 1 <= t < s <= {p}, got s={shown(s)!r}, t={shown(t)!r}")
    i_s = w.pairs[s - 1][0]
    j_t = w.pairs[t - 1][1]
    if j_t != i_s + 2 * (s - t) - 1:
        return False
    for r in range(t + 1, s):
        i_r, j_r = w.pairs[r - 1]
        if j_r == i_s + 2 * (s - r) - 1:
            return False
        if j_t == i_r + 2 * (r - t) - 1:
            return False
    return is_saturated_in(w.pairs[t : s - 1], i_s + 1, j_t - 1)


def _positive_pairs(pairs: Sequence[Pair]) -> list[tuple[int, int]]:
    """Pass (b): every (s, t) that ``dplus_condition`` accepts, in order of s.

    One sweep over the blocks, by the keys of the module docstring.
    """
    positive: list[tuple[int, int]] = []
    latest_end: dict[int, int] = {}  # j_t + 2t -> the latest such t
    latest_start: dict[int, int] = {}  # i_r + 2r -> the latest such r
    gaps = [0, 0]  # gaps[r]: how many q < r have j_{q+1} < i_q - 1
    prev_i = 0
    for s, (i, j) in enumerate(pairs, start=1):
        if s > 1:
            gaps.append(gaps[-1] + (j < prev_i - 1))
            t = latest_end.get(i + 2 * s - 1)
            if (
                t is not None
                and latest_start.get(i + 2 * s, 0) <= t
                and (
                    t == s - 1
                    or (
                        prev_i == i + 1
                        and pairs[t][1] == pairs[t - 1][1] - 1
                        and gaps[s - 1] == gaps[t + 1]
                    )
                )
            ):
                positive.append((s, t))
        latest_end[j + 2 * s] = s
        latest_start[i + 2 * s] = s
        prev_i = i
    return positive


def trace_candidates(w: FCElement) -> int:
    """How many candidate dots the trace of ``fc_to_diagram(w)`` lists.

    Counted by one untraced run of the passes, which add up the length of
    each candidate set as (c) and (d) choose from it, so the count costs a
    drawing and no trace.
    """
    return _draw(w, False)[2]


def fc_to_diagram(w: FCElement) -> tuple[Diagram, BijectionTrace]:
    """Draw the diagram of w directly from its canonical form, with its trace."""
    return _draw(w, True)[:2]


def diagram_of(w: FCElement) -> Diagram:
    """The diagram of w, drawn by the same passes without a trace."""
    return _draw(w, False)[0]


def _draw(w: FCElement, traced: bool) -> tuple[Diagram, BijectionTrace | None, int]:
    """The five passes, recording the trace only if ``traced``, and how
    many candidate dots the trace lists, whether recorded or not.

    Dot u is index u - 1 of the partner array on top and k + u - 1 below.
    The drawing must read back as w's own block list, which it always
    does for a canonical one; anything else means a bug somewhere and
    raises.
    """
    k = w.rank + 1
    pairs = w.pairs
    if not pairs:
        return Diagram.identity(k), BijectionTrace((), (), ()), 0
    p = len(pairs)
    partner = [-1] * (2 * k)

    # (b) positive arrows
    positive_pairs = _positive_pairs(pairs)
    for s, t in positive_pairs:
        tail, head = pairs[s - 1][0] - 1, k + pairs[t - 1][1]
        partner[tail], partner[head] = head, tail

    top_sets: list[tuple[tuple[int, ...], int | None]] = [((), None)] * p
    bottom_sets = top_sets.copy()
    dots = 0  # the length of every candidate set chosen from

    # (c) top arcs, first start first; a start is taken only by (b)
    free: list[int] = []  # free top dots of block r's range, descending
    above = pairs[0][1] + 2
    for r, (i, _) in enumerate(pairs):
        free.extend(range(above - 1, i, -1))
        above = i
        if partner[i - 1] < 0:
            dots += len(free)
            if traced:
                top_sets[r] = (tuple(reversed(free)), free[-1])
            f = free.pop()
            partner[i - 1], partner[f - 1] = f - 1, i - 1

    # (d) bottom arcs, last end first; a head dot is taken only by (b)
    free = []  # free bottom dots of block r's range, ascending
    below = pairs[-1][0]
    for r in range(p - 1, -1, -1):
        j = pairs[r][1]
        free.extend(range(below, j + 1))
        below = j + 2
        if partner[k + j] < 0:
            dots += len(free)
            if traced:
                bottom_sets[r] = (tuple(free), free[-1])
            g = free.pop()
            partner[k + j], partner[k + g - 1] = k + g - 1, k + j

    # (e) leftover strands, leftmost to leftmost, the verticals of (a) included
    y = k  # no bottom dot before y is free
    for x in range(k):
        if partner[x] < 0:
            while partner[y] >= 0:
                y += 1
            partner[x], partner[y] = y, x

    if block_pairs(k, partner) != pairs:
        raise FCDiagramError(f"the drawing of {w} does not read back as its blocks")
    trace = None
    if traced:
        trace = BijectionTrace(tuple(positive_pairs), tuple(top_sets), tuple(bottom_sets))
    return Diagram._trusted(k, tuple(partner)), trace, dots


def fc_to_diagram_reference(w: FCElement) -> Diagram:
    """Oracle: multiply out the canonical word as generator diagrams.

    A reduced word never closes a circle, so a nonzero loop count means a
    bug somewhere and raises.
    """
    k = w.rank + 1
    return _fold(w, Diagram.identity(k), (Diagram.generator(k, a) for a in w.word()))


def reference_drawings(rank: int) -> Iterator[tuple[FCElement, Diagram]]:
    """Oracle sweep: ``(w, fc_to_diagram_reference(w))`` in ``enumerate_fc`` order.

    ``enumerate_fc`` walks depth first, so the last element of size p-1
    yielded before an element w of size p is its parent, w without its
    last block.  The sweep keeps the drawings of that path and draws w
    by folding the parent's drawing with the generators of the last
    block, built once for the rank.  Every generator product it takes is
    one the per-element oracle takes too, so it raises at the same first
    element with the same message.
    """
    k = rank + 1
    generators = [Diagram.generator(k, a) for a in range(1, k)]
    path = [Diagram.identity(k)]  # path[q]: drawing of the current size-q prefix
    for w in enumerate_fc(rank):
        if w.pairs:
            del path[w.size :]
            i, j = w.pairs[-1]
            path.append(_fold(w, path[-1], generators[i - 1 : j]))
        yield w, path[-1]


def _fold(w: FCElement, diagram: Diagram, generators: Iterable[Diagram]) -> Diagram:
    """Concatenate ``generators`` below ``diagram``, raising if a circle closes."""
    total_loops = 0
    for generator in generators:
        diagram, loops = concatenate(diagram, generator)
        total_loops += loops
    if total_loops:
        raise UnexpectedLoopError(
            f"reduced word of {w} closed {total_loops} circles during concatenation"
        )
    return diagram


def diagram_to_fc(diagram: Diagram) -> FCElement:
    """Read the FC element off a diagram.

    A validated diagram is a non-crossing matching, so its block list is
    canonical by construction and is not revalidated.
    """
    return FCElement._trusted(diagram.strings - 1, block_pairs(diagram.strings, diagram.partner))


def block_pairs(strings: int, partner: Sequence[int]) -> tuple[Pair, ...]:
    """The canonical block list of the FC element whose diagram is ``partner``.

    The block starts are the rightward top tails in decreasing order and
    the block ends the shifted leftward bottom heads in decreasing order;
    pairing them up positionally always yields a valid canonical form of
    int pairs, which is why ``tl.monomial_product`` and
    :func:`diagram_to_fc` build their result with the unchecked
    constructor of :class:`FCElement`.  Both are read off the partner
    array in one pass over the columns: top dot x+1 starts a block when
    its partner lies to its right, on either row, and bottom dot (x+1)'
    ends block x when its partner lies to its left.  ``partner`` must be a
    diagram's partner array on ``strings`` strings, validated or straight
    from :func:`run_action`, or a drawing of the five passes: those read
    each drawing back through it and refuse one that does not give back
    the blocks it was drawn from, the guard on their unchecked
    :class:`Diagram`.
    """
    k = strings
    starts: list[int] = []
    ends: list[int] = []
    for x in range(k - 1, -1, -1):
        if partner[x] % k > x:
            starts.append(x + 1)
        if partner[k + x] % k < x:
            ends.append(x)
    return tuple(zip(starts, ends))
