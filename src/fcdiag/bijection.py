"""
The multiplication-compatible bijection between FC elements and diagrams.

There is exactly one bijection between FC elements of rank n and
non-crossing diagrams on n+1 strings under which monomial multiplication in
the Temperley-Lieb algebra becomes diagram concatenation.  It is pinned down
by a remarkable fact: the diagram of w is the unique non-crossing diagram
whose rightward top tails are the block starts {i_t} of w and whose shifted
leftward bottom heads are the block ends {j_t}.

Reading a diagram off (``diagram_to_fc``) is therefore immediate: one pass
over the partner array (``block_pairs``).  Drawing the diagram of w takes
one of three routes, each with one job:

* ``diagram_of`` serves.  It glues the generators of the canonical word one
  by one onto a partner array (:func:`run_action`, fed the block list as
  ascending runs), linear in the length, validates the result as a
  :class:`Diagram`, and raises if a circle closes, which a reduced word
  never does.  Every trace-free CLI drawing uses it.  Products run the
  same kernel and read its bare partner list.
* ``fc_to_diagram`` reproduces the paper's direct algorithm, which places
  arrows in five passes:

  (a) vertical strands outside the active window, namely below the smallest
      start i_p and above the largest end + 1, j_1 + 1.  (e) draws them:
      (b)-(d) touch no dot outside i_p .. j_1 + 1 on either row, so these
      are the first and the last free dots of both rows;
  (b) the positive arrows (i_s, (j_t+1)'), one for each block s that has
      an earlier block t passing the paper's predicate ``dplus_condition``;
  (c) the top arcs, for r = 1..p: start i_r, unless a positive arrow took
      it, joins the lowest dot of its candidate set, the top dots
      i_r+1 .. j_1+1 less the earlier starts and the dots already taken
      by (c), so i_1 joins i_1+1;
  (d) the bottom arcs, mirrored for r = p..1: head dot (j_r+1)', unless a
      positive arrow took it, joins the highest dot of its candidate set,
      the bottom dots i_p' .. j_r' less the later shifted ends (j_s+1)'
      and the dots already taken by (d), so (j_p+1)' joins j_p';
  (e) whatever dots remain, joined left to right, lowest free top dot to
      lowest free bottom dot.

  Each pass is one sweep, so a drawing costs O(length + trace size):

  * (b) keys block t by j_t + 2t.  The predicate's spacing rule,
    j_t = i_s + 2(s-t) - 1, says that t lies under the key i_s + 2s - 1,
    and its minimality rule forbids another block of that key between t
    and s, so the one candidate for s is the latest t < s under it.  The
    other minimality rule forbids a block r between them with
    i_r + 2r = i_s + 2s: the latest such r < s, kept under that key, is
    at most t.  Saturation holds when s = t + 1, or when i_{s-1} = i_s + 1,
    j_{t+1} = j_t - 1 and no gap j_{r+1} < i_r - 1 lies strictly between,
    for t < r < r+1 < s, which a running count of gaps answers at once.
    Two blocks s never share a head t: the first would lie between the
    second and t under the same start key.
  * (c) keeps the free top dots of the current candidate range in a
    list, in descending order.  Moving to block r appends the dots
    i_{r-1}-1 .. i_r+1, the candidate set is the list as it stands, and
    the chosen dot is ``pop()``.  (d) keeps the bottom dots likewise, in
    ascending order, appending (j_{r+1}+2)' .. j_r'.  The trace records
    each candidate set as a tuple in ascending order: the top list
    reversed, the bottom list as it stands.

  ``dplus_condition`` states the predicate as the paper does and is kept
  for the checks; ``trace_candidates`` counts the dots a trace lists from
  pass (b) alone, in O(p), so that the CLI can bound ``--trace`` before
  drawing.  Passes (b), (c) and (d) record what they choose, and every run
  returns that record as a :class:`BijectionTrace`, the only source of
  ``--trace`` output.  The ``verify`` check ``bijection.trace-consistency``
  asserts the documented facts about it on both rows: a candidate set is
  empty exactly when a positive arrow took its dot, the chosen dot is the
  minimum (top) or maximum (bottom) of its set and is the partner in the
  drawn diagram, and each positive pair is a drawn arrow that passes
  ``dplus_condition``.  The tests compare every drawing and trace with a
  literal transcription of the five passes that calls the predicate on
  every pair.
* ``fc_to_diagram_reference`` checks.  It multiplies out the canonical word
  as a stack of cup-cap generator diagrams with :func:`concatenate`,
  sharing no code with the kernel.  ``reference_drawings`` runs the same
  oracle over a whole rank: it draws each element by extending its
  parent's drawing with the last block, so each generator product is
  taken once per rank rather than once per element containing it.  Both
  entry points share one fold and its circle check.  The ``verify`` check
  ``bijection.oracle-equivalence`` asserts, over that sweep, that all
  three routes agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .diagram import Diagram, concatenate, run_action
from .errors import IndexOutOfRangeError, UnexpectedLoopError
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
    """
    p = w.size
    if not 1 <= t < s <= p:
        raise IndexOutOfRangeError(f"need 1 <= t < s <= {p}, got s={s}, t={t}")
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

    Counted in O(p) without drawing: block r's top set holds the
    j_1 + 1 - i_r dots of its range less the r - 1 earlier starts and the
    dots that (c) took before it, and its bottom set the j_r - i_p + 1
    dots of its range less the p - r later shifted ends and the dots that
    (d) took before it.
    """
    pairs = w.pairs
    if not pairs:
        return 0
    positive = _positive_pairs(pairs)
    tails = {s for s, _ in positive}
    heads = {t for _, t in positive}
    p = len(pairs)
    top_end = pairs[0][1] + 1
    bottom_start = pairs[-1][0]
    total = taken = 0
    for r, (i, _) in enumerate(pairs, start=1):
        if r not in tails:
            total += top_end - i - (r - 1) - taken
            taken += 1
    taken = 0
    for r in range(p, 0, -1):
        if r not in heads:
            total += pairs[r - 1][1] - bottom_start + 1 - (p - r) - taken
            taken += 1
    return total


def fc_to_diagram(w: FCElement) -> tuple[Diagram, BijectionTrace]:
    """Draw the diagram of w directly from its canonical form, with its trace.

    Dot u is index u - 1 of the partner array on top and k + u - 1 below.
    """
    k = w.rank + 1
    pairs = w.pairs
    if not pairs:
        return Diagram.identity(k), BijectionTrace((), (), ())
    p = len(pairs)
    partner = [-1] * (2 * k)

    # (b) positive arrows
    positive_pairs = _positive_pairs(pairs)
    for s, t in positive_pairs:
        tail, head = pairs[s - 1][0] - 1, k + pairs[t - 1][1]
        partner[tail], partner[head] = head, tail

    top_sets: list[tuple[tuple[int, ...], int | None]] = [((), None)] * p
    bottom_sets = top_sets.copy()

    # (c) top arcs, first start first; a start is taken only by (b)
    free: list[int] = []  # free top dots of block r's range, descending
    above = pairs[0][1] + 2
    for r, (i, _) in enumerate(pairs):
        free.extend(range(above - 1, i, -1))
        above = i
        if partner[i - 1] < 0:
            cands = tuple(reversed(free))
            f = free.pop()
            partner[i - 1], partner[f - 1] = f - 1, i - 1
            top_sets[r] = (cands, f)

    # (d) bottom arcs, last end first; a head dot is taken only by (b)
    free = []  # free bottom dots of block r's range, ascending
    below = pairs[-1][0]
    for r in range(p - 1, -1, -1):
        j = pairs[r][1]
        free.extend(range(below, j + 1))
        below = j + 2
        if partner[k + j] < 0:
            cands = tuple(free)
            g = free.pop()
            partner[k + j], partner[k + g - 1] = k + g - 1, k + j
            bottom_sets[r] = (cands, g)

    # (e) leftover strands, leftmost to leftmost, the verticals of (a) included
    free_top = [x for x in range(k) if partner[x] < 0]
    free_bottom = [y for y in range(k, 2 * k) if partner[y] < 0]
    for x, y in zip(free_top, free_bottom, strict=True):
        partner[x], partner[y] = y, x

    trace = BijectionTrace(tuple(positive_pairs), tuple(top_sets), tuple(bottom_sets))
    return Diagram(k, tuple(partner)), trace


def diagram_of(w: FCElement) -> Diagram:
    """The diagram of w, by the generator-action kernel and without a trace.

    A reduced word never closes a circle, so a nonzero loop count means a
    bug somewhere and raises.
    """
    partner, loops = run_action(w.rank + 1, w.pairs)
    if loops:
        raise UnexpectedLoopError(f"reduced word of {w} closed {loops} circles")
    return Diagram(w.rank + 1, partner)


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
    int pairs, which is why its two callers, ``tl.monomial_product`` and
    :func:`diagram_to_fc`, build their result with the unchecked
    constructor of :class:`FCElement`.  Both are read off the partner
    array in one pass over the columns: top dot x+1 starts a block when
    its partner lies to its right, on either row, and bottom dot (x+1)'
    ends block x when its partner lies to its left.  ``partner`` must be a
    diagram's partner array on ``strings`` strings, validated or straight
    from :func:`run_action`.
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
