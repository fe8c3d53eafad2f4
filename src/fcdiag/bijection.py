"""
The multiplication-compatible bijection between FC elements and diagrams.

There is exactly one bijection between FC elements of rank n and
non-crossing diagrams on n+1 strings under which monomial multiplication in
the Temperley-Lieb algebra becomes diagram concatenation.  It is pinned down
by a remarkable fact: the diagram of w is the unique non-crossing diagram
whose rightward top tails are the block starts {i_t} of w and whose shifted
leftward bottom heads are the block ends {j_t}.

Reading a diagram off (``diagram_to_fc``) is therefore immediate.  Drawing
the diagram of w takes one of three routes, each with its own role:

* ``diagram_of`` is the hot path.  It glues the generators of the canonical
  word one by one onto a partner array (:meth:`Diagram.from_word`), linear
  in the length, and raises if a circle closes, which a reduced word never
  does.  Products, the census and every trace-free CLI drawing use it.
* ``fc_to_diagram`` is the paper's direct algorithm, which places arrows in
  five passes:

  (a) vertical strands outside the active window, namely below the smallest
      start and above the largest end + 1;
  (b) the positive arrows (i_s, (j_t+1)'), found by the arithmetic
      predicate ``dplus_condition``;
  (c) the top arcs: (i_1, i_1+1) first, then for each later start not used
      by a positive arrow, the lowest free top dot to its right that is not
      itself a start;
  (d) the bottom arcs, mirrored: (j_p', (j_p+1)') first, then for each
      earlier end whose head dot is still free, the highest free bottom dot
      to its left that is not itself a shifted end;
  (e) whatever dots remain, joined left to right, lowest free top dot to
      lowest free bottom dot.

  Every run also returns a :class:`BijectionTrace` recording, for each
  block index r, the candidate sets from which the top and bottom partners
  were chosen; it is the only source of ``--trace`` output.  Tests assert
  the documented facts about these sets (a candidate set is empty exactly
  when a positive arrow consumed its dot; the chosen partner is the
  minimum, respectively maximum).
* ``fc_to_diagram_reference`` is the oracle: it multiplies out the
  canonical word as a stack of cup-cap generator diagrams with
  :func:`concatenate`, sharing no code with the kernel.  All three must
  agree everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

from .diagram import Diagram, concatenate
from .errors import IndexOutOfRangeError, UnexpectedLoopError
from .fc import FCElement, is_saturated_in


@dataclass(frozen=True)
class BijectionTrace:
    """Intermediate data of the direct drawing algorithm.

    ``positive_pairs`` lists the (s, t) block-index pairs that produced a
    positive arrow.  ``top_sets[r-1]`` is the candidate set for the top
    partner of start i_r together with the chosen dot (None when the set is
    empty), and ``bottom_sets[r-1]`` the same for end j_r.
    """

    positive_pairs: tuple[tuple[int, int], ...]
    top_sets: tuple[tuple[frozenset[int], int | None], ...]
    bottom_sets: tuple[tuple[frozenset[int], int | None], ...]

    def to_json(self) -> dict:
        return {
            "positive_pairs": [list(st) for st in self.positive_pairs],
            "top_sets": [
                {"candidates": sorted(a), "chosen": f} for a, f in self.top_sets
            ],
            "bottom_sets": [
                {"candidates": sorted(b), "chosen": g} for b, g in self.bottom_sets
            ],
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


def fc_to_diagram(w: FCElement) -> tuple[Diagram, BijectionTrace]:
    """Draw the diagram of w directly from its canonical form."""
    k = w.rank + 1
    if not w.pairs:
        return Diagram.identity(k), BijectionTrace((), (), ())

    starts = [i for i, _ in w.pairs]
    ends = [j for _, j in w.pairs]
    p = len(w.pairs)

    partner = [-1] * (2 * k)

    def top(i: int) -> int:
        return i - 1

    def bottom(i: int) -> int:
        return k + i - 1

    def join(a: int, b: int) -> None:
        partner[a], partner[b] = b, a

    def free(d: int) -> bool:
        return partner[d] == -1

    # (a) outer verticals
    for u in range(1, starts[-1]):
        join(top(u), bottom(u))
    for u in range(ends[0] + 2, k + 1):
        join(top(u), bottom(u))

    # (b) positive arrows, nearest eligible earlier block first
    positive_pairs: list[tuple[int, int]] = []
    for s in range(2, p + 1):
        for t in range(s - 1, 0, -1):
            if free(bottom(ends[t - 1] + 1)) and dplus_condition(w, s, t):
                join(top(starts[s - 1]), bottom(ends[t - 1] + 1))
                positive_pairs.append((s, t))
                break

    positive_tails = {starts[s - 1] for s, _ in positive_pairs}
    positive_heads = {ends[t - 1] + 1 for _, t in positive_pairs}
    start_set = set(starts)
    shifted_ends = {j + 1 for j in ends}

    # (c) top arcs
    join(top(starts[0]), top(starts[0] + 1))
    for r in range(2, p + 1):
        i_r = starts[r - 1]
        if i_r in positive_tails:
            continue
        f_r = next(
            x for x in range(i_r + 1, k + 1) if free(top(x)) and x not in start_set
        )
        join(top(i_r), top(f_r))

    # (d) bottom arcs
    join(bottom(ends[-1]), bottom(ends[-1] + 1))
    for r in range(p - 1, 0, -1):
        j_r = ends[r - 1]
        if j_r + 1 in positive_heads:
            continue
        g_r = next(
            x for x in range(j_r, 0, -1) if free(bottom(x)) and x not in shifted_ends
        )
        join(bottom(g_r), bottom(j_r + 1))

    # (e) leftover strands, leftmost to leftmost
    free_top = [x for x in range(1, k + 1) if free(top(x))]
    free_bottom = [x for x in range(1, k + 1) if free(bottom(x))]
    for a, b in zip(free_top, free_bottom, strict=True):
        join(top(a), bottom(b))

    diagram = Diagram(k, tuple(partner))
    trace = _build_trace(w, tuple(positive_pairs))
    return diagram, trace


def _build_trace(w: FCElement, positive_pairs: tuple[tuple[int, int], ...]) -> BijectionTrace:
    """Candidate sets of the drawing algorithm, computed in closed form."""
    starts = [i for i, _ in w.pairs]
    ends = [j for _, j in w.pairs]
    p = len(w.pairs)
    positive_tails = {starts[s - 1] for s, _ in positive_pairs}
    positive_heads = {ends[t - 1] + 1 for _, t in positive_pairs}

    top_sets: list[tuple[frozenset[int], int | None]] = []
    taken_f: set[int] = set()
    for r in range(1, p + 1):
        if r > 1 and starts[r - 1] in positive_tails:
            top_sets.append((frozenset(), None))
            continue
        cands = (
            frozenset(range(starts[r - 1] + 1, ends[0] + 2))
            - set(starts[: r - 1])
            - taken_f
        )
        f_r = min(cands) if cands else None
        if f_r is not None:
            taken_f.add(f_r)
        top_sets.append((cands, f_r))

    bottom_rev: list[tuple[frozenset[int], int | None]] = []
    taken_g: set[int] = set()
    for r in range(p, 0, -1):
        if r < p and ends[r - 1] + 1 in positive_heads:
            bottom_rev.append((frozenset(), None))
            continue
        cands = (
            frozenset(range(starts[-1], ends[r - 1] + 1))
            - {ends[s - 1] + 1 for s in range(r + 1, p + 1)}
            - taken_g
        )
        g_r = max(cands) if cands else None
        if g_r is not None:
            taken_g.add(g_r)
        bottom_rev.append((cands, g_r))

    return BijectionTrace(positive_pairs, tuple(top_sets), tuple(reversed(bottom_rev)))


def diagram_of(w: FCElement) -> Diagram:
    """The diagram of w, by the generator-action kernel and without a trace.

    A reduced word never closes a circle, so a nonzero loop count means a
    bug somewhere and raises.
    """
    diagram, loops = Diagram.from_word(w.rank + 1, w.word())
    if loops:
        raise UnexpectedLoopError(f"reduced word of {w} closed {loops} circles")
    return diagram


def fc_to_diagram_reference(w: FCElement) -> Diagram:
    """Oracle: multiply out the canonical word as generator diagrams.

    A reduced word never closes a circle, so a nonzero loop count means a
    bug somewhere and raises.
    """
    k = w.rank + 1
    diagram = Diagram.identity(k)
    total_loops = 0
    for a in w.word():
        diagram, loops = concatenate(diagram, Diagram.generator(k, a))
        total_loops += loops
    if total_loops:
        raise UnexpectedLoopError(
            f"reduced word of {w} closed {total_loops} circles during concatenation"
        )
    return diagram


def diagram_to_fc(diagram: Diagram) -> FCElement:
    """Read the FC element off a diagram.

    The block starts are the rightward top tails in decreasing order and
    the block ends the shifted leftward bottom heads in decreasing order;
    pairing them up positionally always yields a valid canonical form.
    Both are read off the partner array in one pass over the columns: top
    dot x+1 starts a block when its partner lies to its right, on either
    row, and bottom dot (x+1)' ends block x when its partner lies to its
    left.
    """
    k = diagram.strings
    partner = diagram.partner
    starts: list[int] = []
    ends: list[int] = []
    for x in range(k - 1, -1, -1):
        if partner[x] % k > x:
            starts.append(x + 1)
        if partner[k + x] % k < x:
            ends.append(x)
    return FCElement(k - 1, tuple(zip(starts, ends)))
