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
      start i_p and above the largest end + 1, j_1 + 1;
  (b) the positive arrows (i_s, (j_t+1)'), found by the arithmetic
      predicate ``dplus_condition``;
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

  Passes (b), (c) and (d) record what they choose, and every run returns
  that record as a :class:`BijectionTrace`, the only source of ``--trace``
  output.  The ``verify`` check ``bijection.trace-consistency`` asserts the
  documented facts about it on both rows: a candidate set is empty exactly
  when a positive arrow took its dot, the chosen dot is the minimum (top)
  or maximum (bottom) of its set and is the partner in the drawn diagram,
  and each positive pair is a drawn arrow that passes ``dplus_condition``.
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
    """Draw the diagram of w directly from its canonical form, with its trace."""
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
    top_sets: list[tuple[frozenset[int], int | None]] = [(frozenset(), None)] * p
    bottom_sets = top_sets.copy()

    # (c) top arcs, first start first; each takes the lowest candidate
    taken: set[int] = set()
    for r in range(p):
        i_r = starts[r]
        if i_r in positive_tails:
            continue
        cands = frozenset(range(i_r + 1, ends[0] + 2)).difference(starts[:r], taken)
        f_r = min(cands)
        taken.add(f_r)
        join(top(i_r), top(f_r))
        top_sets[r] = (cands, f_r)

    # (d) bottom arcs, last end first; each takes the highest candidate
    taken.clear()
    for r in range(p - 1, -1, -1):
        j_r = ends[r]
        if j_r + 1 in positive_heads:
            continue
        cands = frozenset(range(starts[-1], j_r + 1)).difference(
            [j + 1 for j in ends[r + 1 :]], taken
        )
        g_r = max(cands)
        taken.add(g_r)
        join(bottom(g_r), bottom(j_r + 1))
        bottom_sets[r] = (cands, g_r)

    # (e) leftover strands, leftmost to leftmost
    free_top = [x for x in range(1, k + 1) if free(top(x))]
    free_bottom = [x for x in range(1, k + 1) if free(bottom(x))]
    for a, b in zip(free_top, free_bottom, strict=True):
        join(top(a), bottom(b))

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
