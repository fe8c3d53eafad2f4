"""The property catalogue behind the CLI ``verify`` subcommand.

Each check states one documented invariant at one rank.  It is a generator
``fn(n)`` that yields a message for every failing case at rank ``n``, and it
is registered with :func:`_check` under its suite, its name and its rank
range.  A range is either capped by ``--max-n`` (the enumeration and
sampling sweeps) or fixed (the closed-form identities in ``counting``).
Diagram checks run on ``n + 1`` strings, so their rank is the rank of
``W(A_n)``.  The two triple checks share ``TRIPLE_SAMPLES`` equally among
the ranks of their uncapped range: a rank with no more triples than its
share runs every triple, a larger one draws its share from one RNG seeded
by the rank.

One runner reports, for each check, the first counterexample over its ranks
in increasing order (a domain error the library raises counts as one, and
the run goes on with the next check), or a skip when ``--max-n`` leaves it
no rank.  :func:`run_suites` runs the named suites, each name once in the
order first given and each suite's checks in catalogue order;
``SUITES`` maps each suite name to the same runner for that suite alone.
The same catalogue is run case by case by pytest: every (check, rank) pair
at the CLI default ``--max-n``, and the acceptance tests at their own
ranks, each pair evaluated once per test session.  Checks share no state,
so the output is deterministic for a fixed ``max_n``.

Each call builds one job list of every requested check that has a rank,
and runs it in the calling process and in helpers forked once for the
call, one per CPU the process may use beyond its own, at most one fewer
than the jobs; where ``fork`` is missing, one CPU is free or another
thread runs, the caller runs them all.  Each process takes the next job
from one shared pipe.  A helper starts from the caller's state at the
fork, patches included, sends back a record per job (the verdict and the
seconds the check took in that helper) and ends with ``os._exit``; the
caller reaps every helper before it returns or raises.  Since no verdict
depends on the process that reached it, and the runner lists them in
request order, the output is the one-process output.  A check that raises
anything but a domain error is run again in the caller, in request order,
so the same exception and traceback surface as in one process.
"""

from __future__ import annotations

import functools
import itertools
import marshal
import os
import random
import signal
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import BinaryIO, Callable, Iterable, Iterator, NoReturn

from . import counting, lattice, tl
from .bijection import (
    diagram_of,
    diagram_to_fc,
    dplus_condition,
    fc_to_diagram,
    reference_drawings,
)
from .diagram import Arrow, Diagram, concatenate, enumerate_diagrams, run_action
from .errors import FCDiagramError
from .fc import (
    Classification,
    FCElement,
    enumerate_fc,
    inversions,
    is_321_avoiding,
    perm_left_descents,
    perm_right_descents,
)

TRIPLE_SAMPLES = 10_000


@dataclass
class CheckResult:
    suite: str
    name: str
    status: str  # PASS, FAIL, or SKIP when no rank of the check ran
    detail: str = ""
    # the check's time in the process that ran it, helper or caller; 0 for a SKIP
    seconds: float = field(default=0.0, compare=False)


@dataclass(frozen=True)
class Check:
    suite: str
    name: str
    cases: Callable[[int], Iterator[str]]
    first: int
    last: int
    capped: bool

    def ranks(self, max_n: int) -> range:
        """The ranks this check covers under ``--max-n max_n``."""
        return range(self.first, (min(self.last, max_n) if self.capped else self.last) + 1)

    def counterexample(self, ranks: Iterable[int]) -> str | None:
        """The first failure over ``ranks`` in order, or None if all hold.

        A domain error raised while checking a rank is that rank's
        failure, reported with the error's class and message.
        """
        for n in ranks:
            try:
                for message in self.cases(n):
                    return message
            except FCDiagramError as exc:
                return f"rank {n}: {type(exc).__name__}: {exc}"
        return None


CATALOGUE: dict[str, Check] = {}


def _check(suite: str, name: str, first: int, last: int, *, capped: bool = True):
    """Register a check of ranks ``first..last`` (``last`` capped by ``--max-n``)."""

    def register(fn: Callable[[int], Iterator[str]]):
        CATALOGUE[f"{suite}.{name}"] = Check(suite, name, fn, first, last, capped)
        return fn

    return register


def _sample_triples(pool: list, n: int, ranks: int) -> Iterator[tuple]:
    """Triples from ``pool`` at rank ``n``: every one, or a seeded sample.

    Each of the check's ``ranks`` ranks gets an equal share of
    ``TRIPLE_SAMPLES``, rounded up.  A pool with at most that many triples
    yields all of them; a larger one draws its share at random, seeded
    by ``n``.
    """
    share = -(-TRIPLE_SAMPLES // ranks)
    if len(pool) ** 3 <= share:
        yield from itertools.product(pool, repeat=3)
        return
    rng = random.Random(n)
    for _ in range(share):
        yield rng.choice(pool), rng.choice(pool), rng.choice(pool)


# ----------------------------------------------------------------------
# fc


@_check("fc", "catalan-count", 0, 10)
def _fc_catalan_count(n):
    got = sum(1 for _ in enumerate_fc(n))
    want = counting.catalan(n + 1)
    if got != want:
        yield f"rank {n}: {got} elements, expected catalan({n + 1}) = {want}"


@_check("fc", "dual-involution", 0, 10)
def _dual_involution(n):
    for w in enumerate_fc(n):
        d = w.dual()
        if d.dual() != w or d.size != n - w.size:
            yield f"{w}: dual not involutive or wrong size"
        elif w.length() - d.length() != 2 * w.size - n:
            yield f"{w}: length difference is not 2p - n"


def _by_pairs(elements) -> list[FCElement]:
    return sorted(elements, key=lambda w: w.pairs)


@_check("fc", "shrink-bijection", 1, 9)
def _shrink_bijection(n):
    thick = [w for w in enumerate_fc(n) if w.classify() is Classification.THICK]
    images = [w.shrink() for w in thick]
    target = [w for w in enumerate_fc(n - 1) if not w.is_identity()]
    if _by_pairs(images) != _by_pairs(target):
        yield f"rank {n}: shrink is not onto the nonidentity elements of rank {n - 1}"
    for w, v in zip(thick, images):
        if v.size != w.size or w.length() != v.length() + w.size or v.grow() != w:
            yield f"{w}: shrink image {v} breaks size/length/inverse"


@_check("fc", "descent-formulas", 1, 8)
def _descent_formulas(n):
    for w in enumerate_fc(n):
        if w.is_identity():
            continue
        perm = w.to_permutation()
        if w.length() != inversions(perm):
            yield f"{w}: length differs from inversion count"
        elif w.left_descents() != perm_left_descents(perm):
            yield f"{w}: left descents differ from the permutation test"
        elif w.right_descents() != perm_right_descents(perm):
            yield f"{w}: right descents differ from the permutation test"


@_check("fc", "partition-thick-slim", 1, 8)
def _partition_thick_slim(n):
    by_class: dict[Classification, list[FCElement]] = {c: [] for c in Classification}
    for w in enumerate_fc(n):
        by_class[w.classify()].append(w)
    if len(by_class[Classification.IDENTITY]) != 1:
        yield f"rank {n}: identity counted {len(by_class[Classification.IDENTITY])} times"
    slim = by_class[Classification.SLIM]
    # each slim element is (shifted thick) * e_i * (element of rank i - 1)
    built: list[FCElement] = []
    for i in range(1, n + 1):
        shifted_thick = [()] + [
            tuple((a + i, b + i) for a, b in g.pairs)
            for g in enumerate_fc(n - i)
            if g.classify() is Classification.THICK
        ]
        tails = [d.pairs for d in enumerate_fc(i - 1)]
        for left in shifted_thick:
            for right in tails:
                built.append(FCElement(n, left + ((i, i),) + right))
    if _by_pairs(built) != _by_pairs(slim):
        yield f"rank {n}: slim reconstruction does not hit each slim element once"
    if len(built) != len(set(built)):
        yield f"rank {n}: slim reconstruction produced duplicates"


@_check("fc", "delta-involution", 1, 8)
def _delta_involution(n):
    for w in enumerate_fc(n):
        dd = w.delta_involution()
        if dd.delta_involution() != w:
            yield f"{w}: delta_involution is not an involution"
        elif not w.is_identity():
            reflected = frozenset(n + 1 - s for s in w.left_descents())
            if dd.right_descents() != reflected:
                yield f"{w}: delta_involution does not reflect left descents"


@_check("fc", "permutations-321", 1, 7)
def _permutations_321(n):
    perms = [w.to_permutation() for w in enumerate_fc(n)]
    if len(set(perms)) != len(perms):
        yield f"rank {n}: permutation images collide"
    if not all(is_321_avoiding(p) for p in perms):
        yield f"rank {n}: some image contains a 321 pattern"
    avoiders = sum(1 for p in itertools.permutations(range(1, n + 2)) if is_321_avoiding(p))
    if avoiders != len(perms):
        yield f"rank {n}: {avoiders} avoiders but {len(perms)} FC elements"


# ----------------------------------------------------------------------
# counting


@_check("counting", "catalan-convolution", 0, 100, capped=False)
def _catalan_convolution(m):
    """The recurrence that defines C_{m+1}, against the served closed form."""
    if counting.catalan(m + 1) != sum(
        counting.catalan(a) * counting.catalan(m - a) for a in range(m + 1)
    ):
        yield f"m={m}: catalan({m + 1}) is not the convolution of catalan(0..{m})"


@_check("counting", "narayana-row-sums", 0, 20, capped=False)
def _narayana_row_sums(n):
    if sum(counting.narayana(n, p) for p in range(n + 1)) != counting.catalan(n + 1):
        yield f"n={n}: Narayana row does not sum to catalan({n + 1})"


@_check("counting", "narayana-symmetry", 0, 20, capped=False)
def _narayana_symmetry(n):
    for p in range(n + 1):
        if counting.narayana(n, p) != counting.narayana(n, n - p):
            yield f"(n,p)=({n},{p}): symmetry fails"


@_check("counting", "triangle-recurrence", 1, 15, capped=False)
def _triangle_recurrence(n):
    for i in range(1, n + 1):
        lhs = counting.triangle_start(n, i)
        if lhs != counting.triangle_start(n, i - 1) + counting.triangle_start(n - 1, i):
            yield f"(n,i)=({n},{i}): triangle recurrence fails"
        elif lhs != sum(counting.triangle_start(n - 1, k) for k in range(i + 1)):
            yield f"(n,i)=({n},{i}): column-sum recurrence fails"


@_check("counting", "thick-slim-recurrence", 1, 12, capped=False)
def _thick_slim_recurrence(n):
    for p in range(1, n + 1):
        rhs = (
            counting.narayana(n - 1, p)
            + counting.narayana(n - 1, p - 1)
            + sum(
                counting.narayana(n - i - 1, r - 1) * counting.narayana(i - 1, p - r)
                for r in range(1, p + 1)
                for i in range(1, n)
            )
        )
        if counting.narayana(n, p) != rhs:
            yield f"(n,p)=({n},{p}): thick/slim recurrence fails"


@_check("counting", "mixed-recurrence", 1, 12, capped=False)
def _mixed_recurrence(n):
    for i in range(1, n + 1):
        rhs = counting.catalan(i) + sum(
            counting.triangle_start(n - k - 1, i - k) * counting.catalan(k) for k in range(i)
        )
        if counting.triangle_start(n, i) != rhs:
            yield f"(n,i)=({n},{i}): mixed recurrence fails"


@_check("counting", "triangle-row-sums", 0, 15, capped=False)
def _triangle_row_sums(n):
    if counting.catalan(n + 1) != sum(counting.triangle_start(n, i) for i in range(n + 1)):
        yield f"n={n}: triangle rows do not sum to catalan({n + 1})"


@_check("counting", "formulas-vs-enumeration", 0, 10)
def _formulas_vs_enumeration(n):
    """Every refined count against one brute-force enumeration pass."""
    size, start, end, first, last, start_size, size_end, start_end = (
        Counter() for _ in range(8)
    )
    for w in enumerate_fc(n):
        size[w.size] += 1
        if w.pairs:
            (i1, j1), (ip, jp) = w.pairs[0], w.pairs[-1]
            start[i1] += 1
            end[jp] += 1
            first[i1, j1] += 1
            last[ip, jp] += 1
            start_size[i1, w.size] += 1
            size_end[w.size, jp] += 1
            start_end[i1, jp] += 1
    for p in range(n + 1):
        if counting.narayana(n, p) != size[p]:
            yield f"narayana({n},{p}) != brute count {size[p]}"
    for i in range(1, n + 1):
        if counting.triangle_start(n, i) != start[i]:
            yield f"triangle_start({n},{i}) != brute count {start[i]}"
        if counting.triangle_end(n, i) != end[i]:
            yield f"triangle_end({n},{i}) != brute count {end[i]}"
    for i, j in itertools.product(range(1, n + 1), repeat=2):
        if i <= j and counting.count_first_block(n, i, j) != first[i, j]:
            yield f"count_first_block({n},{i},{j}) != brute count"
        if i <= j and counting.count_last_block(n, i, j) != last[i, j]:
            yield f"count_last_block({n},{i},{j}) != brute count"
        got = counting.count_start_end(n, i, j)
        if got.value != start_end[i, j]:
            yield f"count_start_end({n},{i},{j}) != brute count"
        if not got.closed_form:
            yield f"count_start_end({n},{i},{j}): wrong closed-form flag"
    for i, p in itertools.product(range(1, n + 1), repeat=2):
        if counting.count_start_size(n, i, p) != start_size[i, p]:
            yield f"count_start_size({n},{i},{p}) != brute count"
        if counting.count_size_end(n, p, i) != size_end[p, i]:
            yield f"count_size_end({n},{p},{i}) != brute count"


def _chain_column(n: int, i: int) -> list[int]:
    """Block chains [i,b_1][a_2,b_2]...[a_p,b] of rank n, counted by end b.

    N(a, b), the chains with first start i and last block [a, b], is
    [a = i] plus the sum of N(a', b') over a < a' <= i and b' > b.  Rows
    run from a = i down to 1; ``column[b]`` sums N(a', b) over the rows
    done and ``above`` their entries right of b: O(i*n) additions.
    """
    column = [0] * (n + 1)
    for a in range(i, 0, -1):
        above = 0
        for b in range(n, a - 1, -1):
            here = above + (a == i)
            above += column[b]
            column[b] += here
    return column


@_check("counting", "start-end-vs-chains", 1, 40, capped=False)
def _start_end_vs_chains(n):
    """Every start-end cell against the block-chain recurrence."""
    for i in range(1, n + 1):
        chains = _chain_column(n, i)
        for j in range(1, n + 1):
            if counting.count_start_end(n, i, j).value != chains[j]:
                yield f"count_start_end({n},{i},{j}) != chain count {chains[j]}"


@_check("counting", "binomial-identity", 0, 30, capped=False)
def _binomial_identity(n):
    for p in range(n + 1):
        if not counting.appendix_binomial_identity_check(n, p):
            yield f"(n,p)=({n},{p}): binomial identity fails"


# ----------------------------------------------------------------------
# diagram: rank n means n + 1 strings


@_check("diagram", "catalan-count", 0, 9)
def _diagram_catalan_count(n):
    k = n + 1
    diagrams = list(enumerate_diagrams(k))
    if len(diagrams) != counting.catalan(k):
        yield f"{k} strings: {len(diagrams)} diagrams, expected catalan({k})"
    if len(set(diagrams)) != len(diagrams):
        yield f"{k} strings: duplicate diagrams emitted"


@_check("diagram", "identity-neutral", 0, 6)
def _identity_neutral(n):
    k = n + 1
    e = Diagram.identity(k)
    for d in enumerate_diagrams(k):
        if concatenate(e, d) != (d, 0) or concatenate(d, e) != (d, 0):
            yield f"{k} strings: identity is not neutral on {d}"


@_check("diagram", "loop-additivity", 1, 8)
def _loop_additivity(n):
    for d1, d2, d3 in _sample_triples(list(enumerate_diagrams(n + 1)), n, ranks=8):
        left, m12 = concatenate(d1, d2)
        left, m_l = concatenate(left, d3)
        right, m23 = concatenate(d2, d3)
        right, m_r = concatenate(d1, right)
        if left != right or m12 + m_l != m23 + m_r:
            yield f"associativity fails for {d1}, {d2}, {d3}"


def _rebuild_from_arcs(strings, top_arcs, bottom_arcs) -> Diagram:
    """Left-to-right rule: join free top dots to free bottom dots in order."""
    partner = [-1] * (2 * strings)
    for x, y in list(top_arcs) + list(bottom_arcs):
        partner[x], partner[y] = y, x
    free_top = [d for d in range(strings) if partner[d] == -1]
    free_bottom = [d for d in range(strings, 2 * strings) if partner[d] == -1]
    for a, b in zip(free_top, free_bottom, strict=True):
        partner[a], partner[b] = b, a
    return Diagram(strings, tuple(partner))


@_check("diagram", "arc-reconstruction", 0, 8)
def _arc_reconstruction(n):
    for d in enumerate_diagrams(n + 1):
        comp = d.components()
        if len(comp.top_arcs) != len(comp.bottom_arcs):
            yield f"{d}: unequal top and bottom arc counts"
        elif _rebuild_from_arcs(n + 1, comp.top_arcs, comp.bottom_arcs) != d:
            yield f"{d}: reconstruction from row arcs differs"


@_check("diagram", "arc-persistence", 0, 5)
def _arc_persistence(n):
    """Closure and row arcs: each product is a diagram, and it keeps the
    top arcs of the upper factor and the bottom arcs of the lower one.

    ``concatenate`` builds its product unchecked, so the validating
    constructor is run on every product here.
    """
    comps = {d: d.components() for d in enumerate_diagrams(n + 1)}
    for d1, d2 in itertools.product(comps, repeat=2):
        product = concatenate(d1, d2)[0]
        try:
            Diagram(product.strings, product.partner)
        except FCDiagramError as exc:
            yield f"{d1} * {d2} is not a diagram: {exc}"
            continue
        pc = product.components()
        if not comps[d1].top_arcs <= pc.top_arcs:
            yield f"top arcs of {d1} lost in {d1} * {d2}"
        elif not comps[d2].bottom_arcs <= pc.bottom_arcs:
            yield f"bottom arcs of {d2} lost in {d1} * {d2}"


@_check("diagram", "flip-involutions", 0, 7)
def _flip_involutions(n):
    for d in enumerate_diagrams(n + 1):
        if d.flip_vertical().flip_vertical() != d:
            yield f"{d}: vertical flip is not an involution"
        elif d.flip_horizontal().flip_horizontal() != d:
            yield f"{d}: horizontal flip is not an involution"


# ----------------------------------------------------------------------
# bijection


@_check("bijection", "roundtrips", 0, 9)
def _roundtrips(n):
    # The diagram sweep runs only when every element roundtrip held, and
    # then redrawing a drawn diagram returns it: only the others are drawn.
    images = set()
    for w in enumerate_fc(n):
        drawn = fc_to_diagram(w)[0]
        images.add(drawn.partner)
        if diagram_to_fc(drawn) != w:
            yield f"{w}: element roundtrip fails"
    for d in enumerate_diagrams(n + 1):
        if d.partner not in images and fc_to_diagram(diagram_to_fc(d))[0] != d:
            yield f"{d}: diagram roundtrip fails"


def _kernel_partner(w: FCElement) -> tuple[int, ...] | None:
    """The partner array that the generator-action kernel glues from the
    blocks of w, or None if a circle closed, which a reduced word never
    does.  It shares no code with the five passes."""
    partner, loops = run_action(w.rank + 1, w.pairs)
    return None if loops else tuple(partner)


@_check("bijection", "oracle-equivalence", 0, 8)
def _oracle_equivalence(n):
    """Three independent drawing routes: five-pass, concatenation oracle, kernel."""
    for w, reference in reference_drawings(n):
        drawn = fc_to_diagram(w)[0]
        if drawn != reference:
            yield f"{w}: direct algorithm differs from concatenation oracle"
        elif drawn.partner != _kernel_partner(w):
            yield f"{w}: kernel differs from direct algorithm"


@_check("bijection", "uniqueness", 0, 6)
def _uniqueness(n):
    sharing = Counter()
    for d in enumerate_diagrams(n + 1):
        comp = d.components()
        sharing[comp.starts, comp.ends] += 1
    for w in enumerate_fc(n):
        hits = sharing[frozenset(i for i, _ in w.pairs), frozenset(j for _, j in w.pairs)]
        if hits != 1:
            yield f"{w}: {hits} diagrams share its start/end data"


@_check("bijection", "multiplication-compatible", 0, 5)
def _multiplication_compatible(n):
    diagrams = {w: diagram_of(w) for w in enumerate_fc(n)}
    for w1, w2 in itertools.product(diagrams, repeat=2):
        prod, loops = concatenate(diagrams[w1], diagrams[w2])
        w3, m = tl.monomial_product(w1, w2)
        if m != loops or diagrams[w3] != prod:
            yield f"{w1} * {w2}: diagram product disagrees"


def _trace_faults(
    w: FCElement, drawn: Diagram, trace, positive: frozenset[Arrow]
) -> Iterator[str]:
    """Where the trace of drawing ``w`` as ``drawn`` breaks the paper's rules.

    ``positive`` is ``drawn.components().positive``, which the caller has
    at hand.

    On each row, block r's candidate set is empty exactly when a positive
    arrow of ``drawn`` took its dot (start i_r on top, (j_r+1)' below);
    otherwise the chosen dot is the set's minimum (top) or maximum (bottom)
    and is that dot's partner in ``drawn``.  The positive pairs are exactly
    the positive arrows of ``drawn``, and each passes ``dplus_condition``.
    """
    k = w.rank + 1
    tails = {x for x, _ in positive}
    heads = {y for _, y in positive}
    for r, (i, j) in enumerate(w.pairs, start=1):
        cands, f = trace.top_sets[r - 1]
        if (not cands) != (i - 1 in tails):
            yield f"{w}: empty top candidate set mismatch at block {r}"
        elif cands and f != min(cands):
            yield f"{w}: chosen top partner is not minimal at block {r}"
        elif cands and drawn.partner[i - 1] != f - 1:
            yield f"{w}: start {i} is not joined to its chosen top dot {f}"
        cands, g = trace.bottom_sets[r - 1]
        if (not cands) != (k + j in heads):
            yield f"{w}: empty bottom candidate set mismatch at block {r}"
        elif cands and g != max(cands):
            yield f"{w}: chosen bottom partner is not maximal at block {r}"
        elif cands and drawn.partner[k + j] != k + g - 1:
            yield f"{w}: bottom dot {j + 1}' is not joined to its chosen dot {g}'"
    pairs = {(w.pairs[s - 1][0] - 1, k + w.pairs[t - 1][1]) for s, t in trace.positive_pairs}
    if pairs != positive:
        yield f"{w}: positive pairs differ from the drawn positive arrows"
    for s, t in trace.positive_pairs:
        if not dplus_condition(w, s, t):
            yield f"{w}: drawn positive arrow ({s},{t}) fails the predicate"


@_check("bijection", "trace-consistency", 0, 8)
def _trace_consistency(n):
    for w in enumerate_fc(n):
        d, trace = fc_to_diagram(w)
        parts = d.components()
        if parts.size != w.size:
            yield f"{w}: diagram size differs from element size"
        elif d.flip_vertical().flip_horizontal().partner != _kernel_partner(w.delta_involution()):
            yield f"{w}: rotation does not match delta_involution"
        else:
            yield from _trace_faults(w, d, trace, parts.positive)


# ----------------------------------------------------------------------
# tl


@_check("tl", "presentation-relations", 1, 10)
def _presentation_relations(n):
    gens = [FCElement(n, ((i, i),)) for i in range(1, n + 1)]
    for i, ei in enumerate(gens, start=1):
        if tl.monomial_product(ei, ei) != (ei, 1):
            yield f"n={n}: e_{i}^2 != delta e_{i}"
        for j, ej in enumerate(gens, start=1):
            if abs(i - j) == 1:
                w1, m1 = tl.monomial_product(ei, ej)
                w2, m2 = tl.monomial_product(w1, ei)
                if (w2, m1 + m2) != (ei, 0):
                    yield f"n={n}: e_{i} e_{j} e_{i} != e_{i}"
            elif i != j and tl.monomial_product(ei, ej) != tl.monomial_product(ej, ei):
                yield f"n={n}: e_{i} and e_{j} do not commute"


@_check("tl", "associativity", 1, 6)
def _tl_associativity(n):
    monomials = [tl.TLElement.monomial(v) for v in enumerate_fc(n)]
    for x, y, z in _sample_triples(monomials, n, ranks=6):
        if (x * y) * z != x * (y * z):
            yield f"associativity fails at rank {n}"


@_check("tl", "descents-three-ways", 1, 8)
def _descents_three_ways(n):
    for w in enumerate_fc(n):
        if w.is_identity():
            continue
        left, right = tl.descents_from_diagram(diagram_of(w))
        perm = w.to_permutation()
        if left != w.left_descents() or right != w.right_descents():
            yield f"{w}: diagram descents differ from canonical-form descents"
        elif left != perm_left_descents(perm) or right != perm_right_descents(perm):
            yield f"{w}: diagram descents differ from the permutation test"


@_check("tl", "census", 1, 7)
def _census(n):
    # every diagram on n+1 strings, keyed and grouped by the size of its element
    recount: dict[int, Counter] = {}
    for d in enumerate_diagrams(n + 1):
        recount.setdefault(diagram_to_fc(d).size, Counter())[tl.equivalence_key(d)] += 1
    for p in range(n + 1):
        classes = tl.census(n, p)
        of_size = recount.get(p, Counter())
        if sum(size for _, size in classes) != counting.narayana(n, p):
            yield f"(n,p)=({n},{p}): class sizes do not sum to the Narayana number"
        if [key for key, _ in classes] != sorted(of_size):
            yield f"(n,p)=({n},{p}): class keys differ from the diagram recount"
        for key, size in classes:
            if size != of_size[key]:
                yield f"(n,p)=({n},{p}): class size differs from diagram recount"
            elif size != tl.expected_class_size(n + 1, key):
                yield f"(n,p)=({n},{p}): class size is not the Catalan gap product"


# ----------------------------------------------------------------------
# lattice


@_check("lattice", "path-ballot-roundtrips", 0, 9)
def _path_ballot_roundtrips(n):
    for w in enumerate_fc(n):
        path = lattice.fc_to_dyck(w)
        ballot = lattice.dyck_to_ballot(path)
        if lattice.dyck_to_fc(path) != w:
            yield f"{w}: path roundtrip fails"
        elif lattice.ballot_to_dyck(ballot) != path:
            yield f"{w}: ballot roundtrip fails"


@_check("lattice", "readings-disagree", 2, 8)
def _readings_disagree(n):
    if all(
        lattice.diagram_to_ballot(diagram_of(w)) == lattice.fc_to_ballot(w)
        for w in enumerate_fc(n)
    ):
        yield f"rank {n}: tail/head reading agrees with the block ballot everywhere"


@_check("lattice", "diagram-ballot-bijective", 0, 8)
def _diagram_ballot_bijective(n):
    k = n + 1
    ballots = []
    for d in enumerate_diagrams(k):
        ballot = lattice.diagram_to_ballot(d)
        if len(ballot.signs) != 2 * k:
            yield f"{d}: tail/head reading {ballot} has {len(ballot.signs)} signs, not {2 * k}"
        ballots.append(ballot)
    if len(set(ballots)) != len(ballots) or len(ballots) != counting.catalan(k):
        yield f"{k} strings: tail/head reading is not injective onto ballots"


# ----------------------------------------------------------------------
# runner


def _cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _helper_count(jobs: int) -> int:
    """Helpers to fork for ``jobs`` checks: one per CPU beyond the caller's,
    at most one fewer than the checks.  None without ``fork``, or while
    another thread runs, whose locks a forked copy would find held."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 0
    return max(0, min(_cpus(), jobs) - 1)


_Job = tuple[Check, range]
_Record = tuple[str | None, float]  # the verdict and the seconds it took

# Each job index goes down the task pipe as two bytes, all written before
# any process reads, so the feed must fit the pipe's 64 KiB buffer.
_INDEX_BYTES = 2
_MAX_JOBS = 65536 // _INDEX_BYTES


def _record(check: Check, ranks: range) -> _Record:
    """``check.counterexample(ranks)`` and the seconds it took here."""
    start = time.perf_counter()
    verdict = check.counterexample(ranks)
    return verdict, time.perf_counter() - start


def _run(jobs: list[_Job], tasks: int) -> dict[int, _Record]:
    """Run the jobs this process takes from ``tasks``, one index at a
    time, until the pipe is empty.

    A job that raises anything but a domain error (which
    ``counterexample`` reports) is left out, for the caller to run again.
    """
    found = {}
    while index := os.read(tasks, _INDEX_BYTES):
        i = int.from_bytes(index, "big")
        try:
            found[i] = _record(*jobs[i])
        except Exception:
            pass
    return found


def _serve(jobs: list[_Job], tasks: int, out: int) -> NoReturn:
    """A helper's life: run jobs, send their records down ``out``, and exit
    without returning into the caller's stack, whatever is raised."""
    code = 1
    try:
        with open(out, "wb") as pipe:
            marshal.dump(_run(jobs, tasks), pipe)
        code = 0
    finally:
        os._exit(code)


def _counterexamples(jobs: list[_Job]) -> list[_Record]:
    """The record of ``check.counterexample(ranks)`` for each job, in order.

    The caller and its helpers take the jobs from one pipe.  A job whose
    record did not come back (it raised, or its helper died) runs again
    in the caller in order, so the first job that raises in a one-process
    run raises here too.  Every helper is reaped before this returns or
    raises.
    """
    if len(jobs) > _MAX_JOBS:
        raise ValueError(f"{len(jobs)} jobs, at most {_MAX_JOBS} fit the task pipe")
    tasks, feed = os.pipe()
    helpers: dict[int, BinaryIO] = {}  # pid: read end of its record pipe
    try:
        with open(feed, "wb") as pipe:
            pipe.write(b"".join(i.to_bytes(_INDEX_BYTES, "big") for i in range(len(jobs))))
        for _ in range(_helper_count(len(jobs))):
            records, out = os.pipe()
            pid = os.fork()
            if pid == 0:
                _serve(jobs, tasks, out)
            os.close(out)
            helpers[pid] = open(records, "rb")
        found = _run(jobs, tasks)
        for pid, pipe in list(helpers.items()):
            data = pipe.read()
            status = os.waitpid(pid, 0)[1]
            helpers.pop(pid).close()
            if status == 0:
                found.update(marshal.loads(data))
    finally:
        os.close(tasks)
        for pid, pipe in helpers.items():
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return [found[i] if i in found else _record(*job) for i, job in enumerate(jobs)]


def run_suites(names: Iterable[str], max_n: int) -> list[CheckResult]:
    """Every check of the named suites under ``--max-n max_n``: each name
    once, in the order first given, and each suite's checks in catalogue
    order.  The checks with a rank run as one job list; the others SKIP."""
    by_suite: dict[str, list[Check]] = {}
    for check in CATALOGUE.values():
        by_suite.setdefault(check.suite, []).append(check)
    jobs = [(check, check.ranks(max_n)) for name in dict.fromkeys(names) for check in by_suite[name]]
    records = iter(_counterexamples([job for job in jobs if job[1]]))
    results = []
    for check, ranks in jobs:
        if not ranks:
            skip = f"no rank in {check.first}..{check.last} within --max-n {max_n}"
            results.append(CheckResult(check.suite, check.name, "SKIP", skip))
            continue
        bad, seconds = next(records)
        status = "PASS" if bad is None else "FAIL"
        results.append(CheckResult(check.suite, check.name, status, bad or "", seconds))
    return results


SUITES: dict[str, Callable[[int], list[CheckResult]]] = {
    suite: functools.partial(run_suites, [suite])
    for suite in dict.fromkeys(c.suite for c in CATALOGUE.values())
}
