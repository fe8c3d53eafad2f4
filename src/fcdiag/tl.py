"""
Temperley-Lieb algebra of type A over integer polynomials in the loop
parameter delta.

The algebra on generators e_1 .. e_n satisfies e_i^2 = delta e_i,
e_i e_{i+-1} e_i = e_i, and e_i e_j = e_j e_i for |i-j| > 1.  Its monomial
basis is indexed by FC elements: e_w is the product of generators along the
canonical word of w.  A product of monomials e_{w1} e_{w2} is the diagram of
the concatenated word word(w1) + word(w2), so its first half is the
drawing of w1 alone.  The generator-action kernel :func:`run_action`
glues the two block lists as they stand, one ascending run per block, and
counts the closed circles.  It glues w1's runs from the identity the
first time w1 is a left factor, and w1 keeps a tuple snapshot of that
partner array; every later product with w1 on the left copies the
snapshot and glues only w2's runs onto it.  Reading the block list off
the bare partner list (:func:`block_pairs`) gives the result, already in
canonical form.  No word is spelled out and nothing is revalidated: the
kernel keeps its list a non-crossing matching, and ``block_pairs`` reads a
canonical block list off any such matching, so the result is built by the
unchecked constructor of :class:`FCElement`.  The tests run the validating
constructor on every product up to rank 8 and on random words, with each
left factor both fresh and holding its snapshot.  The paper's five-pass
drawing (:func:`fc_to_diagram`, and :func:`diagram_of`) and the
concatenation oracle (:func:`concatenate`) never read the snapshot: they
are checked against this route by the tests, not used by it.

:class:`DeltaPoly` is the coefficient ring (integer polynomials in delta,
exact, never specialized to a number) and :class:`TLElement` a finite linear
combination of monomials of one shared rank.

The module also hosts the diagram-side descent reading and the census of
the cross-arrow equivalence: two diagrams are equivalent when their
top-to-bottom arrows coincide exactly.  Fixing those arrows, the remaining
dots pair up within the gaps between consumed dots, so each equivalence
class has a product of small Catalan numbers as its cardinality
(``expected_class_size``).  The census is served from that gap formula
class by class: it walks the keys of one element size directly and builds
no element and no diagram, so its cost follows the number of classes, not
the Narayana number of elements.  The walk reads its steps from a table
built for the request, one entry per state it reaches, which the many
key prefixes that reach one state share; its stack holds each prefix as
a tuple, and a state with one way on stores the whole run of arrows up to
the next branch or class, so a class costs one tuple and a long chain one
entry.  Its oracles are the ``verify`` check ``tl.census``, which
recounts the keys of all diagrams grouped by element size, and the tests,
which recount the five-pass drawings of the size-p elements.  Its keys
are printed by :func:`key_texts`, which names each distinct arrow once
per request, through the namer that writes a diagram's arrows
(``diagram.ArrowTexts``), and joins every key from those names.

Ranks, sizes and string counts are checked by the rules of ``errors``,
and a :class:`DeltaPoly` refuses by name to print an int of more than
``errors.MAX_DIGITS`` digits, so its text does not depend on the int
digit limit.
:func:`expected_class_size` refuses a key's tail or head that is not an
int itself, where it reads the key.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator

from .bijection import block_pairs
from .counting import catalan_row
from .diagram import Arrow, ArrowTexts, Diagram, run_action
from .errors import (
    LONG_INT,
    MAX_DIGITS,
    NotMatchingError,
    NotNormalizedError,
    RankMismatchError,
    check_rank,
    check_size,
    check_strings,
    shown,
)
from .fc import FCElement


@dataclass(frozen=True)
class DeltaPoly:
    """An integer polynomial in delta, stored as sorted (exponent, coeff) int pairs."""

    coeffs: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        prev = -1
        for e, c in self.coeffs:
            if type(e) is not int or type(c) is not int:
                raise NotNormalizedError(
                    f"exponent and coefficient must be ints, got {shown(e)!r}, {shown(c)!r}"
                )
            if e < 0:
                raise NotNormalizedError("exponents must be nonnegative")
            if e <= prev:
                raise NotNormalizedError("exponents must be strictly increasing")
            if c == 0:
                raise NotNormalizedError("zero coefficients must not be stored")
            prev = e

    @classmethod
    def from_dict(cls, mapping: dict[int, int]) -> DeltaPoly:
        return cls(tuple(sorted((e, c) for e, c in mapping.items() if c)))

    @classmethod
    def _trusted(cls, coeffs: tuple[tuple[int, int], ...]) -> DeltaPoly:
        """A polynomial built without validation, for :func:`multiply`.

        ``coeffs`` must already be normalized: nonnegative exponents,
        strictly increasing, no zero coefficient.
        """
        self = object.__new__(cls)
        object.__setattr__(self, "coeffs", coeffs)
        return self

    @classmethod
    def zero(cls) -> DeltaPoly:
        return cls()

    @classmethod
    def one(cls) -> DeltaPoly:
        return cls(((0, 1),))

    @classmethod
    def delta(cls, exponent: int = 1, coefficient: int = 1) -> DeltaPoly:
        if coefficient == 0:
            return cls()
        return cls(((exponent, coefficient),))

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __add__(self, other: DeltaPoly) -> DeltaPoly:
        acc = dict(self.coeffs)
        for e, c in other.coeffs:
            acc[e] = acc.get(e, 0) + c
        return DeltaPoly.from_dict(acc)

    def __neg__(self) -> DeltaPoly:
        return DeltaPoly(tuple((e, -c) for e, c in self.coeffs))

    def __sub__(self, other: DeltaPoly) -> DeltaPoly:
        return self + (-other)

    def __mul__(self, other: DeltaPoly | int) -> DeltaPoly:
        if isinstance(other, int):
            return DeltaPoly.from_dict({e: c * other for e, c in self.coeffs})
        acc: dict[int, int] = {}
        for e1, c1 in self.coeffs:
            for e2, c2 in other.coeffs:
                acc[e1 + e2] = acc.get(e1 + e2, 0) + c1 * c2
        return DeltaPoly.from_dict(acc)

    __rmul__ = __mul__

    def __str__(self) -> str:
        """The terms, highest power first; an exponent or a coefficient of
        more than MAX_DIGITS digits is refused by name, not written out,
        so what prints does not depend on the int digit limit."""
        if not self.coeffs:
            return "0"
        parts = []
        for e, c in reversed(self.coeffs):
            if not (e < LONG_INT and -LONG_INT < c < LONG_INT):
                raise NotNormalizedError(
                    f"an exponent or a coefficient has more than {MAX_DIGITS} digits,"
                    " the most a polynomial prints"
                )
            if e == 0:
                parts.append(str(c))
            else:
                power = "delta" if e == 1 else f"delta^{e}"
                parts.append(power if c == 1 else f"{c}*{power}")
        return " + ".join(parts)


def _term_order(term: tuple[FCElement, DeltaPoly]) -> tuple[tuple[int, int], ...]:
    """The order of a :class:`TLElement`'s terms: by block list."""
    return term[0].pairs


@dataclass(frozen=True)
class TLElement:
    """A finite sum of monomials e_w with DeltaPoly coefficients, one rank.

    The rank is checked as :class:`FCElement` checks its own, so a sum
    with no terms has a valid rank too.
    """

    rank: int
    terms: tuple[tuple[FCElement, DeltaPoly], ...] = ()

    def __post_init__(self) -> None:
        check_rank(self.rank)
        seen = set()
        for w, poly in self.terms:
            if not isinstance(w, FCElement) or not isinstance(poly, DeltaPoly):
                raise NotNormalizedError(
                    "a term must pair an FCElement with a DeltaPoly,"
                    f" got {shown(w)!r}, {shown(poly)!r}"
                )
            if w.rank != self.rank:
                raise RankMismatchError(f"term {w} has rank {w.rank}, element has {self.rank}")
            if not poly:
                raise NotNormalizedError("zero terms must not be stored")
            if w in seen:
                raise NotNormalizedError(f"duplicate term {w}")
            seen.add(w)
        ordered = tuple(sorted(self.terms, key=_term_order))
        object.__setattr__(self, "terms", ordered)

    @classmethod
    def from_dict(cls, rank: int, mapping: dict[FCElement, DeltaPoly]) -> TLElement:
        return cls(rank, tuple((w, poly) for w, poly in mapping.items() if poly))

    @classmethod
    def _trusted(cls, rank: int, terms: tuple[tuple[FCElement, DeltaPoly], ...]) -> TLElement:
        """An element built without validation, for :func:`multiply`.

        ``terms`` must already be normalized as the constructor would leave
        them: distinct elements of rank ``rank``, no zero polynomial, and
        ordered by block list.
        """
        self = object.__new__(cls)
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "terms", terms)
        return self

    @classmethod
    def monomial(cls, w: FCElement, poly: DeltaPoly | None = None) -> TLElement:
        return cls(w.rank, ((w, poly if poly is not None else DeltaPoly.one()),))

    @classmethod
    def identity(cls, rank: int) -> TLElement:
        return cls.monomial(FCElement(rank))

    @classmethod
    def zero(cls, rank: int) -> TLElement:
        return cls(rank)

    def coefficient(self, w: FCElement) -> DeltaPoly:
        for key, poly in self.terms:
            if key == w:
                return poly
        return DeltaPoly.zero()

    def __add__(self, other: TLElement) -> TLElement:
        if self.rank != other.rank:
            raise RankMismatchError(f"cannot add ranks {self.rank} and {other.rank}")
        acc = {w: poly for w, poly in self.terms}
        for w, poly in other.terms:
            acc[w] = acc.get(w, DeltaPoly.zero()) + poly
        return TLElement.from_dict(self.rank, acc)

    def __mul__(self, other: TLElement) -> TLElement:
        return multiply(self, other)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(f"({poly})*e[{w}]" for w, poly in self.terms)


def monomial_product(w1: FCElement, w2: FCElement) -> tuple[FCElement, int]:
    """Multiply two monomials: e_{w1} e_{w2} = delta^m e_{w3}.

    Returns (w3, m).  The product is the diagram of the word
    word(w1) + word(w2), so w3 comes out in canonical form with no
    rewriting and m is the number of circles the word closes.  The kernel
    starts from the drawing of w1, the partner array its blocks glue as
    runs, and glues the blocks of w2 onto a copy of it; w3 is read
    straight off the partner list without revalidation.  The first time
    w1 is a left factor, the kernel glues its blocks from the identity
    and w1 keeps a tuple snapshot of that array (``FCElement._drawing``),
    which every later product with w1 on the left copies instead.  A
    reduced word closes no circle, so m is what w2's runs close.  Each
    rank passed the rank rule of ``errors`` when its element was built, so
    the rank + 1 strings need no check of their own.
    """
    if w1.rank != w2.rank:
        raise RankMismatchError(f"cannot multiply ranks {w1.rank} and {w2.rank}")
    strings = w1.rank + 1
    drawn = w1._drawing
    if drawn is None:
        partner = run_action(strings, w1.pairs)[0]
        object.__setattr__(w1, "_drawing", tuple(partner))
    else:
        partner = list(drawn)
    partner, loops = run_action(strings, w2.pairs, partner)
    return FCElement._trusted(w1.rank, block_pairs(strings, partner)), loops


def multiply(x: TLElement, y: TLElement) -> TLElement:
    """Bilinear extension of the monomial product.

    Each result term's coefficients are summed exponent by exponent in a
    plain dict.  The result is then normalized here, as the validating
    constructors would: zero coefficients and terms whose coefficients all
    cancel are dropped, exponents ascend, and terms are ordered by block
    list.  So it is built unchecked, through ``DeltaPoly._trusted`` and
    ``TLElement._trusted``; the factors are valid elements of one rank, and
    every product of monomials is an element of that rank.  The tests hold
    this route against ``TLElement.from_dict``.
    """
    if x.rank != y.rank:
        raise RankMismatchError(f"cannot multiply ranks {x.rank} and {y.rank}")
    acc: dict[FCElement, dict[int, int]] = {}
    for w1, c1 in x.terms:
        for w2, c2 in y.terms:
            w3, m = monomial_product(w1, w2)
            poly = acc.setdefault(w3, {})
            for e1, a1 in c1.coeffs:
                for e2, a2 in c2.coeffs:
                    e = e1 + e2 + m
                    poly[e] = poly.get(e, 0) + a1 * a2
    terms = []
    for w, poly in acc.items():
        coeffs = sorted((e, c) for e, c in poly.items() if c)
        if coeffs:
            terms.append((w, DeltaPoly._trusted(tuple(coeffs))))
    terms.sort(key=_term_order)
    return TLElement._trusted(x.rank, tuple(terms))


def descents_from_diagram(diagram: Diagram) -> tuple[frozenset[int], frozenset[int]]:
    """Left and right descent sets read straight off the diagram.

    Left descents are the tails of the span-one top arcs, right descents
    the (unshifted) tails of the span-one bottom arcs: the shortest bubbles
    on each row.  Both are read straight off the partner array.
    """
    partner, k = diagram.partner, diagram.strings
    left = frozenset(x + 1 for x in range(k - 1) if partner[x] == x + 1)
    right = frozenset(x + 1 for x in range(k - 1) if partner[k + x] == k + x + 1)
    return left, right


# ----------------------------------------------------------------------
# cross-arrow equivalence

Key = tuple[Arrow, ...]


def equivalence_key(diagram: Diagram) -> Key:
    """Canonical encoding of all top-to-bottom arrows of the diagram, by tail."""
    partner, strings = diagram.partner, diagram.strings
    return tuple((x, partner[x]) for x in range(strings) if partner[x] >= strings)


def key_texts(keys: Iterable[Key], strings: int) -> Iterator[str]:
    """The text of each key, in turn, with each distinct arrow named once.

    Arrows are named as diagrams name them and joined by commas; the empty
    key is ``-``.  Each arrow is named the first time a key holds it and
    looked up after that, so a census, whose keys share their arrows,
    formats its classes with one lookup per arrow and names no dot that no
    key holds.  ``strings`` is checked when the call is made, before any
    key is read.
    """
    check_strings(strings)
    text_of = ArrowTexts(strings).__getitem__
    return (",".join(map(text_of, key)) if key else "-" for key in keys)


def key_to_text(key: Key, strings: int) -> str:
    """The text of one key, as :func:`key_texts` writes it."""
    return next(key_texts((key,), strings))


def census(n: int, p: int) -> list[tuple[Key, int]]:
    """Class sizes of the cross-arrow equivalence on size-p elements of rank n.

    Returned sorted by key; the sizes add up to ``narayana(n, p)``, and the
    list is empty unless 0 <= p <= n.  The rank and size are checked
    first, as :func:`~fcdiag.fc.enumerate_fc` checks them.
    The classes are generated, not found: on k = n+1 strings, arrows
    (x_t, k+y_t) with x and y increasing are the cross arrows of some
    diagram exactly when every gap between them has even length, that is
    x_t and y_t are both of the parity of t-1 and the number c of arrows
    has the parity of k.  The class of such a key has the Catalan gap
    product as its size, and each of its diagrams is an element of size
    (k-c)/2 plus the number of arrows with y_t > x_t.  Written as
    2p - k = sum of +1 per such arrow and -1 per other arrow, that size is
    what the walk steers by (:func:`_next_arrow`).

    The walk goes depth first, over a step table (:class:`_StepTable`)
    built for this request: it maps each state (a, b, need), the next free
    top and bottom dots and the sum still needed, to the class that ends
    there, if any, and the arrows that fit next, each with the state it
    leads to and its Catalan factor.  A state is filled the first time the
    walk reaches it, and the many prefixes that reach one state share its
    entry.  Each frame on the walk's stack holds its key prefix as a tuple,
    so a class is its frame's prefix, not a copy of a key list.  Arrows are
    tried with x, then y, increasing, so the keys come out already sorted,
    and only branches that end in a key of size p are entered.  The sizes
    are computed here, not by ``expected_class_size``, which the ``verify``
    check holds them against.
    """
    check_rank(n)
    check_size(p)
    k = n + 1
    if not 0 <= p <= n:
        return []
    # At most min(p, k-p) caps lie on each row, so no gap holds more pairs.
    steps = _StepTable(k, catalan_row(min(p, k - p)))
    classes: list[tuple[Key, int]] = []
    stack = [((), 1, (0, 0, 2 * p - k))]  # (key prefix, Catalan product so far, state)
    while stack:
        prefix, weight, state = stack.pop()
        stop, ways = steps[state]
        if stop:
            classes.append((prefix, weight * stop))
        for run, after, factor in ways:
            stack.append((prefix + run, weight * factor, after))
    return classes


class _StepTable(dict):
    """The census walk's steps, by state (a, b, need), filled when first asked for.

    An entry is (stop, ways).  ``stop`` is the size of the class whose key
    ends at the state, or 0 if none does.  ``ways`` lists the arrows that
    fit next, last first for the walk's stack, as (run, next state,
    factor): ``run`` is a tuple of arrows and ``factor`` the Catalan
    product of the gaps they close.  :func:`_next_arrow` decides which
    arrows fit.  A state with no class and one fitting arrow stores the
    whole run of arrows up to the next state that ends a class or has two
    or more, so a long chain, such as the n-1 arrows of the one class of
    size n, costs one entry and one key prefix.
    """

    def __init__(self, strings: int, catalan: list[int]):
        super().__init__()
        self.strings = strings
        self.catalan = catalan

    def __missing__(self, state: tuple[int, int, int]) -> tuple[int, list]:
        stop, ways = entry = self._fitting(state)
        if not stop and len(ways) == 1:
            ((run, end, factor),) = ways
            run = list(run)
            # Follow the states with no class and one way on, without
            # storing them, and store the state where the run ends.
            while True:
                known = self.get(end)
                stop, ways = known or self._fitting(end)
                if stop or len(ways) != 1:
                    if known is None:
                        self[end] = stop, ways
                    break
                ((more, end, more_factor),) = ways
                run += more
                factor *= more_factor
            entry = 0, [(tuple(run), end, factor)]
        self[state] = entry
        return entry

    def _fitting(self, state: tuple[int, int, int]) -> tuple[int, list]:
        """The entry of ``state`` with one arrow per way."""
        k, catalan = self.strings, self.catalan
        a, b, need = state
        stop = catalan[(k - a) // 2] * catalan[(k - b) // 2] if need == 0 and (k - a) % 2 == 0 else 0
        if a == b and need == a - k:
            # Only straight arrows reach the lowest sum: one run, no gaps.
            return stop, [(tuple((t, k + t) for t in range(a, k)), (k, k, 0), 1)] if a < k else []
        ways = []
        arrow = _next_arrow(k, a, b, b, need)
        while arrow is not None:
            x, y = arrow
            after = (x + 1, y + 1, need - (1 if y > x else -1))
            ways.append((((x, k + y),), after, catalan[(x - a) // 2] * catalan[(y - b) // 2]))
            arrow = _next_arrow(k, x, y + 2, b, need)
        ways.reverse()
        return stop, ways


def _next_arrow(k: int, x: int, y: int, b: int, need: int) -> tuple[int, int] | None:
    """First arrow at or after (x, y), in x-then-y order, that can reach ``need``.

    Bottom dots start at b, and y shares the parity of x.  From next free
    dots a (top) and b' (bottom), the arrows still to come can sum to
    exactly max(a,b')-k, ..., hi in steps of 2, where hi is
    min(k-2-a, k-b'), raised to 0 when k-a is even and the key may stop
    there.  An arrow (x, y) leaves a = x+1, b' = y+1 and adds +1 if
    y > x, else -1; it fits when ``need`` minus that lies in the range.
    So in one row x the arrows with y <= x fit all or none, and those with
    y > x that fit come first.  Rows below b fit all or none alike, and
    from row b on, a row with no fitting arrow has none after it either.
    The test ``TestCensus::test_next_arrow`` checks all of this against
    the exhaustive reach sets.
    """
    may_stop = (k - x) % 2 == 1  # k-(x+1) is even, in every row x of this parity
    while x < k:
        whole_row = y == b
        if y <= x:
            hi = k - 3 - x
            if may_stop and hi < 0:
                hi = 0
            if x + 1 - k <= need + 1 <= hi:
                return x, y
            y = x + 2
        if y < k:
            # min(k-3-x, k-1-y), >= 0: y has x's parity, so x+2 <= y < k
            hi = k - 3 - x if y <= x + 2 else k - 1 - y
            if y + 1 - k <= need - 1 <= hi:
                return x, y
        if not whole_row:
            x += 2
        elif x < b:
            x = b
        else:
            return None
        y = b
    return None


def expected_class_size(strings: int, key: Key) -> int:
    """Number of diagrams with the given cross arrows.

    The free dots on each row split into gaps between consumed dots; a gap
    of 2g dots can be matched within itself in catalan(g) ways, and the
    class size is the product over all gaps of both rows.  ``key`` lists
    its arrows by tail, as :func:`equivalence_key` gives them, so on a
    diagram's key the tails and the heads both increase, and each gap is
    read off two consecutive tails or two consecutive heads.  Any other
    key, or a gap of odd length, is refused.  The ways to match each gap
    come from one table per string count, shared by the calls that follow.

    The string count is checked first.
    One pass reads the gaps and multiplies their ways.  A tail or head
    that is not an int (a bool counts as not an int) or is out of order is
    refused at once.  A gap of odd length has no way, so the product is 0
    exactly when the key holds one; it is refused once the key has been
    read, so a key with both faults is refused for its order.
    """
    check_strings(strings)
    ways = _gap_ways(strings)
    size = 1
    a, b = 0, strings  # lowest free dot after the last tail, after the last head
    for x, y in key:
        if type(x) is not int or type(y) is not int:
            raise NotMatchingError(f"tails and heads must be integers, got {shown((x, y))!r}")
        # the bounds keep the gaps from going negative
        if not (a <= x < strings and b <= y < 2 * strings):
            raise NotMatchingError("tails and heads must increase along the key, each on its row")
        size *= ways[x - a] * ways[y - b]
        a, b = x + 1, y + 1
    size *= ways[strings - a] * ways[2 * strings - b]
    if not size:
        raise NotMatchingError("gap of odd length cannot be matched")
    return size


@lru_cache(maxsize=1)
def _gap_ways(strings: int) -> tuple[int, ...]:
    """The ways to match a gap of g dots, for every g a row of ``strings``
    holds: catalan(g / 2) for even g, 0 for odd g.

    A key's gaps on each row add up to at most ``strings``, so no gap is
    longer.  One table is kept, for the last string count asked.
    """
    catalan = catalan_row(strings // 2)
    return tuple(0 if g % 2 else catalan[g // 2] for g in range(strings + 1))
