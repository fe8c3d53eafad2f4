"""
Temperley-Lieb algebra of type A over integer polynomials in the loop
parameter delta.

The algebra on generators e_1 .. e_n satisfies e_i^2 = delta e_i,
e_i e_{i+-1} e_i = e_i, and e_i e_j = e_j e_i for |i-j| > 1.  Its monomial
basis is indexed by FC elements: e_w is the product of generators along the
canonical word of w.  A product of monomials e_{w1} e_{w2} is the diagram of
the concatenated word word(w1) + word(w2), built in one pass by the
generator-action kernel :func:`generator_action`, which also counts the
closed circles; reading the block list off its bare partner list
(:func:`block_pairs`) gives the result, already in canonical form.  Neither
factor is drawn on its own, and no :class:`Diagram` is built: the kernel
keeps its list a non-crossing matching, so revalidating it would only
repeat work.  The result is an :class:`FCElement`, checked by its own
constructor.  The paper's five-pass drawing (:func:`fc_to_diagram`) and the
concatenation oracle (:func:`concatenate`) are checked against this route
by the tests, not used by it.

:class:`DeltaPoly` is the coefficient ring (integer polynomials in delta,
exact, never specialized to a number) and :class:`TLElement` a finite linear
combination of monomials of one shared rank.

The module also hosts the diagram-side descent reading and the census of
the cross-arrow equivalence: two diagrams are equivalent when their
top-to-bottom arrows coincide exactly.  Fixing those arrows, the remaining
dots pair up within the gaps between consumed dots, so each equivalence
class has a product of small Catalan numbers as its cardinality
(``expected_class_size``); the census is empirical: it runs the kernel on
each element's canonical word and groups the bare partner lists by the
same key that ``equivalence_key`` reads off a diagram.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .bijection import block_pairs
from .counting import catalan
from .diagram import Arrow, Diagram, generator_action
from .errors import (
    NotMatchingError,
    NotNormalizedError,
    RankMismatchError,
    UnexpectedLoopError,
)
from .fc import FCElement, enumerate_fc


@dataclass(frozen=True)
class DeltaPoly:
    """An integer polynomial in delta, stored as sorted (exponent, coeff) pairs."""

    coeffs: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        prev = -1
        for e, c in self.coeffs:
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
        if not self.coeffs:
            return "0"
        parts = []
        for e, c in reversed(self.coeffs):
            if e == 0:
                parts.append(str(c))
            else:
                power = "delta" if e == 1 else f"delta^{e}"
                parts.append(power if c == 1 else f"{c}*{power}")
        return " + ".join(parts)


@dataclass(frozen=True)
class TLElement:
    """A finite sum of monomials e_w with DeltaPoly coefficients, one rank."""

    rank: int
    terms: tuple[tuple[FCElement, DeltaPoly], ...] = ()

    def __post_init__(self) -> None:
        seen = set()
        for w, poly in self.terms:
            if w.rank != self.rank:
                raise RankMismatchError(f"term {w} has rank {w.rank}, element has {self.rank}")
            if not poly:
                raise NotNormalizedError("zero terms must not be stored")
            if w in seen:
                raise NotNormalizedError(f"duplicate term {w}")
            seen.add(w)
        ordered = tuple(sorted(self.terms, key=lambda item: item[0].pairs))
        object.__setattr__(self, "terms", ordered)

    @classmethod
    def from_dict(cls, rank: int, mapping: dict[FCElement, DeltaPoly]) -> TLElement:
        return cls(rank, tuple((w, poly) for w, poly in mapping.items() if poly))

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
    rewriting and m is the number of circles the word closes.  w3 is read
    straight off the kernel's partner list.
    """
    if w1.rank != w2.rank:
        raise RankMismatchError(f"cannot multiply ranks {w1.rank} and {w2.rank}")
    strings = w1.rank + 1
    partner, loops = generator_action(strings, w1.word() + w2.word())
    return FCElement(w1.rank, block_pairs(strings, partner)), loops


def multiply(x: TLElement, y: TLElement) -> TLElement:
    """Bilinear extension of the monomial product."""
    if x.rank != y.rank:
        raise RankMismatchError(f"cannot multiply ranks {x.rank} and {y.rank}")
    acc: dict[FCElement, DeltaPoly] = {}
    for w1, c1 in x.terms:
        for w2, c2 in y.terms:
            w3, m = monomial_product(w1, w2)
            contribution = c1 * c2 * DeltaPoly.delta(m)
            acc[w3] = acc.get(w3, DeltaPoly.zero()) + contribution
    return TLElement.from_dict(x.rank, acc)


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
    return _cross_arrows(diagram.strings, diagram.partner)


def _cross_arrows(strings: int, partner: Sequence[int]) -> Key:
    return tuple((x, partner[x]) for x in range(strings) if partner[x] >= strings)


def key_to_text(key: Key, strings: int) -> str:
    from .diagram import _dot_name

    if not key:
        return "-"
    return ",".join(f"{_dot_name(x, strings)}-{_dot_name(y, strings)}" for x, y in key)


def census(n: int, p: int) -> list[tuple[Key, int]]:
    """Class sizes of the cross-arrow equivalence on size-p elements of rank n.

    Returned sorted by key; the sizes add up to ``narayana(n, p)``, the
    number of elements the sized enumeration draws.  Each element is keyed
    off the kernel's partner list for its canonical word, with no
    :class:`Diagram` built; like ``diagram_of``, a word that closes a
    circle raises.
    """
    strings = n + 1
    counts: dict[Key, int] = {}
    for w in enumerate_fc(n, p):
        partner, loops = generator_action(strings, w.word())
        if loops:
            raise UnexpectedLoopError(f"reduced word of {w} closed {loops} circles")
        key = _cross_arrows(strings, partner)
        counts[key] = counts.get(key, 0) + 1
    return sorted(counts.items())


def expected_class_size(strings: int, key: Key) -> int:
    """Number of diagrams with the given cross arrows.

    The free dots on each row split into gaps between consumed dots; a gap
    of 2g dots can be matched within itself in catalan(g) ways, and the
    class size is the product over all gaps of both rows.
    """
    used_top = {x for x, _ in key}
    used_bottom = {y - strings for _, y in key}
    out = 1
    for used in (used_top, used_bottom):
        run = 0
        for x in range(strings):
            if x in used:
                if run % 2:
                    raise NotMatchingError("gap of odd length cannot be matched")
                out *= catalan(run // 2)
                run = 0
            else:
                run += 1
        if run % 2:
            raise NotMatchingError("gap of odd length cannot be matched")
        out *= catalan(run // 2)
    return out
