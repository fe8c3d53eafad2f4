"""Algebra arithmetic, descent reading, and the cross-arrow census."""

import random
import time
from collections import Counter
from functools import lru_cache

import pytest

import fcdiag.fc
from fcdiag import tl
from fcdiag import (
    DeltaPoly,
    FCElement,
    NotMatchingError,
    NotNormalizedError,
    RankMismatchError,
    TLElement,
    census,
    descents_from_diagram,
    diagram_of,
    enumerate_fc,
    equivalence_key,
    expected_class_size,
    fc_to_diagram,
    key_to_text,
    monomial_product,
    multiply,
    narayana,
    parse_fc,
)
from helpers import assert_holds, fc_list, rewrite_word


def gen(n, i):
    return FCElement(n, ((i, i),))


class TestDeltaPoly:
    def test_arithmetic(self):
        one = DeltaPoly.one()
        d = DeltaPoly.delta()
        assert d * d == DeltaPoly.delta(2)
        assert (d + one) * (d + one) == DeltaPoly.delta(2) + 2 * d + one
        assert d - d == DeltaPoly.zero()
        assert not DeltaPoly.zero()

    def test_rejects_stored_zero(self):
        with pytest.raises(ValueError):
            DeltaPoly(((0, 0),))

    def test_malformed_values_are_domain_errors(self):
        with pytest.raises(NotNormalizedError, match="strictly increasing"):
            DeltaPoly(((1, 1), (0, 1)))
        with pytest.raises(NotNormalizedError, match="nonnegative"):
            DeltaPoly(((-1, 1),))
        w = gen(2, 1)
        with pytest.raises(NotNormalizedError, match="zero terms"):
            TLElement(2, ((w, DeltaPoly.zero()),))
        with pytest.raises(NotNormalizedError, match="duplicate"):
            TLElement(2, ((w, DeltaPoly.one()), (w, DeltaPoly.one())))
        with pytest.raises(RankMismatchError, match="has rank 3, element has 2"):
            TLElement(2, ((FCElement(3), DeltaPoly.one()),))

    def test_odd_gap_is_a_domain_error(self):
        with pytest.raises(NotMatchingError, match="odd length"):
            expected_class_size(2, ((0, 2),))

    @pytest.mark.parametrize(
        "strings,key",
        [
            (4, ((2, 6), (1, 5))),  # tails 2, 1: read catalan[-1] and returned 1
            (4, ((0, 6), (1, 5))),  # heads 3', 2'
            (2, ((0, 1),)),  # a head on the top row
            (2, ((2, 2),)),  # a tail past the top row
        ],
    )
    def test_key_out_of_order_is_a_domain_error(self, strings, key):
        with pytest.raises(NotMatchingError, match="tails and heads must increase along the key"):
            expected_class_size(strings, key)

    def test_zero_coefficient_is_zero(self):
        assert DeltaPoly.delta(2, 0) == DeltaPoly.zero()

    def test_str(self):
        assert str(DeltaPoly.zero()) == "0"
        assert str(DeltaPoly.one()) == "1"
        assert str(DeltaPoly.delta()) == "delta"
        assert str(DeltaPoly.delta(2, 3) + DeltaPoly.one()) == "3*delta^2 + 1"


class TestMonomialProduct:
    def test_worked_products(self):
        a = parse_fc("n=4:[1,4]")
        b = parse_fc("n=4:[4,4][3,3][1,1]")
        assert monomial_product(a, b) == (parse_fc("n=4:[3,3][1,1]"), 1)
        assert monomial_product(b, a) == (parse_fc("n=4:[4,4][1,1]"), 1)

    def test_identity_neutral(self):
        for w in fc_list(3):
            assert monomial_product(w, FCElement(3)) == (w, 0)
            assert monomial_product(FCElement(3), w) == (w, 0)

    def test_rank_mismatch(self):
        with pytest.raises(RankMismatchError):
            monomial_product(FCElement(2), FCElement(3))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_presentation_relations(self, n):
        assert_holds("tl.presentation-relations", n)

    @pytest.mark.parametrize("n", range(1, 5))
    def test_against_word_rewriting_oracle(self, n):
        # the independent oracle rewrites the concatenated canonical words
        # with the presentation relations
        for w1 in fc_list(n):
            for w2 in fc_list(n):
                expected = rewrite_word(n, w1.word() + w2.word())
                assert monomial_product(w1, w2) == expected


class TestTLElement:
    def test_ranks_must_match_to_add(self):
        with pytest.raises(RankMismatchError, match="cannot add ranks 2 and 3"):
            TLElement.identity(2) + TLElement.identity(3)

    def test_zero_prints_as_zero(self):
        assert str(TLElement.zero(2)) == "0"

    def test_square_of_generator(self):
        n = 3
        e1 = TLElement.monomial(gen(n, 1))
        assert e1 * e1 == TLElement.monomial(gen(n, 1), DeltaPoly.delta())

    def test_sandwich(self):
        n = 3
        e1, e2 = TLElement.monomial(gen(n, 1)), TLElement.monomial(gen(n, 2))
        assert (e1 * e2) * e1 == e1

    def test_sum_times_identity(self):
        n = 3
        x = TLElement.monomial(gen(n, 1)) + TLElement.monomial(gen(n, 3))
        assert x * TLElement.identity(n) == x
        assert TLElement.identity(n) * x == x

    def test_bilinearity(self):
        n = 4
        a, b, c = (TLElement.monomial(w) for w in (gen(n, 1), gen(n, 2), gen(n, 3)))
        assert (a + b) * c == a * c + b * c

    def test_terms_sorted_and_nonzero(self):
        n = 2
        x = TLElement.monomial(gen(n, 2)) + TLElement.monomial(gen(n, 1))
        assert [w.pairs for w, _ in x.terms] == [((1, 1),), ((2, 2),)]
        zero = TLElement.from_dict(n, {gen(n, 1): DeltaPoly.zero()})
        assert zero == TLElement.zero(n)

    def test_rank_mismatch(self):
        with pytest.raises(RankMismatchError):
            multiply(TLElement.identity(2), TLElement.identity(3))

    def test_str_and_coefficient(self):
        n = 2
        x = TLElement.identity(n) + TLElement.monomial(gen(n, 1), DeltaPoly.delta(2, 3))
        assert str(x) == "(1)*e[n=2:[]] + (3*delta^2)*e[n=2:[1,1]]"
        assert x.coefficient(gen(n, 1)) == DeltaPoly.delta(2, 3)
        assert x.coefficient(gen(n, 2)) == DeltaPoly.zero()

    def test_multiply_matches_term_by_term_formula(self):
        # multi-term factors with signed coefficients, so that terms cancel
        def formula(x, y):
            acc = {}
            for w1, c1 in x.terms:
                for w2, c2 in y.terms:
                    w3, m = monomial_product(w1, w2)
                    acc[w3] = acc.get(w3, DeltaPoly.zero()) + c1 * c2 * DeltaPoly.delta(m)
            return TLElement.from_dict(x.rank, acc)

        def element(rng, rank):
            pool = fc_list(rank)
            terms = {}
            for w in rng.sample(pool, min(rng.randint(1, 4), len(pool))):
                coeffs = {rng.randrange(2): rng.choice((-1, 1)) for _ in range(2)}
                terms[w] = DeltaPoly.from_dict(coeffs)
            return TLElement.from_dict(rank, terms)

        rng = random.Random(10)
        cancelled = 0
        for _ in range(1000):
            rank = rng.randint(1, 5)
            x, y = element(rng, rank), element(rng, rank)
            product = multiply(x, y)
            assert product == formula(x, y)
            images = {monomial_product(w1, w2)[0] for w1, _ in x.terms for w2, _ in y.terms}
            cancelled += len(product.terms) < len(images)
        assert cancelled > 0, "no product cancelled a term"


class TestDiagramDescents:
    def test_generator(self):
        d, _ = fc_to_diagram(gen(5, 2))
        assert descents_from_diagram(d) == ({2}, {2})

    def test_identity(self):
        d, _ = fc_to_diagram(FCElement(5))
        assert descents_from_diagram(d) == (frozenset(), frozenset())

    def test_worked_example(self):
        d, _ = fc_to_diagram(parse_fc("n=5:[4,5][3,3][1,1]"))
        assert descents_from_diagram(d) == ({4, 1}, {5, 3, 1})

    @pytest.mark.parametrize("n", range(1, 7))
    def test_three_way_agreement(self, n):
        assert_holds("tl.descents-three-ways", n)


class TestCensus:
    def test_single_generator_rank_one(self):
        assert census(1, 1) == [(equivalence_key(fc_to_diagram(gen(1, 1))[0]), 1)]

    def test_rank_two_size_one(self):
        classes = census(2, 1)
        assert [size for _, size in classes] == [1, 1, 1]
        assert sum(size for _, size in classes) == narayana(2, 1)

    def test_rank_four_size_two(self):
        classes = census(4, 2)
        assert sum(size for _, size in classes) == narayana(4, 2) == 20

    def test_key_text(self):
        key = equivalence_key(fc_to_diagram(parse_fc("n=2:[2,2][1,1]"))[0])
        assert key_to_text(key, 3) == "1-3'"
        d, _ = fc_to_diagram(FCElement(1, ((1, 1),)))
        assert key_to_text(equivalence_key(d), 2) == "-"

    @pytest.mark.parametrize("n", range(1, 7))
    def test_classes_recount_and_factor(self, n):
        assert_holds("tl.census", n)

    @pytest.mark.parametrize("n", range(0, 10))
    def test_equals_recount_through_diagram_of(self, n):
        # the element-side oracle: kernel drawings of every size-p element
        for p in range(n + 1):
            recount = Counter(equivalence_key(diagram_of(w)) for w in enumerate_fc(n, p))
            assert census(n, p) == sorted(recount.items())

    @pytest.mark.parametrize("n", range(0, 17))
    def test_sizes_sum_and_factor(self, n):
        for p in range(n + 1):
            classes = census(n, p)
            assert sum(size for _, size in classes) == narayana(n, p)
            for key, size in classes:
                assert size == expected_class_size(n + 1, key)
            keys = [key for key, _ in classes]
            assert all(left < right for left, right in zip(keys, keys[1:]))

    @pytest.mark.parametrize("n", range(0, 6))
    def test_size_out_of_range(self, n):
        assert census(n, -1) == census(n, n + 1) == []

    def test_enumerates_no_element(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the census enumerated elements")

        monkeypatch.setattr(fcdiag.fc, "enumerate_fc", refuse)
        monkeypatch.setattr(tl, "enumerate_fc", refuse, raising=False)
        start = time.perf_counter()
        classes = census(12, 6)
        assert time.perf_counter() - start < 1
        assert sum(size for _, size in classes) == narayana(12, 6)

    @pytest.mark.parametrize("k", range(1, 12))
    def test_next_arrow(self, k):
        # every sum the arrows after free top dot a and bottom dot b can
        # reach, +1 per arrow with y > x and -1 per other arrow
        @lru_cache(maxsize=None)
        def reach(a, b):
            sums = {0} if (k - a) % 2 == 0 else set()
            for x in range(a, k, 2):
                for y in range(b, k, 2):
                    step = 1 if y > x else -1
                    sums.update(s + step for s in reach(x + 1, y + 1))
            return frozenset(sums)

        for a in range(k + 1):
            for b in range(a % 2, k + 1, 2):
                # the sum still needed has the parity of the free dots
                for need in range(a - k - 2, k + 3, 2):
                    fitting = [
                        (x, y)
                        for x in range(a, k, 2)
                        for y in range(b, k, 2)
                        if need - (1 if y > x else -1) in reach(x + 1, y + 1)
                    ] + [None]
                    assert tl._next_arrow(k, a, b, b, need) == fitting[0]
                    for (x, y), after in zip(fitting, fitting[1:]):
                        assert tl._next_arrow(k, x, y + 2, b, need) == after
