"""Algebra arithmetic, descent reading, and the cross-arrow census."""

import hashlib
import random
import time
from collections import Counter
from functools import lru_cache

import pytest

import fcdiag.fc
from fcdiag import tl
from fcdiag import (
    DeltaPoly,
    Diagram,
    FCElement,
    NotMatchingError,
    NotNormalizedError,
    RankMismatchError,
    RankOutOfRangeError,
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


def product_by_formula(x, y):
    """x * y term by term, through DeltaPoly arithmetic and the validating
    ``TLElement.from_dict``."""
    acc = {}
    for w1, c1 in x.terms:
        for w2, c2 in y.terms:
            w3, m = monomial_product(w1, w2)
            acc[w3] = acc.get(w3, DeltaPoly.zero()) + c1 * c2 * DeltaPoly.delta(m)
    return TLElement.from_dict(x.rank, acc)


def assert_tl_revalidates(x):
    """``x``, built unchecked, equals itself rebuilt by the validating
    constructors, which refuse an unnormalized polynomial or term and sort
    the terms."""
    assert TLElement(x.rank, tuple((w, DeltaPoly(poly.coeffs)) for w, poly in x.terms)) == x


RANK_MAKERS = {
    "FCElement": FCElement,
    "enumerate_fc": lambda rank: next(enumerate_fc(rank)),
    "census": lambda rank: census(rank, 0),
    "TLElement": TLElement,
    "TLElement.zero": TLElement.zero,
    "TLElement.identity": TLElement.identity,
}
SIZE_MAKERS = {
    "enumerate_fc": lambda size: next(enumerate_fc(3, size)),
    "census": lambda size: census(3, size),
}


@pytest.mark.parametrize("value", [True, 2.0, "2", -1])
@pytest.mark.parametrize("maker", RANK_MAKERS)
def test_rank_refused_by_name(maker, value):
    # TLElement built all four (True compared equal to a rank-1 element)
    if type(value) is int:
        message = f"rank must be nonnegative, got {value}"
    else:
        message = f"rank must be a nonnegative integer, got {value!r}"
    with pytest.raises(RankOutOfRangeError) as exc:
        RANK_MAKERS[maker](value)
    assert (type(exc.value), str(exc.value)) == (RankOutOfRangeError, message)


@pytest.mark.parametrize("value", [True, 1.5, "1"])
@pytest.mark.parametrize("maker", SIZE_MAKERS)
def test_size_refused_by_name(maker, value):
    # enumerate_fc took True for 1, yielded nothing for 1.5, and raised a bare TypeError on "1"
    with pytest.raises(RankOutOfRangeError) as exc:
        SIZE_MAKERS[maker](value)
    assert (type(exc.value), str(exc.value)) == (RankOutOfRangeError, f"size must be an integer, got {value!r}")


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

    @pytest.mark.parametrize(
        "make, message",
        [
            # each printed as if exact: delta^0.5, 2.5*delta, (x)*e[n=1:[]]
            (lambda: DeltaPoly(((0.5, 1),)), "exponent and coefficient must be ints, got 0.5, 1"),
            (lambda: DeltaPoly(((True, 2.5),)), "exponent and coefficient must be ints, got True, 2.5"),
            (
                lambda: TLElement(1, ((FCElement(1), "x"),)),
                "a term must pair an FCElement with a DeltaPoly, got FCElement(rank=1, pairs=()), 'x'",
            ),
            (
                lambda: TLElement(1, (("n=1:[]", DeltaPoly.one()),)),
                "a term must pair an FCElement with a DeltaPoly, got 'n=1:[]', "
                "DeltaPoly(coeffs=((0, 1),))",
            ),
        ],
        ids=["float-exponent", "bool-exponent", "str-coefficient", "str-key"],
    )
    def test_values_must_be_exact(self, make, message):
        with pytest.raises(NotNormalizedError) as exc:
            make()
        assert str(exc.value) == message

    def test_odd_gap_is_a_domain_error(self):
        with pytest.raises(NotMatchingError, match="odd length"):
            expected_class_size(2, ((0, 2),))
        # inside the key: the gaps before tail 1 and before head 2' are one dot each
        with pytest.raises(NotMatchingError, match="gap of odd length cannot be matched"):
            expected_class_size(4, ((1, 5),))

    @pytest.mark.parametrize(
        "strings,key",
        [
            (4, ((2, 6), (1, 5))),  # tails 2, 1: read catalan[-1] and returned 1
            (4, ((0, 6), (1, 5))),  # heads 3', 2'
            (2, ((0, 1),)),  # a head on the top row
            (2, ((2, 2),)),  # a tail past the top row
            (4, ((1, 5), (0, 6))),  # an odd gap before tails 1, 0: refused for its order
        ],
    )
    def test_key_out_of_order_is_a_domain_error(self, strings, key):
        with pytest.raises(NotMatchingError, match="tails and heads must increase along the key"):
            expected_class_size(strings, key)

    @pytest.mark.parametrize(
        "key",
        [
            (("a", 4),),  # raised a bare TypeError from the order test
            ((0.0, 4),),  # raised a bare TypeError from the gap parity
            ((True, 4),),  # read as dot 1 and refused for an odd gap
        ],
        ids=["str-tail", "float-tail", "bool-tail"],
    )
    def test_key_of_non_integers_is_a_domain_error(self, key):
        with pytest.raises(NotMatchingError) as exc:
            expected_class_size(4, key)
        assert str(exc.value) == f"tails and heads must be integers, got {key[0]!r}"

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
            assert product == product_by_formula(x, y)
            images = {monomial_product(w1, w2)[0] for w1, _ in x.terms for w2, _ in y.terms}
            cancelled += len(product.terms) < len(images)
        assert cancelled > 0, "no product cancelled a term"


class TestTrustedProduct:
    """``multiply`` normalizes its result itself and builds it unchecked."""

    @pytest.mark.parametrize("n", range(5))
    def test_every_monomial_pair(self, n):
        for w1 in fc_list(n):
            for w2 in fc_list(n):
                x, y = TLElement.monomial(w1), TLElement.monomial(w2)
                product = multiply(x, y)
                assert product == product_by_formula(x, y)
                assert_tl_revalidates(product)

    def test_normal_form(self):
        # x's terms come in block order, but their products do not, and the
        # identity's delta^2 lands on e_1 before e_1 e_1's delta does
        n = 2
        x = TLElement.from_dict(n, {FCElement(n): DeltaPoly.delta(2), gen(n, 1): DeltaPoly.one()})
        y = TLElement.monomial(gen(n, 1))
        assert [(str(w), p.coeffs) for w, p in multiply(x, y).terms] == [("n=2:[1,1]", ((1, 1), (2, 1)))]
        x = TLElement.from_dict(n, {FCElement(n): DeltaPoly.one(), gen(n, 1): DeltaPoly.one()})
        y = TLElement.monomial(gen(n, 2))
        assert [(str(w), p.coeffs) for w, p in multiply(x, y).terms] == [
            ("n=2:[1,2]", ((0, 1),)),
            ("n=2:[2,2]", ((0, 1),)),
        ]

    @staticmethod
    def annihilated(rng, n):
        """A random i, e_i - delta, and signed coefficients on monomials with
        right descent i, each of which e_i - delta sends to 0: w e_i =
        delta w.  The identity, first in ``fc_list``, has no descents."""
        i = rng.randint(1, n)
        kill = TLElement.from_dict(n, {gen(n, i): DeltaPoly.one(), FCElement(n): DeltaPoly.delta(1, -1)})
        pool = [w for w in fc_list(n)[1:] if i in w.right_descents()]
        terms = {
            w: DeltaPoly.from_dict({rng.randrange(3): rng.choice((-2, -1, 1, 2))})
            for w in rng.sample(pool, rng.randint(1, 4))
        }
        return i, kill, terms

    @pytest.mark.parametrize("seed", range(10))
    def test_whole_product_cancels(self, seed):
        rng = random.Random(seed)
        n = 4
        _, kill, terms = self.annihilated(rng, n)
        x = TLElement.from_dict(n, terms)
        product = multiply(x, kill)
        assert product == product_by_formula(x, kill) == TLElement.zero(n)

    @pytest.mark.parametrize("seed", range(10))
    def test_single_term_cancels(self, seed):
        # e_j (e_i - delta) = e_j e_i - delta e_j keeps two terms, while the
        # third, c w (e_i - delta) = c (delta w - delta w), cancels
        rng = random.Random(seed)
        n = 4
        i, kill, terms = self.annihilated(rng, n)
        j = rng.choice([j for j in range(1, n + 1) if j != i])
        survivors = {gen(n, j), monomial_product(gen(n, j), gen(n, i))[0]}
        w = rng.choice([w for w in terms if w not in survivors])
        x = TLElement.from_dict(n, {gen(n, j): DeltaPoly.one(), w: terms[w]})
        product = multiply(x, kill)
        assert product == product_by_formula(x, kill)
        assert {v for v, _ in product.terms} == survivors
        assert_tl_revalidates(product)


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


# SHA-256 of repr(census(n, p)) for p = 0..n in turn, by rank n: keys,
# sizes and order, as the walk gave them before it read its steps from a
# table.
CENSUS_DIGESTS = {
    10: "df8095148430d312bdf84b4bcc1075bee903d8290052e67ccea791544fbae194",
    11: "e20020459a75e876145e3ea87af0eddcbb7fd64483c842b054fbd49d29cc8516",
    12: "db723e9aa56dd4a8eda2efa92d88cd0a0aa3619b4047c1cee30454451a30cafb",
}


# SHA-256 of the key texts of census(n, p) for p = 0..n in turn, one per
# line, by rank n, as written when census keys had a namer of their own.
KEY_TEXT_DIGESTS = {
    0: "7db98085d62e945ef1e5bc23be45dc5c54b30a3d9407b2e93e9618f5efa6e56b",
    1: "f28c42561e0b2150f02966c0aa08b60210963ed7597e7d69c89d8bf3be7256b7",
    2: "cc03ac016560d71d36c3d75d2abefe21f2adb8063f1a55d3d2f6f4b9da2f502e",
    3: "23e540264d250418baed8b1e65259912903262b6649b102c280666c505178e77",
    4: "c813f6bc38df1f2670ffd0d6d4a38b30250b4fb46c239f3c59b8dd7610eac341",
    5: "9c246405e5fef9212e64730adf57c3d71a2d4f935ac944e7e3158583543e0d74",
    6: "33b5512bdc402a3dbf2ca02fc7ff00c549c32fea8690e3fc01e187dabc669317",
    7: "3b7bbe1f0abb65878545be1695b93bec1c07975c1c0c8bee05aa52a1698fa405",
    8: "d3dfee6f40d774b34ab4bb6be64234a9144896c746be31a76df70747bb34dcc8",
    9: "237103e6b103f0c1bbc27b28f6f8b28fcc87a3a111bfd9cecaf8da2d90f71939",
}


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
        assert list(tl.key_texts([key, (), key], 3)) == ["1-3'", "-", "1-3'"]

    def test_key_text_names_arrows_as_diagrams_do(self):
        # a top arc, which no census key holds, printed 1--1'
        assert key_to_text(((0, 1),), 3) == "1-2" == Diagram.generator(3, 1).arrow_name((0, 1))

    @pytest.mark.parametrize("n", sorted(KEY_TEXT_DIGESTS))
    def test_key_texts_are_pinned(self, n):
        texts = []
        for p in range(n + 1):
            texts.extend(tl.key_texts([key for key, _ in census(n, p)], n + 1))
        assert hashlib.sha256("\n".join(texts).encode()).hexdigest() == KEY_TEXT_DIGESTS[n]

    @pytest.mark.parametrize("n", range(1, 7))
    def test_classes_recount_and_factor(self, n):
        assert_holds("tl.census", n)

    @pytest.mark.parametrize("n", range(0, 10))
    def test_equals_recount_through_diagram_of(self, n):
        # the element-side oracle: the drawings of every size-p element
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

    def test_class_totals(self):
        # classes over every size p, by rank n = 0..12
        totals = [sum(len(census(n, p)) for p in range(n + 1)) for n in range(13)]
        assert totals == [1, 2, 5, 11, 26, 63, 153, 376, 931, 2317, 5794, 14545, 36631]

    @pytest.mark.parametrize("n", range(0, 6))
    def test_size_out_of_range(self, n):
        assert census(n, -1) == census(n, n + 1) == []

    @pytest.mark.parametrize(
        "n, p, name",
        [(True, 1, "rank"), (3, True, "size"), (3.0, 1, "rank"), (3, 1.0, "size"), ("3", 1, "rank")],
    )
    def test_refuses_a_rank_or_size_that_is_not_an_int(self, n, p, name):
        # the rank's message is the one every rank check gives
        prefix = "rank must be a nonnegative integer" if name == "rank" else "size must be an integer"
        with pytest.raises(RankOutOfRangeError, match=f"^{prefix}, got "):
            census(n, p)

    @pytest.mark.parametrize("n", range(10, 13))
    def test_classes_are_pinned(self, n):
        digest = hashlib.sha256()
        for p in range(n + 1):
            digest.update(repr(census(n, p)).encode())
        assert digest.hexdigest() == CENSUS_DIGESTS[n]

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
