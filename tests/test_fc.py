"""Canonical forms: validation, statistics, involutions, and the
permutation oracle."""

import json

import pytest
from hypothesis import given

from fcdiag import (
    Classification,
    FCDiagramError,
    FCElement,
    IdentityHasNoDescentsError,
    NotStandardError,
    NotThickError,
    ParseError,
    RankOutOfRangeError,
    catalan,
    enumerate_fc,
    fc_from_json,
    inversions,
    is_saturated_in,
    parse_fc,
)
from helpers import assert_holds, fc_elements, fc_list, mutated_json

W_EXAMPLE = FCElement(5, ((4, 5), (3, 3), (1, 1)))


class TestValidation:
    def test_example_is_valid(self):
        assert W_EXAMPLE.pairs == ((4, 5), (3, 3), (1, 1))

    def test_identity(self):
        assert FCElement(5).size == 0
        assert FCElement(0).is_identity()

    def test_starts_must_decrease(self):
        with pytest.raises(NotStandardError, match="start indices"):
            FCElement(5, ((3, 3), (4, 5)))

    def test_ends_must_decrease(self):
        with pytest.raises(NotStandardError, match="end indices"):
            FCElement(5, ((3, 4), (2, 4)))

    def test_block_must_be_ascending_run(self):
        with pytest.raises(NotStandardError, match="1 <= i <= j"):
            FCElement(5, ((4, 3),))

    def test_block_within_rank(self):
        with pytest.raises(NotStandardError):
            FCElement(3, ((2, 4),))

    def test_negative_rank(self):
        with pytest.raises(RankOutOfRangeError):
            FCElement(-1)

    @pytest.mark.parametrize("rank", [True, 3.0, "3"])
    def test_rank_must_be_an_int(self, rank):
        with pytest.raises(RankOutOfRangeError) as exc:
            FCElement(rank)  # FCElement(True) printed n=True:[]
        assert str(exc.value) == f"rank must be a nonnegative integer, got {rank!r}"

    def test_lists_are_stored_as_tuples(self):
        for pairs in ([[2, 3], [1, 1]], [(2, 3), [1, 1]], iter([(2, 3), (1, 1)])):
            w = FCElement(3, pairs)
            assert w.pairs == ((2, 3), (1, 1)) and type(w.pairs[1]) is tuple
            assert hash(w) == hash(FCElement(3, ((2, 3), (1, 1))))
        # inside a tuple, each block must be a tuple
        with pytest.raises(NotStandardError, match=r"need a tuple of two ints, got \[2, 3\]"):
            FCElement(3, ([2, 3],))


class TestTextAndJson:
    def test_text_roundtrip(self):
        assert parse_fc("n=5:[4,5][3,3][1,1]") == W_EXAMPLE
        assert W_EXAMPLE.to_text() == "n=5:[4,5][3,3][1,1]"
        assert parse_fc("n=5:[]") == FCElement(5)
        assert FCElement(5).to_text() == "n=5:[]"

    def test_json_roundtrip(self):
        assert fc_from_json(W_EXAMPLE.to_json()) == W_EXAMPLE

    @pytest.mark.parametrize(
        "obj",
        [
            {"n": True, "pairs": []},  # read as rank True, printed n=True:[]
            {"n": 3, "pairs": [[True, 2.7]]},  # read as [1,2]
            {"n": 3, "pairs": [[1, 2.0]]},
            {"n": 3.0, "pairs": []},
            {"n": "3", "pairs": [["1", "2"]]},
        ],
    )
    def test_json_refuses_non_integers(self, obj):
        with pytest.raises(ParseError) as exc:
            fc_from_json(obj)
        assert str(exc.value) == f"not an FC element JSON object: {obj!r}"

    @pytest.mark.parametrize(
        "obj",
        [
            {"n": 3, "pairs": ""},  # read as n=3:[]
            {"n": 3, "pairs": {}},  # read as n=3:[]
            {"n": 3, "pairs": ((2, 3),)},
            {"n": 3, "pairs": [(2, 3)]},
            {"n": 3, "pairs": [[2, 3, 4]]},
            {"n": 3, "pairs": [[2]]},
            {"n": 3, "pairs": 23},
            [3, [[2, 3]]],
        ],
    )
    def test_json_refuses_non_lists(self, obj):
        with pytest.raises(ParseError) as exc:
            fc_from_json(obj)
        assert str(exc.value) == f"not an FC element JSON object: {obj!r}"

    @given(fc_elements(max_rank=8).flatmap(lambda w: mutated_json(w.to_json())))
    def test_mutated_json_is_read_or_refused(self, obj):
        try:
            w = fc_from_json(obj)
        except FCDiagramError:
            return
        # what was read writes back the object's own integers, as JSON
        given_back = {"n": obj["n"], "pairs": [list(pair) for pair in obj["pairs"]]}
        assert json.dumps(w.to_json()) == json.dumps(given_back)

    @pytest.mark.parametrize("bad", ["", "n=5", "n=5:[1,2)x", "5:[1,2]", "n=5:[1,2] [1,1]"])
    def test_parse_rejects_junk(self, bad):
        with pytest.raises(ParseError):
            parse_fc(bad)

    def test_parse_message_not_a_text_form(self):
        with pytest.raises(ParseError) as exc:
            parse_fc("5:[1,2]")
        assert str(exc.value) == "not an FC element text form: '5:[1,2]'"

    @pytest.mark.parametrize("bad", ["n=3:[1,1]x[2,2]", "n=3:[2,2]x", "n=3:[2,2] [1,1]", "n=3:[[1,1]"])
    def test_parse_message_trailing_junk(self, bad):
        with pytest.raises(ParseError) as exc:
            parse_fc(bad)
        assert str(exc.value) == f"trailing junk in FC element text form: {bad!r}"

    def test_parse_message_missing_block_list(self):
        with pytest.raises(ParseError) as exc:
            parse_fc("n=3:")
        assert str(exc.value) == "missing block list in FC element text form: 'n=3:'"

    def test_parse_validates_the_canonical_form(self):
        with pytest.raises(NotStandardError, match="start indices must strictly decrease"):
            parse_fc("n=3:[2,3][2,2]")

    def test_constructor_coerces_to_int(self):
        # the constructor converts nothing: a non-int block index is refused
        cases = [
            [("2", "3")],
            ((1, 2.7),),  # read as [1,2]
            ((True, 2),),  # read as [1,2]
            [(2, 3), (1, 1.0)],
        ]
        for pairs in cases:
            with pytest.raises(NotStandardError) as exc:
                FCElement(3, pairs)
            t = len(pairs)
            assert str(exc.value) == f"block {t}: need a tuple of two ints, got {pairs[-1]!r}"

    @given(fc_elements())
    def test_text_roundtrip_random(self, w):
        assert parse_fc(w.to_text()) == w


class TestLength:
    def test_example(self):
        # inversion count of (2, 1, 5, 3, 6, 4)
        assert W_EXAMPLE.length() == 4

    def test_identity(self):
        assert FCElement(7).length() == 0

    def test_full_block(self):
        assert FCElement(6, ((1, 6),)).length() == 6

    @given(fc_elements())
    def test_matches_inversions(self, w):
        assert w.length() == inversions(w.to_permutation())


class TestClassify:
    def test_examples(self):
        assert W_EXAMPLE.classify() is Classification.SLIM
        assert FCElement(3, ((2, 3), (1, 2))).classify() is Classification.THICK
        assert FCElement(3).classify() is Classification.IDENTITY


class TestShrink:
    def test_examples(self):
        assert FCElement(3, ((2, 3), (1, 2))).shrink() == FCElement(2, ((2, 2), (1, 1)))
        assert FCElement(4, ((1, 4),)).shrink() == FCElement(3, ((1, 3),))

    def test_rejects_slim(self):
        with pytest.raises(NotThickError):
            FCElement(3, ((3, 3),)).shrink()

    def test_identity_does_not_grow(self):
        with pytest.raises(NotThickError, match="grow is undefined for the identity"):
            FCElement(3).grow()

    @pytest.mark.parametrize("n", range(1, 8))
    def test_bijection_onto_lower_rank(self, n):
        assert_holds("fc.shrink-bijection", n)


class TestDual:
    def test_examples(self):
        assert FCElement(3, ((1, 1),)).dual() == FCElement(3, ((3, 3), (2, 2)))
        assert FCElement(2).dual() == FCElement(2, ((2, 2), (1, 1)))
        assert FCElement(4, ((4, 4), (3, 3), (2, 2), (1, 1))).dual() == FCElement(4)

    @pytest.mark.parametrize("n", range(0, 9))
    def test_involution_size_length(self, n):
        assert_holds("fc.dual-involution", n)

    @given(fc_elements())
    def test_involution_random(self, w):
        assert w.dual().dual() == w


class TestDeltaInvolution:
    def test_examples(self):
        assert W_EXAMPLE.delta_involution() == FCElement(5, ((5, 5), (3, 3), (1, 2)))
        assert FCElement(4).delta_involution() == FCElement(4)
        assert FCElement(3, ((1, 3),)).delta_involution() == FCElement(3, ((1, 3),))

    @pytest.mark.parametrize("n", range(1, 8))
    def test_against_permutation_oracle(self, n):
        # delta_involution must realize: reverse the word, then reflect indices
        for w in fc_list(n):
            image = w.delta_involution()
            reflected_reversed = tuple(n + 1 - a for a in reversed(w.word()))
            from fcdiag import permutation_of_word

            assert image.to_permutation() == permutation_of_word(n, reflected_reversed)
            assert image.delta_involution() == w

    @pytest.mark.parametrize("n", range(1, 8))
    def test_carries_descents(self, n):
        assert_holds("fc.delta-involution", n)


class TestDescents:
    def test_example_left(self):
        assert W_EXAMPLE.left_descents() == {4, 1}

    def test_example_right(self):
        assert W_EXAMPLE.right_descents() == {5, 3, 1}

    def test_single_block_is_rigid(self):
        w = FCElement(6, ((1, 6),))
        assert w.left_descents() == {1}
        assert w.right_descents() == {6}

    def test_identity_raises(self):
        with pytest.raises(IdentityHasNoDescentsError):
            FCElement(4).left_descents()
        with pytest.raises(IdentityHasNoDescentsError):
            FCElement(4).right_descents()

    @pytest.mark.parametrize("n", range(1, 8))
    def test_against_permutation_oracle(self, n):
        assert_holds("fc.descent-formulas", n)


class TestSupportAndSaturation:
    def test_support(self):
        assert W_EXAMPLE.support() == {1, 3, 4, 5}
        assert FCElement(4).support() == frozenset()
        assert FCElement(3, ((1, 3),)).support() == {1, 2, 3}

    def test_saturation(self):
        assert is_saturated_in([(3, 4), (2, 2)], 2, 4)
        assert not is_saturated_in([(4, 4)], 2, 4)
        assert is_saturated_in([], 5, 4)  # empty window is vacuous


class TestEnumeration:
    @pytest.mark.parametrize("n,count", [(0, 1), (1, 2), (2, 5), (3, 14), (8, 4862)])
    def test_catalan_counts(self, n, count):
        assert len(fc_list(n)) == count == catalan(n + 1)

    def test_no_duplicates(self):
        for n in range(7):
            assert len(set(fc_list(n))) == len(fc_list(n))

    def test_rank_one(self):
        assert set(fc_list(1)) == {FCElement(1), FCElement(1, ((1, 1),))}

    def test_negative_rank(self):
        with pytest.raises(RankOutOfRangeError, match="rank must be nonnegative, got -1"):
            next(enumerate_fc(-1))

    @pytest.mark.parametrize("n", range(10))
    def test_sized_equals_filtered_in_order(self, n):
        for p in range(-1, n + 2):
            assert list(enumerate_fc(n, p)) == [w for w in fc_list(n) if w.size == p]

    def test_sized_chain_longer_than_the_recursion_limit(self):
        (w,) = enumerate_fc(2000, 2000)
        assert w.pairs == tuple((i, i) for i in range(2000, 0, -1))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_images_are_exactly_the_321_avoiders(self, n):
        assert_holds("fc.permutations-321", n)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_thick_slim_partition(self, n):
        assert_holds("fc.partition-thick-slim", n)
