"""Diagrams: validation, generators, concatenation, components, flips,
enumeration, and serialization."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fcdiag import (
    CrossingError,
    Diagram,
    IndexOutOfRangeError,
    NotMatchingError,
    ParseError,
    StringMismatchError,
    catalan,
    concatenate,
    diagram_from_json,
    diagram_to_svg,
    enumerate_diagrams,
    parse_diagram,
)
from helpers import assert_holds, diagram_list, generator_words


def E(strings, i):
    return Diagram.generator(strings, i)


def perfect_matchings(dots):
    """Every perfect matching of the list ``dots``, as a list of pairs."""
    if not dots:
        yield []
        return
    for i, q in enumerate(dots[1:], start=1):
        for rest in perfect_matchings(dots[1:i] + dots[i + 1 :]):
            yield [(dots[0], q)] + rest


class TestConstruction:
    def test_identity(self):
        d = Diagram.identity(3)
        assert d.arrows() == ((0, 3), (1, 4), (2, 5))
        assert d.to_text() == "strings=3;1-1',2-2',3-3'"

    def test_generator(self):
        assert E(2, 1).to_text() == "strings=2;1-2,1'-2'"
        e = E(6, 3)
        assert e.to_text() == "strings=6;1-1',2-2',3-4,5-5',6-6',3'-4'"

    def test_generator_index_range(self):
        with pytest.raises(IndexOutOfRangeError):
            E(6, 0)
        with pytest.raises(IndexOutOfRangeError):
            E(6, 6)

    def test_crossing_rejected(self):
        # 1-2' and 2-1' intersect
        with pytest.raises(CrossingError, match="cross"):
            Diagram.from_arrows(2, [(0, 3), (1, 2)])

    def test_crossing_carries_witness(self):
        try:
            Diagram.from_arrows(2, [(0, 3), (1, 2)])
        except CrossingError as exc:
            assert {exc.first, exc.second} == {(0, 3), (1, 2)}
        else:
            pytest.fail("expected CrossingError")

    def test_not_matching_rejected(self):
        with pytest.raises(NotMatchingError, match="unmatched"):
            Diagram.from_arrows(2, [(0, 2)])
        with pytest.raises(NotMatchingError, match="twice"):
            Diagram.from_arrows(2, [(0, 2), (0, 3)])

    def test_incomplete_matching_rejected_before_allocating(self):
        # a 2 * 10**12 partner array would not fit in memory
        with pytest.raises(NotMatchingError, match="dot 3 is unmatched"):
            parse_diagram(f"strings={10**12};1-2")

    @pytest.mark.parametrize("k,matchings", [(1, 1), (2, 3), (3, 15), (4, 105), (5, 945)])
    def test_planar_matchings_are_the_diagrams_and_keep_parity(self, k, matchings):
        accepted = set()
        for count, arrows in enumerate(perfect_matchings(list(range(2 * k))), start=1):
            try:
                accepted.add(Diagram.from_arrows(k, arrows))
            except CrossingError:
                continue
            # same-row arrows join dots of different parity, cross-row arrows
            # dots of equal parity (d % k is a dot's 0-based index in its row)
            for d, q in arrows:
                assert ((d < k) == (q < k)) == ((d % k - q % k) % 2 == 1)
        assert count == matchings
        assert accepted == set(diagram_list(k))

    def test_partner_array_checked(self):
        with pytest.raises(NotMatchingError):
            Diagram(2, (1, 0, 3, 2, 4, 5))  # wrong length
        with pytest.raises(NotMatchingError, match="itself"):
            Diagram(2, (0, 2, 1, 3))


class TestConcatenate:
    @pytest.mark.parametrize("k,i", [(2, 1), (5, 2), (8, 7)])
    def test_squares_contract(self, k, i):
        assert concatenate(E(k, i), E(k, i)) == (E(k, i), 1)

    def test_sandwich_relation(self):
        d, m1 = concatenate(E(3, 1), E(3, 2))
        d, m2 = concatenate(d, E(3, 1))
        assert (d, m1 + m2) == (E(3, 1), 0)

    def test_identity_neutral(self):
        assert_holds("diagram.identity-neutral", 3)  # 4 strings

    def test_string_mismatch(self):
        with pytest.raises(StringMismatchError):
            concatenate(E(2, 1), E(3, 1))

    def test_far_generators_commute(self):
        assert concatenate(E(5, 1), E(5, 4)) == concatenate(E(5, 4), E(5, 1))

    def test_loop_additivity_random(self):
        assert_holds("diagram.loop-additivity", range(1, 6))  # 2..6 strings


class TestFromWord:
    def test_empty_word_is_identity(self):
        for k in range(1, 6):
            assert Diagram.from_word(k, ()) == (Diagram.identity(k), 0)

    def test_square_closes_one_circle(self):
        assert Diagram.from_word(4, (2, 2)) == (E(4, 2), 1)
        assert Diagram.from_word(4, (2, 2, 2)) == (E(4, 2), 2)

    def test_sandwich_closes_none(self):
        assert Diagram.from_word(3, (1, 2, 1)) == (E(3, 1), 0)

    def test_index_range(self):
        with pytest.raises(IndexOutOfRangeError):
            Diagram.from_word(4, (1, 4))
        with pytest.raises(IndexOutOfRangeError):
            Diagram.from_word(4, (0,))
        with pytest.raises(IndexOutOfRangeError):
            Diagram.from_word(1, (1,))

    @settings(max_examples=300)
    @given(generator_words(max_rank=8, max_length=30))
    def test_equals_folded_concatenation(self, rank_word):
        rank, word = rank_word
        k = rank + 1
        expected, loops = Diagram.identity(k), 0
        for a in word:
            expected, m = concatenate(expected, E(k, a))
            loops += m
        diagram, kernel_loops = Diagram.from_word(k, word)
        assert (diagram, kernel_loops) == (expected, loops)
        # the kernel's partner array passes full validation on its own
        assert Diagram(k, diagram.partner) == diagram


class TestComponents:
    def test_identity_all_vertical(self):
        comp = Diagram.identity(4).components()
        assert not comp.top_arcs and not comp.bottom_arcs and not comp.positive
        assert len(comp.vertical_or_negative) == 4
        assert comp.size == 0
        assert comp.starts == comp.ends == frozenset()

    def test_generator(self):
        comp = E(5, 2).components()
        assert comp.top_arcs == {(1, 2)}
        assert comp.bottom_arcs == {(6, 7)}
        assert not comp.positive
        assert comp.starts == {2} and comp.ends == {2}
        assert comp.size == 1

    def test_single_block_diagram(self):
        # the diagram of the run [1,3] on 4 strings
        d = parse_diagram("strings=4;1-2,3-1',4-2',3'-4'")
        comp = d.components()
        assert comp.top_arcs == {(0, 1)}
        assert comp.bottom_arcs == {(6, 7)}
        assert comp.vertical_or_negative == {(2, 4), (3, 5)}
        assert comp.starts == {1} and comp.ends == {3}

    @pytest.mark.parametrize("k", range(1, 7))
    def test_counts_balance(self, k):
        for d in diagram_list(k):
            comp = d.components()
            assert len(comp.top_arcs) == len(comp.bottom_arcs)
            assert len(comp.starts) == len(comp.ends) == comp.size
            assert comp.size == len(comp.top_arcs) + len(comp.positive)


class TestFlips:
    def test_generator_symmetries(self):
        assert E(4, 2).flip_vertical() == E(4, 2)
        assert E(6, 1).flip_horizontal() == E(6, 5)

    @pytest.mark.parametrize("k", range(1, 7))
    def test_involutions(self, k):
        assert_holds("diagram.flip-involutions", k - 1)

    def test_vertical_flip_reverses_concatenation(self):
        d12, _ = concatenate(E(3, 1), E(3, 2))
        d21, _ = concatenate(E(3, 2), E(3, 1))
        assert d12.flip_vertical() == d21


class TestEnumeration:
    @pytest.mark.parametrize("k,count", [(1, 1), (2, 2), (3, 5), (5, 42), (7, 429)])
    def test_catalan_counts(self, k, count):
        assert len(diagram_list(k)) == count == catalan(k)

    @pytest.mark.parametrize("k", range(1, 8))
    def test_distinct(self, k):
        assert_holds("diagram.catalan-count", k - 1)

    @pytest.mark.parametrize("k", range(1, 7))
    def test_reconstruction_from_row_arcs(self, k):
        assert_holds("diagram.arc-reconstruction", k - 1)

    @pytest.mark.parametrize("k", range(2, 6))
    def test_row_arcs_persist_under_concatenation(self, k):
        assert_holds("diagram.arc-persistence", k - 1)


class TestSerialization:
    @pytest.mark.parametrize("k", range(1, 6))
    def test_text_roundtrip(self, k):
        for d in diagram_list(k):
            assert parse_diagram(d.to_text()) == d

    @pytest.mark.parametrize("k", range(1, 6))
    def test_json_roundtrip(self, k):
        for d in diagram_list(k):
            assert diagram_from_json(d.to_json()) == d

    def test_json_numbering(self):
        assert E(2, 1).to_json() == {"strings": 2, "partner": [2, 1, 4, 3]}

    @pytest.mark.parametrize("bad", ["", "strings=2", "strings=2;1-2", "strings=2;1-5,1'-2'"])
    def test_parse_rejects_junk(self, bad):
        with pytest.raises((ParseError, NotMatchingError)):
            parse_diagram(bad)

    def test_svg_is_deterministic(self):
        d = E(4, 2)
        svg = diagram_to_svg(d)
        assert svg == diagram_to_svg(d)
        assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
        assert svg.count("<circle") == 8

    @given(st.integers(min_value=1, max_value=5))
    def test_svg_renders_all_enumerated(self, k):
        for d in diagram_list(k):
            assert "<path" in diagram_to_svg(d) or k == 1
