"""Diagrams: validation, generators, concatenation, components, flips,
enumeration, and serialization."""

import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fcdiag import (
    CrossingError,
    Diagram,
    FCDiagramError,
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
from fcdiag.diagram import run_action
from helpers import assert_holds, diagram_list, generator_words, mutated_json


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

    def test_no_strings(self):
        with pytest.raises(NotMatchingError, match="strings must be a positive integer, got 0"):
            Diagram(0, ())
        with pytest.raises(IndexOutOfRangeError, match="strings must be >= 1, got 0"):
            Diagram.identity(0)

    def test_arrow_dot_out_of_range(self):
        with pytest.raises(NotMatchingError, match="dot code 9 out of range for 2 strings"):
            Diagram.from_arrows(2, [(0, 9)])

    @pytest.mark.parametrize(
        "strings,partner,message",
        [
            (True, (1, 0), "strings must be a positive integer, got True"),  # was strings=True;1-1'
            (1.0, (1, 0), "strings must be a positive integer, got 1.0"),
            (2, (1.0, 0, 3, 2), "dot 1 is matched to 1.0, not an int"),  # was strings=2;1-2.0,...
            (1, (True, 0), "dot 1 is matched to True, not an int"),
            (1, ("1", 0), "dot 1 is matched to '1', not an int"),
            (2, (1, 0, 3, 2.0), "dot 2' is matched to 2.0, not an int"),
        ],
    )
    def test_constructor_refuses_non_integers(self, strings, partner, message):
        with pytest.raises(NotMatchingError) as exc:
            Diagram(strings, partner)
        assert str(exc.value) == message


def two_pass_verdict(k, partner):
    """Error class and message of a two-pass validation, or None if valid.

    An independent statement of the partner-array checks in two passes:
    first every dot is matched in range, to another dot and back; then the
    boundary walk must nest like balanced brackets.
    """
    m = 2 * k

    def name(d):
        return str(d + 1) if d < k else f"{d - k + 1}'"

    def arrow(d):
        return "-".join(name(c) for c in sorted((d, partner[d])))

    if len(partner) != m:
        return NotMatchingError, f"partner array must have length {m}, got {len(partner)}"
    for d, q in enumerate(partner):
        if not 0 <= q < m:
            return NotMatchingError, f"dot {name(d)} is matched out of range"
        if q == d:
            return NotMatchingError, f"dot {name(d)} is matched to itself"
        if partner[q] != d:
            return NotMatchingError, f"matching is not an involution at dot {name(d)}"
    stack = []
    for b, d in enumerate([*range(k), *range(m - 1, k - 1, -1)]):
        q = partner[d]
        if (q if q < k else 3 * k - 1 - q) > b:
            stack.append(d)
        else:
            top = stack.pop()
            if top != q:
                return CrossingError, f"arrows {arrow(top)} and {arrow(d)} cross"
    return None


def validator_verdict(k, partner):
    try:
        Diagram(k, partner)
    except (NotMatchingError, CrossingError) as exc:
        return type(exc), str(exc)
    return None


@st.composite
def partner_arrays(draw):
    """A string count and a partner array: random, or a mutated drawing."""
    k = draw(st.integers(min_value=1, max_value=6))
    m = 2 * k
    if draw(st.integers(min_value=0, max_value=3)) == 0:
        return k, draw(st.lists(st.integers(min_value=-1, max_value=m), min_size=m, max_size=m))
    word = draw(st.lists(st.integers(min_value=1, max_value=k - 1), max_size=12)) if k > 1 else []
    partner, _ = run_action(k, zip(word, word))
    dots = st.integers(min_value=0, max_value=m - 1)
    for kind in draw(st.lists(st.sampled_from(["swap", "set", "rewire", "rewire"]), max_size=3)):
        a, b = draw(dots), draw(dots)
        pa, pb = partner[a], partner[b]
        if kind == "swap":
            partner[a], partner[b] = pb, pa
        elif kind == "set":
            partner[a] = draw(st.integers(min_value=-1, max_value=m))
        elif 0 <= min(pa, pb) and max(pa, pb) < m and len({a, b, pa, pb}) == 4:
            if partner[pa] == a and partner[pb] == b:
                # arrows a-pa and b-pb become a-pb and b-pa: still a matching
                partner[a], partner[pb], partner[b], partner[pa] = pb, a, pa, b
    return k, partner


class TestOnePassValidation:
    """The constructor walks once and names faults as the two passes do."""

    @settings(max_examples=300)
    @given(partner_arrays())
    def test_same_verdict_as_two_passes(self, k_partner):
        k, partner = k_partner
        assert validator_verdict(k, partner) == two_pass_verdict(k, partner)

    @pytest.mark.parametrize("k", [1, 2])
    def test_same_verdict_on_every_small_array(self, k):
        m = 2 * k
        accepted = 0
        for partner in itertools.product(range(-1, m + 1), repeat=m):
            verdict = validator_verdict(k, partner)
            assert verdict == two_pass_verdict(k, partner)
            accepted += verdict is None
        assert accepted == catalan(k)

    def test_diagnose_raises_when_it_finds_nothing(self):
        with pytest.raises(NotMatchingError, match="not a non-crossing perfect matching"):
            Diagram.identity(3)._diagnose()


class TestConcatenate:
    @pytest.mark.parametrize("k,i", [(2, 1), (5, 2), (8, 7)])
    def test_squares_contract(self, k, i):
        assert concatenate(E(k, i), E(k, i)) == (E(k, i), 1)

    def test_sandwich_relation(self):
        d, m1 = concatenate(E(3, 1), E(3, 2))
        d, m2 = concatenate(d, E(3, 1))
        assert (d, m1 + m2) == (E(3, 1), 0)

    def test_string_mismatch(self):
        with pytest.raises(StringMismatchError):
            concatenate(E(2, 1), E(3, 1))

    def test_far_generators_commute(self):
        assert concatenate(E(5, 1), E(5, 4)) == concatenate(E(5, 4), E(5, 1))


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
        for bad in (1.5, True, "1"):
            with pytest.raises(IndexOutOfRangeError, match=f"got {bad}"):
                Diagram.from_word(4, (2, bad))

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

    def test_no_strings(self):
        with pytest.raises(IndexOutOfRangeError, match="strings must be >= 1, got 0"):
            list(enumerate_diagrams(0))

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

    @pytest.mark.parametrize(
        "obj",
        [
            {"strings": True, "partner": [2, 1]},  # printed strings=True;1-1'
            {"strings": 1, "partner": [2.0, 1]},
            {"strings": 1, "partner": [True, 2.7]},
            {"strings": 1.0, "partner": [2, 1]},
            {"strings": 1, "partner": ["2", "1"]},
        ],
    )
    def test_json_refuses_non_integers(self, obj):
        with pytest.raises(ParseError) as exc:
            diagram_from_json(obj)
        assert str(exc.value) == f"not a diagram JSON object: {obj!r}"

    @pytest.mark.parametrize(
        "obj",
        [
            {"strings": 1, "partner": {2: 0, 1: 0}},  # read its keys as strings=1;1-1'
            {"strings": 1, "partner": (2, 1)},
            {"strings": 1, "partner": "21"},
            {"strings": 1, "partner": 21},
        ],
    )
    def test_json_refuses_non_lists(self, obj):
        with pytest.raises(ParseError) as exc:
            diagram_from_json(obj)
        assert str(exc.value) == f"not a diagram JSON object: {obj!r}"

    @given(
        st.integers(min_value=1, max_value=5)
        .flatmap(lambda k: st.sampled_from(diagram_list(k)))
        .flatmap(lambda d: mutated_json(d.to_json()))
    )
    def test_mutated_json_is_read_or_refused(self, obj):
        try:
            d = diagram_from_json(obj)
        except FCDiagramError:
            return
        # what was read writes back the object's own integers, as JSON
        given_back = {"strings": obj["strings"], "partner": list(obj["partner"])}
        assert json.dumps(d.to_json()) == json.dumps(given_back)

    def test_head_first_arrows_parse_as_tail_first(self):
        assert parse_diagram("strings=2;2-1,2'-1'") == parse_diagram("strings=2;1-2,1'-2'")

    def test_json_numbering(self):
        assert E(2, 1).to_json() == {"strings": 2, "partner": [2, 1, 4, 3]}

    @pytest.mark.parametrize("bad", ["", "strings=2", "strings=2;1-2", "strings=2;1-5,1'-2'"])
    def test_parse_rejects_junk(self, bad):
        with pytest.raises((ParseError, NotMatchingError)):
            parse_diagram(bad)

    @pytest.mark.parametrize(
        "text,message",
        [
            ("strings=2;", "diagram text form has no arrows"),
            ("strings=2;1-2-3", "not an arrow: '1-2-3'"),
            ("strings=2;1-x,1'-2'", "not a dot: 'x'"),
        ],
    )
    def test_parse_messages(self, text, message):
        with pytest.raises(ParseError) as exc:
            parse_diagram(text)
        assert str(exc.value) == message

    def test_svg_is_deterministic(self):
        d = E(4, 2)
        svg = diagram_to_svg(d)
        assert svg == diagram_to_svg(d)
        assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
        assert svg.count("<circle") == 8

    def test_svg_text(self):
        # a top arc, a cross arrow and a bottom arc: every kind of path
        d = parse_diagram("strings=3;1-2,3-1',2'-3'")
        assert diagram_to_svg(d) == (
            '<svg xmlns="http://www.w3.org/2000/svg" width="128" height="128" viewBox="0 0 128 128">\n'
            '<g fill="none" stroke="black" stroke-width="1.5">\n'
            '<path d="M 28.0 28.0 C 28.0 42.4 64.0 42.4 64.0 28.0"/>\n'
            '<path d="M 100.0 28.0 C 100.0 64.0 28.0 64.0 28.0 100.0"/>\n'
            '<path d="M 64.0 100.0 C 64.0 85.6 100.0 85.6 100.0 100.0"/>\n'
            "</g>\n"
            '<g fill="black">\n'
            '<circle cx="28.0" cy="28.0" r="3.0"/>\n'
            '<circle cx="28.0" cy="100.0" r="3.0"/>\n'
            '<circle cx="64.0" cy="28.0" r="3.0"/>\n'
            '<circle cx="64.0" cy="100.0" r="3.0"/>\n'
            '<circle cx="100.0" cy="28.0" r="3.0"/>\n'
            '<circle cx="100.0" cy="100.0" r="3.0"/>\n'
            "</g>\n"
            '<g fill="gray" font-size="10" text-anchor="middle">\n'
            '<text x="28.0" y="20.0">1</text>\n'
            '<text x="28.0" y="116.0">1′</text>\n'
            '<text x="64.0" y="20.0">2</text>\n'
            '<text x="64.0" y="116.0">2′</text>\n'
            '<text x="100.0" y="20.0">3</text>\n'
            '<text x="100.0" y="116.0">3′</text>\n'
            "</g>\n"
            "</svg>\n"
        )

    @given(st.integers(min_value=1, max_value=5))
    def test_svg_renders_all_enumerated(self, k):
        for d in diagram_list(k):
            assert "<path" in diagram_to_svg(d) or k == 1
