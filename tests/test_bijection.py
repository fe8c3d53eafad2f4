"""The multiplication-compatible correspondence and its two algorithms."""

import random
import time
from dataclasses import replace

import pytest
from hypothesis import given, settings

from fcdiag import (
    Diagram,
    FCDiagramError,
    FCElement,
    IndexOutOfRangeError,
    NotMatchingError,
    RankOutOfRangeError,
    UnexpectedLoopError,
    block_pairs,
    concatenate,
    diagram_of,
    diagram_to_fc,
    dplus_condition,
    enumerate_fc,
    fc_to_diagram,
    fc_to_diagram_reference,
    monomial_product,
    parse_diagram,
    parse_fc,
    reference_drawings,
)
from fcdiag import bijection, errors
from fcdiag.diagram import run_action
from fcdiag.verify import _trace_faults
from helpers import (
    assert_diagram_revalidates,
    assert_holds,
    fc_elements,
    fc_list,
    fc_to_diagram_literal,
    generator_words,
    random_fc,
    rewrite_word,
    staircase,
)

W_EXAMPLE = parse_fc("n=5:[4,5][3,3][1,1]")


def assert_revalidates(w: FCElement) -> None:
    """The validating constructor accepts a result built without it, unchanged."""
    rebuilt = FCElement(w.rank, w.pairs)
    assert rebuilt == w and hash(rebuilt) == hash(w)
    assert all(type(x) is int for pair in w.pairs for x in pair)


class TestPositiveArrowPredicate:
    def test_adjacent_blocks(self):
        # j_1 = i_2 + 1 with i_1 = i_2 + 1 forces the arrow
        w = parse_fc("n=3:[2,2][1,1]")
        assert dplus_condition(w, 2, 1)

    def test_example_has_none(self):
        p = W_EXAMPLE.size
        assert not any(
            dplus_condition(W_EXAMPLE, s, t) for s in range(2, p + 1) for t in range(1, s)
        )

    def test_start_gap_blocks_arrow(self):
        w = parse_fc("n=4:[3,3][1,1]")
        assert not dplus_condition(w, 2, 1)

    def test_chained_case(self):
        # the saturated window [2,3] lets block 3 reach past block 2
        w = parse_fc("n=4:[3,4][2,3][1,1]")
        assert dplus_condition(w, 3, 1)
        assert not dplus_condition(w, 2, 1)
        assert not dplus_condition(w, 3, 2)

    def test_index_range_enforced(self):
        with pytest.raises(IndexOutOfRangeError):
            dplus_condition(W_EXAMPLE, 1, 1)
        with pytest.raises(IndexOutOfRangeError):
            dplus_condition(W_EXAMPLE, 4, 1)

    @pytest.mark.parametrize("s, t", [(2.0, 1), (2, 1.0), ("2", 1), (2, True)])
    def test_block_index_must_be_an_int(self, s, t):
        # the floats and the string raised a bare TypeError; (2, True) was read as (2, 1)
        with pytest.raises(IndexOutOfRangeError) as exc:
            dplus_condition(W_EXAMPLE, s, t)
        assert str(exc.value) == f"need 1 <= t < s <= 3, got s={s!r}, t={t!r}"

    @pytest.mark.parametrize("n", range(1, 7))
    def test_predicate_matches_reference_arrows(self, n):
        # (s, t) passes the predicate exactly when the oracle diagram has the
        # positive arrow tail i_s, head (j_t + 1)'
        for w in fc_list(n):
            positive = fc_to_diagram_reference(w).components().positive
            for s in range(2, w.size + 1):
                for t in range(1, s):
                    arrow = (w.pairs[s - 1][0] - 1, (n + 1) + w.pairs[t - 1][1])
                    assert dplus_condition(w, s, t) == (arrow in positive)


class TestDirectAlgorithm:
    def test_generator_image(self):
        d, _ = fc_to_diagram(FCElement(1, ((1, 1),)))
        assert d == Diagram.generator(2, 1)

    def test_single_block(self):
        d, _ = fc_to_diagram(parse_fc("n=3:[1,3]"))
        assert d == parse_diagram("strings=4;1-2,3-1',4-2',3'-4'")

    def test_positive_arrow_drawn(self):
        d, trace = fc_to_diagram(parse_fc("n=3:[2,2][1,1]"))
        assert d == parse_diagram("strings=4;1-3',2-3,4-4',1'-2'")
        assert trace.positive_pairs == ((2, 1),)

    def test_worked_example(self):
        d, trace = fc_to_diagram(W_EXAMPLE)
        assert d == parse_diagram("strings=6;1-2,3-6,4-5,1'-2',3'-4',5'-6'")
        assert trace.positive_pairs == ()
        assert [f for _, f in trace.top_sets] == [5, 6, 2]
        assert [g for _, g in trace.bottom_sets] == [5, 3, 1]

    def test_identity(self):
        d, trace = fc_to_diagram(FCElement(4))
        assert d == Diagram.identity(5)
        assert trace.positive_pairs == ()

    @pytest.mark.parametrize("n", range(0, 8))
    def test_reference_sweep_equals_per_element_oracle(self, n):
        # the sweep behind oracle-equivalence extends each parent's drawing
        assert list(reference_drawings(n)) == [
            (w, fc_to_diagram_reference(w)) for w in enumerate_fc(n)
        ]

    @pytest.mark.parametrize("n", range(2, 6))
    def test_reference_sweep_raises_like_per_element_oracle(self, n, monkeypatch):
        # only reachable if concatenation miscounted circles: here gluing e_1
        # below anything but the identity reports one, deep in the sweep
        concatenate = bijection.concatenate
        identity = Diagram.identity(n + 1)

        def miscounted(upper, lower):
            product, loops = concatenate(upper, lower)
            return product, loops + (lower.partner[0] == 1 and upper != identity)

        def first_error(drawings):
            with pytest.raises(UnexpectedLoopError) as error:
                for _ in drawings:
                    pass
            return str(error.value)

        monkeypatch.setattr(bijection, "concatenate", miscounted)
        per_element = (fc_to_diagram_reference(w) for w in enumerate_fc(n))
        assert first_error(reference_drawings(n)) == first_error(per_element)

    @pytest.mark.parametrize("n", range(0, 7))
    def test_start_end_data(self, n):
        for w in fc_list(n):
            comp = fc_to_diagram(w)[0].components()
            assert comp.starts == {i for i, _ in w.pairs}
            assert comp.ends == {j for _, j in w.pairs}
            assert comp.size == w.size


def assert_literal(w: FCElement) -> None:
    """The drawing and trace equal the literal five passes, each candidate
    set in ascending order."""
    drawn, trace = fc_to_diagram(w)
    literal, oracle = fc_to_diagram_literal(w)

    def ascending(sets):
        return tuple((tuple(sorted(cands)), dot) for cands, dot in sets)

    oracle = replace(
        oracle, top_sets=ascending(oracle.top_sets), bottom_sets=ascending(oracle.bottom_sets)
    )
    assert (drawn, trace) == (literal, oracle)


class TestLiteralOracle:
    @pytest.mark.parametrize("n", range(0, 10))
    def test_every_element(self, n):
        for w in fc_list(n):
            assert_literal(w)

    @pytest.mark.parametrize("n", [50, 400, 1000])
    def test_staircase(self, n):
        # no positive arrow, and candidate sets quadratic in the size
        assert_literal(staircase(n))

    @pytest.mark.parametrize("rank, count", [(10, 100), (40, 50), (150, 20), (500, 4), (2000, 1)])
    def test_random_elements(self, rank, count):
        rng = random.Random(rank)
        for _ in range(count):
            assert_literal(random_fc(rank, rng))

    @settings(deadline=None)
    @given(fc_elements(max_rank=60))
    def test_hypothesis_elements(self, w):
        assert_literal(w)


class TestKernel:
    @pytest.mark.parametrize("n", range(0, 9))
    def test_equals_five_pass_drawing(self, n):
        # with and without the trace: the kernel shares no code with the passes
        for w in fc_list(n):
            drawn, loops = Diagram.from_word(n + 1, w.word())
            assert (drawn, loops) == (fc_to_diagram(w)[0], 0)
            assert diagram_of(w) == drawn

    def test_long_staircase(self):
        w = staircase(400)
        assert w.length() == 200 * 201 // 2
        drawn = Diagram.from_word(401, w.word())
        assert drawn == (fc_to_diagram(w)[0], 0) == (diagram_of(w), 0)

    def test_diagram_of(self):
        assert diagram_of(W_EXAMPLE) == parse_diagram("strings=6;1-2,3-6,4-5,1'-2',3'-4',5'-6'")
        assert diagram_of(FCElement(0)) == Diagram.identity(1)

    def test_diagram_of_raises_on_a_closed_circle(self):
        # only reachable if a canonical word were not reduced: plant one
        # that is not, past the validating constructor.  The passes count
        # no circles and draw e_1, which reads back as one block, not two.
        # Both entries draw it, fc_to_diagram with its trace.
        w = FCElement(1, ((1, 1),))
        object.__setattr__(w, "pairs", ((1, 1), (1, 1)))
        for draw in (diagram_of, fc_to_diagram):
            with pytest.raises(FCDiagramError) as error:
                draw(w)
            assert type(error.value) is FCDiagramError
            assert str(error.value) == "the drawing of n=1:[1,1][1,1] does not read back as its blocks"

    @pytest.mark.parametrize("n", range(0, 10))
    def test_drawings_revalidate(self, n):
        # both entries build their Diagram unchecked
        for w in fc_list(n):
            assert_diagram_revalidates(fc_to_diagram(w)[0])
            assert_diagram_revalidates(diagram_of(w))

    @pytest.mark.parametrize("rank", [10, 50, 200, 1000, 2000])
    def test_random_drawings_revalidate(self, rank):
        rng = random.Random(rank)
        for _ in range(10):
            w = random_fc(rank, rng)
            assert_diagram_revalidates(fc_to_diagram(w)[0])
            assert_diagram_revalidates(diagram_of(w))

    def test_long_staircase_drawing_revalidates(self):
        # diagram_of only: the trace of this drawing would list 1.25e9 dots
        assert_diagram_revalidates(diagram_of(staircase(100_000)))

    @pytest.mark.parametrize("rank", [50, 200])
    def test_products_of_drawings_revalidate(self, rank):
        # concatenate builds its product unchecked
        rng = random.Random(rank)
        for _ in range(20):
            upper, lower = (diagram_of(random_fc(rank, rng)) for _ in range(2))
            assert_diagram_revalidates(concatenate(upper, lower)[0])

    @settings(deadline=None)
    @given(generator_words(max_rank=4, max_length=10))
    def test_equals_word_rewriting(self, rank_word):
        rank, word = rank_word
        diagram, loops = Diagram.from_word(rank + 1, word)
        assert (diagram_to_fc(diagram), loops) == rewrite_word(rank, word)

    @pytest.mark.parametrize("n", range(0, 9))
    def test_bare_list_revalidates(self, n):
        # products read the kernel's list without a Diagram, and products
        # and diagram_to_fc build their results without validation
        k = n + 1
        for w in fc_list(n):
            word = w.word()
            partner, loops = run_action(k, zip(word, word))
            drawn = Diagram(k, partner)
            assert (drawn, loops) == Diagram.from_word(k, w.word())
            assert block_pairs(k, partner) == w.pairs
            assert_revalidates(diagram_to_fc(drawn))
            for v in (w, w.dual(), w.delta_involution()):
                assert_revalidates(monomial_product(w, v)[0])

    @settings(deadline=None)
    @given(generator_words(max_rank=4, max_length=10))
    def test_bare_list_revalidates_on_any_word(self, rank_word):
        rank, word = rank_word
        partner, loops = run_action(rank + 1, zip(word, word))
        drawn = Diagram(rank + 1, partner)
        assert (drawn, loops) == Diagram.from_word(rank + 1, word)
        reading = FCElement(rank, block_pairs(rank + 1, partner))
        assert (reading, loops) == rewrite_word(rank, word)
        assert_revalidates(diagram_to_fc(drawn))
        # split the word, reduce both halves, and multiply them back
        half = len(word) // 2
        (x, m1), (y, m2) = rewrite_word(rank, word[:half]), rewrite_word(rank, word[half:])
        product, m3 = monomial_product(x, y)
        assert_revalidates(product)
        assert (product, m1 + m2 + m3) == (reading, loops)


# The refusal of a trace past the output cap.
TRACE_REFUSAL = (
    "the drawing trace may print more than 10000000 candidate dots, the most it is allowed"
)


class TestTraceCap:
    @pytest.mark.parametrize("n", [10_000, 100_000])
    def test_staircase_refused(self, n):
        # 12 507 500 and 1 250 075 000 candidate dots: refused as they are
        # recorded, before the trace could list them
        w = staircase(n)
        start = time.perf_counter()
        with pytest.raises(RankOutOfRangeError) as error:
            fc_to_diagram(w)
        assert time.perf_counter() - start < 1
        assert str(error.value) == TRACE_REFUSAL

    @pytest.mark.parametrize("n", [10_000, 100_000])
    def test_staircase_drawn_without_a_trace(self, n):
        w = staircase(n)
        assert diagram_to_fc(diagram_of(w)) == w

    def test_at_the_cap(self, monkeypatch):
        # the worked example lists 7 candidate dots: 2 + 1 + 1 on top, 1 + 1 + 1 below
        sets = fc_to_diagram(W_EXAMPLE)[1]
        assert sum(len(c) for c, _ in sets.top_sets + sets.bottom_sets) == 7
        monkeypatch.setattr(errors, "MAX_OUTPUT", 7)
        assert fc_to_diagram(W_EXAMPLE)[1] == sets
        monkeypatch.setattr(errors, "MAX_OUTPUT", 6)
        with pytest.raises(RankOutOfRangeError) as error:
            fc_to_diagram(W_EXAMPLE)
        assert str(error.value) == TRACE_REFUSAL.replace("10000000", "6")
        assert diagram_of(W_EXAMPLE) == parse_diagram("strings=6;1-2,3-6,4-5,1'-2',3'-4',5'-6'")


class TestReader:
    def test_identity_diagram(self):
        assert diagram_to_fc(Diagram.identity(5)) == FCElement(4)

    def test_generator_diagram(self):
        assert diagram_to_fc(Diagram.generator(6, 3)) == FCElement(5, ((3, 3),))

    def test_worked_example(self):
        d = parse_diagram("strings=6;1-2,3-6,4-5,1'-2',3'-4',5'-6'")
        assert diagram_to_fc(d) == W_EXAMPLE

    @pytest.mark.parametrize("n", range(0, 8))
    def test_roundtrip_from_elements(self, n):
        assert_holds("bijection.roundtrips", n)

    @pytest.mark.parametrize("strings, partner", [(3, []), (10**9, []), (2, [1, 0, 3, 2, 0])])
    def test_partner_of_the_wrong_length_refused(self, strings, partner):
        with pytest.raises(NotMatchingError) as error:
            block_pairs(strings, partner)
        assert str(error.value) == f"partner must have 2 * {strings} entries, got {len(partner)}"


class TestTrace:
    @settings(deadline=None)
    @given(fc_elements(max_rank=40))
    def test_long_elements(self, w):
        # the exhaustive sweeps stop at rank 8; positive arrows are common here
        drawn, trace = fc_to_diagram(w)
        assert run_action(w.rank + 1, w.pairs) == (list(drawn.partner), 0)
        assert list(_trace_faults(w, drawn, trace, drawn.components().positive)) == []
