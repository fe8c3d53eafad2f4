"""Canonical forms: validation, statistics, involutions, and the
permutation oracle."""

import contextlib
import itertools
import json
import random
import sys
import threading
import time
import weakref

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fcdiag import (
    Ballot,
    Classification,
    DeltaPoly,
    Diagram,
    FCDiagramError,
    FCElement,
    IdentityHasNoDescentsError,
    IndexOutOfRangeError,
    InvalidBallotError,
    NotMatchingError,
    NotNormalizedError,
    NotStandardError,
    NotThickError,
    ParseError,
    RankOutOfRangeError,
    TLElement,
    catalan,
    census,
    diagram_from_json,
    dplus_condition,
    enumerate_diagrams,
    enumerate_fc,
    expected_class_size,
    fc_from_json,
    inversions,
    is_321_avoiding,
    is_saturated_in,
    monomial_product,
    parse_ballot,
    parse_diagram,
    parse_dyck,
    parse_fc,
)
from fcdiag import fc
from helpers import assert_holds, digit_limit, fc_elements, fc_list, mutated_json

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

    @pytest.mark.parametrize(
        "pairs,message",
        [
            (((1, 2, 3),), "block 1: need a tuple of two ints, got (1, 2, 3)"),  # was ValueError
            ((5,), "block 1: need a tuple of two ints, got 5"),  # was TypeError
            (5, "blocks must be an iterable of blocks, each an iterable of two ints"),
            ([(2, 3), 1], "blocks must be an iterable of blocks, each an iterable of two ints"),
        ],
        ids=["three-entries", "int-block", "int-blocks", "int-in-list"],
    )
    def test_wrongly_shaped_blocks_are_refused(self, pairs, message):
        with pytest.raises(NotStandardError) as exc:
            FCElement(3, pairs)
        assert str(exc.value) == message


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


@contextlib.contextmanager
def empty_memo(chars: int | None = None):
    """Run with an empty parse_fc memo, of ``chars`` characters if given,
    and put the process's memo back after."""
    saved = fc._memo, fc._blocks, fc._memo_chars, fc._MEMO_CHARS
    fc._memo, fc._blocks, fc._memo_chars = {}, {}, 0
    if chars is not None:
        fc._MEMO_CHARS = chars
    try:
        yield
    finally:
        fc._memo, fc._blocks, fc._memo_chars, fc._MEMO_CHARS = saved


def outcome(text):
    """What ``parse_fc(text)`` gives: the element, or the refusal's class and message."""
    try:
        return parse_fc(text)
    except Exception as exc:  # noqa: BLE001 - the class is the outcome compared
        return type(exc), str(exc)


def assert_memo_within_its_bound() -> None:
    """The charge of the texts noted, their characters and the entries of
    their drawings, is right and within the bound, and the shared block
    table holds exactly the blocks of the elements held, each element
    using the shared tuples."""
    charges = (len(text) + 2 * (fc._parse_fc(text).rank + 1) for text in fc._memo)
    assert fc._memo_chars == sum(charges) <= fc._MEMO_CHARS
    held_blocks = [pair for w in fc._memo.values() if w is not None for pair in w.pairs]
    assert set(fc._blocks) == set(held_blocks)
    assert all(fc._blocks[pair] is pair for pair in held_blocks)


class YieldingDict(dict):
    """A dict whose ``setdefault`` first lets another thread run."""

    def setdefault(self, key, default=None):
        time.sleep(1e-5)
        return super().setdefault(key, default)


# Texts of the FC text form, of any other form, and junk.
FC_TEXTS = st.one_of(
    fc_elements().map(FCElement.to_text),
    fc_elements().map(lambda w: f" {w.to_text()}\n"),
    st.text("0123456789[],:n= ", max_size=24),
)


class TestParseMemo:
    def test_every_text_to_rank_6_on_a_miss_and_a_hit(self):
        with empty_memo():
            for n in range(7):
                for w in enumerate_fc(n):
                    text = w.to_text()
                    assert text not in fc._memo
                    assert parse_fc(text) == w and fc._memo[text] is None  # noted
                    second = parse_fc(text)
                    assert second == w and fc._memo[text] is second  # held
                    assert parse_fc(text) is second  # served
            assert len(fc._memo) == sum(catalan(n + 1) for n in range(7))
            assert_memo_within_its_bound()

    @given(FC_TEXTS)
    def test_a_text_reads_the_same_on_a_miss_and_a_hit(self, text):
        with empty_memo():
            first = outcome(text)
            assert outcome(text) == outcome(text) == first
            assert (text in fc._memo) == isinstance(first, FCElement)
        assert outcome(text) == first  # with whatever the process's memo holds

    def test_a_text_read_once_holds_no_element(self):
        texts = [w.to_text() for w in enumerate_fc(5)]
        with empty_memo():
            for text in texts:
                parse_fc(text)
            assert list(fc._memo) == texts
            assert set(fc._memo.values()) == {None} and fc._blocks == {}

    @pytest.mark.parametrize(
        "text",
        [
            "n=3:[2,3][2,2]",
            "n=3:",
            "5:[1,2]",
            "n=3:[1,1]x",
            pytest.param("n=3:[" + "9" * 4301 + ",1]", id="long"),
        ],
    )
    def test_a_refusal_is_not_held(self, text):
        with empty_memo():
            first = outcome(text)
            assert issubclass(first[0], FCDiagramError)
            assert outcome(text) == first
            assert fc._memo == {} and fc._blocks == {}

    @pytest.mark.parametrize(
        "arg, bare",
        [
            (None, AttributeError),
            (3, AttributeError),
            (["n=3:[]"], AttributeError),
            (b"n=3:[]", TypeError),
        ],
    )
    def test_a_non_str_argument_is_refused_as_before(self, arg, bare):
        # refused before the parse now, by name, not with the bare error
        # that the parse used to meet
        with empty_memo():
            for _ in range(2):
                with pytest.raises(ParseError) as exc:
                    parse_fc(arg)
                assert str(exc.value) == (
                    f"an FC element text form must be a str, got {type(arg).__name__}"
                )
                assert not isinstance(exc.value, bare)
            assert fc._memo == {}

    def test_a_str_subclass_is_parsed_but_not_held(self):
        class Text(str):
            pass

        with empty_memo():
            assert parse_fc(Text("n=3:[2,3]")) == FCElement(3, ((2, 3),))
            assert fc._memo == {}

    def test_memo_stays_within_its_bound(self):
        texts = [w.to_text() for w in enumerate_fc(10)]
        assert sum(map(len, texts)) > 4 * fc._MEMO_CHARS
        with empty_memo():
            for k, text in enumerate(texts):
                assert parse_fc(text).to_text() == text
                assert parse_fc(text).to_text() == text
                if k % 5000 == 0:
                    assert_memo_within_its_bound()
            assert_memo_within_its_bound()
            assert fc._memo  # the texts read since the memo was last emptied
            assert all(fc._memo[text] is parse_fc(text) for text in list(fc._memo))

    def test_a_text_longer_than_the_bound_is_read_but_not_held(self):
        rank = 40_000
        w = FCElement(rank, tuple((i, i) for i in range(rank, 0, -1)))
        text = w.to_text()
        assert len(text) > fc._MEMO_CHARS
        with empty_memo():
            parse_fc("n=3:[2,3]")
            assert parse_fc(text) == w and parse_fc(text) == w
            # 9 characters and the 8 entries of the drawing
            assert list(fc._memo) == ["n=3:[2,3]"] and fc._memo_chars == 17

    def test_a_held_drawing_is_charged(self):
        # An identity text near rank 10^5 is 10 characters, and its element,
        # once a left factor, keeps a drawing of 2 * 10^5 entries: the
        # charge holds one such element at a time, not one per text.
        alive = []
        with empty_memo():
            for rank in range(99_993, 100_001):
                text = f"n={rank}:[]"
                parse_fc(text)
                w = parse_fc(text)
                assert fc._memo[text] is w
                monomial_product(w, w)
                alive.append(weakref.ref(w))
                del w
            assert sum(ref() is not None for ref in alive) <= 1

    def test_four_threads_read_the_same(self):
        # A bound of a few texts empties the memo many times while the
        # threads read, and the block table hands the interpreter to
        # another thread at each block it shares, in the middle of holding
        # an element.  Each thread checks the memo under its lock after
        # every read, so an update made outside the lock shows as a count,
        # a text or a block out of place.
        texts = [w.to_text() for w in enumerate_fc(4)] + ["n=3:[2,3][2,2]", "n=3:"]
        want = {text: outcome(text) for text in texts}
        wrong: list[str] = []
        errors: list[BaseException] = []
        finished: list[int] = []

        def read(seed):
            try:
                for text in random.Random(seed).sample(texts * 20, 20 * len(texts)):
                    if outcome(text) != want[text]:
                        wrong.append(text)
                    with fc._memo_lock:
                        assert_memo_within_its_bound()
                finished.append(seed)
            except BaseException as exc:  # noqa: BLE001 - reported by the main thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with empty_memo(chars=120):
                fc._blocks = YieldingDict()
                threads = [threading.Thread(target=read, args=(seed,)) for seed in range(4)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert errors == [] and wrong == []
        assert sorted(finished) == [0, 1, 2, 3]


HAS_DIGIT_LIMIT = hasattr(sys, "set_int_max_str_digits")
BIG = "9" * 640  # the longest number a text form may hold


def long_number_refusal(digits):
    return f"a number of {digits} digits is more than 640, the most a text form may hold"


class TestLongNumbers:
    @pytest.mark.parametrize(
        "text, digits",
        [
            pytest.param("n=" + "1" * 641 + ":[]", 641, id="rank"),
            pytest.param("n=3:[" + "9" * 5000 + ",1]", 5000, id="start"),
            pytest.param("n=3:[1," + "0" * 641 + "1]", 642, id="end"),
        ],
    )
    def test_a_number_over_the_digit_cap_is_a_parse_error(self, text, digits):
        with pytest.raises(ParseError) as exc:
            parse_fc(text)
        assert str(exc.value) == long_number_refusal(digits)

    def test_the_first_long_number_is_named_unless_the_body_is_junk(self):
        text = "n=3:[3,3][" + "1" * 700 + ",1][1," + "2" * 800 + "]"
        with pytest.raises(ParseError) as exc:
            parse_fc(text)
        assert str(exc.value) == long_number_refusal(700)
        with pytest.raises(ParseError) as exc:
            parse_fc(text + "x")
        assert str(exc.value) == f"trailing junk in FC element text form: {text + 'x'!r}"

    @pytest.mark.skipif(not HAS_DIGIT_LIMIT, reason="no int digit limit")
    @pytest.mark.parametrize("limit", [0, 640, 4300])
    def test_the_answer_does_not_depend_on_the_digit_limit(self, limit):
        rank = 10**639 + 7
        texts = [
            f"n={rank}:[]",
            f"n={rank}:[{rank - 1},{rank}][1,1]",
            "n=" + "0" * 639 + "3:[3,3]",
        ]
        with digit_limit(limit), empty_memo():
            got = [parse_fc(text) for text in texts]
            assert [w.to_text() for w in got] == [texts[0], texts[1], "n=3:[3,3]"]
        assert got == [
            FCElement(rank),
            FCElement(rank, ((rank - 1, rank), (1, 1))),
            FCElement(3, ((3, 3),)),
        ]

    @pytest.mark.skipif(not HAS_DIGIT_LIMIT, reason="no int digit limit")
    @pytest.mark.parametrize(
        "read, text",
        [
            pytest.param(parse_fc, f"n=3:[{BIG},1]", id="start-above-rank"),
            pytest.param(parse_fc, f"n={BIG}:[{BIG},1][{BIG},1]", id="start-repeated"),
            pytest.param(parse_fc, f"n={BIG}:[2,{BIG}][1,{BIG}]", id="end-repeated"),
            pytest.param(parse_fc, f"n={BIG}:[{BIG},1]x", id="fc-junk"),
            pytest.param(parse_fc, f"n={BIG}:", id="fc-no-blocks"),
            pytest.param(parse_diagram, f"strings=2;1-{BIG}", id="dot-above-strings"),
            pytest.param(parse_diagram, f"strings={sys.maxsize // 2};1-2", id="dot-unmatched"),
            pytest.param(parse_diagram, f"strings={BIG};1-2", id="strings-unindexable"),
            pytest.param(parse_diagram, f"strings={BIG};{BIG}-{BIG}'x", id="diagram-junk"),
        ],
    )
    def test_a_refusal_does_not_depend_on_the_digit_limit(self, read, text):
        # the refusal quotes a number of 640 digits, a dot, or the most
        # strings a partner array can index, and str() writes it under the
        # lowest limit as under none
        outcomes = []
        for limit in (0, 640, 4300):
            with digit_limit(limit), empty_memo():
                with pytest.raises(FCDiagramError) as exc:
                    read(text)
                outcomes.append((type(exc.value), str(exc.value)))
        assert outcomes[0] == outcomes[1] == outcomes[2]
        assert any(part in outcomes[0][1] for part in (BIG, "unmatched", "can be indexed"))


HUGE = 10**5000  # more digits than int() writes under the default limit
LONG = "an int of more than 640 digits"
SELF_HOLDING: list = []
SELF_HOLDING.append(SELF_HOLDING)
DEEP: list = []  # a list nested 10 000 deep, ten times the recursion limit
for _ in range(10_000):
    DEEP = [DEEP]
# how a message shows DEEP one level down: 99 levels, then a stand-in
DEEP_SHOWN = "[" * 99 + "a list nested 100 deep" + "]" * 99


class TestLongInts:
    """An int of more than 640 digits is no rank or string count, and no
    refusal writes one out: class and message are the same under any int
    digit limit."""

    @pytest.mark.skipif(not HAS_DIGIT_LIMIT, reason="no int digit limit")
    @pytest.mark.parametrize(
        "call, error, message",
        [
            pytest.param(
                lambda: FCElement(-HUGE),
                RankOutOfRangeError,
                f"rank must be nonnegative, got {LONG}",
                id="fc-negative-rank",
            ),
            pytest.param(
                lambda: FCElement(HUGE).to_text(),
                RankOutOfRangeError,
                "rank has more than 640 digits, the most a rank may have",
                id="fc-rank",
            ),
            pytest.param(
                lambda: FCElement(3, ((HUGE, 1),)),
                NotStandardError,
                f"block 1: need 1 <= i <= j <= 3, got [{LONG},1]",
                id="fc-start",
            ),
            pytest.param(
                lambda: FCElement(3, ((HUGE, 1.5),)),
                NotStandardError,
                f"block 1: need a tuple of two ints, got ({LONG}, 1.5)",
                id="fc-block",
            ),
            pytest.param(
                lambda: next(enumerate_fc(10**640)),
                RankOutOfRangeError,
                "rank has more than 640 digits, the most a rank may have",
                id="enumerate-fc",
            ),
            pytest.param(
                lambda: Diagram.identity(-HUGE),
                IndexOutOfRangeError,
                f"strings must be >= 1, got {LONG}",
                id="identity",
            ),
            pytest.param(
                lambda: Diagram.identity(10**640),
                IndexOutOfRangeError,
                "strings has more than 640 digits, the most a string count may have",
                id="identity-long",
            ),
            pytest.param(
                lambda: Diagram.identity(10**600),
                IndexOutOfRangeError,
                f"strings is more than {sys.maxsize // 2}, the most whose partner array"
                " of 2 * strings dots can be indexed",
                id="identity-unindexable",
            ),
            pytest.param(
                lambda: monomial_product(FCElement(10**600), FCElement(10**600)),
                IndexOutOfRangeError,
                f"strings is more than {sys.maxsize // 2}, the most whose partner array"
                " of 2 * strings dots can be indexed",
                id="product-unindexable",
            ),
            pytest.param(
                lambda: Diagram.generator(3, HUGE),
                IndexOutOfRangeError,
                f"generator index must satisfy 1 <= i <= 2, got {LONG}",
                id="generator",
            ),
            pytest.param(
                lambda: Diagram.from_arrows(2, [(0, HUGE)]),
                NotMatchingError,
                f"dot code {LONG} out of range for 2 strings",
                id="from-arrows",
            ),
            pytest.param(
                lambda: next(enumerate_diagrams(-HUGE)),
                IndexOutOfRangeError,
                f"strings must be >= 1, got {LONG}",
                id="enumerate-diagrams",
            ),
            pytest.param(
                lambda: expected_class_size(-HUGE, ()),
                IndexOutOfRangeError,
                f"strings must be >= 1, got {LONG}",
                id="class-size",
            ),
            pytest.param(
                lambda: dplus_condition(W_EXAMPLE, HUGE, 1),
                IndexOutOfRangeError,
                f"need 1 <= t < s <= 3, got s={LONG}, t=1",
                id="dplus",
            ),
            pytest.param(
                lambda: Ballot((HUGE, -1)),
                InvalidBallotError,
                f"signs must be +1 or -1, got {LONG}",
                id="ballot",
            ),
            pytest.param(
                lambda: census(-HUGE, 1),
                RankOutOfRangeError,
                f"rank must be nonnegative, got {LONG}",
                id="census",
            ),
            pytest.param(
                lambda: TLElement.zero(-HUGE),
                RankOutOfRangeError,
                f"rank must be nonnegative, got {LONG}",
                id="tl-zero",
            ),
            pytest.param(
                lambda: str(DeltaPoly(((HUGE, 1),))),
                NotNormalizedError,
                "an exponent or a coefficient has more than 640 digits, the most a polynomial prints",
                id="delta-poly-exponent",
            ),
            pytest.param(
                lambda: str(DeltaPoly(((1, HUGE),))),
                NotNormalizedError,
                "an exponent or a coefficient has more than 640 digits, the most a polynomial prints",
                id="delta-poly-coefficient",
            ),
            pytest.param(
                lambda: catalan(-HUGE),
                RankOutOfRangeError,
                f"catalan is defined for m >= 0, got {LONG}",
                id="catalan",
            ),
            pytest.param(
                lambda: fc_from_json({"n": HUGE, "pairs": 3}),
                ParseError,
                f"not an FC element JSON object: {{'n': {LONG}, 'pairs': 3}}",
                id="fc-json",
            ),
            pytest.param(
                lambda: diagram_from_json({"strings": HUGE, "partner": "x"}),
                ParseError,
                f"not a diagram JSON object: {{'strings': {LONG}, 'partner': 'x'}}",
                id="diagram-json",
            ),
            pytest.param(
                lambda: fc_from_json({"n": 3, "pairs": [[1, 2, HUGE]]}),
                ParseError,
                f"not an FC element JSON object: {{'n': 3, 'pairs': [[1, 2, {LONG}]]}}",
                id="fc-json-nested",
            ),
            pytest.param(
                lambda: FCElement(3, ((1, (2, HUGE)),)),
                NotStandardError,
                f"block 1: need a tuple of two ints, got (1, (2, {LONG}))",
                id="fc-block-nested",
            ),
            pytest.param(
                lambda: Diagram.from_arrows(3, [(0, (1, HUGE))]),
                NotMatchingError,
                f"arrow must be a pair of int dot codes, got (0, (1, {LONG}))",
                id="from-arrows-nested",
            ),
            pytest.param(
                lambda: Diagram(((HUGE,),), ()),
                NotMatchingError,
                f"strings must be a positive integer, got (({LONG},),)",
                id="strings-nested",
            ),
            pytest.param(
                lambda: fc_from_json({"n": 3, "pairs": SELF_HOLDING}),
                ParseError,
                "not an FC element JSON object: {'n': 3, 'pairs': [[...]]}",
                id="fc-json-self-holding",
            ),
            pytest.param(
                lambda: fc_from_json({"n": 3, "pairs": DEEP}),
                ParseError,
                f"not an FC element JSON object: {{'n': 3, 'pairs': {DEEP_SHOWN}}}",
                id="fc-json-deep",
            ),
            pytest.param(
                lambda: diagram_from_json({"strings": 3, "partner": DEEP}),
                ParseError,
                f"not a diagram JSON object: {{'strings': 3, 'partner': {DEEP_SHOWN}}}",
                id="diagram-json-deep",
            ),
        ],
    )
    def test_refused_by_name_under_any_digit_limit(self, call, error, message):
        for limit in (0, 640, 4300):
            with digit_limit(limit):
                with pytest.raises(FCDiagramError) as exc:
                    call()
            assert (type(exc.value), str(exc.value)) == (error, message), limit

    @pytest.mark.skipif(not HAS_DIGIT_LIMIT, reason="no int digit limit")
    def test_the_longest_rank_prints_under_the_lowest_limit(self):
        rank = 10**640 - 1
        with digit_limit(640):
            assert FCElement(rank, ((rank, rank),)).to_text() == f"n={rank}:[{rank},{rank}]"
            with pytest.raises(RankOutOfRangeError, match="rank has more than 640 digits"):
                FCElement(rank + 1)


class TestNonStrText:
    """Every text reader refuses a non-``str`` by name; a ``str`` subclass reads."""

    @pytest.mark.parametrize("arg", [None, 3, b"+-", ["+-"]], ids=["none", "int", "bytes", "list"])
    @pytest.mark.parametrize(
        "read, form",
        [
            pytest.param(parse_diagram, "a diagram text form", id="diagram"),
            pytest.param(parse_dyck, "a path text form", id="dyck"),
            pytest.param(parse_ballot, "a ballot text form", id="ballot"),
        ],
    )
    def test_refused_with_a_parse_error(self, read, form, arg):
        with pytest.raises(ParseError) as exc:
            read(arg)
        assert str(exc.value) == f"{form} must be a str, got {type(arg).__name__}"

    @pytest.mark.parametrize(
        "read, text",
        [
            pytest.param(parse_diagram, "strings=2;1-2,1'-2'", id="diagram"),
            pytest.param(parse_dyck, "RRUU", id="dyck"),
            pytest.param(parse_ballot, "++--", id="ballot"),
        ],
    )
    def test_a_str_subclass_reads(self, read, text):
        class Text(str):
            pass

        assert read(Text(text)) == read(text)


class TestAsciiDigits:
    # a digit of another script is no digit of a text form: fullwidth,
    # Arabic-Indic, Devanagari
    @pytest.mark.parametrize(
        "digit", ["\uff13", "\u0663", "\u0969"], ids=["fullwidth", "arabic", "devanagari"]
    )
    @pytest.mark.parametrize(
        "read, template",
        [
            pytest.param(parse_fc, "n={}:[2,3]", id="rank"),
            pytest.param(parse_fc, "n=3:[{},3]", id="start"),
            pytest.param(parse_fc, "n=3:[2,{}]", id="end"),
            pytest.param(parse_diagram, "strings={};1-2,3-1',2'-3'", id="strings"),
            pytest.param(parse_diagram, "strings=3;1-2,{}-1',2'-3'", id="top-dot"),
            pytest.param(parse_diagram, "strings=3;1-2,3-1',2'-{}'", id="bottom-dot"),
        ],
    )
    def test_a_non_ascii_digit_is_a_parse_error(self, read, template, digit):
        read(template.format("3"))  # the ASCII digit 3 in its place reads
        text = template.format(digit)
        with empty_memo():
            for _ in range(2):
                with pytest.raises(ParseError):
                    read(text)
            assert fc._memo == {}


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

    @pytest.mark.parametrize("rank", [True, 2.5])
    def test_rank_must_be_an_int(self, rank):
        with pytest.raises(RankOutOfRangeError) as exc:
            next(enumerate_fc(rank))  # the constructor's error, from before the walk
        assert str(exc.value) == f"rank must be a nonnegative integer, got {rank!r}"

    @pytest.mark.parametrize("n", range(11))
    def test_elements_pass_the_validating_constructor(self, n):
        # enumerate_fc builds its elements unchecked
        for size in (None, *range(n + 1)):
            for w in enumerate_fc(n, size):
                assert FCElement(w.rank, w.pairs) == w

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


def has_321(images):
    """The definition, in O(m^3): some a < b < c with images[a] > images[b] > images[c]."""
    return any(a > b > c for a, b, c in itertools.combinations(images, 3))


class TestIs321Avoiding:
    @pytest.mark.parametrize("m", range(9))
    def test_every_permutation(self, m):
        for p in itertools.permutations(range(1, m + 1)):
            assert is_321_avoiding(p) is not has_321(p), p

    def test_int_sequences_with_repeats(self):
        # ties never form a pattern; values may be negative or past the length
        rng = random.Random(321)
        for _ in range(5000):
            m = rng.randint(0, 12)
            span = rng.choice((1, 3, 6, 10**20))
            seq = [rng.randint(-span, span) for _ in range(m)]
            assert is_321_avoiding(seq) is not has_321(seq), seq
