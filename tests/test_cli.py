"""End-to-end checks of the command line interface."""

import argparse
import contextlib
import hashlib
import io
import json
import sys
import time
from math import comb
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fcdiag import (
    FCDiagramError,
    ParseError,
    catalan,
    cli,
    count_start_end,
    diagram_of,
    diagram_to_fc,
    lattice,
    narayana,
    parse_diagram,
    parse_fc,
    tl,
)
from fcdiag import bijection, errors
from fcdiag.cli import main
from fcdiag.errors import MAX_RANK
from helpers import digit_limit, fc_elements, random_fc, staircase


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# The stderr line of the rank rule, the library's own refusal.
RANK_REFUSAL = "error: rank is more than 100000, the highest rank allowed\n"


def output_refusal(what, unit):
    """The stderr line of the output rule."""
    return f"error: {what} may print more than 10000000 {unit}, the most it is allowed\n"


ENUM_REFUSAL = output_refusal("enum", "blocks")
TRACE_REFUSAL = output_refusal("the drawing trace", "candidate dots")
CENSUS_REFUSAL = output_refusal("census", "arrows")


class TestMul:
    def test_worked_product(self, capsys):
        code, out, _ = run(capsys, "mul", "n=4:[1,4]", "n=4:[4,4][3,3][1,1]")
        assert code == 0
        assert out == "delta^1 * n=4:[3,3][1,1]\n"

    def test_json(self, capsys):
        code, out, _ = run(capsys, "mul", "--json", "n=4:[4,4][3,3][1,1]", "n=4:[1,4]")
        assert code == 0
        assert json.loads(out) == {
            "delta_exponent": 1,
            "result": {"n": 4, "pairs": [[4, 4], [1, 1]]},
        }

    def test_square_multiplies_one_element_by_itself(self, capsys, monkeypatch):
        text = "n=8:[6,8][5,7][3,4][1,3]"
        factors = []
        product = tl.monomial_product

        def recorded(*pair):
            factors.append(pair)
            return product(*pair)

        monkeypatch.setattr(tl, "monomial_product", recorded)
        for _ in range(2):  # the second time, the left factor keeps its drawing
            code, out, _ = run(capsys, "mul", text, text)
            assert (code, out) == (0, f"delta^1 * {text}\n")
        assert [left is right for left, right in factors] == [True, True]

    def test_non_canonical_factor_is_domain_error(self, capsys):
        code, out, err = run(capsys, "mul", "n=3:[2,3][2,2]", "n=3:[1,2]")
        assert (code, out) == (1, "")
        assert err == "error: block 2: start indices must strictly decrease, 2 follows 2\n"

    def test_rank_mismatch_is_domain_error(self, capsys):
        code, _, err = run(capsys, "mul", "n=3:[]", "n=4:[]")
        assert code == 1
        assert "rank" in err


class TestCount:
    def test_narayana_row(self, capsys):
        code, out, _ = run(capsys, "count", "--n", "4", "--narayana")
        assert code == 0
        assert out == "1 10 20 10 1\n"

    def test_triangle_row(self, capsys):
        assert run(capsys, "count", "--n", "4", "--triangle") == (0, "1 4 9 14 14\n", "")
        assert run(capsys, "count", "--n", "4", "--triangle", "--json") == (
            0,
            "[1, 4, 9, 14, 14]\n",
            "",
        )

    def test_catalan_default(self, capsys):
        code, out, _ = run(capsys, "count", "--n", "8")
        assert (code, out) == (0, "4862\n")

    def test_catalan_past_the_int_digit_limit(self, capsys):
        # C_7201 has 4 330 digits, more than Python 3.11 prints by default
        limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
        got = [run(capsys, "count", "--n", "7200", *flag) for flag in ([], ["--json"])]
        if limit is not None:
            assert sys.get_int_max_str_digits() == limit  # restored by main
            sys.set_int_max_str_digits(0)
        try:
            digits = str(comb(14402, 7201) // 7202)
        finally:
            if limit is not None:
                sys.set_int_max_str_digits(limit)
        assert len(digits) == 4330
        assert got == [(0, f"{digits}\n", ""), (0, f"[{digits}]\n", "")]


class TestConversions:
    def test_to_fc(self, capsys):
        code, out, _ = run(capsys, "to-fc", "strings=2;1-2,1'-2'")
        assert (code, out) == (0, "n=1:[1,1]\n")

    def test_to_diagram(self, capsys):
        code, out, _ = run(capsys, "to-diagram", "n=5:[4,5][3,3][1,1]")
        assert (code, out) == (0, "strings=6;1-2,3-6,4-5,1'-2',3'-4',5'-6'\n")

    def test_to_diagram_trace(self, capsys):
        code, out, _ = run(capsys, "to-diagram", "--trace", "--json", "n=3:[2,2][1,1]")
        assert code == 0
        payload = json.loads(out)
        assert payload["trace"]["positive_pairs"] == [[2, 1]]

    def test_to_diagram_trace_above_the_work_cap(self, capsys):
        # the n = 10 000 staircase: its 12 507 500 candidate dots are
        # quadratic in its size, and the drawing stops at the cap
        text = staircase(10_000).to_text()
        start = time.perf_counter()
        code, out, err = run(capsys, "to-diagram", "--trace", text)
        assert time.perf_counter() - start < 1
        assert (code, out, err) == (1, "", TRACE_REFUSAL)

    def test_to_diagram_trace_at_the_rank_cap(self, capsys):
        # the n = 10^5 staircase lists 1.25 G candidate dots: the one
        # traced drawing is refused once it has recorded 10^7
        text = staircase(100_000).to_text()
        start = time.perf_counter()
        code, out, err = run(capsys, "to-diagram", "--trace", text)
        assert time.perf_counter() - start < 1
        assert (code, out, err) == (1, "", TRACE_REFUSAL)

    def test_to_diagram_trace_at_the_work_cap(self, capsys, monkeypatch):
        # the worked example lists 7 candidate dots
        text = "n=5:[4,5][3,3][1,1]"
        monkeypatch.setattr(errors, "MAX_OUTPUT", 7)
        code, out, _ = run(capsys, "to-diagram", "--trace", text)
        assert code == 0 and out.count("\n") == 2
        monkeypatch.setattr(errors, "MAX_OUTPUT", 6)
        assert run(capsys, "to-diagram", "--trace", "--json", text) == (
            1,
            "",
            "error: the drawing trace may print more than 6 candidate dots, the most it is allowed\n",
        )

    def test_to_diagram_trace_draws_once(self, capsys, monkeypatch):
        calls = []
        draw = bijection._draw

        def spy(w, traced):
            calls.append(traced)
            return draw(w, traced)

        monkeypatch.setattr(bijection, "_draw", spy)
        code, out, _ = run(capsys, "to-diagram", "--trace", "n=5:[4,5][3,3][1,1]")
        assert code == 0 and out.count("\n") == 2
        assert calls == [True]

    def test_convert_fc_to_ballot(self, capsys):
        code, out, _ = run(
            capsys, "convert", "--from", "fc", "--to", "ballot", "n=5:[4,5][3,3][1,1]"
        )
        assert (code, out) == (0, "+-++--++-+--\n")

    def test_convert_ballot_to_fc(self, capsys):
        code, out, _ = run(capsys, "convert", "--from", "ballot", "--to", "fc", "+-++--++-+--")
        assert (code, out) == (0, "n=5:[4,5][3,3][1,1]\n")

    def test_convert_diagram_to_ballot_uses_tail_head_reading(self, capsys):
        code, out, _ = run(
            capsys,
            "convert",
            "--from",
            "diagram",
            "--to",
            "ballot",
            "strings=6;1-2,3-6,4-5,1'-2',3'-4',5'-6'",
        )
        assert (code, out) == (0, "+-++--+-+-+-\n")

    def test_convert_ballot_to_diagram_unsupported(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "convert", "--from", "ballot", "--to", "diagram", "+-")
        assert exc.value.code == 2

    def test_convert_diagram_to_fc_and_dyck(self, capsys):
        text = "strings=3;1-2,3-1',2'-3'"
        assert run(capsys, "convert", "--from", "diagram", "--to", "fc", text) == (
            0,
            "n=2:[1,2]\n",
            "",
        )
        assert run(capsys, "convert", "--from", "diagram", "--to", "dyck", text) == (
            0,
            "RRURUU\n",
            "",
        )

    def test_convert_fc_to_diagram(self, capsys):
        assert run(capsys, "convert", "--from", "fc", "--to", "diagram", "n=2:[1,2]") == (
            0,
            "strings=3;1-2,3-1',2'-3'\n",
            "",
        )

    def test_convert_dyck_roundtrip(self, capsys):
        code, out, _ = run(capsys, "convert", "--from", "fc", "--to", "dyck", "n=1:[1,1]")
        assert (code, out) == (0, "RURU\n")
        code, out, _ = run(capsys, "convert", "--from", "dyck", "--to", "fc", "RURU")
        assert (code, out) == (0, "n=1:[1,1]\n")


class TestEnumAndTable:
    def test_enum_count_and_determinism(self, capsys):
        code, out1, _ = run(capsys, "enum", "--n", "3")
        assert code == 0
        assert len(out1.splitlines()) == 14
        _, out2, _ = run(capsys, "enum", "--n", "3")
        assert out1 == out2

    def test_enum_size_filter(self, capsys):
        code, out, _ = run(capsys, "enum", "--n", "4", "--size", "2")
        assert code == 0
        assert len(out.splitlines()) == 20

    def test_enum_above_the_listing_cap(self, capsys):
        # 35 357 670 elements: more blocks than elements, so the block bound refuses them
        assert run(capsys, "enum", "--n", "15") == (1, "", ENUM_REFUSAL)
        assert run(capsys, "enum", "--n", "1000000000") == (1, "", RANK_REFUSAL)
        # one empty element, but of a rank above the cap: answered before this change
        assert run(capsys, "enum", "--n", "1000000000", "--size", "0") == (
            1,
            "",
            RANK_REFUSAL,
        )

    def test_enum_above_the_work_cap(self, capsys):
        # one element, but of 10^400 blocks: refused by its rank, before any count
        n = 10**400
        start = time.perf_counter()
        assert run(capsys, "enum", "--n", str(n), "--size", str(n)) == (
            1,
            "",
            RANK_REFUSAL,
        )
        assert time.perf_counter() - start < 2
        # 17 383 860 blocks at rank 13; rank 12 prints 4 457 400
        assert run(capsys, "enum", "--n", "13") == (1, "", ENUM_REFUSAL)
        assert 12 * catalan(13) // 2 <= errors.MAX_OUTPUT < 13 * catalan(14) // 2

    def test_enum_count_past_the_float_range(self, capsys):
        # the rank rule refuses before any count, so no count is estimated
        n = 10**400
        assert run(capsys, "enum", "--n", str(n)) == (1, "", RANK_REFUSAL)

    def test_enum_size_above_the_draw_cap(self, capsys):
        # one element inside the work cap, but 10^6 blocks took 300 MB to print
        cap = MAX_RANK
        start = time.perf_counter()
        for size in (10**6, cap + 1):
            assert run(capsys, "enum", "--n", str(size), "--size", str(size)) == (
                1,
                "",
                RANK_REFUSAL,
            )
        code, out, err = run(capsys, "enum", "--n", str(cap), "--size", str(cap))
        assert time.perf_counter() - start < 2
        assert (code, err) == (0, "")
        assert out == f"n={cap}:" + "".join(f"[{i},{i}]" for i in range(cap, 0, -1)) + "\n"

    def test_table_start_end_past_brute_force(self, capsys):
        code, out, _ = run(capsys, "table", "start-end", "--n", "60", "--format", "csv")
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert rows[59][1] == str(count_start_end(60, 60, 1).value)

    def test_table_csv(self, capsys):
        code, out, _ = run(capsys, "table", "narayana", "--n", "4", "--format", "csv")
        assert code == 0
        assert out.splitlines()[-1] == "4,1,10,20,10,1"

    def test_table_start_end_flags_enumerated_cells(self, capsys):
        # every cell is a closed form, so none is flagged or footnoted
        code, out, _ = run(capsys, "table", "start-end", "--n", "5")
        assert code == 0
        assert "*" not in out and "(" not in out
        assert out.splitlines()[-1].split() == ["5", "14", "14", "9", "4", "1"]

    def test_table_json(self, capsys):
        code, out, _ = run(capsys, "table", "triangle", "--n", "3", "--format", "json")
        payload = json.loads(out)
        assert payload["rows"][-1] == ["3", "1", "3", "5", "5"]


# SHA-256 of the stdout of census --n N --p P, for P = 0..N in turn, by
# flag and N = 0..9, as printed before the keys were named from one table
# per request.
CENSUS_DIGESTS = {
    "": (
        "2bca16793a24d45dd82ab6129c09fa6f8077d6d3dc91de3b1009d0057189e7d6",
        "954b54d90c3aa74d9ca761103b326122f3caf7f1652e27110d6755d4caa787e6",
        "8efd0223145e7772b06f97a14ecef326ccb7b61013e1104f49160e9cbfa8a23e",
        "ffa45fd983594fc41d1a5a706fd3c3e2ced23c8394d01cbac3bf37bb20081955",
        "2ae8618ff9554e5de0d5e6334591ac3f83a76a23d771ec8f460b1bc11b55735c",
        "bc6c812dcca4c17b8c712a7658f503dbfb5cfc3bdd1c85ed36e357f9a1399242",
        "d80c13db7cc743f9c0c0620b1660cbf2dc15de22c5d925b7f4041e679fa98feb",
        "596d2a2362d11931b670c24cc519aa92b0c0debf22e643d8772048c4113b82a1",
        "b860b13152baed25f796b17550bf000969c8ea7a40d209a7eae63eb2083c3cb2",
        "2e3fbcbee245eb0bce9713ae97e9e143b3c92032713fe0f3126bb6f7c1786793",
    ),
    "--json": (
        "7ef9a103c2fffd7d9fe4727d116db3ead7183c0280b78084989791fd72e7c23b",
        "467b14ba270c281a2ebfdb1d56044fba8700c26caa92122cfc9757915e6f2ba3",
        "82c1a04f8132d85205680008f5ebc1a1057d05d7f12bcaf2ed73bdc18ac20fbb",
        "1f3b3bd8f604797b246f6c10a8b06795d843ebd40be3685d9d1dad3bd0d78fe5",
        "890fbf4003533537299b8e5bfd6c40af516d804798c4a44a11ebfc3734903d91",
        "4724eff070d7bb6b1b801af5ca68af5052201143173e94c2b193e203c994e92e",
        "5cebdc51f76671a6bb399be31c2b0a10f257ebb6f45da8fe38ef3c60dae7a9aa",
        "e49a9eba0bb8b9821e3766d77d44ead59ca894dac7521b8b2d22ffac29a0d35d",
        "f8882850758195aefb18b0d081363f4bca0174e30a27664d6c423718c6475038",
        "06ec266ef45ede1a393f359d69fb6910959ba124f7a5b6b612dbca8d4fc4ab6a",
    ),
}


class TestCensusCommand:
    def test_rank_two(self, capsys):
        code, out, _ = run(capsys, "census", "--n", "2", "--p", "1")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 3
        assert all(line.endswith("\t1") for line in lines)

    @pytest.mark.parametrize("flag", ["", "--json"], ids=["text", "json"])
    @pytest.mark.parametrize("n", range(10))
    def test_bytes_are_pinned(self, capsys, n, flag):
        digest = hashlib.sha256()
        for p in range(n + 1):
            code, out, err = run(capsys, "census", "--n", str(n), "--p", str(p), *flag.split())
            assert (code, err) == (0, "")
            digest.update(out.encode())
        assert digest.hexdigest() == CENSUS_DIGESTS[flag][n]

    @pytest.mark.parametrize(
        "p, digest",
        [
            (0, "fe6ad89a8f71e83dad651de8045d27f13c92a8c63564ef106951e5c451126b10"),
            (99999, "161f1db358b6d0b273b39f07f37b2dc2230a42105e1b14e8c9e0dc41191d59a7"),
        ],
    )
    def test_longest_keys_are_pinned(self, capsys, p, digest):
        # one class each at rank 99 999: the 10^5 straight arrows t-t' at
        # p = 0, and the 99 998 arrows t-(t+2)' at p = n
        start = time.perf_counter()
        code, out, err = run(capsys, "census", "--n", "99999", "--p", str(p))
        assert time.perf_counter() - start < 2
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_above_the_listing_cap(self, capsys):
        # 41 N(40, 20) arrows, with more class keys than the cap
        assert 41 * narayana(40, 20) > narayana(40, 20) > errors.MAX_OUTPUT
        assert run(capsys, "census", "--n", "40", "--p", "20") == (1, "", CENSUS_REFUSAL)

    def test_above_the_work_cap(self, capsys):
        # one class key, but on 10^400 + 1 strings: refused by its rank, before any count
        n = 10**400
        start = time.perf_counter()
        assert run(capsys, "census", "--n", str(n), "--p", str(n)) == (
            1,
            "",
            RANK_REFUSAL,
        )
        assert time.perf_counter() - start < 2
        # 736 164 keys at most, of 14 arrows: 10 306 296 arrows
        assert 14 * narayana(13, 6) == 10_306_296
        assert run(capsys, "census", "--n", "13", "--p", "6") == (1, "", CENSUS_REFUSAL)

    def test_estimated_count_above_the_listing_cap(self, capsys):
        # counted exactly under the rank cap: N(10 000, 5 000) has 6 014 digits
        start = time.perf_counter()
        assert run(capsys, "census", "--n", "10000", "--p", "5000") == (1, "", CENSUS_REFUSAL)
        assert time.perf_counter() - start < 2

    def test_rank_above_the_draw_cap(self, capsys):
        # one class key inside the work cap, but on 10^6 + 1 strings it took 231 MB
        cap = MAX_RANK
        start = time.perf_counter()
        for n in (10**6, cap + 1):
            assert run(capsys, "census", "--n", str(n), "--p", "0") == (
                1,
                "",
                RANK_REFUSAL,
            )
        code, out, err = run(capsys, "census", "--n", str(cap), "--p", "0")
        assert time.perf_counter() - start < 2
        assert (code, err) == (0, "")
        assert out == ",".join(f"{i}-{i}'" for i in range(1, cap + 2)) + "\t1\n"


class TestRender:
    def test_writes_svg(self, capsys, tmp_path):
        target = tmp_path / "out.svg"
        code, out, _ = run(capsys, "render", "n=2:[1,2]", "--svg", str(target))
        assert code == 0
        assert out.strip() == str(target)
        assert target.read_text().startswith("<svg")

    def test_diagram_text_renders_like_its_element(self, capsys, tmp_path):
        by_diagram, by_element = tmp_path / "diagram.svg", tmp_path / "element.svg"
        text = "strings=3;1-2,3-1',2'-3'"
        assert run(capsys, "render", text, "--svg", str(by_diagram)) == (0, f"{by_diagram}\n", "")
        assert run(capsys, "render", "n=2:[1,2]", "--svg", str(by_element))[0] == 0
        assert by_diagram.read_bytes() == by_element.read_bytes()

    def test_unwritable_path_is_a_domain_error(self, capsys, tmp_path):
        target = tmp_path / "missing" / "x.svg"
        code, out, err = run(capsys, "render", "n=3:[1,1]", "--svg", str(target))
        assert (code, out) == (1, "")
        assert err.startswith("error: cannot write ") and str(target) in err
        assert err.count("\n") == 1

    def test_rank_above_the_draw_cap(self, capsys, tmp_path):
        # a few characters would otherwise draw 2(n+1) dots: 1.7 GB to render at 10^6
        target = tmp_path / "out.svg"
        cap = MAX_RANK
        start = time.perf_counter()
        for rank in (10**6, cap + 1):
            text = f"n={rank}:[]"
            for argv in (
                ["render", text, "--svg", str(target)],
                ["to-diagram", text],
                ["mul", "n=3:[]", text],
                ["convert", "--from", "fc", "--to", "ballot", text],
            ):
                assert run(capsys, *argv) == (1, "", RANK_REFUSAL), argv
        assert time.perf_counter() - start < 2
        assert not target.exists()
        assert run(capsys, "convert", "--from", "fc", "--to", "fc", f"n={cap}:[]")[:2] == (0, f"n={cap}:[]\n")


class TestVerifyCommand:
    def test_small_sweep_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "lattice", "--max-n", "3")
        assert code == 0
        assert "FAIL" not in out
        assert out.strip().splitlines()[-1].endswith("checks passed")

    def test_unknown_suite_is_a_usage_error(self, capsys):
        err = usage_error(capsys, "verify", "nosuch")
        assert err.endswith(
            "fcdiag: error: unknown suite(s) nosuch; "
            "choose from bijection, counting, diagram, fc, lattice, tl\n"
        )

    def test_check_with_no_rank_is_skipped(self, capsys):
        # readings-disagree covers ranks 2..8, so --max-n 1 runs none of it
        code, out, _ = run(capsys, "verify", "lattice", "--max-n", "1")
        assert code == 0
        assert out.splitlines() == [
            "PASS lattice.path-ballot-roundtrips",
            "SKIP lattice.readings-disagree: no rank in 2..8 within --max-n 1",
            "PASS lattice.diagram-ballot-bijective",
            "2/2 checks passed, 1 skipped",
        ]


class TestErrorPaths:
    def test_bad_canonical_form(self, capsys):
        code, _, err = run(capsys, "to-diagram", "n=5:[3,3][4,5]")
        assert code == 1
        assert "strictly decrease" in err

    def test_crossing_diagram(self, capsys):
        code, _, err = run(capsys, "to-fc", "strings=2;1-2',2-1'")
        assert code == 1
        assert "cross" in err

    def test_usage_error_exit_code(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["count"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("cli_first", [True, False], ids=["cli-first", "library-first"])
    @pytest.mark.parametrize(
        "argv, read",
        [
            pytest.param(["mul", "n=" + "7" * 5000 + ":[]", "n=3:[]"], parse_fc, id="mul-rank"),
            pytest.param(["to-diagram", "n=3:[" + "9" * 5000 + ",1]"], parse_fc, id="to-diagram"),
            pytest.param(
                ["to-fc", "strings=" + "2" * 5000 + ";1-2,1'-2'"], parse_diagram, id="to-fc"
            ),
        ],
    )
    def test_long_number_refused_in_either_order(self, capsys, argv, read, cli_first):
        # main lifts the int digit limit while it runs; the refusal must not
        # depend on that, nor on which of the two read the text first
        message = "a number of 5000 digits is more than 640, the most a text form may hold"
        assert_refused_in_either_order(capsys, argv, read, cli_first, message)

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int digit limit")
    @pytest.mark.parametrize("cli_first", [True, False], ids=["cli-first", "library-first"])
    @pytest.mark.parametrize(
        "argv, read",
        [
            pytest.param(["mul", "n=3:[]", "n=" + "1" * 641 + ":[]"], parse_fc, id="rank"),
            pytest.param(["to-diagram", "n=3:[" + "1" * 641 + ",1]"], parse_fc, id="start"),
            pytest.param(
                ["convert", "--from", "fc", "--to", "ballot", "n=3:[3," + "0" * 641 + "]"],
                parse_fc,
                id="end",
            ),
            pytest.param(["to-fc", "strings=" + "2" * 641 + ";1-2"], parse_diagram, id="strings"),
            pytest.param(
                ["convert", "--from", "diagram", "--to", "fc", "strings=2;1-2,1'-" + "2" * 641 + "'"],
                parse_diagram,
                id="dot",
            ),
        ],
    )
    def test_long_number_refused_at_the_lowest_digit_limit(self, capsys, argv, read, cli_first):
        # 640 is the lowest int digit limit Python accepts; the refusal
        # still names the number, where a bare ValueError came before
        message = "a number of 641 digits is more than 640, the most a text form may hold"
        with digit_limit(640):
            assert_refused_in_either_order(capsys, argv, read, cli_first, message)

    @pytest.mark.parametrize(
        "argv",
        [
            ["mul", "n=\uff13:[\uff12,\uff13]", "n=3:[1,2]"],
            ["to-fc", "strings=2;1-2,1'-\u0662'"],
        ],
        ids=["fc", "diagram"],
    )
    def test_non_ascii_digits_refused(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "") and err.startswith("error: not a")


def assert_refused_in_either_order(capsys, argv, read, cli_first, message):
    """``argv`` and ``read`` of its longest argument both refuse with
    ``message``, whichever of the two reads the text first."""
    text = max(argv, key=len)
    for by_cli in (cli_first, not cli_first):
        if by_cli:
            assert run(capsys, *argv) == (1, "", f"error: {message}\n")
        else:
            with pytest.raises(ParseError) as exc:
                read(text)
            assert str(exc.value) == message


def usage_error(capsys, *argv):
    """Run argv, expect exit 2 with nothing on stdout; return stderr."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    return captured.err


def digits_at_rank(n):
    """Digits of 4^(n+1), which bound those of every count at rank n."""
    power = 4 ** (n + 1)
    digits = 60205 * (n + 1) // 100000  # 0.60205 < log10 4, so power >= 10^digits
    while 10**digits <= power:
        digits += 1
    return digits


def largest_within_cap(n, values_at):
    """Whether n is the largest rank whose ``values_at(n)`` values, of at
    most ``digits_at_rank(n)`` digits each, stay within the output cap."""
    within = [values_at(m) * digits_at_rank(m) <= errors.MAX_OUTPUT for m in (n, n + 1)]
    return within == [True, False]


COUNT_REFUSAL = output_refusal("count", "digits")
TABLE_REFUSAL = output_refusal("table", "digits")


class TestCountAndTableBounds:
    @pytest.mark.parametrize(
        "argv, values, err",
        [
            # no answer within 25 s before the two rules
            (["count", "--n", "1000000"], 1, RANK_REFUSAL),
            (["count", "--n", "20000", "--narayana"], 20001, COUNT_REFUSAL),
            (["table", "narayana", "--n", "3000", "--format", "csv"], 3001**2, TABLE_REFUSAL),
            (["table", "triangle", "--n", "3000", "--format", "csv"], 3001**2, TABLE_REFUSAL),
            # 63-66 s for about 255 MB before
            (["table", "start-end", "--n", "1000", "--format", "csv"], 1000**2, TABLE_REFUSAL),
        ],
    )
    def test_refused_at_once(self, capsys, argv, values, err):
        n = int(argv[argv.index("--n") + 1])
        if n <= MAX_RANK:
            assert values * digits_at_rank(n) > errors.MAX_OUTPUT
        start = time.perf_counter()
        assert run(capsys, *argv) == (1, "", err)
        assert time.perf_counter() - start < 2

    @pytest.mark.parametrize("ranks", [range(0, 300), range(4000, 4100), range(99_990, 100_001)])
    def test_digit_bound_is_exact(self, ranks):
        assert [cli._digits_per_count(n) for n in ranks] == [digits_at_rank(n) for n in ranks]

    def test_count_row_at_the_output_cap(self, capsys):
        n = 4073
        assert largest_within_cap(n, lambda m: m + 1)
        code, out, err = run(capsys, "count", "--n", str(n), "--narayana")
        assert (code, err) == (0, "")
        assert len(out.split()) == n + 1
        for flag in ("--narayana", "--triangle"):
            assert run(capsys, "count", "--n", str(n + 1), flag) == (1, "", COUNT_REFUSAL)

    def test_triangle_row_at_the_output_cap(self, capsys):
        # 3.5 s from a fresh binomial per entry; the neighbour-ratio row takes about 0.2 s
        n = 4073
        start = time.perf_counter()
        code, out, err = run(capsys, "count", "--n", str(n), "--triangle")
        assert time.perf_counter() - start < 2
        assert (code, err) == (0, "")
        values = out.split()
        assert len(values) == n + 1
        assert values[:3] == ["1", str(n), str((n - 1) * (n + 2) // 2)]
        assert values[-1] == values[-2] == str(catalan(n))

    def test_table_at_the_output_cap(self, capsys):
        n = 254
        assert largest_within_cap(n, lambda m: m * m)
        code, out, err = run(capsys, "table", "start-end", "--n", str(n), "--format", "csv")
        assert (code, err) == (0, "")
        rows = out.splitlines()
        assert len(rows) == n + 1
        assert rows[n].split(",")[1] == str(count_start_end(n, n, 1).value)
        argv = ["table", "start-end", "--n", str(n + 1), "--format", "csv"]
        assert run(capsys, *argv) == (1, "", TABLE_REFUSAL)

    def test_catalan_at_the_rank_cap(self, capsys):
        # one value of at most 60 207 digits: the rank rule alone bounds it
        cap = MAX_RANK
        start = time.perf_counter()
        code, out, err = run(capsys, "count", "--n", str(cap))
        assert (code, err) == (0, "")
        assert 0 < len(out) - 1 <= digits_at_rank(cap)
        assert run(capsys, "count", "--n", str(cap + 1)) == (1, "", RANK_REFUSAL)
        assert time.perf_counter() - start < 4


class TestDrawingBounds:
    """Drawing costs O(strings + blocks), not O(length): the longest words
    inside the rank cap answer at once.  Gluing the word letter by letter
    took 4.4 s on the n = 20 000 staircase and grew with the square of n."""

    @pytest.mark.parametrize(
        "make",
        [lambda: staircase(MAX_RANK), lambda: random_fc(MAX_RANK, Random(0))],
        ids=["staircase", "random"],
    )
    def test_draws_at_the_rank_cap(self, capsys, tmp_path, make):
        w = make()
        text = w.to_text()
        outputs = []
        for argv in (["to-diagram", text], ["convert", "--from", "fc", "--to", "diagram", text]):
            start = time.perf_counter()
            code, out, err = run(capsys, *argv)
            assert time.perf_counter() - start < 2, argv
            assert (code, err) == (0, "")
            outputs.append(out)
        assert outputs[0] == outputs[1]
        assert diagram_to_fc(parse_diagram(outputs[0])) == w
        target = tmp_path / "out.svg"
        start = time.perf_counter()
        assert run(capsys, "render", text, "--svg", str(target)) == (0, f"{target}\n", "")
        assert time.perf_counter() - start < 5
        assert target.read_text().startswith("<svg")


# Ranks 0..12 exercise answers and domain errors; the three huge values
# exercise the rank rule.  enum is drawn at most at rank 10: ranks 11 and 12
# pass both rules but print 14-54 MB in 3-12 s.
SMALL = st.integers(0, 12)
HUGE = st.sampled_from([10**5 + 1, 10**9, 10**400])


@st.composite
def cli_argv(draw, svg):
    """One request with integer arguments, for any command but verify."""
    a, b = (str(draw(st.one_of(SMALL, HUGE))) for _ in range(2))
    enum_n = str(draw(st.one_of(st.integers(0, 10), HUGE)))
    fc = draw(st.sampled_from([f"n={a}:[]", f"n={a}:[{b},{b}]", f"n={a}:[{a},{a}][{b},{b}]"]))
    json_flag = draw(st.sampled_from([[], ["--json"]]))

    def one_of(*choices):
        return draw(st.sampled_from(choices))

    return one_of(
        ["enum", "--n", enum_n] + json_flag,
        ["enum", "--n", enum_n, "--size", b],
        ["count", "--n", a, one_of("--catalan", "--narayana", "--triangle")] + json_flag,
        ["table", one_of(*cli._TABLES), "--n", a, "--format", one_of("text", "csv", "json")],
        ["census", "--n", a, "--p", b] + json_flag,
        ["to-diagram", fc] + one_of([], ["--trace"]) + json_flag,
        ["mul", fc, f"n={b}:[]"],
        ["convert", "--from", "fc", "--to", one_of("fc", "dyck", "ballot", "diagram"), fc],
        ["render", fc, "--svg", svg],
        ["to-fc", f"strings={a};1-2,1'-2'"],
    )


# Characters of the four text forms, and a few that none of them uses.
TEXT_ALPHABET = "0123456789[],:=;-'nstrigRU+ x"
FORMS = ("fc", "diagram", "dyck", "ballot")


@st.composite
def mutated_text(draw, text):
    """``text`` with one to three characters deleted, inserted or replaced.

    New characters come from ``text`` itself as often as from
    ``TEXT_ALPHABET``, so that some mutants are still valid.  A one-digit
    rank gains at most three digits, so every rank stays far below the
    rank cap.
    """
    chars = list(text)
    new_char = st.one_of(st.sampled_from(chars or TEXT_ALPHABET), st.sampled_from(TEXT_ALPHABET))
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(chars)))
        how = draw(st.sampled_from(["delete", "insert", "replace"]))
        if how == "insert" or at == len(chars):
            chars.insert(at, draw(new_char))
        elif how == "delete":
            del chars[at]
        else:
            chars[at] = draw(new_char)
    return "".join(chars)


@st.composite
def mutated_argv(draw, svg):
    """One request that reads a mutated text form of a small element."""
    w = draw(fc_elements(max_rank=6))
    texts = {
        "fc": w.to_text(),
        "diagram": diagram_of(w).to_text(),
        "dyck": lattice.fc_to_dyck(w).to_text(),
        "ballot": lattice.fc_to_ballot(w).to_text(),
    }

    def one_of(*choices):
        return draw(st.sampled_from(choices))

    def mutated(form):
        return draw(mutated_text(texts[form]))

    source = one_of(*FORMS)
    json_flag = one_of([], ["--json"])
    return one_of(
        ["convert", "--from", source, "--to", one_of(*FORMS), mutated(source)],
        ["to-fc", mutated("diagram")] + json_flag,
        ["to-diagram", mutated("fc")] + one_of([], ["--trace"]) + json_flag,
        ["mul", mutated("fc"), one_of(texts["fc"], mutated("fc"))],
        ["render", mutated(one_of("fc", "diagram")), "--svg", svg],
    )


def assert_answers_or_refuses(argv):
    """Exit 0, 1 or 2 within 2 s, with no exception but SystemExit."""
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2), argv
    assert time.perf_counter() - start < 2, argv


class TestFuzz:
    @settings(deadline=None, max_examples=150)
    @given(data=st.data())
    def test_every_request_answers_or_refuses(self, tmp_path_factory, data):
        svg = str(tmp_path_factory.getbasetemp() / "fuzz.svg")
        assert_answers_or_refuses(data.draw(cli_argv(svg)))

    @settings(deadline=None, max_examples=150)
    @given(data=st.data())
    def test_mutated_text_forms_answer_or_refuse(self, tmp_path_factory, data):
        svg = str(tmp_path_factory.getbasetemp() / "fuzz.svg")
        assert_answers_or_refuses(data.draw(mutated_argv(svg)))


class TestNumericRanges:
    def test_count_negative_rank(self, capsys):
        err = usage_error(capsys, "count", "--n", "-3")
        assert "argument --n: must be >= 0, got -3" in err

    @pytest.mark.parametrize("value", ["0", "-5"])
    def test_verify_max_n_below_one(self, capsys, value):
        err = usage_error(capsys, "verify", "--max-n", value)
        assert f"argument --max-n: must be >= 1, got {value}" in err

    def test_census_size_above_rank(self, capsys):
        err = usage_error(capsys, "census", "--n", "3", "--p", "9")
        assert "argument --p: must be in 0..3 for --n 3, got 9" in err

    def test_table_start_end_negative_rank(self, capsys):
        err = usage_error(capsys, "table", "start-end", "--n", "-1")
        assert "argument --n: must be >= 1 for table start-end, got -1" in err

    def test_enum_size_above_rank(self, capsys):
        err = usage_error(capsys, "enum", "--n", "3", "--size", "4")
        assert "argument --size: must be in 0..3 for --n 3, got 4" in err

    def test_non_integer_keeps_argparse_message(self, capsys):
        err = usage_error(capsys, "count", "--n", "x")
        assert "argument --n: invalid int value: 'x'" in err

    def test_boundary_values_accepted(self, capsys):
        assert run(capsys, "count", "--n", "0")[:2] == (0, "1\n")
        assert run(capsys, "census", "--n", "3", "--p", "3")[0] == 0
        assert run(capsys, "table", "narayana", "--n", "0")[0] == 0
        assert run(capsys, "table", "start-end", "--n", "1")[0] == 0
        assert run(capsys, "verify", "lattice", "--max-n", "1")[0] == 0


class TestSharedParser:
    """main() reuses one parser; every outcome equals a fresh parser's."""

    def argv_list(self, tmp_path):
        return [
            ["enum", "--n", "3", "--size", "2"],
            ["count", "--n", "5", "--narayana", "--json"],
            ["table", "start-end", "--n", "4"],
            ["to-diagram", "--trace", "n=3:[2,2][1,1]"],
            ["to-fc", "--json", "strings=2;1-2,1'-2'"],
            ["mul", "n=4:[1,4]", "n=4:[4,4][3,3][1,1]"],
            ["convert", "--from", "fc", "--to", "ballot", "n=5:[4,5][3,3][1,1]"],
            ["render", "n=2:[1,2]", "--svg", str(tmp_path / "out.svg")],
            ["census", "--n", "3", "--p", "1", "--json"],
            ["verify", "lattice", "--max-n", "2"],
            ["count", "--n", "-3"],  # usage error
            ["convert", "--from", "ballot", "--to", "diagram", "+-"],  # usage error after parsing
            ["table", "narayana", "--n", "-1"],  # usage error raised by the command
            ["to-diagram", "n=5:[3,3][4,5]"],  # domain error
            ["count", "--n", "3", "--narayana", "--triangle"],  # mutually exclusive
            ["--help"],
            ["census", "--help"],
            ["enum", "--n", "2"],
        ]

    @staticmethod
    def outcome(capsys, argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_reused_parser_matches_fresh_parsers(self, capsys, monkeypatch, tmp_path):
        argvs = self.argv_list(tmp_path)
        assert cli._shared_parser() is cli._shared_parser()
        assert cli.build_parser() is not cli._shared_parser()
        shared = [self.outcome(capsys, argv) for argv in argvs + argvs]
        monkeypatch.setattr(cli, "_shared_parser", cli.build_parser)
        fresh = [self.outcome(capsys, argv) for argv in argvs]
        assert shared == fresh + fresh
        assert [code for code, _, _ in fresh] == [0] * 10 + [2, 2, 2, 1, 2, 0, 0, 0]


class TestDispatch:
    """main() parses a known command's arguments once, with that command's
    parser; every outcome and every Namespace equal the whole tree's."""

    def argv_list(self, tmp_path):
        return TestSharedParser().argv_list(tmp_path) + [
            [],
            ["bogus"],
            ["count", "--n", "3", "extra"],
            ["count", "--n", "3", "--", "x"],
            ["verify", "--", "fc", "--max-n", "2"],
            ["table", "narayana", "--n", "3", "--form", "csv"],
            ["count", "--n", "3", "--js"],
            ["count", "--n", "3", "--he"],
            ["table", "-h"],
            ["count", "--n", "3", "-1"],
            ["mul", "n=2:[1,1]", "n=2:[2,2]", "n=2:[]"],
        ]

    @pytest.fixture
    def parses(self, monkeypatch):
        """The Namespaces that parse_known_args returns, in call order."""
        seen = []
        parse_known_args = argparse.ArgumentParser.parse_known_args

        def spy(self, *args, **kwargs):
            result = parse_known_args(self, *args, **kwargs)
            seen.append(result[0])
            return result

        monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", spy)
        return seen

    @staticmethod
    def whole_tree(argv):
        """parse_args of the whole tree, then the command: (Namespace or
        None, code, stdout, stderr)."""
        out, err = io.StringIO(), io.StringIO()
        args = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                args = cli._shared_parser().parse_args(argv)
                code = args.func(args)
            except SystemExit as exc:
                code = exc.code
            except FCDiagramError as exc:
                print(f"error: {exc}", file=sys.stderr)
                code = 1
        return args, code, out.getvalue(), err.getvalue()

    @staticmethod
    def dispatched(parses, argv):
        """main(argv): (a Namespace or None, code, stdout, stderr)."""
        del parses[:]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        # once parsing succeeds, the last Namespace returned is main()'s
        return (parses or [None])[-1], code, out.getvalue(), err.getvalue()

    def assert_same(self, parses, argv):
        args, *outcome = self.dispatched(parses, argv)
        expected_args, *expected = self.whole_tree(argv)
        assert outcome == expected, argv
        if expected_args is not None:
            assert vars(args) == vars(expected_args), argv
        return outcome[0]

    def test_same_outcomes_as_the_whole_tree(self, parses, tmp_path):
        argvs = self.argv_list(tmp_path)
        codes = [self.assert_same(parses, argv) for argv in argvs]
        # how "--" is read varies with the Python version; the rest does not
        added = [code for argv, code in zip(argvs[-11:], codes[-11:]) if "--" not in argv]
        assert added == [2, 2, 2, 0, 0, 0, 0, 2, 2]

    def test_argv_from_sys_argv(self, parses, monkeypatch):
        for argv in (["count", "--n", "4", "--triangle"], ["count", "--n"], []):
            monkeypatch.setattr(sys, "argv", ["fcdiag", *argv])
            self.assert_same(parses, None)

    def test_a_known_command_is_parsed_once(self, parses, monkeypatch, capsys):
        assert main(["count", "--n", "3"]) == 0
        monkeypatch.setattr(sys, "argv", ["fcdiag", "count", "--n", "3"])
        assert main() == 0
        assert [vars(args)["command"] for args in parses] == ["count", "count"]
        assert capsys.readouterr().out == "14\n14\n"
