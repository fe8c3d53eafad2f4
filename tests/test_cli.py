"""End-to-end checks of the command line interface."""

import json
import sys
import time
from math import comb

import pytest

from fcdiag import cli, count_start_end, narayana
from fcdiag.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
        code, out, err = run(capsys, "enum", "--n", "15")
        assert (code, out) == (1, "")
        assert "rank 15 has 35357670 elements" in err
        code, _, err = run(capsys, "enum", "--n", "1000000000")
        assert code == 1 and "has about 10^602059978 elements" in err
        assert run(capsys, "enum", "--n", "1000000000", "--size", "0")[:2] == (0, "n=1000000000:[]\n")

    def test_enum_above_the_work_cap(self, capsys):
        # one element, but of 10^400 blocks
        n = str(10**400)
        start = time.perf_counter()
        code, out, err = run(capsys, "enum", "--n", n, "--size", n)
        assert time.perf_counter() - start < 2
        assert (code, out) == (1, "")
        assert err == (
            f"error: rank {n} has 1 elements of size {n}, {n} blocks in all, "
            f"more than the {cli.WORK_CAP} blocks that enum may print\n"
        )
        code, _, err = run(capsys, "enum", "--n", "13")
        assert code == 1 and "17383860 blocks in all" in err

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


class TestCensusCommand:
    def test_rank_two(self, capsys):
        code, out, _ = run(capsys, "census", "--n", "2", "--p", "1")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 3
        assert all(line.endswith("\t1") for line in lines)

    def test_above_the_listing_cap(self, capsys):
        code, out, err = run(capsys, "census", "--n", "40", "--p", "20")
        assert (code, out) == (1, "")
        assert f"rank 40 has {narayana(40, 20)} elements of size 20" in err

    def test_above_the_work_cap(self, capsys):
        # one element, drawn on 10^400 + 1 strings
        n = 10**400
        start = time.perf_counter()
        code, out, err = run(capsys, "census", "--n", str(n), "--p", str(n))
        assert time.perf_counter() - start < 2
        assert (code, out) == (1, "")
        assert err == (
            f"error: rank {n} has 1 elements of size {n}, {n + 1} strings in all, "
            f"more than the {cli.WORK_CAP} strings that census may draw\n"
        )
        code, _, err = run(capsys, "census", "--n", "13", "--p", "6")
        assert code == 1 and "736164 elements of size 6, 10306296 strings in all" in err


class TestRender:
    def test_writes_svg(self, capsys, tmp_path):
        target = tmp_path / "out.svg"
        code, out, _ = run(capsys, "render", "n=2:[1,2]", "--svg", str(target))
        assert code == 0
        assert out.strip() == str(target)
        assert target.read_text().startswith("<svg")

    def test_unwritable_path_is_a_domain_error(self, capsys, tmp_path):
        target = tmp_path / "missing" / "x.svg"
        code, out, err = run(capsys, "render", "n=3:[1,1]", "--svg", str(target))
        assert (code, out) == (1, "")
        assert err.startswith("error: cannot write ") and str(target) in err
        assert err.count("\n") == 1


class TestVerifyCommand:
    def test_small_sweep_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "lattice", "--max-n", "3")
        assert code == 0
        assert "FAIL" not in out
        assert out.strip().splitlines()[-1].endswith("checks passed")

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


def usage_error(capsys, *argv):
    """Run argv, expect exit 2 with nothing on stdout; return stderr."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    return captured.err


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
