"""The verify catalogue under pytest.

Every (check, rank) pair that ``fcdiag verify --all`` runs at the default
``--max-n`` is one test case.  Its verdict comes from the session memo in
``helpers.assert_holds``, so a pair that a module or acceptance test has
already run is not evaluated again.  The fault-injection tests break one
library function per suite and pin the exact FAIL lines, so a check that
could never fail would show here.
"""

from math import comb

import pytest

from fcdiag import bijection, counting, lattice, tl, verify
from fcdiag.bijection import diagram_to_fc
from fcdiag.cli import build_parser, main
from fcdiag.diagram import Diagram
from fcdiag.errors import CrossingError
from fcdiag.fc import FCElement
from helpers import assert_holds

DEFAULT_MAX_N = build_parser().parse_args(["verify"]).max_n

CASES = [
    pytest.param(key, n, id=f"{key}-{n}")
    for key, check in verify.CATALOGUE.items()
    for n in check.ranks(DEFAULT_MAX_N)
]


@pytest.mark.parametrize("key,n", CASES)
def test_check_holds(key, n):
    assert_holds(key, n)


def test_catalogue_shape():
    assert DEFAULT_MAX_N == 8
    assert len(CASES) == 475
    assert list(verify.SUITES) == ["fc", "counting", "diagram", "bijection", "tl", "lattice"]
    assert len(verify.CATALOGUE) == 35


def test_fixed_ranges_ignore_max_n():
    check = verify.CATALOGUE["counting.binomial-identity"]
    assert check.ranks(1) == check.ranks(8) == range(0, 31)
    assert verify.CATALOGUE["counting.start-end-vs-chains"].ranks(1) == range(1, 41)
    assert verify.CATALOGUE["fc.catalan-count"].ranks(3) == range(0, 4)


# ----------------------------------------------------------------------
# fault injection


def _fail_lines(capsys, suite):
    code = main(["verify", suite, "--max-n", "6"])
    out = capsys.readouterr().out
    return code, [line for line in out.splitlines() if line.startswith("FAIL")]


def test_fault_in_dual(capsys, monkeypatch):
    monkeypatch.setattr(FCElement, "dual", lambda self: self)
    assert _fail_lines(capsys, "fc") == (
        1,
        ["FAIL fc.dual-involution: n=1:[]: dual not involutive or wrong size"],
    )


def test_fault_in_narayana(capsys, monkeypatch):
    narayana = counting.narayana
    monkeypatch.setattr(
        counting, "narayana", lambda n, p: narayana(n, p) + ((n, p) == (6, 2))
    )
    assert _fail_lines(capsys, "counting") == (
        1,
        [
            "FAIL counting.narayana-row-sums: n=6: Narayana row does not sum to catalan(7)",
            "FAIL counting.narayana-symmetry: (n,p)=(6,2): symmetry fails",
            "FAIL counting.thick-slim-recurrence: (n,p)=(6,2): thick/slim recurrence fails",
            "FAIL counting.formulas-vs-enumeration: narayana(6,2) != brute count 105",
        ],
    )


def test_fault_in_start_end_reflection(capsys, monkeypatch):
    # the reflection formula without its second binomial; the check has a
    # fixed range, so --max-n 1 still runs it while brute force stops at 1
    monkeypatch.setattr(
        counting,
        "count_start_end",
        lambda n, i, j: counting.StartEndCount(comb(n - j + i - 1, i - 1), True),
    )
    assert main(["verify", "counting", "--max-n", "1"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert [line for line in out if line.startswith("FAIL")] == [
        "FAIL counting.start-end-vs-chains: count_start_end(2,2,1) != chain count 1"
    ]


def test_fault_in_concatenate(capsys, monkeypatch):
    concatenate = verify.concatenate

    def one_loop_too_many(upper, lower):
        diagram, loops = concatenate(upper, lower)
        return diagram, loops + 1

    monkeypatch.setattr(verify, "concatenate", one_loop_too_many)
    assert _fail_lines(capsys, "diagram") == (
        1,
        ["FAIL diagram.identity-neutral: 1 strings: identity is not neutral on strings=1;1-1'"],
    )


def test_fault_in_oracle_concatenation(capsys, monkeypatch):
    concatenate = bijection.concatenate

    def one_loop_too_many(upper, lower):
        diagram, loops = concatenate(upper, lower)
        return diagram, loops + 1

    monkeypatch.setattr(bijection, "concatenate", one_loop_too_many)
    assert _fail_lines(capsys, "bijection") == (
        1,
        [
            "FAIL bijection.oracle-equivalence: rank 1: UnexpectedLoopError: "
            "reduced word of n=1:[1,1] closed 1 circles during concatenation"
        ],
    )


def test_fault_in_horizontal_flip(capsys, monkeypatch):
    monkeypatch.setattr(Diagram, "flip_horizontal", lambda self: self)
    assert _fail_lines(capsys, "bijection") == (
        1,
        ["FAIL bijection.trace-consistency: n=2:[2,2]: rotation does not match delta_involution"],
    )


def test_fault_in_class_size(capsys, monkeypatch):
    monkeypatch.setattr(tl, "expected_class_size", lambda strings, key: 1)
    assert _fail_lines(capsys, "tl") == (
        1,
        ["FAIL tl.census: (n,p)=(3,2): class size is not the Catalan gap product"],
    )


def test_fault_in_diagram_reading(capsys, monkeypatch):
    monkeypatch.setattr(
        lattice, "diagram_to_ballot", lambda d: lattice.fc_to_ballot(diagram_to_fc(d))
    )
    assert _fail_lines(capsys, "lattice") == (
        1,
        ["FAIL lattice.readings-disagree: rank 2: tail/head reading agrees with the block ballot everywhere"],
    )


def test_fault_that_raises(capsys, monkeypatch):
    def crossing(w):
        raise CrossingError("arrows 1'-3' and 3-2' cross")

    monkeypatch.setattr(verify, "fc_to_diagram", crossing)
    assert main(["verify", "bijection", "--max-n", "6"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "FAIL bijection.roundtrips: rank 0: CrossingError: arrows 1'-3' and 3-2' cross",
        "FAIL bijection.oracle-equivalence: rank 0: CrossingError: arrows 1'-3' and 3-2' cross",
        "PASS bijection.uniqueness",
        "PASS bijection.multiplication-compatible",
        "FAIL bijection.trace-consistency: rank 0: CrossingError: arrows 1'-3' and 3-2' cross",
        "2/5 checks passed",
    ]
