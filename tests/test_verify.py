"""The verify catalogue under pytest.

Every (check, rank) pair that ``fcdiag verify --all`` runs at the default
``--max-n`` is one test case.  Its verdict comes from the session memo in
``helpers.assert_holds``, so a pair that another test has already asked for
is not evaluated again.  The fault-injection tests break one
library function per suite and pin the exact FAIL lines, so a check that
could never fail would show here.  The last tests hold the runner's
helper processes to their rules: each ends with ``os._exit``, an
unexpected error surfaces from the caller, none outlives the call, none is
forked without ``fork`` or beside a running thread, one fork round serves
every requested suite, and the output does not depend on the CPU count.
"""

import os
import threading
import time
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
    assert len(CASES) == 476
    assert list(verify.SUITES) == ["fc", "counting", "diagram", "bijection", "tl", "lattice"]
    assert len(verify.CATALOGUE) == 35


def test_max_n_is_bounded_by_the_catalogue():
    # no capped check passes rank 10, so every --max-n above 10 runs what 10 runs
    checks = verify.CATALOGUE.values()
    assert all(check.last <= 10 for check in checks if check.capped)
    assert all(check.ranks(10**400) == check.ranks(10) for check in checks)


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


def test_fault_in_concatenate_closure(capsys, monkeypatch):
    # concatenate builds its product unchecked: plant a crossing one
    concatenate = verify.concatenate
    cup_cap = Diagram.generator(2, 1)
    crossing = object.__new__(Diagram)
    object.__setattr__(crossing, "strings", 2)
    object.__setattr__(crossing, "partner", (3, 2, 1, 0))

    def crossing_square(upper, lower):
        if upper == lower == cup_cap:
            return crossing, 1
        return concatenate(upper, lower)

    monkeypatch.setattr(verify, "concatenate", crossing_square)
    assert _fail_lines(capsys, "diagram") == (
        1,
        [
            "FAIL diagram.arc-persistence: strings=2;1-2,1'-2' * strings=2;1-2,1'-2' "
            "is not a diagram: arrows 2-1' and 1-2' cross"
        ],
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


def test_fault_in_kernel(capsys, monkeypatch):
    # the kernel is the third drawing route: drop the last block it glues
    run_action = verify.run_action
    monkeypatch.setattr(verify, "run_action", lambda k, runs: run_action(k, runs[:-1]))
    assert _fail_lines(capsys, "bijection") == (
        1,
        [
            "FAIL bijection.oracle-equivalence: n=1:[1,1]: kernel differs from direct algorithm",
            "FAIL bijection.trace-consistency: n=1:[1,1]: rotation does not match delta_involution",
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


def test_fault_in_ballot_length(capsys, monkeypatch):
    # still a valid ballot, injective and Catalan in number: only the length is wrong
    diagram_to_ballot = lattice.diagram_to_ballot
    monkeypatch.setattr(
        lattice,
        "diagram_to_ballot",
        lambda d: lattice.Ballot(diagram_to_ballot(d).signs + (1, -1)),
    )
    assert _fail_lines(capsys, "lattice") == (
        1,
        ["FAIL lattice.diagram-ballot-bijective: strings=1;1-1': tail/head reading +-+- has 4 signs, not 2"],
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


# ----------------------------------------------------------------------
# checks spread over forked helpers


@pytest.fixture
def probe_suite(monkeypatch, tmp_path):
    """A throwaway suite ``probe`` on two CPUs, so one helper is forked.

    ``install(behaviour)`` registers two checks that each call
    ``behaviour(name, in_helper)``.  In a helper they first leave a mark;
    in the caller they first wait for one, so each run has a check taken
    by the helper whichever process takes which index.
    """
    caller = os.getpid()
    mark = tmp_path / "helper-ran"
    monkeypatch.setattr(verify, "_cpus", lambda: 2)

    def install(behaviour):
        def check(name):
            def cases(n):
                in_helper = os.getpid() != caller
                if in_helper:
                    mark.touch()
                else:
                    deadline = time.monotonic() + 10
                    while not mark.exists():
                        assert time.monotonic() < deadline, "no helper took a check"
                        time.sleep(0.005)
                behaviour(name, in_helper)
                yield from ()

            return verify.Check("probe", name, cases, 0, 0, False)

        for name in ("first", "second"):
            monkeypatch.setitem(verify.CATALOGUE, f"probe.{name}", check(name))

    yield install
    assert os.getpid() == caller


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("escape", [KeyboardInterrupt, SystemExit])
def test_helper_ends_with_os_exit(probe_suite, tmp_path, escape):
    # a helper that let the exception out would run on through this test
    def behaviour(name, in_helper):
        if in_helper:
            raise escape

    probe_suite(behaviour)
    caller = os.getpid()
    try:
        results = verify.run_suites(["probe"], 0)
    finally:
        if os.getpid() != caller:
            (tmp_path / "escaped").touch()
            os._exit(0)
    assert [(r.name, r.status) for r in results] == [("first", "PASS"), ("second", "PASS")]
    assert not (tmp_path / "escaped").exists()
    _no_child_left()


def test_unexpected_error_surfaces_from_the_caller(probe_suite, tmp_path):
    # both checks raise; as in one process, the first in catalogue order is the one seen
    def behaviour(name, in_helper):
        raise RuntimeError(name)

    probe_suite(behaviour)
    with pytest.raises(RuntimeError) as exc:
        verify.run_suites(["probe"], 0)
    assert exc.value.args == ("first",)
    assert exc.traceback[-1].name == "behaviour"
    assert (tmp_path / "helper-ran").exists()
    _no_child_left()


def test_interrupt_in_the_caller_stops_the_helpers(probe_suite):
    def behaviour(name, in_helper):
        if in_helper:
            time.sleep(60)
        raise KeyboardInterrupt

    probe_suite(behaviour)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        verify.run_suites(["probe"], 0)
    assert time.monotonic() - start < 30
    _no_child_left()


@pytest.mark.parametrize(
    "suites,cpus,max_n,helpers",
    # lattice has three checks, and readings-disagree has no rank below 2;
    # the six suites are one job list, so one fork round serves them all
    [
        pytest.param(["lattice"], 1, 8, 0, id="1-8-0"),
        pytest.param(["lattice"], 2, 8, 1, id="2-8-1"),
        pytest.param(["lattice"], 8, 8, 2, id="8-8-2"),
        pytest.param(["lattice"], 8, 1, 1, id="8-1-1"),
        pytest.param(list(verify.SUITES), 2, 4, 1, id="all-2-4-1"),
    ],
)
def test_helpers_forked(monkeypatch, suites, cpus, max_n, helpers):
    monkeypatch.setattr(verify, "_cpus", lambda: 1)
    alone = verify.run_suites(suites, max_n)
    forks = []
    fork = os.fork

    def counted_fork():
        forks.append(1)
        return fork()

    monkeypatch.setattr(verify, "_cpus", lambda: cpus)
    monkeypatch.setattr(os, "fork", counted_fork)
    assert verify.run_suites(suites, max_n) == alone
    assert len(forks) == helpers
    _no_child_left()


@pytest.mark.parametrize("obstacle", ["no fork", "a thread"])
def test_caller_runs_alone(monkeypatch, obstacle):
    monkeypatch.setattr(verify, "_cpus", lambda: 8)
    if obstacle == "no fork":
        monkeypatch.delattr(os, "fork")
        results = verify.run_suites(["lattice"], 8)
    else:
        def forbidden():
            raise AssertionError("forked beside a running thread")

        monkeypatch.setattr(os, "fork", forbidden)
        done = threading.Event()
        thread = threading.Thread(target=done.wait, args=(10,))
        thread.start()
        try:
            results = verify.run_suites(["lattice"], 8)
        finally:
            done.set()
            thread.join(10)
        assert not thread.is_alive()
    assert [r.status for r in results] == ["PASS"] * 3


def test_one_cpu_prints_the_same(capsys, monkeypatch):
    # suites print in request order; --all asks for them sorted
    for argv, suites, passed in [
        (["--all"], sorted(verify.SUITES), "35/35"),
        (["tl", "fc"], ["tl", "fc"], "11/11"),
    ]:
        outputs = []
        for cpus in (1, 3):
            monkeypatch.setattr(verify, "_cpus", lambda: cpus)
            assert main(["verify", *argv, "--max-n", "6"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert outputs[0].endswith(f"\n{passed} checks passed\n")
        printed = [line.split()[1].partition(".")[0] for line in outputs[0].splitlines()[:-1]]
        assert list(dict.fromkeys(printed)) == suites
    _no_child_left()


def test_a_suite_named_twice_runs_once(capsys):
    outputs = []
    for argv in (["fc", "fc"], ["fc"]):
        assert main(["verify", *argv, "--max-n", "3"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert outputs[0].endswith("\n7/7 checks passed\n")


def test_each_result_carries_its_seconds():
    # lattice.readings-disagree has no rank below 2, so it is the one SKIP
    results = verify.run_suites(["lattice", "fc"], 1)
    assert [r.status for r in results].count("SKIP") == 1
    for r in results:
        assert (r.seconds == 0) if r.status == "SKIP" else (r.seconds > 0)
    _no_child_left()


def test_each_check_runs_once(monkeypatch, tmp_path):
    # a check taken twice, or by none, shows in the log: seven helpers on
    # fewer cores, then more jobs than one index byte can number
    for cpus, checks in [(8, 40), (2, 300)]:
        log = tmp_path / f"log-{checks}"

        def check(i):
            def cases(n):
                with open(log, "a") as handle:
                    handle.write(f"{i}\n")
                yield from ()

            return verify.Check("probe", f"c{i}", cases, 0, 0, False)

        with monkeypatch.context() as patch:
            patch.setattr(verify, "_cpus", lambda: cpus)
            for i in range(checks):
                patch.setitem(verify.CATALOGUE, f"probe.c{i}", check(i))
            results = verify.run_suites(["probe"], 0)
        assert [(r.name, r.status) for r in results] == [(f"c{i}", "PASS") for i in range(checks)]
        assert sorted(map(int, log.read_text().split())) == list(range(checks))
        _no_child_left()
