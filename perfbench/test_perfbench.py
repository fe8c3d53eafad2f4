"""Tests of the benchmark itself: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
import time
from array import array
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
from fcdiag import cli, enumerate_fc, fc_to_diagram, parse_fc, tl  # noqa: E402


def _run(*argv: str) -> tuple[int, dict]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run.main(list(argv))
    return code, json.loads(buf.getvalue().splitlines()[-1])


# ----------------------------------------------------------------------
# inputs


def test_same_seed_gives_same_inputs():
    assert inputs.mul_small_pairs(7) == inputs.mul_small_pairs(7)
    assert inputs.mul_small_pairs(7) != inputs.mul_small_pairs(8)
    rngs = [random.Random(7) for _ in range(2)]
    assert inputs.mul_large_pairs(rngs[0]) == inputs.mul_large_pairs(rngs[1])
    assert inputs.tables_requests(7) == inputs.tables_requests(7)
    assert inputs.tables_requests(7) != inputs.tables_requests(8)


def test_generated_elements_are_canonical_and_complete():
    for n in range(8):
        mine = sorted(inputs.to_text(n, b) for b in inputs.all_blocks(n))
        assert mine == sorted(w.to_text() for w in enumerate_fc(n))
    rng = random.Random(0)
    for _ in range(200):
        n = rng.randint(0, 30)
        text = inputs.to_text(n, inputs.random_blocks(n, rng))
        assert parse_fc(text).to_text() == text


def test_random_elements_are_uniform_at_rank_2():
    # Rank 2 has five elements; each should get about a fifth of the draws.
    rng = random.Random(3)
    counts: dict = {}
    for _ in range(5000):
        b = inputs.random_blocks(2, rng)
        counts[b] = counts.get(b, 0) + 1
    assert len(counts) == 5
    assert all(850 < c < 1150 for c in counts.values())


def test_tables_mix_covers_every_kind_and_format():
    requests = inputs.tables_requests(1)
    kinds = {(r[1], r[5]) for r in requests if r[0] == "table"}
    assert kinds == {(k, f) for k in (*inputs.CLOSED_TABLE_KINDS, "start-end") for f in inputs.TABLE_FORMATS}
    assert {r[0] for r in requests} == {"table", "count", "census"}
    assert len(requests) >= 900


# ----------------------------------------------------------------------
# checks


def test_product_replay_matches_library():
    pairs = inputs.mul_small_pairs(1)[:300] + inputs.mul_large_pairs(random.Random(1))[:5]
    for left, right in pairs:
        w3, m = tl.monomial_product(parse_fc(left), parse_fc(right))
        assert checks.check_mul(left, right, f"delta^{m} * {w3.to_text()}") is None


def test_corrupted_products_are_rejected():
    left, right = "n=4:[3,4][1,2]", "n=4:[2,3][1,1]"
    w3, m = tl.monomial_product(parse_fc(left), parse_fc(right))
    good = f"delta^{m} * {w3.to_text()}"
    assert checks.check_mul(left, right, good) is None
    assert checks.check_mul(left, right, f"delta^{m + 1} * {w3.to_text()}") is not None
    assert good == "delta^1 * n=4:[3,3][1,1]"
    assert checks.check_mul(left, right, good.replace("[3,3]", "[3,4]")) is not None


def _cli_output(argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(list(argv)) == 0
    return buf.getvalue()


@pytest.mark.parametrize(
    "argv",
    [
        ("table", "start-end", "--n", "5", "--format", "text"),
        ("table", "narayana", "--n", "4", "--format", "csv"),
        ("table", "size-end", "--n", "4", "--format", "json"),
        ("count", "--n", "5", "--triangle", "--json"),
        ("census", "--n", "5", "--p", "2"),
        ("census", "--n", "4", "--p", "2", "--json"),
    ],
)
def test_tables_checks_accept_output_and_reject_a_changed_number(argv):
    oracle = checks.Oracle()
    output = _cli_output(argv)
    assert checks.check_request(oracle, argv, output) is None
    digit = next(i for i in range(len(output) - 1, -1, -1) if output[i] in "123456789")
    corrupted = output[:digit] + str(int(output[digit]) + 1) + output[digit + 1:]
    assert checks.check_request(oracle, argv, corrupted) is not None


def test_verify_check_needs_every_check_to_pass():
    assert checks.check_verify("PASS fc.a\nPASS tl.b\n2/2 checks passed\n") is None
    assert checks.check_verify("PASS fc.a\nFAIL tl.b: x\n1/2 checks passed\n") is not None
    assert checks.check_verify("0/0 checks passed\n") is not None


def test_census_gap_product_matches_library():
    for w in enumerate_fc(5):
        key = tl.equivalence_key(fc_to_diagram(w)[0])
        assert checks.gap_product(6, tl.key_to_text(key, 6)) == tl.expected_class_size(6, key)


# ----------------------------------------------------------------------
# reference speed


def test_probe_scales_by_the_kernel_time_around_an_interval():
    probe = speed.Probe()
    probe.times = [float(t) for t in range(10)]
    # The host runs at half the reference speed, then at twice it.
    probe.samples = [2 * speed.REFERENCE_S] * 5 + [speed.REFERENCE_S / 2] * 5
    probe.finish()
    assert probe.scale(0.1, 0.2) == pytest.approx(0.1)
    assert probe.scale(7.1, 0.2) == pytest.approx(0.4)
    # Over a longer interval the speed is averaged over the samples inside it.
    assert probe.scale(-0.5, 10.0) == pytest.approx(10.0 * (5 * 0.5 + 5 * 2) / 10)


def test_probe_time_is_left_out_of_ops():
    probe = speed.Probe()
    probe.start()
    try:
        stolen = probe.stolen
        start = time.perf_counter()
        done = run.run_passes(_Spin(), 0.3, probe=probe)
        elapsed = time.perf_counter() - start
        stolen = probe.stolen - stolen
    finally:
        probe.stop()
    assert len(probe.samples) > 3 and stolen > 0
    assert sum(done.latencies()) <= sum(done.pass_times) <= elapsed - stolen


class _Spin:
    """Ops that each do the same few milliseconds of work."""

    def next_pass(self):
        return [None] * 20

    @staticmethod
    def run_op(op):
        return str(sum(range(100_000)))

    @staticmethod
    def check(op, output):
        return None


# ----------------------------------------------------------------------
# whole runs


def test_corrupted_result_fails_the_run(monkeypatch):
    product = tl.monomial_product

    def off_by_one(w1, w2):
        w3, m = product(w1, w2)
        return w3, m + 1

    monkeypatch.setattr(tl, "monomial_product", off_by_one)
    code, result = _run("--workload", "mul-small", "--seed", "1", "--seconds", "0.1")
    assert code != 0
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0


def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert e2e == run.END_TO_END
    assert layers == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
    code, result = _run("--workload", "mul-small", "--seed", "2", "--seconds", "0.1", "--trace", "0")
    assert code == 0 and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == e2e
    code, result = _run("--workload", "mul-small", "--seed", "2", "--seconds", "0.1", "--trace", "1")
    assert code == 0 and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == layers


def test_traced_spans_add_up_per_op():
    code, result = _run("--workload", "mul-small", "--seed", "3", "--seconds", "0.1", "--trace", "1")
    assert code == 0
    layout = json.loads((run.OUT / "mul-small.json").read_text())
    columns = {}
    with open(run.OUT / "mul-small.bin", "rb") as handle:
        for name, typecode in layout["columns"]:
            columns[name] = array(typecode)
            columns[name].fromfile(handle, layout["spans"])
    duration = [e - s for s, e in zip(columns["start"], columns["end"])]
    self_time = list(duration)
    for k, parent in enumerate(columns["parent"]):
        if parent >= 0:
            self_time[parent] -= duration[k]
            assert columns["op"][parent] == columns["op"][k]
    roots = [k for k, parent in enumerate(columns["parent"]) if parent < 0]
    per_op: dict = {}
    for k, op in enumerate(columns["op"]):
        per_op[op] = per_op.get(op, 0.0) + self_time[k]
    assert len(roots) == layout["ops"] > 0
    for k in roots:
        assert columns["layer"][k] == 0
        assert abs(per_op[columns["op"][k]] - duration[k]) < 1e-9 * len(duration)
    assert result["metrics"]["tl.product.calls"]["value"] == inputs.MUL_SMALL_OPS
