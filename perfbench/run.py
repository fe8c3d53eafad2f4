"""The fcdiag benchmark: one workload per run, closed loop, one thread.

    python3 perfbench/run.py --workload mul-small --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15

A run repeats passes over its workload's op list until the timed passes add
up to ``--seconds`` (and, untraced, hold the workload's ``min_ops``),
sending the next op when the previous one returns.  Outputs are checked afterwards by ``checks.py``, outside the timed
region.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is 0
only when every op succeeded and passed its check.

``--trace 0`` reports the end-to-end metrics, with every time expressed at
the host's reference speed (``speed.py``): the host's speed is sampled in
the same thread throughout the run, and each time is scaled by it.  The
raw times are printed beside them.  ``--trace 1`` runs the same
passes untraced for half the time and traced for the other half, and
reports the per-layer metrics: counts and self times per pass of the op
list, from spans written to ``.perfbench_out/<workload>.{json,bin}``.
See README.md for what each metric means and which end-to-end metric it
should move.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

import checks
import inputs
from speed import REFERENCE_S, Probe
from tracer import Tracer

fcdiag = None  # imported by run_one from the checkout's src/

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_PROCESSES = 15
LATENCY_SAMPLES = 200_000
# Times the import, and the reference kernel just before and after it.
SETUP_CODE = (
    "import sys, time; sys.path.append({here!r}); from kernel import kernel_time; "
    "before = kernel_time(time.perf_counter, 3); "
    "t = time.perf_counter(); import fcdiag, fcdiag.cli; took = time.perf_counter() - t; "
    "print(took, before, kernel_time(time.perf_counter, 3))"
)

END_TO_END = {
    "throughput_ops_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
SUITES = ("fc", "counting", "diagram", "bijection", "tl", "lattice")
PER_LAYER = {
    "fc.construct.calls": "count",
    "fc.construct.self_s": "s",
    "fc.enumerate.elements": "count",
    "fc.enumerate.self_s": "s",
    "fc.enumerate.useful_ratio": "ratio",
    "fc.parse.self_s": "s",
    "diagram.validate.calls": "count",
    "diagram.validate.self_s": "s",
    "diagram.concatenate.calls": "count",
    "diagram.concatenate.self_s": "s",
    "diagram.concatenate.loops": "count",
    "diagram.components.self_s": "s",
    "bijection.draw.calls": "count",
    "bijection.draw.self_s": "s",
    "bijection.draw.ns_per_letter": "ns",
    "bijection.read.calls": "count",
    "bijection.read.self_s": "s",
    "bijection.reference.calls": "count",
    "bijection.reference.self_s": "s",
    "tl.product.calls": "count",
    "tl.product.self_s": "s",
    "tl.census.self_s": "s",
    "tl.multiply.self_s": "s",
    "counting.closed.calls": "count",
    "counting.closed.self_s": "s",
    "counting.start_end.calls": "count",
    "counting.start_end.self_s": "s",
    "counting.start_end.closed_ratio": "ratio",
    "cli.main.calls": "count",
    "cli.main.self_s": "s",
    "verify.checks": "count",
    **{f"verify.{suite}.s": "s" for suite in SUITES},
    "trace.overhead_s": "s",
}


# ----------------------------------------------------------------------
# workloads


class MulSmall:
    """Products of uniform pairs from all elements of rank 8, as ``fcdiag mul`` does them."""

    # An untraced run goes on past --seconds until it holds this many ops,
    # so that at least ten latencies lie beyond its p99.
    min_ops = 1000

    def __init__(self, seed: int):
        self.ops = inputs.mul_small_pairs(seed)

    def next_pass(self) -> list:
        return self.ops

    @staticmethod
    def run_op(op) -> str:
        # Looked up on the modules at each call, so the tracer's wrappers apply.
        w3, m = fcdiag.tl.monomial_product(fcdiag.fc.parse_fc(op[0]), fcdiag.fc.parse_fc(op[1]))
        return f"delta^{m} * {w3.to_text()}"

    @staticmethod
    def check(op, output: str) -> str | None:
        return checks.check_mul(op[0], op[1], output)


class MulLarge(MulSmall):
    """The same op on fresh uniform elements of rank 200, none repeated in a run."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)

    def next_pass(self) -> list:
        return inputs.mul_large_pairs(self.rng)


def _cli(argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = fcdiag.cli.main(list(argv))
    if code != 0:
        raise RuntimeError(f"fcdiag {' '.join(argv)} exited with {code}")
    return buf.getvalue()


class Tables:
    """In-process ``fcdiag table``, ``count`` and ``census`` requests, ranks up to 9."""

    min_ops = MulSmall.min_ops

    def __init__(self, seed: int):
        self.ops = inputs.tables_requests(seed)
        self.oracle = checks.Oracle()
        for n in range(inputs.TABLES_MAX_RANK + 1):  # before measuring, so peak RSS holds it throughout
            self.oracle[n]

    def next_pass(self) -> list:
        return self.ops

    run_op = staticmethod(_cli)

    def check(self, op, output: str) -> str | None:
        return checks.check_request(self.oracle, op, output)


class Verify:
    """In-process ``fcdiag verify --all --max-n 8``; one op is the whole verdict."""

    min_ops = 1

    def __init__(self, seed: int):
        self.ops = [inputs.VERIFY_ARGV]

    def next_pass(self) -> list:
        return self.ops

    run_op = staticmethod(_cli)

    def check(self, op, output: str) -> str | None:
        self.checks_per_pass = sum(line.startswith(("PASS ", "FAIL ")) for line in output.splitlines())
        return checks.check_verify(output)


WORKLOADS = {"mul-small": MulSmall, "mul-large": MulLarge, "tables": Tables, "verify": Verify}


# ----------------------------------------------------------------------
# measurement


class Passes:
    """Timings and check failures of the passes made in one phase of a run.

    Latencies and their start times go into buffers allocated up front,
    so the process's peak RSS does not grow with the number of ops a faster
    program completes.  Past ``LATENCY_SAMPLES`` ops only the count goes on.
    """

    def __init__(self):
        self._start = array("d", bytes(8 * LATENCY_SAMPLES))
        self._latency = array("d", bytes(8 * LATENCY_SAMPLES))
        self.ops = 0
        self.pass_starts: list[float] = []
        self.pass_times: list[float] = []
        self.pass_ops: list[int] = []
        self.failures: list[str] = []

    def record(self, start: float, seconds: float) -> None:
        if self.ops < LATENCY_SAMPLES:
            self._start[self.ops] = start
            self._latency[self.ops] = seconds
        self.ops += 1

    def latencies(self, probe: Probe | None = None) -> list[float]:
        """Op latencies, at the reference speed when ``probe`` is given."""
        n = min(self.ops, LATENCY_SAMPLES)
        if probe is None:
            return list(self._latency[:n])
        return [probe.scale(s, d) for s, d in zip(self._start[:n], self._latency[:n])]

    def pass_seconds(self, probe: Probe | None = None) -> list[float]:
        if probe is None:
            return self.pass_times
        return [probe.scale(s, d) for s, d in zip(self.pass_starts, self.pass_times)]

    def throughput(self, probe: Probe | None = None) -> float:
        """Median over passes of ops per second."""
        return statistics.median(n / t for n, t in zip(self.pass_ops, self.pass_seconds(probe)))


def run_passes(
    workload, seconds: float, tracer: Tracer | None = None, min_ops: int = 1, probe: Probe | None = None
) -> Passes:
    """Closed loop: each op starts when the previous one has returned.

    Passes repeat until their timed total reaches ``seconds`` and they hold
    at least ``min_ops`` ops.  Each pass's
    outputs are checked, untimed, as soon as it ends and then dropped, so
    memory does not grow with the number of passes.  With a running
    ``probe``, the time its samples took is left out of every op and pass.
    """
    done = Passes()
    clock = time.perf_counter

    def stolen() -> float:
        return probe.stolen if probe else 0.0

    while True:
        ops = workload.next_pass()
        results = []
        # The clock is read first at a start and last at an end, so that a
        # probe sample landing between the two reads stays in the time rather
        # than being subtracted from a time that never held it.
        pass_start = clock()
        pass_stolen = stolen()
        for op in ops:
            output = error = None
            t0 = clock()
            s0 = stolen()
            if tracer:
                tracer.open_op()
            try:
                output = workload.run_op(op)
            except (Exception, SystemExit) as exc:  # a failed op is counted, not fatal
                error = f"{op}: {exc!r}"
            finally:
                if tracer:
                    tracer.close_op()
            s1 = stolen()
            done.record(t0, clock() - t0 - (s1 - s0))
            results.append((op, output, error))
        pass_stolen = stolen() - pass_stolen
        done.pass_starts.append(pass_start)
        done.pass_times.append(clock() - pass_start - pass_stolen)
        done.pass_ops.append(len(ops))
        for op, output, error in results:
            reason = error if error is not None else workload.check(op, output)
            if reason is not None:
                done.failures.append(reason)
        if sum(done.pass_times) >= seconds and done.ops >= min_ops:
            return done


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def import_time() -> tuple[float, float]:
    """Time for a fresh interpreter to import fcdiag and fcdiag.cli, raw and
    at the reference speed of the kernel timed in that interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE.format(here=str(Path(__file__).resolve().parent))],
        env={**os.environ, "PYTHONPATH": str(SRC)}, cwd=ROOT,
        capture_output=True, text=True, timeout=60, check=True,
    )
    took, before, after = map(float, proc.stdout.split())
    return took, took * (REFERENCE_S / before + REFERENCE_S / after) / 2


def end_to_end(workload, seconds: float) -> tuple[dict, dict, list[Passes]]:
    """End-to-end metrics at the reference speed, and the same times raw."""
    import_time()  # writes the bytecode cache
    # Half the set-up samples are taken before the passes and half after,
    # so that one slow stretch of the machine does not set the median.
    setup = [import_time() for _ in range(SETUP_PROCESSES // 2)]
    probe = Probe()
    probe.start()
    try:
        done = run_passes(workload, seconds, min_ops=workload.min_ops, probe=probe)
    finally:
        probe.stop()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setup += [import_time() for _ in range(SETUP_PROCESSES - len(setup))]

    def times(p: Probe | None, k: int) -> dict:
        lat = done.latencies(p)
        return {
            "throughput_ops_s": done.throughput(p),
            "latency_p50_ms": statistics.median(lat) * 1e3,
            "latency_p99_ms": percentile(lat, 0.99) * 1e3,
            "wall_s": statistics.median(done.pass_seconds(p)),
            "setup_s": statistics.median(s[k] for s in setup),
        }

    return {**times(probe, 1), "peak_rss_mb": rss_mb}, times(None, 0), [done]


def per_layer(workload, name: str, seconds: float) -> tuple[dict, list[Passes]]:
    plain = run_passes(workload, seconds / 2)
    tracer = Tracer()
    tracer.install()
    if name == "verify":
        tracer.install_suites(fcdiag.verify.SUITES)
    try:
        traced = run_passes(workload, seconds / 2, tracer)
    finally:
        tracer.uninstall()
    if tracer.unbalanced_ops:
        traced.failures.append(f"{tracer.unbalanced_ops} ops whose span self times do not add up")
    passes = len(traced.pass_times)
    c = tracer.counters

    def per_pass(x: float) -> float:
        return x / passes

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    values = {}
    for metric in PER_LAYER:
        layer, _, stat = metric.rpartition(".")
        if stat == "calls":
            values[metric] = per_pass(tracer.layer_calls(layer))
        elif stat == "self_s":
            values[metric] = per_pass(tracer.layer_self(layer))
    yielded = c["yielded"] + c["yielded_filtered"]
    draw = tracer.layer_self("bijection.draw")
    values.update(
        {
            "fc.enumerate.elements": per_pass(yielded),
            "fc.enumerate.useful_ratio": ratio(c["yielded"] + c["kept_filtered"], yielded),
            "diagram.concatenate.loops": per_pass(c["loops"]),
            "bijection.draw.ns_per_letter": ratio(draw * 1e9, c["letters"]),
            "counting.start_end.closed_ratio": ratio(c["closed"], tracer.layer_calls("counting.start_end")),
            "verify.checks": getattr(workload, "checks_per_pass", 0),
            **{f"verify.{s}.s": per_pass(tracer.layer_total(f"verify.{s}")) for s in SUITES},
            "trace.overhead_s": statistics.median(traced.pass_times) - statistics.median(plain.pass_times),
        }
    )
    values = {metric: values[metric] for metric in PER_LAYER}
    tracer.write(OUT / name, {"workload": name, "passes": passes, "ops": traced.ops, **environment()})
    return values, [plain, traced]


def environment() -> dict:
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as handle:
        cpu = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), cpu)
    return {"python": platform.python_version(), "cpu": cpu, "nproc": os.cpu_count()}


# ----------------------------------------------------------------------
# entry points


def run_one(args) -> int:
    global fcdiag
    sys.path.insert(0, str(SRC))
    try:
        import fcdiag
        import fcdiag.cli
    except ImportError as exc:
        print(f"perfbench: cannot import fcdiag from {SRC}: {exc}", file=sys.stderr)
        return 2
    if Path(fcdiag.__file__).resolve().parent.parent != SRC:
        print(f"perfbench: fcdiag imported from {fcdiag.__file__}, not {SRC}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload](args.seed)
    # The inputs and the check oracles are the benchmark's own long-lived
    # objects; frozen, they add nothing to the collections the program's
    # allocations trigger.
    gc.collect()
    gc.freeze()
    raw = {}
    if args.trace:
        values, phases = per_layer(workload, args.workload, args.seconds)
        units = PER_LAYER
    else:
        values, raw, phases = end_to_end(workload, args.seconds)
        units = END_TO_END
    failures = [reason for phase in phases for reason in phase.failures]
    attempted = sum(phase.ops for phase in phases)
    passes = sum(len(phase.pass_times) for phase in phases)
    env = environment()
    print(f"# workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    print(f"# python {env['python']}  cpu {env['cpu']}  nproc {env['nproc']}")
    print(f"# {attempted} ops in {passes} passes; closed loop, one caller")
    for reason in failures[:10]:
        print(f"# FAILED {reason}")
    if raw:
        print(f"# times at the reference speed (kernel {REFERENCE_S * 1e3:g} ms); raw in brackets")
    for metric, value in values.items():
        bracket = f"  [{raw[metric]:.6g}]" if metric in raw else ""
        print(f"{metric:34s} {value:.6g} {units[metric]}{bracket}")
    print(f"{'error_rate':34s} {len(failures) / attempted:.6g} ratio ({len(failures)} of {attempted} ops)")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in values.items()},
    }
    print(json.dumps(result))
    return 0 if not failures else 1


def run_all(args) -> int:
    """Run every workload in its own process and print one table."""
    rows = {}
    code = 0
    for name in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        if proc.returncode == 2 or not proc.stdout.strip():
            sys.stderr.write(proc.stderr)
            return 2
        rows[name] = json.loads(proc.stdout.splitlines()[-1])
        code = max(code, proc.returncode)
    for name, result in rows.items():
        print(f"[{name}] attempted {result['attempted']} failed {result['failed']}")
        for metric, m in result["metrics"].items():
            print(f"  {metric:34s} {m['value']:.6g} {m['unit']}")
        print(f"  {'error_rate':34s} {result['failed'] / result['attempted']:.6g} ratio")
    print(json.dumps(rows))
    return code


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
