"""Independent checks of the library's outputs, run outside the timed region.

Nothing here calls the library.  Products are replayed as generator actions
on a partner array; tables, counts and censuses are compared with statistics
taken from one enumeration per rank (``inputs.all_blocks``).  Each check
returns None when the output is right and a short reason when it is not.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from math import comb

from inputs import Blocks, all_blocks, to_text

_TEXT_RE = re.compile(r"^n=(\d+):(\[\]|(?:\[\d+,\d+\])+)$")
_BLOCK_RE = re.compile(r"\[(\d+),(\d+)\]")


def parse_text(text: str) -> tuple[int, Blocks]:
    m = _TEXT_RE.match(text)
    if not m:
        raise ValueError(f"not an FC text form: {text!r}")
    return int(m.group(1)), tuple((int(a), int(b)) for a, b in _BLOCK_RE.findall(m.group(2)))


def replay_product(rank: int, left: Blocks, right: Blocks) -> tuple[Blocks, int]:
    """e_left e_right = delta^m e_w, by applying each generator in turn.

    The diagram on k = rank+1 strings is a partner array over dot codes,
    top dot x at x-1 and bottom dot x at k+x-1.  Applying e_a glues its
    cup under the bottom dots a and a+1: their strands join (or close a
    circle when they already were one arc), and a new cap joins them.
    """
    k = rank + 1
    partner = list(range(k, 2 * k)) + list(range(k))
    loops = 0
    for i, j in left + right:
        for a in range(i, j + 1):
            b1, b2 = k + a - 1, k + a
            p, q = partner[b1], partner[b2]
            if p == b2:
                loops += 1
            else:
                partner[p], partner[q] = q, p
                partner[b1], partner[b2] = b2, b1
    # Block starts are the top dots whose arrow heads right; block ends are
    # the bottom dots x+1 whose arrow arrives from the left, read as x.
    starts, ends = [], []
    for x in range(k):
        y = partner[x]
        if y < k:
            if y > x:
                starts.append(x + 1)
        elif y - k > x:
            starts.append(x + 1)
            ends.append(y - k)
    for b in range(k, 2 * k):
        if k <= partner[b] < b:
            ends.append(b - k)
    return tuple(zip(sorted(starts, reverse=True), sorted(ends, reverse=True))), loops


def check_mul(left: str, right: str, output: str) -> str | None:
    """``output`` must read ``delta^m * <w>`` with (w, m) the replayed product."""
    rank, blocks1 = parse_text(left)
    _, blocks2 = parse_text(right)
    want_blocks, want_m = replay_product(rank, blocks1, blocks2)
    want = f"delta^{want_m} * {to_text(rank, want_blocks)}"
    return None if output == want else f"{left} * {right}: got {output!r}, want {want!r}"


# ----------------------------------------------------------------------
# tables, counts and censuses


def catalan(m: int) -> int:
    return comb(2 * m, m) // (m + 1)


class RankStats:
    """Brute-force statistics of every element of one rank."""

    def __init__(self, rank: int):
        self.total = 0
        self.by_size: Counter = Counter()
        self.by_start: Counter = Counter({0: 0})
        self.first_block: Counter = Counter()
        self.last_block: Counter = Counter()
        self.start_size: Counter = Counter()
        self.size_end: Counter = Counter()
        self.start_end: Counter = Counter()
        for blocks in all_blocks(rank):
            self.total += 1
            p = len(blocks)
            self.by_size[p] += 1
            if not blocks:
                self.by_start[0] += 1
                continue
            (i1, j1), (ip, jp) = blocks[0], blocks[-1]
            self.by_start[i1] += 1
            self.first_block[(i1, j1)] += 1
            self.last_block[(ip, jp)] += 1
            self.start_size[(i1, p)] += 1
            self.size_end[(p, jp)] += 1
            self.start_end[(i1, jp)] += 1
        if self.total != catalan(rank + 1):
            raise AssertionError(f"rank {rank}: enumerated {self.total} elements")


class Oracle:
    """Statistics per rank, each rank enumerated once on first use."""

    def __init__(self):
        self._ranks: dict[int, RankStats] = {}

    def __getitem__(self, rank: int) -> RankStats:
        if rank not in self._ranks:
            self._ranks[rank] = RankStats(rank)
        return self._ranks[rank]

    def table(self, kind: str, n: int) -> tuple[list[str], list[list[int]]]:
        """Expected header and rows of ``fcdiag table <kind> --n <n>``."""
        s = self[n]
        full = range(n + 1)
        inner = range(1, n + 1)
        if kind == "narayana":
            return ["n\\p", *map(str, full)], [[m] + [self[m].by_size[p] for p in full] for m in full]
        if kind == "triangle":
            return ["n\\i", *map(str, full)], [[m] + [self[m].by_start[i] for i in full] for m in full]
        head, counter = {
            "first-block": ("i\\j", lambda a, b: s.first_block[(a, b)]),
            "last-block": ("i\\j", lambda a, b: s.last_block[(a, b)]),
            "start-size": ("i\\p", lambda a, b: s.start_size[(a, b)]),
            "size-end": ("p\\j", lambda a, b: s.size_end[(a, b)]),
            "start-end": ("i\\j", lambda a, b: s.start_end[(a, b)]),
        }[kind]
        return [head, *map(str, inner)], [[a] + [counter(a, b) for b in inner] for a in inner]


def _table_cells(fmt: str, output: str) -> tuple[list[str], list[list[str]]]:
    if fmt == "json":
        obj = json.loads(output)
        return obj["header"], obj["rows"]
    lines = [line for line in output.splitlines() if line and not line.startswith("(")]
    split = (lambda line: line.split(",")) if fmt == "csv" else str.split
    rows = [split(line) for line in lines]
    return rows[0], rows[1:]


def check_table(oracle: Oracle, kind: str, n: int, fmt: str, output: str) -> str | None:
    want_header, want_rows = oracle.table(kind, n)
    header, rows = _table_cells(fmt, output)
    if header != want_header or len(rows) != len(want_rows):
        return f"table {kind} --n {n} --format {fmt}: wrong header or row count"
    for row, want in zip(rows, want_rows):
        # A trailing * only flags how the value was obtained.
        if [int(cell.rstrip("*")) for cell in row] != want:
            return f"table {kind} --n {n} --format {fmt}: row {row} != {want}"
    return None


def check_count(oracle: Oracle, n: int, mode: str, as_json: bool, output: str) -> str | None:
    s = oracle[n]
    if mode == "--narayana":
        want = [s.by_size[p] for p in range(n + 1)]
    elif mode == "--triangle":
        want = [s.by_start[i] for i in range(n + 1)]
    else:
        want = [s.total]
    got = json.loads(output) if as_json else [int(v) for v in output.split()]
    return None if got == want else f"count --n {n} {mode}: got {got}, want {want}"


def _dot_code(token: str, strings: int) -> int:
    return strings + int(token[:-1]) - 1 if token.endswith("'") else int(token) - 1


def gap_product(strings: int, key: str) -> int:
    """Diagrams sharing these cross arrows: Catalan numbers of the gaps."""
    arrows = [] if key == "-" else [a.split("-") for a in key.split(",")]
    used_top = {_dot_code(x, strings) for x, _ in arrows}
    used_bottom = {_dot_code(y, strings) - strings for _, y in arrows}
    out = 1
    for used in (used_top, used_bottom):
        run = 0
        for x in range(strings + 1):
            if x == strings or x in used:
                if run % 2:
                    return 0
                out *= catalan(run // 2)
                run = 0
            else:
                run += 1
    return out


def check_census(oracle: Oracle, n: int, p: int, as_json: bool, output: str) -> str | None:
    if as_json:
        classes = [(c["key"], c["size"]) for c in json.loads(output)]
    else:
        classes = [(key, int(size)) for key, size in (line.split("\t") for line in output.splitlines())]
    want_total = oracle[n].by_size[p]
    if sum(size for _, size in classes) != want_total:
        return f"census --n {n} --p {p}: sizes do not sum to {want_total}"
    for key, size in classes:
        if size != gap_product(n + 1, key):
            return f"census --n {n} --p {p}: class {key} has size {size}, want {gap_product(n + 1, key)}"
    if len({key for key, _ in classes}) != len(classes):
        return f"census --n {n} --p {p}: repeated class key"
    return None


def check_request(oracle: Oracle, argv: tuple[str, ...], output: str) -> str | None:
    """Dispatch one ``tables`` request to its check."""
    opts = dict(zip(argv[1:], argv[2:]))
    n = int(opts["--n"])
    if argv[0] == "table":
        return check_table(oracle, argv[1], n, opts["--format"], output)
    if argv[0] == "count":
        mode = next((a for a in argv if a in ("--narayana", "--triangle")), "")
        return check_count(oracle, n, mode, "--json" in argv, output)
    return check_census(oracle, n, int(opts["--p"]), "--json" in argv, output)


def check_verify(output: str) -> str | None:
    """Every check line reads PASS and the summary agrees."""
    lines = output.splitlines()
    if not lines:
        return "verify printed nothing"
    checks = lines[:-1]
    bad = [line for line in checks if not line.startswith("PASS ")]
    if bad or not checks:
        return f"verify: {bad[0] if bad else 'no checks ran'}"
    if lines[-1] != f"{len(checks)}/{len(checks)} checks passed":
        return f"verify: summary {lines[-1]!r} does not match {len(checks)} checks"
    return None
