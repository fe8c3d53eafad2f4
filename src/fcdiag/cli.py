"""Command line interface.

Exit codes: 0 on success, 1 on domain errors (message names the violated
invariant), 2 on usage errors.  Numeric arguments are range-checked by the
parser, so an out-of-range value is a usage error whose message gives the
allowed range.  Output is deterministic for fixed argv.  Two rules, a rank
cap and an output cap, bound every command but ``verify`` before any work
(see DRAW_RANK_CAP and WORK_CAP below); a request past either is a domain
error.  ``verify`` is bounded by its catalogue: no check that ``--max-n``
caps goes past rank 10, so a larger ``--max-n`` runs what 10 runs.  It
spreads each suite's checks over the CPUs the process may use, in forked
helpers, and prints their verdicts in catalogue order, so its output does
not depend on the CPU count.

:func:`main` builds its argparse tree once per process, on its first call,
and reuses it: parsing keeps no state between calls, so a request pays for
its answer and not for building ten subcommand parsers.
:func:`build_parser` still returns a fresh parser.

Each command imports the modules it uses when it runs, not when this module
loads, so a one-shot command compiles only its own code path.  At import
this module loads ``counting`` and ``errors`` and nothing else of the
package: ``count`` and ``table`` need no more.  ``enum`` adds ``fc``;
``to-diagram``, ``to-fc``, ``mul`` and ``census`` add ``bijection`` with
the ``diagram`` and ``fc`` it builds on (``mul`` and ``census`` through
``tl``); ``convert`` adds ``lattice`` too, ``render`` adds ``svg``, and
``verify`` loads ``verify`` and with it every module it checks.  The
``verify`` parser takes its suite names from VERIFY_SUITES, so building
the parser imports none of these.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import sys
from collections import Counter
from typing import TYPE_CHECKING, Sequence

from . import counting
from .errors import FCDiagramError, RankOutOfRangeError

if TYPE_CHECKING:
    from .fc import FCElement

# The keys of ``verify.SUITES``, sorted, kept here so that the verify
# parser's help names them without importing ``verify``.
VERIFY_SUITES = ("bijection", "counting", "diagram", "fc", "lattice", "tl")


def _at_least(low: int):
    """An argparse type: an integer no smaller than ``low``."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def _check_at_most(args, option: str, high: int) -> None:
    """Usage error unless ``--<option>`` lies in ``0..high``."""
    value = getattr(args, option)
    if value is not None and value > high:
        args.usage_error(f"argument --{option}: must be in 0..{high} for --n {args.n}, got {value}")


# Two rules bound every command but verify (which its catalogue bounds),
# each checked by one helper before any work.  A diagram, Dyck or ballot
# text form is as long as what it describes, so it needs neither.
#
# Rank rule: every rank the user gives is at most DRAW_RANK_CAP, whether as
# --n or as the rank of an FC text form.  A text form names its rank in a
# few digits, but drawing or multiplying the element builds a partner array
# of 2(n+1) entries, and render writes an SVG of O(n) lines: at rank 10^6
# render peaked at 1.7 GB for a 259 MB file.  One item of 10^6 blocks or
# strings took 231-300 MB to print.  Under this rule every count a command
# needs is computed exactly and cheaply (C_{10^5+1} in under a second).
#
# Output rule: what a command prints, counted in its own unit, is at most
# WORK_CAP.  enum prints blocks, census arrows (at most N(n, p) class keys
# of at most n+1 arrows each), to-diagram --trace candidate dots (counted
# by ``trace_candidates`` in one untraced drawing, before the trace is
# recorded; a trace can be quadratic in the size, 12.5 M dots on the
# rank-10^4 staircase), and count and table digits.
# Every count at rank n is at most C_{n+1} < 4^(n+1), so each value they
# print has at most the digits of 4^(n+1).  Just under the cap, a random
# rank-10^5 element of 9.96 M dots drew its trace in 2.5-3.1 s, peaking at
# 385 MB.
DRAW_RANK_CAP = 10**5
WORK_CAP = 10**7


def _check_rank(rank: int, command: str) -> None:
    """Rank rule: a domain error if ``rank`` is above DRAW_RANK_CAP."""
    if rank > DRAW_RANK_CAP:
        raise RankOutOfRangeError(
            f"rank {rank} is more than {DRAW_RANK_CAP}, the highest rank that {command} accepts"
        )


def _check_output(amount: int, unit: str, command: str) -> None:
    """Output rule: a domain error if ``amount``, a bound on what
    ``command`` would print counted in ``unit``, is above WORK_CAP.

    The message leaves the amount out: far from the cap it can have
    thousands of digits.
    """
    if amount > WORK_CAP:
        raise RankOutOfRangeError(
            f"{command} may print more than {WORK_CAP} {unit}, the most it is allowed"
        )


def _digits_per_count(n: int) -> int:
    """The digits of 4^(n+1), at least those of any count at rank n.

    That is floor(m log10 2) + 1 for m = 2n + 2, with log10 2 to 20 places
    so that no power of 4 is built.  It is exact for every m up to
    2 DRAW_RANK_CAP + 4, as checked against the digits of 2^m.
    """
    return (2 * n + 2) * 30102999566398119521 // 10**20 + 1


def _parse_drawable_fc(text: str, command: str) -> FCElement:
    """``parse_fc``, then the rank rule.

    Parsing builds only the blocks the text lists, so a large rank is
    refused before anything of its size is allocated.
    """
    from .fc import parse_fc

    w = parse_fc(text)
    _check_rank(w.rank, command)
    return w


def _cmd_enum(args) -> int:
    from .fc import enumerate_fc

    _check_at_most(args, "size", args.n)
    _check_rank(args.n, "enum")
    if args.size is None:  # sizes p and n-p are equally common
        blocks = args.n * counting.catalan(args.n + 1) // 2
    else:
        blocks = args.size * counting.narayana(args.n, args.size)
    _check_output(blocks, "blocks", "enum")
    for w in enumerate_fc(args.n, args.size):
        print(json.dumps(w.to_json()) if args.json else w.to_text())
    return 0


def _cmd_count(args) -> int:
    n = args.n
    _check_rank(n, "count")
    row = args.narayana or args.triangle
    _check_output((n + 1 if row else 1) * _digits_per_count(n), "digits", "count")
    if args.narayana:
        values = counting.narayana_row(n)
    elif args.triangle:
        values = counting.triangle_row(n)
    else:
        values = [counting.catalan(n + 1)]
    if args.json:
        print(json.dumps(values))
    else:
        print(" ".join(str(v) for v in values))
    return 0


def _cells(cell):
    """Row function of a table whose cells are counted one at a time."""
    return lambda n, row, columns: [cell(n, row, column) for column in columns]


def _rows(row):
    """Row function of a table whose row m is ``row(m)``, the m+1 counts of
    rank m, padded with zeros to the columns 0..n."""
    return lambda n, m, columns: [str(v) for v in row(m)] + ["0"] * (n - m)


# kind -> (corner label, lowest index, row(n, row index, column indices)).
# Rows and columns both run from the lowest index to n, so the kinds
# indexed by generators or blocks, which start at 1, are empty below rank
# 1.  Rows and cells look up their ``counting`` function at call time, so a
# rebound module attribute (as in ``perfbench/tracer.py``) takes effect.
_TABLES = {
    "narayana": ("n\\p", 0, _rows(lambda m: counting.narayana_row(m))),
    "triangle": ("n\\i", 0, _rows(lambda m: counting.triangle_row(m))),
    "first-block": ("i\\j", 1, _cells(lambda n, i, j: str(counting.count_first_block(n, i, j)))),
    "last-block": ("i\\j", 1, _cells(lambda n, i, j: str(counting.count_last_block(n, i, j)))),
    "start-size": ("i\\p", 1, _cells(lambda n, i, p: str(counting.count_start_size(n, i, p)))),
    "size-end": ("p\\j", 1, _cells(lambda n, p, j: str(counting.count_size_end(n, p, j)))),
    "start-end": ("i\\j", 1, _cells(lambda n, i, j: str(counting.count_start_end(n, i, j).value))),
}


def _cmd_table(args) -> int:
    corner, low, row_of = _TABLES[args.kind]
    n = args.n
    if n < low:
        args.usage_error(f"argument --n: must be >= {low} for table {args.kind}, got {n}")
    _check_rank(n, "table")
    indices = range(low, n + 1)
    _check_output(len(indices) ** 2 * _digits_per_count(n), "digits", "table")
    header = [corner] + [str(c) for c in indices]
    rows = ([str(r)] + row_of(n, r, indices) for r in indices)
    if args.format == "csv":
        # each row is printed as it is built; json and text need them all
        for row in itertools.chain([header], rows):
            print(",".join(row))
        return 0
    rows = list(rows)
    if args.format == "json":
        print(json.dumps({"header": header, "rows": rows}))
    else:
        widths = [max(len(r[c]) for r in [header] + rows) for c in range(len(header))]
        for row in [header] + rows:
            print("  ".join(cell.rjust(width) for cell, width in zip(row, widths)))
    return 0


def _cmd_to_diagram(args) -> int:
    from .bijection import diagram_of, fc_to_diagram, trace_candidates

    w = _parse_drawable_fc(args.element, "to-diagram")
    if args.trace:
        _check_output(trace_candidates(w), "candidate dots", "to-diagram --trace")
        diagram, trace = fc_to_diagram(w)
    else:
        diagram = diagram_of(w)
    if args.json:
        out = {"diagram": diagram.to_json()}
        if args.trace:
            out["trace"] = trace.to_json()
        print(json.dumps(out))
    else:
        print(diagram.to_text())
        if args.trace:
            print(json.dumps(trace.to_json()))
    return 0


def _cmd_to_fc(args) -> int:
    from .bijection import diagram_to_fc
    from .diagram import parse_diagram

    diagram = parse_diagram(args.diagram)
    w = diagram_to_fc(diagram)
    print(json.dumps(w.to_json()) if args.json else w.to_text())
    return 0


def _cmd_mul(args) -> int:
    from . import tl

    w1, w2 = _parse_drawable_fc(args.left, "mul"), _parse_drawable_fc(args.right, "mul")
    w3, m = tl.monomial_product(w1, w2)
    if args.json:
        print(json.dumps({"delta_exponent": m, "result": w3.to_json()}))
    else:
        print(f"delta^{m} * {w3.to_text()}")
    return 0


# The text forms that convert reads and writes.
_FORMS = ("fc", "dyck", "ballot", "diagram")


def _cmd_convert(args) -> int:
    from . import lattice
    from .bijection import diagram_of, diagram_to_fc
    from .diagram import parse_diagram

    # One row per form: parse its text, read the FC element, build one.
    forms = {
        "fc": (functools.partial(_parse_drawable_fc, command="convert"), lambda w: w, lambda w: w),
        "dyck": (lattice.parse_dyck, lattice.dyck_to_fc, lattice.fc_to_dyck),
        "ballot": (
            lattice.parse_ballot,
            lambda ballot: lattice.dyck_to_fc(lattice.ballot_to_dyck(ballot)),
            lattice.fc_to_ballot,
        ),
        "diagram": (parse_diagram, diagram_to_fc, diagram_of),
    }
    src, dst = args.source, args.target
    parse, to_fc, _ = forms[src]
    value = parse(args.input)
    if src == "ballot" and dst == "diagram":
        args.usage_error(
            "ballot -> diagram is not supported (the tail/head reading has no direct inverse)"
        )
    if src == "diagram" and dst == "ballot":
        print(lattice.diagram_to_ballot(value).to_text())
        return 0
    # Every other conversion goes form -> FC element -> form.
    print(forms[dst][2](to_fc(value)).to_text())
    return 0


def _cmd_render(args) -> int:
    from .bijection import diagram_of
    from .diagram import parse_diagram
    from .svg import diagram_to_svg

    text = args.input.strip()
    if text.startswith("strings="):
        diagram = parse_diagram(text)
    else:
        diagram = diagram_of(_parse_drawable_fc(text, "render"))
    svg = diagram_to_svg(diagram)
    try:
        with open(args.svg, "w", encoding="utf-8") as handle:
            handle.write(svg)
    except OSError as exc:
        print(f"error: cannot write {args.svg}: {exc.strerror or exc}", file=sys.stderr)
        return 1
    print(args.svg)
    return 0


def _cmd_census(args) -> int:
    from . import tl

    _check_at_most(args, "p", args.n)
    _check_rank(args.n, "census")
    _check_output((args.n + 1) * counting.narayana(args.n, args.p), "arrows", "census")
    classes = tl.census(args.n, args.p)
    texts = tl.key_texts([key for key, _ in classes], args.n + 1)
    if args.json:
        # json.dumps's layout for a list of {"key", "size"} objects, with the
        # key quoted by json's own encoder, and no dict built per class.
        quoted = json.encoder.encode_basestring_ascii
        rows = [f'{{"key": {quoted(text)}, "size": {size}}}' for text, (_, size) in zip(texts, classes)]
        sys.stdout.write(f"[{', '.join(rows)}]\n")
    else:
        sys.stdout.write("".join([f"{text}\t{size}\n" for text, (_, size) in zip(texts, classes)]))
    return 0


def _cmd_verify(args) -> int:
    unknown = [s for s in args.suites if s not in VERIFY_SUITES]
    if unknown:
        args.usage_error(
            f"unknown suite(s) {', '.join(unknown)}; choose from {', '.join(VERIFY_SUITES)}"
        )
    from . import verify

    names = list(VERIFY_SUITES) if (args.all or not args.suites) else args.suites
    results = verify.run_suites(names, args.max_n)
    for r in results:
        print(f"{r.status} {r.suite}.{r.name}" + (f": {r.detail}" if r.detail else ""))
    status = Counter(r.status for r in results)
    skipped = f", {status['SKIP']} skipped" if status["SKIP"] else ""
    print(f"{status['PASS']}/{status['PASS'] + status['FAIL']} checks passed{skipped}")
    return 1 if status["FAIL"] else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fcdiag",
        description="Fully commutative elements, non-crossing diagrams, and "
        "Temperley-Lieb monomial arithmetic.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enum", help="list all FC elements of a rank")
    p.add_argument("--n", type=_at_least(0), required=True)
    p.add_argument("--size", type=_at_least(0), default=None, help="restrict to one size")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_enum, usage_error=p.error)

    p = sub.add_parser("count", help="closed-form counts for one rank")
    p.add_argument("--n", type=_at_least(0), required=True)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--narayana", action="store_true", help="row of counts by size")
    group.add_argument("--triangle", action="store_true", help="row of counts by first generator")
    group.add_argument("--catalan", action="store_true", help="total count (default)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("table", help="print an enumeration table")
    p.add_argument("kind", choices=list(_TABLES))
    p.add_argument(
        "--n", type=int, required=True, help="rank: >= 0 for narayana and triangle, >= 1 otherwise"
    )
    p.add_argument("--format", choices=["text", "csv", "json"], default="text")
    p.set_defaults(func=_cmd_table, usage_error=p.error)

    p = sub.add_parser("to-diagram", help="draw the diagram of an FC element")
    p.add_argument("element", help="text form, e.g. n=5:[4,5][3,3][1,1]")
    p.add_argument("--trace", action="store_true", help="also dump the drawing trace")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_to_diagram)

    p = sub.add_parser("to-fc", help="read the FC element off a diagram")
    p.add_argument("diagram", help="text form, e.g. strings=2;1-2,1'-2'")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_to_fc)

    p = sub.add_parser("mul", help="multiply two basis monomials")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_mul)

    p = sub.add_parser(
        "convert",
        help="convert between fc, dyck, ballot, and diagram forms",
        description="Conversions route through the FC element, except "
        "diagram -> ballot which uses the tail/head reading directly. "
        "ballot -> diagram is not supported.",
    )
    p.add_argument("--from", dest="source", required=True, choices=_FORMS)
    p.add_argument("--to", dest="target", required=True, choices=_FORMS)
    p.add_argument("input")
    p.set_defaults(func=_cmd_convert, usage_error=parser.error)

    p = sub.add_parser("render", help="render a diagram (or an element's diagram) as SVG")
    p.add_argument("input", help="diagram or FC element text form")
    p.add_argument("--svg", required=True, metavar="PATH", help="output file")
    p.set_defaults(func=_cmd_render)

    p = sub.add_parser("census", help="cross-arrow equivalence classes and their sizes")
    p.add_argument("--n", type=_at_least(0), required=True)
    p.add_argument("--p", type=_at_least(0), required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_census, usage_error=p.error)

    p = sub.add_parser("verify", help="run property sweeps")
    p.add_argument(
        "suites",
        nargs="*",
        metavar="SUITE",
        help=f"suites to run (default: all): {', '.join(VERIFY_SUITES)}",
    )
    p.add_argument("--all", action="store_true", help="run every suite")
    p.add_argument(
        "--max-n", type=_at_least(1), default=8, help="cap enumeration sweeps at this rank"
    )
    p.set_defaults(func=_cmd_verify, usage_error=parser.error)

    return parser


# The parser main() uses: built on the first call, not at import.
_shared_parser = functools.cache(build_parser)


def main(argv: Sequence[str] | None = None) -> int:
    args = _shared_parser().parse_args(argv)
    # Counts print in full: lift Python's limit on int-to-str digits
    # (3.11+) for the command, and restore it for the caller.
    digit_limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if digit_limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        return args.func(args)
    except FCDiagramError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if digit_limit is not None:
            sys.set_int_max_str_digits(digit_limit)


if __name__ == "__main__":
    sys.exit(main())
