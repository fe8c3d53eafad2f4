"""Command line interface.

Exit codes: 0 on success, 1 on domain errors (message names the violated
invariant), 2 on usage errors.  Numeric arguments are range-checked by the
parser, so an out-of-range value is a usage error whose message gives the
allowed range.  Output is deterministic for fixed argv.

Only ``to-diagram --trace`` runs the paper's five-pass drawing; every other
command that draws an element's diagram uses the generator-action kernel.

:func:`main` builds its argparse tree once per process, on its first call,
and reuses it: parsing keeps no state between calls, so a request pays for
its answer and not for building ten subcommand parsers.
:func:`build_parser` still returns a fresh parser.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from collections import Counter
from math import lgamma, log, log10
from typing import Sequence

from . import counting, lattice, tl, verify
from .bijection import diagram_of, diagram_to_fc, fc_to_diagram
from .diagram import Diagram, diagram_from_json, parse_diagram
from .errors import FCDiagramError, RankOutOfRangeError
from .fc import FCElement, enumerate_fc, parse_fc
from .svg import diagram_to_svg


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


# ``enum`` and ``census`` refuse to list more elements than ENUMERATION_CAP,
# and a listing whose elements add up to more than WORK_CAP blocks (enum
# prints them) or strings (census once drew each element on n+1 of them).  One
# element at the work cap, 10^7 blocks, still takes about 3 GB to print.
# The census now walks its classes without building any element, so these
# element-count bounds overstate its work; they are kept unchanged so that
# its refusals stay as they were, until a bound on the classes it lists
# replaces them.
ENUMERATION_CAP = 10**7
WORK_CAP = 10**7


def _log10_comb(a: int, b: int) -> float:
    return (lgamma(a + 1) - lgamma(b + 1) - lgamma(a - b + 1)) / log(10)


def _check_listing_size(command: str, n: int, size: int | None) -> None:
    """Domain error if ``command`` at rank ``n`` would list or build too much.

    The count is C_{n+1}, or N(n, size) with one size.  It is computed
    exactly when a bound shows it has at most about 120 digits.  A larger
    count exceeds the cap by far and is only estimated, so that a huge rank
    is refused without computing a count of millions of digits.  Within
    the element cap the work is exact: enum prints size * N(n, size)
    blocks, or n C_{n+1} / 2 without a size (sizes p and n-p are equally
    common); census is charged (n+1) N(n, size) strings, the cost of
    drawing every element, though it draws none.
    """
    of_size = "" if size is None else f" of size {size}"
    if size is None:
        bits = 2 * n + 2  # C_{n+1} < 4^(n+1)
    else:
        # N(n, p) = N(n, n-p) <= C(n, q) C(n+1, q) <= (n+1)^(2q), q = min(p, n-p)
        bits = 2 * min(size, n - size) * (n + 1).bit_length()
    if bits <= 400:
        count = counting.catalan(n + 1) if size is None else counting.narayana(n, size)
        if count <= ENUMERATION_CAP:
            if command == "census":
                work, unit, verb = (n + 1) * count, "strings", "draw"
            elif size is None:
                work, unit, verb = n * count // 2, "blocks", "print"
            else:
                work, unit, verb = size * count, "blocks", "print"
            if work > WORK_CAP:
                raise RankOutOfRangeError(
                    f"rank {n} has {count} elements{of_size}, {work} {unit} in all, "
                    f"more than the {WORK_CAP} {unit} that {command} may {verb}"
                )
            return
        amount = str(count)
    else:
        try:
            if size is None:
                log10_count = _log10_comb(2 * n + 2, n + 1) - log10(n + 2)
            else:
                log10_count = _log10_comb(n, size) + _log10_comb(n + 1, size) - log10(size + 1)
            amount = f"about 10^{log10_count:.0f}"
        except OverflowError:  # n beyond the float range, so the count is above n
            amount = "more than 10^300"
    raise RankOutOfRangeError(
        f"rank {n} has {amount} elements{of_size}, "
        f"more than the {ENUMERATION_CAP} that enum and census may list"
    )


def _cmd_enum(args) -> int:
    _check_at_most(args, "size", args.n)
    _check_listing_size("enum", args.n, args.size)
    for w in enumerate_fc(args.n, args.size):
        print(json.dumps(w.to_json()) if args.json else w.to_text())
    return 0


def _cmd_count(args) -> int:
    n = args.n
    if args.narayana:
        values = counting.narayana_row(n)
    elif args.triangle:
        values = [counting.triangle_start(n, i) for i in range(n + 1)]
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


def _narayana_row(n: int, m: int, columns) -> list[str]:
    # one Narayana row per table row; ``columns`` is always 0..n
    row = counting.narayana_row(m)
    return [str(row[p]) if p <= m else "0" for p in columns]


# kind -> (corner label, lowest index, row(n, row index, column indices)).
# Rows and columns both run from the lowest index to n, so the kinds
# indexed by generators or blocks, which start at 1, are empty below rank
# 1.  Rows and cells look up their ``counting`` function at call time, so a
# rebound module attribute (as in ``perfbench/tracer.py``) takes effect.
_TABLES = {
    "narayana": ("n\\p", 0, _narayana_row),
    "triangle": ("n\\i", 0, _cells(lambda n, m, i: str(counting.triangle_start(m, i)))),
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
    indices = range(low, n + 1)
    header = [corner] + [str(c) for c in indices]
    rows = [[str(r)] + row_of(n, r, indices) for r in indices]
    if args.format == "json":
        print(json.dumps({"header": header, "rows": rows}))
    elif args.format == "csv":
        print(",".join(header))
        for row in rows:
            print(",".join(row))
    else:
        widths = [max(len(r[c]) for r in [header] + rows) for c in range(len(header))]
        for row in [header] + rows:
            print("  ".join(cell.rjust(width) for cell, width in zip(row, widths)))
    return 0


def _cmd_to_diagram(args) -> int:
    w = parse_fc(args.element)
    if args.trace:
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
    diagram = parse_diagram(args.diagram)
    w = diagram_to_fc(diagram)
    print(json.dumps(w.to_json()) if args.json else w.to_text())
    return 0


def _cmd_mul(args) -> int:
    w1, w2 = parse_fc(args.left), parse_fc(args.right)
    w3, m = tl.monomial_product(w1, w2)
    if args.json:
        print(json.dumps({"delta_exponent": m, "result": w3.to_json()}))
    else:
        print(f"delta^{m} * {w3.to_text()}")
    return 0


_CONVERT_PARSERS = {
    "fc": parse_fc,
    "dyck": lattice.parse_dyck,
    "ballot": lattice.parse_ballot,
    "diagram": parse_diagram,
}


def _cmd_convert(args, parser: argparse.ArgumentParser) -> int:
    src, dst = args.source, args.target
    value = _CONVERT_PARSERS[src](args.input)

    if src == "diagram" and dst == "ballot":
        print(lattice.diagram_to_ballot(value).to_text())
        return 0
    if src == "ballot" and dst == "diagram":
        parser.error("ballot -> diagram is not supported (the tail/head reading has no direct inverse)")

    # everything else goes through the FC element
    if src == "dyck":
        w = lattice.dyck_to_fc(value)
    elif src == "ballot":
        w = lattice.dyck_to_fc(lattice.ballot_to_dyck(value))
    elif src == "diagram":
        w = diagram_to_fc(value)
    else:
        w = value

    if dst == "fc":
        print(w.to_text())
    elif dst == "dyck":
        print(lattice.fc_to_dyck(w).to_text())
    elif dst == "ballot":
        print(lattice.fc_to_ballot(w).to_text())
    else:
        print(diagram_of(w).to_text())
    return 0


def _cmd_render(args) -> int:
    text = args.input.strip()
    if text.startswith("strings="):
        diagram = parse_diagram(text)
    else:
        diagram = diagram_of(parse_fc(text))
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
    _check_at_most(args, "p", args.n)
    _check_listing_size("census", args.n, args.p)
    classes = tl.census(args.n, args.p)
    strings = args.n + 1
    if args.json:
        print(
            json.dumps(
                [
                    {"key": tl.key_to_text(key, strings), "size": size}
                    for key, size in classes
                ]
            )
        )
    else:
        for key, size in classes:
            print(f"{tl.key_to_text(key, strings)}\t{size}")
    return 0


def _cmd_verify(args, parser: argparse.ArgumentParser) -> int:
    unknown = [s for s in args.suites if s not in verify.SUITES]
    if unknown:
        parser.error(
            f"unknown suite(s) {', '.join(unknown)}; choose from {', '.join(sorted(verify.SUITES))}"
        )
    names = sorted(verify.SUITES) if (args.all or not args.suites) else args.suites
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
    p.add_argument("--from", dest="source", required=True, choices=list(_CONVERT_PARSERS))
    p.add_argument("--to", dest="target", required=True, choices=list(_CONVERT_PARSERS))
    p.add_argument("input")
    p.set_defaults(func=lambda args: _cmd_convert(args, parser))

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
        help=f"suites to run (default: all): {', '.join(sorted(verify.SUITES))}",
    )
    p.add_argument("--all", action="store_true", help="run every suite")
    p.add_argument(
        "--max-n", type=_at_least(1), default=8, help="cap enumeration sweeps at this rank"
    )
    p.set_defaults(func=lambda args: _cmd_verify(args, parser))

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
