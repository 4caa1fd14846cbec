"""Command-line front end.

Subcommands: transform, run, diff, analyze, fuzz. Exit codes form a contract
so scripts can tell failure classes apart:

    0  success / equivalent
    1  semantic mismatch reported by diff or fuzz
    2  parse, semantic-check or usage error
    3  I/O error
    4  step budget exceeded
    5  runtime error with a source location
    6  internal error: an unexpected exception, reported in one line

`main` is the one place that prints a failure and picks its exit code:
commands raise `_Exit(code, *lines)` to it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .ast import structural_eq
from .checker import check_semantics
from .generator import GenConfig
from .interp import DEFAULT_BUDGET, InterpError, StepBudgetExceeded, run
from .parser import ParseError, parse
from .printer import pretty_print
from .transform import TransformOptions, analyze_program, transform_program
from .verify import diff_run, fuzz_campaign

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_FRONTEND = 2
EXIT_IO = 3
EXIT_BUDGET = 4
EXIT_RUNTIME = 5
EXIT_INTERNAL = 6


class _Exit(Exception):
    """`_Exit(code, *lines)`: `main` prints `lines` to stderr and exits `code`."""


class _Parser(argparse.ArgumentParser):
    """Raises a usage error to `main` as exit 2; subparsers inherit it."""

    def error(self, message):
        raise _Exit(EXIT_FRONTEND, self.format_usage().rstrip("\n"),
                    f"{self.prog}: error: {message}")


def _read(text: str, where: str, what: str = ""):
    """Parse and check `text`; exit 2 naming `where`, `what` leading a parse error."""
    try:
        program = parse(text)
    except ParseError as e:
        raise _Exit(EXIT_FRONTEND, f"{where}:{e.line}:{e.col}: {what}expected "
                                   f"{e.expected}, found {e.found}")
    errors = check_semantics(program)
    if errors:
        raise _Exit(EXIT_FRONTEND, *(f"{where}:{err}" for err in errors))
    return program


def _load(path: str):
    """The checked program in the file at `path`."""
    try:
        # no newline translation: only '\n' starts a line, as in `parse`
        with open(path, "r", encoding="utf-8", newline="") as f:
            text = f.read()
    except OSError as e:
        raise _Exit(EXIT_IO, f"{path}: {e.strerror or e}")
    except UnicodeDecodeError as e:
        # the whole file is decoded in one piece, so e.start is a file offset
        raise _Exit(EXIT_IO, f"{path}: not valid UTF-8 (byte 0x{e.object[e.start]:02x} "
                             f"at offset {e.start})")
    return _read(text, path)


def _rows_json(rows: list) -> str:
    """LoopAnalysis rows as the JSON that `analyze` prints."""
    return json.dumps([{
        "loop_id": a.loop_id,
        "method": a.in_method,
        "kind": a.kind,
        "params": [[p.name, str(p.type)] for p in a.params],
        "modified": [[p.name, str(p.type)] for p in a.modified],
        "liveAfter": [[p.name, str(p.type)] for p in a.live_after],
        "packing": a.packing.value,
        "loopMethodName": a.loop_method_name,
        "resultVarName": a.result_var_name,
    } for a in rows], indent=2)


def _analysis_json(program) -> str:
    return _rows_json(analyze_program(program))


def cmd_transform(args) -> int:
    program = _load(args.file)
    if args.output is not None and os.path.exists(args.output) \
            and os.path.samefile(args.output, args.file):
        raise _Exit(EXIT_IO, "refusing to overwrite the input file in place")
    result = transform_program(program, TransformOptions(optimize=not args.no_optimize))
    if args.dump_analysis:
        print(_rows_json(result.report), file=sys.stderr)
    text = pretty_print(result.program)
    if args.verify:
        again = _read(text, "<transformed>", "output does not re-parse: ")
        if not structural_eq(again, result.program):
            raise _Exit(EXIT_FRONTEND, "<transformed>: output does not round-trip")
    if args.output is None:
        sys.stdout.write(text)
        return EXIT_OK
    try:
        with open(args.output, "w", encoding="utf-8") as f:
            f.write(text)
    except OSError as e:
        raise _Exit(EXIT_IO, f"{args.output}: {e.strerror or e}")
    return EXIT_OK


def cmd_run(args) -> int:
    program = _load(args.file)
    tracer = None
    if args.trace:
        def tracer(rule, loc, depth):
            where = str(loc) if loc else "?"
            print(f"{rule} {where} depth={depth}", file=sys.stderr)
    try:
        trace = run(program, budget=args.budget, tracer=tracer)
    except InterpError as e:
        code = EXIT_BUDGET if isinstance(e, StepBudgetExceeded) else EXIT_RUNTIME
        raise _Exit(code, f"{args.file}:{e}")
    for line in trace.prints:
        print(line)
    return EXIT_OK


def cmd_diff(args) -> int:
    report = diff_run(_load(args.file), TransformOptions(optimize=not args.no_optimize),
                      budget=args.budget)
    if args.json:
        print(json.dumps({
            "verdict": report.verdict,
            "detail": report.detail,
            "counters": report.counters,
        }, indent=2))
    elif report.equivalent:
        print("equivalent")
    else:
        print(f"mismatch: {report.detail}")
    return EXIT_OK if report.equivalent else EXIT_MISMATCH


def cmd_analyze(args) -> int:
    print(_analysis_json(_load(args.file)))
    return EXIT_OK


def cmd_fuzz(args) -> int:
    summary = fuzz_campaign(args.count, GenConfig(seed=args.seed), budget=args.budget)
    if args.json:
        print(summary.to_json())
    else:
        print(f"{summary.equivalent}/{summary.total} equivalent, "
              f"tail_ok={summary.tail_ok}, iter_call_ok={summary.iter_call_ok}, "
              f"budget_exceedances={summary.budget_exceedances}")
        for seed, detail in summary.mismatches:
            print(f"  seed {seed}: {detail}")
    return EXIT_OK if summary.ok else EXIT_MISMATCH


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="loop2rec",
        description="Rewrite loops into tail-recursive methods and check the "
                    "rewrite by differential execution.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("transform", help="rewrite every loop in a .mj file")
    p.add_argument("file")
    p.add_argument("-o", "--output", default=None, help="write here instead of stdout")
    p.add_argument("--no-optimize", action="store_true",
                   help="always return an Object[] of all parameters")
    p.add_argument("--verify", action="store_true",
                   help="re-parse and re-check the output before writing it")
    p.add_argument("--dump-analysis", action="store_true",
                   help="print per-loop analysis JSON to stderr")
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("run", help="execute a .mj file")
    p.add_argument("file")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.add_argument("--trace", action="store_true",
                   help="log one line per rule application to stderr")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("diff", help="run original and transformed side by side")
    p.add_argument("file")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.add_argument("--no-optimize", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_diff)

    p = sub.add_parser("analyze", help="dump per-loop analysis as JSON")
    p.add_argument("file")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("fuzz", help="differential campaign over generated programs")
    p.add_argument("-n", "--count", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_fuzz)
    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if getattr(args, "budget", 1) <= 0:
            raise _Exit(EXIT_FRONTEND, "budget must be positive")
        if getattr(args, "count", 0) < 0:
            raise _Exit(EXIT_FRONTEND, "count must not be negative")
        return args.func(args)
    except _Exit as e:
        code, *lines = e.args
        print(*lines, sep="\n", file=sys.stderr)
        return code
    except Exception as e:  # a bug in loop2rec: keep it out of codes 1-5
        print(f"loop2rec: internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
