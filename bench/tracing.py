"""Spans and exact counts taken from outside the loop2rec package.

A Recorder wraps the package's public functions for the length of a `with`
block. Each wrapped function is replaced in its defining module and in every
other loop2rec module that imported it by name, so calls between layers
(`verify` calling `run`, `parse` calling `tokenize`) are seen as well as the
benchmark's own calls. Nothing inside the package is edited.

Two kinds of pass use it:

  * a traced pass (`spans=True`) records one span per call: layer, function,
    start, end, parent span and item index. A layer's self time is its spans'
    durations minus the part covered by their child spans.
  * a counts pass (`deep=True`) records exact counts and output digests. It
    prints every rewritten program, serialises every analysis, and runs the
    interpreter with a frame-depth tracer, so it is never timed.

Cheap counts (tokens, steps, packings, failures) are kept in both.
"""

from __future__ import annotations

import hashlib
import importlib
import json
from collections import Counter
from time import perf_counter

LAYERS = ("generator", "parser", "checker", "analysis", "transform",
          "printer", "interp", "verify")

# (layer, module, function) for every wrapped entry point.
WRAPPED = (
    ("generator", "generator", "generate"),
    ("parser", "parser", "tokenize"),
    ("parser", "parser", "parse"),
    ("checker", "checker", "check_semantics"),
    ("analysis", "analysis", "analyze_loop"),
    ("transform", "transform", "analyze_program"),
    ("transform", "transform", "transform_program"),
    ("printer", "printer", "pretty_print"),
    ("interp", "interp", "run"),
    ("verify", "verify", "diff_run"),
    ("verify", "verify", "fuzz_campaign"),
    ("verify", "verify", "tail_position_check"),
    ("verify", "verify", "iteration_call_equality"),
)

# self-time metric each (layer, function) span is charged to
SELF_METRIC = {("parser", "tokenize"): "parser.tokenize_ms",
               ("parser", "parse"): "parser.parse_self_ms",
               ("verify", None): "verify.self_ms"}

DIGESTS = ("rewritten_text", "analyze_json", "verdicts", "fuzz_summary")


def self_metric(layer: str, func: str) -> str:
    return (SELF_METRIC.get((layer, func)) or SELF_METRIC.get((layer, None))
            or f"{layer}.ms")


class Recorder:
    """Wraps the functions in WRAPPED while entered; see the module docstring."""

    def __init__(self, pkg, spans: bool = False, deep: bool = False):
        self.pkg = pkg
        self.spans = [] if spans else None  # [layer, func, start, end, parent, item]
        self.deep = deep
        # the formatter `loop2rec analyze` prints with; imported before any
        # patching, so that its own binding of analyze_program is patched too
        self._analysis_json = importlib.import_module(
            pkg.__name__ + ".cli")._analysis_json if deep else None
        self._quiet = False  # while set, wrappers only call through
        self.item = None
        self.counts = Counter()
        self.digests = {k: hashlib.sha256() for k in DIGESTS}
        self.orig = {}
        self._patched = []
        self._stack = []
        self._transforms = []  # (input program, TransformResult) of this item
        self._runs = {}        # id(program) -> ExecTrace, this item only
        self._outputs = {}     # id(rewritten program) -> program, this item only
        self.interp_time = {"original": 0.0, "rewritten": 0.0}  # seconds in run

    # ------------------------------------------------------------ patching

    def __enter__(self):
        if self._patched:
            return self
        mods = [m for m in vars(self.pkg).values()
                if getattr(m, "__name__", "").startswith(self.pkg.__name__ + ".")]
        mods.append(self.pkg)
        for layer, modname, func in WRAPPED:
            fn = getattr(getattr(self.pkg, modname), func)
            self.orig[func] = fn
            wrapper = self._wrap(layer, func, fn)
            for mod in mods:
                if vars(mod).get(func) is fn:
                    self._patched.append((mod, func, fn))
                    setattr(mod, func, wrapper)
        return self

    def __exit__(self, *exc):
        for mod, func, fn in reversed(self._patched):
            setattr(mod, func, fn)
        self._patched.clear()
        return False

    def _wrap(self, layer, func, fn):
        after = getattr(self, "_after_" + func, None)
        budget_error = self.pkg.interp.StepBudgetExceeded
        spans = self.spans
        stack = self._stack

        def wrapper(*args, **kwargs):
            if self._quiet:
                return fn(*args, **kwargs)
            if func == "run" and self.deep:
                kwargs["tracer"] = self._frame_tracer
            if spans is not None:
                span = [layer, func, 0.0, 0.0, stack[-1] if stack else None, self.item]
                stack.append(len(spans))
                spans.append(span)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except budget_error:
                self._after_budget(args, kwargs, perf_counter() - t0)
                raise
            except Exception:
                self.counts[layer + ".failed"] += 1
                raise
            else:
                if after is not None:
                    after(args, kwargs, result, perf_counter() - t0)
                return result
            finally:
                # bookkeeping above is charged to this span, not its parent
                if spans is not None:
                    stack.pop()
                    span[2], span[3] = t0, perf_counter()
        return wrapper

    # ------------------------------------------------------- per-call hooks

    def _frame_tracer(self, rule, loc, depth):
        if depth > self.counts["interp.peak_frames"]:
            self.counts["interp.peak_frames"] = depth

    def _after_tokenize(self, args, kwargs, tokens, dt):
        self.counts["parser.tokens"] += len(tokens)

    def _after_pretty_print(self, args, kwargs, text, dt):
        self.counts["printer.chars"] += len(text)

    def _after_analyze_loop(self, args, kwargs, analysis, dt):
        self.counts["analysis.loops"] += 1

    def _after_analyze_program(self, args, kwargs, rows, dt):
        if self.deep:
            program = args[0] if args else kwargs["program"]
            self._quiet = True  # its analyze_program call is not counted again
            try:
                text = self._analysis_json(program)
            finally:
                self._quiet = False
            self.digests["analyze_json"].update(text.encode() + b"\0")

    def _after_transform_program(self, args, kwargs, result, dt):
        program = args[0] if args else kwargs["program"]
        for r in result.report:
            self.counts["transform.packing_" + r.packing.value] += 1
        self._outputs[id(result.program)] = result.program
        self._transforms.append((program, result))
        if self.deep:
            show = self.orig["pretty_print"]
            text = show(result.program)
            self.counts["exact.in_chars"] += len(show(program))
            self.counts["exact.out_chars"] += len(text)
            self.digests["rewritten_text"].update(text.encode() + b"\0")

    def _after_run(self, args, kwargs, trace, dt):
        program = args[0] if args else kwargs["program"]
        self._runs[id(program)] = trace
        self._count_run(program, trace.steps, dt)

    def _after_budget(self, args, kwargs, dt):
        program = args[0] if args else kwargs["program"]
        budget = args[1] if len(args) > 1 else kwargs.get(
            "budget", self.pkg.interp.DEFAULT_BUDGET)
        self.counts["interp.budget_exhausted"] += 1
        self._count_run(program, budget, dt)

    def _count_run(self, program, steps: int, dt: float) -> None:
        side = "rewritten" if id(program) in self._outputs else "original"
        self.interp_time[side] += dt
        self.counts[f"interp.{side}_steps"] += steps

    def _after_diff_run(self, args, kwargs, report, dt):
        self.counts["verify.verdicts"] += 1
        if self.deep:
            text = json.dumps({"verdict": report.verdict, "detail": report.detail,
                               "counters": report.counters}, sort_keys=True)
            self.digests["verdicts"].update(text.encode() + b"\0")

    def _after_fuzz_campaign(self, args, kwargs, summary, dt):
        self.counts["verify.verdicts"] += 1
        self.counts["verify.programs"] += summary.total
        if summary.mismatches:
            self.counts["verify.convictions"] += 1
            self.counts["verify.programs_convicting"] += summary.total
        if self.deep:
            self.digests["fuzz_summary"].update(summary.to_json().encode() + b"\0")

    # ------------------------------------------------------------- per item

    def start_item(self, index: int) -> None:
        self.item = index

    def end_item(self, outcome: str) -> None:
        """Pair each transform with the runs of its input and output: steps of
        pairs where both runs finished, and per loop, iterations in the
        original against entries of its generated method in the rewrite."""
        for program, result in self._transforms:
            before = self._runs.get(id(program))
            after = self._runs.get(id(result.program))
            if before is None or after is None:
                continue
            self.counts["exact.pairs"] += 1
            self.counts["exact.pair_original_steps"] += before.steps
            self.counts["exact.pair_rewritten_steps"] += after.steps
            for r in result.report:
                self.counts["exact.loops_compared"] += 1
                iterations = before.loop_iterations.get(r.loop_id, 0)
                entries = after.method_entries.get(r.loop_method_name, 0)
                self.counts["exact.iterations"] += iterations
                self.counts["exact.entries"] += entries
                if iterations != entries:
                    self.counts["exact.iteration_entry_mismatches"] += 1
        if self.deep:
            self.digests["verdicts"].update(f"{self.item}:{outcome}\0".encode())
        self._transforms.clear()
        self._runs.clear()
        self._outputs.clear()
        self.item = None

    # ------------------------------------------------------------- results

    def self_times(self) -> dict:
        """Seconds of self time per metric name, over all recorded spans."""
        child = [0.0] * len(self.spans)
        for layer, func, t0, t1, parent, item in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        out = Counter()
        for (layer, func, t0, t1, parent, item), c in zip(self.spans, child):
            out[self_metric(layer, func)] += (t1 - t0) - c
        return out

    def hexdigests(self) -> dict:
        return {k: h.hexdigest() for k, h in self.digests.items()}
