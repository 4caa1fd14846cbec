"""Differential verification of the loop rewrite.

A program and its transformed version are run side by side and compared on
what a user could observe: the print trace, the final values of the entry
method's own (top-level) variables that no loop writes, the entry method's
result, and the termination mode. Fresh variables introduced by the rewrite,
variables scoped to a loop, and loop-written variables nothing reads again
(which the optimizing rewrite deliberately leaves stale) are outside the
comparison; any read that could expose them is itself compared. Then, in
this order, every generated method must be structurally tail-recursive (each
self-call the immediate operand of a return), and when both runs finish each
loop's iteration count must equal the entry count of its generated method
(the caller's first call included). One function applies all three checks
to one transform and one run of each side; `diff_run`, the seeded campaign
and `iteration_call_equality` all call it, so `diff` and `fuzz` give a
program the same verdict. The shipped transformer mutations exist to prove
the campaign can actually catch a wrong rewrite.
"""

from __future__ import annotations

import json
from typing import Optional

from .ast import (
    Assign,
    AssignIndex,
    Call,
    For,
    LOOP_KINDS,
    MethodDef,
    Program,
    Return,
    VarDecl,
    iter_stmts,
    program_loops,
    record,
    replace,
    stmt_exprs,
)
from .generator import GenConfig, generate
from .interp import (
    DEFAULT_BUDGET,
    CallDepthExceeded,
    InterpError,
    StepBudgetExceeded,
    run,
    values_equal,
)
from .transform import TransformOptions, transform_program

EQUIVALENT = "equivalent"
MISMATCH = "mismatch"


@record
class DiffReport:
    verdict: str  # equivalent | mismatch
    detail: Optional[str] = None
    counters: dict = {}

    @property
    def equivalent(self) -> bool:
        return self.verdict == EQUIVALENT


def _loop_written(program: Program) -> set:
    """Assignment targets inside any loop body (or for-update), computed
    directly off the tree so this oracle does not lean on the analysis module
    it is meant to check."""
    names, inner = set(), set()  # inner: ids of the loops in a body or update already walked
    for _, loop in program_loops(program):
        if id(loop) not in inner:
            for st in iter_stmts(loop.body + loop.update if type(loop) is For else loop.body):
                cls = type(st)
                if cls is Assign or cls is AssignIndex:
                    names.add(st.name)
                elif cls in LOOP_KINDS:
                    inner.add(id(st))
    return names


def observable_vars(program: Program) -> list:
    """Names whose final values the diff compares directly: the entry
    method's method-level declarations, minus anything a loop writes.

    Loop-scoped variables go out of scope before the method ends. A variable
    a loop modifies but nothing ever reads again is legitimately left stale
    by the optimizing rewrite (it is not worth returning), so its raw final
    binding is not an observable either; if such a variable *is* read later,
    the staleness flows into prints, the entry result, or some compared
    variable, and the mismatch surfaces there."""
    entry = program.method(program.entry)
    if entry is None:
        return []
    written = _loop_written(program)
    names = []
    for st in entry.body:
        if isinstance(st, VarDecl) and st.name not in written:
            names.append(st.name)
    return names


def _outcome(program: Program, budget: int):
    try:
        return "ok", run(program, budget=budget)
    except StepBudgetExceeded as e:
        return "budget", e
    except InterpError as e:
        return "error", e


def _difference(original: Program, left, right) -> Optional[str]:
    """Why the two runs differ to a user, or None when they do not."""
    (ls, lv), (rs, rv) = left, right
    if ls != rs:
        def describe(status, payload):
            return "ok" if status == "ok" else f"{payload.kind}: {payload.message}"
        return f"original: {describe(ls, lv)}; transformed: {describe(rs, rv)}"
    if ls == "error" and lv.kind != rv.kind:
        return f"error kinds differ: {lv.kind} vs {rv.kind}"
    # A failed run is compared on what it printed before it failed. The
    # rewrite takes more steps, and a loop open on a recursive path holds one
    # more frame, so when the budget or the call depth runs out it may have
    # printed less.
    lt, rt = (lv, rv) if ls == "ok" else (lv.trace, rv.trace)
    if lt is None:  # no entry method on either side: neither run began
        return None
    a, b = lt.prints, rt.prints
    if isinstance(lv, (StepBudgetExceeded, CallDepthExceeded)):
        a = a[:len(b)]
    for i, (x, y) in enumerate(zip(a, b)):
        if x != y:
            return f"print[{i}]: {x!r} vs {y!r}"
    if len(a) != len(b):
        return f"print count {len(a)} vs {len(b)}"
    if ls != "ok":
        return None
    for name in observable_vars(original):
        a = lv.final_bindings.get(name)
        b = rv.final_bindings.get(name)
        if a is None or b is None or not values_equal(a, b):
            return f"final value of '{name}' differs"
    ra, rb = lv.result, rv.result
    if (ra is None) != (rb is None) or (ra is not None and not values_equal(ra, rb)):
        return "entry method result differs"
    return None


# ---------------------------------------------------------------- tail calls


def tail_position_check(method: MethodDef) -> bool:
    """True iff every call of the method to itself is the immediate operand
    of a return. A call is only ever the whole value of a statement, so the
    violation is a self call held by any statement other than a `return`."""
    for st in iter_stmts(method.body):
        if type(st) is not Return:
            for e in stmt_exprs(st):
                if type(e) is Call and e.method == method.name:
                    return False
    return True


# ------------------------------------------------------- iteration vs calls


@record
class LoopCallEquality:
    loop_id: int
    loop_method_name: str
    iterations: int
    entries: int

    @property
    def ok(self) -> bool:
        return self.iterations == self.entries


# ---------------------------------------------------------------- one check


def _check(program: Program, opts: Optional[TransformOptions], budget: int):
    """Transform the program, run both sides once, and apply every run-side
    check in a fixed order: the comparison of the runs, then the tail
    position of each generated method, then each loop's iterations against
    its method's entries (only when both runs finished). Returns the report,
    whose detail is the first failing check's reason, the two run outcomes,
    whether every generated method is tail-recursive, and the per-loop rows."""
    result = transform_program(program, opts)
    left, right = _outcome(program, budget), _outcome(result.program, budget)
    counters, rows = {}, []
    if left[0] == "ok":
        counters["original_steps"] = left[1].steps
        counters["original_iterations"] = dict(left[1].loop_iterations)
    if right[0] == "ok":
        counters["transformed_steps"] = right[1].steps
        counters["transformed_entries"] = dict(right[1].method_entries)
        if left[0] == "ok":
            rows = [LoopCallEquality(r.loop_id, r.loop_method_name,
                                     left[1].loop_iterations.get(r.loop_id, 0),
                                     right[1].method_entries.get(r.loop_method_name, 0))
                    for r in result.report]
    untail = [f"{r.loop_method_name}: self call not in tail position" for r in result.report
              if not tail_position_check(result.program.method(r.loop_method_name))]
    uneven = [f"{e.loop_method_name}: {e.iterations} iterations, {e.entries} entries"
              for e in rows if not e.ok]
    detail = _difference(program, left, right) or next(iter(untail + uneven), None)
    report = DiffReport(EQUIVALENT if detail is None else MISMATCH, detail, counters=counters)
    return report, (left, right), not untail, rows


def diff_run(program: Program, opts: Optional[TransformOptions] = None,
             budget: int = DEFAULT_BUDGET) -> DiffReport:
    """Run the program and its transformed form; equivalent iff both
    terminate the same way and print the same, every generated method is
    tail-recursive, and (when both finish) each loop's iterations equal its
    method's entries. Both finish, and the observable final bindings and the
    result match value for value (doubles bit-identical); or both fail with
    the same error kind after the same prints; or both exhaust the budget or
    the call depth, the rewrite's prints a prefix of the original's."""
    return _check(program, opts, budget)[0]


def iteration_call_equality(program: Program) -> list:
    """Per loop: iteration count in the original run vs entry count of its
    generated method in the transformed run. They must agree exactly. A run
    that fails raises its InterpError, the original's first."""
    _, outcomes, _, rows = _check(program, None, DEFAULT_BUDGET)
    for status, payload in outcomes:
        if status != "ok":
            raise payload
    return rows


# ------------------------------------------------------------- fuzz campaign


@record
class CampaignSummary:
    total: int = 0
    equivalent: int = 0
    mismatches: list = []  # (seed, detail)
    tail_ok: bool = True
    iter_call_ok: bool = True
    budget_exceedances: int = 0

    @property
    def ok(self) -> bool:
        return (self.equivalent == self.total and self.tail_ok
                and self.iter_call_ok and self.budget_exceedances == 0)

    def to_json(self) -> str:
        return json.dumps({
            "total": self.total,
            "equivalent": self.equivalent,
            "mismatches": [{"seed": s, "detail": d} for s, d in self.mismatches],
            "tail_ok": self.tail_ok,
            "iter_call_ok": self.iter_call_ok,
            "budget_exceedances": self.budget_exceedances,
        }, indent=2)


def fuzz_campaign(n: int, cfg: Optional[GenConfig] = None,
                  budget: int = DEFAULT_BUDGET,
                  opts: Optional[TransformOptions] = None,
                  stop_on_first: bool = False) -> CampaignSummary:
    """Generate n programs (seeds cfg.seed .. cfg.seed+n-1) and run the full
    battery on each. Failures are data, not exceptions. `stop_on_first` ends
    the campaign at the first mismatch, which keeps deliberately broken
    transformers (whose output may diverge until the budget trips) cheap to
    convict."""
    cfg = cfg or GenConfig()
    summary = CampaignSummary()
    for i in range(n):
        seed = cfg.seed + i
        report, outcomes, tail_ok, rows = _check(generate(replace(cfg, seed=seed)), opts, budget)
        summary.total += 1
        if any(status == "budget" for status, _ in outcomes):
            summary.budget_exceedances += 1
        summary.tail_ok = summary.tail_ok and tail_ok
        summary.iter_call_ok = summary.iter_call_ok and all(e.ok for e in rows)
        if report.equivalent:
            summary.equivalent += 1
        else:
            summary.mismatches.append((seed, report.detail))
            if stop_on_first:
                break
    return summary
