"""Rewrites every loop into a call to a newly created tail-recursive method.

One template serves every loop kind, read as a `while` with parts:

  * `pre` runs once before the first call: a `for`'s init, or a foreach's
    hoisted collection (an array expression that is not a variable) and its
    counter `index = 0` or iterator `it = iterator(coll)`;
  * `guard` is checked before the first call and before each tail call:
    the loop's condition, `index < length(coll)` or `hasNext(it)`; a `do`
    makes its first call unguarded;
  * one iteration is `head + body + tail`: a foreach's element (`elem =
    coll[index]` or `elem = next(it)`), the body, then a `for`'s updates or
    `index = index + 1`.

The loop is replaced by `pre` and the (guarded) first call, and a new method
is appended whose body runs one iteration and then either tail-calls itself
(`return <method>(...)`) or returns the variables the loop modified. Loops are
analyzed against the original program in document order, then rewritten
innermost-first so every extraction sees an already loop-free body.

Caller-side packing of the modified variables:

  * none live      -> a bare call to a void method
  * exactly one    -> `v = loop(args);`
  * several        -> `Object[] result = loop(args);` plus one cast per
                      variable (`v = (T) result[i];`)

With optimization off every loop uses the Object[] form over all parameters.

A handful of deliberately wrong rewrites (Mutation) are shipped for the
differential harness to catch; none is ever active by default.
"""

from __future__ import annotations

from enum import Enum
from typing import Optional

from .analysis import (
    LoopAnalysis,
    NameAllocator,
    Packing,
    analyze_loop,
    packing_for,
)
from .ast import (
    ArrayLit,
    Assign,
    Binary,
    Block,
    Builtin,
    Call,
    CallStmt,
    Cast,
    Expr,
    INT,
    If,
    Index,
    IntLit,
    Length,
    Loc,
    MethodDef,
    OBJECT,
    OBJECT_ARRAY,
    Param,
    Program,
    Return,
    Stmt,
    VOID,
    Var,
    VarDecl,
    array_of,
    is_loop,
    iterator_of,
    loop_kind,
    program_loops,
    record,
    replace,
)
from .checker import static_type


class Mutation(Enum):
    """Seeded transformer defects for mutation testing."""

    DROP_FOR_UPDATE = "drop_for_update"
    COND_BEFORE_BODY = "cond_before_body"
    OMIT_RETURN_VAR = "omit_return_var"


@record
class TransformOptions:
    optimize: bool = True
    mutation: Optional[Mutation] = None


@record
class LoopReport:
    loop_id: int
    kind: str
    in_method: str
    loop_method_name: str
    packing: Packing
    loc: Optional[Loc]


@record
class TransformResult:
    program: Program
    report: list


# ----------------------------------------------------------------- template


@record
class _PlannedLoop:
    """A loop's analysis, its report and the fresh names its rewrite needs;
    `returned` is what travels back to the caller, mutant applied, packed as
    the report says. `counter` is a foreach's index or iterator, `coll_name`
    the hoisted collection of an array foreach over anything but a
    variable."""

    analysis: LoopAnalysis
    report: LoopReport
    returned: list  # Param
    counter: Optional[str] = None
    coll_name: Optional[str] = None


def _invoke_seq(plan: _PlannedLoop, params: list, loc: Optional[Loc]) -> list:
    """Caller-side first call plus catch/update of the modified variables."""
    packing, returned = plan.report.packing, plan.returned
    call = Call(plan.analysis.loop_method_name, [Var(p.name) for p in params])
    if packing == Packing.NONE:
        return [CallStmt(call, loc=loc)]
    if packing == Packing.SINGLE:
        return [Assign(returned[0].name, call, loc=loc)]
    result = plan.analysis.result_var_name
    out = [VarDecl(OBJECT_ARRAY, result, call, loc=loc)]
    for i, p in enumerate(returned):
        out.append(Assign(p.name, Cast(p.type, Index(Var(result), IntLit(i))), loc=loc))
    return out


def _gen_method(plan: _PlannedLoop, opts: TransformOptions, params: list,
                core: list, guard: Expr, loc: Optional[Loc]) -> MethodDef:
    """The recursive method: one iteration, a guarded tail call, and a return
    of the modified variables."""
    packing, returned = plan.report.packing, plan.returned
    name = plan.analysis.loop_method_name
    again = If(guard, [Return(Call(name, [Var(p.name) for p in params]), loc=loc)], loc=loc)
    if opts.mutation == Mutation.COND_BEFORE_BODY:
        body = [again] + core
    else:
        body = core + [again]
    if packing == Packing.NONE:
        ret_type = VOID
    elif packing == Packing.SINGLE:
        ret_type = returned[0].type
        body.append(Return(Var(returned[0].name), loc=loc))
    else:
        ret_type = OBJECT_ARRAY
        body.append(Return(ArrayLit(OBJECT, [Var(p.name) for p in returned]), loc=loc))
    return MethodDef(ret_type, name, params, body, loc=loc)


def _rewrite_loop(loop: Stmt, plan: _PlannedLoop, opts: TransformOptions):
    """(replacement statements, generated method) for a loop whose body is
    already loop-free. Every kind is a `while` with parts: `pre` runs once
    before the first call, `guard` is checked before the first call (except
    for `do`, whose body always runs once) and before each tail call, and
    one iteration is `head + body + tail`. A foreach's counter or iterator
    is the last parameter; its hoisted collection is the first."""
    kind, loc, counter = plan.report.kind, loop.loc, plan.counter
    params = list(plan.analysis.params)
    pre, head, tail = [], [], []
    if kind == "foreach_array":
        coll = plan.coll_name
        if coll is None:  # a variable, which the analysis made the first parameter
            coll = loop.collection.name
        else:
            coll_type = array_of(loop.elem_type)
            pre = [VarDecl(coll_type, coll, loop.collection, loc=loc)]
            params.insert(0, Param(coll, coll_type))
        pre.append(VarDecl(INT, counter, IntLit(0), loc=loc))
        params.append(Param(counter, INT))
        guard = Binary("<", Var(counter), Length(Var(coll)))
        head = [VarDecl(loop.elem_type, loop.elem_name, Index(Var(coll), Var(counter)), loc=loc)]
        tail = [Assign(counter, Binary("+", Var(counter), IntLit(1)), loc=loc)]
    elif kind == "foreach_list":
        iter_type = iterator_of(loop.elem_type)
        pre = [VarDecl(iter_type, counter, Builtin("iterator", [loop.collection]), loc=loc)]
        params.append(Param(counter, iter_type))
        guard = Builtin("hasNext", [Var(counter)])
        head = [VarDecl(loop.elem_type, loop.elem_name, Builtin("next", [Var(counter)]),
                        loc=loc)]
    else:
        guard = loop.cond
        if kind == "for":
            pre = list(loop.init)
            if opts.mutation != Mutation.DROP_FOR_UPDATE:
                tail = list(loop.update)
    first = _invoke_seq(plan, params, loc)
    if kind != "do":
        first = [If(guard, first, loc=loc)]
    replacement = pre + first
    # a block scopes what the replacement's top level declares: a for's
    # init, a hoisted collection or counter, a do's result variable
    if any(isinstance(st, VarDecl) for st in replacement):
        replacement = [Block(replacement, loc=loc)]
    gen = _gen_method(plan, opts, params, head + list(loop.body) + tail, guard, loc)
    return replacement, gen


# ------------------------------------------------------------------- driver


def _plan(program: Program, opts: TransformOptions) -> list:
    """Analyze every loop against the untouched program, allocating fresh
    names in document order (an outer loop is named before its inner loops),
    and decide its kind, packing and report; the walk that finds the loops
    also numbers them, so a plan's place in the list is its loop id. Each
    method is walked once, into the event tape that both the fresh names and
    the loop analyses read; dropped on return."""
    facts = {}
    alloc = NameAllocator(program, facts)
    plans = []
    for loop_id, (method, loop) in enumerate(program_loops(program)):
        loop.loop_id = loop_id
        analysis = analyze_loop(loop, method, program, optimize=opts.optimize,
                                names=alloc.loop_names(method.name), facts=facts)
        returned = list(analysis.live_after if opts.optimize else analysis.params)
        if opts.mutation == Mutation.OMIT_RETURN_VAR:
            returned = returned[:-1]
        kind = loop_kind(loop)
        counter = coll_name = None
        if kind == "foreach":
            ty = static_type(loop.collection, facts[id(method)].scope_at(loop))
            if ty is not None and ty.kind == "list":
                kind = "foreach_list"
                counter = alloc.fresh("it")
            else:
                kind = "foreach_array"
                counter = alloc.fresh("index")
                if not isinstance(loop.collection, Var):
                    coll_name = alloc.fresh("coll")
        report = LoopReport(loop_id, kind, method.name, analysis.loop_method_name,
                            packing_for(returned, opts.optimize), loop.loc)
        plans.append(_PlannedLoop(analysis, report, returned, counter, coll_name))
    return plans


def _rewrite_seq(stmts: list, opts: TransformOptions, plans: list, generated: list) -> list:
    out = []
    for st in stmts:
        if is_loop(st):
            body = _rewrite_seq(st.body, opts, plans, generated)
            repl, gen = _rewrite_loop(replace(st, body=body), plans[st.loop_id], opts)
            generated.append(gen)
            out.extend(repl)
        elif st.__class__ is If:
            out.append(If(
                st.cond,
                _rewrite_seq(st.then, opts, plans, generated),
                _rewrite_seq(st.orelse, opts, plans, generated) if st.orelse else st.orelse,
                loc=st.loc,
            ))
        elif st.__class__ is Block:
            out.append(Block(_rewrite_seq(st.body, opts, plans, generated), loc=st.loc))
        else:
            out.append(st)
    return out


def analyze_program(program: Program, optimize: bool = True) -> list:
    """Per-loop analyses with the names the rewrite would use, in document
    order: (loop_id, kind, enclosing method, LoopAnalysis)."""
    plans = _plan(program, TransformOptions(optimize=optimize))
    return [(p.report.loop_id, p.report.kind, p.report.in_method, p.analysis) for p in plans]


def transform_program(program: Program, opts: Optional[TransformOptions] = None) -> TransformResult:
    """Rewrite every loop in the program; generated methods are appended after
    the originals in creation order (innermost loops first), and the report
    lists the loops by id. Loop-free programs come back unchanged with an
    empty report."""
    opts = opts or TransformOptions()
    plans = _plan(program, opts)
    generated: list = []
    methods = []
    for m in program.methods:
        body = _rewrite_seq(m.body, opts, plans, generated)
        methods.append(MethodDef(m.ret_type, m.name, m.params, body, loc=m.loc))
    out = Program(methods + generated, entry=program.entry)
    return TransformResult(out, [p.report for p in plans])
