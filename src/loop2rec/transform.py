"""Rewrites every loop into a call to a newly created tail-recursive method.

Each loop is replaced by (at most) a guard plus a first call, and a new method
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
    CallAssign,
    Cast,
    DoWhile,
    Expr,
    For,
    Foreach,
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
    VOID,
    Var,
    VarDecl,
    While,
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


# ----------------------------------------------------------------- plumbing


@record
class _PlannedLoop:
    """A loop's analysis plus every decision its rewrite needs; `returned`
    is what travels back to the caller, mutant applied, packed as
    `packing`."""

    analysis: LoopAnalysis
    kind: str  # while | do | for | foreach_array | foreach_list
    in_method: str
    packing: Packing
    returned: list  # Param
    index_name: Optional[str] = None
    iterator_name: Optional[str] = None
    coll_name: Optional[str] = None


def _invoke_seq(plan: _PlannedLoop, params: list, loc: Optional[Loc]) -> list:
    """Caller-side first call plus catch/update of the modified variables."""
    packing, returned = plan.packing, plan.returned
    name = plan.analysis.loop_method_name
    args = [Var(p.name) for p in params]
    if packing == Packing.NONE:
        return [CallAssign(None, name, args, loc=loc)]
    if packing == Packing.SINGLE:
        return [CallAssign(returned[0].name, name, args, loc=loc)]
    result = plan.analysis.result_var_name
    out = [CallAssign(result, name, args, decl_type=OBJECT_ARRAY, loc=loc)]
    for i, p in enumerate(returned):
        out.append(Assign(p.name, Cast(p.type, Index(Var(result), IntLit(i))), loc=loc))
    return out


def _has_decl(stmts: list) -> bool:
    return any(
        isinstance(st, VarDecl) or (isinstance(st, CallAssign) and st.decl_type is not None)
        for st in stmts
    )


def _maybe_block(stmts: list, opts: TransformOptions, loc: Optional[Loc]) -> list:
    """do/for/foreach replacements get a scope block; it is elided only when
    optimizing and the replacement declares nothing."""
    if opts.optimize and not _has_decl(stmts):
        return stmts
    return [Block(stmts, loc=loc)]


def _gen_method(plan: _PlannedLoop, opts: TransformOptions, params: list,
                core: list, tail_cond: Expr, loc: Optional[Loc]) -> MethodDef:
    """The recursive method: one iteration, a guarded tail call, and a return
    of the modified variables."""
    packing, returned = plan.packing, plan.returned
    name = plan.analysis.loop_method_name
    tail = If(tail_cond, [Return(Call(name, [Var(p.name) for p in params]), loc=loc)], loc=loc)
    if opts.mutation == Mutation.COND_BEFORE_BODY:
        body = [tail] + core
    else:
        body = core + [tail]
    if packing == Packing.NONE:
        ret_type = VOID
    elif packing == Packing.SINGLE:
        ret_type = returned[0].type
        body.append(Return(Var(returned[0].name), loc=loc))
    else:
        ret_type = OBJECT_ARRAY
        body.append(Return(ArrayLit(OBJECT, [Var(p.name) for p in returned]), loc=loc))
    return MethodDef(ret_type, name, params, body, loc=loc)


# ------------------------------------------------------------ per-loop kinds


def transform_while(loop: While, plan: _PlannedLoop, opts: TransformOptions):
    """`while` becomes `if (cond) <call+catch>`; the method runs the body,
    re-checks the condition for the tail call, then returns. The guard's own
    braces scope any declared result variable, so no extra block is needed."""
    params = list(plan.analysis.params)
    replacement = [If(loop.cond, _invoke_seq(plan, params, loop.loc), loc=loop.loc)]
    gen = _gen_method(plan, opts, params, list(loop.body), loop.cond, loop.loc)
    return replacement, gen


def transform_do(loop: DoWhile, plan: _PlannedLoop, opts: TransformOptions):
    """Same as the while case except the first call is unconditional (a do
    body always runs once); the unguarded catch code needs its own block when
    it declares anything."""
    params = list(plan.analysis.params)
    replacement = _maybe_block(_invoke_seq(plan, params, loop.loc), opts, loop.loc)
    gen = _gen_method(plan, opts, params, list(loop.body), loop.cond, loop.loc)
    return replacement, gen


def transform_for(loop: For, plan: _PlannedLoop, opts: TransformOptions):
    """Init statements are hoisted to the top of the new block (keeping their
    scope confined to it), update statements run between the body and the
    condition check, and init-declared variables travel as parameters."""
    params = list(plan.analysis.params)
    seq = list(loop.init) + [If(loop.cond, _invoke_seq(plan, params, loop.loc), loc=loop.loc)]
    replacement = _maybe_block(seq, opts, loop.loc)
    core = list(loop.body)
    if opts.mutation != Mutation.DROP_FOR_UPDATE:
        core += list(loop.update)
    gen = _gen_method(plan, opts, params, core, loop.cond, loop.loc)
    return replacement, gen


def transform_foreach_array(loop: Foreach, plan: _PlannedLoop, opts: TransformOptions):
    """Array traversal gets a fresh counter passed along every call; the
    element variable is declared from `coll[index]` at the top of the method.
    A non-variable collection expression is hoisted so it is evaluated once."""
    coll_type = array_of(loop.elem_type)
    index_name = plan.index_name
    hoist = []
    if isinstance(loop.collection, Var):
        cname = loop.collection.name
        coll_param = next(p for p in plan.analysis.params if p.name == cname)
        rest = [p for p in plan.analysis.params if p.name != cname]
    else:
        cname = plan.coll_name
        hoist = [VarDecl(coll_type, cname, loop.collection, loc=loop.loc)]
        coll_param = Param(cname, coll_type)
        rest = list(plan.analysis.params)
    params = [coll_param] + rest + [Param(index_name, INT)]
    guard = Binary("<", Var(index_name), Length(Var(cname)))
    seq = hoist + [
        VarDecl(INT, index_name, IntLit(0), loc=loop.loc),
        If(guard, _invoke_seq(plan, params, loop.loc), loc=loop.loc),
    ]
    replacement = _maybe_block(seq, opts, loop.loc)
    core = (
        [VarDecl(loop.elem_type, loop.elem_name, Index(Var(cname), Var(index_name)), loc=loop.loc)]
        + list(loop.body)
        + [Assign(index_name, Binary("+", Var(index_name), IntLit(1)), loc=loop.loc)]
    )
    gen = _gen_method(plan, opts, params, core, guard, loop.loc)
    return replacement, gen


def transform_foreach_iterable(loop: Foreach, plan: _PlannedLoop, opts: TransformOptions):
    """List traversal threads an iterator instead of a counter: hasNext guards
    both calls and next() yields the element at the top of the method."""
    iter_type = iterator_of(loop.elem_type)
    iterator_name = plan.iterator_name
    params = list(plan.analysis.params) + [Param(iterator_name, iter_type)]
    guard = Builtin("hasNext", [Var(iterator_name)])
    seq = [
        VarDecl(iter_type, iterator_name, Builtin("iterator", [loop.collection]), loc=loop.loc),
        If(guard, _invoke_seq(plan, params, loop.loc), loc=loop.loc),
    ]
    replacement = _maybe_block(seq, opts, loop.loc)
    core = (
        [VarDecl(loop.elem_type, loop.elem_name, Builtin("next", [Var(iterator_name)]),
                 loc=loop.loc)]
        + list(loop.body)
    )
    gen = _gen_method(plan, opts, params, core, guard, loop.loc)
    return replacement, gen


_TEMPLATES = {
    "while": transform_while,
    "do": transform_do,
    "for": transform_for,
    "foreach_array": transform_foreach_array,
    "foreach_list": transform_foreach_iterable,
}


# ------------------------------------------------------------------- driver


def _plan(program: Program, opts: TransformOptions) -> dict:
    """Analyze every loop against the untouched program, allocating fresh
    names in document order (an outer loop is named before its inner loops),
    and decide its template and packing; the walk that finds the loops also
    numbers them. Each method is walked once, into the event tape that both
    the fresh names and the loop analyses read; dropped on return."""
    facts = {}
    alloc = NameAllocator(program, facts)
    plans = {}
    for loop_id, (method, loop) in enumerate(program_loops(program)):
        loop.loop_id = loop_id
        analysis = analyze_loop(loop, method, program, optimize=opts.optimize,
                                names=alloc.loop_names(method.name), facts=facts)
        returned = list(analysis.live_after if opts.optimize else analysis.params)
        if opts.mutation == Mutation.OMIT_RETURN_VAR:
            returned = returned[:-1]
        plan = _PlannedLoop(analysis, loop_kind(loop), method.name,
                            packing_for(returned, opts.optimize), returned)
        if plan.kind == "foreach":
            ty = static_type(loop.collection, facts[id(method)].scope_at(loop))
            if ty is not None and ty.kind == "list":
                plan.kind = "foreach_list"
                plan.iterator_name = alloc.fresh("it")
            else:
                plan.kind = "foreach_array"
                plan.index_name = alloc.fresh("index")
                if not isinstance(loop.collection, Var):
                    plan.coll_name = alloc.fresh("coll")
        plans[loop_id] = plan
    return plans


def _rewrite_seq(stmts: list, opts: TransformOptions, plans: dict, generated: list,
                 report: list) -> list:
    out = []
    for st in stmts:
        if is_loop(st):
            body = _rewrite_seq(st.body, opts, plans, generated, report)
            plan = plans[st.loop_id]
            repl, gen = _TEMPLATES[plan.kind](replace(st, body=body), plan, opts)
            generated.append(gen)
            report.append(LoopReport(
                loop_id=st.loop_id,
                kind=plan.kind,
                in_method=plan.in_method,
                loop_method_name=plan.analysis.loop_method_name,
                packing=plan.packing,
                loc=st.loc,
            ))
            out.extend(repl)
        elif st.__class__ is If:
            out.append(If(
                st.cond,
                _rewrite_seq(st.then, opts, plans, generated, report),
                (_rewrite_seq(st.orelse, opts, plans, generated, report)
                 if st.orelse else st.orelse),
                loc=st.loc,
            ))
        elif st.__class__ is Block:
            out.append(Block(_rewrite_seq(st.body, opts, plans, generated, report), loc=st.loc))
        else:
            out.append(st)
    return out


def analyze_program(program: Program, optimize: bool = True) -> list:
    """Per-loop analyses with the names the rewrite would use, in document
    order: (loop_id, kind, enclosing method, LoopAnalysis)."""
    opts = TransformOptions(optimize=optimize)
    plans = _plan(program, opts)
    return [(loop_id, plan.kind, plan.in_method, plan.analysis)
            for loop_id, plan in plans.items()]


def transform_program(program: Program, opts: Optional[TransformOptions] = None) -> TransformResult:
    """Rewrite every loop in the program; generated methods are appended after
    the originals in creation order (innermost loops first). Loop-free
    programs come back unchanged with an empty report."""
    opts = opts or TransformOptions()
    plans = _plan(program, opts)
    generated: list = []
    report: list = []
    methods = []
    for m in program.methods:
        body = _rewrite_seq(m.body, opts, plans, generated, report)
        methods.append(MethodDef(m.ret_type, m.name, m.params, body, loc=m.loc))
    out = Program(methods + generated, entry=program.entry)
    report.sort(key=lambda r: r.loop_id)
    return TransformResult(out, report)
