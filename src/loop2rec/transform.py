"""Rewrites every loop into a call to a newly created tail-recursive method.

One template serves every loop kind, read as a `while` with parts:

  * `pre` runs once before the first call: a `for`'s init, or a foreach's
    hoisted collection (an array, unless it is a variable the body leaves
    alone) and its counter `index = 0` or iterator `it = iterator(coll)`;
  * `guard` is checked before the first call and before each tail call:
    the loop's condition, `index < length(coll)` or `hasNext(it)`; a `do`
    makes its first call unguarded;
  * one iteration is `head + body + tail`: a foreach's element (`elem =
    coll[index]` or `elem = next(it)`), the body, then a `for`'s updates or
    `index = index + 1`.

The loop is replaced by `pre` and the (guarded) first call, and a new method
is appended whose body runs one iteration and then either tail-calls itself
(`return <method>(...)`) or returns the variables the loop modified. Loops are
analyzed against the original program in document order, one
`analysis.LoopAnalysis` row each, then rewritten innermost-first so every
extraction sees an already loop-free body. The rows are the result's report,
and `analyze_program` returns them alone.

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
    program_loops,
    record,
    replace,
)


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
class TransformResult:
    program: Program
    report: list  # LoopAnalysis, by loop id


# ----------------------------------------------------------------- template


def _returned(row: LoopAnalysis, opts: TransformOptions) -> tuple:
    """What travels back to the caller: the live variables, or every
    parameter with optimization off; the OMIT_RETURN_VAR mutant drops the
    last."""
    returned = row.live_after if opts.optimize else row.params
    if opts.mutation == Mutation.OMIT_RETURN_VAR:
        returned = returned[:-1]
    return returned


def _invoke_seq(row: LoopAnalysis, returned: tuple, params: list, loc: Optional[Loc]) -> list:
    """Caller-side first call plus catch/update of the modified variables."""
    call = Call(row.loop_method_name, [Var(p.name) for p in params])
    if row.packing == Packing.NONE:
        return [CallStmt(call, loc=loc)]
    if row.packing == Packing.SINGLE:
        return [Assign(returned[0].name, call, loc=loc)]
    result = row.result_var_name
    out = [VarDecl(OBJECT_ARRAY, result, call, loc=loc)]
    for i, p in enumerate(returned):
        out.append(Assign(p.name, Cast(p.type, Index(Var(result), IntLit(i))), loc=loc))
    return out


def _gen_method(row: LoopAnalysis, returned: tuple, opts: TransformOptions, params: list,
                core: list, guard: Expr, loc: Optional[Loc]) -> MethodDef:
    """The recursive method: one iteration, a guarded tail call, and a return
    of the modified variables."""
    name = row.loop_method_name
    again = If(guard, [Return(Call(name, [Var(p.name) for p in params]), loc=loc)], loc=loc)
    if opts.mutation == Mutation.COND_BEFORE_BODY:
        body = [again] + core
    else:
        body = core + [again]
    if row.packing == Packing.NONE:
        ret_type = VOID
    elif row.packing == Packing.SINGLE:
        ret_type = returned[0].type
        body.append(Return(Var(returned[0].name), loc=loc))
    else:
        ret_type = OBJECT_ARRAY
        body.append(Return(ArrayLit(OBJECT, [Var(p.name) for p in returned]), loc=loc))
    return MethodDef(ret_type, name, params, body, loc=loc)


def _rewrite_loop(loop: Stmt, body: list, row: LoopAnalysis, opts: TransformOptions):
    """(replacement statements, generated method) for a loop; `body` is
    its body made loop-free. Every kind is a `while` with parts: `pre` runs once
    before the first call, `guard` is checked before the first call (except
    for `do`, whose body always runs once) and before each tail call, and
    one iteration is `head + body + tail`. A foreach's counter or iterator
    is the last parameter; its hoisted collection is the first."""
    kind, loc, counter = row.kind, loop.loc, row.counter
    params = list(row.params)
    pre, head, tail = [], [], []
    if kind == "foreach_array":
        coll = row.coll_name
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
    returned = _returned(row, opts)
    first = _invoke_seq(row, returned, params, loc)
    if kind != "do":
        first = [If(guard, first, loc=loc)]
    replacement = pre + first
    # a block scopes what the replacement's top level declares: a for's
    # init, a hoisted collection or counter, a do's result variable
    if any(isinstance(st, VarDecl) for st in replacement):
        replacement = [Block(replacement, loc=loc)]
    gen = _gen_method(row, returned, opts, params, head + body + tail, guard, loc)
    return replacement, gen


# ------------------------------------------------------------------- driver


def _plan(program: Program, opts: TransformOptions) -> list:
    """Analyze every loop against the untouched program in document order,
    so that an outer loop is named before its inner loops; the walk that
    finds the loops also numbers them, so a row's place in the list is its
    loop id. Each method is walked once, into the tape that the allocator
    holds and every analysis reads. The OMIT_RETURN_VAR mutant packs what it
    returns."""
    names = NameAllocator(program)
    rows = []
    for loop_id, (method, loop) in enumerate(program_loops(program)):
        loop.loop_id = loop_id
        row = analyze_loop(loop, method, names, opts.optimize)
        if opts.mutation == Mutation.OMIT_RETURN_VAR:
            row = replace(row, packing=packing_for(_returned(row, opts), opts.optimize))
        rows.append(row)
    return rows


def _rewrite_seq(stmts: list, opts: TransformOptions, rows: list, generated: list) -> list:
    out = []
    for st in stmts:
        if is_loop(st):
            body = _rewrite_seq(st.body, opts, rows, generated)
            repl, gen = _rewrite_loop(st, body, rows[st.loop_id], opts)
            generated.append(gen)
            out.extend(repl)
        elif type(st) is If:
            out.append(If(
                st.cond,
                _rewrite_seq(st.then, opts, rows, generated),
                _rewrite_seq(st.orelse, opts, rows, generated) if st.orelse else st.orelse,
                loc=st.loc,
            ))
        elif type(st) is Block:
            out.append(Block(_rewrite_seq(st.body, opts, rows, generated), loc=st.loc))
        else:
            out.append(st)
    return out


def analyze_program(program: Program, optimize: bool = True) -> list:
    """The LoopAnalysis of every loop in document order, as `transform_program`
    reports it with the same `optimize`."""
    return _plan(program, TransformOptions(optimize=optimize))


def transform_program(program: Program, opts: Optional[TransformOptions] = None) -> TransformResult:
    """Rewrite every loop in the program; generated methods are appended after
    the originals in creation order (innermost loops first), and the report
    lists the loops by id. Loop-free programs come back unchanged with an
    empty report."""
    opts = opts or TransformOptions()
    rows = _plan(program, opts)
    generated: list = []
    methods = []
    for m in program.methods:
        body = _rewrite_seq(m.body, opts, rows, generated)
        methods.append(MethodDef(m.ret_type, m.name, m.params, body, loc=m.loc))
    out = Program(methods + generated, entry=program.entry)
    return TransformResult(out, rows)
