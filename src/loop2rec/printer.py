"""Deterministic pretty-printer. Output is valid source: parsing it back
yields a structurally identical program.

Parentheses are emitted only where precedence requires them, bodies of
control statements are always braced, and numbers use their shortest
round-trip decimal form, so equal trees print to identical bytes.
"""

from __future__ import annotations

import math

from .ast import (
    ArrayLit,
    Assign,
    AssignIndex,
    BINARY_PREC,
    Binary,
    Block,
    BoolLit,
    Builtin,
    Call,
    CallStmt,
    Cast,
    DoWhile,
    DoubleLit,
    Expr,
    For,
    Foreach,
    If,
    Index,
    IntLit,
    Length,
    ListLit,
    MethodDef,
    Print,
    Program,
    Return,
    Stmt,
    Unary,
    Var,
    VarDecl,
    While,
)

_UNARY_PREC = 7
_POSTFIX_PREC = 8

INDENT = "    "


def fmt_double(v: float) -> str:
    if math.isnan(v) or math.isinf(v):
        raise ValueError("non-finite double has no literal form")
    return repr(v)


def fmt_expr(e: Expr, parent_prec: int = 0) -> str:
    # the two commonest leaves bind tightest, so they are never parenthesized
    cls = type(e)
    if cls is Var:
        return e.name
    if cls is IntLit:
        return str(e.value)
    text, prec = _expr(e)
    if prec < parent_prec:
        return f"({text})"
    return text


def _expr(e: Expr):
    if isinstance(e, DoubleLit):
        return fmt_double(e.value), _POSTFIX_PREC
    if isinstance(e, BoolLit):
        return ("true" if e.value else "false"), _POSTFIX_PREC
    if isinstance(e, Binary):
        # A left operand whose operator binds at least as tightly prints
        # without parentheses, so a left-deep chain such as `1 + 1 + ...` is
        # walked in a loop and its length is not bounded by the recursion limit.
        top = p = BINARY_PREC[e.op]
        parts = []
        while True:
            # left-associative: right operand needs strictly higher precedence
            parts.append(f" {e.op} {fmt_expr(e.rhs, p + 1)}")
            e = e.lhs
            if not isinstance(e, Binary) or BINARY_PREC[e.op] < p:
                break
            p = BINARY_PREC[e.op]
        parts.append(fmt_expr(e, p))
        return "".join(reversed(parts)), top
    if isinstance(e, Unary):
        x = e.operand
        text = fmt_expr(x, _UNARY_PREC)
        if e.op == "-" and type(x) in (IntLit, DoubleLit) and text[0] != "-":
            text = f"({text})"  # `-1` would re-parse as one folded literal
        return f"{e.op}{text}", _UNARY_PREC
    if isinstance(e, Cast):
        return f"({e.type}) {fmt_expr(e.expr, _UNARY_PREC)}", _UNARY_PREC
    if isinstance(e, Index):
        return f"{fmt_expr(e.base, _POSTFIX_PREC)}[{fmt_expr(e.index)}]", _POSTFIX_PREC
    if isinstance(e, Length):
        return f"length({fmt_expr(e.collection)})", _POSTFIX_PREC
    if isinstance(e, Builtin):
        args = ", ".join(fmt_expr(a) for a in e.args)
        return f"{e.name}({args})", _POSTFIX_PREC
    if isinstance(e, Call):
        args = ", ".join(fmt_expr(a) for a in e.args)
        return f"{e.method}({args})", _POSTFIX_PREC
    if isinstance(e, ArrayLit):
        elems = ", ".join(fmt_expr(x) for x in e.elements)
        return f"new {e.elem_type}[] {{{' ' + elems + ' ' if elems else ''}}}", _POSTFIX_PREC
    if isinstance(e, ListLit):
        elems = ", ".join(fmt_expr(x) for x in e.elements)
        return f"new List<{e.elem_type}> {{{' ' + elems + ' ' if elems else ''}}}", _POSTFIX_PREC
    raise TypeError(f"unknown expression: {e!r}")


def _simple_stmt(st: Stmt) -> str:
    """One-line statement text, without trailing semicolon or indentation.
    Only the forms that may appear in a for-header are supported here."""
    if isinstance(st, VarDecl):
        return f"{st.type} {st.name} = {fmt_expr(st.value)}"
    if isinstance(st, Assign):
        return f"{st.name} = {fmt_expr(st.value)}"
    if isinstance(st, CallStmt):
        return fmt_expr(st.value)
    raise TypeError(f"not a header statement: {st!r}")


def _for_init(init: list) -> str:
    if not init:
        return ""
    if isinstance(init[0], VarDecl):
        ty = init[0].type
        decls = [f"{d.name} = {fmt_expr(d.value)}" for d in init]
        return f"{ty} " + ", ".join(decls)
    return ", ".join(_simple_stmt(s) for s in init)


def _stmt_lines(st: Stmt, depth: int, out: list) -> None:
    pad = INDENT * depth
    if isinstance(st, (VarDecl, Assign, CallStmt)):
        out.append(f"{pad}{_simple_stmt(st)};")
    elif isinstance(st, AssignIndex):
        out.append(f"{pad}{st.name}[{fmt_expr(st.index)}] = {fmt_expr(st.value)};")
    elif isinstance(st, If):
        out.append(f"{pad}if ({fmt_expr(st.cond)}) {{")
        _seq_lines(st.then, depth + 1, out)
        if st.orelse is not None:
            out.append(f"{pad}}} else {{")
            _seq_lines(st.orelse, depth + 1, out)
        out.append(f"{pad}}}")
    elif isinstance(st, While):
        out.append(f"{pad}while ({fmt_expr(st.cond)}) {{")
        _seq_lines(st.body, depth + 1, out)
        out.append(f"{pad}}}")
    elif isinstance(st, DoWhile):
        out.append(f"{pad}do {{")
        _seq_lines(st.body, depth + 1, out)
        out.append(f"{pad}}} while ({fmt_expr(st.cond)});")
    elif isinstance(st, For):
        upd = ", ".join(_simple_stmt(s) for s in st.update)
        out.append(f"{pad}for ({_for_init(st.init)}; {fmt_expr(st.cond)}; {upd}) {{")
        _seq_lines(st.body, depth + 1, out)
        out.append(f"{pad}}}")
    elif isinstance(st, Foreach):
        out.append(
            f"{pad}for ({st.elem_type} {st.elem_name} : {fmt_expr(st.collection)}) {{"
        )
        _seq_lines(st.body, depth + 1, out)
        out.append(f"{pad}}}")
    elif isinstance(st, Block):
        out.append(f"{pad}{{")
        _seq_lines(st.body, depth + 1, out)
        out.append(f"{pad}}}")
    elif isinstance(st, Return):
        out.append(f"{pad}return {fmt_expr(st.value)};")
    elif isinstance(st, Print):
        out.append(f"{pad}print({fmt_expr(st.value)});")
    else:
        raise TypeError(f"unknown statement: {st!r}")


def _seq_lines(stmts: list, depth: int, out: list) -> None:
    for st in stmts:
        _stmt_lines(st, depth, out)


def fmt_method(m: MethodDef) -> str:
    params = ", ".join(f"{p.type} {p.name}" for p in m.params)
    header = f"{m.ret_type} {m.name}({params})"
    if not m.body:
        return f"{header} {{ }}"
    lines = [f"{header} {{"]
    _seq_lines(m.body, 1, lines)
    lines.append("}")
    return "\n".join(lines)


def pretty_print(program: Program) -> str:
    return "\n\n".join(fmt_method(m) for m in program.methods) + "\n"
