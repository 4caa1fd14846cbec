"""Static checks run after parsing: declare-before-use, a shadowing ban, and
full type consistency of expressions, arguments and returns.

Shadowing an in-scope name is rejected outright. Together with fresh-name
generation this makes the loop rewriter's scope blocks provably clash-free
instead of merely unlikely to clash. Sibling blocks may reuse a name once the
earlier one is out of scope. So one dict holds every visible name, and each
open scope lists the names to delete from it when it closes.
"""

from __future__ import annotations

from typing import Optional

from .ast import (
    ArrayLit,
    Assign,
    AssignIndex,
    BOOL,
    Binary,
    Block,
    BoolLit,
    Builtin,
    Call,
    CallStmt,
    Cast,
    DOUBLE,
    DoWhile,
    DoubleLit,
    Expr,
    For,
    Foreach,
    INT,
    If,
    Index,
    IntLit,
    Length,
    ListLit,
    Loc,
    MethodDef,
    OBJECT,
    OBJECT_ARRAY,
    Print,
    Program,
    Return,
    Type,
    Unary,
    VOID,
    Var,
    VarDecl,
    While,
    is_numeric,
    record,
)


@record
class SemanticError:
    loc: Optional[Loc]
    message: str

    def __str__(self) -> str:
        where = str(self.loc) if self.loc else "?:?"
        return f"{where}: {self.message}"


def _arithmetic(lt: Type, rt: Type) -> Optional[Type]:
    return (DOUBLE if DOUBLE in (lt, rt) else INT) if is_numeric(lt) and is_numeric(rt) else None


def _comparison(lt: Type, rt: Type) -> Optional[Type]:
    return BOOL if is_numeric(lt) and is_numeric(rt) else None


def _equality(lt: Type, rt: Type) -> Optional[Type]:
    return BOOL if (is_numeric(lt) and is_numeric(rt)) or lt == rt == BOOL else None


def _logical(lt: Type, rt: Type) -> Optional[Type]:
    return BOOL if lt == rt == BOOL else None


# Binary operator -> (its rule, which gives the result type of two operand
# types or None where they do not fit; the rule's one message form).
_NUMERIC = "needs numeric operands, got"
_BINARY_RULES = {
    **dict.fromkeys(("+", "-", "*", "/"), (_arithmetic, _NUMERIC)),
    **dict.fromkeys(("<", "<=", ">", ">="), (_comparison, _NUMERIC)),
    **dict.fromkeys(("==", "!="), (_equality, "cannot compare")),
    **dict.fromkeys(("&&", "||"), (_logical, "needs bool operands, got")),
}

# Builtin -> (what its one argument must be, a test of the argument's type,
# the result type from it); `nan` takes no argument and is a double.
_BUILTINS = {
    "nan": None,
    "abs": ("a numeric argument", is_numeric, lambda t: t),
    "iterator": ("a list", lambda t: t.kind == "list", lambda t: Type("iterator", t.elem)),
    "hasNext": ("an iterator", lambda t: t.kind == "iterator", lambda t: BOOL),
    "next": ("an iterator", lambda t: t.kind == "iterator", lambda t: t.elem),
}


class _Checker:
    def __init__(self, program: Program):
        self.program = program
        self.methods = {m.name: m for m in program.methods}
        self.errors: list = []
        self.visible: dict = {}  # name -> Type of every name in scope
        self.undo: list = []  # per open scope, the names it declared

    def error(self, loc, message: str) -> None:
        self.errors.append(SemanticError(loc, message))

    # ------------------------------------------------------------ scopes

    def declare(self, loc, name: str, ty: Type, got: Optional[Type]) -> None:
        """Bring `name` into scope as a `ty` initialized from a `got` (None:
        untyped, or nothing to check)."""
        if got is not None and got != ty:
            self.error(loc, f"cannot initialize {ty} '{name}' from {got}")
        if name in self.visible:
            self.error(loc, f"'{name}' shadows a variable already in scope")
            return
        self.visible[name] = ty
        self.undo[-1].append(name)

    def target(self, loc, name: str) -> Optional[Type]:
        """The type of an assigned name, or None after reporting it undeclared."""
        ty = self.visible.get(name)
        if ty is None:
            self.error(loc, f"assignment to undeclared variable '{name}'")
        return ty

    def check_assign(self, loc, name: str, want: Optional[Type], got: Optional[Type]) -> None:
        if want is not None and got is not None and got != want:
            self.error(loc, f"cannot assign {got} to {want} '{name}'")

    def close_scope(self) -> None:
        for name in self.undo.pop():
            del self.visible[name]

    # ------------------------------------------------------------ driver

    def check(self) -> list:
        for m in self.program.methods:
            self.check_method(m)
        entry = self.methods.get(self.program.entry)
        if entry is not None and entry.params:
            self.error(entry.loc, f"entry method '{entry.name}' must take no parameters")
        return self.errors

    def check_method(self, m: MethodDef) -> None:
        self.current = m
        self.undo.append([])
        for p in m.params:
            self.declare(m.loc, p.name, p.type, None)
        self.check_seq(m.body)
        self.close_scope()
        if m.ret_type != VOID and not (m.body and isinstance(m.body[-1], Return)):
            self.error(m.loc, f"method '{m.name}' must end with a return of type {m.ret_type}")

    def check_return(self, value: Expr, loc) -> None:
        want = self.current.ret_type
        got = self.value_type(value, loc)
        call = type(value) is Call
        if want == VOID:
            if not (call and got == VOID):
                self.error(loc, f"method '{self.current.name}' is void and cannot return a value")
        elif got is not None and got != want and (call or got != VOID):
            self.error(loc, f"return type mismatch: expected {want}, got {got}")

    # ------------------------------------------------------------ statements

    def check_seq(self, stmts: list) -> None:
        self.undo.append([])
        for st in stmts:
            self.check_stmt(st)
        self.close_scope()

    def check_stmt(self, st) -> None:
        if isinstance(st, VarDecl):
            self.declare(st.loc, st.name, st.type, self.value_type(st.value, st.loc))
        elif isinstance(st, Assign):
            if type(st.value) is Call:  # the call's errors come before the target's
                got = self.value_type(st.value, st.loc)
                self.check_assign(st.loc, st.name, self.target(st.loc, st.name), got)
                if got == VOID:
                    self.error(st.loc, f"method '{st.value.method}' is void and returns no value")
            else:
                want = self.target(st.loc, st.name)
                self.check_assign(st.loc, st.name, want, self.expr_type(st.value, st.loc))
        elif isinstance(st, CallStmt):
            self.value_type(st.value, st.loc)
        elif isinstance(st, AssignIndex):
            base = self.target(st.loc, st.name)
            if base is not None and base.kind != "array":
                self.error(st.loc, f"'{st.name}' is {base}, not an indexable array")
            idx = self.expr_type(st.index, st.loc)
            if idx is not None and idx != INT:
                self.error(st.loc, f"array index must be int, got {idx}")
            got = self.expr_type(st.value, st.loc)
            if base is not None and base.kind == "array" and got is not None and got != base.elem:
                self.error(st.loc, f"cannot store {got} into {base}")
        elif isinstance(st, If):
            self.check_cond(st.cond, st.loc)
            self.check_seq(st.then)
            if st.orelse is not None:
                self.check_seq(st.orelse)
        elif isinstance(st, While):
            self.check_cond(st.cond, st.loc)
            self.check_seq(st.body)
        elif isinstance(st, DoWhile):
            self.check_seq(st.body)
            self.check_cond(st.cond, st.loc)
        elif isinstance(st, For):
            self.undo.append([])
            for s in st.init:
                self.check_stmt(s)
            self.check_cond(st.cond, st.loc)
            self.check_seq(st.body)
            for s in st.update:
                self.check_stmt(s)
            self.close_scope()
        elif isinstance(st, Foreach):
            ct = self.expr_type(st.collection, st.loc)
            if ct is not None:
                if ct.kind not in ("array", "list"):
                    self.error(st.loc, f"foreach needs an array or list, got {ct}")
                elif ct.elem != st.elem_type:
                    self.error(st.loc,
                               f"foreach element type {st.elem_type} does not match {ct}")
            self.undo.append([])
            self.declare(st.loc, st.elem_name, st.elem_type, None)
            self.check_seq(st.body)
            self.close_scope()
        elif isinstance(st, Block):
            self.check_seq(st.body)
        elif isinstance(st, Return):
            self.check_return(st.value, st.loc)
        elif isinstance(st, Print):
            got = self.expr_type(st.value, st.loc)
            if got == VOID:
                self.error(st.loc, "cannot print a void value")
        else:
            raise TypeError(f"unknown statement: {st!r}")

    def check_cond(self, cond: Expr, loc) -> None:
        got = self.expr_type(cond, loc)
        if got is not None and got != BOOL:
            self.error(loc, f"condition must be bool, got {got}")

    def value_type(self, value: Expr, loc) -> Optional[Type]:
        """The type of what a statement holds: a call's result type, or an
        expression's; None after reporting an error."""
        if type(value) is not Call:
            return self.expr_type(value, loc)
        name, args = value.method, value.args
        m = self.methods.get(name)
        if m is None:
            self.error(loc, f"call to undefined method '{name}'")
            return None
        if len(args) != len(m.params):
            self.error(loc, f"'{name}' expects {len(m.params)} arguments, got {len(args)}")
        for a, p in zip(args, m.params):
            got = self.expr_type(a, loc)
            if got is not None and got != p.type:
                self.error(loc, f"argument '{p.name}' of '{name}' expects {p.type}, got {got}")
        return m.ret_type

    # ------------------------------------------------------------ expressions

    def expr_type(self, e: Expr, loc) -> Optional[Type]:
        """Type of an expression, or None after reporting an error. The two
        commonest leaves are told apart by exact class, before the ladder."""
        cls = type(e)
        if cls is Var:
            ty = self.visible.get(e.name)
            if ty is None:
                self.error(loc, f"use of undeclared variable '{e.name}'")
            return ty
        if cls is IntLit:
            return INT
        if isinstance(e, DoubleLit):
            return DOUBLE
        if isinstance(e, BoolLit):
            return BOOL
        if isinstance(e, Binary):
            lt = self.expr_type(e.lhs, loc)
            rt = self.expr_type(e.rhs, loc)
            if lt is None or rt is None:
                return None
            rule = _BINARY_RULES.get(e.op)
            if rule is None:
                raise ValueError(f"unknown operator {e.op}")
            ty = rule[0](lt, rt)
            if ty is None:
                self.error(loc, f"operator '{e.op}' {rule[1]} {lt} and {rt}")
            return ty
        if isinstance(e, Unary):
            ot = self.expr_type(e.operand, loc)
            if ot is None:
                return None
            if e.op == "-":
                if not is_numeric(ot):
                    self.error(loc, f"unary '-' needs a numeric operand, got {ot}")
                    return None
                return ot
            if e.op != "!":
                raise ValueError(f"unknown operator {e.op}")
            if ot != BOOL:
                self.error(loc, f"unary '!' needs a bool operand, got {ot}")
                return None
            return BOOL
        if isinstance(e, ArrayLit):
            for el in e.elements:
                got = self.expr_type(el, loc)
                if e.elem_type == OBJECT:
                    if got == VOID:
                        self.error(loc, "Object[] cells cannot be void")
                elif got is not None and got != e.elem_type:
                    self.error(loc, f"array element must be {e.elem_type}, got {got}")
            return OBJECT_ARRAY if e.elem_type == OBJECT else Type("array", e.elem_type)
        if isinstance(e, ListLit):
            for el in e.elements:
                got = self.expr_type(el, loc)
                if got is not None and got != e.elem_type:
                    self.error(loc, f"list element must be {e.elem_type}, got {got}")
            return Type("list", e.elem_type)
        if isinstance(e, Index):
            bt = self.expr_type(e.base, loc)
            it = self.expr_type(e.index, loc)
            if it is not None and it != INT:
                self.error(loc, f"index must be int, got {it}")
            if bt is None:
                return None
            if bt.kind == "array":
                return bt.elem
            if bt == OBJECT_ARRAY:
                return OBJECT
            self.error(loc, f"cannot index into {bt}")
            return None
        if isinstance(e, Length):
            ct = self.expr_type(e.collection, loc)
            if ct is not None and ct.kind not in ("array", "list") and ct != OBJECT_ARRAY:
                self.error(loc, f"length() needs an array or list, got {ct}")
            return INT
        if isinstance(e, Builtin):
            return self.builtin_type(e, loc)
        if isinstance(e, Cast):
            st = self.expr_type(e.expr, loc)
            if e.type == VOID:
                self.error(loc, "cannot cast to void")
                return None
            if st is not None and st != OBJECT and st != e.type:
                self.error(loc, f"cannot cast {st} to {e.type}")
            return e.type
        if isinstance(e, Call):
            self.error(loc, "method calls may only appear as statements or return values")
            return None
        raise TypeError(f"unknown expression: {e!r}")

    def builtin_type(self, e: Builtin, loc) -> Optional[Type]:
        if e.name not in _BUILTINS:
            raise ValueError(f"unknown builtin {e.name}")
        rule = _BUILTINS[e.name]
        arity = 0 if rule is None else 1
        if len(e.args) != arity:
            self.error(loc, f"{e.name}() expects {arity} argument(s), got {len(e.args)}")
            return None if rule else DOUBLE
        if rule is None:
            return DOUBLE
        needs, fits, result = rule
        at = self.expr_type(e.args[0], loc)
        if at is None:
            return None
        if not fits(at):
            self.error(loc, f"{e.name}() needs {needs}, got {at}")
            return None
        return result(at)


def check_semantics(program: Program) -> list:
    """All semantic errors in the program; empty means well-formed."""
    return _Checker(program).check()


def static_type(expr: Expr, scope: dict) -> Optional[Type]:
    """The checker's type of `expr` with `scope` (name -> Type) in scope, or
    None where the checker reports it untyped."""
    checker = _Checker(Program([]))
    checker.visible = scope  # only read: expressions declare nothing
    return checker.expr_type(expr, None)
