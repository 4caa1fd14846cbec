"""AST for MiniJava-L, a small imperative language with while/do/for/foreach
loops, typed variables, arrays and lists.

Nodes are slotted records (see `record`), with no `__dict__`, and no code
writes to one after construction; the whole toolchain (parser, checker,
rewriter, printer, interpreter) shares them. Source locations are `where`
fields, so `==` (and `structural_eq`) sees only program shape. A loop's
number is its place in `program_loops`, which is not stored on the tree.
`Type` and `Loc` are immutable named tuples, compared and hashed by value.
"""

from __future__ import annotations

from typing import NamedTuple, Optional


def record(cls=None, *, frozen=False, where=()):
    """Class decorator: `cls` rebuilt with `__slots__` for the fields it
    annotates (a record's base has none) and with the `__init__`, `__eq__`
    and `__repr__` it does not define. `__init__` takes the fields in order
    with their class defaults (a list or dict is copied per instance); the
    `where` fields (where a node is, not what it is) come last, keyword-only,
    and `==` and `repr` ignore them. Only a `frozen` record is hashable (by
    value); it refuses assignment. `_fields` names the fields. `__init__` and
    `__eq__` are compiled, to cost what the same code written out would."""
    if cls is None:
        return lambda cls: record(cls, frozen=frozen, where=where)
    fields = tuple(cls.__dict__.get("__annotations__", ()))
    ns = {k: v for k, v in cls.__dict__.items() if k not in ("__dict__", "__weakref__")}
    g = {f"_d_{n}": ns.pop(n) for n in fields if n in ns}
    shown = [n for n in fields if n not in where]
    params = [f"{n}=_d_{n}" if f"_d_{n}" in g else n for n in shown]
    params += ["*", *(f"{n}=_d_{n}" for n in where)] if where else []
    store = "object.__setattr__(self, '{0}', {1})" if frozen else "self.{0} = {1}"
    stores = [store.format(n, f"{n}.copy() if {n} is _d_{n} else {n}"
                           if isinstance(g.get(f"_d_{n}"), (list, dict)) else n) for n in fields]
    key = "".join(f"self.{n}, " for n in shown)
    exec(f"def __init__(self, {', '.join(params)}):\n pass\n " + "\n ".join(stores)
         + "\ndef __eq__(self, other):\n if type(other) is type(self):\n"
         + f"  return ({key}) == ({key.replace('self.', 'other.')})\n return NotImplemented", g)
    own = {"__init__": g["__init__"], "__eq__": g["__eq__"], "__repr__": lambda self: (
        f"{type(self).__qualname__}({', '.join(f'{n}={getattr(self, n)!r}' for n in shown)})")}
    if frozen:
        own.update(__setattr__=_refuse, __delattr__=_refuse,
                   __hash__=lambda self: hash(tuple(getattr(self, n) for n in shown)))
    ns = {**own, **ns, "__slots__": fields, "__qualname__": cls.__qualname__, "_fields": fields}
    return type(cls)(cls.__name__, cls.__bases__, ns)


def _refuse(self, name, *value):
    raise AttributeError(f"cannot {'assign to' if value else 'delete'} field {name!r}")


def replace(rec, **changes):
    """A copy of the record `rec`, with `changes` as new field values."""
    return type(rec)(**{n: getattr(rec, n) for n in rec._fields} | changes)


class Loc(NamedTuple):
    line: int
    col: int

    def __str__(self) -> str:
        return f"{self.line}:{self.col}"


# --------------------------------------------------------------------- types


class Type(NamedTuple):
    """Static type; `elem` is set for array/list/iterator types only."""

    kind: str
    elem: Optional["Type"] = None

    def __str__(self) -> str:
        if self.kind == "array":
            return f"{self.elem}[]"
        if self.kind == "list":
            return f"List<{self.elem}>"
        if self.kind == "iterator":
            return f"Iterator<{self.elem}>"
        return self.kind


INT = Type("int")
DOUBLE = Type("double")
BOOL = Type("bool")
VOID = Type("void")
OBJECT = Type("Object")
OBJECT_ARRAY = Type("Object[]")

INT_MIN = -(2**31)  # the range of a 32-bit int
INT_MAX = 2**31 - 1


def array_of(elem: Type) -> Type:
    return Type("array", elem)


def list_of(elem: Type) -> Type:
    return Type("list", elem)


def iterator_of(elem: Type) -> Type:
    return Type("iterator", elem)


def is_numeric(t: Type) -> bool:
    return t in (INT, DOUBLE)


# --------------------------------------------------------------- expressions


@record
class Expr:
    pass


@record
class IntLit(Expr):
    value: int


@record
class DoubleLit(Expr):
    value: float


@record
class BoolLit(Expr):
    value: bool


@record
class Var(Expr):
    name: str


@record
class Binary(Expr):
    op: str  # + - * / == != < <= > >= && ||
    lhs: Expr
    rhs: Expr

    def __eq__(self, other):
        # the left spine is compared in a loop, so a left-deep chain such as
        # `1 + 1 + ...` is not bounded by the recursion limit
        if type(other) is not Binary:
            return NotImplemented
        a, b = self, other
        while True:
            if a.op != b.op or a.rhs != b.rhs:
                return False
            a, b = a.lhs, b.lhs
            if type(a) is not Binary or type(b) is not Binary:
                return a == b


# binary operator -> precedence, loosest first; every level is left-associative
BINARY_PREC = {
    "||": 1,
    "&&": 2,
    "==": 3, "!=": 3,
    "<": 4, "<=": 4, ">": 4, ">=": 4,
    "+": 5, "-": 5,
    "*": 6, "/": 6,
}


@record
class Unary(Expr):
    op: str  # - !
    operand: Expr


@record
class ArrayLit(Expr):
    """`new T[] { ... }`; elem_type OBJECT means an Object[] literal."""

    elem_type: Type
    elements: list


@record
class ListLit(Expr):
    elem_type: Type
    elements: list


@record
class Index(Expr):
    base: Expr
    index: Expr


@record
class Length(Expr):
    collection: Expr


@record
class Builtin(Expr):
    name: str  # abs nan iterator hasNext next
    args: list


@record
class Cast(Expr):
    type: Type
    expr: Expr


@record
class Call(Expr):
    """`method(args)`. A call is the whole value of a declaration, an
    assignment or a `return`, or a statement of its own (CallStmt); it never
    stands inside another expression."""

    method: str
    args: list


BUILTIN_NAMES = frozenset({"abs", "nan", "iterator", "hasNext", "next"})


# ---------------------------------------------------------------- statements


@record
class Stmt:
    pass


@record(where=("loc",))
class VarDecl(Stmt):
    type: Type
    name: str
    value: Expr  # an expression or a Call
    loc: Optional[Loc] = None


@record(where=("loc",))
class Assign(Stmt):
    name: str
    value: Expr  # an expression or a Call
    loc: Optional[Loc] = None


@record(where=("loc",))
class AssignIndex(Stmt):
    name: str
    index: Expr
    value: Expr
    loc: Optional[Loc] = None


@record(where=("loc",))
class CallStmt(Stmt):
    """A bare `method(args);`, whose result (if any) is dropped."""

    value: Call
    loc: Optional[Loc] = None


@record(where=("loc",))
class If(Stmt):
    cond: Expr
    then: list
    orelse: Optional[list] = None
    loc: Optional[Loc] = None


@record(where=("loc",))
class While(Stmt):
    cond: Expr
    body: list
    loc: Optional[Loc] = None


@record(where=("loc",))
class DoWhile(Stmt):
    body: list
    cond: Expr
    loc: Optional[Loc] = None


@record(where=("loc",))
class For(Stmt):
    init: list  # VarDecl or Assign statements
    cond: Expr
    update: list  # Assign or CallStmt statements
    body: list
    loc: Optional[Loc] = None


@record(where=("loc",))
class Foreach(Stmt):
    elem_type: Type
    elem_name: str
    collection: Expr
    body: list
    loc: Optional[Loc] = None


@record(where=("loc",))
class Block(Stmt):
    body: list
    loc: Optional[Loc] = None


@record(where=("loc",))
class Return(Stmt):
    value: Expr  # an expression or a Call
    loc: Optional[Loc] = None


@record(where=("loc",))
class Print(Stmt):
    value: Expr
    loc: Optional[Loc] = None


LOOP_KINDS = frozenset((While, DoWhile, For, Foreach))
COMPOUND_KINDS = LOOP_KINDS | {If, Block}  # the statements that hold statements


def is_loop(st: Stmt) -> bool:
    return type(st) in LOOP_KINDS


def loop_kind(st: Stmt) -> str:
    if isinstance(st, While):
        return "while"
    if isinstance(st, DoWhile):
        return "do"
    if isinstance(st, For):
        return "for"
    if isinstance(st, Foreach):
        return "foreach"
    raise TypeError(f"not a loop: {st!r}")


# ------------------------------------------------------------------- program


@record
class Param:
    name: str
    type: Type


@record(where=("loc",))
class MethodDef:
    ret_type: Type
    name: str
    params: list
    body: list  # a final `return e;` is its last statement, a `Return`
    loc: Optional[Loc] = None


@record
class Program:
    methods: list
    entry: str = "main"

    def method(self, name: str) -> Optional[MethodDef]:
        for m in self.methods:
            if m.name == name:
                return m
        return None


# ------------------------------------------------------------------ traversal


def stmt_blocks(st: Stmt) -> list:
    """Nested statement sequences directly contained in a statement."""
    if isinstance(st, If):
        return [st.then] + ([st.orelse] if st.orelse else [])
    if isinstance(st, (While, DoWhile, Foreach, Block)):
        return [st.body]
    if isinstance(st, For):
        return [st.init, st.update, st.body]
    return []


def iter_stmts(stmts: list) -> list:
    """All statements, pre-order (a statement before its nested blocks). The
    walk keeps its own stack, so the recursion limit does not bound nesting."""
    out = []
    stack = stmts[::-1]  # the statements still to visit, the next one last
    while stack:
        st = stack.pop()
        out.append(st)
        if type(st) in COMPOUND_KINDS:
            for block in reversed(stmt_blocks(st)):
                stack += reversed(block)
    return out


def stmt_exprs(st: Stmt) -> list:
    """Expressions held directly by a statement (not those of nested blocks)."""
    cls = type(st)
    if cls in _HAS_VALUE:
        return [st.value]
    if cls in _HAS_COND:
        return [st.cond]
    if cls is AssignIndex:
        return [st.index, st.value]
    if cls is Foreach:
        return [st.collection]
    return []


_HAS_VALUE = (VarDecl, Assign, CallStmt, Return, Print)
_HAS_COND = (If, While, DoWhile, For)


def walk_expr(e: Expr) -> list:
    """An expression and all its subexpressions, pre-order. The package walks
    names with `emit_names`; the tests keep this as its reference."""
    out = []
    _walk_expr(e, out)
    return out


def _walk_expr(e: Expr, out: list) -> None:
    # a left operand chain is walked in a loop, so `1 + 1 + ...` is not
    # bounded by the recursion limit
    rights = []
    while type(e) is Binary:
        out.append(e)
        rights.append(e.rhs)
        e = e.lhs
    out.append(e)
    cls = type(e)
    if cls is Unary:
        _walk_expr(e.operand, out)
    elif cls is Index:
        _walk_expr(e.base, out)
        _walk_expr(e.index, out)
    elif cls is Builtin or cls is Call:
        for a in e.args:
            _walk_expr(a, out)
    elif cls is ArrayLit or cls is ListLit:
        for el in e.elements:
            _walk_expr(el, out)
    elif cls is Length:
        _walk_expr(e.collection, out)
    elif cls is Cast:
        _walk_expr(e.expr, out)
    for r in reversed(rights):
        _walk_expr(r, out)


# The kinds of name event on an event tape (see `analysis`): a variable read,
# an assignment, a declaration, and the method a call names.
READ, WRITE, DECLARE, CALL = range(4)


def emit_names(e: Expr, out: list, kinds: list) -> None:
    """Append the variable names e reads and the method each Call names,
    pre-order, and READ or CALL to `kinds` for each name. A left operand
    chain is walked in a loop, so `a + a + ...` is not bounded by the
    recursion limit; its leaf operands cost no call."""
    parts = []  # the right operands, outermost first, then the leftmost
    while type(e) is Binary:
        parts.append(e.rhs)
        e = e.lhs
    parts.append(e)
    for e in reversed(parts):
        cls = type(e)
        if cls is Var:
            out.append(e.name)
            kinds.append(READ)
        elif cls is Binary:
            emit_names(e, out, kinds)
        elif cls is Unary:
            emit_names(e.operand, out, kinds)
        elif cls is Index:
            emit_names(e.base, out, kinds)
            emit_names(e.index, out, kinds)
        elif cls is Builtin or cls is Call:
            if cls is Call:
                out.append(e.method)
                kinds.append(CALL)
            for a in e.args:
                emit_names(a, out, kinds)
        elif cls is ArrayLit or cls is ListLit:
            for el in e.elements:
                emit_names(el, out, kinds)
        elif cls is Length:
            emit_names(e.collection, out, kinds)
        elif cls is Cast:
            emit_names(e.expr, out, kinds)


def collect_identifiers(program: Program) -> set:
    """Every identifier occurring anywhere in the program: method names,
    parameters, declarations, assignment targets, called methods and variable
    references. The package takes them from its event tapes
    (`analysis.NameAllocator`); the tests keep this as their reference."""
    ids = []
    kinds = []
    for m in program.methods:
        ids.append(m.name)
        ids += [p.name for p in m.params]
        for st in iter_stmts(m.body):
            cls = type(st)
            if cls is VarDecl or cls is Assign or cls is AssignIndex:
                ids.append(st.name)
            elif cls is Foreach:
                ids.append(st.elem_name)
            for e in stmt_exprs(st):
                emit_names(e, ids, kinds)
    return set(ids)


def program_loops(program: Program) -> list:
    """(method, loop) pairs in document order, outer loops before the loops
    they hold. A loop's place in this list is its number: the key of its
    iteration count in a run and the number of its analysis row."""
    return [(m, st) for m in program.methods for st in iter_stmts(m.body)
            if type(st) in LOOP_KINDS]


def structural_eq(a: Program, b: Program) -> bool:
    """Exact structural identity: same methods, names, types and expression
    trees. Source locations are ignored; names are compared literally (no
    alpha-equivalence)."""
    return a == b
