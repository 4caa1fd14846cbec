"""Big-step interpreter over a stack of frames.

A State is a stack of Frames; each frame maps variable names to values and
owns a single-use return slot. Methods execute as: push a frame binding
parameters to argument values evaluated in the caller's frame, run the body,
copy the callee's return slot into the caller's target variable, pop the
frame. Executing `return` fills the slot and ends the frame's statement
sequence, so the slot is written at most once.

Every loop kind runs natively, by the step rules of docs/semantics.md: a
`for` runs as its `while`, while `do` and `foreach` have handlers of their
own. The rewriter under test is never involved, so runs of original programs
are an independent oracle.

A tail call, `return m(...)`, replaces its caller's frame (Clinger, "Proper
Tail Recursion and Space Efficiency", PLDI 1998), and its chain runs in a
loop: neither the state nor the host stack grows along it, so a tail
recursion of any length costs only step budget.

Numbers behave like Java's: ints are 32-bit two's complement with truncating
division (division by integer zero is an error), doubles are IEEE binary64
(division by zero gives infinities/NaN). Inside a run an int, double or bool
is a plain Python int, float or bool, told apart by exact class (`bool` is a
subclass of `int`); the API boxes them into IntV, DoubleV and BoolV. A class
test reads `type(v)`, as in `type(v) is int` or `_EVAL[type(e)]`, never the
class attribute: CPython's specializing interpreter caches the call whatever
the class, while it caches the attribute read for one class only, and misses
whenever the class changes (tests/test_hygiene.py keeps the attribute out of
src/).

Every value has one language type, `type_of(v)`: a scalar's by its exact
class, a collection's (a CollV: an array, a list or an object array) as it
was built, and an iterator's from its list. A cast checks that type: it
passes when the target is `Object` or equals it. Indexing, `length`,
traversal and the iterator builtins read the collection's type kind.
"""

from __future__ import annotations

import math
import operator
import struct
import sys
from typing import Callable, Optional

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
    INT_MAX,
    INT_MIN,
    If,
    Index,
    IntLit,
    Length,
    ListLit,
    Loc,
    OBJECT,
    OBJECT_ARRAY,
    Print,
    Program,
    Return,
    Type,
    Unary,
    Var,
    VarDecl,
    While,
    array_of,
    iterator_of,
    list_of,
    loop_kind,
    program_loops,
    record,
)

sys.setrecursionlimit(max(sys.getrecursionlimit(), 30_000))

DEFAULT_BUDGET = 1_000_000
MAX_CALL_DEPTH = 2_000  # frames on the state, i.e. the non-tail nesting


# ------------------------------------------------------------------- errors


class InterpError(Exception):
    kind = "Error"
    trace = None  # the ExecTrace up to the error; None if no run began

    def __init__(self, message: str, loc: Optional[Loc] = None):
        self.message = message
        self.loc = loc
        super().__init__(message)

    def __str__(self) -> str:
        where = f"{self.loc}: " if self.loc else ""
        return f"{where}{self.kind}: {self.message}"


class EmptyStateError(InterpError):
    kind = "EmptyState"


class SingleFrameError(InterpError):
    kind = "SingleFrame"


class MissingReturnError(InterpError):
    kind = "MissingReturn"


class UnboundVariableError(InterpError):
    kind = "UnboundVariable"


class TypeMismatchError(InterpError):
    kind = "TypeMismatch"


class DivisionByZeroError(InterpError):
    kind = "DivisionByZero"


class IndexOutOfBoundsError(InterpError):
    kind = "IndexOutOfBounds"


class ArityMismatchError(InterpError):
    kind = "ArityMismatch"


class StepBudgetExceeded(InterpError):
    kind = "StepBudgetExceeded"


class CallDepthExceeded(InterpError):
    kind = "CallDepthExceeded"


class NoEntryMethodError(InterpError):
    kind = "NoEntryMethod"


class UndefinedMethodError(InterpError):
    kind = "UndefinedMethod"


# ------------------------------------------------------------------- values


@record(frozen=True)
class IntV:
    value: int  # always within 32-bit two's complement


@record(frozen=True)
class DoubleV:
    value: float


@record(frozen=True)
class BoolV:
    value: bool


_BOXES = {int: IntV, float: DoubleV, bool: BoolV}
_BOXED = (IntV, DoubleV, BoolV)


def _box(v):
    """The API form of a value: a raw int, float or bool boxed, anything else
    (a collection, an iterator, None) as it is."""
    box = _BOXES.get(type(v))
    return v if box is None else box(v)


def _unbox(v):
    return v.value if type(v) in _BOXED else v


class CollV:
    """An array, list or object array: its language type (`array_of(T)`,
    `list_of(T)` or OBJECT_ARRAY) and its cells, which hold raw values and
    which `repr` shows boxed. A collection has identity: bindings share the
    cells."""

    __slots__ = ("type", "cells")

    def __init__(self, type: Type, cells: list):
        self.type = type
        self.cells = cells

    def __repr__(self):
        return f"CollV({self.type}, {list(map(_box, self.cells))!r})"


class IterV:
    """Cursor over a list. `pos` advances in place, like a Java iterator
    object shared by reference across frames."""

    __slots__ = ("target", "pos")

    def __init__(self, target: CollV, pos: int = 0):
        self.target = target
        self.pos = pos

    def __repr__(self):
        return f"IterV(pos={self.pos})"


_SCALAR_TYPES = {int: INT, float: DOUBLE, bool: BOOL}


def type_of(v) -> Type:
    """The language type of a raw value."""
    c = type(v)
    if c is CollV:
        return v.type
    if c is IterV:
        return iterator_of(v.target.type.elem)
    ty = _SCALAR_TYPES.get(c)
    if ty is None:
        raise TypeError(f"not a value: {v!r}")
    return ty


def wrap32(x: int) -> int:
    return (x + 2**31) % 2**32 - 2**31


def render_value(v) -> str:
    """A raw or boxed value as `print` shows it."""
    c = type(v)
    if c is int:
        return str(v)
    if c is float:
        if math.isnan(v):
            return "NaN"
        if math.isinf(v):
            return "Infinity" if v > 0 else "-Infinity"
        return repr(v)
    if c is bool:
        return "true" if v else "false"
    if c is CollV:
        return "[" + ", ".join(render_value(x) for x in v.cells) + "]"
    if c is IterV:
        return f"iterator({v.pos})"
    if c in _BOXED:
        return render_value(v.value)
    raise TypeError(f"not a value: {v!r}")


def values_equal(a, b) -> bool:
    """Strict observable equality of raw or boxed values: an int, a double
    and a bool never equal each other, and doubles compare bit for bit (NaN
    equals NaN, 0.0 differs from -0.0)."""
    c = type(a)
    if c is type(b):
        if c is float:
            return struct.pack("<d", a) == struct.pack("<d", b)
        if c is int or c is bool:
            return a == b
        if c is CollV:
            return (a.type == b.type and len(a.cells) == len(b.cells)
                    and all(values_equal(x, y) for x, y in zip(a.cells, b.cells)))
        if c is IterV:
            return a.pos == b.pos and values_equal(a.target, b.target)
    if c in _BOXED or type(b) in _BOXED:
        return values_equal(_unbox(a), _unbox(b))
    if c is not type(b):
        return False
    raise TypeError(f"not a value: {a!r}")


# ------------------------------------------------------------ state & frames


class Frame:
    __slots__ = ("bindings", "ret_slot")

    def __init__(self, bindings: Optional[dict] = None):
        self.bindings = bindings if bindings is not None else {}
        self.ret_slot = None  # written at most once, by return

    def snapshot(self):
        """The bindings and return slot, scalars boxed."""
        return {k: _box(v) for k, v in self.bindings.items()}, _box(self.ret_slot)

    def __repr__(self):
        return f"Frame({self.bindings!r}, ret={self.ret_slot!r})"


class State:
    """The frame stack. State functions mutate in place and return the state;
    an attached recorder sees a snapshot after every state operation."""

    __slots__ = ("frames", "recorder")

    def __init__(self, frames: Optional[list] = None, recorder=None):
        self.frames = frames if frames is not None else []
        self.recorder = recorder

    def top(self) -> Frame:
        return self.frames[-1]

    def record(self, op: str) -> None:
        if self.recorder is not None:
            self.recorder.record(op, self)


class StateRecorder:
    """Collects (operation, frame snapshots) pairs for state-level assertions.
    Snapshots copy the binding maps and box scalars; collections are shared."""

    def __init__(self):
        self.events: list = []

    def record(self, op: str, state: State) -> None:
        self.events.append((op, [f.snapshot() for f in state.frames]))

    def ops(self) -> list:
        return [op for op, _ in self.events]


def upd_v(s: State, var: str, value) -> State:
    """Rebind a variable in the current (last) frame."""
    if not s.frames:
        raise EmptyStateError(f"cannot update '{var}' in an empty state")
    s.frames[-1].bindings[var] = value
    s.record("upd_v")
    return s


def upd_r(s: State, value) -> State:
    """Record the current frame's returned value in its return slot."""
    if not s.frames:
        raise EmptyStateError("cannot record a return in an empty state")
    frame = s.frames[-1]
    if frame.ret_slot is not None:
        raise InterpError("return slot already set")
    frame.ret_slot = value
    s.record("upd_r")
    return s


def upd_vr(s: State, var: str) -> State:
    """Copy the last frame's returned value into a variable of the
    penultimate frame (creating the binding if absent)."""
    if not s.frames:
        raise EmptyStateError(f"cannot update '{var}': empty state")
    if len(s.frames) == 1:
        raise SingleFrameError(f"cannot update '{var}': no caller frame")
    value = s.frames[-1].ret_slot
    if value is None:
        raise MissingReturnError(f"callee returned no value for '{var}'")
    s.frames[-2].bindings[var] = value
    s.record("upd_vr")
    return s


def add_frame(s: State, params: list, values: list) -> State:
    """Push a frame binding each parameter to an already-evaluated argument
    value (arguments are evaluated in the caller's frame beforehand)."""
    if len(params) != len(values):
        raise ArityMismatchError(f"expected {len(params)} arguments, got {len(values)}")
    s.frames.append(Frame(dict(zip(params, values))))
    s.record("add_frame")
    return s


def rem_frame(s: State) -> State:
    """Drop the last frame."""
    if not s.frames:
        raise EmptyStateError("cannot remove a frame from an empty state")
    s.frames.pop()
    s.record("rem_frame")
    return s


# --------------------------------------------------------------- evaluation
#
# Expressions and statements dispatch on the node's exact class through the
# tables _EVAL and _EXEC, one handler per AST class. An expression handler
# takes the node and the current frame's bindings and calls its operands'
# handlers itself, so the host stack grows by one frame per nesting level.
# Handlers raise errors without a location; the statement sequence that runs
# them (`_Run.exec_seq`) gives each the location of its statement.


def _num(v, what: str):
    if type(v) in _NUMBERS:
        return v
    raise TypeMismatchError(f"{what} needs a number, got {render_value(v)}")


def _bool(v, what: str) -> bool:
    if type(v) is bool:
        return v
    raise TypeMismatchError(f"{what} needs a bool, got {render_value(v)}")


def _ddiv(a: float, b: float) -> float:
    if b == 0.0:
        if a == 0.0 or math.isnan(a):
            return math.nan
        sign = math.copysign(1.0, a) * math.copysign(1.0, b)
        return math.copysign(math.inf, sign)
    return a / b


class _NoFrame(dict):
    """Bindings of an empty state: every variable read fails."""

    def __missing__(self, name):
        raise EmptyStateError(f"variable '{name}' read in an empty state")


_NO_FRAME = _NoFrame()


def eval_expr(e: Expr, s: State):
    """Evaluate an expression against the current frame, whose scalars may be
    raw or boxed, and return the value boxed. Standard semantics: IEEE
    doubles (NaN propagates), wrapping 32-bit ints, short-circuit boolean
    operators. `next(it)` advances the shared iterator in place."""
    b = {k: _unbox(v) for k, v in s.frames[-1].bindings.items()} if s.frames else _NO_FRAME
    return _box(_EVAL[type(e)](e, b))


def _lit(e, b: dict):
    """IntLit, DoubleLit and BoolLit."""
    return e.value


def _var(e: Var, b: dict):
    try:
        return b[e.name]
    except KeyError:
        raise UnboundVariableError(f"variable '{e.name}' is not bound") from None


_ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul}
_COMPARE = {"<": operator.lt, "<=": operator.le, ">": operator.gt,
            ">=": operator.ge, "==": operator.eq, "!=": operator.ne}
_NUMBERS = (int, float)
_LITERALS = frozenset((IntLit, DoubleLit, BoolLit))

# A Var or literal operand is read inline where it is most common (binary
# operands, assigned values, call arguments, array cells): a leaf read gives
# None only for a name not bound, which falls back to its _EVAL handler and
# raises there, as does every other class.


def _binary(e: Binary, b: dict):
    op = e.op
    x = e.lhs
    c = type(x)
    lv = b.get(x.name) if c is Var else x.value if c in _LITERALS else None
    if lv is None:
        lv = _EVAL[c](x, b)
    if op == "&&" or op == "||":
        if type(lv) is not bool:
            _bool(lv, f"'{op}'")  # raises
        if lv is (op == "||"):
            return lv
        x = e.rhs
        rv = _EVAL[type(x)](x, b)
        if type(rv) is not bool:
            _bool(rv, f"'{op}'")  # raises
        return rv
    x = e.rhs
    c = type(x)
    rv = b.get(x.name) if c is Var else x.value if c in _LITERALS else None
    if rv is None:
        rv = _EVAL[c](x, b)
    lc = type(lv)
    rc = type(rv)
    f = _ARITH.get(op)
    if f is not None:
        if lc is int and rc is int:
            n = f(lv, rv)
            if not INT_MIN <= n <= INT_MAX:
                n = (n + 2**31) % 2**32 - 2**31  # wrap32
            return n
        if lc in _NUMBERS and rc in _NUMBERS:  # a double, and an int promoted exactly
            return f(lv, rv)
    else:
        f = _COMPARE.get(op)
        if f is not None and lc in _NUMBERS and rc in _NUMBERS:
            return f(lv, rv)
    return _binary_checked(op, lv, rv)


def _binary_checked(op: str, lv, rv):
    """The operators and operand types the fast paths of _binary leave: `/`,
    `==`/`!=` on bools, and type errors."""
    what = f"'{op}'"
    if op == "/":
        a = _num(lv, what)
        d = _num(rv, what)
        if type(a) is not int or type(d) is not int:
            return _ddiv(float(a), float(d))
        if d == 0:
            raise DivisionByZeroError("integer division by zero")
        q = abs(a) // abs(d)
        return wrap32(-q if (a < 0) != (d < 0) else q)
    if (op == "==" or op == "!=") and type(lv) is bool and type(rv) is bool:
        return (lv is rv) is (op == "==")
    if op in _ARITH or op in _COMPARE:
        _num(lv, what)
        _num(rv, what)  # one of the two is no number: raises
    raise TypeMismatchError(f"unknown operator '{op}'")


def _unary(e: Unary, b: dict):
    x = e.operand
    v = _EVAL[type(x)](x, b)
    if e.op == "-":
        if type(_num(v, "unary '-'")) is float:
            return -v
        return wrap32(-v)
    if e.op != "!":
        raise TypeMismatchError(f"unknown operator '{e.op}'")
    return not _bool(v, "unary '!'")


def _values(xs: list, b: dict) -> list:
    """The values of call arguments or collection cells, in order."""
    out = []
    for x in xs:
        c = type(x)
        v = b.get(x.name) if c is Var else x.value if c in _LITERALS else None
        out.append(_EVAL[c](x, b) if v is None else v)
    return out


def _array_lit(e: ArrayLit, b: dict):
    ty = OBJECT_ARRAY if e.elem_type == OBJECT else array_of(e.elem_type)
    return CollV(ty, _values(e.elements, b))


def _list_lit(e: ListLit, b: dict):
    return CollV(list_of(e.elem_type), _values(e.elements, b))


def _index(e: Index, b: dict):
    x = e.base
    base = _EVAL[type(x)](x, b)
    x = e.index
    idx = _EVAL[type(x)](x, b)
    if type(idx) is not int:
        raise TypeMismatchError("index must be an int")
    if type(base) is not CollV or base.type.kind == "list":
        raise TypeMismatchError(f"cannot index into {render_value(base)}")
    if not 0 <= idx < len(base.cells):
        raise IndexOutOfBoundsError(
            f"index {idx} out of bounds for length {len(base.cells)}")
    return base.cells[idx]


def _length(e: Length, b: dict):
    x = e.collection
    v = _EVAL[type(x)](x, b)
    if type(v) is not CollV:
        raise TypeMismatchError(f"length() of non-collection {render_value(v)}")
    return len(v.cells)


def _builtin(e: Builtin, b: dict):
    name, args = e.name, e.args
    arity = 0 if name == "nan" else 1
    if len(args) != arity:
        raise ArityMismatchError(f"{name}() expects {arity} argument(s), got {len(args)}")
    if not arity:
        return math.nan
    x = args[0]
    v = _EVAL[type(x)](x, b)
    if name == "abs":
        if type(_num(v, "abs()")) is float:
            return math.fabs(v)
        return wrap32(abs(v))
    if name == "iterator":
        if type(v) is not CollV or v.type.kind != "list":
            raise TypeMismatchError(f"iterator() needs a list, got {render_value(v)}")
        return IterV(v, 0)
    if name == "hasNext" or name == "next":
        if type(v) is not IterV:
            raise TypeMismatchError(f"{name}() needs an iterator, got {render_value(v)}")
        if name == "hasNext":
            return v.pos < len(v.target.cells)
        if v.pos >= len(v.target.cells):
            raise IndexOutOfBoundsError("next() on an exhausted iterator")
        cell = v.target.cells[v.pos]
        v.pos += 1
        return cell
    raise TypeError(f"unknown builtin {name}")


def _cast(e: Cast, b: dict):
    x = e.expr
    v = _EVAL[type(x)](x, b)
    ty = e.type
    if ty != OBJECT and ty != type_of(v):
        raise TypeMismatchError(f"cannot cast {render_value(v)} to {ty}")
    return v


def _call_expr(e: Call, b: dict):
    raise TypeMismatchError("method calls cannot be evaluated as expressions")


_EVAL = {
    IntLit: _lit,
    DoubleLit: _lit,
    BoolLit: _lit,
    Var: _var,
    Binary: _binary,
    Unary: _unary,
    ArrayLit: _array_lit,
    ListLit: _list_lit,
    Index: _index,
    Length: _length,
    Builtin: _builtin,
    Cast: _cast,
    Call: _call_expr,
}


# ---------------------------------------------------------------- execution


@record
class ExecTrace:
    """Observable behavior of one run: print output, the entry frame's final
    bindings, per-loop iteration counts, per-method entry counts, rule steps,
    and the entry method's returned value (if any)."""

    prints: list = []
    final_bindings: dict = {}
    loop_iterations: dict = {}
    method_entries: dict = {}
    steps: int = 0
    result: object = None


_RETURNED = "returned"


class _Run:
    """One execution. Statement handlers take the run, the statement and the
    current frame's bindings, and return a signal: None = fell through,
    _RETURNED = slot filled, ((method, parameter names), argument values,
    location of the `return`) = tail call pending. Handlers and `invoke`
    change frames and bindings directly; with a recorder attached, each
    change is then recorded under the name of its state operation (`upd_v`,
    `upd_r`, `upd_vr`, `add_frame`, `rem_frame`).

    Each rule application counts its step inline, as
    `r.steps += 1; if r.steps > r.limit: r.slow_step(rule, loc)`. `limit` is
    the budget with no tracer attached and -1 with one, so the budget check
    and the tracer share one slow lane and an untraced step costs one
    comparison."""

    def __init__(self, program: Program, budget: int,
                 tracer: Optional[Callable] = None, recorder=None):
        self.methods = {m.name: (m, tuple([p.name for p in m.params]))
                        for m in program.methods}
        self.state = State(recorder=recorder)
        self.frames = self.state.frames
        self.recorder = recorder
        self.budget = budget
        self.tracer = tracer
        self.limit = budget if tracer is None else -1
        self.steps = 0
        self.trace = ExecTrace()
        for m in program.methods:
            self.trace.method_entries[m.name] = 0
        for _, loop in program_loops(program):
            self.trace.loop_iterations[loop.loop_id] = 0
        self.iterations = self.trace.loop_iterations

    def slow_step(self, rule: str, loc: Optional[Loc]) -> None:
        """The rest of a step past `limit`: fail over the budget, else trace."""
        if self.steps > self.budget:
            raise StepBudgetExceeded(f"exceeded {self.budget} steps", loc)
        self.tracer(rule, loc, len(self.frames))

    def resolve(self, name: str, values: list, loc: Optional[Loc]) -> tuple:
        """(method, parameter names) of a call, checked against its arguments."""
        entry = self.methods.get(name)
        if entry is None:
            raise UndefinedMethodError(f"no method '{name}'", loc)
        if len(entry[1]) != len(values):
            raise ArityMismatchError(
                f"'{name}' expects {len(entry[1])} arguments, got {len(values)}", loc)
        return entry

    def exec_seq(self, stmts: list, b: dict):
        """Run statements until one signals. This is the one place that
        locates an error: one without a location gets that of the innermost
        statement it arose in."""
        try:
            for st in stmts:
                sig = _EXEC[type(st)](self, st, b)
                if sig is not None:
                    return sig
        except InterpError as err:
            if err.loc is None:
                err.loc = st.loc
            raise
        return None

    def invoke(self, name: str, values: list, loc: Optional[Loc]) -> dict:
        """Run a method, leaving a frame on top of the state with the return
        slot filled (for non-void methods) by the `return` that ends its body,
        a statement like any other, and return the bindings of the activation
        it began. A tail call (`return m(...)`) replaces its caller's frame:
        the link pops that frame, counts its `invoke` step at that `return`
        and pushes its own, so the frame left on top is the last link's and
        the frames on the state are the non-tail nesting."""
        frames = self.frames
        if len(frames) >= MAX_CALL_DEPTH:
            raise CallDepthExceeded(f"call depth over {MAX_CALL_DEPTH}", loc)
        m, params = self.resolve(name, values, loc)
        entries = self.trace.method_entries
        b = began = dict(zip(params, values))
        while True:
            self.steps += 1
            if self.steps > self.limit:
                self.slow_step("invoke", loc)
            frames.append(Frame(b))
            if self.recorder is not None:
                self.state.record("add_frame")
            entries[m.name] += 1
            sig = self.exec_seq(m.body, b)
            if type(sig) is not tuple:
                return began
            (m, params), values, loc = sig
            frames.pop()
            if self.recorder is not None:
                self.state.record("rem_frame")
            b = dict(zip(params, values))


def _assign(r: _Run, st, b: dict):
    """VarDecl and Assign; one whose value is a call runs as `_call`."""
    x = st.value
    c = type(x)
    if c is Call:
        return _call(r, st, b)
    r.steps += 1
    if r.steps > r.limit:
        r.slow_step("assign", st.loc)
    v = b.get(x.name) if c is Var else x.value if c in _LITERALS else None
    if v is None:
        v = _EVAL[c](x, b)
    b[st.name] = v
    if r.recorder is not None:
        r.state.record("upd_v")


def _assign_index(r: _Run, st: AssignIndex, b: dict):
    r.steps += 1
    if r.steps > r.limit:
        r.slow_step("assign", st.loc)
    base = b.get(st.name)
    if type(base) is not CollV or base.type.kind != "array":
        if base is None:
            raise UnboundVariableError(f"variable '{st.name}' is not bound")
        raise TypeMismatchError(f"'{st.name}' is not an array")
    x = st.index
    idx = _EVAL[type(x)](x, b)
    if type(idx) is not int:
        raise TypeMismatchError("index must be an int")
    if not 0 <= idx < len(base.cells):
        raise IndexOutOfBoundsError(f"index {idx} out of bounds for length {len(base.cells)}")
    x = st.value
    base.cells[idx] = _EVAL[type(x)](x, b)


def _call(r: _Run, st, b: dict):
    """CallStmt, and a VarDecl or Assign whose value is a call; the
    invocation step is counted at frame entry, in invoke()."""
    x = st.value
    r.invoke(x.method, _values(x.args, b), st.loc)
    frames = r.frames
    if type(st) is not CallStmt:
        value = frames[-1].ret_slot
        if value is None:
            raise MissingReturnError(f"callee returned no value for '{st.name}'")
        b[st.name] = value
        if r.recorder is not None:
            r.state.record("upd_vr")
    frames.pop()
    if r.recorder is not None:
        r.state.record("rem_frame")


def _if(r: _Run, st: If, b: dict):
    r.steps += 1
    if r.steps > r.limit:
        r.slow_step("if", st.loc)
    x = st.cond
    c = _EVAL[type(x)](x, b)
    if c is True:
        return r.exec_seq(st.then, b)
    if c is not False:
        _bool(c, "if condition")  # raises
    if st.orelse is not None:
        return r.exec_seq(st.orelse, b)
    return None


def _while(r: _Run, st: While | For, b: dict):
    """While, and For as its `while`: the init first, the updates after each
    body. The loop kind names the step's rule."""
    update = ()
    if type(st) is For:
        sig = r.exec_seq(st.init, b)
        if sig is not None:
            return sig
        update = st.update
    rule = loop_kind(st)
    x = st.cond
    while True:
        r.steps += 1
        if r.steps > r.limit:
            r.slow_step(rule, st.loc)
        c = _EVAL[type(x)](x, b)
        if c is False:
            return None
        if c is not True:
            _bool(c, f"{rule} condition")  # raises
        r.iterations[st.loop_id] += 1
        sig = r.exec_seq(st.body, b)
        if sig is None and update:
            sig = r.exec_seq(update, b)
        if sig is not None:  # unreachable from parsed programs
            return sig


def _do_while(r: _Run, st: DoWhile, b: dict):
    x = st.cond
    while True:
        r.steps += 1
        if r.steps > r.limit:
            r.slow_step("do", st.loc)
        r.iterations[st.loop_id] += 1
        sig = r.exec_seq(st.body, b)
        if sig is not None:
            return sig
        c = _EVAL[type(x)](x, b)
        if c is False:
            return None
        if c is not True:
            _bool(c, "do condition")  # raises


def _foreach(r: _Run, st: Foreach, b: dict):
    r.steps += 1
    if r.steps > r.limit:
        r.slow_step("foreach", st.loc)
    x = st.collection
    coll = _EVAL[type(x)](x, b)
    if type(coll) is not CollV or coll.type == OBJECT_ARRAY:
        raise TypeMismatchError(f"foreach needs an array or list, got {render_value(coll)}")
    for cell in coll.cells:  # read live, as in Java: the body may write a later cell
        r.steps += 1
        if r.steps > r.limit:
            r.slow_step("foreach", st.loc)
        r.iterations[st.loop_id] += 1
        b[st.elem_name] = cell
        if r.recorder is not None:
            r.state.record("upd_v")
        sig = r.exec_seq(st.body, b)
        if sig is not None:
            return sig
    return None


def _block(r: _Run, st: Block, b: dict):
    r.steps += 1
    if r.steps > r.limit:
        r.slow_step("block", st.loc)
    return r.exec_seq(st.body, b)


def _return(r: _Run, st: Return, b: dict):
    """`return x`: fill the slot, or, when x is a call, give the tail-call
    signal with the callee already resolved, so that an undefined callee or
    an arity mismatch is reported at this `return`."""
    r.steps += 1
    if r.steps > r.limit:
        r.slow_step("return", st.loc)
    x = st.value
    if type(x) is Call:
        values = _values(x.args, b)
        return r.resolve(x.method, values, st.loc), values, st.loc
    v = _EVAL[type(x)](x, b)
    r.frames[-1].ret_slot = v  # the return ends the frame: never set twice
    if r.recorder is not None:
        r.state.record("upd_r")
    return _RETURNED


def _print(r: _Run, st: Print, b: dict):
    r.steps += 1
    if r.steps > r.limit:
        r.slow_step("print", st.loc)
    x = st.value
    r.trace.prints.append(render_value(_EVAL[type(x)](x, b)))


_EXEC = {
    VarDecl: _assign,
    Assign: _assign,
    AssignIndex: _assign_index,
    CallStmt: _call,
    If: _if,
    While: _while,
    DoWhile: _do_while,
    For: _while,
    Foreach: _foreach,
    Block: _block,
    Return: _return,
    Print: _print,
}


def run(program: Program, budget: int = DEFAULT_BUDGET,
        tracer: Optional[Callable] = None, recorder=None) -> ExecTrace:
    """Execute the program from its entry method and report the observable
    trace. `tracer(rule, loc, frame_depth)` fires per rule application;
    `recorder` (a StateRecorder) snapshots frames after every state change.
    Neither hook changes the run: steps, counts and results are the same.
    An InterpError raised once the run began carries the trace so far."""
    entry = program.method(program.entry)
    if entry is None:
        raise NoEntryMethodError(f"program has no entry method '{program.entry}'")
    if entry.params:
        raise NoEntryMethodError(f"entry method '{program.entry}' must take no parameters")
    r = _Run(program, budget, tracer, recorder)
    try:
        began = r.invoke(entry.name, [], entry.loc)
    except InterpError as err:
        err.trace = r.trace
        raise
    finally:
        r.trace.steps = r.steps
    assert len(r.state.frames) == 1, "frame imbalance"
    r.trace.final_bindings = {k: _box(v) for k, v in began.items()}
    r.trace.result = _box(r.state.top().ret_slot)
    return r.trace
