"""Per-loop variable analysis feeding the loop-to-recursion rewrite.

For each loop `analyze_loop` computes one record, `LoopAnalysis`, which the
rewrite follows and `loop2rec analyze` prints:

  * the outer variables the loop reads or writes (they become the generated
    method's parameters and call arguments),
  * the subset the loop modifies,
  * the modified variables whose values are still needed once the loop is
    gone (these must travel back to the caller),
  * how to pack them (nothing, one typed value, or an Object[] with casts),
  * the loop's kind, a foreach's resolved by the static type of its
    collection (array or list),
  * clash-free fresh names for the generated method and helper variables.

Liveness is syntactic, not path-sensitive: a modified variable counts as live
if it is read anywhere after the loop in document order (the method's final
`return` included), or anywhere inside an enclosing loop (a read textually
before the loop re-executes after it via the enclosing loop's back edge).
Each place that can read it is scanned on its own: at every enclosing level
the rest of the sequence after the statement that holds the loop, and for
every enclosing loop its body, updates and condition. Within one scan a
declaration hides its name from there on, whatever block it sits in, so a
read that follows a declaration of the same name does not count. Live
variables are listed in declaration order, the method's parameters first.

All of it comes from one pre-order walk per method (`MethodFacts`), which
writes the method down as an event tape: one (kind, name) event per variable
read, write and declaration and per call target, in scan order. A
statement's expressions come before the name it writes or declares (an
indexed write reads its array first); an `if` is its condition, then branch,
else branch; a `while` its condition, then body; a `do` its body, then
condition; a `for` its init, condition, body, updates; a foreach its
collection, a declaration of its element, then its body. A scan reads spans
of the tape left to right. For each loop the walk notes its scope, the spans
of its own scan (body, condition, updates; a foreach's from its element
declaration on), which give the names it uses and writes, and the chain of
scans above that can observe its writes. Per-name lists of tape positions
then tell, with one bisection per scan, whether a scan reads a modified name
before declaring it; the method's identifiers for fresh names are the names
on its tape.
"""

from __future__ import annotations

from bisect import bisect_left
from enum import Enum
from typing import Optional

from .ast import (
    CALL,
    DECLARE,
    READ,
    WRITE,
    Assign,
    AssignIndex,
    Block,
    CallStmt,
    DoWhile,
    For,
    If,
    Loc,
    MethodDef,
    Param,
    Print,
    Program,
    Return,
    Stmt,
    Var,
    VarDecl,
    While,
    emit_names,
    is_loop,
    loop_kind,
    record,
)
from .checker import static_type
from .parser import KEYWORDS


class UnsupportedConstruct(Exception):
    def __init__(self, loc: Optional[Loc], message: str):
        self.loc = loc
        self.message = message
        where = str(loc) if loc else "?:?"
        super().__init__(f"{where}: {message}")


class Packing(Enum):
    NONE = "none"
    SINGLE = "single"
    OBJECT_ARRAY = "object_array"


@record(frozen=True, where=("loc",))
class LoopAnalysis:
    """Everything the rewrite of one loop needs, and the row `analyze` prints.
    `kind` is the loop's kind, a foreach's resolved to `foreach_array` or
    `foreach_list`; `counter` is a foreach's index or iterator variable and
    `coll_name` the hoisted collection of an array foreach, unless it
    traverses a variable its body leaves alone."""

    loop_id: int
    kind: str
    in_method: str
    params: tuple  # Param, call/parameter order
    modified: tuple  # Param, first-write order
    live_after: tuple  # Param, declaration order
    packing: Packing
    loop_method_name: str
    result_var_name: str
    counter: Optional[str] = None
    coll_name: Optional[str] = None
    loc: Optional[Loc] = None


def packing_for(returned, optimize: bool) -> Packing:
    """How the variables sent back to the caller travel: nothing, one typed
    value, or an Object[] (always, with optimization off)."""
    if not optimize or len(returned) > 1:
        return Packing.OBJECT_ARRAY
    return Packing.SINGLE if returned else Packing.NONE


# ------------------------------------------------------------- method facts


class MethodFacts:
    """The event tape of one method (`kinds` and `names`, side by side) and,
    per loop, what the walk saw of it. `loops` maps id(loop) to (scope, own
    scan, observers): the scope maps each name in scope where the loop
    sits, plus a for loop's init declarations, to its Type (None for a loop
    the scoping rules do not reach, such as one inside a for header; shared,
    so never changed); a scan is a flat list of tape positions [start, end,
    start, end, ...]; observers is a linked list (scan, rest) of the scans
    that can observe the loop's writes, ending in None. A loop's back edge
    is a link only in the observers of the loops it holds."""

    def __init__(self, method: MethodDef):
        self.kinds = []
        self.names = []
        self.loops = {}
        self.param_order = {}  # name -> position, parameters first in declaration order
        self._where = None  # name -> positions of its reads and declarations
        for p in method.params:
            self.param_order.setdefault(p.name, len(self.param_order))
        self._seq(method.body, {p.name: p.type for p in method.params}, None)

    def _seq(self, stmts: list, scope: Optional[dict], observers) -> None:
        """Emit a sequence. `scope` is the caller's and is copied before the
        first declaration here (None below a for header, which the scoping
        rules never reach); `observers` are the scans that follow it."""
        kinds, names = self.kinds, self.names
        owned = False  # whether `scope` is this sequence's own copy
        rests = []  # [end of statement, end of sequence] per compound statement
        for st in stmts:
            cls = type(st)
            if cls is Assign:
                emit_names(st.value, names, kinds)
                kinds.append(WRITE)
                names.append(st.name)
            elif cls is VarDecl:
                emit_names(st.value, names, kinds)
                kinds.append(DECLARE)
                names.append(st.name)
                if scope is not None:
                    if not owned:
                        scope, owned = dict(scope), True
                    scope[st.name] = st.type
            elif cls is Print or cls is Return or cls is CallStmt:
                emit_names(st.value, names, kinds)
            elif cls is AssignIndex:
                kinds.append(READ)
                names.append(st.name)
                emit_names(st.index, names, kinds)
                emit_names(st.value, names, kinds)
                kinds.append(WRITE)
                names.append(st.name)
            else:
                rest = [0, 0]
                rests.append(rest)
                inner = (rest, observers)
                if cls is If:
                    emit_names(st.cond, names, kinds)
                    self._seq(st.then, scope, inner)
                    if st.orelse:
                        self._seq(st.orelse, scope, inner)
                elif cls is Block:
                    self._seq(st.body, scope, inner)
                else:
                    self._loop(st, scope, inner)
                rest[0] = len(names)
                owned = False  # a loop inside may keep `scope` as its snapshot
        end = len(names)
        for rest in rests:
            rest[1] = end

    def _loop(self, st: Stmt, scope: Optional[dict], observers) -> None:
        """Emit a loop and note its entry in `loops`."""
        kinds, names = self.kinds, self.names
        edge = []  # the back edge, filled in once the loop is on the tape
        inner = (edge, observers)
        cls = type(st)
        here = scope
        if cls is While:
            c = len(names)
            emit_names(st.cond, names, kinds)
            b = len(names)
            self._seq(st.body, scope, inner)
            edge += (b, len(names), c, b)
            own = edge
        elif cls is DoWhile:
            b = len(names)
            self._seq(st.body, scope, inner)
            emit_names(st.cond, names, kinds)
            edge += (b, len(names))
            own = edge
        elif cls is For:
            if scope is not None:
                here = dict(scope)
                here.update((s.name, s.type) for s in st.init if type(s) is VarDecl)
            self._seq(st.init, None, inner)
            c = len(names)
            emit_names(st.cond, names, kinds)
            b = len(names)
            self._seq(st.body, here, inner)
            u = len(names)
            self._seq(st.update, None, inner)
            edge += (b, len(names), c, b)
            own = [b, u, c, b, u, len(names)]
        else:
            emit_names(st.collection, names, kinds)
            e = len(names)
            kinds.append(DECLARE)
            names.append(st.elem_name)
            self._seq(st.body, None if scope is None else {**scope, st.elem_name: st.elem_type},
                      inner)
            edge += (e + 1, len(names))
            own = [e, len(names)]
        self.loops.setdefault(id(st), (here, own, observers))

    def scan(self, spans):
        """(uses, writes) of a scan: the names it reads or writes in first-use
        order and those it writes in first-write order, as dicts, the names
        declared so far left out."""
        kinds, names = self.kinds, self.names
        declared = set()
        uses, writes = {}, {}
        for j in range(0, len(spans), 2):
            a, b = spans[j], spans[j + 1]
            for k, n in zip(kinds[a:b], names[a:b]):
                if k is CALL or n in declared:
                    continue
                if k is DECLARE:
                    declared.add(n)
                    continue
                uses[n] = None
                if k is WRITE:
                    writes[n] = None
        return uses, writes

    def _reads(self, name: str, link) -> bool:
        """Whether one of the linked scans reads `name` before declaring it.
        The reads and declarations of every name are listed by tape
        position on first use, so each scan costs one bisection."""
        where = self._where
        if where is None:
            where = self._where = {}
            for i, (k, n) in enumerate(zip(self.kinds, self.names)):
                if k is READ or k is DECLARE:
                    at = where.get(n)
                    if at is None:
                        where[n] = [i]
                    else:
                        at.append(i)
        at, kinds = where.get(name, ()), self.kinds
        n = len(at)
        while link is not None:
            spans, link = link
            for j in range(0, len(spans), 2):
                x = bisect_left(at, spans[j])
                if x < n and at[x] < spans[j + 1]:
                    if kinds[at[x]] is READ:
                        return True
                    break  # declared: hidden for the rest of this scan
        return False

    def _order(self, name: str) -> int:
        """The name's place in the declaration order: parameters first, then
        the first declaration on the tape, then undeclared names."""
        i = self.param_order.get(name)
        if i is not None:
            return i
        kinds = self.kinds
        i = next((i for i in self._where[name] if kinds[i] is DECLARE), len(kinds))
        return len(self.param_order) + i

    def live_after(self, observers, modified) -> list:
        """The `modified` names that one of the `observers` scans reads, in
        declaration order."""
        live = [name for name in modified if self._reads(name, observers)]
        if len(live) > 1:
            live.sort(key=self._order)
        return live


# -------------------------------------------------------------- fresh names


class NameAllocator:
    """Deterministic fresh-name source. Candidates are `base`, `base2`,
    `base3`, ... and the first one absent from the program (and from earlier
    allocations) wins. Keywords are pre-claimed: an emitted name must survive
    re-parsing. The program's identifiers are its method and parameter names
    and every name on its methods' tapes; `facts` maps id(method) to the
    MethodFacts of each of the program's methods."""

    def __init__(self, program: Program):
        used = set(KEYWORDS)
        self.facts = {}
        for m in program.methods:
            here = self.facts[id(m)] = MethodFacts(m)
            used.add(m.name)
            used.update(p.name for p in m.params)
            used.update(here.names)
        self.used = used
        # base -> first suffix not yet tried; every smaller one is taken for
        # good, because `used` only grows
        self._next = {}

    def fresh(self, base: str) -> str:
        if base not in self.used:
            self.used.add(base)
            return base
        k = self._next.get(base, 2)
        while f"{base}{k}" in self.used:
            k += 1
        self._next[base] = k + 1
        name = f"{base}{k}"
        self.used.add(name)
        return name

    def loop_names(self, method_name: str):
        """(loop method, result variable) for a loop extracted from
        `method_name`: `<method>_loop` and `result`, suffixed as `fresh`
        does."""
        return self.fresh(f"{method_name}_loop"), self.fresh("result")


# ------------------------------------------------------------- loop summary


def analyze_loop(loop: Stmt, method: MethodDef, names: NameAllocator,
                 optimize: bool = True) -> LoopAnalysis:
    """Summarize a loop of `method` for extraction. The method's tape comes
    from `names`, which also gives the loop its fresh names: its method and
    result variable, then a foreach's counter and hoisted collection. One
    allocator serves a program's loops, analyzed in document order."""
    if not is_loop(loop):
        raise TypeError(f"not a loop: {loop!r}")
    here = names.facts.get(id(method))  # None for a method of another program
    entry = None if here is None else here.loops.get(id(loop))
    if entry is None or entry[0] is None:  # no scope: where the scoping rules never reach
        raise ValueError("loop does not occur in the given method")
    scope, own, observers = entry
    uses, writes = here.scan(own)
    used = list(uses)
    kind, counter, coll_name = loop_kind(loop), None, None
    if kind == "foreach":
        ty = static_type(loop.collection, scope)
        kind = "foreach_list" if ty is not None and ty.kind == "list" else "foreach_array"
    coll = None
    if kind == "foreach_array" and type(loop.collection) is Var \
            and loop.collection.name not in writes:
        # an array variable the body leaves alone is re-read by the generated
        # guard and element access; it leads the parameter list (a list is
        # read once, by the `iterator` call before the first call)
        coll = loop.collection.name
        used = [coll] + [n for n in used if n != coll]

    try:
        params = tuple([Param(n, scope[n]) for n in used])
    except KeyError as err:
        raise UnsupportedConstruct(loop.loc, f"loop references '{err.args[0]}' which is not "
                                   "in scope; run check_semantics first") from None
    typed = dict(zip(used, params))
    live = tuple([typed[n] for n in here.live_after(observers, writes)])
    loop_method_name, result_var_name = names.loop_names(method.name)
    if kind == "foreach_list":
        counter = names.fresh("it")
    elif kind == "foreach_array":
        counter = names.fresh("index")
        if coll is None:  # not a variable, or one the body writes: hoisted
            coll_name = names.fresh("coll")
    return LoopAnalysis(
        loop_id=loop.loop_id,
        kind=kind,
        in_method=method.name,
        params=params,
        modified=tuple([typed[n] for n in writes]),
        live_after=live,
        packing=packing_for(live, optimize),
        loop_method_name=loop_method_name,
        result_var_name=result_var_name,
        counter=counter,
        coll_name=coll_name,
        loc=loop.loc,
    )
