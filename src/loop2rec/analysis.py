"""Per-loop variable analysis feeding the loop-to-recursion rewrite.

For each loop this module computes:

  * the outer variables the loop reads or writes (they become the generated
    method's parameters and call arguments),
  * the subset the loop modifies,
  * the modified variables whose values are still needed once the loop is
    gone (these must travel back to the caller),
  * how to pack them (nothing, one typed value, or an Object[] with casts),
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
    VOID,
    WRITE,
    Assign,
    AssignIndex,
    Block,
    CallStmt,
    DoWhile,
    Expr,
    For,
    Foreach,
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
    record,
)
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


@record(frozen=True)
class LoopAnalysis:
    params: tuple  # Param, call/parameter order
    modified: tuple  # Param, first-write order
    live_after: tuple  # Param, declaration order
    packing: Packing
    loop_method_name: str
    result_var_name: str


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
    scan, back edge, observers): the scope is as `scope_at` returns it (None
    for a loop the scoping rules do not reach, such as one inside a for
    header); a scan is a flat list of tape positions [start, end, start,
    end, ...]; observers is a linked list (scan, rest) of the scans that can
    observe the loop's writes, ending in None."""

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
            cls = st.__class__
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
        cls = st.__class__
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
                here.update((s.name, s.type) for s in st.init if s.__class__ is VarDecl)
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
        self.loops.setdefault(id(st), (here, own, edge, observers))

    def _entry(self, loop: Stmt):
        entry = self.loops.get(id(loop))
        if entry is None:
            raise ValueError("loop does not occur in the given method")
        return entry

    def scope_at(self, loop: Stmt) -> dict:
        """name -> Type for everything in scope where the loop statement sits,
        plus a for loop's init declarations; the caller must not change it."""
        scope = self._entry(loop)[0]
        if scope is None:
            raise ValueError("loop does not occur in the given method")
        return scope

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

    def live_after(self, loop: Stmt, modified: list) -> list:
        """The `modified` names read after the loop, in declaration order."""
        observers = self._entry(loop)[3]
        live = [name for name in modified if self._reads(name, observers)]
        if len(live) > 1:
            live.sort(key=self._order)
        return live


def method_facts(method: MethodDef, facts: dict) -> MethodFacts:
    """The method's entry in `facts` (id(method) -> MethodFacts), built on
    first use."""
    here = facts.get(id(method))
    if here is None:
        here = facts[id(method)] = MethodFacts(method)
    return here


def _parts(body: list, cond, extra):
    """(uses, writes) of body, then cond, then extra (statements or
    expressions). An expression scans as the statement that prints it."""
    stmts = list(body) + [x if isinstance(x, Stmt) else Print(x)
                          for x in ((cond,) if cond is not None else ()) + tuple(extra)]
    facts = MethodFacts(MethodDef(VOID, "", [], stmts))
    return facts.scan((0, len(facts.names)))


def used_vars(body: list, cond: Optional[Expr] = None, extra=()) -> list:
    """Identifiers free in body + cond + extra, in first-use order. `extra`
    carries a for-loop's update statements (or any further expressions)."""
    return list(_parts(body, cond, extra)[0])


def modified_vars(body: list, extra=()) -> list:
    """The used_vars subset written by the loop (assignment targets, indexed
    array bases, call-assignment targets), in first-write order."""
    return list(_parts(body, None, extra)[1])


def live_after(loop: Stmt, method: MethodDef) -> list:
    """Modified variables still read once the loop is done, in declaration
    order."""
    if not is_loop(loop):
        raise TypeError(f"not a loop: {loop!r}")
    facts = MethodFacts(method)
    return facts.live_after(loop, list(facts.scan(facts._entry(loop)[1])[1]))


# -------------------------------------------------------------- fresh names


class NameAllocator:
    """Deterministic fresh-name source. Candidates are `base`, `base2`,
    `base3`, ... and the first one absent from the program (and from earlier
    allocations) wins. Keywords are pre-claimed: an emitted name must survive
    re-parsing. The program's identifiers are its method and parameter names
    and every name on its methods' tapes; `facts` (id(method) ->
    MethodFacts) lends the tapes and keeps those built here."""

    def __init__(self, program: Program, facts: Optional[dict] = None):
        if facts is None:
            facts = {}
        used = set(KEYWORDS)
        for m in program.methods:
            used.add(m.name)
            used.update(p.name for p in m.params)
            used.update(method_facts(m, facts).names)
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


def analyze_loop(
    loop: Stmt,
    method: MethodDef,
    program: Program,
    optimize: bool = True,
    names=None,
    facts: Optional[dict] = None,
) -> LoopAnalysis:
    """Summarize a loop for extraction. `names` preassigns the fresh
    (method, result) pair; without it the names are derived from the program
    as it stands. `facts` maps id(method) to its MethodFacts, filled in here
    on first use: pass one dict for all the loops of a program, so that
    each method is walked once."""
    if not is_loop(loop):
        raise TypeError(f"not a loop: {loop!r}")
    if facts is None:
        facts = {}
    here = method_facts(method, facts)
    scope = here.scope_at(loop)
    _, own, edge, _ = here.loops[id(loop)]
    coll = loop.collection.name if loop.__class__ is Foreach \
        and loop.collection.__class__ is Var else None
    if coll is not None and coll in here.scan(edge)[1]:
        raise UnsupportedConstruct(
            loop.loc, f"foreach body must not modify the traversed collection '{coll}'")

    uses, writes = here.scan(own)
    used = list(uses)
    if coll is not None:
        # the traversed collection is re-read by the generated guard and
        # element access; it leads the parameter list
        used = [coll] + [n for n in used if n != coll]

    try:
        params = tuple([Param(n, scope[n]) for n in used])
    except KeyError as err:
        raise UnsupportedConstruct(loop.loc, f"loop references '{err.args[0]}' which is not "
                                   "in scope; run check_semantics first") from None
    typed = dict(zip(used, params))
    modified = tuple([typed[n] for n in writes])
    live = tuple([typed[n] for n in here.live_after(loop, list(writes))])
    if names is None:
        names = NameAllocator(program, facts).loop_names(method.name)
    return LoopAnalysis(
        params=params,
        modified=modified,
        live_after=live,
        packing=packing_for(live, optimize),
        loop_method_name=names[0],
        result_var_name=names[1],
    )
