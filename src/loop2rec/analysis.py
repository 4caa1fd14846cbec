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

All of it comes from one pass per method (`MethodFacts`). Each statement is
summarised once, bottom-up; a loop's used and modified variables, the foreach
collection check and its back-edge reads are left-to-right compositions of
these summaries. One top-down walk then carries the scope and the declaration
order, and takes each sequence's reads right to left:
suffix(i) = reads(s_i) | (suffix(i+1) - decls(s_i)).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .ast import (
    Assign,
    AssignIndex,
    Block,
    CallAssign,
    COMPOUND_KINDS,
    DoWhile,
    Expr,
    For,
    Foreach,
    If,
    LOOP_KINDS,
    Loc,
    MethodDef,
    Param,
    Program,
    Stmt,
    Var,
    VarDecl,
    While,
    collect_identifiers,
    expr_vars,
    is_loop,
    stmt_exprs,
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


@dataclass(frozen=True)
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


# ---------------------------------------------------------------- summaries
#
# A summary is (uses, writes, reads, decls, has_loop): free occurrences in
# first-use order, assignment targets in first-write order, the names whose
# value is read (array bases too, write-only targets not), and every name
# declared anywhere inside. A declaration hides its name from the rest of the
# scan, whatever block it sits in.

_NONE = frozenset()


class _Acc:
    """Composes summaries and single events left to right, dropping the names
    declared so far (the initial `bound` names included)."""

    __slots__ = ("uses", "writes", "reads", "decls", "has_loop")

    def __init__(self, bound=()):
        self.uses = {}  # insertion-ordered set
        self.writes = {}
        self.reads = set()
        self.decls = set(bound)
        self.has_loop = False

    def expr(self, e: Expr) -> None:
        decls = self.decls
        for name in expr_vars(e):
            if name not in decls:
                self.uses[name] = None
                self.reads.add(name)

    def part(self, summary) -> None:
        uses, writes, reads, decls, has_loop = summary
        hidden = self.decls
        for name in uses:
            if name not in hidden:
                self.uses[name] = None
        for name in writes:
            if name not in hidden:
                self.writes[name] = None
        self.reads |= reads - hidden
        hidden |= decls
        self.has_loop = self.has_loop or has_loop

    def seq(self, stmts: list, memo: dict) -> None:
        for st in stmts:
            self.part(_summary(st, memo))

    def done(self):
        return (tuple(self.uses), tuple(self.writes), frozenset(self.reads),
                frozenset(self.decls), self.has_loop)


def _summary(st: Stmt, memo: dict):
    """The statement's summary, computed once per memo."""
    s = memo.get(id(st))
    if s is not None:
        return s
    cls = st.__class__
    if cls in COMPOUND_KINDS:
        acc = _Acc()
        if cls is If:
            acc.expr(st.cond)
            acc.seq(st.then, memo)
            acc.seq(st.orelse or (), memo)
        elif cls is Block:
            acc.seq(st.body, memo)
        elif cls is While:
            acc.expr(st.cond)
            acc.part(_seq(st.body, memo))
        elif cls is DoWhile:
            acc.part(_seq(st.body, memo))
            acc.expr(st.cond)
        elif cls is For:
            acc.seq(st.init, memo)
            acc.expr(st.cond)
            acc.part(_seq(st.body, memo))
            acc.seq(st.update, memo)
        else:
            acc.expr(st.collection)
            acc.decls.add(st.elem_name)
            acc.part(_seq(st.body, memo))
        acc.has_loop = acc.has_loop or cls in LOOP_KINDS
        s = acc.done()
    else:
        # a simple statement reads its expressions, then writes or declares
        # at most one name
        reads = [n for e in stmt_exprs(st) for n in expr_vars(e)]
        written = declared = None
        if cls is Assign:
            written = st.name
        elif cls is AssignIndex:
            reads.insert(0, st.name)
            written = st.name
        elif cls is VarDecl:
            declared = st.name
        elif cls is CallAssign:
            if st.decl_type is not None:
                declared = st.target
            else:
                written = st.target
        uses = dict.fromkeys(reads)
        if written is not None:
            uses[written] = None
        s = (tuple(uses), () if written is None else (written,), frozenset(reads),
             _NONE if declared is None else frozenset((declared,)), False)
    memo[id(st)] = s
    return s


def _seq(stmts: list, memo: dict):
    """Summary of a statement sequence, computed once per memo."""
    s = memo.get(id(stmts))
    if s is None:
        acc = _Acc()
        acc.seq(stmts, memo)
        s = memo[id(stmts)] = acc.done()
    return s


def _compose(body: list, cond: Optional[Expr], extra, bound, memo: dict) -> _Acc:
    """body, then cond, then extra (statements or expressions), with `bound`
    names hidden throughout."""
    acc = _Acc(bound)
    acc.part(_seq(body, memo))
    if cond is not None:
        acc.expr(cond)
    for item in extra:
        if isinstance(item, Stmt):
            acc.part(_summary(item, memo))
        else:
            acc.expr(item)
    return acc


def used_vars(body: list, cond: Optional[Expr] = None, extra=(), bound=()) -> list:
    """Identifiers free in body + cond + extra, in first-use order. `extra`
    carries a for-loop's update statements (or any further expressions)."""
    return list(_compose(body, cond, extra, bound, {}).uses)


def modified_vars(body: list, extra=(), bound=()) -> list:
    """The used_vars subset written by the loop (assignment targets, indexed
    array bases, call-assignment targets), in first-write order."""
    return list(_compose(body, None, extra, bound, {}).writes)


def _loop_parts(loop: Stmt):
    """(body, cond, extra, bound) of the loop's own scan."""
    if isinstance(loop, (While, DoWhile)):
        return loop.body, loop.cond, (), ()
    if isinstance(loop, For):
        return loop.body, loop.cond, tuple(loop.update), ()
    if isinstance(loop, Foreach):
        return loop.body, None, (), (loop.elem_name,)
    raise TypeError(f"not a loop: {loop!r}")


def _back_edge_reads(loop: Stmt, memo: dict) -> set:
    """What a loop re-reads after an inner loop finished: its body, updates
    and condition on the next iteration."""
    if isinstance(loop, For):
        return _compose(loop.body, None, [*loop.update, loop.cond], (), memo).reads
    cond = None if isinstance(loop, Foreach) else loop.cond
    return _compose(loop.body, cond, (), (), memo).reads


# ------------------------------------------------------------- method facts


class MethodFacts:
    """Everything the analysis needs about the loops of one method, from one
    walk over it. `loops` maps id(loop) to (scope, reads after): the scope
    is as `scope_at` returns it (None for a loop the scoping rules do not
    reach, such as one inside a for header), the reads are every read that
    can observe the loop's writes. Summaries stay in `memo` for the life of
    the object, so build one per method and drop it afterwards."""

    def __init__(self, method: MethodDef):
        self.method = method
        self.memo = {}
        self.loops = {}
        self.order = {}  # declared name -> position, parameters first
        for p in method.params:
            self.order.setdefault(p.name, len(self.order))
        self._walk(method.body, {p.name: p.type for p in method.params}, _NONE)

    def _walk(self, stmts, scope: Optional[dict], after: Optional[frozenset]) -> None:
        """Visit a sequence in document order. `scope` is the caller's, copied
        here (None below a for header, which the scoping rules never reach);
        `after` holds the reads that follow the sequence. Both are None when
        no loop sits inside, since only the declaration order is wanted."""
        memo, order = self.memo, self.order
        if after is not None:
            scope = None if scope is None else dict(scope)
            summaries = [_summary(st, memo) for st in stmts]
            suffix = [_NONE] * len(stmts)  # suffix[i]: reads of stmts[i+1:]
            reads = _NONE
            for i in range(len(stmts) - 1, 0, -1):
                _, _, r, d, _ = summaries[i]
                if d:
                    reads = r | (reads - d)
                elif not r <= reads:
                    reads = reads | r
                suffix[i - 1] = reads
        for i, st in enumerate(stmts):
            cls = st.__class__
            if cls is VarDecl or cls is CallAssign and st.decl_type is not None:
                name = st.name if cls is VarDecl else st.target
                order.setdefault(name, len(order))
                if scope is not None:
                    scope[name] = st.type if cls is VarDecl else st.decl_type
                continue
            if cls not in COMPOUND_KINDS:
                continue
            if cls is Foreach:
                order.setdefault(st.elem_name, len(order))
            inner, inner_after = None, None
            if after is not None and summaries[i][4]:
                inner, inner_after = scope, after | suffix[i]
                if cls is For and scope is not None:
                    inner = dict(scope)
                    inner.update((s.name, s.type) for s in st.init if isinstance(s, VarDecl))
                if cls in LOOP_KINDS:
                    self.loops.setdefault(id(st), (None if inner is None else dict(inner),
                                                   inner_after))
                    inner_after = inner_after | _back_edge_reads(st, memo)
            if cls is If:
                self._walk(st.then, inner, inner_after)
                self._walk(st.orelse or (), inner, inner_after)
            elif cls is For:
                self._walk(st.init, None, inner_after)
                self._walk(st.update, None, inner_after)
                self._walk(st.body, inner, inner_after)
            elif cls is Foreach and inner is not None:
                self._walk(st.body, {**inner, st.elem_name: st.elem_type}, inner_after)
            else:
                self._walk(st.body, inner, inner_after)

    def scope_at(self, loop: Stmt) -> dict:
        """name -> Type for everything in scope where the loop statement sits,
        plus a for loop's init declarations; the caller must not change it."""
        entry = self.loops.get(id(loop))
        if entry is None or entry[0] is None:
            raise ValueError("loop does not occur in the given method")
        return entry[0]

    def live_after(self, loop: Stmt, modified: list) -> list:
        """The `modified` names read after the loop, in declaration order."""
        entry = self.loops.get(id(loop))
        if entry is None:
            raise ValueError("loop does not occur in the given method")
        reads, order = entry[1], self.order
        live = [name for name in modified if name in reads]
        live.sort(key=lambda n: order.get(n, len(order)))
        return live


def live_after(loop: Stmt, method: MethodDef, modified: Optional[list] = None) -> list:
    """Modified variables still read once the loop is done, in declaration
    order."""
    if modified is None:
        modified = list(_compose(*_loop_parts(loop), {}).writes)
    return MethodFacts(method).live_after(loop, modified)


# -------------------------------------------------------------- fresh names


class NameAllocator:
    """Deterministic fresh-name source. Candidates are `base`, `base2`,
    `base3`, ... and the first one absent from the program (and from earlier
    allocations) wins. Keywords are pre-claimed: an emitted name must survive
    re-parsing."""

    def __init__(self, program: Program):
        self.used = collect_identifiers(program) | KEYWORDS
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


def _check_foreach_collection(loop: Foreach, memo: dict) -> None:
    if not isinstance(loop.collection, Var):
        return
    coll = loop.collection.name
    if coll in _seq(loop.body, memo)[1]:
        raise UnsupportedConstruct(
            loop.loc, f"foreach body must not modify the traversed collection '{coll}'")


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
    here = facts.get(id(method))
    if here is None:
        here = facts[id(method)] = MethodFacts(method)
    scope = here.scope_at(loop)
    if isinstance(loop, Foreach):
        _check_foreach_collection(loop, here.memo)

    scan = _compose(*_loop_parts(loop), here.memo)
    used = list(scan.uses)
    if isinstance(loop, Foreach) and isinstance(loop.collection, Var):
        # the traversed collection is re-read by the generated guard and
        # element access; it leads the parameter list
        used = [loop.collection.name] + [n for n in used if n != loop.collection.name]

    def typed(names_):
        out = []
        for n in names_:
            if n not in scope:
                raise UnsupportedConstruct(
                    getattr(loop, "loc", None),
                    f"loop references '{n}' which is not in scope; run check_semantics first")
            out.append(Param(n, scope[n]))
        return tuple(out)

    params = typed(used)
    modified = typed(scan.writes)
    live = typed(here.live_after(loop, [p.name for p in modified]))
    if names is None:
        names = NameAllocator(program).loop_names(method.name)
    return LoopAnalysis(
        params=params,
        modified=modified,
        live_after=live,
        packing=packing_for(live, optimize),
        loop_method_name=names[0],
        result_var_name=names[1],
    )
