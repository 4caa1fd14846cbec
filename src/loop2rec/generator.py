"""Seeded random program generator for the differential campaign.

Programs are built to be boring in exactly the right ways: they always pass
the semantic checks, and every loop terminates by construction. Loop guards
are strictly decreasing counters (while/do/for, decremented unconditionally
as the last thing an iteration does), converging index pairs (multi-init
for), or finite collection traversals, so a default step budget can never be
exhausted. Everything else is fair game: loops of all four kinds nested up to
a configured depth, modified outer variables that may or may not be read
afterwards, prints inside and after loops, array cell writes, and the
occasional variable named `result` or `index` to stress fresh-name selection.
"""

from __future__ import annotations

import random
from itertools import count

from .ast import (
    Assign,
    AssignIndex,
    ArrayLit,
    BOOL,
    Binary,
    BoolLit,
    Call,
    DOUBLE,
    DoWhile,
    DoubleLit,
    For,
    Foreach,
    INT,
    If,
    IntLit,
    ListLit,
    MethodDef,
    Param,
    Print,
    Program,
    Return,
    VOID,
    Var,
    VarDecl,
    While,
    array_of,
    list_of,
    record,
)

LOOP_KINDS = ("while", "do", "for", "foreach_array", "foreach_list")
ZERO_GUARD_KINDS = tuple(k for k in LOOP_KINDS if k != "do")  # a do-loop always runs once
MAX_STMTS = 5  # per body


@record
class GenConfig:
    seed: int = 0
    max_depth: int = 3  # loop nesting
    max_loops: int = 4  # per program
    zero_guard_bias: float = 0.0  # probability a loop runs zero iterations


class _Scope:
    def __init__(self, other=None):
        if other is None:
            self.ints, self.doubles, self.bools, self.arrays = [], [], [], []
        else:
            self.ints = list(other.ints)
            self.doubles = list(other.doubles)
            self.bools = list(other.bools)
            self.arrays = list(other.arrays)  # (name, length)


class _Gen:
    def __init__(self, cfg: GenConfig):
        self.cfg = cfg
        self.rng = random.Random(cfg.seed)
        self.counter = 0
        self.loops_left = cfg.max_loops
        self.protected = set()  # loop counters: never reassigned by bodies
        self.helper = None  # (name,) of an extra callable method, if any
        # loops are numbered as they are made, each before the loops it holds
        self.loop_ids = count()

    def fresh(self, base: str) -> str:
        self.counter += 1
        return f"{base}{self.counter}"

    def helper_method(self) -> MethodDef:
        """A two-parameter method with its own small loop, so campaigns cover
        call frames inside loop bodies and rewrites of non-entry methods."""
        name = self.fresh("calc")
        a = self.fresh("a")
        b = self.fresh("b")
        k = self.fresh("k")
        body = [
            VarDecl(INT, k, IntLit(self.rng.randint(1, 3))),
            While(Binary(">", Var(k), IntLit(0)), [
                Assign(a, Binary("+", Var(a), Binary("*", DoubleLit(0.5), Var(b)))),
                Assign(k, Binary("-", Var(k), IntLit(1))),
            ], loop_id=next(self.loop_ids)),
            Return(Binary("+", Var(a), Var(b))),
        ]
        self.helper = name
        return MethodDef(DOUBLE, name, [Param(a, DOUBLE), Param(b, INT)], body)

    # ------------------------------------------------------------- literals

    def int_lit(self) -> IntLit:
        return IntLit(self.rng.randint(-4, 9))

    def double_lit(self) -> DoubleLit:
        return DoubleLit(self.rng.choice(
            [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.5, 10.0, -1.5, -10.0]))

    # ---------------------------------------------------------- expressions

    def int_expr(self, scope: _Scope, depth: int = 0):
        if depth >= 2 or not scope.ints or self.rng.random() < 0.3:
            if scope.ints and self.rng.random() < 0.6:
                return Var(self.rng.choice(scope.ints))
            return self.int_lit()
        op = self.rng.choice(["+", "-", "*"])
        return Binary(op, self.int_expr(scope, depth + 1), self.int_expr(scope, depth + 1))

    def double_expr(self, scope: _Scope, depth: int = 0):
        if depth >= 2 or self.rng.random() < 0.3:
            if scope.doubles and self.rng.random() < 0.6:
                return Var(self.rng.choice(scope.doubles))
            return self.double_lit()
        op = self.rng.choice(["+", "-", "*", "/"])
        mk = self.double_expr if self.rng.random() < 0.8 else self.int_expr
        lhs = self.double_expr(scope, depth + 1)
        return Binary(op, lhs, mk(scope, depth + 1))

    def bool_expr(self, scope: _Scope):
        kind = self.rng.random()
        if kind < 0.45 and scope.ints:
            op = self.rng.choice(["<", "<=", ">", ">=", "==", "!="])
            return Binary(op, self.int_expr(scope, 1), self.int_expr(scope, 1))
        if kind < 0.8 and scope.doubles:
            op = self.rng.choice(["<", ">", "<=", ">="])
            return Binary(op, self.double_expr(scope, 1), self.double_expr(scope, 1))
        if scope.bools and kind < 0.9:
            return Var(self.rng.choice(scope.bools))
        return BoolLit(self.rng.random() < 0.5)

    # ----------------------------------------------------------- statements

    def assignable(self, names: list) -> list:
        return [n for n in names if n not in self.protected]

    def simple_stmt(self, scope: _Scope):
        roll = self.rng.random()
        # each list of assignable names is built only where `roll` needs it
        if roll < 0.28 and (ints := self.assignable(scope.ints)):
            return Assign(self.rng.choice(ints), self.int_expr(scope))
        if roll < 0.5 and (doubles := self.assignable(scope.doubles)):
            return Assign(self.rng.choice(doubles), self.double_expr(scope))
        if roll < 0.6 and (bools := self.assignable(scope.bools)):
            return Assign(self.rng.choice(bools), self.bool_expr(scope))
        if roll < 0.7 and scope.arrays:
            name, length = self.rng.choice(scope.arrays)
            if length > 0:
                return AssignIndex(name, IntLit(self.rng.randrange(length)),
                                   self.double_expr(scope))
        if roll < 0.8 and self.helper and (doubles := self.assignable(scope.doubles)):
            return Assign(self.rng.choice(doubles), Call(
                self.helper, [self.double_expr(scope), self.int_expr(scope)]))
        candidates = scope.ints + scope.doubles + scope.bools
        if candidates:
            return Print(Var(self.rng.choice(candidates)))
        return Print(self.int_lit())

    def body(self, scope: _Scope, depth: int, want_loop: bool = False) -> list:
        out = []
        n = self.rng.randint(1, MAX_STMTS)
        loop_slot = self.rng.randrange(n) if want_loop else -1
        for i in range(n):
            can_loop = self.loops_left > 0 and depth < self.cfg.max_depth
            make_loop = (i == loop_slot) or (can_loop and self.rng.random() < 0.35)
            if make_loop and can_loop:
                out.extend(self.loop(scope, depth))
            elif self.rng.random() < 0.15:
                if can_loop and self.rng.random() < 0.25:
                    then = self.loop(_Scope(scope), depth)
                else:
                    then = [self.simple_stmt(_Scope(scope))]
                orelse = [self.simple_stmt(_Scope(scope))] if self.rng.random() < 0.5 else None
                out.append(If(self.bool_expr(scope), then, orelse))
            else:
                out.append(self.simple_stmt(scope))
        return out

    # ---------------------------------------------------------------- loops

    def loop(self, scope: _Scope, depth: int) -> list:
        self.loops_left -= 1
        loop_id = next(self.loop_ids)
        zero = self.rng.random() < self.cfg.zero_guard_bias
        # `choices`, not `choice`: each seed's program rests on one `random()`
        # draw here, which `choice` would replace by a `getrandbits` draw
        kind = self.rng.choices(ZERO_GUARD_KINDS if zero else LOOP_KINDS)[0]
        inner = _Scope(scope)
        bound = 0 if zero else self.rng.randint(1, 6)
        if kind == "while" or kind == "do":
            c = self.fresh("c")
            self.protected.add(c)
            inner.ints.append(c)
            body = self.body(inner, depth + 1)
            body.append(Assign(c, Binary("-", Var(c), IntLit(1))))
            scope.ints.append(c)
            cond = Binary(">", Var(c), IntLit(0))
            node = (While(cond, body, loop_id=loop_id) if kind == "while"
                    else DoWhile(body, cond, loop_id=loop_id))
            return [VarDecl(INT, c, IntLit(bound)), node]
        if kind == "for":
            if not zero and self.rng.random() < 0.3:
                # converging pair: for (int i = 0, j = N; i < j; i = i+1, j = j-1)
                i = self.fresh("i")
                j = self.fresh("j")
                self.protected.update((i, j))
                inner.ints.extend((i, j))
                body = self.body(inner, depth + 1)
                return [For(
                    [VarDecl(INT, i, IntLit(0)), VarDecl(INT, j, IntLit(bound))],
                    Binary("<", Var(i), Var(j)),
                    [Assign(i, Binary("+", Var(i), IntLit(1))),
                     Assign(j, Binary("-", Var(j), IntLit(1)))],
                    body, loop_id=loop_id)]
            i = self.fresh("i")
            self.protected.add(i)
            inner.ints.append(i)
            body = self.body(inner, depth + 1)
            return [For(
                [VarDecl(INT, i, IntLit(bound))],
                Binary(">", Var(i), IntLit(0)),
                [Assign(i, Binary("-", Var(i), IntLit(1)))],
                body, loop_id=loop_id)]
        # foreach over an array or list, sometimes a fresh literal in place
        elem = self.fresh("e")
        inner.doubles.append(elem)
        self.protected.add(elem)  # keep element rebinding out of scope-sensitive play
        n_elems = 0 if zero else self.rng.randint(1, 4)
        literal_elems = [self.double_lit() for _ in range(n_elems)]
        if kind == "foreach_array":
            if not zero and scope.arrays and self.rng.random() < 0.5:
                name, length = self.rng.choice(scope.arrays)
                # the body leaves the traversed array alone only to keep default
                # programs and every digest unchanged; the rewrite hoists a written one
                inner.arrays = [a for a in inner.arrays if a[0] != name]
                coll = Var(name)
            elif self.rng.random() < 0.75:
                name = self.fresh("arr")
                scope.arrays.append((name, n_elems))
                decl = VarDecl(array_of(DOUBLE), name, ArrayLit(DOUBLE, literal_elems))
                body = self.body(inner, depth + 1)
                return [decl, Foreach(DOUBLE, elem, Var(name), body, loop_id=loop_id)]
            else:
                coll = ArrayLit(DOUBLE, literal_elems)
            body = self.body(inner, depth + 1)
            return [Foreach(DOUBLE, elem, coll, body, loop_id=loop_id)]
        if self.rng.random() < 0.6:
            name = self.fresh("lst")
            decl = VarDecl(list_of(DOUBLE), name, ListLit(DOUBLE, literal_elems))
            body = self.body(inner, depth + 1)
            return [decl, Foreach(DOUBLE, elem, Var(name), body, loop_id=loop_id)]
        body = self.body(inner, depth + 1)
        return [Foreach(DOUBLE, elem, ListLit(DOUBLE, literal_elems), body, loop_id=loop_id)]

    # -------------------------------------------------------------- program

    def program(self) -> Program:
        methods = []
        # full-bias runs must stay all-zero-iteration, so no extra loop there
        if self.cfg.zero_guard_bias < 1.0 and self.rng.random() < 0.4:
            methods.append(self.helper_method())
        scope = _Scope()
        stmts = []
        special = self.rng.random()
        for _ in range(self.rng.randint(1, 3)):
            if special < 0.15 and self.rng.random() < 0.5:
                # occasionally occupy the rewriter's favorite names
                name = self.rng.choice(["result", "index"])
                special = 1.0
            else:
                name = self.fresh("n")
            scope.ints.append(name)
            stmts.append(VarDecl(INT, name, self.int_lit()))
        for _ in range(self.rng.randint(1, 3)):
            name = self.fresh("d")
            scope.doubles.append(name)
            stmts.append(VarDecl(DOUBLE, name, self.double_lit()))
        if self.rng.random() < 0.4:
            name = self.fresh("flag")
            scope.bools.append(name)
            stmts.append(VarDecl(BOOL, name, BoolLit(self.rng.random() < 0.5)))
        if self.rng.random() < 0.5:
            name = self.fresh("arr")
            elems = [self.double_lit() for _ in range(self.rng.randint(1, 4))]
            scope.arrays.append((name, len(elems)))
            stmts.append(VarDecl(array_of(DOUBLE), name, ArrayLit(DOUBLE, elems)))

        stmts.extend(self.body(scope, depth=0, want_loop=True))
        while self.loops_left > 0 and self.rng.random() < 0.5:
            stmts.extend(self.loop(scope, depth=0))

        # read a sample of whatever the loops touched so liveness varies
        candidates = scope.ints + scope.doubles + scope.bools
        for name in self.rng.sample(candidates, k=min(len(candidates), self.rng.randint(1, 3))):
            stmts.append(Print(Var(name)))

        methods.append(MethodDef(VOID, "main", [], stmts))
        return Program(methods)


def generate(cfg: GenConfig) -> Program:
    """Deterministic in cfg.seed: equal configs yield structurally equal
    programs. Every output passes check_semantics and terminates within the
    default step budget."""
    return _Gen(cfg).program()
