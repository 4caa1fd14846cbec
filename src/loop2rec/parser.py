"""Lexer and recursive-descent parser for `.mj` source.

The parser enforces the structural rules the loop rewriter depends on:

  * `return` is only legal as the last statement of its enclosing block and
    never inside a loop body (so a loop can never exit early);
  * duplicate method names and duplicate parameter names are rejected;
  * a method call is only ever the whole value of a declaration, an
    assignment or a `return`, or a statement of its own;
  * brackets, blocks, type arguments and unary operators nest at most
    MAX_NESTING deep.

Any input yields either a Program or a ParseError; nothing else escapes.
"""

from __future__ import annotations

import math
import re

from .ast import (
    ArrayLit,
    Assign,
    AssignIndex,
    BINARY_PREC,
    BOOL,
    BUILTIN_NAMES,
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
    MethodDef,
    OBJECT,
    OBJECT_ARRAY,
    Param,
    Print,
    Program,
    Return,
    Stmt,
    Type,
    Unary,
    VOID,
    Var,
    VarDecl,
    While,
    array_of,
    iterator_of,
    list_of,
)

# Deepest nesting of brackets, blocks, type arguments and unary operators the
# parser accepts (see docs/language.md). Generated programs reach 9; at 256 no
# later stage comes near the recursion limit the package sets in interp.py.
MAX_NESTING = 256


class ParseError(Exception):
    def __init__(self, line: int, col: int, expected: str, found: str):
        self.line = line
        self.col = col
        self.expected = expected
        self.found = found
        super().__init__(f"{line}:{col}: expected {expected}, found {found}")


_TYPE_STARTS = {"void", "int", "double", "bool", "Object", "List", "Iterator"}

KEYWORDS = _TYPE_STARTS | {
    "if", "else", "while", "do", "for", "return", "print",
    "true", "false", "new", "length", *BUILTIN_NAMES,
}

_BASE_TYPES = {"void": VOID, "int": INT, "double": DOUBLE, "bool": BOOL,
               "Object": OBJECT}

# One match per token, newline or comment, each with the blanks before it; the
# "Writing a Tokenizer" recipe of the `re` documentation. Only '\n' ends a
# line. `\d` is exactly str.isdecimal() and `\w` exactly str.isalnum() or '_';
# a word may not start with a digit, and `tokenize` rejects the non-ASCII
# non-letters that `[^\W\d]` lets through. The `end` alternative matches
# trailing blanks in one step, so they are never rescanned from every position.
_TOKEN_RE = re.compile(r"""
    [ \t\r]*
    (?:
        (?P<newline>\n)
      | (?P<word>[^\W\d]\w*)
      | (?P<comment>//[^\n]*)
      | (?P<sym>&&|\|\||[=!<>]=|[-+*/=!<>(){}\[\];,:])
      | (?P<double>\d+(?:\.\d+(?:[eE][+-]?\d+)?|[eE][+-]?\d+))
      | (?P<int>\d+)
      | (?P<end>\Z)
      | (?P<bad>.)
    )
""", re.VERBOSE)


# group numbers of the alternatives, which a match's `lastindex` names
_NEWLINE, _WORD, _COMMENT, _SYM, _END, _BAD = (
    _TOKEN_RE.groupindex[name] for name in ("newline", "word", "comment", "sym", "end", "bad"))


def tokenize(text: str) -> list:
    """One `(kind, text, line, col)` tuple per token, then an eof tuple; kind
    is ident, kw, sym, int, double or eof, and line and col count from 1.
    The per-token work is kept small, as it costs about as much as the regex
    match itself: plain tuples, no object per token, and the branches test
    the commonest alternatives first, by group number rather than name."""
    toks = []
    append = toks.append
    line = 1
    line_start = 0  # offset of the first character of the current line
    for m in _TOKEN_RE.finditer(text):
        group = m.lastindex
        if group == _SYM:
            append(("sym", m[group], line, m.start(group) - line_start + 1))
        elif group == _WORD:
            word = m[group]
            col = m.start(group) - line_start + 1
            if word >= "\x80" and not word[0].isalpha():
                # a non-ASCII digit or numeral such as '²' cannot start a word
                raise ParseError(line, col, "a token", repr(word[0]))
            append(("kw" if word in KEYWORDS else "ident", word, line, col))
        elif group == _NEWLINE:
            line += 1
            line_start = m.end()
        elif group == _END:
            break
        elif group != _COMMENT:  # int, double or bad
            lexeme = m[group]
            col = m.start(group) - line_start + 1
            if group == _BAD:
                raise ParseError(line, col, "a token", repr(lexeme))
            # range checking of int literals happens in the parser: `-2147483648`
            # is one negated literal there, while the bare magnitude is too big
            append((m.lastgroup, lexeme, line, col))
    append(("eof", "<eof>", line, len(text) - line_start + 1))
    return toks


def _int_value(at: tuple, text: str) -> int:
    """Value of the int literal `text`, which is `at`'s text or that with a
    leading '-'; a ParseError at `at` unless it fits in 32 bits."""
    try:
        value = int(text)
    except ValueError:  # more digits than int() converts: far out of range
        value = None
    if value is None or not INT_MIN <= value <= INT_MAX:
        raise ParseError(at[2], at[3], "int literal within 32-bit range", text)
    return value


def _double_value(at: tuple, text: str) -> float:
    """Value of the double literal `text`, which is `at`'s text or that with
    a leading '-'; a ParseError at `at` if it overflows to infinity."""
    value = float(text)
    if math.isinf(value):
        raise ParseError(at[2], at[3], "double literal within binary64 range", text)
    return value


def _bind(name: str, ty: Type | None, value: Expr, loc: Loc) -> Stmt:
    """`name = value` as an Assign, or with a type `ty` as a VarDecl."""
    return Assign(name, value, loc=loc) if ty is None else VarDecl(ty, name, value, loc=loc)


class _Parser:
    """Recursive descent over the `(kind, text, line, col)` tuples of
    `tokenize`, so `t[0]` is a token's kind, `t[1]` its text and `t[2]`,
    `t[3]` its line and col. Two tokens of lookahead (`at_sym(s, 1)`) suffice,
    plus one backtrack in a `for` header to tell a foreach from a counted loop.

    A symbol's or keyword's text belongs to no other kind of token, so the
    lookahead helpers compare text alone. The token list is padded with a
    second eof, so `at_sym(s, 1)` needs no bounds check; `next` never moves
    past the first eof.
    """

    def __init__(self, tokens: list):
        self.toks = tokens + tokens[-1:]
        self.pos = 0
        self.depth = 0  # open nesting levels; see MAX_NESTING

    # ------------------------------------------------------------ utilities

    def next(self) -> tuple:
        t = self.toks[self.pos]
        if t[0] != "eof":
            self.pos += 1
        return t

    def at_sym(self, s: str, ahead: int = 0) -> bool:
        return self.toks[self.pos + ahead][1] == s

    at_kw = at_sym

    def expect_sym(self, s: str) -> tuple:
        t = self.toks[self.pos]
        if t[1] != s:
            raise ParseError(t[2], t[3], f"'{s}'", t[1])
        self.pos += 1
        return t

    expect_kw = expect_sym

    def expect_ident(self, what: str = "identifier") -> tuple:
        t = self.toks[self.pos]
        if t[0] != "ident":
            raise ParseError(t[2], t[3], what, t[1])
        self.pos += 1
        return t

    def at_call(self) -> bool:
        """At `IDENT (`, the start of a method call."""
        return self.toks[self.pos][0] == "ident" and self.toks[self.pos + 1][1] == "("

    def loc(self) -> Loc:
        t = self.toks[self.pos]
        return Loc(t[2], t[3])

    def fail(self, expected: str) -> ParseError:
        t = self.toks[self.pos]
        return ParseError(t[2], t[3], expected, t[1])

    def enter(self) -> None:
        """Open one nesting level at the current token; close it with
        `self.depth -= 1`."""
        if self.depth == MAX_NESTING:
            raise self.fail(f"nesting depth at most {MAX_NESTING}")
        self.depth += 1

    # ------------------------------------------------------------ types

    def at_type(self) -> bool:
        return self.toks[self.pos][1] in _TYPE_STARTS

    def parse_type(self) -> Type:
        _, name, line, col = self.toks[self.pos]
        if name not in _TYPE_STARTS:
            raise self.fail("a type")
        self.pos += 1
        if name == "List" or name == "Iterator":
            self.enter()
            self.expect_sym("<")
            elem = self.parse_type()
            if elem == VOID:
                raise ParseError(line, col, "non-void element type", "void")
            self.expect_sym(">")
            self.depth -= 1
            base = list_of(elem) if name == "List" else iterator_of(elem)
        else:
            base = _BASE_TYPES[name]
        while self.at_sym("[") and self.at_sym("]", 1):
            self.pos += 2
            if base == VOID:
                raise ParseError(line, col, "non-void element type", "void[]")
            base = OBJECT_ARRAY if base == OBJECT else array_of(base)
        return base

    # ------------------------------------------------------------ program

    def parse_program(self) -> Program:
        methods = []
        seen = set()
        while self.toks[self.pos][0] != "eof":
            m = self.parse_method()
            if m.name in seen:
                raise ParseError(m.loc.line, m.loc.col, "a new method name",
                                 f"duplicate method '{m.name}'")
            seen.add(m.name)
            methods.append(m)
        return Program(methods)

    def parse_method(self) -> MethodDef:
        loc = self.loc()
        ret_type = self.parse_type()
        name = self.expect_ident("method name")[1]
        self.expect_sym("(")
        params = []
        seen = set()
        if not self.at_sym(")"):
            while True:
                pt = self.parse_type()
                if pt == VOID:
                    raise self.fail("non-void parameter type")
                _, pname, line, col = self.expect_ident("parameter name")
                if pname in seen:
                    raise ParseError(line, col, "a new parameter name",
                                     f"duplicate parameter '{pname}'")
                seen.add(pname)
                params.append(Param(pname, pt))
                if self.at_sym(","):
                    self.next()
                    continue
                break
        self.expect_sym(")")
        self.expect_sym("{")
        body = self.parse_seq(in_loop=False)
        self.expect_sym("}")
        return MethodDef(ret_type, name, params, body, loc=loc)

    # ------------------------------------------------------------ statements

    def parse_seq(self, in_loop: bool) -> list:
        """Statements up to '}' . A `return` must be the last statement."""
        stmts = []
        toks = self.toks
        while toks[self.pos][1] != "}" and toks[self.pos][0] != "eof":
            if stmts and isinstance(stmts[-1], Return):
                t = toks[self.pos]
                raise ParseError(t[2], t[3], "'}' (return must be the last "
                                 "statement in its block)", t[1])
            stmts.append(self.parse_stmt(in_loop))
        return stmts

    def parse_body(self, in_loop: bool) -> list:
        """Either a braced block or a single statement; one nesting level."""
        self.enter()
        if self.at_sym("{"):
            self.pos += 1
            stmts = self.parse_seq(in_loop)
            self.expect_sym("}")
        else:
            stmts = [self.parse_stmt(in_loop)]
        self.depth -= 1
        return stmts

    def parse_stmt(self, in_loop: bool) -> Stmt:
        kind, text, line, col = self.toks[self.pos]
        loc = Loc(line, col)
        if kind == "ident":
            if self.at_sym("[", 1):  # a cell write, which no `for` update may be
                self.pos += 2
                index = self.parse_expr()
                self.expect_sym("]")
                self.expect_sym("=")
                st = AssignIndex(text, index, self.parse_expr(), loc=loc)
            else:
                st = self.parse_assign_or_call(loc)
            self.expect_sym(";")
            return st
        if text == "if":
            return self.parse_if(loc, in_loop)
        if text == "while":
            self.pos += 1
            self.expect_sym("(")
            cond = self.parse_expr()
            self.expect_sym(")")
            body = self.parse_body(in_loop=True)
            return While(cond, body, loc=loc)
        if text == "do":
            self.pos += 1
            body = self.parse_body(in_loop=True)
            self.expect_kw("while")
            self.expect_sym("(")
            cond = self.parse_expr()
            self.expect_sym(")")
            self.expect_sym(";")
            return DoWhile(body, cond, loc=loc)
        if text == "for":
            return self.parse_for(loc)
        if text == "return":
            if in_loop:
                raise ParseError(line, col, "a statement",
                                 "'return' (not allowed inside a loop)")
            self.pos += 1
            value = self.parse_value()
            self.expect_sym(";")
            return Return(value, loc=loc)
        if text == "print":
            self.pos += 1
            self.expect_sym("(")
            value = self.parse_expr()
            self.expect_sym(")")
            self.expect_sym(";")
            return Print(value, loc=loc)
        if text == "{":
            return Block(self.parse_body(in_loop), loc=loc)
        if text in _TYPE_STARTS:
            st = self.parse_decl(loc)
            self.expect_sym(";")
            return st
        raise self.fail("a statement")

    def parse_if(self, loc: Loc, in_loop: bool) -> Stmt:
        self.expect_kw("if")
        self.expect_sym("(")
        cond = self.parse_expr()
        self.expect_sym(")")
        then = self.parse_body(in_loop)
        orelse = None
        if self.at_kw("else"):
            self.pos += 1
            orelse = self.parse_body(in_loop)
        return If(cond, then, orelse, loc=loc)

    def parse_value(self) -> Expr:
        """A call or an expression: what a declaration, an assignment or a
        `return` holds."""
        if self.at_call():
            name = self.next()[1]
            return Call(name, self.parse_expr_list("(", ")"))
        return self.parse_expr()

    def parse_decl(self, loc: Loc) -> Stmt:
        """`type name = value`."""
        ty = self.parse_decl_type()
        name = self.expect_ident("variable name")[1]
        self.expect_sym("=")
        return _bind(name, ty, self.parse_value(), loc)

    def parse_decl_type(self) -> Type:
        ty = self.parse_type()
        if ty == VOID:
            raise self.fail("a non-void declaration type")
        return ty

    def parse_assign_or_call(self, loc: Loc) -> Stmt:
        """`f(...)` or `name = value`: a statement or a `for` update."""
        name = self.expect_ident("variable name")[1]
        if self.at_sym("("):
            return CallStmt(Call(name, self.parse_expr_list("(", ")")), loc=loc)
        self.expect_sym("=")
        return _bind(name, None, self.parse_value(), loc)

    def parse_for(self, loc: Loc) -> Stmt:
        self.expect_kw("for")
        self.expect_sym("(")
        # foreach: `for (type name : collection)`
        if self.at_type():
            save = self.pos
            elem_type = self.parse_decl_type()
            if self.toks[self.pos][0] == "ident" and self.at_sym(":", 1):
                elem = self.expect_ident()[1]
                self.expect_sym(":")
                coll = self.parse_expr()
                self.expect_sym(")")
                body = self.parse_body(in_loop=True)
                return Foreach(elem_type, elem, coll, body, loc=loc)
            self.pos = save
        init = [] if self.at_sym(";") else self.parse_for_init()
        self.expect_sym(";")
        cond = BoolLit(True) if self.at_sym(";") else self.parse_expr()
        self.expect_sym(";")
        update = [] if self.at_sym(")") else [self.parse_assign_or_call(self.loc())]
        while self.at_sym(","):
            self.pos += 1
            update.append(self.parse_assign_or_call(self.loc()))
        self.expect_sym(")")
        body = self.parse_body(in_loop=True)
        return For(init, cond, update, body, loc=loc)

    def parse_for_init(self) -> list:
        """`type d1 = e1, d2 = e2` or `n1 = e1, n2 = e2`, every part at the
        header's first token; no call, as in any expression."""
        loc = self.loc()
        ty = self.parse_decl_type() if self.at_type() else None
        init = []
        while True:
            name = self.expect_ident("variable name")[1]
            self.expect_sym("=")
            init.append(_bind(name, ty, self.parse_expr(), loc))
            if not self.at_sym(","):
                return init
            self.pos += 1

    # ------------------------------------------------------------ expressions

    def parse_expr(self, min_prec: int = 1) -> Expr:
        """Precedence climbing (Norvell, "Parsing Expressions by Recursive
        Descent"): a binary expression whose operators all bind at least as
        tightly as `min_prec`. The right operand only takes tighter operators,
        which makes every level left-associative. A variable or int literal
        that no `(` or `[` follows is built here, the commonest operand."""
        toks = self.toks
        t = toks[self.pos]
        kind = t[0]
        if (kind == "ident" or kind == "int") and toks[self.pos + 1][1] not in ("(", "["):
            self.pos += 1
            lhs = Var(t[1]) if kind == "ident" else IntLit(_int_value(t, t[1]))
        else:
            lhs = self.parse_unary()
        while True:
            op = toks[self.pos][1]
            prec = BINARY_PREC.get(op, 0)
            if prec < min_prec:
                return lhs
            self.pos += 1
            lhs = Binary(op, lhs, self.parse_expr(prec + 1))

    def parse_unary(self) -> Expr:
        """A prefix operator or cast, then a primary with any `[index]`."""
        toks = self.toks
        t = toks[self.pos]
        text = t[1]
        if text == "-":
            # fold a negated numeric literal so INT_MIN is writable and
            # printed negative literals re-parse to the same tree
            lit = toks[self.pos + 1]
            if lit[0] == "int":
                self.pos += 2
                return IntLit(_int_value(t, "-" + lit[1]))
            if lit[0] == "double":
                self.pos += 2
                return DoubleLit(_double_value(t, "-" + lit[1]))
        if text == "-" or text == "!":
            self.enter()
            self.pos += 1
            e = Unary(text, self.parse_unary())
            self.depth -= 1
            return e
        if text == "(" and toks[self.pos + 1][1] in _TYPE_STARTS:
            self.enter()
            self.pos += 1
            ty = self.parse_type()
            self.expect_sym(")")
            if ty == VOID:
                raise self.fail("a non-void cast type")
            e = Cast(ty, self.parse_unary())
            self.depth -= 1
            return e
        e = self.parse_primary()
        while toks[self.pos][1] == "[":
            e = Index(e, self.parse_enclosed("[", "]"))
        return e

    def parse_primary(self) -> Expr:
        t = self.toks[self.pos]
        kind, text, line, col = t
        if kind == "ident":
            if self.toks[self.pos + 1][1] == "(":
                raise ParseError(line, col, "an expression",
                                 f"'{text}(' (method calls cannot appear inside expressions)")
            self.pos += 1
            return Var(text)
        if kind == "int":
            self.pos += 1
            return IntLit(_int_value(t, text))
        if kind == "double":
            self.pos += 1
            return DoubleLit(_double_value(t, text))
        if text == "(":
            return self.parse_enclosed("(", ")")
        if text == "true" or text == "false":
            self.pos += 1
            return BoolLit(text == "true")
        if text == "length":
            self.pos += 1
            return Length(self.parse_enclosed("(", ")"))
        if text in BUILTIN_NAMES:
            self.pos += 1
            return Builtin(text, self.parse_expr_list("(", ")"))
        if text == "new":
            return self.parse_collection_literal()
        raise self.fail("an expression")

    def parse_collection_literal(self) -> Expr:
        # `new T[] { ... }` or `new List<T> { ... }`; parse_type consumes any
        # [] suffix itself, so `new List<T>[] { ... }` lands in the array case
        self.expect_kw("new")
        ty = self.parse_type()
        if ty.kind == "list":
            return ListLit(ty.elem, self.parse_expr_list("{", "}"))
        if ty == OBJECT_ARRAY:
            elem = OBJECT
        elif ty.kind == "array":
            elem = ty.elem
        else:
            raise self.fail("an array or list type after 'new'")
        return ArrayLit(elem, self.parse_expr_list("{", "}"))

    def parse_expr_list(self, open_: str, close: str) -> list:
        """`open [expr (',' expr)*] close`, one nesting level."""
        self.enter()
        self.expect_sym(open_)
        exprs = []
        if not self.at_sym(close):
            while True:
                exprs.append(self.parse_expr())
                if self.at_sym(","):
                    self.pos += 1
                    continue
                break
        self.expect_sym(close)
        self.depth -= 1
        return exprs

    def parse_enclosed(self, open_: str, close: str) -> Expr:
        """`open expr close`, one nesting level."""
        self.enter()
        self.expect_sym(open_)
        e = self.parse_expr()
        self.expect_sym(close)
        self.depth -= 1
        return e


def parse(text: str) -> Program:
    """Parse source text. Raises ParseError on the first violation."""
    return _Parser(tokenize(text)).parse_program()
