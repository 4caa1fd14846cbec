"""Every message of the checker, with its position and its order.

One case per message and per kind of statement or expression that gives
it, plus cases with several errors in one statement. Each case pins the
whole list `check_semantics` returns, as text. A case is source text where
the parser can produce the tree, and a hand-built tree where it cannot: a
void value only arises from a void-typed name, which no source declares,
and `void` casts and calls inside expressions are parse errors."""

import pytest

from loop2rec.ast import (
    OBJECT,
    VOID,
    ArrayLit,
    Binary,
    BoolLit,
    Builtin,
    Call,
    Cast,
    IntLit,
    Loc,
    MethodDef,
    Param,
    Print,
    Program,
    Unary,
    Var,
)
from loop2rec.checker import check_semantics, static_type
from loop2rec.parser import parse


def void_param_printing(value) -> Program:
    """`void main()` beside `void f(void v) { print(value); }`, a tree no
    source gives: a parameter cannot be void."""
    f = MethodDef(VOID, "f", [Param("v", VOID)], [Print(value, loc=Loc(2, 5))], loc=Loc(1, 1))
    return Program([f, MethodDef(VOID, "main", [], [], loc=Loc(4, 1))])


def program_of(case):
    return parse(case) if isinstance(case, str) else case


CASES = {
    # ---- scopes, methods and returns
    "shadowing": (
        "void main() { int x = 1; { int x = 2; } }",
        ["1:28: 'x' shadows a variable already in scope"]),
    "shadowing_parameter": (
        "void f(int a) { double a = 1.0; } void main() { }",
        ["1:17: 'a' shadows a variable already in scope"]),
    "entry_with_parameters": (
        "void main(int a) { }",
        ["1:1: entry method 'main' must take no parameters"]),
    "missing_final_return": (
        "int f() { int x = 1; } void main() { }",
        ["1:1: method 'f' must end with a return of type int"]),
    "void_returns_value": (
        "void f() { return 1; } void main() { }",
        ["1:12: method 'f' is void and cannot return a value"]),
    "return_type_mismatch": (
        "int f() { return true; } void main() { }",
        ["1:11: return type mismatch: expected int, got bool"]),
    "return_call_type_mismatch": (
        "int f() { return g(); } double g() { return 1.0; } void main() { }",
        ["1:11: return type mismatch: expected int, got double"]),
    "void_returns_void_call": ("void f() { return g(); } void g() { } void main() { }", []),
    "void_returns_int_call": (
        "void f() { return g(); } int g() { return 1; } void main() { }",
        ["1:12: method 'f' is void and cannot return a value"]),
    # ---- declarations and assignments
    "cannot_initialize": (
        "void main() { int x = true; }",
        ["1:15: cannot initialize int 'x' from bool"]),
    "assign_undeclared": (
        "void main() { x = 1; }",
        ["1:15: assignment to undeclared variable 'x'"]),
    "cannot_assign": (
        "void main() { int x = 0; x = 1.5; }",
        ["1:26: cannot assign double to int 'x'"]),
    "cell_write_undeclared": (
        "void main() { a[0] = 1; }",
        ["1:15: assignment to undeclared variable 'a'"]),
    "cell_write_not_an_array": (
        "void main() { int a = 0; a[0] = 1; }",
        ["1:26: 'a' is int, not an indexable array"]),
    "cell_write_index_not_int": (
        "void main() { int[] a = new int[] { 1 }; a[true] = 1; }",
        ["1:42: array index must be int, got bool"]),
    "cannot_store": (
        "void main() { int[] a = new int[] { 1 }; a[0] = 1.5; }",
        ["1:42: cannot store double into int[]"]),
    "cell_write_undeclared_all_parts": (
        "void main() { a[i] = b; }",
        [
            "1:15: assignment to undeclared variable 'a'",
            "1:15: use of undeclared variable 'i'",
            "1:15: use of undeclared variable 'b'",
        ]),
    "call_cannot_initialize": (
        "double f() { return 1.0; } void main() { int x = f(); }",
        ["1:42: cannot initialize int 'x' from double"]),
    "call_assign_undeclared": (
        "int f() { return 1; } void main() { x = f(); }",
        ["1:37: assignment to undeclared variable 'x'"]),
    "call_cannot_assign": (
        "double f() { return 1.0; } void main() { int x = 0; x = f(); }",
        ["1:53: cannot assign double to int 'x'"]),
    "call_assign_from_void": (
        "void f() { } void main() { int x = 0; x = f(); }",
        ["1:39: cannot assign void to int 'x'", "1:39: method 'f' is void and returns no value"]),
    "call_declare_from_void": (
        "void f() { } void main() { int x = f(); }",
        ["1:28: cannot initialize int 'x' from void"]),
    # ---- loops and conditions
    "foreach_needs_collection": (
        "void main() { int n = 3; for (int v : n) { } }",
        ["1:26: foreach needs an array or list, got int"]),
    "foreach_element_mismatch": (
        "void main() { for (int v : new double[] { 1.0 }) { } }",
        ["1:15: foreach element type int does not match double[]"]),
    "condition_while": (
        "void main() { while (1) { } }",
        ["1:15: condition must be bool, got int"]),
    "condition_if": (
        "void main() { if (1.5) { } else { } }",
        ["1:15: condition must be bool, got double"]),
    "condition_do": (
        "void main() { do { } while (0); }",
        ["1:15: condition must be bool, got int"]),
    "condition_for": (
        "void main() { for (int i = 0; i; i = i + 1) { } }",
        ["1:15: condition must be bool, got int"]),
    # ---- calls
    "undefined_method": ("void main() { f(); }", ["1:15: call to undefined method 'f'"]),
    "call_arity": (
        "void f(int a) { } void main() { f(); }",
        ["1:33: 'f' expects 1 arguments, got 0"]),
    "call_argument_type": (
        "void f(int a) { } void main() { f(true); }",
        ["1:33: argument 'a' of 'f' expects int, got bool"]),
    # ---- expressions
    "use_undeclared": ("void main() { print(y); }", ["1:15: use of undeclared variable 'y'"]),
    "arithmetic_operands": (
        "void main() { print(1 + true); }",
        ["1:15: operator '+' needs numeric operands, got int and bool"]),
    "comparison_operands": (
        "void main() { print(1.5 < false); }",
        ["1:15: operator '<' needs numeric operands, got double and bool"]),
    "equality_operands": (
        "void main() { print(1 == true); }",
        ["1:15: operator '==' cannot compare int and bool"]),
    "bool_operands": (
        "void main() { print(1 && true); }",
        ["1:15: operator '&&' needs bool operands, got int and bool"]),
    "unary_minus_operand": (
        "void main() { print(-true); }",
        ["1:15: unary '-' needs a numeric operand, got bool"]),
    "unary_not_operand": (
        "void main() { print(!1); }",
        ["1:15: unary '!' needs a bool operand, got int"]),
    "array_element": (
        "void main() { print(new int[] { true }); }",
        ["1:15: array element must be int, got bool"]),
    "list_element": (
        "void main() { print(new List<int> { 1.5 }); }",
        ["1:15: list element must be int, got double"]),
    "index_not_int": (
        "void main() { int[] a = new int[] { 1 }; print(a[true]); }",
        ["1:42: index must be int, got bool"]),
    "cannot_index": ("void main() { int n = 1; print(n[0]); }", ["1:26: cannot index into int"]),
    "length_operand": (
        "void main() { print(length(1)); }",
        ["1:15: length() needs an array or list, got int"]),
    "cannot_cast": ("void main() { print((double) 1); }", ["1:15: cannot cast int to double"]),
    "nan_arity": ("void main() { print(nan(1)); }", ["1:15: nan() expects 0 argument(s), got 1"]),
    "abs_arity": (
        "void main() { print(abs(1, 2)); }",
        ["1:15: abs() expects 1 argument(s), got 2"]),
    "abs_operand": (
        "void main() { print(abs(true)); }",
        ["1:15: abs() needs a numeric argument, got bool"]),
    "iterator_operand": (
        "void main() { print(iterator(1)); }",
        ["1:15: iterator() needs a list, got int"]),
    "has_next_operand": (
        "void main() { print(hasNext(1)); }",
        ["1:15: hasNext() needs an iterator, got int"]),
    "next_operand": (
        "void main() { print(next(new List<int> { 1 })); }",
        ["1:15: next() needs an iterator, got List<int>"]),
    # ---- hand-built trees
    "print_void": (void_param_printing(Var("v")), ["2:5: cannot print a void value"]),
    "object_cell_void": (
        void_param_printing(ArrayLit(OBJECT, [Var("v")])),
        ["2:5: Object[] cells cannot be void"]),
    "cast_to_void": (void_param_printing(Cast(VOID, IntLit(1))), ["2:5: cannot cast to void"]),
    "call_in_expression": (
        void_param_printing(Binary("+", IntLit(1), Call("f", []))),
        ["2:5: method calls may only appear as statements or return values"]),
    # ---- several errors in one statement, in their order
    "assign_undeclared_from_undeclared": (
        "void main() { y = x; }",
        ["1:15: assignment to undeclared variable 'y'", "1:15: use of undeclared variable 'x'"]),
    "call_argument_and_result": (
        "double f(int a) { return 1.0; } void main() { int r = f(true); }",
        [
            "1:47: argument 'a' of 'f' expects int, got bool",
            "1:47: cannot initialize int 'r' from double",
        ]),
    "cannot_initialize_and_shadows": (
        "void main() { int x = 0; { int x = 1.5; } }",
        [
            "1:28: cannot initialize int 'x' from double",
            "1:28: 'x' shadows a variable already in scope",
        ]),
    "call_assign_errors_then_target": (
        "void main() { x = f(y); }",
        ["1:15: call to undefined method 'f'", "1:15: assignment to undeclared variable 'x'"]),
    "binary_operands_before_rule": (
        "void main() { print((u + 1) * (true - v)); }",
        ["1:15: use of undeclared variable 'u'", "1:15: use of undeclared variable 'v'"]),
    "for_header_parts": (
        "void f() { } void main() { for (x = 1.5; 2; y = f()) { print(z); } }",
        [
            "1:33: assignment to undeclared variable 'x'",
            '1:28: condition must be bool, got int',
            "1:56: use of undeclared variable 'z'",
            "1:45: assignment to undeclared variable 'y'",
            "1:45: method 'f' is void and returns no value",
        ]),
    "call_cannot_initialize_and_shadows": (
        "double f() { return 1.0; } void main() { int x = 0; { int x = f(); } }",
        [
            "1:55: cannot initialize int 'x' from double",
            "1:55: 'x' shadows a variable already in scope",
        ]),
    "promotion_reaches_the_message": (
        "void main() { bool b = 1 + 2.0; int c = 3 / 2 + 1; }",
        ["1:15: cannot initialize bool 'b' from double"]),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_checker_message(name):
    case, expected = CASES[name]
    assert [str(e) for e in check_semantics(program_of(case))] == expected


@pytest.mark.parametrize("expr", [Binary("%", IntLit(1), IntLit(2)), Builtin("sqrt", [IntLit(4)])])
def test_unknown_operators_and_builtins_raise(expr):
    with pytest.raises(ValueError):
        check_semantics(void_param_printing(expr))


def test_an_unknown_unary_operator_is_not_taken_for_not():
    with pytest.raises(ValueError, match="^unknown operator ~$"):
        static_type(Unary("~", BoolLit(True)), {})
