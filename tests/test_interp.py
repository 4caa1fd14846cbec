import hashlib
import math

import pytest

from loop2rec.ast import Binary, BoolLit, IntLit, Print, Unary, Var, assign_loop_ids
from loop2rec.checker import check_semantics
from loop2rec.generator import GenConfig, generate
from loop2rec.interp import (
    ArityMismatchError,
    BoolV,
    CallDepthExceeded,
    CollV,
    DivisionByZeroError,
    DoubleV,
    EmptyStateError,
    Frame,
    IndexOutOfBoundsError,
    InterpError,
    IntV,
    MissingReturnError,
    SingleFrameError,
    State,
    StateRecorder,
    StepBudgetExceeded,
    TypeMismatchError,
    UnboundVariableError,
    add_frame,
    eval_expr,
    rem_frame,
    render_value,
    run,
    upd_r,
    upd_v,
    upd_vr,
    values_equal,
)
from loop2rec.parser import parse
from loop2rec.printer import pretty_print
from loop2rec.transform import TransformOptions, transform_program

from conftest import CORPUS_FILES, TERMINATING, corpus_text


def state(*frames):
    return State([Frame(dict(f)) for f in frames])


def bindings(s):
    return [dict(f.bindings) for f in s.frames]


# ------------------------------------------------------------- state ops


def test_upd_v_rebinds_top_frame():
    s = state({"x": IntV(1)})
    upd_v(s, "x", IntV(2))
    assert bindings(s) == [{"x": IntV(2)}]


def test_upd_v_empty_state_errors():
    with pytest.raises(EmptyStateError):
        upd_v(state(), "x", IntV(2))


def test_upd_v_touches_only_the_last_frame():
    s = state({"x": IntV(1)}, {"x": IntV(5)})
    upd_v(s, "x", IntV(9))
    assert bindings(s) == [{"x": IntV(1)}, {"x": IntV(9)}]


def test_upd_r_records_return_value():
    s = state({"b": DoubleV(2.0)})
    upd_r(s, DoubleV(2.0))
    assert s.top().ret_slot == DoubleV(2.0)
    assert bindings(s) == [{"b": DoubleV(2.0)}]


def test_upd_r_empty_state_errors():
    with pytest.raises(EmptyStateError):
        upd_r(state(), IntV(1))


def test_upd_r_only_top_frame_gains_slot():
    s = state({"a": IntV(0)}, {"b": IntV(1)})
    upd_r(s, IntV(7))
    assert s.frames[0].ret_slot is None
    assert s.frames[1].ret_slot == IntV(7)


def test_upd_vr_copies_return_into_penultimate():
    # x starts at z0 in both frames; the callee computed and returned z1
    z0, z1 = IntV(0), IntV(1)
    s = state({"x": z0}, {"x": z1})
    upd_r(s, z1)
    upd_vr(s, "x")
    assert bindings(s) == [{"x": z1}, {"x": z1}]
    assert s.top().ret_slot == z1


def test_upd_vr_single_frame_errors():
    s = state({"x": IntV(1)})
    upd_r(s, IntV(1))
    with pytest.raises(SingleFrameError):
        upd_vr(s, "x")


def test_upd_vr_without_return_errors():
    with pytest.raises(MissingReturnError):
        upd_vr(state({"x": IntV(1)}, {"x": IntV(2)}), "x")


def test_upd_vr_creates_missing_binding():
    s = state({}, {"x": IntV(2)})
    upd_r(s, IntV(2))
    upd_vr(s, "y")
    assert s.frames[0].bindings == {"y": IntV(2)}


def test_add_frame_binds_evaluated_arguments():
    # arguments are evaluated in the caller's frame, then the frame is pushed
    from loop2rec.ast import Var
    s = state({"x": DoubleV(4.0), "b": DoubleV(4.0)})
    values = [eval_expr(Var("x"), s), eval_expr(Var("b"), s)]
    add_frame(s, ["x", "b"], values)
    assert bindings(s)[-1] == {"x": DoubleV(4.0), "b": DoubleV(4.0)}


def test_add_frame_zero_params():
    s = state({"x": IntV(1)})
    add_frame(s, [], [])
    assert bindings(s)[-1] == {}


def test_add_frame_arity_mismatch():
    with pytest.raises(ArityMismatchError):
        add_frame(state(), ["a"], [])


def test_rem_frame_cases():
    s = state({"a": IntV(0)}, {"b": IntV(1)})
    rem_frame(s)
    assert len(s.frames) == 1
    rem_frame(s)
    assert s.frames == []
    with pytest.raises(EmptyStateError):
        rem_frame(s)


# ------------------------------------------------------------ evaluation


def eval_src(expr_src: str, frame: dict):
    program = parse(f"void m() {{ bool probe = {expr_src}; }}")
    e = program.methods[0].body[0].value
    return eval_expr(e, state(frame))


def test_eval_termination_condition_false_at_root():
    v = eval_src("abs(b * b - x) > 1e-12",
                 {"x": DoubleV(4.0), "b": DoubleV(2.0)})
    assert v.value is False


def test_eval_variable_lookup():
    from loop2rec.ast import Var
    assert eval_expr(Var("x"), state({"x": DoubleV(4.0)})) == DoubleV(4.0)


def test_eval_first_newton_step():
    # one refinement from b = 4 toward sqrt(4): ((4/4) + 4) / 2 = 2.5 by hand
    program = parse("void m() { double r = ((4.0 / 4.0) + 4.0) / 2.0; }")
    v = eval_expr(program.methods[0].body[0].value, state({}))
    assert v == DoubleV(2.5)


def test_eval_nan_propagates():
    v = eval_src("nan() + 1.0 > 0.0", {})
    assert v.value is False  # NaN comparisons are false
    program = parse("void m() { double r = nan() * 0.0; }")
    v = eval_expr(program.methods[0].body[0].value, state({}))
    assert math.isnan(v.value)


def test_integer_division_truncates_toward_zero():
    program = parse("void m() { int q = 0 - 7; }")
    neg7 = eval_expr(program.methods[0].body[0].value, state({}))
    s = state({"a": neg7, "b": IntV(2)})
    program = parse("void m() { int q = a / b; }")
    assert eval_expr(program.methods[0].body[0].value, s) == IntV(-3)


def test_integer_division_by_zero_errors():
    program = parse("void m() { int q = 1 / 0; }")
    with pytest.raises(DivisionByZeroError):
        eval_expr(program.methods[0].body[0].value, state({}))


def test_double_division_by_zero_is_ieee():
    program = parse("void m() { double q = 1.0 / 0.0; }")
    assert eval_expr(program.methods[0].body[0].value, state({})).value == math.inf
    program = parse("void m() { double q = 0.0 / 0.0; }")
    assert math.isnan(eval_expr(program.methods[0].body[0].value, state({})).value)


def test_int_arithmetic_wraps_32_bits():
    s = state({"big": IntV(2147483647)})
    program = parse("void m() { int q = big + 1; }")
    assert eval_expr(program.methods[0].body[0].value, s) == IntV(-2147483648)


def test_abs_wraps_at_int_min():
    program = parse("void m() { int q = abs(-2147483648); }")
    assert eval_expr(program.methods[0].body[0].value, state({})) == IntV(-2147483648)


def test_short_circuit_skips_rhs():
    # the rhs would divide by zero; && must never reach it
    program = parse("void m() { bool ok = false && 1 / 0 == 0; }")
    assert eval_expr(program.methods[0].body[0].value, state({})).value is False


def test_unbound_variable_errors():
    from loop2rec.ast import Var
    with pytest.raises(UnboundVariableError):
        eval_expr(Var("ghost"), state({}))
    with pytest.raises(EmptyStateError):
        eval_expr(Binary("+", IntLit(1), Var("x")), state())
    assert eval_expr(IntLit(1), state()) == IntV(1)


def test_index_out_of_bounds():
    program = parse("void m() { double q = new double[] { 1.0 }[3]; }")
    with pytest.raises(IndexOutOfBoundsError):
        eval_expr(program.methods[0].body[0].value, state({}))


def test_iterator_builtins_walk_a_list():
    program = parse("""
void m() {
    List<double> l = new List<double> { 1.5, 2.5 };
    Iterator<double> it = iterator(l);
}
""")
    s = state({})
    lst = eval_expr(program.methods[0].body[0].value, s)
    upd_v(s, "l", lst)
    it = eval_expr(program.methods[0].body[1].value, s)
    upd_v(s, "it", it)
    seen = []
    from loop2rec.ast import Builtin, Var
    while eval_expr(Builtin("hasNext", [Var("it")]), s).value:
        seen.append(eval_expr(Builtin("next", [Var("it")]), s).value)
    assert seen == [1.5, 2.5]
    with pytest.raises(IndexOutOfBoundsError):
        eval_expr(Builtin("next", [Var("it")]), s)


# ------------------------------------------------------------------- runs


def run_src(src: str, budget: int = 1_000_000):
    return run(parse(src), budget=budget)


def test_run_sqrt_four():
    trace = run(parse(corpus_text("sqrt.mj")))
    value = trace.final_bindings["r"]
    assert abs(value.value - math.sqrt(4.0)) <= 1e-6
    assert trace.prints == [repr(value.value)]


def test_run_sqrt_negative_is_nan():
    src = corpus_text("sqrt.mj").replace("sqrt(4.0)", "sqrt(-1.0)")
    trace = run(parse(src))
    assert math.isnan(trace.final_bindings["r"].value)
    assert trace.prints == ["NaN"]


def test_run_infinite_loop_hits_budget():
    with pytest.raises(StepBudgetExceeded):
        run(parse(corpus_text("infinite.mj")), budget=100_000)


def test_call_by_value_rebinding_invisible_to_caller():
    trace = run_src("""
void touch(int x) {
    x = 99;
}

void main() {
    int x = 1;
    touch(x);
    print(x);
}
""")
    assert trace.prints == ["1"]


def test_arrays_share_cells_across_calls():
    trace = run_src("""
void set0(double[] xs) {
    xs[0] = 9.5;
}

void main() {
    double[] xs = new double[] { 1.0 };
    set0(xs);
    print(xs[0]);
}
""")
    assert trace.prints == ["9.5"]


def test_for_with_two_indexes():
    # by hand: (0,8)+8 (1,7)+6 (2,6)+4 (3,5)+2 then i=4,j=4 stops -> 20
    trace = run(parse(corpus_text("two_index.mj")))
    assert trace.prints == ["20"]
    assert trace.loop_iterations[0] == 4


def test_nested_whiles():
    # by hand: i=3: 6+3; i=2: 4+2; i=1: 2+1 -> 18
    trace = run(parse(corpus_text("nested.mj")))
    assert trace.prints == ["18"]
    assert trace.loop_iterations == {0: 3, 1: 6}


def test_two_live_totals():
    trace = run(parse(corpus_text("two_live.mj")))
    assert trace.prints == ["15", "120"]  # 5+4+3+2+1 and 5!


def test_do_loop_runs_at_least_once():
    trace = run_src("""
void main() {
    int n = 0;
    do {
        n = n + 1;
    } while (false);
    print(n);
}
""")
    assert trace.prints == ["1"]
    assert trace.loop_iterations[0] == 1


def test_foreach_iterates_in_order():
    trace = run(parse(corpus_text("one_elem.mj")))
    assert trace.prints == ["2.5"]
    assert trace.loop_iterations[0] == 1


def test_entry_result_recorded():
    trace = run_src("int main() { return 41; }")
    assert trace.result == IntV(41)


BOXED = (IntV, DoubleV, BoolV)


def test_the_api_returns_boxed_scalars():
    program = parse("int main() { int i = 0; double d = 0.5; bool ok = true; "
                    "double[] xs = new double[] { 1.5 }; "
                    "while (i < 3) { i = i + 1; } return i; }")
    trace = run(program)
    assert trace.result.__class__ is IntV
    assert {k: v.__class__ for k, v in trace.final_bindings.items()} == {
        "i": IntV, "d": DoubleV, "ok": BoolV, "xs": CollV}
    assert repr(trace.final_bindings["xs"]) == "CollV(double[], [DoubleV(value=1.5)])"
    recorder = StateRecorder()
    run(program, recorder=recorder)
    snapshot_values = [v for _, frames in recorder.events for bindings, ret in frames
                       for v in [*bindings.values(), ret] if v is not None]
    assert {v.__class__ for v in snapshot_values} == {*BOXED, CollV}
    v = eval_expr(Binary("+", Var("i"), IntLit(1)), state({"i": IntV(3)}))
    assert v.__class__ is IntV and v == IntV(4)
    assert eval_expr(Binary("<", Var("d"), Var("i")),
                     state({"d": DoubleV(0.5), "i": 1})) == BoolV(True)


@pytest.mark.parametrize("name", ["nested.mj", "sqrt_for.mj", "foreach_iterable.mj"])
def test_a_run_boxes_only_its_final_bindings_and_result(monkeypatch, name):
    # scalars are raw inside a run, so boxing does not grow with the steps
    made = []
    for cls in BOXED:
        def counting(self, value, _init=cls.__init__):
            made.append(value)
            _init(self, value)
        monkeypatch.setattr(cls, "__init__", counting)
    original = parse(corpus_text(name))
    for program in (original, transform_program(original).program):
        made.clear()
        trace = run(program)
        assert trace.steps > 20
        outputs = [*trace.final_bindings.values(), trace.result]
        assert len(made) <= sum(v.__class__ in BOXED for v in outputs)


def test_determinism_bit_for_bit():
    src = corpus_text("sqrt_for.mj")
    a = run(parse(src))
    b = run(parse(src))
    assert a.prints == b.prints
    assert a.steps == b.steps
    assert a.loop_iterations == b.loop_iterations
    assert a.method_entries == b.method_entries
    assert set(a.final_bindings) == set(b.final_bindings)
    for name in a.final_bindings:
        assert values_equal(a.final_bindings[name], b.final_bindings[name])


def test_values_equal_is_bitwise_for_doubles():
    assert values_equal(DoubleV(math.nan), DoubleV(math.nan))
    assert not values_equal(DoubleV(0.0), DoubleV(-0.0))
    assert not values_equal(DoubleV(1.0), IntV(1))
    # raw values, as cells and a run's own bindings hold them
    assert not values_equal(True, 1)
    assert not values_equal(1, 1.0)
    assert not values_equal(0.0, -0.0)
    assert values_equal(1, IntV(1)) and values_equal(math.nan, DoubleV(math.nan))


def final_bindings(body: str) -> dict:
    return run(parse(f"void main() {{ {body} }}")).final_bindings


def test_values_equal_compares_object_arrays_and_iterators():
    xs = "List<int> xs = new List<int> { 1, 2 }; Iterator<int> it = iterator(xs);"
    a = final_bindings(f"Object[] o = new Object[] {{ 1, true }}; {xs} int v = next(it);")
    same = final_bindings(f"Object[] o = new Object[] {{ 1, true }}; {xs} int v = next(it);")
    other = final_bindings(f"Object[] o = new Object[] {{ 1, false }}; {xs}")
    longer = final_bindings(f"Object[] o = new Object[] {{ 1, true, 2 }}; {xs}")
    assert values_equal(a["o"], same["o"]) and values_equal(a["it"], same["it"])
    assert not values_equal(a["o"], other["o"]) and not values_equal(a["o"], longer["o"])
    assert not values_equal(a["it"], other["it"])  # one position further on


@pytest.mark.parametrize("expr, shown", [
    ("new int[] { 1, 2 }", "[1, 2]"),
    ("new List<double> { 1.5 }", "[1.5]"),
    ("new Object[] { 1, true, 2.5 }", "[1, true, 2.5]"),
    ("iterator(new List<int> { 7 })", "iterator(0)"),
    ("-d", "-1.5"),
    ("-(d - d)", "-0.0"),
])
def test_print_shows_collections_and_negated_doubles(expr, shown):
    assert run(parse(f"void main() {{ double d = 1.5; print({expr}); }}")).prints == [shown]


def test_boxed_values_render_as_print_shows_them():
    bound = final_bindings("int i = 5; double d = -0.0; bool b = true;")
    assert [render_value(bound[n]) for n in ("i", "d", "b")] == ["5", "-0.0", "true"]


def test_a_runtime_error_carries_the_trace_so_far():
    with pytest.raises(DivisionByZeroError) as exc:
        run(parse("void main() { print(1); int n = 0; while (n < 2) { n = n + 1; } "
                  "print(n / (n - n)); }"))
    trace = exc.value.trace
    assert trace.prints == ["1"] and trace.loop_iterations == {0: 2}
    assert trace.steps == 9 and trace.method_entries == {"main": 1}
    with pytest.raises(StepBudgetExceeded) as exc:
        run(parse("void main() { print(1); while (true) { } }"), budget=50)
    assert exc.value.trace.prints == ["1"] and exc.value.trace.steps == 51
    with pytest.raises(InterpError) as exc:  # no entry method: no run began
        run(parse("void helper() { }"))
    assert exc.value.trace is None


def test_values_are_immutable_and_compare_by_class_and_value():
    for v, text in ((IntV(5), "IntV(value=5)"), (DoubleV(0.5), "DoubleV(value=0.5)"),
                    (BoolV(True), "BoolV(value=True)")):
        assert repr(v) == text
        same = type(v)(v.value)
        assert v == same and hash(v) == hash(same) and not v != same
        with pytest.raises(AttributeError, match="^cannot assign to field 'value'$"):
            v.value = v.value
        with pytest.raises(AttributeError, match="^cannot delete field 'value'$"):
            del v.value
        with pytest.raises(AttributeError, match="^cannot assign to field 'other'$"):
            v.other = 1
    assert IntV(1) != BoolV(True) and IntV(1) != DoubleV(1.0) and IntV(1) != 1
    assert IntV(1) != IntV(2)


def test_loop_iterations_are_keyed_in_document_order():
    programs = [parse(corpus_text(n)) for n in TERMINATING]
    programs += [generate(GenConfig(seed=s, max_depth=4, max_loops=6)) for s in range(30)]
    for p in programs:
        n = assign_loop_ids(p)
        assert list(run(p).loop_iterations) == list(range(n))


def test_frame_balance_every_push_is_popped():
    # one frame (the entry activation) remains at the end of every run
    programs = [parse(corpus_text(n)) for n in
                ("sqrt.mj", "nested.mj", "foreach_iterable.mj")]
    programs += [generate(GenConfig(seed=s)) for s in range(30)]
    programs += [transform_program(p).program for p in programs[:10]]
    for program in programs:
        rec = StateRecorder()
        run(program, recorder=rec)
        ops = rec.ops()
        assert ops.count("add_frame") == ops.count("rem_frame") + 1


# ----------------------------------------------------- operator fast paths


def run_prints(body: str):
    return run_src(f"void main() {{\n{body}\n}}").prints


def test_mixed_int_double_arithmetic_and_comparison():
    assert run_prints("print(1 + 0.5); print(0.5 * 2); print(3 - 0.5); "
                      "print(7 / 2.0); print(7 / 2);") == ["1.5", "1.0", "2.5", "3.5", "3"]
    assert run_prints("print(1 < 1.5); print(2.0 >= 2); print(1 == 1.0); "
                      "print(2 != 2.0);") == ["true", "true", "true", "false"]


def test_equality_on_bools_and_numbers():
    assert run_prints("print(true == true); print(true != false); "
                      "print(false == true); print(true != true);") == [
        "true", "true", "false", "false"]
    assert run_prints("print(3 == 3); print(3 != 4); print(2.5 == 2.5); "
                      "print(-0.0 == 0.0);") == ["true", "true", "true", "true"]


def test_int_multiplication_overflow_and_negated_int_min():
    assert run_prints("int big = 65536; print(big * big); print(46341 * 46341); "
                      "print(-2147483647 * 3);") == ["0", "-2147479015", "-2147483645"]
    assert run_prints("int m = -2147483648; print(-m); print(m - 1);") == [
        "-2147483648", "2147483647"]


def test_mixed_operands_promote_without_wrapping():
    assert run_prints("print(2147483647 + 0.5); print(-2147483648 - 1.0); print(0 * -1.0); "
                      "print(1 / 0.0); print(0 / 0.0);") == [
        "2147483647.5", "-2147483649.0", "-0.0", "Infinity", "NaN"]


@pytest.mark.parametrize("body, message", [
    ("Object[] o = new Object[] { 1.5 };\nint i = (int) o[0];", "cannot cast 1.5 to int"),
    ("Object[] o = new Object[] { 2 };\ndouble d = (double) o[0];", "cannot cast 2 to double"),
    ("print(true == 1);", "'==' needs a number, got true"),
])
def test_scalar_classes_stay_apart_at_run_time(body, message):
    with pytest.raises(TypeMismatchError) as exc:
        run_prints(body)
    assert exc.value.message == message


CAST_TARGETS = ["int", "double", "bool", "double[]", "int[]", "List<double>", "Object[]",
                "Iterator<double>", "Object"]

# (a value of each runtime type, as print shows it, the targets it casts to)
CAST_VALUES = [
    ("7", "7", {"int", "Object"}),
    ("2.5", "2.5", {"double", "Object"}),
    ("true", "true", {"bool", "Object"}),
    ("new double[] { 1.5 }", "[1.5]", {"double[]", "Object"}),
    ("new int[] { 2 }", "[2]", {"int[]", "Object"}),
    ("l", "[0.5]", {"List<double>", "Object"}),
    ("new Object[] { 1, false }", "[1, false]", {"Object[]", "Object"}),
    ("iterator(l)", "iterator(0)", {"Iterator<double>", "Object"}),
]


@pytest.mark.parametrize("value, shown, targets", CAST_VALUES)
@pytest.mark.parametrize("target", CAST_TARGETS)
def test_a_cast_passes_only_to_the_values_type_or_object(value, shown, targets, target):
    # checked programs: the checker lets any cast from an Object cell through
    src = ("void main() {\n    List<double> l = new List<double> { 0.5 };\n"
           f"    Object[] o = new Object[] {{ {value} }};\n    print(({target}) o[0]);\n}}\n")
    assert check_semantics(parse(src)) == []
    if target in targets:
        assert run_src(src).prints == [shown]
    else:
        assert run_error_texts(src) == [
            f"4:5: TypeMismatch: cannot cast {shown} to {target}"] * 3


def test_nan_comparisons_are_false_except_not_equal():
    assert run_prints("double n = nan(); print(n < 1.0); print(n >= n); "
                      "print(n == n); print(n != n); print(n > 1); print(1 <= n);") == [
        "false", "false", "false", "true", "false", "false"]


@pytest.mark.parametrize("e, message", [
    (Binary("+", BoolLit(True), IntLit(1)), "'+' needs a number, got true"),
    (Binary("<", IntLit(1), BoolLit(False)), "'<' needs a number, got false"),
    (Binary("==", BoolLit(True), IntLit(1)), "'==' needs a number, got true"),
    (Binary("&&", IntLit(1), BoolLit(True)), "'&&' needs a bool, got 1"),
    (Binary("||", BoolLit(False), IntLit(2)), "'||' needs a bool, got 2"),
    (Unary("-", BoolLit(True)), "unary '-' needs a number, got true"),
    (Binary("%", IntLit(1), IntLit(2)), "unknown operator '%'"),
    (Unary("~", BoolLit(True)), "unknown operator '~'"),
])
def test_ill_typed_operands_are_type_mismatches(e, message):
    with pytest.raises(TypeMismatchError) as exc:
        eval_expr(e, state({}))
    assert exc.value.message == message
    assert exc.value.loc is None


def test_deep_expression_chain_runs():
    # one host frame per nesting level keeps 20,000 terms under the limit
    trace = run_src("void main() { print(" + "+".join(["1"] * 20_000) + "); }")
    assert trace.prints == ["20000"]


# ---------------------------------------------------------- error locations


def run_error_texts(src: str, budget: int = 1_000_000) -> list:
    """The error text of a failing run: plain, with a StateRecorder, and
    with a tracer attached."""
    program = parse(src)
    texts = []
    for hooks in ({}, {"recorder": StateRecorder()},
                  {"tracer": lambda rule, loc, depth: None}):
        with pytest.raises(InterpError) as exc:
            run(program, budget=budget, **hooks)
        texts.append(str(exc.value))
    return texts


@pytest.mark.parametrize("body, budget, message", [
    ("int z = 0;\n    print(1 / z);", 100,
     "3:5: DivisionByZero: integer division by zero"),
    ("double[] xs = new double[] { 1.0 };\n    double y = xs[2];", 100,
     "3:5: IndexOutOfBounds: index 2 out of bounds for length 1"),
    ("double[] xs = new double[] { 1.0 };\n    xs[3] = 2.0;", 100,
     "3:5: IndexOutOfBounds: index 3 out of bounds for length 1"),
    ("double[] xs = new double[] { 1.0 };\n    xs[1.5] = 2.0;", 100,
     "3:5: TypeMismatch: index must be an int"),
    ("double[] xs = new double[] { 1.0 };\n    xs[true] = 2.0;", 100,
     "3:5: TypeMismatch: index must be an int"),
    ("xs[0] = 1.0;", 100, "2:5: UnboundVariable: variable 'xs' is not bound"),
    ("int xs = 1;\n    xs[0] = 1.0;", 100, "3:5: TypeMismatch: 'xs' is not an array"),
    ("List<double> l = new List<double> { };\n    Iterator<double> it = iterator(l);"
     "\n    if (true) { double v = next(it); }", 100,
     "4:17: IndexOutOfBounds: next() on an exhausted iterator"),
    ("int i = 0;\n    while (true) {\n        i = i + 1;\n    }", 11,
     "4:9: StepBudgetExceeded: exceeded 11 steps"),
    # a condition that is no bool, and a callee that returns no value
    ("int c = 1;\n    while (c) { c = 0; }", 100,
     "3:5: TypeMismatch: while condition needs a bool, got 1"),
    ("if (2) { print(1); }", 100, "2:5: TypeMismatch: if condition needs a bool, got 2"),
    ("do { print(1); } while (3);", 100,
     "2:5: TypeMismatch: do condition needs a bool, got 3"),
    ("for (int i = 0; i; i = i + 1) { print(i); }", 100,
     "2:5: TypeMismatch: for condition needs a bool, got 0"),
    ("if (true) {\n        int r = f(1);\n    }", 100,
     "3:9: MissingReturn: callee returned no value for 'r'"),
])
def test_run_errors_carry_statement_locations(body, budget, message):
    # parse() does not run the checker, which would refuse some of these programs
    src = f"void main() {{\n    {body}\n}}\nint f(int a) {{\n    a = a + 1;\n}}\n"
    assert run_error_texts(src, budget) == [message] * 3


@pytest.mark.parametrize("f_body, call, message", [
    ("return g(a, a);", "f(1)", "5:5: ArityMismatch: 'g' expects 1 arguments, got 2"),
    ("return h(a);", "f(1)", "5:5: UndefinedMethod: no method 'h'"),
    ("if (a > 0) {\n        return g(a, a);\n    }\n    return g(a);", "f(1)",
     "6:9: ArityMismatch: 'g' expects 1 arguments, got 2"),
    ("return g(a);", "f(1, 2)", "8:5: ArityMismatch: 'f' expects 1 arguments, got 2"),
    ("return a / 0;", "f(1)", "5:5: DivisionByZero: integer division by zero"),
])
def test_a_return_error_carries_the_location_of_its_return(f_body, call, message):
    # a tail call's callee is checked at its `return`; a plain call's at the call
    src = (f"double g(int a) {{\n    return a;\n}}\ndouble f(int a) {{\n    {f_body}\n}}\n"
           f"void main() {{\n    double r = {call};\n    print(r);\n}}\n")
    assert run_error_texts(src) == [message] * 3


def _call_inside_print(main):
    # `print(f(1) + 1)` as a hand-built tree: no source puts a call there
    st = main.body[0]
    main.body[0] = Print(Binary("+", st.value, IntLit(1)), loc=st.loc)


@pytest.mark.parametrize("src, edit, message", [
    ("void main() {\n    double[] xs = new double[] { 1.0 };\n    print(xs[true]);\n}", None,
     "3:5: TypeMismatch: index must be an int"),
    ("void main() {\n    int n = 1;\n    print(n[0]);\n}", None,
     "3:5: TypeMismatch: cannot index into 1"),
    ("void main() {\n    print(length(1));\n}", None,
     "2:5: TypeMismatch: length() of non-collection 1"),
    ("void main() {\n    print(iterator(1));\n}", None,
     "2:5: TypeMismatch: iterator() needs a list, got 1"),
    ("void main() {\n    print(hasNext(1));\n}", None,
     "2:5: TypeMismatch: hasNext() needs an iterator, got 1"),
    ("void main() {\n    print(next(1));\n}", None,
     "2:5: TypeMismatch: next() needs an iterator, got 1"),
    ("void main() {\n    int r = f(1);\n}\nint f(int a) {\n    return a;\n}", _call_inside_print,
     "2:5: TypeMismatch: method calls cannot be evaluated as expressions"),
    ("void main() {\n    for (int e : 5) {\n        print(e);\n    }\n}", None,
     "2:5: TypeMismatch: foreach needs an array or list, got 5"),
    ("void main(int x) {\n    print(x);\n}", None,
     "NoEntryMethod: entry method 'main' must take no parameters"),
    # a builtin with the wrong number of arguments
    ("void main() {\n    print(abs());\n}", None,
     "2:5: ArityMismatch: abs() expects 1 argument(s), got 0"),
    ("void main() {\n    print(abs(1, 2));\n}", None,
     "2:5: ArityMismatch: abs() expects 1 argument(s), got 2"),
    ("void main() {\n    print(nan(1));\n}", None,
     "2:5: ArityMismatch: nan() expects 0 argument(s), got 1"),
    ("void main() {\n    int n = 0;\n    while (hasNext()) {\n        n = 1;\n    }\n}", None,
     "3:5: ArityMismatch: hasNext() expects 1 argument(s), got 0"),
])
def test_unchecked_programs_fail_at_run_time(src, edit, message):
    # parse() does not run the checker, which refuses each of these programs
    program = parse(src)
    if edit is not None:
        edit(program.methods[0])
    with pytest.raises(InterpError) as exc:
        run(program)
    assert str(exc.value) == message


def test_a_tail_link_steps_at_its_own_return():
    # the chain begins at the call in main (5:5); every later link is made,
    # and its `invoke` step counted, at the `return` in f (2:5)
    program = parse("int f(int a) {\n    return f(a + 1);\n}\n"
                    "void main() {\n    int r = f(0);\n    print(r);\n}\n")
    events = []
    with pytest.raises(StepBudgetExceeded):
        run(program, budget=40, tracer=lambda rule, loc, depth:
            events.append((rule, str(loc))))
    invokes = [loc for rule, loc in events if rule == "invoke"]
    assert invokes[:3] == ["4:1", "5:5", "2:5"] and set(invokes[2:]) == {"2:5"}
    for budget in (40, 41):  # over the budget at a `return`, then at an `invoke`
        with pytest.raises(StepBudgetExceeded) as exc:
            run(program, budget=budget)
        assert str(exc.value.loc) == "2:5"


def test_an_entry_tail_call_keeps_the_entry_bindings():
    # the tail call replaces main's frame, yet the final bindings are the
    # entry activation's, and the result is the last link's return slot
    trace = run_src("void f(int n) { print(n); }\nvoid main() { int x = 3; return f(x); }")
    assert trace.final_bindings == {"x": IntV(3)} and trace.prints == ["3"]
    trace = run_src("int f(int n) { return n + 1; }\nint main() { int x = 3; return f(x); }")
    assert trace.final_bindings == {"x": IntV(3)} and trace.result == IntV(4)


@pytest.mark.parametrize("optimize", [True, False])
def test_a_tail_chain_holds_one_frame(optimize):
    # the rewrite of the diverging loop is one tail chain until the budget
    # runs out: each link replaces the frame of the link before it
    program = parse(corpus_text("infinite.mj"))
    program = transform_program(program, TransformOptions(optimize=optimize)).program
    depths = []
    with pytest.raises(StepBudgetExceeded):
        run(program, budget=20_000, tracer=lambda rule, loc, depth: depths.append(depth))
    assert len(depths) == 20_000 and max(depths) == 2
    recorder = StateRecorder()
    with pytest.raises(StepBudgetExceeded):
        run(program, budget=20_000, recorder=recorder)
    assert max(len(frames) for _, frames in recorder.events) == 2
    ops = recorder.ops()
    assert ops[:2] == ["add_frame", "add_frame"] and set(ops[2::2]) == {"rem_frame"}
    assert set(ops[3::2]) == {"add_frame"} and len(ops) > 6_000


def test_call_depth_counts_frames_a_tail_link_does_not_add():
    # r's call of s nests; s's tail call of r replaces s's frame, so the
    # limit of 2,000 frames stops both programs after the same 1,999 prints
    direct = "void r(int n) { print(n); r(n + 1); }\nvoid main() { r(1); }"
    relayed = ("void r(int n) { print(n); s(n); }\nvoid s(int n) { return r(n + 1); }\n"
               "void main() { r(1); }")
    for src in (direct, relayed):
        with pytest.raises(CallDepthExceeded) as exc:
            run_src(src)
        assert exc.value.message == "call depth over 2000"
        assert exc.value.trace.prints[-1] == "1999"


# ------------------------------------------------------------ behaviour pin

PIN_BUDGET = 20_000

# sha256 over the rendered runs of pin_programs below (every ExecTrace field,
# or the error's kind, message and location), then the tracer events and
# StateRecorder events of a subset, as the interpreter that dispatched on
# isinstance chains produced them, except that a method's final `return` step
# is traced at the statement, not at the method header (that interpreter with
# only this change gives the same digest); a rewrite of the interpreter must
# match. The subset's rewrites also run printed and re-parsed under the
# tracer, so that the statements a rewrite generates carry locations of their
# own and the digest sees where each of their steps is counted (a tail link's
# `invoke` at its own `return`, say); adding them re-pinned the digest once,
# with the interpreter unchanged. It was re-pinned once more when the three
# collection classes became CollV, whose `repr` the recorder events show
# (with the old `repr`s the digest did not move), and when a list foreach
# stopped taking its collection variable as a parameter. It was re-pinned
# once more when a tail call came to replace its caller's frame: a tail link
# now records `rem_frame` then `add_frame`, no `upd_r` copy-down follows the
# chain, and the tracer's depth counts only non-tail frames (the plain runs
# and the tracer's rules and locations did not move); the hooks then came to
# run on the diverging corpus program as well.
INTERP_PIN_SHA256 = "25adac35378c0084cb9ab3ab31516ca215847cb6e71bda8ce1796ce1db034f1f"


def pin_programs(names, seeds):
    originals = [parse(corpus_text(n)) for n in names]
    originals += [generate(GenConfig(seed=s)) for s in seeds]
    programs = []
    for p in originals:
        programs += [p, transform_program(p).program,
                     transform_program(p, TransformOptions(optimize=False)).program]
    return programs


def render_run(program, budget=PIN_BUDGET, **hooks) -> str:
    try:
        t = run(program, budget=budget, **hooks)
    except InterpError as err:
        return f"{type(err).__name__}|{err.message}|{err.loc}"
    return (f"{t.prints!r}|{list(t.final_bindings.items())!r}|"
            f"{sorted(t.loop_iterations.items())!r}|{list(t.method_entries.items())!r}|"
            f"{t.steps}|{t.result!r}")


def test_runs_tracer_and_recorder_events_are_pinned():
    h = hashlib.sha256()
    for program in pin_programs(CORPUS_FILES, range(100)):
        h.update(render_run(program).encode() + b"\n")
    # the hooks run on every corpus program, the diverging one included (a
    # tail chain holds one frame, so the recorder's copy of the frames per
    # event stays small), and on fewer generated ones
    hooked = pin_programs(CORPUS_FILES, range(20))
    # its rewrites once more, printed and re-parsed, for the locations of
    # the statements they generate; recorder events hold no locations, so
    # these run with the tracer only
    reparsed = [parse(pretty_print(p)) for i, p in enumerate(hooked) if i % 3]
    for k, program in enumerate(hooked + reparsed):
        events = []
        traced = render_run(program, tracer=lambda rule, loc, depth:
                            events.append(f"{rule} {loc} {depth}"))
        h.update("\n".join(events).encode() + b"\n")
        if k < len(hooked):
            assert render_run(program) == traced
            recorder = StateRecorder()
            assert render_run(program, recorder=recorder) == traced
            h.update(repr(recorder.events).encode() + b"\n")
    assert h.hexdigest() == INTERP_PIN_SHA256


def test_a_run_fits_a_budget_of_exactly_its_steps():
    # printed and re-parsed, so that generated programs carry locations
    originals = [parse(corpus_text(n)) for n in TERMINATING]
    originals += [parse(pretty_print(generate(GenConfig(seed=s, **kw))))
                  for s in range(50) for kw in ({}, {"max_depth": 4, "max_loops": 6})]
    for p in originals:
        for program in (p, transform_program(p).program,
                        transform_program(p, TransformOptions(optimize=False)).program):
            events = []
            t = run(program, tracer=lambda rule, loc, depth: events.append((rule, loc)))
            assert len(events) == t.steps
            assert render_run(program, budget=t.steps) == render_run(program, budget=10 ** 9)
            # one step short, traced or not, the run stops at the last event's step
            for traced in (False, True):
                short = []
                tracer = (lambda rule, loc, depth: short.append((rule, loc))) if traced else None
                with pytest.raises(StepBudgetExceeded) as exc:
                    run(program, budget=t.steps - 1, tracer=tracer)
                assert exc.value.loc == events[-1][1]
                assert short == (events[:-1] if traced else [])


def test_final_return_step_is_at_the_return_statement():
    program = parse("int f(int a) {\n    int b = a;\n    return b;\n}\n\n"
                    "void main() {\n    int r = f(2);\n    print(r);\n}\n")
    events = []
    run(program, tracer=lambda rule, loc, depth: events.append(f"{rule} {loc} {depth}"))
    assert events == ["invoke 6:1 0", "invoke 7:5 1", "assign 2:5 2", "return 3:5 2",
                      "print 8:5 1"]
    with pytest.raises(StepBudgetExceeded) as exc:
        run(program, budget=events.index("return 3:5 2"))
    assert str(exc.value) == "3:5: StepBudgetExceeded: exceeded 3 steps"
