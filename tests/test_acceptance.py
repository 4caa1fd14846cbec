"""Acceptance suite. Each test covers one exit criterion at its stated
tolerance and prints one PASS line (visible with `pytest -s` or in captured
output) once its assertions hold."""

import math
import time

import pytest

from loop2rec.ast import (
    Block,
    If,
    MethodDef,
    Program,
    VarDecl,
    is_loop,
    replace,
    structural_eq,
)
from loop2rec.checker import check_semantics
from loop2rec.generator import GenConfig, generate
from loop2rec.interp import IntV, StateRecorder, run, values_equal
from loop2rec.parser import parse
from loop2rec.transform import Mutation, TransformOptions, transform_program
from loop2rec.verify import diff_run, fuzz_campaign, iteration_call_equality

from conftest import corpus_text

SQRT_INPUTS = [-1.0, 0.0, 1.0, 2.0, 4.0, 9.0, 16.0]


@pytest.fixture(scope="module")
def campaign500():
    t0 = time.monotonic()
    summary = fuzz_campaign(500, GenConfig(max_depth=3))
    return summary, time.monotonic() - t0


# --------------------------------------------------------------- criterion 1

GOLDEN_SQRT = """
double sqrt(double x) {
    double b = x;
    if (x < 0.0) {
        b = nan();
    } else {
        if (abs(b * b - x) > 1e-12) {
            b = sqrt_loop(x, b);
        }
    }
    return b;
}

void main() {
    double r = sqrt(4.0);
    print(r);
}

double sqrt_loop(double x, double b) {
    b = ((x / b) + b) / 2.0;
    if (abs(b * b - x) > 1e-12) {
        return sqrt_loop(x, b);
    }
    return b;
}
"""


def test_criterion_1_golden_transformation():
    t0 = time.monotonic()
    result = transform_program(parse(corpus_text("sqrt.mj")))
    assert structural_eq(result.program, parse(GOLDEN_SQRT))
    gen = result.program.method("sqrt_loop")
    # body, then condition + tail call, then the return, in that order
    from loop2rec.ast import Assign, Call, Return
    assert isinstance(gen.body[0], Assign)
    tail = gen.body[1]
    assert isinstance(tail, If)
    assert isinstance(tail.then[0], Return) and isinstance(tail.then[0].value, Call)
    assert tail.then[0].value.method == "sqrt_loop"
    assert isinstance(gen.body[2], Return) and len(gen.body) == 3
    caller = result.program.method("sqrt").body[1].orelse[0]
    assert isinstance(caller, If)
    assert isinstance(caller.then[0].value, Call)
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    print(f"[acceptance] criterion 1 PASS - golden sqrt transformation ({elapsed:.3f}s)")


# --------------------------------------------------------------- criterion 2


def test_criterion_2_reference_examples_equivalent():
    t0 = time.monotonic()
    # (file, literal to replace, replacement pattern, NaN for negative input)
    cases = [
        ("sqrt.mj", "sqrt(4.0)", "sqrt({x})", True),
        ("sqrt_do.mj", "sqrtDo(9.0)", "sqrtDo({x})", False),
        ("sqrt_for.mj", "sqrtFor(16.0)", "sqrtFor({x})", True),
        ("foreach_array.mj", "{ 4.0, 9.0 }", "{{ {x}, 9.0 }}", None),
        ("foreach_iterable.mj", "{ 4.0, 9.0 }", "{{ {x}, 9.0 }}", None),
    ]
    for name, marker, pattern, nan_for_negative in cases:
        base = corpus_text(name)
        assert marker in base, name
        for x in SQRT_INPUTS:
            src = base.replace(marker, pattern.format(x=repr(x)))
            program = parse(src)
            assert check_semantics(program) == []
            report = diff_run(program)
            assert report.equivalent, (name, x, report.detail)

            original = run(program)
            transformed = run(transform_program(program).program)
            assert original.prints == transformed.prints, (name, x)
            if name in ("sqrt.mj", "sqrt_do.mj", "sqrt_for.mj"):
                r_o = original.final_bindings["r"]
                r_t = transformed.final_bindings["r"]
                # bit-identical doubles: both sides run the same float ops
                assert values_equal(r_o, r_t), (name, x)
                if x >= 0.0:
                    assert abs(r_o.value - math.sqrt(x)) <= 1e-6, (name, x)
                elif nan_for_negative:
                    assert math.isnan(r_o.value), (name, x)
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    print(f"[acceptance] criterion 2 PASS - all five sqrt corpus programs "
          f"equivalent over x in {SQRT_INPUTS} ({elapsed:.3f}s)")


# --------------------------------------------------------------- criterion 3


def strip_loops(stmts: list) -> list:
    out = []
    for st in stmts:
        if is_loop(st):
            continue
        if isinstance(st, If):
            out.append(replace(st, then=strip_loops(st.then),
                               orelse=strip_loops(st.orelse) if st.orelse else None))
        elif isinstance(st, Block):
            out.append(replace(st, body=strip_loops(st.body)))
        else:
            out.append(st)
    return out


def top_level_decls(program: Program) -> list:
    entry = program.method(program.entry)
    names = []
    for st in entry.body:
        if isinstance(st, VarDecl):
            names.append(st.name)
    return names


def test_criterion_3_zero_iteration_state_preserved():
    programs = [parse(corpus_text("zero_iter.mj"))]
    programs += [generate(GenConfig(seed=seed, zero_guard_bias=1.0))
                 for seed in range(19)]
    assert len(programs) == 20
    for i, program in enumerate(programs):
        original = run(program)
        assert all(v == 0 for v in original.loop_iterations.values()), f"case {i}"

        # oracle: deleting a zero-iteration loop cannot change anything
        stripped = Program(
            [MethodDef(m.ret_type, m.name, m.params, strip_loops(m.body))
             for m in program.methods],
            entry=program.entry)
        bare = run(stripped)
        assert original.prints == bare.prints, f"case {i}"
        for name in top_level_decls(program):
            assert values_equal(original.final_bindings[name],
                                bare.final_bindings[name]), (i, name)

        # and the transformation preserves the same bindings
        report = diff_run(program)
        assert report.equivalent, (i, report.detail)
        transformed = run(transform_program(program).program)
        for name in top_level_decls(program):
            assert values_equal(original.final_bindings[name],
                                transformed.final_bindings[name]), (i, name)
    print("[acceptance] criterion 3 PASS - 20 zero-iteration programs leave "
          "their state untouched, before/after loop and across the rewrite")


# --------------------------------------------------------------- criterion 4


def counting_program(kind: str, k: int) -> str:
    if kind == "while":
        return (f"void main() {{ int c = {k}; int t = 0; "
                f"while (c > 0) {{ t = t + 1; c = c - 1; }} print(t); }}")
    if kind == "for":
        return (f"void main() {{ int t = 0; "
                f"for (int i = {k}; i > 0; i = i - 1) {{ t = t + 1; }} print(t); }}")
    if kind == "do":
        return (f"void main() {{ int c = {k}; int t = 0; "
                f"do {{ t = t + 1; c = c - 1; }} while (c > 0); print(t); }}")
    elems = ", ".join(["1.0"] * k)
    return (f"void main() {{ double t = 0.0; "
            f"for (double v : new double[] {{ {elems} }}) {{ t = t + v; }} print(t); }}")


def test_criterion_4_iteration_call_equality():
    for k in list(range(21)) + [100]:
        (row,) = iteration_call_equality(parse(counting_program("while", k)))
        assert (row.iterations, row.entries) == (k, k)
    for kind in ("for", "foreach", "do"):
        for k in (0, 1, 5, 20, 100):
            (row,) = iteration_call_equality(parse(counting_program(kind, k)))
            expected = max(1, k) if kind == "do" else k
            assert (row.iterations, row.entries) == (expected, expected), (kind, k)
    print("[acceptance] criterion 4 PASS - k iterations = k method entries for "
          "k in 0..20 and 100, all four loop kinds")


# --------------------------------------------------------------- criterion 5


def test_criterion_5_tail_structure(campaign500):
    from loop2rec.verify import tail_position_check

    from conftest import CORPUS_FILES
    checked = 0
    for name in CORPUS_FILES:
        result = transform_program(parse(corpus_text(name)))
        for row in result.report:
            assert tail_position_check(result.program.method(row.loop_method_name)), name
            checked += 1
    summary, _ = campaign500
    assert summary.tail_ok
    print(f"[acceptance] criterion 5 PASS - tail position holds for {checked} "
          f"corpus methods and every generated method across the 500-program batch")


# --------------------------------------------------------------- criterion 6


def test_criterion_6_fuzz_campaign(campaign500):
    summary, elapsed = campaign500
    assert summary.total == 500
    assert summary.equivalent == 500, summary.mismatches[:3]
    assert summary.budget_exceedances == 0
    assert summary.iter_call_ok
    assert elapsed < 60.0
    print(f"[acceptance] criterion 6 PASS - 500/500 equivalent, 0 budget "
          f"exceedances, {elapsed:.1f}s")


# --------------------------------------------------------------- criterion 7


def test_criterion_7_mutation_sensitivity():
    caught = {}
    for mutation in Mutation:
        summary = fuzz_campaign(500, opts=TransformOptions(mutation=mutation),
                                stop_on_first=True)
        assert summary.mismatches, f"mutant {mutation.value} escaped the campaign"
        caught[mutation.value] = summary.mismatches[0][0]
    print(f"[acceptance] criterion 7 PASS - all three mutants caught "
          f"(first failing seeds: {caught})")


# --------------------------------------------------------------- criterion 8


def test_criterion_8_base_case_state_replay():
    src = "void main() { int x = 0; while (x < 1) { x = x + 1; } print(x); }"
    original = parse(src)
    z0 = IntV(0)
    z1 = run(original).final_bindings["x"]  # the interpreter computes z1
    assert z1 == IntV(1)

    recorder = StateRecorder()
    transformed = transform_program(original).program
    run(transformed, recorder=recorder)
    assert recorder.events == [
        ("add_frame", [({}, None)]),                                   # enter main
        ("upd_v", [({"x": z0}, None)]),                                # x = 0
        ("add_frame", [({"x": z0}, None), ({"x": z0}, None)]),         # s1
        ("upd_v", [({"x": z0}, None), ({"x": z1}, None)]),             # s2
        ("upd_r", [({"x": z0}, None), ({"x": z1}, z1)]),               # s3
        ("upd_vr", [({"x": z1}, None), ({"x": z1}, z1)]),              # s4
        ("rem_frame", [({"x": z1}, None)]),                            # s5
    ]
    print("[acceptance] criterion 8 PASS - one-iteration replay matches the "
          "frame table: caller keeps x=0 until upd_vr, callee holds the "
          "return slot before removal")
