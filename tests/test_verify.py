import json

import pytest

from loop2rec import verify
from loop2rec.generator import GenConfig, generate
from loop2rec.interp import CallDepthExceeded, run
from loop2rec.checker import check_semantics
from loop2rec.ast import (
    Assign,
    AssignIndex,
    CallStmt,
    For,
    is_loop,
    iter_stmts,
    program_loops,
    structural_eq,
)
from loop2rec.parser import parse
from loop2rec.printer import pretty_print
from loop2rec.transform import Mutation, TransformOptions, TransformResult, transform_program
from loop2rec.verify import (
    diff_run,
    fuzz_campaign,
    iteration_call_equality,
    tail_position_check,
)

from conftest import CORPUS_FILES, TERMINATING, corpus_text, hand_built_walk_trees


# ------------------------------------------------------------------ diffing


@pytest.mark.parametrize("name", TERMINATING)
def test_corpus_is_equivalent(name):
    report = diff_run(parse(corpus_text(name)))
    assert report.equivalent, report.detail


def test_loop_free_program_trivially_equivalent():
    report = diff_run(parse("void main() { int x = 2; print(x * x); }"))
    assert report.equivalent


def test_nested_collection_traversals_equivalent():
    report = diff_run(parse("""
void main() {
    double total = 0.0;
    List<double>[] rows = new List<double>[] { new List<double> { 1.0, 2.0 }, new List<double> { 3.0 } };
    for (List<double> row : rows) {
        for (double v : row) {
            total = total + v;
        }
    }
    print(total);
}
"""))
    assert report.equivalent, report.detail


# A foreach whose body writes the array it traverses: the rewrite hoists the
# array into a fresh `coll`, Java's one evaluation of the collection, and the
# body's writes go through the variable. Each shape runs in `main` and in a
# helper whose parameter is the array, with and without a read after the loop.
WRITING_BODIES = {
    "one_cell": "A[0] = v + 1.0;",
    "later_cell": "A[2] = v * 2.0;",
    "rebind": "A = new double[] { v, v + 1.0 };",
    "rebind_then_cell": "A = new double[] { v, 0.5 };\n        A[1] = v;",
    "while_cells": "int j = 0;\n        while (j < length(A)) { A[j] = A[j] + v; j = j + 1; }",
    "while_rebind": "int j = 0;\n        while (j < 1) { A = new double[] { v, s }; j = j + 1; }",
    "poke": "A = poke(A, 1, v);",
    "read_and_write": "s = s + A[1];\n        A[1] = v + s;",
    "inner_foreach": "for (double w : A) { A[1] = w + v; }",
}


def writing_foreach(body: str, helper: bool, read_after: bool) -> str:
    loop = f"    for (double v : A) {{\n        {body}\n        print(v);\n    }}\n"
    if read_after:
        loop += "    print(A[0]);\n    print(length(A));\n"
    poke = "double[] poke(double[] pa, int pi, double pv) {\n    pa[pi] = pv;\n    return pa;\n}\n"
    if helper:
        return (poke + f"double walk(double[] A, double s) {{\n{loop}    return s;\n}}\n"
                "void main() {\n    double[] xs = new double[] { 1.0, 2.0, 3.0 };\n"
                "    double r = walk(xs, 0.0);\n    print(r);\n    print(xs[1]);\n}\n")
    return (poke + "void main() {\n    double[] A = new double[] { 1.0, 2.0, 3.0 };\n"
            f"    double s = 0.0;\n{loop}    print(s);\n}}\n")


WRITING_FOREACH = {
    f"{name}-{'helper' if helper else 'main'}-{'read' if read_after else 'no_read'}":
        writing_foreach(body, helper, read_after)
    for name, body in WRITING_BODIES.items()
    for helper in (False, True) for read_after in (False, True)}
# a list's iterator is taken once before the first call, so a rebinding
# needs no hoist
WRITING_FOREACH["list_rebind-main"] = (
    "void main() {\n    List<double> L = new List<double> { 1.0, 2.0 };\n"
    "    for (double v : L) {\n        L = new List<double> { v, v, v };\n        print(v);\n"
    "    }\n    print(length(L));\n}\n")
WRITING_FOREACH["list_while_rebind-helper"] = (
    "int walk(List<double> L) {\n    int n = 0;\n    for (double v : L) {\n"
    "        int j = 0;\n        while (j < 1) { L = new List<double> { v }; j = j + 1; }\n"
    "        n = n + length(L);\n    }\n    return n;\n}\n"
    "void main() {\n    int n = walk(new List<double> { 1.0, 2.0, 3.0 });\n    print(n);\n}\n")


@pytest.mark.parametrize("src", list(WRITING_FOREACH.values()), ids=list(WRITING_FOREACH))
def test_foreach_writing_its_collection_rewrites_equivalent(src):
    p = parse(src)
    assert check_semantics(p) == []
    for optimize in (True, False):
        opts = TransformOptions(optimize=optimize)
        report = diff_run(p, opts)
        assert report.equivalent, (optimize, report.detail)
        result = transform_program(p, opts)
        first = result.report[0]
        assert first.coll_name == ("coll" if first.kind == "foreach_array" else None)
        again = parse(pretty_print(result.program))
        assert check_semantics(again) == []
        assert structural_eq(again, result.program)


ENTRY_TAIL_CALLS = {
    "print": "void f(int n) { print(n); }\nvoid main() { int x = 3; return f(x); }",
    "loop": ("void f(int n) { int i = 0; while (i < n) { print(i); i = i + 1; } }\n"
             "void main() { int x = 3; return f(x); }"),
}


@pytest.mark.parametrize("src", list(ENTRY_TAIL_CALLS.values()), ids=list(ENTRY_TAIL_CALLS))
@pytest.mark.parametrize("optimize", [True, False])
def test_an_entry_that_ends_in_a_tail_call_is_equivalent(src, optimize):
    # main's frame is replaced by f's; `x` is still compared as main left it
    report = diff_run(parse(src), TransformOptions(optimize=optimize))
    assert (report.verdict, report.detail) == ("equivalent", None)


def test_both_sides_exceeding_budget_counts_as_equivalent():
    report = diff_run(parse(corpus_text("infinite.mj")), budget=20_000)
    assert report.equivalent


def test_diff_reports_counters():
    report = diff_run(parse(corpus_text("two_live.mj")))
    assert report.counters["original_steps"] > 0
    assert "main_loop" in report.counters["transformed_entries"]


def test_dropped_for_update_caught_by_print_trace():
    # the body shrinks the bound itself, so the broken rewrite still
    # terminates and the damage shows up in the printed counter values
    program = parse("""
void main() {
    int c = 6;
    for (int i = 0; i < c; i = i + 1) {
        c = c - 1;
        print(i);
    }
    print(c);
}
""")
    assert diff_run(program).equivalent
    report = diff_run(program, TransformOptions(mutation=Mutation.DROP_FOR_UPDATE))
    assert not report.equivalent
    assert "print[" in report.detail


def test_cond_before_body_diverges_and_is_caught():
    report = diff_run(parse(corpus_text("two_live.mj")),
                      TransformOptions(mutation=Mutation.COND_BEFORE_BODY),
                      budget=50_000)
    assert not report.equivalent
    assert "StepBudgetExceeded" in report.detail


def test_omitted_return_var_caught():
    report = diff_run(parse(corpus_text("two_live.mj")),
                      TransformOptions(mutation=Mutation.OMIT_RETURN_VAR))
    assert not report.equivalent


# Each way two runs can differ, shown by a stand-in for the rewrite: the
# original's body, the rewrite's body and the verdict's detail (None:
# equivalent), at a budget of 100 steps.
LOOP_FOREVER = "while (true) { }"
DETAILS = {
    "error_kinds": ("int z = 1 / 0;", "int[] a = new int[] { }; print(a[0]);",
                    "error kinds differ: DivisionByZero vs IndexOutOfBounds"),
    "print_value": ("print(1); print(2);", "print(1); print(3);", "print[1]: '2' vs '3'"),
    "print_count": ("print(1); print(2);", "print(1);", "print count 2 vs 1"),
    "final_value": ("int x = 1; print(x);", "int x = 2; print(1);", "final value of 'x' differs"),
    "same_error_same_prints": ("print(1); int z = 1 / 0;", "print(1); int z = 2 / 0;", None),
    "same_error_other_prints": ("print(1); int z = 1 / 0;", "print(2); int z = 1 / 0;",
                                "print[0]: '1' vs '2'"),
    "same_error_fewer_prints": ("print(1); int z = 1 / 0;", "int z = 1 / 0;", "print count 1 vs 0"),
    "budget_prefix": (f"print(1); print(2); {LOOP_FOREVER}", f"print(1); {LOOP_FOREVER}", None),
    "budget_other_prints": (f"print(1); {LOOP_FOREVER}", f"print(2); {LOOP_FOREVER}",
                            "print[0]: '1' vs '2'"),
    "budget_more_prints": (LOOP_FOREVER, f"print(1); {LOOP_FOREVER}", "print count 0 vs 1"),
}


def diff_against(monkeypatch, original: str, rewritten: str, budget: int = 100):
    """diff_run of `original` with `rewritten` standing in for its rewrite."""
    monkeypatch.setattr(verify, "transform_program",
                        lambda program, opts: TransformResult(parse(rewritten), []))
    return diff_run(parse(original), budget=budget)


@pytest.mark.parametrize("name", list(DETAILS))
def test_each_difference_has_its_detail(monkeypatch, name):
    original, rewritten, detail = DETAILS[name]
    report = diff_against(monkeypatch, f"void main() {{ {original} }}",
                          f"void main() {{ {rewritten} }}")
    assert (report.verdict, report.detail) == ("equivalent" if detail is None else "mismatch",
                                               detail)


def test_entry_result_difference_has_its_detail(monkeypatch):
    report = diff_against(monkeypatch, "int main() { return 1; }", "int main() { return 2; }")
    assert (report.verdict, report.detail) == ("mismatch", "entry method result differs")


WITNESS = """void main() { int x = 0; int n = 0;
    while (n < 3) { x = x + 2; n = n + 1; }
    print(x); print(n); %s }"""


@pytest.mark.parametrize("optimize", [True, False])
@pytest.mark.parametrize("ending, budget", [("int z = 1 / (n - n);", 1_000_000),
                                            (LOOP_FOREVER, 20_000)])
def test_a_failing_run_is_compared_on_its_prints(ending, budget, optimize):
    # the stale `n` of the broken rewrite shows only in a print before the
    # failure that both sides share
    program = parse(WITNESS % ending)
    assert diff_run(program, TransformOptions(optimize=optimize), budget=budget).equivalent
    report = diff_run(program, TransformOptions(optimize=optimize,
                                                mutation=Mutation.OMIT_RETURN_VAR), budget=budget)
    assert (report.verdict, report.detail) == ("mismatch", "print[1]: '3' vs '0'")


RECURSE = """void r(int n) {{ print({shown}); int i = 0; while (i < 1) {{ r(n + 1); i = i + 1; }} }}
void main() {{ r(0); }}"""


@pytest.mark.parametrize("optimize", [True, False])
def test_call_depth_exhaustion_allows_a_prefix(optimize):
    # the loop method's first call is not a tail call, so the rewrite holds
    # two frames per level and stops at about half the original's depth
    program = parse(RECURSE.format(shown="n"))
    opts = TransformOptions(optimize=optimize)
    prints = []
    for p in (program, transform_program(program, opts).program):
        with pytest.raises(CallDepthExceeded) as e:
            run(p)
        prints.append(e.value.trace.prints)
    assert len(prints[1]) < len(prints[0]) and prints[1] == prints[0][:len(prints[1])]
    report = diff_run(program, opts)
    assert (report.verdict, report.detail) == ("equivalent", None)


def test_call_depth_exhaustion_with_other_prints_is_a_mismatch(monkeypatch):
    report = diff_against(monkeypatch, RECURSE.format(shown="n"),
                          RECURSE.format(shown="n + 1"), budget=1_000_000)
    assert (report.verdict, report.detail) == ("mismatch", "print[0]: '0' vs '1'")


def loop_written(program):
    """The loop-written oracle as its definition: every loop walks its own
    body and update, nested loops again for each loop around them."""
    names = set()
    for _, loop in program_loops(program):
        blocks = [loop.body]
        if isinstance(loop, For):
            blocks.append(loop.update)
        for block in blocks:
            for st in iter_stmts(block):
                if isinstance(st, (Assign, AssignIndex)):
                    names.add(st.name)
    return names


def test_loop_written_walks_each_statement_once_to_the_same_set():
    programs = [parse(corpus_text(n)) for n in CORPUS_FILES]
    programs += [generate(GenConfig(seed=s, **kw)) for s in range(100)
                 for kw in ({}, {"max_depth": 4, "max_loops": 6})]
    programs += [transform_program(p).program for p in programs]
    trees = hand_built_walk_trees()
    for p in programs + trees:
        assert verify._loop_written(p) == loop_written(p)
    # a for's init counts only inside an enclosing loop
    assert [sorted(verify._loop_written(p)) for p in trees] == [
        ["a", "i"], ["a", "c", "i", "x"], ["a", "i"], ["a", "c", "i", "x"], ["d", "f"]]


# ---------------------------------------------------------------- tail calls


def test_generated_methods_are_tail_recursive():
    result = transform_program(parse(corpus_text("sqrt.mj")))
    assert tail_position_check(result.program.method("sqrt_loop"))


def test_method_without_self_call_passes_vacuously():
    p = parse(corpus_text("sqrt.mj"))
    assert tail_position_check(p.method("sqrt"))


def test_assign_then_return_fails_the_check():
    p = parse("""
int f(int n) {
    int x = 0;
    x = f(n);
    return x;
}

void main() { }
""")
    assert not tail_position_check(p.method("f"))


@pytest.mark.parametrize("stmt, tail", [
    ("int y = f(n);", False),
    ("x = f(n);", False),
    ("f(n);", False),
    ("return f(n);", True),
])
def test_each_statement_holding_a_self_call(stmt, tail):
    # only a `return` may hold a call of the method to itself
    p = parse(f"int f(int n) {{ int x = 0; if (n > 0) {{ {stmt} }} return x; }} void main() {{ }}")
    assert tail_position_check(p.method("f")) is tail


# ------------------------------------------------------- iterations vs calls


def counting_while(k: int) -> str:
    return f"""
void main() {{
    int c = {k};
    int t = 0;
    while (c > 0) {{
        t = t + 1;
        c = c - 1;
    }}
    print(t);
}}
"""


@pytest.mark.parametrize("k", [0, 1, 2, 7, 100])
def test_iterations_equal_entries(k):
    rows = iteration_call_equality(parse(counting_while(k)))
    (row,) = rows
    assert (row.iterations, row.entries) == (k, k)


def test_do_false_guard_is_one_iteration_one_entry():
    rows = iteration_call_equality(parse(
        "void main() { int n = 0; do { n = n + 1; } while (false); print(n); }"))
    (row,) = rows
    assert (row.iterations, row.entries) == (1, 1)


# ---------------------------------------------------------------- generator


def test_generate_deterministic():
    a = generate(GenConfig(seed=0))
    b = generate(GenConfig(seed=0))
    assert structural_eq(a, b)
    assert not structural_eq(a, generate(GenConfig(seed=1)))


def test_generated_programs_always_check(subtests=None):
    for seed in range(200):
        p = generate(GenConfig(seed=seed))
        assert check_semantics(p) == [], f"seed {seed}"
        assert any(is_loop(st) for m in p.methods for st in iter_stmts(m.body)), f"seed {seed}"


def test_zero_guard_bias_yields_zero_iteration_loops():
    from loop2rec.interp import run
    for seed in range(20):
        p = generate(GenConfig(seed=seed, zero_guard_bias=1.0))
        trace = run(p)
        assert all(v == 0 for v in trace.loop_iterations.values()), f"seed {seed}"


# ------------------------------------------------------------------ campaign


def test_empty_campaign():
    summary = fuzz_campaign(0)
    assert summary.total == 0 and summary.ok
    assert json.loads(summary.to_json())["mismatches"] == []


def test_small_campaign_all_equivalent():
    summary = fuzz_campaign(50)
    assert summary.equivalent == summary.total == 50
    assert summary.tail_ok and summary.iter_call_ok
    assert summary.budget_exceedances == 0


def test_campaign_json_schema():
    summary = fuzz_campaign(3)
    payload = json.loads(summary.to_json())
    assert set(payload) == {"total", "equivalent", "mismatches", "tail_ok",
                            "iter_call_ok", "budget_exceedances"}


# A void loop method: `n` is not read after the loop.
VOID_LOOP = "void main() { int n = 3; while (n > 0) { n = n - 1; } }"


def campaign_breaking(monkeypatch, breaks):
    """A one-program campaign over VOID_LOOP whose rewrite `breaks` changes."""
    rewrite = verify.transform_program

    def broken(program, opts):
        result = rewrite(program, opts)
        breaks(result.program)
        return result
    monkeypatch.setattr(verify, "transform_program", broken)
    monkeypatch.setattr(verify, "generate", lambda cfg: parse(VOID_LOOP))
    return fuzz_campaign(1)


def test_campaign_flags_a_self_call_out_of_tail_position(monkeypatch):
    def bare_self_call(program):
        again = program.method("main_loop").body[-1]  # if (n > 0) { return main_loop(n); }
        call = again.then[0].value
        again.then[0] = CallStmt(call)
    summary = campaign_breaking(monkeypatch, bare_self_call)
    assert (summary.equivalent, summary.tail_ok, summary.iter_call_ok) == (1, False, True)


def test_campaign_flags_entries_that_are_not_iterations(monkeypatch):
    def second_first_call(program):
        first = program.method("main").body[-1]  # if (n > 0) { main_loop(n); }
        first.then.append(first.then[0])
    summary = campaign_breaking(monkeypatch, second_first_call)
    assert (summary.equivalent, summary.tail_ok, summary.iter_call_ok) == (1, True, False)


def test_campaign_catches_a_mutant():
    summary = fuzz_campaign(50, opts=TransformOptions(mutation=Mutation.OMIT_RETURN_VAR),
                            stop_on_first=True)
    assert summary.mismatches
