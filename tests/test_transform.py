import hashlib

import pytest

from loop2rec.analysis import Packing
from loop2rec.ast import (
    Assign,
    AssignIndex,
    Block,
    BoolLit,
    Call,
    Foreach,
    If,
    Return,
    Var,
    VarDecl,
    READ,
    collect_identifiers,
    emit_names,
    is_loop,
    iter_stmts,
    program_loops,
    stmt_blocks,
    structural_eq,
    walk_expr,
    stmt_exprs,
)
from loop2rec.checker import check_semantics
from loop2rec.generator import GenConfig, generate
from loop2rec.interp import run
from loop2rec.parser import ParseError, parse
from loop2rec.printer import pretty_print
from loop2rec.transform import Mutation, TransformOptions, transform_program
from loop2rec.verify import diff_run

from conftest import CORPUS_FILES, ROOT, TERMINATING, corpus_text, hand_built_walk_trees

GENERIC = TransformOptions(optimize=False)


def loops_in(program):
    out = []
    for m in program.methods:
        out.extend(st for st in iter_stmts(m.body) if is_loop(st))
    return out


def calls_in(method):
    names = set()
    for st in iter_stmts(method.body):
        for e in stmt_exprs(st):
            for sub in walk_expr(e):
                if isinstance(sub, Call):
                    names.add(sub.method)
        if isinstance(st, Return) and isinstance(st.value, Call):
            names.add(st.value.method)
    return names


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


def test_golden_sqrt_shape():
    result = transform_program(parse(corpus_text("sqrt.mj")))
    assert structural_eq(result.program, parse(GOLDEN_SQRT))
    (row,) = result.report
    assert (row.kind, row.loop_method_name, row.packing) == (
        "while", "sqrt_loop", Packing.SINGLE)
    # generated method: body, condition check with tail call, trailing return
    gen = result.program.method("sqrt_loop")
    assert isinstance(gen.body[-2], If)
    assert isinstance(gen.body[-2].then[0], Return)
    assert isinstance(gen.body[-2].then[0].value, Call)
    assert isinstance(gen.body[-1], Return)


def test_loop_free_program_is_identity():
    p = parse("void main() { int x = 1; print(x); }")
    result = transform_program(p)
    assert structural_eq(result.program, p)
    assert result.report == []


def test_nested_whiles_extract_two_methods():
    result = transform_program(parse(corpus_text("nested.mj")))
    names = [m.name for m in result.program.methods]
    assert names == ["f", "main", "f_loop2", "f_loop"]  # creation order: inner first
    # the inner loop's call sits inside the outer generated method
    assert "f_loop2" in calls_in(result.program.method("f_loop"))
    assert loops_in(result.program) == []


@pytest.mark.parametrize("name", CORPUS_FILES)
def test_no_loops_survive(name):
    result = transform_program(parse(corpus_text(name)))
    assert loops_in(result.program) == []
    assert check_semantics(result.program) == []


def test_no_loops_survive_fuzz():
    for seed in range(100):
        result = transform_program(generate(GenConfig(seed=seed)))
        assert loops_in(result.program) == [], f"seed {seed}"


def test_idempotent_once_loop_free():
    for name in ("sqrt.mj", "nested.mj", "two_index.mj"):
        once = transform_program(parse(corpus_text(name))).program
        twice = transform_program(once)
        assert structural_eq(twice.program, once), name
        assert twice.report == []


def test_name_hygiene():
    for seed in range(60):
        p = generate(GenConfig(seed=seed))
        before = collect_identifiers(p)
        result = transform_program(p)
        after = collect_identifiers(result.program)
        fresh = after - before
        generated = {m.name for m in result.program.methods} - {m.name for m in p.methods}
        assert generated <= fresh
        assert check_semantics(result.program) == [], f"seed {seed}"


def test_while_false_keeps_guard_and_method():
    p = parse("void main() { int x = 0; while (false) { x = x + 1; } print(x); }")
    result = transform_program(p)
    main = result.program.method("main")
    guard = main.body[1]
    assert isinstance(guard, If) and guard.cond == BoolLit(False)
    assert result.program.method("main_loop") is not None
    assert run(result.program).method_entries["main_loop"] == 0


def test_do_caller_is_unconditional_without_block():
    result = transform_program(parse(corpus_text("sqrt_do.mj")))
    sqrt_do = result.program.method("sqrtDo")
    branch = sqrt_do.body[1].then  # inside `if (x > 1.0)`
    assert len(branch) == 1
    call = branch[0]
    assert isinstance(call, Assign) and call.name == "b"
    assert call.value.method == "sqrtDo_loop"


def test_do_single_forced_iteration():
    p = parse("void main() { int n = 0; do { n = n + 1; } while (false); print(n); }")
    result = transform_program(p)
    trace = run(result.program)
    assert trace.prints == ["1"]
    assert trace.method_entries["main_loop"] == 1


def test_do_generic_mode_gets_a_block():
    p = parse("void main() { int n = 0; do { n = n + 1; } while (false); print(n); }")
    result = transform_program(p, GENERIC)
    main = result.program.method("main")
    block = main.body[1]
    assert isinstance(block, Block)
    assert isinstance(block.body[0], VarDecl)
    assert isinstance(block.body[0].value, Call)


def test_for_hoists_init_and_places_updates():
    result = transform_program(parse(corpus_text("sqrt_for.mj")))
    sqrt_for = result.program.method("sqrtFor")
    block = sqrt_for.body[1].then[0]  # inside `if (x >= 0.0)`
    assert isinstance(block, Block)
    assert isinstance(block.body[0], VarDecl) and block.body[0].name == "iter"
    assert isinstance(block.body[1], If)
    gen = result.program.method("sqrtFor_loop")
    # update sits between the loop body and the condition check
    assert pretty_print(result.program).count("iter = iter + 1") == 1
    update = gen.body[-3]
    assert not isinstance(update, If)
    assert isinstance(gen.body[-2], If)
    assert [p.name for p in gen.params] == ["x", "b", "iter"]


def test_vacuous_for_elides_block():
    p = parse("void main() { for (; false;) { print(1); } }")
    result = transform_program(p)
    main = result.program.method("main")
    assert len(main.body) == 1 and isinstance(main.body[0], If)
    assert run(result.program).method_entries["main_loop"] == 0


def test_two_index_for_hoists_both_and_passes_both():
    result = transform_program(parse(corpus_text("two_index.mj")))
    main = result.program.method("main")
    block = main.body[1]
    assert isinstance(block, Block)
    assert [st.name for st in block.body[:2]] == ["i", "j"]
    gen = result.program.method("main_loop")
    assert {p.name for p in gen.params} >= {"meet", "i", "j"}
    trace = run(result.program)
    assert trace.prints == ["20"]
    assert trace.method_entries["main_loop"] == 4


def test_foreach_array_shape_and_counts():
    result = transform_program(parse(corpus_text("foreach_array.mj")))
    main = result.program.method("main")
    block = main.body[1]
    assert isinstance(block, Block)
    assert isinstance(block.body[0], VarDecl) and block.body[0].name == "index"
    gen = result.program.method("main_loop")
    first = gen.body[0]
    assert isinstance(first, VarDecl) and first.name == "number"
    assert [p.name for p in gen.params] == ["numbers", "index"]
    trace = run(result.program)
    assert trace.method_entries["main_loop"] == 2


def test_foreach_empty_array_never_calls():
    p = parse("void main() { for (double v : new double[] {}) { print(v); } }")
    result = transform_program(p)
    assert run(result.program).method_entries["main_loop"] == 0


def test_foreach_single_element_single_entry():
    result = transform_program(parse(corpus_text("one_elem.mj")))
    trace = run(result.program)
    assert trace.method_entries["main_loop"] == 1
    assert trace.prints == ["2.5"]


def test_foreach_literal_collection_hoisted_once():
    p = parse("void main() { for (double v : new double[] { 1.5, 2.5 }) { print(v); } }")
    result = transform_program(p)
    main = result.program.method("main")
    block = main.body[0]
    assert isinstance(block, Block)
    assert isinstance(block.body[0], VarDecl) and block.body[0].name == "coll"
    gen = result.program.method("main_loop")
    assert [p.name for p in gen.params] == ["coll", "index"]
    assert run(result.program).prints == ["1.5", "2.5"]


def test_foreach_iterable_threads_iterator():
    result = transform_program(parse(corpus_text("foreach_iterable.mj")))
    main = result.program.method("main")
    block = main.body[1]
    assert isinstance(block, Block)
    it_decl = block.body[0]
    assert isinstance(it_decl, VarDecl) and it_decl.name == "it"
    gen = result.program.method("main_loop")
    assert gen.params[-1].name == "it"
    first = gen.body[0]
    assert isinstance(first, VarDecl) and first.name == "number"
    assert run(result.program).method_entries["main_loop"] == 2


def test_array_and_list_traversals_print_identically():
    arr = transform_program(parse(corpus_text("foreach_array.mj"))).program
    lst = transform_program(parse(corpus_text("foreach_iterable.mj"))).program
    assert run(arr).prints == run(lst).prints


def test_generic_mode_unpacks_with_casts():
    result = transform_program(parse(corpus_text("sqrt.mj")), GENERIC)
    (row,) = result.report
    assert row.packing == Packing.OBJECT_ARRAY
    text = pretty_print(result.program)
    assert "Object[] result = sqrt_loop(x, b);" in text
    assert "x = (double) result[0];" in text
    assert "b = (double) result[1];" in text
    assert "return new Object[] { x, b };" in text
    assert check_semantics(result.program) == []


@pytest.mark.parametrize("name", TERMINATING)
def test_generic_mode_still_equivalent(name):
    from loop2rec.verify import diff_run
    report = diff_run(parse(corpus_text(name)), GENERIC)
    assert report.equivalent, report.detail


def test_transformed_output_reparses():
    for name in CORPUS_FILES:
        result = transform_program(parse(corpus_text(name)))
        reparsed = parse(pretty_print(result.program))
        assert check_semantics(reparsed) == []
        assert structural_eq(reparsed, result.program)


def test_mutations_change_the_output():
    p = parse(corpus_text("sqrt_for.mj"))
    clean = transform_program(p).program
    for mutation in Mutation:
        mutated = transform_program(p, TransformOptions(mutation=mutation)).program
        assert not structural_eq(clean, mutated), mutation


def test_transform_is_deterministic():
    for seed in (0, 17, 42):
        p = generate(GenConfig(seed=seed))
        q = generate(GenConfig(seed=seed))
        assert structural_eq(transform_program(p).program,
                             transform_program(q).program)


def preorder(stmts):
    out = []
    for st in stmts:
        out.append(st)
        for block in stmt_blocks(st):
            out += preorder(block)
    return out


def identifiers(program):
    """collect_identifiers spelled out over iter_stmts and walk_expr."""
    ids = set()
    for m in program.methods:
        ids.add(m.name)
        ids.update(p.name for p in m.params)
        exprs = []
        for st in iter_stmts(m.body):
            if isinstance(st, (VarDecl, Assign, AssignIndex)):
                ids.add(st.name)
            elif isinstance(st, Foreach):
                ids.add(st.elem_name)
            exprs += stmt_exprs(st)
        for e in exprs:
            for sub in walk_expr(e):
                if isinstance(sub, Var):
                    ids.add(sub.name)
                elif isinstance(sub, Call):
                    ids.add(sub.method)
    return ids


def test_tree_walks_agree_with_their_recursive_definitions():
    programs = [parse(corpus_text(n)) for n in CORPUS_FILES]
    programs += [generate(GenConfig(seed=s, max_depth=4, max_loops=6)) for s in range(40)]
    programs += [transform_program(p).program for p in programs]
    # unchecked: a call target that names no method
    programs.append(parse("int f(int a) { return g(a + 1); }\n"
                          "void main() { int r = f(1); print(r); }"))
    # a method whose value is a call, and a chain deeper than the recursion limit
    programs.append(parse("double h(int a, double[] xs) { return h(a - 1, xs[a] * abs(-a)); }"
                          "\nvoid main() { double r = h(1, new double[] { 1.0 }); }"))
    programs.append(parse("void main() { int a = 1; print(" + " + ".join(["a"] * 20_000)
                          + "); }"))
    programs += hand_built_walk_trees()
    for p in programs:
        assert [(id(m), id(st)) for m, st in program_loops(p)] == [
            (id(m), id(st)) for m in p.methods for st in preorder(m.body) if is_loop(st)]
        for m in p.methods:
            assert [id(st) for st in iter_stmts(m.body)] == [id(st) for st in preorder(m.body)]
            exprs = [e for st in iter_stmts(m.body) for e in stmt_exprs(st)]
            for e in exprs:
                names, kinds = [], []
                emit_names(e, names, kinds)
                reads = [n for n, k in zip(names, kinds) if k == READ]
                assert reads == [s.name for s in walk_expr(e) if s.__class__ is Var]
        assert collect_identifiers(p) == identifiers(p)


# ------------------------------------------------------------ mutant pin

# sha256 over the printed rewrite and the report rows of every Mutation in
# both modes, over the corpus and seeds 0-99 in the default and the deeper
# generator setting. It was taken while packing was still decided twice, so
# the single packing rule must reproduce the mutants' output exactly.
# Re-pinned once when a list foreach stopped taking its collection variable
# as a parameter.
MUTANT_PIN_SHA256 = "41742ab5f73f18a8b26ec59c96b634ef218bc2baf1da3647b572ef5652c3f4e4"


def render_mutant(program, opts) -> str:
    result = transform_program(program, opts)
    rows = [f"{r.loop_id} {r.kind} {r.in_method} {r.loop_method_name} {r.packing.value}"
            for r in result.report]
    return pretty_print(result.program) + "\0" + "\n".join(rows)


def test_mutant_rewrites_are_pinned():
    programs = [parse(corpus_text(n)) for n in CORPUS_FILES]
    programs += [generate(GenConfig(seed=s)) for s in range(100)]
    programs += [generate(GenConfig(seed=s, max_depth=4, max_loops=6)) for s in range(100)]
    h = hashlib.sha256()
    for p in programs:
        for mutation in Mutation:
            for optimize in (True, False):
                opts = TransformOptions(optimize=optimize, mutation=mutation)
                h.update(render_mutant(p, opts).encode() + b"\n")
    assert h.hexdigest() == MUTANT_PIN_SHA256


# every collection form the checker accepts -> the foreach kind the rewrite picks
FOREACH_FORMS = {
    "var_array": ("double[] xs = new double[] { 1.5, 2.5 };", "xs", "foreach_array"),
    "var_list": ("List<double> xs = new List<double> { 1.5, 2.5 };", "xs", "foreach_list"),
    "array_lit": ("", "new double[] { 1.5, 2.5 }", "foreach_array"),
    "list_lit": ("", "new List<double> { 1.5, 2.5 }", "foreach_list"),
    "cast_list": ("Object[] cells = new Object[] { new List<double> { 1.5, 2.5 } };",
                  "(List<double>) cells[0]", "foreach_list"),
    "cast_array": ("Object[] cells = new Object[] { new double[] { 1.5, 2.5 } };",
                   "(double[]) cells[0]", "foreach_array"),
    "index_array": ("double[][] rows = new double[][] { new double[] { 1.5, 2.5 } };",
                    "rows[0]", "foreach_array"),
    "index_list": ("List<double>[] rows = new List<double>[] { new List<double> { 1.5, 2.5 } };",
                   "rows[0]", "foreach_list"),
    # a list element of a list: only the checker's typing of `next` tells it from an array
    "next_list": ("List<List<double>> rows = new List<List<double>> "
                  "{ new List<double> { 1.5, 2.5 } }; "
                  "Iterator<List<double>> cursor = iterator(rows);",
                  "next(cursor)", "foreach_list"),
}


@pytest.mark.parametrize("optimize", [True, False])
@pytest.mark.parametrize("form", sorted(FOREACH_FORMS))
def test_foreach_kind_follows_the_collection_type(form, optimize):
    decl, collection, kind = FOREACH_FORMS[form]
    p = parse(f"void main() {{ {decl} double s = 0.0; "
              f"for (double v : {collection}) {{ s = s + v; }} print(s); }}")
    assert check_semantics(p) == []
    result = transform_program(p, TransformOptions(optimize=optimize))
    assert [r.kind for r in result.report] == [kind]
    assert check_semantics(result.program) == []
    assert run(result.program).prints == ["4.0"]


# One loop of each kind and replacement shape, as the body of `main`. The
# exact printed rewrite of each, in both modes, is held in
# tests/rewrite_shapes.txt under a `== <name> <mode>` line.
SHAPES = {
    "while": "int n = 2; while (n > 0) { n = n - 1; } print(n);",
    "do_none_live": "int n = 2; do { print(n); n = n - 1; } while (n > 0);",
    "do_one_live": "int n = 2; do { n = n - 1; } while (n > 0); print(n);",
    "do_two_live": "int n = 2; int s = 0; do { s = s + n; n = n - 1; } while (n > 0); "
                   "print(s + n);",
    "for_declaring_init": "int s = 0; for (int i = 0; i < 2; i = i + 1) { s = s + i; } "
                          "print(s);",
    "for_assigning_init": "int i = 5; int s = 0; for (i = 0; i < 2; i = i + 1) { s = s + i; } "
                          "print(s);",
    "for_empty_init": "int i = 0; for (; i < 2; i = i + 1) { print(i); }",
    "array_var": "double[] xs = new double[] { 1.5 }; double s = 0.0; "
                 "for (double v : xs) { s = s + v; } print(s);",
    "array_literal": "double s = 0.0; for (double v : new double[] { 1.5 }) { s = s + v; } "
                     "print(s);",
    "list_var": "List<double> xs = new List<double> { 1.5 }; double s = 0.0; "
                "for (double v : xs) { s = s + v; } print(s);",
    "list_literal": "double s = 0.0; for (double v : new List<double> { 1.5 }) { s = s + v; } "
                    "print(s);",
}
MODES = {"optimized": TransformOptions(), "generic": GENERIC}


def golden_shapes() -> dict:
    """(name, mode) -> expected text, from tests/rewrite_shapes.txt."""
    text = (ROOT / "tests" / "rewrite_shapes.txt").read_text(encoding="utf-8")
    out, key = {}, None
    for line in text.splitlines(keepends=True):
        if line.startswith("== "):
            key = tuple(line.split()[1:])
            out[key] = ""
        else:
            out[key] += line
    return out


@pytest.mark.parametrize("mode", sorted(MODES))
@pytest.mark.parametrize("name", list(SHAPES))
def test_each_loop_kind_rewrites_to_its_exact_shape(name, mode):
    p = parse(f"void main() {{ {SHAPES[name]} }}")
    assert check_semantics(p) == []
    result = transform_program(p, MODES[mode])
    assert pretty_print(result.program) == golden_shapes()[name, mode]
    assert check_semantics(result.program) == []
    assert run(result.program).prints == run(p).prints


# Each `for` header form, as the body of `main`, with the printed text of
# the whole program: the parser, printer, checker, rewrite and diff agree on
# all of them.
FOR_HEADERS = {
    "assigning_init": (
        "int i = 9; int j = 9; for (i = 0, j = 3; i < j; i = i + 1) { print(i + j); } print(i);",
        "void main() {\n    int i = 9;\n    int j = 9;\n"
        "    for (i = 0, j = 3; i < j; i = i + 1) {\n        print(i + j);\n    }\n"
        "    print(i);\n}\n"),
    "empty_init_no_condition": (  # ends in a DivisionByZero on both sides
        "int i = 0; for (;; i = i + 1) { print(10 / (3 - i)); }",
        "void main() {\n    int i = 0;\n    for (; true; i = i + 1) {\n"
        "        print(10 / (3 - i));\n    }\n}\n"),
    "two_declarators": (
        "int s = 0; for (int i = 0, j = 4; i < j; i = i + 1, j = j - 1) { s = s + j; } print(s);",
        "void main() {\n    int s = 0;\n"
        "    for (int i = 0, j = 4; i < j; i = i + 1, j = j - 1) {\n        s = s + j;\n    }\n"
        "    print(s);\n}\n"),
    "call_updates": (
        "double d = 8.0; for (int i = 0; i < 3; i = i + 1, tick(i), d = half(d)) { print(d); } "
        "print(d); } void tick(int i) { print(i); } double half(double x) { return x / 2.0;",
        "void main() {\n    double d = 8.0;\n"
        "    for (int i = 0; i < 3; i = i + 1, tick(i), d = half(d)) {\n        print(d);\n    }\n"
        "    print(d);\n}\n\nvoid tick(int i) {\n    print(i);\n}\n\n"
        "double half(double x) {\n    return x / 2.0;\n}\n"),
}


@pytest.mark.parametrize("name", list(FOR_HEADERS))
def test_for_header_forms_round_trip_rewrite_and_verify(name):
    body, printed = FOR_HEADERS[name]
    p = parse(f"void main() {{ {body} }}")
    assert pretty_print(p) == printed
    assert structural_eq(parse(printed), p)
    assert check_semantics(p) == []
    for opts in MODES.values():
        rewritten = parse(pretty_print(transform_program(p, opts).program))
        assert check_semantics(rewritten) == []
        assert diff_run(p, opts).equivalent


def test_cell_write_is_no_for_update():
    with pytest.raises(ParseError, match=r"^1:51: expected '=', found \[$"):
        parse("void main() { int[] a = new int[] { 0 }; for (;; a[0] = 1) { } }")
