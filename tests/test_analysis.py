import hashlib
import json

import pytest

from loop2rec.analysis import (
    NameAllocator,
    Packing,
    UnsupportedConstruct,
    analyze_loop,
)
from loop2rec.ast import (
    DOUBLE,
    INT,
    VOID,
    Assign,
    Binary,
    For,
    IntLit,
    Loc,
    MethodDef,
    Print,
    Program,
    Var,
    VarDecl,
    While,
    collect_identifiers,
    is_loop,
    iter_stmts,
    program_loops,
    structural_eq,
)
from loop2rec.checker import check_semantics
from loop2rec.cli import _analysis_json
from loop2rec.generator import GenConfig, generate
from loop2rec.parser import KEYWORDS, parse
from loop2rec.printer import pretty_print
from loop2rec.transform import TransformOptions, analyze_program, transform_program
from loop2rec.verify import diff_run

from conftest import CORPUS_FILES, corpus_text

SQRT = corpus_text("sqrt.mj")

FIG6_FOR = """
double sqrtFor(double x) {
    double b = x;
    for (int iter = 1; abs(b * b - x) > 1e-12; iter = iter + 1) {
        b = ((x / b) + b) / 2.0;
        print(iter);
    }
    return b;
}

void main() { }
"""


def first_loop(program):
    for method, loop in program_loops(program):
        return method, loop
    raise AssertionError("no loop")


def first_row(src: str):
    """The analysis of the first loop of `src`, as `analyze_program` gives it."""
    return analyze_program(parse(src))[0]


def analyze(program, method, loop):
    return analyze_loop(loop, method, NameAllocator(program))


def names_of(params) -> list:
    return [p.name for p in params]


def test_used_vars_sqrt_loop():
    # the loop's used variables are its parameters, in first-use order over
    # the body, then the condition
    assert names_of(first_row(SQRT).params) == ["x", "b"]


def test_used_vars_only_locals():
    row = first_row("void m() { while (true) { int t = 1; print(t); } }")
    assert (row.params, row.modified, row.live_after) == ((), (), ())


def test_used_vars_for_loop_includes_updates():
    # iter is used only by the update
    row = first_row(FIG6_FOR.replace("print(iter);", "print(x);"))
    assert names_of(row.params) == ["x", "b", "iter"]


def test_modified_vars_sqrt_loop():
    assert names_of(first_row(SQRT).modified) == ["b"]


def test_modified_vars_read_only_body():
    row = first_row("void m() { int x = 1; while (x > 0) { print(x); } }")
    assert (names_of(row.params), row.modified) == (["x"], ())


def test_modified_vars_for_loop():
    # iter is written only by the update, after b in the body
    assert names_of(first_row(FIG6_FOR).modified) == ["b", "iter"]


def test_live_after_sqrt_is_the_returned_var():
    assert names_of(first_row(SQRT).live_after) == ["b"]


def test_live_after_nothing_follows():
    row = first_row("void m() { int x = 3; while (x > 0) { x = x - 1; } }")
    assert (names_of(row.modified), row.live_after) == (["x"], ())


def test_live_after_two_vars_in_declaration_order():
    # sum and prod feed later prints; c does not; order follows declarations
    row = first_row(corpus_text("two_live.mj"))
    assert names_of(row.live_after) == ["sum", "prod"]


def test_live_after_puts_parameters_first():
    # s is declared and written before a, but a is a parameter of f
    p = parse("int f(int a) { int s = 0; while (a > 0) { s = s + a; a = a - 1; }"
              " return s + a; } void main() { int r = f(3); print(r); }")
    (row,) = analyze_program(p)
    assert names_of(row.live_after) == ["a", "s"]
    assert "return new Object[] { a, s };" in pretty_print(transform_program(p).program)
    for optimize in (True, False):
        assert diff_run(p, TransformOptions(optimize=optimize)).equivalent, optimize


def test_live_after_sees_enclosing_loop_back_edge():
    # b is re-read at the top of the *outer* body, textually before the
    # inner loop; dropping it would desynchronize the next outer iteration
    program = parse("""
void main() {
    int b = 0;
    int i = 3;
    while (i > 0) {
        b = b + 1;
        int j = 2;
        while (j > 0) {
            b = b * 2;
            j = j - 1;
        }
        i = i - 1;
    }
    print(i);
}
""")
    method = program.methods[0]
    inner = [st for st in iter_stmts(method.body) if is_loop(st)][1]
    assert "b" in names_of(analyze(program, method, inner).live_after)
    assert "b" in names_of(analyze_program(program)[1].live_after)


def test_fresh_names_default():
    assert NameAllocator(parse(SQRT)).loop_names("sqrt") == ("sqrt_loop", "result")


def test_fresh_names_skip_taken():
    p = parse("void m() { int m_loop = 1; print(m_loop); }")
    assert NameAllocator(p).loop_names("m") == ("m_loop2", "result")


def test_nested_loops_named_in_document_order():
    rows = analyze_program(parse(corpus_text("nested.mj")))
    names = [a.loop_method_name for a in rows]
    assert names == ["f_loop", "f_loop2"]  # outer first


def test_analyze_sqrt_loop():
    p = parse(SQRT)
    method, loop = first_loop(p)
    a = analyze(p, method, loop)
    assert [(x.name, x.type) for x in a.params] == [("x", DOUBLE), ("b", DOUBLE)]
    assert [x.name for x in a.modified] == ["b"]
    assert [x.name for x in a.live_after] == ["b"]
    assert a.packing == Packing.SINGLE
    assert (a.loop_method_name, a.result_var_name) == ("sqrt_loop", "result")
    assert (a.loop_id, a.kind, a.in_method, a.loc) == (0, "while", "sqrt", loop.loc)
    assert (a.counter, a.coll_name) == (None, None)
    assert analyze_program(p) == [a]


def test_analyze_print_only_loop_packs_nothing():
    p = parse("void m() { int x = 1; while (x > 0) { print(x); } }")
    method, loop = first_loop(p)
    a = analyze(p, method, loop)
    assert a.packing == Packing.NONE
    assert a.live_after == ()


def test_analyze_generic_mode_packs_object_array():
    p = parse(SQRT)
    method, loop = first_loop(p)
    a = analyze_loop(loop, method, NameAllocator(p), optimize=False)
    assert a.packing == Packing.OBJECT_ARRAY
    assert [x.name for x in a.params] == ["x", "b"]


def test_foreach_writing_its_array_hoists_it():
    p = parse("""
void main() {
    double[] xs = new double[] { 1.0, 2.0 };
    for (double v : xs) {
        xs[0] = v;
    }
}
""")
    method, loop = first_loop(p)
    a = analyze(p, method, loop)
    assert (a.kind, a.coll_name, a.counter) == ("foreach_array", "coll", "index")
    # xs is an ordinary parameter; the hoisted coll leads the generated method's
    assert names_of(a.params) == names_of(a.modified) == ["xs"]
    (gen,) = transform_program(p).program.methods[1:]
    assert names_of(gen.params) == ["coll", "xs", "index"]


def test_analyze_for_loop_init_vars_become_params():
    p = parse(FIG6_FOR)
    method, loop = first_loop(p)
    a = analyze(p, method, loop)
    assert [(x.name, x.type) for x in a.params] == [
        ("x", DOUBLE), ("b", DOUBLE), ("iter", INT)]
    assert [x.name for x in a.modified] == ["b", "iter"]
    assert [x.name for x in a.live_after] == ["b"]


def test_set_inclusions_and_determinism_over_fuzz():
    for seed in range(120):
        p = generate(GenConfig(seed=seed))
        rows = analyze_program(p)
        again = analyze_program(generate(GenConfig(seed=seed)))
        assert rows == again, f"seed {seed} not deterministic"
        for a in rows:
            used = [x.name for x in a.params]
            mod = [x.name for x in a.modified]
            live = [x.name for x in a.live_after]
            assert set(mod) <= set(used), f"seed {seed}"
            assert set(live) <= set(mod), f"seed {seed}"
            if a.packing == Packing.NONE:
                assert live == []
            elif a.packing == Packing.SINGLE:
                assert len(live) == 1


@pytest.mark.parametrize("optimize", [True, False], ids=["optimized", "generic"])
def test_analyze_program_rows_are_the_transform_report(optimize):
    programs = [parse(corpus_text(n)) for n in CORPUS_FILES]
    programs += [generate(GenConfig(seed=s, **kw)) for s in range(100)
                 for kw in ({}, {"max_depth": 4, "max_loops": 6})]
    for p in programs:
        rows = analyze_program(p, optimize=optimize)
        report = transform_program(p, TransformOptions(optimize=optimize)).report
        assert rows == report
        assert [r.loc for r in rows] == [r.loc for r in report]


def test_fresh_names_never_collide_with_program_identifiers():
    for seed in range(60):
        p = generate(GenConfig(seed=seed))
        before = collect_identifiers(p)
        result = transform_program(p)
        for row in result.report:
            assert row.loop_method_name not in before, f"seed {seed}"


def test_allocator_identifiers_are_the_collected_identifiers():
    # the names the allocator avoids come from the methods' event tapes;
    # collect_identifiers walks the tree on its own
    programs = [parse(corpus_text(n)) for n in CORPUS_FILES]
    programs += [generate(GenConfig(seed=s)) for s in range(200)]
    programs += [generate(GenConfig(seed=s, max_depth=4, max_loops=6)) for s in range(200)]
    # call targets in expressions and statements, one naming no method
    programs.append(parse("int f(int a) { int b = g(a + 1); h(b); return k(abs(b)); }\n"
                          "void main() { for (double v : new double[] { 1.0 }) { print(v); } }"))
    for p in programs:
        assert NameAllocator(p).used == collect_identifiers(p) | KEYWORDS


def test_fresh_suffixes_continue_past_taken_and_allocated_names():
    alloc = NameAllocator(parse(
        "void m() { int r = 1; int r3 = 2; int r12 = 3; print(r + r3 + r12); }"))
    assert [alloc.fresh("r") for _ in range(4)] == ["r2", "r4", "r5", "r6"]
    # another base can produce a candidate of this one; it is skipped
    assert [alloc.fresh("r1") for _ in range(3)] == ["r1", "r13", "r14"]
    assert [alloc.fresh("r") for _ in range(10)] == [
        f"r{k}" for k in (7, 8, 9, 10, 11, 15, 16, 17, 18, 19)]


# ------------------------------------------------------- behaviour pin

# sha256 over `_analysis_json` and the printed rewrite in both modes (an error
# renders as its class and message) of the corpus and seeds 0-199 in the
# default and the deeper generator setting, as the analysis that re-walked the
# method for every loop produced them; the one-pass analysis must match.
# Re-pinned once when a list foreach stopped taking its collection variable
# as a parameter (the rewrite reads the list only in its `iterator` call).
ANALYSIS_PIN_SHA256 = "3062fed83234667f3116779b4125626d67bd119e626e64f2a317d744bde96659"


def render_analysis(program) -> str:
    out = []
    for show in (lambda: _analysis_json(program),
                 lambda: pretty_print(transform_program(program).program),
                 lambda: pretty_print(transform_program(
                     program, TransformOptions(optimize=False)).program)):
        try:
            out.append(show())
        except (UnsupportedConstruct, ValueError) as err:
            out.append(f"{type(err).__name__}|{err}")
    return "\0".join(out)


def test_analysis_and_rewrites_are_pinned():
    programs = [parse(corpus_text(n)) for n in CORPUS_FILES]
    programs += [generate(GenConfig(seed=s)) for s in range(200)]
    programs += [generate(GenConfig(seed=s, max_depth=4, max_loops=6)) for s in range(200)]
    h = hashlib.sha256()
    for p in programs:
        h.update(render_analysis(p).encode() + b"\n")
    assert h.hexdigest() == ANALYSIS_PIN_SHA256


# ------------------------------------------- errors on unchecked trees

NOT_IN_SCOPE = "loop references '{}' which is not in scope; run check_semantics first"


@pytest.mark.parametrize("src, loc, message", [
    # a name no one declares
    ("void main() { int s = 0; while (s < 3) { s = s + k; } print(s); }",
     "1:26", NOT_IN_SCOPE.format("k")),
    # declared only after the loop
    ("void main() { while (x < 3) { x = x + 1; } int x = 0; print(x); }",
     "1:15", NOT_IN_SCOPE.format("x")),
    # declared in the sibling branch of the loop's own `if`
    ("void main() { int c = 1;\n  if (c > 0) { int t = 1; print(t); }\n"
     "  else { while (t < 3) { t = t + 1; } } }",
     "3:10", NOT_IN_SCOPE.format("t")),
    # a written collection is a parameter like any other name the body uses
    ("void main() { for (double v : ys) { ys[0] = q; } }",
     "1:15", NOT_IN_SCOPE.format("ys")),
])
def test_unchecked_tree_errors(src, loc, message):
    p = parse(src)  # never checked
    expected = f"{loc}: {message}"
    for call in (lambda: transform_program(p),
                 lambda: transform_program(p, TransformOptions(optimize=False)),
                 lambda: analyze_program(p)):
        with pytest.raises(UnsupportedConstruct) as exc:
            call()
        assert (str(exc.value), str(exc.value.loc), exc.value.message) == (expected, loc, message)
    method, loop = first_loop(p)
    with pytest.raises(UnsupportedConstruct) as exc:
        analyze(p, method, loop)
    assert str(exc.value) == expected


def test_foreach_whose_inner_loop_rebinds_its_array_analyzes():
    p = parse("void main() { double[] xs = new double[] { 1.0 }; int i = 0;\n"
              "  for (double v : xs) { while (i < 1) { xs = new double[] { v }; i = i + 1; } } }")
    (_, outer), (method, inner) = program_loops(p)
    a = analyze(p, method, inner)
    assert [x.name for x in a.params] == ["v", "xs", "i"]
    assert [x.name for x in a.modified] == ["xs", "i"]
    # i is re-read by the outer body on the foreach's back edge; v is not
    # written, xs is never read again
    assert [x.name for x in a.live_after] == ["i"]
    # the outer loop hoists xs, which its body writes, and returns nothing
    a = analyze(p, method, outer)
    assert (names_of(a.params), a.packing, a.coll_name) == (["i", "xs"], Packing.NONE, "coll")
    # over another array the outer loop analyzes: nothing it writes is read
    # after it
    outer_row, _ = analyze_program(parse(
        "void main() { double[] xs = new double[] { 1.0 }; double[] ys = xs; int i = 0;\n"
        "  for (double v : ys) { while (i < 1) { xs = new double[] { v }; i = i + 1; } } }"))
    assert (names_of(outer_row.modified), outer_row.live_after) == (["xs", "i"], ())


def test_loop_with_the_wrong_method():
    p = parse("int f(int a) { int b = a; while (b > 0) { b = b - 1; } return b; }\n"
              "void main() { int z = 0; print(z); }")
    (f, loop), main = first_loop(p), p.methods[1]
    other = parse("void main() { int z = 0; print(z); }").methods[0]
    for wrong in (main, other):  # a method of the program, or of another one
        with pytest.raises(ValueError, match="^loop does not occur in the given method$"):
            analyze(p, wrong, loop)
    assert names_of(analyze(p, f, loop).live_after) == ["b"]


def test_loop_inside_a_for_header_has_no_scope():
    # hand-built: the scope rules never reach a loop in a for loop's init
    # list, so it cannot be analyzed; the for loop itself can
    inner = While(Binary("<", Var("a"), IntLit(1)),
                  [Assign("a", Binary("+", Var("a"), IntLit(1)))], loc=Loc(3, 5))
    outer = For([VarDecl(INT, "i", IntLit(0)), inner], Binary("<", Var("i"), IntLit(1)),
                [Assign("i", Binary("+", Var("i"), IntLit(1)))], [Print(Var("a"))],
                loc=Loc(2, 3))
    method = MethodDef(VOID, "main", [], [VarDecl(INT, "a", IntLit(0)), outer])
    p = Program([method])
    for call in (lambda: transform_program(p), lambda: analyze_program(p),
                 lambda: analyze(p, method, inner)):
        with pytest.raises(ValueError, match="^loop does not occur in the given method$"):
            call()
    row = analyze(p, method, outer)
    assert (names_of(row.params), names_of(row.modified), row.live_after) == (
        ["a", "i"], ["i"], ())


def test_declarations_hide_names_for_the_rest_of_the_scan():
    # t is declared in one branch, so the other branch's `t = 2` is not free
    p = parse("void main() { int s = 0;\n"
              "  while (s < 3) {\n"
              "    if (s > 1) { int t = 1; s = s + t; } else { t = 2; }\n"
              "    s = s + 1; }\n"
              "  print(s); }")
    row = analyze_program(p)[0]
    assert (names_of(row.params), names_of(row.modified)) == (["s"], ["s"])
    # a later block that declares x again reads its own x, not the loop's
    p = parse("void main() { int x = 0; int c = 1;\n"
              "  while (x < 3) { x = x + 1; c = c + x; }\n"
              "  if (c > 0) { int x = 5; print(x); } else { print(c); } }")
    method, loop = first_loop(p)
    a = analyze(p, method, loop)
    assert [x.name for x in a.params] == ["x", "c"]
    assert [x.name for x in a.live_after] == ["c"]
    # unchecked: after the block that declares x again, `print(x)` still
    # counts as a read of that declaration, not of the loop's x
    p = parse("void main() { int x = 0;\n"
              "  while (x < 3) { x = x + 1; }\n"
              "  { int x = 5; print(x); } print(x); }")
    assert analyze_program(p)[0].live_after == ()


# ------------------------------------------------------ liveness edge cases

# Constructs the generator never makes, some of them only in unchecked
# programs. Each row is an `_analysis_json` row by name: (kind, params,
# modified, liveAfter, packing). The expected rows were computed with the
# statement-summary analysis that the event tape replaced.
LIVENESS_CASES = {
    # the then branch declares x, which hides the else branch's read of it
    "then-declaration-hides-else-read": (
        "void main() { int x = 0; int c = 1;\n"
        "  while (x < 3) { x = x + 1; }\n"
        "  if (c > 0) { int x = 5; print(x); } else { print(x); } }",
        [("while", ["x"], ["x"], [], "none")]),
    # only the sibling then branch reads x: not after the loop
    "loop-in-else-read-only-by-then": (
        "void main() { int x = 0; int c = 1;\n"
        "  if (c > 0) { print(x); } else { while (x < 3) { x = x + 1; } }\n"
        "  print(c); }",
        [("while", ["x"], ["x"], [], "none")]),
    # s is read only in the for update and t only in its condition; k is
    # declared again at the top of the for body
    "read-only-in-enclosing-for-update-or-cond": (
        "void main() { int s = 0; int t = 0;\n"
        "  for (int i = 0; i < t; i = i + s) {\n"
        "    int k = 0;\n"
        "    while (k < 2) { k = k + 1; s = k; t = k; } }\n"
        "  print(0); }",
        [("for", ["s", "t", "i"], ["s", "t", "i"], [], "none"),
         ("while", ["k", "s", "t"], ["k", "s", "t"], ["s", "t"], "object_array")]),
    # m is read only in the enclosing do's condition
    "do-condition-reads-modified": (
        "void main() { int n = 0; int m = 0;\n"
        "  do { int k = 0; while (k < 2) { k = k + 1; m = k + n; } n = n + 1; }"
        " while (m < 10);\n"
        "  print(n); }",
        [("do", ["n", "m"], ["m", "n"], ["n"], "single"),
         ("while", ["k", "n", "m"], ["k", "m"], ["m"], "single")]),
    # a later block declares x before reading it, and y only after
    "redeclared-in-later-sibling-block": (
        "void main() { int x = 0; int y = 0;\n"
        "  while (x < 3) { x = x + 1; y = y + x; }\n"
        "  { int x = 1; print(x); }\n"
        "  { print(y); int y = 2; print(y); } }",
        [("while", ["x", "y"], ["x", "y"], ["y"], "single")]),
    # the block's own `int s` hides s for the rest of the block only
    "read-after-block-not-hidden-by-its-declarations": (
        "void main() { int s = 0;\n"
        "  { int j = 0; while (j < 2) { j = j + 1; s = s + j; } int s = 9; print(s); }\n"
        "  print(s); }",
        [("while", ["j", "s"], ["j", "s"], ["s"], "single")]),
    # the foreach's back edge re-reads its element, so v counts as live
    "foreach-element-read-across-back-edge": (
        "void main() { double[] xs = new double[] { 1.0, 2.0 }; double t = 0.0;\n"
        "  for (double v : xs) {\n"
        "    t = t + v;\n"
        "    int k = 0;\n"
        "    while (k < 2) { v = v + 1.0; k = k + 1; } }\n"
        "  print(t); }",
        [("foreach_array", ["xs", "t"], ["t"], ["t"], "single"),
         ("while", ["v", "k"], ["v", "k"], ["v"], "single")]),
    # z is read only in the outermost condition, two back edges out; c is
    # read by the innermost condition on the middle loop's back edge
    "three-deep-read-only-in-outermost-condition": (
        "void main() { int b = 0; int c = 0; int z = 0;\n"
        "  while (z < 5) {\n"
        "    b = 0;\n"
        "    while (b < 2) {\n"
        "      c = 0;\n"
        "      while (c < 2) { c = c + 1; z = c * 3; }\n"
        "      b = b + 1; } }\n"
        "  print(b); }",
        [("while", ["b", "c", "z"], ["b", "c", "z"], ["b"], "single"),
         ("while", ["c", "z", "b"], ["c", "z", "b"], ["b", "c", "z"], "object_array"),
         ("while", ["c", "z"], ["c", "z"], ["c", "z"], "object_array")]),
}


@pytest.mark.parametrize("src, rows", LIVENESS_CASES.values(), ids=LIVENESS_CASES.keys())
def test_liveness_edge_cases(src, rows):
    def by_name(params):
        return [name for name, _ in params]

    got = [(r["kind"], by_name(r["params"]), by_name(r["modified"]), by_name(r["liveAfter"]),
            r["packing"]) for r in json.loads(_analysis_json(parse(src)))]
    assert got == rows


# ---------------------------------------------------------- large methods


def sequential_loops(n: int) -> str:
    """One method with n loops one after another, cycling through the four
    loop kinds and the three packings."""
    lines = ["void main() {", "    int s = 0;", "    int t = 1;", "    double d = 0.5;",
             "    double[] xs = new double[] { 1.0, 2.0 };"]
    for k in range(n):
        kind = k % 4
        if kind == 0:
            lines += [f"    int i{k} = 0;",
                      f"    while (i{k} < 2) {{ s = s + i{k}; i{k} = i{k} + 1; }}"]
        elif kind == 1:
            lines += [f"    int j{k} = 0;",
                      f"    do {{ j{k} = j{k} + 1; t = t + j{k}; }} while (j{k} < 2);"]
        elif kind == 2:
            lines += [f"    for (int n{k} = 0; n{k} < 2; n{k} = n{k} + 1) "
                      f"{{ s = s * 2 + n{k}; t = t - 1; }}"]
        else:
            lines += [f"    for (double v{k} : xs) {{ d = d + v{k}; }}"]
    lines += ["    print(s);", "    print(t);", "    print(d);", "}"]
    return "\n".join(lines) + "\n"


def while_nest(depth: int) -> str:
    """One method holding `depth` while loops, each inside the last."""
    lines = ["void main() {", "    int s = 0;"]
    pad = "    "
    for k in range(depth):
        lines += [f"{pad}int c{k} = 0;", f"{pad}while (c{k} < 1) {{"]
        pad += "    "
    lines.append(f"{pad}s = s + 1;")
    for k in reversed(range(depth)):
        lines.append(f"{pad}c{k} = c{k} + 1;")
        pad = pad[4:]
        lines.append(f"{pad}}}")
    lines += ["    print(s);", "}"]
    return "\n".join(lines) + "\n"


# sha256 of `_analysis_json` and the printed rewrite, as the analysis that
# re-walked the method for every loop produced them (it took seconds on each)
@pytest.mark.parametrize("src, digest", [
    (sequential_loops(1000), "39951f56f3b50e917d7a4c10ca9d75253a9a14de9ba69c6ff9e33dce2e79ccfb"),
    (while_nest(200), "900ce6511089fe822d38b3534bd51886b56da2a7bf09f6b4d91b52e5649a3876"),
], ids=["1000-sequential-loops", "200-deep-while-nest"])
def test_large_methods_rewrite_and_round_trip(src, digest):
    p = parse(src)
    assert check_semantics(p) == []
    result = transform_program(p)
    text = pretty_print(result.program)
    again = parse(text)
    assert check_semantics(again) == []
    assert structural_eq(again, result.program)
    assert hashlib.sha256((_analysis_json(p) + "\0" + text).encode()).hexdigest() == digest
