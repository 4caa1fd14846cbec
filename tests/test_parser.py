import hashlib
import random
import re

import pytest

from loop2rec.ast import (
    BINARY_PREC,
    DOUBLE,
    INT,
    Binary,
    DoubleLit,
    Expr,
    IntLit,
    Loc,
    Program,
    Return,
    Stmt,
    Type,
    Var,
    While,
    array_of,
    iter_stmts,
    list_of,
    program_loops,
)
from loop2rec import ast as tree, parser
from loop2rec.checker import check_semantics, static_type
from loop2rec.generator import GenConfig, generate
from loop2rec.parser import MAX_NESTING, ParseError, parse, tokenize
from loop2rec.printer import pretty_print
from loop2rec.transform import TransformOptions, analyze_program, transform_program

from conftest import CORPUS_FILES, ROOT, corpus_text
from test_hostile import CASES as HOSTILE_CASES

SQRT_METHOD = """
double sqrt(double x) {
    double b = x;
    if (x < 0.0) {
        b = nan();
    } else {
        while (abs(b * b - x) > 1e-12) {
            b = ((x / b) + b) / 2.0;
        }
    }
    return b;
}
"""


def loops_of(program):
    out = []
    for m in program.methods:
        out.extend(st for st in iter_stmts(m.body) if isinstance(st, While))
    return out


def test_parse_sqrt_single_method_single_while():
    p = parse(SQRT_METHOD)
    assert [m.name for m in p.methods] == ["sqrt"]
    assert len(loops_of(p)) == 1
    assert isinstance(p.methods[0].body[-1], Return)


def test_parse_minimal_entry():
    p = parse("int main() { return 0; }")
    assert p.entry == "main"
    assert p.methods[0].body == [Return(IntLit(0))]
    assert check_semantics(p) == []


def test_return_inside_loop_rejected():
    with pytest.raises(ParseError) as exc:
        parse("void m() { while (true) return 1; }")
    assert "not allowed inside a loop" in str(exc.value)


def test_return_must_be_last_in_block():
    with pytest.raises(ParseError) as exc:
        parse("int m() { return 1; int x = 0; }")
    assert "last statement" in str(exc.value)


def test_return_last_in_if_branch_is_fine():
    # the rewriter emits exactly this shape, so it must parse
    p = parse("""
int f(int n) {
    if (n > 0) {
        return f(n - 1);
    }
    return n;
}

void main() { }
""")
    assert check_semantics(p) == []


def test_duplicate_method_rejected():
    with pytest.raises(ParseError) as exc:
        parse("void m() { } void m() { }")
    assert "duplicate method" in str(exc.value)


def test_duplicate_parameter_rejected():
    with pytest.raises(ParseError) as exc:
        parse("void m(int a, double a) { }")
    assert "duplicate parameter" in str(exc.value)


def test_int_literal_range():
    parse("void m() { int x = 2147483647; }")
    with pytest.raises(ParseError):
        parse("void m() { int x = 2147483648; }")


def test_int_min_literal_is_writable():
    p = parse("void m() { int x = -2147483648; }")
    assert p.methods[0].body[0].value == IntLit(-2147483648)
    with pytest.raises(ParseError):
        parse("void m() { int x = -2147483649; }")


def test_negative_literals_fold_and_round_trip():
    from loop2rec.ast import structural_eq
    from loop2rec.printer import pretty_print
    p = parse("void m() { int x = -5; double d = -1.5; int y = 1; y = y - -5; }")
    assert p.methods[0].body[0].value == IntLit(-5)
    assert structural_eq(p, parse(pretty_print(p)))


def test_calls_are_not_expressions():
    with pytest.raises(ParseError) as exc:
        parse("int f() { return 1; } void m() { int x = 1 + f(); }")
    assert "cannot appear inside expressions" in str(exc.value)


def test_foreach_and_for_headers():
    p = parse("""
void main() {
    for (double v : new double[] { 1.0 }) {
        print(v);
    }
    for (int i = 0, j = 4; i < j; i = i + 1, j = j - 1) {
        print(i);
    }
    for (; false;) {
        print(0);
    }
}
""")
    assert check_semantics(p) == []


def test_nested_collection_types():
    from loop2rec.printer import pretty_print
    from loop2rec.ast import structural_eq
    src = """
void main() {
    List<double>[] rows = new List<double>[] { new List<double> { 1.0 } };
    List<List<double>> grid = new List<List<double>> { new List<double> { 2.0 } };
    double[][] cells = new double[][] { new double[] { 3.0, 4.0 } };
    for (List<double> row : rows) {
        for (double v : row) {
            print(v);
        }
    }
    print(cells[0][1]);
}
"""
    p = parse(src)
    assert check_semantics(p) == []
    assert structural_eq(p, parse(pretty_print(p)))


@pytest.mark.parametrize("name", CORPUS_FILES)
def test_corpus_parses_and_checks(name):
    p = parse(corpus_text(name))
    assert isinstance(p, Program)
    assert check_semantics(p) == []


def test_parse_total_on_noise():
    rng = random.Random(7)
    alphabet = "abcxyz0159 (){};=<>!&|+-*/.\"'\n\t@#~`[]:,"
    for _ in range(300):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 80)))
        try:
            parse(text)
        except ParseError:
            pass  # the only acceptable failure mode


# ------------------------------------------------------------ lexer

# sha256 of "kind\ttext\tline\tcol\n" for every token, as the original
# character-at-a-time tokenizer produced them; any rewrite must match.
# GENERATED_TOKENS_SHA256 was taken from the lexer that built a Token object
# per token, over generated programs printed and rewritten in both modes,
# and re-pinned once when a list foreach's rewrite stopped passing its
# collection variable.
CORPUS_TOKENS_SHA256 = "82120ed759d321efd4fa578f405ce776a62fa4223301c02ca65304bff5620928"
LEX_SAMPLE_SHA256 = "4de4cce3b51570acc54a35349961fe55f548a3094dc070547e3dd3483f5f7546"
GENERATED_TOKENS_SHA256 = "5f69146f879623c3c0c56e27efe8bae454a00bf599197f32b938d29834e81680"

# every token kind, CRLF, a lone CR, tabs, comments, a blank line, exponents
# with and without sign or digits, Arabic-Indic digits, non-ASCII identifiers
LEX_SAMPLE = (
    "// lexical sample: every token kind\r\n"
    "void main() {\r\n"
    "\tdouble d = 1.5e-3 + 2E+2 + 3e4 + 0.25 - 5e;\n"
    "  int _x1 = ١٢ + 007;   bool b = !(a <= b) && c >= d || e != f == g;\r"
    " List<List<int>> l; x[0]=y;//tail comment\n"
    "\n"
    "  1 1e 1ex e1 é_é ok\t}\n"
)


def token_digest(pairs):
    h = hashlib.sha256()
    for prefix, text in pairs:
        for kind, lexeme, line, col in tokenize(text):
            h.update(f"{prefix}{kind}\t{lexeme}\t{line}\t{col}\n".encode())
    return h.hexdigest()


def test_corpus_token_stream_is_pinned():
    digest = token_digest((f"{name}\t", corpus_text(name)) for name in CORPUS_FILES)
    assert digest == CORPUS_TOKENS_SHA256


def generated_texts():
    """Seeds 0-199 in the default and the deeper generator setting, each
    printed and rewritten in both modes."""
    for cfg in ({}, {"max_depth": 4, "max_loops": 6}):
        for seed in range(200):
            program = generate(GenConfig(seed=seed, **cfg))
            yield pretty_print(program)
            for optimize in (True, False):
                yield pretty_print(transform_program(
                    program, TransformOptions(optimize=optimize)).program)


def test_generated_token_stream_is_pinned():
    assert token_digest(("", text) for text in generated_texts()) == GENERATED_TOKENS_SHA256


def test_parse_tokenizes_once_through_the_module_function(monkeypatch):
    # the benchmark's traced run wraps `parser.tokenize` to count tokens
    calls = []
    real = parser.tokenize

    def counting(text):
        calls.append(real(text))
        return calls[-1]

    monkeypatch.setattr(parser, "tokenize", counting)
    parse("void main() { int x = 1; }")
    assert len(calls) == 1
    assert len(calls[0]) == 11 + 1  # eleven tokens, then eof


def test_lex_sample_token_stream_is_pinned():
    toks = tokenize(LEX_SAMPLE)
    assert len(toks) == 72
    assert toks[-1] == ("eof", "<eof>", 7, 1)
    assert token_digest([("", LEX_SAMPLE)]) == LEX_SAMPLE_SHA256


@pytest.mark.parametrize("text, message", [
    ("void main() {\n\t@ }", "2:2: expected a token, found '@'"),
    ("void main() {\r\n  int x = 1;\r\n  # }", "3:3: expected a token, found '#'"),
    ("void main() {\r int x = 1;\r @ }", "1:28: expected a token, found '@'"),
    ("void main() { // note ~ $ `\n    int x = 1; ` }", "2:16: expected a token, found '`'"),
    ("\n\n\n   $", "4:4: expected a token, found '$'"),
    ("void main() { }\n~", "2:1: expected a token, found '~'"),
    ("void main() { bool b = true & false; }", "1:29: expected a token, found '&'"),
    ("void main() { double d = 1.; }", "1:27: expected a token, found '.'"),
    ("void main() {", "1:14: expected '}', found <eof>"),
    ("void main() {\n    int x = 1;\n  ", "3:3: expected '}', found <eof>"),
])
def test_lexical_error_positions(text, message):
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert str(exc.value) == message


@pytest.mark.parametrize("text, message", [
    ("void main() { List<void> xs = new List<int> { }; }",
     "1:15: expected non-void element type, found void"),
    ("void main() { void[] xs = new int[] { }; }",
     "1:15: expected non-void element type, found void[]"),
    ("void f(void x) { } void main() { }", "1:13: expected non-void parameter type, found x"),
    ("void main() { ; }", "1:15: expected a statement, found ;"),
    ("void main() { void x = 1; }", "1:20: expected a non-void declaration type, found x"),
    ("void main() { int x = (void) 1; }", "1:30: expected a non-void cast type, found 1"),
    ("void main() { int x = ; }", "1:23: expected an expression, found ;"),
    ("void main() { int x = new int { }; }",
     "1:31: expected an array or list type after 'new', found {"),
    ("void main() { List<int> xs = new List<int> { 1 }; for (void x : xs) { print(x); } }",
     "1:61: expected a non-void declaration type, found x"),
    ("void main() { for (void x = 1; true; ) { } }",
     "1:25: expected a non-void declaration type, found x"),
])
def test_syntax_error_messages(text, message):
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert str(exc.value) == message


@pytest.mark.parametrize("literal", ["²", "9²"])
def test_non_decimal_digit_is_a_parse_error(literal):
    # str.isdigit() holds for '²' but int() refuses it
    text = f"void m() {{ int x = {literal}; }}"
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert (exc.value.line, exc.value.col) == (1, text.index("²") + 1)
    assert exc.value.found == "'²'"


def test_arabic_indic_digits_are_decimal_literals():
    p = parse("void main() { int x = ١٢; print(x); }")
    assert p.methods[0].body[0].value == IntLit(12)
    assert tokenize("١٢")[0][:2] == ("int", "١٢")


@pytest.mark.parametrize("sign", ["", "-"])
def test_literal_too_long_for_int_is_a_range_error(sign):
    # more digits than int() converts; out of range all the same
    with pytest.raises(ParseError) as exc:
        parse(f"void m() {{ int x = {sign}{'9' * 5000}; }}")
    assert exc.value.expected == "int literal within 32-bit range"
    assert (exc.value.line, exc.value.col) == (1, 20)


@pytest.mark.parametrize("literal", ["1e999", "-1e999", "(-1e999)", "1.8e308"])
def test_double_literal_overflowing_to_infinity_is_an_error(literal):
    # Java rejects such a literal too; it has no finite printed form
    text = f"void m() {{ double d = {literal}; }}"
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert exc.value.expected == "double literal within binary64 range"
    assert exc.value.found == literal.strip("()")
    assert (exc.value.line, exc.value.col) == (1, text.index(literal.strip("()")) + 1)


def test_largest_double_literal_parses():
    p = parse("void m() { double d = -1.7976931348623157e308; }")
    assert p.methods[0].body[0].value == DoubleLit(-1.7976931348623157e308)


# ------------------------------------------------------------ loop numbering

GEN_SETTINGS = [{}, {"max_depth": 4, "max_loops": 6}]


def loop_nest(depth: int) -> str:
    """`depth` loops, each inside the last and each of the next kind in turn,
    with a sibling loop after every inner one, so pre-order and post-order
    numberings differ."""
    heads = ["while (false) {", "do {", "for (int i# = 0; i# < 0; i# = i# + 1) {",
             "for (int e# : new int[] { }) {"]
    tails = ["}", "} while (false);", "}", "}"]
    text = "print(0);"
    for k in reversed(range(depth)):
        head = heads[k % 4].replace("#", str(k))
        text = f"{head} {text} while (false) {{ }} {tails[k % 4]}"
    return f"void main() {{ {text} }}"


def assert_numbered_in_document_order(program) -> None:
    ids = [loop.loop_id for _, loop in program_loops(program)]
    assert ids == list(range(len(ids)))
    assert tree.assign_loop_ids(program) == len(ids)
    assert [loop.loop_id for _, loop in program_loops(program)] == ids


def test_parser_numbers_loops_in_document_order():
    texts = [corpus_text(n) for n in CORPUS_FILES] + [loop_nest(120)]
    texts += [src for src, *_ in HOSTILE_CASES.values()]
    texts += [pretty_print(generate(GenConfig(seed=s, **kw)))
              for kw in GEN_SETTINGS for s in range(200)]
    loops = 0
    for text in texts:
        try:
            p = parse(text)
        except ParseError:  # some hostile inputs are rejected by design
            continue
        assert_numbered_in_document_order(p)
        loops += len(program_loops(p))
    assert loops > 1000


def test_generator_numbers_loops_in_document_order():
    for kw in GEN_SETTINGS:
        for s in range(200):
            assert_numbered_in_document_order(generate(GenConfig(seed=s, **kw)))


def unnumbered(program):
    """`program` with every loop id at -1, as in a tree built by hand."""
    for _, loop in program_loops(program):
        loop.loop_id = -1
    return program


def test_analysis_and_transform_number_hand_built_trees():
    for text in (corpus_text("nested.mj"), loop_nest(6)):
        p = unnumbered(parse(text))
        assert analyze_program(p) == analyze_program(parse(text))
        assert_numbered_in_document_order(p)
        p = unnumbered(parse(text))
        printed = pretty_print(transform_program(p).program)
        assert printed == pretty_print(transform_program(parse(text)).program)
        assert_numbered_in_document_order(p)


# ------------------------------------------------------------ nesting limit

def nested(kind, k):
    """A statement for main's body whose innermost point nests k levels."""
    if kind == "parens":
        return f"int x = {'(' * k}1{')' * k};"
    if kind == "unary":
        return f"bool b = {'!' * k}true;"
    if kind == "negation":
        return f"int x = 1; x = {'-' * k}x;"
    if kind == "index":
        return "int[] a = new int[] { 0 }; int x = " + "a[" * k + "0" + "]" * k + ";"
    if kind == "builtin":
        return f"int x = {'abs(' * k}1{')' * k};"
    if kind == "blocks":
        return "{" * k + " print(1); " + "}" * k
    if kind == "bodies":
        return "if (true) " * k + "print(1);"
    if kind == "types":
        ty = "List<" * k + "int" + ">" * k
        return f"{ty} l = new {ty} {{ }};"
    raise ValueError(kind)


NESTING_KINDS = ["parens", "unary", "negation", "index", "builtin", "blocks",
                 "bodies", "types"]


@pytest.mark.parametrize("kind", NESTING_KINDS)
def test_nesting_at_the_limit_parses_and_checks(kind):
    p = parse(f"void main() {{ {nested(kind, MAX_NESTING)} }}")
    assert check_semantics(p) == []


@pytest.mark.parametrize("kind", NESTING_KINDS)
def test_nesting_over_the_limit_is_a_parse_error(kind):
    with pytest.raises(ParseError) as exc:
        parse(f"void main() {{ {nested(kind, MAX_NESTING + 1)} }}")
    assert exc.value.expected == f"nesting depth at most {MAX_NESTING}"


def test_nesting_error_points_at_the_opening_bracket():
    text = f"void main() {{ {nested('parens', MAX_NESTING + 1)} }}"
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert (exc.value.line, exc.value.col) == (1, text.index("(1)") + 1)


# ------------------------------------------------------------ checker


def test_undeclared_variable():
    errs = check_semantics(parse("void m() { x = 1; }"))
    assert any("undeclared" in str(e) for e in errs)


def test_shadowing_banned():
    errs = check_semantics(parse("void m() { int x = 0; { double x = 1.0; } }"))
    assert any("shadows" in str(e) for e in errs)


def test_sibling_blocks_may_reuse_names():
    errs = check_semantics(parse("void m() { { int t = 1; } { double t = 2.0; } }"))
    assert errs == []


def test_scoped_names_are_visible_inside_and_free_after():
    # a block's, a for init's and a foreach element's names are seen inside
    # it and may be declared again once it has closed
    src = """void m() {
    { int t = 1; print(t); }
    double t = 2.0;
    for (int i = 0; i < 2; i = i + 1) { print(i + 1); }
    bool i = true;
    for (double e : new double[] { 1.0 }) { { print(e); } }
    int e = 3;
    print(t); print(i); print(e);
}
"""
    assert check_semantics(parse(src)) == []


def test_scope_errors_keep_their_text_and_order():
    src = """void m() {
    { int t = 1; }
    print(t);
    for (int i = 0; i < 1; i = i + 1) {
        int i = 2;
    }
    print(i);
    for (int e : new int[] { 1 }) { }
    e = 1;
    int x = 0;
    {
        double x = 1.0;
        y = x;
    }
    x = t;
}
"""
    assert [str(e) for e in check_semantics(parse(src))] == [
        "3:5: use of undeclared variable 't'",
        "5:9: 'i' shadows a variable already in scope",
        "7:5: use of undeclared variable 'i'",
        "9:5: assignment to undeclared variable 'e'",
        "12:9: 'x' shadows a variable already in scope",
        "13:9: assignment to undeclared variable 'y'",
        "15:5: use of undeclared variable 't'",
    ]


def test_static_type_leaves_its_scope_unchanged():
    scope = {"x": INT, "d": DOUBLE}
    assert static_type(Binary("+", Var("x"), Var("d")), scope) == DOUBLE
    assert static_type(Binary("+", Var("x"), Var("y")), scope) is None
    assert scope == {"x": INT, "d": DOUBLE}


def test_sqrt_method_checks_clean():
    assert check_semantics(parse(SQRT_METHOD)) == []


def test_condition_must_be_bool():
    errs = check_semantics(parse("void m() { while (1) { } }"))
    assert any("bool" in str(e) for e in errs)


def test_argument_types_checked():
    errs = check_semantics(parse("""
double f(double x) { return x; }
void main() { double r = f(true); print(r); }
"""))
    assert any("expects double" in str(e) for e in errs)


def test_foreach_needs_collection():
    errs = check_semantics(parse("void m() { int n = 3; for (double v : n) { print(v); } }"))
    assert any("array or list" in str(e) for e in errs)


def test_foreach_element_type_must_match():
    errs = check_semantics(parse(
        "void m() { for (int v : new double[] { 1.0 }) { print(v); } }"))
    assert any("element type" in str(e) for e in errs)


def test_missing_trailing_return():
    errs = check_semantics(parse("int m() { int x = 1; }"))
    assert any("must end with a return" in str(e) for e in errs)


def test_return_type_mismatch():
    errs = check_semantics(parse("int m() { return 1.5; }"))
    assert any("return type mismatch" in str(e) for e in errs)


def test_final_return_errors_point_at_the_return():
    errs = check_semantics(parse("int f(int a) {\n    int b = a;\n    return 1.5;\n}"))
    assert [str(e) for e in errs] == ["3:5: return type mismatch: expected int, got double"]
    errs = check_semantics(parse("void f(int a) {\n    int b = a;\n    return b;\n}"))
    assert [str(e) for e in errs] == ["3:5: method 'f' is void and cannot return a value"]


def test_entry_must_be_parameterless():
    errs = check_semantics(parse("void main(int x) { }"))
    assert any("no parameters" in str(e) for e in errs)


def test_assignment_type_mismatch():
    errs = check_semantics(parse("void m() { int x = 0; x = 1.5; }"))
    assert any("cannot assign" in str(e) for e in errs)


def test_mixed_arithmetic_promotes():
    assert check_semantics(parse("void m() { double d = 1.0; d = d / 2; }")) == []


def test_cast_only_from_object():
    errs = check_semantics(parse("void m() { double d = (double) 1; }"))
    assert any("cannot cast" in str(e) for e in errs)


def test_declaring_call_assign():
    p = parse("""
double twice(double x) { return x + x; }
void main() { double t = twice(2.0); print(t); }
""")
    assert check_semantics(p) == []


def test_documented_precedence_groups_match_the_operator_table():
    text = (ROOT / "docs" / "language.md").read_text(encoding="utf-8")
    line = text.split("### Operator precedence", 1)[1].split("```")[1].strip()
    groups = [g.split() for g in re.split(r"\s{3,}", line)]
    levels = sorted(set(BINARY_PREC.values()))
    want = [[op for op, p in BINARY_PREC.items() if p == level] for level in levels]
    assert groups[:len(want)] == want
    assert groups[len(want)][0] == "unary"


# ------------------------------------------------------------ tree representation


def tree_values(x, out: list) -> list:
    """x and every node, Type and Loc it holds, through lists and fields."""
    if x.__class__ is list:
        for y in x:
            tree_values(y, out)
    elif x.__class__.__module__ == tree.__name__:
        out.append(x)
        for name in x._fields:
            tree_values(getattr(x, name), out)
    return out


def test_no_tree_value_has_a_dict():
    classes = {c for c in vars(tree).values()
               if isinstance(c, type) and c.__module__ == tree.__name__}
    values = [Expr(), Stmt()]
    extra = parse("void main() { int[] a = new int[] { 1 }; a[0] = -a[0]; bool b = !true; }")
    for p in [extra] + [parse(corpus_text(n)) for n in CORPUS_FILES]:
        for program in (p, transform_program(p).program,
                        transform_program(p, TransformOptions(optimize=False)).program):
            tree_values(program, values)
    assert {v.__class__ for v in values} == classes
    assert [v for v in values if hasattr(v, "__dict__")] == []


def test_types_and_locations_are_immutable_values():
    for value, same in ((array_of(DOUBLE), Type("array", Type("double"))),
                        (Loc(3, 5), Loc(3, 5))):
        assert value == same and hash(value) == hash(same) and value is not same
        for name in (value._fields[0], "other"):
            with pytest.raises(AttributeError):
                setattr(value, name, 1)
    assert INT != DOUBLE and array_of(INT) != list_of(INT) and Loc(3, 5) != Loc(5, 3)
    assert len({Loc(3, 5), Loc(3, 5), Loc(5, 3)}) == 2


def test_type_and_location_texts_are_unchanged():
    assert repr(array_of(DOUBLE)) == "Type(kind='array', elem=Type(kind='double', elem=None))"
    assert repr(Loc(3, 5)) == "Loc(line=3, col=5)"
    assert str(Loc(3, 5)) == "3:5"
    assert str(list_of(INT)) == "List<int>"
