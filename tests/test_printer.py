import pytest

from loop2rec.ast import structural_eq
from loop2rec.generator import GenConfig, generate
from loop2rec.parser import parse
from loop2rec.printer import pretty_print
from loop2rec.transform import TransformOptions, transform_program

from conftest import CORPUS_FILES, corpus_text


def test_empty_main_prints_on_one_line():
    assert pretty_print(parse("void main() { }")) == "void main() { }\n"


def test_sqrt_guard_renders_with_abs_builtin():
    text = pretty_print(parse(corpus_text("sqrt.mj")))
    assert "while (abs(b * b - x) > 1e-12)" in text


def test_transformed_sqrt_contains_both_methods():
    result = transform_program(parse(corpus_text("sqrt.mj")))
    text = pretty_print(result.program)
    assert "double sqrt(double x) {" in text
    assert "double sqrt_loop(double x, double b) {" in text
    assert "return sqrt_loop(x, b);" in text


def test_structural_eq_reflexive_and_discriminating():
    p = parse(corpus_text("sqrt.mj"))
    assert structural_eq(p, p)
    q = transform_program(p).program
    assert not structural_eq(p, q)


@pytest.mark.parametrize("name", CORPUS_FILES)
def test_round_trip_corpus(name):
    p = parse(corpus_text(name))
    assert structural_eq(p, parse(pretty_print(p)))


def test_round_trip_generated_programs():
    for seed in range(100):
        p = generate(GenConfig(seed=seed))
        assert structural_eq(p, parse(pretty_print(p))), f"seed {seed}"


def test_round_trip_transformed_programs():
    for name in CORPUS_FILES:
        q = transform_program(parse(corpus_text(name))).program
        assert structural_eq(q, parse(pretty_print(q))), name
    # generated trees were never parsed, and both packings that return a value
    for seed in range(50):
        for kw in ({}, {"max_depth": 4, "max_loops": 6}):
            p = generate(GenConfig(seed=seed, **kw))
            for optimize in (True, False):
                q = transform_program(p, TransformOptions(optimize=optimize)).program
                assert structural_eq(parse(pretty_print(q)), q), (seed, kw, optimize)


def test_printing_is_deterministic_and_stable():
    p = parse(corpus_text("nested.mj"))
    once = pretty_print(p)
    assert pretty_print(p) == once
    assert pretty_print(parse(once)) == once


def test_minimal_parentheses_preserve_structure():
    src = "void m() { int a = 1; int b = 2; int c = 3; int r = 0; r = a - (b - c); }"
    p = parse(src)
    text = pretty_print(p)
    assert "a - (b - c)" in text
    assert structural_eq(p, parse(text))
    q = parse("void m() { int a = 1; int b = 2; int c = 3; int r = 0; r = a - b - c; }")
    assert not structural_eq(p, q)


@pytest.mark.parametrize("src, printed", [
    ("(a - b) - c", "a - b - c"),
    ("(a + b) * c + a * (b - c) / c", "(a + b) * c + a * (b - c) / c"),
    ("((a * b) + c) - (a - b)", "a * b + c - (a - b)"),
    ("(a < b) == ((b < c) == (a == c))", "a < b == (b < c == (a == c))"),
    ("-(a + b) * c", "-(a + b) * c"),
])
def test_binary_chains_print_minimal_parentheses(src, printed):
    p = parse(f"void m() {{ r = {src}; }}")
    text = pretty_print(p)
    assert text == f"void m() {{\n    r = {printed};\n}}\n"
    assert structural_eq(p, parse(text))


def test_long_chain_prints_and_round_trips():
    # deeper than the recursion limit would allow one call per operator
    p = parse("void main() { print(" + " + ".join(["1"] * 20_000) + "); }")
    text = pretty_print(p)
    assert text.count(" + 1") == 19_999
    assert structural_eq(p, parse(text))


def test_literal_forms_round_trip():
    src = ("void m() { double a = 1e-12; double b = 2.5; int c = 0; "
           "List<double> l = new List<double> { 1.0 }; "
           "double[] xs = new double[] {}; }")
    p = parse(src)
    text = pretty_print(p)
    assert "1e-12" in text and "2.5" in text
    assert "new List<double> { 1.0 }" in text
    assert "new double[] {}" in text
    assert structural_eq(p, parse(text))


@pytest.mark.parametrize("src, printed", [
    ("-(1)", "-(1)"),
    ("-(16.0)", "-(16.0)"),
    ("- -(16.0)", "--(16.0)"),
    ("(double) -(1.5)", "(double) -(1.5)"),
    ("- -1", "--1"),
    ("-(-0.0)", "--0.0"),
    ("-1", "-1"),
])
def test_negated_literals_round_trip(src, printed):
    # a negated literal is folded when parsed, so `-` of a literal that is not
    # itself negative keeps its parentheses
    p = parse(f"void m() {{ r = {src}; }}")
    text = pretty_print(p)
    assert text == f"void m() {{\n    r = {printed};\n}}\n"
    assert structural_eq(p, parse(text))


def test_empty_else_round_trips():
    p = parse("void m() { if (true) { print(1); } else { } }")
    assert p.methods[0].body[0].orelse == []
    text = pretty_print(p)
    assert "} else {\n    }" in text
    assert structural_eq(p, parse(text))
