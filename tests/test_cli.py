import json

import pytest

from loop2rec import cli, transform
from loop2rec.analysis import UnsupportedConstruct
from loop2rec.ast import Loc, program_loops
from loop2rec.cli import main
from loop2rec.parser import MAX_NESTING, parse
from loop2rec.printer import pretty_print
from loop2rec.transform import Mutation, TransformOptions, transform_program
from loop2rec.verify import fuzz_campaign

from conftest import CORPUS, CORPUS_FILES, TERMINATING


def test_transform_sqrt_to_stdout(capsys):
    assert main(["transform", str(CORPUS / "sqrt.mj")]) == 0
    out = capsys.readouterr().out
    assert "double sqrt_loop(double x, double b) {" in out
    assert "return sqrt_loop(x, b);" in out


def test_transform_loop_free_is_plain_pretty_print(tmp_path, capsys):
    src = "void main() { int x = 1; print(x); }"
    f = tmp_path / "plain.mj"
    f.write_text(src)
    assert main(["transform", str(f)]) == 0
    assert capsys.readouterr().out == pretty_print(parse(src))


def test_transform_writes_output_file(tmp_path, capsys):
    out = tmp_path / "out.mj"
    assert main(["transform", str(CORPUS / "sqrt.mj"), "-o", str(out)]) == 0
    assert "sqrt_loop" in out.read_text()
    assert capsys.readouterr().out == ""


def test_transform_verify_flag(capsys):
    assert main(["transform", str(CORPUS / "nested.mj"), "--verify"]) == 0


def test_transform_never_overwrites_input(tmp_path, capsys):
    f = tmp_path / "same.mj"
    f.write_text("void main() { }")
    assert main(["transform", str(f), "-o", str(f)]) == 3
    assert f.read_text() == "void main() { }"
    assert capsys.readouterr().err == "refusing to overwrite the input file in place\n"


def test_transform_of_a_missing_file_is_an_io_error(tmp_path, capsys):
    # with or without -o naming a file that exists: the input loads first
    missing, existing = tmp_path / "missing.mj", tmp_path / "out.mj"
    existing.write_text("kept")
    for output in ([], ["-o", str(existing)]):
        assert main(["transform", str(missing)] + output) == 3
        assert capsys.readouterr().err == f"{missing}: No such file or directory\n"
    assert existing.read_text() == "kept"


WRITES_ITS_ARRAY = ("void main() {\n    double[] xs = new double[] { 1.0 };\n"
                    "    for (double v : xs) {\n        xs[0] = v + 1.0;\n    }\n}\n")


def test_transform_hoists_an_array_its_foreach_writes(tmp_path, capsys):
    f = tmp_path / "writes.mj"
    f.write_text(WRITES_ITS_ARRAY)
    assert main(["transform", "--verify", str(f)]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert "        double[] coll = xs;\n" in out
    assert "void main_loop(double[] coll, double[] xs, int index) {\n" \
           "    double v = coll[index];\n    xs[0] = v + 1.0;\n" in out


@pytest.mark.parametrize("command", ["diff", "analyze"])
def test_a_foreach_that_writes_its_array_is_no_frontend_error(tmp_path, capsys, command):
    f = tmp_path / "writes.mj"
    f.write_text(WRITES_ITS_ARRAY)
    assert main([command, str(f)]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    if command == "diff":
        assert out == "equivalent\n"
    else:
        (row,) = json.loads(out)
        assert (row["kind"], row["params"], row["packing"]) == (
            "foreach_array", [["xs", "double[]"]], "none")


def test_transform_output_to_a_missing_directory_is_an_io_error(tmp_path, capsys):
    out = tmp_path / "missing" / "out.mj"
    assert main(["transform", str(CORPUS / "sqrt.mj"), "-o", str(out)]) == 3
    assert capsys.readouterr().err.startswith(f"{out}: ")


def test_transform_output_to_a_directory_is_an_io_error(tmp_path, capsys):
    assert main(["transform", str(CORPUS / "sqrt.mj"), "-o", str(tmp_path)]) == 3
    assert capsys.readouterr() == ("", f"{tmp_path}: Is a directory\n")


@pytest.mark.parametrize("printed, err", [
    ("void main( {\n",
     "<transformed>:1:12: output does not re-parse: expected a type, found {\n"),
    ("void main() {\n    x = 1;\n    print(y);\n}\n",
     "<transformed>:2:5: assignment to undeclared variable 'x'\n"
     "<transformed>:3:5: use of undeclared variable 'y'\n"),
], ids=["reparse", "recheck"])
def test_transform_verify_rejects_output_that_does_not_load(tmp_path, monkeypatch, capsys,
                                                            printed, err):
    monkeypatch.setattr(cli, "pretty_print", lambda program: printed)
    out = tmp_path / "out.mj"
    assert main(["transform", str(CORPUS / "sqrt.mj"), "--verify", "-o", str(out)]) == 2
    assert capsys.readouterr() == ("", err)
    assert not out.exists()


def test_transform_verify_rejects_output_that_does_not_round_trip(monkeypatch, capsys):
    # the untransformed program re-parses and re-checks, but it is not the rewrite
    source = (CORPUS / "sqrt.mj").read_text(encoding="utf-8")
    monkeypatch.setattr(cli, "pretty_print", lambda program: source)
    assert main(["transform", str(CORPUS / "sqrt.mj"), "--verify"]) == 2
    assert capsys.readouterr() == ("", "<transformed>: output does not round-trip\n")
    assert main(["transform", str(CORPUS / "sqrt.mj")]) == 0
    assert capsys.readouterr() == (source, "")


def test_transform_dump_analysis(capsys):
    assert main(["transform", str(CORPUS / "sqrt.mj"), "--dump-analysis"]) == 0
    err = capsys.readouterr().err
    rows = json.loads(err)
    assert rows[0]["loopMethodName"] == "sqrt_loop"
    assert rows[0]["packing"] == "single"


@pytest.mark.parametrize("name", CORPUS_FILES)
def test_transform_dumps_the_analysis_of_its_own_scheme(name, capsys):
    path = str(CORPUS / name)
    assert main(["transform", path, "--no-optimize", "--dump-analysis"]) == 0
    rows = json.loads(capsys.readouterr().err)
    report = transform_program(parse((CORPUS / name).read_text()),
                               TransformOptions(optimize=False)).report
    assert [r["loopMethodName"] for r in rows] == [r.loop_method_name for r in report]
    assert {r["packing"] for r in rows} <= {"object_array"}


@pytest.mark.parametrize("name", CORPUS_FILES)
def test_transform_dump_analysis_plans_once(name, monkeypatch, capsys):
    # one analysis per loop, printed as `analyze` prints it
    path = str(CORPUS / name)
    assert main(["analyze", path]) == 0
    rows = capsys.readouterr().out
    calls = []
    analyze_loop = transform.analyze_loop

    def counted(loop, *args):
        calls.append(loop)
        return analyze_loop(loop, *args)

    monkeypatch.setattr(transform, "analyze_loop", counted)
    assert main(["transform", path, "--dump-analysis"]) == 0
    assert capsys.readouterr().err == rows
    loops = [loop for _, loop in program_loops(parse((CORPUS / name).read_text()))]
    assert calls == loops and len(set(map(id, calls))) == len(loops)


def test_run_foreach_array_prints_roots(capsys):
    assert main(["run", str(CORPUS / "foreach_array.mj")]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    values = [float(x) for x in lines]
    assert len(values) == 2
    assert abs(values[0] - 2.0) <= 1e-6
    assert abs(values[1] - 3.0) <= 1e-6


FOREACH_WRITES_THROUGH_AN_ALIAS = {
    "variable": ("void main() {\n"
                 "    double[] xs = new double[] { 1.0, 2.0, 3.0 };\n"
                 "    double[] ys = xs;\n"
                 "    for (double v : xs) {\n"
                 "        ys[1] = 9.0;\n"
                 "        print(v);\n"
                 "    }\n"
                 "}\n"),
    "callee": ("void poke(double[] a) {\n"
               "    a[1] = 9.0;\n"
               "}\n"
               "\n"
               "void main() {\n"
               "    double[] xs = new double[] { 1.0, 2.0, 3.0 };\n"
               "    for (double v : xs) {\n"
               "        poke(xs);\n"
               "        print(v);\n"
               "    }\n"
               "}\n"),
}


@pytest.mark.parametrize("alias", sorted(FOREACH_WRITES_THROUGH_AN_ALIAS))
def test_foreach_reads_each_cell_live(tmp_path, capsys, alias):
    # the rewrite reads xs[i] on each call, as Java's foreach does
    f = tmp_path / "alias.mj"
    f.write_text(FOREACH_WRITES_THROUGH_AN_ALIAS[alias])
    assert main(["run", str(f)]) == 0
    assert capsys.readouterr() == ("1.0\n9.0\n3.0\n", "")
    for mode in ([], ["--no-optimize"]):
        assert main(["diff", str(f)] + mode) == 0
        assert capsys.readouterr() == ("equivalent\n", "")


def test_run_empty_main(tmp_path, capsys):
    f = tmp_path / "empty.mj"
    f.write_text("void main() { }")
    assert main(["run", str(f)]) == 0
    assert capsys.readouterr().out == ""


def test_run_budget_exceeded_exit_code(capsys):
    assert main(["run", str(CORPUS / "infinite.mj"), "--budget", "50000"]) == 4


def test_run_runtime_error_exit_code(tmp_path, capsys):
    f = tmp_path / "crash.mj"
    f.write_text("void main() { int q = 1 / 0; }")
    assert main(["run", str(f)]) == 5
    assert "DivisionByZero" in capsys.readouterr().err


def test_run_trace_logs_rules(capsys):
    assert main(["run", str(CORPUS / "zero_iter.mj"), "--trace"]) == 0
    err = capsys.readouterr().err
    assert "while" in err and "depth=" in err


def test_parse_error_exit_code(tmp_path, capsys):
    f = tmp_path / "broken.mj"
    f.write_text("void main() { int = ; }")
    assert main(["run", str(f)]) == 2
    assert str(f) in capsys.readouterr().err


def test_semantic_error_exit_code(tmp_path, capsys):
    f = tmp_path / "bad.mj"
    f.write_text("void main() { x = 1; }")
    assert main(["diff", str(f)]) == 2


def test_final_return_error_is_reported_at_the_return(tmp_path, capsys):
    f = tmp_path / "bad.mj"
    f.write_text("int f(int a) {\n    int b = a;\n    return 1.5;\n}\n")
    assert main(["run", str(f)]) == 2
    assert capsys.readouterr().err == f"{f}:3:5: return type mismatch: expected int, got double\n"


def test_missing_file_exit_code(capsys):
    assert main(["run", "/nonexistent/nope.mj"]) == 3


def test_non_utf8_file_is_an_io_error(tmp_path, capsys):
    data = b"void main() { print(1); }\n// caf\xe9\n"
    f = tmp_path / "latin1.mj"
    f.write_bytes(data)
    offset = data.index(0xE9)
    for cmd in ("transform", "run", "diff", "analyze"):
        assert main([cmd, str(f)]) == 3
        assert capsys.readouterr().err == (
            f"{f}: not valid UTF-8 (byte 0xe9 at offset {offset})\n")


def deep_loop_program(parens: int) -> str:
    """A loop whose body nests `parens` brackets; the body's braces are one
    more level."""
    return ("void main() {\n    int x = 0;\n    while (x < 3) {\n"
            f"        x = x + {'(' * parens}1{')' * parens};\n"
            "    }\n    print(x);\n}\n")


def test_nesting_at_the_limit_runs_end_to_end(tmp_path, capsys):
    f = tmp_path / "deep.mj"
    f.write_text(deep_loop_program(MAX_NESTING - 1))
    assert main(["run", str(f)]) == 0
    assert capsys.readouterr().out == "3\n"
    assert main(["transform", str(f), "--verify"]) == 0
    assert "main_loop" in capsys.readouterr().out
    assert main(["diff", str(f)]) == 0


@pytest.mark.parametrize("parens", [MAX_NESTING, 3000])
def test_nesting_over_the_limit_exits_2(tmp_path, capsys, parens):
    f = tmp_path / "too_deep.mj"
    f.write_text(deep_loop_program(parens))
    for cmd in ("transform", "run", "diff", "analyze"):
        assert main([cmd, str(f)]) == 2
        err = capsys.readouterr().err
        assert err == (f"{f}:4:{len('        x = x + ') + MAX_NESTING}: expected "
                       f"nesting depth at most {MAX_NESTING}, found (\n")


def test_infinite_double_literal_exits_2(tmp_path, capsys):
    # `run` once accepted the literal as Infinity and `transform` then failed
    # to print it
    src = ("void main() { double d = 1e999; while (d > 0.0) { d = d - 1.0; } "
           "print(d); }")
    f = tmp_path / "inf.mj"
    f.write_text(src)
    for cmd in ("transform", "run"):
        assert main([cmd, str(f)]) == 2
        assert capsys.readouterr().err == (
            f"{f}:1:{src.index('1e999') + 1}: expected double literal within "
            f"binary64 range, found 1e999\n")


@pytest.mark.parametrize("name", TERMINATING)
def test_diff_corpus_all_equivalent(name, capsys):
    assert main(["diff", str(CORPUS / name)]) == 0
    assert "equivalent" in capsys.readouterr().out


def test_diff_json_output(capsys):
    assert main(["diff", str(CORPUS / "sqrt.mj"), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "equivalent"
    assert "counters" in payload


def test_diff_no_optimize(capsys):
    assert main(["diff", str(CORPUS / "two_live.mj"), "--no-optimize"]) == 0


def test_diff_reports_a_mismatch_in_text(monkeypatch, capsys):
    monkeypatch.setattr(cli, "TransformOptions", lambda optimize: TransformOptions(
        optimize, Mutation.OMIT_RETURN_VAR))
    assert main(["diff", str(CORPUS / "two_live.mj")]) == 1
    assert capsys.readouterr().out == "mismatch: print[1]: '120' vs '1'\n"


def test_analyze_emits_table(capsys):
    assert main(["analyze", str(CORPUS / "two_live.mj")]) == 0
    rows = json.loads(capsys.readouterr().out)
    (row,) = rows
    # first-use order: sum, then c (read in the first statement), then prod
    assert row["params"] == [["sum", "int"], ["c", "int"], ["prod", "int"]]
    # first-write order
    assert row["modified"] == [["sum", "int"], ["prod", "int"], ["c", "int"]]
    assert row["liveAfter"] == [["sum", "int"], ["prod", "int"]]
    assert row["packing"] == "object_array"


def test_fuzz_small_batch(capsys):
    assert main(["fuzz", "-n", "20", "--seed", "7"]) == 0
    assert "20/20 equivalent" in capsys.readouterr().out


def test_fuzz_zero_batch(capsys):
    assert main(["fuzz", "-n", "0"]) == 0


def test_fuzz_rejects_a_negative_count(capsys):
    assert main(["fuzz", "-n", "-3"]) == 2
    assert capsys.readouterr() == ("", "count must not be negative\n")


def test_fuzz_lists_each_mismatching_seed_in_text(monkeypatch, capsys):
    def mutant_campaign(n, cfg, budget):
        return fuzz_campaign(n, cfg, budget, TransformOptions(mutation=Mutation.OMIT_RETURN_VAR))

    monkeypatch.setattr(cli, "fuzz_campaign", mutant_campaign)
    assert main(["fuzz", "-n", "5"]) == 1
    assert capsys.readouterr().out == (
        "1/5 equivalent, tail_ok=True, iter_call_ok=True, budget_exceedances=0\n"
        "  seed 0: print[5]: '0' vs '2'\n"
        "  seed 1: print[1]: '0' vs '2'\n"
        "  seed 2: print[31]: '0' vs '5'\n"
        "  seed 3: print[6]: '20' vs '10020'\n")


def test_fuzz_deterministic(capsys):
    assert main(["fuzz", "-n", "10", "--seed", "3", "--json"]) == 0
    first = capsys.readouterr().out
    assert main(["fuzz", "-n", "10", "--seed", "3", "--json"]) == 0
    assert capsys.readouterr().out == first


@pytest.mark.parametrize("argv, prog, message", [
    (["bogus"], "loop2rec", "argument command: invalid choice: 'bogus'"),
    (["run"], "loop2rec run", "the following arguments are required: file"),
    (["run", "--budget", "x", str(CORPUS / "sqrt.mj")], "loop2rec run",
     "argument --budget: invalid int value: 'x'"),
])
def test_usage_errors_return_2_through_main(capsys, argv, prog, message):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    usage, error = err.rstrip("\n").rsplit("\n", 1)
    assert out == ""
    assert usage.startswith(f"usage: {prog} [-h]")
    assert error.startswith(f"{prog}: error: {message}")


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as e:
        main(["--help"])
    assert e.value.code == 0
    assert capsys.readouterr().out.startswith("usage: loop2rec [-h]")


def test_budget_must_be_positive(capsys):
    assert main(["run", str(CORPUS / "sqrt.mj"), "--budget", "0"]) == 2
    assert capsys.readouterr() == ("", "budget must be positive\n")


@pytest.mark.parametrize("command, target", [
    (["transform"], "pretty_print"),
    (["run"], "run"),
    (["diff"], "diff_run"),
    (["analyze"], "analyze_program"),
])
def test_unexpected_exception_is_one_line_internal_error(monkeypatch, capsys, command, target):
    def boom(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, target, boom)
    assert main(command + [str(CORPUS / "sqrt.mj")]) == cli.EXIT_INTERNAL == 6
    assert capsys.readouterr().err == "loop2rec: internal error: RuntimeError: boom\n"


@pytest.mark.parametrize("command, target", [
    (["fuzz", "-n", "1"], "fuzz_campaign"),
    (["transform", str(CORPUS / "sqrt.mj")], "transform_program"),
], ids=["fuzz", "transform"])
def test_unsupported_construct_is_an_internal_error(monkeypatch, capsys, command, target):
    # every checked program rewrites, so no command maps the class to exit 2
    def unsupported(*args, **kwargs):
        raise UnsupportedConstruct(Loc(3, 5), "loop references 'k' which is not in scope; "
                                              "run check_semantics first")

    monkeypatch.setattr(cli, target, unsupported)
    assert main(command) == cli.EXIT_INTERNAL == 6
    assert capsys.readouterr() == ("", (
        "loop2rec: internal error: UnsupportedConstruct: 3:5: loop references 'k' which is "
        "not in scope; run check_semantics first\n"))
