"""Hostile inputs stay inside the exit-code contract of docs/cli.md: each
case exits with a fixed code, never 1 ("mismatch") for a crash, and never
prints a traceback."""

import pytest

from loop2rec.cli import main

DEPTH = 255  # one below MAX_NESTING, so the parser accepts every case

COMMANDS = {"run": ["run"], "transform": ["transform", "--verify"],
            "analyze": ["analyze"], "diff": ["diff"]}
ALL_OK = dict.fromkeys(COMMANDS, 0)
NO_ENTRY = ({**ALL_OK, "run": 5}, "NoEntryMethod: program has no entry method")

# name -> (source, {command: exit code}, a piece of stderr, stdout of `run`)
CASES = {
    "empty": ("", *NO_ENTRY, ""),
    "comment_only": ("// nothing here\n", *NO_ENTRY, ""),
    "no_main": ("int f(int a) { return a; }\n", *NO_ENTRY, ""),
    "trailing_nul": ("void main() { print(1); }\0", dict.fromkeys(COMMANDS, 2),
                     "1:26: expected a token, found '\\x00'", ""),
    "lone_cr": ("void main() {\r    int x = 1;\r    while (x < 3) {\r        x = x + 1;\r    }\r"
                "    print(x);\r}\r", ALL_OK, "", "3\n"),
    # a lone CR is a blank, not a line break, so the error stays on line 1
    "lone_cr_error": ("void main() {\r int x = 1;\r @ }", dict.fromkeys(COMMANDS, 2),
                      "1:28: expected a token, found '@'", ""),
    "deep_minus": ("void main() { int y = 1; int x = " + "-" * DEPTH + "y; print(x); }",
                   ALL_OK, "", "-1\n"),
    "deep_not": ("void main() { bool x = " + "!" * DEPTH + "true; print(x); }",
                 ALL_OK, "", "false\n"),
    "deep_cast": ("void main() { int x = " + "(int) " * DEPTH + "1; print(x); }",
                  ALL_OK, "", "1\n"),
    "deep_abs": ("void main() { int x = " + "abs(" * DEPTH + "-1" + ")" * DEPTH + "; print(x); }",
                 ALL_OK, "", "1\n"),
    "deep_if": ("void main() { int x = 0; " + "if (true) " * DEPTH + "x = 1; print(x); }",
                ALL_OK, "", "1\n"),
    "long_and": ("void main() { bool b = " + " && ".join(["true"] * 20_000) + "; print(b); }",
                 ALL_OK, "", "true\n"),
    "long_minus": ("void main() { int x = " + " - ".join(["1"] * 20_000) + "; print(x); }",
                   ALL_OK, "", "-19998\n"),
}


@pytest.mark.parametrize("command", sorted(COMMANDS))
@pytest.mark.parametrize("name", sorted(CASES))
def test_hostile_input_keeps_the_exit_code_contract(tmp_path, capsys, name, command):
    source, codes, err_piece, run_out = CASES[name]
    path = tmp_path / f"{name}.mj"
    path.write_bytes(source.encode())  # bytes, so no newline is translated
    args = COMMANDS[command]
    code = main(args[:1] + [str(path)] + args[1:])
    out, err = capsys.readouterr()
    assert code == codes[command]
    assert code != 1
    assert "Traceback" not in err
    if code != 0:
        assert err_piece in err
    if command == "run":
        assert out == run_out
