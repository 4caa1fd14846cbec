"""Dead-code hygiene of the package, from its syntax trees alone: every import
is used by the module that makes it, and every module-level function, class
or constant is named somewhere in `src/`, `tests/` or `bench/`. Also, no
line in `src/` is longer than MAX_LINE characters."""

import ast
import pathlib

import pytest

from conftest import ROOT

PACKAGE = ROOT / "src" / "loop2rec"
MODULES = sorted(PACKAGE.glob("*.py"))
MAX_LINE = 100


def parse_file(path: pathlib.Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def loaded_names(tree: ast.Module) -> set:
    """Names the module reads, plus the strings of its `__all__`."""
    names = {n.id for n in ast.walk(tree)
             if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            names |= set(ast.literal_eval(node.value))
    return names


def mentions(tree: ast.Module) -> set:
    """Every way a file can name a definition: a read, an attribute, an
    imported name, or a string holding just the identifier (getattr, tables
    of function names)."""
    out = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.add(n.name)
        elif isinstance(n, ast.Constant) and isinstance(n.value, str) \
                and n.value.isidentifier():
            out.add(n.value)
    return out


def unused_imports(tree: ast.Module) -> list:
    used = loaded_names(tree)
    out = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in used:
                    out.append(bound)
    return out


def module_definitions(tree: ast.Module) -> list:
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out += [t.id for t in targets if isinstance(t, ast.Name)]
    return [name for name in out if not (name.startswith("__") and name.endswith("__"))]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(parse_file(path)) == []


def test_every_module_level_definition_is_named_somewhere():
    named = set()
    for folder in ("src", "tests", "bench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            named |= mentions(parse_file(path))
    unnamed = [f"{path.stem}.{name}" for path in MODULES
               for name in module_definitions(parse_file(path)) if name not in named]
    assert unnamed == []


def test_the_checks_see_dead_code():
    tree = ast.parse("import os\nfrom x import y as z\nA = 1\ndef f():\n    return A\n")
    assert unused_imports(tree) == ["os", "z"]
    assert module_definitions(tree) == ["A", "f"]
    assert "f" not in mentions(tree) and "A" in mentions(tree)


def long_lines(path: pathlib.Path) -> list:
    lines = path.read_text(encoding="utf-8").splitlines()
    return [f"{path.name}:{i}" for i, line in enumerate(lines, 1) if len(line) > MAX_LINE]


def test_no_source_line_is_too_long():
    assert [hit for path in sorted((ROOT / "src").rglob("*.py"))
            for hit in long_lines(path)] == []


def test_the_line_check_sees_long_lines(tmp_path):
    path = tmp_path / "m.py"
    path.write_text("x" * 100 + "\n" + "y" * 101 + "\n", encoding="utf-8")
    assert long_lines(path) == ["m.py:2"]
