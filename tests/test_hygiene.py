"""Dead-code hygiene of the package, from its syntax trees: every import is
used by the module that makes it, and every module-level function, class or
constant is named somewhere in `src/`, `tests/` or `bench/`. Also, no line
in `src/` is longer than MAX_LINE characters, and every class the `ast`
module defines declares its own `__slots__` (`record` gives each node class
its slots), so no tree node carries a `__dict__`. No statement handler of the
interpreter holds a `try`: `_Run.exec_seq` is the one place that gives a
runtime error its location. No expression or statement handler names
`isinstance`: the interpreter tells values apart by exact class. No file in
`src/loop2rec` reads `__class__`: a class test is `type(x)`, which CPython's
specializing interpreter caches whatever the class of `x`."""

import ast
import inspect
import pathlib
import types

import pytest

from loop2rec import ast as tree
from loop2rec import interp

from conftest import ROOT

PACKAGE = ROOT / "src" / "loop2rec"
MODULES = sorted(PACKAGE.glob("*.py"))
MAX_LINE = 100


def parse_file(path: pathlib.Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def exported_names(tree: ast.Module) -> set:
    """The strings of the module's `__all__`."""
    names = set()
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


SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def unused_imports(tree: ast.Module) -> list:
    """Names an import binds that the scope making it never reads. A function,
    lambda or class is a scope of its own: a read inside it counts for an
    enclosing scope's import only when it binds no name of its own by that
    name (an import, an assignment or a parameter)."""
    out = []
    scope_reads(tree, out)
    exported = exported_names(tree)
    return [name for name in out if name not in exported]


def scope_reads(scope: ast.AST, out: list) -> set:
    """The names `scope` reads and does not bind, after appending to `out`
    the names its own imports bind and it never reads."""
    imports, bound, reads = [], set(), set()
    stack = list(reversed(list(ast.iter_child_nodes(scope))))
    while stack:
        node = stack.pop()
        if isinstance(node, SCOPES):
            if not isinstance(node, ast.Lambda):
                bound.add(node.name)
            reads |= scope_reads(node, out)
            continue
        if isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom) and node.module != "__future__"):
            for alias in node.names:
                imports.append(alias.asname or alias.name.split(".")[0])
        elif isinstance(node, ast.Name):
            (bound if isinstance(node.ctx, ast.Store) else reads).add(node.id)
        elif isinstance(node, ast.arg):
            bound.add(node.arg)
        stack += reversed(list(ast.iter_child_nodes(node)))
    out += [name for name in imports if name not in reads]
    return reads - bound - set(imports)


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
    # a function's own import hides the module's from the function body
    scoped = ast.parse("import os\ndef f():\n    import os\n    return os.sep\n"
                       "def g():\n    import sys\n")
    assert unused_imports(scoped) == ["sys", "os"]
    assert module_definitions(tree) == ["A", "f"]
    assert "f" not in mentions(tree) and "A" in mentions(tree)


def lines_where(path: pathlib.Path, found) -> list:
    """`file:line` for each line of the file at `path` for which `found` is true."""
    lines = path.read_text(encoding="utf-8").splitlines()
    return [f"{path.name}:{i}" for i, line in enumerate(lines, 1) if found(line)]


def is_long(line: str) -> bool:
    return len(line) > MAX_LINE


def reads_class_attribute(line: str) -> bool:
    # a text check: it also sees the `__eq__` that `record` compiles from a string
    return "__class__" in line


def test_no_source_line_is_too_long():
    assert [hit for path in sorted((ROOT / "src").rglob("*.py"))
            for hit in lines_where(path, is_long)] == []


def test_the_line_check_sees_long_lines(tmp_path):
    path = tmp_path / "m.py"
    path.write_text("x" * 100 + "\n" + "y" * 101 + "\n", encoding="utf-8")
    assert lines_where(path, is_long) == ["m.py:2"]


def test_no_source_reads_the_class_attribute():
    assert [hit for path in MODULES for hit in lines_where(path, reads_class_attribute)] == []


def test_the_class_check_sees_a_class_attribute_read(tmp_path):
    path = tmp_path / "m.py"
    path.write_text("c = type(x)\nexec('def f(a, b): return a.__class__ is b')\n",
                    encoding="utf-8")
    assert lines_where(path, reads_class_attribute) == ["m.py:2"]


def unslotted_classes(module: types.ModuleType) -> list:
    """Names of the classes defined in `module` whose own `__dict__` holds no
    `__slots__`: their instances carry a `__dict__`."""
    return [name for name, c in vars(module).items()
            if isinstance(c, type) and c.__module__ == module.__name__
            and "__slots__" not in c.__dict__]


def test_every_tree_node_class_is_slotted():
    assert unslotted_classes(tree) == []


def test_the_slots_check_sees_unslotted_classes():
    module = types.ModuleType("nodes")
    exec("from loop2rec.ast import Expr, record\n"
         "@record\nclass A(Expr):\n    x: int\n"
         "class B(Expr):\n    x: int\n"
         "class C(A):\n    pass\n"
         "class D:\n    __slots__ = ()\n", vars(module))
    assert unslotted_classes(module) == ["B", "C"]


TRY = (ast.Try, getattr(ast, "TryStar", ast.Try))
HANDLERS = {f.__name__ for f in interp._EXEC.values()}
EVALUATORS = {f.__name__ for f in interp._EVAL.values()}


def is_try(node: ast.AST) -> bool:
    return isinstance(node, TRY)


def names_isinstance(node: ast.AST) -> bool:
    return isinstance(node, ast.Name) and node.id == "isinstance"


def functions_holding(module: ast.Module, names: set, found) -> list:
    """The module-level functions of `module` named in `names` that hold a
    node for which `found` is true."""
    return [node.name for node in module.body
            if isinstance(node, ast.FunctionDef) and node.name in names
            and any(found(n) for n in ast.walk(node))]


def test_no_statement_handler_catches_errors():
    module = parse_file(PACKAGE / "interp.py")
    defined = {node.name for node in module.body if isinstance(node, ast.FunctionDef)}
    assert HANDLERS <= defined
    assert functions_holding(module, HANDLERS, is_try) == []


def test_the_try_check_sees_a_handler_that_catches():
    copy = (inspect.getsource(interp._print)
            + "    try:\n        pass\n    except InterpError:\n        raise\n")
    assert functions_holding(ast.parse(copy), HANDLERS, is_try) == ["_print"]


def test_no_handler_tells_values_apart_by_isinstance():
    # exact class only: `bool` is a subclass of `int` (docs/semantics.md)
    module = parse_file(PACKAGE / "interp.py")
    defined = {node.name for node in module.body if isinstance(node, ast.FunctionDef)}
    assert HANDLERS | EVALUATORS <= defined
    assert functions_holding(module, HANDLERS | EVALUATORS, names_isinstance) == []


def test_the_isinstance_check_sees_a_handler_that_calls_it():
    for handler in (interp._length, interp._foreach):
        copy = (inspect.getsource(handler)
                + "    if isinstance(x, int):\n        raise TypeMismatchError('x')\n")
        assert functions_holding(ast.parse(copy), HANDLERS | EVALUATORS,
                                 names_isinstance) == [handler.__name__]


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def defaulted_parameters(module: ast.Module) -> list:
    """(owner class or None, function, parameter, position) for every
    parameter with a default of a function or method in `module`. A
    method's positions are counted without `self`; a keyword-only
    parameter's position is None."""
    out = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name)
            elif isinstance(child, FUNCTIONS):
                a = child.args
                positional = a.posonlyargs + a.args
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in child.decorator_list)
                skip = 1 if owner is not None and not static else 0
                for i in range(len(positional) - len(a.defaults), len(positional)):
                    out.append((owner, child.name, positional[i].arg, i - skip))
                out.extend((owner, child.name, arg.arg, None)
                           for arg, default in zip(a.kwonlyargs, a.kw_defaults) if default)
                visit(child, None)
            else:
                visit(child, owner)

    visit(module, None)
    return out


def class_ancestors(modules: list) -> dict:
    """Class name -> the class and its ancestors among the classes the
    modules define."""
    bases = {node.name: [b.id for b in node.bases if isinstance(b, ast.Name)]
             for module in modules for node in ast.walk(module)
             if isinstance(node, ast.ClassDef)}

    def line(name):
        return [name] + [a for b in bases.get(name, ()) if b in bases for a in line(b)]

    return {name: line(name) for name in bases}


def unpassed_defaults(defining: dict, calling: list) -> list:
    """`module.[Class.]function(parameter)` for each defaulted parameter of a
    function in `defining` (stem -> module) that no call in `calling`
    passes: by keyword, by enough positional arguments to reach it, or by
    `*`/`**` unpacking. A call is matched by its bare or attribute name; a
    call to a class also counts for the `__init__` of the class and of each
    of its ancestors."""
    ancestors = class_ancestors(list(defining.values()))
    calls = {}  # name -> [(positional count, keywords, unpacks)]
    inits = {}  # class -> the calls that reach its `__init__`
    for module in calling:
        for node in ast.walk(module):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            keywords = {k.arg for k in node.keywords}
            positional = sum(not isinstance(a, ast.Starred) for a in node.args)
            call = (positional, keywords, None in keywords or positional < len(node.args))
            calls.setdefault(name, []).append(call)
            for owner in ancestors.get(name, ()):
                inits.setdefault(owner, []).append(call)
    out = []
    for stem, module in defining.items():
        for owner, function, param, position in defaulted_parameters(module):
            passes = calls.get(function, [])
            if function == "__init__":
                passes = passes + inits.get(owner, [])
            if not any(unpacks or param in keywords
                       or (position is not None and count > position)
                       for count, keywords, unpacks in passes):
                out.append(f"{stem}.{owner + '.' if owner else ''}{function}({param})")
    return out


def test_every_defaulted_parameter_is_passed_somewhere():
    calling = [parse_file(path) for folder in ("src", "tests", "bench")
               for path in sorted((ROOT / folder).rglob("*.py"))]
    defining = {path.stem: parse_file(path) for path in MODULES}
    assert unpassed_defaults(defining, calling) == []


def test_the_parameter_check_sees_unpassed_defaults():
    module = ast.parse(
        "class Base:\n"
        "    def __init__(self, a, loc=None): pass\n"
        "class Child(Base):\n"
        "    def put(self, x, y=1, *, z=2): pass\n"
        "    @staticmethod\n"
        "    def make(x=0): pass\n"
        "class Other:\n"
        "    def __init__(self, a=1): pass\n"
        "def f(a, b=1, c=2, d=3):\n"
        "    def inner(q=1): pass\n"
        "    inner()\n"
        "def g(x=0): pass\n"
        "def h(x=0, y=0): pass\n"
        "def k(x=0): pass\n"
        "Child(1, 2).put(1, 2)\n"
        "Child.make(5)\n"
        "f(1, c=2)\n"
        "h(*args)\n"
        "k(**opts)\n")
    assert unpassed_defaults({"m": module}, [module]) == [
        "m.Child.put(z)", "m.Other.__init__(a)", "m.f(b)", "m.f(d)", "m.inner(q)", "m.g(x)"]
