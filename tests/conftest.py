import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from loop2rec.ast import (  # importable once src/ is on the path
    VOID,
    Assign,
    Binary,
    Block,
    For,
    IntLit,
    MethodDef,
    Print,
    Program,
    Var,
    While,
)

CORPUS = ROOT / "corpus"

CORPUS_FILES = sorted(p.name for p in CORPUS.glob("*.mj"))
# every corpus program except the deliberate diverger
TERMINATING = [n for n in CORPUS_FILES if n != "infinite.mj"]


def corpus_text(name: str) -> str:
    return (CORPUS / name).read_text(encoding="utf-8")


@pytest.fixture(scope="session")
def corpus_dir() -> pathlib.Path:
    return CORPUS


def hand_built_walk_trees() -> list:
    """Programs neither the parser nor the generator makes, for the tree
    walks: a loop in a `for` header's init and one in its update, each outside
    and inside an enclosing loop (the init also assigns `x` directly), and
    blocks nested 300 deep around a loop nest."""
    def count(name):
        return Assign(name, Binary("+", Var(name), IntLit(1)))

    def loop(name, *body):
        return While(Binary("<", Var(name), IntLit(1)), [count(name), *body])

    programs = []
    for header in ("init", "update"):
        for enclosed in (False, True):
            init, update = [Assign("x", IntLit(0))], [count("i")]
            (init if header == "init" else update).append(loop("a"))
            body = [For(init, Binary("<", Var("i"), IntLit(1)), update, [Print(Var("a"))])]
            if enclosed:
                body = [loop("c", *body)]
            programs.append(Program([MethodDef(VOID, "main", [], body)]))
    body = [count("e"), loop("d", loop("f"))]
    for _ in range(300):
        body = [Block(body), Print(Var("e"))]
    programs.append(Program([MethodDef(VOID, "main", [], body)]))
    return programs
