"""The package's records: tree nodes, analyses, options, reports and traces.
Their text, equality and hashing are pinned here, and so is what importing
the package costs in modules."""

import hashlib
import os
import subprocess
import sys

import pytest

from loop2rec.analysis import LoopAnalysis, Packing
from loop2rec.ast import INT, Binary, Loc, Param, Var, While
from loop2rec.generator import GenConfig, generate
from loop2rec.interp import run
from loop2rec.parser import parse
from loop2rec.transform import (
    Mutation,
    TransformOptions,
    analyze_program,
    transform_program,
)
from loop2rec.verify import diff_run, fuzz_campaign

from conftest import CORPUS_FILES, ROOT, corpus_text

# sha256 over the repr of every corpus tree and seeds 0-49 in the default and
# the deeper generator setting, each with its two rewrites (TransformResult,
# whose report is LoopAnalysis rows) and its analyze_program rows, then one
# ExecTrace, two DiffReports, a CampaignSummary, GenConfig() and
# TransformOptions(), as the dataclass-decorated records printed them, with
# each call a `Call` value that a VarDecl, an Assign, a Return or a CallStmt
# holds whole. Re-pinned once when a list foreach stopped taking its
# collection variable as a parameter and GenConfig lost `loop_weights`.
RECORD_REPR_PIN_SHA256 = "9045f6f27692454557ede9f6a06223596399594c461f1e7ad710dc0c852fe4fb"


def test_record_reprs_are_pinned():
    programs = [parse(corpus_text(n)) for n in CORPUS_FILES]
    programs += [generate(GenConfig(seed=s, **kw)) for s in range(50)
                 for kw in ({}, {"max_depth": 4, "max_loops": 6})]
    h = hashlib.sha256()
    for p in programs:
        for record in (p, transform_program(p),
                       transform_program(p, TransformOptions(optimize=False)),
                       analyze_program(p), analyze_program(p, optimize=False)):
            h.update(repr(record).encode() + b"\n")
    sqrt = parse(corpus_text("sqrt.mj"))
    mutant = TransformOptions(mutation=Mutation.DROP_FOR_UPDATE)
    for record in (run(sqrt), diff_run(sqrt),
                   diff_run(generate(GenConfig()), mutant, budget=10_000),
                   fuzz_campaign(3, opts=mutant, budget=10_000), GenConfig(), TransformOptions()):
        h.update(repr(record).encode() + b"\n")
    assert h.hexdigest() == RECORD_REPR_PIN_SHA256


def test_equality_ignores_locations():
    a = While(Var("x"), [], loc=Loc(1, 1))
    b = While(Var("x"), [], loc=Loc(3, 4))
    assert a == b and not a != b
    assert a != While(Var("y"), [], loc=Loc(1, 1))
    assert Var("x") != Param("x", INT)


def test_mutable_records_are_unhashable():
    for record in (Var("x"), Binary("+", Var("x"), Var("x")), While(Var("x"), []),
                   GenConfig(), TransformOptions()):
        with pytest.raises(TypeError):
            hash(record)


def test_loop_analyses_are_values():
    def row(params=(), counter=None, loc=None):
        return LoopAnalysis(0, "foreach_list", "f", params, (), (), Packing.NONE, "f_loop",
                            "result", counter, loc=loc)

    assert row() == row() and hash(row()) == hash(row())
    a = row()
    for field in ("packing", "kind", "counter", "loc"):
        with pytest.raises(AttributeError):
            setattr(a, field, None)
    with pytest.raises(AttributeError):
        del a.params
    assert a == row() and a != row((Param("x", INT),)) and a != row(counter="it")
    assert (a.counter, a.coll_name, a.loc) == (None, None, None)
    # the location is where the loop is, not what it is
    moved = row(loc=Loc(3, 4))
    assert moved == a and hash(moved) == hash(a) and moved.loc == Loc(3, 4)
    assert "loc" not in repr(moved)


def test_importing_the_package_leaves_dataclasses_and_inspect_out():
    code = ("import sys, loop2rec, loop2rec.cli\n"
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert out.stdout == "[]\n"
