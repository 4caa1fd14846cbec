"""loop2rec: rewrite while/do/for/foreach loops into tail-recursive methods
and check the rewrite by differential execution against a big-step
interpreter."""

from .analysis import (
    LoopAnalysis,
    NameAllocator,
    Packing,
    UnsupportedConstruct,
    analyze_loop,
)
from .ast import Program, structural_eq
from .checker import SemanticError, check_semantics
from .generator import GenConfig, generate
from .interp import (
    DEFAULT_BUDGET,
    ExecTrace,
    Frame,
    InterpError,
    State,
    StateRecorder,
    StepBudgetExceeded,
    add_frame,
    eval_expr,
    rem_frame,
    run,
    upd_r,
    upd_v,
    upd_vr,
    values_equal,
)
from .parser import ParseError, parse
from .printer import pretty_print
from .transform import (
    Mutation,
    TransformOptions,
    TransformResult,
    analyze_program,
    transform_program,
)
from .verify import (
    CampaignSummary,
    DiffReport,
    diff_run,
    fuzz_campaign,
    iteration_call_equality,
    tail_position_check,
)

__all__ = [
    "CampaignSummary",
    "DEFAULT_BUDGET",
    "DiffReport",
    "ExecTrace",
    "Frame",
    "GenConfig",
    "InterpError",
    "LoopAnalysis",
    "Mutation",
    "NameAllocator",
    "Packing",
    "ParseError",
    "Program",
    "SemanticError",
    "State",
    "StateRecorder",
    "StepBudgetExceeded",
    "TransformOptions",
    "TransformResult",
    "UnsupportedConstruct",
    "add_frame",
    "analyze_loop",
    "analyze_program",
    "check_semantics",
    "diff_run",
    "eval_expr",
    "fuzz_campaign",
    "generate",
    "iteration_call_equality",
    "parse",
    "pretty_print",
    "rem_frame",
    "run",
    "structural_eq",
    "tail_position_check",
    "transform_program",
    "upd_r",
    "upd_v",
    "upd_vr",
    "values_equal",
]
