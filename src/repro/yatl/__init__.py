"""YATL: the YAT conversion language (Sections 3 and 4 of the paper).

Public entry points::

    from repro.yatl import Rule, Program, parse_rule, parse_program
    from repro.yatl import Interpreter, ConversionResult
    from repro.yatl import instantiate_program, compose_programs
"""

from .ast import BodyPattern, Expr, FunctionCall, HeadPattern, Predicate, Rule
from .bindings import Binding, dedup_bindings
from .functions import (
    ExternalFunction,
    FunctionRegistry,
    evaluate_comparison,
    standard_registry,
)
from .skolem import SkolemTable
from .matching import MatchContext, match_body, match_child, match_edges
from .dispatch import (
    RootSignature,
    RuleDispatchIndex,
    pattern_root_signature,
    rule_root_signature,
)
from .construction import Constructor, Unbound, deref_placeholder, is_deref_placeholder
from .hierarchy import Hierarchy, rule_input_model
from .cycles import (
    CycleReport,
    analyze_cycles,
    check_cycles,
    dereference_dependencies,
    find_cycles,
    is_safe_recursive,
)
from .typing import (
    Signature,
    check_input_against,
    check_output_against,
    compatible_for_composition,
    infer_signature,
    refine_domains,
)
from .interpreter import ConversionResult, Interpreter
from .program import Program
from .updates import ResultDiff, affected_outputs, diff_results
from .lint import Diagnostic, errors_of, lint_program, lint_rule
from .builder import ProgramBuilder, RuleBuilder, program_, rule_
from .customize import Renamer, derive_rule, instantiate_program
from .compose import compose_programs
from .parser import parse_program, parse_rule
from .printer import render_program, render_rule

__all__ = [name for name in dir() if not name.startswith("_")]
