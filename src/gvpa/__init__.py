"""Toolkit for a process algebra with global variables.

Parses specifications, generates LTSs from the operational semantics,
decides strong / state-based / stateless bisimilarity, model-checks an
extended Hennessy-Milner logic, and translates processes and formulas
into an mCRL2 fragment whose correctness it machine-verifies.
"""

from .errors import (
    ContractViolationError, FragmentError, GvpaError, ResourceLimitError,
    SpecSyntaxError, SpecValidationError,
)
from .syntax import (
    Action, Assign, Choice, Cond, CommFunction, Deadlock, DomainDef, Encap,
    InitSpec, Name, Parallel, Prefix, ProcessExpr, RecursiveSpec,
    TransitionLabel, Valuation, enumerate_valuations, expr_str, label_str,
    validate_comm, validate_guardedness, validate_spec,
)
from .parser import parse_expr, parse_spec, render_spec
from .sos import (
    ExplorationConfig, GvState, Lts, explore, export_lts, generate_lts,
    reachable_exprs, state_str, step,
)
from .hml import (
    And, Box, Check, Diamond, HFalse, HTrue, HmlFormula, Not, Or, SetVar,
    StateSpace, build_state_space, eval_formula, eval_modal_on_lts, formula_str,
    fragment, modal_depth, parse_formula, satisfies, set_all,
)
from .bisim import (
    BisimResult, distinguishing_formula_state_based,
    distinguishing_formula_stateless, state_based_bisim,
    state_based_bisim_on_lts, stateless_bisim, strong_bisim,
)

__all__ = [name for name in dir() if not name.startswith("_")]
