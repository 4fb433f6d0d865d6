"""Toolkit for a process algebra with global variables.

Parses specifications, generates LTSs from the operational semantics,
decides strong / state-based / stateless bisimilarity, model-checks an
extended Hennessy-Milner logic, and translates processes and formulas
into an mCRL2 fragment whose correctness it machine-verifies.

The public names below are loaded on first use (PEP 562), so importing
the package, or one of its modules, loads only the layers it needs.
"""

# submodule -> the public names it defines; a submodule is public itself
_EXPORTS = {
    "errors": (
        "ContractViolationError", "FragmentError", "GvpaError",
        "ResourceLimitError", "SpecSyntaxError", "SpecValidationError",
    ),
    "syntax": (
        "Action", "Assign", "Choice", "Cond", "CommFunction", "Deadlock",
        "DomainDef", "Encap", "InitSpec", "Name", "Parallel", "Prefix",
        "ProcessExpr", "RecursiveSpec", "TransitionLabel", "Valuation",
        "enumerate_valuations", "expr_str", "label_str", "validate_comm",
        "validate_guardedness", "validate_spec",
    ),
    "parser": ("parse_expr", "parse_spec"),
    "sos": (
        "ExplorationConfig", "GvState", "Lts", "explore", "export_lts",
        "generate_lts", "reachable_exprs", "state_str", "step",
    ),
    "hml": (
        "And", "Box", "Check", "Diamond", "HFalse", "HTrue", "HmlFormula",
        "Not", "Or", "SetVar", "StateSpace", "build_state_space",
        "eval_formula", "eval_modal_on_lts", "formula_str", "fragment",
        "parse_formula", "set_all",
    ),
    "bisim": (
        "BisimResult", "distinguishing_formula_state_based",
        "distinguishing_formula_stateless", "state_based_bisim",
        "state_based_bisim_on_lts", "stateless_bisim", "strong_bisim",
    ),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items()
           for name in (module, *names)}

__all__ = sorted(_ORIGIN)


def __getattr__(name):
    module = _ORIGIN.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = import_module(f"{__name__}.{module}")
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
