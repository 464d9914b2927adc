"""Exact inference and MAP-independence analysis for discrete Bayesian networks."""

__version__ = "0.1.0"

from .compiler import (
    And,
    CompiledInstance,
    FormulaAst,
    Not,
    Or,
    ThresholdQuery,
    Var,
    build_amajsat_instance,
    compile_network,
    count_models,
    format_formula,
    formula_variables,
    parse_formula,
)
from .errors import (
    CapacityError,
    DocumentError,
    FormulaSyntaxError,
    InfeasibleQueryError,
    InvalidQueryError,
    MapIndepError,
    NetworkValidationError,
)
from .model import (
    Assignment,
    Cpt,
    Network,
    QueryPartition,
    Variable,
    Violation,
    d_separated,
    enumerate_assignments,
    validate_network,
)

# The engine modules import numpy, which is most of the package's import
# time, and validate and compile never use them.  So their names are served
# by __getattr__ (PEP 562): the first access imports the module and keeps
# the name here, where later lookups find it without the hook.
_ENGINE = {
    **dict.fromkeys(
        ("IndependenceReport", "Quantification", "RelevancePartition", "maximum_map_independence",
         "quantify", "relevance_partition", "strong_map_independence", "threshold_map_independence",
         "weak_map_independence"),
        "independence",
    ),
    **dict.fromkeys(
        ("MapResult", "joint_probability", "map_solve", "marginal", "posterior"),
        "inference",
    ),
}


def __getattr__(name: str):
    if name not in _ENGINE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = globals()[name] = getattr(import_module(f".{_ENGINE[name]}", __name__), name)
    return value


__all__ = [
    "__version__",
    "And", "CompiledInstance", "FormulaAst", "Not", "Or", "ThresholdQuery", "Var",
    "build_amajsat_instance", "compile_network", "count_models", "format_formula",
    "formula_variables", "parse_formula",
    "CapacityError", "DocumentError", "FormulaSyntaxError", "InfeasibleQueryError",
    "InvalidQueryError", "MapIndepError", "NetworkValidationError",
    "IndependenceReport", "Quantification", "RelevancePartition",
    "maximum_map_independence", "quantify", "relevance_partition",
    "strong_map_independence", "threshold_map_independence", "weak_map_independence",
    "MapResult", "joint_probability", "map_solve", "marginal", "posterior",
    "Assignment", "Cpt", "Network", "QueryPartition", "Variable", "Violation",
    "d_separated", "enumerate_assignments", "validate_network",
]
