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
from .independence import (
    IndependenceReport,
    Quantification,
    RelevancePartition,
    maximum_map_independence,
    quantify,
    relevance_partition,
    strong_map_independence,
    threshold_map_independence,
    weak_map_independence,
)
from .inference import (
    MapResult,
    joint_probability,
    map_solve,
    map_threshold,
    marginal,
    posterior,
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
    "MapResult", "joint_probability", "map_solve", "map_threshold", "marginal", "posterior",
    "Assignment", "Cpt", "Network", "QueryPartition", "Variable", "Violation",
    "d_separated", "enumerate_assignments", "validate_network",
]
