"""Exact fusion rings of WZW models and their Q-system verification tools.

The qsystem and smatrix names import their module on first use."""

import importlib

from .cartan import (
    BetaChain,
    BetaChainError,
    DynkinType,
    RootSystem,
    WeightSystem,
    build_root_system,
    verify_beta_chain,
)
from .fusion import (
    FusionContext,
    NumericDegradationError,
    ReducedWeight,
    ReductionLimitError,
    ReductionOverflowError,
    affinize,
    alcove_reduce,
    alcove_reduce_many,
    apply_outer,
    conjugate,
    enumerate_basis,
    fusion_product,
    fusion_products,
)

__version__ = "0.1.0"

# The qsystem and smatrix names, each with its defining module.
_LAZY = dict.fromkeys(
    ["ConjectureReport", "KNSReport", "KRDataUnavailableError", "RestrictedSolution",
     "WGrid", "admissibility_matrix", "boundary_check", "check_conjecture",
     "check_unrestricted", "coupling_matrix", "kns_report", "kr_classical_components",
     "kr_element", "open_index_set", "period_multiplier", "restricted_solution",
     "solve_f_system", "supported_vertices"],
    "qsystem",
) | dict.fromkeys(
    ["SMatrix", "build_smatrix", "generalized_qdim", "qdim_table", "smatrix_entry",
     "verlinde_coefficient", "verlinde_matrix", "weyl_group"],
    "smatrix",
)


def __getattr__(name):
    """Import a qsystem or smatrix name's module on first use (PEP 562)."""
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{_LAZY[name]}", __name__)
    globals()[name] = value = getattr(module, name)
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))


__all__ = [
    "BetaChain",
    "BetaChainError",
    "ConjectureReport",
    "DynkinType",
    "FusionContext",
    "KNSReport",
    "KRDataUnavailableError",
    "NumericDegradationError",
    "ReducedWeight",
    "ReductionLimitError",
    "ReductionOverflowError",
    "RestrictedSolution",
    "RootSystem",
    "SMatrix",
    "WGrid",
    "WeightSystem",
    "admissibility_matrix",
    "affinize",
    "alcove_reduce",
    "alcove_reduce_many",
    "apply_outer",
    "boundary_check",
    "build_root_system",
    "build_smatrix",
    "check_conjecture",
    "check_unrestricted",
    "conjugate",
    "coupling_matrix",
    "enumerate_basis",
    "fusion_product",
    "fusion_products",
    "generalized_qdim",
    "kns_report",
    "kr_classical_components",
    "kr_element",
    "open_index_set",
    "period_multiplier",
    "qdim_table",
    "restricted_solution",
    "smatrix_entry",
    "solve_f_system",
    "supported_vertices",
    "verify_beta_chain",
    "verlinde_coefficient",
    "verlinde_matrix",
    "weyl_group",
]
