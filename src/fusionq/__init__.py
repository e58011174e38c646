"""Exact fusion rings of WZW models and their Q-system verification tools.

The qsystem and smatrix names import their module on first use."""

import importlib

from .cartan import DynkinType, RootSystem, WeightSystem, build_root_system
from .fusion import (
    FusionContext,
    NumericDegradationError,
    ReductionLimitError,
    ReductionOverflowError,
    affinize,
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
     "WGrid", "boundary_check", "check_conjecture", "check_unrestricted",
     "coupling_matrix", "kns_report", "kr_classical_components", "kr_element",
     "open_index_set", "period_multiplier", "restricted_solution", "solve_f_system",
     "supported_vertices"],
    "qsystem",
) | dict.fromkeys(
    ["SMatrix", "build_smatrix", "qdim_table", "verlinde_coefficient"],
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
    "ConjectureReport",
    "DynkinType",
    "FusionContext",
    "KNSReport",
    "KRDataUnavailableError",
    "NumericDegradationError",
    "ReductionLimitError",
    "ReductionOverflowError",
    "RestrictedSolution",
    "RootSystem",
    "SMatrix",
    "WGrid",
    "WeightSystem",
    "affinize",
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
    "kns_report",
    "kr_classical_components",
    "kr_element",
    "open_index_set",
    "period_multiplier",
    "qdim_table",
    "restricted_solution",
    "solve_f_system",
    "supported_vertices",
    "verlinde_coefficient",
]
