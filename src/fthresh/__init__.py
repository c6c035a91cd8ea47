"""Verification workbench for sharp thresholds of template factors in
random graphs: balance certificates, exponent selection, exact and bounded
couplings, Poisson approximation bounds, and factor-probability scans."""

__version__ = "0.1.0"

from .errors import (CounterexampleError, DisconnectedInputError,
                     DomainError, FThreshError, InternalInconsistencyError,
                     NotACleanCycleError, NotStrictlyOneBalancedError,
                     ResourceLimitError, UndefinedDensityError,
                     WitnessNotFoundError)
from .graphs import Graph, canonical_form, one_density
from .patterns import (Pattern, ThresholdParams, analyze_pattern,
                       derive_params, p_star, pattern_from_file,
                       pattern_preset, pi_star, pi_upper_bound)
from .fgraphs import FEdge, FGraph, classify, shadow
from .dgraphs import DGraph, clean_cycle_types, dcycle_of
from .sampling import sample_gnp, sample_gstar, sample_hf
from .factors import FactorResult, find_f_factor, verify_factor
from .exponents import SelectedConstants, select_constants
from .inventory import CycleInventory, build_inventory, chen_stein_bound
from .coupling import CouplingTranscript, precouple_cycles, run_coupling

__all__ = [
    "CounterexampleError", "CouplingTranscript", "CycleInventory",
    "DGraph", "DisconnectedInputError", "DomainError", "FEdge", "FGraph",
    "FThreshError", "FactorResult", "Graph", "InternalInconsistencyError",
    "NotACleanCycleError", "NotStrictlyOneBalancedError", "Pattern",
    "ResourceLimitError", "SelectedConstants", "ThresholdParams",
    "UndefinedDensityError", "WitnessNotFoundError", "analyze_pattern",
    "build_inventory", "canonical_form", "chen_stein_bound", "classify",
    "clean_cycle_types", "dcycle_of", "derive_params", "find_f_factor",
    "one_density", "p_star", "pattern_from_file", "pattern_preset",
    "pi_star", "pi_upper_bound", "precouple_cycles", "run_coupling",
    "sample_gnp", "sample_gstar", "sample_hf", "select_constants",
    "shadow", "verify_factor",
]
