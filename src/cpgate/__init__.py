"""Composite pulse sequences for ultrahigh-fidelity quantum phase gates.

Builds, catalogs, solves for, and analyzes trains of nominal pi pulses
whose relative phases cancel systematic pulse-area errors to high order.
"""

from .analysis import (
    ErrorRange,
    FidelityProfile,
    compose,
    frobenius_fidelity,
    high_fidelity_range,
    sweep,
    trace_fidelity,
)
from .catalog import ArbitraryPhaseRow, CatalogEntry, arbitrary_row, get, to_sequence
from .sequences import (
    chi_eight,
    chi_six,
    eight_pulse,
    four_pulse,
    six_pulse,
    structured_sequence,
    two_pulse,
)
from .solver import SolverConfig, Solution, residual, solve
from .su2 import CompositeSequence, Su2, target_gate

__version__ = "1.0.0"

__all__ = [
    "ArbitraryPhaseRow",
    "CatalogEntry",
    "CompositeSequence",
    "ErrorRange",
    "FidelityProfile",
    "Solution",
    "SolverConfig",
    "Su2",
    "arbitrary_row",
    "chi_eight",
    "chi_six",
    "compose",
    "eight_pulse",
    "four_pulse",
    "frobenius_fidelity",
    "get",
    "high_fidelity_range",
    "residual",
    "six_pulse",
    "solve",
    "structured_sequence",
    "sweep",
    "target_gate",
    "to_sequence",
    "trace_fidelity",
    "two_pulse",
]
