"""Composite pulse sequences for ultrahigh-fidelity quantum phase gates.

Builds, catalogs, solves for, and analyzes trains of nominal pi pulses
whose relative phases cancel systematic pulse-area errors to high order.
"""

from .analysis import (
    ErrorRange,
    FidelityProfile,
    closed_form_fidelity,
    high_fidelity_range,
    sweep,
    trace_range,
    verify_order,
)
from .catalog import ArbitraryPhaseRow, CatalogEntry, arbitrary_row, get, to_sequence
from .jets import jet_compose
from .sequences import (
    HalfSequenceSpec,
    appendix_b_sequence,
    chi_eight,
    chi_six,
    eight_pulse,
    four_pulse,
    six_pulse,
    structured_sequence,
    two_pulse,
)
from .solver import SolverConfig, Solution, residual, solve
from .su2 import (
    CompositeSequence,
    Su2,
    compose,
    frobenius_fidelity,
    target_gate,
    trace_fidelity,
)

__version__ = "1.0.0"

__all__ = [
    "ArbitraryPhaseRow",
    "CatalogEntry",
    "CompositeSequence",
    "ErrorRange",
    "FidelityProfile",
    "HalfSequenceSpec",
    "Solution",
    "SolverConfig",
    "Su2",
    "appendix_b_sequence",
    "arbitrary_row",
    "chi_eight",
    "chi_six",
    "closed_form_fidelity",
    "compose",
    "eight_pulse",
    "four_pulse",
    "frobenius_fidelity",
    "get",
    "high_fidelity_range",
    "jet_compose",
    "residual",
    "six_pulse",
    "solve",
    "structured_sequence",
    "sweep",
    "target_gate",
    "to_sequence",
    "trace_fidelity",
    "trace_range",
    "two_pulse",
    "verify_order",
]
