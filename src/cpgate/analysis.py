"""Quantitative verification: fidelity sweeps, compensation-order
estimation, high-fidelity error ranges, and closed-form profiles.

The closed-form Frobenius infidelity of an order-n train is
sqrt(2) |sin^(n+1)(pi*eps/2)| |sin(phi/4)| and the trace infidelity is
its square over 2; sweeps of valid trains must match these pointwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import precise
from .su2 import CompositeSequence, compose, frobenius_fidelity, target_gate, trace_fidelity


class AnalysisError(RuntimeError):
    pass


@dataclass(frozen=True)
class FidelityProfile:
    """Frobenius and trace fidelities sampled on an error grid."""

    epsilons: np.ndarray
    frobenius: np.ndarray
    trace: np.ndarray
    sequence_label: str = ""


@dataclass(frozen=True)
class ErrorRange:
    """Half-width eps0 of the error interval keeping infidelity below
    ``threshold``, with the pulse-area interval in units of pi."""

    epsilon0: float
    threshold: float
    lower: float
    upper: float
    flagged: bool = False


def sweep(seq: CompositeSequence, eps_min: float, eps_max: float,
          steps: int) -> FidelityProfile:
    """Both gate fidelities of ``seq`` on a uniform error grid."""
    if steps < 2:
        raise ValueError("steps must be >= 2")
    if not eps_min < eps_max:
        raise ValueError("eps_min must be below eps_max")
    target = target_gate(seq.target_phi)
    eps = np.linspace(eps_min, eps_max, steps)
    u = compose(seq, eps)
    return FidelityProfile(
        eps, frobenius_fidelity(u, target), trace_fidelity(u, target), seq.label
    )


def write_csv(profile: FidelityProfile, path) -> None:
    # One %-format over all rows: the bytes of f"{e:.17g},{f:.17g},{t:.17g}\n".
    table = np.column_stack((profile.epsilons, profile.frobenius, profile.trace))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("epsilon,frobenius_fidelity,trace_fidelity\n")
        fh.write(("%.17g,%.17g,%.17g\n" * len(table)) % tuple(table.ravel().tolist()))


def closed_form_fidelity(n: int, phi: float, epsilon: float) -> tuple[float, float]:
    """(frobenius, trace) fidelity of an ideal order-n train in closed form."""
    if n < 0:
        raise ValueError("order must be >= 0")
    s = abs(math.sin(math.pi * epsilon / 2)) ** (n + 1)
    g = abs(math.sin(phi / 4))
    return 1.0 - math.sqrt(2.0) * s * g, 1.0 - 2.0 * (s * g) ** 2


_SLOPE_EPS_LO = 1e-3
_SLOPE_EPS_HI = 1e-2
_SLOPE_POINTS = 20
# Measurability floor for the slope window, set by the extended-precision
# evaluation (50 digits), not by double precision.
_MEASURABLE_INFIDELITY = 1e-40


def order_slope(seq: CompositeSequence) -> tuple[float, float]:
    """(slope, peak infidelity) of the log-log fit on eps in [1e-3, 1e-2]."""
    return precise.slope_fit(
        seq, _SLOPE_EPS_LO, _SLOPE_EPS_HI, points=_SLOPE_POINTS
    )


def verify_order(seq: CompositeSequence) -> int:
    """Compensation order from the infidelity power law: round(slope) - 1.

    Raises AnalysisError when the order is beyond the measurable range or
    below zero (the train misses the target gate even at zero error).
    """
    return order_from_slope(*order_slope(seq))


def order_from_slope(slope: float, peak: float) -> int:
    """The order ``verify_order`` reads off an ``order_slope`` result."""
    if not math.isfinite(slope) or peak < _MEASURABLE_INFIDELITY:
        raise AnalysisError("order exceeds measurable range")
    order = int(round(slope)) - 1
    if order < 0:
        raise AnalysisError(
            f"measured order {order}: the train misses the target gate at zero error"
        )
    return order


_CELLS = 64
_EPS_MAX = 0.9
_EPS_TOL = 1e-8
_MONOTONE_SLACK = 1e-12


def _error_range(infidelity, threshold: float) -> ErrorRange:
    """First crossing of ``threshold`` by ``infidelity`` (an array map) on
    [0, _EPS_MAX]: a grid of _CELLS cells, then the first cell that reaches
    the threshold is regridded until it is at most _EPS_TOL wide.  Flagged
    when the first grid is not nondecreasing within _MONOTONE_SLACK."""
    if not 0.0 < threshold < 0.5:
        raise ValueError("threshold must be in (0, 0.5)")
    eps = np.linspace(0.0, _EPS_MAX, _CELLS + 1)
    vals = infidelity(eps)
    if vals[0] >= threshold:
        raise AnalysisError(f"infidelity {vals[0]:.3g} at eps = 0 is not below threshold")
    if not np.any(vals >= threshold):
        raise AnalysisError(f"infidelity stays below threshold up to eps = {_EPS_MAX}")
    flagged = bool(np.any(np.diff(vals) < -_MONOTONE_SLACK))
    k = int(np.argmax(vals >= threshold))
    lo, hi = float(eps[k - 1]), float(eps[k])
    while hi - lo > _EPS_TOL:
        eps = np.linspace(lo, hi, _CELLS + 1)
        # lo is below the threshold and hi reaches it: evaluate the interior.
        above = np.append(infidelity(eps[1:-1]) >= threshold, True)
        k = int(np.argmax(above))
        lo, hi = float(eps[k]), float(eps[k + 1])
    eps0 = 0.5 * (lo + hi)
    return ErrorRange(eps0, threshold, 1.0 - eps0, 1.0 + eps0, flagged)


def high_fidelity_range(seq: CompositeSequence, threshold: float = 1e-4) -> ErrorRange:
    """Error half-width keeping the Frobenius infidelity below ``threshold``."""
    target = target_gate(seq.target_phi)
    return _error_range(
        lambda eps: 1.0 - frobenius_fidelity(compose(seq, eps), target), threshold
    )


def trace_range(seq: CompositeSequence, threshold: float = 1e-4) -> ErrorRange:
    """Error half-width keeping the trace infidelity below ``threshold``."""
    target = target_gate(seq.target_phi)
    return _error_range(
        lambda eps: 1.0 - trace_fidelity(compose(seq, eps), target), threshold
    )
