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
    frob = np.empty(steps)
    trac = np.empty(steps)
    for i, e in enumerate(eps):
        u = compose(seq, float(e))
        frob[i] = frobenius_fidelity(u, target)
        trac[i] = trace_fidelity(u, target)
    return FidelityProfile(eps, frob, trac, seq.label)


def write_csv(profile: FidelityProfile, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("epsilon,frobenius_fidelity,trace_fidelity\n")
        for e, f, t in zip(profile.epsilons, profile.frobenius, profile.trace):
            fh.write(f"{e:.17g},{f:.17g},{t:.17g}\n")


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
    slope, peak = order_slope(seq)
    if not math.isfinite(slope) or peak < _MEASURABLE_INFIDELITY:
        raise AnalysisError("order exceeds measurable range")
    order = int(round(slope)) - 1
    if order < 0:
        raise AnalysisError(
            f"measured order {order}: the train misses the target gate at zero error"
        )
    return order


def _bisect(infidelity, threshold: float, lo: float, hi: float,
            tol: float = 1e-8) -> float:
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if infidelity(mid) < threshold:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


_MONOTONE_SLACK = 1e-12


def _error_range(infidelity, threshold: float) -> ErrorRange:
    if not 0.0 < threshold < 0.5:
        raise ValueError("threshold must be in (0, 0.5)")
    lo, hi = 0.0, 0.9
    if infidelity(hi) < threshold:
        raise AnalysisError("infidelity stays below threshold up to eps = 0.9")
    eps0 = _bisect(infidelity, threshold, lo, hi)
    # Trust the bisection only if infidelity grows monotonically through
    # the crossing; otherwise locate the first crossing by scanning.
    grid = np.linspace(0.0, min(eps0 * 1.1, 0.9), 64)[1:]
    vals = [infidelity(float(e)) for e in grid]
    flagged = any(b < a - _MONOTONE_SLACK for a, b in zip(vals, vals[1:]))
    if flagged:
        cross = next(
            (i for i, v in enumerate(vals) if v >= threshold), None
        )
        if cross is not None and cross > 0:
            eps0 = _bisect(
                infidelity, threshold, float(grid[cross - 1]), float(grid[cross])
            )
    return ErrorRange(eps0, threshold, 1.0 - eps0, 1.0 + eps0, flagged)


def high_fidelity_range(seq: CompositeSequence, threshold: float = 1e-4) -> ErrorRange:
    """Error half-width keeping the Frobenius infidelity below ``threshold``."""
    target = target_gate(seq.target_phi)

    def infid(eps: float) -> float:
        return 1.0 - frobenius_fidelity(compose(seq, eps), target)

    return _error_range(infid, threshold)


def trace_range(seq: CompositeSequence, threshold: float = 1e-4) -> ErrorRange:
    """Error half-width keeping the trace infidelity below ``threshold``."""
    target = target_gate(seq.target_phi)

    def infid(eps: float) -> float:
        return 1.0 - trace_fidelity(compose(seq, eps), target)

    return _error_range(infid, threshold)
