"""Quantitative verification: fidelity sweeps, compensation-order
estimation, high-fidelity error ranges, and closed-form profiles.

The closed-form Frobenius infidelity of an order-n train is
sqrt(2) |sin^(n+1)(pi*eps/2)| |sin(phi/4)| and the trace infidelity is
its square; sweeps of valid trains must match these pointwise.  The
square holds for any train: against a phase gate both infidelities read
the squared Frobenius distance 1 - Re(a e^{i phi/2}) of the pair (a, b),
the trace infidelity as it is and the Frobenius infidelity as its root.

The range search reads any train, root or not, through its exact
propagator polynomial: one ``compose`` call and one FFT per search give
its coefficients, then a 64-cell grid on [0, 0.9] finds the first cell
where the Frobenius infidelity reaches the threshold and safeguarded
Newton refines the crossing there.  ``trace_range`` is that search at
the root of its threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import precise
from .su2 import (
    CompositeSequence,
    Su2,
    compose,
    frobenius_fidelity,
    target_gate,
    trace_fidelity,
)


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


# Measurability floor for the slope window, set by the extended-precision
# evaluation (50 digits), not by double precision.
_MEASURABLE_INFIDELITY = 1e-40


def order_slope(seq: CompositeSequence) -> tuple[float, float]:
    """(slope, peak infidelity) of the log-log fit on eps in [1e-3, 1e-2]."""
    return precise.slope_fit(seq)


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
_MONOTONE_SLACK = 1e-12
# Cap on the Newton evaluations: bisection alone shrinks a first-grid
# cell (0.9/64 wide) to adjacent floats in fewer.
_NEWTON_STEPS = 64
# Relative step after which one more Newton step would be at rounding level.
_NEWTON_DONE = math.sqrt(np.finfo(float).eps)


def _propagator_polynomial(seq: CompositeSequence):
    """Evaluator of the train's exact propagator and its eps-derivative.

    With theta = pi(1+eps)/2 every pi pulse is (cos theta, rot sin theta),
    so the pair (a, b) of an N-pulse train is a Laurent polynomial in
    e^{i theta} with exponents k = -N, -N+2, ..., N.  This holds for any
    train.  One ``compose`` call at M = 2N+2 equispaced theta and one FFT
    give its N+1 coefficients (c_k = fft[k mod M] / M; M > 2N, so no
    aliasing), and d/deps multiplies c_k by i k pi/2.  The evaluator maps
    eps (a float or an array) to the rows (a, b, da/deps, db/deps) by one
    exp(i theta k) outer product and one matmul.
    """
    n = len(seq)
    m = 2 * n + 2
    # eps = 4j/M - 1 puts theta at 2 pi j / M.
    samples = compose(seq, 4.0 * np.arange(m) / m - 1.0)
    k = np.arange(-n, n + 1, 2)
    coeffs = np.fft.fft(np.stack((samples.a, samples.b)), axis=1)[:, k % m] / m
    ik = 0.5j * math.pi * k  # i theta k = (1 + eps) ik
    table = np.concatenate((coeffs, coeffs * ik)).T

    def evaluate(eps):
        return (np.exp(np.multiply.outer(1.0 + eps, ik)) @ table).T

    return evaluate


def _check_threshold(threshold: float) -> None:
    if not 0.0 < threshold < 0.5:
        raise ValueError("threshold must be in (0, 0.5)")


def _error_range(seq: CompositeSequence, threshold: float) -> ErrorRange:
    """Crossing of ``threshold`` by the Frobenius infidelity of ``seq`` in
    the first cell of a grid on [0, _EPS_MAX] that reaches it.

    The infidelity and its eps-derivative read the train's exact
    polynomial (``_propagator_polynomial``), built once per call.  A grid
    of _CELLS cells finds the first cell whose right end reaches the
    threshold; safeguarded Newton on (infidelity - threshold) refines the
    crossing in that cell, bisecting whenever a step would leave the
    bracket.  Flagged when the grid is not nondecreasing within
    _MONOTONE_SLACK.
    """
    target = target_gate(seq.target_phi)
    propagator = _propagator_polynomial(seq)
    eps = np.linspace(0.0, _EPS_MAX, _CELLS + 1)
    a, b = propagator(eps)[:2]
    vals = 1.0 - frobenius_fidelity(Su2(a, b), target)
    if vals[0] >= threshold:
        raise AnalysisError(f"infidelity {vals[0]:.3g} at eps = 0 is not below threshold")
    if not np.any(vals >= threshold):
        raise AnalysisError(f"infidelity stays below threshold up to eps = {_EPS_MAX}")
    flagged = bool(np.any(np.diff(vals) < -_MONOTONE_SLACK))
    k = int(np.argmax(vals >= threshold))
    lo, hi = float(eps[k - 1]), float(eps[k])
    # The bracket keeps infidelity(lo) < threshold <= infidelity(hi); the
    # first iterate is the chord's crossing.
    x = lo + (hi - lo) * float((threshold - vals[k - 1]) / (vals[k] - vals[k - 1]))
    for _ in range(_NEWTON_STEPS):
        a, b, da, db = propagator(x).tolist()
        excess = float(1.0 - frobenius_fidelity(Su2(a, b), target)) - threshold
        if excess < 0.0:
            lo = x
        else:
            hi = x
        # d/deps sqrt(dist2), dist2 = (|a - fa|^2 + |b|^2) / 2.
        diff = a - target.a
        dist = math.sqrt(0.5 * (abs(diff) ** 2 + abs(b) ** 2))
        d = 0.0 if dist == 0.0 else 0.5 * (
            (diff.conjugate() * da).real + (b.conjugate() * db).real
        ) / dist
        step = excess / d if d else math.inf
        if not lo <= x - step <= hi:
            x = 0.5 * (lo + hi)
            continue
        x -= step
        if abs(step) <= _NEWTON_DONE * x:
            # Newton converges quadratically: after this step the error is
            # of order step^2, below the rounding of the infidelity.
            break
    return ErrorRange(x, threshold, 1.0 - x, 1.0 + x, flagged)


def high_fidelity_range(seq: CompositeSequence, threshold: float = 1e-4) -> ErrorRange:
    """Error half-width keeping the Frobenius infidelity below ``threshold``."""
    _check_threshold(threshold)
    return _error_range(seq, threshold)


def trace_range(seq: CompositeSequence, threshold: float = 1e-4) -> ErrorRange:
    """Error half-width keeping the trace infidelity below ``threshold``.

    The trace infidelity is the square of the Frobenius infidelity, so
    this is the Frobenius search at sqrt(threshold).
    """
    _check_threshold(threshold)
    return replace(_error_range(seq, math.sqrt(threshold)), threshold=threshold)
