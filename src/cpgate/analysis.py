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
its coefficients.  A 64-cell grid on [0, 0.9] is one matmul with the
grid's exp(i theta k) basis, built once per pulse count and cached; it
finds the first cell where the Frobenius infidelity reaches the
threshold.  Safeguarded Newton refines the crossing there, evaluating
the polynomial and its derivative at each iterate by Horner in
w = e^{2 i theta} on Python scalars.  ``trace_range`` is that search at
the root of its threshold.
"""

from __future__ import annotations

import cmath
import logging
import math
from dataclasses import dataclass, replace
from functools import lru_cache

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

_log = logging.getLogger("cpgate.analysis")


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


def _propagator_polynomial(seq: CompositeSequence) -> np.ndarray:
    """Coefficients, shape (2, N+1), of the train's exact pair (a, b).

    With theta = pi(1+eps)/2 every pi pulse is (cos theta, rot sin theta),
    so the pair (a, b) of an N-pulse train is a Laurent polynomial in
    e^{i theta} with exponents k = -N, -N+2, ..., N.  This holds for any
    train.  One ``compose`` call at M = 2N+2 equispaced theta and one FFT
    give its N+1 coefficients, row 0 for a and row 1 for b, in increasing
    k (c_k = fft[k mod M] / M; M > 2N, so no aliasing).
    """
    n = len(seq)
    m = 2 * n + 2
    # eps = 4j/M - 1 puts theta at 2 pi j / M.
    samples = compose(seq, 4.0 * np.arange(m) / m - 1.0)
    k = np.arange(-n, n + 1, 2)
    return np.fft.fft(np.stack((samples.a, samples.b)), axis=1)[:, k % m] / m


@lru_cache(maxsize=64)
def _grid_basis(n: int) -> tuple[np.ndarray, np.ndarray]:
    # The first grid of the range search, _CELLS + 1 points on
    # [0, _EPS_MAX], and its basis exp(i theta k), shape (_CELLS + 1, n + 1),
    # for the exponents of ``_propagator_polynomial`` of an n-pulse train.
    eps = np.linspace(0.0, _EPS_MAX, _CELLS + 1)
    ik = 0.5j * math.pi * np.arange(-n, n + 1, 2)
    basis = np.exp(np.multiply.outer(1.0 + eps, ik))
    eps.flags.writeable = False
    basis.flags.writeable = False
    return eps, basis


def _propagator_at(coeffs, eps: float):
    """(a, b, da/deps, db/deps) of the train at one float ``eps``, from
    the coefficient rows of ``_propagator_polynomial`` as Python lists.

    A row is e^{-iN theta} p(w), p(w) = sum_j c_j w^j and w = e^{2 i theta},
    so its eps-derivative is (pi/2) i e^{-iN theta} (2 w p'(w) - N p(w)).
    Horner gives p and p' together in Python complex arithmetic, and the
    lead factor is applied once.
    """
    n = len(coeffs[0]) - 1
    theta = 0.5 * math.pi * (1.0 + eps)
    w = cmath.exp(2j * theta)
    lead = cmath.exp(-1j * n * theta)
    dlead = 0.5j * math.pi * lead
    out = []
    for row in coeffs:
        p = dp = 0j
        for c in reversed(row):
            dp = dp * w + p
            p = p * w + c
        out.append((lead * p, dlead * (2.0 * w * dp - n * p)))
    (a, da), (b, db) = out
    return a, b, da, db


def _check_threshold(threshold: float) -> None:
    if not 0.0 < threshold < 0.5:
        raise ValueError("threshold must be in (0, 0.5)")


def _error_range(seq: CompositeSequence, threshold: float) -> ErrorRange:
    """Crossing of ``threshold`` by the Frobenius infidelity of ``seq`` in
    the first cell of a grid on [0, _EPS_MAX] that reaches it.

    The infidelity reads the train's exact polynomial
    (``_propagator_polynomial``), built once per call: on the grid
    through the cached basis of ``_grid_basis``, at the Newton iterates
    through ``_propagator_at``.  A grid of _CELLS cells finds the first
    cell whose right end reaches the threshold; safeguarded Newton on
    (infidelity - threshold) refines the crossing in that cell, bisecting
    whenever a step would leave the bracket.  Flagged when the grid is
    not nondecreasing within _MONOTONE_SLACK.  Logs one DEBUG record
    under ``cpgate.analysis``.
    """
    target = target_gate(seq.target_phi)
    coeffs = _propagator_polynomial(seq)
    eps, basis = _grid_basis(len(seq))
    a, b = (basis @ coeffs.T).T
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
    rows = coeffs.tolist()
    fa = target.a
    for evals in range(1, _NEWTON_STEPS + 1):
        a, b, da, db = _propagator_at(rows, x)
        # The product form dist^2 = (|a - fa|^2 + |b|^2) / 2: no cancellation.
        diff = a - fa
        dist = math.sqrt(0.5 * (abs(diff) ** 2 + abs(b) ** 2))
        excess = dist - threshold
        if excess < 0.0:
            lo = x
        else:
            hi = x
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
    _log.debug(
        "range threshold=%.3g cell=%d evals=%d step=%.3g flagged=%s",
        threshold, k, evals, step, flagged,
    )
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
