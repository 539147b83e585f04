"""The tests' oracles of an order-n train: its closed-form fidelity
profile and range, which sweeps and range searches of valid trains must
match, and the continuation that slides a root found elsewhere on its
floor(n/2)-dimensional manifold, such as a published train, into the
solver's leading-zeros chart, where ``solve`` finds its class.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from cpgate.solver import TWO_PI, _TOL, SolverError, _newton_batch, pinned_zero_count

# Nominal steps of the continuation path in ``transport``.
_TRANSPORT_STEPS = 12


def closed_form_fidelity(n: int, phi: float, epsilon: float) -> tuple[float, float]:
    """(frobenius, trace) fidelity of an ideal order-n train in closed form."""
    if n < 0:
        raise ValueError("order must be >= 0")
    s = abs(math.sin(math.pi * epsilon / 2)) ** (n + 1)
    g = abs(math.sin(phi / 4))
    return 1.0 - math.sqrt(2.0) * s * g, 1.0 - 2.0 * (s * g) ** 2


def closed_form_epsilon0(n: int, phi: float, threshold: float = 1e-4) -> float:
    """Error half-width where the closed-form Frobenius infidelity of an
    order-n train reaches ``threshold``."""
    x = threshold / (math.sqrt(2.0) * abs(math.sin(phi / 4)))
    return 2.0 / math.pi * math.asin(x ** (1.0 / (n + 1)))


def transport(phases, phi: float, leading) -> np.ndarray:
    """Slide a root along its solution manifold until its leading relative
    phases equal ``leading`` (at most floor(n/2) values, the manifold
    dimension), reduced mod 2*pi.  This is the equivalence move connecting
    the published representatives of one root class.  Raises SolverError
    if the continuation loses the root.
    """
    x = np.asarray(phases, dtype=float) % TWO_PI
    leading = np.asarray(leading, dtype=float)
    n, npin = len(x), len(leading)
    if npin > pinned_zero_count(n):
        raise SolverError(
            f"cannot pin {npin} phases on a {pinned_zero_count(n)}-dim manifold"
        )
    if npin == 0:
        return x
    start = x[:npin].copy()
    # Move the leading block along the straight path with adaptive step
    # control: halve the step whenever the pinned Newton polish fails to
    # track the manifold, give up once steps become negligible (a fold of
    # the manifold over this path; creeping closer only burns iterations).
    lam, dlam, rmax = 0.0, 1.0 / _TRANSPORT_STEPS, math.inf
    for _ in range(8 * _TRANSPORT_STEPS):
        lam_next = min(1.0, lam + dlam)
        trial = x.copy()
        trial[:npin] = start + (leading - start) * lam_next
        roots, norms, ok = _newton_batch(trial[None, :], phi, _TOL, 40, npin)
        rmax = norms[0]
        if ok[0]:
            x, lam = roots[0], lam_next
            if lam >= 1.0:
                return x % TWO_PI
            dlam = min(2.0 * dlam, 1.0 / _TRANSPORT_STEPS)
        else:
            dlam *= 0.5
            if dlam < 1e-3:
                break
    raise SolverError(f"manifold transport lost the root (residual {rmax:.3e})")


def canonicalize(phases, phi: float) -> np.ndarray:
    """Transport a root to the leading-zeros canonical form (first
    floor(n/2) relative phases zero), reduced mod 2*pi.

    Zero can be approached from below or above (0 vs 2*pi) per
    coordinate; the manifold may fold over one path, so direction
    combinations are tried nearest-first.  Raises SolverError with the
    reason the last path failed if none reaches the chart.
    """
    x = np.asarray(phases, dtype=float) % TWO_PI
    npin = pinned_zero_count(len(x))
    paths = sorted(
        itertools.product((0.0, TWO_PI), repeat=npin),
        key=lambda t: float(np.linalg.norm(np.array(t) - x[:npin])),
    )
    lost = ""
    for leading in paths:
        try:
            return transport(x, phi, leading)
        except SolverError as exc:
            lost = str(exc)
    raise SolverError(f"canonicalization failed on every path: {lost}")
