"""Exact complex 2x2 special-unitary algebra for composite pulse trains.

An SU(2) matrix is stored as its Cayley-Klein pair (a, b), the full matrix
being [[a, b], [-b*, a*]].  Every pulse is a nominal pi pulse: with a
systematic relative area error eps its area is pi(1+eps), and a coupling
phase p propagates the qubit with a = cos(pi(1+eps)/2),
b = -i e^{ip} sin(pi(1+eps)/2).  A 2pi, 3pi or 4pi block is a run of
equal-phase pi pulses, so a train is its phases.  Functions of eps take a
float or an array, and a float is the 0-d case: propagators and
fidelities then hold arrays of the shape of eps.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Su2:
    """Cayley-Klein pair (a, b) of a special-unitary 2x2 matrix."""

    a: complex
    b: complex


@dataclass(frozen=True)
class CompositeSequence:
    """An ordered train of nominal pi pulses realizing a phase gate of
    angle ``target_phi``.

    ``phases`` holds the coupling phase of each pulse, unreduced; exact
    high-precision values (e.g. ``mpmath.mpf``) are kept, and the fast
    numeric paths cast with ``float``.  Pulses are applied in list order
    (index 0 acts first on the state); the matrix product therefore runs
    in the opposite direction.  ``order`` is the claimed
    error-compensation order n, so the train has 2(n+1) pulses.
    """

    phases: tuple
    target_phi: float
    order: int
    label: str = ""

    def __len__(self) -> int:
        return len(self.phases)


def target_gate(phi: float) -> Su2:
    """Phase gate diag(e^{-i phi/2}, e^{i phi/2}) as an Su2 value."""
    return Su2(cmath.exp(-0.5j * float(phi)), 0j)


def compose(seq: CompositeSequence, epsilon) -> Su2:
    """Composite propagator of the whole train at error ``epsilon``.

    Equal to U_N ... U_2 U_1 where U_k is the k-th pulse propagator:
    later pulses multiply from the left.  The cos and sin of the common
    half area are evaluated once over the whole ``epsilon`` array, and one
    pass over the pulses composes it.
    """
    if not seq.phases:
        raise ValueError("empty sequence")
    eps = np.asarray(epsilon, dtype=float)
    half = 0.5 * math.pi * (1.0 + eps)
    c, s = np.cos(half), np.sin(half)
    # One row per pulse, broadcast against the error grid.
    column = (-1,) + (1,) * eps.ndim
    phases = np.reshape([float(p) for p in seq.phases], column)
    pb = -1j * np.exp(1j * phases) * s
    a, b = c, pb[0]
    for cb in pb[1:]:
        # The pulse (c, cb) times the train (a, b), inlined: no Su2 object
        # per pulse.
        a, b = c * a - cb * b.conjugate(), c * b + cb * a.conjugate()
    return Su2(a, b)


def frobenius_fidelity(u: Su2, f: Su2):
    """1 minus the normalized Frobenius distance between ``u`` and ``f``.

    The stringent gate measure: sensitive to both populations and phases.
    """
    dist2 = 0.5 * (np.abs(u.a - f.a) ** 2 + np.abs(u.b - f.b) ** 2)
    return 1.0 - np.sqrt(dist2)


def trace_fidelity(u: Su2, f: Su2):
    """Re (1/2) Tr[U F^dagger]; the lenient gate measure.

    For the Cayley-Klein parametrization the half-trace overlap reduces to
    Re(a fa*) + Re(b fb*), which is real by construction.
    """
    return (u.a * f.a.conjugate()).real + (u.b * f.b.conjugate()).real
