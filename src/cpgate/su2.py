"""Exact complex 2x2 special-unitary algebra for composite pulse trains.

An SU(2) matrix is stored as its Cayley-Klein pair (a, b), the full matrix
being [[a, b], [-b*, a*]].  A resonant pulse of area A and coupling phase
phi propagates the qubit with a = cos(A/2), b = -i e^{i phi} sin(A/2); a
systematic relative area error eps rescales every area as A -> A(1+eps).
Functions of eps take a float or an array, and a float is the 0-d case:
propagators and fidelities then hold arrays of the shape of eps.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Pulse:
    """One resonant pulse: nominal area and coupling phase, both in radians.

    The phase is stored unreduced; comparisons should reduce mod 2*pi.
    Exact high-precision values (e.g. ``mpmath.mpf``) are accepted and
    preserved; the fast numeric paths cast with ``float``.
    """

    area: float
    phase: float

    def __post_init__(self):
        if not float(self.area) > 0.0:
            raise ValueError("pulse area must be positive")


@dataclass(frozen=True)
class Su2:
    """Cayley-Klein pair (a, b) of a special-unitary 2x2 matrix."""

    a: complex
    b: complex

    def matrix(self) -> np.ndarray:
        """Reconstruct the full 2x2 matrix [[a, b], [-b*, a*]]."""
        return np.array(
            [[self.a, self.b], [-self.b.conjugate(), self.a.conjugate()]],
            dtype=complex,
        )

    @property
    def unitarity_defect(self) -> float:
        """|a|^2 + |b|^2 - 1; zero for an exact SU(2) element."""
        return abs(self.a) ** 2 + abs(self.b) ** 2 - 1.0

    def dagger(self) -> "Su2":
        return Su2(self.a.conjugate(), -self.b)

    def __matmul__(self, other: "Su2") -> "Su2":
        # Matrix product self @ other in the Cayley-Klein parametrization.
        return Su2(
            self.a * other.a - self.b * other.b.conjugate(),
            self.a * other.b + self.b * other.a.conjugate(),
        )


@dataclass(frozen=True)
class CompositeSequence:
    """An ordered pulse train realizing a phase gate of angle ``target_phi``.

    Pulses are applied in list order (index 0 acts first on the state); the
    matrix product therefore runs in the opposite direction.  ``order`` is
    the claimed error-compensation order n, so a train of nominal pi pulses
    has 2(n+1) entries.
    """

    pulses: tuple[Pulse, ...]
    target_phi: float
    order: int
    label: str = ""

    def __len__(self) -> int:
        return len(self.pulses)

    @property
    def phases(self) -> tuple[float, ...]:
        return tuple(p.phase for p in self.pulses)


def target_gate(phi: float) -> Su2:
    """Phase gate diag(e^{-i phi/2}, e^{i phi/2}) as an Su2 value."""
    return Su2(cmath.exp(-0.5j * float(phi)), 0j)


def _pulse_factors(area, phase, epsilon):
    """(a, b) of resonant pulses, broadcast over area, phase and epsilon."""
    half = 0.5 * area * (1.0 + epsilon)
    return np.cos(half), -1j * np.exp(1j * phase) * np.sin(half)


def pulse_propagator(pulse: Pulse, epsilon) -> Su2:
    """Propagator of a single pulse with relative area error ``epsilon``."""
    return Su2(*_pulse_factors(
        float(pulse.area), float(pulse.phase), np.asarray(epsilon, dtype=float)
    ))


def compose(seq: CompositeSequence, epsilon) -> Su2:
    """Composite propagator of the whole train at error ``epsilon``.

    Equal to U_N ... U_2 U_1 where U_k is the k-th pulse propagator:
    later pulses multiply from the left.  One pass over the pulses
    evaluates the whole ``epsilon`` array.
    """
    if not seq.pulses:
        raise ValueError("empty sequence")
    eps = np.asarray(epsilon, dtype=float)
    # One row per pulse, broadcast against the error grid.
    column = (-1,) + (1,) * eps.ndim
    areas = np.reshape([float(p.area) for p in seq.pulses], column)
    phases = np.reshape([float(p.phase) for p in seq.pulses], column)
    pa, pb = _pulse_factors(areas, phases, eps)
    a, b = pa[0], pb[0]
    for ca, cb in zip(pa[1:], pb[1:]):
        # Su2(ca, cb) @ Su2(a, b), inlined: no Su2 object per pulse.
        a, b = ca * a - cb * b.conjugate(), ca * b + cb * a.conjugate()
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
