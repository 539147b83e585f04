"""Exact complex 2x2 special-unitary algebra for composite pulse trains.

An SU(2) matrix is stored as its Cayley-Klein pair (a, b), the full matrix
being [[a, b], [-b*, a*]].  A resonant pulse of area A and coupling phase
phi propagates the qubit with a = cos(A/2), b = -i e^{i phi} sin(A/2); a
systematic relative area error eps rescales every area as A -> A(1+eps).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi


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


def pulse_propagator(pulse: Pulse, epsilon: float) -> Su2:
    """Propagator of a single pulse with relative area error ``epsilon``."""
    half = 0.5 * float(pulse.area) * (1.0 + epsilon)
    return Su2(
        complex(math.cos(half)),
        -1j * cmath.exp(1j * float(pulse.phase)) * math.sin(half),
    )


def compose(seq: CompositeSequence, epsilon: float) -> Su2:
    """Composite propagator of the whole train at error ``epsilon``.

    Equal to U_N ... U_2 U_1 where U_k is the k-th pulse propagator:
    later pulses multiply from the left.
    """
    if not seq.pulses:
        raise ValueError("empty sequence")
    acc = pulse_propagator(seq.pulses[0], epsilon)
    for pulse in seq.pulses[1:]:
        acc = pulse_propagator(pulse, epsilon) @ acc
    return acc


def frobenius_fidelity(u: Su2, f: Su2) -> float:
    """1 minus the normalized Frobenius distance between ``u`` and ``f``.

    The stringent gate measure: sensitive to both populations and phases.
    """
    dist2 = 0.5 * (abs(u.a - f.a) ** 2 + abs(u.b - f.b) ** 2)
    return 1.0 - math.sqrt(dist2)


def trace_fidelity(u: Su2, f: Su2) -> float:
    """Re (1/2) Tr[U F^dagger]; the lenient gate measure.

    For the Cayley-Klein parametrization the half-trace overlap reduces to
    Re(a fa*) + Re(b fb*), which is real by construction.
    """
    return (u.a * f.a.conjugate()).real + (u.b * f.b.conjugate()).real
