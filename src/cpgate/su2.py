"""The data types of composite pulse trains: an SU(2) pair, a train of pi
pulses and the phase gate it targets, and the exact phase of a 50-digit
train; the two numerical-failure errors; and the order read off a slope
fit.  Every command loads this module, and it loads neither numpy nor
mpmath.

An SU(2) matrix is stored as its Cayley-Klein pair (a, b), the full matrix
being [[a, b], [-b*, a*]].  Every pulse is a nominal pi pulse: with a
systematic relative area error eps its area is pi(1+eps), and a coupling
phase p propagates the qubit with a = cos(pi(1+eps)/2),
b = -i e^{ip} sin(pi(1+eps)/2).  A 2pi, 3pi or 4pi block is a run of
equal-phase pi pulses, so a train is its gate and its phases; its order is
measured (``precise.slope_fit``, read by ``order_from_slope``), not
claimed.  A train's propagator and its two gate fidelities are
``analysis.compose``, ``frobenius_fidelity`` and ``trace_fidelity``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from fractions import Fraction


class SolverError(RuntimeError):
    """A Newton iteration (``solver``, the polish in ``precise``) failed."""


class AnalysisError(RuntimeError):
    """A train has no order or range to report (``order_from_slope``,
    ``analysis.high_fidelity_range``)."""


@dataclass(frozen=True)
class Su2:
    """Cayley-Klein pair (a, b) of a special-unitary 2x2 matrix."""

    a: complex
    b: complex


class Phase:
    """A phase or gate angle of a 50-digit train, exactly: the value
    (-1)^sign man 2^exp of mpmath's normalized raw tuple (sign, man, exp,
    bc), ``man`` odd and of bc <= 169 bits (``precise.WP``), or all zeros
    for 0.  ``precise`` makes it, rounding to nearest at ``WP`` bits.

    ``float`` rounds it to nearest.  Two phases are equal when their
    tuples are, and a phase equals an int or a float of the same value
    (it hashes as that number does).  The tuple is its ``_mpf_``, so
    ``mpmath.mpf(p)`` under ``mpmath.workprec(precise.WP)`` is the same
    number.  It is no float subclass: mpmath would read one as its double
    and drop the digits.
    """

    __slots__ = ("_mpf_",)

    def __init__(self, raw: tuple):
        self._mpf_ = raw

    def __float__(self) -> float:
        sign, man, exp, _ = self._mpf_
        try:
            value = math.ldexp(man, exp)
        except OverflowError:
            value = math.inf
        return -value if sign else value

    def __bool__(self) -> bool:
        return bool(self._mpf_[1])

    def __eq__(self, other):
        if isinstance(other, Phase):
            return self._mpf_ == other._mpf_
        if isinstance(other, (int, float)):
            return self._fraction() == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fraction())

    def _fraction(self) -> Fraction:
        sign, man, exp, _ = self._mpf_
        value = Fraction(man << exp) if exp >= 0 else Fraction(man, 1 << -exp)
        return -value if sign else value

    def __repr__(self) -> str:
        return f"Phase({self._mpf_!r})"


@dataclass(frozen=True)
class CompositeSequence:
    """An ordered train of nominal pi pulses realizing a phase gate of
    angle ``target_phi``.

    ``phases`` holds the coupling phase of each pulse, unreduced; exact
    high-precision values (a ``Phase``, as the catalog's trains hold) are
    kept, and the fast numeric paths cast with ``float``.  Pulses are
    applied in list order (index 0 acts first on the state); the matrix
    product therefore runs in the opposite direction.  ``label`` is
    keyword-only.
    """

    phases: tuple
    target_phi: float
    label: str = field(default="", kw_only=True)

    def __len__(self) -> int:
        return len(self.phases)


def target_gate(phi: float) -> Su2:
    """Phase gate diag(e^{-i phi/2}, e^{i phi/2}) as an Su2 value."""
    return Su2(cmath.exp(-0.5j * float(phi)), 0j)


# Measurability floor for the slope window, set by the extended-precision
# evaluation (50 digits), not by double precision.
_MEASURABLE_INFIDELITY = 1e-40


def order_from_slope(slope: float, peak: float) -> int:
    """Compensation order from the infidelity power law: round(slope) - 1,
    read off a ``precise.slope_fit`` result, the (slope, peak infidelity)
    of the log-log fit on eps in [1e-3, 1e-2].

    Raises AnalysisError when the order is beyond the measurable range or
    below zero (the train misses the target gate even at zero error).
    """
    if not math.isfinite(slope) or peak < _MEASURABLE_INFIDELITY:
        raise AnalysisError("order exceeds measurable range")
    order = int(round(slope)) - 1
    if order < 0:
        raise AnalysisError(
            f"measured order {order}: the train misses the target gate at zero error"
        )
    return order
