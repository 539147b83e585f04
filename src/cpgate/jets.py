"""Truncated complex Taylor series ("jets") in the area-error variable.

The m-th Taylor coefficient of the composite propagator elements about
eps = 0 is exactly U^{(m)}(0)/m!.  Per-pulse jets have closed-form trig
coefficients, so arbitrary-order derivatives come out of series products
with no numerical differentiation.  Coefficients are stored dense; the
orders needed here never exceed single digits.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .su2 import CompositeSequence, Pulse, Su2


def _mul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    # Cauchy product truncated to the common order.
    return np.convolve(x, y)[: len(x)]


def cos_coeffs(area: float, order: int) -> np.ndarray:
    """Taylor coefficients of cos(area*(1+eps)/2) about eps = 0.

    d^m/deps^m cos(A(1+eps)/2) at 0 equals (A/2)^m cos(A/2 + m pi/2).
    """
    half = 0.5 * float(area)
    m = np.arange(order + 1)
    return half**m * np.cos(half + m * math.pi / 2) / _factorials(order)


def sin_coeffs(area: float, order: int) -> np.ndarray:
    """Taylor coefficients of sin(area*(1+eps)/2) about eps = 0."""
    half = 0.5 * float(area)
    m = np.arange(order + 1)
    return half**m * np.sin(half + m * math.pi / 2) / _factorials(order)


def _factorials(order: int) -> np.ndarray:
    return np.array([math.factorial(m) for m in range(order + 1)], dtype=float)


@dataclass(frozen=True, eq=False)
class Jet:
    """Dense truncated Taylor series; ``coeffs[m]`` is c_m = f^{(m)}(0)/m!."""

    coeffs: np.ndarray

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, m: int) -> complex:
        return complex(self.coeffs[m])

    def derivative(self, m: int) -> complex:
        """m-th derivative at 0, i.e. m! * c_m."""
        if m > self.order:
            raise ValueError("order exceeds truncation")
        return complex(self.coeffs[m]) * math.factorial(m)

    def conjugate(self) -> "Jet":
        # The series variable eps is real, so conjugation acts on coefficients.
        return Jet(np.conj(self.coeffs))

    def __add__(self, other: "Jet") -> "Jet":
        return Jet(self.coeffs + other.coeffs)

    def __sub__(self, other: "Jet") -> "Jet":
        return Jet(self.coeffs - other.coeffs)

    def __mul__(self, other):
        if isinstance(other, Jet):
            return Jet(_mul(self.coeffs, other.coeffs))
        return Jet(self.coeffs * other)

    __rmul__ = __mul__


@dataclass(frozen=True, eq=False)
class JetSu2:
    """Cayley-Klein elements of an errant propagator as eps-series."""

    a: Jet
    b: Jet

    def value(self) -> Su2:
        """Order-0 part: the propagator at eps = 0."""
        return Su2(self.a.coeff(0), self.b.coeff(0))


def jet_pulse(pulse: Pulse, order: int) -> JetSu2:
    """Per-pulse jet from the closed-form trig coefficients."""
    if order < 0:
        raise ValueError("truncation order must be >= 0")
    a, b = _pulse_arrays(float(pulse.area), float(pulse.phase), order)
    return JetSu2(Jet(a), Jet(b))


@lru_cache(maxsize=64)
def _trig_arrays(area: float, order: int):
    # Trains reuse one nominal area throughout, so cache the trig parts.
    return (
        cos_coeffs(area, order).astype(complex),
        sin_coeffs(area, order).astype(complex),
    )


def _pulse_arrays(area: float, phase: float, order: int):
    cos_c, sin_c = _trig_arrays(area, order)
    return cos_c, -1j * cmath.exp(1j * phase) * sin_c


def _mul_su2(a2, b2, a1, b1):
    # Jet arrays of the product U2 @ U1 (U2 acts later).
    a = _mul(a2, a1) - _mul(b2, np.conj(b1))
    b = _mul(a2, b1) + _mul(b2, np.conj(a1))
    return a, b


def compose_arrays(phases, areas, order: int):
    """Raw-array jet composition of an arbitrary train."""
    a, b = _pulse_arrays(areas[0], phases[0], order)
    for area, phase in zip(areas[1:], phases[1:]):
        ak, bk = _pulse_arrays(area, phase, order)
        a, b = _mul_su2(ak, bk, a, b)
    return a, b


@lru_cache(maxsize=16)
def _pi_toeplitz(order: int) -> np.ndarray:
    # Left-multiplying a coefficient column by T[m, j] = c[m - j] (m >= j)
    # is the truncated Cauchy product with c.  The fixed cos and sin
    # series of a nominal pi pulse give two such lower-triangular
    # matrices, stacked here so one matmul applies both.
    t = np.zeros((2, order + 1, order + 1), dtype=complex)
    for k, c in enumerate(_trig_arrays(math.pi, order)):
        for j in range(order + 1):
            t[k, j:, j] = c[: order + 1 - j]
    t = t.reshape(2 * (order + 1), order + 1)
    t.flags.writeable = False
    return t


@lru_cache(maxsize=16)
def _antidiagonals(order: int) -> np.ndarray:
    # S[m, j * (order + 1) + k] = 1 where j + k = m: applied to the
    # flattened outer product of two series, the truncated Cauchy product.
    size = order + 1
    j, k = np.divmod(np.arange(size * size), size)
    s = (np.arange(size)[:, None] == j + k).astype(complex)
    s.flags.writeable = False
    return s


def structured_jets(rel_phases, phi: float, order: int, jacobian: bool = False):
    """Jets of a batch of two-half trains of nominal pi pulses.

    Row k of ``rel_phases`` (shape (B, n)) holds the relative phases
    p1..pn of one half pi_0 pi_p1 ... pi_pn; the second half repeats it
    shifted by pi - phi/2.  Returns the Cayley-Klein jets ``(a, b)`` of the
    trains, each of shape (B, order + 1).  With ``jacobian`` it returns
    ``(a, b, da, db)``, where ``da[k, j]`` (shape (B, n, order + 1)) is the
    exact derivative of ``a[k]`` with respect to p_j: forward-mode
    differentiation, with d b_pulse / d p = i * b_pulse for each pulse and
    the two occurrences of each phase summed by the product rule.
    """
    x = np.asarray(rel_phases, dtype=float)
    if x.ndim != 2:
        raise ValueError("relative phases must have shape (batch, n)")
    if order < 0:
        raise ValueError("truncation order must be >= 0")
    batch, n = x.shape
    size = order + 1
    cos_sin = _pi_toeplitz(order)
    cos_c, sin_c = _trig_arrays(math.pi, order)
    # Axes: series order, (a, b), value then its derivative in each p_j,
    # batch.  The first pulse has phase 0.
    w = np.zeros((size, 2, 1 + n if jacobian else 1, batch), dtype=complex)
    w[:, 0, 0] = cos_c[:, None]
    w[:, 1, 0] = -1j * sin_c[:, None]
    # i e^{ip} for the a row, -i e^{ip} for the b row of each pulse.
    u_all = 1j * np.exp(1j * x.T)[:, None, None, :] * np.array([1.0, -1.0])[:, None, None]
    for j in range(n):
        # pi_p @ U: a' = C*a + i e^{ip} S*conj(b), b' = C*b - i e^{ip} S*conj(a);
        # S is real, so S*conj(b) = conj(S*b).
        cw, sw = (cos_sin @ w.reshape(size, -1)).reshape(2, *w.shape)
        swapped = np.conj(sw[:, ::-1])
        swapped *= u_all[j]
        if jacobian:
            cw[:, :, 1 + j] += 1j * swapped[:, :, 0]
        w = cw + swapped
    # (a, rot*b) @ (a, b): four products of the half with itself, each of a
    # value and its tangents (axis 2); the product rule gives the tangents.
    left = w[:, [0, 1, 0, 1]]
    right = w[:, [0, 1, 1, 0]]
    np.conj(right[:, 1::2], out=right[:, 1::2])
    outer = left[:, None] * right[None, :, :, :1]
    if jacobian:
        outer[:, :, :, 1:] += left[:, None, :, :1] * right[None, :, :, 1:]
    p = (_antidiagonals(order) @ outer.reshape(size * size, -1)).reshape(left.shape)
    rot = cmath.exp(1j * (math.pi - phi / 2))
    full_a = p[:, 0] - rot * p[:, 1]
    full_b = p[:, 2] + rot * p[:, 3]
    if not jacobian:
        return full_a[:, 0].T, full_b[:, 0].T
    return (full_a[:, 0].T, full_b[:, 0].T,
            full_a[:, 1:].transpose(2, 1, 0), full_b[:, 1:].transpose(2, 1, 0))


def jet_compose(seq: CompositeSequence, order: int) -> JetSu2:
    """Jet of the composite propagator, composed in application order."""
    if not seq.pulses:
        raise ValueError("empty sequence")
    if order < 0:
        raise ValueError("truncation order must be >= 0")
    phases = [float(p.phase) for p in seq.pulses]
    areas = [float(p.area) for p in seq.pulses]
    a, b = compose_arrays(phases, areas, order)
    return JetSu2(Jet(a), Jet(b))


def derivative(j: JetSu2, element: str, m: int) -> complex:
    """m-th eps-derivative at 0 of the selected element ("11" or "12")."""
    if element not in ("11", "12"):
        raise ValueError("element must be '11' or '12'")
    jet = j.a if element == "11" else j.b
    return jet.derivative(m)
