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


# i for the a row, -i for the b row of the rotor i e^{ip} of a pulse.
_ROTOR_ROWS = np.array([1j, -1j])[:, None, None]


@lru_cache(maxsize=64)
def _tangent_slots(wrt, n: int) -> tuple[tuple[int, ...], int | None]:
    # Slot of each phase on the value/tangent axis of ``structured_jets``
    # (0 = not differentiated) and the number of tangents, None for none;
    # ``wrt`` is a bool or a tuple of phase indices.
    if wrt is False:
        return (0,) * n, None
    if wrt is True:
        wrt = tuple(range(n))
    if not all(0 <= j < n for j in wrt):
        raise ValueError("jacobian phase index out of range")
    if len(set(wrt)) != len(wrt):
        raise ValueError("jacobian phase indices must be distinct")
    slot = [0] * n
    for k, j in enumerate(wrt, start=1):
        slot[j] = k
    return tuple(slot), len(wrt)


def _tangent_key(jacobian):
    # The ``jacobian`` argument of ``structured_jets`` as a bool or a tuple
    # of phase indices.  Only a flat sequence of integers is taken as
    # indices: a boolean mask or a float would otherwise be read as indices.
    if isinstance(jacobian, (bool, np.bool_)):
        return bool(jacobian)
    idx = np.asarray(jacobian)
    if idx.ndim != 1 or (idx.size and not np.issubdtype(idx.dtype, np.integer)):
        raise ValueError("jacobian must be a bool or a sequence of phase indices")
    return tuple(idx.tolist())


def _pi_pulse(w: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # pi_p @ U for the value and tangents in w (axes: series order, (a, b),
    # value/tangents, batch), with u = (i e^{ip}, -i e^{ip}) broadcast over
    # the last three axes: a' = C*a + i e^{ip} S*conj(b),
    # b' = C*b - i e^{ip} S*conj(a); S is real, so S*conj(b) = conj(S*b).
    # Returns C*w and the rotated S part; their sum is the new state.
    cw, sw = (_pi_toeplitz(w.shape[0] - 1) @ w.reshape(w.shape[0], -1)).reshape(2, *w.shape)
    swapped = np.conj(sw[:, ::-1])
    swapped *= u
    return cw, swapped


@lru_cache(maxsize=64)
def _zero_prefix(order: int, count: int) -> np.ndarray:
    # Half-train state (order + 1, 2) after pi_0 and ``count`` more pi_0
    # pulses: relative phases pinned at exactly 0 are the same in every
    # row, so they are composed once and broadcast to the batch.
    cos_c, sin_c = _trig_arrays(math.pi, order)
    w = np.zeros((order + 1, 2, 1, 1), dtype=complex)
    w[:, 0, 0, 0] = cos_c
    w[:, 1, 0, 0] = -1j * sin_c
    for _ in range(count):
        cw, swapped = _pi_pulse(w, _ROTOR_ROWS)
        w = cw + swapped
    w = w[:, :, 0, 0]
    w.flags.writeable = False
    return w


def structured_jets(rel_phases, phi: float, order: int, jacobian=False):
    """Jets of a batch of two-half trains of nominal pi pulses.

    Row k of ``rel_phases`` (shape (B, n)) holds the relative phases
    p1..pn of one half pi_0 pi_p1 ... pi_pn; the second half repeats it
    shifted by pi - phi/2.  Returns the Cayley-Klein jets ``(a, b)`` of the
    trains, each of shape (B, order + 1).

    ``jacobian`` selects tangents: False for none, True for all n phases,
    or a sequence of distinct integer phase indices J (a boolean mask is
    rejected, not read as indices).  With tangents it returns
    ``(a, b, da, db)``, where ``da[k, i]`` (shape (B, len(J), order + 1))
    is the exact derivative of ``a[k]`` with respect to p_{J[i]}:
    forward-mode differentiation, with d b_pulse / d p = i * b_pulse for
    each pulse and the two occurrences of each phase summed by the product
    rule.  Leading phases that are exactly 0 in every row and not in J are
    composed once per (order, count) and broadcast.
    """
    x = np.asarray(rel_phases, dtype=float)
    if x.ndim != 2:
        raise ValueError("relative phases must have shape (batch, n)")
    if order < 0:
        raise ValueError("truncation order must be >= 0")
    batch, n = x.shape
    size = order + 1
    slot, tangents = _tangent_slots(_tangent_key(jacobian), n)
    head = 0
    while head < n and not slot[head] and not x[:, head].any():
        head += 1
    # Axes: series order, (a, b), value then its derivative in each
    # selected phase, batch.  The first pulse has phase 0.
    w = np.zeros((size, 2, 1 + (tangents or 0), batch), dtype=complex)
    w[:, :, 0] = _zero_prefix(order, head)[:, :, None]
    # i e^{ip} for the a row, -i e^{ip} for the b row of each later pulse.
    u_all = np.exp(1j * x[:, head:].T)[:, None, None, :] * _ROTOR_ROWS
    for u, k in zip(u_all, slot[head:]):
        cw, swapped = _pi_pulse(w, u)
        if k:
            cw[:, :, k] += 1j * swapped[:, :, 0]
        w = cw + swapped
    # (a, rot*b) @ (a, b) = (a*a - rot b*conj(b), a*b + rot b*conj(a)):
    # a times (a, b) and b times (conj b, conj a), each of a value and its
    # tangents (axis 3); the product rule gives the tangents.
    right = np.empty((size, 2) + w.shape[1:], dtype=complex)
    right[:, 0] = w
    np.conj(w[:, ::-1], out=right[:, 1])
    outer = w[:, None, :, None] * right[None, :, :, :, :1]
    if tangents is not None:
        outer[:, :, :, :, 1:] += w[:, None, :, None, :1] * right[None, :, :, :, 1:]
    p = (_antidiagonals(order) @ outer.reshape(size * size, -1)).reshape(right.shape)
    rot = cmath.exp(1j * (math.pi - phi / 2))
    full = p[:, 0] + np.array([-rot, rot])[:, None, None] * p[:, 1]
    full_a, full_b = full[:, 0], full[:, 1]
    if tangents is None:
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
