"""Truncated complex Taylor series ("jets") in the area-error variable.

The m-th Taylor coefficient of the composite propagator elements about
eps = 0 is exactly U^{(m)}(0)/m!.  Every pulse is a nominal pi pulse of
area pi(1+eps), so all pulses share one pair of cos and sin series
(``_pi_series``) and differ only in the phase factor of b; arbitrary-order
derivatives come out of series products with no numerical
differentiation.  ``structured_jets`` is the batched kernel the solver
runs: the jets of the major-diagonal element a_h of the half train
pi_0 pi_p1 ... pi_pn, with their exact tangents in the phases.  The half
alone decides the order of the two-half train built on it (see
``solver``), so the kernel never forms the second half.  ``jet_compose``
composes any train pulse by pulse with dense products and is the
independent check of that kernel.  Coefficients are stored dense; the
orders needed here never exceed single digits.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache

import numpy as np

from .su2 import CompositeSequence


@lru_cache(maxsize=16)
def _pi_series(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Complex Taylor coefficients of cos and sin of (pi/2)(1 + eps) about
    eps = 0, up to ``order``: d^m/deps^m trig((pi/2)(1 + eps)) at 0 is
    (pi/2)^m trig(pi/2 + m pi/2)."""
    half = 0.5 * math.pi
    m = np.arange(order + 1)
    fact = np.array([math.factorial(k) for k in m], dtype=float)
    out = []
    for trig in (np.cos, np.sin):
        c = (half**m * trig(half + m * math.pi / 2) / fact).astype(complex)
        c.flags.writeable = False
        out.append(c)
    return tuple(out)


@lru_cache(maxsize=16)
def _pi_toeplitz(order: int) -> np.ndarray:
    # Left-multiplying a coefficient column by T[m, j] = c[m - j] (m >= j)
    # is the truncated Cauchy product with c.  The fixed cos and sin
    # series of a nominal pi pulse give two such lower-triangular
    # matrices, stacked here so one matmul applies both.
    t = np.zeros((2, order + 1, order + 1), dtype=complex)
    for k, c in enumerate(_pi_series(order)):
        for j in range(order + 1):
            t[k, j:, j] = c[: order + 1 - j]
    t = t.reshape(2 * (order + 1), order + 1)
    t.flags.writeable = False
    return t


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
    cos_c, sin_c = _pi_series(order)
    w = np.zeros((order + 1, 2, 1, 1), dtype=complex)
    w[:, 0, 0, 0] = cos_c
    w[:, 1, 0, 0] = -1j * sin_c
    for _ in range(count):
        cw, swapped = _pi_pulse(w, _ROTOR_ROWS)
        w = cw + swapped
    w = w[:, :, 0, 0]
    w.flags.writeable = False
    return w


def structured_jets(rel_phases, order: int, jacobian=False):
    """Jets of the major-diagonal element a_h of a batch of half trains.

    Row k of ``rel_phases`` (shape (B, n)) holds the relative phases
    p1..pn of one half pi_0 pi_p1 ... pi_pn.  Returns the jets of a_h,
    shape (B, order + 1).

    ``jacobian`` selects tangents: False for none, True for all n phases,
    or a sequence of distinct integer phase indices J (a boolean mask is
    rejected, not read as indices).  With tangents it returns ``(a, da)``,
    where ``da[k, i]`` (shape (B, len(J), order + 1)) is the exact
    derivative of ``a[k]`` with respect to p_{J[i]}: forward-mode
    differentiation, with d b_pulse / d p = i * b_pulse for the one pulse
    of each phase.  Leading phases that are exactly 0 in every row and not
    in J are composed once per (order, count) and broadcast.
    """
    x = np.asarray(rel_phases, dtype=float)
    if x.ndim != 2:
        raise ValueError("relative phases must have shape (batch, n)")
    if order < 0:
        raise ValueError("truncation order must be >= 0")
    batch, n = x.shape
    slot, tangents = _tangent_slots(_tangent_key(jacobian), n)
    head = 0
    while head < n and not slot[head] and not x[:, head].any():
        head += 1
    # Axes: series order, (a, b), value then its derivative in each
    # selected phase, batch.  The first pulse has phase 0.
    w = np.zeros((order + 1, 2, 1 + (tangents or 0), batch), dtype=complex)
    w[:, :, 0] = _zero_prefix(order, head)[:, :, None]
    # i e^{ip} for the a row, -i e^{ip} for the b row of each later pulse.
    u_all = np.exp(1j * x[:, head:].T)[:, None, None, :] * _ROTOR_ROWS
    for u, k in zip(u_all, slot[head:]):
        cw, swapped = _pi_pulse(w, u)
        if k:
            cw[:, :, k] += 1j * swapped[:, :, 0]
        w = cw + swapped
    if tangents is None:
        return w[:, 0, 0].T
    return w[:, 0, 0].T, w[:, 0, 1:].transpose(2, 1, 0)


def jet_compose(seq: CompositeSequence, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Jets ``(a, b)`` of the composite propagator, each of length
    ``order + 1``, composed pulse by pulse in application order with dense
    truncated products."""
    if not seq.phases:
        raise ValueError("empty sequence")
    if order < 0:
        raise ValueError("truncation order must be >= 0")

    def mul(x, y):
        # Cauchy product truncated to the order.
        return np.convolve(x, y)[: order + 1]

    cos_c, sin_c = _pi_series(order)
    a = np.zeros(order + 1, dtype=complex)
    a[0] = 1.0
    b = np.zeros(order + 1, dtype=complex)
    for phase in seq.phases:
        # (cos_c, pb) @ (a, b): the pulse acts after the train so far.
        pb = -1j * cmath.exp(1j * float(phase)) * sin_c
        a, b = mul(cos_c, a) - mul(pb, np.conj(b)), mul(cos_c, b) + mul(pb, np.conj(a))
    return a, b
