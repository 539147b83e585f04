"""The tests' oracle in eps: truncated complex Taylor series ("jets") of a
composite propagator, whose m-th coefficient is exactly U^{(m)}(0)/m!.

Each pi pulse is composed from the Taylor series of cos and sin of
(pi/2)(1 + eps) (``pi_series``) with dense truncated products, pulse by
pulse in application order.  It shares no code with the s-polynomial
kernels of ``cpgate.jets`` and ``cpgate.precise``, so the derivative
conditions the solver imposes there can be checked against it.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache

import numpy as np

from cpgate.su2 import CompositeSequence


@lru_cache(maxsize=16)
def pi_series(order: int) -> tuple[np.ndarray, np.ndarray]:
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

    cos_c, sin_c = pi_series(order)
    a = np.zeros(order + 1, dtype=complex)
    a[0] = 1.0
    b = np.zeros(order + 1, dtype=complex)
    for phase in seq.phases:
        # (cos_c, pb) @ (a, b): the pulse acts after the train so far.
        pb = -1j * cmath.exp(1j * float(phase)) * sin_c
        a, b = mul(cos_c, a) - mul(pb, np.conj(b)), mul(cos_c, b) + mul(pb, np.conj(a))
    return a, b
