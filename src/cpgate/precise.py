"""Extended-precision evaluation paths (mpmath).

High compensation orders push the residual infidelity far below double
precision: an order-8 train has infidelity ~1e-17 at one percent error,
two decades under the noise floor of a double-precision matrix product.
The slope-based order estimate and the final polish of tabulated phases
therefore run under mpmath.  Nominal areas that are numerically integer
multiples of pi are snapped to exact multiples, since that is what
"nominal pi pulse" means.
"""

from __future__ import annotations

import math
from functools import lru_cache

import mpmath as mp
import numpy as np

from . import solver
from .su2 import CompositeSequence

_AREA_SNAP = 1e-12
WORKING_DPS = 50


def _mp_area(area) -> mp.mpf:
    ratio = float(area) / math.pi
    k = round(ratio)
    if k >= 1 and abs(ratio - k) < _AREA_SNAP:
        return k * mp.pi
    return mp.mpf(area)


def _mp_phases(seq: CompositeSequence):
    return [mp.mpf(p.phase) for p in seq.pulses], [_mp_area(p.area) for p in seq.pulses]


def mp_propagator(phases, areas, epsilon):
    """Cayley-Klein pair of the composite propagator at error ``epsilon``.

    ``epsilon`` may also be a sequence, the way ``su2.compose`` takes an
    array: the result is then a list of pairs, one per value.  The pulse
    rotors -i e^{i phase} are computed once per call, and cos/sin of the
    half area once per distinct area per epsilon.
    """
    single = np.ndim(epsilon) == 0
    rotors = [-1j * mp.exp(1j * phase) for phase in phases]
    distinct = {}
    slots = [distinct.setdefault(area, len(distinct)) for area in areas]
    out = []
    for eps in [epsilon] if single else epsilon:
        halves = (area * (1 + eps) / 2 for area in distinct)
        trig = [(mp.cos(h), mp.sin(h)) for h in halves]
        a = mp.mpc(1)
        b = mp.mpc(0)
        for rot, k in zip(rotors, slots):
            pa, s = trig[k]
            pb = rot * s
            a, b = pa * a - pb * mp.conj(b), pa * b + pb * mp.conj(a)
        out.append((a, b))
    return out[0] if single else out


def slope_fit(seq: CompositeSequence, eps_lo=1e-3, eps_hi=1e-2, points=20,
              dps=50) -> tuple[float, float]:
    """Least-squares slope of log-infidelity vs log-error, both signs averaged.

    Returns (slope, max infidelity over the window).  Evaluated under
    mpmath so the fit sees the true power law, not roundoff.
    """
    with mp.workdps(dps):
        phases, areas = _mp_phases(seq)
        fa = mp.exp(-1j * mp.mpf(seq.target_phi) / 2)
        lo, hi = mp.log(mp.mpf(eps_lo)), mp.log(mp.mpf(eps_hi))
        grid = [mp.exp(lo + (hi - lo) * i / (points - 1)) for i in range(points)]
        pairs = mp_propagator(phases, areas, [s for e in grid for s in (e, -e)])
        logs = []
        vals = []
        peak = mp.mpf(0)
        for i, eps in enumerate(grid):
            infid = mp.mpf(0)
            for a, b in pairs[2 * i: 2 * i + 2]:
                infid += mp.sqrt((abs(a - fa) ** 2 + abs(b) ** 2) / 2)
            infid /= 2
            peak = max(peak, infid)
            if infid > 0:
                logs.append(float(mp.log(eps)))
                vals.append(float(mp.log(infid)))
        if len(logs) < 2:
            return math.nan, float(peak)
        slope = float(np.polyfit(np.array(logs), np.array(vals), 1)[0])
        return slope, float(peak)


def polish_structured(rel_phases, phi, pinned=None, dps=50, target_digits=None):
    """Newton-polish structured relative phases to mpmath precision.

    ``phi`` may be an mpf (kept exact); the float Jacobian is computed
    once, which is enough for fast linear convergence near the root.
    Returns mpf phases with residual max-norm below 10^-(target_digits).
    """
    with mp.workdps(dps):
        if target_digits is None:
            target_digits = dps - 8
        phi_mp = mp.mpf(phi) if not isinstance(phi, (mp.mpf, mp.mpc)) else phi
        x_float = np.asarray([float(v) for v in rel_phases], dtype=float)
        # Factorial scaling puts 4-decimal table input above refine()'s
        # near-root gate at high order; drive Newton directly instead.
        # Loose, order-scaled float tolerance: factorial scaling raises
        # the double-precision residual floor, and the extended-precision
        # stage finishes the convergence anyway.
        n_rel = len(x_float)
        float_tol = 1e-11 * max(1.0, math.factorial(n_rel))
        x_float, rmax, ok = solver._newton(
            x_float, float(phi_mp), tol=float_tol, max_iter=60, pinned=pinned
        )
        if not ok:
            raise solver.SolverError(
                f"float-precision polish failed; residual max-norm {rmax:.3e}"
            )
        n = len(x_float)
        free = (
            np.arange(n)
            if pinned is None
            else np.flatnonzero(~np.asarray(pinned, dtype=bool))
        )
        jac = solver._jacobian(x_float, float(phi_mp))[:, free]
        jac_pinv = np.linalg.pinv(jac, rcond=1e-6)
        x = [mp.mpf(v) for v in x_float]
        tol = mp.mpf(10) ** (-target_digits)
        for _ in range(dps):
            r = _mp_residual(x, phi_mp, n)
            if max(abs(v) for v in r) < tol:
                break
            step = -jac_pinv @ np.array([float(v) for v in r])
            for idx, j in enumerate(free):
                x[j] = x[j] + mp.mpf(float(step[idx]))
        else:
            raise solver.SolverError("extended-precision polish did not converge")
        return x


def _mp_residual(rel_phases, phi_mp, n):
    half = [mp.mpf(0)] + list(rel_phases)
    shift = mp.pi - phi_mp / 2
    a, b = _mp_jet_compose(half, n)
    rot = mp.exp(1j * shift)
    a, b = _mp_jet_mul(a, [rot * c for c in b], a, b)
    out = []
    fact = 1
    for m in range(1, n + 1):
        fact *= m
        c = a[m] if m % 2 == 0 else b[m]
        out.append(fact * mp.re(c))
        out.append(fact * mp.im(c))
    return out


@lru_cache(maxsize=16)
def _pi_pulse_series(order: int, prec: int):
    """Nonzero Taylor coefficients in eps of cos and sin of (pi/2)(1 + eps),
    as (m, coefficient) pairs up to ``order`` at ``prec`` bits.

    Coefficient m is (pi/2)^m trig(pi/2 + m pi/2) / m!, so the cos series
    lives on odd m and the sin series on even m, with signs +-1.
    """
    with mp.workprec(prec):
        half_pi = mp.pi / 2
        terms = [half_pi**m / mp.factorial(m) for m in range(order + 1)]
        cos_terms = tuple(
            (m, -terms[m] if m % 4 == 1 else terms[m])
            for m in range(1, order + 1, 2)
        )
        sin_terms = tuple(
            (m, -terms[m] if m % 4 == 2 else terms[m])
            for m in range(0, order + 1, 2)
        )
    return cos_terms, sin_terms


def _mp_jet_compose(phases, order):
    # Each nominal pi pulse is (c, rot * s) with real series c, s and rotor
    # rot = -i e^{i phase}; its product with the running pair (a, b) reads
    # a' = c*a - rot * (s*conj(b)), b' = c*b + rot * (s*conj(a)).
    cos_terms, sin_terms = _pi_pulse_series(order, mp.mp.prec)
    a = [mp.mpf(0)] * (order + 1)
    b = list(a)
    rot = -1j * mp.exp(1j * phases[0])
    for j, c in cos_terms:
        a[j] = c
    for j, s in sin_terms:
        b[j] = rot * s
    for phase in phases[1:]:
        rot = -1j * mp.exp(1j * phase)
        ac = [mp.conj(v) for v in a]
        bc = [mp.conj(v) for v in b]
        a, b = (
            [
                mp.fdot((c, a[m - j]) for j, c in cos_terms if j <= m)
                - rot * mp.fdot((s, bc[m - j]) for j, s in sin_terms if j <= m)
                for m in range(order + 1)
            ],
            [
                mp.fdot((c, b[m - j]) for j, c in cos_terms if j <= m)
                + rot * mp.fdot((s, ac[m - j]) for j, s in sin_terms if j <= m)
                for m in range(order + 1)
            ],
        )
    return a, b


def _mp_jet_mul(a2, b2, a1, b1):
    order = len(a1) - 1

    def mul(x, y):
        return [
            sum(x[j] * y[m - j] for j in range(m + 1)) for m in range(order + 1)
        ]

    b1c = [mp.conj(v) for v in b1]
    a1c = [mp.conj(v) for v in a1]
    a = [p - q for p, q in zip(mul(a2, a1), mul(b2, b1c))]
    b = [p + q for p, q in zip(mul(a2, b1), mul(b2, a1c))]
    return a, b
