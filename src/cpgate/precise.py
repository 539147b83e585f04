"""Extended-precision evaluation paths (mpmath).

High compensation orders push the residual infidelity far below double
precision: an order-8 train has infidelity ~1e-17 at one percent error,
two decades under the noise floor of a double-precision matrix product.
The slope-based order estimate and the final polish of tabulated phases
therefore run at mpmath's working precision.  Nominal areas that are
numerically integer multiples of pi are snapped to exact multiples, since
that is what "nominal pi pulse" means.

The two hot loops, the pulse loop of ``mp_propagator`` and the jet
composition behind the polish residual, run in fixed point: a real x is
the Python integer floor(x * 2^P), with P = ``mp.mp.prec + GUARD_BITS``,
so the loops follow the working precision (``workdps(30)`` callers get
P = 119).  Fixed point fits them because their values are bounded: SU(2)
entries by 1, and the m-th Taylor coefficient of an N-pulse train by
(N pi / 2)^m / m!, about 1e7 at N = 18, m = 8.  A product is one integer multiply and
one shift, with none of the renormalization that dominates mpf object
arithmetic.  The inputs (rotor cos/sin, pulse cos/sin at each epsilon,
the pi-pulse series) are converted once with ``mpmath.libmp.to_fixed``,
and the results are rounded back to mpf at the working precision.  Each
shift truncates by less than one unit of 2^-P, and the 16 guard bits
absorb that over a few dozen pulses: at 50 digits the propagator agrees
with a 90-digit evaluation to ~1e-51, the rounding of its own result.

``slope_fit`` takes logs of infidelities of at least ~1e-26 for the
trains it measures (order 8 at eps = 1e-3), so an error of ~1e-51 in a
propagator entry moves a log by ~1e-25, ten decades below the spacing
of doubles.  Its float logs, and the slope and peak fitted from them,
therefore come out bit-identical to the mpf object arithmetic this
replaced, barring a value that falls within 1e-25 of a rounding
boundary (none of the 111 benchmark trains does).
"""

from __future__ import annotations

import math
from functools import lru_cache

import mpmath as mp
import numpy as np
from mpmath.libmp import (
    fone,
    from_man_exp,
    mpf_add,
    mpf_cos_sin,
    mpf_mul,
    mpf_shift,
    mpf_sqrt,
    mpf_sub,
    round_nearest,
    to_fixed,
)

from . import solver
from .su2 import CompositeSequence

_AREA_SNAP = 1e-12
WORKING_DPS = 50
# Fractional bits of the fixed-point loops beyond the working precision.
GUARD_BITS = 16


def _mp_area(area) -> mp.mpf:
    ratio = float(area) / math.pi
    k = round(ratio)
    if k >= 1 and abs(ratio - k) < _AREA_SNAP:
        return k * mp.pi
    return mp.mpf(area)


def _mp_phases(seq: CompositeSequence):
    return [mp.mpf(p.phase) for p in seq.pulses], [_mp_area(p.area) for p in seq.pulses]


def _cos_sin_fixed(x, prec):
    """cos and sin of the raw mpf ``x`` as fixed-point integers at 2^prec."""
    c, s = mpf_cos_sin(x, prec)
    return to_fixed(c, prec), to_fixed(s, prec)


def _rotor(phase, prec):
    """-i e^{i phase} = sin(phase) - i cos(phase), fixed point at 2^prec."""
    c, s = _cos_sin_fixed(mp.mpf(phase)._mpf_, prec)
    return s, -c


def _from_fixed(re, im, prec):
    """The mpc re/2^prec + i im/2^prec at the working precision."""
    wp = mp.mp.prec
    return mp.make_mpc((
        from_man_exp(re, -prec, wp, round_nearest),
        from_man_exp(im, -prec, wp, round_nearest),
    ))


def _gate_distance(a, b, fa):
    """sqrt((|a - fa|^2 + |b|^2) / 2), the Frobenius distance of the
    Cayley-Klein pair (a, b) from the gate (fa, 0), as an mpf."""
    wp = mp.mp.prec
    (ar, ai), (br, bi), (fr, fi) = a._mpc_, b._mpc_, fa._mpc_
    dr, di = mpf_sub(ar, fr, wp), mpf_sub(ai, fi, wp)
    total = mpf_add(
        mpf_add(mpf_mul(dr, dr), mpf_mul(di, di), wp),
        mpf_add(mpf_mul(br, br), mpf_mul(bi, bi), wp),
        wp,
    )
    return mp.mpf(mpf_sqrt(mpf_shift(total, -1), wp))


def mp_propagator(phases, areas, epsilon):
    """Cayley-Klein pair of the composite propagator at error ``epsilon``.

    ``epsilon`` may also be a sequence, the way ``su2.compose`` takes an
    array: the result is then a list of pairs, one per value.  The pulse
    rotors -i e^{i phase} are computed once per call, and cos/sin of the
    half area once per distinct area per epsilon.  The pulse loop runs in
    fixed point at ``mp.mp.prec + GUARD_BITS`` bits.
    """
    single = np.ndim(epsilon) == 0
    prec = mp.mp.prec + GUARD_BITS
    rotors = [_rotor(phase, prec) for phase in phases]
    distinct = {}
    slots = [distinct.setdefault(area, len(distinct)) for area in areas]
    raw_areas = [mp.mpf(area)._mpf_ for area in distinct]
    out = []
    for eps in [epsilon] if single else epsilon:
        scale = mpf_add(fone, mp.mpf(eps)._mpf_, prec)
        trig = [
            _cos_sin_fixed(mpf_shift(mpf_mul(area, scale, prec), -1), prec)
            for area in raw_areas
        ]
        ar, ai, br, bi = 1 << prec, 0, 0, 0
        for (rr, ri), k in zip(rotors, slots):
            c, s = trig[k]
            pr = rr * s >> prec
            pi = ri * s >> prec
            # a' = c a - pb conj(b), b' = c b + pb conj(a), pb = rot * s.
            ar, ai, br, bi = (
                (c * ar - pr * br - pi * bi) >> prec,
                (c * ai - pi * br + pr * bi) >> prec,
                (c * br + pr * ar + pi * ai) >> prec,
                (c * bi + pi * ar - pr * ai) >> prec,
            )
        out.append((_from_fixed(ar, ai, prec), _from_fixed(br, bi, prec)))
    return out[0] if single else out


@lru_cache(maxsize=8)
def _slope_grid(eps_lo, eps_hi, points, prec):
    """(signed, logs) of ``slope_fit`` at ``prec`` bits: the log-spaced
    epsilons, each followed by its negative, and the float log of each."""
    with mp.workprec(prec):
        lo, hi = mp.log(mp.mpf(eps_lo)), mp.log(mp.mpf(eps_hi))
        grid = [mp.exp(lo + (hi - lo) * i / (points - 1)) for i in range(points)]
        signed = tuple(s for e in grid for s in (e, -e))
        return signed, tuple(float(mp.log(e)) for e in grid)


def slope_fit(seq: CompositeSequence, eps_lo=1e-3, eps_hi=1e-2, points=20,
              dps=50) -> tuple[float, float]:
    """Least-squares slope of log-infidelity vs log-error, both signs averaged.

    Returns (slope, max infidelity over the window).  Evaluated under
    mpmath so the fit sees the true power law, not roundoff.
    """
    with mp.workdps(dps):
        phases, areas = _mp_phases(seq)
        fa = mp.exp(-1j * mp.mpf(seq.target_phi) / 2)
        signed, grid_logs = _slope_grid(eps_lo, eps_hi, points, mp.mp.prec)
        pairs = mp_propagator(phases, areas, signed)
        logs = []
        vals = []
        peak = mp.mpf(0)
        for i, log_eps in enumerate(grid_logs):
            infid = mp.mpf(0)
            for a, b in pairs[2 * i: 2 * i + 2]:
                infid += _gate_distance(a, b, fa)
            infid /= 2
            peak = max(peak, infid)
            if infid > 0:
                logs.append(log_eps)
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
    # The full train is the half-train H followed by H with every phase
    # shifted by pi - phi/2, i.e. (a, rot * b) with rot = e^{i(pi - phi/2)}
    # = -cos(phi/2) + i sin(phi/2).  Its pair is a*a - rot * (b*conj(b)),
    # a*b + rot * (b*conj(a)); residual m reads the a entry at even m and
    # the b entry at odd m.  b*conj(b) has real coefficients: its
    # imaginary parts cancel pairwise, exactly in integers too.
    prec = mp.mp.prec + GUARD_BITS
    ar, ai, br, bi = _mp_jet_compose([mp.mpf(0)] + list(rel_phases), n, prec)
    c, s = _cos_sin_fixed(mpf_shift(mp.mpf(phi_mp)._mpf_, -1), prec)
    rot_r, rot_i = -c, s
    out = []
    fact = 1
    for m in range(1, n + 1):
        fact *= m
        pairs = [(j, m - j) for j in range(m + 1)]
        if m % 2 == 0:
            re = sum(ar[j] * ar[k] - ai[j] * ai[k] for j, k in pairs)
            im = sum(ar[j] * ai[k] + ai[j] * ar[k] for j, k in pairs)
            t = sum(br[j] * br[k] + bi[j] * bi[k] for j, k in pairs) >> prec
            re, im = re - rot_r * t, im - rot_i * t
        else:
            re = sum(ar[j] * br[k] - ai[j] * bi[k] for j, k in pairs)
            im = sum(ar[j] * bi[k] + ai[j] * br[k] for j, k in pairs)
            tr = sum(br[j] * ar[k] + bi[j] * ai[k] for j, k in pairs) >> prec
            ti = sum(bi[j] * ar[k] - br[j] * ai[k] for j, k in pairs) >> prec
            re, im = re + rot_r * tr - rot_i * ti, im + rot_r * ti + rot_i * tr
        out.append(mp.mpf((fact * re, -2 * prec)))
        out.append(mp.mpf((fact * im, -2 * prec)))
    return out


@lru_cache(maxsize=16)
def _pi_pulse_series(order: int, prec: int):
    """Nonzero Taylor coefficients in eps of cos and sin of (pi/2)(1 + eps),
    as (m, coefficient) pairs up to ``order``, each coefficient a
    fixed-point integer at scale 2^prec.

    Coefficient m is (pi/2)^m trig(pi/2 + m pi/2) / m!, so the cos series
    lives on odd m and the sin series on even m, with signs +-1.
    """
    with mp.workprec(prec):
        half_pi = mp.pi / 2
        terms = [
            to_fixed((half_pi**m / mp.factorial(m))._mpf_, prec)
            for m in range(order + 1)
        ]
        cos_terms = tuple(
            (m, -terms[m] if m % 4 == 1 else terms[m])
            for m in range(1, order + 1, 2)
        )
        sin_terms = tuple(
            (m, -terms[m] if m % 4 == 2 else terms[m])
            for m in range(0, order + 1, 2)
        )
    return cos_terms, sin_terms


def _mp_jet_compose(phases, order, prec):
    """Jets (ar, ai, br, bi) of a train of nominal pi pulses, fixed point
    at 2^prec: four lists of the real and imaginary Taylor coefficients
    of the Cayley-Klein pair up to ``order``."""
    # Each pi pulse is (c, rot * s) with real series c, s and rotor
    # rot = -i e^{i phase}; its product with the running pair (a, b) reads
    # a' = c*a - rot * (s*conj(b)), b' = c*b + rot * (s*conj(a)).
    cos_terms, sin_terms = _pi_pulse_series(order, prec)
    cos_at = [[(c, m - j) for j, c in cos_terms if j <= m] for m in range(order + 1)]
    sin_at = [[(s, m - j) for j, s in sin_terms if j <= m] for m in range(order + 1)]
    rot_r, rot_i = _rotor(phases[0], prec)
    ar = [0] * (order + 1)
    ai = list(ar)
    br = list(ar)
    bi = list(ar)
    for j, c in cos_terms:
        ar[j] = c
    for j, s in sin_terms:
        br[j] = rot_r * s >> prec
        bi[j] = rot_i * s >> prec
    for phase in phases[1:]:
        rot_r, rot_i = _rotor(phase, prec)
        nar, nai, nbr, nbi = [], [], [], []
        for m in range(order + 1):
            ca_r = ca_i = cb_r = cb_i = 0
            for c, k in cos_at[m]:
                ca_r += c * ar[k]
                ca_i += c * ai[k]
                cb_r += c * br[k]
                cb_i += c * bi[k]
            sb_r = sb_i = sa_r = sa_i = 0
            for s, k in sin_at[m]:
                sb_r += s * br[k]
                sb_i -= s * bi[k]
                sa_r += s * ar[k]
                sa_i -= s * ai[k]
            sb_r >>= prec
            sb_i >>= prec
            sa_r >>= prec
            sa_i >>= prec
            nar.append((ca_r - rot_r * sb_r + rot_i * sb_i) >> prec)
            nai.append((ca_i - rot_r * sb_i - rot_i * sb_r) >> prec)
            nbr.append((cb_r + rot_r * sa_r - rot_i * sa_i) >> prec)
            nbi.append((cb_i + rot_r * sa_i + rot_i * sa_r) >> prec)
        ar, ai, br, bi = nar, nai, nbr, nbi
    return ar, ai, br, bi
