"""Extended-precision evaluation paths (mpmath).

High compensation orders push the residual infidelity far below double
precision: an order-8 train has infidelity ~1e-17 at one percent error,
two decades under the noise floor of a double-precision matrix product.
The slope-based order estimate (``slope_fit``) and the final polish of
tabulated phases (``polish_structured``) therefore run at ``WORKING_DPS``
digits, on one kernel: ``_mp_jet_compose`` composes a train of N nominal
pi pulses as (a, sqrt(1 - s^2) B), with a and B polynomials in
s = sin(pi eps/2) (see ``jets``), one ``_mp_jet_pulse`` per pulse, O(N)
shifts and products each.

The kernel runs in fixed point: a real x is the Python integer
floor(x * 2^P), with P = ``mp.mp.prec + GUARD_BITS``, so it follows the
working precision (``workdps(30)`` callers get P = 119).  A product is
one integer multiply and one shift, with none of the renormalization
that dominates mpf object arithmetic.  Fixed point fits because the
values are bounded: on real s in [-1, 1], |a| <= 1 and |B| <= N (Schur's
inequality), so by V. A. Markov's coefficient bound no coefficient of a
exceeds the largest of the Chebyshev polynomial T_N, nor one of B N times
that of T_{N-1}: 576 and 2304 for the largest half the polish composes
(N = 9).  The inputs (rotor cos/sin, the gate's cos/sin, s and
cos(pi eps/2) on the slope window) are converted once with
``mpmath.libmp.to_fixed``.  Each shift truncates by less than one unit of
2^-P, and the 16 guard bits absorb that.

``slope_fit`` evaluates the composed polynomial by Horner's rule
(``_horner``) at the 20 log-spaced errors from 1e-3 to 1e-2, whose
fixed-point s and cos(pi eps/2) are cached per precision
(``_slope_grid``).  There |s| < 0.016, so a pulse multiplies an error
carried in by at most ~1 + |s| and the truncations of N pulses and of
Horner's rule add up to a few N units of 2^-P at each point, as in a
pulse-by-pulse product.  A train of an even number of pi pulses has an
infidelity that is even in eps (U(-eps) = -Z U(eps) Z^dagger per pulse,
Z = diag(1, -1)), so only +eps is evaluated; an odd number is
off-diagonal at eps = 0, no phase gate at all, and raises ValueError.

Every catalog name, table row and polished inline spec is a two-half
train, built by ``sequences.structured_sequence``: a half H followed by H
with every phase shifted by pi - phi/2.  ``slope_fit`` checks that
structure exactly at its own precision (``_half_length``).  For such a
train the squared gate distance is 2 t(s)^2, t = Im(e^{i phi/4} a_h),
a_h being the half's major-diagonal element (see ``solver``), so only
the half is composed and t's coefficients are combined before the
evaluation.  Any other train (float phases, phases rounded at another
precision) composes the full (a, B) and takes
(|a - e^{-i phi/2}|^2 + cos^2(pi eps/2) |B|^2) / 2, at O(N^2) cost
against the O(20 N) of a pulse loop over the grid.  The check only picks
the cheaper path: the exact shift differs from the rounded shift of a
two-half train's phases by ~1e-50, which moves a log by ~1e-24.

The fit takes logs of infidelities of at least ~1e-26 (order 8 at
eps = 1e-3), so an error of ~1e-51 in the distance moves a log by
~1e-25, ten decades below the spacing of doubles.  The infidelity is the
distance itself, so its log is half the log of the square, and the peak
is the root of the largest square: one sqrt per fit.  Only the double of
each log is kept, so every log runs at 96 bits, a double's 53 and 43
guard bits (``_LOG_BITS``): the result rounds to the same double as the
exact log unless that lies within ~2^-43 units in the last place of a
rounding boundary.  The line is fitted by the ``lstsq`` call
``np.polyfit`` makes, on the scaled Vandermonde matrix of the log grid
built once per grid (``_line_design``), so the slope is polyfit's bit for
bit.  The tests check slope and peak bit for bit against plain mpc
object arithmetic averaged over both signs of eps, on the 27 names, the
84 rounded rows, random two-half trains and random trains off that
structure.

The polish solves the solver's half-train conditions (see ``solver``):
its residual (``_mp_residual``) reads the coefficients of s^{n-1},
s^{n-3}, ... >= 0 of t from the composed half, with the cos/sin of phi/4
taken once per polish; at 50 digits it agrees with a 90-digit
interpolation of the half to ~1e-50.  It runs the float Newton of
``solver`` to ``_FLOAT_TOL``, which returns the free-column Jacobian at
the point it converged to, and reuses that Jacobian for every 50-digit
step: both residuals read the same s-coefficients.  The 50-digit stage
stops at 10^-_POLISH_DIGITS = 1e-45, which holds the full-train
derivative conditions of every polished table row and named train below
1e-40 at 90 digits.  Leading phases of exactly 0 are alike in every
train, so their polynomials are composed once per (length, count,
precision) (``_mp_zero_prefix``), bitwise as pulse by pulse.
"""

from __future__ import annotations

import logging
import math
import time
from functools import lru_cache

import mpmath as mp
import numpy as np
from mpmath.libmp import (
    from_man_exp,
    mpf_cos_sin,
    mpf_log,
    mpf_shift,
    mpf_sqrt,
    round_nearest,
    to_fixed,
    to_float,
)

from . import solver
from .su2 import CompositeSequence

_log = logging.getLogger("cpgate.precise")

WORKING_DPS = 50
# The slope window: _SLOPE_POINTS log-spaced errors from _SLOPE_EPS_LO to
# _SLOPE_EPS_HI.
_SLOPE_EPS_LO = 1e-3
_SLOPE_EPS_HI = 1e-2
_SLOPE_POINTS = 20
# Fractional bits of the fixed-point loops beyond the working precision.
GUARD_BITS = 16
# Bits of the logs in ``slope_fit``: a double's 53 and 43 guard bits.
_LOG_BITS = 53 + 43
# Residual max-norm of the float stage of ``polish_structured``, 40 times
# the largest double-precision residual of a polished catalog train or
# table row (2.4e-13, at n = 8), and the max-norm 10^-_POLISH_DIGITS that
# ends its extended-precision stage.
_FLOAT_TOL = 1e-11
_POLISH_DIGITS = WORKING_DPS - 5


def _cos_sin_fixed(x, prec):
    """cos and sin of the raw mpf ``x`` as fixed-point integers at 2^prec."""
    c, s = mpf_cos_sin(x, prec)
    return to_fixed(c, prec), to_fixed(s, prec)


def _angle_trig(phi, halvings, prec):
    """cos and sin of ``phi`` / 2^halvings as fixed-point integers at 2^prec."""
    return _cos_sin_fixed(mpf_shift(mp.mpf(phi)._mpf_, -halvings), prec)


def _rotor(phase, prec):
    """-i e^{i phase} = sin(phase) - i cos(phase), fixed point at 2^prec."""
    c, s = _cos_sin_fixed(mp.mpf(phase)._mpf_, prec)
    return s, -c


def _leading_zeros(phases):
    """Number of leading phases that are exactly 0."""
    count = 0
    while count < len(phases) and phases[count] == 0:
        count += 1
    return count


def _half_length(phases, phi):
    """Length of the first half if the second half of ``phases`` is exactly
    the first plus ``mp.pi - phi / 2`` at the working precision, the way
    ``sequences.structured_sequence`` builds it, else 0.  ``phases`` has
    even length."""
    half = len(phases) // 2
    shift = mp.pi - mp.mpf(phi) / 2
    if all(phases[half + k] == phases[k] + shift for k in range(half)):
        return half
    return 0


@lru_cache(maxsize=4)
def _slope_grid(wp):
    """(grid, trig, logs) of ``slope_fit`` at ``wp`` bits: the
    ``_SLOPE_POINTS`` log-spaced epsilons of the window, the sin and cos of
    pi eps / 2 at each as fixed-point integers at 2^(wp + GUARD_BITS), and
    the float log of each."""
    prec = wp + GUARD_BITS
    with mp.workprec(wp):
        lo, hi = mp.log(mp.mpf(_SLOPE_EPS_LO)), mp.log(mp.mpf(_SLOPE_EPS_HI))
        grid = tuple(
            mp.exp(lo + (hi - lo) * i / (_SLOPE_POINTS - 1))
            for i in range(_SLOPE_POINTS)
        )
        logs = tuple(float(mp.log(eps)) for eps in grid)
    with mp.workprec(prec):
        trig = []
        for eps in grid:
            c, s = _cos_sin_fixed((mp.pi * eps / 2)._mpf_, prec)
            trig.append((s, c))
    return grid, tuple(trig), logs


def _horner(coeffs, x, prec):
    """The polynomial with fixed-point coefficients ``coeffs`` (s^0 first)
    at the fixed-point ``x``, at 2^prec."""
    acc = 0
    for coeff in reversed(coeffs):
        acc = (acc * x >> prec) + coeff
    return acc


@lru_cache(maxsize=8)
def _line_design(logs):
    """(lhs, scale, rcond) of ``np.polyfit(logs, y, 1)``: the Vandermonde
    matrix of the log grid ``logs`` with its columns scaled to unit norm,
    the scales and the default cutoff.  ``slope_fit`` passes them to the
    same ``lstsq`` call polyfit makes, so its slope is polyfit's, bit for
    bit, without rebuilding the matrix for every train."""
    x = np.array(logs)
    lhs = np.vander(x, 2)
    scale = np.sqrt((lhs * lhs).sum(axis=0))
    lhs /= scale
    lhs.flags.writeable = False
    scale.flags.writeable = False
    return lhs, scale, len(x) * np.finfo(x.dtype).eps


def slope_fit(seq: CompositeSequence) -> tuple[float, float]:
    """Least-squares slope of log-infidelity vs log-error.

    Returns (slope, max infidelity over the window): the Frobenius
    infidelity at the ``_SLOPE_POINTS`` log-spaced errors from
    ``_SLOPE_EPS_LO`` to ``_SLOPE_EPS_HI``, at ``WORKING_DPS`` digits, so
    the fit sees the true power law, not roundoff.  The infidelity of an
    even-length train is even in eps, so it is evaluated at +eps only;
    an odd-length train, off-diagonal at eps = 0, raises ValueError.
    The train's polynomial and the squared distance run in fixed point;
    each square is rounded to mpf once and takes one log.
    """
    if len(seq) % 2:
        raise ValueError(f"slope_fit needs an even number of pulses, got {len(seq)}")
    with mp.workdps(WORKING_DPS):
        wp = mp.mp.prec
        prec = wp + GUARD_BITS
        half = _half_length(seq.phases, seq.target_phi)
        composed = seq.phases[:half] if half else seq.phases
        ar, ai, br, bi = _mp_jet_compose(composed, prec)
        _, trig, grid_logs = _slope_grid(wp)
        # The squared Frobenius distance is the integer total times
        # 2^shift, one total per epsilon.
        if half:
            # 2 t(s)^2, t = Im(e^{i phi/4} a_h) from the half's a_h.
            c, s = _angle_trig(seq.target_phi, 2, prec)
            t_poly = [(s * r + c * i) >> prec for r, i in zip(ar, ai)]
            shift = 1 - 2 * prec
            totals = [_horner(t_poly, x, prec) ** 2 for x, _ in trig]
        else:
            # (|a - fa|^2 + |b|^2) / 2 against the gate (fa, 0),
            # fa = e^{-i phi/2} = fc - i fs, with b = cos(pi eps/2) B.
            fc, fs = _angle_trig(seq.target_phi, 1, prec)
            shift = -1 - 2 * prec
            totals = []
            for x, cx in trig:
                a_re, a_im, b_re, b_im = (_horner(p, x, prec) for p in (ar, ai, br, bi))
                totals.append(
                    (a_re - fc) ** 2 + (a_im + fs) ** 2
                    + (cx * b_re >> prec) ** 2 + (cx * b_im >> prec) ** 2
                )
        # The infidelity is the distance itself: its log is half the log of
        # the square, and the peak is the root of the largest square
        # (rounding is monotone).  Only the double of each log is kept, so
        # it is taken at 53 + 43 bits.
        peak = to_float(mpf_sqrt(
            from_man_exp(max(totals), shift, wp, round_nearest), wp
        ), rnd=round_nearest)
        fit = [
            (log_eps, 0.5 * to_float(mpf_log(
                from_man_exp(t, shift, _LOG_BITS, round_nearest), _LOG_BITS
            ), rnd=round_nearest))
            for log_eps, t in zip(grid_logs, totals) if t
        ]
        if len(fit) < 2:
            return math.nan, peak
        logs, vals = zip(*fit)
        lhs, scale, rcond = _line_design(logs)
        coef = np.linalg.lstsq(lhs, np.array(vals), rcond)[0]
        return float(coef[0] / scale[0]), peak


def polish_structured(rel_phases, phi, pinned=None):
    """Newton-polish structured relative phases to ``WORKING_DPS`` digits.

    ``phi`` may be an mpf (kept exact); the float Jacobian that the float
    Newton returns at its root serves every 50-digit step, which is
    enough for fast linear convergence near the root.
    Returns mpf phases with residual max-norm below 10^-_POLISH_DIGITS.
    Logs one DEBUG record under ``cpgate.precise``: the free-phase count,
    the residual max-norm after the float stage, the number of 50-digit
    residual evaluations, the final residual max-norm and the seconds
    spent.
    """
    start = time.perf_counter()
    with mp.workdps(WORKING_DPS):
        phi_mp = mp.mpf(phi) if not isinstance(phi, (mp.mpf, mp.mpc)) else phi
        x_float = np.asarray([float(v) for v in rel_phases], dtype=float)
        x_float, float_rmax, ok, jac = solver._newton(
            x_float, float(phi_mp), tol=_FLOAT_TOL, max_iter=60, pinned=pinned
        )
        if not ok:
            raise solver.SolverError(
                f"float-precision polish failed; residual max-norm {float_rmax:.3e}"
            )
        n = len(x_float)
        free = (
            np.arange(n)
            if pinned is None
            else np.flatnonzero(~np.asarray(pinned, dtype=bool))
        )
        jac_pinv = np.linalg.pinv(jac, rcond=solver._RCOND)
        gate = _angle_trig(phi_mp, 2, mp.mp.prec + GUARD_BITS)
        x = [mp.mpf(v) for v in x_float]
        tol = mp.mpf(10) ** (-_POLISH_DIGITS)
        for evals in range(1, WORKING_DPS + 1):
            r = _mp_residual(x, gate, n)
            rmax = max(abs(v) for v in r)
            if rmax < tol:
                break
            step = -jac_pinv @ np.array([float(v) for v in r])
            for idx, j in enumerate(free):
                x[j] = x[j] + mp.mpf(float(step[idx]))
        else:
            raise solver.SolverError("extended-precision polish did not converge")
        _log.debug(
            "polish free=%d float_rmax=%.3g evals=%d rmax=%.3g seconds=%.6f",
            len(free), float_rmax, evals, float(rmax), time.perf_counter() - start,
        )
        return x


def _mp_residual(rel_phases, gate, n):
    # The solver's residual at the working precision: the coefficients of
    # s^{n-1}, s^{n-3}, ... >= 0 of Im(e^{i phi/4} a_h) = sin(phi/4) Re a_h
    # + cos(phi/4) Im a_h, a polynomial in s = sin(pi eps/2), a_h being
    # the half train's major-diagonal element and ``gate`` the cos and sin
    # of phi/4 from ``_angle_trig``.
    prec = mp.mp.prec + GUARD_BITS
    ar, ai, _, _ = _mp_jet_compose([mp.mpf(0)] + list(rel_phases), prec)
    c, s = gate
    return [
        mp.mpf((s * ar[m] + c * ai[m], -2 * prec)) for m in range((n + 1) % 2, n, 2)
    ]


def _mp_jet_pulse(poly, rotor, prec):
    """Fixed-point polynomials in s of the pi pulse with rotor ``rotor``
    applied after the train whose polynomials are ``poly``."""
    # The train is (a, sqrt(1 - s^2) B) and the pulse (-s, rot sqrt(1 - s^2))
    # with rot = -i e^{i phase}: a' = -s a - rot (1 - s^2) conj(B),
    # B' = -s B + rot conj(a) (see ``jets``).  Two leading zeros stand for
    # the coefficients below s^0.
    ar, ai, br, bi = ((0, 0, *part) for part in poly)
    rot_r, rot_i = rotor
    nar, nai, nbr, nbi = [], [], [], []
    for m in range(2, len(ar)):
        # (1 - s^2) conj(B) at s^m.
        qr, qi = br[m] - br[m - 2], bi[m - 2] - bi[m]
        nar.append(-ar[m - 1] - ((rot_r * qr - rot_i * qi) >> prec))
        nai.append(-ai[m - 1] - ((rot_r * qi + rot_i * qr) >> prec))
        nbr.append(-br[m - 1] + ((rot_r * ar[m] + rot_i * ai[m]) >> prec))
        nbi.append(-bi[m - 1] + ((rot_i * ar[m] - rot_r * ai[m]) >> prec))
    return nar, nai, nbr, nbi


@lru_cache(maxsize=64)
def _mp_zero_prefix(length: int, count: int, prec: int):
    """Polynomials of ``length`` coefficients after ``count`` pi pulses of
    phase exactly 0, from the identity: leading zeros are alike in every
    train and the pinned ones of a polish in every residual evaluation, so
    they are composed once per (length, count, precision)."""
    zero = (0,) * length
    poly = ((1 << prec,) + zero[1:], zero, zero, zero)
    rotor = _rotor(0, prec)
    for _ in range(count):
        poly = _mp_jet_pulse(poly, rotor, prec)
    return tuple(tuple(part) for part in poly)


def _mp_jet_compose(phases, prec):
    """Polynomials (ar, ai, Br, Bi) in s = sin(pi eps/2) of a train of
    nominal pi pulses, fixed point at 2^prec: the real and imaginary
    coefficients of s^0 .. s^N of a and of B, the Cayley-Klein pair being
    (a, sqrt(1 - s^2) B) for N pulses.  Leading phases that are exactly 0
    come from ``_mp_zero_prefix``; the first pulse applied to the identity
    is the pulse itself, bit for bit."""
    length = len(phases) + 1
    zeros = _leading_zeros(phases)
    poly = _mp_zero_prefix(length, zeros, prec)
    for phase in phases[zeros:]:
        poly = _mp_jet_pulse(poly, _rotor(phase, prec), prec)
    return poly
