"""Extended-precision evaluation paths (mpmath).

High compensation orders push the residual infidelity far below double
precision: an order-8 train has infidelity ~1e-17 at one percent error,
two decades under the noise floor of a double-precision matrix product.
The slope-based order estimate and the final polish of tabulated phases
therefore run at mpmath's working precision.  Every pulse is a nominal
pi pulse, of area exactly pi(1 + eps) with pi at the working precision.

The two hot loops, the pulse loop of ``mp_propagator`` and the jet
composition behind the polish residual, run in fixed point: a real x is
the Python integer floor(x * 2^P), with P = ``mp.mp.prec + GUARD_BITS``,
so the loops follow the working precision (``workdps(30)`` callers get
P = 119).  Fixed point fits them because their values are bounded: SU(2)
entries by 1, and the m-th Taylor coefficient of an N-pulse train by
(N pi / 2)^m / m!, about 1e7 at N = 18, m = 8.  A product is one integer multiply and
one shift, with none of the renormalization that dominates mpf object
arithmetic.  The inputs (rotor cos/sin, the pulse cos/sin at each
epsilon, the pi-pulse series) are converted once with ``mpmath.libmp.to_fixed``,
and the results are rounded back to mpf at the working precision.  Each
shift truncates by less than one unit of 2^-P, and the 16 guard bits
absorb that over a few dozen pulses: at 50 digits the propagator agrees
with a 90-digit evaluation to ~1e-51, the rounding of its own result.

``slope_fit`` runs the same pulse loop (``_pulse_loop``), with the
cos/sin of the half area at its grid's epsilons cached per (grid,
precision), and also takes the Frobenius gate distance in fixed point,
rounding each distance to mpf once.  It takes logs of infidelities of at
least ~1e-26 for the trains it measures (order 8 at eps = 1e-3), so an
error of ~1e-51 in a propagator entry moves a log by ~1e-25, ten decades
below the spacing of doubles.  Its float logs, and the slope and peak
fitted from them, therefore come out bit-identical to plain mpf object
arithmetic, barring a value that falls within 1e-25 of a rounding
boundary (none of the 111 benchmark trains does).  A train of an even
number of pi pulses has an infidelity that is even in eps (see
``mp_propagator``); ``slope_fit`` then evaluates only the positive half
of its grid, where an odd-length train is averaged over both signs.  The
two signs agree to ~1e-51, so the one-sign fit is bit-identical to the
two-sign average under the same proviso.

Every catalog name, table row and polished inline spec is a two-half
train, built by ``sequences.structured_sequence``: a half H followed by H
with every phase shifted by pi - phi/2.  ``slope_fit`` checks that
structure exactly at its own precision (``_half_length``): the second
half must equal the first plus ``mp.pi - phi/2``, value for value.  Such
a train runs the pulse loop over the first half only and forms the full
pair with the two-half product (a*a - rot |b|^2, a*b + rot b conj(a)),
rot = e^{i(pi - phi/2)} = -cos(phi/2) + i sin(phi/2) taken from the gate's
cos/sin (``_two_half``).  Any other train (odd length, float phases,
phases rounded at another precision) runs the full loop.  The check only
picks the faster path: a train that passes it is a two-half train, and
the exact rot differs from the rounded shift of its phases by ~1e-50,
which moves a log by ~1e-24, still far below the spacing of doubles.
Leading pulses of phase exactly 0 are alike in every train, so both
loops compose them once: ``_grid_prefix`` holds the pulse-loop state
after them per (window, points, precision, count), and
``_mp_zero_prefix`` the polish jets per (order, count, precision), with
the integer operations of the pulse-by-pulse loop, so the jets are
bitwise unchanged.  On the 111 benchmark trains (all exact two-half
trains at 50 digits; 82 begin with 2-4 phase-0 pulses) this took
``slope_fit`` from 0.98 to 0.66 ms per train, ``_mp_jet_compose`` from
96 to 72 us per first half and ``_mp_residual`` from 191 to 156 us
(CPU time, best of 5 alternated processes of 7 passes, 2 shared cores,
Python 3.11.7, mpmath 1.3.0 on its Python backend), with the slope and
peak of every train bit-identical.
"""

from __future__ import annotations

import logging
import math
import time
from functools import lru_cache

import mpmath as mp
import numpy as np
from mpmath.libmp import (
    fone,
    from_man_exp,
    fzero,
    mpf_add,
    mpf_cos_sin,
    mpf_gt,
    mpf_log,
    mpf_mul,
    mpf_pi,
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
# Fractional bits of the fixed-point loops beyond the working precision.
GUARD_BITS = 16
# Residual max-norm 10^-_POLISH_DIGITS that ends ``polish_structured``.
_POLISH_DIGITS = WORKING_DPS - 8


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


def _pi_trig(eps, wp):
    """cos and sin of pi (1 + eps) / 2 for the raw mpf ``eps``, fixed point
    at 2^(wp + GUARD_BITS), with pi rounded to nearest at ``wp`` bits (the
    ``mp.pi`` of the working precision)."""
    prec = wp + GUARD_BITS
    pi = mpf_pi(wp, round_nearest)
    half = mpf_shift(mpf_mul(pi, mpf_add(fone, eps, prec), prec), -1)
    return _cos_sin_fixed(half, prec)


def _pulse_loop(rotors, c, s, prec, start=None):
    """Raw fixed-point (ar, ai, br, bi) of the train whose pulses have the
    rotors ``rotors`` and the half-area cos ``c`` and sin ``s``, at 2^prec,
    applied after the state ``start`` (the identity if None)."""
    ar, ai, br, bi = (1 << prec, 0, 0, 0) if start is None else start
    for rr, ri in rotors:
        pr = rr * s >> prec
        pi = ri * s >> prec
        # a' = c a - pb conj(b), b' = c b + pb conj(a), pb = rot * s.
        ar, ai, br, bi = (
            (c * ar - pr * br - pi * bi) >> prec,
            (c * ai - pi * br + pr * bi) >> prec,
            (c * br + pr * ar + pi * ai) >> prec,
            (c * bi + pi * ar - pr * ai) >> prec,
        )
    return ar, ai, br, bi


def _two_half(ar, ai, br, bi, rot_r, rot_i, prec):
    """Fixed-point pair of the half (a, b) followed by the same half with
    every phase shifted by the angle of rot = rot_r + i rot_i, i.e. by
    (a, rot * b): (a*a - rot |b|^2, a*b + rot * b*conj(a))."""
    bb = (br * br + bi * bi) >> prec
    tr = (br * ar + bi * ai) >> prec
    ti = (bi * ar - br * ai) >> prec
    return (
        (ar * ar - ai * ai - rot_r * bb) >> prec,
        (2 * ar * ai - rot_i * bb) >> prec,
        (ar * br - ai * bi + rot_r * tr - rot_i * ti) >> prec,
        (ar * bi + ai * br + rot_r * ti + rot_i * tr) >> prec,
    )


def _leading_zeros(phases):
    """Number of leading phases that are exactly 0."""
    count = 0
    while count < len(phases) and phases[count] == 0:
        count += 1
    return count


def _half_length(phases, phi):
    """Length of the first half if the second half of ``phases`` is exactly
    the first plus ``mp.pi - phi / 2`` at the working precision, the way
    ``sequences.structured_sequence`` builds it, else 0."""
    if len(phases) % 2:
        return 0
    half = len(phases) // 2
    shift = mp.pi - mp.mpf(phi) / 2
    if all(phases[half + k] == phases[k] + shift for k in range(half)):
        return half
    return 0


def mp_propagator(phases, epsilon):
    """Cayley-Klein pair of the pi-pulse train with coupling phases
    ``phases`` at error ``epsilon``.

    ``epsilon`` may also be a sequence, the way ``su2.compose`` takes an
    array: the result is then a list of pairs, one per value.  The pulse
    rotors -i e^{i phase} are computed once per call, and cos/sin of the
    half area once per epsilon.  The pulse loop (``_pulse_loop``, shared
    with ``slope_fit``) runs in fixed point at ``mp.mp.prec + GUARD_BITS``
    bits.

    Flipping the sign of eps gives U(-eps) = -Z U(eps) Z^dagger for each
    pi pulse, with Z = diag(1, -1), so an N-pulse train has the pair
    (+-a, -+b) at -eps, the sign being that of (-1)^N.

    Nothing in the package calls it: ``slope_fit`` runs ``_pulse_loop``
    itself.  It is the tests' reference for that loop and for the
    profile law at 50 digits.
    """
    single = np.ndim(epsilon) == 0
    wp = mp.mp.prec
    prec = wp + GUARD_BITS
    rotors = [_rotor(phase, prec) for phase in phases]
    out = []
    for eps in [epsilon] if single else epsilon:
        ar, ai, br, bi = _pulse_loop(rotors, *_pi_trig(mp.mpf(eps)._mpf_, wp), prec)
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


@lru_cache(maxsize=8)
def _grid_trig(eps_lo, eps_hi, points, wp):
    """``_pi_trig`` at each signed epsilon of ``_slope_grid``."""
    signed, _ = _slope_grid(eps_lo, eps_hi, points, wp)
    return tuple(_pi_trig(eps._mpf_, wp) for eps in signed)


@lru_cache(maxsize=32)
def _grid_prefix(eps_lo, eps_hi, points, wp, count):
    """``_pulse_loop`` state after ``count`` pulses of phase 0 at each
    signed epsilon of ``_slope_grid``: leading zeros of a train are the
    same in every train, so they are composed once."""
    prec = wp + GUARD_BITS
    rotors = [_rotor(0, prec)] * count
    return tuple(
        _pulse_loop(rotors, c, s, prec) for c, s in _grid_trig(eps_lo, eps_hi, points, wp)
    )


def slope_fit(seq: CompositeSequence, eps_lo=1e-3, eps_hi=1e-2, points=20,
              dps=50) -> tuple[float, float]:
    """Least-squares slope of log-infidelity vs log-error.

    Returns (slope, max infidelity over the window).  Evaluated under
    mpmath so the fit sees the true power law, not roundoff.  The
    infidelity at each of the ``points`` log-spaced errors is the average
    over both signs of eps, except for an even-length train, whose
    infidelity is even in eps (every catalog train, table row and CLI
    spec), which is evaluated at +eps only.  The pulse loop and the
    Frobenius gate distance run in fixed point; each distance is rounded
    to mpf once, then takes one sqrt and one log.
    """
    with mp.workdps(dps):
        wp = mp.mp.prec
        prec = wp + GUARD_BITS
        half = _half_length(seq.phases, seq.target_phi)
        looped = seq.phases[:half] if half else seq.phases
        zeros = _leading_zeros(looped)
        rotors = [_rotor(phase, prec) for phase in looped[zeros:]]
        trig = _grid_trig(eps_lo, eps_hi, points, wp)
        starts = _grid_prefix(eps_lo, eps_hi, points, wp, zeros)
        _, grid_logs = _slope_grid(eps_lo, eps_hi, points, wp)
        # The gate (fa, 0), fa = e^{-i phi/2} = fc - i fs; the shift of the
        # second half is e^{i(pi - phi/2)} = -fc + i fs.
        fc, fs = _cos_sin_fixed(mpf_shift(mp.mpf(seq.target_phi)._mpf_, -1), prec)
        signs = (0,) if len(seq) % 2 == 0 else (0, 1)
        logs = []
        vals = []
        peak = fzero
        for i, log_eps in enumerate(grid_logs):
            dists = []
            for sign in signs:
                k = 2 * i + sign
                ar, ai, br, bi = _pulse_loop(rotors, *trig[k], prec, starts[k])
                if half:
                    ar, ai, br, bi = _two_half(ar, ai, br, bi, -fc, fs, prec)
                # sqrt((|a - fa|^2 + |b|^2) / 2), the Frobenius distance.
                total = (ar - fc) ** 2 + (ai + fs) ** 2 + br * br + bi * bi
                half_dist = from_man_exp(total, -2 * prec - 1, wp, round_nearest)
                dists.append(mpf_sqrt(half_dist, wp))
            infid = dists[0] if len(dists) == 1 else mpf_shift(mpf_add(*dists, wp), -1)
            if mpf_gt(infid, peak):
                peak = infid
            if infid != fzero:
                logs.append(log_eps)
                vals.append(to_float(mpf_log(infid, wp), rnd=round_nearest))
        peak = to_float(peak, rnd=round_nearest)
        if len(logs) < 2:
            return math.nan, peak
        return float(np.polyfit(np.array(logs), np.array(vals), 1)[0]), peak


def polish_structured(rel_phases, phi, pinned=None):
    """Newton-polish structured relative phases to ``WORKING_DPS`` digits.

    ``phi`` may be an mpf (kept exact); the float Jacobian is computed
    once, which is enough for fast linear convergence near the root.
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
        # Loose, order-scaled float tolerance: factorial scaling raises
        # the double-precision residual floor, and the extended-precision
        # stage finishes the convergence anyway.
        n_rel = len(x_float)
        float_tol = 1e-11 * max(1.0, math.factorial(n_rel))
        x_float, float_rmax, ok = solver._newton(
            x_float, float(phi_mp), tol=float_tol, max_iter=60, pinned=pinned
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
        jac = solver._jacobian(x_float, float(phi_mp), free)
        jac_pinv = np.linalg.pinv(jac, rcond=solver._RCOND)
        x = [mp.mpf(v) for v in x_float]
        tol = mp.mpf(10) ** (-_POLISH_DIGITS)
        for evals in range(1, WORKING_DPS + 1):
            r = _mp_residual(x, phi_mp, n)
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
    """Taylor coefficients in eps of cos and sin of (pi/2)(1 + eps) up to
    ``order``, fixed-point integers at scale 2^prec, laid out for the
    truncated Cauchy product: entry m of each of the two tuples lists the
    (coefficient j, index m - j) pairs of the nonzero coefficients j <= m.

    Coefficient m is (pi/2)^m trig(pi/2 + m pi/2) / m!, so the cos series
    lives on odd m and the sin series on even m, with signs +-1.
    """
    with mp.workprec(prec):
        half_pi = mp.pi / 2
        terms = [
            to_fixed((half_pi**m / mp.factorial(m))._mpf_, prec)
            for m in range(order + 1)
        ]
    cos_terms = [
        (m, -terms[m] if m % 4 == 1 else terms[m]) for m in range(1, order + 1, 2)
    ]
    sin_terms = [
        (m, -terms[m] if m % 4 == 2 else terms[m]) for m in range(0, order + 1, 2)
    ]
    return tuple(
        tuple(tuple((c, m - j) for j, c in series if j <= m) for m in range(order + 1))
        for series in (cos_terms, sin_terms)
    )


def _mp_jet_pulse(jets, rotor, cos_at, sin_at, prec):
    """Fixed-point jets of the pi pulse with rotor ``rotor`` applied after
    the train whose jets are ``jets``."""
    # The pi pulse is (c, rot * s) with real series c, s and rotor
    # rot = -i e^{i phase}; its product with the running pair (a, b) reads
    # a' = c*a - rot * (s*conj(b)), b' = c*b + rot * (s*conj(a)).
    ar, ai, br, bi = jets
    rot_r, rot_i = rotor
    nar, nai, nbr, nbi = [], [], [], []
    for m in range(len(ar)):
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
    return nar, nai, nbr, nbi


@lru_cache(maxsize=64)
def _mp_zero_prefix(order: int, count: int, prec: int):
    """Jets after ``count`` pi pulses of phase exactly 0, from the identity:
    the pinned leading zeros of a polish are the same on every residual
    evaluation, so they are composed once per (order, count, precision)."""
    zero = (0,) * (order + 1)
    jets = ((1 << prec,) + zero[1:], zero, zero, zero)
    cos_at, sin_at = _pi_pulse_series(order, prec)
    rotor = _rotor(0, prec)
    for _ in range(count):
        jets = _mp_jet_pulse(jets, rotor, cos_at, sin_at, prec)
    return tuple(tuple(part) for part in jets)


def _mp_jet_compose(phases, order, prec):
    """Jets (ar, ai, br, bi) of a train of nominal pi pulses, fixed point
    at 2^prec: four sequences of the real and imaginary Taylor
    coefficients of the Cayley-Klein pair up to ``order``.  Leading phases
    that are exactly 0 come from ``_mp_zero_prefix``; the first pulse
    applied to the identity is the pulse itself, bit for bit."""
    cos_at, sin_at = _pi_pulse_series(order, prec)
    zeros = _leading_zeros(phases)
    jets = _mp_zero_prefix(order, zeros, prec)
    for phase in phases[zeros:]:
        jets = _mp_jet_pulse(jets, _rotor(phase, prec), cos_at, sin_at, prec)
    return jets
