"""Extended-precision evaluation paths: the 50-digit format.

High compensation orders push the residual infidelity far below double
precision: an order-8 train has infidelity ~1e-17 at one percent error,
two decades under the noise floor of a double-precision matrix product.
The slope-based order estimate (``slope_fit``) and the final polish of
tabulated phases (``polish_structured``, and ``polish_t`` for the t
alone) therefore run at ``WORKING_DPS``
digits, on one kernel: ``_mp_jet_compose`` composes a train of N nominal
pi pulses as (a, sqrt(1 - s^2) B), with a and B polynomials in
s = sin(pi eps/2) kept as the u-coefficients, u = s^2, of A and B~ (see
``jets``), one ``_mp_jet_pulse`` per pulse, O(N) shifts and products each.
The pulse, its zero prefix, ``_half_t`` and ``_fixed`` live in
``sequences``, where ``analysis.sweep`` composes a float half on them too.

The kernel runs in one fixed-point format: a real x is the Python
integer floor(x * 2^``PREC``), ``PREC`` = ``WP`` + ``GUARD_BITS`` =
169 + 16 = 185 bits, ``WP`` being the bits of ``WORKING_DPS`` digits.
Both are constants, and no code here reads mpmath's context (nor loads
mpmath), so every result is the same whatever precision a caller runs
at.  An input (a
Fraction in units of pi, a ``Phase``, an mpf or a float) is rounded to
nearest at ``WP`` bits once (``_raw``), and the returned phases, the
catalog's trains (``structured_train``) and the fit's values are rounded
at an explicit precision.  A product is one integer multiply and one
shift, with none of the renormalization that dominates mpf object
arithmetic.  Fixed point fits because the values are bounded: on real s
in [-1, 1], |a| <= 1 and |B| <= N (Schur's inequality), so by
V. A. Markov's coefficient bound no coefficient of a exceeds the largest
of the Chebyshev polynomial T_N, nor one of B N times that of T_{N-1}:
576 and 2304 for the largest half the polish composes (N = 9).  The
inputs (rotor cos/sin, the gate's cos/sin, s and cos(pi eps/2) on the
slope window) enter as integers at 2^PREC in the form of mpmath's
``to_fixed(mpf_cos_sin(x, PREC), PREC)``.  Each
shift truncates by less than one unit of 2^-PREC, and the 16 guard bits
absorb that.

The trig (``_cos_sin_fixed``, for rotors and the gate's angle) runs on
integers.  It reduces the raw value by n pi/2 to |r| <= pi/4, with pi
from Machin's formula at enough bits for the value's magnitude
(``_pi_fixed``, cached per 64 bits), and again with more where r
cancels deeper than it allowed for, so that r keeps ``_TRIG_GUARD`` = 40
bits beyond PREC significant ones.  It splits |r| into j 2^-8 and
d < 2^-8, sums the Taylor series of ``_small_cos_sin`` at d and takes
one complex product with the cos and sin of j 2^-8, a table entry summed
by the same series on first use (``_trig_step``).  The truncations of
the reduction, the entry, the series and the product leave the value
within 2^8 units of its last bit (5 at most on 3000 random angles), 32
bits below the PREC-th, and
``_truncated`` gives it mpmath's form: truncated toward zero at PREC
significant bits, then floored at 2^-PREC.  mpmath works with 10 guard
bits, so where the exact value lies that close to a truncation boundary
the two may part by one unit; the tests check that they agree on every
angle of the catalog's trains, polishes and slope grid.

That rounding, the constants and the build of a train from its half
(``_raw``, ``_round``, ``_add``, ``_PI``, ``polish_result``,
``structured_train``) are ``su2``'s and ``sequences``', imported here:
they run on Python integers, and building the catalog's trains from
stored or exact phases runs them and nothing of this module, which it
does not load.

``slope_fit`` evaluates the composed polynomials by Horner's rule in u
(``_horner``) at the 20 log-spaced errors from 1e-3 to 1e-2, and
multiplies once by s where the parity is odd.  The grid is data
(``_slope_grid``): the fixed-point s and cos(pi eps/2) at each error and
the double log of each, in ``data/slope_grid.json``, which
``tests/make_polished.py`` computes with mpmath and a test recomputes;
u = s^2 is taken on reading it.  There |s| < 0.016, so
a pulse multiplies an error carried in by at most ~1 + |s| and the
truncations of N pulses and of Horner's rule add up to a few N units of
2^-PREC at each point, as in a pulse-by-pulse product.
A train of an even number of pi pulses has an infidelity that is even
in eps (U(-eps) = -Z U(eps) Z^dagger per pulse, Z = diag(1, -1)), so
only +eps is evaluated; an odd number is off-diagonal at eps = 0, no
phase gate at all, and raises ValueError.

``slope_fit`` composes the full (a, B) of whatever train it is given and
takes (|a - e^{-i phi/2}|^2 + cos^2(pi eps/2) |B|^2) / 2, at O(N^2) cost
against the O(20 N) of a pulse loop over the grid; it recognizes no
structure.  Every catalog name, table row and polished inline spec is a
two-half train: a half H followed by H with every phase shifted by
pi - phi/2.  For such a train the squared gate distance is
2 Im(e^{i phi/4} a_h)^2 = 2 u^p t(u)^2, a_h being the half's
major-diagonal element and p the parity of its pulse count (see
``solver``), and ``half_slope_fit`` fits it from t's fixed-point
u-coefficients and p alone.  The
half is handed along as a value, never found again from the phases: the
polish returns the t it composed last (``t_polynomial`` composes it
where nothing was polished), and ``catalog.half_polynomial`` keeps it
for each catalog entry.

The fit runs on integers from the squares to the two doubles it returns
(``_line_fit``), with no mpf and no LAPACK.  It takes logs of
infidelities of at least ~1e-26 (order 8 at eps = 1e-3), so an error of
~1e-51 in the distance moves a log by ~1e-25, ten decades below the
spacing of doubles.  The infidelity is the distance itself, so its log
is half the log of the square, and the peak is the root of the largest
square, one ``math.isqrt`` with a sticky bit, rounded to a double once
(``_root``).  Each log (``_ln``) is an integer at 2^-_LOG_Q, Q = 120,
within one unit of the exact log: the square is normalized to x in
[1, 2) times a power of two, divided by the start c_k of its interval in
a table of 2^7 (the reciprocal rounded, its log kept exactly), and the
log of the quotient y, below 1 + 2^-7, is 2 atanh((y - 1)/(y + 1)) by
its series, summed until a term rounds to 0 (``_atanh_series``).  The
table and ln 2 are built on the first fit, from the same series
(``_log_table``).  The slope is the exact least-squares slope of those
logs on the double logs of the errors: one integer dot product with
weights (x_k - mean x) / sum((x_j - mean x)^2) over a common
denominator, cached per set of nonzero squares
(``_slope_weights``; a zero square drops its point, fewer than two
leave NaN), and one correctly rounded integer division.  So the slope
is the exact regression of the exact logs, correctly rounded, unless
that lies within ~2^-68 units in the last place of a rounding boundary.

``half_slope_fit`` mostly takes no log per point.  Its values are
v_k = t(u_k) s_k^p, and where t's top coefficient t_m (m >= 1) sets
them, v_k = t_m U_k (1 + rho_k) with U_k = s_k^p u_k^m, a constant of
the grid, and |rho_k| < 2^-30: every polished or exact half, whose
lower coefficients are below 1e-45.  The weights sum to exactly 0, so
t_m, the factor 2 and 2^shift cancel from the slope's sum, which is
2 sum W_k ln U_k + 2 sum W_k ln(1 + rho_k).  The first term is taken
once per (m, p), from the 20 U_k at 2^PREC and their logs at
2^-_LOG_W (``_grid_top``); each ln(1 + rho_k) is 2 atanh(z_k),
z_k = rho_k / (2 + rho_k), from one integer division of v_k 2^PREC and
t_m U_k and two terms of the series, which leave less than 2^-155.
Each log of a U_k is within 2^-137 (the error of ln 2 times
|log2 U_k| <= 90, at most) and each series within a few units of
2^-150, against the unit of 2^-_LOG_Q = 2^-120 of each ``_ln``, so the
claim above holds for this sum too.
Any other t (a constant one, t_m = 0, a value of 0 or a rho_k of
2^-30 or more) takes a log per point through ``_line_fit``.
The tests check slope and peak bit for bit against plain mpc object
arithmetic averaged over both signs of eps and an exact rational
regression of its logs, on the 27 names, the 84 rounded rows, random
two-half trains and random trains off that structure.

The polish solves the solver's half-train conditions (see ``solver``):
its residual (``_mp_residual``) reads every u-coefficient of t but the
top one from the half composed from its pulses' rotors, with the cos/sin
of phi/4 taken once per polish; at 50 digits it agrees with a 90-digit
interpolation of the half to ~1e-50.  It holds the leading phases of
its input that are exactly 0, a count it reads from the phases, and
moves the rest.  Its float stage (``_float_newton`` on
``sequences.half_jets``) runs on Python scalars, where numpy's per-call
overhead would dominate systems of at most a few rows, on the Newton
schedule of ``sequences`` (stated beside ``_STEP_LENGTHS``), which
``solver._newton_batch`` runs too, at ``_FLOAT_TOL``.  The J+ of the
converged point serves every 50-digit step: both residuals read the
same u-coefficients.  ``_pseudo_inverse``
certifies J+ to be the pseudo-inverse at ``sequences._RCOND``.  A square
system, as many free phases as the ceil(n/2) residual entries (the held
count is ``sequences.pinned_zero_count(n)``, as in every table row),
takes J^-1 by a pivoted solve with ||J||_F ||J^-1||_F < 1/_RCOND
(``_certified_inverse``); its root is isolated, so the scalar arithmetic
moves the 50-digit phases only within the polish's own accuracy.  An
underdetermined one (the named trains of order >= 4) takes
J^T (J J^T)^-1, the Gram matrix certified at _RCOND^2; there the float
root's last bits choose the point on the root manifold.  A failed
certificate raises SolverError, and ``cli`` then measures the input as
it is.  No polish loads numpy, ``solver`` or ``jets``; only ``verify``,
a polish of a half that is not stored and the t of an exact catalog
entry load this module: the packaged named trains read their polishes
from data (see ``catalog``).  The 50-digit stage (``_fixed_newton``)
runs in fixed point end to end: the float stage's J+, W (rows of
doubles), is converted once to integers at 2^PREC (``sequences._fixed``),
and it starts from the rotors of the phases after the held zeros; for
``polish_fixed`` those of the float root at 2^PREC, one
``_cos_sin_fixed`` each per polish.  With the residual r the integer
sin(phi/4) Re a_h + cos(phi/4) Im a_h at 2^-2PREC, a step moves phase k
by -(sum_j W_kj r_j) >> 2 PREC and turns its rotor by e^{i step}, the
cos and sin summed by the trig's Taylor series at PREC
(``_small_cos_sin``; steps are ~1e-9 and below, so three or four
terms): a few units of
2^-PREC from a fresh cos/sin of the phase after three turns.  The stop
test at 10^-_POLISH_DIGITS = 1e-45 is an integer comparison, and holds
the full-train derivative conditions of every polished table row and
named train below 1e-40 at 90 digits.  The stage returns each phase's
summed steps, ``polish_fixed`` adds them to the float root at 2^PREC and
returns the phases as those integers, and ``polish_result`` rounds them to
``Phase``s at ``WP`` bits, once, for a polish and for a stored record
alike.  Leading phases of exactly 0 are alike in every train, so their
polynomials are read once per count (``_mp_zero_prefix``), bitwise as
pulse by pulse.

The polish's last residual evaluation composes the half at the returned
phases, from the turned rotors (at most 8 units of 2^-PREC from fresh
ones), and ``polish_structured`` returns the t of that a_h, with the
gate's cos and sin it already holds, and the phases, ~1e-48 from the t
of those rounded to ``WP`` bits.  That moves a log by ~1e-30 relative
against ``slope_fit`` of the returned train, far below the spacing of
doubles; the tests check the two bit for bit on the 27 names and every
rounded table row.

50-digit phases are computed only where a command prints or stores them
(``build --pulses 10/12/14``, a catalog train, ``tests/make_polished.py``:
``polish_fixed``).  ``verify`` fits t alone (the catalog's for a name or
file, with ``half_slope_fit``), so an inline spec's half is polished by
``polish_t``: the same float stage, then the same 50-digit Newton
started from unit rotors, (sin x, -cos x) of each free phase's double x
scaled onto the circle by one ``math.isqrt`` (``_unit_rotors``), tracking
no phase.  The stage is mixed-precision iterative refinement (Higham,
"Accuracy and Stability of Numerical Algorithms", ch. 12): the float J+
drives steps on the 50-digit residual, so its start needs to be a point
of the circle, not the exact trig of the float root, and the gate's
cos/sin of phi/4 is the one ``_cos_sin_fixed`` of a verify.  A square
half's root is isolated, and an underdetermined half's t has its top
coefficient fixed ((-1)^(n+1) sin(phi/4)) and the rest below
10^-_POLISH_DIGITS, so t agrees with ``polish_fixed``'s within the stop
(~1e-46 relative to the top coefficient on the rows and names' specs),
and the fit reads the same doubles; the tests check both.
"""

from __future__ import annotations

import cmath
import json
import math
import time
from operator import mul
from fractions import Fraction
from functools import lru_cache

# The format and the build arithmetic live where building a named train
# runs them (see ``su2``); they are named here as well, with the kernels
# that compute in them.
from .sequences import (
    _RCOND, _STEP_LENGTHS, _fixed, _half_t, _leading_zeros, _mp_jet_pulse,
    _mp_jet_rotors, _mp_zero_prefix, half_jets, structured_train,
)
from .su2 import (
    _PI, _ZERO, PREC, WP, CompositeSequence, Phase, SolverError,
    _add, _data, _debug, _exact, _raw, _round, polish_result,
)

WORKING_DPS = 50
# The slope window: _SLOPE_POINTS log-spaced errors from _SLOPE_EPS_LO to
# _SLOPE_EPS_HI.
_SLOPE_EPS_LO = 1e-3
_SLOPE_EPS_HI = 1e-2
_SLOPE_POINTS = 20
# The fit's logs (``_ln``): ln of each square at 2^-_LOG_Q, summed at
# 2^-_LOG_W, _LOG_GUARD bits finer, from a table of 2^_LOG_TABLE_BITS
# steps and an atanh series.
_LOG_Q = 120
_LOG_GUARD = 30
_LOG_W = _LOG_Q + _LOG_GUARD
_LOG_TABLE_BITS = 7
# Residual max-norm of the float stage of ``polish_structured``, 40 times
# the largest double-precision residual of a polished catalog train or
# table row (2.4e-13, at n = 8), and the max-norm 10^-_POLISH_DIGITS that
# ends its extended-precision stage.
_FLOAT_TOL = 1e-11
_POLISH_DIGITS = WORKING_DPS - 5
# |r| 2^-2PREC < 10^-_POLISH_DIGITS, for an integer r, is |r| < _LIMIT.
_LIMIT = -(-(1 << 2 * PREC) // 10**_POLISH_DIGITS)
# The trig (``_cos_sin_fixed``) keeps _TRIG_GUARD bits beyond PREC
# significant ones, from a table of cos and sin at the multiples of
# 2^-_TRIG_STEP, kept at 2^_TRIG_TOP.
_TRIG_GUARD = 40
_TRIG_STEP = 8
_TRIG_TOP = PREC + _TRIG_GUARD + _TRIG_STEP


def _cos_sin_fixed(x):
    """cos and sin of the raw tuple ``x`` as fixed-point integers at
    2^PREC, in the form ``to_fixed(mpf_cos_sin(x, PREC), PREC)`` gives
    them (``_truncated``)."""
    sign, man, exp, bc = x
    if not man:
        return 1 << PREC, 0
    mag = bc + exp
    # |x| = n pi/2 + r, |r| <= pi/4, at 2^bits: pi/2 is within two units,
    # so r is within 2n + 1 < 2^(max(mag, 0) + 2) units, below one unit of
    # 2^-w after the shift below.  ``lead`` bounds the leading zeros of r,
    # so that r keeps _TRIG_GUARD bits beyond PREC significant ones; the
    # first guess holds for every r of 2^-_TRIG_STEP or more, and a deeper
    # cancellation takes the reduction again.
    lead = max(0, -mag) + _TRIG_STEP
    while True:
        bits = PREC + _TRIG_GUARD + lead + max(mag, 0) + 2
        shift = exp + bits
        t = man << shift if shift >= 0 else man >> -shift
        half_pi = _pi_fixed(bits - 1)
        n, r = divmod(t + (half_pi >> 1), half_pi)
        r -= half_pi >> 1
        zeros = bits - r.bit_length()
        if zeros <= lead:
            break
        lead = zeros + _TRIG_STEP
    # |r| at 2^w, w so that r keeps PREC + _TRIG_GUARD significant bits;
    # |r| = j 2^-_TRIG_STEP + d, and e^{i|r|} = e^{i j 2^-_TRIG_STEP} e^{id}.
    w = PREC + _TRIG_GUARD + zeros
    neg = r < 0
    r = abs(r) >> (bits - w)
    j = r >> (w - _TRIG_STEP)
    c, s = _small_cos_sin(r - (j << (w - _TRIG_STEP)), w)
    if j:
        # j > 0 leaves r at least 2^-_TRIG_STEP: w <= _TRIG_TOP.
        jc, js = (v >> (_TRIG_TOP - w) for v in _trig_step(j))
        c, s = (c * jc - s * js) >> w, (s * jc + c * js) >> w
    if neg:
        s = -s
    c, s = ((c, s), (-s, c), (-c, -s), (s, -c))[n & 3]
    return _truncated(c, w), _truncated(-s if sign else s, w)


@lru_cache(maxsize=None)
def _trig_step(j):
    """cos and sin of j 2^-_TRIG_STEP, 0 < j <= pi/4 2^_TRIG_STEP, at
    2^_TRIG_TOP, from ``_small_cos_sin``: one table entry of
    ``_cos_sin_fixed``, computed on first use."""
    return _small_cos_sin(j << (_TRIG_TOP - _TRIG_STEP), _TRIG_TOP)


def _truncated(v, w):
    """The fixed-point cos or sin ``v`` at 2^w as ``mpf_cos_sin`` and
    ``to_fixed`` return it at PREC: truncated toward zero at PREC
    significant bits, then floored at 2^-PREC.  The cos and sin of a
    nonzero angle are below 1 in magnitude, so ``v`` is held below 2^w."""
    m = min(abs(v), (1 << w) - 1)
    if v >= 0:
        return m >> (w - PREC)
    drop = m.bit_length() - PREC
    if drop > 0:
        m = m >> drop << drop
    return -m >> (w - PREC)


def _pi_fixed(bits):
    """pi at 2^bits, within two units."""
    words = -(-bits // 64)
    return _machin_pi(words) >> (64 * words - bits)


@lru_cache(maxsize=None)
def _machin_pi(words):
    """pi at 2^(64 words), within one unit, by Machin's formula
    pi = 16 atan(1/5) - 4 atan(1/239) on integers, 16 bits finer."""
    bits = 64 * words + 16

    def atan_inv(q):
        # atan(1/q) at 2^bits by its series, summed until a term is 0.
        total = term = (1 << bits) // q
        k = 1
        while term:
            term //= q * q
            k += 2
            total += -(term // k) if k % 4 == 3 else term // k
        return total

    return (16 * atan_inv(5) - 4 * atan_inv(239)) >> 16


def _angle_trig(phi, halvings):
    """cos and sin of ``phi`` / 2^halvings, ``phi`` rounded by ``_raw``, as
    fixed-point integers at 2^PREC."""
    sign, man, exp, bc = _raw(phi)
    return _cos_sin_fixed((sign, man, exp - halvings, bc) if man else _ZERO)


def _rotor(x):
    """-i e^{i x} = sin(x) - i cos(x) of the raw tuple ``x``, fixed point
    at 2^PREC."""
    c, s = _cos_sin_fixed(x)
    return s, -c


@lru_cache(maxsize=None)
def _slope_grid():
    """(points, logs) of ``slope_fit``, read from the packaged
    ``data/slope_grid.json``: at each of the ``_SLOPE_POINTS`` log-spaced
    epsilons of the window, (s, u, c), s and c the sin and cos of
    pi eps / 2 as stored and u = s^2, fixed-point integers at 2^PREC, and
    the double log of each epsilon."""
    data = json.loads(_data("slope_grid.json"))
    points = tuple((s, s * s >> PREC, c) for s, c in data["points"])
    return points, tuple(data["logs"])


def _horner(coeffs, x):
    """The polynomial with fixed-point coefficients ``coeffs`` (x^0 first)
    at the fixed-point ``x``, at 2^PREC."""
    acc = 0
    for coeff in reversed(coeffs):
        acc = (acc * x >> PREC) + coeff
    return acc


def slope_fit(seq: CompositeSequence) -> tuple[float, float]:
    """Least-squares slope of log-infidelity vs log-error.

    Returns (slope, max infidelity over the window): the Frobenius
    infidelity at the ``_SLOPE_POINTS`` log-spaced errors from
    ``_SLOPE_EPS_LO`` to ``_SLOPE_EPS_HI``, at ``WORKING_DPS`` digits, so
    the fit sees the true power law, not roundoff.  The infidelity of an
    even-length train is even in eps, so it is evaluated at +eps only;
    an odd-length train, off-diagonal at eps = 0, raises ValueError.
    The train's polynomial, the squared distance and the fit run on
    integers (see ``_line_fit``).
    """
    if len(seq) % 2:
        raise ValueError(f"slope_fit needs an even number of pulses, got {len(seq)}")
    ar, ai, br, bi = _mp_jet_compose(seq.phases)
    # (|a - fa|^2 + |b|^2) / 2 against the gate (fa, 0),
    # fa = e^{-i phi/2} = fc - i fs, with a = A(u) and
    # b = cos(pi eps/2) s B~(u) for an even count: the squared Frobenius
    # distance is each total times 2^shift.
    fc, fs = _angle_trig(seq.target_phi, 1)
    totals = []
    for s, u, c in _slope_grid()[0]:
        a_re, a_im = _horner(ar, u), _horner(ai, u)
        b_re, b_im = (c * (s * _horner(p, u) >> PREC) >> PREC for p in (br, bi))
        totals.append((a_re - fc) ** 2 + (a_im + fs) ** 2 + b_re**2 + b_im**2)
    return _line_fit(totals, -1 - 2 * PREC)


def half_slope_fit(t, pulses) -> tuple[float, float]:
    """``slope_fit`` of the two-half train of ``pulses`` pulses whose half
    has Im(e^{i phi/4} a_h) = s^p t(u), p the parity of pulses / 2: t's
    fixed-point u-coefficients at 2^PREC (u^0 first), as
    ``polish_structured`` returns them and ``catalog.half_polynomial``
    keeps them.  The squared distance is 2 u^p t(u)^2; the fit reads the
    polynomial as given, with no composition and no trig.

    Where t's top coefficient t_m (m >= 1) sets every value, each value
    v_k is t_m U_k (1 + rho_k) with U_k = s_k^p u_k^m and |rho_k| < 2^-30,
    and the slope takes the logs of the U_k, cached per (m, p)
    (``_grid_top``), and one short series per point for ln(1 + rho_k);
    any other t takes a log per point (``_line_fit``)."""
    odd = pulses // 2 % 2
    top, lower = t[-1], t[-2::-1]
    values = []
    for s, u, _ in _slope_grid()[0]:
        # Horner's rule (``_horner``) inline, from the top coefficient.
        value = top
        for coeff in lower:
            value = (value * u >> PREC) + coeff
        if odd:
            value = s * value >> PREC
        values.append(value)
    shift = 1 - 2 * PREC
    if lower and top:
        tops, weights, dot, den = _grid_top(len(t) - 1, odd)
        if top < 0:
            values = [-v for v in values]
            top = -top
        for value, u_top, w in zip(values, tops, weights):
            # 1 + rho = a / b, and ln(a / b) = 2 atanh(z), z = (a - b) / (a + b):
            # |z| < 2^-31, so z + z^3 / 3 leaves less than 2^-155.
            a, b = value << PREC, top * u_top
            diff = a - b
            if abs(diff) << 30 >= b:
                break
            z = (diff << _LOG_W) // (a + b)
            dot += w * (z + (z * (z * z >> _LOG_W) >> _LOG_W) // 3)
        else:
            return dot / den, _root(max(values) ** 2, shift)
    return _line_fit([v * v for v in values], shift)


@lru_cache(maxsize=None)
def _grid_top(m, p):
    """(tops, weights, dot, den) of ``half_slope_fit`` for a t of degree
    ``m`` >= 1 and the parity ``p``: U_k = s_k^p u_k^m at each grid point,
    fixed point at 2^PREC; four times the slope weights of all the points
    (``_slope_weights``); the slope's numerator 2 sum_k W_k ln U_k at
    2^-_LOG_W, to which each point adds 4 W_k atanh(z_k); and the
    denominator that turns it into the slope.  The weights sum to 0, so
    t_m, the factor 2 and 2^shift of each square drop out of the sum."""
    weights, den = _slope_weights(tuple(range(_SLOPE_POINTS)))
    tops = tuple(u**m * s**p >> PREC * (m + p - 1) for s, u, _ in _slope_grid()[0])
    dot = 2 * sum(w * _ln_wide(top, -PREC) for w, top in zip(weights, tops))
    return tops, tuple(4 * w for w in weights), dot, den << _LOG_GUARD


def t_polynomial(half, phi):
    """The fixed-point u-coefficients at 2^PREC of t, Im(e^{i phi/4} a_h)
    = s^{len(half) mod 2} t(u), a_h being the major-diagonal element of
    the train of pi pulses with phases ``half`` (see ``half_slope_fit``)."""
    ar, ai, _, _ = _mp_jet_compose(half)
    return _half_t(ar, ai, _angle_trig(phi, 2))


def _line_fit(totals, shift):
    """(slope, peak) from the squared distances ``totals`` times 2^shift
    on the slope grid, on integers: the exact least-squares slope of the
    logs (``_ln``, at 2^-_LOG_Q) and the peak, each rounded to a double
    once.  A zero square drops its point; fewer than two points leave the
    slope NaN."""
    # The infidelity is the distance itself: its log is half the log of
    # the square, and the peak is the root of the largest square.
    peak = _root(max(totals), shift)
    points = tuple(k for k, total in enumerate(totals) if total)
    if len(points) < 2:
        return math.nan, peak
    weights, den = _slope_weights(points)
    dot = sum(w * _ln(totals[k], shift) for w, k in zip(weights, points))
    return dot / den, peak


@lru_cache(maxsize=None)
def _slope_weights(points):
    """(weights, den) of the least-squares slope through the slope-grid
    ``points`` (indices): the slope of the half logs L_k 2^-(_LOG_Q + 1) on
    the double logs x_k of the errors is sum(weights_k L_k) / den, the
    exact weights (x_k - mean x) / sum((x_j - mean x)^2) over one common
    integer denominator."""
    logs = _slope_grid()[1]
    xs = [Fraction(logs[k]) for k in points]
    mean = sum(xs) / len(xs)
    ss = sum((x - mean) ** 2 for x in xs)
    exact = [(x - mean) / ss for x in xs]
    den = math.lcm(*(w.denominator for w in exact))
    weights = tuple(w.numerator * (den // w.denominator) for w in exact)
    return weights, den << (_LOG_Q + 1)


def _root(n, shift):
    """sqrt(n 2^shift), the integer ``n`` >= 0, rounded to the nearest
    double."""
    if not n:
        return 0.0
    if shift % 2:
        n, shift = n << 1, shift - 1
    # A root of at least 55 bits, so that r + 1/2 for an inexact root
    # rounds as the exact root in (r, r + 1) does: the half is a sticky bit.
    extra = max(0, 110 - n.bit_length()) // 2
    n <<= 2 * extra
    r = math.isqrt(n)
    return math.ldexp(float(2 * r + (r * r != n)), shift // 2 - extra - 1)


@lru_cache(maxsize=None)
def _log_table():
    """(ln 2, steps) of ``_ln`` at 2^-_LOG_W, built on first use: for
    each of the 2^_LOG_TABLE_BITS intervals [c_k, c_k + 2^-_LOG_TABLE_BITS)
    of [1, 2), c_k = 1 + k 2^-_LOG_TABLE_BITS, the pair (r_k, -ln r_k) of
    r_k = floor(2^_LOG_W / c_k) 2^-_LOG_W."""
    one = 1 << _LOG_W
    size = 1 << _LOG_TABLE_BITS
    steps = []
    for k in range(size):
        r = (size << _LOG_W) // (size + k)
        steps.append((r, _atanh_series(one - r, one + r)))
    return _atanh_series(1, 3), tuple(steps)


def _atanh_series(num, den):
    """2 atanh(num / den) = ln((den + num) / (den - num)) at 2^-_LOG_W, for
    0 <= num / den <= 1/3, summed until a term is 0; also for a ``num`` a
    few units below 0 (``_ln_wide``'s y - 1), whose square rounds to 0."""
    u = (num << _LOG_W) // den
    u2 = u * u >> _LOG_W
    total, term, k = 0, u, 1
    while term:
        total += term // k
        term = term * u2 >> _LOG_W
        k += 2
    return 2 * total


def _ln(n, shift):
    """ln(n 2^shift), the integer ``n`` > 0, at 2^-_LOG_Q, rounded to
    nearest: within one unit of 2^-_LOG_Q."""
    return (_ln_wide(n, shift) + (1 << (_LOG_GUARD - 1))) >> _LOG_GUARD


def _ln_wide(n, shift):
    """ln(n 2^shift), the integer ``n`` > 0, at 2^-_LOG_W: within a few
    units of 2^-_LOG_W plus |log2(n 2^shift)| times the error of ln 2."""
    # n = 2^bits x with x in [1, 2), taken at 2^-_LOG_W; x = c_k y with
    # y = x r_k in [1, 1 + 2^-_LOG_TABLE_BITS) (to two units), so ln y is
    # 2 atanh(u), u = (y - 1) / (y + 1) below 2^-(_LOG_TABLE_BITS + 1),
    # whose series drops 16 bits a term.
    ln2, steps = _log_table()
    bits = n.bit_length() - 1
    x = n << (_LOG_W - bits) if bits <= _LOG_W else n >> (bits - _LOG_W)
    r, log_c = steps[(x >> (_LOG_W - _LOG_TABLE_BITS)) - (1 << _LOG_TABLE_BITS)]
    y = x * r >> _LOG_W
    one = 1 << _LOG_W
    return (bits + shift) * ln2 + log_c + _atanh_series(y - one, y + one)


def polish_structured(rel_phases, phi):
    """Newton-polish structured relative phases to ``WORKING_DPS`` digits.

    The leading phases that are exactly 0 are held there, and the rest
    move.  ``phi`` is a Fraction in units of pi (an exact angle), a
    ``Phase``, an mpf or a float (see ``_raw``); the pseudo-inverse of the
    float Jacobian at the float root serves every 50-digit step, which is
    enough for fast linear convergence near the root.
    Returns (phases, t): the ``Phase``s at ``WP`` bits, with residual
    max-norm below 10^-_POLISH_DIGITS, and the u-coefficients of the
    half's t, Im(e^{i phi/4} a_h) = s^{(n+1) mod 2} t(u), at those phases,
    fixed point at 2^PREC, from the a_h of the last residual evaluation
    (see ``half_slope_fit``).
    It is ``polish_result`` of ``polish_fixed``.
    """
    return polish_result(*polish_fixed(rel_phases, phi))


def polish_fixed(rel_phases, phi):
    """The polish of ``polish_structured`` in its fixed-point format:
    (phases, t), the phases as the integers at 2^PREC the 50-digit stage
    ends on, the held zeros included, and t's coefficients at 2^PREC.
    The 50-digit stage starts from the rotors of the float root's phases
    at 2^PREC, one ``_cos_sin_fixed`` each, and sums its steps onto those
    phases.  Logs one DEBUG record under ``cpgate.precise`` (see
    ``_polish``).  Raises SolverError where either stage fails.
    """
    x_float, steps, t = _polish(rel_phases, phi, _trig_rotors)
    x = [_fixed(v) for v in x_float]
    for k, d in enumerate(steps, start=len(x) - len(steps)):
        x[k] += d
    return x, t


def polish_t(rel_phases, phi):
    """The t of ``polish_structured``'s half, with no 50-digit phases:
    (float root, t), the float stage's phases (the held zeros included)
    and t's coefficients at 2^PREC, for ``verify``, which fits t and
    prints no phase.  The 50-digit stage starts from unit rotors built
    from the float root's doubles (``_unit_rotors``), so the gate's cos
    and sin of phi/4 is its one ``_cos_sin_fixed``.  A square half's root
    is isolated, so t is ``polish_fixed``'s within the polish's stop; an
    underdetermined half's t keeps its top coefficient and the rest stay
    below 10^-_POLISH_DIGITS, on a root near that of ``polish_fixed``.
    Logs and raises as ``polish_fixed`` does.
    """
    x_float, _, t = _polish(rel_phases, phi, _unit_rotors)
    return x_float, t


def _polish(rel_phases, phi, start):
    """The two stages of a polish: the float Newton (``_float_newton``)
    from ``rel_phases``, then the 50-digit one (``_fixed_newton``) from
    the rotors ``start`` makes of the free phases of the float root.
    Returns (float root, summed integer steps of the free phases at
    2^PREC, t).  Logs one DEBUG record under ``cpgate.precise``: the
    free-phase count, the residual max-norm after the float stage, the
    number of 50-digit residual evaluations, the final residual max-norm
    and the seconds spent (``su2._debug``: where ``logging`` is loaded).
    Raises SolverError where either stage fails.
    """
    begin = time.perf_counter()
    # The angle rounded once, for both stages.
    phi = Phase(_raw(phi))
    x_float = [float(v) for v in rel_phases]
    pinned = _leading_zeros(x_float)
    x_float, float_rmax, ok, jac_inv = _float_newton(
        x_float, float(phi), _FLOAT_TOL, 60, pinned
    )
    if not ok:
        raise SolverError(
            f"float-precision polish failed; residual max-norm {float_rmax:.3e}"
        )
    gate = _angle_trig(phi, 2)
    rotors = start(x_float[pinned:])
    steps, evals, rmax, a_h = _fixed_newton(rotors, pinned, jac_inv, gate)
    _debug(
        "cpgate.precise",
        "polish free=%d float_rmax=%.3g evals=%d rmax=%.3g seconds=%.6f",
        len(steps), float_rmax, evals, math.ldexp(rmax, -2 * PREC),
        time.perf_counter() - begin,
    )
    return x_float, steps, _half_t(*a_h, gate)


def _trig_rotors(phases):
    """The rotors of the doubles ``phases`` taken at 2^PREC: one
    ``_cos_sin_fixed`` each, the start of ``polish_fixed``."""
    return [_rotor(_exact(_fixed(v), -PREC)) for v in phases]


def _unit_rotors(phases):
    """Rotors -i e^{i x'} at 2^PREC, x' within a few ulps of each double
    x of ``phases``: (sin x, -cos x) from the doubles, scaled onto the
    unit circle by one ``math.isqrt``, within a unit of 2^-PREC of it.
    The start of ``polish_t``: Newton needs a point on the circle, not
    the exact trig of x."""
    rotors = []
    for x in phases:
        real, imag = _fixed(math.sin(x)), -_fixed(math.cos(x))
        norm = math.isqrt(real * real + imag * imag)
        rotors.append(((real << PREC) // norm, (imag << PREC) // norm))
    return rotors


def _certified_inverse(jac, rcond=_RCOND):
    """Inverse of the square matrix ``jac`` (a list of rows) by Gauss-Jordan
    elimination with partial pivoting, or None on a zero pivot or when
    ||J||_F ||J^-1||_F >= 1/``rcond``.  That bound certifies
    sigma_min > rcond sigma_max, so the pseudo-inverse at ``rcond`` drops
    no singular value and is this inverse."""
    size = len(jac)
    rows = [[*row, *[0.0] * size] for row in jac]
    for i, row in enumerate(rows):
        row[size + i] = 1.0
    for col in range(size):
        # The first row of the largest |entry|, as max() would pick it: a
        # NaN neither wins nor loses a comparison.
        pivot, best = col, abs(rows[col][col])
        for i in range(col + 1, size):
            if abs(rows[i][col]) > best:
                pivot, best = i, abs(rows[i][col])
        rows[col], rows[pivot] = rows[pivot], rows[col]
        lead = rows[col][col]
        if lead == 0:
            return None
        row = rows[col] = [v / lead for v in rows[col]]
        for i, other in enumerate(rows):
            factor = other[col]
            if i != col and factor:
                rows[i] = [v - factor * w for v, w in zip(other, row)]
    inv = [row[size:] for row in rows]
    bound = math.sqrt(sum(v * v for row in jac for v in row)) * math.sqrt(
        sum(v * v for row in inv for v in row)
    )
    # A NaN bound fails the test too.
    return inv if bound < 1.0 / rcond else None


def _pseudo_inverse(jac):
    """The pseudo-inverse at ``_RCOND`` of the Jacobian ``jac`` (a list of
    rows), or None where it is not certified to drop no singular value: a
    square J's ``_certified_inverse``, a wide one's J^T G^-1 with
    G = J J^T, a tall one's from its transpose.  G is certified at
    _RCOND^2, as cond(G) = cond(J)^2."""
    size = len(jac[0]) if jac else 0
    if len(jac) == size:
        return _certified_inverse(jac)
    if len(jac) > size:
        inv = _pseudo_inverse([list(col) for col in zip(*jac)])
        return None if inv is None else [list(col) for col in zip(*inv)]
    gram = [[sum(a * b for a, b in zip(p, q)) for q in jac] for p in jac]
    inv = _certified_inverse(gram, _RCOND**2)
    return None if inv is None else [
        [sum(a * b for a, b in zip(col, g)) for g in zip(*inv)] for col in zip(*jac)
    ]


def _float_newton(phases, phi: float, tol: float, max_iter: int, pinned: int):
    """Damped Newton on one half in Python scalars, the leading ``pinned``
    phases held, on the Newton schedule of ``sequences``: J+ is
    ``_pseudo_inverse``'s, and the halvings are tried one at a time, the
    first that improves taken.  It stops at a residual max-norm below
    ``tol``, after ``max_iter`` steps, where no length improves it or
    where no phase is free.

    Returns (phases, residual max-norm, converged, inverse) with the
    pseudo-inverse of the Jacobian in the free phases at the returned
    phases, as a list of rows.  Raises SolverError where a Jacobian it
    inverts fails the certificate.
    """
    x = [float(v) for v in phases]
    rot = cmath.exp(0.25j * phi)

    def evaluate(point, tangents):
        a, da = half_jets(point, pinned if tangents else None)
        r = [(rot * c).imag for c in a[:-1]]
        return r, [[(rot * d[m]).imag for d in da] for m in range(len(r))]

    def norm(r):
        return math.sqrt(sum(map(mul, r, r)))

    def moved(step, t):
        trial = list(x)
        for j, d in enumerate(step, start=pinned):
            trial[j] += t * d
        return trial

    r, jac = evaluate(x, True)
    for it in range(max_iter + 1):
        rmax = max(map(abs, r))
        inv = _pseudo_inverse(jac)
        if inv is None:
            raise SolverError(f"ill-conditioned Jacobian; residual max-norm {rmax:.3e}")
        # With no free phase there is no step to take.
        if rmax < tol or it == max_iter or not inv:
            return x, rmax, rmax < tol, inv
        step = [-sum(map(mul, row, r)) for row in inv]
        norm0 = norm(r)
        trial = moved(step, 1.0)
        r_trial, jac_trial = evaluate(trial, True)
        if norm(r_trial) < norm0:
            x, r, jac = trial, r_trial, jac_trial
            continue
        for t in _STEP_LENGTHS[1:]:
            trial = moved(step, t)
            if norm(evaluate(trial, False)[0]) < norm0:
                break
        else:
            # Every halving failed: the iteration stops where it is.
            return x, rmax, False, inv
        x = trial
        r, jac = evaluate(x, True)


def _small_cos_sin(d, prec=PREC):
    """cos and sin of the fixed-point angle ``d`` at 2^prec, |d| below 1,
    by their Taylor series, summed two terms at a time until a term
    rounds to 0: the one cos/sin series of this module."""
    d2 = d * d >> prec
    c = term_c = 1 << prec
    s = term_s = abs(d)
    k = 0
    while term_c or term_s:
        term_c = (term_c * d2 >> prec) // ((k + 1) * (k + 2))
        term_s = (term_s * d2 >> prec) // ((k + 2) * (k + 3))
        c, s = c - term_c, s - term_s
        term_c = (term_c * d2 >> prec) // ((k + 3) * (k + 4))
        term_s = (term_s * d2 >> prec) // ((k + 4) * (k + 5))
        c, s = c + term_c, s + term_s
        k += 4
    return c, (s if d >= 0 else -s)


def _turn(rotor, d):
    """``rotor`` times e^{i d} for the small fixed-point angle ``d``: the
    rotor -i e^{i phase} of the phase moved by d."""
    rot_r, rot_i = rotor
    c, s = _small_cos_sin(d)
    return (rot_r * c - rot_i * s) >> PREC, (rot_r * s + rot_i * c) >> PREC


def _fixed_newton(rotors, pinned, jac_inv, gate):
    """The 50-digit stage of a polish, in fixed point at 2^PREC from the
    ``rotors`` of the free phases, after ``pinned`` phases exactly 0 and
    held there: Newton steps with the inverse or pseudo-inverse
    ``jac_inv`` (rows of doubles) of the float Jacobian in the free
    phases, until the residual max-norm is below 10^-_POLISH_DIGITS.  The
    inverse becomes integers once, and a step is the integer product of
    the inverse and the residual; it turns the rotor of each moved phase
    by e^{i step}.  Returns (steps, residual evaluations, residual
    max-norm at 2^-2PREC, a_h): the sum of each free phase's steps at
    2^PREC, and the (ar, ai) of the half's A that the last residual
    evaluation composed.
    """
    inverse = [[_fixed(w) for w in row] for row in jac_inv]
    rotors = list(rotors)
    steps = [0] * len(rotors)
    # The held zeros never move: the cached zero prefix serves them.
    for evals in range(1, WORKING_DPS + 1):
        r, a_h = _mp_residual(pinned, rotors, gate)
        rmax = max(map(abs, r))
        if rmax < _LIMIT:
            return steps, evals, rmax, a_h
        for k, row in enumerate(inverse):
            # 2^PREC times 2^2PREC: the step at 2^PREC.
            d = -sum(map(mul, row, r)) >> 2 * PREC
            steps[k] += d
            rotors[k] = _turn(rotors[k], d)
    raise SolverError("extended-precision polish did not converge")


def _mp_residual(zeros, rotors, gate):
    """The solver's residual at 2^-2PREC, as integers: every u-coefficient
    but the top one of t, sin(phi/4) Re A + cos(phi/4) Im A, A being the
    u-polynomial of the major-diagonal element a_h of the half train of
    phases 0, ``zeros`` phases of 0 and the phases with fixed-point
    ``rotors`` at 2^PREC.  ``gate`` is the cos and sin of phi/4 at 2^PREC.
    Returns the residual and the half's (ar, ai) it was read from."""
    ar, ai, _, _ = _mp_jet_rotors(zeros + 1, rotors, with_b=False)
    c, s = gate
    return [s * r + c * i for r, i in zip(ar[:-1], ai[:-1])], (ar, ai)


def _mp_jet_compose(phases):
    """Polynomials (ar, ai, Br, Bi) of a train of nominal pi pulses, fixed
    point at 2^PREC: the real and imaginary u-coefficients of A and B~, the
    Cayley-Klein pair being (s^{N mod 2} A(u), sqrt(1 - s^2)
    s^{(N+1) mod 2} B~(u)) for N pulses, s = sin(pi eps/2), u = s^2.
    Leading phases that are exactly 0 come from ``_mp_zero_prefix``; the
    first pulse applied to the identity is the pulse itself, bit for bit.
    Each phase is rounded by ``_raw``."""
    zeros = _leading_zeros(phases)
    rotors = [_rotor(_raw(phase)) for phase in phases[zeros:]]
    return _mp_jet_rotors(zeros, rotors)
