"""Quantitative verification in doubles: a train's propagator and gate
fidelities, fidelity sweeps and high-fidelity error ranges.

``compose`` multiplies out a train over an array of errors, and
``frobenius_fidelity`` and ``trace_fidelity`` compare the result with the
target gate.  Against a phase gate both infidelities read the squared
Frobenius distance 1 - Re(a e^{i phi/2}) of the pair (a, b), the trace
infidelity as it is and the Frobenius infidelity as its root: the trace
infidelity of any train is the square of its Frobenius infidelity, and
the trace measure's range at threshold t is ``high_fidelity_range`` at
sqrt(t).  An order-n train has the Frobenius infidelity
sqrt(2) |sin^(n+1)(pi*eps/2)| |sin(phi/4)| (the profile law).

The range search reads one of two polynomials.  A train that is two
halves to round-off, its second half its first shifted by pi - phi/2
within 1e-12 rad (``sequences.first_half`` at that tolerance), has the
Frobenius infidelity sqrt(2) |s^p t(u)|, s = sin(pi eps/2), u = s^2 (see
``solver``): t is real, of degree (n + 1) // 2 in u for a half of n + 1
pulses, p the parity of that length, and t_k = Im(e^{i phi/4} A_k) with
A the half's major-diagonal polynomial from ``jets.half_jets``.  The
grid and the Newton iterates evaluate it by one real Horner in u per
point on Python floats, with no cancellation.  Every printed ``range``
line equalled the Laurent search's on the 27 names and the 168 table
rows (polished and 4-decimal) at seven thresholds 0.45..1e-8 and on
6730 range operations of the profile benchmark (seeds 1-3); eps0 moved
by at most 4.6e-12 relative at thresholds >= 1e-4.  A search took 30-60
against 69-141 us on the 4- to 18-pulse names.  A train off the
structure by more than round-off keeps the answer for the train as
given, not for the exact train on its first half.

Every other train (an odd length, phases too large to resolve the
round-off, a second half off by more than 1e-12 rad) is read, root or
not, through its exact propagator polynomial: the N+1 coefficients of
(a, b) in z = e^{i theta}, theta = pi(1+eps)/2, composed pulse by pulse
on Python complex scalars (``_propagator_polynomial``).  A pulse of
phase p, doubled, is (z + 1/z, -h (z - 1/z)), h = e^{ip}.  With index j
for exponent 2j - N, n the old length, and conj(b) on |z| = 1 being b's
coefficients reversed and conjugated,
    a'[j] = a[j-1] + a[j] + h (conj b[n-j] - conj b[n-1-j])
    b'[j] = b[j-1] + b[j] - h (conj a[n-j] - conj a[n-1-j]);
the scaling by 2^-N is exact.  The basis is e^{i theta}, not the s of
``jets``, because it is well conditioned: |a|^2 + |b|^2 = 1 on |z| = 1,
so the squared coefficients sum to 1, where the s-coefficients of 18
pulses reach 1.1e6 (those of T_18, for 18 pulses of one phase).  The
loop is O(N^2) Python operations: against ``compose`` at 2N+2 points and
an FFT it took 7 against 39 us at 2 pulses, 84 against 115 us at 18,
about even near 40, and 18.7 against 6.5 ms at 400
(BENCH_range_laurent.json).  No catalog train or workload has more than
18 pulses, so this path has no length switch.  Its grid is one matmul
with the grid's exp(i theta k) basis, built once per pulse count and
cached, and each Newton iterate evaluates the polynomial and its
derivative by Horner in w = e^{2 i theta} on Python scalars.

Both paths share the search: a 64-cell grid on [0, 0.9] finds the first
cell where the Frobenius infidelity reaches the threshold, and
safeguarded Newton refines the crossing there.  Each search logs one
DEBUG record under ``cpgate.analysis`` with the path it took
(``path=half`` or ``path=laurent``).

A sweep's CSV (``csv_bytes``, behind ``write_csv`` and the CLI's stdout)
holds the bytes of "%.17g" of every value, encoded a block of rows at a
time in numpy.  A value whose "%.17g" is in fixed notation, decimal
exponent X in [-4, 15], has the 17 digits N = round-half-even(|x|
10^(16-X)), found exactly with Dekker's error-free product; X comes from
a table of the smallest double at each exponent, and the digits from a
4-digit lookup table.  One gather per field lays them out.  Other values
(0, -0, tiny, huge, nan, inf) are formatted one by one.
"""

from __future__ import annotations

import cmath
import logging
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial

import numpy as np

from .jets import half_jets
from .sequences import first_half
from .su2 import AnalysisError, CompositeSequence, Su2, target_gate

_log = logging.getLogger("cpgate.analysis")


@dataclass(frozen=True)
class FidelityProfile:
    """Frobenius and trace fidelities sampled on an error grid."""

    epsilons: np.ndarray
    frobenius: np.ndarray
    trace: np.ndarray
    sequence_label: str = ""


@dataclass(frozen=True)
class ErrorRange:
    """Half-width eps0 of the error interval keeping infidelity below
    ``threshold``, with the pulse-area interval in units of pi."""

    epsilon0: float
    threshold: float
    lower: float
    upper: float
    flagged: bool = False


def compose(seq: CompositeSequence, epsilon) -> Su2:
    """Composite propagator of the whole train at error ``epsilon``, a
    float or an array; a float is the 0-d case.

    Equal to U_N ... U_2 U_1 where U_k is the k-th pulse propagator:
    later pulses multiply from the left.  The cos and sin of the common
    half area are evaluated once over the whole ``epsilon`` array, and one
    pass over the pulses composes it.
    """
    if not seq.phases:
        raise ValueError("empty sequence")
    eps = np.asarray(epsilon, dtype=float)
    half = 0.5 * math.pi * (1.0 + eps)
    c, s = np.cos(half), np.sin(half)
    # One row per pulse, broadcast against the error grid.
    column = (-1,) + (1,) * eps.ndim
    phases = np.reshape([float(p) for p in seq.phases], column)
    pb = -1j * np.exp(1j * phases) * s
    a, b = c, pb[0]
    for cb in pb[1:]:
        # The pulse (c, cb) times the train (a, b), inlined: no Su2 object
        # per pulse.
        a, b = c * a - cb * b.conjugate(), c * b + cb * a.conjugate()
    return Su2(a, b)


def frobenius_fidelity(u: Su2, f: Su2):
    """1 minus the normalized Frobenius distance between ``u`` and ``f``.

    The stringent gate measure: sensitive to both populations and phases.
    """
    dist2 = 0.5 * (np.abs(u.a - f.a) ** 2 + np.abs(u.b - f.b) ** 2)
    return 1.0 - np.sqrt(dist2)


def trace_fidelity(u: Su2, f: Su2):
    """Re (1/2) Tr[U F^dagger]; the lenient gate measure.

    For the Cayley-Klein parametrization the half-trace overlap reduces to
    Re(a fa*) + Re(b fb*), which is real by construction.
    """
    return (u.a * f.a.conjugate()).real + (u.b * f.b.conjugate()).real


def sweep(seq: CompositeSequence, eps_min: float, eps_max: float,
          steps: int) -> FidelityProfile:
    """Both gate fidelities of ``seq`` on a uniform error grid."""
    if steps < 2:
        raise ValueError("steps must be >= 2")
    if not (math.isfinite(eps_min) and math.isfinite(eps_max)):
        raise ValueError("eps_min and eps_max must be finite")
    if not eps_min < eps_max:
        raise ValueError("eps_min must be below eps_max")
    if not math.isfinite(eps_max - eps_min):
        raise ValueError("eps_max - eps_min must be finite")
    target = target_gate(seq.target_phi)
    eps = np.linspace(eps_min, eps_max, steps)
    u = compose(seq, eps)
    return FidelityProfile(
        eps, frobenius_fidelity(u, target), trace_fidelity(u, target), seq.label
    )


def csv_bytes(profile: FidelityProfile) -> bytes:
    """The sweep CSV: a header, then the bytes of
    f"{e:.17g},{f:.17g},{t:.17g}\n" for each grid point."""
    columns = (profile.epsilons, profile.frobenius, profile.trace)
    # Every column as doubles: the encoder's arithmetic is float64.
    table = np.column_stack(columns).astype(np.float64, copy=False)
    return b"".join([_CSV_HEADER] + [
        _encode_block(table[start:start + _CSV_BLOCK_ROWS])
        for start in range(0, len(table), _CSV_BLOCK_ROWS)
    ])


def write_csv(profile: FidelityProfile, path) -> None:
    """Write ``csv_bytes(profile)`` to the file ``path``."""
    data = csv_bytes(profile)
    with open(path, "wb") as fh:
        fh.write(data)


_CSV_HEADER = b"epsilon,frobenius_fidelity,trace_fidelity\n"
# Rows encoded per numpy pass.  It bounds the temporaries, about 0.5 kB
# a value, whatever the step count, and keeps them in cache: 512-row
# blocks encoded 801 and 4001 rows faster than 256 or 1024.
_CSV_BLOCK_ROWS = 512
# Decimal exponents X encoded in numpy.  "%.17g" is in fixed notation
# for X in [-4, 16]; X = 16 and every X outside is formatted on its own.
_FIXED_MIN, _FIXED_MAX = -4, 15
_FIELD = 24  # widest field: "-0.000", 17 digits, separator
_SPLIT = 134217729.0  # 2^27 + 1: Dekker's split of a double into halves
# Byte offsets in a value's 32-byte source row: "-0.0" (word 0), "00",
# the separator and the first digit (word 1), four groups of four digits
# (words 2-5), NUL (words 6-7).  The point at 2 also serves X >= 0.
_MINUS, _ZERO, _POINT, _LEAD, _SEP, _DIGIT0, _NUL = 0, 1, 2, 3, 6, 7, 24


@lru_cache(maxsize=None)
def _csv_tables():
    """The encoder's constant tables, built on first use.

    - ``lows``: for X = -4..16, the smallest double whose 17-digit
      rounding is at least 10^X; the decimal exponent of |x| is the
      number of them at or below |x|, less 5.
    - ``digits``: the four ASCII digits of 0..9999 as one uint32 each.
    - ``word1``: source word 1 for first digit d, index d (comma) or
      d + 10 (newline).
    - ``sig_len``: at [j, g], the count of N's leading digits through
      the last nonzero digit of group j of N when that group is g (1
      when g is 0).  The maximum over j is N's significant digits m.
    - ``gather``: row ((X + 4) 2 + negative) 17 + m - 1 lists the
      source bytes of a field with m significant digits, NUL-padded.
    - ``pow10``: 10^k and its Dekker halves, k = 0..20, rows 0-2.
    """
    lows = []
    for x in range(_FIXED_MIN, _FIXED_MAX + 2):
        bound = Fraction(10) ** x * (1 - Fraction(5, 10**17))
        low = float(bound)
        if Fraction(low) < bound:
            low = math.nextafter(low, math.inf)
        lows.append(low)
    g = np.arange(10000, dtype=np.int16)
    places = g[:, None] // np.array([1000, 100, 10, 1], np.int16) % 10
    digits = (places + ord("0")).astype(np.uint8).view(np.uint32).ravel()
    word1 = np.frombuffer(
        bytes(c for sep in b",\n" for d in b"0123456789" for c in b"00" + bytes((sep, d))),
        np.uint32,
    )
    last = (4 - np.argmax(places[:, ::-1] != 0, axis=1)).astype(np.uint8)
    sig_len = np.where(g != 0, last + np.arange(1, 17, 4, dtype=np.uint8)[:, None], 1)
    d = list(range(_DIGIT0, _DIGIT0 + 17))
    rows = []
    for x in range(_FIXED_MIN, _FIXED_MAX + 1):
        for negative in (False, True):
            for m in range(1, 18):
                row = [_MINUS] if negative else []
                if x < 0:
                    row += [_ZERO, _POINT] + [_LEAD] * (-x - 1) + d[:m]
                else:
                    row += d[: x + 1]
                    if m > x + 1:
                        row += [_POINT] + d[x + 1 : m]
                row.append(_SEP)
                rows.append(row + [_NUL] * (_FIELD - len(row)))
    pow10 = np.array([float(10**k) for k in range(17 - _FIXED_MIN)])
    big = pow10 * _SPLIT
    high = big - (big - pow10)
    tables = (np.array(lows), digits, word1, sig_len, np.array(rows, dtype=np.intp),
              np.stack((pow10, high, pow10 - high)))
    for table in tables:
        table.flags.writeable = False
    return tables


def _encode_block(table: np.ndarray) -> bytes:
    """The bytes of "%.17g" of every value of ``table`` (rows, cols), each
    followed by a comma, or by a newline at the end of a row.

    A value whose decimal exponent X is in [-4, 15] is encoded in numpy:
    its 17 digits are N = round-half-even(|x| 10^k), k = 16 - X <= 20,
    found exactly.  10^k is a double, and Dekker's product gives p + e =
    |x| 10^k with p = fl(|x| 10^k) >= 2^53 an even integer, so N is p
    plus e rounded half to even.  Each field is one gather of its 32-byte
    source row into a NUL-padded 24-byte row, which drops the sign, the
    "0.000" lead, trailing zeros and a bare point where they do not
    belong.  Any other value (0, -0, |x| < 1e-4, |x| >= 1e16, nan, inf)
    is formatted with "%.17g" on its own.
    """
    lows, digits, word1, sig_len, gather, pow10 = _csv_tables()
    cols = table.shape[1]
    vals = table.ravel()
    count = len(vals)
    newline = np.tile(np.arange(cols) == cols - 1, count // cols)
    a = np.abs(vals)
    x = np.searchsorted(lows, a, side="right") + (_FIXED_MIN - 1)
    slow = np.flatnonzero((x < _FIXED_MIN) | (x > _FIXED_MAX))
    # 1.0 stands in for these, so the arithmetic raises no warning; the
    # fallback below replaces their fields.
    a[slow] = 1.0
    x[slow] = 0
    b, bh, bl = pow10[:, 16 - x]
    p = a * b
    big = a * _SPLIT
    ah = big - (big - a)
    al = a - ah
    e = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    n = p.astype(np.int64) + np.rint(e).astype(np.int64)
    q = n // 10000
    g3 = n - q * 10000
    r = q // 10000
    g2 = q - r * 10000
    q = r // 10000
    g1 = r - q * 10000
    d0 = q // 10000
    g0 = q - d0 * 10000
    src = np.zeros((count, 8), np.uint32)
    src[:, 0] = np.frombuffer(b"-0.0", np.uint32)[0]
    src[:, 1] = word1[d0 + 10 * newline]
    src[:, 2] = digits[g0]
    src[:, 3] = digits[g1]
    src[:, 4] = digits[g2]
    src[:, 5] = digits[g3]
    m = np.maximum(np.maximum(sig_len[0, g0], sig_len[1, g1]),
                   np.maximum(sig_len[2, g2], sig_len[3, g3]))
    key = ((x - _FIXED_MIN) * 2 + (vals < 0)) * 17 + (m - 1)
    idx = gather.take(key, axis=0)
    idx += np.arange(0, 32 * count, 32)[:, None]
    fields = src.view(np.uint8).ravel().take(idx)
    parts = fields.view(f"S{_FIELD}").ravel().tolist()
    for i, v in zip(slow.tolist(), vals[slow].tolist()):
        parts[i] = b"%.17g%s" % (v, b"\n" if newline[i] else b",")
    return b"".join(parts)


_CELLS = 64
_EPS_MAX = 0.9
_MONOTONE_SLACK = 1e-12
# Cap on the Newton evaluations: bisection alone shrinks a first-grid
# cell (0.9/64 wide) to adjacent floats in fewer.
_NEWTON_STEPS = 64
# Relative step after which one more Newton step would be at rounding level.
_NEWTON_DONE = math.sqrt(np.finfo(float).eps)
# The first grid of the range search, _CELLS + 1 points on [0, _EPS_MAX]
# (np.linspace's), and s = sin(pi eps/2) and u = s^2 there, for the half
# polynomial.
_GRID_EPS = tuple(k * (_EPS_MAX / _CELLS) for k in range(_CELLS)) + (_EPS_MAX,)
_GRID_S = tuple(math.sin(0.5 * math.pi * e) for e in _GRID_EPS)
_GRID_U = tuple(s * s for s in _GRID_S)
# How far (rad, mod 2 pi) a train's second half may be from its first
# shifted by pi - phi/2 for the range to read the half polynomial: the
# rounding of doubles.  The catalog trains and every train the builders
# make deviate by at most 1.8e-15 rad; a train off by more keeps the
# Laurent path, which measures the train as given.
_ROUND_OFF = 1e-12
_SQRT2 = math.sqrt(2.0)


# Pulses between two rescalings of the doubled coefficients in
# ``_propagator_polynomial``: those of k pulses are at most 2^k, finite
# for k < 1024.
_RESCALE_PULSES = 512
_RESCALE = 2.0 ** -_RESCALE_PULSES


def _propagator_polynomial(seq: CompositeSequence) -> np.ndarray:
    """Coefficients, shape (2, N+1), of the train's exact pair (a, b).

    With z = e^{i theta}, theta = pi(1+eps)/2, a pi pulse of phase p is
    ((z + 1/z)/2, -e^{ip} (z - 1/z)/2), so the pair (a, b) of any N-pulse
    train is a Laurent polynomial in z with exponents k = -N, -N+2, ..., N:
    row 0 holds a's N+1 coefficients and row 1 b's, in increasing k.

    The pulses are composed one at a time on Python complex scalars, the
    e^{i theta} twin of ``precise._mp_jet_pulse``, by the doubled
    recurrence of the module docstring.  Each pulse has
    U(-eps) = -Z U(eps) Z, Z = diag(1, -1), and -eps is z -> -1/z, so a's
    coefficients are a palindrome and b's an antipalindrome (c_{-k} = c_k
    and -c_k).  Then conj a[n-j] = conj a[j-1] and conj b[n-j] =
    -conj b[j-1], and the loop composes only the first ceil((N+1)/2)
    coefficients of each row,
        a'[j] = a[j-1] + a[j] + h (conj b[j] - conj b[j-1])
        b'[j] = b[j-1] + b[j] + h (conj a[j] - conj a[j-1]),
    mirroring them once at the end.  The full recurrence's sums and
    negations keep the palindromes exact, so its results are equal.
    Doubling keeps the pulse's factor 1/2 out of the loop; the exact
    scaling by 2^-N is applied at the end, and by 2^-512 every
    _RESCALE_PULSES pulses on the way.
    """
    if not seq.phases:
        raise ValueError("empty sequence")
    phases = [float(p) for p in seq.phases]
    conj = complex.conjugate
    # The first halves of the doubled first pulse, a = [1, 1], b = [e, -e].
    a, b = [1 + 0j], [cmath.exp(1j * phases[0])]
    for count, p in enumerate(phases[1:], 2):
        if count % 2 == 0:
            # The old pair has an even length and the new half one more
            # coefficient: the mirror of the last.
            a.append(a[-1])
            b.append(-b[-1])
        h = cmath.exp(1j * p)
        # pa[j] = a[j-1], ca[j] = conj a[j-1], with zeros at j = 0.
        pa, pb = [0j, *a], [0j, *b]
        ca, cb = [0j, *map(conj, a)], [0j, *map(conj, b)]
        half = range(len(a))
        a, b = (
            [pa[j] + pa[j + 1] + h * (cb[j + 1] - cb[j]) for j in half],
            [pb[j] + pb[j + 1] + h * (ca[j + 1] - ca[j]) for j in half],
        )
        if count % _RESCALE_PULSES == 0:
            a = [x * _RESCALE for x in a]
            b = [x * _RESCALE for x in b]
    # The first (N+1) // 2 coefficients reversed, negated for b, are the rest.
    tail = (len(phases) + 1) // 2
    mirrored = (a + a[tail - 1::-1], b + [-x for x in b[tail - 1::-1]])
    return np.array(mirrored) * 2.0 ** -(len(phases) % _RESCALE_PULSES)


@lru_cache(maxsize=64)
def _grid_basis(n: int) -> np.ndarray:
    # The basis exp(i theta k) on the first grid, shape (_CELLS + 1, n + 1),
    # for the exponents of ``_propagator_polynomial`` of an n-pulse train.
    ik = 0.5j * math.pi * np.arange(-n, n + 1, 2)
    basis = np.exp(np.multiply.outer(1.0 + np.array(_GRID_EPS), ik))
    basis.flags.writeable = False
    return basis


def _propagator_at(coeffs, eps: float):
    """(a, b, da/deps, db/deps) of the train at one float ``eps``, from
    the coefficient rows of ``_propagator_polynomial`` as Python lists.

    A row is e^{-iN theta} p(w), p(w) = sum_j c_j w^j and w = e^{2 i theta},
    so its eps-derivative is (pi/2) i e^{-iN theta} (2 w p'(w) - N p(w)).
    Horner gives p and p' together in Python complex arithmetic, and the
    lead factor is applied once.
    """
    n = len(coeffs[0]) - 1
    theta = 0.5 * math.pi * (1.0 + eps)
    w = cmath.exp(2j * theta)
    lead = cmath.exp(-1j * n * theta)
    dlead = 0.5j * math.pi * lead
    out = []
    for row in coeffs:
        p = dp = 0j
        for c in reversed(row):
            dp = dp * w + p
            p = p * w + c
        out.append((lead * p, dlead * (2.0 * w * dp - n * p)))
    (a, da), (b, db) = out
    return a, b, da, db


def _half_polynomial(seq: CompositeSequence):
    """(t, p) of a train that is two halves to round-off, else None.

    The second half must be the first shifted by pi - phi/2 within
    _ROUND_OFF.  Then (``solver``) the Frobenius infidelity is exactly
    sqrt(2) |s^p t(u)|, s = sin(pi eps/2) and u = s^2, with t the real
    u-coefficients Im(e^{i phi/4} A_k) of the major-diagonal element
    a_h = s^p A(u) of the first half, p the parity of its length.  A is
    composed by ``jets.half_jets`` from the relative phases; a common
    phase of the half leaves a_h as it is.
    """
    half = first_half(seq, _ROUND_OFF)
    if half is None:
        return None
    lead = float(half[0])
    a = half_jets([float(p) - lead for p in half[1:]])[0]
    rot = cmath.exp(0.25j * float(seq.target_phi))
    return [(rot * c).imag for c in a], len(half) % 2


def _half_grid(t, p) -> list[float]:
    # sqrt(2) |s^p t(u)| on the first grid, one Horner in u per point.
    top, *rest = reversed(t)
    vals = []
    for s, u in zip(_GRID_S, _GRID_U):
        q = top
        for c in rest:
            q = q * u + c
        vals.append(_SQRT2 * abs(s * q if p else q))
    return vals


def _half_at(t, p, eps: float):
    """(infidelity, d infidelity/deps) of ``_half_polynomial``'s (t, p) at
    one float ``eps``: sqrt(2) |q| with q = s^p t(s^2), and its derivative
    sqrt(2) sign(q) (pi/2) cos(pi eps/2) dq/ds, where
    dq/ds = p s^(p-1) t(u) + 2 s^(p+1) t'(u).  Horner gives t and t'
    together.
    """
    angle = 0.5 * math.pi * eps
    s = math.sin(angle)
    u = s * s
    q = dq = 0.0
    for c in reversed(t):
        dq = dq * u + q
        q = q * u + c
    if p:
        q, dq = s * q, q + 2.0 * u * dq
    else:
        dq = 2.0 * s * dq
    if q == 0.0:
        return 0.0, 0.0
    slope = _SQRT2 * 0.5 * math.pi * math.cos(angle) * dq
    return _SQRT2 * abs(q), slope if q > 0.0 else -slope


def _laurent_at(rows, fa, eps: float):
    # (infidelity, d infidelity/deps) from the Laurent pair at one float
    # eps, the distance in the product form (|a - fa|^2 + |b|^2) / 2: no
    # cancellation.
    a, b, da, db = _propagator_at(rows, eps)
    diff = a - fa
    dist = math.sqrt(0.5 * (abs(diff) ** 2 + abs(b) ** 2))
    d = 0.0 if dist == 0.0 else 0.5 * (
        (diff.conjugate() * da).real + (b.conjugate() * db).real
    ) / dist
    return dist, d


def high_fidelity_range(seq: CompositeSequence, threshold: float = 1e-4) -> ErrorRange:
    """Error half-width keeping the Frobenius infidelity below ``threshold``:
    its crossing of ``threshold`` in the first cell of a grid on
    [0, _EPS_MAX] that reaches it.

    A train that is two halves to round-off, its second half its first
    shifted by pi - phi/2 within _ROUND_OFF = 1e-12 rad, reads the real
    polynomial t of its half (``_half_polynomial``): on the grid through
    ``_half_grid``, at the Newton iterates through ``_half_at``, on Python
    floats.  Any other train (an odd length, a phase too large for
    ``first_half`` to resolve the round-off, a second half off by more)
    reads its exact Laurent pair (``_propagator_polynomial``): on the
    grid through the cached basis of ``_grid_basis``, at the iterates
    through ``_propagator_at``.  A grid of _CELLS cells finds the first
    cell whose right end reaches the threshold; safeguarded Newton on
    (infidelity - threshold) refines the crossing in that cell, bisecting
    whenever a step would leave the bracket.  Flagged when the grid is
    not nondecreasing within _MONOTONE_SLACK.  Logs one DEBUG record
    under ``cpgate.analysis``, with the path taken (half or laurent).
    """
    if not 0.0 < threshold < 0.5:
        raise ValueError("threshold must be in (0, 0.5)")
    if not seq.phases:
        raise ValueError("empty sequence")
    half = _half_polynomial(seq)
    if half is not None:
        path = "half"
        vals = _half_grid(*half)
        at = partial(_half_at, *half)
    else:
        path = "laurent"
        target = target_gate(seq.target_phi)
        coeffs = _propagator_polynomial(seq)
        a, b = (_grid_basis(len(seq)) @ coeffs.T).T
        vals = (1.0 - frobenius_fidelity(Su2(a, b), target)).tolist()
        at = partial(_laurent_at, coeffs.tolist(), target.a)
    if vals[0] >= threshold:
        raise AnalysisError(f"infidelity {vals[0]:.3g} at eps = 0 is not below threshold")
    k = next((k for k, v in enumerate(vals) if v >= threshold), None)
    if k is None:
        raise AnalysisError(f"infidelity stays below threshold up to eps = {_EPS_MAX}")
    flagged = any(w - v < -_MONOTONE_SLACK for v, w in zip(vals, vals[1:]))
    lo, hi = _GRID_EPS[k - 1], _GRID_EPS[k]
    # The bracket keeps infidelity(lo) < threshold <= infidelity(hi); the
    # first iterate is the chord's crossing.
    x = lo + (hi - lo) * ((threshold - vals[k - 1]) / (vals[k] - vals[k - 1]))
    for evals in range(1, _NEWTON_STEPS + 1):
        dist, d = at(x)
        excess = dist - threshold
        if excess < 0.0:
            lo = x
        else:
            hi = x
        step = excess / d if d else math.inf
        if not lo <= x - step <= hi:
            x = 0.5 * (lo + hi)
            continue
        x -= step
        if abs(step) <= _NEWTON_DONE * x:
            # Newton converges quadratically: after this step the error is
            # of order step^2, below the rounding of the infidelity.
            break
    _log.debug(
        "range path=%s threshold=%.3g cell=%d evals=%d step=%.3g flagged=%s",
        path, threshold, k, evals, step, flagged,
    )
    return ErrorRange(x, threshold, 1.0 - x, 1.0 + x, flagged)
