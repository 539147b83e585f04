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

``sweep`` and the range search read a train one of two ways.  A train
that is two halves to round-off, its second half its first shifted by
pi - phi/2 within 1e-12 rad (``sequences.first_half`` at that
tolerance), has the Frobenius infidelity sqrt(2) |s^p t(u)|,
s = sin(pi eps/2), u = s^2 (see ``solver``): t is real, of degree
(n + 1) // 2 in u for a half of n + 1 pulses, p the parity of that
length, and t_k = Im(e^{i phi/4} A_k) with A the half's major-diagonal
polynomial (``path=half``).  For a half of at most 12 pulses the range
search composes A in doubles (``sequences.half_jets``) and evaluates t
per point on Python floats, with no numpy.  A sweep takes t composed
in fixed point, each t_k rounded once (``sequences._float_half_t``),
and evaluates t by one real Horner in u over its numpy grid, with the
trace infidelity 2 (s^p t(u))^2; it does so for a half of at most 9
pulses whose Horner terms |t_k| u^k |s|^p sum to at most 1 on the grid,
and composes any other train.  Neither cancels near fidelity 1.  A
train off the structure by more than round-off is measured as given,
below, not as the exact train on its first half.

Every other train (an odd length, a non-finite phase or angle, phases
too large to resolve the round-off, a second half off by more than
1e-12 rad; also the long halves above, and for a sweep the large ones)
is read as given (``path=train``): a sweep is ``compose`` over its
grid, with ``frobenius_fidelity`` and ``trace_fidelity``; the range
search composes the pair (a, b) pulse by pulse on Python complex numbers
at each grid point and each secant iterate (``_train_at``), and reads
the distance sqrt((|a - fa|^2 + |b|^2) / 2), which does not cancel at
small infidelity.  So no range search loads numpy.  numpy is imported
where it runs: in ``compose``, the fidelities, ``sweep`` and the CSV
encoder.

Both paths share the range search: a 64-cell grid on [0, 0.9] finds the
first cell where the Frobenius infidelity reaches the threshold, and a
safeguarded secant, on values alone, refines the crossing there; a
path reads its grid and its iterates through one evaluator.  Each
sweep and each search logs one DEBUG record under ``cpgate.analysis``
with the path it took (``path=half`` or ``path=train``).

A sweep's CSV (``csv_bytes``, behind ``write_csv`` and the CLI's stdout)
holds the bytes of "%.17g" of every value, encoded a block of 1024 rows
at a time in numpy, so a default sweep is one block.  A value whose
"%.17g" is in fixed notation, decimal exponent X in [-4, 15], is encoded
in numpy, and so is a zero of either sign (X = 0, N = 0): its 17 digits
are N = round-half-even(|x| 10^(16-X)), found exactly with Dekker's
error-free product; X comes from two lookups at the sign and exponent
bits, and the digits from a 4-digit lookup table.  Each value fills a
NUL-padded 24-byte row that starts with the separator before it, and
one ``bytes.translate`` deletes the padding.  Other values (tiny, huge,
nan, inf, a point inside the digits) are formatted one by one.
"""

from __future__ import annotations

import cmath
import math
import sys
from fractions import Fraction
from functools import lru_cache, partial

from .sequences import _float_half_t, first_half, half_jets
from .su2 import AnalysisError, CompositeSequence, Record, Su2, _debug, target_gate

# A float64 numpy array.  numpy is imported only where it runs, so at run
# time the annotations resolve it as object (``typing.get_type_hints``);
# a type checker reads the constant TYPE_CHECKING as true, and running
# the module imports no ``typing`` for it.
TYPE_CHECKING = False
if TYPE_CHECKING:
    from numpy import ndarray as FloatArray
else:
    FloatArray = object


class FidelityProfile(Record):
    """Frobenius and trace fidelities sampled on an error grid.

    From ``sweep`` they are 1 - d and 1 - d^2, d the normalized Frobenius
    distance from the target gate: sqrt(2) |s^p t(u)| of the half
    polynomial on the half path, else the distance of the pair that
    ``compose`` gives.
    """

    epsilons: FloatArray
    frobenius: FloatArray
    trace: FloatArray
    sequence_label: str = ""


class ErrorRange(Record):
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
    import numpy as np

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
    import numpy as np

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
    """Both gate fidelities of ``seq`` on a uniform error grid.

    A train that is two halves to round-off, with a half of at most
    _SWEEP_HALF pulses (``_sweep_polynomial``), reads its half
    polynomial where Horner's terms |t_k| u^k |s|^p sum to at most 1 at
    the grid's largest |s|: q = s^p t(u) by Horner over the grid, the
    Frobenius fidelity 1 - sqrt(2) |q| and the trace fidelity 1 - 2 q^2.
    Any other train is ``compose``d over the grid.  Logs one DEBUG record
    under ``cpgate.analysis`` with the path taken (half or train).
    """
    import numpy as np

    if steps < 2:
        raise ValueError("steps must be >= 2")
    if not (math.isfinite(eps_min) and math.isfinite(eps_max)):
        raise ValueError("eps_min and eps_max must be finite")
    if not eps_min < eps_max:
        raise ValueError("eps_min must be below eps_max")
    if not math.isfinite(eps_max - eps_min):
        raise ValueError("eps_max - eps_min must be finite")
    eps = np.linspace(eps_min, eps_max, steps)
    half = _sweep_polynomial(seq)
    if half is not None:
        t, p = half
        s = np.sin(0.5 * math.pi * eps)
        top = float(np.max(np.abs(s)))
        # Horner's terms |t_k| u^k |s|^p at the grid's largest |s|: within
        # 1, the bound of |s^p t(u)| itself, their rounding stays at that
        # of a fidelity next to 1; past it Horner cancels what compose
        # keeps.
        terms = top ** p * math.fsum(abs(c) * top ** (2 * k) for k, c in enumerate(t))
        if terms > 1.0:
            half = None
    if half is None:
        path = "train"
        target = target_gate(seq.target_phi)
        u = compose(seq, eps)
        frobenius, trace = frobenius_fidelity(u, target), trace_fidelity(u, target)
    else:
        path = "half"
        q = np.polyval(t[::-1], s * s)
        if p:
            q *= s
        frobenius, trace = 1.0 - _SQRT2 * np.abs(q), 1.0 - 2.0 * (q * q)
    _debug("cpgate.analysis", "sweep path=%s steps=%d", path, steps)
    return FidelityProfile(eps, frobenius, trace, seq.label)


def csv_bytes(profile: FidelityProfile) -> bytes:
    """The sweep CSV: a header, then the bytes of
    f"{e:.17g},{f:.17g},{t:.17g}\n" for each grid point."""
    import numpy as np

    columns = (profile.epsilons, profile.frobenius, profile.trace)
    # Every column as doubles: the encoder's arithmetic is float64.
    table = np.column_stack(columns).astype(np.float64, copy=False)
    # Each block's rows start with the newline that ends the line before.
    return b"".join([_CSV_HEADER] + [
        _encode_block(table[start:start + _CSV_BLOCK_ROWS])
        for start in range(0, len(table), _CSV_BLOCK_ROWS)
    ] + [b"\n"])


def write_csv(profile: FidelityProfile, path) -> None:
    """Write ``csv_bytes(profile)`` to the file ``path``."""
    data = csv_bytes(profile)
    with open(path, "wb") as fh:
        fh.write(data)


_CSV_HEADER = b"epsilon,frobenius_fidelity,trace_fidelity"
# Rows encoded per numpy pass.  It bounds the temporaries whatever the
# step count (a 1024-row block peaks at 0.36 MB under tracemalloc), and
# one block holds the default 801-step sweep.  csv_bytes of 801 rows took
# 249-337 us against 301-422 at 512 rows, 405-590 at 256 and the same at
# 2048; of 4001 rows 1.30-1.86 ms against 1.53-2.17 at 512 and 1.21-1.63
# at 2048 (two runs of 40 alternated rounds in one process).  Minor page
# faults per call in those loops: 2.5 at 801 rows (0.01 at 512), and
# 90-134 at 4001 rows for every size from 256 to 2048, where glibc trims
# the heap top that the table, block outputs and joined bytes leave free.
_CSV_BLOCK_ROWS = 1024
# Decimal exponents X encoded in numpy.  "%.17g" is in fixed notation
# for X in [-4, 16]; X = 16 and every X outside is formatted on its own.
_FIXED_MIN, _FIXED_MAX = -4, 15
# A value's state: 0 for a zero, 1 below 10^_FIXED_MIN, 2 + X - _FIXED_MIN
# for an exponent X in [_FIXED_MIN, _FIXED_MAX], and _STATES - 1 for the
# rest (X >= 16, nan, inf).  Its key is the state, plus _STATES if the
# sign bit is set.
_STATES = _FIXED_MAX - _FIXED_MIN + 4
_SPLIT = 134217729.0  # 2^27 + 1: Veltkamp's split of a double into halves
_ABS_BITS = (1 << 63) - 1
# The bits of 1e16: |x| is clamped to it, so nan, inf and huge values
# compute finite digits (formatted on their own anyway).
_CLAMP_BITS = 0x4341C37937E08000
# Clears a double's 27 low mantissa bits: its high half, of 26 bits.
_HIGH_BITS = -(1 << 27)
# 1.5 2^52 and its bits: e + 1.5 2^52 rounds e to an integer, half to
# even, in the low bits of its mantissa.
_ROUNDER, _ROUNDER_BITS = 6755399441055744.0, 0x4338000000000000
_NEWLINE = ord(",") ^ ord("\n")  # turns byte 0 of a lead word "," into "\n"
_MARK = 0x100  # byte 1 of a lead word, where a formatted field goes


@lru_cache(maxsize=None)
def _csv_tables():
    """The encoder's constant tables, built on first use.

    - ``binades``, ``thresholds``: at a double's sign and exponent bits,
      read as the signed ``bits >> 52``, the key of the binade's smallest
      value and the bits of the one threshold inside the binade (int64's
      largest if none): the smallest double whose 17-digit rounding is
      at least 10^X, X = -4..16.  The key is ``binades`` plus 1 at or
      past the threshold.
    - ``pow10``: by key, 10^(16 - X) and its Veltkamp halves in rows
      0-2; 1 for a state without X.
    - ``heads``: by key, a value's lead word, its first 8 bytes as one
      uint64: the comma before it in byte 0, its sign and "0.000" lead
      right-aligned in bytes 1-6, NUL elsewhere.  ``firsts``: digit d in
      byte 7, index d.
    - ``int_digits``, ``max_digits``: by key, the digits an integer
      shows (X + 1 for X >= 0, 1 for a zero, else 0), and the most
      significant digits the vector path encodes (X + 1 for X >= 0 and
      for a zero, 17 for X < 0, 0 for the states formatted on their own).
    - ``digits``: the four ASCII digits of 0..9999 as one uint32 each.
    - ``sig_len``: at [j, g], the count of N's leading digits through
      the last nonzero digit of group j of N when that group is g (1
      when g is 0).  The maximum over j is N's significant digits m.
    - ``keep``: at [j, k], the byte mask of digit word j (digits 2-17)
      that keeps the first k digits of N.
    """
    import numpy as np

    lows = []
    for x in range(_FIXED_MIN, _FIXED_MAX + 2):
        bound = Fraction(10) ** x * (1 - Fraction(5, 10**17))
        low = float(bound)
        if Fraction(low) < bound:
            low = math.nextafter(low, math.inf)
        lows.append(low)
    # Binade e2 holds the bits [e2 2^52, (e2 + 1) 2^52), and at most one
    # threshold; binade 0 holds 0 and the subnormals, 2047 nan and inf.
    low_bits = np.array(lows).view(np.int64)
    starts = np.arange(2048, dtype=np.int64) << 52
    binades = np.searchsorted(low_bits, starts, side="right") + 1
    binades[0], binades[2047] = 0, _STATES - 1
    thresholds = np.full(2048, np.iinfo(np.int64).max)
    for low in low_bits.tolist():
        # One at a binade's start (1.0) is counted in ``binades``.
        if low & ((1 << 52) - 1):
            thresholds[low >> 52] = low
    thresholds[0] = 1  # the smallest subnormal: nonzero, below 1e-4
    exps = [0, None] + list(range(_FIXED_MIN, _FIXED_MAX + 1)) + [None]
    leads = [b"-" * negative + (b"0." + b"0" * (-x - 1) if x is not None and x < 0 else b"")
             for negative in (0, 1) for x in exps]
    heads = np.frombuffer(b"".join(b"," + lead.rjust(6, b"\0") + b"\0" for lead in leads),
                          np.uint64)
    firsts = np.frombuffer(b"".join(b"\0" * 7 + bytes((d,)) for d in b"0123456789"), np.uint64)
    pow10 = np.array([1.0 if x is None else float(10 ** (16 - x)) for x in exps] * 2)
    big = pow10 * _SPLIT
    high = big - (big - pow10)
    int_digits = np.array([0 if x is None else max(x + 1, 0) for x in exps] * 2, np.uint8)
    max_digits = np.array([0 if x is None else x + 1 if x >= 0 else 17 for x in exps] * 2,
                          np.uint8)
    g = np.arange(10000, dtype=np.int16)
    places = g[:, None] // np.array([1000, 100, 10, 1], np.int16) % 10
    digits = (places + ord("0")).astype(np.uint8).view(np.uint32).ravel()
    last = (4 - np.argmax(places[:, ::-1] != 0, axis=1)).astype(np.uint8)
    sig_len = np.where(g != 0, last + np.arange(1, 17, 4, dtype=np.uint8)[:, None], 1)
    keep = np.frombuffer(
        b"".join((b"\xff" * (k - 1)).ljust(16, b"\0") for k in range(18)), np.uint32
    ).reshape(18, 4).T.copy()
    tables = (np.concatenate((binades, binades + _STATES)), np.tile(thresholds, 2),
              np.stack((pow10, high, pow10 - high)), heads, firsts, int_digits, max_digits,
              digits, sig_len, keep)
    for table in tables:
        table.flags.writeable = False
    return tables


def _encode_block(table: FloatArray) -> bytes:
    """The bytes of every row of ``table`` (rows, cols), each after a
    newline: "%.17g" of its values, joined by commas.

    A value of decimal exponent X in [-4, 15], X < 0 or an integer, is
    encoded in numpy, and so is a zero (X = 0, N = 0: "0" or "-0" by its
    sign bit).  Its key, from two lookups at its sign and exponent bits,
    gives X.  Its 17 digits are N = round-half-even(|x| 10^k), k = 16 - X
    <= 20, found exactly: 10^k is a double, and Dekker's product, with
    |x| split by masking its low 27 bits, gives p + e = |x| 10^k with
    p = fl(|x| 10^k) >= 2^53 an even integer, so N is p plus e rounded
    half to even.  Each value fills one 24-byte row of three uint64
    words: the separator before it ("," or "\\n") in byte 0, its sign and
    "0.000" lead right-aligned in bytes 1-6, its first digit in byte 7;
    then its other 16 digits, NUL past the m significant (X + 1 for an
    integer).  One ``bytes.translate`` drops the NULs.  Any other value
    (|x| < 1e-4, |x| >= 1e16, nan, inf, a point inside the digits) keeps
    its separator and a marker byte, which "%.17g" of it replaces.
    """
    import numpy as np

    (binades, thresholds, pow10, heads, firsts, int_digits, max_digits,
     digits, sig_len, keep) = _csv_tables()
    cols = table.shape[1]
    vals = table.ravel()
    key, n = _keys_and_digits(vals.view(np.int64), binades, thresholds, pow10)
    # N's four-digit groups 0-3 after its first digit, which n ends as.
    groups = np.empty((4, len(vals)), np.int64)
    for j in (3, 2, 1, 0):
        q = n // 10000
        np.multiply(q, -10000, out=groups[j])
        groups[j] += n
        n = q
    m = sig_len[0].take(groups[0])
    for j in (1, 2, 3):
        np.maximum(m, sig_len[j].take(groups[j]), out=m)
    shown = np.maximum(m, int_digits.take(key))
    slow = m > max_digits.take(key)
    rows = np.empty((len(vals), 3), np.uint64)
    np.bitwise_or(heads.take(key), firsts.take(n), out=rows[:, 0])
    rows[::cols, 0] ^= _NEWLINE
    np.bitwise_and(digits.take(groups), keep.take(shown, axis=1),
                   out=rows.view(np.uint32)[:, 2:].T)
    del groups  # the largest temporary, freed before the bytes are made
    if not slow.any():
        return rows.tobytes().translate(None, b"\0")
    rows[slow, 0] = rows[slow, 0] & 0xFF | _MARK
    rows[slow, 1:] = 0
    return _format_marked(rows.tobytes().translate(None, b"\0"), vals[slow].tolist())


def _format_marked(data: bytes, values) -> bytes:
    """``data`` with its k-th marker byte replaced by "%.17g" of
    ``values[k]``: the fields the vector path leaves out."""
    # The vector path writes digits, "-", ".", "," and "\n" alone, so
    # only the markers turn into conversions.
    return data.replace(b"\1", b"%.17g") % tuple(values)


def _keys_and_digits(bits, binades, thresholds, pow10):
    """The encoder key of each double of ``bits`` (its int64 view), and
    N = round-half-even(|x| 10^k), k = 16 - X, where the key gives X.

    |x| is clamped to 1e16, so nan, inf and huge values compute a finite
    N.  Dekker's product: |x| = ah + al, ah its high 26 bits, and
    10^k = bh + bl in Veltkamp's halves; every partial product is exact,
    and so is e in p + e = |x| 10^k.  The products and sums write in
    place, and every temporary is freed on return.
    """
    import numpy as np

    fields = bits >> 52  # sign and exponent, negative for a set sign bit
    key = binades.take(fields)
    a = bits & _ABS_BITS
    np.minimum(a, _CLAMP_BITS, out=a)
    key += a >= thresholds.take(fields)
    p, bh, bl = pow10.take(key, axis=1)
    al = a.view(np.float64)
    ah = (a & _HIGH_BITS).view(np.float64)
    np.multiply(al, p, out=p)
    np.subtract(al, ah, out=al)
    e = ah * bh
    e -= p
    np.multiply(ah, bl, out=ah)
    np.multiply(al, bh, out=bh)
    np.multiply(al, bl, out=bl)
    e += ah
    e += bh
    e += bl
    e += _ROUNDER
    n = p.astype(np.int64)
    n += e.view(np.int64)
    n -= _ROUNDER_BITS
    return key, n


_CELLS = 64
_EPS_MAX = 0.9
_MONOTONE_SLACK = 1e-12
# Cap on the secant evaluations: bisection alone shrinks a first-grid
# cell (0.9/64 wide) to adjacent floats in fewer.
_SECANT_STEPS = 64
# Relative step at which the secant stops: a few units in the last place.
_SECANT_DONE = 4.0 * sys.float_info.epsilon
# The first grid of the range search, _CELLS + 1 points on [0, _EPS_MAX]
# (np.linspace's), and s = sin(pi eps/2) and u = s^2 there, for the half
# polynomial.
_GRID_EPS = tuple(k * (_EPS_MAX / _CELLS) for k in range(_CELLS)) + (_EPS_MAX,)
_GRID_S = tuple(math.sin(0.5 * math.pi * e) for e in _GRID_EPS)
_GRID_U = tuple(s * s for s in _GRID_S)
# How far (rad, mod 2 pi) a train's second half may be from its first
# shifted by pi - phi/2 for a sweep or a range to read the half
# polynomial: the rounding of doubles.  The catalog trains and every
# train the builders make deviate by at most 1.8e-15 rad; a train off by
# more takes the train path, which measures the train as given.
_ROUND_OFF = 1e-12
_SQRT2 = math.sqrt(2.0)
# The longest half the range search reads through t: along held zeros t's
# coefficients grow like Chebyshev's and cancel in doubles.  Against the
# 60-digit crossing at thresholds 0.2 to 1e-8, eps0's half-path error was
# within 0.07 of the train path's error bound up to 12 pulses, 0.16 at 13,
# 0.93 at 15 and 7.4 at 18 (README, Range).  Catalog halves have at most 9.
_RANGE_HALF = 12


def _half_polynomial(seq: CompositeSequence):
    """(t, p) of a train that is two halves to round-off, else None; also
    None for a half longer than _RANGE_HALF.

    The second half must be the first shifted by pi - phi/2 within
    _ROUND_OFF.  Then (``solver``) the Frobenius infidelity is exactly
    sqrt(2) |s^p t(u)|, s = sin(pi eps/2) and u = s^2, with t the real
    u-coefficients Im(e^{i phi/4} A_k) of the major-diagonal element
    a_h = s^p A(u) of the first half, p the parity of its length.  A is
    composed by ``sequences.half_jets`` from the relative phases; a common
    phase of the half leaves a_h as it is.
    """
    half = first_half(seq, _ROUND_OFF)
    if half is None or len(half) > _RANGE_HALF:
        return None
    lead = float(half[0])
    a = half_jets([float(p) - lead for p in half[1:]])[0]
    rot = cmath.exp(0.25j * float(seq.target_phi))
    return [(rot * c).imag for c in a], len(half) % 2


# The longest half a sweep reads through t: the halves of the catalog
# trains, the table rows and the builders (at most 18 pulses).  Its
# composition takes O(n^2) steps on Python ints and reaches compose's
# cost on 801 points at 30- to 40-pulse halves, and a longer random half
# has Horner terms above 1 (1.6 to 1.7e4 at 30 to 120 pulses), where
# the sweep composes it anyway.
_SWEEP_HALF = 9


def _sweep_polynomial(seq: CompositeSequence):
    """(t, p) of ``_half_polynomial`` for a sweep, each t_k rounded once
    (``sequences._float_half_t``), or None for a train that is not two
    halves to round-off or whose half is longer than _SWEEP_HALF."""
    half = first_half(seq, _ROUND_OFF)
    if half is None or len(half) > _SWEEP_HALF:
        return None
    return _float_half_t([float(p) for p in half], float(seq.target_phi)), len(half) % 2


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


def _half_at(t, p, eps: float) -> float:
    """sqrt(2) |s^p t(u)| of ``_half_polynomial``'s (t, p) at one float
    ``eps``, s = sin(pi eps/2) and u = s^2: one Horner in u."""
    s = math.sin(0.5 * math.pi * eps)
    u = s * s
    q = 0.0
    for c in reversed(t):
        q = q * u + c
    return _SQRT2 * abs(s * q if p else q)


def _train_at(pulses, fa, eps: float) -> float:
    """The Frobenius infidelity of the train as given at one float ``eps``,
    from its pulse factors -i e^{ip} as Python complex numbers.

    A pulse is (c, -i e^{ip} s), c = cos(theta) and s = sin(theta) with
    theta = pi(1+eps)/2, composed from the left as in ``compose``.  The
    distance is the product form sqrt((|a - fa|^2 + |b|^2) / 2): no
    cancellation.
    """
    theta = 0.5 * math.pi * (1.0 + eps)
    c, s = math.cos(theta), math.sin(theta)
    first, *rest = pulses
    a, b = complex(c), first * s
    for h in rest:
        pb = h * s
        a, b = c * a - pb * b.conjugate(), c * b + pb * a.conjugate()
    return math.sqrt(0.5 * (abs(a - fa) ** 2 + abs(b) ** 2))


def high_fidelity_range(seq: CompositeSequence, threshold: float = 1e-4) -> ErrorRange:
    """Error half-width keeping the Frobenius infidelity below ``threshold``:
    its crossing of ``threshold`` in the first cell of a grid on
    [0, _EPS_MAX] that reaches it.

    A train that is two halves to round-off, its second half its first
    shifted by pi - phi/2 within _ROUND_OFF = 1e-12 rad, with a half of
    at most _RANGE_HALF pulses, reads the real polynomial t of its half
    (``_half_polynomial``): on the grid through ``_half_grid``, at the
    secant iterates through ``_half_at``.  Any other train (an odd length,
    a phase too large for ``first_half`` to resolve the round-off, a
    second half off by more, a longer half) is read as given, on the grid
    and at the iterates through ``_train_at``.  Both run on Python floats,
    with no numpy.  A grid of _CELLS cells finds the first
    cell whose right end reaches the threshold; a secant on
    f = infidelity - threshold refines the crossing in that cell, from
    the chord's crossing, taking the bracket's midpoint whenever a step
    would leave it, and stops at a step of at most _SECANT_DONE times the
    iterate: f = 0, or f repeating its last value at or above
    -threshold/2 (the rounding staircase at a crossing), proposes none.
    f repeating further below is the infidelity's floor, under the
    threshold's last place, and moves the iterate to the bracket's
    geometric midpoint sqrt(lo hi).  Both evaluators return the
    infidelity alone.  Flagged when the grid is
    not nondecreasing within _MONOTONE_SLACK.  Logs one DEBUG record
    under ``cpgate.analysis``, with the path taken (half or train), also
    when the search fails: then with the infidelity that failed it, at
    eps = 0 or the largest on the grid.  Raises ValueError for an empty
    train or a non-finite phase or angle.
    """
    if not 0.0 < threshold < 0.5:
        raise ValueError("threshold must be in (0, 0.5)")
    if not seq.phases:
        raise ValueError("empty sequence")
    # NaN compares false with the threshold on every grid point.
    if not all(map(math.isfinite, (seq.target_phi, *seq.phases))):
        raise ValueError("non-finite phase or angle")
    half = _half_polynomial(seq)
    if half is not None:
        path = "half"
        vals = _half_grid(*half)
        at = partial(_half_at, *half)
    else:
        path = "train"
        pulses = [-1j * cmath.exp(1j * float(p)) for p in seq.phases]
        at = partial(_train_at, pulses, target_gate(seq.target_phi).a)
        vals = list(map(at, _GRID_EPS))
    if vals[0] >= threshold:
        _debug("cpgate.analysis",
               "range path=%s threshold=%.3g failed: infidelity=%.3g at eps=0",
               path, threshold, vals[0])
        raise AnalysisError(f"infidelity {vals[0]:.3g} at eps = 0 is not below threshold")
    k = next((k for k, v in enumerate(vals) if v >= threshold), None)
    if k is None:
        _debug("cpgate.analysis", "range path=%s threshold=%.3g failed: max "
               "infidelity=%.3g up to eps=%g", path, threshold, max(vals), _EPS_MAX)
        raise AnalysisError(f"infidelity stays below threshold up to eps = {_EPS_MAX}")
    flagged = any(w - v < -_MONOTONE_SLACK for v, w in zip(vals, vals[1:]))
    lo, hi = _GRID_EPS[k - 1], _GRID_EPS[k]
    # f = infidelity - threshold.  The bracket keeps f(lo) < 0 <= f(hi);
    # the first iterate is the chord's crossing, each later one the secant
    # through the last two points (the cell's right end before the first),
    # or the bracket's midpoint where the secant leaves the bracket.
    x0, f0 = hi, vals[k] - threshold
    x = lo + (hi - lo) * ((threshold - vals[k - 1]) / (vals[k] - vals[k - 1]))
    for evals in range(1, _SECANT_STEPS + 1):
        f = at(x) - threshold
        if f < 0.0:
            lo = x
        else:
            hi = x
        if f != f0:
            # The ratio first: at a threshold of 1e-300, f (x - x0)
            # underflows to 0.
            step = f / (f - f0) * (x - x0)
        elif f >= -0.5 * threshold:
            # f repeats its last value near the crossing: it reads the
            # rounding staircase there, and a flat secant moves x no
            # further.
            step = 0.0
        else:
            # f repeats far below: the infidelity is at its floor, under
            # the threshold's last place, so halve the bracket in log eps
            # (lo = x > 0 here).
            step = x - math.sqrt(lo * hi)
        x0, f0 = x, f
        if not lo <= x - step <= hi:
            step = x - 0.5 * (lo + hi)
        x -= step
        if abs(step) <= _SECANT_DONE * x:
            break
    _debug(
        "cpgate.analysis", "range path=%s threshold=%.3g cell=%d evals=%d step=%.3g flagged=%s",
        path, threshold, k, evals, step, flagged,
    )
    return ErrorRange(x, threshold, 1.0 - x, 1.0 + x, flagged)
