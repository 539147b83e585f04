"""Analytic constructors for the composite phase-gate pulse trains.

All trains are built from nominal pi pulses; 2pi/3pi/4pi blocks are runs
of identical-phase pi pulses, so a train of compensation order n always
has 2(n+1) entries.  Constructors keep exact phase expressions (negative
values are not wrapped); normalization to [0, 2pi) is a display concern.

Every train shares the asymmetric two-half structure: a half-sequence
R_{n+1}(nu) = pi_nu pi_{nu+p1} ... pi_{nu+pn} followed by the same half
with every phase shifted by pi - phi/2.  That structure cancels all
odd-order derivatives of the major-diagonal element and all even-order
derivatives of the minor-diagonal one.  It pins the zero-error propagator
to the target gate only for even n; for odd n the zero-error diagonal
element is exp(2i sum_k (-1)^(k+1) p_k) (p_0 = 0), which equals
exp(-i phi/2) only on some roots of the derivative conditions.

``structured_sequence`` builds that structure in doubles, and
``structured_train`` at 50 digits, in the integer rounding of ``su2``,
for the catalog's trains; ``first_half`` recognizes it within a
tolerance, in doubles, where a train enters as input: a catalog record,
or an inline train the CLI polishes or ``range`` reads.

``half_jets`` is the half's polynomial on Python scalars: the
u-coefficients of the major-diagonal element a_h of pi_0 pi_p1 ... pi_pn,
with exact tangents in the phases on request, by the recurrence of
``jets``.  It serves the square systems of ``precise``'s polish
(``solver._newton_square``), where numpy's per-call overhead would
dominate, and ``analysis``'s range search on a two-half train, so that
neither loads numpy.  ``_mp_jet_pulse`` is the same pulse on integers in
the fixed point of ``su2``: ``precise`` composes its 50-digit trains on
it, and ``_float_half_t`` a float half's t for ``analysis.sweep``.  The
three kernels share one integer zero prefix (``_zero_prefix``), one
conversion of doubles to the fixed point (``_fixed``) and one held-zero
count (``pinned_zero_count``).
"""

from __future__ import annotations

import math
from functools import lru_cache

from .su2 import _PI, _ZERO, PREC, CompositeSequence, Phase, _add, _raw

PI = math.pi
# Tolerance (radians, mod 2 pi) of ``first_half``: it admits the 4-decimal
# rounding of the tables and the mod-2 phases ``solve`` writes.
_HALF_TOL = 1e-3


def structured_sequence(rel_phases, phi, nu: float = 0.0) -> CompositeSequence:
    """Full 2(n+1)-pulse train from the relative phases p1..pn of one half
    (its leading phase is ``nu``), second half shifted by pi - phi/2.

    It works in doubles: ``phi``, ``nu`` and the phases are cast with
    ``float``, so a ``Phase`` or an mpf input gives a float train.  The
    50-digit train of an exact root, of ``Phase``s, is
    ``structured_train``'s.
    """
    phi, nu = float(phi), float(nu)
    half = [nu] + [nu + float(p) for p in rel_phases]
    shift = PI - phi / 2
    phases = tuple(half + [p + shift for p in half])
    return CompositeSequence(phases, phi, label=f"struct(n={len(rel_phases)})")


def structured_train(rel_phases, phi) -> CompositeSequence:
    """``structured_sequence`` at ``su2.WP`` bits: the half 0.0,
    ``rel_phases``, then each of its phases plus pi - ``phi``/2, every
    input rounded by ``su2._raw`` and every sum to nearest, the rest and
    the angle ``Phase``s."""
    phi = _raw(phi)
    sign, man, exp, bc = phi
    # -phi/2, exactly.
    shift = _add(_PI, (1 - sign, man, exp - 1, bc) if man else phi)
    half = [_ZERO] + [_raw(p) for p in rel_phases]
    phases = [0.0] + [Phase(p) for p in half[1:]]
    phases += [Phase(_add(p, shift)) for p in half]
    return CompositeSequence(
        tuple(phases), Phase(phi), label=f"struct(n={len(rel_phases)})"
    )


def _leading_zeros(phases):
    """Number of leading phases that are exactly 0."""
    count = 0
    while count < len(phases) and phases[count] == 0:
        count += 1
    return count


def first_half(seq: CompositeSequence, tol: float = _HALF_TOL):
    """The first half of ``seq`` if its second half is the first shifted by
    pi - phi/2 within ``tol`` rad (modulo 2 pi), the way
    ``structured_sequence`` builds it, else None (an odd-length train
    included).  The default, ``_HALF_TOL`` = 1e-3, admits rounded input;
    ``analysis.high_fidelity_range`` asks for round-off alone.  The check
    runs in doubles.  A train with a phase too large for a double to
    resolve the shift to ``tol`` is never accepted: there p + shift
    rounds to within it of p whatever the shift.  Nor is a train with a
    non-finite phase or angle, which NaN would otherwise pass: it compares
    false with ``tol``.
    """
    half, odd = divmod(len(seq), 2)
    if odd:
        return None
    phi = float(seq.target_phi)
    phases = [float(p) for p in seq.phases]
    if not all(map(math.isfinite, (phi, *phases))):
        return None
    if math.ldexp(max(map(abs, phases), default=0.0), -53) > tol:
        return None
    shift = PI - phi / 2
    for p, q in zip(phases, phases[half:]):
        if abs(math.remainder(q - (p + shift), 2 * PI)) > tol:
            return None
    return seq.phases[:half]


def two_pulse(phi: float) -> CompositeSequence:
    """pi_0 pi_{pi-phi/2}: the bare (uncompensated) phase gate."""
    return structured_sequence((), phi).replace(label="two")


_FOUR_VARIANTS = 4


def four_pulse(phi: float, variant: int = 1) -> CompositeSequence:
    """Four-pulse train with first-order error compensation.

    The four variants are distinct exact solutions of the first-order
    nullification conditions; all share the same fidelity profile.
    """
    if variant not in range(1, _FOUR_VARIANTS + 1):
        raise ValueError(f"four_pulse variant must be 1..4, got {variant}")
    s = PI - phi / 2
    variants = {
        1: [0.0, -phi / 4, s, PI - 3 * phi / 4],
        2: [0.0, PI - phi / 4, s, -3 * phi / 4],
        3: [phi / 4, 0.0, PI - phi / 4, s],
        4: [PI + phi / 4, 0.0, -phi / 4, s],
    }
    return CompositeSequence(tuple(variants[variant]), phi, label=f"four-v{variant}")


def chi_six(phi: float) -> float:
    """Phase offset for the six-pulse solutions: phi/4 + arcsin(sin(phi/4)/2)."""
    x = phi / 4
    return x + math.asin(0.5 * math.sin(x))


def chi_eight(phi: float) -> float:
    """Phase offset for the eight-pulse solutions: phi/8 + arcsin(sin(phi/8)/2)."""
    x = phi / 8
    return x + math.asin(0.5 * math.sin(x))


def six_pulse(phi: float, variant: int = 1) -> CompositeSequence:
    """Six-pulse train with second-order error compensation."""
    if variant not in (1, 2, 3, 4):
        raise ValueError(f"six_pulse variant must be 1..4, got {variant}")
    c = chi_six(phi)
    s = PI - phi / 2
    variants = {
        1: [c, 0.0, 0.0, c + s, s, s],
        2: [PI + phi / 2 - c, 0.0, 0.0, -c, s, s],
        3: [0.0, 0.0, s + c, s, s, -phi + c],
        4: [0.0, 0.0, -c, s, s, -c + s],
    }
    return CompositeSequence(tuple(variants[variant]), phi, label=f"six-v{variant}")


def eight_pulse(phi: float, variant: int = 1) -> CompositeSequence:
    """Eight-pulse train with third-order error compensation."""
    if variant not in range(1, 7):
        raise ValueError(f"eight_pulse variant must be 1..6, got {variant}")
    c = chi_eight(phi)
    s = PI - phi / 2
    variants = {
        1: [c, 0.0, 0.0, c + PI - phi / 4, c + s, s, s, c - 3 * phi / 4],
        2: [PI + phi / 4 - c, 0.0, 0.0, -c, -c - phi / 4, s, s, -c + s],
        3: [0.0, 0.0, c + PI - phi / 4, c + s, s, s, c - 3 * phi / 4, c - phi],
        4: [0.0, 0.0, -c, -c - phi / 4, s, s, -c + s, -c + PI - 3 * phi / 4],
        5: [c + phi / 4, c, 0.0, 0.0, c + PI - phi / 4, c + s, s, s],
        6: [PI + phi / 2 - c, PI + phi / 4 - c, 0.0, 0.0, -c, -c - phi / 4, s, s],
    }
    return CompositeSequence(tuple(variants[variant]), phi, label=f"eight-v{variant}")


def _held(pinned, n: int) -> int:
    # Phases held fixed: all n where no tangent is asked for.
    if pinned is None:
        return n
    if not 0 <= pinned <= n:
        raise ValueError(f"cannot hold {pinned} of {n} phases")
    return pinned


def pinned_zero_count(n: int) -> int:
    """Leading zeros of the solver's chart at order n: its manifold's dimension."""
    return n // 2


def _pulse(a, b, r, odd):
    # (A, B~) after one more pi pulse of rotor r = i e^{ip}, one coefficient
    # at a time, with the previous coefficients of A and B~ (0 below u^0)
    # for the products by u: the pulse of ``jets._pulse``, ``odd`` the
    # parity of the pulses already applied.
    na, nb, low_a, low_b = [], [], 0, 0
    for x, v in zip(a, b):
        na.append(r * (v - low_b).conjugate() - (low_a if odd else x))
        nb.append(-(v if odd else low_b) - r * x.conjugate())
        low_a, low_b = x, v
    return na, nb


@lru_cache(maxsize=64)
def _zero_prefix(length: int, pulses: int):
    # (A, B~ / i), ``length`` coefficients each, after ``pulses`` pi pulses
    # of phase exactly 0: alike in every half, so composed once, and read
    # by all three kernels.  With r = i, A stays real and B~ imaginary, so
    # ``_pulse`` with r = 1 composes them exactly, on Python ints.
    a, b = [1] + [0] * (length - 1), [0] * length
    for k in range(pulses):
        a, b = _pulse(a, b, 1, k % 2)
    return tuple(a), tuple(b)


@lru_cache(maxsize=64)
def _float_zero_prefix(length: int, pulses: int):
    # ``_zero_prefix`` as the doubles (A, B~) of ``half_jets`` and ``jets``;
    # from 2^1023 on (some 800 pulses) a coefficient is infinite, as the
    # float recurrence left it.
    a, b = (
        [float(x) if x.bit_length() < 1024 else math.inf * (1 if x > 0 else -1)
         for x in part]
        for part in _zero_prefix(length, pulses)
    )
    return tuple(map(complex, a)), tuple(complex(0, y) for y in b)


def half_jets(rel_phases, pinned=None):
    """``jets.structured_jets`` of one half on Python scalars.

    ``rel_phases`` holds the n relative phases p1..pn of the half
    pi_0 pi_p1 ... pi_pn.  Returns the (n + 1) // 2 + 1 u-coefficients of
    A (a list of complex) and, unless ``pinned`` is None, for each phase
    after the first ``pinned``, in order, the list of their exact
    derivatives in it.  Held leading phases that are exactly 0 come from
    the cached zero prefix.
    """
    n = len(rel_phases)
    held = _held(pinned, n)
    head = min(held, _leading_zeros(rel_phases))
    a, b = _float_zero_prefix((n + 1) // 2 + 1, head + 1)  # pi_0, held zeros
    # Tangents (dA, dB~) of the free phases already applied.
    tangents = []
    for j in range(head, n):
        p = rel_phases[j]
        r = complex(-math.sin(p), math.cos(p))
        if j >= held:
            # d/dp of the rotated terms, the only ones that hold p.
            ir = 1j * r
            da, db, low_b = [], [], 0j
            for x, v in zip(a, b):
                da.append(ir * (v - low_b).conjugate())
                db.append(-ir * x.conjugate())
                low_b = v
        # Phase j's pulse comes after j + 1 others.
        *tangents, (a, b) = [
            _pulse(ta, tb, r, (j + 1) % 2) for ta, tb in tangents + [(a, b)]
        ]
        if j >= held:
            tangents.append((da, db))
    return list(a), [ta for ta, _ in tangents]


# --- The same pulse in fixed point -----------------------------------------
# A real x is the integer floor(x * 2^PREC) (see ``su2``).  ``precise``
# feeds it rotors of phases rounded at WP bits, ``analysis.sweep`` the
# doubles' rotors of a float half (``_float_half_t``).


def _fixed(value):
    """The double ``value`` as a fixed-point integer at 2^PREC: exact when
    ``value`` is a multiple of 2^-PREC (every double of magnitude at least
    2^(52 - PREC)), else rounded down; finite doubles never raise."""
    num, den = float(value).as_integer_ratio()
    return (num << PREC) // den


def _mp_jet_pulse(poly, rotor):
    """Fixed-point u-polynomials (A, B~) of the pi pulse with rotor
    ``rotor`` applied after the train whose polynomials are ``poly``."""
    # A' = -u^odd A - rot (1 - u) conj(B~), B~' = -u^(1-odd) B~ + rot conj(A)
    # (see ``jets``), odd the parity of the k pulses so far: A holds
    # k // 2 + 1 coefficients and B~ (k + 1) // 2, as many exactly when k is
    # odd.  Each coefficient takes the one a power of u below (0 below u^0)
    # for the products by u; B~' has as many coefficients as A.
    ar, ai, br, bi = poly
    rot_r, rot_i = rotor
    odd = len(ar) == len(br)
    nar, nai, nbr, nbi = [], [], [], []
    low_ar = low_ai = low_br = low_bi = 0
    for xr, xi, vr, vi in zip((*ar, 0), (*ai, 0), (*br, 0), (*bi, 0)):
        # (1 - u) conj(B~).
        qr, qi = vr - low_br, low_bi - vi
        dar, dai, dbr, dbi = (low_ar, low_ai, vr, vi) if odd else (xr, xi, low_br, low_bi)
        nar.append(-dar - ((rot_r * qr - rot_i * qi) >> PREC))
        nai.append(-dai - ((rot_r * qi + rot_i * qr) >> PREC))
        nbr.append(-dbr + ((rot_r * xr + rot_i * xi) >> PREC))
        nbi.append(-dbi + ((rot_i * xr - rot_r * xi) >> PREC))
        low_ar, low_ai, low_br, low_bi = xr, xi, vr, vi
    return nar, nai, nbr[: len(ar)], nbi[: len(ar)]


@lru_cache(maxsize=64)
def _mp_zero_prefix(count: int):
    """The polynomials after ``count`` pi pulses of phase exactly 0:
    ``_zero_prefix`` at 2^PREC, B~ trimmed to (count + 1) // 2 terms."""
    a, b = _zero_prefix(count // 2 + 1, count)
    a, b = [x << PREC for x in a], [y << PREC for y in b[: (count + 1) // 2]]
    return tuple(a), (0,) * len(a), (0,) * len(b), tuple(b)


def _mp_jet_rotors(zeros, rotors):
    """Fixed-point u-polynomials of ``zeros`` pi pulses of phase exactly 0
    followed by the pulses with ``rotors``."""
    poly = _mp_zero_prefix(zeros)
    for rotor in rotors:
        poly = _mp_jet_pulse(poly, rotor)
    return poly


def _half_t(ar, ai, gate):
    """The coefficients of sin(phi/4) Re A + cos(phi/4) Im A at 2^PREC
    from those of A, ``gate`` being the cos and sin of phi/4."""
    c, s = gate
    return tuple((s * r + c * i) >> PREC for r, i in zip(ar, ai))


def _float_half_t(phases, phi):
    """The u-coefficients of t, Im(e^{i phi/4} a_h), of the pi pulses with
    the double ``phases``, as doubles: composed in fixed point from the
    doubles' cos and sin, each rounded once.  In doubles every product
    rounds, and the low t_k, near 0, keep up to 5e-15 of it (T16)."""
    zeros = _leading_zeros(phases)
    rotors = [(_fixed(math.sin(p)), -_fixed(math.cos(p))) for p in phases[zeros:]]
    ar, ai, _, _ = _mp_jet_rotors(zeros, rotors)
    quarter = 0.25 * phi
    t = _half_t(ar, ai, (_fixed(math.cos(quarter)), _fixed(math.sin(quarter))))
    return [math.ldexp(c, -PREC) for c in t]
