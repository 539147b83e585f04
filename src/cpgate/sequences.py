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

``structured_sequence`` builds that structure in doubles
(``precise.structured_train`` builds it at 50 digits); ``first_half``
recognizes it within a tolerance, in doubles, where a train enters as
input: a catalog record, or an inline train the CLI polishes.
"""

from __future__ import annotations

import math
from dataclasses import replace

from .su2 import CompositeSequence

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
    ``precise.structured_train``'s.
    """
    phi, nu = float(phi), float(nu)
    half = [nu] + [nu + float(p) for p in rel_phases]
    shift = PI - phi / 2
    phases = tuple(half + [p + shift for p in half])
    return CompositeSequence(phases, phi, label=f"struct(n={len(rel_phases)})")


def first_half(seq: CompositeSequence, tol: float = _HALF_TOL):
    """The first half of ``seq`` if its second half is the first shifted by
    pi - phi/2 within ``tol`` rad (modulo 2 pi), the way
    ``structured_sequence`` builds it, else None (an odd-length train
    included).  The default, ``_HALF_TOL`` = 1e-3, admits rounded input;
    ``analysis.high_fidelity_range`` asks for round-off alone.  The check
    runs in doubles.  A train with a phase too large for a double to
    resolve the shift to ``tol`` is never accepted: there p + shift
    rounds to within it of p whatever the shift.
    """
    half, odd = divmod(len(seq), 2)
    if odd:
        return None
    phases = [float(p) for p in seq.phases]
    if math.ldexp(max(map(abs, phases), default=0.0), -53) > tol:
        return None
    shift = PI - float(seq.target_phi) / 2
    for p, q in zip(phases, phases[half:]):
        if abs(math.remainder(q - (p + shift), 2 * PI)) > tol:
            return None
    return seq.phases[:half]


def two_pulse(phi: float, nu: float = 0.0) -> CompositeSequence:
    """pi_nu pi_{nu+pi-phi/2}: the bare (uncompensated) phase gate."""
    return replace(structured_sequence((), phi, nu), label="two")


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
