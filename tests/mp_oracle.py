"""The tests' 50-digit propagator: the pi-pulse train multiplied out pulse
by pulse at each error, in fixed point at the working precision; the
two-half train built in mpf object arithmetic (``mp_structured_train``);
the fixed-point cos and sin in mpmath's form (``cos_sin_fixed``),
against which ``cpgate.precise``'s own are checked; and the errors of its
slope grid (``slope_epsilons``).

It composes no polynomial in s, so it shares no code with the kernel of
``cpgate.precise``, and the profile law, the half-train identity and the
float ``compose`` can be checked against it at 50 digits.  Every pulse is
a nominal pi pulse of area pi(1 + eps), pi rounded to nearest at the
working precision (the ``mp.pi`` of ``mp.mp.prec``).  A real x is the
integer floor(x * 2^P), P = ``mp.mp.prec + GUARD_BITS``; each shift
truncates by less than one unit of 2^-P, and the guard bits absorb that
over a few dozen pulses: at 50 digits the propagator agrees with a
90-digit evaluation to ~1e-51, the rounding of its own result.
"""

from __future__ import annotations

import mpmath as mp
import numpy as np
from mpmath.libmp import (
    fone,
    from_man_exp,
    mpf_add,
    mpf_cos_sin,
    mpf_mul,
    mpf_pi,
    mpf_pos,
    mpf_shift,
    round_down,
    round_nearest,
    to_fixed,
)

from cpgate.precise import _SLOPE_EPS_HI, _SLOPE_EPS_LO, _SLOPE_POINTS
from cpgate.su2 import WP, CompositeSequence

# Fractional bits beyond the working precision.
GUARD_BITS = 16
# Bits beyond the wanted ones at which ``cos_sin_fixed`` evaluates.
_TRIG_EXTRA = 128


def mp_structured_train(rel_phases, phi, nu=0.0):
    """The two-half train of the mpf relative phases ``rel_phases`` at the
    gate angle ``phi`` (an mpf, or an mpmath constant such as ``mp.pi``),
    in mpf object arithmetic at the working precision: the half nu,
    nu + p1, ..., then each of its phases plus ``mp.pi`` - phi/2."""
    phi = mp.mpf(phi)
    half = [nu] + [nu + p for p in rel_phases]
    shift = mp.pi - phi / 2
    phases = tuple(half + [p + shift for p in half])
    return CompositeSequence(phases, phi, label=f"struct(n={len(rel_phases)})")


def slope_epsilons():
    """The ``_SLOPE_POINTS`` log-spaced errors of ``precise``'s slope
    window as mpfs at ``WP`` bits."""
    with mp.workprec(WP):
        lo, hi = mp.log(mp.mpf(_SLOPE_EPS_LO)), mp.log(mp.mpf(_SLOPE_EPS_HI))
        return [
            mp.exp(lo + (hi - lo) * i / (_SLOPE_POINTS - 1))
            for i in range(_SLOPE_POINTS)
        ]


def cos_sin_fixed(x, prec):
    """The cos and sin of the raw tuple ``x`` truncated toward zero at
    ``prec`` significant bits, then floored at 2^-prec, as fixed-point
    integers at 2^prec: the form of ``to_fixed(mpf_cos_sin(x, prec),
    prec)``, but taken from mpmath's values at ``prec`` + 128 bits
    (``_TRIG_EXTRA``), so only an exact value within ~2^-128 units of a
    truncation boundary could land on the other side.  mpmath's own at
    ``prec`` works with 10 guard bits."""
    return tuple(
        to_fixed(mpf_pos(v, prec, round_down), prec)
        for v in mpf_cos_sin(x, prec + _TRIG_EXTRA, round_down)
    )


def _pi_trig(eps, wp):
    # cos and sin of pi (1 + eps) / 2 for the raw mpf eps, fixed point at
    # 2^(wp + GUARD_BITS), with pi rounded to nearest at wp bits.
    prec = wp + GUARD_BITS
    pi = mpf_pi(wp, round_nearest)
    half = mpf_shift(mpf_mul(pi, mpf_add(fone, eps, prec), prec), -1)
    return cos_sin_fixed(half, prec)


def _pulse_loop(rotors, c, s, prec):
    # Raw fixed-point (ar, ai, br, bi) of the train whose pulses have the
    # rotors -i e^{i phase} and the half-area cos c and sin s.
    ar, ai, br, bi = 1 << prec, 0, 0, 0
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


def _from_fixed(re, im, prec):
    wp = mp.mp.prec
    return mp.make_mpc((
        from_man_exp(re, -prec, wp, round_nearest),
        from_man_exp(im, -prec, wp, round_nearest),
    ))


def mp_propagator(phases, epsilon):
    """Cayley-Klein pair of the pi-pulse train with coupling phases
    ``phases`` at error ``epsilon``, at the working precision.

    ``epsilon`` may also be a sequence, the way ``su2.compose`` takes an
    array: the result is then a list of pairs, one per value.

    Flipping the sign of eps gives U(-eps) = -Z U(eps) Z^dagger for each
    pi pulse, with Z = diag(1, -1), so an N-pulse train has the pair
    (+-a, -+b) at -eps, the sign being that of (-1)^N.
    """
    single = np.ndim(epsilon) == 0
    wp = mp.mp.prec
    prec = wp + GUARD_BITS
    rotors = []
    for phase in phases:
        c, s = cos_sin_fixed(mp.mpf(phase)._mpf_, prec)
        rotors.append((s, -c))  # -i e^{i phase}
    out = []
    for eps in [epsilon] if single else epsilon:
        ar, ai, br, bi = _pulse_loop(rotors, *_pi_trig(mp.mpf(eps)._mpf_, wp), prec)
        out.append((_from_fixed(ar, ai, prec), _from_fixed(br, bi, prec)))
    return out[0] if single else out
