"""The data types of composite pulse trains: an SU(2) pair, a train of pi
pulses and the phase gate it targets, and the exact phase of a 50-digit
train with the integer rounding that makes it; the two numerical-failure
errors; and the order read off a slope fit.  Every command loads this
module, and it loads neither numpy nor mpmath.

An SU(2) matrix is stored as its Cayley-Klein pair (a, b), the full matrix
being [[a, b], [-b*, a*]].  Every pulse is a nominal pi pulse: with a
systematic relative area error eps its area is pi(1+eps), and a coupling
phase p propagates the qubit with a = cos(pi(1+eps)/2),
b = -i e^{ip} sin(pi(1+eps)/2).  A 2pi, 3pi or 4pi block is a run of
equal-phase pi pulses, so a train is its gate and its phases; its order is
measured (``precise.slope_fit``, read by ``order_from_slope``), not
claimed.  A train's propagator and its two gate fidelities are
``analysis.compose``, ``frobenius_fidelity`` and ``trace_fidelity``.

A 50-digit phase is rounded to nearest at ``WP`` = 169 bits, the bits of
``precise.WORKING_DPS`` digits, on Python integers with no mpmath:
``_round`` rounds man 2^exp / den, ties to even, and returns mpmath's
normalized raw tuple (sign, man, exp, bc), bit for bit what mpmath's
correctly rounded ``from_man_exp``, ``mpf_div`` and ``mpf_add`` give.  pi
at ``WP`` bits is one constant (``_PI``).  A Fraction p/q of pi is pi p
rounded, then divided by q and rounded (``_raw``).  ``precise`` computes
at 2^-``PREC``, ``GUARD_BITS`` finer, and ``polish_result`` rounds its
integers back to ``Phase``s.  Building a named train runs only this
arithmetic (``sequences.structured_train``), so it loads no ``precise``.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction


class SolverError(RuntimeError):
    """A Newton iteration (``solver``, the polish in ``precise``) failed."""


class AnalysisError(RuntimeError):
    """A train has no order or range to report (``order_from_slope``,
    ``analysis.high_fidelity_range``)."""


@dataclass(frozen=True)
class Su2:
    """Cayley-Klein pair (a, b) of a special-unitary 2x2 matrix."""

    a: complex
    b: complex


class Phase:
    """A phase or gate angle of a 50-digit train, exactly: the value
    (-1)^sign man 2^exp of mpmath's normalized raw tuple (sign, man, exp,
    bc), ``man`` odd and of bc <= ``WP`` = 169 bits, or all zeros for 0,
    rounded to nearest at ``WP`` bits (``_raw``, ``polish_result``).

    ``float`` rounds it to nearest.  Two phases are equal when their
    tuples are, and a phase equals an int or a float of the same value
    (it hashes as that number does).  The tuple is its ``_mpf_``, so
    ``mpmath.mpf(p)`` under ``mpmath.workprec(WP)`` is the same
    number.  It is no float subclass: mpmath would read one as its double
    and drop the digits.
    """

    __slots__ = ("_mpf_",)

    def __init__(self, raw: tuple):
        self._mpf_ = raw

    def __float__(self) -> float:
        sign, man, exp, _ = self._mpf_
        try:
            value = math.ldexp(man, exp)
        except OverflowError:
            value = math.inf
        return -value if sign else value

    def __bool__(self) -> bool:
        return bool(self._mpf_[1])

    def __eq__(self, other):
        if isinstance(other, Phase):
            return self._mpf_ == other._mpf_
        if isinstance(other, (int, float)):
            return self._fraction() == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fraction())

    def _fraction(self) -> Fraction:
        sign, man, exp, _ = self._mpf_
        value = Fraction(man << exp) if exp >= 0 else Fraction(man, 1 << -exp)
        return -value if sign else value

    def __repr__(self) -> str:
        return f"Phase({self._mpf_!r})"


# The 50-digit format: phases at WP bits, and ``precise``'s fixed-point
# integers at 2^PREC, GUARD_BITS fractional bits beyond them.
WP = 169
GUARD_BITS = 16
PREC = WP + GUARD_BITS
# pi rounded to nearest at WP bits, mpf_pi(WP, round_nearest): man 2^exp.
_PI = (0, 587704679302172021937255065567143824442131843125525, -167, 169)
_ZERO = (0, 0, 0, 0)


def _exact(man, exp=0):
    """mpmath's normalized raw tuple (sign, man, exp, bc) of the integer
    ``man`` times 2^exp, exactly: an odd mantissa of bc bits, or all zeros
    for 0."""
    if not man:
        return _ZERO
    sign = int(man < 0)
    man = abs(man)
    zeros = (man & -man).bit_length() - 1
    man >>= zeros
    return sign, man, exp + zeros, man.bit_length()


def _round(man, exp=0, den=1):
    """``_exact`` of man 2^exp / den, integers ``man`` and ``den`` > 0,
    rounded to nearest at ``WP`` bits, ties to even: mpmath's
    ``from_man_exp(man, exp, WP, round_nearest)`` for ``den`` = 1, and its
    correctly rounded quotient otherwise."""
    sign, man = man < 0, abs(man)
    if den != 1:
        # At least WP + 1 bits of the quotient and, below them, one sticky
        # bit for a nonzero remainder: enough to round the quotient exactly.
        shift = WP + 1 + den.bit_length() - man.bit_length()
        if shift >= 0:
            quo, rem = divmod(man << shift, den)
        else:
            quo, rem = divmod(man, den << -shift)
        man, exp = quo << 1 | (rem != 0), exp - shift - 1
    extra = man.bit_length() - WP
    if extra > 0:
        half = 1 << (extra - 1)
        low = man & ((half << 1) - 1)
        man >>= extra
        exp += extra
        if low > half or (low == half and man & 1):
            man += 1
    return _exact(-man if sign else man, exp)


def _man_exp(raw):
    """(signed mantissa, exponent) of the raw tuple ``raw``."""
    sign, man, exp, _ = raw
    return (-man if sign else man), exp


def _add(x, y):
    """The sum of the raw tuples ``x`` and ``y``, rounded by ``_round``."""
    (xm, xe), (ym, ye) = _man_exp(x), _man_exp(y)
    exp = min(xe, ye)
    return _round((xm << (xe - exp)) + (ym << (ye - exp)), exp)


def _raw(x):
    """The raw tuple of ``x`` rounded to nearest at ``WP`` bits: a Fraction
    p/q in units of pi (pi p / q, each step rounded), a ``Phase``, an mpf,
    a float or an int (through a float).  Anything else raises TypeError:
    an mpmath constant such as ``mp.pi`` would lose its digits through a
    float.  An infinity or a nan raises ValueError."""
    if isinstance(x, Fraction):
        turn = _round(x.numerator * _PI[1], _PI[2])
        return _round(*_man_exp(turn), x.denominator)
    # An mpf exists only once mpmath is loaded, so this imports nothing.
    mpmath = sys.modules.get("mpmath")
    if isinstance(x, Phase) or (mpmath is not None and isinstance(x, mpmath.mpf)):
        raw = x._mpf_
        # An mpf is normalized; an infinity or a nan has a negative bc.
        if raw[3] < 0:
            raise ValueError(f"an angle must be finite, not {x!r}")
        return raw if raw[3] <= WP else _round(*_man_exp(raw))
    if isinstance(x, (float, int)):
        x = float(x)
        if not math.isfinite(x):
            raise ValueError(f"an angle must be finite, not {x!r}")
        num, den = x.as_integer_ratio()
        return _exact(num, 1 - den.bit_length())
    raise TypeError(
        f"an angle must be a Fraction of pi, a Phase, an mpf or a float, not {x!r}"
    )


def polish_result(phases, t):
    """``precise.polish_structured``'s (phases, t) from the integers of
    ``precise.polish_fixed``, as polished or as stored: the phases at
    2^PREC rounded to ``Phase``s at ``WP`` bits, and t's coefficients as a
    tuple."""
    return [Phase(_round(v, -PREC)) for v in phases], tuple(t)


@dataclass(frozen=True)
class CompositeSequence:
    """An ordered train of nominal pi pulses realizing a phase gate of
    angle ``target_phi``.

    ``phases`` holds the coupling phase of each pulse, unreduced; exact
    high-precision values (a ``Phase``, as the catalog's trains hold) are
    kept, and the fast numeric paths cast with ``float``.  Pulses are
    applied in list order (index 0 acts first on the state); the matrix
    product therefore runs in the opposite direction.  ``label`` is
    keyword-only.
    """

    phases: tuple
    target_phi: float
    label: str = field(default="", kw_only=True)

    def __len__(self) -> int:
        return len(self.phases)


def target_gate(phi: float) -> Su2:
    """Phase gate diag(e^{-i phi/2}, e^{i phi/2}) as an Su2 value."""
    return Su2(cmath.exp(-0.5j * float(phi)), 0j)


# Measurability floor for the slope window, set by the extended-precision
# evaluation (50 digits), not by double precision.
_MEASURABLE_INFIDELITY = 1e-40


def order_from_slope(slope: float, peak: float) -> int:
    """Compensation order from the infidelity power law: round(slope) - 1,
    read off a ``precise.slope_fit`` result, the (slope, peak infidelity)
    of the log-log fit on eps in [1e-3, 1e-2].

    Raises AnalysisError when the order is beyond the measurable range or
    below zero (the train misses the target gate even at zero error).
    """
    if not math.isfinite(slope) or peak < _MEASURABLE_INFIDELITY:
        raise AnalysisError("order exceeds measurable range")
    order = int(round(slope)) - 1
    if order < 0:
        raise AnalysisError(
            f"measured order {order}: the train misses the target gate at zero error"
        )
    return order
