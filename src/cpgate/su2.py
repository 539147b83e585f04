"""The data types of composite pulse trains: an SU(2) pair, a train of pi
pulses and the phase gate it targets, and the exact phase of a 50-digit
train with the integer rounding that makes it; the two numerical-failure
errors; the order read off a slope fit; the DEBUG records of the
numerical modules (``_debug``); the settings of a ``solve``
(``SolverConfig``); ``Record``, the immutable record that every
cpgate record class (``Su2``, ``CompositeSequence``,
``catalog.CatalogEntry``, ``analysis.ErrorRange``, ...) derives from;
and ``_data``, which reads a packaged data file for ``catalog`` (the
tables and the stored polishes) and ``precise`` (the slope grid).
Every command loads this module, and it loads neither numpy, mpmath
nor the standard dataclass module; no cpgate module loads mpmath, which
serves the tests as their oracle.

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
import os
import sys
from fractions import Fraction

_set = object.__setattr__


class SolverError(RuntimeError):
    """A Newton iteration (``solver``, the polish in ``precise``) failed."""


class AnalysisError(RuntimeError):
    """A train has no order or range to report (``order_from_slope``,
    ``analysis.high_fidelity_range``)."""


def _debug(logger: str, msg: str, *args) -> None:
    """``logging.getLogger(logger).debug(msg, *args)`` where ``logging`` is
    loaded, and nothing where it is not: no handler can hear a record
    that nobody imported ``logging`` to configure, so no command loads
    ``logging`` to drop its DEBUG records."""
    logging = sys.modules.get("logging")
    if logging is not None:
        logging.getLogger(logger).debug(msg, *args)


def _data(name: str) -> bytes:
    """The packaged file ``data/<name>``, read through this module's
    loader as ``pkgutil.get_data`` reads it, so that a zip install works
    too, with neither ``importlib.resources`` nor ``pkgutil`` loaded."""
    path = os.path.join(os.path.dirname(__file__), "data", name)
    return __spec__.loader.get_data(path)


class Record:
    """An immutable record whose fields are its class's annotations, in
    order, the way a frozen dataclass's are, at a fraction of the import:
    each subclass gets an ``__init__`` and an ``__eq__`` generated for its
    fields, with the class attribute of a field as its default, the
    fields named in the class keyword ``kw_only`` keyword-only, and a
    ``__post_init__`` the class defines called last.  Records are equal
    when their classes and field values are, they hash and print by
    their field values, and a field cannot be assigned or deleted
    (AttributeError).  ``replace(**changes)`` is a copy with the given
    fields changed.  The hash is computed once, on first use; a field
    that cannot be hashed (an array) leaves it raising.

    It declares no annotations itself, so that ``typing.get_type_hints``
    of a record reads its fields alone.
    """

    _hash = None

    def __init_subclass__(cls, kw_only=(), **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = fields = tuple(cls.__dict__.get("__annotations__", ()))
        # The generated code reads each default from its globals.
        namespace, params, keyword = {"_set": _set}, [], []
        for name in fields:
            param = name
            if name in cls.__dict__:
                namespace[f"_default_{name}"] = cls.__dict__[name]
                param = f"{name}=_default_{name}"
            (keyword if name in kw_only else params).append(param)
        if keyword:
            params += ["*", *keyword]
        lines = [f"def __init__(self, {', '.join(params)}):"]
        lines += [f" _set(self, {name!r}, {name})" for name in fields] or [" pass"]
        if hasattr(cls, "__post_init__"):
            lines.append(" self.__post_init__()")
        mine = "".join(f"self.{name}, " for name in fields)
        lines += [
            "def __eq__(self, other):",
            " if other.__class__ is self.__class__:",
            f"  return ({mine}) == ({mine.replace('self.', 'other.')})",
            " return NotImplemented",
        ]
        exec("\n".join(lines), namespace)
        for method in ("__init__", "__eq__"):
            namespace[method].__qualname__ = f"{cls.__qualname__}.{method}"
            setattr(cls, method, namespace[method])

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __hash__(self) -> int:
        value = self._hash
        if value is None:
            value = hash(self._values())
            _set(self, "_hash", value)
        return value

    def __getstate__(self) -> dict:
        # The fields alone: a str hashes differently in another process.
        return dict(zip(self._fields, self._values()))

    def __repr__(self) -> str:
        fields = self.__getstate__().items()
        shown = ", ".join(f"{name}={value!r}" for name, value in fields)
        return f"{self.__class__.__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def replace(self, **changes):
        """A copy of this record with the fields ``changes`` names
        changed, built (and checked) by the class's ``__init__``."""
        return self.__class__(**{**self.__getstate__(), **changes})


class SolverConfig(Record):
    """Settings of one ``solve``: the order n, the gate angle phi
    (radians), and the restart count and seed of ``solver.solve``'s
    multi-start Newton, which the CLI runs above order 4 only.  It lives
    here so that the CLI validates them without loading ``solver``."""

    n: int
    phi: float
    seeds: int = 32
    rng_seed: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("compensation order must be >= 1")
        if self.seeds < 1:
            raise ValueError("need at least one restart seed")


class Su2(Record):
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


class CompositeSequence(Record, kw_only=("label",)):
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
    label: str = ""

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
