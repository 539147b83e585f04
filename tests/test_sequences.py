import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpgate import precise
from cpgate.sequences import (
    chi_eight,
    chi_six,
    eight_pulse,
    first_half,
    four_pulse,
    six_pulse,
    structured_sequence,
    two_pulse,
)
from cpgate.analysis import compose, frobenius_fidelity
from cpgate.su2 import CompositeSequence, target_gate

from jet_oracle import jet_compose
from mp_oracle import mp_propagator, mp_structured_train

PI = math.pi
TWO_PI = 2 * math.pi
PHIS = [math.pi, math.pi / 2, math.pi / 4]


def _mod(x):
    return x % TWO_PI


def assert_structured(seq):
    n = len(seq) // 2 - 1
    assert len(seq) == 2 * (n + 1)
    phases = [float(p) for p in seq.phases]
    shift = math.pi - float(seq.target_phi) / 2
    for k in range(n + 1):
        assert _mod(phases[n + 1 + k] - phases[k] - shift) == pytest.approx(
            0.0, abs=1e-12
        ) or _mod(phases[n + 1 + k] - phases[k] - shift) == pytest.approx(
            TWO_PI, abs=1e-12
        )


def assert_compensation_order(seq, n):
    # Derivatives of the major-diagonal element (even orders) and the
    # minor-diagonal element (odd orders) vanish through order n; parity
    # kills the complementary ones identically.
    a, b = jet_compose(seq, n + 1)
    for m in range(1, n + 1):
        assert abs(a[m]) * math.factorial(m) < 1e-9
        assert abs(b[m]) * math.factorial(m) < 1e-9
    assert abs(a[0] - target_gate(seq.target_phi).a) < 1e-12
    assert abs(b[0]) < 1e-12


@pytest.mark.parametrize("phi", PHIS)
def test_two_pulse_is_bare_gate(phi):
    seq = two_pulse(phi)
    assert [float(p) for p in seq.phases] == pytest.approx([0.0, math.pi - phi / 2])
    assert_compensation_order(seq, 0)


@pytest.mark.parametrize("phi", PHIS)
@pytest.mark.parametrize("variant", [1, 2, 3, 4])
def test_four_pulse_variants_compensate_first_order(phi, variant):
    seq = four_pulse(phi, variant)
    assert len(seq) == 4
    assert_compensation_order(seq, 1)


@pytest.mark.parametrize("phi", PHIS)
@pytest.mark.parametrize("variant", [1, 2, 3, 4])
def test_six_pulse_variants_compensate_second_order(phi, variant):
    assert_compensation_order(six_pulse(phi, variant), 2)


@pytest.mark.parametrize("phi", PHIS)
@pytest.mark.parametrize("variant", [1, 2, 3, 4, 5, 6])
def test_eight_pulse_variants_compensate_third_order(phi, variant):
    assert_compensation_order(eight_pulse(phi, variant), 3)


@pytest.mark.parametrize(
    "builder,bad",
    [(four_pulse, 5), (six_pulse, 0), (eight_pulse, 7)],
)
def test_variant_validation(builder, bad):
    with pytest.raises(ValueError, match="variant"):
        builder(math.pi, bad)


def test_structured_sequence_shape_and_shift():
    seq = structured_sequence((0.3, 1.9, 0.1), math.pi / 2, nu=0.25)
    assert len(seq) // 2 - 1 == 3
    assert_structured(seq)
    assert float(seq.phases[0]) == pytest.approx(0.25)
    assert first_half(seq) == seq.phases[:4]
    # An odd-length train has no halves; an empty one is two empty halves.
    assert first_half(seq.replace(phases=seq.phases[:-1])) is None
    assert first_half(seq.replace(phases=())) == ()


@pytest.mark.parametrize(
    "seq",
    [
        # NaN compares false with the tolerance: these read as two halves.
        CompositeSequence((math.nan, 0.0, math.nan, PI - 0.5), 1.0),
        CompositeSequence((0.0, 0.0, 1.0, 1.0), math.nan),
        CompositeSequence((0.0, 1.0, math.inf, 1.0 + PI - 0.5), 1.0),
        CompositeSequence((0.0, 0.0, 1.0, 1.0), math.inf),
    ],
)
def test_first_half_of_a_non_finite_train_is_none(seq):
    assert first_half(seq) is None
    assert first_half(seq, 1e-12) is None


def _mp_first_half(seq, tol):
    # The check first_half ran in mpmath before it ran in doubles: the
    # shift taken once at the working precision (53 bits here), a train
    # with a phase too large for that precision to resolve the shift to
    # max(tol, 1e-45) never accepted.
    with mp.workprec(53):
        half, odd = divmod(len(seq), 2)
        if odd:
            return None
        largest = max((abs(float(p)) for p in seq.phases), default=0.0)
        if math.ldexp(largest, -mp.mp.prec) > max(tol, 1e-45):
            return None
        shift = mp.pi - mp.mpf(seq.target_phi) / 2
        first = seq.phases[:half]
        for p, q in zip(first, seq.phases[half:]):
            d = q - (p + shift)
            if d and abs(math.remainder(d, 2 * PI)) > tol:
                return None
        return first


_TOL = 1e-3
# Offsets of a second-half phase from the shifted first: whole turns, a
# few units in the last place either side of the tolerance, and the
# rounding of a phase to 4 and 17 digits in units of pi.
_OFFSETS = st.one_of(
    st.integers(-3, 3).map(lambda k: k * 2 * PI),
    st.tuples(st.integers(-4, 4), st.sampled_from([1, -1]),
              st.integers(-2, 2)).map(
        lambda t: t[1] * _ulps(_TOL, t[0]) + t[2] * 2 * PI
    ),
    st.floats(-1e-3, 1e-3),
)


def _ulps(x, k):
    for _ in range(abs(k)):
        x = math.nextafter(x, math.inf if k > 0 else 0.0)
    return x


def _rounded(p, digits):
    return float(f"{p / PI:.{digits - 1}e}") * PI


@given(
    half=st.lists(st.floats(-1e13, 1e13), min_size=0, max_size=9),
    phi=st.floats(-1e13, 1e13),
    offsets=st.lists(_OFFSETS, min_size=9, max_size=9),
    digits=st.sampled_from([None, 4, 17]),
    scale=st.sampled_from([1.0, 1e-12]),
)
@settings(max_examples=400, deadline=None)
def test_first_half_in_doubles_is_the_53_bit_mpmath_check(
    half, phi, offsets, digits, scale
):
    # Every phase and the angle up to 1e13, the second half the first
    # shifted and moved by an offset, each phase then rounded to 4 or 17
    # digits (in units of pi) or left as it is; small phases too.
    half = [p * scale for p in half]
    shift = PI - phi / 2
    second = [p + shift + d for p, d in zip(half, offsets)]
    phases = half + second
    if digits is not None:
        phases = [_rounded(p, digits) for p in phases]
    seq = CompositeSequence(tuple(phases), phi)
    assert first_half(seq) == _mp_first_half(seq, _TOL)


def test_chi_identities():
    # chi(x) = x + arcsin(sin(x)/2) evaluated at phi/4 resp. phi/8, so
    # the eight-pulse offset at phi equals the six-pulse offset at phi/2.
    for phi in np.linspace(0.1, TWO_PI - 0.1, 17):
        assert chi_eight(phi) == pytest.approx(chi_six(phi / 2), abs=1e-15)
    assert chi_six(math.pi) / math.pi == pytest.approx(0.36502672808130794, abs=1e-15)
    assert chi_six(math.pi / 2) / math.pi == pytest.approx(
        0.18628386432650410, abs=1e-15
    )
    assert chi_eight(math.pi / 4) / math.pi == pytest.approx(
        0.04685616389914464, abs=1e-15
    )


def test_four_pulse_special_case_of_known_phase_gate():
    # phi = pi, variant 1 gives phases (0, -pi/4, pi/2, pi/4) mod 2 pi.
    seq = four_pulse(math.pi, 1)
    got = [_mod(float(p)) / math.pi for p in seq.phases]
    assert got == pytest.approx([0.0, 1.75, 0.5, 0.25], abs=1e-15)


@pytest.mark.parametrize("phi", PHIS)
def test_gate_angle_orders_infidelity(phi):
    # At fixed train length, smaller gate angle means smaller infidelity
    # (the closed form carries a factor sin(phi/4)).
    eps = 0.12
    seqs = {p: four_pulse(p, 1) for p in PHIS}
    infids = {
        p: 1.0 - frobenius_fidelity(compose(s, eps), target_gate(p))
        for p, s in seqs.items()
    }
    assert infids[math.pi] >= infids[math.pi / 2] >= infids[math.pi / 4]


def test_structured_sequence_casts_mpf_input_to_a_float_train():
    # Doubles throughout: an mpf or mpmath-constant input gives the float
    # train of its doubles, never one half exact and the other shifted in
    # doubles.  The 50-digit train is precise.structured_train's.
    with mp.workdps(precise.WORKING_DPS):
        rel = (mp.mpf("0.3"), mp.mpf("1.9"))
        seq = structured_sequence(rel, mp.pi, mp.mpf("0.25"))
    assert all(type(p) is float for p in (*seq.phases, seq.target_phi))
    assert seq == structured_sequence((0.3, 1.9), math.pi, 0.25)


_TWO_HALF_TRAINS = st.integers(0, 8).flatmap(
    lambda n: st.tuples(
        st.lists(st.floats(0.0, TWO_PI), min_size=n, max_size=n),
        st.floats(0.05, TWO_PI),
        st.floats(0.0, TWO_PI),
        st.lists(st.floats(-0.95, 0.95), min_size=1, max_size=8),
    )
)


@given(_TWO_HALF_TRAINS)
@settings(max_examples=40, deadline=None)
def test_half_train_identity_on_the_float_path(train):
    # Re(a e^{i phi/2}) = 1 - 2 Im(a_h e^{i phi/4})^2 for every exact
    # two-half train, root or not: a = a_h^2 + e^{-i phi/2} |b_h|^2.
    rel, phi, nu, eps = train
    seq = structured_sequence(rel, phi, nu)
    half = CompositeSequence(seq.phases[: len(rel) + 1], phi)
    eps = np.array(eps)
    a = compose(seq, eps).a
    a_h = compose(half, eps).a
    lhs = (a * np.exp(0.5j * phi)).real
    rhs = 1.0 - 2.0 * (a_h * np.exp(0.25j * phi)).imag ** 2
    assert np.max(np.abs(lhs - rhs)) <= 1e-13


@given(_TWO_HALF_TRAINS)
@settings(max_examples=15, deadline=None)
def test_half_train_identity_at_50_digits(train):
    rel, phi, nu, eps = train
    with mp.workdps(precise.WORKING_DPS):
        seq = mp_structured_train([mp.mpf(p) for p in rel], phi, mp.mpf(nu))
        grid = [mp.mpf(e) for e in eps]
        full = mp_propagator(seq.phases, grid)
        half = mp_propagator(seq.phases[: len(rel) + 1], grid)
        for (a, _), (a_h, _) in zip(full, half):
            lhs = mp.re(a * mp.expj(seq.target_phi / 2))
            rhs = 1 - 2 * mp.im(a_h * mp.expj(seq.target_phi / 4)) ** 2
            assert abs(lhs - rhs) <= 1e-45
