import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpgate import precise
from cpgate.sequences import (
    HalfSequenceSpec,
    appendix_b_sequence,
    chi_eight,
    chi_six,
    eight_pulse,
    four_pulse,
    six_pulse,
    structured_sequence,
    two_pulse,
)
from cpgate.su2 import CompositeSequence, compose, frobenius_fidelity, target_gate

from jet_oracle import jet_compose
from mp_oracle import mp_propagator

TWO_PI = 2 * math.pi
PHIS = [math.pi, math.pi / 2, math.pi / 4]


def _mod(x):
    return x % TWO_PI


def assert_structured(seq):
    n = seq.order
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
    spec = HalfSequenceSpec((0.3, 1.9, 0.1), math.pi / 2)
    seq = structured_sequence(spec, nu=0.25)
    assert seq.order == 3
    assert_structured(seq)
    assert float(seq.phases[0]) == pytest.approx(0.25)


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


def test_compact_ten_pulse_form():
    seq = appendix_b_sequence(math.pi, 10, [1.2, 0.4])
    assert seq.order == 4
    assert len(seq) == 10
    # leading 3 pi block: three equal-phase pi pulses
    phases = [float(p) for p in seq.phases]
    assert phases[0] == phases[1] == phases[2] == 0.0
    assert_structured(seq)


def test_compact_twelve_pulse_constraint():
    phi = math.pi / 2
    p3, p4 = 0.9, 2.2
    p5 = p4 - p3 - phi / 4
    seq = appendix_b_sequence(phi, 12, [p3, p4, p5])
    assert seq.order == 5
    with pytest.raises(ValueError, match="constraint"):
        appendix_b_sequence(phi, 12, [p3, p4, p5 + 1e-3])


def test_compact_fourteen_pulse_form():
    seq = appendix_b_sequence(math.pi, 14, [0.5, 1.5, 2.5])
    assert seq.order == 6
    phases = [float(p) for p in seq.phases]
    assert phases[0] == phases[1] == phases[2] == phases[3] == 0.0
    assert_structured(seq)


def test_compact_form_validation():
    with pytest.raises(ValueError, match="free phases"):
        appendix_b_sequence(math.pi, 10, [0.1])
    with pytest.raises(ValueError, match="10/12/14"):
        appendix_b_sequence(math.pi, 16, [0.1, 0.2, 0.3])


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


def test_structured_sequence_takes_an_mpmath_constant_angle_exactly():
    # mp.pi is an mpmath constant, not an mpf: it must still shift the
    # second half by mp.pi - phi/2 at the working precision.
    with mp.workdps(precise.WORKING_DPS):
        rel = (mp.mpf("0.3"), mp.mpf("1.9"))
        seq = structured_sequence(HalfSequenceSpec(rel, mp.pi))
        assert isinstance(seq.target_phi, mp.mpf) and seq.target_phi == +mp.pi
        shift = mp.pi - mp.pi / 2
        for k in range(3):
            assert seq.phases[3 + k] == seq.phases[k] + shift
        assert precise._half_length(seq.phases, seq.target_phi) == 3


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
    seq = structured_sequence(HalfSequenceSpec(tuple(rel), phi), nu)
    half = CompositeSequence(seq.phases[: len(rel) + 1], phi, 0)
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
        spec = HalfSequenceSpec(tuple(mp.mpf(p) for p in rel), mp.mpf(phi))
        seq = structured_sequence(spec, mp.mpf(nu))
        grid = [mp.mpf(e) for e in eps]
        full = mp_propagator(seq.phases, grid)
        half = mp_propagator(seq.phases[: len(rel) + 1], grid)
        for (a, _), (a_h, _) in zip(full, half):
            lhs = mp.re(a * mp.expj(seq.target_phi / 2))
            rhs = 1 - 2 * mp.im(a_h * mp.expj(seq.target_phi / 4)) ** 2
            assert abs(lhs - rhs) <= 1e-45
