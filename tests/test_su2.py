import cmath
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpgate import catalog, precise
from cpgate.sequences import four_pulse
from cpgate.su2 import (
    CompositeSequence,
    Pulse,
    Su2,
    compose,
    frobenius_fidelity,
    pulse_propagator,
    target_gate,
    trace_fidelity,
)

angles = st.floats(min_value=-10.0, max_value=10.0)
areas = st.floats(min_value=0.05, max_value=12.0)
errors = st.floats(min_value=-0.5, max_value=0.5)


def test_pulse_requires_positive_area():
    with pytest.raises(ValueError):
        Pulse(0.0, 1.0)
    with pytest.raises(ValueError):
        Pulse(-math.pi, 0.0)


def test_single_pulse_propagator_matches_oracle():
    # Independently computed: area pi/2, phase pi/3, epsilon 0.05.
    u = pulse_propagator(Pulse(math.pi / 2, math.pi / 3), 0.05)
    assert u.a == pytest.approx(0.67880074553294174, abs=1e-15)
    assert u.b.real == pytest.approx(0.63594194774204182, abs=1e-15)
    assert u.b.imag == pytest.approx(-0.36716125471784277, abs=1e-15)


@given(areas, angles, errors)
@settings(max_examples=50, deadline=None)
def test_pulse_propagator_is_special_unitary(area, phase, eps):
    u = pulse_propagator(Pulse(area, phase), eps)
    assert abs(u.unitarity_defect) < 1e-12
    m = u.matrix()
    assert np.allclose(m @ m.conj().T, np.eye(2), atol=1e-12)
    assert np.linalg.det(m) == pytest.approx(1.0, abs=1e-12)


@given(areas, angles, areas, angles)
@settings(max_examples=50, deadline=None)
def test_product_matches_matrix_product(a1, p1, a2, p2):
    u1 = pulse_propagator(Pulse(a1, p1), 0.0)
    u2 = pulse_propagator(Pulse(a2, p2), 0.0)
    prod = (u2 @ u1).matrix()
    assert np.allclose(prod, u2.matrix() @ u1.matrix(), atol=1e-12)


def test_dagger_inverts():
    u = pulse_propagator(Pulse(1.3, 0.7), 0.2)
    ident = (u @ u.dagger()).matrix()
    assert np.allclose(ident, np.eye(2), atol=1e-12)


def test_compose_applies_first_pulse_first():
    p1 = Pulse(1.1, 0.3)
    p2 = Pulse(2.3, -0.8)
    seq = CompositeSequence((p1, p2), target_phi=math.pi, order=0)
    u = compose(seq, 0.07)
    expected = pulse_propagator(p2, 0.07) @ pulse_propagator(p1, 0.07)
    assert u.a == pytest.approx(expected.a, abs=1e-14)
    assert u.b == pytest.approx(expected.b, abs=1e-14)


def test_compose_rejects_empty_sequence():
    seq = CompositeSequence((), target_phi=math.pi, order=0)
    with pytest.raises(ValueError, match="empty"):
        compose(seq, 0.0)


def test_target_gate_is_diagonal_phase():
    f = target_gate(math.pi / 2)
    assert f.b == 0
    assert f.a == pytest.approx(cmath.exp(-1j * math.pi / 4), abs=1e-15)


def test_fidelities_of_perfect_gate_are_one():
    f = target_gate(1.234)
    assert frobenius_fidelity(f, f) == pytest.approx(1.0, abs=1e-15)
    assert trace_fidelity(f, f) == pytest.approx(1.0, abs=1e-15)


def test_two_pulse_fidelities_match_oracle():
    # Independently computed from the 2x2 matrix product at epsilon 0.1:
    # the two-pulse pi train (phases 0, pi/2) against the pi phase gate.
    seq = CompositeSequence(
        (Pulse(math.pi, 0.0), Pulse(math.pi, math.pi / 2)),
        target_phi=math.pi,
        order=0,
    )
    u = compose(seq, 0.1)
    f = target_gate(math.pi)
    assert frobenius_fidelity(u, f) == pytest.approx(0.843565534959769, abs=1e-12)
    assert trace_fidelity(u, f) == pytest.approx(0.975528258147577, abs=1e-12)


@given(areas, angles, errors)
@settings(max_examples=50, deadline=None)
def test_trace_fidelity_bounds_frobenius(area, phase, eps):
    # 1 - F_frobenius = sqrt(1 - F_trace) for a diagonal target, so the
    # trace measure is always the more lenient of the two.
    u = pulse_propagator(Pulse(area, phase), eps)
    f = target_gate(1.0)
    ft = trace_fidelity(u, f)
    ff = frobenius_fidelity(u, f)
    assert 1.0 - ff == pytest.approx(math.sqrt(max(0.0, 1.0 - ft)), abs=1e-9)


_CROSS_PATH_TRAINS = {
    "Z18": lambda: catalog.to_sequence(catalog.get("Z18")),
    "T10": lambda: catalog.to_sequence(catalog.get("T10")),
    "four-v1": lambda: four_pulse(math.pi / 2, 1),
}


@pytest.mark.parametrize("name", _CROSS_PATH_TRAINS)
def test_array_compose_matches_scalar_calls(name):
    seq = _CROSS_PATH_TRAINS[name]()
    eps = np.linspace(-0.4, 0.4, 801)
    u = compose(seq, eps)
    assert u.a.shape == u.b.shape == eps.shape
    for k, e in enumerate(eps):
        v = compose(seq, float(e))
        assert abs(u.a[k] - v.a) <= 1e-15
        assert abs(u.b[k] - v.b) <= 1e-15


@pytest.mark.parametrize("name", _CROSS_PATH_TRAINS)
def test_array_compose_matches_mpmath_propagator(name):
    seq = _CROSS_PATH_TRAINS[name]()
    eps = np.array([-0.3, -0.01, 0.0, 0.01, 0.3])
    u = compose(seq, eps)
    with mp.workdps(precise.WORKING_DPS):
        # The same double-precision inputs, evaluated in 50 digits.
        phases = [mp.mpf(float(p.phase)) for p in seq.pulses]
        areas = [mp.mpf(float(p.area)) for p in seq.pulses]
        for k, e in enumerate(eps):
            a, b = precise.mp_propagator(phases, areas, mp.mpf(float(e)))
            assert abs(u.a[k] - complex(a)) <= 1e-14
            assert abs(u.b[k] - complex(b)) <= 1e-14
