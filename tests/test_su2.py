import cmath
import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpgate import catalog, precise
from cpgate.sequences import four_pulse
from cpgate.analysis import compose, frobenius_fidelity, trace_fidelity
from cpgate.su2 import CompositeSequence, Phase, Su2, target_gate

from mp_oracle import mp_propagator

angles = st.floats(min_value=-10.0, max_value=10.0)
errors = st.floats(min_value=-0.5, max_value=0.5)


def _pulse(phase, eps):
    # Propagator of one pi pulse of area pi(1 + eps).
    return compose(CompositeSequence((phase,), target_phi=math.pi), eps)


# Dense-matrix references for the Cayley-Klein pair (a, b), the full
# matrix being [[a, b], [-b*, a*]].


def _matrix(u):
    return np.array([[u.a, u.b], [-u.b.conjugate(), u.a.conjugate()]], dtype=complex)


def _unitarity_defect(u):
    # |a|^2 + |b|^2 - 1; zero for an exact SU(2) element.
    return abs(u.a) ** 2 + abs(u.b) ** 2 - 1.0


def _dagger(u):
    return Su2(u.a.conjugate(), -u.b)


def _product(u2, u1):
    # The matrix product u2 @ u1 in the Cayley-Klein parametrization, the
    # product that compose inlines.
    return Su2(
        u2.a * u1.a - u2.b * u1.b.conjugate(),
        u2.a * u1.b + u2.b * u1.a.conjugate(),
    )


@given(angles, errors)
@settings(max_examples=50, deadline=None)
def test_pulse_propagator_is_special_unitary(phase, eps):
    u = _pulse(phase, eps)
    assert abs(_unitarity_defect(u)) < 1e-12
    m = _matrix(u)
    assert np.allclose(m @ m.conj().T, np.eye(2), atol=1e-12)
    assert np.linalg.det(m) == pytest.approx(1.0, abs=1e-12)


@given(angles, errors, angles, errors)
@settings(max_examples=50, deadline=None)
def test_product_matches_matrix_product(p1, e1, p2, e2):
    u1 = _pulse(p1, e1)
    u2 = _pulse(p2, e2)
    prod = _matrix(_product(u2, u1))
    assert np.allclose(prod, _matrix(u2) @ _matrix(u1), atol=1e-12)


def test_dagger_inverts():
    u = _pulse(0.7, 0.2)
    ident = _matrix(_product(u, _dagger(u)))
    assert np.allclose(ident, np.eye(2), atol=1e-12)


def test_compose_applies_first_pulse_first():
    seq = CompositeSequence((0.3, -0.8), target_phi=math.pi)
    u = compose(seq, 0.07)
    expected = _product(_pulse(-0.8, 0.07), _pulse(0.3, 0.07))
    assert u.a == pytest.approx(expected.a, abs=1e-14)
    assert u.b == pytest.approx(expected.b, abs=1e-14)


def test_sequence_label_is_keyword_only():
    # A train carries no order: a third positional argument is an error,
    # not a label.
    with pytest.raises(TypeError):
        CompositeSequence((0.0, 1.0), 1.0, 3)
    assert CompositeSequence((0.0, 1.0), 1.0, label="x").label == "x"


def test_compose_rejects_empty_sequence():
    seq = CompositeSequence((), target_phi=math.pi)
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
    seq = CompositeSequence((0.0, math.pi / 2), target_phi=math.pi)
    u = compose(seq, 0.1)
    f = target_gate(math.pi)
    assert frobenius_fidelity(u, f) == pytest.approx(0.843565534959769, abs=1e-12)
    assert trace_fidelity(u, f) == pytest.approx(0.975528258147577, abs=1e-12)


@given(angles, errors)
@settings(max_examples=50, deadline=None)
def test_trace_fidelity_bounds_frobenius(phase, eps):
    # 1 - F_frobenius = sqrt(1 - F_trace) for a diagonal target, so the
    # trace measure is always the more lenient of the two.
    u = _pulse(phase, eps)
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
        phases = [mp.mpf(float(p)) for p in seq.phases]
        for k, e in enumerate(eps):
            a, b = mp_propagator(phases, mp.mpf(float(e)))
            assert abs(u.a[k] - complex(a)) <= 1e-14
            assert abs(u.b[k] - complex(b)) <= 1e-14


def test_a_phase_compares_and_hashes_as_its_number():
    half, third = (Phase(precise._raw(x)) for x in (0.5, Fraction(1, 3)))
    zero = Phase(precise._raw(0.0))
    assert half == 0.5 and hash(half) == hash(0.5) and half != 0.25
    assert zero == 0 and hash(zero) == hash(0) and not zero and half
    assert third == Phase(precise._raw(Fraction(1, 3))) and third != float(third)
    with mp.workprec(precise.WP):
        assert mp.mpf(third) == third and hash(mp.mpf(third)) == hash(third)
    assert {third: 1}[Phase(third._mpf_)] == 1
    assert float(Phase(precise._raw(-0.75))) == -0.75
    assert not isinstance(third, float)
