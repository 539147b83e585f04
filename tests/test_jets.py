import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpgate.jets import (
    Jet,
    cos_coeffs,
    derivative,
    jet_compose,
    jet_pulse,
    sin_coeffs,
    structured_jets,
)
from cpgate.sequences import HalfSequenceSpec, structured_sequence
from cpgate.su2 import CompositeSequence, Pulse, compose, pulse_propagator

areas = st.floats(min_value=0.1, max_value=10.0)
angles = st.floats(min_value=-6.3, max_value=6.3)


def _mp_taylor(fn, order):
    return [float(c) for c in mp.taylor(fn, 0, order)]


@given(areas)
@settings(max_examples=25, deadline=None)
def test_trig_coeffs_match_mpmath_taylor(area):
    order = 5
    ref_cos = _mp_taylor(lambda e: mp.cos(area * (1 + e) / 2), order)
    ref_sin = _mp_taylor(lambda e: mp.sin(area * (1 + e) / 2), order)
    assert np.allclose(cos_coeffs(area, order), ref_cos, atol=1e-12)
    assert np.allclose(sin_coeffs(area, order), ref_sin, atol=1e-12)


def test_jet_pulse_value_matches_propagator():
    pulse = Pulse(math.pi, 0.7)
    j = jet_pulse(pulse, 4)
    u = pulse_propagator(pulse, 0.0)
    assert j.value().a == pytest.approx(u.a, abs=1e-14)
    assert j.value().b == pytest.approx(u.b, abs=1e-14)


def test_jet_pulse_rejects_negative_order():
    with pytest.raises(ValueError):
        jet_pulse(Pulse(math.pi, 0.0), -1)


def test_derivative_requires_order_within_truncation():
    j = Jet(np.array([1.0 + 0j, 2.0]))
    assert j.derivative(1) == pytest.approx(2.0)
    with pytest.raises(ValueError, match="truncation"):
        j.derivative(2)


def test_jet_algebra():
    x = Jet(np.array([1.0, 2.0, 0.5], dtype=complex))
    y = Jet(np.array([0.5, -1.0, 3.0], dtype=complex))
    prod = (x * y).coeffs
    assert np.allclose(prod, [0.5, 0.0, 1.25])  # truncated Cauchy product
    assert np.allclose((x + y).coeffs, [1.5, 1.0, 3.5])
    assert np.allclose((x - y).coeffs, [0.5, 3.0, -2.5])
    assert np.allclose((2.0 * x).coeffs, [2.0, 4.0, 1.0])
    z = Jet(np.array([1.0 + 2.0j]))
    assert z.conjugate().coeffs[0] == 1.0 - 2.0j


def _finite_difference(seq, element, m, h=1e-2):
    # Richardson-extrapolated central differences of the composite
    # propagator element: an oracle independent of the series algebra.
    def elem(eps):
        u = compose(seq, eps)
        return u.a if element == "11" else u.b

    def central(h):
        if m == 1:
            return (elem(h) - elem(-h)) / (2 * h)
        if m == 2:
            return (elem(h) - 2 * elem(0.0) + elem(-h)) / h**2
        if m == 3:
            return (elem(2 * h) - 2 * elem(h) + 2 * elem(-h) - elem(-2 * h)) / (
                2 * h**3
            )
        raise ValueError(m)

    c1, c2 = central(h), central(h / 2)
    return (4 * c2 - c1) / 3


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("element", ["11", "12"])
def test_jet_derivatives_match_finite_differences(element, m):
    seq = CompositeSequence(
        (Pulse(math.pi, 0.0), Pulse(math.pi, 1.1), Pulse(math.pi, -0.4)),
        target_phi=math.pi,
        order=0,
    )
    j = jet_compose(seq, 3)
    fd = _finite_difference(seq, element, m)
    assert derivative(j, element, m) == pytest.approx(fd, rel=1e-5, abs=1e-7)


def test_derivative_rejects_unknown_element():
    seq = CompositeSequence((Pulse(math.pi, 0.0),), target_phi=math.pi, order=0)
    with pytest.raises(ValueError, match="element"):
        derivative(jet_compose(seq, 2), "21", 1)


def test_jet_compose_rejects_empty_and_negative():
    empty = CompositeSequence((), target_phi=math.pi, order=0)
    with pytest.raises(ValueError, match="empty"):
        jet_compose(empty, 2)
    seq = CompositeSequence((Pulse(math.pi, 0.0),), target_phi=math.pi, order=0)
    with pytest.raises(ValueError):
        jet_compose(seq, -2)


@given(st.floats(min_value=-0.01, max_value=0.01))
@settings(max_examples=25, deadline=None)
def test_jet_polynomial_approximates_propagator(eps):
    seq = CompositeSequence(
        (Pulse(math.pi, 0.2), Pulse(math.pi, 2.2), Pulse(math.pi, -1.0),
         Pulse(math.pi, 0.9)),
        target_phi=math.pi,
        order=1,
    )
    order = 5
    j = jet_compose(seq, order)
    powers = eps ** np.arange(order + 1)
    u = compose(seq, eps)
    assert abs(np.dot(j.a.coeffs, powers) - u.a) < 1e-10
    assert abs(np.dot(j.b.coeffs, powers) - u.b) < 1e-10


@pytest.mark.parametrize("n", range(0, 7))
def test_structured_jets_match_composed_train(n):
    # The batched two-half kernel against the pulse-by-pulse composition
    # of the full train.
    rng = np.random.default_rng(n)
    x = rng.uniform(0.0, 2 * math.pi, size=(5, n))
    phi = 0.7 * math.pi
    a, b = structured_jets(x, phi, n + 1)
    for row, ra, rb in zip(x, a, b):
        ref = jet_compose(structured_sequence(HalfSequenceSpec(tuple(row), phi)), n + 1)
        for got, want in ((ra, ref.a.coeffs), (rb, ref.b.coeffs)):
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("n", range(1, 7))
def test_structured_jets_tangent_subsets_are_columns_of_the_full_jacobian(n):
    rng = np.random.default_rng(20 + n)
    x = rng.uniform(0.0, 2 * math.pi, size=(6, n))
    x[:, 0] = 0.0  # a zero that is differentiated stays out of the prefix
    a, b, da, db = structured_jets(x, 1.3, n, jacobian=True)
    for wrt in ([n - 1], list(range(n))[::-1], list(range(n // 2, n))):
        sa, sb, dsa, dsb = structured_jets(x, 1.3, n, jacobian=wrt)
        for got, full in ((sa, a), (sb, b), (dsa, da[:, wrt]), (dsb, db[:, wrt])):
            assert got.shape == full.shape
            assert np.max(np.abs(got - full)) <= 1e-15 * np.max(np.abs(full))


def test_structured_jets_rejects_bad_tangent_indices():
    x = np.zeros((2, 3))
    # Out of range, repeated, a boolean mask, floats, a scalar, None.
    for wrt in ([3], [-1], [1, 1], [True, False, True], np.ones(3, dtype=bool),
                [1.7], 1, np.intp(1), None, [[0, 1]]):
        with pytest.raises(ValueError, match="jacobian"):
            structured_jets(x, 1.0, 3, jacobian=wrt)


@pytest.mark.parametrize("n", range(1, 7))
def test_structured_jets_zero_prefix_matches_composed_train(n):
    # Leading zeros in every row go through the cached prefix.
    rng = np.random.default_rng(40 + n)
    phi = 0.3 * math.pi
    for zeros in range(1, n + 1):
        x = rng.uniform(0.0, 2 * math.pi, size=(3, n))
        x[:, :zeros] = 0.0
        a, b = structured_jets(x, phi, n + 1)
        for row, ra, rb in zip(x, a, b):
            ref = jet_compose(structured_sequence(HalfSequenceSpec(tuple(row), phi)), n + 1)
            for got, want in ((ra, ref.a.coeffs), (rb, ref.b.coeffs)):
                assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("jacobian", [False, True, [1, 2]])
def test_structured_jets_prefix_needs_the_zero_in_every_row(jacobian):
    # Column 0 is zero in some rows only: the batch composes it row by row,
    # and each zero row alone goes through the prefix.
    rng = np.random.default_rng(7)
    x = rng.uniform(0.0, 2 * math.pi, size=(6, 4))
    x[::2, 0] = 0.0
    x[::3, 1] = 0.0
    batch = structured_jets(x, 0.9, 4, jacobian=jacobian)
    rows = [structured_jets(row[None, :], 0.9, 4, jacobian=jacobian) for row in x]
    for k, got in enumerate(batch):
        want = np.concatenate([r[k] for r in rows])
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))
