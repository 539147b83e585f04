import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpgate import jets, sequences
from cpgate.jets import structured_jets
from cpgate.analysis import compose
from cpgate.sequences import half_jets
from cpgate.su2 import CompositeSequence

from jet_oracle import jet_compose, pi_series


def _mp_taylor(fn, order):
    return [float(c) for c in mp.taylor(fn, 0, order)]


def test_trig_coeffs_match_mpmath_taylor():
    for order in (0, 1, 5, 9):
        ref_cos = _mp_taylor(lambda e: mp.cos(mp.pi * (1 + e) / 2), order)
        ref_sin = _mp_taylor(lambda e: mp.sin(mp.pi * (1 + e) / 2), order)
        cos_c, sin_c = pi_series(order)
        assert np.allclose(cos_c, ref_cos, rtol=0, atol=1e-15)
        assert np.allclose(sin_c, ref_sin, rtol=0, atol=1e-15)


def test_jet_pulse_value_matches_propagator():
    seq = CompositeSequence((0.7,), target_phi=math.pi)
    a, b = jet_compose(seq, 4)
    u = compose(seq, 0.0)
    assert a[0] == pytest.approx(u.a, abs=1e-14)
    assert b[0] == pytest.approx(u.b, abs=1e-14)


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
    seq = CompositeSequence((0.0, 1.1, -0.4), target_phi=math.pi)
    a, b = jet_compose(seq, 3)
    coeff = a[m] if element == "11" else b[m]
    fd = _finite_difference(seq, element, m)
    assert coeff * math.factorial(m) == pytest.approx(fd, rel=1e-5, abs=1e-7)


def test_jet_compose_rejects_empty_and_negative():
    empty = CompositeSequence((), target_phi=math.pi)
    with pytest.raises(ValueError, match="empty"):
        jet_compose(empty, 2)
    seq = CompositeSequence((0.0,), target_phi=math.pi)
    with pytest.raises(ValueError):
        jet_compose(seq, -2)


@given(st.floats(min_value=-0.01, max_value=0.01))
@settings(max_examples=25, deadline=None)
def test_jet_polynomial_approximates_propagator(eps):
    seq = CompositeSequence((0.2, 2.2, -1.0, 0.9), target_phi=math.pi)
    order = 5
    a, b = jet_compose(seq, order)
    powers = eps ** np.arange(order + 1)
    u = compose(seq, eps)
    assert abs(np.dot(a, powers) - u.a) < 1e-10
    assert abs(np.dot(b, powers) - u.b) < 1e-10


def _half_train(row):
    # The half train pi_0 pi_p1 ... pi_pn of one row of relative phases.
    return CompositeSequence((0.0,) + tuple(row), target_phi=math.pi)


# Chebyshev nodes of s = sin(pi eps/2) in [-1, 1]: more than the n + 2
# that fix a polynomial of degree n + 1 for every half tested here.
_NODES = np.cos(math.pi * (np.arange(17) + 0.5) / 17)


def _composed_values(row):
    # a_h of the half train on ``row`` at the nodes, from ``compose``: an
    # oracle that shares no code with the recurrence.  Matching it at the
    # nodes fixes every coefficient, without the ill-conditioned fit.
    return compose(_half_train(row), 2 / math.pi * np.arcsin(_NODES)).a


def _phase_derivative(row, j):
    # The phase p_j enters one pulse, whose entries are -s, e^{i p_j} c and
    # e^{-i p_j} c, so a_h is alpha + beta e^{i p_j} + gamma e^{-i p_j}:
    # three evaluations a third of a turn apart give beta e^{i p_j} and
    # gamma e^{-i p_j}, and the derivative i (beta e^{i p_j} -
    # gamma e^{-i p_j}), with no step size.
    turn = np.exp(2j * math.pi * np.arange(3) / 3)
    values = []
    for k in range(3):
        moved = np.array(row, dtype=float)
        moved[j] += 2 * math.pi * k / 3
        values.append(_composed_values(moved))
    values = np.array(values)
    plus = (turn.conj()[:, None] * values).sum(axis=0) / 3
    minus = (turn[:, None] * values).sum(axis=0) / 3
    return 1j * (plus - minus)


def _assert_at_nodes(coefficients, want, n):
    # s^p A(s^2) at the nodes against ``want``, A's u-coefficients being
    # ``coefficients`` and p the parity of the half's n + 1 pulses.  The
    # rounding of its evaluation grows with sum |c_k|, which passes 1e3 for
    # a half of equal phases (a Chebyshev polynomial in s).
    got = _NODES ** ((n + 1) % 2) * np.polynomial.polynomial.polyval(
        _NODES**2, coefficients
    )
    bound = 1e-14 * max(1.0, np.abs(coefficients).sum())
    assert np.max(np.abs(got - want)) <= bound


@pytest.mark.parametrize("n", range(0, 9))
def test_structured_jets_match_composed_half_train(n):
    # The batched kernel against the half train composed by ``compose``
    # at the Chebyshev nodes in s, values and tangents.
    rng = np.random.default_rng(n)
    x = rng.uniform(0.0, 2 * math.pi, size=(5, n))
    a = structured_jets(x)
    a_t, da = structured_jets(x, pinned=0)
    length = (n + 1) // 2 + 1
    assert a.shape == (5, length) and da.shape == (5, n, length)
    assert np.array_equal(a, a_t)
    for row, ra, rda in zip(x, a, da):
        _assert_at_nodes(ra, _composed_values(row), n)
        for j in range(n):
            _assert_at_nodes(rda[j], _phase_derivative(row, j), n)


@pytest.mark.parametrize("n", range(0, 9))
def test_structured_jets_have_the_parity_and_the_value_at_s_one(n):
    # a_h has degree n + 1 and the parity of n + 1, s^p A(s^2) with A of
    # degree (n + 1) // 2; at s = 1 (u = 1) every pulse is -I.
    rng = np.random.default_rng(80 + n)
    a = structured_jets(rng.uniform(0.0, 2 * math.pi, size=(4, n)))
    assert a.shape == (4, (n + 1) // 2 + 1)
    assert np.max(np.abs(a.sum(axis=1) - (-1) ** (n + 1))) <= 1e-13 * np.max(np.abs(a))


@pytest.mark.parametrize("n", range(1, 7))
def test_structured_jets_tangents_after_the_held_phases_are_jacobian_columns(n):
    rng = np.random.default_rng(20 + n)
    x = rng.uniform(0.0, 2 * math.pi, size=(6, n))
    x[:, 0] = 0.0  # a zero that is differentiated stays out of the prefix
    a, da = structured_jets(x, pinned=0)
    for pinned in range(1, n + 1):
        sa, dsa = structured_jets(x, pinned)
        for got, full in ((sa, a), (dsa, da[:, pinned:])):
            assert got.shape == full.shape
            bound = 1e-15 * np.max(np.abs(full), initial=0.0)
            assert np.max(np.abs(got - full), initial=0.0) <= bound


@pytest.mark.parametrize("n", range(0, 9))
def test_half_jets_match_structured_jets(n):
    # The scalar kernel against the batched one on random halves, with
    # and without leading zeros, and tangents after every held count
    # (differentiated zeros included) and none: a_h, and so every residual
    # entry and Jacobian entry read from it, within 1e-14 of the largest
    # coefficient (or of 1).
    rng = np.random.default_rng(60 + n)
    for zeros in sorted({0, n // 2, n}):
        x = rng.uniform(0.0, 2 * math.pi, size=(3, n))
        x[:, :zeros] = 0.0
        for pinned in (None, *range(n + 1)):
            for row in x:
                a, da = half_jets(list(row), pinned)
                want = structured_jets(row[None, :])[0]
                scale = max(1.0, np.max(np.abs(want)))
                free = 0 if pinned is None else n - pinned
                assert len(a) == (n + 1) // 2 + 1 and len(da) == free
                assert np.max(np.abs(np.array(a) - want)) <= 1e-14 * scale
                if free:
                    _, want_da = structured_jets(row[None, :], pinned)
                    scale = max(1.0, np.max(np.abs(want_da)))
                    assert np.max(np.abs(np.array(da) - want_da[0])) <= 1e-14 * scale


@pytest.mark.parametrize("n", range(1, 9))
def test_a_last_pulse_without_b_keeps_the_bits_of_a(n):
    # After a half's last pulse only A is read: the pulse that forms no B~
    # leaves the A of the half and of each tangent bit for bit as the full
    # pulse does, in doubles and in fixed point.
    rng = np.random.default_rng(80 + n)
    for row in rng.uniform(0.0, 2 * math.pi, size=(4, n)).tolist():
        r = complex(-math.sin(row[-1]), math.cos(row[-1]))
        a, b = sequences._float_zero_prefix((n + 1) // 2 + 1, 1)
        for k, p in enumerate(row[:-1]):
            # Pulse k + 1 follows pi_0 and k others.
            a, b = sequences._pulse(a, b, complex(-math.sin(p), math.cos(p)), (k + 1) % 2)
        full = sequences._pulse(a, b, r, n % 2)
        assert sequences._pulse(a, b, r, n % 2, False) == (full[0], [])
        rotors = [
            (sequences._fixed(math.sin(p)), -sequences._fixed(math.cos(p))) for p in row
        ]
        for zeros in (0, 1, 3):
            ar, ai, br, bi = sequences._mp_jet_rotors(zeros, rotors)
            assert sequences._mp_jet_rotors(zeros, rotors, with_b=False) == (ar, ai, [], [])
            assert sequences._mp_jet_rotors(zeros, rotors[:-1], with_b=False)[:2] == (
                sequences._mp_jet_rotors(zeros, rotors[:-1])[:2]
            )


@pytest.mark.parametrize("length", range(2, 7))
def test_scalar_zero_prefix_is_the_batched_one(length):
    # half_jets and the numpy kernel read their held zeros from one integer
    # prefix, each as doubles.  Its coefficients are Chebyshev-size integers
    # (6912 after 12 pulses), exact in doubles, so each view is the
    # pulse-by-pulse composition of its own kernel.
    for pulses in range(14):
        a, b = sequences._zero_prefix(length, pulses)
        want = jets._zero_prefix(length, pulses)
        assert want.tolist() == [list(a), [1j * y for y in b]]
        w = np.zeros((2, length, 1, 1), dtype=complex)
        w[0, 0] = 1.0
        sa, sb = [1 + 0j] + [0j] * (length - 1), [0j] * length
        for k in range(pulses):
            w = jets._pulse(w, 1j, k % 2)
            sa, sb = sequences._pulse(sa, sb, 1j, k % 2)
        assert w[:, :, 0, 0].tolist() == want.tolist() == [sa, sb]


@pytest.mark.parametrize("pinned", [-1, 4])
def test_jets_reject_a_held_count_out_of_range(pinned):
    with pytest.raises(ValueError, match="cannot hold"):
        structured_jets(np.zeros((2, 3)), pinned)
    with pytest.raises(ValueError, match="cannot hold"):
        half_jets([0.0, 0.0, 0.0], pinned)


@pytest.mark.parametrize("n", range(1, 9))
def test_structured_jets_zero_prefix_matches_composed_half_train(n):
    # Leading zeros in every row go through the cached prefix.
    rng = np.random.default_rng(40 + n)
    for zeros in range(1, n + 1):
        x = rng.uniform(0.0, 2 * math.pi, size=(3, n))
        x[:, :zeros] = 0.0
        a = structured_jets(x)
        for row, ra in zip(x, a):
            _assert_at_nodes(ra, _composed_values(row), n)


@pytest.mark.parametrize("pinned", [None, 0, 1, 2, 4])
def test_structured_jets_prefix_needs_the_zero_in_every_row(pinned):
    # Column 0 is zero in some rows only: the batch composes it row by row,
    # and each zero row alone goes through the prefix.
    rng = np.random.default_rng(7)
    x = rng.uniform(0.0, 2 * math.pi, size=(6, 4))
    x[::2, 0] = 0.0
    x[::3, 1] = 0.0
    batch = structured_jets(x, pinned)
    rows = [structured_jets(row[None, :], pinned) for row in x]
    if pinned is None:
        batch, rows = (batch,), [(r,) for r in rows]
    for k, got in enumerate(batch):
        want = np.concatenate([r[k] for r in rows])
        bound = 1e-15 * np.max(np.abs(want), initial=0.0)
        assert np.max(np.abs(got - want), initial=0.0) <= bound
