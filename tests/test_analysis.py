import cmath
import functools
import logging
import math
import re
import struct
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpgate import analysis, catalog, precise, solver
from cpgate.cli import run, spec_parse
from cpgate.analysis import (
    FidelityProfile,
    compose,
    csv_bytes,
    frobenius_fidelity,
    high_fidelity_range,
    sweep,
    trace_fidelity,
    write_csv,
)
from cpgate.sequences import (
    eight_pulse,
    first_half,
    four_pulse,
    six_pulse,
    structured_sequence,
    two_pulse,
)
from cpgate.su2 import AnalysisError, CompositeSequence, order_from_slope, target_gate

from mp_oracle import mp_propagator
from order_oracle import closed_form_epsilon0, closed_form_fidelity


def _cat(name):
    return catalog.to_sequence(catalog.get(name))


def test_sweep_validation():
    seq = two_pulse(math.pi)
    with pytest.raises(ValueError, match="steps"):
        sweep(seq, -0.1, 0.1, 1)
    with pytest.raises(ValueError, match="eps_min"):
        sweep(seq, 0.2, 0.1, 10)
    for lo, hi in [(-math.inf, 0.4), (0.0, math.inf), (-math.inf, math.inf),
                   (math.nan, 0.4), (-0.4, math.nan), (-1e308, 1e308),
                   (-math.ldexp(1.0, 1023), math.ldexp(1.0, 1023))]:
        with pytest.raises(ValueError, match="finite"):
            sweep(seq, lo, hi, 4)
    # The largest finite span is a grid.
    assert len(sweep(seq, -0.5 * 1.7e308, 0.5 * 1.7e308, 3).epsilons) == 3


def test_sweep_is_exact_and_symmetric_at_zero_error():
    profile = sweep(four_pulse(math.pi, 1), -0.3, 0.3, 61)
    mid = 30
    assert profile.epsilons[mid] == pytest.approx(0.0, abs=1e-15)
    assert profile.frobenius[mid] == pytest.approx(1.0, abs=1e-12)
    assert profile.trace[mid] == pytest.approx(1.0, abs=1e-12)
    # Infidelity depends on |eps| only.
    assert np.allclose(profile.frobenius, profile.frobenius[::-1], atol=1e-12)
    assert np.allclose(profile.trace, profile.trace[::-1], atol=1e-12)


def test_closed_form_matches_frozen_values():
    f, t = closed_form_fidelity(0, math.pi, 0.1)
    assert f == pytest.approx(0.843565534959769, abs=1e-14)
    assert t == pytest.approx(0.975528258147577, abs=1e-14)
    assert closed_form_fidelity(3, 0.0, 0.3) == (1.0, 1.0)
    # order-3 train at the smallest gate angle in the catalog
    f, _ = closed_form_fidelity(3, math.pi / 4, 0.2)
    assert f == pytest.approx(0.99748417644060538, abs=1e-14)
    with pytest.raises(ValueError):
        closed_form_fidelity(-1, math.pi, 0.1)


def test_sweep_matches_closed_form():
    seq = _cat("S6")
    profile = sweep(seq, -0.4, 0.4, 81)
    for e, f, t in zip(profile.epsilons, profile.frobenius, profile.trace):
        cf, ct = closed_form_fidelity(2, math.pi / 2, float(e))
        assert abs(f - cf) < 1e-12
        assert abs(t - ct) < 1e-12


def test_write_csv_is_deterministic(tmp_path):
    profile = sweep(two_pulse(math.pi), -0.2, 0.2, 11)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(profile, p1)
    write_csv(profile, p2)
    data = p1.read_bytes()
    assert data == p2.read_bytes()
    header, first = data.decode().splitlines()[:2]
    assert header == "epsilon,frobenius_fidelity,trace_fidelity"
    assert first.startswith("-0.2")
    assert first.count(",") == 2


def test_write_csv_matches_row_by_row_formatting(tmp_path):
    profile = sweep(_cat("Z10"), -0.4, 0.4, 801)
    path = tmp_path / "profile.csv"
    write_csv(profile, path)
    want = "epsilon,frobenius_fidelity,trace_fidelity\n" + "".join(
        f"{e:.17g},{f:.17g},{t:.17g}\n"
        for e, f, t in zip(profile.epsilons, profile.frobenius, profile.trace)
    )
    assert path.read_bytes() == want.encode()


_CSV_HEADER = b"epsilon,frobenius_fidelity,trace_fidelity\n"


def _csv_row_by_row(rows) -> bytes:
    return _CSV_HEADER + b"".join(b"%.17g,%.17g,%.17g\n" % tuple(row) for row in rows)


def _csv_bytes_of(rows) -> bytes:
    table = np.array(rows, dtype=float).reshape(-1, 3)
    return csv_bytes(FidelityProfile(table[:, 0], table[:, 1], table[:, 2]))


def _double(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


def _neighbours(x: float, count: int = 3) -> list[float]:
    out, lo, hi = [x], x, x
    for _ in range(count):
        lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
        out += [lo, hi]
    return out


_DOUBLES = st.floats() | st.integers(0, 2**64 - 1).map(_double)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_DOUBLES, _DOUBLES, _DOUBLES), min_size=1, max_size=40))
def test_csv_bytes_equal_17g_of_every_double(rows):
    assert _csv_bytes_of(rows) == _csv_row_by_row(rows)


def test_csv_bytes_at_the_edges_of_fixed_notation():
    values = [
        0.0, 5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
        1.7976931348623157e308, math.inf, math.nan,
        1 - 2**-53, 1.0, 0.5, 100.0, 123.0, 1234567890123456.0, 0.1 + 0.2,
        9.9999999999999995e-07, *_neighbours(1e-4), *_neighbours(1e16),
    ]
    # Every power of ten the encoder meets and its float neighbours, and
    # the doubles below a power of ten whose 17 digits round up to it.
    for k in range(-6, 18):
        values += _neighbours(float(Fraction(10) ** k), 4)
    round_up = [1e-14, 1e-70, 1e98]
    for v in round_up:
        assert Fraction(v) < Fraction(repr(v)) and "%.17g" % v == repr(v)
    values += round_up
    values += [-v for v in values]
    values += [0.0] * (-len(values) % 3)
    rows = np.reshape(values, (-1, 3)).tolist()
    assert _csv_bytes_of(rows) == _csv_row_by_row(rows)


def test_csv_bytes_round_exact_ties_to_even():
    # x = t / 2^(k+1), t odd, is a double exactly halfway between two
    # 17-digit decimals when 2 10^16 <= t 5^k < 2 10^17: x 10^k = t 5^k / 2.
    rng = np.random.default_rng(7)
    values = []
    for k in range(1, 21):
        for n in rng.integers(10**16, 10**17, 20).tolist():
            t = (2 * n + 1) // 5**k | 1
            if t < 2**53 and 2 * 10**16 <= t * 5**k < 2 * 10**17:
                v = t / 2 ** (k + 1)
                assert Fraction(v) * 10**k % 1 == Fraction(1, 2)
                values.append(v)
    assert len(values) >= 300
    values += [-v for v in values]
    values += [0.0] * (-len(values) % 3)
    rows = np.reshape(values, (-1, 3)).tolist()
    assert _csv_bytes_of(rows) == _csv_row_by_row(rows)


def test_csv_bytes_of_float32_columns_are_their_exact_values():
    col = np.array([0.1, 1 / 3, -2.5e-3, 7e-5], dtype=np.float32)
    got = csv_bytes(FidelityProfile(col, col, col))
    assert got == _csv_row_by_row([[v, v, v] for v in col.tolist()])


def test_csv_bytes_across_blocks_of_rows():
    # Raw bit patterns over several encoder blocks and a partial one.
    rng = np.random.default_rng(3)
    rows = 2 * analysis._CSV_BLOCK_ROWS + 7
    bits = rng.integers(0, 2**64, size=3 * rows, dtype=np.uint64)
    table = bits.view(np.float64).reshape(rows, 3)
    assert _csv_bytes_of(table) == _csv_row_by_row(table.tolist())


def test_order_from_slope_on_analytic_and_catalog_trains():
    assert order_from_slope(*precise.slope_fit(two_pulse(math.pi))) == 0
    assert order_from_slope(*precise.slope_fit(_cat("Z8"))) == 3


def test_slope_fit_is_close_to_integer():
    slope, peak = precise.slope_fit(_cat("Z8"))
    assert abs(slope - 4.0) < 0.1
    assert peak > 0


def test_high_fidelity_ranges_match_known_values():
    assert high_fidelity_range(_cat("Z4")).epsilon0 == pytest.approx(
        0.00637, abs=2e-5
    )
    assert high_fidelity_range(_cat("S4")).epsilon0 == pytest.approx(
        0.0087, abs=5e-5
    )
    assert high_fidelity_range(_cat("T4")).epsilon0 == pytest.approx(
        0.0121, abs=5e-5
    )


def test_trace_ranges_match_known_values():
    # The trace infidelity is the square of the Frobenius one: its range at
    # 1e-4 is the Frobenius search at 1e-2.
    assert high_fidelity_range(_cat("Z4"), 1e-2).epsilon0 == pytest.approx(0.064, abs=5e-4)
    assert high_fidelity_range(_cat("S4"), 1e-2).epsilon0 == pytest.approx(0.087, abs=5e-4)
    assert high_fidelity_range(_cat("T4"), 1e-2).epsilon0 == pytest.approx(0.122, abs=5e-4)


def test_range_interval_is_centered_on_nominal_area():
    rng = high_fidelity_range(_cat("Z6"))
    assert rng.lower == pytest.approx(1.0 - rng.epsilon0, abs=1e-12)
    assert rng.upper == pytest.approx(1.0 + rng.epsilon0, abs=1e-12)
    assert not rng.flagged


def test_range_threshold_validation():
    seq = _cat("Z4")
    for threshold in (0.0, -1e-4, 0.5, 0.6):
        with pytest.raises(ValueError, match="threshold"):
            high_fidelity_range(seq, threshold=threshold)


def test_range_of_an_empty_train_raises():
    with pytest.raises(ValueError, match="empty"):
        high_fidelity_range(CompositeSequence((), math.pi))


@pytest.mark.parametrize("phi", [math.pi, math.pi / 2, math.pi / 4])
def test_high_fidelity_range_inverts_the_closed_form(phi):
    seqs = [two_pulse(phi)] + [
        build(phi, v)
        for build, variants in ((four_pulse, 4), (six_pulse, 4), (eight_pulse, 6))
        for v in range(1, variants + 1)
    ]
    for seq in seqs:
        rng = high_fidelity_range(seq)
        want = closed_form_epsilon0(len(seq) // 2 - 1, phi)
        assert abs(rng.epsilon0 - want) <= 1e-7, seq.label
        assert not rng.flagged


def _verify_trains():
    # The 27 named trains and the 84 polished arbitrary-angle rows.
    seqs = [_cat(name) for name in catalog.names()] + [
        catalog.arbitrary_row(row.phi_over_pi, pulses)
        for row in catalog.arbitrary_rows()
        for pulses in (4, 6, 8, 10, 12, 14)
    ]
    assert len(seqs) == 111
    return seqs


def _closed_form_profile_error(seq, n, phi):
    # Largest deviation of the 801-point sweep on [-0.4, 0.4] from the
    # closed-form Frobenius and trace fidelities of an order-n train.
    profile = sweep(seq, -0.4, 0.4, 801)
    worst = 0.0
    for e, f, t in zip(profile.epsilons, profile.frobenius, profile.trace):
        cf, ct = closed_form_fidelity(n, phi, float(e))
        worst = max(worst, abs(f - cf), abs(t - ct))
    return worst


def test_profile_law_holds_on_every_verify_train():
    # Every root of order n at angle phi has the closed-form profile; the
    # bound is acceptance criterion 2's.
    for seq in _verify_trains():
        worst = _closed_form_profile_error(seq, len(seq) // 2 - 1, float(seq.target_phi))
        assert worst <= 1e-12, seq.label


def test_profile_law_gives_the_range_of_every_verify_train():
    for seq in _verify_trains():
        want = closed_form_epsilon0(len(seq) // 2 - 1, float(seq.target_phi))
        assert abs(high_fidelity_range(seq).epsilon0 - want) <= 1e-9, seq.label


def test_profile_law_holds_at_50_digits_on_every_verify_train():
    # At the 20 positive epsilons of the slope grid, the Frobenius
    # infidelity of the 50-digit propagator (``mp_oracle``) equals
    # sqrt(2)|sin(phi/4)||sin(pi eps/2)|^(n+1).
    # The polish stops at a half-train residual of 1e-45, so the deviation
    # grows with the order, from ~3e-49 at n = 0 to ~2e-27 at n = 7.
    grid, _, _ = precise._slope_grid()
    with mp.workdps(50):
        for seq in _verify_trains():
            phi = mp.mpf(seq.target_phi)
            gate = mp.expj(-phi / 2)
            scale = mp.sqrt(2) * abs(mp.sin(phi / 4))
            for eps, (a, b) in zip(grid, mp_propagator(seq.phases, grid)):
                infid = mp.sqrt((abs(a - gate) ** 2 + abs(b) ** 2) / 2)
                law = scale * abs(mp.sin(mp.pi * eps / 2)) ** (len(seq) // 2)
                assert abs(infid / law - 1) <= 1e-25, (seq.label, float(eps))


@functools.cache
def _verify_train_tuple():
    return tuple(_verify_trains())


@given(
    k=st.integers(0, 110),
    eps=st.lists(st.floats(-0.9, 0.9), min_size=1, max_size=6),
    small=st.lists(
        st.tuples(st.floats(1e-3, 1e-2), st.booleans()), min_size=1, max_size=3
    ),
)
@settings(max_examples=40, deadline=None)
def test_scalar_array_and_50_digit_paths_agree_on_the_profile_law(k, eps, small):
    # Scalar compose, array compose and the 50-digit propagator on one of
    # the 111 verify trains.  The 50-digit window and bound are those measured on
    # the slope grid (see the test above).
    seq = _verify_train_tuple()[k]
    n, phi = len(seq) // 2 - 1, float(seq.target_phi)
    target = target_gate(phi)
    u = compose(seq, np.array(eps))
    frob, trace = frobenius_fidelity(u, target), trace_fidelity(u, target)
    for i, e in enumerate(eps):
        cf, ct = closed_form_fidelity(n, phi, e)
        v = compose(seq, e)
        for f, t in ((frobenius_fidelity(v, target), trace_fidelity(v, target)),
                     (frob[i], trace[i])):
            assert abs(f - cf) <= 1e-12 and abs(t - ct) <= 1e-12, (seq.label, e)
    with mp.workdps(50):
        phi_mp = mp.mpf(seq.target_phi)
        gate = mp.expj(-phi_mp / 2)
        scale = mp.sqrt(2) * abs(mp.sin(phi_mp / 4))
        grid = [mp.mpf(e) if positive else -mp.mpf(e) for e, positive in small]
        for e, (a, b) in zip(grid, mp_propagator(seq.phases, grid)):
            infid = mp.sqrt((abs(a - gate) ** 2 + abs(b) ** 2) / 2)
            law = scale * abs(mp.sin(mp.pi * e / 2)) ** (n + 1)
            assert abs(infid / law - 1) <= 1e-25, (seq.label, float(e))


@given(
    k=st.integers(0, 110),
    eps=st.one_of(
        st.floats(-0.9, 0.9), st.lists(st.floats(-0.9, 0.9), min_size=1, max_size=8)
    ),
)
@settings(max_examples=60, deadline=None)
def test_trace_infidelity_is_the_square_of_the_frobenius_infidelity(k, eps):
    # For an SU(2) pair against a phase gate both infidelities read the
    # squared distance 1 - Re(a e^{i phi/2}): the trace range is the
    # Frobenius search at sqrt(threshold).  In doubles the two differ by
    # half of compose's unitarity defect |a|^2 + |b|^2 - 1 (up to ~2e-15
    # on 18 pulses) and by rounding, which reaches ~1.3e-15 near
    # infidelity 2; below 0.5, where every range threshold lies, rounding
    # stays under 1e-15.
    seq = _verify_train_tuple()[k]
    eps = np.array(eps) if isinstance(eps, list) else eps
    u = compose(seq, eps)
    target = target_gate(seq.target_phi)
    trace = 1.0 - trace_fidelity(u, target)
    frob = 1.0 - frobenius_fidelity(u, target)
    defect = np.abs(u.a) ** 2 + np.abs(u.b) ** 2 - 1.0
    assert np.shape(trace) == np.shape(frob) == np.shape(eps)
    below = trace < 0.5
    gap = np.abs(trace - frob**2) - 0.5 * np.abs(defect)
    assert np.all(gap[below] <= 1e-15), (seq.label, eps)


def test_profile_law_holds_on_every_solved_class():
    # n = 2-4 at the 14 row angles, 16 seeds, rng-seed 0: 140 classes.
    # The bound is the benchmark oracle's for solve output.
    for n in (2, 3, 4):
        for row in catalog.arbitrary_rows():
            phi = float(row.phi_over_pi) * math.pi
            config = solver.SolverConfig(n=n, phi=phi, seeds=16, rng_seed=0)
            for sol in solver.solve(config):
                seq = structured_sequence(sol.phases, phi)
                worst = _closed_form_profile_error(seq, n, phi)
                assert worst <= 1e-8, (n, row.phi_over_pi, sol.phases)


def test_named_trains_and_rows_are_unflagged():
    for seq in _verify_trains():
        for threshold in (1e-4, 1e-2):
            assert not high_fidelity_range(seq, threshold).flagged, seq.label


def _scanned_first_crossing(seq, threshold):
    # Scalar scan in steps of 1e-3, then 1e-6 inside the first cell that
    # reaches the threshold.
    target = target_gate(seq.target_phi)

    def first(grid):
        return next(
            e for e in grid
            if 1.0 - frobenius_fidelity(compose(seq, float(e)), target) >= threshold
        )

    coarse = first(np.linspace(0.0, 0.9, 901))
    return first(np.linspace(coarse - 1e-3, coarse, 1001))


def test_non_monotonic_profile_is_flagged_and_gives_the_first_crossing():
    seq = spec_parse("phi=1.67;phases=0.0,0.49,0.65,0.165,0.655,0.815")
    rng = high_fidelity_range(seq, threshold=0.2)
    assert rng.flagged
    assert abs(rng.epsilon0 - _scanned_first_crossing(seq, 0.2)) <= 1e-6
    assert rng.epsilon0 == pytest.approx(0.08972, abs=1e-5)


def test_range_of_a_train_missing_its_gate_raises():
    seq = spec_parse("phi=1.46;phases=0.0,0.56,0.27,0.83")
    with pytest.raises(AnalysisError, match="eps = 0"):
        high_fidelity_range(seq, threshold=0.2)


def _interpolant(seq, eps):
    # (a, b) of the coefficients of ``_propagator_polynomial`` at an eps
    # array, summed directly: c_k e^{i k theta}, theta = pi(1+eps)/2.
    coeffs = analysis._propagator_polynomial(seq)
    n = len(seq)
    assert coeffs.shape == (2, n + 1)
    ik = 0.5j * math.pi * np.arange(-n, n + 1, 2)
    return (np.exp(np.multiply.outer(1.0 + eps, ik)) @ coeffs.T).T


def _interpolant_error(seq, eps):
    # Largest deviation of the exact-polynomial (a, b) from compose's.
    a, b = _interpolant(seq, eps)
    u = compose(seq, eps)
    return max(np.max(np.abs(a - u.a)), np.max(np.abs(b - u.b)))


def _reference_polynomial(phases):
    # The coefficients of ``_propagator_polynomial`` by the full doubled
    # recurrence, every coefficient composed and no symmetry used:
    # a'[j] = a[j-1] + a[j] + h (conj b[n-j] - conj b[n-1-j]),
    # b'[j] = b[j-1] + b[j] - h (conj a[n-j] - conj a[n-1-j]).
    e = cmath.exp(1j * phases[0])
    a, b = [1 + 0j, 1 + 0j], [e, -e]
    for p in phases[1:]:
        h = cmath.exp(1j * p)
        ca = [x.conjugate() for x in reversed(a)]
        cb = [x.conjugate() for x in reversed(b)]
        a, b = (
            [x + y + h * (u - v) for x, y, u, v in zip([0j, *a], [*a, 0j], [0j, *cb], [*cb, 0j])],
            [x + y - h * (u - v) for x, y, u, v in zip([0j, *b], [*b, 0j], [0j, *ca], [*ca, 0j])],
        )
    return np.array((a, b)) * 2.0 ** -len(phases)


def _scalar_errors(seq, eps):
    # Largest deviations of ``_propagator_at`` from compose (values) and
    # from a central difference of compose (eps-derivatives).
    rows = analysis._propagator_polynomial(seq).tolist()
    h = 1e-6
    value = slope = 0.0
    for e in eps:
        a, b, da, db = analysis._propagator_at(rows, e)
        assert all(type(v) is complex for v in (a, b, da, db))
        u, up, down = compose(seq, e), compose(seq, e + h), compose(seq, e - h)
        value = max(value, abs(a - u.a), abs(b - u.b))
        slope = max(slope, abs(da - (up.a - down.a) / (2 * h)),
                    abs(db - (up.b - down.b) / (2 * h)))
    return value, slope


@given(
    phases=st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=40),
    phi=st.floats(0.0, 2 * math.pi),
    eps=st.lists(st.floats(-0.9, 0.9), min_size=1, max_size=8),
)
@settings(max_examples=60, deadline=None)
def test_interpolant_is_compose_on_arbitrary_trains(phases, phi, eps):
    # Any train, root or not, odd lengths and unreduced phases included,
    # is a trigonometric polynomial of degree N in the pulse area.
    seq = CompositeSequence(tuple(phases), phi)
    assert _interpolant_error(seq, np.array(eps)) <= 1e-14
    # |a|^2 + |b|^2 = 1 on the unit circle, so by Parseval the squared
    # coefficients sum to 1.
    coeffs = analysis._propagator_polynomial(seq)
    assert abs(np.sum(np.abs(coeffs) ** 2) - 1.0) <= 1e-14
    # The half-row loop is the full recurrence, whose sums and negations
    # keep the palindromes exact: equal results.
    assert np.array_equal(coeffs, _reference_polynomial(seq.phases))
    # The scalar Horner evaluator against compose, and its derivative
    # against a central difference of compose.
    value, slope = _scalar_errors(seq, eps)
    assert value <= 1e-14
    assert slope <= 1e-7


def test_interpolant_is_compose_on_every_verify_train():
    eps = np.linspace(-0.9, 0.9, 801)
    for seq in _verify_trains():
        assert _interpolant_error(seq, eps) <= 1e-14, seq.label
        value, slope = _scalar_errors(seq, eps[::40])
        assert value <= 1e-14 and slope <= 1e-7, seq.label


def test_polynomial_of_a_train_past_a_thousand_pulses_stays_exact():
    # The doubled coefficients of 1100 pulses would reach 2^1100, beyond
    # the double range, and 2^-1100 underflows: the rescaling every
    # 512 pulses keeps them finite and exact.
    rng = np.random.default_rng(11)
    seq = CompositeSequence(tuple(rng.uniform(0.0, 2 * math.pi, 1100)), math.pi)
    coeffs = analysis._propagator_polynomial(seq)
    assert abs(np.sum(np.abs(coeffs) ** 2) - 1.0) <= 1e-14
    assert _interpolant_error(seq, np.linspace(-0.9, 0.9, 7)) <= 1e-12


def test_grid_basis_is_the_direct_exp_product_cached_per_pulse_count():
    eps = np.linspace(0.0, 0.9, 65)
    assert analysis._GRID_EPS == tuple(eps.tolist())
    for n in (1, 2, 7, 18):
        basis = analysis._grid_basis(n)
        ik = 0.5j * math.pi * np.arange(-n, n + 1, 2)
        direct = np.exp(np.multiply.outer(1.0 + eps, ik))
        assert basis.shape == (65, n + 1)
        assert np.array_equal(basis.view(float), direct.view(float))
        assert not basis.flags.writeable
        with pytest.raises(ValueError):
            basis[0, 0] = 0.0
        assert analysis._grid_basis(n) is analysis._grid_basis(n)
    assert analysis._grid_basis(4).shape != analysis._grid_basis(6).shape


def _reference_error_range(seq, infidelity, threshold):
    # The range search before the exact polynomial: the first grid of 64
    # cells, then the first cell that reaches the threshold regridded into
    # 64 until it is at most 1e-8 wide; epsilon0 is its midpoint.
    target = target_gate(seq.target_phi)

    def curve(eps):
        return 1.0 - infidelity(compose(seq, eps), target)

    eps = np.linspace(0.0, 0.9, 65)
    vals = curve(eps)
    flagged = bool(np.any(np.diff(vals) < -1e-12))
    k = int(np.argmax(vals >= threshold))
    assert vals[0] < threshold <= vals[k]
    lo, hi = float(eps[k - 1]), float(eps[k])
    while hi - lo > 1e-8:
        eps = np.linspace(lo, hi, 65)
        above = np.append(curve(eps[1:-1]) >= threshold, True)
        k = int(np.argmax(above))
        lo, hi = float(eps[k]), float(eps[k + 1])
    return 0.5 * (lo + hi), flagged


def _assert_matches_the_reference(seq, threshold=1e-4):
    # The trace range is the Frobenius search at the root of its threshold.
    for search, fidelity in ((threshold, frobenius_fidelity),
                             (math.sqrt(threshold), trace_fidelity)):
        rng = high_fidelity_range(seq, search)
        eps0, flagged = _reference_error_range(seq, fidelity, threshold)
        assert abs(rng.epsilon0 - eps0) <= 1e-9, (seq.label, fidelity.__name__)
        assert rng.flagged == flagged, (seq.label, fidelity.__name__)


def test_range_matches_the_regrid_reference_on_every_verify_train():
    for seq in _verify_trains():
        _assert_matches_the_reference(seq)


def test_range_matches_the_regrid_reference_on_the_builders():
    rng = np.random.default_rng(14)
    for _ in range(6):
        phi = rng.uniform(0.05, 1.95) * math.pi
        _assert_matches_the_reference(two_pulse(phi))
        for build, variants in ((four_pulse, 4), (six_pulse, 4), (eight_pulse, 6)):
            _assert_matches_the_reference(build(phi, int(rng.integers(1, variants + 1))))


@pytest.mark.parametrize("threshold", [1e-4, 0.2])
def test_range_matches_the_regrid_reference_on_a_non_monotone_profile(threshold):
    _assert_matches_the_reference(
        spec_parse("phi=1.67;phases=0.0,0.49,0.65,0.165,0.655,0.815"), threshold
    )


def _range_record(caplog, seq, threshold=1e-4):
    # The one DEBUG record a range search logs, as a dict of its fields.
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="cpgate.analysis"):
        high_fidelity_range(seq, threshold)
    [record] = caplog.records
    assert record.levelno == logging.DEBUG and record.name == "cpgate.analysis"
    return dict(re.findall(r"(\w+)=(\S+)", record.getMessage()))


def test_range_newton_takes_few_evaluations(caplog):
    # Bisection alone would take ~40 evaluations to shrink a first-grid
    # cell to rounding noise; Newton's derivative keeps it to a handful
    # (at most 6 on these trains).
    for seq in _verify_trains():
        for threshold in (1e-4, 1e-2):
            fields = _range_record(caplog, seq, threshold)
            assert fields["path"] == "half", seq.label
            assert 1 <= int(fields["evals"]) <= 10, (seq.label, threshold)


def test_range_logs_its_search(caplog, capsys):
    seq = spec_parse("phi=1.67;phases=0.0,0.49,0.65,0.165,0.655,0.815")
    fields = _range_record(caplog, seq, 0.2)
    assert fields["path"] == "half"
    assert float(fields["threshold"]) == 0.2
    assert 1 <= int(fields["cell"]) <= 64
    assert abs(float(fields["step"])) < 1e-6
    assert fields["flagged"] == "True"
    assert _range_record(caplog, _cat("Z10"))["flagged"] == "False"
    # Nothing is printed by default.
    caplog.clear()
    assert run(["range", "--gate", "Z10"]) == 0
    out, err = capsys.readouterr()
    assert out.startswith("epsilon0 = ") and err == ""


def test_half_path_range_matches_a_90_digit_root_on_the_named_trains(caplog):
    # Each name's range reads the half polynomial.  The reference is the
    # first crossing's root at 96 digits for the exact two-half train on
    # the float half (the second half its phases plus the mp shift), the
    # distance sqrt(1 - Re(a e^{i phi/2})) read off its full propagator,
    # which is sqrt(2) |s^p t(u)| for such a train.  The bound: t's low
    # coefficients carry the rounding of their composition in doubles, a
    # few 1e-16 absolute, so the infidelity is off by that much and eps0
    # by at most that over the threshold, relative; 5e-14 covers the
    # Newton stop at the large thresholds.  Measured: 1.5e-14, 4.6e-13,
    # 2.8e-11 and 2.6e-9 at 1e-2..1e-8 (the Laurent path read 3.0e-14,
    # 1.8e-12, 2.8e-10 and 1.6e-8).
    with mp.workdps(96):
        for name in catalog.names():
            seq = _cat(name)
            half = [float(p) for p in first_half(seq)]
            phi = float(seq.target_phi)
            shift = mp.pi - mp.mpf(phi) / 2
            phases = half + [p + shift for p in half]
            rot = mp.expj(mp.mpf(phi) / 2)

            def excess(eps, threshold):
                a, _ = mp_propagator(phases, eps)
                return mp.sqrt(1 - mp.re(a * rot)) - threshold

            for threshold in (1e-2, 1e-4, 1e-6, 1e-8):
                caplog.clear()
                with caplog.at_level(logging.DEBUG, logger="cpgate.analysis"):
                    x = high_fidelity_range(seq, threshold).epsilon0
                assert "path=half " in caplog.records[0].getMessage(), name
                bracket = (mp.mpf(x) * (1 - mp.mpf(1e-6)), mp.mpf(x) * (1 + mp.mpf(1e-6)))
                f = functools.partial(excess, threshold=mp.mpf(threshold))
                assert f(bracket[0]) < 0 < f(bracket[1]), (name, threshold)
                root = mp.findroot(f, bracket, solver="anderson")
                bound = 5e-14 + 2e-16 / threshold
                assert abs(x - root) <= bound * root, (name, threshold)


# A rounded 14-pulse row (phi = pi/2) as a spec: two halves to round-off.
_ROW_SPEC = ("phi=0.5;phases=0,0,0,0,0.9961,0.9684,0.8855,"
             "0.75,0.75,0.75,0.75,1.7461,1.7184,1.6355")


def test_range_routes_on_the_round_off_of_the_two_half_structure(caplog, capsys):
    # The exact spec takes the half polynomial.  With its last phase moved
    # by 1e-6 rad (1e-6/pi in the spec's units of pi) it is no longer two
    # halves to round-off: it keeps the Laurent path and prints the range
    # of the train as given (the line the Laurent search printed before
    # the half path), not that of the exact train on its first half.
    moved = _ROW_SPEC[:-len("1.6355")] + format(1.6355 + 1e-6 / math.pi, ".17g")
    assert moved.endswith(",1.6355003183098862")
    for gate, path, line in (
        (_ROW_SPEC, "half", "epsilon0 = 0.05560, interval [0.94440pi, 1.05560pi]"),
        (moved, "laurent", "epsilon0 = 0.05553, interval [0.94447pi, 1.05553pi]"),
    ):
        assert _range_record(caplog, spec_parse(gate))["path"] == path
        assert run(["range", "--gate", gate]) == 0
        assert capsys.readouterr() == (line + "\n", "")


def test_odd_length_train_keeps_the_laurent_path(monkeypatch):
    # No odd train is two halves: the range composes its Laurent pair, and
    # an odd count of pi pulses is off-diagonal at eps = 0 (infidelity 1).
    composed = []
    laurent = analysis._propagator_polynomial

    def spy(seq):
        composed.append(seq)
        return laurent(seq)

    monkeypatch.setattr(analysis, "_propagator_polynomial", spy)
    seq = CompositeSequence((0.0, 1.0, 2.0), 1.0)
    assert first_half(seq, 1e-12) is None
    with pytest.raises(AnalysisError, match=r"^infidelity 1 at eps = 0 is not below threshold$"):
        high_fidelity_range(seq, 0.2)
    assert composed == [seq]
    # A two-half train composes none.
    high_fidelity_range(_cat("Z8"))
    assert composed == [seq]
