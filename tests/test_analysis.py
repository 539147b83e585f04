import cmath
import functools
import logging
import math
import re
import struct
import warnings
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

from make_corpus import long_half_spec
from mp_oracle import mp_propagator, slope_epsilons
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


def test_csv_bytes_of_integers_in_fixed_notation_keep_their_zeros():
    # An integer shows X + 1 digits, its trailing zeros included.
    values = []
    for v in (10.0, 100.0, 120.0, 1e6, 1e15, 1.0, 7.0, 2**53 / 16):
        values += _neighbours(v, 2)
    values += [-v for v in values]
    values += [0.0] * (-len(values) % 3)
    rows = np.reshape(values, (-1, 3)).tolist()
    assert _csv_bytes_of(rows) == _csv_row_by_row(rows)


def test_csv_bytes_with_the_point_inside_the_digits():
    # "%.17g" of these puts the point after digit X + 1 for X = 0..15: each
    # value is formatted on its own and spliced between encoded ones.
    digits = "12345678901234567"
    inside = [float(digits[:x + 1] + "." + digits[x + 1:]) for x in range(16)]
    inside += [float(f"{10**x}.5") for x in range(16)]
    values = [v for x in inside for v in (x, 0.25, -x, 1e-3)]
    values += [0.0] * (-len(values) % 3)
    rows = np.reshape(values, (-1, 3)).tolist()
    assert _csv_bytes_of(rows) == _csv_row_by_row(rows)


@pytest.mark.parametrize("rows", [1, analysis._CSV_BLOCK_ROWS, analysis._CSV_BLOCK_ROWS + 1])
def test_csv_bytes_of_one_row_and_of_a_block_boundary(rows):
    # Values of either sign from 1e-5 to 1e17, a fifth of them integers:
    # every lead, encoded fields and fallbacks, over a single row, a whole
    # block and one row past it.
    rng = np.random.default_rng(rows)
    table = rng.choice((-1.0, 1.0), (rows, 3)) * 10.0 ** rng.uniform(-5, 17, (rows, 3))
    integers = rng.random((rows, 3)) < 0.2
    table[integers] = np.round(table[integers])
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
    grid = slope_epsilons()
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


def _scalar_error(seq, eps):
    # Largest deviation of ``_train_at`` from the distance of compose.
    fa = target_gate(seq.target_phi).a
    pulses = [-1j * cmath.exp(1j * float(p)) for p in seq.phases]

    def distance(e):
        u = compose(seq, e)
        return math.sqrt(0.5 * (abs(u.a - fa) ** 2 + abs(u.b) ** 2))

    value = 0.0
    for e in eps:
        dist = analysis._train_at(pulses, fa, float(e))
        assert type(dist) is float
        value = max(value, abs(dist - distance(e)))
    return value


@given(
    phases=st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=40),
    phi=st.floats(0.0, 2 * math.pi),
    eps=st.lists(st.floats(-0.9, 0.9), min_size=1, max_size=8),
)
@settings(max_examples=60, deadline=None)
def test_train_evaluator_is_compose_on_arbitrary_trains(phases, phi, eps):
    # Any train, root or not, odd lengths and unreduced phases included:
    # the scalar evaluator against compose.
    value = _scalar_error(CompositeSequence(tuple(phases), phi), eps)
    assert value <= 1e-14


def test_train_evaluator_is_compose_on_every_verify_train():
    eps = np.linspace(-0.9, 0.9, 801)[::40]
    for seq in _verify_trains():
        value = _scalar_error(seq, eps)
        assert value <= 1e-14, seq.label


def test_first_grid_is_linspace():
    assert analysis._GRID_EPS == tuple(np.linspace(0.0, 0.9, 65).tolist())


def test_range_of_a_half_past_the_doubles_reads_the_train(caplog):
    # 900 held zeros: the zero prefix's integer coefficients pass the range
    # of doubles, which read them as infinite.  The half is longer than
    # _RANGE_HALF, so the search reads the train as given and finds its
    # range, with no OverflowError and no warning.
    seq = structured_sequence([0.0] * 899 + [0.3, 1.1, 0.7], 0.5 * math.pi)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _range_record(caplog, seq, 0.2)["path"] == "train"
        assert 0.0 < high_fidelity_range(seq, 0.2).epsilon0 < analysis._EPS_MAX


def test_range_of_a_train_past_a_thousand_pulses_raises_no_warning():
    # 1100 pulses: compose and the scalar evaluator stay finite, and the
    # search returns or fails as a numerical failure, with no warning.
    rng = np.random.default_rng(11)
    seq = CompositeSequence(tuple(rng.uniform(0.0, 2 * math.pi, 1100)), math.pi)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            high_fidelity_range(seq, 0.45)
        except AnalysisError:
            pass
        value = _scalar_error(seq, np.linspace(-0.9, 0.9, 7))
    assert value <= 1e-12


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


def test_range_secant_takes_few_evaluations(caplog):
    # Bisection alone would take ~50 evaluations to shrink a first-grid
    # cell to a few units in the last place; the secant keeps it to a
    # handful (at most 9 on these trains at 1e-4 and 1e-2).  At 1e-6 and
    # 1e-8 the infidelity near the crossing is at its rounding, where the
    # secant divides by the difference of two values and may fall back
    # to the midpoint: at most 14 and 18.
    for seq in _verify_trains():
        for threshold, most in ((1e-4, 10), (1e-2, 10), (1e-6, 24), (1e-8, 24)):
            fields = _range_record(caplog, seq, threshold)
            assert fields["path"] == "half", seq.label
            assert 1 <= int(fields["evals"]) <= most, (seq.label, threshold)


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
    # secant stop at the large thresholds.  Measured: 1.5e-14, 4.6e-13,
    # 2.8e-11 and 2.6e-9 at 1e-2..1e-8.
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


# A rounded 14-pulse row (phi = pi/2) as a spec: two halves to round-off;
# and the row with its last phase moved by 1e-6 rad (1e-6/pi in the spec's
# units of pi), which is not.
_ROW_SPEC = ("phi=0.5;phases=0,0,0,0,0.9961,0.9684,0.8855,"
             "0.75,0.75,0.75,0.75,1.7461,1.7184,1.6355")
_MOVED_ROW_SPEC = _ROW_SPEC[:-len("1.6355")] + format(1.6355 + 1e-6 / math.pi, ".17g")


def test_range_routes_on_the_round_off_of_the_two_half_structure(caplog, capsys):
    # The exact spec takes the half polynomial.  With its last phase moved
    # by 1e-6 rad (1e-6/pi in the spec's units of pi) it is no longer two
    # halves to round-off: it takes the train path and prints the range of
    # the train as given, not that of the exact train on its first half.
    assert _MOVED_ROW_SPEC.endswith(",1.6355003183098862")
    for gate, path, line in (
        (_ROW_SPEC, "half", "epsilon0 = 0.05560, interval [0.94440pi, 1.05560pi]"),
        (_MOVED_ROW_SPEC, "train", "epsilon0 = 0.05553, interval [0.94447pi, 1.05553pi]"),
    ):
        assert _range_record(caplog, spec_parse(gate))["path"] == path
        assert run(["range", "--gate", gate]) == 0
        assert capsys.readouterr() == (line + "\n", "")


def _off_structure_trains():
    # A seeded set of trains that are not two halves, each with the
    # thresholds at which it has a range: the moved row (infidelity 7.1e-7
    # at eps = 0), the names with one phase moved by 1e-11 to 1e-9 rad,
    # and random trains of 4 to 40 pulses at the gate they make at eps = 0
    # (an even train of pi pulses is diagonal there).
    rng = np.random.default_rng(44)
    cases = [(spec_parse(_MOVED_ROW_SPEC), (1e-4, 1e-6))]
    for name in catalog.names():
        seq = _cat(name)
        phases = [float(p) for p in seq.phases]
        k = int(rng.integers(len(phases)))
        phases[k] += float(rng.choice((-1.0, 1.0))) * 10 ** rng.uniform(-11, -9)
        cases.append((CompositeSequence(tuple(phases), seq.target_phi, label=name),
                      (1e-4, 1e-6, 1e-8)))
    for _ in range(27):
        phases = tuple(rng.uniform(0.0, 2 * math.pi, 2 * int(rng.integers(2, 21))).tolist())
        a0 = complex(compose(CompositeSequence(phases, 1.0), 0.0).a)
        cases.append((CompositeSequence(phases, -2 * cmath.phase(a0), label=f"random {len(phases)}"),
                      (1e-4, 1e-6, 1e-8)))
    return cases


def _excess(phases, fa, threshold, eps):
    # The distance of the train as given at the working precision, less
    # the threshold.
    a, b = mp_propagator(phases, eps)
    return mp.sqrt((abs(a - fa) ** 2 + abs(b) ** 2) / 2) - threshold


def test_train_path_range_matches_a_60_digit_root_off_the_structure(caplog):
    # The reference is the first crossing's root at 60 digits of the
    # distance sqrt((|a - fa|^2 + |b|^2) / 2) of the train as given, read
    # off its propagator from ``mp_oracle``.  The bound: the float pair
    # (a, b) carries about one rounding of 1.1e-16 per pulse, so the
    # distance is off by some N 1e-16 and eps0 by that over the distance's
    # slope at the root; 4e-16 per pulse leaves 3x room over the 1.3e-16
    # seen on 300 such trains, and 5e-14 relative covers the secant stop.
    # Measured on this set: at most 1.0e-16 per pulse; relative, 9.8e-12,
    # 6.9e-10 and 5.6e-8 at 1e-4, 1e-6 and 1e-8, the largest on random
    # trains of order 0, which cross at an eps near the threshold.
    with mp.workdps(60):
        for seq, thresholds in _off_structure_trains():
            assert first_half(seq, 1e-12) is None, seq.label
            fa = mp.expj(-mp.mpf(seq.target_phi) / 2)
            for threshold in thresholds:
                caplog.clear()
                with caplog.at_level(logging.DEBUG, logger="cpgate.analysis"):
                    x = high_fidelity_range(seq, threshold).epsilon0
                assert "path=train " in caplog.records[0].getMessage(), seq.label
                f = functools.partial(_excess, seq.phases, fa, mp.mpf(threshold))
                bracket = (mp.mpf(x) * (1 - mp.mpf(1e-6)), mp.mpf(x) * (1 + mp.mpf(1e-6)))
                assert f(bracket[0]) < 0 < f(bracket[1]), (seq.label, threshold)
                root = mp.findroot(f, bracket, solver="anderson")
                slope = mp.diff(f, root)
                bound = 5e-14 * root + 4e-16 * len(seq) / slope
                assert abs(x - root) <= bound, (seq.label, threshold)


def test_range_reads_the_half_polynomial_up_to_the_longest_half(caplog):
    # The corpus's seeded 11-pulse half and a half of _RANGE_HALF pulses
    # read t; one pulse more takes the train path.
    assert _range_record(caplog, spec_parse(long_half_spec()), 0.2)["path"] == "half"
    for pulses, path in ((analysis._RANGE_HALF, "half"), (analysis._RANGE_HALF + 1, "train")):
        rel = [0.0] * (pulses - 4) + [0.3 * math.pi, 1.1 * math.pi, 0.7 * math.pi]
        seq = structured_sequence(rel, 0.5 * math.pi)
        assert len(first_half(seq, 1e-12)) == pulses
        assert _range_record(caplog, seq, 0.2)["path"] == path


@pytest.mark.parametrize("zeros", [90, 130, 200])
def test_range_of_a_long_half_matches_the_60_digit_crossing(zeros, caplog, capsys):
    # A half of held zeros then 0.3, 1.1, 0.7 (units of pi): along the
    # zeros its u-coefficients grow like Chebyshev's, and t composed in
    # doubles cancelled (eps0 = 0.26042 at 90 zeros against 0.3025).  A
    # half longer than _RANGE_HALF takes the train path.  The reference is
    # the first crossing at 60 digits on the search's grid.
    half = [0.0] * zeros + [0.3, 1.1, 0.7]
    spec = "phi=0.5;phases=" + ",".join(
        format(p, ".17g") for p in half + [p + 0.75 for p in half])
    seq = spec_parse(spec)
    assert len(first_half(seq, 1e-12)) > analysis._RANGE_HALF
    assert _range_record(caplog, seq, 0.2)["path"] == "train"
    threshold = mp.mpf(0.2)
    with mp.workdps(60):
        fa = mp.expj(-mp.mpf(seq.target_phi) / 2)
        grid = [mp.sqrt((abs(a - fa) ** 2 + abs(b) ** 2) / 2)
                for a, b in mp_propagator(seq.phases, analysis._GRID_EPS)]
        k = next(k for k, v in enumerate(grid) if v >= threshold)
        f = functools.partial(_excess, seq.phases, fa, threshold)
        root = mp.findroot(f, analysis._GRID_EPS[k - 1:k + 1], solver="anderson")
    assert run(["range", "--gate", spec, "--threshold", "0.2"]) == 0
    assert capsys.readouterr().out.startswith(f"epsilon0 = {float(root):.5f}, ")


def _failed_range_record(caplog, seq, threshold):
    # The one DEBUG record of a range search that raises AnalysisError, as
    # a dict of its fields, and the error's message.
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="cpgate.analysis"):
        with pytest.raises(AnalysisError) as raised:
            high_fidelity_range(seq, threshold)
    [record] = caplog.records
    assert record.levelno == logging.DEBUG and record.name == "cpgate.analysis"
    return dict(re.findall(r"(\w+)=(\S+)", record.getMessage())), str(raised.value)


@pytest.mark.parametrize(
    "seq, path",
    [
        # An odd count of pi pulses is off-diagonal at eps = 0.
        (CompositeSequence((0.0, 1.0, 2.0), 1.0), "train"),
        # A two-half train that misses its gate at zero error.
        (spec_parse("phi=1.46;phases=0.0,0.56,0.27,0.83"), "half"),
    ],
)
def test_a_range_search_failing_at_zero_error_logs_its_record(caplog, seq, path):
    fields, message = _failed_range_record(caplog, seq, 0.2)
    assert fields["path"] == path
    assert float(fields["threshold"]) == 0.2
    assert fields["eps"] == "0"
    assert float(fields["infidelity"]) >= 0.2
    assert message == f"infidelity {fields['infidelity']} at eps = 0 is not below threshold"


def test_a_range_search_staying_below_threshold_logs_its_peak(caplog):
    # A T gate's infidelity peaks below 0.45 (sqrt(2) sin(pi/16) < 0.3).
    fields, message = _failed_range_record(caplog, _cat("T10"), 0.45)
    assert fields["path"] == "half"
    assert float(fields["threshold"]) == 0.45
    assert float(fields["eps"]) == analysis._EPS_MAX
    assert 0.0 < float(fields["infidelity"]) < 0.45
    assert message == f"infidelity stays below threshold up to eps = {analysis._EPS_MAX}"


@pytest.mark.parametrize(
    "seq",
    [
        CompositeSequence((math.nan, 0.0, 1.0, 2.0), 1.0),
        CompositeSequence((0.0, 1.0, 2.0, math.inf), 1.0),
        CompositeSequence((0.0, 1.0, -math.inf), 1.0),
        CompositeSequence((0.0, 1.0), math.nan),
    ],
)
def test_range_of_a_non_finite_train_is_a_value_error(seq):
    # NaN compares false with the threshold everywhere, which read as a
    # train whose infidelity stays below it.
    with pytest.raises(ValueError, match="^non-finite phase or angle$"):
        high_fidelity_range(seq)


def test_odd_length_train_takes_the_train_path(monkeypatch):
    # No odd train is two halves: the range reads the train as given, one
    # scalar composition per grid point, and an odd count of pi pulses is
    # off-diagonal at eps = 0 (infidelity 1).
    read = []
    train = analysis._train_at

    def spy(pulses, fa, eps):
        read.append((len(pulses), eps))
        return train(pulses, fa, eps)

    monkeypatch.setattr(analysis, "_train_at", spy)
    seq = CompositeSequence((0.0, 1.0, 2.0), 1.0)
    assert first_half(seq, 1e-12) is None
    with pytest.raises(AnalysisError, match=r"^infidelity 1 at eps = 0 is not below threshold$"):
        high_fidelity_range(seq, 0.2)
    grid = [(3, eps) for eps in analysis._GRID_EPS]
    assert read == grid
    # A two-half train reads none.
    high_fidelity_range(_cat("Z8"))
    assert read == grid


@pytest.mark.parametrize("threshold, name", [
    *((threshold, name) for threshold in ("1e-13", "1e-14") for name in ("Z8", "S8", "T8")),
    # Far below Z8's float floor, where a secant step formed as
    # f (x - x0) / (f - f0) underflowed to -0 and stopped the search at
    # its third evaluation.
    ("1e-300", "Z8"),
])
def test_range_below_the_last_place_of_the_threshold_finds_the_crossing(name, threshold,
                                                                         monkeypatch, capsys):
    # The first chord lands where the infidelity is below threshold 2^-53,
    # so infidelity - threshold reads exactly -threshold there and at the
    # next iterate.  That repeat is the floor, not the rounding staircase
    # at a crossing: the search halves its bracket in log eps and goes on,
    # past its third evaluation of the half.  At the printed eps0 the
    # 40-digit infidelity of the train as given is the threshold within 2x
    # (the first chord's point read 1e-18 to 5e-20 of it).
    read = []
    half_at = analysis._half_at

    def spy(t, p, eps):
        read.append(eps)
        return half_at(t, p, eps)

    monkeypatch.setattr(analysis, "_half_at", spy)
    assert run(["range", "--gate", name, "--threshold", threshold]) == 0
    assert len(read) > 3
    if threshold == "1e-300":
        # The float train's infidelity at eps = 0 is above 1e-300: no eps0
        # is its crossing (ROADMAP, refusal of thresholds below it).
        return
    eps0 = re.match(r"epsilon0 = (\S+),", capsys.readouterr().out).group(1)
    seq = _cat(name)
    with mp.workdps(40):
        a, b = mp_propagator(seq.phases, mp.mpf(eps0))
        fa = mp.expj(-mp.mpf(seq.target_phi) / 2)
        ratio = mp.sqrt((abs(a - fa) ** 2 + abs(b) ** 2) / 2) / mp.mpf(threshold)
    assert 0.5 <= ratio <= 2, (name, threshold, eps0)


def _builder_trains():
    # Seeded 2-, 4-, 6- and 8-pulse builder trains at angles off the tables.
    rng = np.random.default_rng(45)
    seqs = []
    for _ in range(5):
        phi = rng.uniform(0.05, 1.95) * math.pi
        seqs.append(two_pulse(phi))
        for build, variants in ((four_pulse, 4), (six_pulse, 4), (eight_pulse, 6)):
            seqs.append(build(phi, int(rng.integers(1, variants + 1))))
    return seqs


def _composed_profile(seq, eps):
    # Both fidelities of the train as ``compose`` multiplies it out.
    target = target_gate(seq.target_phi)
    u = compose(seq, eps)
    return frobenius_fidelity(u, target), trace_fidelity(u, target)


def _sweep_path(caplog, seq, *grid):
    # The profile of a sweep and the path its one DEBUG record names.
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="cpgate.analysis"):
        profile = sweep(seq, *grid)
    [record] = caplog.records
    assert record.levelno == logging.DEBUG and record.name == "cpgate.analysis"
    return profile, dict(re.findall(r"(\w+)=(\S+)", record.getMessage()))["path"]


def test_sweep_of_a_two_half_train_reads_its_half_polynomial(monkeypatch, caplog):
    # The names, the polished rows and the builders compose nothing.  The
    # bound: on the names compose is within 1.4e-15 of the 50-digit
    # fidelities and t within 2.5e-16 (test below), so the two differ by
    # at most their sum.  Measured: 1.3e-15 (Frobenius) and 1.7e-15
    # (trace).
    def no_compose(seq, epsilon):
        raise AssertionError(f"compose called on {seq.label}")

    monkeypatch.setattr(analysis, "compose", no_compose)
    for seq in _verify_trains() + _builder_trains():
        profile, path = _sweep_path(caplog, seq, -0.4, 0.4, 801)
        assert path == "half", seq.label
        frobenius, trace = _composed_profile(seq, profile.epsilons)
        assert np.max(np.abs(profile.frobenius - frobenius)) <= 3e-15, seq.label
        assert np.max(np.abs(profile.trace - trace)) <= 3e-15, seq.label


@pytest.mark.parametrize("seq", [
    # No odd train is two halves.
    CompositeSequence((0.0, 1.0, 2.0), 1.0),
    # A name with one phase moved by 1e-6 rad is off the structure.
    CompositeSequence(
        tuple(float(p) + (1e-6 if k == 3 else 0.0) for k, p in enumerate(_cat("Z8").phases)),
        _cat("Z8").target_phi, label="Z8 moved",
    ),
])
def test_sweep_of_any_other_train_composes_it(monkeypatch, caplog, seq):
    # The train as given, bit for bit the fidelities of compose.
    composed = []
    train = analysis.compose

    def spy(seq, epsilon):
        composed.append(seq)
        return train(seq, epsilon)

    monkeypatch.setattr(analysis, "compose", spy)
    assert first_half(seq, 1e-12) is None
    profile, path = _sweep_path(caplog, seq, -0.4, 0.4, 81)
    assert path == "train" and composed == [seq]
    frobenius, trace = _composed_profile(seq, profile.epsilons)
    assert np.array_equal(profile.frobenius, frobenius)
    assert np.array_equal(profile.trace, trace)


@pytest.mark.parametrize("name", ["Z4", "S10", "T18"])
def test_sweep_and_range_read_one_curve(name):
    # At range's eps0 the sweep's infidelity is the threshold: both read
    # the half polynomial, and the secant stop leaves the infidelity at
    # its rounding.
    seq = _cat(name)
    for threshold in (1e-2, 1e-4, 1e-6, 1e-8):
        x = high_fidelity_range(seq, threshold).epsilon0
        profile = sweep(seq, x, x + 0.1, 2)
        assert profile.epsilons[0] == x
        assert abs(1.0 - profile.frobenius[0] - threshold) <= 1e-15, (name, threshold)


def _oracle_errors(seq, profile):
    # Largest |error| of a sweep's Frobenius and trace fidelities against
    # the exact two-half train on the float half (the second half its
    # phases plus the mp shift), multiplied out at 50 digits.
    with mp.workdps(50):
        half = [float(p) for p in first_half(seq)]
        phi = mp.mpf(float(seq.target_phi))
        phases = half + [p + mp.pi - phi / 2 for p in half]
        fa = mp.expj(-phi / 2)
        errors = [0, 0]
        for (a, b), f, t in zip(mp_propagator(phases, profile.epsilons.tolist()),
                                profile.frobenius.tolist(), profile.trace.tolist()):
            d2 = (abs(a - fa) ** 2 + abs(b) ** 2) / 2
            errors = [max(errors[0], abs(f - (1 - mp.sqrt(d2)))),
                      max(errors[1], abs(t - (1 - d2)))]
        return [float(e) for e in errors]


def test_half_path_sweep_is_no_less_accurate_than_compose_on_every_name():
    # t is composed in fixed point and rounded once, so what is left is
    # the rounding of sin, Horner and 1 - d: measured at most 1.4e-16
    # (Frobenius, T16) and 2.3e-16 (trace, Z2), against compose's 1.2e-16
    # to 1.0e-15 and 2.0e-16 to 1.4e-15 per name.
    for name in catalog.names():
        seq = _cat(name)
        profile = sweep(seq, -0.4, 0.4, 33)
        frobenius, trace = _composed_profile(seq, profile.epsilons)
        half = _oracle_errors(seq, profile)
        train = _oracle_errors(seq, FidelityProfile(profile.epsilons, frobenius, trace))
        assert half[0] <= min(train[0], 2.5e-16), (name, half, train)
        assert half[1] <= min(train[1], 3.5e-16), (name, half, train)


def _random_two_half_train(pulses, seed):
    rng = np.random.default_rng(seed)
    rel = rng.uniform(-math.pi, math.pi, pulses // 2 - 1).tolist()
    return structured_sequence(rel, rng.uniform(0.1, 1.9) * math.pi)


def test_sweep_composes_a_two_half_train_whose_horner_terms_exceed_one(monkeypatch, caplog):
    # A random 18-pulse half: |t_k| u^k |s|^p sums to 9.8 at |eps| = 0.4,
    # where Horner on t would cancel more than compose loses.  On a grid
    # of small errors the same train reads t.
    seq = _random_two_half_train(18, 45)
    t, p = analysis._sweep_polynomial(seq)
    top = math.sin(0.2 * math.pi)
    assert top ** p * sum(abs(c) * top ** (2 * k) for k, c in enumerate(t)) > 1
    profile, path = _sweep_path(caplog, seq, -0.4, 0.4, 81)
    assert path == "train"
    frobenius, trace = _composed_profile(seq, profile.epsilons)
    assert np.array_equal(profile.frobenius, frobenius)
    assert np.array_equal(profile.trace, trace)
    assert _sweep_path(caplog, seq, -0.05, 0.05, 81)[1] == "half"


def test_sweep_of_a_long_two_half_train_keeps_compose_accuracy(caplog):
    # A 120-pulse two-half train is longer than any half the sweep reads
    # through t, whose Horner terms reach 1e4 there and lose up to 8e-13.
    # Composed, it is within a rounding per pulse (N 2^-53) of the
    # 50-digit train; measured 3.3e-15 (Frobenius) and 6.1e-15 (trace).
    seq = _random_two_half_train(120, 120)
    assert first_half(seq, 1e-12) is not None
    assert analysis._sweep_polynomial(seq) is None
    profile, path = _sweep_path(caplog, seq, -0.4, 0.4, 17)
    assert path == "train"
    bound = len(seq) * 2.0 ** -53
    assert max(_oracle_errors(seq, profile)) <= bound
