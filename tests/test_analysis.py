import functools
import logging
import math
import re

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpgate import analysis, catalog, precise, solver
from cpgate.cli import run, spec_parse
from cpgate.analysis import (
    AnalysisError,
    closed_form_fidelity,
    high_fidelity_range,
    order_slope,
    sweep,
    trace_range,
    verify_order,
    write_csv,
)
from cpgate.sequences import (
    HalfSequenceSpec,
    eight_pulse,
    four_pulse,
    six_pulse,
    structured_sequence,
    two_pulse,
)
from cpgate.su2 import (
    CompositeSequence,
    compose,
    frobenius_fidelity,
    target_gate,
    trace_fidelity,
)

from mp_oracle import mp_propagator


def _cat(name):
    return catalog.to_sequence(catalog.get(name))


def test_sweep_validation():
    seq = two_pulse(math.pi)
    with pytest.raises(ValueError, match="steps"):
        sweep(seq, -0.1, 0.1, 1)
    with pytest.raises(ValueError, match="eps_min"):
        sweep(seq, 0.2, 0.1, 10)


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


def test_verify_order_on_analytic_and_catalog_trains():
    assert verify_order(two_pulse(math.pi)) == 0
    assert verify_order(_cat("Z8")) == 3


def test_order_slope_is_close_to_integer():
    slope, peak = order_slope(_cat("Z8"))
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


@pytest.mark.parametrize("threshold", [1e-4, 1e-2])
def test_trace_range_is_the_frobenius_search_at_the_root_of_the_threshold(threshold):
    for name in ("Z4", "S6", "T18"):
        got = trace_range(_cat(name), threshold)
        want = high_fidelity_range(_cat(name), math.sqrt(threshold))
        assert got.threshold == threshold
        assert (got.epsilon0, got.lower, got.upper, got.flagged) == (
            want.epsilon0, want.lower, want.upper, want.flagged
        )


def test_trace_ranges_match_known_values():
    assert trace_range(_cat("Z4")).epsilon0 == pytest.approx(0.064, abs=5e-4)
    assert trace_range(_cat("S4")).epsilon0 == pytest.approx(0.087, abs=5e-4)
    assert trace_range(_cat("T4")).epsilon0 == pytest.approx(0.122, abs=5e-4)


def test_range_interval_is_centered_on_nominal_area():
    rng = high_fidelity_range(_cat("Z6"))
    assert rng.lower == pytest.approx(1.0 - rng.epsilon0, abs=1e-12)
    assert rng.upper == pytest.approx(1.0 + rng.epsilon0, abs=1e-12)
    assert not rng.flagged


def test_range_threshold_validation():
    # Each search checks its own threshold against (0, 0.5).
    seq = _cat("Z4")
    for search in (high_fidelity_range, trace_range):
        for threshold in (0.0, -1e-4, 0.5, 0.6):
            with pytest.raises(ValueError, match="threshold"):
                search(seq, threshold=threshold)


@pytest.mark.parametrize("phi", [math.pi, math.pi / 2, math.pi / 4])
def test_high_fidelity_range_inverts_the_closed_form(phi):
    seqs = [two_pulse(phi)] + [
        build(phi, v)
        for build, variants in ((four_pulse, 4), (six_pulse, 4), (eight_pulse, 6))
        for v in range(1, variants + 1)
    ]
    threshold = 1e-4
    for seq in seqs:
        n = seq.order
        x = threshold / (math.sqrt(2.0) * abs(math.sin(phi / 4)))
        want = 2.0 / math.pi * math.asin(x ** (1.0 / (n + 1)))
        rng = high_fidelity_range(seq, threshold)
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


def _closed_form_epsilon0(n, phi, threshold=1e-4):
    x = threshold / (math.sqrt(2.0) * abs(math.sin(phi / 4)))
    return 2.0 / math.pi * math.asin(x ** (1.0 / (n + 1)))


def test_profile_law_holds_on_every_verify_train():
    # Every root of order n at angle phi has the closed-form profile; the
    # bound is acceptance criterion 2's.
    for seq in _verify_trains():
        worst = _closed_form_profile_error(seq, seq.order, float(seq.target_phi))
        assert worst <= 1e-12, seq.label


def test_profile_law_gives_the_range_of_every_verify_train():
    for seq in _verify_trains():
        want = _closed_form_epsilon0(seq.order, float(seq.target_phi))
        assert abs(high_fidelity_range(seq).epsilon0 - want) <= 1e-9, seq.label


def test_profile_law_holds_at_50_digits_on_every_verify_train():
    # At the 20 positive epsilons of the slope grid, the Frobenius
    # infidelity of the 50-digit propagator (``mp_oracle``) equals
    # sqrt(2)|sin(phi/4)||sin(pi eps/2)|^(n+1).
    # The polish stops at a half-train residual of 1e-45, so the deviation
    # grows with the order, from ~3e-49 at n = 0 to ~2e-27 at n = 7.
    with mp.workdps(50):
        grid, _, _ = precise._slope_grid(mp.mp.prec)
        for seq in _verify_trains():
            phi = mp.mpf(seq.target_phi)
            gate = mp.expj(-phi / 2)
            scale = mp.sqrt(2) * abs(mp.sin(phi / 4))
            for eps, (a, b) in zip(grid, mp_propagator(seq.phases, grid)):
                infid = mp.sqrt((abs(a - gate) ** 2 + abs(b) ** 2) / 2)
                law = scale * abs(mp.sin(mp.pi * eps / 2)) ** (seq.order + 1)
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
    n, phi = seq.order, float(seq.target_phi)
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
    # squared distance 1 - Re(a e^{i phi/2}): trace_range is the Frobenius
    # search at sqrt(threshold).  In doubles the two differ by half of
    # compose's unitarity defect |a|^2 + |b|^2 - 1 (up to ~2e-15 on 18
    # pulses) and by rounding, which reaches ~1.3e-15 near infidelity 2;
    # below 0.5, where every range threshold lies, rounding stays under
    # 1e-15.
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
                seq = structured_sequence(HalfSequenceSpec(sol.phases, phi))
                worst = _closed_form_profile_error(seq, n, phi)
                assert worst <= 1e-8, (n, row.phi_over_pi, sol.phases)


def test_named_trains_and_rows_are_unflagged():
    for seq in _verify_trains():
        assert not high_fidelity_range(seq).flagged, seq.label
        assert not trace_range(seq).flagged, seq.label


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
    phases=st.lists(st.floats(0.0, 2 * math.pi), min_size=1, max_size=18),
    phi=st.floats(0.0, 2 * math.pi),
    eps=st.lists(st.floats(-0.9, 0.9), min_size=1, max_size=8),
)
@settings(max_examples=60, deadline=None)
def test_interpolant_is_compose_on_arbitrary_trains(phases, phi, eps):
    # Any train, root or not, odd lengths included, is a trigonometric
    # polynomial of degree N in the pulse area.
    seq = CompositeSequence(tuple(phases), phi, 0)
    assert _interpolant_error(seq, np.array(eps)) <= 1e-14
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


def test_grid_basis_is_the_direct_exp_product_cached_per_pulse_count():
    for n in (1, 2, 7, 18):
        eps, basis = analysis._grid_basis(n)
        assert np.array_equal(eps, np.linspace(0.0, 0.9, 65))
        ik = 0.5j * math.pi * np.arange(-n, n + 1, 2)
        direct = np.exp(np.multiply.outer(1.0 + eps, ik))
        assert basis.shape == (65, n + 1)
        assert np.array_equal(basis.view(float), direct.view(float))
        assert not eps.flags.writeable and not basis.flags.writeable
        with pytest.raises(ValueError):
            basis[0, 0] = 0.0
        assert analysis._grid_basis(n) is analysis._grid_basis(n)
    assert analysis._grid_basis(4)[1].shape != analysis._grid_basis(6)[1].shape


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
    for search, fidelity in ((high_fidelity_range, frobenius_fidelity),
                             (trace_range, trace_fidelity)):
        rng = search(seq, threshold)
        eps0, flagged = _reference_error_range(seq, fidelity, threshold)
        assert abs(rng.epsilon0 - eps0) <= 1e-9, (seq.label, search.__name__)
        assert rng.flagged == flagged, (seq.label, search.__name__)


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


def _range_record(caplog, search, seq, threshold=1e-4):
    # The one DEBUG record a range search logs, as a dict of its fields.
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="cpgate.analysis"):
        search(seq, threshold)
    [record] = caplog.records
    assert record.levelno == logging.DEBUG and record.name == "cpgate.analysis"
    return dict(re.findall(r"(\w+)=(\S+)", record.getMessage()))


def test_range_newton_takes_few_evaluations(caplog):
    # Bisection alone would take ~40 evaluations to shrink a first-grid
    # cell to rounding noise; Newton's derivative keeps it to a handful
    # (at most 6 on these trains).
    for seq in _verify_trains():
        for search in (high_fidelity_range, trace_range):
            fields = _range_record(caplog, search, seq)
            assert 1 <= int(fields["evals"]) <= 10, (seq.label, search.__name__)


def test_range_logs_its_search(caplog, capsys):
    seq = spec_parse("phi=1.67;phases=0.0,0.49,0.65,0.165,0.655,0.815")
    fields = _range_record(caplog, high_fidelity_range, seq, 0.2)
    assert float(fields["threshold"]) == 0.2
    assert 1 <= int(fields["cell"]) <= 64
    assert abs(float(fields["step"])) < 1e-6
    assert fields["flagged"] == "True"
    # trace_range searches the Frobenius infidelity at the root of its
    # threshold, and the record shows that threshold.
    fields = _range_record(caplog, trace_range, _cat("Z10"), 1e-4)
    assert float(fields["threshold"]) == 0.01
    assert fields["flagged"] == "False"
    # Nothing is printed by default.
    caplog.clear()
    assert run(["range", "--gate", "Z10"]) == 0
    out, err = capsys.readouterr()
    assert out.startswith("epsilon0 = ") and err == ""
