import logging
import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cpgate import catalog, solver
from cpgate.jets import jet_compose, structured_jets
from cpgate.sequences import HalfSequenceSpec, chi_six, structured_sequence
from cpgate.su2 import CompositeSequence, compose
from cpgate.solver import (
    SolverConfig,
    SolverError,
    canonicalize,
    pinned_zero_count,
    residual,
    solve,
    transport,
)

TWO_PI = 2 * math.pi


def _circ_close(x, y, tol):
    d = np.abs((np.asarray(x) - np.asarray(y) + math.pi) % TWO_PI - math.pi)
    return float(np.max(d)) <= tol


def _full_system_defects(rel, phi):
    """The full-train conditions, an oracle that shares no code with the
    half-train residual: (the largest m! |a_m| for even m and m! |b_m|
    for odd m, m = 1..n, of the two-half train on ``rel``, each over its
    bound (N pi / 2)^m for N pulses; the zero-error gate distance
    |a_0 - e^{-i phi/2}|)."""
    n = len(rel)
    a, b = jet_compose(structured_sequence(HalfSequenceSpec(tuple(rel), phi)), n)
    bound = math.pi * (n + 1)  # N pi / 2 with N = 2(n + 1)
    conditions = max(
        (math.factorial(m) * abs(a[m] if m % 2 == 0 else b[m]) / bound**m
         for m in range(1, n + 1)),
        default=0.0,
    )
    return conditions, abs(a[0] - np.exp(-0.5j * phi))


def _assert_full_system_root(rel, phi):
    # Both defects of every class the half-train solve returned sit below
    # 2e-13 on the n = 2-4 benchmark grid and at n = 5-8 (128 restarts).
    conditions, gate = _full_system_defects(rel, phi)
    assert conditions <= 1e-12 and gate <= 1e-12, (rel, conditions, gate)


def test_residual_vanishes_at_known_first_order_root():
    # Relative phase -phi/4 solves the first-order conditions exactly.
    assert np.max(np.abs(residual([-math.pi / 4], math.pi))) < 1e-12


def test_residual_vanishes_at_known_second_order_root():
    phi = math.pi
    r = residual([0.0, TWO_PI - chi_six(phi)], phi)
    assert np.max(np.abs(r)) < 1e-11


def test_residual_of_order_zero_is_empty():
    # Two pulses have no conditions beyond the structure.
    assert residual([], math.pi).shape == (0,)


def test_residual_nonzero_off_root():
    assert np.max(np.abs(residual([0.1], math.pi))) > 1e-3


def _fitted_half_polynomial(rel, phi):
    # Coefficients of s^0 .. s^{n+1} of Im(e^{i phi/4} a_h), s = sin(pi eps/2),
    # from ``compose`` of the half at 4(n + 2) Chebyshev nodes in s, fitted
    # by least squares on the powers of the parity of n + 1: an oracle that
    # shares no code with the recurrence.
    n = len(rel)
    nodes = 4 * (n + 2)
    s = np.cos(math.pi * (np.arange(nodes) + 0.5) / nodes)
    half = CompositeSequence((0.0, *rel), phi, 0)
    values = (np.exp(0.25j * phi) * compose(half, 2 / math.pi * np.arcsin(s)).a).imag
    powers = np.arange((n + 1) % 2, n + 2, 2)
    out = np.zeros(n + 2)
    out[powers] = np.linalg.lstsq(s[:, None] ** powers, values, rcond=None)[0]
    return out


@pytest.mark.parametrize("n", range(1, 9))
def test_residual_reads_the_half_train_coefficients(n):
    # ceil(n/2) entries: the coefficients of s^{n-1}, s^{n-3}, ... >= 0 of
    # Im(e^{i phi/4} a_h), ascending.
    rng = np.random.default_rng(60 + n)
    rel = rng.uniform(0.0, TWO_PI, size=n)
    phi = rng.uniform(0.1, TWO_PI)
    want = _fitted_half_polynomial(rel, phi)[(n + 1) % 2:n:2]
    r = residual(rel, phi)
    assert r.shape == ((n + 1) // 2,)
    assert np.max(np.abs(r - want)) <= 1e-13 * max(1.0, np.max(np.abs(want)))


@given(
    rel=st.integers(0, 8).flatmap(
        lambda n: st.lists(st.floats(0.0, TWO_PI), min_size=n, max_size=n)
    ),
    phi=st.floats(-TWO_PI, TWO_PI),
)
@settings(max_examples=60, deadline=None)
def test_half_polynomial_sums_to_the_gate_term_at_s_one(rel, phi):
    # At s = 1 every pulse is -I, so a_h = (-1)^{n+1} and the coefficients
    # of Im(e^{i phi/4} a_h) sum to (-1)^{n+1} sin(phi/4) for any half,
    # root or not.
    n = len(rel)
    coeffs = (np.exp(0.25j * phi) * structured_jets(np.array([rel]).reshape(1, n))[0]).imag
    want = (-1) ** (n + 1) * math.sin(phi / 4)
    assert abs(coeffs.sum() - want) <= 1e-13 * max(1.0, np.abs(coeffs).sum())


@given(
    n=st.integers(1, 8),
    phi=st.floats(0.05, TWO_PI - 0.05),
    rng_seed=st.integers(0, 2**31 - 1),
)
@settings(max_examples=20, deadline=None)
def test_top_coefficient_at_a_root_is_the_profile_law(n, phi, rng_seed):
    # At a root the lower coefficients vanish, so the top one carries the
    # whole sum: Im(e^{i phi/4} a_h) = (-1)^{n+1} sin(phi/4) s^{n+1}.
    try:
        sols = solve(SolverConfig(n=n, phi=phi, seeds=32, rng_seed=rng_seed))
    except SolverError:
        assume(False)
    for s in sols:
        a = structured_jets(np.array([s.phases]))[0]
        top = (np.exp(0.25j * phi) * a[n + 1]).imag
        assert abs(top - (-1) ** (n + 1) * math.sin(phi / 4)) <= 1e-11, s.phases


def test_config_validation():
    with pytest.raises(ValueError, match="order"):
        SolverConfig(n=0, phi=math.pi)
    with pytest.raises(ValueError, match="seed"):
        SolverConfig(n=1, phi=math.pi, seeds=0)


def test_jacobian_matches_independent_finite_differences():
    phases = np.array([0.4, 1.9])
    phi = math.pi / 2
    jac = solver._jacobian(phases, phi)
    h = 1e-5  # different step than the implementation uses
    for j in range(2):
        hi, lo = phases.copy(), phases.copy()
        hi[j] += h
        lo[j] -= h
        col = (residual(hi, phi) - residual(lo, phi)) / (2 * h)
        assert np.allclose(jac[:, j], col, atol=1e-5)


def test_pinned_zero_count_is_manifold_dimension():
    assert [pinned_zero_count(n) for n in range(1, 7)] == [0, 1, 1, 2, 2, 3]


def test_canonicalize_moves_leading_phase_along_root_set():
    # Order 2: one-dimensional root manifold; slide a member found by an
    # unpinned Newton until its leading relative phase is zero (mod 2*pi).
    # The straight path can hit a fold of the manifold, so the multi-path
    # canonicalization is the right entry point.
    phi = math.pi
    seeds = np.random.default_rng(3).uniform(0.0, TWO_PI, size=(8, 2))
    x, _, ok, _ = solver._newton_batch(seeds, phi, 1e-12, 200)
    start = x[np.flatnonzero(ok)[0]]
    _assert_full_system_root(start, phi)
    assert not _circ_close([start[0]], [0.0], 1e-3)
    moved = canonicalize(start, phi)
    assert _circ_close([moved[0]], [0.0], 1e-9)
    assert np.max(np.abs(residual(moved, phi))) < 1e-9
    _assert_full_system_root(moved, phi)


def test_transport_rejects_overpinning():
    with pytest.raises(SolverError, match="pin"):
        transport([0.0, 1.0], math.pi, [0.0, 0.0])


def test_canonicalize_is_idempotent_on_canonical_points():
    phi = math.pi
    root = np.array([0.0, TWO_PI - chi_six(phi)])
    canon = canonicalize(root, phi)
    assert _circ_close(canon, root, 1e-8)


def test_solve_order_one_finds_the_quarter_phase_root():
    sols = solve(SolverConfig(n=1, phi=math.pi, seeds=16))
    found = [s.phases[0] / math.pi for s in sols]
    assert any(abs(f - 1.75) < 1e-9 for f in found)
    for s in sols:
        assert s.residual_norm < 1e-10
        assert len(s.members) >= 1


def test_solve_is_deterministic():
    cfg = SolverConfig(n=2, phi=math.pi / 2, seeds=12, rng_seed=7)
    a = solve(cfg)
    b = solve(cfg)
    assert [s.phases for s in a] == [s.phases for s in b]


def test_solve_order_two_contains_closed_form_classes():
    phi = math.pi
    sols = solve(SolverConfig(n=2, phi=phi, seeds=24))
    targets = [
        np.array([0.0, math.pi / 2 + chi_six(phi)]),
        np.array([0.0, TWO_PI - chi_six(phi)]),
    ]
    for t in targets:
        assert any(_circ_close(np.array(s.phases), t, 1e-8) for s in sols)


def test_solve_members_lie_on_the_same_residual_zero_set():
    sols = solve(SolverConfig(n=2, phi=math.pi, seeds=12, rng_seed=1))
    for s in sols:
        for member in s.members:
            assert np.max(np.abs(residual(list(member), math.pi))) < 1e-9


def test_degenerate_n3_class_has_a_nonzero_order_zero_residual():
    # (0, pi, pi) at n = 3 zeroes the full train's derivative conditions,
    # but its zero-error propagator is the identity, not the Z gate: the
    # half-train residual's order-0 entry is that gate defect.
    rel = [0.0, math.pi, math.pi]
    conditions, gate = _full_system_defects(rel, math.pi)
    assert conditions <= 1e-15 and gate > 1.0
    r = residual(rel, math.pi)
    assert abs(r[0] - math.sqrt(0.5)) <= 1e-15
    assert abs(r[1]) <= 1e-14


def test_solve_never_returns_the_degenerate_n3_class():
    # Restarts of this rng seed used to reach (0, pi, pi); the half-train
    # system has no root there.
    sols = solve(SolverConfig(n=3, phi=math.pi, seeds=16, rng_seed=1775539677))
    found = [s.phases for s in sols]
    assert not any(_circ_close(p, [0.0, math.pi, math.pi], 1e-6) for p in found)
    assert len(found) == 4
    for want in ([0.0, 0.5278, 1.2778], [0.0, 0.9363, 0.6863],
                 [0.0, 1.2222, 1.9722], [0.0, 1.8137, 1.5637]):
        assert any(
            _circ_close(p, np.array(want) * math.pi, 1e-3 * math.pi)
            for p in found
        ), want
    for p in found:
        _assert_full_system_root(p, math.pi)


# Raw n = 5 roots of the full-system solve(n=5, phi=pi, seeds=128,
# rng_seed=0) that its transport slid onto the degenerate point
# (0, 0, pi, pi, pi), whose zero-error gate is the identity, not Z.
_N5_OFF_TARGET_MEMBER = (2.251092890465369, 6.234487863160407, 6.232450943915116,
                         2.7725150818535074, 2.8796536008257716)
_N5_RESCUED_MEMBER = (4.921186346173169, 2.0042358518562153, 4.092606778396842,
                      5.312093579693816, 0.6587307971723635)


def test_canonicalize_brings_the_off_target_n5_member_to_its_class():
    # The half-train residual does not vanish at (0, 0, pi, pi, pi), and
    # transport carries the member past it, to the class of the rescued
    # member.
    assert abs(residual([0.0, 0.0, math.pi, math.pi, math.pi], math.pi)[0]) > 0.5
    _assert_full_system_root(_N5_OFF_TARGET_MEMBER, math.pi)
    canon = canonicalize(_N5_OFF_TARGET_MEMBER, math.pi)
    _assert_full_system_root(canon, math.pi)
    assert _circ_close(canon, canonicalize(_N5_RESCUED_MEMBER, math.pi), 1e-8)


def test_canonicalize_brings_an_n5_member_to_its_class():
    canon = canonicalize(_N5_RESCUED_MEMBER, math.pi)
    _assert_full_system_root(canon, math.pi)
    assert _circ_close(canon, np.array([0.0, 0.0, 0.9843, 0.8883, 0.654]) * math.pi,
                       1e-3 * math.pi)


def _named_half(name):
    # Relative phases of the first half of a polished named train.
    seq = catalog.to_sequence(catalog.get(name))
    phases = [float(p) for p in seq.phases]
    return [p - phases[0] for p in phases[1:seq.order + 1]]


# The class each named train of order >= 4 canonicalizes into (units of
# pi, 4 decimals).  On 2 shared cores with BLAS on one thread each takes
# 0.01-0.02 s, except S14 0.6 s, Z18 1.0 s and T18 3.7 s (several of
# their 8 or 16 paths fail first).
_NAMED_CLASSES = {
    "Z10": (0.0, 0.0, 0.9673, 0.8027),
    "Z12": (0.0, 0.0, 1.0456, 1.3996, 0.1041),
    "Z14": (0.0, 0.0, 0.0, 1.0243, 1.2537, 1.9084),
    "Z16": (0.0, 0.0, 0.0, 1.0759, 1.2708, 0.0939, 1.649),
    "Z18": (0.0, 0.0, 0.0, 0.0, 0.998, 0.98, 0.9068, 0.7367),
    "S10": (0.0, 0.0, 1.1589, 1.988),
    "S12": (0.0, 0.0, 1.0477, 1.5126, 0.3399),
    "S14": (0.0, 0.0, 0.0, 0.6034, 1.415, 1.7247),
    "S16": (0.0, 0.0, 0.0, 1.0902, 1.3389, 0.2495, 1.8758),
    "S18": (0.0, 0.0, 0.0, 0.0, 1.0048, 1.0712, 1.4887, 0.264),
    "T10": (0.0, 0.0, 0.9922, 0.953),
    "T12": (0.0, 0.0, 1.0439, 1.5966, 0.4901),
    "T14": (0.0, 0.0, 0.0, 0.998, 0.9843, 0.9432),
    "T16": (0.0, 0.0, 0.0, 0.8842, 0.544, 1.4992, 1.7769),
    "T18": (0.0, 0.0, 0.0, 0.0, 0.9387, 0.6904, 1.6201, 1.8228),
}


def test_named_classes_cover_every_named_train_of_order_four_or_more():
    names = [n for n in catalog.names() if catalog.get(n).order >= 4]
    assert sorted(names) == sorted(_NAMED_CLASSES)


@pytest.mark.parametrize("name", sorted(_NAMED_CLASSES))
def test_canonicalize_brings_a_named_train_to_the_chart(name):
    # The relative phases of the first half of the published train reach a
    # full-system root with its leading floor(n/2) phases zero.
    phi = float(catalog.to_sequence(catalog.get(name)).target_phi)
    canon = canonicalize(_named_half(name), phi)
    _assert_full_system_root(canon, phi)
    want = np.array(_NAMED_CLASSES[name]) * math.pi
    assert np.all(canon[:pinned_zero_count(len(canon))] == 0.0)
    assert _circ_close(canon, want, 1e-4 * math.pi)


@pytest.mark.parametrize("name", ["Z16", "Z18"])
def test_solve_finds_the_class_of_the_canonicalized_named_train(name):
    # The polished Z16 (n = 7) and Z18 (n = 8) reach the leading-zeros
    # chart, and 128 restarts of the chart solve find that class.  On 2
    # shared cores with BLAS on one thread, solve takes 0.5-0.6 s at n = 7
    # and 0.8 s at n = 8.
    want = _NAMED_CLASSES[name]
    n = len(want)
    canon = canonicalize(_named_half(name), math.pi)
    assert _circ_close(canon, np.array(want) * math.pi, 1e-4 * math.pi)
    sols = solve(SolverConfig(n=n, phi=math.pi, seeds=128, rng_seed=0))
    assert len(sols) == 8
    match = [s for s in sols if _circ_close(s.phases, canon, 1e-8)]
    assert len(match) == 1
    for s in sols:
        _assert_full_system_root(s.phases, math.pi)


def test_solve_order_eight_at_a_quarter_turn_finds_eight_classes():
    # 128 restarts at rng-seed 0 find all eight classes known at n = 8,
    # phi = pi/4, each a full-system root.
    sols = solve(SolverConfig(n=8, phi=math.pi / 4, seeds=128, rng_seed=0))
    assert len(sols) == 8
    for s in sols:
        _assert_full_system_root(s.phases, math.pi / 4)


@pytest.mark.parametrize("n", range(1, 9))
def test_exact_jacobian_matches_central_difference(n):
    rng = np.random.default_rng(100 + n)
    h = 1e-5
    for _ in range(3):
        phases = rng.uniform(0.0, TWO_PI, size=n)
        phi = rng.uniform(0.1, TWO_PI)
        jac = solver._jacobian(phases, phi)
        fd = np.empty_like(jac)
        for j in range(n):
            hi, lo = phases.copy(), phases.copy()
            hi[j] += h
            lo[j] -= h
            fd[:, j] = (residual(hi, phi) - residual(lo, phi)) / (2 * h)
        assert np.max(np.abs(jac - fd)) <= 1e-8 * np.max(np.abs(jac))


@pytest.mark.parametrize("n", [1, 2, 4, 6])
def test_batched_residual_and_jacobian_match_batch_of_one(n):
    rng = np.random.default_rng(n)
    x = rng.uniform(0.0, TWO_PI, size=(16, n))
    phi = 2 * math.pi / 3
    r, jac = solver._residuals(x, phi, jacobian=True)
    r_one = np.array([residual(row, phi) for row in x])
    jac_one = np.array([solver._jacobian(row, phi) for row in x])
    assert np.max(np.abs(r - r_one)) <= 1e-12 * np.max(np.abs(r_one))
    assert np.max(np.abs(jac - jac_one)) <= 1e-12 * np.max(np.abs(jac_one))


def test_batched_newton_root_does_not_depend_on_batch_companions():
    rng = np.random.default_rng(11)
    phi = 2 * math.pi / 3
    seeds = rng.uniform(0.0, TWO_PI, size=(16, 4))
    x, _, ok, _ = solver._newton_batch(seeds, phi, 1e-12, 200)
    assert ok.sum() >= 8
    # Same seeds, reversed, next to eight seeds the first batch did not have.
    others = rng.uniform(0.0, TWO_PI, size=(8, 4))
    y, _, ok_y, _ = solver._newton_batch(np.vstack([seeds[::-1], others]), phi, 1e-12, 200)
    assert np.array_equal(ok, ok_y[:16][::-1])
    assert np.max(np.abs(x[ok] - y[:16][::-1][ok])) <= 1e-12
    for k in np.flatnonzero(ok)[:4]:
        alone, _, converged, _ = solver._newton(seeds[k], phi, 1e-12, 200)
        assert converged
        assert np.max(np.abs(alone - x[k])) <= 1e-12


def _row_root(phi_over_pi, pulses):
    # Relative phases of the first half of a published arbitrary-angle row.
    phases = [float(p) for p in catalog.arbitrary_row(phi_over_pi, pulses).phases]
    return np.array([p - phases[0] for p in phases[1:pulses // 2]])


@pytest.mark.parametrize(
    "n,phi,rng_seed",
    [(2, math.pi / 3, 0), (3, math.pi / 4, 2), (4, math.pi / 2, 7), (5, math.pi, 1)],
)
def test_solve_returns_roots_in_the_leading_zeros_chart(n, phi, rng_seed):
    sols = solve(SolverConfig(n=n, phi=phi, seeds=32, rng_seed=rng_seed))
    zeros = (0.0,) * pinned_zero_count(n)
    assert sols
    for s in sols:
        assert s.phases[: len(zeros)] == zeros
        assert all(m[: len(zeros)] == zeros for m in s.members)
        _assert_full_system_root(s.phases, phi)
        assert s.residual_norm < solver._TOL


def test_solve_order_five_finds_the_published_twelve_pulse_class():
    sols = solve(SolverConfig(n=5, phi=math.pi, seeds=128, rng_seed=1))
    z12 = _row_root(1, 12)
    assert any(_circ_close(s.phases, z12, 1e-3 * math.pi) for s in sols)


@pytest.mark.parametrize("rng_seed", [0, 1, 2])
def test_solve_order_four_finds_the_published_ten_pulse_class(rng_seed):
    sols = solve(SolverConfig(n=4, phi=math.pi, seeds=16, rng_seed=rng_seed))
    z10 = _row_root(1, 10)
    assert any(_circ_close(s.phases, z10, 1e-8) for s in sols)


def test_solve_logs_its_counts_at_debug(caplog):
    with caplog.at_level(logging.DEBUG, logger="cpgate.solver"):
        sols = solve(SolverConfig(n=3, phi=math.pi, seeds=16, rng_seed=1775539677))
    [record] = caplog.records
    assert record.levelno == logging.DEBUG
    counts = dict(re.findall(r"(\w+)=([\d.]+)", record.getMessage()))
    assert int(counts["restarts"]) == 16
    assert "off_target" not in counts
    assert int(counts["converged"]) == sum(len(s.members) for s in sols)
    assert int(counts["classes"]) == len(sols)
    assert float(counts["newton_s"]) >= 0.0


def _reference_newton_batch(x0, phi, tol, max_iter, pinned=None, rcond=1e-6):
    # The Newton loop as it ran before the full step carried its Jacobian,
    # on the half-train residual: every iteration evaluates the Jacobian
    # in all n phases and slices the free columns, then tries the full step
    # and the 29 halvings apart.
    x = np.array(x0, dtype=float)
    batch, n = x.shape
    free = (
        np.arange(n)
        if pinned is None
        else np.flatnonzero(~np.asarray(pinned, dtype=bool))
    )
    if len(free) == 0:
        rmax = np.max(np.abs(solver._residuals(x, phi)), axis=1, initial=0.0)
        return x, rmax, rmax < tol
    rmax = np.full(batch, math.inf)
    ok = np.zeros(batch, dtype=bool)
    live = np.arange(batch)
    for _ in range(max_iter):
        r, jac = solver._residuals(x[live], phi, jacobian=True)
        rmax[live] = np.max(np.abs(r), axis=1)
        done = rmax[live] < tol
        ok[live[done]] = True
        live, r, jac = live[~done], r[~done], jac[~done][:, :, free]
        if not live.size:
            return x, rmax, ok
        step = -(np.linalg.pinv(jac, rcond=rcond) @ r[:, :, None])[:, :, 0]
        norm0 = np.linalg.norm(r, axis=1)
        moved = np.zeros(len(live), dtype=bool)
        for t in (np.ones(1), 0.5 ** np.arange(1, 30)):
            todo = np.flatnonzero(~moved)
            if not todo.size:
                break
            trial = np.repeat(x[live[todo], None, :], len(t), axis=1)
            trial[:, :, free] += t[:, None] * step[todo, None, :]
            r_trial = solver._residuals(trial.reshape(-1, n), phi)
            norms = np.linalg.norm(r_trial, axis=1).reshape(len(todo), len(t))
            better = norms < norm0[todo, None]
            hit = better.any(axis=1)
            first = better.argmax(axis=1)
            x[live[todo[hit]]] = trial[hit, first[hit]]
            moved[todo[hit]] = True
        live = live[moved]
        if not live.size:
            return x, rmax, ok
    rmax[live] = np.max(np.abs(solver._residuals(x[live], phi)), axis=1)
    ok[live] = rmax[live] < tol
    return x, rmax, ok


def _newton_masks(n):
    return {
        "none": None,
        "chart": np.arange(n) < pinned_zero_count(n),
        "alternate": np.arange(n) % 2 == 0,
    }


@pytest.mark.parametrize("batch", [1, 16])
@pytest.mark.parametrize("mask", ["none", "chart", "alternate"])
@pytest.mark.parametrize("n", range(1, 7))
def test_newton_batch_matches_the_reference_loop(n, mask, batch):
    pinned = _newton_masks(n)[mask]
    rng = np.random.default_rng(1000 * n + batch)
    seeds = rng.uniform(0.0, TWO_PI, size=(batch, n))
    if pinned is not None:
        # The chart pins zeros; the alternate mask pins zeros that are not
        # one leading block once n > 2.
        seeds[:, pinned] = 0.0
    phi = rng.uniform(0.1, TWO_PI)
    # The float polish's iteration limit in precise.polish_structured: rows
    # that have not converged by then are compared mid-iteration.
    got = solver._newton_batch(seeds, phi, 1e-12, 60, pinned)
    want = _reference_newton_batch(seeds, phi, 1e-12, 60, pinned)
    assert np.array_equal(got[2], want[2])
    for g, r in zip(got[:2], want[:2]):
        finite = np.isfinite(r)
        assert np.array_equal(finite, np.isfinite(g))
        assert np.max(np.abs(g[finite] - r[finite]), initial=0.0) <= 1e-12
    # The Jacobian returned with each row, whichever way the row left the
    # loop, is the one at the row returned.
    free = np.arange(n) if pinned is None else np.flatnonzero(~pinned)
    want_jac = np.array([solver._jacobian(row, phi, free) for row in got[0]])
    assert got[3].shape == (batch, (n + 1) // 2, len(free))
    scale = max(1.0, np.max(np.abs(want_jac), initial=0.0))
    assert np.max(np.abs(got[3] - want_jac), initial=0.0) <= 1e-12 * scale


def test_newton_full_steps_make_one_jets_call_per_iteration(monkeypatch):
    # Near a root every row takes the full step, so each iteration reuses the
    # residual and Jacobian its full step was evaluated with.
    z10 = _row_root(1, 10)
    seeds = z10 + np.random.default_rng(5).normal(0.0, 1e-5, size=(4, 4))
    seeds[:, :2] = z10[:2]
    calls = []

    def counted(x, jacobian=False):
        calls.append(jacobian is not False)
        return structured_jets(x, jacobian)

    monkeypatch.setattr(solver, "structured_jets", counted)
    pinned = np.array([True, True, False, False])
    _, _, ok, _ = solver._newton_batch(seeds, math.pi, 1e-12, 200, pinned)
    new = list(calls)
    calls.clear()
    _, _, ok_ref = _reference_newton_batch(seeds, math.pi, 1e-12, 200, pinned)
    assert ok.all() and ok_ref.all()
    # The reference makes a Jacobian call and a full-step call per step, and
    # one Jacobian call at the converged point.
    assert all(new) and len(calls) % 2 == 1
    assert len(new) == (len(calls) + 1) // 2
