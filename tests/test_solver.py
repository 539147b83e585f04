import logging
import math
import re

import numpy as np
import pytest

from cpgate import catalog, solver
from cpgate.jets import structured_jets
from cpgate.sequences import chi_six
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


def test_residual_vanishes_at_known_first_order_root():
    # Relative phase -phi/4 solves the first-order conditions exactly.
    assert np.max(np.abs(residual([-math.pi / 4], math.pi))) < 1e-12


def test_residual_vanishes_at_known_second_order_root():
    phi = math.pi
    r = residual([0.0, TWO_PI - chi_six(phi)], phi)
    assert np.max(np.abs(r)) < 1e-11


def test_residual_nonzero_off_root():
    assert np.max(np.abs(residual([0.1], math.pi))) > 1e-3


def test_residual_length_and_scaling():
    # Entries carry m!, so they are the actual derivative values.
    r = residual([0.3, 1.1, 0.2], math.pi / 2)
    assert r.shape == (6,)


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
    x, _, ok = solver._newton_batch(seeds, phi, 1e-12, 200)
    start = x[np.flatnonzero(ok & solver._hits_target(x, phi))[0]]
    assert not _circ_close([start[0]], [0.0], 1e-3)
    moved = canonicalize(start, phi)
    assert _circ_close([moved[0]], [0.0], 1e-9)
    assert np.max(np.abs(residual(moved, phi))) < 1e-9


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


def test_solve_drops_class_that_misses_the_target_gate():
    # (0, pi, pi) at n = 3 zeroes the derivative conditions but its
    # zero-error propagator is the identity, not the Z gate.
    sols = solve(SolverConfig(n=3, phi=math.pi, seeds=16, rng_seed=1775539677))
    found = [s.phases for s in sols]
    assert not any(_circ_close(p, [0.0, math.pi, math.pi], 1e-6) for p in found)
    assert len(found) == 3
    for want in ([0.0, 0.5278, 1.2778], [0.0, 0.9363, 0.6863],
                 [0.0, 1.2222, 1.9722]):
        assert any(
            _circ_close(p, np.array(want) * math.pi, 1e-3 * math.pi)
            for p in found
        ), want



# Raw n = 5 roots of solve(n=5, phi=pi, seeds=128, rng_seed=0) that
# transport used to slide onto the degenerate point (0, 0, pi, pi, pi),
# whose zero-error gate is the identity, not Z.
_N5_OFF_TARGET_MEMBER = (2.251092890465369, 6.234487863160407, 6.232450943915116,
                         2.7725150818535074, 2.8796536008257716)
_N5_RESCUED_MEMBER = (4.921186346173169, 2.0042358518562153, 4.092606778396842,
                      5.312093579693816, 0.6587307971723635)


def test_canonicalize_refuses_a_point_that_misses_the_target_gate():
    with pytest.raises(SolverError, match="misses the target gate"):
        canonicalize(_N5_OFF_TARGET_MEMBER, math.pi)


def test_canonicalize_tries_the_next_path_after_an_off_target_arrival():
    canon = canonicalize(_N5_RESCUED_MEMBER, math.pi)
    assert solver._hits_target(canon[None, :], math.pi)[0]
    assert _circ_close(canon, np.array([0.0, 0.0, 0.9843, 0.8883, 0.654]) * math.pi,
                       1e-3 * math.pi)


def test_canonicalize_of_z12_never_returns_an_off_target_point():
    # The published 12-pulse Z train, relative phases of its first half.
    seq = catalog.to_sequence(catalog.get("Z12"))
    phases = [float(p) for p in seq.phases]
    rel = [p - phases[0] for p in phases[1:6]]
    with pytest.raises(SolverError, match="misses the target gate"):
        canonicalize(rel, math.pi)


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
    x, _, ok = solver._newton_batch(seeds, phi, 1e-12, 200)
    assert ok.sum() >= 8
    # Same seeds, reversed, next to eight seeds the first batch did not have.
    others = rng.uniform(0.0, TWO_PI, size=(8, 4))
    y, _, ok_y = solver._newton_batch(np.vstack([seeds[::-1], others]), phi, 1e-12, 200)
    assert np.array_equal(ok, ok_y[:16][::-1])
    assert np.max(np.abs(x[ok] - y[:16][::-1][ok])) <= 1e-12
    for k in np.flatnonzero(ok)[:4]:
        alone, _, converged = solver._newton(seeds[k], phi, 1e-12, 200)
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
        assert solver._hits_target(np.array([s.phases]), phi)[0]
        assert s.residual_norm < solver._tol_floor(n, 1e-12)


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
    # Some restarts of this seed reach (0, pi, pi), which misses the gate.
    assert int(counts["off_target"]) > 0
    kept = int(counts["converged"]) - int(counts["off_target"])
    assert kept == sum(len(s.members) for s in sols)
    assert int(counts["classes"]) == len(sols)
    assert float(counts["newton_s"]) >= 0.0


def _reference_newton_batch(x0, phi, tol, max_iter, pinned=None, rcond=1e-6):
    # The Newton loop as it ran before the full step carried its Jacobian:
    # every iteration evaluates the Jacobian in all n phases and slices the
    # free columns, then tries the full step and the 29 halvings apart.
    x = np.array(x0, dtype=float)
    batch, n = x.shape
    tol = solver._tol_floor(n, tol)
    w = solver._row_scale(n)
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
        wr = w * r
        step = -(np.linalg.pinv(w[:, None] * jac, rcond=rcond) @ wr[:, :, None])[:, :, 0]
        norm0 = np.linalg.norm(wr, axis=1)
        moved = np.zeros(len(live), dtype=bool)
        for t in (np.ones(1), 0.5 ** np.arange(1, 30)):
            todo = np.flatnonzero(~moved)
            if not todo.size:
                break
            trial = np.repeat(x[live[todo], None, :], len(t), axis=1)
            trial[:, :, free] += t[:, None] * step[todo, None, :]
            r_trial = solver._residuals(trial.reshape(-1, n), phi)
            norms = np.linalg.norm(w * r_trial, axis=1).reshape(len(todo), len(t))
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


def test_newton_full_steps_make_one_jets_call_per_iteration(monkeypatch):
    # Near a root every row takes the full step, so each iteration reuses the
    # residual and Jacobian its full step was evaluated with.
    z10 = _row_root(1, 10)
    seeds = z10 + np.random.default_rng(5).normal(0.0, 1e-5, size=(4, 4))
    seeds[:, :2] = z10[:2]
    calls = []

    def counted(x, phi, order, jacobian=False):
        calls.append(jacobian is not False)
        return structured_jets(x, phi, order, jacobian)

    monkeypatch.setattr(solver, "structured_jets", counted)
    pinned = np.array([True, True, False, False])
    _, _, ok = solver._newton_batch(seeds, math.pi, 1e-12, 200, pinned)
    new = list(calls)
    calls.clear()
    _, _, ok_ref = _reference_newton_batch(seeds, math.pi, 1e-12, 200, pinned)
    assert ok.all() and ok_ref.all()
    # The reference makes a Jacobian call and a full-step call per step, and
    # one Jacobian call at the converged point.
    assert all(new) and len(calls) % 2 == 1
    assert len(new) == (len(calls) + 1) // 2
