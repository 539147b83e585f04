"""Numerical derivation of composite phases from the half-train conditions.

The free parameters are the n relative phases p1..pn of the half train
H = pi_0 pi_p1 ... pi_pn; the two-half train is H followed by H shifted by
pi - phi/2.  With (a, b) the Cayley-Klein pair of the full train and a_h
the major-diagonal element of H, every exact two-half train, root or not,
satisfies

    Re(a e^{i phi/2}) = 1 - 2 Im(a_h e^{i phi/4})^2,

since a = a_h^2 + e^{-i phi/2} |b_h|^2.  The Frobenius distance to the
target gate is therefore sqrt(2) |Im(a_h e^{i phi/4})|, a quantity of the
half alone.  With s = sin(pi eps/2) and u = s^2, a_h = s^{(n+1) mod 2} A(u)
with A of degree (n + 1) // 2 in u (see ``jets``), and so
Im(e^{i phi/4} a_h) = s^{(n+1) mod 2} t(u).  The top coefficient of t is
not fixed by the structure, but its value at s = 1 is: there every pulse
is -I, so a_h = (-1)^{n+1} and t's coefficients sum to
(-1)^{n+1} sin(phi/4).  The train has order n exactly when all of t's
coefficients but the top one vanish; the top one then equals that sum,
which is the profile law.  The ``residual`` is those ceil(n/2) coefficients, ascending.
For odd n its u^0 entry is the zero-error gate itself; for even n the gate
holds by the factor s.

The roots form manifolds of dimension floor(n/2).  ``solve`` runs
Newton in the canonical chart, with the leading floor(n/2) relative
phases pinned to zero (the compact 3pi/4pi-block forms), where the
system is square and the roots are isolated points; each root it finds
is already the canonical representative of its class.  Every Newton
iteration here holds a count ``pinned`` of leading phases fixed and steps
along the rest: ``solve`` holds floor(n/2), and ``precise``'s polish the
leading phases of its input that are exactly 0.
"""

from __future__ import annotations

import cmath
import logging
import math
import time

import numpy as np

from .jets import structured_jets
from .sequences import half_jets, pinned_zero_count
from .su2 import Record, SolverError

TWO_PI = 2.0 * math.pi
# Pseudo-inverse cutoff of the Newton step.
_RCOND = 1e-6
# Two roots closer than this in every phase (mod 2 pi) are one class.
_DEDUPE_TOL = 1e-6
# Residual max-norm a root must reach, and the Newton iteration limit of
# a ``solve`` restart.
_TOL = 1e-12
_MAX_ITER = 200

_log = logging.getLogger("cpgate.solver")


class SolverConfig(Record):
    """Multi-start Newton settings for one (order, gate-angle) problem."""

    n: int
    phi: float
    seeds: int = 32
    rng_seed: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("compensation order must be >= 1")
        if self.seeds < 1:
            raise ValueError("need at least one restart seed")


class Solution(Record):
    """One root class: its canonical phases plus every root found in it."""

    phases: tuple[float, ...]
    residual_norm: float
    members: tuple[tuple[float, ...], ...] = ()


def _residuals(x: np.ndarray, phi: float, pinned=None):
    """Residual rows (B, ceil(n/2)) of a batch of relative-phase vectors
    and, unless ``pinned`` is None, their exact Jacobians
    (B, ceil(n/2), n - pinned) in the phases after the first ``pinned``,
    as in ``structured_jets``."""
    rot = cmath.exp(0.25j * phi)
    # Every u-coefficient but the top one (none at n = 0).
    if pinned is None:
        return (rot * structured_jets(x)[:, :-1]).imag
    a, da = structured_jets(x, pinned)
    return (rot * a[:, :-1]).imag, (rot * da[:, :, :-1]).imag.transpose(0, 2, 1)


def residual(phases, phi: float) -> np.ndarray:
    """Real residual vector of the half-train conditions.

    Entries are the coefficients of u^0 .. u^{ceil(n/2) - 1}, every one
    but the top, of t(u), Im(e^{i phi/4} a_h) = s^{(n+1) mod 2} t(u) with
    s = sin(pi eps/2) and u = s^2, a_h being the major-diagonal element of
    the half train; the two-half train has order n exactly when all
    ceil(n/2) of them vanish.
    """
    return _residuals(np.asarray(phases, dtype=float)[None, :], phi)[0]


# Backtracking step lengths 2^-k, k = 0..29, tried in two groups: the
# full step and the first three halvings, then the other 26.  On the
# benchmark's solve workload 82 % of the rows whose full step fails
# succeed within the first three halvings (75-88 % per op list, seeds
# 7001-7010), so most skip the other 26.
_STEPS = (0.5 ** np.arange(0, 4), 0.5 ** np.arange(4, 30))
# The halvings 2^-1..2^-29 as Python floats, for ``_newton_square``.
_HALVING_STEPS = tuple(np.concatenate(_STEPS)[1:].tolist())


def _newton_batch(
    x0: np.ndarray,
    phi: float,
    tol: float,
    max_iter: int,
    pinned: int = 0,
    stats: dict | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Damped least-squares Newton on each row of ``x0`` (B, n) at once,
    the leading ``pinned`` phases of each row held fixed.

    Returns the rows, their residual max-norms, whether each converged and
    the Jacobian (B, ceil(n/2), n - pinned) of each row's residual in its
    free phases at the returned row.  Every row follows its own iteration
    exactly as if it were alone: rows that converge or fail leave the
    batch, the rest go on.  The pseudo-inverse cutoff keeps steps out of
    the root manifold's tangent directions, so near-roots are polished in
    place instead of drifting along the manifold.

    A row takes the longest step length 2^-k, k = 0..29, that makes its
    residual 2-norm smaller, and each iteration evaluates a trial point at
    most once: the full step and the halvings 2^-1..2^-3 of every row in
    one evaluation, with their Jacobians; the halvings 2^-4..2^-29 of the
    rows none of those improves in a second, on residuals alone.  The
    point a row moves to keeps the residual and Jacobian it was evaluated
    with for the next iteration; only a step length of the second group
    is evaluated again, with its Jacobian.  If ``stats`` is a dict, it
    receives the iterations of the batch (``iterations``), the rows still
    live after ``max_iter`` of them (``capped``) and the rows
    ``structured_jets`` evaluated (``evaluations``).
    """
    x = np.array(x0, dtype=float)
    batch, n = x.shape
    jac_out = np.empty((batch, (n + 1) // 2, n - pinned))
    evaluations = 0

    def evaluate(points, tangents=True):
        nonlocal evaluations
        evaluations += len(points)
        return _residuals(points, phi, pinned if tangents else None)

    if pinned == n:
        rmax = np.max(np.abs(evaluate(x, False)), axis=1, initial=0.0)
        live, ok = (), rmax < tol
    else:
        rmax = np.full(batch, math.inf)
        ok = np.zeros(batch, dtype=bool)
        live = np.arange(batch)
        # Residual rows and Jacobians (in the free phases) at x[live].
        r, jac = evaluate(x)

    def backtrack(rows, group):
        # Tries the step lengths _STEPS[group] of this iteration's ``step``
        # on the live rows ``rows``, with Jacobians in the first group, and
        # moves each row to the first that brings its residual 2-norm below
        # ``norm0``.  Returns whether one did for each row, the index of
        # the point taken (or of the first) among all trial points, and the
        # evaluation of every trial point.
        lengths = _STEPS[group]
        trial = np.repeat(x[live[rows], None, :], len(lengths), axis=1)
        trial[:, :, pinned:] += lengths[:, None] * step[rows, None, :]
        found = evaluate(trial.reshape(-1, n), group == 0)
        r_trial = found[0] if group == 0 else found
        norms = np.linalg.norm(r_trial, axis=1).reshape(len(rows), len(lengths))
        better = norms < norm0[rows, None]
        hit = better.any(axis=1)
        first = better.argmax(axis=1)
        x[live[rows[hit]]] = trial[hit, first[hit]]
        return hit, np.arange(len(rows)) * len(lengths) + first, found

    iterations = 0
    while len(live):
        rmax[live] = largest = np.abs(r).max(axis=1)
        done = largest < tol
        if done.any():
            ok[live[done]] = True
            jac_out[live[done]] = jac[done]
            live, r, jac = live[~done], r[~done], jac[~done]
            if not live.size:
                break
        if iterations == max_iter:
            jac_out[live] = jac
            break
        iterations += 1
        step = -(np.linalg.pinv(jac, rcond=_RCOND) @ r[:, :, None])[:, :, 0]
        # Backtracking on the residual norm; arcsin-flavored roots
        # have steep basins, so halve up to 29 times before giving up.
        norm0 = np.linalg.norm(r, axis=1)
        jac_at_x = jac
        moved, rows, (r, jac) = backtrack(np.arange(len(live)), 0)
        # The residual and Jacobian at the step each row took.
        r, jac = r[rows], jac[rows]
        if moved.all():
            continue
        todo = np.flatnonzero(~moved)
        hit, _, _ = backtrack(todo, 1)
        taken = todo[hit]
        moved[taken] = True
        if taken.size:
            r[taken], jac[taken] = evaluate(x[live[taken]])
        # A row that no step length improves stops where it is.
        jac_out[live[~moved]] = jac_at_x[~moved]
        live, r, jac = live[moved], r[moved], jac[moved]
    if stats is not None:
        stats.update(iterations=iterations, capped=len(live), evaluations=evaluations)
    return x, rmax, ok, jac_out


def _certified_inverse(jac):
    """Inverse of the square matrix ``jac`` (a list of rows) by Gauss-Jordan
    elimination with partial pivoting, or None on a zero pivot or when
    ||J||_F ||J^-1||_F >= 1/_RCOND.  That bound certifies
    sigma_min > _RCOND sigma_max, so the pseudo-inverse at ``_RCOND`` drops
    no singular value and is this inverse."""
    size = len(jac)
    rows = [
        [*row, *(float(i == k) for k in range(size))] for i, row in enumerate(jac)
    ]
    for col in range(size):
        pivot = max(range(col, size), key=lambda i: abs(rows[i][col]))
        rows[col], rows[pivot] = rows[pivot], rows[col]
        lead = rows[col][col]
        if lead == 0:
            return None
        row = rows[col] = [v / lead for v in rows[col]]
        for i in range(size):
            factor = rows[i][col]
            if i != col and factor:
                rows[i] = [v - factor * w for v, w in zip(rows[i], row)]
    inv = [row[size:] for row in rows]
    bound = math.sqrt(sum(v * v for row in jac for v in row)) * math.sqrt(
        sum(v * v for row in inv for v in row)
    )
    # A NaN bound fails the test too.
    return inv if bound < 1.0 / _RCOND else None


def _newton_square(phases, phi: float, tol: float, max_iter: int, pinned: int):
    """``_newton_batch`` on one row, in Python scalars, for a square
    system, as many phases after the leading ``pinned`` as residual
    entries: the same full step, halvings, acceptance on a smaller residual
    2-norm and stopping rule, with a pivoted solve in place of the
    pseudo-inverse.

    Returns (phases, residual max-norm, converged, inverse) with the
    inverse of the Jacobian in the free phases at the returned phases, as
    a list of rows, or None if any Jacobian it inverts is singular or fails
    the certificate of ``_certified_inverse``.
    """
    x = [float(v) for v in phases]
    rot = cmath.exp(0.25j * phi)

    def evaluate(point, tangents):
        a, da = half_jets(point, pinned if tangents else None)
        r = [(rot * c).imag for c in a[:-1]]
        return r, [[(rot * d[m]).imag for d in da] for m in range(len(r))]

    def norm(r):
        return math.sqrt(sum(v * v for v in r))

    def moved(step, t):
        trial = list(x)
        for j, d in enumerate(step, start=pinned):
            trial[j] += t * d
        return trial

    r, jac = evaluate(x, True)
    for it in range(max_iter + 1):
        rmax = max(abs(v) for v in r)
        inv = _certified_inverse(jac)
        if inv is None:
            return None
        if rmax < tol or it == max_iter:
            return x, rmax, rmax < tol, inv
        step = [-sum(w * v for w, v in zip(row, r)) for row in inv]
        norm0 = norm(r)
        trial = moved(step, 1.0)
        r_trial, jac_trial = evaluate(trial, True)
        if norm(r_trial) < norm0:
            x, r, jac = trial, r_trial, jac_trial
            continue
        for t in _HALVING_STEPS:
            trial = moved(step, t)
            if norm(evaluate(trial, False)[0]) < norm0:
                break
        else:
            # Every halving failed: the iteration stops where it is.
            return x, rmax, False, inv
        x = trial
        r, jac = evaluate(x, True)


def solve(config: SolverConfig) -> list[Solution]:
    """Multi-start Newton in the leading-zeros chart.

    Every restart draws n uniform phases, sets the first floor(n/2) of
    them to 0 and keeps them there, so each root comes out in canonical
    form.  All restarts run as one batch.  Returns one Solution per
    distinct root, sorted by its phase vector; every converged root is
    kept as a member of its class.  Raises SolverError if no restart
    converges.
    """
    rng = np.random.default_rng(config.rng_seed)
    # Row k holds the same draws as the k-th of `seeds` calls of size n.
    seeds = rng.uniform(0.0, TWO_PI, size=(config.seeds, config.n))
    pinned = pinned_zero_count(config.n)
    seeds[:, :pinned] = 0.0
    start = time.perf_counter()
    stats = {}
    x, rmax, converged, _ = _newton_batch(
        seeds, config.phi, _TOL, _MAX_ITER, pinned, stats
    )
    newton_s = time.perf_counter() - start
    roots = x % TWO_PI
    # Each converged root joins the first class, in order of creation, whose
    # first root lies within _DEDUPE_TOL of it in every phase (mod 2 pi):
    # a class takes every root not yet in one that is close to its first,
    # and the next class starts at the first root left.
    classes: list[tuple[np.ndarray, float, np.ndarray]] = []
    rest = np.flatnonzero(converged)
    while rest.size:
        head = roots[rest[0]]
        gap = np.abs((head - roots[rest] + math.pi) % TWO_PI - math.pi)
        close = gap.max(axis=1) <= _DEDUPE_TOL
        classes.append((head, float(rmax[rest[0]]), roots[rest[close]]))
        rest = rest[~close]
    _log.debug(
        "solve n=%d phi=%.6g: restarts=%d converged=%d classes=%d "
        "iterations=%d capped=%d evaluations=%d newton_s=%.3f",
        config.n, config.phi, config.seeds, converged.sum(), len(classes),
        stats["iterations"], stats["capped"], stats["evaluations"], newton_s,
    )
    if not classes:
        raise SolverError(
            "no convergence: every restart failed "
            f"(n={config.n}, phi={config.phi:.6g}, seeds={config.seeds})"
        )
    classes.sort(key=lambda item: tuple(item[0]))
    return [
        Solution(
            phases=tuple(canon),
            residual_norm=rmax,
            members=tuple(tuple(m) for m in members),
        )
        for canon, rmax, members in classes
    ]
