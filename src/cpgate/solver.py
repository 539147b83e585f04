"""Numerical derivation of composite phases by derivative nullification.

The free parameters are the n relative phases of the half-sequence; the
equations demand that, at zero error, the even eps-derivatives of the
major-diagonal propagator element and the odd derivatives of the
minor-diagonal one vanish through order n (the complementary derivatives
vanish identically by structure).  The resulting 2n real conditions are
rank-deficient at the roots: solutions form manifolds of dimension
floor(n/2).  ``solve`` therefore runs Newton in the canonical chart, with
the leading floor(n/2) relative phases pinned to zero (the compact
3pi/4pi-block forms), where the roots are isolated points; each root it
finds is already the canonical representative of its class.
``transport`` and ``canonicalize`` bring a root found elsewhere on its
manifold, such as a published train, into that chart.
"""

from __future__ import annotations

import cmath
import itertools
import logging
import math
import time
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .jets import structured_jets

TWO_PI = 2.0 * math.pi
# Pseudo-inverse cutoff of the Newton step.
_RCOND = 1e-6
# Two roots closer than this in every phase (mod 2 pi) are one class.
_DEDUPE_TOL = 1e-6
# Nominal steps of the continuation path in ``transport``.
_TRANSPORT_STEPS = 12

_log = logging.getLogger("cpgate.solver")


class SolverError(RuntimeError):
    pass


@dataclass(frozen=True)
class SolverConfig:
    """Multi-start Newton settings for one (order, gate-angle) problem."""

    n: int
    phi: float
    seeds: int = 32
    tol: float = 1e-12
    max_iter: int = 200
    rng_seed: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("compensation order must be >= 1")
        if self.seeds < 1:
            raise ValueError("need at least one restart seed")
        if not 0.0 < self.tol < 1e-6:
            raise ValueError("tolerance out of range")


@dataclass(frozen=True)
class Solution:
    """One root class: its canonical phases plus every root found in it."""

    phases: tuple[float, ...]
    residual_norm: float
    members: tuple[tuple[float, ...], ...] = field(default=())


# For odd n the conditions fix derivatives 1..n but not the zero-error
# gate itself: the class (0, pi, pi) at n = 3 converges to a0 = 1.  Valid
# roots hit the target to rounding; such degenerate ones miss by ~1.
_TARGET_TOL = 1e-6


def _hits_target(x: np.ndarray, phi: float) -> np.ndarray:
    """Per row of ``x``: whether the zero-error propagator of the root is
    the target gate."""
    a, _ = structured_jets(x, phi, 0)
    return np.abs(a[:, 0] - cmath.exp(-0.5j * phi)) < _TARGET_TOL


@lru_cache(maxsize=16)
def _condition_layout(n: int) -> tuple[np.ndarray, np.ndarray]:
    # Which of a_m (even m) or b_m (odd m) each derivative m = 1..n reads,
    # and the m! that turns Taylor coefficients into derivatives, repeated
    # for the interleaved (Re, Im) entries.
    m = np.arange(1, n + 1)
    fact = np.array([math.factorial(k) for k in m], dtype=float)
    return m % 2 == 0, np.repeat(fact, 2)


def _condition_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # m! * (Re, Im) of the selected coefficient m, m = 1..n, interleaved
    # along the last axis.
    even, scale = _condition_layout(a.shape[-1] - 1)
    c = np.ascontiguousarray(np.where(even, a[..., 1:], b[..., 1:]))
    return c.view(float) * scale


def _residuals(x: np.ndarray, phi: float, jacobian=False):
    """Residual rows (B, 2n) of a batch of relative-phase vectors and, with
    ``jacobian`` (True, or the phase indices J as in ``structured_jets``),
    their exact Jacobians (B, 2n, n), or (B, 2n, len(J)) in J."""
    n = x.shape[1]
    if jacobian is False:
        return _condition_rows(*structured_jets(x, phi, n))
    a, b, da, db = structured_jets(x, phi, n, jacobian=jacobian)
    return _condition_rows(a, b), _condition_rows(da, db).transpose(0, 2, 1)


def residual(phases, phi: float) -> np.ndarray:
    """Real residual vector of the parity-surviving nullification conditions.

    Entries are Re and Im of the m-th derivative at 0 of the major-diagonal
    element for even m and of the minor-diagonal element for odd m,
    m = 1..n, giving a vector of length 2n.
    """
    return _residuals(np.asarray(phases, dtype=float)[None, :], phi)[0]


def _jacobian(phases: np.ndarray, phi: float, wrt=True) -> np.ndarray:
    """Exact Jacobian (2n, n) of ``residual`` in the relative phases, or
    (2n, len(wrt)) in the phases ``wrt``."""
    x = np.asarray(phases, dtype=float)[None, :]
    return _residuals(x, phi, jacobian=wrt)[1][0]


def _row_scale(n: int) -> np.ndarray:
    # 1/m! per derivative row (Re and Im): evens out the dynamic range of
    # the residual so the least-squares step is well conditioned.
    return np.repeat([1.0 / math.factorial(m) for m in range(1, n + 1)], 2)


def _tol_floor(n: int, tol: float) -> float:
    # The m!-scaled residual of an exact root evaluated in doubles sits at
    # ~n! * machine-eps; don't demand convergence below that.
    return max(tol, math.factorial(n) * 1e-12)


# Backtracking step lengths 2^-k, k = 1..29, after a failed full step,
# tried in two groups: on the benchmark's solve workload ~89 % of such
# rows improve within the first three, so most skip the other 26.
_HALVINGS = (0.5 ** np.arange(1, 4), 0.5 ** np.arange(4, 30))


def _newton_batch(
    x0: np.ndarray,
    phi: float,
    tol: float,
    max_iter: int,
    pinned=None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Damped least-squares Newton on each row of ``x0`` (B, n) at once.

    Returns the rows, their residual max-norms and whether each converged.
    Every row follows its own iteration exactly as if it were alone: rows
    that converge or fail leave the batch, the rest go on.
    """
    x = np.array(x0, dtype=float)
    batch, n = x.shape
    tol = _tol_floor(n, tol)
    w = _row_scale(n)
    free = (
        np.arange(n)
        if pinned is None
        else np.flatnonzero(~np.asarray(pinned, dtype=bool))
    )
    if len(free) == 0:
        rmax = np.max(np.abs(_residuals(x, phi)), axis=1, initial=0.0)
        return x, rmax, rmax < tol
    rmax = np.full(batch, math.inf)
    ok = np.zeros(batch, dtype=bool)
    live = np.arange(batch)
    # Residual rows and Jacobians (in the free phases) at x[live].
    r, jac = _residuals(x, phi, jacobian=free)
    for _ in range(max_iter):
        rmax[live] = np.abs(r).max(axis=1)
        done = rmax[live] < tol
        if done.any():
            ok[live[done]] = True
            live, r, jac = live[~done], r[~done], jac[~done]
            if not live.size:
                return x, rmax, ok
        wr = w * r
        step = -(np.linalg.pinv(w[:, None] * jac, rcond=_RCOND) @ wr[:, :, None])[:, :, 0]
        # Backtracking on the scaled residual norm; arcsin-flavored roots
        # have steep basins, so halve up to 29 times before giving up.
        # The full step goes first, evaluated with its Jacobian so a row
        # that takes it needs no new evaluation next iteration; a row it
        # does not improve tries the halvings and takes the longest that
        # does.
        norm0 = np.linalg.norm(wr, axis=1)
        trial = x[live]
        trial[:, free] += step
        r, jac = _residuals(trial, phi, jacobian=free)
        full = np.linalg.norm(w * r, axis=1) < norm0
        x[live[full]] = trial[full]
        if full.all():
            continue
        moved = full.copy()
        todo = np.flatnonzero(~full)
        for t in _HALVINGS:
            if not todo.size:
                break
            trial = np.repeat(x[live[todo], None, :], len(t), axis=1)
            trial[:, :, free] += t[:, None] * step[todo, None, :]
            r_trial = _residuals(trial.reshape(-1, n), phi)
            norms = np.linalg.norm(w * r_trial, axis=1).reshape(len(todo), len(t))
            better = norms < norm0[todo, None]
            hit = better.any(axis=1)
            first = better.argmax(axis=1)
            x[live[todo[hit]]] = trial[hit, first[hit]]
            moved[todo[hit]] = True
            todo = todo[~hit]
        halved = np.flatnonzero(moved & ~full)
        if halved.size:
            r[halved], jac[halved] = _residuals(x[live[halved]], phi, jacobian=free)
        # A row whose every halving failed stops where it is.
        live, r, jac = live[moved], r[moved], jac[moved]
        if not live.size:
            return x, rmax, ok
    rmax[live] = np.abs(r).max(axis=1)
    ok[live] = rmax[live] < tol
    return x, rmax, ok


def _newton(
    phases: np.ndarray,
    phi: float,
    tol: float,
    max_iter: int,
    pinned: np.ndarray | None = None,
) -> tuple[np.ndarray, float, bool]:
    """Damped least-squares Newton; pinned coordinates never move.

    The pseudo-inverse cutoff keeps steps out of the root manifold's
    tangent directions, so near-roots are polished in place instead of
    drifting along the manifold.
    """
    x0 = np.asarray(phases, dtype=float)[None, :]
    x, rmax, ok = _newton_batch(x0, phi, tol, max_iter, pinned)
    return x[0], float(rmax[0]), bool(ok[0])


def refine(phases, phi: float, tol: float = 1e-12, pinned=None) -> np.ndarray:
    """Polish a near-root (residual max-norm below 1e-2) to full precision.

    ``pinned`` marks coordinates (e.g. structural zeros or exact
    fractions) that must not move.  The nearness gate is applied to the
    factorial-normalized residual (Taylor-coefficient scale), so rounded
    table values of any order pass it.  Raises SolverError on divergence.
    """
    x = np.asarray(phases, dtype=float)
    start = float(np.max(np.abs(_row_scale(len(x)) * residual(x, phi))))
    if start >= 1e-2:
        raise SolverError(
            f"refinement expects a near-root; residual max-norm is {start:.3e}"
        )
    out, rmax, ok = _newton(x, phi, tol, max_iter=60, pinned=pinned)
    if not ok:
        raise SolverError(f"refinement failed; residual max-norm {rmax:.3e}")
    return out


def pinned_zero_count(n: int) -> int:
    """Dimension of the solution manifold at order n."""
    return n // 2


def _transport_batch(x0: np.ndarray, phi: float, leading: np.ndarray, tol: float):
    """``transport`` of every row of ``x0`` (B, n) to its own ``leading``
    row (B, npin) at once.  Returns the rows reduced mod 2*pi, their last
    residual max-norms and whether each arrived."""
    x = np.array(x0, dtype=float) % TWO_PI
    batch, n = x.shape
    npin = leading.shape[1]
    if npin > pinned_zero_count(n):
        raise SolverError(
            f"cannot pin {npin} phases on a {pinned_zero_count(n)}-dim manifold"
        )
    if npin == 0:
        return x, np.zeros(batch), np.ones(batch, dtype=bool)
    pinned = np.zeros(n, dtype=bool)
    pinned[:npin] = True
    start = x[:, :npin].copy()
    # Move the leading block along the straight path with adaptive step
    # control: halve the step whenever the pinned Newton polish fails to
    # track the manifold, give up once steps become negligible.
    lam = np.zeros(batch)
    dlam = np.full(batch, 1.0 / _TRANSPORT_STEPS)
    good = x
    rmax = np.full(batch, math.inf)
    arrived = np.zeros(batch, dtype=bool)
    live = np.arange(batch)
    for _ in range(8 * _TRANSPORT_STEPS):
        if not live.size:
            break
        lam_next = np.minimum(1.0, lam[live] + dlam[live])
        trial = good[live]
        trial[:, :npin] = start[live] + (leading[live] - start[live]) * lam_next[:, None]
        trial, rm, ok = _newton_batch(trial, phi, tol, max_iter=40, pinned=pinned)
        rmax[live] = rm
        moved = live[ok]
        good[moved] = trial[ok]
        lam[moved] = lam_next[ok]
        dlam[moved] = np.minimum(2.0 * dlam[moved], 1.0 / _TRANSPORT_STEPS)
        stuck = live[~ok]
        dlam[stuck] *= 0.5
        arrived[moved[lam[moved] >= 1.0]] = True
        # A fold of the manifold over this path; creeping closer only
        # burns iterations.
        live = live[~arrived[live] & (dlam[live] >= 1e-3)]
    return good % TWO_PI, rmax, arrived


def transport(phases, phi: float, leading, tol: float = 1e-12) -> np.ndarray:
    """Slide a root along its solution manifold until its leading relative
    phases equal ``leading`` (at most floor(n/2) values, the manifold
    dimension).  This is the equivalence move connecting the published
    representatives of one root class.  Raises SolverError if the
    continuation loses the root.
    """
    x0 = np.asarray(phases, dtype=float)[None, :]
    leading = np.asarray(leading, dtype=float)[None, :]
    x, rmax, arrived = _transport_batch(x0, phi, leading, tol)
    if not arrived[0]:
        raise SolverError(
            f"manifold transport lost the root (residual {rmax[0]:.3e})"
        )
    return x[0]


def _paths(x: np.ndarray) -> list[tuple[float, ...]]:
    # Canonical targets for the leading phases of x, nearest first.
    npin = pinned_zero_count(len(x))
    return sorted(
        itertools.product((0.0, TWO_PI), repeat=npin),
        key=lambda t: float(np.linalg.norm(np.array(t) - x[:npin])),
    )


def _canonicalize_batch(roots: np.ndarray, phi: float, tol: float):
    """``canonicalize`` of every row of ``roots`` (B, n) at once: each row
    tries its own paths nearest-first, all rows still searching move along
    their next path together.  A row arrives only at a point that still
    hits the target gate: transport keeps the derivative conditions but not
    the zero-error gate, so an odd-order root can slide onto a degenerate
    point.  Returns the rows, whether each arrived, each row's last
    residual max-norm, and whether some path of the row reached the
    canonical form off the target gate."""
    x = np.asarray(roots, dtype=float) % TWO_PI
    paths = [_paths(row) for row in x]
    canon = x.copy()
    arrived = np.zeros(len(x), dtype=bool)
    missed = np.zeros(len(x), dtype=bool)
    rmax = np.full(len(x), math.inf)
    for k in range(max(map(len, paths), default=0)):
        todo = np.flatnonzero(~arrived)
        if not todo.size:
            break
        leading = np.array([paths[i][k] for i in todo])
        got, rmax[todo], ok = _transport_batch(x[todo], phi, leading, tol)
        hit = _hits_target(got, phi)
        missed[todo[ok & ~hit]] = True
        ok &= hit
        canon[todo[ok]] = got[ok]
        arrived[todo[ok]] = True
    return canon, arrived, rmax, missed


def canonicalize(phases, phi: float, tol: float = 1e-12) -> np.ndarray:
    """Transport a root to the leading-zeros canonical form (first
    floor(n/2) relative phases zero), reduced mod 2*pi.

    Zero can be approached from below or above (0 vs 2*pi) per
    coordinate; the manifold may fold over one path, so direction
    combinations are tried nearest-first.
    A path whose end point misses the target gate does not count.
    """
    x = np.asarray(phases, dtype=float)[None, :]
    canon, arrived, rmax, missed = _canonicalize_batch(x, phi, tol)
    if not arrived[0]:
        reason = (
            "the canonical point reached misses the target gate"
            if missed[0]
            else f"manifold transport lost the root (residual {rmax[0]:.3e})"
        )
        raise SolverError(f"canonicalization failed on every path: {reason}")
    return canon[0]


def _circular_close(x: np.ndarray, y: np.ndarray, tol: float) -> bool:
    d = np.abs((x - y + math.pi) % TWO_PI - math.pi)
    return bool(np.max(d) <= tol)


def solve(config: SolverConfig) -> list[Solution]:
    """Multi-start Newton in the leading-zeros chart.

    Every restart draws n uniform phases, sets the first floor(n/2) of
    them to 0 and keeps them there, so each root comes out in canonical
    form.  All restarts run as one batch.  Returns
    one Solution per distinct root, sorted by its phase vector; every
    converged root whose zero-error propagator is the target gate is kept
    as a member of its class.  Raises SolverError if no restart converges
    to such a root.
    """
    rng = np.random.default_rng(config.rng_seed)
    # Row k holds the same draws as the k-th of `seeds` calls of size n.
    seeds = rng.uniform(0.0, TWO_PI, size=(config.seeds, config.n))
    pinned = np.arange(config.n) < pinned_zero_count(config.n)
    seeds[:, pinned] = 0.0
    start = time.perf_counter()
    x, rmax, converged = _newton_batch(
        seeds, config.phi, config.tol, config.max_iter, pinned
    )
    newton_s = time.perf_counter() - start
    ok = converged & _hits_target(x, config.phi)
    roots = x % TWO_PI
    classes: list[tuple[np.ndarray, float, list[np.ndarray]]] = []
    for k in np.flatnonzero(ok):
        for existing, _, members in classes:
            if _circular_close(existing, roots[k], _DEDUPE_TOL):
                members.append(roots[k])
                break
        else:
            classes.append((roots[k], float(rmax[k]), [roots[k]]))
    _log.debug(
        "solve n=%d phi=%.6g: restarts=%d converged=%d off_target=%d "
        "classes=%d newton_s=%.3f",
        config.n, config.phi, config.seeds, converged.sum(),
        converged.sum() - ok.sum(), len(classes), newton_s,
    )
    if not classes:
        raise SolverError(
            "no convergence: every restart failed or missed the target gate "
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
