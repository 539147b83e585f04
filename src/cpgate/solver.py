"""Numerical derivation of composite phases from the half-train conditions.

The free parameters are the n relative phases p1..pn of the half train
H = pi_0 pi_p1 ... pi_pn; the two-half train is H followed by H shifted by
pi - phi/2.  With (a, b) the Cayley-Klein pair of the full train and a_h
the major-diagonal element of H, every exact two-half train, root or not,
satisfies

    Re(a e^{i phi/2}) = 1 - 2 Im(a_h e^{i phi/4})^2,

since a = a_h^2 + e^{-i phi/2} |b_h|^2.  The Frobenius distance to the
target gate is therefore sqrt(2) |Im(a_h e^{i phi/4})|, a quantity of the
half alone.  With s = sin(pi eps/2), a_h is a polynomial in s of degree
n + 1 with the parity of n + 1 (see ``jets``), and so is
Im(e^{i phi/4} a_h).  Its top coefficient is not fixed by the structure,
but its value at s = 1 is: there every pulse is -I, so a_h = (-1)^{n+1}
and the coefficients sum to (-1)^{n+1} sin(phi/4).  The train has order n
exactly when the coefficients of s^{n-1}, s^{n-3}, ... vanish; the top
coefficient then equals that sum, which is the profile law.  The
``residual`` is those ceil(n/2) coefficients, ascending.  For odd n its
s^0 entry is the zero-error gate itself; for even n the gate holds by
parity.

The roots form manifolds of dimension floor(n/2).  ``solve`` runs
Newton in the canonical chart, with the leading floor(n/2) relative
phases pinned to zero (the compact 3pi/4pi-block forms), where the
system is square and the roots are isolated points; each root it finds
is already the canonical representative of its class.  ``transport``
and ``canonicalize`` bring a root found elsewhere on its manifold, such
as a published train, into that chart.
"""

from __future__ import annotations

import cmath
import itertools
import logging
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .jets import structured_jets

TWO_PI = 2.0 * math.pi
# Pseudo-inverse cutoff of the Newton step.
_RCOND = 1e-6
# Two roots closer than this in every phase (mod 2 pi) are one class.
_DEDUPE_TOL = 1e-6
# Nominal steps of the continuation path in ``transport``.
_TRANSPORT_STEPS = 12
# Residual max-norm a root must reach, and the Newton iteration limit of
# a ``solve`` restart.
_TOL = 1e-12
_MAX_ITER = 200

_log = logging.getLogger("cpgate.solver")


class SolverError(RuntimeError):
    pass


@dataclass(frozen=True)
class SolverConfig:
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


@dataclass(frozen=True)
class Solution:
    """One root class: its canonical phases plus every root found in it."""

    phases: tuple[float, ...]
    residual_norm: float
    members: tuple[tuple[float, ...], ...] = field(default=())


def _residuals(x: np.ndarray, phi: float, jacobian=False):
    """Residual rows (B, ceil(n/2)) of a batch of relative-phase vectors
    and, with ``jacobian`` (True, or the phase indices J as in
    ``structured_jets``), their exact Jacobians (B, ceil(n/2), n), or
    (B, ceil(n/2), len(J)) in J."""
    n = x.shape[1]
    rot = cmath.exp(0.25j * phi)
    # The coefficients of s^{n-1}, s^{n-3}, ... >= 0 (none at n = 0).
    rows = slice((n + 1) % 2, n, 2)
    if jacobian is False:
        return (rot * structured_jets(x)[:, rows]).imag
    a, da = structured_jets(x, jacobian=jacobian)
    return (rot * a[:, rows]).imag, (rot * da[:, :, rows]).imag.transpose(0, 2, 1)


def residual(phases, phi: float) -> np.ndarray:
    """Real residual vector of the half-train conditions.

    Entries are the coefficients of s^{n-1}, s^{n-3}, ... >= 0
    (ascending) of Im(e^{i phi/4} a_h), a polynomial in s = sin(pi eps/2),
    a_h being the major-diagonal element of the half train; the two-half
    train has order n exactly when all ceil(n/2) of them vanish.
    """
    return _residuals(np.asarray(phases, dtype=float)[None, :], phi)[0]


def _jacobian(phases: np.ndarray, phi: float, wrt=True) -> np.ndarray:
    """Exact Jacobian (ceil(n/2), n) of ``residual`` in the relative
    phases, or (ceil(n/2), len(wrt)) in the phases ``wrt``."""
    x = np.asarray(phases, dtype=float)[None, :]
    return _residuals(x, phi, jacobian=wrt)[1][0]


# Backtracking step lengths 2^-k, k = 1..29, after a failed full step,
# tried in two groups: on the benchmark's solve workload 82 % of such
# rows improve within the first three (75-88 % per op list, seeds
# 7001-7010), so most skip the other 26.
_HALVINGS = (0.5 ** np.arange(1, 4), 0.5 ** np.arange(4, 30))


def _newton_batch(
    x0: np.ndarray,
    phi: float,
    tol: float,
    max_iter: int,
    pinned=None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Damped least-squares Newton on each row of ``x0`` (B, n) at once.

    Returns the rows, their residual max-norms, whether each converged and
    the Jacobian (B, ceil(n/2), F) of each row's residual in its F free
    phases at the returned row.  Every row follows its own iteration
    exactly as if it were alone: rows that converge or fail leave the
    batch, the rest go on.
    """
    x = np.array(x0, dtype=float)
    batch, n = x.shape
    free = (
        np.arange(n)
        if pinned is None
        else np.flatnonzero(~np.asarray(pinned, dtype=bool))
    )
    jac_out = np.empty((batch, (n + 1) // 2, len(free)))
    if len(free) == 0:
        rmax = np.max(np.abs(_residuals(x, phi)), axis=1, initial=0.0)
        return x, rmax, rmax < tol, jac_out
    wrt = tuple(free.tolist())
    rmax = np.full(batch, math.inf)
    ok = np.zeros(batch, dtype=bool)
    live = np.arange(batch)
    # Residual rows and Jacobians (in the free phases) at x[live].
    r, jac = _residuals(x, phi, jacobian=wrt)
    for _ in range(max_iter):
        rmax[live] = np.abs(r).max(axis=1)
        done = rmax[live] < tol
        if done.any():
            ok[live[done]] = True
            jac_out[live[done]] = jac[done]
            live, r, jac = live[~done], r[~done], jac[~done]
            if not live.size:
                return x, rmax, ok, jac_out
        step = -(np.linalg.pinv(jac, rcond=_RCOND) @ r[:, :, None])[:, :, 0]
        # Backtracking on the residual norm; arcsin-flavored roots
        # have steep basins, so halve up to 29 times before giving up.
        # The full step goes first, evaluated with its Jacobian so a row
        # that takes it needs no new evaluation next iteration; a row it
        # does not improve tries the halvings and takes the longest that
        # does.
        norm0 = np.linalg.norm(r, axis=1)
        trial = x[live]
        trial[:, free] += step
        jac_at_x = jac
        r, jac = _residuals(trial, phi, jacobian=wrt)
        full = np.linalg.norm(r, axis=1) < norm0
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
            norms = np.linalg.norm(r_trial, axis=1).reshape(len(todo), len(t))
            better = norms < norm0[todo, None]
            hit = better.any(axis=1)
            first = better.argmax(axis=1)
            x[live[todo[hit]]] = trial[hit, first[hit]]
            moved[todo[hit]] = True
            todo = todo[~hit]
        halved = np.flatnonzero(moved & ~full)
        if halved.size:
            r[halved], jac[halved] = _residuals(x[live[halved]], phi, jacobian=wrt)
        # A row whose every halving failed stops where it is.
        jac_out[live[~moved]] = jac_at_x[~moved]
        live, r, jac = live[moved], r[moved], jac[moved]
        if not live.size:
            return x, rmax, ok, jac_out
    rmax[live] = np.abs(r).max(axis=1)
    ok[live] = rmax[live] < tol
    jac_out[live] = jac
    return x, rmax, ok, jac_out


def _newton(
    phases: np.ndarray,
    phi: float,
    tol: float,
    max_iter: int,
    pinned: np.ndarray | None = None,
) -> tuple[np.ndarray, float, bool, np.ndarray]:
    """Damped least-squares Newton; pinned coordinates never move.

    The pseudo-inverse cutoff keeps steps out of the root manifold's
    tangent directions, so near-roots are polished in place instead of
    drifting along the manifold.  Returns the phases, their residual
    max-norm, whether they converged and the Jacobian (ceil(n/2), F) in
    the F free phases at the returned phases.
    """
    x0 = np.asarray(phases, dtype=float)[None, :]
    x, rmax, ok, jac = _newton_batch(x0, phi, tol, max_iter, pinned)
    return x[0], float(rmax[0]), bool(ok[0]), jac[0]


def pinned_zero_count(n: int) -> int:
    """Dimension of the solution manifold at order n."""
    return n // 2


def transport(phases, phi: float, leading) -> np.ndarray:
    """Slide a root along its solution manifold until its leading relative
    phases equal ``leading`` (at most floor(n/2) values, the manifold
    dimension), reduced mod 2*pi.  This is the equivalence move connecting
    the published representatives of one root class.  Raises SolverError
    if the continuation loses the root.
    """
    x = np.asarray(phases, dtype=float) % TWO_PI
    leading = np.asarray(leading, dtype=float)
    n, npin = len(x), len(leading)
    if npin > pinned_zero_count(n):
        raise SolverError(
            f"cannot pin {npin} phases on a {pinned_zero_count(n)}-dim manifold"
        )
    if npin == 0:
        return x
    pinned = np.arange(n) < npin
    start = x[:npin].copy()
    # Move the leading block along the straight path with adaptive step
    # control: halve the step whenever the pinned Newton polish fails to
    # track the manifold, give up once steps become negligible (a fold of
    # the manifold over this path; creeping closer only burns iterations).
    lam, dlam, rmax = 0.0, 1.0 / _TRANSPORT_STEPS, math.inf
    for _ in range(8 * _TRANSPORT_STEPS):
        lam_next = min(1.0, lam + dlam)
        trial = x.copy()
        trial[:npin] = start + (leading - start) * lam_next
        trial, rmax, ok, _ = _newton(trial, phi, _TOL, 40, pinned)
        if ok:
            x, lam = trial, lam_next
            if lam >= 1.0:
                return x % TWO_PI
            dlam = min(2.0 * dlam, 1.0 / _TRANSPORT_STEPS)
        else:
            dlam *= 0.5
            if dlam < 1e-3:
                break
    raise SolverError(f"manifold transport lost the root (residual {rmax:.3e})")


def canonicalize(phases, phi: float) -> np.ndarray:
    """Transport a root to the leading-zeros canonical form (first
    floor(n/2) relative phases zero), reduced mod 2*pi.

    Zero can be approached from below or above (0 vs 2*pi) per
    coordinate; the manifold may fold over one path, so direction
    combinations are tried nearest-first.  Raises SolverError with the
    reason the last path failed if none reaches the chart.
    """
    x = np.asarray(phases, dtype=float) % TWO_PI
    npin = pinned_zero_count(len(x))
    paths = sorted(
        itertools.product((0.0, TWO_PI), repeat=npin),
        key=lambda t: float(np.linalg.norm(np.array(t) - x[:npin])),
    )
    lost = ""
    for leading in paths:
        try:
            return transport(x, phi, leading)
        except SolverError as exc:
            lost = str(exc)
    raise SolverError(f"canonicalization failed on every path: {lost}")


def _circular_close(x: np.ndarray, y: np.ndarray, tol: float) -> bool:
    d = np.abs((x - y + math.pi) % TWO_PI - math.pi)
    return bool(np.max(d) <= tol)


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
    pinned = np.arange(config.n) < pinned_zero_count(config.n)
    seeds[:, pinned] = 0.0
    start = time.perf_counter()
    x, rmax, converged, _ = _newton_batch(seeds, config.phi, _TOL, _MAX_ITER, pinned)
    newton_s = time.perf_counter() - start
    roots = x % TWO_PI
    classes: list[tuple[np.ndarray, float, list[np.ndarray]]] = []
    for k in np.flatnonzero(converged):
        for existing, _, members in classes:
            if _circular_close(existing, roots[k], _DEDUPE_TOL):
                members.append(roots[k])
                break
        else:
            classes.append((roots[k], float(rmax[k]), [roots[k]]))
    _log.debug(
        "solve n=%d phi=%.6g: restarts=%d converged=%d classes=%d newton_s=%.3f",
        config.n, config.phi, config.seeds, converged.sum(), len(classes), newton_s,
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
