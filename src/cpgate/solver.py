"""Numerical derivation of composite phases by derivative nullification.

The free parameters are the n relative phases of the half-sequence; the
equations demand that, at zero error, the even eps-derivatives of the
major-diagonal propagator element and the odd derivatives of the
minor-diagonal one vanish through order n (the complementary derivatives
vanish identically by structure).  The resulting 2n real conditions are
rank-deficient at the roots: solutions form manifolds of dimension
floor(n/2), which is why a canonical representative (leading relative
phases pinned to zero, matching the compact 3pi/4pi-block forms) is used
for deduplication and reporting.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .jets import _mul_su2, compose_arrays

TWO_PI = 2.0 * math.pi


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
    dedupe_tol: float = 1e-6
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
    """One root class: canonical phases plus every raw member found."""

    phases: tuple[float, ...]
    residual_norm: float
    members: tuple[tuple[float, ...], ...] = field(default=())


def _structured_arrays(phases: np.ndarray, phi: float, order: int):
    # Compose one half, then reuse it: the shifted second half has the
    # same diagonal jet and a phase-rotated off-diagonal jet.
    half_phases = [0.0] + list(phases)
    areas = [math.pi] * len(half_phases)
    a, b = compose_arrays(half_phases, areas, order)
    rot = np.exp(1j * (math.pi - phi / 2))
    return _mul_su2(a, rot * b, a, b)


# For odd n the conditions fix derivatives 1..n but not the zero-error
# gate itself: the class (0, pi, pi) at n = 3 converges to a0 = 1.  Valid
# roots hit the target to rounding; such degenerate ones miss by ~1.
_TARGET_TOL = 1e-6


def _hits_target(phases: np.ndarray, phi: float) -> bool:
    """Whether the zero-error propagator of the root is the target gate."""
    a, _ = _structured_arrays(phases, phi, 0)
    return abs(a[0] - cmath.exp(-0.5j * phi)) < _TARGET_TOL


def residual(phases, phi: float) -> np.ndarray:
    """Real residual vector of the parity-surviving nullification conditions.

    Entries are Re and Im of the m-th derivative at 0 of the major-diagonal
    element for even m and of the minor-diagonal element for odd m,
    m = 1..n, giving a vector of length 2n.
    """
    phases = np.asarray(phases, dtype=float)
    n = len(phases)
    a, b = _structured_arrays(phases, phi, n)
    out = np.empty(2 * n)
    fact = 1.0
    for m in range(1, n + 1):
        fact *= m
        c = a[m] if m % 2 == 0 else b[m]
        out[2 * m - 2] = fact * c.real
        out[2 * m - 1] = fact * c.imag
    return out


def _jacobian(phases: np.ndarray, phi: float, step: float = 1e-6) -> np.ndarray:
    n = len(phases)
    jac = np.empty((2 * n, n))
    for j in range(n):
        hi = phases.copy()
        lo = phases.copy()
        hi[j] += step
        lo[j] -= step
        jac[:, j] = (residual(hi, phi) - residual(lo, phi)) / (2 * step)
    return jac


def _row_scale(n: int) -> np.ndarray:
    # 1/m! per derivative row (Re and Im): evens out the dynamic range of
    # the residual so the least-squares step is well conditioned.
    return np.repeat([1.0 / math.factorial(m) for m in range(1, n + 1)], 2)


def _tol_floor(n: int, tol: float) -> float:
    # The m!-scaled residual of an exact root evaluated in doubles sits at
    # ~n! * machine-eps; don't demand convergence below that.
    return max(tol, math.factorial(n) * 1e-12)


def _newton(
    phases: np.ndarray,
    phi: float,
    tol: float,
    max_iter: int,
    pinned: np.ndarray | None = None,
    rcond: float = 1e-6,
) -> tuple[np.ndarray, float, bool]:
    """Damped least-squares Newton; pinned coordinates never move.

    The pseudo-inverse cutoff keeps steps out of the root manifold's
    tangent directions, so near-roots are polished in place instead of
    drifting along the manifold.
    """
    x = np.array(phases, dtype=float)
    n = len(x)
    tol = _tol_floor(n, tol)
    w = _row_scale(n)
    free = (
        np.arange(n)
        if pinned is None
        else np.flatnonzero(~np.asarray(pinned, dtype=bool))
    )
    if len(free) == 0:
        r = residual(x, phi)
        return x, float(np.max(np.abs(r))), float(np.max(np.abs(r))) < tol
    for _ in range(max_iter):
        r = residual(x, phi)
        rmax = float(np.max(np.abs(r)))
        if rmax < tol:
            return x, rmax, True
        jac = _jacobian(x, phi)[:, free]
        step = -np.linalg.pinv(w[:, None] * jac, rcond=rcond) @ (w * r)
        # Backtracking on the scaled residual norm; arcsin-flavored roots
        # have steep basins, so halve up to 30 times before giving up.
        norm0 = np.linalg.norm(w * r)
        t = 1.0
        for _ in range(30):
            trial = x.copy()
            trial[free] += t * step
            if np.linalg.norm(w * residual(trial, phi)) < norm0:
                x = trial
                break
            t *= 0.5
        else:
            return x, rmax, False
    r = residual(x, phi)
    rmax = float(np.max(np.abs(r)))
    return x, rmax, rmax < tol


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


def _track(x: np.ndarray, phi: float, tol: float, free: np.ndarray,
           w: np.ndarray) -> tuple[np.ndarray, float, bool]:
    """Cheap polish for continuation tracking: one Jacobian, chord steps.

    Adequate when the start is already near the root (small continuation
    step); the full Newton with per-iteration Jacobians is overkill there.
    """
    jac_pinv = None
    for it in range(12):
        r = residual(x, phi)
        rmax = float(np.max(np.abs(r)))
        if rmax < tol:
            return x, rmax, True
        if jac_pinv is None or it == 6:
            # Refresh once if chord convergence stalls.
            jac = _jacobian(x, phi)[:, free]
            jac_pinv = np.linalg.pinv(w[:, None] * jac, rcond=1e-6)
        x = x.copy()
        x[free] -= jac_pinv @ (w * r)
    r = residual(x, phi)
    rmax = float(np.max(np.abs(r)))
    return x, rmax, rmax < tol


def transport(phases, phi: float, leading, tol: float = 1e-12,
              steps: int = 12, fast: bool = False) -> np.ndarray:
    """Slide a root along its solution manifold until its leading relative
    phases equal ``leading`` (at most floor(n/2) values, the manifold
    dimension).  This is the equivalence move connecting the published
    representatives of one root class.  Raises SolverError if the
    continuation loses the root.

    ``fast`` trades robustness for speed (chord tracking, small retry
    budget); use it only for bulk work where losing a root is cheap.
    """
    x = np.array(phases, dtype=float) % TWO_PI
    n = len(x)
    leading = np.asarray(leading, dtype=float)
    npin = len(leading)
    if npin > pinned_zero_count(n):
        raise SolverError(
            f"cannot pin {npin} phases on a {pinned_zero_count(n)}-dim manifold"
        )
    if npin == 0:
        return x
    pinned = np.zeros(n, dtype=bool)
    pinned[:npin] = True
    start = x[:npin].copy()
    # Move the leading block along the straight path with adaptive step
    # control: halve the step whenever the pinned Newton polish fails to
    # track the manifold, give up once steps become negligible.
    free = np.flatnonzero(~pinned)
    w = _row_scale(n)
    tol = _tol_floor(n, tol)
    lam = 0.0
    dlam = 1.0 / steps
    good = x.copy()
    rmax = math.inf
    attempts = 3 * steps if fast else 8 * steps
    cutoff = 5e-3 if fast else 1e-3
    for _ in range(attempts):
        lam_next = min(1.0, lam + dlam)
        trial = good.copy()
        trial[:npin] = start + (leading - start) * lam_next
        if fast:
            trial, rmax, ok = _track(trial, phi, tol, free, w)
        else:
            trial, rmax, ok = _newton(
                trial, phi, tol, max_iter=40, pinned=pinned
            )
        if ok:
            good = trial
            lam = lam_next
            if lam >= 1.0:
                return good % TWO_PI
            dlam = min(2.0 * dlam, 1.0 / steps)
        else:
            dlam *= 0.5
            if dlam < cutoff:
                # A fold of the manifold over this path; creeping closer
                # only burns iterations.
                break
    raise SolverError(
        f"manifold transport lost the root (residual {rmax:.3e})"
    )


def canonicalize(phases, phi: float, tol: float = 1e-12,
                 max_paths: int | None = None, fast: bool = False) -> np.ndarray:
    """Transport a root to the leading-zeros canonical form (first
    floor(n/2) relative phases zero), reduced mod 2*pi.

    Zero can be approached from below or above (0 vs 2*pi) per
    coordinate; the manifold may fold over one path, so direction
    combinations are tried nearest-first (at most ``max_paths`` of them).
    """
    x = np.asarray(phases, dtype=float) % TWO_PI
    npin = pinned_zero_count(len(x))
    targets = sorted(
        itertools.product((0.0, TWO_PI), repeat=npin),
        key=lambda t: float(np.linalg.norm(np.array(t) - x[:npin])),
    )
    if max_paths is not None:
        targets = targets[:max_paths]
    last_error = None
    for target in targets:
        try:
            return transport(x, phi, np.array(target), tol, fast=fast)
        except SolverError as exc:
            last_error = exc
    raise SolverError(f"canonicalization failed on every path: {last_error}")


def _circular_close(x: np.ndarray, y: np.ndarray, tol: float) -> bool:
    d = np.abs((x - y + math.pi) % TWO_PI - math.pi)
    return bool(np.max(d) <= tol)


def solve(config: SolverConfig) -> list[Solution]:
    """Multi-start Newton over the n relative phases.

    Returns one Solution per distinct canonical root, sorted by the
    canonical phase vector; every raw converged root whose zero-error
    propagator is the target gate is kept as a member of its class.
    Raises SolverError if no restart converges to such a root.
    """
    rng = np.random.default_rng(config.rng_seed)
    roots: list[np.ndarray] = []
    for _ in range(config.seeds):
        seed = rng.uniform(0.0, TWO_PI, size=config.n)
        x, rmax, ok = _newton(seed, config.phi, config.tol, config.max_iter)
        if ok and _hits_target(x, config.phi):
            roots.append(x % TWO_PI)
    if not roots:
        raise SolverError(
            "no convergence: every restart failed or missed the target gate "
            f"(n={config.n}, phi={config.phi:.6g}, seeds={config.seeds})"
        )
    classes: list[tuple[np.ndarray, float, list[np.ndarray]]] = []
    for root in roots:
        try:
            # Nearest path only: roots whose canonical path is blocked by
            # a manifold fold are dropped rather than retried expensively;
            # with many restarts every class is still reached.
            canon = canonicalize(
                root, config.phi, config.tol, max_paths=1, fast=True
            )
        except SolverError:
            continue
        for existing, _, members in classes:
            if _circular_close(existing, canon, config.dedupe_tol):
                members.append(root)
                break
        else:
            rmax = float(np.max(np.abs(residual(canon, config.phi))))
            classes.append((canon, rmax, [root]))
    if not classes:
        raise SolverError("no convergence: canonicalization failed for all roots")
    classes.sort(key=lambda item: tuple(item[0]))
    return [
        Solution(
            phases=tuple(canon),
            residual_norm=rmax,
            members=tuple(tuple(m) for m in members),
        )
        for canon, rmax, members in classes
    ]
