"""Output checks that share no code with cpgate.

Every check rebuilds the expected answer from plain numpy 2x2 products or
from the closed-form profile of an order-n phase-gate train, so a defect in
``cpgate.su2`` or ``cpgate.analysis`` cannot also hide itself here.  Each
check returns ``None`` when the output is right and a one-line reason when
it is not.

Closed form (Frobenius infidelity of an ideal order-n train at gate angle
phi): sqrt(2) |sin(pi eps / 2)|^(n+1) |sin(phi / 4)|; the trace infidelity
is its square over 2.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction

import numpy as np

SWEEP_TOL = 1e-12  # closed-form agreement of a sweep CSV
RANGE_TOL = 1e-6  # closed-form agreement of epsilon0
RANGE_PRINT_ULP = 0.5e-5  # the CLI prints epsilon0 with 5 decimals
RANGE_THRESHOLD = 1e-4  # the CLI's default infidelity threshold for range
SOLVE_TOL = 1e-8  # closed-form agreement of a solved class over |eps| <= 0.3
SOLVE_EPS = np.linspace(-0.3, 0.3, 61)


def closed_form(n: int, phi: float, eps) -> tuple[np.ndarray, np.ndarray]:
    """(frobenius, trace) fidelity of an ideal order-n train."""
    sg = np.abs(np.sin(np.pi * np.asarray(eps) / 2)) ** (n + 1) * abs(math.sin(phi / 4))
    return 1.0 - math.sqrt(2.0) * sg, 1.0 - 2.0 * sg**2


def closed_form_epsilon0(n: int, phi: float, threshold: float) -> float:
    """Error half-width where the closed-form Frobenius infidelity reaches
    ``threshold``."""
    x = (threshold / (math.sqrt(2.0) * abs(math.sin(phi / 4)))) ** (1.0 / (n + 1))
    return 2.0 / math.pi * math.asin(x)


def product_fidelity(phases, phi: float, eps) -> tuple[np.ndarray, np.ndarray]:
    """(frobenius, trace) fidelity of a train of pi pulses with the given
    phases (radians, applied in order), from explicit 2x2 products."""
    eps = np.asarray(eps, dtype=float)
    half = 0.5 * np.pi * (1.0 + eps)
    c, s = np.cos(half), np.sin(half)
    u = np.broadcast_to(np.eye(2, dtype=complex), (len(eps), 2, 2))
    for p in phases:
        pulse = np.empty((len(eps), 2, 2), dtype=complex)
        pulse[:, 0, 0] = c
        pulse[:, 0, 1] = -1j * np.exp(1j * p) * s
        pulse[:, 1, 0] = -1j * np.exp(-1j * p) * s
        pulse[:, 1, 1] = c
        u = pulse @ u
    target = np.diag([np.exp(-0.5j * phi), np.exp(0.5j * phi)])
    frob = 1.0 - np.linalg.norm(u - target, axis=(1, 2)) / 2.0
    trace = np.real(np.einsum("kij,ij->k", u, target.conj())) / 2.0
    return frob, trace


def check_sweep(path, n: int, phi: float, eps_min: float, eps_max: float,
                steps: int) -> str | None:
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
        rows = np.loadtxt(fh, delimiter=",", ndmin=2)
    if header != "epsilon,frobenius_fidelity,trace_fidelity":
        return f"unexpected CSV header {header!r}"
    if rows.shape != (steps, 3):
        return f"CSV has shape {rows.shape}, expected ({steps}, 3)"
    eps_err = float(np.max(np.abs(rows[:, 0] - np.linspace(eps_min, eps_max, steps))))
    if eps_err > 1e-15:
        return f"error grid off by {eps_err:.3g}"
    frob, trace = closed_form(n, phi, rows[:, 0])
    err = float(max(np.max(np.abs(rows[:, 1] - frob)), np.max(np.abs(rows[:, 2] - trace))))
    if not err <= SWEEP_TOL:
        return f"sweep deviates from the closed form by {err:.3g}"
    return None


_RANGE_LINE = re.compile(
    r"epsilon0 = (\S+), interval \[(\S+)pi, (\S+)pi\]"
)


def check_range(stdout: str, n: int, phi: float) -> str | None:
    match = _RANGE_LINE.search(stdout)
    if match is None:
        return f"no range line in output {stdout.strip()[:80]!r}"
    eps0, lower, upper = (float(v) for v in match.groups())
    want = closed_form_epsilon0(n, phi, RANGE_THRESHOLD)
    tol = RANGE_TOL + RANGE_PRINT_ULP
    err = max(abs(eps0 - want), abs(lower - (1 - want)), abs(upper - (1 + want)))
    if not err <= tol:
        return f"epsilon0 {eps0} vs closed form {want:.8f}"
    return None


_ORDER_LINE = re.compile(r"order = (-?\d+)")


def check_verify(stdout: str, order: int) -> str | None:
    match = _ORDER_LINE.search(stdout)
    if match is None:
        return f"no order line in output {stdout.strip()[:80]!r}"
    got = int(match.group(1))
    if got != order:
        return f"order = {got}, expected {order}"
    return None


def solve_bad_classes(path, n: int, phi: float) -> tuple[int, list[tuple[str, ...]], str | None]:
    """(class count, first-half phase strings of every class off the closed
    form, structural problem or None) for a ``solve --out`` file."""
    with open(path, encoding="utf-8") as fh:
        entries = json.load(fh)
    if not entries:
        return 0, [], "no solution classes written"
    want, _ = closed_form(n, phi, SOLVE_EPS)
    bad = []
    for entry in entries:
        strings = entry["phases_over_pi"]
        if entry["order"] != n or len(strings) != 2 * (n + 1):
            return len(entries), bad, f"class {entry['name']} is not an order-{n} train"
        phases = [float(Fraction(s)) * math.pi for s in strings]
        frob, _ = product_fidelity(phases, phi, SOLVE_EPS)
        if not float(np.max(np.abs(frob - want))) <= SOLVE_TOL:
            bad.append(tuple(strings[: n + 1]))
    return len(entries), bad, None
