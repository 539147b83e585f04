"""Composite pi trains as exact polynomials in s = sin(pi eps/2).

A nominal pi pulse of area pi(1+eps) has a = cos(pi(1+eps)/2) = -s and
b = rot sqrt(1 - s^2), rot = -i e^{ip}.  A train of them is therefore the
pair (a, sqrt(1 - s^2) B) with a and B polynomials in s, and each pulse
maps them by

    a' = -s a - rot (1 - s^2) conj(B),    B' = -s B + rot conj(a),

conj acting on the coefficients.  After k pulses a has degree k and B
degree k - 1, so the composition is exact: there is no truncation order.
``structured_jets`` is the batched kernel the solver runs: the
s-coefficients of the major-diagonal element a_h of the half train
pi_0 pi_p1 ... pi_pn, with their exact tangents in the phases.  Which
phases are differentiated is one count: the leading ``pinned`` phases
are held fixed and the tangents run along the rest, in order, the way
the solver's chart holds its leading zeros.  The half
alone decides the order of the two-half train built on it (see
``solver``), so the kernel never forms the second half.  ``half_jets``
runs the same recurrence for one half on Python scalars, for the square
systems of ``precise``'s polish, where numpy's per-call overhead would
dominate; ``precise`` runs it in fixed point.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np


@lru_cache(maxsize=16)
def _shift_matrix(length: int) -> np.ndarray:
    # The real map taking the coefficient column of (a, B) (index 2m + row)
    # to the coefficients, in the same layout, of (-s a, -s B) stacked on
    # ((1 - s^2) B, a): the first part is a pulse's diagonal term, the
    # second its off-diagonal term before the conjugate and the rotor.
    # Degrees stay below ``length``, so nothing is truncated.
    t = np.zeros((2, length, 2, length, 2))
    m = np.arange(length)
    for row in (0, 1):
        t[0, m[1:], row, m[:-1], row] = -1.0
    t[1, m, 0, m, 1] = 1.0
    t[1, m[2:], 0, m[:-2], 1] = -1.0
    t[1, m, 1, m, 0] = 1.0
    t = t.reshape(4 * length, 2 * length)
    t.flags.writeable = False
    return t


# i for the a row, -i for the B row of the rotor i e^{ip} of a pulse.
_ROTOR_ROWS = np.array([1j, -1j])[:, None, None]


def _pi_pulse(w: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # pi_p @ U for the value and tangents in w (axes: power of s, (a, B),
    # value/tangents, batch), with u = (i e^{ip}, -i e^{ip}) broadcast over
    # the last three axes: a' = -s a + i e^{ip} (1 - s^2) conj(B),
    # B' = -s B - i e^{ip} conj(a).  The shift matrix is real, so it
    # commutes with conj and acts on the interleaved float view of w.
    # Returns the -s part and the rotated part; their sum is the new state.
    length = w.shape[0]
    flat = w.reshape(2 * length, -1).view(float)
    sw, ow = (_shift_matrix(length) @ flat).view(complex).reshape(2, *w.shape)
    rotated = np.conj(ow)
    rotated *= u
    return sw, rotated


@lru_cache(maxsize=64)
def _zero_prefix(length: int, count: int) -> np.ndarray:
    # Half-train state (length, 2) after pi_0 and ``count`` more pi_0
    # pulses: held relative phases of exactly 0 are the same in every
    # row, so they are composed once and broadcast to the batch.
    w = np.zeros((length, 2, 1, 1), dtype=complex)
    w[0, 0] = 1.0
    for _ in range(count + 1):
        sw, rotated = _pi_pulse(w, _ROTOR_ROWS)
        w = sw + rotated
    w = w[:, :, 0, 0]
    w.flags.writeable = False
    return w


def _held(pinned, n: int) -> int:
    # Phases held fixed: all n where no tangent is asked for.
    if pinned is None:
        return n
    if not 0 <= pinned <= n:
        raise ValueError(f"cannot hold {pinned} of {n} phases")
    return pinned


def structured_jets(rel_phases, pinned=None):
    """Polynomials in s of the major-diagonal element a_h of a batch of
    half trains.

    Row k of ``rel_phases`` (shape (B, n)) holds the relative phases
    p1..pn of one half pi_0 pi_p1 ... pi_pn.  Returns the n + 2
    coefficients of s^0 .. s^{n+1} of a_h, shape (B, n + 2).

    ``pinned`` selects tangents: None for none, else the number k of
    leading phases held fixed, 0 <= k <= n.  With tangents it returns
    ``(a, da)``, where ``da[r, i]`` (shape (B, n - k, n + 2)) is the exact
    derivative of ``a[r]`` with respect to p_{k+1+i}: forward-mode
    differentiation, with d rot / d p = i rot for the one pulse of each
    phase.  Held leading phases that are exactly 0 in every row are
    composed once per (length, count) and broadcast.
    """
    x = np.asarray(rel_phases, dtype=float)
    if x.ndim != 2:
        raise ValueError("relative phases must have shape (batch, n)")
    batch, n = x.shape
    held = _held(pinned, n)
    head = 0
    while head < held and not x[:, head].any():
        head += 1
    # Axes: power of s, (a, B), value then its derivative in each
    # phase after the held ones, batch.  The first pulse has phase 0.
    w = np.zeros((n + 2, 2, 1 + n - held, batch), dtype=complex)
    w[:, :, 0] = _zero_prefix(n + 2, head)[:, :, None]
    # i e^{ip} for the a row, -i e^{ip} for the B row of each later pulse.
    u_all = np.exp(1j * x[:, head:].T)[:, None, None, :] * _ROTOR_ROWS
    for j, u in enumerate(u_all, start=head):
        sw, rotated = _pi_pulse(w, u)
        if j >= held:
            sw[:, :, 1 + j - held] += 1j * rotated[:, :, 0]
        w = sw + rotated
    if pinned is None:
        return w[:, 0, 0].T
    return w[:, 0, 0].T, w[:, 0, 1:].transpose(2, 1, 0)


@lru_cache(maxsize=64)
def _zero_prefix_scalars(length: int, count: int):
    # ``_zero_prefix`` as Python complex lists for ``half_jets``, each
    # after two zeros that stand for the coefficients below s^0.
    w = _zero_prefix(length, count)
    return (0j, 0j, *w[:, 0].tolist()), (0j, 0j, *w[:, 1].tolist())


def half_jets(rel_phases, pinned=None):
    """``structured_jets`` of one half on Python scalars.

    ``rel_phases`` holds the n relative phases p1..pn of the half
    pi_0 pi_p1 ... pi_pn.  Returns the n + 2 coefficients of s^0 .. s^{n+1}
    of a_h (a list of complex) and, unless ``pinned`` is None, for each
    phase after the first ``pinned``, in order, the list of their exact
    derivatives in it.  Held leading phases that are exactly 0 come from
    the cached zero prefix.  After k pulses a holds only the powers of s
    of k's parity and B only the others, so each pulse forms only those.
    """
    n = len(rel_phases)
    held = _held(pinned, n)
    head = 0
    while head < held and rel_phases[head] == 0:
        head += 1
    a, b = _zero_prefix_scalars(n + 2, head)
    size = n + 4
    # Tangents (da, dB) of the free phases already applied.
    tangents = []
    # Padded index 2 + m holds s^m; a has the parity of the pulse count.
    parity = (head + 1) % 2
    for j in range(head, n):
        # a' = -s a + u (1 - s^2) conj(B), B' = -s B - u conj(a), u = i e^{ip}.
        p = rel_phases[j]
        u = complex(-math.sin(p), math.cos(p))
        a_rows = range(3 - parity, size, 2)
        b_rows = range(2 + parity, size, 2)
        if j >= held:
            # d/dp of the rotated terms, the only ones that hold p.
            iu = 1j * u
            da, db = [0j] * size, [0j] * size
            for m in a_rows:
                da[m] = iu * (b[m] - b[m - 2]).conjugate()
            for m in b_rows:
                db[m] = -iu * a[m].conjugate()
        moved = []
        for ta, tb in tangents + [(a, b)]:
            na, nb = [0j] * size, [0j] * size
            for m in a_rows:
                na[m] = u * (tb[m] - tb[m - 2]).conjugate() - ta[m - 1]
            for m in b_rows:
                nb[m] = -tb[m - 1] - u * ta[m].conjugate()
            moved.append((na, nb))
        *tangents, (a, b) = moved
        if j >= held:
            tangents.append((da, db))
        parity ^= 1
    return list(a[2:]), [ta[2:] for ta, _ in tangents]
