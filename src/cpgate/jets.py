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
pi_0 pi_p1 ... pi_pn, with their exact tangents in the phases.  The half
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


@lru_cache(maxsize=64)
def _tangent_slots(wrt, n: int) -> tuple[tuple[int, ...], int | None]:
    # Slot of each phase on the value/tangent axis of ``structured_jets``
    # (0 = not differentiated) and the number of tangents, None for none;
    # ``wrt`` is a bool or a tuple of phase indices.
    if wrt is False:
        return (0,) * n, None
    if wrt is True:
        wrt = tuple(range(n))
    if not all(0 <= j < n for j in wrt):
        raise ValueError("jacobian phase index out of range")
    if len(set(wrt)) != len(wrt):
        raise ValueError("jacobian phase indices must be distinct")
    slot = [0] * n
    for k, j in enumerate(wrt, start=1):
        slot[j] = k
    return tuple(slot), len(wrt)


def _tangent_key(jacobian):
    # The ``jacobian`` argument of ``structured_jets`` as a bool or a tuple
    # of phase indices.  Only a flat sequence of integers is taken as
    # indices: a boolean mask or a float would otherwise be read as indices.
    if isinstance(jacobian, (bool, np.bool_)):
        return bool(jacobian)
    idx = np.asarray(jacobian)
    if idx.ndim != 1 or (idx.size and not np.issubdtype(idx.dtype, np.integer)):
        raise ValueError("jacobian must be a bool or a sequence of phase indices")
    return tuple(idx.tolist())


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
    # pulses: relative phases pinned at exactly 0 are the same in every
    # row, so they are composed once and broadcast to the batch.
    w = np.zeros((length, 2, 1, 1), dtype=complex)
    w[0, 0] = 1.0
    for _ in range(count + 1):
        sw, rotated = _pi_pulse(w, _ROTOR_ROWS)
        w = sw + rotated
    w = w[:, :, 0, 0]
    w.flags.writeable = False
    return w


def structured_jets(rel_phases, jacobian=False):
    """Polynomials in s of the major-diagonal element a_h of a batch of
    half trains.

    Row k of ``rel_phases`` (shape (B, n)) holds the relative phases
    p1..pn of one half pi_0 pi_p1 ... pi_pn.  Returns the n + 2
    coefficients of s^0 .. s^{n+1} of a_h, shape (B, n + 2).

    ``jacobian`` selects tangents: False for none, True for all n phases,
    or a sequence of distinct integer phase indices J (a boolean mask is
    rejected, not read as indices).  With tangents it returns ``(a, da)``,
    where ``da[k, i]`` (shape (B, len(J), n + 2)) is the exact
    derivative of ``a[k]`` with respect to p_{J[i]}: forward-mode
    differentiation, with d rot / d p = i rot for the one pulse of each
    phase.  Leading phases that are exactly 0 in every row and not in J
    are composed once per (length, count) and broadcast.
    """
    x = np.asarray(rel_phases, dtype=float)
    if x.ndim != 2:
        raise ValueError("relative phases must have shape (batch, n)")
    batch, n = x.shape
    slot, tangents = _tangent_slots(_tangent_key(jacobian), n)
    head = 0
    while head < n and not slot[head] and not x[:, head].any():
        head += 1
    # Axes: power of s, (a, B), value then its derivative in each
    # selected phase, batch.  The first pulse has phase 0.
    w = np.zeros((n + 2, 2, 1 + (tangents or 0), batch), dtype=complex)
    w[:, :, 0] = _zero_prefix(n + 2, head)[:, :, None]
    # i e^{ip} for the a row, -i e^{ip} for the B row of each later pulse.
    u_all = np.exp(1j * x[:, head:].T)[:, None, None, :] * _ROTOR_ROWS
    for u, k in zip(u_all, slot[head:]):
        sw, rotated = _pi_pulse(w, u)
        if k:
            sw[:, :, k] += 1j * rotated[:, :, 0]
        w = sw + rotated
    if tangents is None:
        return w[:, 0, 0].T
    return w[:, 0, 0].T, w[:, 0, 1:].transpose(2, 1, 0)


@lru_cache(maxsize=64)
def _zero_prefix_scalars(length: int, count: int):
    # ``_zero_prefix`` as Python complex lists for ``half_jets``, each
    # after two zeros that stand for the coefficients below s^0.
    w = _zero_prefix(length, count)
    return (0j, 0j, *w[:, 0].tolist()), (0j, 0j, *w[:, 1].tolist())


def half_jets(rel_phases, free=()):
    """``structured_jets`` of one half on Python scalars.

    ``rel_phases`` holds the n relative phases p1..pn of the half
    pi_0 pi_p1 ... pi_pn.  Returns the n + 2 coefficients of s^0 .. s^{n+1}
    of a_h (a list of complex) and, for each distinct phase index j in
    ``free``, in that order, the list of their exact derivatives in p_j.
    Leading phases that are exactly 0 and not in ``free`` come from the
    cached zero prefix.  After k pulses a holds only the powers of s of
    k's parity and B only the others, so each pulse forms only those.
    """
    n = len(rel_phases)
    slot = {j: k for k, j in enumerate(free)}
    head = 0
    while head < n and head not in slot and rel_phases[head] == 0:
        head += 1
    a, b = _zero_prefix_scalars(n + 2, head)
    size = n + 4
    # Tangents (slot, da, dB) of the phases already applied.
    tangents = []
    # Padded index 2 + m holds s^m; a has the parity of the pulse count.
    parity = (head + 1) % 2
    for j in range(head, n):
        # a' = -s a + u (1 - s^2) conj(B), B' = -s B - u conj(a), u = i e^{ip}.
        p = rel_phases[j]
        u = complex(-math.sin(p), math.cos(p))
        a_rows = range(3 - parity, size, 2)
        b_rows = range(2 + parity, size, 2)
        if j in slot:
            # d/dp of the rotated terms, the only ones that hold p.
            iu = 1j * u
            da, db = [0j] * size, [0j] * size
            for m in a_rows:
                da[m] = iu * (b[m] - b[m - 2]).conjugate()
            for m in b_rows:
                db[m] = -iu * a[m].conjugate()
        moved = []
        for k, ta, tb in tangents + [(None, a, b)]:
            na, nb = [0j] * size, [0j] * size
            for m in a_rows:
                na[m] = u * (tb[m] - tb[m - 2]).conjugate() - ta[m - 1]
            for m in b_rows:
                nb[m] = -tb[m - 1] - u * ta[m].conjugate()
            moved.append((k, na, nb))
        *tangents, (_, a, b) = moved
        if j in slot:
            tangents.append((slot[j], da, db))
        parity ^= 1
    out = [None] * len(slot)
    for k, ta, _ in tangents:
        out[k] = ta[2:]
    return list(a[2:]), out
