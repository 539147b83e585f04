"""Composite pi trains as exact polynomials in u = s^2, s = sin(pi eps/2).

A nominal pi pulse of area pi(1+eps) has a = cos(pi(1+eps)/2) = -s and
b = rot sqrt(1 - s^2), rot = -i e^{ip}.  A train of them is therefore the
pair (a, sqrt(1 - s^2) B) with a and B polynomials in s, and each pulse
maps them by

    a' = -s a - rot (1 - s^2) conj(B),    B' = -s B + rot conj(a),

conj acting on the coefficients.  After k pulses a has degree k and the
parity of k in s, and B degree k - 1 and the other parity (the parity rule
of quantum signal processing), so the composition is exact, with no
truncation order, and every polynomial here keeps only its live
coefficients: a = s^{k mod 2} A(u) and B = s^{(k+1) mod 2} B~(u) with
u = s^2, A holding k // 2 + 1 coefficients and B~ (k + 1) // 2.  Which
of the two a pulse multiplies by u alternates with k:

    k even:  A' = -A - rot (1 - u) conj(B~),    B~' = -u B~ + rot conj(A),
    k odd:   A' = -u A - rot (1 - u) conj(B~),  B~' = -B~ + rot conj(A).

``structured_jets`` is the batched kernel the solver runs: the
u-coefficients of A for the major-diagonal element a_h of the half train
pi_0 pi_p1 ... pi_pn, (n + 1) // 2 + 1 of them, with their exact tangents
in the phases.  Which phases are differentiated is one count: the leading
``pinned`` phases are held fixed and the tangents run along the rest, in
order, the way the solver's chart holds its leading zeros.  The half
alone decides the order of the two-half train built on it (see
``solver``), so the kernel never forms the second half.
``sequences.half_jets`` runs the same recurrence for one half on Python
scalars, outside this numpy module, for ``precise``'s polish
(``precise._float_newton``) and for ``range``, where numpy's per-call
overhead would dominate and its import outweighs the search;
``precise`` runs it in fixed point.  All three read held zeros from ``sequences._zero_prefix``.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from . import sequences


def _pulse(w: np.ndarray, rotor, odd: int, tangent=None) -> np.ndarray:
    # The state after one more pi pulse, A' = r (1 - u) conj(B~) - u^odd A
    # and B~' = -(u^(1-odd) B~ + r conj(A)) with r = i e^{ip} = -rot: w's
    # axes are (A, B~), power of u, value then tangents, batch, with room
    # for every coefficient, so a product by u drops only a top 0.  ``odd``
    # is the parity of the pulses already applied and ``rotor`` r,
    # broadcast over the last two axes.  The tangent column ``tangent``,
    # zero before the pulse, takes d/dp of the rotated terms, the only
    # ones that hold p.
    new = np.conj(w[::-1])
    new[0, 1:] -= new[0, :-1]
    new *= rotor
    if tangent is not None:
        fresh = 1j * new[:, :, 0]
    # The part that takes the factor u: A after an odd count, else B~.
    if odd:
        new[0, 1:] -= w[0, :-1]
        new[1] += w[1]
    else:
        new[0] -= w[0]
        new[1, 1:] += w[1, :-1]
    if tangent is not None:
        new[:, :, tangent] = fresh
    np.negative(new[1], out=new[1])
    return new


@lru_cache(maxsize=64)
def _zero_prefix(length: int, pulses: int) -> np.ndarray:
    # ``sequences._zero_prefix`` as a read-only half-train state (2, length),
    # broadcast over every row that holds the zeros.
    w = np.array(sequences._float_zero_prefix(length, pulses))
    w.flags.writeable = False
    return w


def structured_jets(rel_phases, pinned=None):
    """Polynomials in u = s^2 of the major-diagonal element a_h of a batch
    of half trains.

    Row k of ``rel_phases`` (shape (B, n)) holds the relative phases
    p1..pn of one half pi_0 pi_p1 ... pi_pn.  Returns the (n + 1) // 2 + 1
    coefficients of u^0, u^1, ... of A, a_h = s^{(n+1) mod 2} A(u), shape
    (B, (n + 1) // 2 + 1).

    ``pinned`` selects tangents: None for none, else the number k of
    leading phases held fixed, 0 <= k <= n.  With tangents it returns
    ``(a, da)``, where ``da[r, i]`` (shape (B, n - k, (n + 1) // 2 + 1)) is
    the exact derivative of ``a[r]`` with respect to p_{k+1+i}:
    forward-mode differentiation, with d rot / d p = i rot for the one
    pulse of each phase.  Held leading phases that are exactly 0 in every
    row are composed once per (length, count) and broadcast.
    """
    x = np.asarray(rel_phases, dtype=float)
    if x.ndim != 2:
        raise ValueError("relative phases must have shape (batch, n)")
    batch, n = x.shape
    held = sequences._held(pinned, n)
    head = 0
    while head < held and not x[:, head].any():
        head += 1
    length = (n + 1) // 2 + 1
    w = np.zeros((2, length, 1 + n - held, batch), dtype=complex)
    w[:, :, 0] = _zero_prefix(length, head + 1)[:, :, None]  # pi_0, held zeros
    # i e^{ip} of each later pulse, broadcast over (value/tangents, batch).
    rotors = np.exp(1j * x[:, head:].T)[:, None, :] * 1j
    # Phase j's pulse comes after j + 1 others.
    for j, rotor in enumerate(rotors, start=head):
        w = _pulse(w, rotor, (j + 1) % 2, 1 + j - held if j >= held else None)
    if pinned is None:
        return w[0, :, 0].T
    return w[0, :, 0].T, w[0, :, 1:].transpose(2, 1, 0)
