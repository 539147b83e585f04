"""Seeded operation lists for the three workloads.

An operation is one ``cpgate`` command line plus what the oracle needs to
check its output.  Inputs are built here, before any timing, with
``cpgate.catalog`` and ``cpgate.sequences``; the program under test only
ever receives the resulting command lines.

solve    ``solve --order n --phi f --seeds 16 --rng-seed k``: the slowest user
         path, nearly all ``solver`` and ``jets``.  n cycles through 2, 3, 4
         in seed-shuffled blocks, f walks a seed-shuffled deck of the 14
         arbitrary-row angles per order, k is drawn.
verify   ``verify --gate X`` over the 27 named trains and the 84 rounded
         arbitrary-angle rows (``refine=False``) as 17-digit inline specs,
         in seed-shuffled passes of all 111: ``precise`` (mpmath slope fit,
         polish) plus a pinned ``solver`` Newton step.
profile  a seed-drawn 1:3 mix of ``sweep --steps 801`` and ``range``
         on 2..18-pulse trains: the analytic 2/4/6/8-pulse builders at a
         random angle, and the polished named trains and rows.  The float
         ``su2``/``analysis`` path; no solver work.  Sweep is a dense grid and
         range a scalar bisection, so a change that vectorizes over the error
         shows on both kinds.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass

from cpgate import catalog, sequences

SOLVE_ORDERS = (2, 3, 4)
SOLVE_SEEDS = 16
SWEEP_STEPS = 801
SWEEP_EPS = (-0.4, 0.4)  # the CLI's default sweep interval
ROW_PULSES = (4, 6, 8, 10, 12, 14)
PROFILE_PHI_OVER_PI = (0.05, 1.95)
# One sweep per three ranges: each kind then takes a similar share of the
# time, and the median and 90th percentile of a run fall inside one kind's
# times rather than in the gap between the two (the median among ranges,
# the 90th percentile among sweeps, while sweeps stay the slower kind).
SWEEP_SHARE = 0.25

# Operations per second of each workload at the commit that added this
# benchmark (2-core x86-64, Python 3.11, pure-Python mpmath).  A run executes
# a fixed list sized from --seconds with these rates, so that operation
# counts, failures and traced call counts repeat exactly for a seed.
_RATE = {"solve": 1.0, "verify": 11.1, "profile": 100.0}
# Lists are whole multiples of this many operations: an n-block for solve,
# a full pass over all 111 trains for verify.
_DECK = {"solve": len(SOLVE_ORDERS), "verify": 111, "profile": 1}


@dataclass(frozen=True)
class Op:
    """One command line and the facts its check needs."""

    kind: str  # solve | verify | sweep | range
    argv: tuple[str, ...]
    label: str  # printed with a failure
    order: int  # compensation order the output must show
    phi: float  # gate angle, radians
    out: str | None = None  # file the command writes
    train: str = ""  # catalog name, "row:<phi>:<pulses>", or builder label


def op_count(workload: str, seconds: float) -> int:
    deck = _DECK[workload]
    return deck * max(1, round(seconds * _RATE[workload] / deck))


def make_ops(workload: str, seed: int, count: int, workdir) -> list[Op]:
    rng = random.Random(seed)
    stream = {"solve": _solve, "verify": _verify, "profile": _profile}[workload]
    return list(itertools.islice(stream(rng, str(workdir)), count))


def _g(x: float) -> str:
    return format(float(x), ".17g")


def spec(phi_over_pi: float, phases) -> str:
    """Inline train spec with 17 significant digits (units of pi)."""
    return f"phi={_g(phi_over_pi)};phases=" + ",".join(
        _g(float(p) / math.pi) for p in phases
    )


def _angles():
    return [row.phi_over_pi for row in catalog.arbitrary_rows()]


def _solve(rng: random.Random, workdir: str):
    angles = _angles()
    decks = {n: [] for n in SOLVE_ORDERS}
    out = f"{workdir}/solve.json"
    while True:
        for n in rng.sample(SOLVE_ORDERS, len(SOLVE_ORDERS)):
            if not decks[n]:
                decks[n] = rng.sample(angles, len(angles))
            frac = decks[n].pop()
            k = rng.randrange(2**31)
            yield Op(
                "solve",
                ("solve", "--order", str(n), "--phi", _g(frac),
                 "--seeds", str(SOLVE_SEEDS), "--rng-seed", str(k), "--out", out),
                f"solve --order {n} --phi {frac} --rng-seed {k}",
                n,
                float(frac) * math.pi,
                out,
            )


def _verify(rng: random.Random, workdir: str):
    deck = []
    for name in catalog.names():
        entry = catalog.get(name)
        deck.append((name, name, entry.pulse_count, entry.phi_over_pi))
    for frac in _angles():
        for pulses in ROW_PULSES:
            seq = catalog.arbitrary_row(frac, pulses, refine=False)
            deck.append((spec(frac, seq.phases), f"row:{frac}:{pulses}", pulses, frac))
    while True:
        for gate, train, pulses, frac in rng.sample(deck, len(deck)):
            yield Op(
                "verify", ("verify", "--gate", gate), f"verify {train}",
                pulses // 2 - 1, float(frac) * math.pi, train=train,
            )


def _catalog_trains():
    """(spec, label, pulses, phi) of every polished named train and row."""
    trains = []
    for name in catalog.names():
        entry = catalog.get(name)
        seq = catalog.to_sequence(entry)
        trains.append((spec(entry.phi_over_pi, seq.phases), name, len(seq),
                       float(entry.phi_over_pi)))
    for frac in _angles():
        for pulses in ROW_PULSES:
            seq = catalog.arbitrary_row(frac, pulses)
            trains.append((spec(frac, seq.phases), f"row:{frac}:{pulses}", pulses,
                           float(frac)))
    return trains


_VARIANTS = {4: 4, 6: 4, 8: 6}


def _builder_train(rng: random.Random):
    u = rng.uniform(*PROFILE_PHI_OVER_PI)
    phi = u * math.pi
    pulses = rng.choice((2, 4, 6, 8))
    if pulses == 2:
        seq = sequences.two_pulse(phi)
    else:
        builder = {4: sequences.four_pulse, 6: sequences.six_pulse,
                   8: sequences.eight_pulse}[pulses]
        seq = builder(phi, rng.randint(1, _VARIANTS[pulses]))
    return spec(u, seq.phases), f"{seq.label}@phi={u:.6f}pi", pulses, u


def _profile(rng: random.Random, workdir: str):
    pool = _catalog_trains()
    out = f"{workdir}/sweep.csv"
    while True:
        gate, train, pulses, u = (
            _builder_train(rng) if rng.random() < 0.5 else rng.choice(pool)
        )
        order, phi = pulses // 2 - 1, u * math.pi
        if rng.random() < SWEEP_SHARE:
            yield Op("sweep", ("sweep", "--gate", gate, "--steps", str(SWEEP_STEPS),
                               "--out", out),
                     f"sweep {train}", order, phi, out, train)
        else:
            yield Op("range", ("range", "--gate", gate), f"range {train}",
                     order, phi, train=train)
