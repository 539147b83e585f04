import json
import logging
import math
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from mpmath.libmp import (
    from_int,
    from_man_exp,
    mpf_add,
    mpf_div,
    mpf_pi,
    round_nearest,
)

from cpgate import catalog, cli, precise, sequences, solver, su2
from cpgate.jets import structured_jets
from cpgate.sequences import first_half, half_jets, six_pulse
from cpgate.su2 import CompositeSequence, Phase

import make_polished
from make_corpus import run_cli
from mp_oracle import cos_sin_fixed, mp_propagator, mp_structured_train, slope_epsilons


def _fraction(value):
    # The mpf ``value`` as an exact Fraction.
    sign, man, exp, _ = value._mpf_
    return (-1) ** sign * Fraction(man) * Fraction(2) ** exp


def _exact_slope(xs, ys):
    # The least-squares slope of the Fractions ys on the Fractions xs,
    # exact, rounded to a double once; NaN below two points.
    if len(xs) < 2:
        return math.nan
    mean = sum(xs) / len(xs)
    return float(
        sum((x - mean) * y for x, y in zip(xs, ys))
        / sum((x - mean) ** 2 for x in xs)
    )


def _reference_slope_fit(seq, eps_lo=1e-3, eps_hi=1e-2, points=20, dps=50):
    # The per-epsilon loop slope_fit ran before mp_propagator took an
    # epsilon list: one propagator call, with all its trig, per signed eps,
    # in mpc object arithmetic, always averaged over both signs.  The slope
    # is the exact regression of the 50-digit logs on the double log of
    # each eps.
    with mp.workdps(dps):
        phases = [mp.mpf(p) for p in seq.phases]
        fa = mp.exp(-1j * mp.mpf(seq.target_phi) / 2)
        lo, hi = mp.log(mp.mpf(eps_lo)), mp.log(mp.mpf(eps_hi))
        logs = []
        vals = []
        peak = mp.mpf(0)
        for i in range(points):
            eps = mp.exp(lo + (hi - lo) * i / (points - 1))
            infid = mp.mpf(0)
            for signed in (eps, -eps):
                a = mp.mpc(1)
                b = mp.mpc(0)
                for phase in phases:
                    half = mp.pi * (1 + signed) / 2
                    pa = mp.cos(half)
                    pb = -1j * mp.exp(1j * phase) * mp.sin(half)
                    a, b = pa * a - pb * mp.conj(b), pa * b + pb * mp.conj(a)
                infid += mp.sqrt((abs(a - fa) ** 2 + abs(b) ** 2) / 2)
            infid /= 2
            peak = max(peak, infid)
            if infid > 0:
                logs.append(Fraction(float(mp.log(eps))))
                vals.append(_fraction(mp.log(infid)))
        return _exact_slope(logs, vals), float(peak)


def _mp_jet_mul(a2, b2, a1, b1):
    # Product of two jet pairs in mpc object arithmetic: full truncated
    # convolutions, nothing shared with the fixed-point kernel under test.
    order = len(a1) - 1

    def mul(x, y):
        return [
            sum(x[j] * y[m - j] for j in range(m + 1)) for m in range(order + 1)
        ]

    b1c = [mp.conj(v) for v in b1]
    a1c = [mp.conj(v) for v in a1]
    a = [p - q for p, q in zip(mul(a2, a1), mul(b2, b1c))]
    b = [p + q for p, q in zip(mul(a2, b1), mul(b2, a1c))]
    return a, b


def _dense_half_jets(rel_phases, order):
    # Full truncated products of the pi-pulse series of the half train,
    # zeros included, in mpc object arithmetic at the caller's precision.
    half_pi = mp.pi / 2
    base_cos = [half_pi**m * mp.cos(half_pi + m * half_pi) / mp.factorial(m)
                for m in range(order + 1)]
    base_sin = [half_pi**m * mp.sin(half_pi + m * half_pi) / mp.factorial(m)
                for m in range(order + 1)]
    a = b = None
    for phase in [mp.mpf(0)] + [mp.mpf(p) for p in rel_phases]:
        rot = -1j * mp.exp(1j * phase)
        pa = [mp.mpc(c) for c in base_cos]
        pb = [rot * s for s in base_sin]
        a, b = (pa, pb) if a is None else _mp_jet_mul(pa, pb, a, b)
    return a, b


def _dense_residual(rel_phases, phi_mp, n):
    # The full-system conditions of the two-half train, the oracle for a
    # root: m! (Re, Im) of a_m for even m and of b_m for odd m, m = 1..n.
    a, b = _dense_half_jets(rel_phases, n)
    rot = mp.exp(1j * (mp.pi - mp.mpf(phi_mp) / 2))
    a, b = _mp_jet_mul(a, [rot * c for c in b], a, b)
    out = []
    for m in range(1, n + 1):
        c = a[m] if m % 2 == 0 else b[m]
        out += [math.factorial(m) * mp.re(c), math.factorial(m) * mp.im(c)]
    return out


def test_mp_propagator_over_an_epsilon_list_equals_scalar_calls():
    seq = catalog.to_sequence(catalog.get("T18"))
    with mp.workdps(precise.WORKING_DPS):
        phases = [mp.mpf(p) for p in seq.phases]
        eps = [mp.mpf("0.01"), -mp.mpf("0.01"), mp.mpf(0), mp.mpf("-0.3")]
        pairs = mp_propagator(phases, eps)
        assert len(pairs) == len(eps)
        for e, (a, b) in zip(eps, pairs):
            a1, b1 = mp_propagator(phases, e)
            assert a == a1 and b == b1


@pytest.mark.parametrize("name", catalog.names())
def test_slope_fit_equals_the_per_epsilon_loop_bitwise(name):
    seq = catalog.to_sequence(catalog.get(name))
    assert precise.slope_fit(seq) == _reference_slope_fit(seq)


@given(
    phases=st.integers(1, 9).flatmap(
        lambda half: st.lists(
            st.floats(0.0, 2 * math.pi), min_size=2 * half, max_size=2 * half
        )
    ),
    eps=st.floats(1e-4, 0.5),
)
@settings(max_examples=30, deadline=None)
def test_mp_propagator_of_an_even_pi_train_flips_b_with_epsilon(phases, eps):
    # U(-eps) = Z U(eps) Z^dagger for an even count of pi pulses: the
    # identity slope_fit's one-sign shortcut rests on.
    with mp.workdps(precise.WORKING_DPS):
        mp_phases = [mp.mpf(p) for p in phases]
        (a, b), (a_neg, b_neg) = mp_propagator(
            mp_phases, [mp.mpf(eps), -mp.mpf(eps)]
        )
        assert abs(a_neg - a) <= 1e-45
        assert abs(b_neg + b) <= 1e-45


# Odd counts of pi pulses: one pulse, and three pi pulses and one 2 pi
# block, i.e. five pi pulses, the 2 pi block as two of equal phase.
_ODD_TRAINS = {"one-pi": (0.3,), "three-pi-one-2pi": (0.0, 0.7, 1.9, 1.9, 0.4)}


def _odd_train(name):
    return CompositeSequence(
        _ODD_TRAINS[name], target_phi=math.pi / 2, label=name
    )


@pytest.mark.parametrize("name", sorted(_ODD_TRAINS))
def test_slope_fit_rejects_an_odd_length_train(name):
    # An odd count of pi pulses is off-diagonal at eps = 0, so it is no
    # phase gate and has no order to measure.
    seq = _odd_train(name)
    with mp.workdps(precise.WORKING_DPS):
        a, b = mp_propagator([mp.mpf(p) for p in seq.phases], mp.mpf(0))
        assert abs(a) < 1e-45 and abs(abs(b) - 1) < 1e-45
    with pytest.raises(ValueError, match="even number of pulses"):
        precise.slope_fit(seq)


def _rounded_row_specs(pulses):
    # The 14 table rows of one train length, rounded, as 17-digit specs.
    specs = []
    for row in catalog.arbitrary_rows():
        seq = catalog.arbitrary_row(row.phi_over_pi, pulses, refine=False)
        specs.append((
            row.phi_over_pi,
            f"phi={float(row.phi_over_pi):.17g};phases="
            + ",".join(f"{float(p) / math.pi:.17g}" for p in seq.phases),
        ))
    assert len(specs) == 14
    return specs


def _polished_row(spec):
    # The 50-digit two-half train of a rounded row's half polished at its
    # angle's fraction of pi, as verify polishes it, and the t verify fits.
    seq = cli.spec_parse(spec)
    rel = [float(p) for p in first_half(seq)[1:]]
    phi = cli._pi_fraction(float(seq.target_phi))
    polished, _ = precise.polish_structured(rel, phi)
    return precise.structured_train(polished, phi), cli._polished_half(seq)


def _assert_slope_fit_is_the_reference_on_a_rounded_row(spec):
    seq, t = _polished_row(spec)
    assert t is not None  # polished
    assert seq.phases != cli.spec_parse(spec).phases
    assert len(seq) % 2 == 0  # the one-sign path
    want = _reference_slope_fit(seq)
    assert precise.slope_fit(seq) == want
    # The fit of the half the polish composed last, as verify runs it.
    assert precise.half_slope_fit(t, len(seq)) == want


@pytest.mark.parametrize("spec", [
    pytest.param(spec, id=str(frac)) for frac, spec in _rounded_row_specs(14)
])
def test_slope_fit_equals_the_per_epsilon_loop_bitwise_on_rounded_rows(spec):
    _assert_slope_fit_is_the_reference_on_a_rounded_row(spec)


@pytest.mark.parametrize("spec", [
    pytest.param(spec, id=f"{pulses}p-{frac}")
    for pulses in (4, 6, 8, 10, 12)
    for frac, spec in _rounded_row_specs(pulses)
])
def test_slope_fit_equals_the_per_epsilon_loop_bitwise_on_shorter_rounded_rows(spec):
    # The other five columns of the table: with the 14-pulse column above,
    # every rounded row of the verify path, each train length's logs
    # checked bit for bit against the mpc reference.
    _assert_slope_fit_is_the_reference_on_a_rounded_row(spec)


@given(
    rel=st.integers(1, 9).flatmap(
        lambda half: st.tuples(
            st.integers(0, half - 1),
            st.lists(st.floats(0.01, 2 * math.pi), min_size=half - 1,
                     max_size=half - 1),
        )
    ),
    phi=st.floats(0.05, 2 * math.pi),
)
@settings(max_examples=25, deadline=None)
def test_slope_fit_of_a_structured_train_equals_the_per_epsilon_loop_bitwise(rel, phi):
    # Half length 1-9 with 0 to half - 1 leading exact-zero relative
    # phases: the fit composes the train from the cached zero prefix, and
    # the fit of its half's t is the same, bit for bit.
    zeros, free = rel
    rel = [0.0] * zeros + free[zeros:]
    # A 50-digit two-half train, built the way catalog names and table rows
    # are.
    seq = precise.structured_train(rel, phi)
    want = _reference_slope_fit(seq)
    assert precise.slope_fit(seq) == want
    t = precise.t_polynomial(seq.phases[: len(rel) + 1], seq.target_phi)
    assert precise.half_slope_fit(t, len(seq)) == want


def _ulp_moved_train():
    # Z10 with one second-half phase moved by one unit in the last place
    # at 50 digits: no longer an exact two-half train.
    seq = catalog.to_sequence(catalog.get("Z10"))
    k = len(seq) // 2 + 3
    with mp.workdps(precise.WORKING_DPS):
        sign, man, exp, _ = mp.mpf(seq.phases[k])._mpf_
        moved = mp.mpf(((-1) ** sign * (man + 1), exp))
    assert moved != seq.phases[k]
    phases = seq.phases[:k] + (moved,) + seq.phases[k + 1:]
    return CompositeSequence(phases, seq.target_phi, label="Z10-ulp")


def _whole_turn_train():
    # Z10 with one second-half phase a whole turn on at 50 digits: the same
    # gate, but no longer the pair structured_train builds, and the
    # difference rounds to the double 2 pi.
    seq = catalog.to_sequence(catalog.get("Z10"))
    k = len(seq) // 2 + 3
    with mp.workdps(precise.WORKING_DPS):
        moved = seq.phases[k] + 2 * mp.pi
    phases = seq.phases[:k] + (moved,) + seq.phases[k + 1:]
    return CompositeSequence(phases, seq.target_phi, label="Z10-turn")


def _30_digit_train():
    # S6 built at 30 digits: its second half is the first plus the 30-digit
    # shift, which differs from the 50-digit shift of a two-half train.
    seq = catalog.to_sequence(catalog.get("S6"))
    half = len(seq) // 2
    with mp.workdps(30):
        return mp_structured_train(
            [mp.mpf(p) for p in seq.phases[1:half]], seq.target_phi
        )


_FULL_LOOP_TRAINS = {
    "ulp-moved": _ulp_moved_train,
    "whole-turn": _whole_turn_train,
    "float-builder": lambda: six_pulse(math.pi / 2, 3),
    "30-digit-S6": _30_digit_train,
}


@pytest.mark.parametrize("name", sorted(_FULL_LOOP_TRAINS))
def test_slope_fit_takes_the_full_loop_off_the_exact_structure(name):
    seq = _FULL_LOOP_TRAINS[name]()
    assert precise.slope_fit(seq) == _reference_slope_fit(seq)


def _large_phase_train(kind):
    # Two pulses whose phases are so large that p + (pi - phi/2) rounds back
    # to p at 50 digits: two equal pulses, -I, at infidelity 1.
    if kind == "float":
        return CompositeSequence((1e300 * math.pi,) * 2, math.pi)
    with mp.workdps(precise.WORKING_DPS):
        return mp_structured_train((), mp.pi, mp.mpf("1e60"))


@pytest.mark.parametrize("kind", ["float", "50-digit"])
def test_slope_fit_of_phases_too_large_for_the_shift_sees_the_real_train(kind):
    seq = _large_phase_train(kind)
    assert seq.phases[0] == seq.phases[1]
    slope, peak = precise.slope_fit(seq)
    assert abs(slope) <= 1e-9
    assert peak == 1.0


@given(
    phases=st.integers(1, 9).flatmap(
        lambda half: st.tuples(
            st.floats(0.01, 2 * math.pi),
            st.lists(st.floats(0.0, 2 * math.pi), min_size=2 * half - 1,
                     max_size=2 * half - 1),
        )
    ),
    phi=st.floats(0.05, 2 * math.pi),
)
@settings(max_examples=25, deadline=None)
def test_slope_fit_of_a_random_float_train_equals_the_per_epsilon_loop_bitwise(
    phases, phi
):
    # 2-18 float phases, the first nonzero: no two halves and no zero
    # prefix, so the fit composes the whole train's (a, B) and evaluates
    # (|a - fa|^2 + cos^2(pi eps/2) |B|^2) / 2 at each point.
    first, rest = phases
    seq = CompositeSequence((first, *rest), phi)
    assert precise.slope_fit(seq) == _reference_slope_fit(seq)


def test_slope_grid_holds_sin_and_cos_of_the_half_error_area():
    # Each point's fixed-point s = sin(pi eps/2), u = s^2 and cos(pi eps/2)
    # at 2^-PREC is within one unit of mpmath's at PREC bits.
    grid = slope_epsilons()
    points, logs = precise._slope_grid()
    assert len(grid) == len(points) == len(logs) == precise._SLOPE_POINTS
    unit = mp.mpf(2) ** -precise.PREC
    with mp.workprec(precise.PREC):
        for eps, (s, u, c) in zip(grid, points):
            x = mp.pi * eps / 2
            assert abs(s * unit - mp.sin(x)) <= unit
            assert abs(u * unit - mp.sin(x) ** 2) <= unit
            assert abs(c * unit - mp.cos(x)) <= unit


def test_the_stored_slope_grid_is_the_one_mpmath_computes():
    # data/slope_grid.json holds mpmath's constants, and slope_fit reads
    # them as stored, with u = s^2.
    stored = json.loads(make_polished.GRID.read_text())
    assert stored == make_polished.slope_grid()
    points, logs = precise._slope_grid()
    assert [[s, c] for s, _, c in points] == stored["points"]
    assert list(logs) == stored["logs"]


def test_trig_equals_mpmaths_on_every_angle_of_the_catalog_and_the_grid(monkeypatch):
    # Every raw angle whose cos and sin the 27 names' fits, the exact
    # names' t, the 84 rows' polishes and fits (rounded and polished) and
    # the slope grid take: the integer trig gives the bits of the exact
    # cos and sin in mpmath's form, where mpmath's own, with 10 guard bits,
    # may part from them by one unit.
    angles = set()
    trig = precise._cos_sin_fixed

    def recorded(x):
        angles.add(x)
        return trig(x)

    monkeypatch.setattr(precise, "_cos_sin_fixed", recorded)
    for name in catalog.names():
        entry = catalog.get(name)
        precise.slope_fit(catalog.to_sequence(entry))
        catalog.half_polynomial(entry)
    for row in catalog.arbitrary_rows():
        phi = row.phi_over_pi
        for pulses, column in row.columns.items():
            precise.slope_fit(catalog.arbitrary_row(phi, pulses, refine=False))
            zeros = solver.pinned_zero_count(pulses // 2 - 1)
            rel = [float(Fraction(s)) * math.pi for s in ["0"] * zeros + list(column)]
            polished, _ = precise.polish_structured(rel, phi)
            precise.slope_fit(precise.structured_train(polished, phi))
    with mp.workprec(precise.PREC):
        angles.update((mp.pi * eps / 2)._mpf_ for eps in slope_epsilons())
    assert len(angles) > 1000
    for x in angles:
        assert trig(x) == cos_sin_fixed(x, precise.PREC), x


@pytest.mark.parametrize("value", [
    sign * v for v in (0.0, 5e-324, 1e-60, 1e6, 1e300, sys.float_info.max) for sign in (1, -1)
])
def test_trig_equals_mpmaths_at_the_edges(value):
    # 0, the smallest double (whose cos is 1 - 2^-PREC in mpmath's form,
    # not 1), tiny, large and the largest angles.
    x = su2._raw(value)
    assert precise._cos_sin_fixed(x) == cos_sin_fixed(x, precise.PREC)


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.fractions(min_value=-64, max_value=64, max_denominator=64).map(su2._raw),
    st.floats(min_value=-8, max_value=8).map(su2._raw),
    # The raw tuples of 169-bit Phases from 2^-32 to 2^29.
    st.builds(su2._round, st.integers(1 << 168, (1 << 169) - 1), st.integers(-200, -140)),
))
def test_trig_is_within_one_unit_of_mpmaths(x):
    # p/q pi with q <= 64 (multiples of pi/2 among them), floats on [-8, 8]
    # and 169-bit Phases.  The integer trig works with 40 guard bits and
    # truncates, so within 2^-32 units of a boundary of the truncation it
    # may part from the exact value by one unit.
    got = precise._cos_sin_fixed(x)
    want = cos_sin_fixed(x, precise.PREC)
    assert max(abs(g - w) for g, w in zip(got, want)) <= 1, x


def _edge_integers():
    # Powers of two, their neighbours and random integers of 1-400 bits.
    rng = random.Random(400)
    for bits in range(1, 401):
        yield 1 << (bits - 1)
        yield (1 << bits) - 1
        yield rng.getrandbits(bits) | (1 << (bits - 1))


def test_integer_log_is_within_one_unit_of_a_100_digit_log():
    rng = random.Random(401)
    unit = mp.mpf(2) ** precise._LOG_Q
    with mp.workdps(100):
        ln2 = mp.log(2)
        for n in _edge_integers():
            shift = rng.randint(-800, 100)
            want = (mp.log(n) + shift * ln2) * unit
            assert abs(precise._ln(n, shift) - want) <= 1, (n, shift)


def test_root_is_the_correctly_rounded_square_root():
    rng = random.Random(402)
    with mp.workprec(600):
        for n in _edge_integers():
            shift = rng.randint(-800, 100)
            want = mp.sqrt(mp.ldexp(n, shift))
            got = precise._root(n, shift)
            assert got == float(want), (n, shift)  # float() rounds to nearest
    assert precise._root(0, -371) == 0.0


def test_a_zero_square_drops_its_point():
    # The squares of S8's half on the grid with some set to 0: the slope is
    # the exact regression through the others, and one point left gives a
    # NaN slope; the peak is the root of the largest square left.  The half
    # has four pulses, so its t is a polynomial in u alone.
    t = catalog.half_polynomial(catalog.get("S8"))
    points, logs = precise._slope_grid()
    totals = [precise._horner(t, u) ** 2 for _, u, _ in points]
    assert all(totals)
    shift = 1 - 2 * precise.PREC
    for dropped in ((0,), (3, 11), (19,), tuple(range(2, 20)), tuple(range(1, 20))):
        masked = [0 if k in dropped else v for k, v in enumerate(totals)]
        kept = [k for k in range(len(totals)) if k not in dropped]
        with mp.workdps(100):
            ys = [
                _fraction(mp.log(mp.ldexp(totals[k], shift)) / 2) for k in kept
            ]
            peak = float(mp.sqrt(mp.ldexp(max(masked), shift)))
        want = _exact_slope([Fraction(logs[k]) for k in kept], ys)
        slope, got_peak = precise._line_fit(masked, shift)
        assert got_peak == peak
        if len(kept) < 2:
            assert math.isnan(slope) and math.isnan(want)
        else:
            assert slope == want, dropped


def test_a_half_that_vanishes_has_no_slope_and_no_peak():
    slope, peak = precise.half_slope_fit((0,) * 5, 10)
    assert math.isnan(slope) and peak == 0.0


def test_the_fit_uses_neither_mpmath_logs_nor_lapack(monkeypatch):
    # With mpmath's log, root and conversions and numpy's lstsq made to
    # raise, the fits give what they gave before, the lazy log table and
    # the slope weights rebuilt under the patch.
    entry = catalog.get("T18")
    seq, t = catalog.to_sequence(entry), catalog.half_polynomial(entry)
    builder = six_pulse(math.pi / 2, 3)
    want = [precise.slope_fit(seq), precise.half_slope_fit(t, len(seq)), precise.slope_fit(builder)]

    def refuse(*args, **kwargs):
        raise AssertionError("the fit called a library it should not")

    monkeypatch.setattr(np.linalg, "lstsq", refuse)
    for name in ("mpf_log", "mpf_sqrt", "from_man_exp", "to_float"):
        monkeypatch.setattr(mp.libmp, name, refuse)
    # precise binds none of them: it reaches mpmath through the module.
    assert not [name for name in ("mpf_log", "mpf_sqrt", "from_man_exp", "to_float")
                if hasattr(precise, name)]
    precise._log_table.cache_clear()
    precise._slope_weights.cache_clear()
    precise._grid_top.cache_clear()
    got = [precise.slope_fit(seq), precise.half_slope_fit(t, len(seq)), precise.slope_fit(builder)]
    assert got == want


def test_the_log_table_is_built_on_the_first_fit():
    # Importing the package and building the 27 named trains, as every
    # process does, computes no log table; the first fit does.
    src = str(Path(precise.__file__).resolve().parents[1])
    code = (
        "from cpgate import catalog, precise\n"
        "for name in catalog.names():\n"
        "    catalog.to_sequence(catalog.get(name))\n"
        "print(precise._log_table.cache_info().currsize)\n"
        "precise.half_slope_fit(catalog.half_polynomial(catalog.get('Z18')), 18)\n"
        "print(precise._log_table.cache_info().currsize)\n"
    )
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env,
        check=True,
    ).stdout
    assert out.split() == ["0", "1"]


def _mp_residual(rel, phi):
    # The polish residual at the mpf phases ``rel``, each rotor taken from
    # its phase and the cos/sin of phi / 4, the way polish_structured takes
    # them before its first step.
    gate = precise._angle_trig(phi, 2)
    zeros = precise._leading_zeros(rel)
    rotors = [precise._rotor(precise._raw(p)) for p in rel[zeros:]]
    residual, _ = precise._mp_residual(zeros, rotors, gate)
    return [mp.mpf((r, -2 * precise.PREC)) for r in residual]


def _fitted_half_residual(rel, phi, n):
    # The half-train conditions from a 90-digit fit: Im(e^{i phi/4} a_h) of
    # the mpc pulse loop at the n + 2 Chebyshev nodes of s = sin(pi eps/2),
    # interpolated by a polynomial of degree n + 1, whose coefficients of
    # s^{n-1}, s^{n-3}, ... >= 0 are read.  Nothing is shared with the
    # fixed-point recurrence under test.
    with mp.workdps(_ORACLE_DPS):
        nodes = [mp.cos(mp.pi * (k + mp.mpf(0.5)) / (n + 2)) for k in range(n + 2)]
        rot = mp.exp(1j * mp.mpf(phi) / 4)
        half = [mp.mpf(0)] + list(rel)
        values = [
            mp.im(rot * _oracle_propagator(half, 2 * mp.asin(s) / mp.pi)[0])
            for s in nodes
        ]
        vander = mp.matrix([[s**k for k in range(n + 2)] for s in nodes])
        coeffs = mp.lu_solve(vander, mp.matrix(values))
        return [coeffs[m] for m in range((n + 1) % 2, n, 2)]


@pytest.mark.parametrize("n", range(1, 9))
def test_mp_residual_matches_a_90_digit_fit_of_the_half(n):
    rng = random.Random(n)
    with mp.workdps(precise.WORKING_DPS):
        for _ in range(3):
            rel = [mp.mpf(rng.uniform(0.0, 2 * math.pi)) for _ in range(n)]
            phi = mp.mpf(rng.uniform(0.1, 2 * math.pi))
            got = _mp_residual(rel, phi)
            want = _fitted_half_residual(rel, phi, n)
            assert len(got) == len(want) == (n + 1) // 2
            assert max(abs(g - w) for g, w in zip(got, want)) <= 1e-45


@pytest.mark.parametrize("n", range(1, 9))
def test_mp_residual_with_leading_zeros_matches_a_90_digit_fit(n):
    # The leading zeros come from the cached zero prefix.  Runs of equal
    # phases make large coefficients (a Chebyshev polynomial in s for a
    # half of equal phases), so the bound is relative to the largest once
    # that passes 1.
    rng = random.Random(100 + n)
    with mp.workdps(precise.WORKING_DPS):
        for zeros in range(1, n + 1):
            rel = [mp.mpf(0)] * zeros + [
                mp.mpf(rng.uniform(0.0, 2 * math.pi)) for _ in range(n - zeros)
            ]
            phi = mp.mpf(rng.uniform(0.1, 2 * math.pi))
            got = _mp_residual(rel, phi)
            want = _fitted_half_residual(rel, phi, n)
            scale = max(1, max(abs(w) for w in want))
            assert max(abs(g - w) for g, w in zip(got, want)) <= 1e-45 * scale, zeros


@pytest.mark.parametrize("n", range(0, 9))
def test_float_polynomials_match_the_50_digit_polynomials(n):
    # structured_jets against the fixed-point recurrence on random halves,
    # with and without leading zeros.
    rng = np.random.default_rng(300 + n)
    prec = precise.PREC
    with mp.workdps(precise.WORKING_DPS):
        for zeros in sorted({0, n // 2, n}):
            x = rng.uniform(0.0, 2 * math.pi, size=(3, n))
            x[:, :zeros] = 0.0
            for row, got in zip(x, structured_jets(x)):
                ar, ai, _, _ = precise._mp_jet_compose(
                    [mp.mpf(0)] + [mp.mpf(p) for p in row]
                )
                want = np.array([
                    complex(float(mp.mpf((r, -prec))), float(mp.mpf((i, -prec))))
                    for r, i in zip(ar, ai)
                ])
                assert got.shape == want.shape == ((n + 1) // 2 + 1,)
                scale = max(1.0, np.max(np.abs(want)))
                assert np.max(np.abs(got - want)) <= 1e-13 * scale, zeros


# 150 zeros: the prefix's coefficients pass 2^53, and it stays exact.
@pytest.mark.parametrize("zeros", [0, 1, 2, 3, 4, 150])
def test_jet_zero_prefix_equals_pulse_by_pulse_composition_bitwise(zeros):
    rng = random.Random(zeros)
    phases = [0.0] * zeros + [rng.uniform(0.0, 6.0) for _ in range(3)]
    poly = precise._mp_zero_prefix(0)
    for phase in phases:
        poly = precise._mp_jet_pulse(poly, precise._rotor(precise._raw(phase)))
    got = precise._mp_jet_compose(phases)
    assert [list(part) for part in got] == [list(part) for part in poly]


def test_polish_logs_one_debug_record(caplog):
    # A rounded 12-pulse row: two held zeros and three free phases.
    row = catalog.arbitrary_row(Fraction(1, 3), 12, refine=False)
    rel = [float(p) for p in row.phases[1:6]]
    with mp.workdps(precise.WORKING_DPS):
        phi = mp.pi / 3
    with caplog.at_level(logging.DEBUG, logger="cpgate.precise"):
        precise.polish_structured(rel, phi)
    [record] = caplog.records
    assert record.levelno == logging.DEBUG and record.name == "cpgate.precise"
    fields = dict(re.findall(r"(\w+)=(\S+)", record.getMessage()))
    assert int(fields["free"]) == 3
    assert 0.0 <= float(fields["float_rmax"]) < 1e-6
    assert int(fields["evals"]) >= 2
    assert float(fields["rmax"]) < 10.0 ** -precise._POLISH_DIGITS
    assert float(fields["seconds"]) > 0.0


def _polish_inputs(case):
    # (rel, phi) of a rounded 14-pulse row (three free phases after three
    # held zeros against three residual entries: square) or of a named
    # train of order >= 4 (underdetermined).
    if case == "row-14p":
        seq = catalog.arbitrary_row(Fraction(1, 3), 14, refine=False)
    else:
        seq = catalog.to_sequence(catalog.get(case), refine=False)
    return [float(p) for p in seq.phases[1 : len(seq) // 2]], seq.target_phi


@pytest.mark.parametrize("case", ["row-14p", "Z12"])
def test_polish_evaluates_the_float_jacobian_once_at_its_converged_point(
    case, monkeypatch
):
    # The float Newton returns the pseudo-inverse of the Jacobian it
    # evaluated at its last point, and the 50-digit stage reuses it: the
    # square row and the underdetermined named train alike.
    rel, phi = _polish_inputs(case)
    points = []

    def counted(x, pinned=None):
        if pinned is not None:
            points.append(np.array(x, dtype=float))
        return half_jets(x, pinned)

    monkeypatch.setattr(precise, "half_jets", counted)
    precise.polish_structured(rel, phi)
    converged = points[-1]
    assert sum(np.array_equal(x, converged) for x in points) == 1
    assert len(points) > 1  # the rounded row took Newton steps


def _batched_polish(rel, phi):
    # The polish with its float stage through the batched solver:
    # solver._newton_batch on one row, its leading zeros held, numpy's
    # pinv of the Jacobian at the row it returns, and the 50-digit stage.
    # Returns (phases, t) as polish_structured does.
    phi_float = float(Phase(su2._raw(phi)))
    pinned = precise._leading_zeros(rel)
    roots, _, ok = solver._newton_batch(
        np.array([rel]), phi_float, precise._FLOAT_TOL, 60, pinned
    )
    assert ok[0]
    _, jac = solver._residuals(roots, phi_float, pinned)
    inverse = np.linalg.pinv(jac[0], rcond=precise._RCOND).tolist()
    gate = precise._angle_trig(phi, 2)
    root = roots[0].tolist()
    steps, _, _, a_h = precise._fixed_newton(
        precise._trig_rotors(root[pinned:]), pinned, inverse, gate
    )
    x = [precise._fixed(v) for v in root]
    for k, d in enumerate(steps, start=pinned):
        x[k] += d
    return su2.polish_result(x, precise._half_t(*a_h, gate))


def _newton_both_ways(rel, phi):
    # The float stage on scalars and through the batched solver on one
    # square system, its leading zeros held: the same converged flag and,
    # when converged, the same 50-digit root as ``_batched_polish``.  Each
    # polish stops at a residual max-norm below 1e-45, which pins its
    # phases within ||J^-1||_inf 1e-45 of the exact root, so the two agree
    # within twice that.  (The batched polish itself is 1.03e-45 from the
    # exact root on the pi 2/3 12-pulse row.)
    pinned = precise._leading_zeros(rel)
    assert pinned == solver.pinned_zero_count(len(rel))  # square
    phi_float = float(Phase(su2._raw(phi)))
    scalar = precise._float_newton(rel, phi_float, precise._FLOAT_TOL, 60, pinned)
    _, _, converged = solver._newton_batch(
        np.array([rel]), phi_float, precise._FLOAT_TOL, 60, pinned
    )
    assert scalar[2] == converged[0]
    if not converged[0]:
        return
    bound = 2e-45 * max(sum(abs(v) for v in row) for row in scalar[3])
    with mp.workdps(precise.WORKING_DPS):
        got, _ = precise.polish_structured(rel, phi)
        want, _ = _batched_polish(rel, phi)
        assert max(abs(mp.mpf(g) - w) for g, w in zip(got, want)) <= bound
    assert [float(g) for g in got] == [float(w) for w in want]


def test_certified_inverse_refuses_what_pinv_would_truncate():
    # diag(1, r): pinv at _RCOND drops r once r <= 1e-6, and the
    # certificate ||J||_F ||J^-1||_F < 1e6 refuses it first.
    assert precise._certified_inverse([[1.0, 0.0], [0.0, 1e-7]]) is None
    inv = precise._certified_inverse([[1.0, 0.0], [0.0, 1e-5]])
    assert np.allclose(inv, np.diag([1.0, 1e5]), rtol=1e-15, atol=0)
    # A zero pivot, and a NaN.
    assert precise._certified_inverse([[1.0, 2.0], [2.0, 4.0]]) is None
    assert precise._certified_inverse([[0.0]]) is None
    assert precise._certified_inverse([[math.nan]]) is None
    rng = np.random.default_rng(3)
    for size in range(1, 6):
        jac = rng.normal(size=(size, size)) + 3 * np.eye(size)
        inv = precise._certified_inverse(jac.tolist())
        want = np.linalg.pinv(jac, rcond=precise._RCOND)
        assert np.max(np.abs(np.array(inv) - want)) <= 1e-12 * np.max(np.abs(want))


def _gauss_jordan_as_it_was(jac, rcond=precise._RCOND):
    # precise._certified_inverse before its rewrite, kept to pin its bits.
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
    return inv if bound < 1.0 / rcond else None


def _edge_matrices(rng, size):
    # Orthogonal mixes Q diag(1, ..., 1, s) Q^T, size >= 2, whose
    # ||J||_F ||J^-1||_F = ((size - 1 + s^2) (size - 1 + 1/s^2))^(1/2)
    # lies 1e-9 relative below and above the certificate's 1/_RCOND.
    ones = size - 1
    c = (precise._RCOND**-2 - 1 - ones * ones) / ones  # s^2 + 1/s^2
    edge = math.sqrt(2 / (c + math.sqrt(c * c - 4)))
    q, _ = np.linalg.qr(rng.normal(size=(size, size)))
    return [
        ((q * ([1.0] * ones + [edge * (1 + d)])) @ q.T).tolist() for d in (1e-9, -1e-9)
    ]


def test_certified_inverse_keeps_the_bits_of_the_elimination_it_replaced():
    # Bit for bit (signed zeros and NaN payloads included) against the
    # elimination as it was written before, pivot ties, zero pivots, NaN,
    # infinities and matrices at the certificate's edge among them.
    import struct

    def bits(inv):
        return None if inv is None else [struct.pack("<d", v) for row in inv for v in row]

    rng = np.random.default_rng(58)
    draws = random.Random(58)
    specials = [0.0, -0.0, 1.0, -1.0, 2.0, 1e-300, math.nan, math.inf, -math.inf]
    cases = [
        [[math.nan]], [[0.0]], [[-0.0]], [[-3.0]], [[1.0, 2.0], [2.0, 4.0]],
        [[1.0, 1.0], [-1.0, 1.0]], [[1.0, -1.0], [-1.0, 1.0]],
        [[0.0, 1.0], [1.0, 0.0]], [[1.0, math.nan], [2.0, 1.0]],
        [[1.0, 2.0], [math.nan, 1.0]], [[math.nan, 1.0], [1.0, 2.0]],
        [[math.inf, 1.0], [1.0, 1.0]],
        [[2.0, 0.0, 0.0], [-2.0, 1.0, 0.0], [2.0, 3.0, 1.0]],
    ]
    for _ in range(600):
        size = draws.randint(1, 5)
        cases.append(rng.normal(size=(size, size)).tolist())
        # Small integers, which tie pivots and cancel to zeros, with
        # specials mixed in.
        cases.append([
            [draws.choice(specials) if draws.random() < 0.3
             else float(draws.randint(-3, 3)) for _ in range(size)]
            for _ in range(size)
        ])
    for size in range(2, 6):
        inside, outside = _edge_matrices(rng, size)
        assert precise._certified_inverse(inside) is not None
        assert precise._certified_inverse(outside) is None
        cases += [inside, outside]
    certified = refused = 0
    for jac in cases:
        got = precise._certified_inverse(jac)
        assert bits(got) == bits(_gauss_jordan_as_it_was(jac)), jac
        for rcond in (precise._RCOND**2, 1.0):
            want = _gauss_jordan_as_it_was(jac, rcond)
            assert bits(precise._certified_inverse(jac, rcond)) == bits(want), jac
        certified += got is not None
        refused += got is None
    assert certified > 600 and refused > 300


def test_pseudo_inverse_is_numpys_pinv_where_certified():
    # Wide (the underdetermined polish), tall and square Jacobians of 1-5
    # rows: J^T (J J^T)^-1, its transpose's and J^-1 against numpy's pinv
    # at _RCOND.  A wide J of rank below its row count, or whose sigma_min
    # / sigma_max falls below _RCOND, is refused; one just above is not.
    rng = np.random.default_rng(4)
    for rows in range(1, 6):
        for cols in range(1, 9):
            jac = rng.normal(size=(rows, cols))
            got = precise._pseudo_inverse(jac.tolist())
            want = np.linalg.pinv(jac, rcond=precise._RCOND)
            assert np.array(got).shape == (cols, rows)
            assert np.max(np.abs(np.array(got) - want)) <= 1e-11 * np.max(np.abs(want))
    wide = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    assert precise._pseudo_inverse((wide * [[1.0], [1e-7]]).tolist()) is None
    assert precise._pseudo_inverse((wide * [[1.0], [1e-5]]).tolist()) is not None
    assert precise._pseudo_inverse([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0]]) is None
    # No free phase: the 0 x m pseudo-inverse.
    assert precise._pseudo_inverse([[], []]) == []


@pytest.mark.parametrize("rel, phi, root", [
    ([0.0], Fraction(0), True),
    ([0.0, 0.0], Fraction(0), True),
    ([0.0], Fraction(1), False),
    ([0.0, 0.0, 0.0], Fraction(1, 2), False),
])
def test_a_half_with_no_free_phase_polishes_only_a_root(rel, phi, root):
    # Every phase a held zero: the polish returns a root as it is and
    # raises SolverError on anything else.
    if root:
        phases, _ = precise.polish_structured(rel, phi)
        assert [float(p) for p in phases] == rel
    else:
        with pytest.raises(su2.SolverError, match="float-precision polish failed"):
            precise.polish_structured(rel, phi)


def _rounded_rows():
    # The 84 rounded table rows as the CLI polishes them, zeros held:
    # every one a square system.
    return [
        pytest.param(row.phi_over_pi, pulses, id=f"{row.phi_over_pi}-{pulses}p")
        for row in catalog.arbitrary_rows()
        for pulses in (4, 6, 8, 10, 12, 14)
    ]


@pytest.mark.parametrize("frac, pulses", _rounded_rows())
def test_scalar_newton_matches_the_batched_newton_on_the_rounded_rows(frac, pulses):
    seq = catalog.arbitrary_row(frac, pulses, refine=False)
    rel = [float(p) for p in seq.phases[1 : pulses // 2]]
    _newton_both_ways(rel, seq.target_phi)


@given(
    n=st.integers(1, 8),
    phi=st.floats(0.05, 2 * math.pi - 0.05),
    rng_seed=st.integers(0, 2**16),
    offsets=st.lists(st.floats(-1e-4, 1e-4), min_size=4, max_size=4),
)
@settings(max_examples=15, deadline=None)
def test_scalar_newton_matches_the_batched_newton_on_pinned_square_systems(
    n, phi, rng_seed, offsets
):
    # A chart root of a random problem (its leading floor(n/2) phases pinned
    # at 0), each free phase moved by up to 1e-4 pi, the size of a table's
    # rounding.
    try:
        sols = solver.solve(solver.SolverConfig(n=n, phi=phi, seeds=4, rng_seed=rng_seed))
    except solver.SolverError:
        assume(False)
    pinned = solver.pinned_zero_count(n)
    rel = list(sols[0].phases)
    for k, j in enumerate(range(pinned, n)):
        rel[j] += offsets[k] * math.pi
    _newton_both_ways(rel, phi)


def test_an_uncertified_jacobian_fails_the_polish():
    # The rounded 14-pulse row with the tangent of its first free phase
    # scaled by 1e-8: sigma_min / sigma_max falls below _RCOND, so the
    # float stage refuses the step the pseudo-inverse would truncate.
    rel, phi = _polish_inputs("row-14p")
    pinned = precise._leading_zeros(rel)

    def degenerate(x, pinned=None):
        a, da = half_jets(x, pinned)
        if da:
            da[0] = [1e-8 * v for v in da[0]]
        return a, da

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(precise, "half_jets", degenerate)
        _, da = degenerate(rel, pinned)
        rot = complex(mp.exp(0.25j * mp.mpf(phi)))
        jac = [[(rot * d[m]).imag for d in da] for m in range((len(rel) + 1) // 2)]
        sigma = np.linalg.svd(np.array(jac), compute_uv=False)
        assert sigma[-1] < precise._RCOND * sigma[0]
        with pytest.raises(su2.SolverError, match="ill-conditioned"):
            precise._float_newton(rel, float(phi), precise._FLOAT_TOL, 60, pinned)
        with pytest.raises(su2.SolverError, match="ill-conditioned"):
            precise.polish_structured(rel, phi)


@pytest.mark.parametrize("n, order", [(3, 2), (4, 0)])
def test_verify_measures_the_input_where_the_jacobian_is_uncertified(n, order, capsys):
    # Near phi = 0 the mirror pair (n = 3) and the pair y - x = pi - a - phi/4
    # (n = 4) lie near a one-parameter family of roots: the float stage
    # refuses their Jacobians, and verify measures the 17-digit input, as
    # it does for any failed polish (the strict xfails of test_cli.py).
    phi_over_pi = 1e-6
    phi = phi_over_pi * math.pi
    refused = []
    for rel in sequences.chart_roots(n, phi):
        try:
            precise.polish_structured(list(rel), phi)
        except su2.SolverError as exc:
            assert "ill-conditioned" in str(exc)
            refused.append(rel)
    assert len(refused) == 2
    for rel in refused:
        seq = sequences.structured_sequence(rel, phi)
        spec = f"phi={phi_over_pi!r};phases=" + ",".join(map(cli._fmt_phase, seq.phases))
        assert cli.run(["verify", "--json", "--gate", spec]) == 0
        slope, peak = precise.slope_fit(cli.spec_parse(spec))
        want = {"order": order, "slope": slope, "peak": peak}
        assert json.loads(capsys.readouterr().out) == want


@pytest.mark.parametrize(
    "name", [n for n in catalog.names() if catalog.get(n).order >= 4]
)
def test_named_trains_of_order_four_or_more_polish_as_the_batched_newton(name):
    # 4 to 8 free phases against ceil(n/2) entries: the minimum-norm step,
    # through the Gram matrix on scalars here and numpy's pinv in the
    # batched solver.  The roots lie on a manifold, where the float
    # stages' last bits choose the point, so the two part by up to ~1e-15
    # rad, and the fit reads the same slope and peak from either.
    rel, phi = _polish_inputs(name)
    assert precise._leading_zeros(rel) < solver.pinned_zero_count(len(rel))
    got, t = precise.polish_structured(rel, phi)
    want, t_want = _batched_polish(rel, phi)
    assert max(abs(float(g) - float(w)) for g, w in zip(got, want)) <= 1e-14
    pulses = 2 * (len(rel) + 1)
    assert precise.half_slope_fit(t, pulses) == precise.half_slope_fit(t_want, pulses)


def _inline_specs():
    # The inline specs verify polishes: each name's 17-digit spec as show
    # prints it (but Z2, whose one-pulse half has nothing to polish) and
    # the 84 rounded table rows at 17 digits, as the verify benchmark
    # writes them.
    params = []
    for name in catalog.names():
        entry = catalog.get(name)
        if entry.pulse_count > 2:
            seq = catalog.to_sequence(entry)
            params.append(pytest.param(float(entry.phi_over_pi), seq.phases, id=name))
    for row in catalog.arbitrary_rows():
        for pulses in (4, 6, 8, 10, 12, 14):
            seq = catalog.arbitrary_row(row.phi_over_pi, pulses, refine=False)
            params.append(pytest.param(
                float(row.phi_over_pi), seq.phases, id=f"{row.phi_over_pi}-{pulses}p"
            ))
    return params


def _verify_polish_inputs(phi_over_pi, phases):
    # (spec, rel, angle): the inline spec of the train and the relative
    # phases of its half and angle that cli._polished_half polishes.
    spec = f"phi={phi_over_pi:.17g};phases=" + ",".join(map(cli._fmt_phase, phases))
    seq = cli.spec_parse(spec)
    half = first_half(seq)
    rel = [float(p) - float(half[0]) for p in half[1:]]
    frac = cli._pi_fraction(float(seq.target_phi))
    return spec, rel, float(seq.target_phi) if frac is None else frac


@pytest.mark.parametrize("phi_over_pi, phases", _inline_specs())
def test_polish_t_is_the_t_of_polish_fixed(phi_over_pi, phases):
    # A square half's root is isolated, and an underdetermined half's t
    # has its top coefficient fixed and the rest below 1e-45: from unit
    # rotors and from the trig of the float root, the polish ends on the
    # same t within its stop, and the fit reads the same two doubles.
    spec, rel, angle = _verify_polish_inputs(phi_over_pi, phases)
    root, t = precise.polish_t(rel, angle)
    x, want = precise.polish_fixed(rel, angle)
    assert len(t) == len(want)
    assert max(abs(a - b) for a, b in zip(t, want)) <= 2e-45 * abs(want[-1])
    pulses = 2 * (len(rel) + 1)
    assert precise.half_slope_fit(t, pulses) == precise.half_slope_fit(want, pulses)
    # The float root, which the CLI's drift check reads, is the float stage
    # both polishes share, within 1e-12 rad of the 50-digit phases.
    assert max(abs(r - math.ldexp(v, -precise.PREC)) for r, v in zip(root, x)) <= 1e-12
    assert cli._polished_half(cli.spec_parse(spec)) == t


@pytest.mark.parametrize("case", ["row-14p", "Z12", "S16"])
def test_polish_t_takes_the_trig_of_the_gate_alone(case, monkeypatch, capsys):
    # polish_fixed takes the cos/sin of phi/4 and of each free phase of
    # the float root; polish_t, and so a verify of an inline spec, only
    # the first.
    rel, phi = _polish_inputs(case)
    free = len(rel) - precise._leading_zeros(rel)
    calls = []
    trig = precise._cos_sin_fixed

    def counted(x):
        calls.append(x)
        return trig(x)

    monkeypatch.setattr(precise, "_cos_sin_fixed", counted)
    precise.polish_fixed(rel, phi)
    assert len(calls) == 1 + free
    calls.clear()
    precise.polish_t(rel, phi)
    assert len(calls) == 1
    calls.clear()
    half = [0.0, *rel]
    shift = math.pi - float(phi) / 2
    spec = f"phi={float(phi) / math.pi:.17g};phases=" + ",".join(
        map(cli._fmt_phase, half + [p + shift for p in half])
    )
    assert cli.run(["verify", "--json", "--gate", spec]) == 0
    assert json.loads(capsys.readouterr().out)["order"] == len(half) - 1
    assert len(calls) == 1


def test_unit_rotors_lie_on_the_unit_circle_at_the_float_phases():
    # Within a few units of 2^-PREC of |r| = 1, and within a few ulps of
    # the double's phase.
    prec = precise.PREC
    phases = [0.0, -0.0, 1e-300, 0.5, -2.0, math.pi, 3 * math.pi / 2, 40.0, 1e10]
    for x, (re_, im_) in zip(phases, precise._unit_rotors(phases)):
        assert abs(re_ * re_ + im_ * im_ - (1 << 2 * prec)) <= 4 << prec
        # -i e^{i x} = sin x - i cos x.
        turn = math.atan2(re_, -im_) - math.remainder(x, 2 * math.pi)
        assert abs(turn) <= 4e-16 * max(1.0, abs(x))


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=-1e-6, max_value=1e-6))
@example(0.0)
@example(-0.0)
@example(1e-6)
@example(-1e-6)
@example(3e-12)
@example(-3e-12)
def test_small_cos_sin_matches_mpmath_at_twice_the_precision(delta):
    # The turn of a rotor by a Newton step: cos and sin of the step at
    # 2^-PREC from the fixed-point Taylor series, against mpmath at 2 PREC
    # bits.
    prec = precise.PREC
    d = precise._fixed(delta)
    c, s = precise._small_cos_sin(d)
    with mp.workprec(2 * prec):
        x = mp.ldexp(d, -prec)
        unit = mp.ldexp(1, -prec)
        assert abs(mp.ldexp(c, -prec) - mp.cos(x)) <= 3 * unit
        assert abs(mp.ldexp(s, -prec) - mp.sin(x)) <= 3 * unit
    if delta == 0:
        assert (c, s) == (1 << prec, 0)


def test_fixed_converts_every_finite_double():
    # Exact where the double is a multiple of 2^-PREC; never an
    # OverflowError.
    for value in (0.0, -0.0, 1.0, -math.pi, 2.5e-40, 1e308, -1.7976931348623157e308):
        assert precise._fixed(value) == mp.mpf(value) * 2**precise.PREC
    assert precise._fixed(5e-324) == 0
    assert precise._fixed(-5e-324) == -1


def test_turned_rotors_are_the_rotors_of_the_fixed_point_phases(monkeypatch):
    # A rounded 14-pulse row: three free phases, each rotor turned once per
    # Newton step, against a fresh cos/sin of its final fixed-point phase.
    row = catalog.arbitrary_row(Fraction(1, 3), 14, refine=False)
    rel = [float(p) for p in row.phases[1:7]]
    with mp.workdps(precise.WORKING_DPS):
        phi = mp.pi / 3
    prec = precise.PREC
    results, rotors = [], []
    newton, residual = precise._fixed_newton, precise._mp_residual

    def recorded(*args):
        results.append(newton(*args))
        return results[-1]

    def spied(zeros, turned, *args):
        rotors[:] = list(turned)
        return residual(zeros, turned, *args)

    monkeypatch.setattr(precise, "_fixed_newton", recorded)
    monkeypatch.setattr(precise, "_mp_residual", spied)
    x, handed = precise.polish_fixed(rel, phi)
    # The rotors of the last residual evaluation, after every turn.
    [(steps, evals, _, a_h)] = results
    assert evals >= 3 and len(rotors) == 3
    zeros = len(x) - len(rotors)
    assert x[:zeros] == [0] * zeros
    for phase, rotor in zip(x[zeros:], rotors):
        fresh = precise._rotor(from_man_exp(phase, -prec))
        assert max(abs(got - want) for got, want in zip(rotor, fresh)) <= 8
    # The fixed-point phases are the float root's plus the summed steps,
    # and polish_structured returns them at the working precision.
    root, _ = precise.polish_t(rel, phi)
    assert x == [precise._fixed(v) for v in root[:zeros]] + [
        precise._fixed(v) + d for v, d in zip(root[zeros:], steps)
    ]
    polished, _ = precise.polish_structured(rel, phi)
    with mp.workdps(precise.WORKING_DPS):
        assert polished == [mp.mpf((v, -prec)) for v in x]
    # The t handed on is that of the half composed from those turned
    # rotors.
    ar, ai, _, _ = precise._mp_jet_rotors(zeros + 1, rotors)
    assert a_h == (ar, ai)
    assert handed == precise._half_t(ar, ai, precise._angle_trig(phi, 2))


def _outputs_at(dps, inputs):
    # slope_fit, half_slope_fit, polish_structured and a cleared catalog's
    # trains and halves under a caller at ``dps`` digits, as exact bits
    # (a float as it is); the caller's precision must come back unchanged.
    trains, t, polish_cases, entry, gates = inputs

    def raw(values):
        return [getattr(v, "_mpf_", v) for v in values]

    with mp.workdps(dps):
        prec = mp.mp.prec
        catalog._entry_train.cache_clear()
        catalog.half_polynomial.cache_clear()
        catalog.arbitrary_row.cache_clear()
        out = [precise.slope_fit(seq) for seq in trains]
        out.append(precise.half_slope_fit(t, 16))
        for rel, angle in polish_cases:
            phases, half = precise.polish_structured(rel, angle)
            out.append((raw(phases), half))
        for seq, half in (
            (catalog.to_sequence(entry), catalog.half_polynomial(entry)),
            (catalog.arbitrary_row(Fraction(1, 3), 12), None),
        ):
            out.append((raw(seq.phases), raw([seq.target_phi]), half))
        out += [run_cli(("verify", "--json", "--gate", gate)) for gate in gates]
        assert mp.mp.prec == prec
    return out


@pytest.mark.parametrize("dps", [15, 50, 90])
def test_results_do_not_follow_the_callers_precision(dps):
    # The fixed-point format is a constant: the results under a caller at
    # 15, 50 and 90 digits are the same, bit for bit, as under one at 30.
    # The inputs are built before: floats, mpf at the working and at 30
    # digits, and Fraction(1) as an angle; verify polishes a rounded row
    # at a fraction of pi and at a float angle.
    assert precise.WP == mp.libmp.dps_to_prec(precise.WORKING_DPS)
    row = catalog.arbitrary_row(Fraction(1), 14, refine=False)
    row_rel = [float(p) for p in row.phases[1:7]]
    named_rel, named_phi = _polish_inputs("Z12")
    trains = [catalog.to_sequence(catalog.get("T18")), six_pulse(math.pi / 2, 3),
              _30_digit_train()]
    # S16 under a key the stored polishes lack: its build runs the polish.
    entry = make_polished.unstored(catalog.get("S16"))
    polish_cases = (
        (row_rel, Fraction(1)), (row_rel, math.pi), (named_rel, named_phi)
    )
    [spec] = [s for frac, s in _rounded_row_specs(12) if frac == Fraction(1, 3)]
    gates = (spec, spec.replace("phi=0.33333333333333331;", "phi=0.3334;"))
    assert cli._pi_fraction(0.3334 * math.pi) is None
    inputs = (trains, catalog.half_polynomial(entry), polish_cases, entry, gates)
    assert _outputs_at(dps, inputs) == _outputs_at(30, inputs)


def _rounded_polish_cases():
    frac = Fraction(1, 3)
    rows = []
    for pulses in (4, 6, 8, 10, 12, 14):
        seq = catalog.arbitrary_row(frac, pulses, refine=False)
        rel = [float(p) for p in seq.phases[1 : len(seq) // 2]]
        rows.append(pytest.param(rel, frac, id=f"row-{frac}-{pulses}p"))
    return rows


@pytest.mark.parametrize("rel, frac", _rounded_polish_cases())
def test_polished_rounded_rows_are_roots_to_1e_45_at_90_digits(rel, frac):
    with mp.workdps(precise.WORKING_DPS):
        phi = mp.pi * frac.numerator / frac.denominator
        polished, _ = precise.polish_structured(rel, phi)
    residual = _fitted_half_residual(polished, phi, len(rel))
    assert max(abs(r) for r in residual) < 10.0 ** -precise._POLISH_DIGITS


def test_polish_holds_the_leading_zeros_only(caplog):
    # A 14-pulse root at pi/3 moved along its manifold to the leading
    # phases (0, 0.3 pi, 0), rounded to 4 decimals: the leading zero is
    # held, the zero after 0.3 pi moves like the phases around it.
    rel = [p * math.pi for p in (0.0, 0.3, 0.0, 0.9957, 1.2733, 0.9183)]
    with mp.workdps(precise.WORKING_DPS):
        phi = mp.pi / 3
        with caplog.at_level(logging.DEBUG, logger="cpgate.precise"):
            polished, _ = precise.polish_structured(rel, phi)
    [record] = caplog.records
    assert re.search(r"\bfree=5\b", record.getMessage())
    assert polished[0] == 0 and polished[2] != 0
    residual = _fitted_half_residual(polished, phi, len(rel))
    assert max(abs(r) for r in residual) < 10.0 ** -precise._POLISH_DIGITS


@pytest.mark.parametrize("name", ["Z12", "S16", "T18"])
def test_polished_named_trains_are_roots_to_1e_45_at_90_digits(name):
    seq = catalog.to_sequence(catalog.get(name))
    n = len(seq) // 2 - 1
    residual = _fitted_half_residual(seq.phases[1 : n + 1], seq.target_phi, n)
    assert max(abs(r) for r in residual) < 10.0 ** -precise._POLISH_DIGITS


_ORACLE_DPS = 90
_ORACLE_EPS = ("0", "1e-3", "-1e-3", "1e-2", "-1e-2", "0.3", "-0.3")


def _oracle_propagator(phases, eps):
    # The pulse loop in plain mpc object arithmetic at 90 digits, on the
    # same phases the kernel under test sees, each read exactly as an mpf.
    with mp.workdps(_ORACLE_DPS):
        a = mp.mpc(1)
        b = mp.mpc(0)
        for phase in phases:
            half = mp.pi * (1 + eps) / 2
            pa = mp.cos(half)
            pb = -1j * mp.exp(1j * mp.mpf(phase)) * mp.sin(half)
            a, b = pa * a - pb * mp.conj(b), pa * b + pb * mp.conj(a)
        return a, b


def _random_trains(count, seed):
    # Random-phase pi trains of odd and even length.
    rng = random.Random(seed)
    return [
        [rng.uniform(0.0, 2 * math.pi) for _ in range(rng.randint(2, 18))]
        for _ in range(count)
    ]


def _assert_matches_oracle(phases, bound):
    eps = [mp.mpf(e) for e in _ORACLE_EPS]
    for e, (a, b) in zip(eps, mp_propagator(phases, eps)):
        want_a, want_b = _oracle_propagator(phases, e)
        assert abs(a - want_a) <= bound
        assert abs(b - want_b) <= bound


@pytest.mark.parametrize("name", catalog.names())
def test_mp_propagator_matches_a_90_digit_oracle_on_named_trains(name):
    seq = catalog.to_sequence(catalog.get(name))
    with mp.workdps(precise.WORKING_DPS):
        _assert_matches_oracle([mp.mpf(p) for p in seq.phases], 1e-45)


def test_mp_propagator_matches_a_90_digit_oracle_on_random_trains():
    with mp.workdps(precise.WORKING_DPS):
        for phases in _random_trains(12, seed=5):
            _assert_matches_oracle([mp.mpf(p) for p in phases], 1e-45)


def test_mp_propagator_precision_follows_the_working_precision():
    seq = catalog.to_sequence(catalog.get("T18"))
    trains = [list(seq.phases)] + _random_trains(4, seed=6)
    with mp.workdps(30):
        for phases in trains:
            # Phases rounded to 30 digits, so the oracle sees what the
            # kernel sees.
            _assert_matches_oracle([mp.mpf(p) for p in phases], 1e-25)


def _polish_cases():
    rows = [
        (row.phi_over_pi, pulses)
        for row in catalog.arbitrary_rows()
        for pulses in (12, 14)
    ]
    named = [n for n in catalog.names() if catalog.get(n).pulse_count >= 16]
    assert len(rows) == 28 and len(named) == 6
    return [pytest.param(("row", r), id=f"row-{r[0]}-{r[1]}p") for r in rows] + [
        pytest.param(("name", n), id=n) for n in named
    ]


@pytest.mark.parametrize("case", _polish_cases())
def test_polished_trains_are_roots_to_90_digits(case):
    kind, key = case
    if kind == "row":
        seq = catalog.arbitrary_row(*key)
    else:
        seq = catalog.to_sequence(catalog.get(key))
    n = len(seq) // 2 - 1
    rel = list(seq.phases[1 : n + 1])
    with mp.workdps(_ORACLE_DPS):
        residual = _dense_residual(rel, seq.target_phi, n)
    assert max(abs(r) for r in residual) <= 1e-40
    assert su2.order_from_slope(*precise.slope_fit(seq)) == len(seq) // 2 - 1


def _catalog_fractions():
    # Every angle and phase of the named trains and table rows, in units of
    # pi, as the Fractions the catalog holds.
    fracs = set()
    for entry in catalog.entries():
        fracs.add(entry.phi_over_pi)
        fracs.update(entry.phases_over_pi)
    for row in catalog.arbitrary_rows():
        fracs.add(row.phi_over_pi)
        for pulses in row.columns:
            fracs.update(row.free_phases(pulses))
    assert len(fracs) == 294
    return fracs


def test_raw_of_a_fraction_is_pi_times_it_at_50_digits():
    # A Fraction in units of pi is rounded as mp.pi * p / q was in a
    # 50-digit context, bit for bit: on every catalog fraction and on p/q
    # for q <= 64, |p| <= 4q.
    small = {Fraction(p, q) for q in range(1, 65) for p in range(-4 * q, 4 * q + 1)}
    with mp.workdps(precise.WORKING_DPS):
        for f in _catalog_fractions() | small:
            assert precise._raw(f) == (mp.pi * f.numerator / f.denominator)._mpf_, f


def test_pi_is_mpmaths_pi_at_wp_bits():
    assert precise._PI == mpf_pi(precise.WP, round_nearest)


@st.composite
def _dyadic(draw):
    # (man, exp) with a mantissa of up to WP + 80 bits: any, or a WP-bit
    # head over an exact half (a tie, to either parity), or a head of all
    # ones over at least a half (a carry into a new bit).
    wp = precise.WP
    kind = draw(st.sampled_from(["any", "tie", "carry"]))
    extra = draw(st.integers(1, 80))
    if kind == "any":
        man = draw(st.integers(0, 1 << (wp + 80)))
    elif kind == "tie":
        man = draw(st.integers(1 << (wp - 1), (1 << wp) - 1)) << extra | 1 << (extra - 1)
    else:
        tail = draw(st.integers(1 << (extra - 1), (1 << extra) - 1))
        man = ((1 << wp) - 1) << extra | tail
    man = -man if draw(st.booleans()) else man
    return man, draw(st.integers(-1200, 1200))


@given(value=_dyadic())
@settings(max_examples=300, deadline=None)
def test_rounding_is_mpmaths_from_man_exp(value):
    man, exp = value
    assert precise._round(man, exp) == from_man_exp(man, exp, precise.WP, round_nearest)


@given(value=_dyadic(), den=st.integers(1, 1 << 80), exact=st.booleans())
@settings(max_examples=300, deadline=None)
def test_rounding_a_quotient_is_mpmaths_division(value, den, exact):
    # With ``exact`` the quotient is the dyadic itself, ties and carries
    # included.
    man, exp = value
    if exact:
        man *= den
    want = mpf_div(from_man_exp(man, exp), from_int(den), precise.WP, round_nearest)
    assert precise._round(man, exp, den) == want


@given(x=_dyadic(), y=_dyadic())
@settings(max_examples=300, deadline=None)
def test_a_sum_is_mpmaths_sum(x, y):
    x, y = (precise._round(*v) for v in (x, y))
    assert precise._add(x, y) == mpf_add(x, y, precise.WP, round_nearest)


def _catalog_phases():
    # Every Phase of the 27 named trains and the 84 polished table rows,
    # their angles included.
    seqs = [catalog.to_sequence(e) for e in catalog.entries()] + [
        catalog.arbitrary_row(row.phi_over_pi, pulses)
        for row in catalog.arbitrary_rows()
        for pulses in (4, 6, 8, 10, 12, 14)
    ]
    assert len(seqs) == 27 + 84
    return [p for seq in seqs for p in (*seq.phases[1:], seq.target_phi)]


def test_every_catalog_phase_is_an_exact_mpf_at_wp_bits_and_no_float():
    phases = _catalog_phases()
    assert {type(p) for p in phases} == {Phase}
    with mp.workprec(precise.WP):
        for p in phases:
            value = mp.mpf(p)
            assert value._mpf_ == p._mpf_ and value == p
            # The float the train's mpf gave.
            assert float(p) == float(value)
    assert not any(isinstance(p, float) for p in phases)


def _mpf_third(x):
    # An mpf with 50-digit bits, as the polish returns.
    with mp.workdps(precise.WORKING_DPS):
        return mp.mpf(x) / 3


_TRAIN_ANGLES = st.one_of(
    st.floats(-7.0, 7.0),
    st.fractions(-4, 4, max_denominator=64),
    st.floats(-7.0, 7.0).map(_mpf_third),
)


@given(rel=st.lists(_TRAIN_ANGLES, max_size=9), phi=_TRAIN_ANGLES)
@settings(max_examples=60, deadline=None)
def test_structured_train_is_the_mpf_build(rel, phi):
    # The train the catalog built in a 50-digit context, a Fraction f as
    # mp.pi * f: the same bits, angle and label, a Phase where it held an
    # mpf.
    def mpf(x):
        if isinstance(x, Fraction):
            return mp.pi * x.numerator / x.denominator
        return mp.mpf(x)

    got = precise.structured_train(rel, phi)
    with mp.workdps(precise.WORKING_DPS):
        want = mp_structured_train([mpf(p) for p in rel], mpf(phi))
    assert [type(p) for p in got.phases] == [
        Phase if isinstance(p, mp.mpf) else type(p) for p in want.phases
    ]
    assert [getattr(p, "_mpf_", p) for p in got.phases] == [
        getattr(p, "_mpf_", p) for p in want.phases
    ]
    assert type(got.target_phi) is Phase and type(want.target_phi) is mp.mpf
    assert got.target_phi._mpf_ == want.target_phi._mpf_
    assert got.label == want.label


@pytest.mark.parametrize(
    "angle", [math.inf, -math.inf, math.nan, mp.mpf("inf"), mp.mpf("nan")]
)
def test_raw_refuses_an_angle_that_is_not_finite(angle):
    # Rounded, an infinity would build a train of infinite phases and fit
    # a slope from it.
    with pytest.raises(ValueError, match="finite"):
        precise._raw(angle)
    with pytest.raises(ValueError, match="finite"):
        precise.structured_train([angle], 1.0)
    with pytest.raises(ValueError, match="finite"):
        precise.slope_fit(CompositeSequence((angle, 0.0), 1.0))


@pytest.mark.parametrize("angle", [mp.pi, mp.e, "0.5", 0.5j, None])
def test_raw_refuses_an_angle_it_would_round_through_a_float(angle):
    # mp.pi through a float would silently lose its 50 digits; a Fraction
    # of pi is the exact angle.
    with pytest.raises(TypeError):
        precise._raw(angle)
    with pytest.raises(TypeError):
        precise.structured_train((), angle)
    with pytest.raises(TypeError):
        precise.polish_structured([0.5], angle)


def _values(t, pulses):
    # The fixed-point s^p t(u) on the slope grid, as half_slope_fit takes it.
    values = []
    for s, u, _ in precise._slope_grid()[0]:
        value = precise._horner(t, u)
        values.append(s * value >> precise.PREC if pulses // 2 % 2 else value)
    return values


def _fit_both_ways(t, pulses):
    # (half_slope_fit, whether it took the log per point, _line_fit of the
    # same squares): the cached grid logs and the per-point logs.
    calls, line_fit = [], precise._line_fit

    def counted(*args):
        calls.append(args)
        return line_fit(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(precise, "_line_fit", counted)
        got = precise.half_slope_fit(t, pulses)
    want = line_fit([v * v for v in _values(t, pulses)], 1 - 2 * precise.PREC)
    return got, bool(calls), want


def _assert_cached_logs(t, pulses):
    got, per_point, want = _fit_both_ways(t, pulses)
    assert not per_point
    assert got == want


@pytest.mark.parametrize("name", catalog.names())
def test_the_fit_of_a_name_from_its_cached_grid_logs_is_the_fit_of_its_logs(name):
    # Every name's t has a top coefficient that sets its values to 2^-30
    # but the 2-pulse trains', whose t is a constant.
    entry = catalog.get(name)
    t, pulses = catalog.half_polynomial(entry), 2 * (entry.order + 1)
    if len(t) == 1:
        got, per_point, want = _fit_both_ways(t, pulses)
        assert per_point and got == want
    else:
        _assert_cached_logs(t, pulses)


@pytest.mark.parametrize("frac, pulses", _rounded_rows())
def test_the_fit_of_a_polished_row_from_its_cached_grid_logs_is_the_fit_of_its_logs(
    frac, pulses
):
    seq = catalog.arbitrary_row(frac, pulses, refine=False)
    _, t = precise.polish_structured([float(p) for p in seq.phases[1 : pulses // 2]], frac)
    _assert_cached_logs(t, pulses)


def test_the_fit_of_each_polished_corpus_spec_is_the_fit_of_its_logs():
    import make_corpus

    corpus = json.loads(make_corpus.CORPUS.read_text())
    fitted = 0
    for record in corpus["verify"]:
        if "=" not in record["gate"]:
            continue
        seq = cli.spec_parse(record["gate"])
        t = cli._polished_half(seq)
        if t is not None:
            _assert_cached_logs(t, len(seq))
            fitted += 1
    assert fitted >= 140  # 144 of the 194 inline specs polish


@given(
    n=st.integers(1, 8),
    phi=st.floats(0.05, 2 * math.pi - 0.05),
    rng_seed=st.integers(0, 2**16),
)
@settings(max_examples=15, deadline=None)
def test_the_fit_of_a_random_polished_train_is_the_fit_of_its_logs(n, phi, rng_seed):
    # A chart root of a random problem, polished to 50 digits.
    try:
        sols = solver.solve(solver.SolverConfig(n=n, phi=phi, seeds=4, rng_seed=rng_seed))
        _, t = precise.polish_structured(list(sols[0].phases), phi)
    except solver.SolverError:
        assume(False)
    _assert_cached_logs(t, 2 * (n + 1))


def _rho(t, pulses):
    # max |v_k / (t_m U_k) - 1| over the grid, in floats.
    m, p = len(t) - 1, pulses // 2 % 2
    return max(
        abs(v / (t[-1] * (u / 2**precise.PREC) ** m * (s / 2**precise.PREC) ** p) - 1)
        for v, (s, u, _) in zip(_values(t, pulses), precise._slope_grid()[0])
    )


def test_a_half_off_the_cached_logs_takes_a_log_per_point():
    one = 1 << precise.PREC
    u3 = precise._slope_grid()[0][3][1]
    # An exact half off every root: its low coefficients set its values.
    off_root = precise.t_polynomial((0.0, 0.3, 1.1, 0.7), 0.5 * math.pi)
    assert _rho(off_root, 8) > 2**-30
    cases = [
        ((one // 3,), 2),  # a constant t
        ((one // 3,), 4),
        ((one // 5, one // 7, 0), 8),  # a top coefficient of 0
        # t(u_3) = 0 exactly: that square drops its point.
        ((-(one * u3 >> precise.PREC), one), 4),
        (off_root, 8),
    ]
    for t, pulses in cases:
        got, per_point, want = _fit_both_ways(t, pulses)
        assert per_point, t
        assert got == want, t
    assert 0 in _values(cases[3][0], 4)
