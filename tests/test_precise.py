import math
import random

import mpmath as mp
import numpy as np
import pytest

from cpgate import catalog, precise


def _reference_slope_fit(seq, eps_lo=1e-3, eps_hi=1e-2, points=20, dps=50):
    # The per-epsilon loop slope_fit ran before mp_propagator took an
    # epsilon list: one propagator call, with all its trig, per signed eps.
    with mp.workdps(dps):
        phases, areas = precise._mp_phases(seq)
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
                for phase, area in zip(phases, areas):
                    half = area * (1 + signed) / 2
                    pa = mp.cos(half)
                    pb = -1j * mp.exp(1j * phase) * mp.sin(half)
                    a, b = pa * a - pb * mp.conj(b), pa * b + pb * mp.conj(a)
                infid += mp.sqrt((abs(a - fa) ** 2 + abs(b) ** 2) / 2)
            infid /= 2
            peak = max(peak, infid)
            if infid > 0:
                logs.append(float(mp.log(eps)))
                vals.append(float(mp.log(infid)))
        slope = float(np.polyfit(np.array(logs), np.array(vals), 1)[0])
        return slope, float(peak)


def _dense_residual(rel_phases, phi_mp, n):
    # Full truncated products of the pi-pulse series, zeros included, as
    # _mp_residual computed them before the series were cached.
    half_pi = mp.pi / 2
    base_cos = [half_pi**m * mp.cos(half_pi + m * half_pi) / mp.factorial(m)
                for m in range(n + 1)]
    base_sin = [half_pi**m * mp.sin(half_pi + m * half_pi) / mp.factorial(m)
                for m in range(n + 1)]
    a = b = None
    for phase in [mp.mpf(0)] + list(rel_phases):
        rot = -1j * mp.exp(1j * phase)
        pa = [mp.mpc(c) for c in base_cos]
        pb = [rot * s for s in base_sin]
        a, b = (pa, pb) if a is None else precise._mp_jet_mul(pa, pb, a, b)
    rot = mp.exp(1j * (mp.pi - phi_mp / 2))
    a, b = precise._mp_jet_mul(a, [rot * c for c in b], a, b)
    out = []
    for m in range(1, n + 1):
        c = a[m] if m % 2 == 0 else b[m]
        out += [math.factorial(m) * mp.re(c), math.factorial(m) * mp.im(c)]
    return out


def test_mp_propagator_over_an_epsilon_list_equals_scalar_calls():
    seq = catalog.to_sequence(catalog.get("T18"))
    with mp.workdps(precise.WORKING_DPS):
        phases, areas = precise._mp_phases(seq)
        # Two distinct areas exercise the per-area trig table.
        areas[3] = areas[3] / 2
        eps = [mp.mpf("0.01"), -mp.mpf("0.01"), mp.mpf(0), mp.mpf("-0.3")]
        pairs = precise.mp_propagator(phases, areas, eps)
        assert len(pairs) == len(eps)
        for e, (a, b) in zip(eps, pairs):
            a1, b1 = precise.mp_propagator(phases, areas, e)
            assert a == a1 and b == b1


@pytest.mark.parametrize("name", catalog.names())
def test_slope_fit_equals_the_per_epsilon_loop_bitwise(name):
    seq = catalog.to_sequence(catalog.get(name))
    assert precise.slope_fit(seq) == _reference_slope_fit(seq)


@pytest.mark.parametrize("n", range(1, 9))
def test_cached_series_residual_matches_dense_product(n):
    rng = random.Random(n)
    with mp.workdps(precise.WORKING_DPS):
        for _ in range(3):
            rel = [mp.mpf(rng.uniform(0.0, 2 * math.pi)) for _ in range(n)]
            phi = mp.mpf(rng.uniform(0.1, 2 * math.pi))
            got = precise._mp_residual(rel, phi, n)
            want = _dense_residual(rel, phi, n)
            assert max(abs(g - w) for g, w in zip(got, want)) <= 1e-40


def test_pi_pulse_series_cache_is_keyed_by_precision():
    rel = [mp.mpf("0.3"), mp.mpf("2.1"), mp.mpf("4.4")]
    with mp.workdps(30):
        precise._mp_residual(rel, mp.pi, 3)
    with mp.workdps(50):
        after_30 = precise._mp_residual(rel, mp.pi, 3)
        precise._pi_pulse_series.cache_clear()
        fresh = precise._mp_residual(rel, mp.pi, 3)
    assert after_30 == fresh
