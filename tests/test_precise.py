import math
import random

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpgate import analysis, catalog, cli, precise
from cpgate.su2 import CompositeSequence, Pulse


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


def _dense_residual(rel_phases, phi_mp, n):
    # Full truncated products of the pi-pulse series, zeros included, in
    # mpc object arithmetic at the caller's precision.
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
        a, b = (pa, pb) if a is None else _mp_jet_mul(pa, pb, a, b)
    rot = mp.exp(1j * (mp.pi - phi_mp / 2))
    a, b = _mp_jet_mul(a, [rot * c for c in b], a, b)
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
        areas = [mp.pi] * len(phases)
        (a, b), (a_neg, b_neg) = precise.mp_propagator(
            mp_phases, areas, [mp.mpf(eps), -mp.mpf(eps)]
        )
        assert abs(a_neg - a) <= 1e-45
        assert abs(b_neg + b) <= 1e-45


# Trains whose infidelity is not even in eps, areas in units of pi: three
# pi areas and one 2 pi (an odd count of odd multiples), and one 0.9 pi.
_NOT_EVEN_AREAS = {"three-pi-one-2pi": (1, 1, 2, 1), "one-0.9pi": (1, 0.9, 1, 1)}


def _not_even_train(name):
    areas = _NOT_EVEN_AREAS[name]
    return CompositeSequence(
        pulses=tuple(
            Pulse(a * math.pi, p) for a, p in zip(areas, (0.0, 0.7, 1.9, 0.4))
        ),
        target_phi=math.pi / 2,
        order=1,
        label=name,
    )


@pytest.mark.parametrize("name", sorted(_NOT_EVEN_AREAS))
def test_slope_fit_averages_both_signs_when_not_even_in_epsilon(name):
    seq = _not_even_train(name)
    with mp.workdps(precise.WORKING_DPS):
        assert not precise._even_in_epsilon(precise._mp_phases(seq)[1])
    assert precise.slope_fit(seq) == _reference_slope_fit(seq)


def _rounded_14_pulse_rows():
    specs = []
    for row in catalog.arbitrary_rows():
        seq = catalog.arbitrary_row(row.phi_over_pi, 14, refine=False)
        specs.append(pytest.param(
            f"phi={float(row.phi_over_pi):.17g};phases="
            + ",".join(f"{float(p) / math.pi:.17g}" for p in seq.phases),
            id=str(row.phi_over_pi),
        ))
    assert len(specs) == 14
    return specs


@pytest.mark.parametrize("spec", _rounded_14_pulse_rows())
def test_slope_fit_equals_the_per_epsilon_loop_bitwise_on_rounded_rows(spec):
    seq = cli._measurement_sequence(cli.spec_parse(spec))
    with mp.workdps(precise.WORKING_DPS):
        assert precise._even_in_epsilon(precise._mp_phases(seq)[1])
    assert precise.slope_fit(seq) == _reference_slope_fit(seq)


def test_slope_fit_trig_cache_is_keyed_by_precision():
    # The float area 0.9 pi is the same raw mpf at 30 and 50 digits, so
    # only the precision in the key tells the two cache entries apart.
    seq = _not_even_train("one-0.9pi")
    precise.slope_fit(seq, dps=30)
    after_30 = precise.slope_fit(seq, dps=50)
    precise._grid_trig.cache_clear()
    precise._slope_grid.cache_clear()
    assert after_30 == precise.slope_fit(seq, dps=50)


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


_ORACLE_DPS = 90
_ORACLE_EPS = ("0", "1e-3", "-1e-3", "1e-2", "-1e-2", "0.3", "-0.3")


def _oracle_propagator(phases, areas, eps):
    # The pulse loop in plain mpc object arithmetic at 90 digits, on the
    # same mpf inputs the kernel under test sees.
    with mp.workdps(_ORACLE_DPS):
        a = mp.mpc(1)
        b = mp.mpc(0)
        for phase, area in zip(phases, areas):
            half = area * (1 + eps) / 2
            pa = mp.cos(half)
            pb = -1j * mp.exp(1j * phase) * mp.sin(half)
            a, b = pa * a - pb * mp.conj(b), pa * b + pb * mp.conj(a)
        return a, b


def _random_trains(count, seed):
    # Areas well away from multiples of pi, so none is snapped or special.
    rng = random.Random(seed)
    trains = []
    for _ in range(count):
        pulses = rng.randint(2, 18)
        phases = [rng.uniform(0.0, 2 * math.pi) for _ in range(pulses)]
        areas = [rng.choice((0.5, 1.3, 2.2, 3.9, 5.7)) + rng.uniform(-0.2, 0.2)
                 for _ in range(pulses)]
        trains.append((phases, areas))
    return trains


def _assert_matches_oracle(phases, areas, bound):
    eps = [mp.mpf(e) for e in _ORACLE_EPS]
    for e, (a, b) in zip(eps, precise.mp_propagator(phases, areas, eps)):
        want_a, want_b = _oracle_propagator(phases, areas, e)
        assert abs(a - want_a) <= bound
        assert abs(b - want_b) <= bound


@pytest.mark.parametrize("name", catalog.names())
def test_mp_propagator_matches_a_90_digit_oracle_on_named_trains(name):
    seq = catalog.to_sequence(catalog.get(name))
    with mp.workdps(precise.WORKING_DPS):
        _assert_matches_oracle(*precise._mp_phases(seq), 1e-45)


def test_mp_propagator_matches_a_90_digit_oracle_on_random_trains():
    with mp.workdps(precise.WORKING_DPS):
        for phases, areas in _random_trains(12, seed=5):
            _assert_matches_oracle(
                [mp.mpf(p) for p in phases], [mp.mpf(a) for a in areas], 1e-45
            )


def test_mp_propagator_precision_follows_the_working_precision():
    seq = catalog.to_sequence(catalog.get("T18"))
    trains = [precise._mp_phases(seq)] + [
        ([mp.mpf(p) for p in phases], [mp.mpf(a) for a in areas])
        for phases, areas in _random_trains(4, seed=6)
    ]
    with mp.workdps(30):
        for phases, areas in trains:
            # Inputs rounded to 30 digits, so the oracle sees what the
            # kernel sees.
            _assert_matches_oracle(
                [+p for p in phases], [+a for a in areas], 1e-25
            )


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
    n = seq.order
    rel = list(seq.phases[1 : n + 1])
    with mp.workdps(_ORACLE_DPS):
        residual = _dense_residual(rel, seq.target_phi, n)
    assert max(abs(r) for r in residual) <= 1e-40
    assert analysis.verify_order(seq) == len(seq) // 2 - 1
