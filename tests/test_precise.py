import logging
import math
import random
import re
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpgate import analysis, catalog, cli, precise, solver
from cpgate.jets import structured_jets
from cpgate.sequences import HalfSequenceSpec, six_pulse, structured_sequence
from cpgate.su2 import CompositeSequence

from mp_oracle import mp_propagator


def _reference_slope_fit(seq, eps_lo=1e-3, eps_hi=1e-2, points=20, dps=50):
    # The per-epsilon loop slope_fit ran before mp_propagator took an
    # epsilon list: one propagator call, with all its trig, per signed eps,
    # in mpc object arithmetic, always averaged over both signs.
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


def _dense_half_jets(rel_phases, order):
    # Full truncated products of the pi-pulse series of the half train,
    # zeros included, in mpc object arithmetic at the caller's precision.
    half_pi = mp.pi / 2
    base_cos = [half_pi**m * mp.cos(half_pi + m * half_pi) / mp.factorial(m)
                for m in range(order + 1)]
    base_sin = [half_pi**m * mp.sin(half_pi + m * half_pi) / mp.factorial(m)
                for m in range(order + 1)]
    a = b = None
    for phase in [mp.mpf(0)] + list(rel_phases):
        rot = -1j * mp.exp(1j * phase)
        pa = [mp.mpc(c) for c in base_cos]
        pb = [rot * s for s in base_sin]
        a, b = (pa, pb) if a is None else _mp_jet_mul(pa, pb, a, b)
    return a, b


def _dense_residual(rel_phases, phi_mp, n):
    # The full-system conditions of the two-half train, the oracle for a
    # root: m! (Re, Im) of a_m for even m and of b_m for odd m, m = 1..n.
    a, b = _dense_half_jets(rel_phases, n)
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
        _ODD_TRAINS[name], target_phi=math.pi / 2, order=1, label=name
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
    with pytest.raises(ValueError, match="even number of pulses"):
        analysis.verify_order(seq)


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


def _assert_slope_fit_is_the_reference_on_a_rounded_row(spec):
    seq = cli._measurement_sequence(cli.spec_parse(spec))
    assert seq.phases != cli.spec_parse(spec).phases  # polished
    assert len(seq) % 2 == 0  # the one-sign path
    assert precise.slope_fit(seq) == _reference_slope_fit(seq)


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


def _structured_mp_train(rel, phi):
    # A 50-digit two-half train, built the way catalog names, table rows
    # and polished specs are.
    with mp.workdps(precise.WORKING_DPS):
        spec = HalfSequenceSpec(tuple(mp.mpf(p) for p in rel), mp.mpf(phi))
        return structured_sequence(spec)


def _half_length(seq):
    with mp.workdps(precise.WORKING_DPS):
        return precise._half_length(seq.phases, seq.target_phi)


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
    # phases: the fit runs the half train from the cached zero prefix and
    # forms the two-half product.
    zeros, free = rel
    rel = [0.0] * zeros + free[zeros:]
    seq = _structured_mp_train(rel, phi)
    assert _half_length(seq) == len(rel) + 1
    assert precise.slope_fit(seq) == _reference_slope_fit(seq)


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
    return CompositeSequence(phases, seq.target_phi, seq.order, "Z10-ulp")


def _30_digit_train():
    # S6 built at 30 digits: its second half is the first plus the 30-digit
    # shift, which differs from the 50-digit shift that slope_fit checks.
    seq = catalog.to_sequence(catalog.get("S6"))
    half = len(seq) // 2
    with mp.workdps(30):
        spec = HalfSequenceSpec(
            tuple(mp.mpf(p) for p in seq.phases[1:half]), mp.mpf(seq.target_phi)
        )
        return structured_sequence(spec)


_FULL_LOOP_TRAINS = {
    "ulp-moved": _ulp_moved_train,
    "float-builder": lambda: six_pulse(math.pi / 2, 3),
    "30-digit-S6": _30_digit_train,
}


@pytest.mark.parametrize("name", sorted(_FULL_LOOP_TRAINS))
def test_slope_fit_takes_the_full_loop_off_the_exact_structure(name):
    seq = _FULL_LOOP_TRAINS[name]()
    assert _half_length(seq) == 0
    assert precise.slope_fit(seq) == _reference_slope_fit(seq)


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
    seq = CompositeSequence((first, *rest), phi, len(rest) // 2)
    assert _half_length(seq) == 0
    assert precise.slope_fit(seq) == _reference_slope_fit(seq)


def test_structured_trains_of_the_verify_path_take_the_half_loop():
    # Catalog names, polished table rows and polished inline specs.
    seqs = [catalog.to_sequence(catalog.get(n)) for n in catalog.names()]
    seqs.append(catalog.arbitrary_row(Fraction(1, 3), 14))
    _, spec = _rounded_row_specs(14)[0]
    seqs.append(cli._measurement_sequence(cli.spec_parse(spec)))
    assert seqs[-1].phases != cli.spec_parse(spec).phases  # polished
    for seq in seqs:
        assert _half_length(seq) == len(seq) // 2, seq.label


@pytest.mark.parametrize("dps", [30, precise.WORKING_DPS])
def test_slope_grid_holds_sin_and_cos_of_the_half_error_area(dps):
    # Each point's fixed-point s = sin(pi eps/2) and cos(pi eps/2) at
    # 2^-P, P = wp + GUARD_BITS, is within one unit of mpmath's at P bits.
    with mp.workdps(dps):
        wp = mp.mp.prec
    prec = wp + precise.GUARD_BITS
    grid, trig, logs = precise._slope_grid(wp)
    assert len(grid) == len(trig) == len(logs) == precise._SLOPE_POINTS
    unit = mp.mpf(2) ** -prec
    with mp.workprec(prec):
        for eps, (s, c) in zip(grid, trig):
            x = mp.pi * eps / 2
            assert abs(s * unit - mp.sin(x)) <= unit
            assert abs(c * unit - mp.cos(x)) <= unit


def _mp_residual(rel, phi, n):
    # The polish residual with the cos/sin of phi / 4 taken at the working
    # precision, the way polish_structured hands them over.
    gate = precise._angle_trig(phi, 2, mp.mp.prec + precise.GUARD_BITS)
    return precise._mp_residual(rel, gate, n)


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
            got = _mp_residual(rel, phi, n)
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
            got = _mp_residual(rel, phi, n)
            want = _fitted_half_residual(rel, phi, n)
            scale = max(1, max(abs(w) for w in want))
            assert max(abs(g - w) for g, w in zip(got, want)) <= 1e-45 * scale, zeros


@pytest.mark.parametrize("n", range(0, 9))
def test_float_polynomials_match_the_50_digit_polynomials(n):
    # structured_jets against the fixed-point recurrence on random halves,
    # with and without leading zeros.
    rng = np.random.default_rng(300 + n)
    with mp.workdps(precise.WORKING_DPS):
        prec = mp.mp.prec + precise.GUARD_BITS
        for zeros in sorted({0, n // 2, n}):
            x = rng.uniform(0.0, 2 * math.pi, size=(3, n))
            x[:, :zeros] = 0.0
            for row, got in zip(x, structured_jets(x)):
                ar, ai, _, _ = precise._mp_jet_compose(
                    [mp.mpf(0)] + [mp.mpf(p) for p in row], prec
                )
                want = np.array([
                    complex(float(mp.mpf((r, -prec))), float(mp.mpf((i, -prec))))
                    for r, i in zip(ar, ai)
                ])
                assert got.shape == want.shape == (n + 2,)
                scale = max(1.0, np.max(np.abs(want)))
                assert np.max(np.abs(got - want)) <= 1e-13 * scale, zeros


@pytest.mark.parametrize("zeros", range(0, 5))
def test_jet_zero_prefix_equals_pulse_by_pulse_composition_bitwise(zeros):
    rng = random.Random(zeros)
    with mp.workdps(precise.WORKING_DPS):
        prec = mp.mp.prec + precise.GUARD_BITS
        phases = [mp.mpf(0)] * zeros + [mp.mpf(rng.uniform(0.0, 6.0)) for _ in range(3)]
        poly = precise._mp_zero_prefix(len(phases) + 1, 0, prec)
        for phase in phases:
            poly = precise._mp_jet_pulse(poly, precise._rotor(phase, prec), prec)
        got = precise._mp_jet_compose(phases, prec)
        assert [list(part) for part in got] == [list(part) for part in poly]


def test_jet_zero_prefix_cache_is_keyed_by_precision():
    rel = [mp.mpf(0), mp.mpf(0), mp.mpf("2.1"), mp.mpf("4.4")]
    with mp.workdps(30):
        _mp_residual(rel, mp.pi, 4)
    with mp.workdps(50):
        after_30 = _mp_residual(rel, mp.pi, 4)
        precise._mp_zero_prefix.cache_clear()
        fresh = _mp_residual(rel, mp.pi, 4)
    assert after_30 == fresh


def test_polish_logs_one_debug_record(caplog):
    # A rounded 12-pulse row: two pinned zeros and three free phases.
    row = catalog.arbitrary_row(Fraction(1, 3), 12, refine=False)
    rel = [float(p) for p in row.phases[1:6]]
    with mp.workdps(precise.WORKING_DPS):
        phi = mp.pi / 3
    with caplog.at_level(logging.DEBUG, logger="cpgate.precise"):
        precise.polish_structured(rel, phi, pinned=[p == 0 for p in rel])
    [record] = caplog.records
    assert record.levelno == logging.DEBUG and record.name == "cpgate.precise"
    fields = dict(re.findall(r"(\w+)=(\S+)", record.getMessage()))
    assert int(fields["free"]) == 3
    assert 0.0 <= float(fields["float_rmax"]) < 1e-6
    assert int(fields["evals"]) >= 2
    assert float(fields["rmax"]) < 10.0 ** -precise._POLISH_DIGITS
    assert float(fields["seconds"]) > 0.0


def test_polish_evaluates_the_float_jacobian_once_at_its_converged_point(monkeypatch):
    # A rounded 14-pulse row: the float Newton returns the Jacobian it
    # evaluated at its last point, and the 50-digit stage reuses it.
    row = catalog.arbitrary_row(Fraction(1, 3), 14, refine=False)
    rel = [float(p) for p in row.phases[1:7]]
    with mp.workdps(precise.WORKING_DPS):
        phi = mp.pi / 3
    points = []

    def counted(x, jacobian=False):
        if jacobian is not False:
            points.extend(np.array(x, dtype=float))
        return structured_jets(x, jacobian)

    monkeypatch.setattr(solver, "structured_jets", counted)
    precise.polish_structured(rel, phi, pinned=[p == 0 for p in rel])
    converged = points[-1]
    assert sum(np.array_equal(x, converged) for x in points) == 1
    assert len(points) > 1  # the rounded row took Newton steps


_ORACLE_DPS = 90
_ORACLE_EPS = ("0", "1e-3", "-1e-3", "1e-2", "-1e-2", "0.3", "-0.3")


def _oracle_propagator(phases, eps):
    # The pulse loop in plain mpc object arithmetic at 90 digits, on the
    # same mpf phases the kernel under test sees.
    with mp.workdps(_ORACLE_DPS):
        a = mp.mpc(1)
        b = mp.mpc(0)
        for phase in phases:
            half = mp.pi * (1 + eps) / 2
            pa = mp.cos(half)
            pb = -1j * mp.exp(1j * phase) * mp.sin(half)
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
    n = seq.order
    rel = list(seq.phases[1 : n + 1])
    with mp.workdps(_ORACLE_DPS):
        residual = _dense_residual(rel, seq.target_phi, n)
    assert max(abs(r) for r in residual) <= 1e-40
    assert analysis.verify_order(seq) == len(seq) // 2 - 1
