"""The CLI outputs and polished halves recorded in ``data/corpus.json`` (see
``make_corpus.py``)."""

import json
from pathlib import Path

from make_corpus import (
    CORPUS,
    ODD_RUNS,
    closed_solve_records,
    first_entry,
    half_records,
    odd_records,
    range_record,
    run_cli,
    sweep_record,
    verify_record,
)

# epsilon0 comes from a float secant search on numpy arithmetic.
_EPSILON0_TOL = 1e-12
# Absolute, on a fidelity.  numpy's SIMD sin and cos may differ in the
# last bit between CPUs: that moves s^p t(u) of an 18-pulse name by some
# 1e-16 relative, and compose's pair (a, b) by a rounding per pulse, about
# 2e-15 at 18 pulses.
_SWEEP_TOL = 5e-15
# Radians.  The polish of an underdetermined half starts from a float root
# whose last bits differ between machines (a few 1e-15 rad), while a root
# that slides along its manifold moves by ~1e-10 rad.
_HALF_TOL = 1e-12


def _range_mismatch(got, want):
    if set(got) != set(want):
        return True
    if got["code"] or want["code"]:
        return got != want
    return (
        not abs(got["epsilon0"] - want["epsilon0"]) <= _EPSILON0_TOL
        or got["flagged"] != want["flagged"]
    )


def _half_mismatch(got, want):
    got, want = dict(got), dict(want)
    got_half, want_half = got.pop("half"), want.pop("half")
    if got != want or len(got_half) != len(want_half):
        return True
    return not all(abs(g - w) <= _HALF_TOL for g, w in zip(got_half, want_half))


def test_cli_outputs_match_the_committed_corpus(tmp_path):
    corpus = json.loads(CORPUS.read_text())
    bad = []
    for want in corpus["verify"]:
        want = dict(want)
        gate = want.pop("gate")
        got = verify_record(gate)
        if got != want:
            bad.append(("verify", gate, got, want))
    for k, solve in enumerate(corpus["solve"]):
        path = Path(tmp_path) / f"solve-{k}.json"
        assert run_cli((*solve["argv"], "--out", str(path)))[0] == 0
        if path.read_text() != solve["file"]:
            bad.append(("solve file", solve["argv"], path.read_text(), solve["file"]))
        got = verify_record(str(first_entry(path)))
        if got != solve["verify"]:
            bad.append(("verify", solve["argv"], got, solve["verify"]))
    for want in corpus["range"]:
        want = dict(want)
        gate, threshold = want.pop("gate"), want.pop("threshold")
        got = range_record(gate, threshold)
        if _range_mismatch(got, want):
            bad.append(("range", gate, threshold, got, want))
    assert not bad, bad[:5]
    assert len(corpus["verify"]) == 27 + 84 + 10 + 100
    assert len(corpus["range"]) == (27 + 3 + 1) * 5


def _sweep_mismatch(got, want):
    if set(got) != set(want):
        return True
    if got["code"] or want["code"]:
        return got != want
    return any(
        len(got[col]) != len(want[col])
        or not all(abs(g - w) <= _SWEEP_TOL for g, w in zip(got[col], want[col]))
        for col in ("frobenius", "trace")
    )


def test_sweep_values_match_the_committed_corpus():
    corpus = json.loads(CORPUS.read_text())
    bad = []
    for want in corpus["sweep"]:
        want = dict(want)
        gate, grid = want.pop("gate"), want.pop("grid")
        got = sweep_record(gate, grid)
        if _sweep_mismatch(got, want):
            bad.append((gate, grid, got, want))
    assert not bad, bad[:5]
    assert len(corpus["sweep"]) == (27 + 2) * 2


def test_polished_halves_match_the_committed_corpus():
    corpus = json.loads(CORPUS.read_text())
    bad = [(got, want) for got, want in zip(half_records(), corpus["halves"])
           if _half_mismatch(got, want)]
    assert not bad, bad[:5]
    assert len(corpus["halves"]) == 27 + 84


def test_closed_form_solve_files_match_the_committed_corpus(tmp_path):
    corpus = json.loads(CORPUS.read_text())
    assert closed_solve_records(tmp_path) == corpus["closed_solve"]
    assert len(corpus["closed_solve"]) == 4 * 4


def test_odd_catalog_files_match_the_committed_corpus(tmp_path):
    corpus = json.loads(CORPUS.read_text())
    assert odd_records(tmp_path) == corpus["odd"]
    assert len(corpus["odd"]) == len(ODD_RUNS)
