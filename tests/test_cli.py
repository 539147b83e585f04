import builtins
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

import pytest

import mpmath
import numpy as np

from cpgate import analysis, catalog, cli, precise, sequences, solver
from cpgate.cli import (
    EXIT_NUMERICAL,
    EXIT_VALIDATION,
    CliError,
    run,
    spec_parse,
)
from cpgate.sequences import first_half, structured_sequence, structured_train

import make_corpus
import make_polished


def _measured_train(seq):
    # The train verify measures for an inline spec: the 50-digit two-half
    # train of its half polished as ``cli._polished_half`` polishes it (at
    # the angle's fraction of pi where it is one), or the input itself
    # where that returns None.
    if cli._polished_half(seq) is None:
        return seq
    half = first_half(seq)
    rel = [float(p) - float(half[0]) for p in half[1:]]
    frac = cli._pi_fraction(float(seq.target_phi))
    phi = float(seq.target_phi) if frac is None else frac
    return precise.structured_train(precise.polish_structured(rel, phi)[0], phi)


def test_spec_parse_inline():
    seq = spec_parse("phi=0.5;phases=0,0.75,1.25,0.5")
    assert float(seq.target_phi) == pytest.approx(math.pi / 2)
    assert [float(p) / math.pi for p in seq.phases] == pytest.approx(
        [0.0, 0.75, 1.25, 0.5]
    )
    assert len(seq) // 2 - 1 == 1


@pytest.mark.parametrize(
    "text",
    [
        "phi=0.5",
        "phases=0,0.5",
        "phi=0.5;phases=0,0.5;extra=1",
        "phi=x;phases=0,0.5",
        "phi=0.5;phases=0,0.5,1",  # odd count
        "nonsense",
    ],
)
def test_spec_parse_rejects_malformed_input(text):
    with pytest.raises(CliError):
        spec_parse(text)


@pytest.mark.parametrize(
    "spec, key",
    [
        ("phi=1;phi=0.5;phases=0,0.75", "phi"),
        ("phi=0.5;phases=0,0.75;phases=0,0.5", "phases"),
        ("phi=0.5; phases=0,0.75;phases =0,0.75", "phases"),
    ],
)
@pytest.mark.parametrize("command", ["range", "sweep", "verify"])
def test_repeated_spec_key_is_validation_error(command, spec, key, tmp_path, capsys):
    # The last value of a repeated key would otherwise win silently.
    args = [command, "--gate", spec]
    if command == "sweep":
        args += ["--out", str(tmp_path / "sweep.csv")]
    assert run(args) == EXIT_VALIDATION
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and f"repeated key {key!r}" in err
    assert not (tmp_path / "sweep.csv").exists()


def test_list_covers_catalog(capsys):
    assert run(["list"]) == 0
    out = capsys.readouterr().out
    assert out.count("\n") == 27
    assert "Z2 " in out and "T18" in out


@pytest.mark.parametrize("name", catalog.names())
def test_show_round_trips_through_spec_parse(name, capsys):
    # The spec line is a --gate value: its angle a float as build prints
    # it (phi=0.5, not phi=1/2), and verify reads the same order, slope
    # and peak from it as from the name.
    assert run(["show", name]) == 0
    out = capsys.readouterr().out
    spec_line = next(l for l in out.splitlines() if l.startswith("spec: "))
    spec = spec_line.removeprefix("spec: ")
    entry = catalog.get(name)
    assert spec.startswith(f"phi={float(entry.phi_over_pi):.17g};phases=")
    seq = spec_parse(spec)
    ref = catalog.to_sequence(entry)
    assert seq.target_phi == float(ref.target_phi)
    # Each phase is p / pi printed to 17 digits, times pi: within an ulp.
    assert [float(p) for p in seq.phases] == pytest.approx(
        [float(p) for p in ref.phases], rel=0, abs=1e-14
    )
    assert run(["verify", "--json", "--gate", spec]) == 0
    by_spec = capsys.readouterr().out
    assert run(["verify", "--json", "--gate", name]) == 0
    assert by_spec == capsys.readouterr().out


def test_unknown_gate_is_validation_error(capsys):
    assert run(["show", "Q7"]) == EXIT_VALIDATION
    assert run(["range", "--gate", "Q7"]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "unknown" in err


def test_range_output_format(capsys):
    # Five decimals from epsilon0 = 0.01 up; below, four significant
    # digits, and the interval with as many decimals.
    assert run(["range", "--gate", "Z4"]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "epsilon0 = 0.006366, interval [0.993634pi, 1.006366pi]"
    assert run(["range", "--gate", "Z8", "--threshold", "1e-2"]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "epsilon0 = 0.20483, interval [0.79517pi, 1.20483pi]"
    assert run(["range", "--gate", "Z2", "--threshold", "1e-8"]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "epsilon0 = 0.000000006366, interval [0.999999993634pi, 1.000000006366pi]"
    # Below 1.1e-16 the doubles 1 -/+ epsilon0 read 1; the interval takes
    # epsilon0's own digits.
    assert run(["range", "--gate", "Z2", "--threshold", "1e-20"]) == 0
    out = capsys.readouterr().out.strip()
    assert out == ("epsilon0 = 0.000000000000000000006366, interval "
                   "[0.999999999999999999993634pi, 1.000000000000000000006366pi]")


def test_range_prints_four_significant_digits_of_epsilon0(monkeypatch, capsys):
    # The corpus's range records and the 27 names at small thresholds: the
    # printed epsilon0 shows at least four significant digits and is the
    # returned double to within half a unit of its last digit; the interval
    # takes the same decimals, and a line with epsilon0 >= 0.01 keeps the
    # five decimals it always had.  The shape is the one benchmark oracles
    # parse, with no space inside a number.
    found = []
    measure = analysis.high_fidelity_range
    monkeypatch.setattr(analysis, "high_fidelity_range",
                        lambda *args: found.append(measure(*args)) or found[-1])
    corpus = json.loads(make_corpus.CORPUS.read_text())["range"]
    assert len(corpus) == 155
    argvs = [["range", "--gate", r["gate"], "--threshold", r["threshold"]] for r in corpus]
    argvs += [["range", "--gate", entry.name, "--threshold", threshold]
              for entry in catalog.entries() for threshold in ("1e-4", "1e-6", "1e-8")]
    line = re.compile(r"epsilon0 = (\S+), interval \[(\S+)pi, (\S+)pi\]")
    printed, small = 0, 0
    for argv in argvs:
        found.clear()
        code = run(argv)
        out = capsys.readouterr().out.strip()
        if code:
            continue
        printed += 1
        [rng] = found
        match = line.fullmatch(out.removesuffix("  (non-monotonic profile; scanned)"))
        assert match, out
        eps0, lower, upper = match.groups()
        places = len(eps0.partition(".")[2])
        assert len(eps0.replace(".", "").lstrip("0")) >= 4, out
        assert abs(Fraction(eps0) - Fraction(rng.epsilon0)) <= Fraction(1, 2 * 10**places)
        # The interval is 1 -/+ epsilon0 exactly, rounded half to even.
        exact = (1 - Fraction(rng.epsilon0), 1 + Fraction(rng.epsilon0))
        assert [Fraction(v) for v in (lower, upper)] == [round(e, places) for e in exact]
        assert [len(v.partition(".")[2]) for v in (lower, upper)] == [places, places]
        if rng.epsilon0 >= 0.01:
            assert places == 5
        else:
            small += 1
    assert printed == sum(r["code"] == 0 for r in corpus) + 27 * 3
    assert small


def test_cached_parser_survives_validation_errors(capsys):
    assert run(["range", "--gate", "Q7"]) == EXIT_VALIDATION
    assert run(["range", "--threshold", "0.1"]) == EXIT_VALIDATION  # no --gate
    capsys.readouterr()
    assert run(["range", "--gate", "Z4"]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "epsilon0 = 0.006366, interval [0.993634pi, 1.006366pi]"


@pytest.mark.parametrize(
    "spec, threshold",
    [
        ("phi=1.46;phases=0.0,0.56,0.27,0.83", "0.2"),
        ("phi=0.96;phases=0.0,1.93,0.52,0.45", "0.01"),
        # A rounded 14-pulse row with its last phase moved by 1e-6 rad,
        # off the structure: its infidelity is 7.1e-7 at eps = 0.
        pytest.param("phi=0.5;phases=0,0,0,0,0.9961,0.9684,0.8855,0.75,0.75,0.75,0.75,"
                     "1.7461,1.7184,1.6355003183098862", "1e-8", id="moved-row-1e-8"),
    ],
)
def test_range_of_a_train_missing_its_gate_is_numerical_error(spec, threshold, capsys):
    # The infidelity at zero error already reaches the threshold, so no
    # error range exists.
    assert run(["range", "--gate", spec, "--threshold", threshold]) == EXIT_NUMERICAL
    out, err = capsys.readouterr()
    assert out == ""
    assert "eps = 0" in err


def test_range_notes_a_non_monotonic_profile(capsys):
    spec = "phi=1.67;phases=0.0,0.49,0.65,0.165,0.655,0.815"
    assert run(["range", "--gate", spec, "--threshold", "0.2"]) == 0
    assert capsys.readouterr().out.strip() == (
        "epsilon0 = 0.08972, interval [0.91028pi, 1.08972pi]"
        "  (non-monotonic profile; scanned)"
    )


def test_verify_catalog_entry(capsys):
    assert run(["verify", "--gate", "T12"]) == 0
    assert capsys.readouterr().out.strip() == "order = 5"


def test_verify_pasted_table_row(capsys):
    # A 4-decimal 10-pulse row must still measure as fourth order.
    spec = (
        "phi=1;phases=0,1.0992,1.0992,1.8315,0.0203,"
        "0.5,1.5992,1.5992,0.3315,0.5203"
    )
    assert run(["verify", "--gate", spec]) == 0
    assert capsys.readouterr().out.strip() == "order = 4"


_S10 = (
    "0,0.8225606328124041,0.82256551733751782,1.9152390433822561,"
    "0.44160567403125545,0.75,1.5725606328124042,1.5725655173375179,"
    "2.6652390433822566,1.1916056740312555"
)
# Inline specs that verify polishes or measures as given: rounded 12- and
# 14-pulse rows (one with its last free phase moved by 2 in both halves,
# polished above 2 pi), the pi/2 14-pulse row, the smallest half (order
# 0), and two trains that are not two halves (the second S10 twice).
_VERIFY_SPECS = [
    "phi=0.5;phases=0,0,0,1.0477,1.5126,0.3399,0.75,0.75,0.75,1.7977,2.2626,1.0899",
    "phi=0.3333333333333333;phases=0,0,0,0,0.9974,0.979,0.924,0.8333,0.8333,"
    "0.8333,0.8333,1.8307,1.8123,1.7573",
    "phi=1;phases=0,0,0,0,0.992,0.935,0.7638,0.5,0.5,0.5,0.5,1.492,1.435,1.2638",
    "phi=0.5;phases=0,0,0,0,0.9961,0.9684,2.8855,0.75,0.75,0.75,0.75,1.7461,"
    "1.7184,3.6355",
    "phi=0.5;phases=0,0,0,0,0.9961,0.9684,0.8855,0.75,0.75,0.75,0.75,1.7461,"
    "1.7184,1.6355",
    "phi=1;phases=0,0.3,0.3,0.3,0.3,0.5",
    "phi=0.5;phases=0,0.75",
    f"phi=1;phases={_S10},{_S10}",
]


@pytest.mark.parametrize(
    "gate", ["T12", "Z18", "phi=1;phases=0,1.75,0.5,0.25", *_VERIFY_SPECS]
)
def test_verify_json_reports_the_fit(gate, capsys):
    # For a catalog name or a polished inline spec verify fits the half
    # the polish handed on; that fit is slope_fit's of the whole train,
    # bit for bit.  The line is strict JSON with an integer order.
    assert run(["verify", "--gate", gate]) == 0
    plain = capsys.readouterr().out
    assert run(["verify", "--gate", gate, "--json"]) == 0
    report = _strict_json(capsys.readouterr().out)
    assert set(report) == {"order", "slope", "peak"}
    assert type(report["order"]) is int
    assert plain == f"order = {report['order']}\n"
    seq, entry = cli._resolve_gate(gate)
    inline = entry is None
    assert inline == ("=" in gate)
    if inline:
        seq = _measured_train(seq)
    slope, peak = precise.slope_fit(seq)
    assert report["slope"] == slope and report["peak"] == peak
    assert report["order"] == round(slope) - 1


def test_verify_json_exits_3_on_an_unmeasurable_train(tmp_path, capsys):
    # Two pi pulses of opposite phase cancel at every error: the train is
    # the identity, the phi = 0 gate, with no infidelity left to fit.
    path = tmp_path / "identity.json"
    path.write_text(json.dumps(
        [{"name": "identity", "phi_over_pi": "0", "order": 0,
          "phases_over_pi": ["0", "1"]}]
    ))
    assert run(["verify", "--gate", str(path), "--json"]) == EXIT_NUMERICAL
    out = capsys.readouterr()
    assert out.out == ""
    assert "measurable range" in out.err


def test_sweep_csv_is_byte_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["sweep", "--gate", "S4", "--steps", "101"]
    assert run(args + ["--out", str(a)]) == 0
    assert run(args + ["--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
    lines = a.read_text().splitlines()
    assert lines[0] == "epsilon,frobenius_fidelity,trace_fidelity"
    assert len(lines) == 102


def _moved_name_spec(name, rad):
    # The name's train as a 17-digit inline spec, its last phase moved by
    # ``rad``: off the two-half structure for rad above its round-off.
    entry = catalog.get(name)
    phases = [float(p) / math.pi for p in catalog.to_sequence(entry).phases]
    phases[-1] += rad / math.pi
    return f"phi={float(entry.phi_over_pi):.17g};phases=" + ",".join(
        format(p, ".17g") for p in phases)


# The names read their half polynomial; a 6-pulse spec that is not two
# halves, Z8 with its last phase moved by 1e-6 rad and a seeded two-half
# train whose half of 11 pulses is longer than a sweep reads through t
# are composed as given.
_SWEEP_GATES = {
    **{name: name for name in catalog.names()},
    "not-two-halves": "phi=1;phases=0,0.3,0.3,0.3,0.3,0.5",
    "Z8-moved": _moved_name_spec("Z8", 1e-6),
    "long-half": make_corpus.long_half_spec(),
}


@pytest.mark.parametrize(
    "grid",
    [
        ["--steps", "101"],
        ["--eps-min", "-0.4", "--eps-max", "0.4", "--steps", "5"],
        ["--eps-min", "1e-9", "--eps-max", "2e-9", "--steps", "101"],
        # |eps| >= 1, the point inside the digits.
        ["--eps-min", "-12.5", "--eps-max", "12.5", "--steps", "11"],
    ],
    ids=["default-range", "exact-zero", "tiny", "wide"],
)
@pytest.mark.parametrize("gate", list(_SWEEP_GATES.values()), ids=list(_SWEEP_GATES))
def test_sweep_stdout_is_the_csv_file(gate, grid, tmp_path, capsys):
    path = tmp_path / "sweep.csv"
    args = ["sweep", "--gate", gate, *grid]
    assert run(args + ["--out", str(path)]) == 0
    capsys.readouterr()
    assert run(args) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.encode() == path.read_bytes()


@pytest.mark.parametrize(
    "grid", [["--eps-min", "0.4", "--eps-max", "-0.4"],
             # Finite bounds whose span overflows: once nan rows with exit 0.
             ["--eps-min=-1e308", "--eps-max=1e308", "--steps", "3"]],
)
def test_sweep_rejects_bad_grid(grid, capsys):
    assert run(["sweep", "--gate", "Z2", *grid]) == EXIT_VALIDATION
    assert capsys.readouterr().out == ""


def test_build_four_pulse(capsys):
    assert run(["build", "--phi", "0.5", "--pulses", "4", "--variant", "2"]) == 0
    out = capsys.readouterr().out
    assert "spec: phi=0.5;phases=" in out


@pytest.mark.parametrize("pulses", ["2", "10", "12", "14"])
def test_build_rejects_a_variant_for_a_length_without_variants(pulses, capsys):
    args = ["build", "--phi", "0.5", "--pulses", pulses]
    assert run(args + ["--variant", "2"]) == EXIT_VALIDATION
    out = capsys.readouterr()
    assert out.out == ""
    assert "--variant must be 1" in out.err
    assert run(args + ["--variant", "1"]) == 0


def test_build_compact_row(capsys):
    assert run(["build", "--phi", "1", "--pulses", "12"]) == 0
    out = capsys.readouterr().out
    assert "spec: phi=1;phases=" in out
    spec_line = next(l for l in out.splitlines() if l.startswith("spec: "))
    assert len(spec_parse(spec_line.removeprefix("spec: "))) // 2 - 1 == 5


@pytest.mark.parametrize("pulses", ["10", "12", "14"])
@pytest.mark.parametrize("phi", ["0.2501", "0.3", "0.3333"])
def test_build_rejects_an_angle_without_a_table_row(pulses, phi, capsys):
    # Near-miss angles once printed the nearest row's phases under the
    # requested angle, a spec that misses its gate at eps = 0.
    assert run(["build", "--phi", phi, "--pulses", pulses]) == EXIT_VALIDATION
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: ")


@pytest.mark.parametrize("pulses", ["10", "12", "14"])
@pytest.mark.parametrize(
    "phi", [format(float(row.phi_over_pi), ".17g") for row in catalog.arbitrary_rows()]
)
def test_build_spec_round_trips(phi, pulses, capsys):
    # The printed spec is the row itself: its range is not flagged, and its
    # printed angle builds the same row.
    assert run(["build", "--phi", phi, "--pulses", pulses]) == 0
    out = capsys.readouterr().out
    spec = out.splitlines()[-1].removeprefix("spec: ")
    printed_phi = spec.split(";")[0].removeprefix("phi=")
    assert run(["range", "--gate", spec]) == 0
    assert "non-monotonic" not in capsys.readouterr().out
    assert run(["build", "--phi", printed_phi, "--pulses", pulses]) == 0
    assert capsys.readouterr().out == out


@pytest.mark.parametrize("phi", ["0.0625", "0.25", "0.3333333333333333", "0.9375"])
def test_build_accepts_every_tabulated_angle(phi, capsys):
    assert run(["build", "--phi", phi, "--pulses", "10"]) == 0
    spec_line = capsys.readouterr().out.splitlines()[-1]
    assert run(["range", "--gate", spec_line.removeprefix("spec: ")]) == 0
    capsys.readouterr()


@pytest.mark.parametrize(
    "args",
    [
        ["build", "--phi", "1e308", "--pulses", "4"],
        ["build", "--phi", "1e308", "--pulses", "12"],
        ["solve", "--order", "2", "--phi", "1e308", "--seeds", "2"],
        ["solve", "--order", "4", "--phi", "1e308"],
        # 5e307 pi is finite, but a four-pulse phase of it is not.
        ["build", "--phi", "5e307", "--pulses", "4"],
    ],
)
def test_an_angle_that_overflows_is_rejected(args, capsys):
    # 1e308 is finite, but 1e308 pi is not: once -inf phases with exit 0,
    # or an OverflowError traceback.
    assert run(args) == EXIT_VALIDATION
    out = capsys.readouterr()
    assert out.out == ""
    assert "overflows" in out.err


def test_solve_writes_loadable_catalog(tmp_path, capsys):
    out_path = tmp_path / "sol.json"
    assert run(
        ["solve", "--order", "1", "--phi", "1", "--seeds", "8",
         "--out", str(out_path)]
    ) == 0
    capsys.readouterr()
    entries = catalog.load_catalog(out_path)
    assert entries
    assert all(e.source == "solver" for e in entries)
    assert any(
        abs(float(e.phases_over_pi[1]) - 1.75) < 1e-6 for e in entries
    )


def test_solve_records_the_requested_angle(tmp_path, capsys):
    # 0.123456 is not within 1e-12 of any p/q with q <= 64 (the nearest,
    # 7/57, is 0.5 % off), so it is recorded as itself.
    out_path = tmp_path / "f.json"
    assert run(["solve", "--order", "2", "--phi", "0.123456", "--seeds", "8",
                "--out", str(out_path)]) == 0
    capsys.readouterr()
    entries = catalog.load_catalog(out_path)
    assert entries
    for entry in entries:
        assert float(entry.phi_over_pi) == 0.123456
        seq = catalog.to_sequence(entry)
        assert float(seq.target_phi) == pytest.approx(0.123456 * math.pi, abs=1e-15)


def test_solve_snaps_a_float_close_to_a_small_fraction(capsys):
    assert run(["solve", "--order", "1", "--phi", "0.6666666666666666",
                "--seeds", "4"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data and all(d["phi_over_pi"] == "2/3" for d in data)


def test_solve_stdout_is_json(capsys):
    assert run(["solve", "--order", "1", "--phi", "1", "--seeds", "4"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert isinstance(data, list) and data


def _strict_json(text):
    # RFC 8259 has no NaN or Infinity; json.loads accepts them unless told.
    def reject(name):
        raise ValueError(f"invalid JSON constant {name}")

    return json.loads(text, parse_constant=reject)


def test_solve_stdout_is_strict_json(capsys):
    # A solved class has no quoted range: it is written as null, not NaN.
    assert run(["solve", "--order", "2", "--phi", "1", "--seeds", "4"]) == 0
    data = _strict_json(capsys.readouterr().out)
    assert data and all(d["quoted_range_over_pi"] is None for d in data)


def test_solve_stdout_is_the_bytes_of_its_out_file(tmp_path, capsys):
    # One encoder writes both: the file is what stdout prints.
    args = ["solve", "--order", "2", "--phi", "0.5", "--seeds", "4"]
    assert run(args) == 0
    printed = capsys.readouterr().out.encode()
    path = tmp_path / "sol.json"
    assert run(args + ["--out", str(path)]) == 0
    capsys.readouterr()
    assert path.read_bytes() == printed


def test_solve_out_file_is_strict_json_and_still_loads(tmp_path, capsys):
    path = tmp_path / "sol.json"
    assert run(["solve", "--order", "2", "--phi", "1", "--seeds", "4",
                "--out", str(path)]) == 0
    capsys.readouterr()
    data = _strict_json(path.read_text(encoding="utf-8"))
    assert data and all(d["quoted_range_over_pi"] is None for d in data)
    # load_catalog reads the null range back as unknown.
    entries = catalog.load_catalog(path)
    assert len(entries) == len(data)
    assert all(math.isnan(v) for e in entries for v in e.quoted_range_over_pi)
    for one in _entry_files(path):
        assert run(["verify", "--gate", str(one)]) == 0
        assert capsys.readouterr().out.strip() == "order = 2"


def _entry_files(path):
    # One catalog file per entry of the catalog file ``path``, beside it.
    files = []
    for k, entry in enumerate(catalog.load_catalog(path)):
        files.append(path.with_name(f"{path.stem}-{k}.json"))
        catalog.save_catalog([entry], files[-1])
    return files


@pytest.mark.parametrize("command", ["verify", "range", "sweep"])
def test_a_catalog_file_of_several_entries_is_refused(command, tmp_path, capsys):
    # A gate is one train: a file of several entries exits 2 and names
    # them, rather than reading one of them.
    path = tmp_path / "solve.json"
    assert run(["solve", "--order", "3", "--phi", "0.5", "--seeds", "16",
                "--out", str(path)]) == 0
    capsys.readouterr()
    names = [e.name for e in catalog.load_catalog(path)]
    assert len(names) > 1
    assert run([command, "--gate", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"error: catalog file {str(path)!r} holds {len(names)} entries, "
                   f"not one: {', '.join(names)}\n")


def test_tables_subcommand(capsys):
    assert run(["tables", "--which", "Z"]) == 0
    out = capsys.readouterr().out
    assert "Z18" in out
    assert run(["tables", "--which", "IV"]) == 0
    out = capsys.readouterr().out
    assert "15/16" in out and "0.7638" in out


def test_catalog_file_as_gate(tmp_path, capsys):
    path = tmp_path / "cat.json"
    catalog.save_catalog([catalog.get("S6")], path)
    assert run(["verify", "--gate", str(path)]) == 0
    assert capsys.readouterr().out.strip() == "order = 2"


def test_catalog_file_with_an_equals_sign_in_its_path(tmp_path, capsys):
    # An entry of the file solve --out writes is a gate, even where the
    # path of its file holds an '=' that an inline spec would hold too.
    solved = tmp_path / "run.json"
    assert run(["solve", "--order", "2", "--phi", "0.5", "--seeds", "8",
                "--out", str(solved)]) == 0
    capsys.readouterr()
    path = tmp_path / "run-phi=0.5.json"
    catalog.save_catalog(catalog.load_catalog(solved)[:1], path)
    seq, entry = cli._resolve_gate(str(path))
    assert entry is not None and catalog.half_polynomial(entry) is not None
    assert run(["verify", "--json", "--gate", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["order"] == 2
    assert run(["range", "--gate", str(path)]) == 0
    assert capsys.readouterr().out.startswith("epsilon0 = ")
    assert run(["sweep", "--gate", str(path), "--steps", "5"]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert len(rows) == 6
    assert analysis.csv_bytes(analysis.sweep(seq, -0.4, 0.4, 5)).decode(
        "ascii"
    ).splitlines() == rows


@pytest.mark.parametrize("order", [2, 3, 4, 5])
def test_a_solve_file_keeps_its_chart_zeros(order, tmp_path, capsys):
    # solve writes the chart zeros as the decimals "0.0000000000"; the
    # polish holds them, so the train stays in the chart it was solved in.
    path = tmp_path / "solve.json"
    assert run(["solve", "--order", str(order), "--phi", "0.5", "--seeds", "16",
                "--rng-seed", "1", "--out", str(path)]) == 0
    capsys.readouterr()
    for entry in catalog.load_catalog(path):
        zeros = solver.pinned_zero_count(order)
        assert entry.phase_strings[1 : zeros + 1] == ("0.0000000000",) * zeros
        assert catalog.to_sequence(entry).phases[: zeros + 1] == (0,) * (zeros + 1)
    for one in _entry_files(path):
        assert run(["verify", "--json", "--gate", str(one)]) == 0
        assert json.loads(capsys.readouterr().out)["order"] == order


# The 14 table angles and 8 others, the ends of (0, 2) included, in units
# of pi: the angles of the closed-form check below.
_CLOSED_ANGLES = [float(row.phi_over_pi) for row in catalog.arbitrary_rows()] + [
    1e-6, 0.003, 0.37, 0.8125, 1.2345, 1.61, 1.997, 2 - 1e-6,
]


def _entries_file(entries):
    # The bytes of a file of ``entries``, from the standard library's
    # indented encoder, not from catalog's own writer.
    return json.dumps([catalog.entry_to_dict(e) for e in entries], indent=2) + "\n"


def _newton_file(n, phi_over_pi):
    # The bytes solve --out wrote from solver.solve at its default seeds and
    # rng-seed 0: its classes as catalog entries, phases mod 2 pi.
    phi = phi_over_pi * math.pi
    frac = cli._pi_fraction(phi)
    if frac is None:
        frac = Fraction(repr(phi_over_pi))
    sols = solver.solve(solver.SolverConfig(n=n, phi=phi))
    entries = [
        catalog.solution_to_entry(
            structured_sequence(sol.phases, phi).phases, frac, n, f"solve-n{n}-{i}"
        )
        for i, sol in enumerate(sols)
    ]
    return _entries_file(entries), entries


def _exact_strings(rel, phi):
    # The 10-decimal phase strings (units of pi, mod 2) of the train of the
    # 50-digit root that precise's polish reaches from the relative phases
    # ``rel``, each the correct rounding of its phase.
    polished, _ = precise.polish_structured(rel, phi)
    with mpmath.workprec(256):
        return [
            f"{int(mpmath.nint(mpmath.mpf(p) / mpmath.pi % 2 * 10**10)) / 10**10:.10f}"
            for p in structured_train(polished, phi).phases
        ]


def _rounds_alike(newton, closed, rel, phi):
    # Whether Newton's entry holds the strings of the closed form's, but
    # where the closed form's is the 50-digit root's rounding and Newton's
    # one unit off in the 10th decimal: a root near a tie of its rounding,
    # or one that met the residual tolerance of 1e-12 no closer than that.
    pairs = list(zip(newton.phase_strings, closed.phase_strings))
    if all(a == b for a, b in pairs):
        return True
    if any(abs(float(a) - float(b)) > 1.5e-10 for a, b in pairs):
        return False
    exact = _exact_strings(rel, phi)
    return all(a == b or b == e for (a, b), e in zip(pairs, exact))


def _rounded_as_closed(entries, closed, roots, phi):
    # Newton's file and entries with each entry's strings those of the one
    # closed-form class it rounds alike with (see _rounds_alike).
    fixed = []
    for entry in entries:
        [match] = [c for c, rel in zip(closed, roots) if _rounds_alike(entry, c, rel, phi)]
        record = catalog.entry_to_dict(entry)
        record["phases_over_pi"] = list(match.phase_strings)
        fixed.append(catalog.entry_from_dict(record))
    return _entries_file(fixed), fixed


def test_solve_up_to_order_4_is_the_closed_form_newton_finds(tmp_path, capsys):
    # Up to order 4, solve writes every class from its formula.  Where
    # Newton finds every class, the file is the one its classes make; where
    # it misses one, the closed form holds the classes it found.  At order
    # 4 alone a Newton string one unit off the 50-digit root's rounding in
    # the 10th decimal counts as the closed form's: at 0.003 pi one class of
    # Newton's lies 1e-11 pi from its root, and at 1e-6 pi one phase is
    # 0.99999996875 pi to some 1e-20, a tie.
    path = tmp_path / "solve.json"
    complete = 0
    for phi_over_pi in _CLOSED_ANGLES:
        phi = phi_over_pi * math.pi
        for n in (1, 2, 3, 4):
            args = ["solve", "--order", str(n), "--phi", repr(phi_over_pi)]
            assert run([*args, "--out", str(path)]) == 0
            written = path.read_text(encoding="utf-8")
            # Restarts are Newton's: they change nothing here.
            assert run([*args, "--seeds", "1", "--rng-seed", "7", "--out", str(path)]) == 0
            assert path.read_text(encoding="utf-8") == written
            newton, entries = _newton_file(n, phi_over_pi)
            closed = catalog.load_catalog(path)
            roots = sequences.chart_roots(n, phi)
            if n == 4 and written != newton:
                newton, entries = _rounded_as_closed(entries, closed, roots, phi)
            if len(entries) == len(closed):
                assert written == newton, (n, phi_over_pi)
                complete += 1
            else:
                assert {e.phase_strings for e in entries} < {
                    e.phase_strings for e in closed}, (n, phi_over_pi)
            assert len(roots) == len(closed) == (2 if n < 3 else 4)
            for rel in roots:
                assert np.max(np.abs(solver.residual(rel, phi))) < 1e-12
            if n == 3:
                # The mirror pair: the two classes of y = x - phi/4 + pi.
                (_, xc, yc), (_, xd, yd) = [
                    (z, x, y) for z, x, y in roots
                    if abs(math.remainder(y - x + phi / 4, 2 * math.pi)) > 1
                ]
                assert abs(math.remainder(xc + xd + phi / 4, 2 * math.pi)) < 1e-12
                assert abs(math.remainder(yc + yd + 3 * phi / 4, 2 * math.pi)) < 1e-12
            if n == 4:
                # C = 3S/8 and A + B = -9S/8 (see solver), with S = sin(phi/4),
                # A = sin(phi/4 + x), B = sin(phi/4 + y), C = sin(phi/4 + y - x).
                for _, _, x, y in roots:
                    s, a, b, c = (math.sin(phi / 4 + p) for p in (0.0, x, y, y - x))
                    assert abs(c - 3 * s / 8) < 1e-14, (phi_over_pi, x, y)
                    assert abs(a + b + 9 * s / 8) < 1e-14, (phi_over_pi, x, y)
    capsys.readouterr()
    assert complete >= 4 * 14


def _verified_orders(n, phi_over_pi, capsys, roots=None):
    # The order verify --json reports for each closed-form class of order n
    # (or each of ``roots``), given as the 17-digit inline spec of its train.
    phi = phi_over_pi * math.pi
    orders = []
    for rel in sequences.chart_roots(n, phi) if roots is None else roots:
        seq = structured_sequence(rel, phi)
        spec = f"phi={phi_over_pi!r};phases=" + ",".join(map(cli._fmt_phase, seq.phases))
        assert run(["verify", "--json", "--gate", spec]) == 0
        orders.append(json.loads(capsys.readouterr().out)["order"])
    return orders


def _order_4_branch(phi_over_pi, second):
    # The two order-4 classes with y - x = a - phi/4, or with
    # y - x = pi - a - phi/4 if ``second``, where a = asin(3 sin(phi/4) / 8).
    phi = phi_over_pi * math.pi
    d = math.asin(3 * math.sin(phi / 4) / 8) - phi / 4
    pair = [rel for rel in sequences.chart_roots(4, phi)
            if (abs(math.remainder(rel[3] - rel[2] - d, 2 * math.pi)) > 1) == second]
    assert len(pair) == 2
    return pair


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_every_closed_form_class_verifies_at_its_order(n, capsys):
    for phi_over_pi in _CLOSED_ANGLES:
        if n < 3 or phi_over_pi != 1e-6:
            assert set(_verified_orders(n, phi_over_pi, capsys)) == {n}, phi_over_pi
        elif n == 4:
            # The pair the polish takes near phi = 0; the other pair and
            # order 3 there: see the next two tests.
            pair = _order_4_branch(phi_over_pi, second=False)
            assert _verified_orders(4, phi_over_pi, capsys, pair) == [4, 4]


@pytest.mark.xfail(strict=True, reason=(
    "near phi = 0 the mirror pair's Jacobian is too ill-conditioned for the "
    "polish, which fails, and verify measures the 17-digit input: order 2"))
def test_the_mirror_pair_near_phi_0_verifies_at_order_3(capsys):
    # The roots form a one-parameter family at phi = 0; at 1e-6 pi the
    # polish refuses the two classes y = x - phi/4 + pi.
    assert _verified_orders(3, 1e-6, capsys) == [3] * 4


@pytest.mark.xfail(strict=True, reason=(
    "near phi = 0 the Jacobian of the pair y - x = pi - a - phi/4 is too "
    "ill-conditioned for the polish, which fails, and verify measures the "
    "17-digit input: order 0"))
def test_the_order_4_pair_near_phi_0_verifies_at_order_4(capsys):
    # At phi = 0 the branch y - x = pi holds a one-parameter family (there
    # A + B = 0 for every x); at 1e-6 pi the polish refuses both of its
    # classes.
    pair = _order_4_branch(1e-6, second=True)
    assert _verified_orders(4, 1e-6, capsys, pair) == [4, 4]


@pytest.mark.parametrize("phi_over_pi", [
    "0", "3e-12", "-3e-12", "4", "4.000000000001", "3.999999999999", "8", "-4", "1e6",
])
def test_solve_at_order_4_holds_its_four_classes_where_sin_phi_4_vanishes(
    phi_over_pi, capsys
):
    # At phi = 0 mod 4 pi the ratio -9S / (16 cos(d/2)) of one branch is
    # 0/0: the closed form evaluates it without cancellation near there,
    # takes its limit -9/11 at phi = 0, and reduces phi/4 mod 2 pi without
    # losing digits at 1e6 pi.
    assert run(["solve", "--order", "4", "--phi", phi_over_pi]) == 0
    out, err = capsys.readouterr()
    assert (len(json.loads(out)), err) == (4, "")
    phi = float(phi_over_pi) * math.pi
    for rel in sequences.chart_roots(4, phi):
        assert np.max(np.abs(solver.residual(rel, phi))) < 1e-12, rel


def test_chart_roots_at_order_4_hold_at_the_largest_angles():
    # 1e308 pi overflows on the command line (exit 2, see
    # test_an_angle_that_overflows_is_rejected); in radians it is finite.
    for phi in (1e308, -1e308, sys.float_info.max):
        roots = sequences.chart_roots(4, phi)
        assert len(roots) == 4
        for rel in roots:
            assert np.max(np.abs(solver.residual(rel, phi))) < 1e-12, (phi, rel)


@pytest.mark.parametrize("n, path", [
    (1, "closed"), (2, "closed"), (3, "closed"), (4, "closed"), (5, "newton"),
])
def test_solve_logs_its_path_at_debug(n, path, caplog, monkeypatch, capsys):
    # One DEBUG record under cpgate.solver says which path solve took and
    # how many classes it wrote; the closed form runs no solver.solve.
    if path == "closed":
        monkeypatch.setattr(solver, "solve", None)
    with caplog.at_level(logging.DEBUG, logger="cpgate.solver"):
        assert run(["solve", "--order", str(n), "--phi", "0.5", "--seeds", "8"]) == 0
    written = len(json.loads(capsys.readouterr().out))
    [record] = caplog.records
    fields = dict(re.findall(r"(\w+)=(\w+)", record.getMessage()))
    assert (record.name, fields["path"], int(fields["classes"])) == (
        "cpgate.solver", path, written)


def test_a_zero_after_a_nonzero_relative_phase_is_polished(capsys):
    # The zero after 0.3 in the half is no leading zero: the polish moves it,
    # and the train measures the order of the root it came from.
    spec = ("phi=0.5;phases=0.0000,0.3000,0.0000,0.9739,1.1844,"
            "0.7500,1.0500,0.7500,1.7239,1.9344")
    seq = spec_parse(spec)
    assert cli._polished_half(seq) is not None
    assert _measured_train(seq).phases[2] != 0
    assert run(["verify", "--json", "--gate", spec]) == 0
    assert json.loads(capsys.readouterr().out)["order"] == 4


def test_an_inline_spec_never_reaches_the_file_system(monkeypatch, capsys):
    # A gate that parses as a spec is the spec: no file is looked up.
    catalog.names()  # the packaged catalog, read once per process

    def refuse(*args, **kwargs):
        raise AssertionError("the file system was consulted")

    monkeypatch.setattr(os.path, "exists", refuse)
    monkeypatch.setattr(builtins, "open", refuse)
    spec = "phi=0.5;phases=0,0.75"
    for args in (["verify", "--json"], ["range"], ["sweep", "--steps", "5"]):
        assert run([*args, "--gate", spec]) == 0
    assert capsys.readouterr().err == ""


def test_a_file_named_like_a_spec_is_read_as_the_spec(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    spec = "phi=0.5;phases=0,0.75"
    catalog.save_catalog([catalog.get("Z18")], tmp_path / spec)
    assert run(["verify", "--json", "--gate", spec]) == 0
    assert json.loads(capsys.readouterr().out)["order"] == 0


@pytest.mark.parametrize("gate", ["missing=1.json", "missing.json"])
def test_an_unknown_gate_names_all_three_readings(gate, tmp_path, capsys):
    # Neither a catalog name, nor a file, nor a spec: one message says all
    # three, with the spec's own error, whether or not the path holds '='.
    path = str(tmp_path / gate)
    assert run(["verify", "--gate", path]) == EXIT_VALIDATION
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: unknown gate {path!r}: not a catalog name, ")
    assert "no such file" in err and "not a spec: " in err
    if "=" in gate:
        assert "sequence spec needs exactly phi=<v>;phases=<p0,p1,...>" in err
    else:
        assert "malformed sequence spec segment" in err


@pytest.mark.parametrize("name", catalog.names())
def test_verify_json_of_a_name_is_that_of_its_catalog_file(name, tmp_path, capsys):
    # Through the name and through a file holding its record, verify
    # prints the same bytes: the slope and peak of slope_fit of the train.
    entry = catalog.get(name)
    path = tmp_path / f"{name}.json"
    catalog.save_catalog([entry], path)
    assert run(["verify", "--json", "--gate", name]) == 0
    by_name = capsys.readouterr()
    assert run(["verify", "--json", "--gate", str(path)]) == 0
    by_file = capsys.readouterr()
    assert by_file == by_name and by_name.err == ""
    report = _strict_json(by_name.out)
    assert type(report["order"]) is int
    slope, peak = precise.slope_fit(catalog.to_sequence(entry))
    assert report["slope"] == slope and report["peak"] == peak


def _s6_record(**changes):
    return {**catalog.entry_to_dict(catalog.get("S6")), **changes}


@pytest.mark.parametrize(
    "content",
    [
        {"foo": 1},
        [1, 2],
        "str",
        _s6_record(quoted_range_over_pi=5),
        _s6_record(order=1, phases_over_pi=["0", "1.75", "0.5"]),
        _s6_record(quoted_range_over_pi=[None, None]),
        _s6_record(order=-1, phases_over_pi=[]),
    ],
    ids=["no-required-keys", "list-of-numbers", "string", "scalar-range",
         "phase-count-off-order", "null-range", "negative-order"],
)
def test_malformed_catalog_file_is_validation_error(content, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(content))
    for command in ("verify", "range"):
        assert run([command, "--gate", str(path)]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "record",
    [
        {"phi_over_pi": "1e400", "phases_over_pi": ["0", "0", "0", "0"]},
        {"phi_over_pi": "1e400", "phases_over_pi": ["0", "0.5", "0", "0.5"]},
        {"phi_over_pi": "1", "phases_over_pi": ["0", "1e400", "0", "0"]},
        {"phi_over_pi": "1", "phases_over_pi": ["0", "0.5", "1e308", "0"]},
    ],
    ids=["angle", "angle-decimal-phase", "phase", "phase-times-pi"],
)
def test_catalog_file_angle_that_overflows_is_validation_error(record, tmp_path, capsys):
    # An angle or a phase whose multiple of pi is no finite double is
    # refused on loading, before any polish: no nan rows, no range or
    # order of a meaningless train, no OverflowError.
    path = tmp_path / "huge.json"
    path.write_text(json.dumps([{"name": "X", "order": 1, **record}]))
    for command in ("sweep", "range", "verify"):
        assert run([command, "--gate", str(path)]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: X: ")
        assert "finite" in captured.err


@pytest.mark.parametrize(
    "second, ok",
    [(["0.9", "0.1"], False), (["0.5", "0.25"], True), (["0.5001", "0.2499"], True)],
    ids=["other-train", "shifted-mod-2", "shifted-4-decimals"],
)
def test_catalog_file_second_half_must_be_the_shifted_first(second, ok, tmp_path, capsys):
    # Z4's first half at phi = pi, where the shift is pi/2.  A second half
    # that is not the first shifted is refused, not measured as Z4; one
    # within the tables' 4-decimal rounding, or written mod 2, is Z4.
    path = tmp_path / "x.json"
    path.write_text(json.dumps([{
        "name": "x", "phi_over_pi": "1", "order": 1,
        "phases_over_pi": ["0", "1.75", *second],
    }]))
    for command in ("sweep", "range", "verify"):
        rc = run([command, "--gate", str(path)])
        captured = capsys.readouterr()
        if ok:
            assert rc == 0
            continue
        assert rc == EXIT_VALIDATION
        assert captured.out == ""
        assert captured.err.startswith("error: x: the second half")
    if ok:
        assert run(["verify", "--json", "--gate", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["order"] == 1
    else:
        # The same phases inline miss the gate.
        spec = "phi=1;phases=0,1.75," + ",".join(second)
        assert run(["verify", "--json", "--gate", spec]) == EXIT_NUMERICAL


def test_bad_flags_are_validation_errors(capsys):
    assert run(["build", "--phi", "1", "--pulses", "5"]) == EXIT_VALIDATION
    assert run(["frobnicate"]) == EXIT_VALIDATION
    capsys.readouterr()


def test_unattainable_threshold_is_numerical_error(capsys):
    # A tiny gate angle caps the peak infidelity near sqrt(2)*sin(phi/4),
    # so a large threshold is never crossed and the range search must
    # report a numerical failure.
    rc = run(
        ["range", "--gate", "phi=0.01;phases=0,0.995", "--threshold", "0.49"]
    )
    assert rc == EXIT_NUMERICAL
    assert "below threshold" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["Z16", "Z18", "S16", "S18", "T16", "T18"])
def test_verify_high_order_named_gate(name, capsys):
    assert run(["verify", "--gate", name]) == 0
    assert capsys.readouterr().out.strip() == f"order = {catalog.get(name).order}"


def _inline_spec(phi_over_pi, seq):
    return f"phi={float(phi_over_pi):.17g};phases=" + ",".join(
        f"{float(p) / math.pi:.17g}" for p in seq.phases
    )


@pytest.mark.parametrize(
    "phi,pulses",
    [(phi, 12) for phi in ("1/4", "1/3", "11/12", "15/16")]
    + [(phi, 14) for phi in ("1/12", "1/6", "1/3", "1/2", "2/3", "3/4",
                             "5/6", "7/8", "11/12", "15/16")],
)
def test_verify_rounded_row(phi, pulses, capsys):
    # The printed 4-decimal row, pasted at 17 digits, must be polished at
    # the exact angle with its structural zeros pinned.
    seq = catalog.arbitrary_row(Fraction(phi), pulses, refine=False)
    assert run(["verify", "--gate", _inline_spec(Fraction(phi), seq)]) == 0
    assert capsys.readouterr().out.strip() == f"order = {len(seq) // 2 - 1}"


def test_catalog_file_entry_is_polished(tmp_path, capsys):
    # An entry outside the packaged catalog is polished like a named one.
    path = tmp_path / "user.json"
    entry = catalog.get("Z16").replace(name="myZ16", source="user")
    catalog.save_catalog([entry], path)
    assert run(["range", "--gate", str(path)]) == 0
    eps0 = float(capsys.readouterr().out.split()[2].rstrip(","))
    assert eps0 == pytest.approx(0.20483, abs=2e-5)
    assert run(["verify", "--gate", str(path)]) == 0
    assert capsys.readouterr().out.strip() == "order = 7"


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--order", "1", "--phi", "nan"],
        ["build", "--phi", "nan", "--pulses", "4"],
        ["range", "--gate", "phi=nan;phases=0,0.5"],
    ],
    ids=["solve", "build", "range"],
)
def test_non_finite_input_is_validation_error(argv, capsys):
    assert run(argv) == EXIT_VALIDATION
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("bound", ["--eps-min=-inf", "--eps-max=inf"])
def test_sweep_rejects_infinite_epsilon_bounds(bound, capsys):
    assert run(["sweep", "--gate", "Z4", bound]) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "finite" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--gate", "{dir}"],
        ["sweep", "--gate", "Z4", "--out", "{dir}/missing/x.csv"],
        ["solve", "--order", "2", "--phi", "1", "--seeds", "4",
         "--out", "{dir}/missing/x.json"],
    ],
    ids=["verify-directory", "sweep-missing-dir", "solve-missing-dir"],
)
def test_os_errors_are_validation_errors(argv, tmp_path, capsys):
    rc = run([a.format(dir=tmp_path) for a in argv])
    assert rc == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--gate", "Z4", "--steps", str(10**15)],
        ["solve", "--order", "5", "--phi", "0.5", "--seeds", str(10**15)],
    ],
    ids=["sweep-steps", "solve-seeds"],
)
def test_oversized_request_is_validation_error(argv, capsys):
    # numpy refuses the petabyte arrays before allocating anything.  (Up
    # to order 4 solve runs no restarts, so its --seeds goes unused.)
    assert run(argv) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("flags", [[], ["--json"]], ids=["plain", "json"])
@pytest.mark.parametrize(
    "spec",
    [
        # An uncompensated 6-pulse train misses the gate even at zero error.
        "phi=1;phases=0,0.3,0.7,0.1,0.2,0.9",
        # Two equal pulses, -I: the phases are too large for the shift
        # pi - phi/2 to register, so these are no two-half trains.
        "phi=1;phases=1e60,1e60",
        "phi=1;phases=1e300,1e300",
        # A huge first-half phase and a small partner: p + shift overflows
        # a double, so the check must reject the train before the pair.
        "phi=-5e307;phases=5e307,0",
    ],
)
def test_negative_measured_order_is_numerical_error(spec, flags, capsys):
    rc = run(["verify", "--gate", spec, *flags])
    assert rc == EXIT_NUMERICAL
    out, err = capsys.readouterr()
    assert out == ""
    assert "order -1" in err


@pytest.mark.parametrize(
    "phi,rng_seed",
    [("0.6666666666666666", "11"), ("0.8333333333333334", "333960721")],
)
def test_solve_does_not_give_up_when_fast_canonicalization_drops_roots(
    phi, rng_seed, tmp_path, capsys
):
    # Few restarts at n = 4.  Both probes once gave up with "canonicalization
    # failed for all roots"; solver.solve now runs in the canonical chart
    # and has no canonicalization step left to fail.  The command writes
    # the closed form, which holds every class Newton finds.
    path = tmp_path / "roots.json"
    argv = ["solve", "--order", "4", "--phi", phi, "--seeds", "16",
            "--rng-seed", rng_seed, "--out", str(path)]
    assert run(argv) == 0
    capsys.readouterr()
    sols = solver.solve(solver.SolverConfig(
        n=4, phi=float(phi) * math.pi, seeds=16, rng_seed=int(rng_seed)
    ))
    assert len(sols) >= 1
    assert all(s.residual_norm < 1e-9 for s in sols)
    closed = sequences.chart_roots(4, float(phi) * math.pi)
    assert len(catalog.load_catalog(path)) == len(closed) == 4
    for sol in sols:
        assert any(max(abs(math.remainder(p - q, 2 * math.pi))
                       for p, q in zip(sol.phases, root)) < 1e-9 for root in closed)


def test_verify_does_not_repolish_catalog_trains(tmp_path, monkeypatch, capsys):
    # The named trains and a file of S16 with its phase strings written to
    # one more digit, which the polish builds since no stored polish has
    # its key.
    path = tmp_path / "s16.json"
    catalog.save_catalog([make_polished.unstored(catalog.get("S16"))], path)
    [unstored] = catalog.load_catalog(path)
    for entry in (*map(catalog.get, catalog.names()), unstored):
        catalog.to_sequence(entry)  # warm the polish cache
    calls = []

    def counting(polish):
        def counted(*args, **kwargs):
            calls.append(args)
            return polish(*args, **kwargs)
        return counted

    for polish in ("polish_structured", "polish_t"):
        monkeypatch.setattr(precise, polish, counting(getattr(precise, polish)))
    assert run(["verify", "--gate", "Z18"]) == 0
    assert capsys.readouterr().out.strip() == "order = 8"
    assert calls == []
    for name in catalog.names():
        assert run(["verify", "--gate", name]) == 0
        want = catalog.get(name).pulse_count // 2 - 1
        assert capsys.readouterr().out.strip() == f"order = {want}"
    assert run(["verify", "--gate", str(path)]) == 0
    assert capsys.readouterr().out.strip() == "order = 7"
    assert calls == []


def test_polished_half_logs_a_failed_polish(caplog):
    # Every relative phase is an exact zero, so all are pinned and the
    # polish has nothing to move on a train that is not a root.
    seq = spec_parse("phi=1;phases=0,0,0,0.5,0.5,0.5")
    with caplog.at_level(logging.DEBUG, logger="cpgate.cli"):
        assert cli._polished_half(seq) is None
    [record] = caplog.records
    assert record.levelno == logging.DEBUG
    assert "polish failed" in record.getMessage()


def test_polished_half_logs_a_polish_that_drifted(caplog):
    # Structured, but far from any root: Newton lands on another one.
    seq = spec_parse("phi=1;phases=0,0.3,0.7,0.5,0.8,1.2")
    with caplog.at_level(logging.DEBUG, logger="cpgate.cli"):
        assert cli._polished_half(seq) is None
    [record] = caplog.records
    assert record.levelno == logging.DEBUG
    assert "moved a phase by" in record.getMessage()


@pytest.mark.parametrize(
    "moved, polished", [(0.0, True), (5e-4, True), (2e-3, False)]
)
def test_polished_half_logs_nothing_on_a_rounded_row(moved, polished, caplog):
    # A second-half phase moved by ``moved`` rad: within the 1e-3 tolerance
    # of the two-half check the row is still polished, beyond it the input
    # comes back as it is.
    seq = catalog.arbitrary_row(Fraction(1, 2), 8, refine=False)
    spec = "phi=0.5;phases=" + ",".join(f"{float(p) / math.pi:.4f}" for p in seq.phases)
    rounded = spec_parse(spec)
    phases = list(rounded.phases)
    phases[5] += moved
    rounded = rounded.replace(phases=tuple(phases))
    with caplog.at_level(logging.DEBUG, logger="cpgate.cli"):
        t = cli._polished_half(rounded)
    assert (t is not None) == polished
    assert caplog.records == []


@pytest.mark.parametrize("command", sorted(cli._COMMANDS))
@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_every_command_answers_help(command, flag, capsys):
    assert run([command, flag]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert cli._COMMANDS[command][1] in out
    for name in cli._COMMANDS[command][2]:
        assert name in out


def test_program_help_lists_the_commands(capsys):
    assert run(["--help"]) == 0
    out, err = capsys.readouterr()
    assert err == "" and out.startswith("usage: cpgate COMMAND")
    assert all(f"  {command} " in out for command in cli._COMMANDS)


def test_name_equals_value_parses_as_name_value():
    spaced = cli._parse(["sweep", "--gate", "Z4", "--steps", "5", "--out", "x=1.csv"])
    joined = cli._parse(["sweep", "--gate=Z4", "--steps=5", "--out=x=1.csv"])
    assert vars(spaced) == vars(joined)
    assert joined.out == "x=1.csv" and joined.steps == 5


def test_parsed_defaults_repeats_and_flags():
    args = cli._parse(["range", "--threshold", "0.1", "--gate", "Z4", "--threshold", "0.2"])
    assert (args.func, args.gate, args.threshold) == (cli._cmd_range, "Z4", 0.2)
    assert cli._parse(["verify", "--gate", "Z4"]).json is False
    assert cli._parse(["verify", "--json", "--gate", "Z4"]).json is True
    args = cli._parse(["solve", "--order", "2", "--phi", "0.5"])
    assert (args.seeds, args.rng_seed, args.out) == (32, 0, None)


@pytest.mark.parametrize("argv", [["--eps-min", "-0.4"], ["--eps-min=-0.4"]])
def test_a_negative_value_follows_its_option(argv):
    args = cli._parse(["sweep", "--gate", "Z4", *argv, "--eps-max", "-0.1"])
    assert (args.eps_min, args.eps_max) == (-0.4, -0.1)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["frobnicate"], "unknown command 'frobnicate'"),
        ([], "missing command"),
        (["range", "--gate", "Z4", "--bogus", "1"], "unknown option --bogus"),
        # An abbreviation is an unknown option, not --threshold.
        (["range", "--thr", "0.1", "--gate", "Z4"], "unknown option --thr"),
        (["range", "--gate"], "argument --gate: expected a value"),
        (["range", "--threshold", "0.1"], "argument --gate is required"),
        (["verify", "--gate", "Z4", "--json=1"], "argument --json: takes no value"),
        (["sweep", "--gate", "Z4", "--steps", "abc"], "argument --steps: "),
        (["tables", "--which", "Q"], "argument --which: invalid choice 'Q'"),
        (["build", "--phi", "1", "--pulses", "5"], "argument --pulses: invalid choice"),
        (["show"], "argument name is required"),
        (["show", "Z4", "Z8"], "unexpected argument 'Z8'"),
    ],
)
def test_argument_errors_print_one_error_line(argv, message, capsys):
    assert run(argv) == EXIT_VALIDATION
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err
    assert "Traceback" not in err and "usage" not in err


def test_cli_imports_no_argparse():
    src = str(Path(cli.__file__).resolve().parents[1])
    code = "import sys, cpgate.cli; print('argparse' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src}, check=True,
    ).stdout
    assert out.strip() == "False"


_MAIN = """
import contextlib, io, json, os, sys
from cpgate import cli
sys.argv = ["cpgate", "sweep", "--gate", "Z2", "--steps", "2"]
with contextlib.redirect_stdout(io.StringIO()), contextlib.suppress(SystemExit):
    cli.main()
print(json.dumps(["numpy" in sys.modules, [os.environ.get(v) for v in cli._BLAS_THREADS]]))
"""


@pytest.mark.parametrize("preset", [None, "3"])
def test_main_runs_blas_on_one_thread_unless_the_environment_says(preset):
    # main sets each unset thread variable to 1 before the command loads
    # numpy; a value the user set wins.  cli.run sets nothing.
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k not in cli._BLAS_THREADS}
    env["PYTHONPATH"] = src
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    out = subprocess.run(
        [sys.executable, "-c", _MAIN], capture_output=True, text=True, env=env,
        timeout=120, check=True,
    ).stdout
    assert json.loads(out) == [True, [preset or "1", "1", "1"]]


@pytest.mark.parametrize("argv", [
    ["show", "Z18"],
    ["sweep", "--gate", "Z8", "--steps", "2000"],
])
def test_a_closed_stdout_exits_1_quietly(argv, tmp_path):
    # stdout is a pipe whose read end is closed before the command starts,
    # so its first write fails with EPIPE: the reader went away, which is
    # no invalid input (exit 2).  Nothing reaches stderr, not even from
    # the interpreter's flush at exit.
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "cpgate.cli", *argv], stdout=write,
            stderr=subprocess.PIPE, text=True, env=env, timeout=120,
        )
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (1, "")
    # An unwritable --out is still invalid input.
    out = tmp_path / "missing" / "sweep.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "cpgate.cli", "sweep", "--gate", "Z8", "--out", str(out)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == EXIT_VALIDATION
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


def _limit_denominator_fraction(phi):
    # cli._pi_fraction as it was: the closest fraction of q <= 64 to phi/pi,
    # if its multiple of pi is within 1e-12 of phi.
    frac = Fraction(phi / math.pi).limit_denominator(64)
    return frac if abs(float(frac) * math.pi - phi) < 1e-12 else None


def test_pi_fraction_is_the_closest_fraction_of_limit_denominator():
    angles = []
    for frac in {Fraction(p, q) for q in range(1, 65) for p in range(-4 * q, 4 * q + 1)}:
        phi = frac.numerator / frac.denominator * math.pi
        angles += [phi, math.nextafter(phi, math.inf), math.nextafter(phi, -math.inf)]
        # Just inside and just outside the 1e-12 of the check.
        angles += [phi + 0.9e-12, phi - 0.9e-12, phi + 1.1e-12, phi - 1.1e-12]
    rng = random.Random(50)
    angles += [rng.uniform(-20.0, 20.0) for _ in range(2000)]
    angles += [rng.uniform(-1e-9, 1e-9) for _ in range(100)]
    # Beyond ~1e11 the check no longer pins phi/pi to 1e-12, and p/q may
    # not be the closest fraction.
    angles += [rng.choice((-1, 1)) * 10 ** rng.uniform(9, 17) for _ in range(1000)]
    # Huge angles, up to where phi/pi times q overflows, and subnormals.
    angles += [2.0**32 * math.pi, 2.0**32 * math.pi * (1 + 2**-52), 1e11, 1e15 * math.pi,
               2.0**60, 1e300, 1e308, 1.7e308, -1.7e308, sys.float_info.max]
    angles += [5e-324, -5e-324, 2.2e-308, 1e-320, 0.0, -0.0]
    for phi in angles:
        got, want = cli._pi_fraction(phi), _limit_denominator_fraction(phi)
        assert got == want and type(got) is type(want), phi
    assert cli._pi_fraction(0.5 * math.pi) == Fraction(1, 2)
    assert cli._pi_fraction(-3 / 7 * math.pi) == Fraction(-3, 7)
