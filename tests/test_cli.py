import json
import logging
import math
from dataclasses import replace
from fractions import Fraction

import pytest

from cpgate import analysis, catalog, cli, precise, solver
from cpgate.cli import (
    EXIT_NUMERICAL,
    EXIT_VALIDATION,
    CliError,
    run,
    spec_parse,
)


def test_spec_parse_inline():
    seq = spec_parse("phi=0.5;phases=0,0.75,1.25,0.5")
    assert float(seq.target_phi) == pytest.approx(math.pi / 2)
    assert [float(p) / math.pi for p in seq.phases] == pytest.approx(
        [0.0, 0.75, 1.25, 0.5]
    )
    assert seq.order == 1


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


def test_list_covers_catalog(capsys):
    assert run(["list"]) == 0
    out = capsys.readouterr().out
    assert out.count("\n") == 27
    assert "Z2 " in out and "T18" in out


def test_show_round_trips_through_spec_parse(capsys):
    assert run(["show", "Z6"]) == 0
    out = capsys.readouterr().out
    spec_line = next(l for l in out.splitlines() if l.startswith("spec: "))
    seq = spec_parse(spec_line.removeprefix("spec: "))
    ref = catalog.to_sequence(catalog.get("Z6"))
    assert [float(p) for p in seq.phases] == pytest.approx(
        [float(p) for p in ref.phases], abs=1e-9
    )


def test_unknown_gate_is_validation_error(capsys):
    assert run(["show", "Q7"]) == EXIT_VALIDATION
    assert run(["range", "--gate", "Q7"]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "unknown" in err


def test_range_output_format(capsys):
    assert run(["range", "--gate", "Z4"]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "epsilon0 = 0.00637, interval [0.99363pi, 1.00637pi]"


def test_cached_parser_survives_validation_errors(capsys):
    assert run(["range", "--gate", "Q7"]) == EXIT_VALIDATION
    assert run(["range", "--threshold", "0.1"]) == EXIT_VALIDATION  # no --gate
    capsys.readouterr()
    assert run(["range", "--gate", "Z4"]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "epsilon0 = 0.00637, interval [0.99363pi, 1.00637pi]"


@pytest.mark.parametrize(
    "spec, threshold",
    [
        ("phi=1.46;phases=0.0,0.56,0.27,0.83", "0.2"),
        ("phi=0.96;phases=0.0,1.93,0.52,0.45", "0.01"),
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


@pytest.mark.parametrize("gate", ["T12", "Z18", "phi=1;phases=0,1.75,0.5,0.25"])
def test_verify_json_reports_the_fit(gate, capsys):
    assert run(["verify", "--gate", gate]) == 0
    plain = capsys.readouterr().out
    assert run(["verify", "--gate", gate, "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert set(report) == {"order", "slope", "peak"}
    assert plain == f"order = {report['order']}\n"
    seq = cli._resolve_gate(gate)
    if "=" in gate:
        seq = cli._measurement_sequence(seq)
    slope, peak = analysis.order_slope(seq)
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


def test_sweep_rejects_bad_grid(capsys):
    assert run(
        ["sweep", "--gate", "Z2", "--eps-min", "0.4", "--eps-max", "-0.4"]
    ) == EXIT_VALIDATION
    capsys.readouterr()


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
    assert spec_parse(spec_line.removeprefix("spec: ")).order == 5


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
    assert run(["verify", "--gate", str(path)]) == 0
    assert capsys.readouterr().out.strip() == "order = 2"


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
    assert capsys.readouterr().out.strip() == f"order = {seq.order}"


def test_catalog_file_entry_is_polished(tmp_path, capsys):
    # An entry outside the packaged catalog is polished like a named one.
    path = tmp_path / "user.json"
    entry = replace(catalog.get("Z16"), name="myZ16", source="user")
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
        ["solve", "--order", "2", "--phi", "0.5", "--seeds", str(10**15)],
    ],
    ids=["sweep-steps", "solve-seeds"],
)
def test_oversized_request_is_validation_error(argv, capsys):
    # numpy refuses the petabyte arrays before allocating anything.
    assert run(argv) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err


def test_negative_measured_order_is_numerical_error(capsys):
    # An uncompensated 6-pulse train misses the gate even at zero error.
    rc = run(["verify", "--gate", "phi=1;phases=0,0.3,0.7,0.1,0.2,0.9"])
    assert rc == EXIT_NUMERICAL
    assert "order -1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "phi,rng_seed",
    [("0.6666666666666666", "11"), ("0.8333333333333334", "333960721")],
)
def test_solve_does_not_give_up_when_fast_canonicalization_drops_roots(
    phi, rng_seed, tmp_path, capsys
):
    # Few restarts at n = 4.  Both probes once gave up with "canonicalization
    # failed for all roots"; solve now runs in the canonical chart and has
    # no canonicalization step left to fail.
    path = tmp_path / "roots.json"
    argv = ["solve", "--order", "4", "--phi", phi, "--seeds", "16",
            "--rng-seed", rng_seed, "--out", str(path)]
    assert run(argv) == 0
    capsys.readouterr()
    sols = solver.solve(solver.SolverConfig(
        n=4, phi=float(phi) * math.pi, seeds=16, rng_seed=int(rng_seed)
    ))
    assert len(catalog.load_catalog(path)) == len(sols) >= 1
    assert all(s.residual_norm < 1e-9 for s in sols)


def test_verify_does_not_repolish_catalog_trains(monkeypatch, capsys):
    for name in catalog.names():
        catalog.to_sequence(catalog.get(name))  # warm the polish cache
    calls = []
    polish = precise.polish_structured

    def counting(*args, **kwargs):
        calls.append(args)
        return polish(*args, **kwargs)

    monkeypatch.setattr(precise, "polish_structured", counting)
    assert run(["verify", "--gate", "Z18"]) == 0
    assert capsys.readouterr().out.strip() == "order = 8"
    assert calls == []
    for name in catalog.names():
        assert run(["verify", "--gate", name]) == 0
        want = catalog.get(name).pulse_count // 2 - 1
        assert capsys.readouterr().out.strip() == f"order = {want}"
    assert calls == []


def test_measurement_sequence_logs_a_failed_polish(caplog):
    # Every relative phase is an exact zero, so all are pinned and the
    # polish has nothing to move on a train that is not a root.
    seq = spec_parse("phi=1;phases=0,0,0,0.5,0.5,0.5")
    with caplog.at_level(logging.DEBUG, logger="cpgate.cli"):
        assert cli._measurement_sequence(seq) is seq
    [record] = caplog.records
    assert record.levelno == logging.DEBUG
    assert "polish failed" in record.getMessage()


def test_measurement_sequence_logs_a_polish_that_drifted(caplog):
    # Structured, but far from any root: Newton lands on another one.
    seq = spec_parse("phi=1;phases=0,0.3,0.7,0.5,0.8,1.2")
    with caplog.at_level(logging.DEBUG, logger="cpgate.cli"):
        assert cli._measurement_sequence(seq) is seq
    [record] = caplog.records
    assert record.levelno == logging.DEBUG
    assert "moved a phase by" in record.getMessage()


def test_measurement_sequence_logs_nothing_on_a_rounded_row(caplog):
    seq = catalog.arbitrary_row(Fraction(1, 2), 8, refine=False)
    spec = "phi=0.5;phases=" + ",".join(f"{float(p) / math.pi:.4f}" for p in seq.phases)
    rounded = spec_parse(spec)
    with caplog.at_level(logging.DEBUG, logger="cpgate.cli"):
        assert cli._measurement_sequence(rounded) is not rounded
    assert caplog.records == []
