import json
import math
import re
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpgate import catalog, cli, precise, sequences, solver, su2
from cpgate.catalog import (
    CatalogEntry,
    CatalogError,
    arbitrary_row,
    arbitrary_rows,
    catalog_json,
    entries,
    entry_from_dict,
    entry_to_dict,
    get,
    get_arbitrary_row,
    load_catalog,
    names,
    save_catalog,
    solution_to_entry,
    to_sequence,
)
from cpgate.sequences import four_pulse, two_pulse

import make_polished

TWO_PI = 2 * math.pi


def test_names_cover_all_three_gate_families():
    got = names()
    assert len(got) == 27
    for family in "ZST":
        assert [n for n in got if n.startswith(family)] == [
            f"{family}{k}" for k in range(2, 20, 2)
        ]


def test_get_unknown_raises():
    with pytest.raises(CatalogError, match="unknown"):
        get("Z3")


def test_entry_invariants():
    for entry in entries():
        assert entry.pulse_count == 2 * (entry.order + 1)
        lo, hi = entry.quoted_range_over_pi
        assert lo + hi == pytest.approx(2.0, abs=1e-12)  # centered on pi
        assert entry.quoted_half_width == pytest.approx(1.0 - lo, abs=1e-12)
        assert len(entry.phases_over_pi) == len(entry.phase_strings)


def test_exact_phase_strings_are_fractions():
    entry = get("Z6")
    assert entry.phases_over_pi[3] == Fraction(1, 2)
    assert entry.phase_strings[2] == "1.6350"
    assert entry.phases_over_pi[2] == Fraction("1.6350")


@pytest.mark.parametrize("name", ["Z2", "S2", "T2", "Z8", "S10", "T12"])
def test_sequences_have_two_half_structure(name):
    entry = get(name)
    seq = to_sequence(entry)
    n = entry.order
    phases = [float(p) for p in seq.phases]
    shift = math.pi - float(seq.target_phi) / 2
    for k in range(n + 1):
        d = (phases[n + 1 + k] - phases[k] - shift) % TWO_PI
        assert min(d, TWO_PI - d) < 1e-12


def _circ_dist(x, y):
    d = (x - y) % TWO_PI
    return min(d, TWO_PI - d)


def test_refinement_stays_within_printed_rounding():
    for name in ("Z10", "S12", "T14"):
        entry = get(name)
        refined = [float(p) for p in to_sequence(entry).phases]
        printed = [float(f) * math.pi for f in entry.phases_over_pi]
        # Printed values carry ~5e-5 pi rounding; the polish may also
        # drift slightly along the root manifold, so allow a few times
        # the rounding radius.
        for r, p in zip(refined, printed):
            assert _circ_dist(r, p) < 3e-4 * math.pi


def test_leading_zeros_of_the_packaged_halves_are_held_exactly():
    # Every named train and table row: the printed leading zeros of its
    # half stay exactly 0 through the polish.
    trains = [(to_sequence(e), e.phase_strings[1 : e.order + 1]) for e in entries()]
    for row in arbitrary_rows():
        for pulses in (10, 12, 14):
            zeros = solver.pinned_zero_count(pulses // 2 - 1)
            trains.append((arbitrary_row(row.phi_over_pi, pulses), ("0",) * zeros))
    for seq, printed in trains:
        zeros = precise._leading_zeros([Fraction(p) for p in printed])
        assert seq.phases[: zeros + 1] == (0,) * (zeros + 1)


@pytest.mark.parametrize(
    "half", [["0", "1.2345", "1/2"], ["0", "0.3", "0"], ["0", "1/3", "0", "0.25"]]
)
def test_an_exact_phase_after_the_leading_zeros_of_a_decimal_half_is_rejected(half):
    # The polish moves every phase after the leading zeros, so a half that
    # mixes decimals with an exact phase there cannot keep it exact.
    shift = Fraction(1, 2)
    record = {"name": "X", "phi_over_pi": "1", "order": len(half) - 1,
              "phases_over_pi": half + [str(Fraction(p) + shift) for p in half]}
    entry = entry_from_dict(record)
    with pytest.raises(CatalogError, match="exact phase after the leading zeros"):
        to_sequence(entry)
    assert len(to_sequence(entry, refine=False)) == 2 * len(half)


@pytest.mark.parametrize(
    "field, text, message",
    [("order", "1e400", "order inf is not an integer"),
     ("order", "1.9", "order 1.9 is not an integer"),
     ("order", "true", "order True is not an integer"),
     ("order", '"1"', "order '1' is not an integer"),
     ("name", '["X"]', "name ['X'] is not a string"),
     ("name", "7", "name 7 is not a string"),
     ("source", '["a"]', "source ['a'] is not a string"),
     ("phi_over_pi", '"1/0"', "X: malformed catalog record: Fraction(1, 0)"),
     ("phases_over_pi", '["0", "1/0", "0", "1.75"]', "X: malformed catalog record")],
)
def test_a_record_with_a_malformed_order_name_or_source_is_rejected(field, text, message,
                                                                    tmp_path, capsys):
    # Read as JSON, 1e400 is infinite and int() of it overflows; int(1.9)
    # would drop the fraction, a list name or source is unhashable for the
    # train cache, and Fraction("1/0") raises ZeroDivisionError.  Each is
    # invalid input: exit 2 with one error line.
    fields = {"name": '"X"', "phi_over_pi": '"1"', "order": "1",
              "phases_over_pi": '["0", "1.75", "0", "1.75"]', field: text}
    path = tmp_path / "bad.json"
    path.write_text("[{" + ", ".join(f'"{k}": {v}' for k, v in fields.items()) + "}]")
    with pytest.raises(CatalogError, match=re.escape(message)):
        load_catalog(path)
    for command in ("sweep", "range", "verify"):
        assert cli.run([command, "--gate", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and message in err


def test_a_catalog_file_nested_too_deeply_is_rejected(tmp_path, capsys):
    # json.loads recurses once per level: 2000 levels of "[" pass
    # Python's recursion limit.  Invalid input all the same: exit 2 with
    # one error line.
    path = tmp_path / "deep.json"
    path.write_text("[" * 2000)
    with pytest.raises(CatalogError, match="nested too deeply"):
        load_catalog(path)
    for command in ("sweep", "range", "verify"):
        assert cli.run([command, "--gate", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1


def _record(**fields):
    return json.dumps([{"name": "X", "phi_over_pi": "1", "order": 1,
                        "phases_over_pi": ["0", "1.75", "0", "1.75"], **fields}])


@pytest.mark.parametrize(
    "content",
    ["[" * 900 + "]" * 900,
     _record(name=list(range(5000))),
     _record(order="1" * 5000),
     _record(name="N" * 5000, phases_over_pi=["0", "1.75", "0"]),
     _record(phases_over_pi=["0", "1.75", "0", "9" * 1000]),
     _record(phases_over_pi=["0", "1.75", "0", "x" * 5000]),
     "[" * 100000,
     _record(phi_over_pi="1/0"),
     _record(phases_over_pi=["0", "1/0", "0", "1.75"])],
    ids=["nested-900-deep", "long-list-name", "long-string-order", "long-name",
         "long-phase", "long-bad-phase", "nested-100000-deep", "zero-angle-denominator",
         "zero-phase-denominator"],
)
def test_a_rejected_record_of_any_size_leaves_one_short_error_line(content, tmp_path, capsys):
    # The message is cut to 160 characters, whatever of the record it
    # quotes: a list nested 900 deep, which json.loads still parses, once
    # printed 1.8 kB of brackets.  A file nested past json's recursion
    # and a zero denominator leave one line too.
    path = tmp_path / "big.json"
    path.write_text(content)
    for command in ("sweep", "range", "verify"):
        assert cli.run([command, "--gate", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
        assert len(err.encode()) < 200


@pytest.mark.parametrize("name", ["a\nb", "\x1b[31mX"], ids=["newline", "escape"])
@pytest.mark.parametrize(
    "fields, message",
    [({"order": 1.5}, "order 1.5 is not an integer"),
     ({"phases_over_pi": ["0", "1.75", "0.9", "0.1"]},
      "the second half is not the first shifted by pi - phi/2"),
     ({"order": 2, "phases_over_pi": ["0", "0.25", "1", "0.5", "0.75", "1.5"]},
      "an exact phase after the leading zeros of a half with decimal phases "
      "would be polished")],
    ids=["record", "halves", "polish"],
)
def test_a_name_that_is_not_printable_is_written_as_its_repr(
        name, fields, message, tmp_path, capsys):
    # Written raw, a newline in a record's name would split the one error
    # line in two, and an escape sequence would reach the terminal.
    path = tmp_path / "name.json"
    path.write_text(_record(name=name, **fields))
    for command in ("sweep", "range", "verify"):
        assert cli.run([command, "--gate", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: {name!r}: {message}\n"
    # A file of several entries lists their names in its error line.
    path.write_text(json.dumps(json.loads(_record(name=name)) + json.loads(_record())))
    assert cli.run(["range", "--gate", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.endswith(f": {name!r}, X\n") and err.count("\n") == 1


def test_an_integral_float_order_is_read_as_an_integer():
    record = entry_to_dict(get("Z4"))
    assert entry_from_dict({**record, "order": 1.0}) == entry_from_dict(record)


def test_refine_false_returns_literal_printed_values():
    entry = get("Z6")
    seq = to_sequence(entry, refine=False)
    printed = [float(f) * math.pi for f in entry.phases_over_pi]
    for got, want in zip(seq.phases, printed):
        assert _circ_dist(float(got), want) < 1e-12


def test_shortest_train_matches_analytic_builder():
    entry = get("Z2")
    seq = to_sequence(entry)
    ref = two_pulse(math.pi)
    assert [float(p) for p in seq.phases] == pytest.approx(
        [float(p) for p in ref.phases], abs=1e-15
    )


def test_four_pulse_entry_matches_analytic_builder_mod_2pi():
    seq = to_sequence(get("Z4"))
    ref = four_pulse(math.pi, 1)
    for a, b in zip(seq.phases, ref.phases):
        d = (float(a) - float(b)) % TWO_PI
        assert min(d, TWO_PI - d) < 1e-14


def test_arbitrary_rows_shape():
    rows = arbitrary_rows()
    assert len(rows) == 14
    for row in rows:
        for pulses, count in ((4, 1), (6, 1), (8, 2), (10, 2), (12, 3), (14, 3)):
            assert len(row.free_phases(pulses)) == count
    with pytest.raises(CatalogError, match="no arbitrary-phase row"):
        get_arbitrary_row(Fraction(1, 5))


def test_four_pulse_column_is_exact_rational():
    # The single 4-pulse free phase equals 2 - phi/4 exactly.
    for row in arbitrary_rows():
        (p1,) = row.free_phases(4)
        assert p1 == 2 - row.phi_over_pi / 4


def test_arbitrary_row_sequence():
    seq = arbitrary_row(Fraction(1, 2), 10)
    assert len(seq) // 2 - 1 == 4
    assert len(seq) == 10
    with pytest.raises(CatalogError, match="column"):
        arbitrary_row(Fraction(1, 2), 16)


def test_twelve_pulse_rows_keep_the_paper_constraint():
    # The paper's 12-pulse form ties its three free phases together,
    # p3 = p2 - p1 - phi/4 (mod 2 pi), and the polish keeps them on it.
    for row in arbitrary_rows():
        seq = arbitrary_row(row.phi_over_pi, 12)
        p1, p2, p3 = (float(p) for p in seq.phases[3:6])
        assert _circ_dist(p3, p2 - p1 - float(seq.target_phi) / 4) < 1e-9


def test_json_round_trip(tmp_path):
    path = tmp_path / "cat.json"
    save_catalog(entries(), path)
    loaded = load_catalog(path)
    assert loaded == entries()


def _dumps(entry_list):
    # The standard library's text of the records: what catalog_json must
    # write byte for byte.
    return json.dumps([entry_to_dict(e) for e in entry_list], indent=2, allow_nan=False)


def test_catalog_json_is_the_indented_json_of_the_records():
    named = entries()
    assert len(named) == 27
    assert catalog_json(named) == _dumps(named)
    for entry in named:
        assert catalog_json([entry]) == _dumps([entry])
    assert catalog_json([]) == _dumps([]) == "[]"
    # Any iterable of entries, as json.dumps of a list of its records.
    assert catalog_json(iter(named[:3])) == _dumps(named[:3])


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_solve_files_are_the_indented_json_of_their_entries(n, tmp_path, capsys):
    # At each table angle, the file solve writes is json's text of the
    # records solution_to_entry makes of its classes, and of the entries
    # read back from it; stdout holds the same text.
    path = tmp_path / "solve.json"
    for row in arbitrary_rows():
        phi_over_pi = float(row.phi_over_pi)
        phi = phi_over_pi * math.pi
        args = ["solve", "--order", str(n), "--phi", repr(phi_over_pi)]
        assert cli.run([*args, "--out", str(path)]) == 0
        capsys.readouterr()
        written = path.read_bytes().decode("ascii")
        assert cli.run(args) == 0
        assert capsys.readouterr().out == written
        built = [
            solution_to_entry(
                sequences.structured_sequence(rel, phi).phases, row.phi_over_pi, n,
                f"solve-n{n}-{i}",
            )
            for i, rel in enumerate(sequences.chart_roots(n, phi))
        ]
        assert written == _dumps(built) + "\n"
        assert written == _dumps(load_catalog(path)) + "\n"
        assert written == json.dumps(json.loads(written), indent=2) + "\n"


# Text with the characters json escapes (quotes, backslashes, control
# characters), non-ASCII text beyond the basic plane, and any other.
_TEXT = st.text(
    st.sampled_from('"\\/\x00\x08\x1f\x7f\n\t\u00e9\u2028\U0001f600a') | st.characters(),
    max_size=8,
)
_ENTRY = st.builds(
    CatalogEntry,
    name=_TEXT,
    phi_over_pi=st.fractions(),
    order=st.integers(-(2**70), 2**70),
    phases_over_pi=st.just(()),
    phase_strings=st.lists(_TEXT, max_size=4).map(tuple),
    quoted_range_over_pi=st.tuples(st.floats(), st.floats()),
    source=_TEXT,
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_ENTRY, max_size=3))
def test_catalog_json_is_json_on_any_record(entry_list):
    # A NaN in a range is written null; an infinity raises ValueError, as
    # json's does (so the CLI would exit 2).
    try:
        want = _dumps(entry_list)
    except ValueError:
        with pytest.raises(ValueError, match="not JSON compliant"):
            catalog_json(entry_list)
    else:
        assert catalog_json(entry_list) == want


def test_an_infinite_range_is_no_json():
    entry = get("Z4").replace(quoted_range_over_pi=(-0.1, math.inf))
    for write in (catalog_json, _dumps):
        with pytest.raises(ValueError, match="not JSON compliant: inf"):
            write([entry])
    nan = get("Z4").replace(quoted_range_over_pi=(-math.inf, math.nan))
    assert catalog_json([nan]) == _dumps([nan])
    assert entry_to_dict(nan)["quoted_range_over_pi"] is None


def test_solution_to_entry_round_trips_through_json():
    # A two-half train at phi = pi/2: the second half is the first shifted
    # by 3 pi / 4, the last phase written mod 2 pi as solve writes it.
    shift = 0.75 * math.pi
    entry = solution_to_entry(
        [0.0, 0.7, shift, (0.7 + shift) % (2 * math.pi)], Fraction(1, 2), 1, "custom"
    )
    assert entry.source == "solver"
    assert entry.pulse_count == 4
    again = entry_from_dict(entry_to_dict(entry))
    assert again == entry
    seq = to_sequence(entry, refine=False)
    assert [float(p) for p in seq.phases[:2]] == pytest.approx(
        [0.0, 0.7], abs=1e-9
    )
    # The same first half with a second half that is not its shift.
    other = solution_to_entry([0.0, 0.7, math.pi, 2.1], Fraction(1, 2), 1, "other")
    assert entry_from_dict(entry_to_dict(other)) == other
    with pytest.raises(CatalogError, match="second half"):
        to_sequence(other, refine=False)


def test_solution_to_entry_phases_are_the_fractions_of_their_strings():
    # Each phase is written mod 2 pi and read from the integer digits of
    # its 10-decimal string, and must equal Fraction(string) exactly: at 0,
    # at the largest string below 2, at a rounding up to "2.0000000000", at
    # a negative zero (0 mod 2 pi), at one unit of the last decimal, and at
    # a negative phase.
    phases = [0.0, 1.9999999999 * math.pi, math.nextafter(2 * math.pi, 0.0),
              -0.0, 1e-10 * math.pi, 0.7, 4.25, -1.5]
    entry = solution_to_entry(phases, Fraction(1, 2), 3, "digits")
    assert entry.phase_strings[:5] == (
        "0.0000000000", "1.9999999999", "2.0000000000", "0.0000000000", "0.0000000001"
    )
    assert entry.phase_strings[7] == f"{(2 * math.pi - 1.5) / math.pi:.10f}"
    assert entry.phases_over_pi == tuple(Fraction(s) for s in entry.phase_strings)
    assert all(type(p) is Fraction for p in entry.phases_over_pi)
    assert entry.phases_over_pi[1] == Fraction(19999999999, 10**10)


def test_a_polish_at_fraction_one_is_the_exact_pi_train():
    # Fraction(1) is the exact angle pi.  Polished and built on it, Z16 must
    # be the two-half train that the 50-digit mp.mpf(mp.pi) gives, slope 8
    # (order 7), not one whose second half is shifted by the double
    # nearest pi.
    entry = get("Z16")
    strings = entry.phase_strings[1 : entry.order + 1]
    rel = [float(Fraction(s)) * math.pi for s in strings]
    polished, _ = precise.polish_structured(rel, Fraction(1))
    got = precise.structured_train(polished, Fraction(1))
    with mp.workdps(precise.WORKING_DPS):
        polished, _ = precise.polish_structured(rel, mp.mpf(mp.pi))
        want = precise.structured_train(polished, mp.mpf(mp.pi))
    assert got.phases == want.phases and got.target_phi == want.target_phi
    slope, peak = precise.slope_fit(got)
    assert abs(slope - 8) < 1e-3
    assert su2.order_from_slope(slope, peak) == 7


@pytest.mark.parametrize("name", names())
def test_half_polynomial_is_the_half_of_the_train(name):
    # The t that verify fits.  Where no phase was polished it is composed
    # from the train's first half, bit for bit; else it is the polish's
    # last composition, at phases that the returned mpf values round to
    # the working precision, within the polish's 1e-45.
    entry = get(name)
    seq = to_sequence(entry)
    composed = precise.t_polynomial(seq.phases[: entry.order + 1], seq.target_phi)
    got = catalog.half_polynomial(entry)
    assert len(got) == len(composed) == (entry.order + 1) // 2 + 1
    diff = max(abs(x - y) for x, y in zip(got, composed))
    if all("." not in s for s in entry.phase_strings):
        assert diff == 0
    else:
        assert diff < math.ldexp(1e-45, precise.PREC)


def _stored():
    return json.loads(make_polished.POLISHED.read_text())


def test_the_stored_polishes_are_the_polishes_of_the_packaged_entries():
    # Each record is the polish recomputed from the printed phases of a
    # packaged half, integer for integer, in the store's format.
    stored = _stored()
    assert stored["prec"] == precise.PREC
    assert stored["polishes"] == make_polished.records()


def test_every_stored_key_is_the_polish_input_of_a_packaged_entry():
    # The 21 packaged halves with decimal phases, each once; a record whose
    # key no entry produces is an error, not a record that lies unused.
    keys = [(r["phi_over_pi"], tuple(r["rel_phases_over_pi"]))
            for r in _stored()["polishes"]]
    produced = [(str(phi), tuple(rel)) for phi, rel, _ in make_polished.polish_inputs()]
    assert len(keys) == len(set(keys)) == 21
    assert sorted(keys) == sorted(produced)
    assert sorted(catalog._stored_polishes()) == sorted(keys)


def _mpf_bits(seq):
    return [getattr(p, "_mpf_", p) for p in (*seq.phases, seq.target_phi)]


def _counting_polish(monkeypatch):
    calls, polish = [], precise.polish_structured

    def counting(*args):
        calls.append(args)
        return polish(*args)

    monkeypatch.setattr(precise, "polish_structured", counting)
    return calls


def test_a_file_entry_takes_the_stored_polish_by_its_inputs(tmp_path, monkeypatch):
    # Z10's angle and phases under another name: no polish runs, and the
    # train and t are Z10's, bit for bit.
    z10 = get("Z10")
    path = tmp_path / "mine.json"
    save_catalog([z10.replace(name="mine")], path)
    [entry] = load_catalog(path)
    calls = _counting_polish(monkeypatch)
    assert _mpf_bits(to_sequence(entry)) == _mpf_bits(to_sequence(z10))
    assert catalog.half_polynomial(entry) == catalog.half_polynomial(z10)
    assert calls == []


def test_a_file_entry_named_z10_with_other_phases_is_polished(tmp_path, monkeypatch):
    # The name selects nothing.  Z10's phase strings with a trailing zero
    # are a store miss whose polish has the stored one's inputs: the same
    # bits.  Its first free phase moved by 1e-4 in both halves is polished
    # onto another root of order 4.
    z10 = get("Z10")
    strings = list(z10.phase_strings)
    strings[1], strings[6] = "1.0993", "1.5993"
    moved = entry_from_dict({**entry_to_dict(z10), "phases_over_pi": strings})
    path = tmp_path / "z10.json"
    # No earlier build of an equal entry may serve these from the cache.
    catalog._entry_train.cache_clear()
    catalog.half_polynomial.cache_clear()
    calls = _counting_polish(monkeypatch)
    for other in (make_polished.unstored(z10), moved):
        save_catalog([other], path)
        [entry] = load_catalog(path)
        assert entry.name == "Z10" and entry.phase_strings != z10.phase_strings
        seq = to_sequence(entry)
        assert len(calls) == 1
        calls.clear()
        same = _mpf_bits(seq) == _mpf_bits(to_sequence(z10))
        assert same == (other is not moved)
        slope, peak = precise.half_slope_fit(catalog.half_polynomial(entry), len(seq))
        assert su2.order_from_slope(slope, peak) == 4
