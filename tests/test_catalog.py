import math
from fractions import Fraction

import pytest

from cpgate import catalog
from cpgate.catalog import (
    CatalogError,
    arbitrary_row,
    arbitrary_rows,
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
    assert seq.order == 4
    assert len(seq) == 10
    with pytest.raises(CatalogError, match="column"):
        arbitrary_row(Fraction(1, 2), 16)


def test_json_round_trip(tmp_path):
    path = tmp_path / "cat.json"
    save_catalog(entries(), path)
    loaded = load_catalog(path)
    assert loaded == entries()


def test_solution_to_entry_round_trips_through_json():
    entry = solution_to_entry(
        [0.0, 0.7, math.pi, 2.1], Fraction(1, 2), 1, "custom"
    )
    assert entry.source == "solver"
    assert entry.pulse_count == 4
    again = entry_from_dict(entry_to_dict(entry))
    assert again == entry
    seq = to_sequence(entry, refine=False)
    assert [float(p) for p in seq.phases[:2]] == pytest.approx(
        [0.0, 0.7], abs=1e-9
    )
