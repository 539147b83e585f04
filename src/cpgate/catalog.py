"""Machine-readable catalog of the composite phase-gate pulse trains.

Phases are recorded exactly as published, in units of pi: closed-form
values as exact fractions, numerically derived values as 4-decimal
strings.  The named Z/S/T gates live in the packaged JSON file
``data/catalog.json``, which ``names``, ``get`` and ``entries`` read; the
arbitrary-angle rows are embedded below.  Solver output is written in the
same JSON form with ``source="solver"``.

Four printed decimals limit a phase to ~1e-4 pi, which is far too coarse
for high-order derivative cancellation, so sequence construction polishes
decimal phases back onto the exact root by pinned Newton refinement (the
structural zeros and exact fractions never move).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from importlib import resources

import mpmath as mp

from . import precise
from .sequences import HalfSequenceSpec, structured_sequence
from .su2 import CompositeSequence

# phi (units pi) -> free phases per train length, as published.
_TABLE_ARBITRARY = {
    "1/16": {4: ["127/64"], 6: ["1.9766"], 8: ["1.9883", "1.9727"],
             10: ["0.9980", "0.9883"], 12: ["1.0316", "1.7227", "0.6755"],
             14: ["0.9995", "0.9960", "0.9857"]},
    "1/12": {4: ["95/48"], 6: ["1.9688"], 8: ["1.9844", "1.9635"],
             10: ["0.9974", "0.9844"], 12: ["1.0342", "1.6996", "0.6446"],
             14: ["0.9993", "0.9947", "0.9809"]},
    "1/8": {4: ["63/32"], 6: ["1.9531"], 8: ["1.9766", "1.9453"],
            10: ["0.9961", "0.9765"], 12: ["1.0379", "1.6646", "0.5955"],
            14: ["0.9990", "0.9922", "0.9716"]},
    "1/6": {4: ["47/24"], 6: ["1.9375"], 8: ["1.9688", "1.9271"],
            10: ["0.9948", "0.9687"], 12: ["1.0405", "1.6378", "0.5556"],
            14: ["0.9987", "0.9895", "0.9620"]},
    "1/4": {4: ["31/16"], 6: ["1.9064"], 8: ["1.9531", "1.8906"],
            10: ["0.9922", "0.9530"], 12: ["1.0439", "1.5966", "0.4901"],
            14: ["0.9980", "0.9843", "0.9431"]},
    "1/3": {4: ["23/12"], 6: ["1.8754"], 8: ["1.9375", "1.8542"],
            10: ["0.9895", "0.9371"], 12: ["1.0459", "1.5642", "0.4349"],
            14: ["0.9974", "0.9790", "0.9240"]},
    "1/2": {4: ["15/8"], 6: ["1.8137"], 8: ["1.9064", "1.7814"],
            10: ["0.9842", "0.9050"], 12: ["1.0477", "1.5126", "0.3399"],
            14: ["0.9961", "0.9684", "0.8855"]},
    "2/3": {4: ["11/6"], 6: ["1.7529"], 8: ["1.8754", "1.7087"],
            10: ["0.9787", "0.8721"], 12: ["1.0479", "1.4703", "0.2558"],
            14: ["0.9947", "0.9575", "0.8460"]},
    "3/4": {4: ["29/16"], 6: ["1.7229"], 8: ["1.8599", "1.6724"],
            10: ["0.9759", "0.8552"], 12: ["1.0475", "1.4512", "0.2162"],
            14: ["0.9941", "0.9520", "0.8259"]},
    "5/6": {4: ["43/24"], 6: ["1.6932"], 8: ["1.8444", "1.6361"],
            10: ["0.9731", "0.8381"], 12: ["1.0470", "1.4332", "0.1779"],
            14: ["0.9934", "0.9464", "0.8056"]},
    "7/8": {4: ["57/32"], 6: ["1.6785"], 8: ["1.8368", "1.6180"],
            10: ["0.9717", "0.8294"], 12: ["1.0467", "1.4245", "0.1591"],
            14: ["0.9930", "0.9436", "0.7953"]},
    "11/12": {4: ["85/48"], 6: ["1.6639"], 8: ["1.8291", "1.5999"],
              10: ["0.9702", "0.8206"], 12: ["1.0463", "1.4161", "0.1405"],
              14: ["0.9927", "0.9407", "0.7849"]},
    "15/16": {4: ["113/64"], 6: ["1.6566"], 8: ["1.8252", "1.5908"],
              10: ["0.9695", "0.8161"], 12: ["1.0462", "1.4119", "0.1314"],
              14: ["0.9925", "0.9393", "0.7797"]},
    "1": {4: ["7/4"], 6: ["1.6350"], 8: ["1.8137", "1.5637"],
          10: ["0.9673", "0.8027"], 12: ["1.0456", "1.4000", "0.1041"],
          14: ["0.9920", "0.9350", "0.7638"]},
}


class CatalogError(KeyError):
    # The message alone, without the quotes KeyError puts around it.
    __str__ = Exception.__str__


@dataclass(frozen=True)
class CatalogEntry:
    """One published pulse train: phases in units of pi, plus its quoted
    high-fidelity pulse-area interval."""

    name: str
    phi_over_pi: Fraction
    order: int
    phases_over_pi: tuple[Fraction, ...]
    phase_strings: tuple[str, ...]
    quoted_range_over_pi: tuple[float, float]
    source: str = "paper-table"

    @property
    def pulse_count(self) -> int:
        return len(self.phases_over_pi)

    @property
    def quoted_half_width(self) -> float:
        lo, hi = self.quoted_range_over_pi
        return (hi - lo) / 2


@dataclass(frozen=True)
class ArbitraryPhaseRow:
    """Free phases of the 4..14-pulse forms for one gate angle."""

    phi_over_pi: Fraction
    columns: dict

    def free_phases(self, pulses: int) -> tuple[Fraction, ...]:
        if pulses not in self.columns:
            raise CatalogError(f"no {pulses}-pulse column")
        return tuple(Fraction(s) for s in self.columns[pulses])


@lru_cache(maxsize=None)
def _packaged() -> dict[str, CatalogEntry]:
    text = resources.files("cpgate").joinpath("data/catalog.json").read_text()
    return {entry.name: entry for entry in _parse(text)}


def names() -> list[str]:
    return list(_packaged())


def entries() -> list[CatalogEntry]:
    return list(_packaged().values())


def get(name: str) -> CatalogEntry:
    """Look up a published train by name (Z2..Z18, S2..S18, T2..T18)."""
    try:
        return _packaged()[name]
    except KeyError:
        raise CatalogError(f"unknown catalog entry {name!r}") from None


def arbitrary_rows() -> list[ArbitraryPhaseRow]:
    return [
        ArbitraryPhaseRow(Fraction(k), dict(v)) for k, v in _TABLE_ARBITRARY.items()
    ]


def get_arbitrary_row(phi_over_pi) -> ArbitraryPhaseRow:
    key = Fraction(phi_over_pi)
    for k, v in _TABLE_ARBITRARY.items():
        if Fraction(k) == key:
            return ArbitraryPhaseRow(key, dict(v))
    raise CatalogError(f"no arbitrary-phase row for phi = {phi_over_pi} pi")


def _is_exact(s: str) -> bool:
    return "." not in s


def polished_sequence(rel_phases, phi: mp.mpf, pinned) -> CompositeSequence:
    """Two-half train from first-half relative phases (radians) Newton-
    polished onto the exact root at the mpf gate angle ``phi``.

    ``pinned`` marks the phases that must not move.  The polish and the
    train both use ``phi`` itself: polishing at a rounded angle leaves a
    residual near double precision that caps the measurable order.
    Raises SolverError if the polish fails.
    """
    with mp.workdps(precise.WORKING_DPS):
        rel = precise.polish_structured(rel_phases, phi, pinned=pinned)
        return structured_sequence(HalfSequenceSpec(tuple(rel), phi))


def _build_structured(rel_strings, phi_over_pi: Fraction, label: str,
                      refine: bool) -> CompositeSequence:
    """Construct the full train from first-half relative phases (units pi).

    Decimal phases are polished onto the exact root; "0" entries and exact
    fractions are pinned.  Phases come out as mpf values so downstream
    extended-precision checks see the actual root, while float consumers
    simply cast.
    """
    exact = [_is_exact(s) for s in rel_strings]
    fracs = [Fraction(s) for s in rel_strings]
    with mp.workdps(precise.WORKING_DPS):
        phi = mp.pi * phi_over_pi.numerator / phi_over_pi.denominator
        if refine and not all(exact):
            seq = polished_sequence([float(f) * math.pi for f in fracs], phi, exact)
        else:
            rel = tuple(mp.pi * f.numerator / f.denominator for f in fracs)
            seq = structured_sequence(HalfSequenceSpec(rel, phi))
    return replace(seq, label=label)


@lru_cache
def to_sequence(entry: CatalogEntry, refine: bool = True) -> CompositeSequence:
    """Pulse train of a catalog entry (see ``_build_structured`` for the
    refinement of printed decimals)."""
    first_half = entry.phase_strings[: entry.order + 1]
    if Fraction(first_half[0]) != 0:
        raise CatalogError(f"{entry.name}: first phase must be 0")
    return _build_structured(first_half[1:], entry.phi_over_pi, entry.name, refine)


_ROW_LEADING_ZEROS = {4: 0, 6: 1, 8: 1, 10: 2, 12: 2, 14: 3}


@lru_cache(maxsize=None)
def arbitrary_row(phi_over_pi, pulses: int, refine: bool = True) -> CompositeSequence:
    """Train for an arbitrary-angle table row and train length."""
    row = get_arbitrary_row(phi_over_pi)
    if pulses not in _ROW_LEADING_ZEROS:
        raise CatalogError(f"no {pulses}-pulse column")
    rel = ["0"] * _ROW_LEADING_ZEROS[pulses] + list(row.columns[pulses])
    label = f"phi={phi_over_pi}pi-{pulses}p"
    return _build_structured(rel, row.phi_over_pi, label, refine)


# --- JSON interchange -------------------------------------------------------

def entry_to_dict(entry: CatalogEntry) -> dict:
    """JSON record of one entry; an unknown (NaN) range is written as null,
    since NaN is not JSON."""
    rng = list(entry.quoted_range_over_pi)
    return {
        "name": entry.name,
        "phi_over_pi": str(entry.phi_over_pi),
        "order": entry.order,
        "phases_over_pi": list(entry.phase_strings),
        "quoted_range_over_pi": None if any(map(math.isnan, rng)) else rng,
        "source": entry.source,
    }


_REQUIRED_KEYS = ("name", "phi_over_pi", "order", "phases_over_pi")


def entry_from_dict(d: dict) -> CatalogEntry:
    """Entry of one JSON record; raises CatalogError if the record is not
    an object with the required keys, its phases are not a list of
    2(order + 1) values, or its optional range is not a pair."""
    if not isinstance(d, dict):
        raise CatalogError(f"catalog record is not an object: {d!r}")
    missing = [k for k in _REQUIRED_KEYS if k not in d]
    if missing:
        raise CatalogError(f"catalog record lacks {', '.join(missing)}")
    if not isinstance(d["phases_over_pi"], list):
        raise CatalogError(f"{d['name']}: phases_over_pi is not a list")
    rng = d.get("quoted_range_over_pi") or [math.nan, math.nan]
    if not isinstance(rng, list) or len(rng) != 2:
        raise CatalogError(f"{d['name']}: quoted_range_over_pi is not a pair")
    phases = [str(s) for s in d["phases_over_pi"]]
    try:
        entry = CatalogEntry(
            name=d["name"],
            phi_over_pi=Fraction(str(d["phi_over_pi"])),
            order=int(d["order"]),
            phases_over_pi=tuple(Fraction(s) for s in phases),
            phase_strings=tuple(phases),
            quoted_range_over_pi=(float(rng[0]), float(rng[1])),
            source=d.get("source", "paper-table"),
        )
    except (TypeError, ValueError) as exc:
        raise CatalogError(f"{d['name']}: malformed catalog record: {exc}") from exc
    if entry.order < 0 or entry.pulse_count != 2 * (entry.order + 1):
        raise CatalogError(
            f"{entry.name}: order {entry.order} needs 2(order + 1) phases, "
            f"not {entry.pulse_count}"
        )
    return entry


def save_catalog(entry_list, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump([entry_to_dict(e) for e in entry_list], fh, indent=2, allow_nan=False)
        fh.write("\n")


def _parse(text: str) -> list[CatalogEntry]:
    data = json.loads(text)
    if isinstance(data, dict):
        data = [data]
    if not isinstance(data, list):
        raise CatalogError("catalog JSON must be an object or a list of objects")
    return [entry_from_dict(d) for d in data]


def load_catalog(path) -> list[CatalogEntry]:
    """Load the entries of the catalog JSON file at ``path``."""
    with open(path, encoding="utf-8") as fh:
        return _parse(fh.read())


def solution_to_entry(phases, phi_over_pi, order: int, name: str) -> CatalogEntry:
    """Package solver output (radians) in catalog form, source="solver"."""
    strings = tuple(f"{p / math.pi:.10f}" for p in phases)
    return CatalogEntry(
        name=name,
        phi_over_pi=Fraction(phi_over_pi),
        order=order,
        phases_over_pi=tuple(Fraction(s) for s in strings),
        phase_strings=strings,
        quoted_range_over_pi=(math.nan, math.nan),
        source="solver",
    )
