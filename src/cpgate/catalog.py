"""Machine-readable catalog of the composite phase-gate pulse trains.

Phases are recorded exactly as published, in units of pi: closed-form
values as exact fractions, numerically derived values as 4-decimal
strings.  Both tables live in the packaged JSON file ``data/catalog.json``:
the named Z/S/T gates under ``named``, which ``names``, ``get`` and
``entries`` read, and the free phases of the arbitrary-angle rows per
train length under ``arbitrary_rows``, which ``arbitrary_rows`` and
``get_arbitrary_row`` read.  Solver output is written in the JSON form of
a named entry with ``source="solver"``, composed as text by
``solutions_json`` with no entry built.  One formatter (``_record_json``)
writes every record, byte for byte the text ``json.dumps(..., indent=2,
allow_nan=False)`` gives it.

Four printed decimals limit a phase to ~1e-4 pi, which is far too coarse
for high-order derivative cancellation, so sequence construction polishes
decimal phases back onto the exact root by Newton refinement.  The polish
holds the leading relative phases that are exactly 0, the structural
3pi/4pi blocks, and moves every later one.  So an exact phase never
moves: a half whose phases are all exact is not polished, and one with
decimal phases whose exact phases are not all leading zeros is rejected
with CatalogError.

The polishes of the packaged entries ship as data: ``data/polished.json``
holds the integers ``precise.polish_fixed`` ends on for each of them,
keyed by the polish's inputs, not by a name (``tests/make_polished.py``
writes it).  A half whose angle and phase strings are a record's key
takes that record, bit for bit the polish it stands for, and any other
half is polished.  So building the named trains runs no Newton step:
it rounds stored integers and exact phases to ``su2.Phase``s
(``su2.polish_result``, ``sequences.structured_train``) and loads neither
numpy, ``solver`` nor ``precise``.  ``precise`` is imported only where it
runs: the polish of a half that is not stored, and the t of an exact
entry (``half_polynomial``), which only ``verify`` asks for; its trig
runs on integers, so neither loads mpmath.  The data files are read
through ``su2._data``.  numpy and
``solver`` come in only where that polish runs ``solver._newton_batch``:
for a half that is not square, which no table row is (see ``precise``).
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from functools import lru_cache
from json.encoder import encode_basestring_ascii

from .sequences import _leading_zeros, first_half, pinned_zero_count, structured_train
from .su2 import CompositeSequence, Record, _data, polish_result

# The longest CatalogError message: a rejected record or value that it
# quotes, nested or sized at will, still leaves one short error line.
_MESSAGE_MAX = 160


class CatalogError(KeyError):
    # The message alone, without the quotes KeyError puts around it, cut
    # to _MESSAGE_MAX characters.
    __str__ = Exception.__str__

    def __init__(self, message: str):
        if len(message) > _MESSAGE_MAX:
            message = message[: _MESSAGE_MAX - 3] + "..."
        super().__init__(message)


def shown_name(name: str) -> str:
    """``name`` as a message writes it: as it is where it is printable,
    else its repr, so that a newline or a terminal escape in a record's
    name leaves one plain error line."""
    return name if name.isprintable() else repr(name)


class CatalogEntry(Record):
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


class ArbitraryPhaseRow(Record):
    """Free phases of the 4..14-pulse forms for one gate angle."""

    phi_over_pi: Fraction
    columns: dict

    def free_phases(self, pulses: int) -> tuple[Fraction, ...]:
        if pulses not in self.columns:
            raise CatalogError(f"no {pulses}-pulse column")
        return tuple(Fraction(s) for s in self.columns[pulses])


@lru_cache(maxsize=None)
def _stored_polishes() -> dict:
    """The packaged polishes (``data/polished.json``): the integers of
    ``precise.polish_fixed`` (phases, t), keyed by the polish's inputs,
    the angle's Fraction string and the half's relative phase strings."""
    return {
        (r["phi_over_pi"], tuple(r["rel_phases_over_pi"])):
            (tuple(r["phases"]), tuple(r["t"]))
        for r in json.loads(_data("polished.json"))["polishes"]
    }


@lru_cache(maxsize=None)
def _tables() -> dict:
    """The packaged ``data/catalog.json``: its ``named`` records and its
    ``arbitrary_rows``."""
    return json.loads(_data("catalog.json"))


@lru_cache(maxsize=None)
def _packaged() -> dict[str, CatalogEntry]:
    return {entry.name: entry for entry in map(entry_from_dict, _tables()["named"])}


@lru_cache(maxsize=None)
def _rows() -> dict:
    """The arbitrary-angle rows: the angle's Fraction -> {train length:
    free phase strings}, in the published order."""
    return {
        Fraction(row["phi_over_pi"]): {int(k): v for k, v in row["columns"].items()}
        for row in _tables()["arbitrary_rows"]
    }


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
    return [ArbitraryPhaseRow(phi, dict(columns)) for phi, columns in _rows().items()]


def get_arbitrary_row(phi_over_pi) -> ArbitraryPhaseRow:
    key = Fraction(phi_over_pi)
    if key not in _rows():
        raise CatalogError(f"no arbitrary-phase row for phi = {phi_over_pi} pi")
    return ArbitraryPhaseRow(key, dict(_rows()[key]))


def _is_exact(s: str) -> bool:
    return "." not in s


def _build_structured(rel_strings, phi_over_pi: Fraction, label: str, refine: bool):
    """Construct the full train from first-half relative phases (units pi).

    With ``refine``, a half with decimal phases is polished onto the exact
    root, its leading zeros held, or takes the stored polish of the same
    inputs (``_stored_polishes``); raises CatalogError if one of its exact
    phases is not a leading zero, since the polish would move it.  Exact
    angles reach ``sequences.structured_train`` as Fractions of pi, and
    the train's
    ``su2.Phase``s, exact at 169 bits, let downstream extended-precision
    checks see the actual root, while float consumers simply cast.
    Returns the train and the polish's t of its half, or None where
    nothing was polished.
    """
    exact = [_is_exact(s) for s in rel_strings]
    rel, t = [Fraction(s) for s in rel_strings], None
    if refine and not all(exact):
        rel = [float(f) * math.pi for f in rel]
        if any(exact[_leading_zeros(rel):]):
            raise CatalogError(
                f"{shown_name(label)}: an exact phase after the leading zeros of a half "
                "with decimal phases would be polished"
            )
        stored = _stored_polishes().get((str(phi_over_pi), tuple(rel_strings)))
        if stored is None:
            from . import precise

            rel, t = precise.polish_structured(rel, phi_over_pi)
        else:
            rel, t = polish_result(*stored)
    return structured_train(rel, phi_over_pi).replace(label=label), t


@lru_cache
def _entry_train(entry: CatalogEntry, refine: bool):
    """(train, t) of a catalog entry, built from its first half by
    ``_build_structured``; see ``to_sequence``."""
    train = CompositeSequence(
        tuple(float(p) * math.pi for p in entry.phases_over_pi),
        float(entry.phi_over_pi) * math.pi,
    )
    if first_half(train) is None:
        raise CatalogError(
            f"{shown_name(entry.name)}: the second half is not the first shifted by "
            "pi - phi/2"
        )
    half = entry.phase_strings[: entry.order + 1]
    if Fraction(half[0]) != 0:
        raise CatalogError(f"{shown_name(entry.name)}: first phase must be 0")
    return _build_structured(half[1:], entry.phi_over_pi, entry.name, refine)


def to_sequence(entry: CatalogEntry, refine: bool = True) -> CompositeSequence:
    """Pulse train of a catalog entry (see ``_build_structured`` for the
    refinement of printed decimals), built from its first half.

    Raises CatalogError unless the entry's second half is its first
    shifted by pi - phi/2 within 1e-3 rad modulo 2 pi, which admits the
    4-decimal rounding of the tables and the mod-2 phases ``solve``
    writes, or if its first phase is not 0.
    """
    return _entry_train(entry, refine)[0]


@lru_cache
def half_polynomial(entry: CatalogEntry):
    """The t of the half of ``to_sequence(entry)``, Im(e^{i phi/4} a_h) =
    s^p t(u) with p the parity of entry.order + 1, that
    ``precise.half_slope_fit`` fits: the polish's, or composed from
    the exact phases of a half that was not polished (on first use, so
    that building the train takes no trig for it).  Raises CatalogError
    as ``to_sequence`` does."""
    seq, t = _entry_train(entry, True)
    if t is None:
        from . import precise

        t = precise.t_polynomial(seq.phases[: entry.order + 1], seq.target_phi)
    return t


@lru_cache(maxsize=None)
def arbitrary_row(phi_over_pi, pulses: int, refine: bool = True) -> CompositeSequence:
    """Train for an arbitrary-angle table row and train length: the
    column's free phases after the zeros the solver's chart pins."""
    row = get_arbitrary_row(phi_over_pi)
    if pulses not in row.columns:
        raise CatalogError(f"no {pulses}-pulse column")
    zeros = pinned_zero_count(pulses // 2 - 1)
    rel = ["0"] * zeros + list(row.columns[pulses])
    label = f"phi={phi_over_pi}pi-{pulses}p"
    return _build_structured(rel, row.phi_over_pi, label, refine)[0]


# --- JSON interchange -------------------------------------------------------

# The keys of a JSON record, in the order it writes them.
_KEYS = ("name", "phi_over_pi", "order", "phases_over_pi", "quoted_range_over_pi", "source")
# The text json.dumps(indent=2) gives a record in the top-level list, with
# a field for each value.
_RECORD = "{{\n" + ",\n".join(f'    "{key}": {{}}' for key in _KEYS) + "\n  }}"


def _json_float(value: float) -> str:
    """A range bound as ``json.dumps(..., allow_nan=False)`` writes it: by
    its repr, and ValueError for a NaN or an infinity, as json raises it."""
    if math.isfinite(value):
        return repr(value)
    raise ValueError("Out of range float values are not JSON compliant: " + repr(value))


def _json_list(items, indent: int) -> str:
    """The text json.dumps(indent=2) gives a list of the JSON texts
    ``items`` that starts ``indent`` spaces in."""
    if not items:
        return "[]"
    inner = "\n" + " " * (indent + 2)
    return "[" + inner + ("," + inner).join(items) + "\n" + " " * indent + "]"


def _record_json(name, phi_over_pi, order, phase_strings, quoted_range, source) -> str:
    """The text of one record, fields in ``_KEYS`` order, as
    ``json.dumps(..., indent=2, allow_nan=False)`` writes it in a list:
    strings through json's own escaping, the order by its repr and
    ``quoted_range`` None as null."""
    return _RECORD.format(
        encode_basestring_ascii(name),
        encode_basestring_ascii(phi_over_pi),
        repr(order),
        _json_list(list(map(encode_basestring_ascii, phase_strings)), 4),
        "null" if quoted_range is None else _json_list(list(map(_json_float, quoted_range)), 4),
        encode_basestring_ascii(source),
    )


def _phase_text(phase) -> str:
    """How a solver phase (radians) is written: mod 2 pi, then in units
    of pi to 10 decimals."""
    return f"{phase % (2 * math.pi) / math.pi:.10f}"


def _entry_fields(entry: CatalogEntry) -> tuple:
    """The values of an entry's JSON record, in ``_KEYS`` order; an unknown
    (NaN) range is None, since NaN is not JSON."""
    rng = list(entry.quoted_range_over_pi)
    return (
        entry.name,
        str(entry.phi_over_pi),
        entry.order,
        list(entry.phase_strings),
        None if any(map(math.isnan, rng)) else rng,
        entry.source,
    )


def entry_to_dict(entry: CatalogEntry) -> dict:
    """JSON record of one entry; an unknown (NaN) range is written as null,
    since NaN is not JSON."""
    return dict(zip(_KEYS, _entry_fields(entry)))


_REQUIRED_KEYS = ("name", "phi_over_pi", "order", "phases_over_pi")


def entry_from_dict(d: dict) -> CatalogEntry:
    """Entry of one JSON record; raises CatalogError if the record is not
    an object with the required keys, its name or source is not a string,
    its order is not an integer, its phases are not a list of 2(order + 1)
    values, its angle or a phase is no number (a zero denominator
    included) or times pi not a finite double, or its optional range is
    not a pair."""
    if not isinstance(d, dict):
        raise CatalogError(f"catalog record is not an object: {d!r}")
    missing = [k for k in _REQUIRED_KEYS if k not in d]
    if missing:
        raise CatalogError(f"catalog record lacks {', '.join(missing)}")
    for key in ("name", "source"):
        # The entry is hashed (the train cache): a list here would not be.
        if not isinstance(d.get(key, ""), str):
            raise CatalogError(f"catalog record {key} {d[key]!r} is not a string")
    name = shown_name(d["name"])
    order = d["order"]
    if type(order) is float and order.is_integer():
        order = int(order)
    if type(order) is not int:
        raise CatalogError(f"{name}: order {d['order']!r} is not an integer")
    if not isinstance(d["phases_over_pi"], list):
        raise CatalogError(f"{name}: phases_over_pi is not a list")
    rng = d.get("quoted_range_over_pi") or [math.nan, math.nan]
    if not isinstance(rng, list) or len(rng) != 2:
        raise CatalogError(f"{name}: quoted_range_over_pi is not a pair")
    phases = [str(s) for s in d["phases_over_pi"]]
    try:
        entry = CatalogEntry(
            name=d["name"],
            phi_over_pi=Fraction(str(d["phi_over_pi"])),
            order=order,
            phases_over_pi=tuple(Fraction(s) for s in phases),
            phase_strings=tuple(phases),
            quoted_range_over_pi=(float(rng[0]), float(rng[1])),
            source=d.get("source", "paper-table"),
        )
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise CatalogError(f"{name}: malformed catalog record: {exc}") from exc
    if entry.order < 0 or entry.pulse_count != 2 * (entry.order + 1):
        raise CatalogError(
            f"{name}: order {entry.order} needs 2(order + 1) phases, "
            f"not {entry.pulse_count}"
        )
    texts = (str(d["phi_over_pi"]), *phases)
    for text, value in zip(texts, (entry.phi_over_pi, *entry.phases_over_pi)):
        if not _finite_radians(value):
            raise CatalogError(f"{name}: angle {text} pi is not a finite double")
    return entry


def _finite_radians(value: Fraction) -> bool:
    """Whether ``value`` pi, an angle in units of pi, is a finite double."""
    try:
        return math.isfinite(float(value) * math.pi)
    except OverflowError:
        # float() of a Fraction beyond the double range.
        return False


def catalog_json(entry_list) -> str:
    """The JSON text of ``entry_list``, one record per entry, with no final
    newline: byte for byte ``json.dumps([entry_to_dict(e) for e in
    entry_list], indent=2, allow_nan=False)``, written field by field
    (``_record_json``) without the indented encoder."""
    return _json_list([_record_json(*_entry_fields(e)) for e in entry_list], 0)


def solutions_json(trains, phi_over_pi, order: int) -> str:
    """The text ``catalog_json`` gives the entries ``solution_to_entry``
    makes of solver classes, named solve-n<order>-<i>: ``trains`` holds
    each class's full train (phases in radians), ``phi_over_pi`` the angle
    (its ``str`` is written).  It builds neither the entries nor a
    Fraction."""
    phi = str(phi_over_pi)
    return _json_list([
        _record_json(
            f"solve-n{order}-{i}", phi, order, [_phase_text(p) for p in phases],
            None, "solver",
        )
        for i, phases in enumerate(trains)
    ], 0)


def save_json(text: str, path) -> None:
    """Write ``text`` and a final newline to ``path`` in one write, as
    UTF-8 bytes: a text-mode file's layers cost more than the encoding."""
    with open(path, "wb") as fh:
        fh.write((text + "\n").encode("utf-8"))


def save_catalog(entry_list, path) -> None:
    """Write ``catalog_json(entry_list)`` to ``path`` (``save_json``)."""
    save_json(catalog_json(entry_list), path)


def _parse(text: str) -> list[CatalogEntry]:
    try:
        data = json.loads(text)
    except RecursionError:
        raise CatalogError("catalog JSON is nested too deeply") from None
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
    """Package solver output (radians) in catalog form, source="solver":
    each phase written as ``solutions_json`` writes it (``_phase_text``)."""
    strings = tuple(map(_phase_text, phases))
    return CatalogEntry(
        name=name,
        phi_over_pi=Fraction(phi_over_pi),
        order=order,
        # Fraction(s) from the integer digits of each 10-decimal string.
        phases_over_pi=tuple(
            Fraction(int(s.replace(".", "")), 10**10) for s in strings
        ),
        phase_strings=strings,
        quoted_range_over_pi=(math.nan, math.nan),
        source="solver",
    )
