"""Regenerate ``src/cpgate/data/polished.json``, the polishes of the
packaged catalog entries that ``catalog`` reads in place of running them.

    PYTHONPATH=src python tests/make_polished.py

For each packaged entry with decimal phases it records what
``precise.polish_fixed`` returns for the half that ``catalog`` polishes:
the phases and t's u-coefficients (see ``precise.half_slope_fit``), as
integers at 2^``precise.PREC``.  A
record is keyed by the polish's inputs: the angle as its Fraction string
and the half's relative phase strings.  ``test_catalog.py`` recomputes
every record and fails on one that differs or that no entry produces.

Regenerate it where the polish's output is meant to change, and say why
in the change that does.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

from cpgate import catalog, precise

POLISHED = Path(__file__).parents[1] / "src" / "cpgate" / "data" / "polished.json"


def polish_inputs():
    """(phi_over_pi, relative phase strings, relative phases in radians) of
    each packaged entry's half with decimal phases, as ``catalog`` polishes
    it."""
    inputs = []
    for entry in catalog.entries():
        rel = entry.phase_strings[1 : entry.order + 1]
        if all(catalog._is_exact(s) for s in rel):
            continue
        radians = [float(Fraction(s)) * math.pi for s in rel]
        inputs.append((entry.phi_over_pi, rel, radians))
    return inputs


def records():
    """The records of ``polished.json``, one per ``polish_inputs`` entry."""
    out = []
    for phi, rel, radians in polish_inputs():
        phases, t = precise.polish_fixed(radians, phi)
        out.append({
            "phi_over_pi": str(phi),
            "rel_phases_over_pi": list(rel),
            "phases": list(phases),
            "t": list(t),
        })
    return out


def unstored(entry):
    """``entry`` with a trailing 0 on each decimal phase string: the same
    polish inputs under a key that the store does not hold, so building it
    runs the polish."""
    strings = tuple(s + "0" if "." in s else s for s in entry.phase_strings)
    return replace(entry, phase_strings=strings)


def main():
    data = {"prec": precise.PREC, "polishes": records()}
    POLISHED.write_text(json.dumps(data, indent=1) + "\n")
    print(f"wrote {POLISHED}", file=sys.stderr)


if __name__ == "__main__":
    main()
