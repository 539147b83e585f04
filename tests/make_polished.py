"""Regenerate ``src/cpgate/data/polished.json``, the polishes of the
packaged catalog entries that ``catalog`` reads in place of running them,
and ``src/cpgate/data/slope_grid.json``, the constants of
``precise.slope_fit``'s grid, which ``precise`` reads in place of
computing them with mpmath.

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

The grid (``slope_grid``) holds, at each error eps of the slope window
(``mp_oracle.slope_epsilons``), mpmath's sin and cos of pi eps / 2 at
``precise.PREC`` bits as integers at 2^PREC, and the double log of eps.
``test_precise.py`` recomputes it and fails where it differs.
"""

from __future__ import annotations

import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import mpmath as mp

from cpgate import catalog, precise
from mp_oracle import cos_sin_fixed, slope_epsilons

DATA = Path(__file__).parents[1] / "src" / "cpgate" / "data"
POLISHED = DATA / "polished.json"
GRID = DATA / "slope_grid.json"


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


def slope_grid():
    """The content of ``slope_grid.json``: the (s, c) of each error eps of
    the slope window, mpmath's sin and cos of pi eps / 2 (pi at
    ``precise.PREC`` bits) as integers at 2^PREC, and the double log of
    each eps."""
    grid = slope_epsilons()
    with mp.workprec(precise.WP):
        logs = [float(mp.log(eps)) for eps in grid]
    points = []
    with mp.workprec(precise.PREC):
        for eps in grid:
            c, s = cos_sin_fixed((mp.pi * eps / 2)._mpf_, precise.PREC)
            points.append([s, c])
    return {"prec": precise.PREC, "points": points, "logs": logs}


def unstored(entry):
    """``entry`` with a trailing 0 on each decimal phase string: the same
    polish inputs under a key that the store does not hold, so building it
    runs the polish."""
    strings = tuple(s + "0" if "." in s else s for s in entry.phase_strings)
    return entry.replace(phase_strings=strings)


def main():
    data = {"prec": precise.PREC, "polishes": records()}
    POLISHED.write_text(json.dumps(data, indent=1) + "\n")
    GRID.write_text(json.dumps(slope_grid(), indent=1) + "\n")
    print(f"wrote {POLISHED} and {GRID}", file=sys.stderr)


if __name__ == "__main__":
    main()
