"""Wrong answers and errors cpgate gave when this benchmark was added.

An operation that fails for one of these reasons counts in ``failed`` and
is listed, and the run stays ``correct``.  Any other failure (a wrong answer
or a non-zero exit not listed here, an exception) makes the run incorrect.
Fixing a defect only removes failures; nothing here needs to change with
the fix.
"""

from __future__ import annotations

import math
from fractions import Fraction

# verify --gate <name>: the 16- and 18-pulse named trains measure order 0
# or 1 instead of 7 or 8.
VERIFY_NAMED = frozenset({"Z16", "Z18", "S16", "S18", "T16", "T18"})

# verify of a rounded arbitrary-angle row (refine=False), as
# "row:<phi over pi>:<pulses>": wrong order.
VERIFY_ROWS = frozenset(
    [f"row:{phi}:12" for phi in ("1/4", "1/3", "11/12", "15/16")]
    + [f"row:{phi}:14" for phi in ("1/12", "1/6", "1/3", "1/2", "2/3", "3/4",
                                   "5/6", "7/8", "11/12", "15/16")]
)

# solve --order 3 can return the degenerate class with relative phases
# (0, pi, pi); its profile is far from the closed form.
DEGENERATE_N3 = (0.0, 0.0, math.pi, math.pi)

# solve can give up on a valid input: none of the restarts' roots survives
# canonicalization.  Seen at n = 4 only, in about one operation in a hundred
# (2 of 182 probes, at phi = 2/3 and 5/6 pi).
SOLVE_GAVE_UP = ("exit 3: numerical failure: no convergence: "
                 "canonicalization failed for all roots")


def _is_degenerate(strings) -> bool:
    if len(strings) != len(DEGENERATE_N3):
        return False
    for s, want in zip(strings, DEGENERATE_N3):
        d = (float(Fraction(s)) * math.pi - want) % (2 * math.pi)
        if min(d, 2 * math.pi - d) > 1e-6:
            return False
    return True


def classify(op, reason: str, bad_classes) -> str | None:
    """Name of the known defect behind ``op`` failing for ``reason``, or
    None."""
    if op.kind == "verify":
        if op.train in VERIFY_NAMED:
            return "named 16/18-pulse verify order"
        if op.train in VERIFY_ROWS:
            return "rounded row verify order"
    if op.kind == "solve" and reason == SOLVE_GAVE_UP:
        return "solve gave up: canonicalization failed for all roots"
    if op.kind == "solve" and op.order == 3 and bad_classes:
        if all(_is_degenerate(c) for c in bad_classes):
            return "degenerate n=3 class [0, pi, pi]"
    return None
