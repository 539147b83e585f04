"""Regenerate ``tests/data/corpus.json``, the CLI outputs and polished
halves that ``test_corpus.py`` holds the program to.

    PYTHONPATH=src python tests/make_corpus.py

It records, for the program in ``src``:

- ``verify --json`` on the 27 catalog names, on the 84 rounded
  arbitrary-angle rows as the 17-digit inline specs the verify benchmark
  passes, on inline specs of rows, halves and trains that are not two
  halves (``VERIFY_SPECS``), on the first entry
  of the files seven ``solve --out`` runs write, at orders 2-8 (with the
  text of those files; ``first_entry``), and on 100 seeded inline specs
  (``inline_specs``);
- ``range`` at five thresholds on the 27 names, on three polished table
  rows (``polished_row_specs``) and on a two-half train whose half is
  longer than a sweep reads through t (``long_half_spec``), with the
  epsilon0 and the non-monotonic flag that the command prints rounded, at
  full precision;
- ``sweep`` on the 27 names, on a train that is not two halves
  (``OFF_STRUCTURE``) and on that long two-half train, the last two
  composed as given, on two small grids (``SWEEP_GRIDS``), as the
  fidelities its CSV holds, read back as floats: values, not bytes, since
  numpy's SIMD sin and cos may differ in the last bits between CPUs;
- the first-half phases (radians, as doubles) of ``catalog.to_sequence``
  on the 27 names and of ``catalog.arbitrary_row`` on the 84 table rows:
  where the polish leaves each root on its manifold;
- the angle and the phase strings of the file ``solve --out`` writes at
  orders 1-4, the closed form, at a table angle, two others and phi = 0,
  where the classes of a 0/0 branch are its limits
  (``closed_solve_records``; the rest of such a file is the format the
  ``SOLVES`` files hold verbatim);
- the exit code, stdout and stderr of commands on two odd catalog files
  (``odd``): a record whose second half is not its first shifted by
  pi - phi/2, and Z18's record at a path that holds the '=' of a spec.

Regenerate it only where an output is meant to change, and say which and
why in the change that does.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import sys
import tempfile
from pathlib import Path

from cpgate import analysis, catalog, cli, sequences

CORPUS = Path(__file__).parent / "data" / "corpus.json"
ROW_PULSES = (4, 6, 8, 10, 12, 14)
RANGE_THRESHOLDS = ("1e-4", "1e-3", "1e-2", "0.2", "0.45")
# (eps-min, eps-max, steps) of the recorded sweeps: the CLI's interval,
# and small errors, where every fidelity is next to 1.
SWEEP_GRIDS = (("-0.4", "0.4", "9"), ("1e-3", "0.05", "5"))
_S10 = ("0,0.8225606328124041,0.82256551733751782,1.9152390433822561,"
        "0.44160567403125545,0.75,1.5725606328124042,1.5725655173375179,"
        "2.6652390433822566,1.1916056740312555")
# Inline gates for verify: rounded table rows (one moved by 2 in both
# halves), a train that is not two halves, the smallest half, the second
# S10 twice, and phases too large for the shift to register (exit 3).
VERIFY_SPECS = (
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
    "phi=1;phases=1e60,1e60",
    "phi=1;phases=1e300,1e300",
)
INLINE_SEED = 34
# A train that is not two halves, and the seed of ``long_half_spec``.
OFF_STRUCTURE = "phi=1;phases=0,0.3,0.3,0.3,0.3,0.5"
LONG_HALF_SEED = 11
SOLVES = (
    ("solve", "--order", "2", "--phi", "0.5", "--seeds", "16", "--rng-seed", "1"),
    ("solve", "--order", "4", "--phi", "0.5", "--seeds", "16", "--rng-seed", "1"),
    ("solve", "--order", "6", "--phi", "0.25", "--seeds", "16", "--rng-seed", "1"),
    ("solve", "--order", "8", "--phi", "1", "--seeds", "16", "--rng-seed", "1"),
    ("solve", "--order", "3", "--phi", "0.25", "--seeds", "16", "--rng-seed", "1"),
    ("solve", "--order", "5", "--phi", "1", "--seeds", "16", "--rng-seed", "1"),
    ("solve", "--order", "7", "--phi", "0.5", "--seeds", "16", "--rng-seed", "1"),
)
# The angles (units of pi) of the closed-form solves, each at orders 1-4.
CLOSED_SOLVE_ANGLES = ("0.25", "0.37", "1.997", "0")

# The odd catalog files by name (see ``odd_records``) and the commands run
# on each, the file named relative to the directory that holds it.
MISMATCHED = "mismatched.json"
Z18_FILE = "z18-phi=1.json"
ODD_RUNS = (
    ("verify", "--json", "--gate", MISMATCHED),
    ("range", "--gate", MISMATCHED),
    ("sweep", "--gate", MISMATCHED),
    ("verify", "--json", "--gate", Z18_FILE),
)


def run_cli(argv):
    """(exit code, stdout, stderr) of ``cli.run(argv)`` in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(list(argv))
    return code, out.getvalue(), err.getvalue()


def verify_record(gate):
    """Exit code of ``verify --json --gate gate`` and its order, slope and
    peak, or its stderr where it fails."""
    code, out, err = run_cli(("verify", "--json", "--gate", gate))
    if code:
        return {"code": code, "err": err}
    return {"code": code, **json.loads(out)}


def range_record(gate, threshold):
    """Exit code of ``range --gate gate --threshold threshold`` and the
    epsilon0 and flag of the range it printed, or its stderr where it
    fails."""
    found = []
    measure = analysis.high_fidelity_range

    def recorded(*args, **kwargs):
        found.append(measure(*args, **kwargs))
        return found[-1]

    analysis.high_fidelity_range = recorded
    try:
        code, _, err = run_cli(("range", "--gate", gate, "--threshold", threshold))
    finally:
        analysis.high_fidelity_range = measure
    if code:
        return {"code": code, "err": err}
    return {"code": code, "epsilon0": found[0].epsilon0, "flagged": found[0].flagged}


def sweep_record(gate, grid):
    """Exit code of ``sweep --gate gate`` on ``grid`` and the Frobenius and
    trace fidelities of its CSV, or its stderr where it fails."""
    eps_min, eps_max, steps = grid
    code, out, err = run_cli(("sweep", "--gate", gate, "--eps-min", eps_min,
                              "--eps-max", eps_max, "--steps", steps))
    if code:
        return {"code": code, "err": err}
    rows = [[float(v) for v in line.split(",")] for line in out.splitlines()[1:]]
    return {"code": code, "frobenius": [r[1] for r in rows],
            "trace": [r[2] for r in rows]}


def row_specs():
    """The 84 rounded table rows as the 17-digit inline specs of the
    verify benchmark."""
    specs = []
    for row in catalog.arbitrary_rows():
        for pulses in ROW_PULSES:
            seq = catalog.arbitrary_row(row.phi_over_pi, pulses, refine=False)
            specs.append(
                f"phi={float(row.phi_over_pi):.17g};phases="
                + ",".join(f"{float(p) / math.pi:.17g}" for p in seq.phases)
            )
    return specs


def _spec(phi, phases, fmt):
    """Inline spec of the angle ``phi`` and ``phases`` (units of pi)."""
    return f"phi={phi:.17g};phases=" + ",".join(format(p, fmt) for p in phases)


def polished_row_specs():
    """Three polished table rows, of 10, 12 and 14 pulses, as the 17-digit
    inline specs of the range benchmark."""
    rows = catalog.arbitrary_rows()[::5]
    return [
        _spec(float(row.phi_over_pi),
              [float(p) / math.pi
               for p in catalog.arbitrary_row(row.phi_over_pi, pulses).phases],
              ".17g")
        for row, pulses in zip(rows, (10, 12, 14))
    ]


def long_half_spec():
    """A seeded two-half train at pi/2 whose half has 11 pulses: its sweep
    composes the train, its range reads the half polynomial."""
    rng = random.Random(LONG_HALF_SEED)
    half = [0.0] + [rng.uniform(0, 2) for _ in range(10)]
    return _spec(0.5, half + [p + 0.75 for p in half], ".17g")


def inline_specs():
    """100 seeded inline specs of four kinds, so that every branch of the
    inline polish is held to its output:

    - 30 rounded table rows with each nonzero first-half phase moved by up
      to 2e-4 and the second half the shifted first moved by up to 1e-4
      (units of pi; within the two-half tolerance), the held zeros kept;
    - 25 two-half trains at an angle that is no fraction of pi with
      denominator <= 64: the 4-, 6- and 8-pulse builders at a random angle,
      and rounded rows at an angle moved by up to 1e-3;
    - 25 random two-half trains, some with leading zeros, most far from a
      root, so that the polish fails or drifts;
    - 20 trains that are not two halves: 10 pairs of builder trains in a
      row, the gate of their summed angle, and 10 random trains of 2 to
      18 pulses.
    """
    rng = random.Random(INLINE_SEED)
    rows = catalog.arbitrary_rows()
    specs = []

    def rounded_half(pulses):
        row = rng.choice(rows)
        seq = catalog.arbitrary_row(row.phi_over_pi, pulses, refine=False)
        half = seq.phases[: pulses // 2]
        return float(row.phi_over_pi), [float(p) / math.pi for p in half]

    def two_halves(phi, half, jitter=0.0):
        shift = 1 - phi / 2
        return half + [p + shift + rng.uniform(-jitter, jitter) for p in half]

    for _ in range(30):
        phi, half = rounded_half(rng.choice(ROW_PULSES))
        half = [p + rng.uniform(-2e-4, 2e-4) if p else p for p in half]
        specs.append(_spec(phi, two_halves(phi, half, 1e-4), ".10f"))
    builders = (sequences.four_pulse, sequences.six_pulse, sequences.eight_pulse)
    for k in range(15):
        phi = rng.uniform(0.05, 1.95)
        assert cli._pi_fraction(phi * math.pi) is None
        seq = builders[k % 3](phi * math.pi, rng.randint(1, 4))
        specs.append(_spec(phi, [p / math.pi for p in seq.phases], ".17g"))
    for _ in range(10):
        phi, half = rounded_half(rng.choice(ROW_PULSES))
        phi += rng.uniform(-1e-3, 1e-3)
        assert cli._pi_fraction(phi * math.pi) is None
        specs.append(_spec(phi, two_halves(phi, half), ".10f"))
    for _ in range(25):
        n = rng.randint(1, 8)
        zeros = rng.randint(0, n - 1)
        half = [0.0] * (zeros + 1) + [rng.uniform(0, 2) for _ in range(n - zeros)]
        phi = rng.uniform(0.05, 1.95)
        specs.append(_spec(phi, two_halves(phi, half), ".8f"))
    for _ in range(10):
        # Two builder trains in a row: the gate of the summed angle.
        phis = [rng.uniform(0.05, 0.95) for _ in range(2)]
        trains = [rng.choice(builders)(phi * math.pi, rng.randint(1, 4)) for phi in phis]
        phases = [p / math.pi for seq in trains for p in seq.phases]
        specs.append(_spec(sum(phis), phases, ".17g"))
    for _ in range(10):
        phases = [rng.uniform(0, 2) for _ in range(2 * rng.randint(1, 9))]
        specs.append(_spec(rng.uniform(0.05, 1.95), phases, ".8f"))
    return specs


def half_records():
    """The first-half phases of the 27 polished named trains and of the 84
    polished table rows, as doubles."""
    def half(seq):
        return [float(p) for p in seq.phases[: len(seq) // 2]]

    records = [{"gate": name, "half": half(catalog.to_sequence(catalog.get(name)))}
               for name in catalog.names()]
    for row in catalog.arbitrary_rows():
        for pulses in ROW_PULSES:
            records.append({
                "phi_over_pi": str(row.phi_over_pi),
                "pulses": pulses,
                "half": half(catalog.arbitrary_row(row.phi_over_pi, pulses)),
            })
    return records


def first_entry(path):
    """The path of a catalog file beside the file ``path``, written with
    its first entry alone: a gate of one train."""
    path = Path(path)
    one = path.with_name(f"{path.stem}-first.json")
    catalog.save_catalog(catalog.load_catalog(path)[:1], one)
    return one


def odd_records(workdir):
    """For each of ``ODD_RUNS``: its argv, and the exit code, stdout and
    stderr of the run, on the odd catalog files written into ``workdir``:
    a one-entry file whose second half is not its first shifted by
    pi - phi/2 (read from its first half alone it would be Z4), and Z18's
    record alone."""
    mismatched = {"name": "x", "phi_over_pi": "1", "order": 1,
                  "phases_over_pi": ["0", "1.75", "0.9", "0.1"]}
    (Path(workdir) / MISMATCHED).write_text(json.dumps([mismatched]) + "\n")
    catalog.save_catalog([catalog.get("Z18")], Path(workdir) / Z18_FILE)
    records = []
    for *argv, name in ODD_RUNS:
        code, out, err = run_cli((*argv, str(Path(workdir) / name)))
        records.append({"argv": [*argv, name], "code": code, "out": out, "err": err})
    return records


def solve_records(workdir):
    """For each of ``SOLVES``: its argv, the text of the file it writes,
    and ``verify_record`` of its first entry."""
    records = []
    for k, argv in enumerate(SOLVES):
        path = Path(workdir) / f"solve-{k}.json"
        code, _, err = run_cli((*argv, "--out", str(path)))
        if code:
            raise SystemExit(f"{' '.join(argv)} failed: {err}")
        records.append({
            "argv": list(argv),
            "file": path.read_text(),
            "verify": verify_record(str(first_entry(path))),
        })
    return records


def closed_solve_records(workdir):
    """For each order 1-4 at each of ``CLOSED_SOLVE_ANGLES``: the argv of
    its ``solve``, and the ``phi_over_pi`` of the file it writes (one for
    every entry) and the phase strings of each entry, joined by spaces."""
    records = []
    for phi in CLOSED_SOLVE_ANGLES:
        for n in range(1, 5):
            argv = ("solve", "--order", str(n), "--phi", phi)
            path = Path(workdir) / f"closed-{phi}-{n}.json"
            code, _, err = run_cli((*argv, "--out", str(path)))
            if code:
                raise SystemExit(f"{' '.join(argv)} failed: {err}")
            entries = json.loads(path.read_text())
            records.append({
                "argv": list(argv),
                "phi_over_pi": entries[0]["phi_over_pi"],
                "phases_over_pi": [" ".join(e["phases_over_pi"]) for e in entries],
            })
    return records


def build():
    gates = [*catalog.names(), *row_specs(), *VERIFY_SPECS, *inline_specs()]
    with tempfile.TemporaryDirectory() as workdir:
        solves = solve_records(workdir)
        closed = closed_solve_records(workdir)
    with tempfile.TemporaryDirectory() as workdir:
        odd = odd_records(workdir)
    return {
        "verify": [{"gate": gate, **verify_record(gate)} for gate in gates],
        "solve": solves,
        "closed_solve": closed,
        "range": [
            {"gate": gate, "threshold": t, **range_record(gate, t)}
            for gate in [*catalog.names(), *polished_row_specs(), long_half_spec()]
            for t in RANGE_THRESHOLDS
        ],
        "sweep": [
            {"gate": gate, "grid": list(grid), **sweep_record(gate, grid)}
            for gate in [*catalog.names(), OFF_STRUCTURE, long_half_spec()]
            for grid in SWEEP_GRIDS
        ],
        "halves": half_records(),
        "odd": odd,
    }


def main():
    CORPUS.parent.mkdir(exist_ok=True)
    CORPUS.write_text(json.dumps(build(), indent=1) + "\n")
    print(f"wrote {CORPUS}", file=sys.stderr)


if __name__ == "__main__":
    main()
