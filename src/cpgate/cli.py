"""Command-line front end.

All user-facing angles are in units of pi (``--phi 0.5`` means pi/2);
radians never cross the CLI boundary.  Exit codes: 0 success, 2
validation error (an allocation too large for memory included), 3
numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import math
import os
import sys
from fractions import Fraction

from . import analysis, catalog, precise, sequences, solver
from .su2 import CompositeSequence

EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3

PI = math.pi

_log = logging.getLogger("cpgate.cli")


class CliError(Exception):
    """Validation failure: maps to exit code 2."""


def spec_parse(text: str) -> CompositeSequence:
    """Sequence from the inline spec ``phi=<v>;phases=<p0,...>`` (units of pi)."""
    fields = {}
    for part in text.split(";"):
        if "=" not in part:
            raise CliError(f"malformed sequence spec segment {part!r}")
        key, _, value = part.partition("=")
        key = key.strip()
        if key in fields:
            raise CliError(f"repeated key {key!r} in sequence spec")
        fields[key] = value.strip()
    if set(fields) != {"phi", "phases"}:
        raise CliError("sequence spec needs exactly phi=<v>;phases=<p0,p1,...>")
    try:
        phi = float(fields["phi"]) * PI
        phases = [float(p) * PI for p in fields["phases"].split(",")]
    except ValueError as exc:
        raise CliError(f"unparsable number in sequence spec: {exc}") from exc
    if not all(math.isfinite(v) for v in [phi, *phases]):
        raise CliError("non-finite number in sequence spec")
    if len(phases) % 2 != 0 or not phases:
        raise CliError("phase count must be even and positive")
    return CompositeSequence(tuple(phases), phi, label="inline")


def _resolve_gate(text: str):
    """(train, t, inline) of a ``--gate`` value: a catalog name, else an
    inline spec, else the first entry of an existing catalog JSON file (so
    a file named like a valid spec is read as the spec).  t is a catalog
    train's ``catalog.half_polynomial``, None for an inline spec;
    ``inline`` says which it was."""
    try:
        entry = catalog.get(text)
    except catalog.CatalogError:
        try:
            return spec_parse(text), None, True
        except CliError as exc:
            if not os.path.exists(text):
                raise CliError(
                    f"unknown gate {text!r}: not a catalog name, no such file, "
                    f"and not a spec: {exc}"
                ) from None
        entries = catalog.load_catalog(text)
        if not entries:
            raise CliError(f"catalog file {text!r} is empty")
        entry = entries[0]
    return catalog.to_sequence(entry), catalog.half_polynomial(entry), False


def _pi_fraction(phi: float) -> Fraction | None:
    """The fraction p/q, q <= 64, whose multiple of pi is within 1e-12 of
    the angle ``phi`` (radians), or None if there is none."""
    frac = Fraction(phi / PI).limit_denominator(64)
    return frac if abs(float(frac) * PI - phi) < 1e-12 else None


def _polished_half(seq: CompositeSequence):
    """Polish the 4-decimal phases of an inline spec's half onto the exact
    root before order/slope measurement.  Returns the coefficients of the
    polished half's t(s) (``precise.half_slope_fit``), or None where the
    input is measured as it is: not two halves, a polish that failed or
    one that drifted."""
    half = sequences.first_half(seq)
    if half is None or len(half) < 2:
        return None
    base = float(half[0])
    rel = [float(p) - base for p in half[1:]]
    phi = float(seq.target_phi)
    # Snap a float gate angle that is (numerically) a small fraction of pi
    # back to the exact value; a rounded target otherwise caps the
    # measurable infidelity near double precision.
    frac = _pi_fraction(phi)
    # The polish holds the leading zeros, the structural blocks: left free,
    # the polish of a rounded row could slide along the root manifold.
    try:
        polished, t = precise.polish_structured(rel, phi if frac is None else frac)
    except solver.SolverError as exc:
        _log.debug("measuring the unpolished input: polish failed: %s", exc)
        return None
    # Only accept the polish if it stayed on the same root (the input was
    # a rounded table row, not some arbitrary far-from-root train).
    drift = max(sequences._mod_distance(float(p), r) for p, r in zip(polished, rel))
    if drift > 1e-2:
        _log.debug(
            "measuring the unpolished input: the polish moved a phase by "
            "%.3g rad, more than 1e-2 from the input", drift
        )
        return None
    return t


def _fmt_phase(p) -> str:
    # 17 significant digits: a double round-trips, so a printed spec is the
    # train itself, not one with an infidelity floor from its rounding.
    return f"{float(p) / PI:.17g}"


def _cmd_list(args) -> int:
    for name in catalog.names():
        entry = catalog.get(name)
        print(
            f"{entry.name:<4} pulses={entry.pulse_count:<3} order={entry.order} "
            f"phi={entry.phi_over_pi}pi"
        )
    return 0


def _cmd_show(args) -> int:
    entry = catalog.get(args.name)
    lo, hi = entry.quoted_range_over_pi
    print(f"name: {entry.name}")
    print(f"phi: {entry.phi_over_pi} (units of pi)")
    print(f"order: {entry.order}")
    print(f"phases: {', '.join(entry.phase_strings)} (units of pi)")
    print(f"quoted range: [{lo}pi, {hi}pi]")
    seq = catalog.to_sequence(entry)
    print(f"spec: phi={entry.phi_over_pi};phases=" + ",".join(
        _fmt_phase(p) for p in seq.phases
    ))
    return 0


_BUILDERS = {4: sequences.four_pulse, 6: sequences.six_pulse, 8: sequences.eight_pulse}


def _radians(phi_over_pi: float) -> float:
    """The gate angle ``phi_over_pi`` (units of pi) in radians; CliError if
    that overflows."""
    phi = phi_over_pi * PI
    if not math.isfinite(phi):
        raise CliError(f"--phi {phi_over_pi:.17g} overflows in radians")
    return phi


def _cmd_build(args) -> int:
    phi = _radians(args.phi)
    if args.pulses not in _BUILDERS and args.variant != 1:
        raise CliError(f"{args.pulses} pulses have one train: --variant must be 1")
    if args.pulses == 2:
        seq = sequences.two_pulse(phi)
    elif args.pulses in _BUILDERS:
        seq = _BUILDERS[args.pulses](phi, args.variant)
    elif args.pulses in (10, 12, 14):
        # Only a tabulated angle has a row; any other angle would silently
        # print the phases of the nearest row.
        frac = _pi_fraction(phi)
        if frac is None:
            raise CliError(
                f"{args.pulses} pulses need a tabulated angle, not phi={args.phi:.17g}"
            )
        seq = catalog.arbitrary_row(frac, args.pulses)
    else:
        raise CliError(f"no constructor for {args.pulses} pulses")
    if not all(math.isfinite(p) for p in seq.phases):
        raise CliError(f"--phi {args.phi:.17g} overflows a phase")
    print(f"label: {seq.label}")
    print("phases (units of pi): " + ", ".join(_fmt_phase(p) for p in seq.phases))
    print(f"spec: phi={args.phi:.17g};phases=" + ",".join(
        _fmt_phase(p) for p in seq.phases
    ))
    return 0


def _cmd_sweep(args) -> int:
    seq = _resolve_gate(args.gate)[0]
    profile = analysis.sweep(seq, args.eps_min, args.eps_max, args.steps)
    if args.out:
        analysis.write_csv(profile, args.out)
        print(f"wrote {args.steps} rows to {args.out}")
    else:
        sys.stdout.write(analysis.csv_bytes(profile).decode("ascii"))
    return 0


def _cmd_range(args) -> int:
    seq = _resolve_gate(args.gate)[0]
    rng = analysis.high_fidelity_range(seq, args.threshold)
    note = "  (non-monotonic profile; scanned)" if rng.flagged else ""
    print(
        f"epsilon0 = {rng.epsilon0:.5f}, interval "
        f"[{rng.lower:.5f}pi, {rng.upper:.5f}pi]{note}"
    )
    return 0


def _cmd_verify(args) -> int:
    seq, t, inline = _resolve_gate(args.gate)
    if inline:
        # Only an inline spec can carry rounded phases: catalog names and
        # files come from catalog.to_sequence, already polished at the
        # exact angle, with the t of their half.
        t = _polished_half(seq)
    if t is None:
        slope, peak = precise.slope_fit(seq)
    else:
        slope, peak = precise.half_slope_fit(t)
    n = analysis.order_from_slope(slope, peak)
    if args.json:
        print(json.dumps({"order": n, "slope": slope, "peak": peak}))
    else:
        print(f"order = {n}")
    return 0


def _cmd_solve(args) -> int:
    config = solver.SolverConfig(
        n=args.order, phi=_radians(args.phi), seeds=args.seeds, rng_seed=args.rng_seed
    )
    # Record a small fraction only if it is the requested angle; otherwise
    # the shortest decimal whose float is the angle the solver used.
    phi_fraction = _pi_fraction(config.phi)
    if phi_fraction is None:
        phi_fraction = Fraction(repr(args.phi))
    solutions = solver.solve(config)
    entries = []
    for i, sol in enumerate(solutions):
        seq = sequences.structured_sequence(sol.phases, config.phi)
        entries.append(
            catalog.solution_to_entry(
                [p % (2 * PI) for p in seq.phases],
                phi_fraction,
                args.order,
                f"solve-n{args.order}-{i}",
            )
        )
    if args.out:
        catalog.save_catalog(entries, args.out)
        print(f"wrote {len(entries)} solution(s) to {args.out}")
    else:
        print(json.dumps([catalog.entry_to_dict(e) for e in entries], indent=2,
                         allow_nan=False))
    return 0


def _cmd_tables(args) -> int:
    if args.which in ("Z", "S", "T"):
        print(f"{'name':<5} {'order':<6} {'range (units of pi)':<22} phases (units of pi)")
        for name in catalog.names():
            if not name.startswith(args.which):
                continue
            entry = catalog.get(name)
            lo, hi = entry.quoted_range_over_pi
            print(
                f"{entry.name:<5} {entry.order:<6} "
                f"[{lo}, {hi}]".ljust(34)
                + ", ".join(entry.phase_strings)
            )
    else:
        print(f"{'phi/pi':<7} {'4p':<10} {'6p':<8} {'8p':<16} {'10p':<16} "
              f"{'12p':<24} 14p")
        for row in catalog.arbitrary_rows():
            cols = [
                ", ".join(row.columns[k]) for k in (4, 6, 8, 10, 12, 14)
            ]
            print(f"{str(row.phi_over_pi):<7} {cols[0]:<10} {cols[1]:<8} "
                  f"{cols[2]:<16} {cols[3]:<16} {cols[4]:<24} {cols[5]}")
    return 0


def _finite(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _add_gate_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--gate",
        required=True,
        help="catalog name (e.g. Z8), inline spec phi=<v>;phases=<p0,...> "
        "(units of pi), or catalog JSON path",
    )


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # Built once per process: parse_args leaves the parser unchanged.
    parser = argparse.ArgumentParser(
        prog="cpgate",
        description="Composite phase-gate pulse trains: catalog, analysis, solver.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list catalog entries").set_defaults(func=_cmd_list)

    p = sub.add_parser("show", help="show one catalog entry")
    p.add_argument("name")
    p.set_defaults(func=_cmd_show)

    p = sub.add_parser("build", help="construct an analytic train")
    p.add_argument("--phi", type=_finite, required=True, help="gate angle, units of pi")
    p.add_argument("--pulses", type=int, required=True,
                   choices=[2, 4, 6, 8, 10, 12, 14])
    p.add_argument("--variant", type=int, default=1,
                   help="which 4-, 6- or 8-pulse train; other lengths have one")
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("sweep", help="fidelity sweep to CSV")
    _add_gate_arg(p)
    p.add_argument("--eps-min", type=_finite, default=-0.4)
    p.add_argument("--eps-max", type=_finite, default=0.4)
    p.add_argument("--steps", type=int, default=801)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("range", help="high-fidelity error range")
    _add_gate_arg(p)
    p.add_argument("--threshold", type=float, default=1e-4)
    p.set_defaults(func=_cmd_range)

    p = sub.add_parser("verify", help="measured compensation order")
    _add_gate_arg(p)
    p.add_argument("--json", action="store_true",
                   help="print the order, fitted slope and peak infidelity as JSON")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("solve", help="derive phases numerically")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--phi", type=_finite, required=True, help="gate angle, units of pi")
    p.add_argument("--seeds", type=int, default=32)
    p.add_argument("--rng-seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("tables", help="print one catalog table")
    p.add_argument("--which", required=True, choices=["Z", "S", "T", "IV"])
    p.set_defaults(func=_cmd_tables)

    return parser


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_VALIDATION if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (CliError, catalog.CatalogError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except MemoryError as exc:
        # An oversized request (--steps, --seeds) that numpy cannot allocate.
        print(f"error: request too large: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (solver.SolverError, analysis.AnalysisError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
