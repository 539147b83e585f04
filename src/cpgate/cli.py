"""Command-line front end.

The grammar is ``cpgate COMMAND [--name VALUE | --name=VALUE | --flag]...``,
read from the one table ``_COMMANDS``: option names match exactly (no
abbreviations), the item after an option is always its value (so
``--eps-min -0.4``), a repeated option keeps its last value, and ``-h`` or
``--help`` prints the program's or a command's help.  All user-facing angles
are in units of pi (``--phi 0.5`` means pi/2); radians never cross the CLI
boundary.  Exit codes: 0 success, 1 output closed by its reader
(``cpgate sweep | head -1``), quietly, 2 validation error (an argument
error, or an allocation too large for memory), with one ``error: ...``
line on stderr, 3 numerical failure.

A command imports the modules it runs, inside it: ``list``, ``tables``,
``show`` and ``build --pulses 2/4/6/8`` load neither numpy, ``precise``
nor ``logging``.  ``verify`` loads ``precise``, and on a catalog name or
file no numpy; ``range`` on a two-half train loads ``analysis`` and no
numpy; ``sweep``, ``solve`` and any other ``range`` load numpy.  A
polish (``verify`` on an inline spec, ``build --pulses 10/12/14``, a
catalog file whose decimal phases are not stored) loads ``precise``,
numpy and ``solver``.  The records are ``su2.Record``s, so no command
imports the standard dataclass module (nor, through it, ``inspect``), and
``catalog`` reads its data files through its module's loader, so none
imports ``importlib.resources``.  ``main`` runs BLAS on one thread unless
the environment says otherwise.
"""

from __future__ import annotations

import json
import math
import os
import sys
from fractions import Fraction
from types import SimpleNamespace

from . import catalog, sequences
from .su2 import AnalysisError, CompositeSequence, SolverError, order_from_slope

EXIT_CLOSED_OUTPUT = 1
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3

PI = math.pi
# OpenBLAS, OpenMP and MKL thread counts ``main`` sets to 1 where unset:
# the solver's batched pinv and matmul stacks are small, and threads
# waiting on a shared machine slow them down.
_BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


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
    """(train, entry) of a ``--gate`` value: a catalog name, else an inline
    spec, else the one entry of an existing catalog JSON file (so a file
    named like a valid spec is read as the spec); a file of no entry or of
    several is a CliError, the latter naming them.  ``entry`` is the
    catalog entry of the train, None for an inline spec."""
    try:
        entry = catalog.get(text)
    except catalog.CatalogError:
        try:
            return spec_parse(text), None
        except CliError as exc:
            if not os.path.exists(text):
                raise CliError(
                    f"unknown gate {text!r}: not a catalog name, no such file, "
                    f"and not a spec: {exc}"
                ) from None
        entries = catalog.load_catalog(text)
        if not entries:
            raise CliError(f"catalog file {text!r} is empty")
        if len(entries) > 1:
            raise CliError(
                f"catalog file {text!r} holds {len(entries)} entries, not one: "
                + ", ".join(catalog.shown_name(e.name) for e in entries)
            )
        [entry] = entries
    return catalog.to_sequence(entry), entry


def _pi_fraction(phi: float) -> Fraction | None:
    """The fraction p/q, q <= 64, whose multiple of pi is within 1e-12 of
    the angle ``phi`` (radians), or None if there is none."""
    frac = Fraction(phi / PI).limit_denominator(64)
    return frac if abs(float(frac) * PI - phi) < 1e-12 else None


def _polished_half(seq: CompositeSequence):
    """Polish the 4-decimal phases of an inline spec's half onto the exact
    root before order/slope measurement.  Returns the coefficients of the
    polished half's t (``precise.half_slope_fit``), or None where the
    input is measured as it is: not two halves, a polish that failed or
    one that drifted, each logged at DEBUG under ``cpgate.cli``."""
    import logging

    from . import precise

    log = logging.getLogger("cpgate.cli")
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
    except SolverError as exc:
        log.debug("measuring the unpolished input: polish failed: %s", exc)
        return None
    # Only accept the polish if it stayed on the same root (the input was
    # a rounded table row, not some arbitrary far-from-root train).
    drift = max(abs(math.remainder(float(p) - r, 2 * PI)) for p, r in zip(polished, rel))
    if drift > 1e-2:
        log.debug(
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
    from . import analysis

    seq = _resolve_gate(args.gate)[0]
    profile = analysis.sweep(seq, args.eps_min, args.eps_max, args.steps)
    if args.out:
        analysis.write_csv(profile, args.out)
        print(f"wrote {args.steps} rows to {args.out}")
    else:
        sys.stdout.write(analysis.csv_bytes(profile).decode("ascii"))
    return 0


def _cmd_range(args) -> int:
    from . import analysis

    seq = _resolve_gate(args.gate)[0]
    rng = analysis.high_fidelity_range(seq, args.threshold)
    note = "  (non-monotonic profile; scanned)" if rng.flagged else ""
    print(
        f"epsilon0 = {rng.epsilon0:.5f}, interval "
        f"[{rng.lower:.5f}pi, {rng.upper:.5f}pi]{note}"
    )
    return 0


def _cmd_verify(args) -> int:
    from . import precise

    seq, entry = _resolve_gate(args.gate)
    if entry is None:
        # Only an inline spec can carry rounded phases: catalog names and
        # files come from catalog.to_sequence, already polished at the
        # exact angle, with the t of their half.
        t = _polished_half(seq)
    else:
        t = catalog.half_polynomial(entry)
    if t is None:
        slope, peak = precise.slope_fit(seq)
    else:
        slope, peak = precise.half_slope_fit(t, len(seq))
    n = order_from_slope(slope, peak)
    if args.json:
        print(json.dumps({"order": n, "slope": slope, "peak": peak}))
    else:
        print(f"order = {n}")
    return 0


def _cmd_solve(args) -> int:
    from . import solver

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
        print(catalog.catalog_json(entries))
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
        raise ValueError(f"expected a finite number, got {text!r}")
    return value


def _choice(convert, *choices):
    """Converter: ``convert``, then a check that the value is one of ``choices``."""
    def check(text):
        if (value := convert(text)) not in choices:
            raise ValueError(f"invalid choice {text!r} (choose from {check.choices})")
        return value
    check.choices = ", ".join(map(str, choices))
    return check


_REQUIRED = object()  # the default of an option that must be given
_FLAG = object()  # the default of an option that takes no value: False, True if given

_GATE = {"--gate": (str, _REQUIRED, "catalog name (e.g. Z8), inline spec "
                    "phi=<v>;phases=<p0,...> (units of pi), or catalog JSON path")}
_PHI = (_finite, _REQUIRED, "gate angle, units of pi")
_OUT = {"--out": (str, None, "file to write; stdout if not given")}

# command: (function, help, options); an option maps its name to (converter,
# default, help), and a name without "--" is a positional.
_COMMANDS = {
    "list": (_cmd_list, "list catalog entries", {}),
    "show": (_cmd_show, "show one catalog entry", {"name": (str, _REQUIRED, "")}),
    "build": (_cmd_build, "construct an analytic train", {
        "--phi": _PHI, "--pulses": (_choice(int, 2, 4, 6, 8, 10, 12, 14), _REQUIRED, ""),
        "--variant": (int, 1, "which 4-, 6- or 8-pulse train; other lengths have one")}),
    "sweep": (_cmd_sweep, "fidelity sweep to CSV", {
        **_GATE, "--eps-min": (_finite, -0.4, ""), "--eps-max": (_finite, 0.4, ""),
        "--steps": (int, 801, ""), **_OUT}),
    "range": (_cmd_range, "high-fidelity error range",
              {**_GATE, "--threshold": (float, 1e-4, "")}),
    "verify": (_cmd_verify, "measured compensation order", {**_GATE, "--json": (
        None, _FLAG, "print the order, fitted slope and peak infidelity as JSON")}),
    "solve": (_cmd_solve, "derive phases numerically", {
        "--order": (int, _REQUIRED, ""), "--phi": _PHI, "--seeds": (int, 32, ""),
        "--rng-seed": (int, 0, ""), **_OUT}),
    "tables": (_cmd_tables, "print one catalog table",
               {"--which": (_choice(str, "Z", "S", "T", "IV"), _REQUIRED, "")}),
}


def _help(command=None) -> str:
    """The help text of ``command``, or of the program where it is None."""
    if command is None:
        return "\n".join([
            "usage: cpgate COMMAND [--name VALUE | --name=VALUE | --flag]...\n",
            "Composite phase-gate pulse trains: catalog, analysis, solver.\n\ncommands:",
            *(f"  {name:<7} {text}" for name, (_, text, _) in _COMMANDS.items()),
            "\ncpgate COMMAND -h lists the options of COMMAND."])
    _, text, options = _COMMANDS[command]
    lines = [f"usage: cpgate {command}{' [options]' if options else ''}\n\n{text}\n"]
    for name, (convert, default, note) in options.items():
        value = "" if default is _FLAG or name[:2] != "--" else " VALUE"
        notes = (note, f"one of {convert.choices}" if hasattr(convert, "choices") else "",
                 "(required)" if default is _REQUIRED else ""
                 if default in (None, _FLAG) else f"(default: {default})")
        lines.append(f"  {name + value:<18}" + " ".join(n for n in notes if n))
    return "\n".join(lines)


def _parse(argv):
    """The namespace of ``argv`` (``func``: the command's function), or None
    after printing the help it asked for.  CliError on any argument error."""
    command = argv[0] if argv else None
    if command in ("-h", "--help"):
        print(_help())
        return None
    if command not in _COMMANDS:
        raise CliError((f"unknown command {command!r}" if argv else "missing command")
                       + f" (choose from {', '.join(_COMMANDS)})")
    func, _, options = _COMMANDS[command]
    positionals = [name for name in options if name[:2] != "--"]
    given = {}
    items = iter(argv[1:])
    for item in items:
        if item in ("-h", "--help"):
            print(_help(command))
            return None
        if item[:2] != "--":
            if not positionals:
                raise CliError(f"{command}: unexpected argument {item!r}")
            name, text = positionals.pop(0), item
        else:
            name, eq, text = item.partition("=")
            if name not in options:
                raise CliError(f"{command}: unknown option {name}")
            if options[name][1] is _FLAG:
                if eq:
                    raise CliError(f"argument {name}: takes no value")
                given[name] = True
                continue
            if not eq and (text := next(items, None)) is None:
                raise CliError(f"argument {name}: expected a value")
        try:
            given[name] = options[name][0](text)
        except ValueError as exc:
            raise CliError(f"argument {name}: {exc}") from None
    for name, (_, default, _) in options.items():
        if name not in given:
            if default is _REQUIRED:
                raise CliError(f"{command}: argument {name} is required")
            given[name] = False if default is _FLAG else default
    return SimpleNamespace(func=func, **{
        name.lstrip("-").replace("-", "_"): value for name, value in given.items()})


def run(argv=None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
        code = 0 if args is None else args.func(args)
        # Written out here, so that a closed stdout raises below and not in
        # the interpreter's flush at exit.
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader went away: no invalid input, and nothing to report.
        # stdout goes to devnull, so the flush at exit writes nowhere (the
        # recipe of the Python documentation on SIGPIPE).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_CLOSED_OUTPUT
    except (CliError, catalog.CatalogError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except MemoryError as exc:
        # An oversized request (--steps, --seeds) that numpy cannot allocate.
        print(f"error: request too large: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (SolverError, AnalysisError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def main() -> None:
    # Before any command imports numpy, which reads them once.
    for name in _BLAS_THREADS:
        os.environ.setdefault(name, "1")
    raise SystemExit(run())


if __name__ == "__main__":
    main()
