"""Benchmark of the cpgate command-line tool.

    python3 perfbench/run.py --workload {solve,verify,profile} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a source checkout.  One caller drives
``cpgate.cli.run([...])`` in a closed loop over a seeded operation list
(see workloads.py), every output is checked by oracle.py, and the last line
of standard output is one JSON object: end-to-end metrics with ``--trace 0``,
per-layer metrics from a traced pass with ``--trace 1``.  See README.md.
"""

from __future__ import annotations

import os

# One BLAS thread, fixed before numpy loads, here and in every child.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import known_defects  # noqa: E402
import oracle  # noqa: E402
import reference  # noqa: E402
from tracer import Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"  # scratch files and span dumps
PROBE_INTERVAL = 0.2  # seconds between reference-kernel probes
SETUP_SAMPLES = 4  # cold starts per run, spread evenly over the operations


@dataclass
class Result:
    op: object
    start: float  # perf_counter at the call
    seconds: float
    reason: str | None  # None when the oracle accepted the output
    known: str | None = None  # known defect behind a failure
    spurious: int = 0  # solve classes off the closed form


def measure_setup() -> tuple[float, float]:
    """(scaled, raw) seconds of one cold start in a fresh process; the
    process scales its own steps by the machine slowdown
    (setup_probe.py)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), str(SRC)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    scaled, raw = (float(v) for v in proc.stdout.split()[-2:])
    return scaled, raw


def run_op(op) -> Result:
    from cpgate import cli

    if op.out:
        Path(op.out).unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(list(op.argv))
    except Exception as exc:  # a crash is a failed operation; go on
        return Result(op, start, time.perf_counter() - start,
                      f"raised {type(exc).__name__}: {exc}")
    seconds = time.perf_counter() - start
    if code != 0:
        message = err.getvalue().strip().replace("\n", " ")[:160]
        reason, bad = f"exit {code}: {message}", []
    else:
        reason, bad = check(op, out.getvalue())
    known = known_defects.classify(op, reason, bad) if reason else None
    return Result(op, start, seconds, reason, known, len(bad))


def check(op, stdout: str) -> tuple[str | None, list]:
    """(reason the output is wrong or None, solve classes off the closed
    form)."""
    from workloads import SWEEP_EPS, SWEEP_STEPS

    bad = []
    try:
        if op.kind == "verify":
            reason = oracle.check_verify(stdout, op.order)
        elif op.kind == "range":
            reason = oracle.check_range(stdout, op.order, op.phi)
        elif op.kind == "sweep":
            reason = oracle.check_sweep(op.out, op.order, op.phi, *SWEEP_EPS, SWEEP_STEPS)
        else:
            classes, bad, reason = oracle.solve_bad_classes(op.out, op.order, op.phi)
            if reason is None and bad:
                reason = (f"{len(bad)} of {classes} classes off the closed form: "
                          + "; ".join(" ".join(c) for c in bad))
    except (OSError, ValueError, KeyError, TypeError) as exc:
        reason = f"unreadable output: {type(exc).__name__}: {exc}"
    return reason, bad


def environment(args, count: int) -> dict:
    import mpmath
    import numpy

    digest = hashlib.sha256()
    for path in sorted((SRC / "cpgate").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(SRC).as_posix().encode())
            digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30)
            commit = proc.stdout.strip() or None
        except OSError:  # no git on this machine
            pass
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest()[:16],
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "blas_threads": BLAS_ENV,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "operations": count,
        "callers": 1,
    }


def report_failures(results) -> int:
    """Print one line per failed operation; return the unexpected count."""
    unexpected = 0
    for i, r in enumerate(results):
        if r.reason is None:
            continue
        if r.known is None:
            unexpected += 1
        tag = f"known: {r.known}" if r.known else "UNEXPECTED"
        print(f"FAIL op {i} [{tag}] {r.op.label}: {r.reason}")
    return unexpected


def end_to_end(results, setup, speed: reference.SpeedTrack) -> dict:
    """Each time is divided by the machine slowdown around it
    (reference.py); the raw figures are printed as info lines."""
    raw = [r.seconds * 1e3 for r in results]
    ms = [t / speed.around(r.start, r.start + r.seconds) for t, r in zip(raw, results)]
    failed = sum(r.reason is not None for r in results)
    metrics = {
        "ops_per_s": (len(ms) / (sum(ms) / 1e3), "1/s"),
        "op_p50_ms": (statistics.median(ms), "ms"),
        "op_p90_ms": (statistics.quantiles(ms, n=10, method="inclusive")[8], "ms"),
        "ok_ratio": ((len(ms) - failed) / len(ms), "ratio"),
        "setup_s": (statistics.median(scaled for scaled, _ in setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    print(f"info raw: ops_per_s {len(raw) / (sum(raw) / 1e3):.6g}, "
          f"op_p50_ms {statistics.median(raw):.6g}, "
          f"op_p90_ms {statistics.quantiles(raw, n=10, method='inclusive')[8]:.6g}; "
          f"median slowdown {statistics.median(speed.slowdowns):.4f} "
          f"over {len(speed.slowdowns)} probes")
    p50, p90 = metrics["op_p50_ms"][0], metrics["op_p90_ms"][0]
    for kind in ("solve", "verify", "sweep", "range"):
        kind_ms = [t for t, r in zip(ms, results) if r.op.kind == kind]
        if kind_ms:
            kind_failed = sum(r.op.kind == kind and r.reason is not None for r in results)
            # Which kind op_p50_ms and op_p90_ms rest on: its share of the
            # operations above each.
            above50 = sum(t > p50 for t in kind_ms) / max(1, sum(t > p50 for t in ms))
            above90 = sum(t > p90 for t in kind_ms) / max(1, sum(t > p90 for t in ms))
            print(f"info {kind}: {len(kind_ms)} ops, p50 {statistics.median(kind_ms):.4f} ms, "
                  f"{kind_failed} failed, {above50:.0%} of ops above op_p50_ms, "
                  f"{above90:.0%} of ops above op_p90_ms")
    print("info setup samples (scaled s, raw s): "
          + ", ".join(f"{scaled:.4f} {raw:.4f}" for scaled, raw in setup))
    return metrics


def untraced(ops) -> tuple[list[Result], list[tuple[float, float]], reference.SpeedTrack]:
    """Run the operations, probing the machine speed at least every
    PROBE_INTERVAL seconds between them; take SETUP_SAMPLES set-up samples
    spread over the run, the first before the operations, the last after."""
    marks = {len(ops) * k // (SETUP_SAMPLES - 1) for k in range(SETUP_SAMPLES - 1)}
    speed = reference.SpeedTrack()
    results, setup = [], []
    for i, op in enumerate(ops):
        if i in marks:
            setup.append(measure_setup())
        if not speed.stamps or time.perf_counter() - speed.stamps[-1] >= PROBE_INTERVAL:
            speed.probe()
        results.append(run_op(op))
    speed.probe()
    setup.append(measure_setup())
    return results, setup, speed


def traced(ops, workload: str) -> tuple[list[Result], dict]:
    """Each operation once plain and once traced, alternating which goes
    first so warm-up does not bias the overhead; per-layer metrics."""
    plain, traced_results = [], []
    tracer = Tracer()
    for i, op in enumerate(ops):
        plain_first = i % 2 == 0
        if plain_first:
            plain.append(run_op(op))
        tracer.op = i
        tracer.install()
        try:
            traced_results.append(run_op(op))
        finally:
            tracer.uninstall()
        if not plain_first:
            plain.append(run_op(op))
    tracer.write(OUT / f"spans-{workload}.csv")
    for name in tracer.missing:
        print(f"info missing function: {name} (reported as 0)")
    metrics = tracer.metrics()
    metrics["solver.spurious_classes"] = (sum(r.spurious for r in traced_results), "count")
    base = sum(r.seconds for r in plain)
    metrics["trace.overhead_pct"] = (
        100.0 * (sum(r.seconds for r in traced_results) - base) / base, "%")
    return plain + traced_results, metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("solve", "verify", "profile"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "cpgate" / "__init__.py").is_file():
        print(f"perfbench: no cpgate sources under {SRC}", file=sys.stderr)
        return 2

    sys.path.insert(0, str(SRC))
    import cpgate
    from cpgate import catalog

    if not Path(cpgate.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: imported cpgate from {cpgate.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import workloads

    # A long-lived caller has the named trains polished once; the cold cost
    # is setup_s.
    for name in catalog.names():
        catalog.to_sequence(catalog.get(name))

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        # A traced run runs a third of the work twice (plain and traced).
        count = workloads.op_count(args.workload, args.seconds / (3 if args.trace else 1))
        ops = workloads.make_ops(args.workload, args.seed, count, workdir)
        print("environment: " + json.dumps(environment(args, count)))
        if args.trace:
            results, metrics = traced(ops, args.workload)
        else:
            results, setup, speed = untraced(ops)
            metrics = end_to_end(results, setup, speed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    unexpected = report_failures(results)
    failed = sum(r.reason is not None for r in results)
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": unexpected == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
