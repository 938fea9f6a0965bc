"""Command-line front end.

Four subcommands: generate writes a functional file, bounds computes the
full exact/analytic report for one file, sweep tabulates violations over
a parameter range as CSV, verify runs the self-check suite. Files are the
source of truth; stdout tables are a convenience.

Each command runs with numpy's OpenBLAS held at one thread, so that
--threads is its only parallelism; the caller's count is restored on
every exit. An --out path is checked before any work.

Exit codes: 0 success, 2 usage error, 3 unparseable or schema-violating
input file, 4 precondition failure, 5 enumeration cap exceeded, 6 a
mathematical check or suite check failed.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import os
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

from ._version import __version__
from .bounds import BoundsReport, violation
from .clifford import build_clifford_family
from .errors import (
    BoundCheckError,
    EnumerationCapExceeded,
    PreconditionError,
    SchemaError,
)
from .functionals import (
    clifford_functional,
    dichotomic_functional,
    mub_functional,
    random_functional,
)
from .linalg import blas_threads
from .mub import build_mub_family
from .serialize import canonical_dumps, format_float, functional_to_json, load_functional
from .verify import run_suite

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_PRECONDITION = 4
EXIT_CAP = 5
EXIT_CHECK = 6

SWEEP_COLUMNS = (
    "parameter",
    "s_lhs_exact",
    "s_lhs_analytic",
    "s_q",
    "violation",
    "violation_lower_bound",
    "runtime_ms",
)


THREADS_HELP = "worker threads (default: $STEERBOUND_THREADS, else 1)"


def _default_threads() -> int:
    """Thread count when --threads is not given: STEERBOUND_THREADS, else 1."""
    env = os.environ.get("STEERBOUND_THREADS")
    if env is None:
        return 1
    try:
        threads = int(env)
    except ValueError:
        threads = 0  # rejected below, like any count below one
    if threads < 1:
        raise PreconditionError(f"STEERBOUND_THREADS must be a positive integer, got {env!r}")
    return threads


def _threads(args) -> int:
    return _default_threads() if args.threads is None else args.threads


def _timestamp() -> str:
    return datetime.now(timezone.utc).isoformat()


def _check_out(out: str) -> None:
    """Raise unless `out` can be written as a file: its parent directory
    exists and it is not itself a directory."""
    path = Path(out)
    if path.is_dir():
        raise PreconditionError(f"--out {out!r} is a directory")
    if not path.parent.is_dir():
        raise PreconditionError(f"--out {out!r}: no directory {str(path.parent)!r}")


def _write_output(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _reject_unread_flags(kind: str, flags: dict[str, tuple[bool, tuple[str, ...]]]) -> None:
    """Raise for a flag that was given although `kind` does not read it;
    `flags` maps each flag to (given, kinds that read it)."""
    for flag, (given, readers) in flags.items():
        if given and kind not in readers:
            raise PreconditionError(f"{flag} does not apply to --kind {kind}")


def _build_functional(kind: str, d, n, seed, full_dim: bool):
    if kind == "mub":
        if d is None:
            raise PreconditionError("--kind mub requires --d")
        n = d + 1 if n is None else n
        return mub_functional(build_mub_family(d, n))
    if kind == "clifford":
        if n is None:
            raise PreconditionError("--kind clifford requires --n")
        return clifford_functional(build_clifford_family(n, full_dimension=full_dim))
    if kind == "dichotomic":
        if n is None:
            raise PreconditionError("--kind dichotomic requires --n")
        return dichotomic_functional(build_clifford_family(n, full_dimension=full_dim))
    if kind == "random":
        if d is None:
            raise PreconditionError("--kind random requires --d")
        return random_functional(d, 0 if seed is None else seed)
    raise PreconditionError(f"unknown kind {kind!r}")


def cmd_generate(args) -> int:
    _reject_unread_flags(
        args.kind,
        {
            "--d": (args.d is not None, ("mub", "random")),
            "--n": (args.n is not None, ("mub", "clifford", "dichotomic")),
            "--seed": (args.seed is not None, ("random",)),
            "--full-dim": (args.full_dim, ("clifford", "dichotomic")),
        },
    )
    functional = _build_functional(args.kind, args.d, args.n, args.seed, args.full_dim)
    text = functional_to_json(functional)
    _write_output(text, args.out)
    destination = args.out or "stdout"
    print(
        f"[{_timestamp()}] wrote {functional.kind} functional "
        f"n={functional.n} m={functional.m} d={functional.d} "
        f"({functional.n * functional.m} matrices) to {destination}",
        file=sys.stderr,
    )
    return EXIT_OK


def _print_bounds_table(report: BoundsReport) -> None:
    print(f"functional: kind={report.kind} n={report.n} m={report.m} d={report.d}")
    witness = ", ".join(str(a) for a in report.s_lhs_witness)
    print(f"S_LHS exact      {format_float(report.s_lhs_exact)}   witness outcomes [{witness}]")
    for tag, bound in report.s_lhs_analytic.items():
        print(f"  analytic upper bound {tag:<18} {format_float(bound)}")
    print(f"S_Q              {format_float(report.s_q)}   method={report.s_q_method}")
    print(f"violation        {format_float(report.violation)}")
    for tag, bound in report.violation_lower_bounds.items():
        print(f"  proven lower bound   {tag:<18} {format_float(bound)}")
    for cert in report.certificates:
        status = "PASS" if cert.satisfied else "FAIL"
        print(
            f"  [{status}] {cert.name}: value {format_float(cert.value)} "
            f"vs bound {format_float(cert.bound)}"
        )


def cmd_bounds(args) -> int:
    threads = _threads(args)
    functional = load_functional(args.input)
    report = violation(
        functional,
        cap=args.cap,
        threads=threads,
        angular_resolution=args.angular_res,
        seesaw_restarts=args.restarts,
        seesaw_max_iters=args.max_iters,
        seesaw_tol=args.tol,
        seesaw_seed=args.seed,
        strict=False,
    )
    _print_bounds_table(report)
    if args.out:
        document = {
            "meta": {
                "input": str(args.input),
                "timestamp": _timestamp(),
                "version": __version__,
            },
            "report": report.to_dict(),
        }
        Path(args.out).write_text(canonical_dumps(document))
    if not report.all_certificates_pass:
        failed = [c.name for c in report.certificates if not c.satisfied]
        print(f"failed certificates: {', '.join(failed)}", file=sys.stderr)
        return EXIT_CHECK
    return EXIT_OK


def _parse_values(flag: str, raw: str | None) -> list[int]:
    """The comma-separated integers given to `flag`, at least one."""
    if raw is None or raw.strip() == "":
        raise PreconditionError(f"sweep requires at least one value in {flag}")
    try:
        return [int(part) for part in raw.split(",")]
    except ValueError as exc:
        raise PreconditionError(f"cannot parse integer list {raw!r}") from exc


def cmd_sweep(args) -> int:
    _reject_unread_flags(
        args.kind,
        {
            "--d": (args.d is not None, ("mub",)),
            "--n": (args.n is not None, ("clifford", "dichotomic")),
            "--full-dim": (args.full_dim, ("clifford", "dichotomic")),
        },
    )
    flag, raw = ("--d", args.d) if args.kind == "mub" else ("--n", args.n)
    values = _parse_values(flag, raw)
    threads = _threads(args)

    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(SWEEP_COLUMNS)
    violations = []
    for value in values:
        start = time.perf_counter()
        if args.kind == "mub":
            functional = _build_functional("mub", value, None, None, False)
        else:
            functional = _build_functional(args.kind, None, value, None, args.full_dim)
        try:
            report = violation(
                functional, cap=args.cap, threads=threads, strict=True
            )
        except BoundCheckError as exc:
            print(
                f"aborting sweep at {args.kind} parameter {value}: {exc}",
                file=sys.stderr,
            )
            raise
        runtime_ms = (time.perf_counter() - start) * 1e3
        analytic = min(report.s_lhs_analytic.values(), default=None)
        lower = max(report.violation_lower_bounds.values(), default=None)
        writer.writerow(
            [
                value,
                format_float(report.s_lhs_exact),
                "" if analytic is None else format_float(analytic),
                format_float(report.s_q),
                format_float(report.violation),
                "" if lower is None else format_float(lower),
                f"{runtime_ms:.3f}",
            ]
        )
        violations.append(report.violation)
    increasing = all(b > a for a, b in zip(violations, violations[1:]))
    text = buffer.getvalue()
    text += f"# violation_strictly_increasing={'true' if increasing else 'false'}\n"
    _write_output(text, args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    results = run_suite(
        name_filter=args.filter,
        seed=args.seed,
        seesaw_restarts=args.restarts,
        seesaw_max_iters=args.max_iters,
        threads=_threads(args),
    )
    width = max((len(r.name) for r in results), default=10)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{r.name:<{width}}  {status}  {r.runtime_ms:9.1f} ms  {r.detail}")
    all_passed = all(r.passed for r in results) and bool(results)
    if args.out:
        summary = {"all_passed": all_passed, "checks": [dataclasses.asdict(r) for r in results]}
        Path(args.out).write_text(canonical_dumps(summary))
    if not results:
        print(f"no checks match filter {args.filter!r}", file=sys.stderr)
        return EXIT_PRECONDITION
    if not all_passed:
        failed = [r.name for r in results if not r.passed]
        print(f"failed checks: {', '.join(failed)}", file=sys.stderr)
        return EXIT_CHECK
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="steerbound",
        description="steering functionals: generation, exact bounds, sweeps, self-checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="construct a functional and write it as JSON")
    gen.add_argument("--kind", required=True, choices=["mub", "clifford", "dichotomic", "random"])
    gen.add_argument("--d", type=int, help="local dimension (mub, random)")
    gen.add_argument("--n", type=int, help="settings (mub default d+1; clifford/dichotomic)")
    gen.add_argument("--seed", type=int, help="sign seed for random kind (default 0)")
    gen.add_argument("--full-dim", action="store_true", help="use the 2^n-dimensional chain")
    gen.add_argument("--out", help="output path (default stdout)")
    gen.set_defaults(func=cmd_generate)

    bnd = sub.add_parser("bounds", help="exact and analytic bounds for a functional file")
    bnd.add_argument("input", help="functional JSON file")
    bnd.add_argument("--cap", type=int, default=10**6, help="strategy enumeration cap")
    bnd.add_argument("--threads", type=int, help=THREADS_HELP)
    bnd.add_argument("--angular-res", type=int, default=720)
    bnd.add_argument("--restarts", type=int, default=20, help="see-saw restarts")
    bnd.add_argument("--max-iters", type=int, default=500, help="see-saw iteration cap")
    bnd.add_argument("--tol", type=float, default=1e-10, help="see-saw convergence tolerance")
    bnd.add_argument("--seed", type=int, default=0, help="see-saw restart seed")
    bnd.add_argument("--out", help="write the JSON report here")
    bnd.set_defaults(func=cmd_bounds)

    swp = sub.add_parser("sweep", help="violation table over a parameter range")
    swp.add_argument("--kind", required=True, choices=["mub", "clifford", "dichotomic"])
    swp.add_argument("--d", help="comma-separated prime dimensions (mub; n = d+1 each)")
    swp.add_argument("--n", help="comma-separated setting counts (clifford, dichotomic)")
    swp.add_argument("--full-dim", action="store_true")
    swp.add_argument("--cap", type=int, default=10**6)
    swp.add_argument("--threads", type=int, help=THREADS_HELP)
    swp.add_argument("--out", help="output CSV path (default stdout)")
    swp.set_defaults(func=cmd_sweep)

    ver = sub.add_parser("verify", help="run the cross-module self-check suite")
    ver.add_argument("--filter", help="substring filter on check names")
    ver.add_argument("--seed", type=int, default=7)
    ver.add_argument("--restarts", type=int, default=8, help="see-saw restarts in the suite")
    ver.add_argument("--max-iters", type=int, default=300)
    ver.add_argument("--threads", type=int, help=THREADS_HELP)
    ver.add_argument("--out", help="write the machine-readable summary here")
    ver.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        if args.out:
            _check_out(args.out)
        with blas_threads(1):
            return args.func(args)
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (FileNotFoundError, IsADirectoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except EnumerationCapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except BoundCheckError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK


if __name__ == "__main__":
    raise SystemExit(main())
