"""Benchmark of the steerbound command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (or ``--workload all``, each in its own process) from a
source checkout: the program is imported from ``src/`` next to this
directory. Set-up is timed in fresh processes that import
``steerbound.cli`` and write the workload's inputs; then one untimed
warm-up pass, then timed passes of ``steerbound.cli.main`` calls for at
least ``--seconds``. Every output is checked. The last line of standard
output is one JSON object with the end-to-end metrics (``--trace 0``) or
the per-layer metrics of a traced run (``--trace 1``). See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from tracer import PER_LAYER_UNITS, Tracer, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SETUP_REPS = 5
MIN_PASSES = 3
SETUP_CODE = (
    "import json, sys\n"
    "from steerbound.cli import main\n"
    "sys.exit(max([main(argv) for argv in json.loads(sys.argv[1])], default=0))\n"
)

END_TO_END_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "ok_frac": "frac",
    "violation_ratio": "ratio",
}


def blas_threads():
    """Threads of numpy's bundled OpenBLAS, or None where it is not found."""
    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas64_*.so")):
        try:
            get = ctypes.CDLL(str(path)).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes = []
        get.restype = ctypes.c_int
        return int(get())
    return None


def environment(workload: workloads.Workload) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python_threads": workload.threads,
        "numpy": numpy.__version__,
        "blas_threads": blas_threads(),
    }


def set_up(workload: workloads.Workload) -> tuple[list, list]:
    """Seconds of each fresh-process set-up, and problems found in it."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    argv = [sys.executable, "-c", SETUP_CODE, json.dumps(workload.inputs)]
    paths = [workloads.out_path(inp) for inp in workload.inputs]
    times, problems, first = [], [], None
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        done = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True, text=True, timeout=60)
        times.append(time.perf_counter() - start)
        if done.returncode != 0:
            problems.append(f"set-up exited {done.returncode}: {done.stderr.strip()[-300:]}")
            continue
        digests = [workloads.digest(p) for p in paths]
        first = first or digests
        if digests != first:
            problems.append("set-up inputs differ between repetitions")
    return times, problems


def run_op(cli, op: workloads.Op):
    """None, or why the call failed."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(op.argv))
    except Exception as exc:  # a crash is one failed operation, not the end of the run
        return f"{op.case}: {type(exc).__name__}: {exc}"
    if code != 0:
        return f"{op.case}: exit code {code}: {err.getvalue().strip()[-300:]}"
    return None


def run_pass(cli, workload, tracer=None) -> dict:
    """One pass over the workload's operations; outputs are read after the
    timed region."""
    if tracer is not None:
        tracer.reset()
        tracer.install()
    ops = []
    cpu0, wall0 = time.process_time(), time.perf_counter()
    try:
        for op in workload.ops:
            if tracer is not None:
                tracer.case = op.case
            start = time.perf_counter()
            error = run_op(cli, op)
            ops.append([op, error, time.perf_counter() - start, None])
    finally:
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        if tracer is not None:
            tracer.uninstall()
    for record in ops:
        if record[1] is None:
            try:
                record[3] = workloads.capture(record[0])
            except (OSError, ValueError, KeyError) as exc:
                record[1] = f"{record[0].case}: unreadable output: {exc}"
    return {"wall": wall, "cpu": cpu, "ops": ops}


def median_dict(samples: list) -> dict:
    return {key: statistics.median(s[key] for s in samples) for key in samples[0]}


def run_workload(args) -> int:
    work = WORK / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        return measure(args, workloads.build(args.workload, args.seed, args.smoke, work))
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, workload) -> int:
    setup_times, problems = set_up(workload)
    attempted = SETUP_REPS

    sys.path.insert(0, str(SRC))
    import steerbound.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported steerbound from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    print("env", json.dumps(environment(workload), sort_keys=True))

    tracer = Tracer() if args.trace else None
    passes = [dict(run_pass(cli, workload), label="warm-up")]  # checked, not timed
    timed, traced = [], []
    start = time.perf_counter()
    while len(timed) + len(traced) < MIN_PASSES or time.perf_counter() - start < args.seconds:
        if tracer is not None and len(timed) > len(traced):
            p = dict(run_pass(cli, workload, tracer), label="traced")
            p["layers"] = {None: layer_metrics(tracer)}
            p["layers"].update({op.case: layer_metrics(tracer, op.case) for op in workload.ops})
            traced.append(p)
        else:
            p = dict(run_pass(cli, workload), label="timed")
            timed.append(p)
        passes.append(p)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    checker = workloads.Checker()
    failed, ratios = len(problems), []
    for p in passes:
        for op, error, _, captured in p["ops"]:
            try:
                found, found_ratios = ([error], []) if error else checker.check(op, captured)
            except (KeyError, IndexError, TypeError, ValueError) as exc:
                found, found_ratios = [f"{op.case}: malformed output: {exc!r}"], []
            attempted, failed = attempted + 1, failed + bool(found)
            problems += found
            ratios += found_ratios
    generated = [workloads.out_path(argv) for argv in workload.inputs]
    generated += [op.output for op in workload.ops if op.kind == "generate"]
    for path in generated:
        try:
            found = workloads.round_trip(path)
        except (ImportError, ValueError) as exc:
            found = [f"{path.name}: round trip failed: {exc!r}"]
        attempted, failed = attempted + 1, failed + bool(found)
        problems += found
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)

    print(f"setup_s samples: {', '.join(f'{t:.4f}' for t in setup_times)}")
    for label in ("warm-up", "timed", "traced"):
        walls = [f"{p['wall']:.4f}" for p in passes if p["label"] == label]
        if walls:
            print(f"{label} passes: {len(walls)}, wall s: {', '.join(walls)}")
    for case in dict.fromkeys(op.case for op in workload.ops):
        seconds = [sum(t for op, _, t, _ in p["ops"] if op.case == case) for p in timed]
        print(f"case {case}: {statistics.median(seconds):.4f} s per timed pass")

    if tracer is None:
        metrics = {
            "wall_s": statistics.median(p["wall"] for p in timed),
            "cpu_s": statistics.median(p["cpu"] for p in timed),
            "peak_rss_mb": peak_rss_mb,
            "setup_s": statistics.median(setup_times),
            "ok_frac": 1.0 - failed / attempted,
            "violation_ratio": statistics.fmean(ratios) if ratios else 0.0,
        }
        units = END_TO_END_UNITS
        print(f"wall_s and cpu_s are medians of {len(timed)} timed passes; "
              f"setup_s is the median of {SETUP_REPS} set-ups")
    else:
        for case in dict.fromkeys(op.case for op in workload.ops):
            values = median_dict([p["layers"][case] for p in traced])
            for name, value in values.items():
                print(f"case {case}: {name} {value:.6g} {PER_LAYER_UNITS[name]}")
        metrics = median_dict([p["layers"][None] for p in traced])
        untraced = statistics.median(p["wall"] for p in timed)
        metrics["trace.overhead_frac"] = statistics.median(p["wall"] for p in traced) / untraced - 1
        metrics["trace.absent_layers"] = len(tracer.absent)
        print(f"absent layers: {', '.join(tracer.absent) or 'none'}")
        units = PER_LAYER_UNITS

    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload, each in its own process; one combined last line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.NAMES:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(argv + (["--smoke"] if args.smoke else []),
                              capture_output=True, text=True, timeout=600)
        sys.stderr.write(done.stderr)
        lines = done.stdout.splitlines()
        for line in lines[:-1]:
            print(f"[{name}] {line}")
        if done.returncode != 0 or not lines:
            print(f"error: workload {name} exited {done.returncode}", file=sys.stderr)
            return done.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced input sizes, for the benchmark's smoke test")
    args = parser.parse_args()
    if not (SRC / "steerbound" / "cli.py").is_file():
        print(f"error: no steerbound sources under {SRC}", file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    raise SystemExit(main())
