import contextlib
import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import steerbound
from steerbound import PreconditionError, SteeringFunctional
from steerbound.cli import (
    EXIT_CAP,
    EXIT_CHECK,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_PRECONDITION,
    EXIT_USAGE,
    main,
)
from steerbound import verify as verify_module
from steerbound.linalg import _openblas

VOLATILE_META = ("timestamp",)


def run(args):
    return main(list(args))


def load_report(path):
    doc = json.loads(path.read_text())
    for key in VOLATILE_META:
        doc["meta"].pop(key, None)
    doc["report"]["diagnostics"].pop("timings", None)
    return doc


def test_generate_mub_file(tmp_path):
    out = tmp_path / "mub.json"
    assert run(["generate", "--kind", "mub", "--d", "3", "--n", "4", "--out", str(out)]) == EXIT_OK
    doc = json.loads(out.read_text())
    assert len(doc["matrices"]) == 12
    assert doc["meta"]["kind"] == "mub"


def test_generate_clifford_compact_dimension(tmp_path):
    out = tmp_path / "cliff.json"
    assert run(["generate", "--kind", "clifford", "--n", "5", "--out", str(out)]) == EXIT_OK
    doc = json.loads(out.read_text())
    assert len(doc["matrices"]) == 10
    assert len(doc["matrices"][0]) == 4  # two qubits suffice for five observables


def test_generate_random_byte_identical(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for out in (a, b):
        code = run(["generate", "--kind", "random", "--d", "2", "--seed", "7", "--out", str(out)])
        assert code == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_generate_round_trip_byte_identical(tmp_path):
    from steerbound.serialize import functional_to_json, load_functional

    out = tmp_path / "f.json"
    run(["generate", "--kind", "mub", "--d", "5", "--out", str(out)])
    assert functional_to_json(load_functional(out)).encode() == out.read_bytes()


def test_generate_rejects_composite_dimension(tmp_path):
    out = tmp_path / "bad.json"
    code = run(["generate", "--kind", "mub", "--d", "4", "--out", str(out)])
    assert code == EXIT_PRECONDITION
    assert not out.exists()


def test_generate_missing_required_parameter():
    assert run(["generate", "--kind", "mub"]) == EXIT_PRECONDITION


@pytest.mark.parametrize(
    "argv,flag",
    [
        (["generate", "--kind", "random", "--d", "2", "--n", "9"], "--n"),
        (["generate", "--kind", "clifford", "--n", "3", "--d", "3", "--seed", "5"], "--d"),
        (["generate", "--kind", "dichotomic", "--n", "3", "--seed", "5"], "--seed"),
        (["generate", "--kind", "mub", "--d", "3", "--full-dim"], "--full-dim"),
        (["generate", "--kind", "random", "--d", "2", "--full-dim"], "--full-dim"),
        (["sweep", "--kind", "mub", "--d", "2", "--n", "9"], "--n"),
        (["sweep", "--kind", "mub", "--d", "2", "--full-dim"], "--full-dim"),
        (["sweep", "--kind", "dichotomic", "--n", "2", "--d", "3"], "--d"),
    ],
)
def test_flag_the_kind_does_not_read_is_rejected(tmp_path, capsys, argv, flag):
    out = tmp_path / "out"
    assert run([*argv, "--out", str(out)]) == EXIT_PRECONDITION
    assert f"{flag} does not apply" in capsys.readouterr().err
    assert not out.exists()


def test_usage_error_exit_code():
    assert run(["generate", "--kind", "bogus"]) == EXIT_USAGE
    assert run([]) == EXIT_USAGE


def test_format_flag_is_gone(tmp_path):
    # bounds always writes JSON and sweep always CSV; no flag pretends otherwise
    functional = tmp_path / "m23.json"
    run(["generate", "--kind", "mub", "--d", "2", "--n", "3", "--out", str(functional)])
    assert run(["bounds", str(functional), "--format", "csv"]) == EXIT_USAGE
    assert run(["generate", "--kind", "mub", "--d", "2", "--format", "json"]) == EXIT_USAGE
    assert run(["sweep", "--kind", "mub", "--d", "2", "--format", "csv"]) == EXIT_USAGE


def test_bounds_mub_report(tmp_path, capsys):
    functional = tmp_path / "m23.json"
    report = tmp_path / "report.json"
    run(["generate", "--kind", "mub", "--d", "2", "--n", "3", "--out", str(functional)])
    code = run(["bounds", str(functional), "--out", str(report)])
    assert code == EXIT_OK
    stdout = capsys.readouterr().out
    assert "violation" in stdout
    doc = json.loads(report.read_text())
    assert doc["report"]["violation"] == pytest.approx(6 / (3 + np.sqrt(3)), abs=1e-6)
    assert doc["report"]["s_q"] == 3
    names = {c["name"] for c in doc["report"]["certificates"]}
    assert "lhs_exact_le_mub-uncertainty" in names
    assert all(c["satisfied"] for c in doc["report"]["certificates"])


def test_bounds_clifford_prints_both_values(tmp_path, capsys):
    functional = tmp_path / "c8.json"
    run(["generate", "--kind", "clifford", "--n", "8", "--out", str(functional)])
    assert run(["bounds", str(functional)]) == EXIT_OK
    stdout = capsys.readouterr().out
    assert "2.8284271247461" in stdout  # violation 2*sqrt(2)
    assert "\n  proven lower bound   clifford           2\n" in stdout


def test_bounds_dichotomic(tmp_path):
    functional = tmp_path / "d9.json"
    report = tmp_path / "r.json"
    run(["generate", "--kind", "dichotomic", "--n", "9", "--out", str(functional)])
    assert run(["bounds", str(functional), "--out", str(report)]) == EXIT_OK
    doc = json.loads(report.read_text())
    assert doc["report"]["violation"] == pytest.approx(3.0, abs=1e-9)
    assert doc["report"]["s_q"] == 9


def test_bounds_random_kind_uses_seesaw(tmp_path):
    functional = tmp_path / "rand.json"
    report = tmp_path / "r.json"
    run(["generate", "--kind", "random", "--d", "2", "--seed", "7", "--out", str(functional)])
    code = run(
        ["bounds", str(functional), "--restarts", "4", "--max-iters", "150", "--out", str(report)]
    )
    assert code == EXIT_OK
    doc = json.loads(report.read_text())
    assert doc["report"]["s_q_method"] == "seesaw-lower"
    assert doc["report"]["s_lhs_exact"] == pytest.approx(1.2071067811865475, abs=1e-7)
    assert "seesaw_iterations" in doc["report"]["diagnostics"]


def test_bounds_zero_table_is_a_precondition_failure(tmp_path, capsys):
    from steerbound import SteeringFunctional
    from steerbound.serialize import functional_to_json

    table = tmp_path / "zero.json"
    table.write_text(functional_to_json(SteeringFunctional.from_table(np.zeros((2, 2, 2, 2)))))
    report = tmp_path / "report.json"
    assert run(["bounds", str(table), "--out", str(report)]) == EXIT_PRECONDITION
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "S_LHS is 0" in captured.err
    assert not report.exists()


def test_bounds_overflowing_table_is_a_precondition_failure(tmp_path, capsys):
    from steerbound import SteeringFunctional, build_mub_family, mub_functional
    from steerbound.serialize import functional_to_json

    # finite entries whose strategy sums overflow to inf
    table = mub_functional(build_mub_family(2, 3)).coefficients * 1e308
    path = tmp_path / "huge.json"
    path.write_text(functional_to_json(SteeringFunctional.from_table(table, kind="custom")))
    report = tmp_path / "report.json"
    assert run(["bounds", str(path), "--out", str(report)]) == EXIT_PRECONDITION
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "overflow" in captured.err
    assert not report.exists()


def test_bounds_large_table_seesaw_is_monotone_up_to_its_scale(tmp_path, capsys):
    from steerbound import SteeringFunctional, build_mub_family, mub_functional
    from steerbound.serialize import functional_to_json

    # rounding of a 3e10 objective exceeds an absolute 1e-12, not one
    # scaled by the table's envelope
    table = mub_functional(build_mub_family(2, 3)).coefficients * 1e10
    path = tmp_path / "large.json"
    path.write_text(functional_to_json(SteeringFunctional.from_table(table, kind="custom")))
    assert run(["bounds", str(path)]) == EXIT_OK
    assert "method=seesaw-lower" in capsys.readouterr().out


def test_negative_seed_and_bad_tolerance_are_precondition_failures(tmp_path, capsys):
    table = tmp_path / "rand.json"
    mub = tmp_path / "mub.json"
    run(["generate", "--kind", "random", "--d", "2", "--out", str(table)])
    run(["generate", "--kind", "mub", "--d", "2", "--out", str(mub)])
    capsys.readouterr()
    for argv in (
        ["generate", "--kind", "random", "--d", "2", "--seed", "-1"],
        ["bounds", str(table), "--seed", "-1"],
        ["bounds", str(mub), "--seed", "-1"],
        ["verify", "--filter", "gram", "--seed", "-1"],
        ["bounds", str(table), "--tol", "-1"],
        ["bounds", str(table), "--tol", "nan"],
        ["bounds", str(table), "--tol", "inf"],
        ["bounds", str(mub), "--tol", "nan"],
    ):
        assert run(argv) == EXIT_PRECONDITION, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "seed" in captured.err or "tolerance" in captured.err
    assert run(["bounds", str(table), "--tol", "0", "--restarts", "2", "--max-iters", "5"]) == EXIT_OK


def test_bounds_random_d4_thread_count_invariant(tmp_path):
    functional = tmp_path / "rand4.json"
    run(["generate", "--kind", "random", "--d", "4", "--seed", "1", "--out", str(functional)])
    reports = []
    for threads in ("1", "2"):
        out = tmp_path / f"r{threads}.json"
        argv = ["bounds", str(functional), "--threads", threads, "--out", str(out)]
        assert run(argv) == EXIT_OK
        reports.append(load_report(out))
    assert reports[0] == reports[1]


def test_bounds_truncated_input(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"meta": {"kind": "mub"')
    assert run(["bounds", str(bad)]) == EXIT_PARSE


def test_bounds_non_finite_input(tmp_path):
    functional = tmp_path / "m23.json"
    run(["generate", "--kind", "mub", "--d", "2", "--n", "3", "--out", str(functional)])
    doc = json.loads(functional.read_text())
    doc["matrices"][0][0][0][0] = float("nan")
    bad = tmp_path / "nan.json"
    bad.write_text(json.dumps(doc))  # json.dumps writes the NaN token
    assert "NaN" in bad.read_text()
    assert run(["bounds", str(bad)]) == EXIT_PARSE


def test_bounds_angular_resolution_checked_on_hermitian_tables(tmp_path, capsys):
    functional = tmp_path / "m34.json"
    run(["generate", "--kind", "mub", "--d", "3", "--n", "4", "--out", str(functional)])
    assert run(["bounds", str(functional), "--angular-res", "4"]) == EXIT_PRECONDITION
    assert "angular_resolution must be at least 8" in capsys.readouterr().err


def test_bounds_missing_file(tmp_path):
    assert run(["bounds", str(tmp_path / "nope.json")]) == EXIT_PARSE


@pytest.mark.parametrize("fault", ["not-utf8", "directory", "deep-nesting"])
def test_bounds_unreadable_input_is_a_one_line_parse_error(tmp_path, capsys, fault):
    path = tmp_path / "input.json"
    if fault == "not-utf8":
        path.write_bytes(b'{"meta": "\xff\xfe"}')
    elif fault == "directory":
        path.mkdir()
    else:
        path.write_text("[" * 100000)
    assert run(["bounds", str(path)]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "generate,edit,kind,failed",
    [
        (["mub", "--d", "3", "--n", "4"], "move-entry", "mub", "no-signalling"),
        (["dichotomic", "--n", "12"], "clifford", "clifford", "positivity"),
        (["clifford", "--n", "8"], "mub", "mub", "positivity"),
    ],
)
def test_bounds_mislabelled_kind_is_a_one_line_check_failure(
    tmp_path, capsys, generate, edit, kind, failed
):
    functional = tmp_path / "table.json"
    run(["generate", "--kind", *generate, "--out", str(functional)])
    doc = json.loads(functional.read_text())
    if edit == "move-entry":
        doc["matrices"][1][0][0][0] += 1e-3
    else:
        doc["meta"]["kind"] = edit
    bad = tmp_path / "mislabelled.json"
    bad.write_text(json.dumps(doc))
    out = tmp_path / "report.json"
    capsys.readouterr()
    assert run(["bounds", str(bad), "--out", str(out)]) == EXIT_CHECK
    err = capsys.readouterr().err
    assert err.startswith(f"error: kind {kind!r} ") and err.count("\n") == 1
    assert f"fails {failed}" in err or f", {failed}" in err
    assert "AssemblageReport" not in err
    assert not out.exists()


def test_bounds_cap_exceeded(tmp_path):
    functional = tmp_path / "m34.json"
    run(["generate", "--kind", "mub", "--d", "3", "--n", "4", "--out", str(functional)])
    assert run(["bounds", str(functional), "--cap", "10"]) == EXIT_CAP


def test_bounds_thread_count_invariant(tmp_path):
    functional = tmp_path / "m23.json"
    run(["generate", "--kind", "mub", "--d", "2", "--n", "3", "--out", str(functional)])
    reports = []
    for threads, name in ((1, "r1.json"), (8, "r8.json")):
        out = tmp_path / name
        assert run(["bounds", str(functional), "--threads", str(threads), "--out", str(out)]) == EXIT_OK
        reports.append(load_report(out))
    assert reports[0] == reports[1]


def test_sweep_mub_monotone(tmp_path):
    out = tmp_path / "sweep.csv"
    assert run(["sweep", "--kind", "mub", "--d", "2,3,5", "--out", str(out)]) == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == (
        "parameter,s_lhs_exact,s_lhs_analytic,s_q,violation,violation_lower_bound,runtime_ms"
    )
    assert lines[-1] == "# violation_strictly_increasing=true"
    rows = list(csv.DictReader(lines[:-1]))
    assert [row["parameter"] for row in rows] == ["2", "3", "5"]
    violations = [float(row["violation"]) for row in rows]
    assert violations == sorted(violations)
    assert all(float(r["violation"]) >= float(r["violation_lower_bound"]) - 1e-9 for r in rows)


def test_sweep_clifford_exact_violation(tmp_path):
    out = tmp_path / "sweep.csv"
    assert run(["sweep", "--kind", "clifford", "--n", "2,4,8", "--out", str(out)]) == EXIT_OK
    rows = list(csv.DictReader(out.read_text().splitlines()[:-1]))
    for row in rows:
        n = int(row["parameter"])
        assert float(row["violation"]) == pytest.approx(np.sqrt(n), abs=1e-9)
        assert float(row["s_q"]) == pytest.approx(n / 2, abs=1e-12)


def test_sweep_empty_range(tmp_path, capsys):
    # nothing to sweep, from an empty list or no list at all: no CSV at
    # all rather than a header without its trailer
    out = tmp_path / "empty.csv"
    cases = [
        ("mub", "--d", ["--d", ""]),
        ("clifford", "--n", ["--n", ""]),
        ("dichotomic", "--n", ["--n", " "]),
        ("mub", "--d", []),
        ("clifford", "--n", []),
        ("dichotomic", "--n", []),
    ]
    for kind, flag, values in cases:
        assert run(["sweep", "--kind", kind, *values, "--out", str(out)]) == EXIT_PRECONDITION
        captured = capsys.readouterr()
        assert f"at least one value in {flag}" in captured.err, (kind, values)
        assert captured.out == ""
        assert not out.exists()


def test_sweep_rejects_bad_values():
    assert run(["sweep", "--kind", "mub", "--d", "2,x"]) == EXIT_PRECONDITION


def test_verify_suite_passes(capsys):
    assert run(["verify", "--restarts", "4", "--max-iters", "200"]) == EXIT_OK
    stdout = capsys.readouterr().out
    assert "PASS" in stdout
    assert "FAIL" not in stdout


def test_verify_filter(tmp_path, capsys):
    out = tmp_path / "summary.json"
    assert run(["verify", "--filter", "gram", "--out", str(out)]) == EXIT_OK
    stdout = capsys.readouterr().out
    assert "gram-identity" in stdout
    assert "clifford-anticommutation" not in stdout
    summary = json.loads(out.read_text())
    assert summary["all_passed"] is True
    assert [c["name"] for c in summary["checks"]] == ["gram-identity"]


def test_verify_round_trip_check_catches_a_silent_fallback(capsys, monkeypatch):
    monkeypatch.setattr(verify_module, "_load_flat", lambda text, kind: None)
    assert run(["verify", "--filter", "serialize-round-trip"]) == EXIT_CHECK
    assert "fell back to the tree walk" in capsys.readouterr().out


def test_verify_unknown_filter():
    assert run(["verify", "--filter", "nonexistent-check"]) == EXIT_PRECONDITION


def test_console_entry_point(tmp_path):
    # the subprocess does not see pytest's pythonpath setting, so pass on
    # the directory the package was imported from
    src = str(Path(steerbound.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "steerbound.cli", "generate", "--kind", "random", "--d", "2"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": pythonpath},
    )
    assert result.returncode == 0
    doc = json.loads(result.stdout)
    assert doc["meta"]["kind"] == "random"
    assert doc["meta"]["seed"] == 0


def test_threads_env_override(tmp_path, capsys, monkeypatch):
    from steerbound.cli import _default_threads

    monkeypatch.setenv("STEERBOUND_THREADS", "6")
    assert _default_threads() == 6
    monkeypatch.delenv("STEERBOUND_THREADS")
    assert _default_threads() == 1
    functional = tmp_path / "m23.json"
    for bad in ("zero", "0", "-2"):
        monkeypatch.setenv("STEERBOUND_THREADS", bad)
        with pytest.raises(PreconditionError, match="STEERBOUND_THREADS"):
            _default_threads()
        # generate does not read the variable; an explicit --threads wins
        assert run(["generate", "--kind", "mub", "--d", "2", "--out", str(functional)]) == EXIT_OK
        assert run(["bounds", str(functional), "--threads", "1"]) == EXIT_OK
        capsys.readouterr()
        for argv in (
            ["bounds", str(functional)],
            ["sweep", "--kind", "mub", "--d", "2"],
            ["verify", "--filter", "gram"],
        ):
            assert run(argv) == EXIT_PRECONDITION
            assert "STEERBOUND_THREADS" in capsys.readouterr().err


def test_verify_reports_injected_failure(capsys, monkeypatch):
    import steerbound.cli as cli_module
    from steerbound.verify import CheckResult

    def broken_suite(**kwargs):
        return [
            CheckResult(name="mub-unbiasedness", passed=False, detail="deviation 2.01e-02", runtime_ms=1.0)
        ]

    monkeypatch.setattr(cli_module, "run_suite", broken_suite)
    assert run(["verify"]) == EXIT_CHECK
    captured = capsys.readouterr()
    assert "FAIL" in captured.out
    assert "mub-unbiasedness" in captured.err


def test_check_failure_exit_code(tmp_path, monkeypatch):
    import steerbound.cli as cli_module

    functional = tmp_path / "m23.json"
    run(["generate", "--kind", "mub", "--d", "2", "--n", "3", "--out", str(functional)])

    def broken_violation(*args, **kwargs):
        from steerbound.errors import BoundCheckError

        raise BoundCheckError("forced")

    monkeypatch.setattr(cli_module, "violation", broken_violation)
    assert run(["bounds", str(functional)]) == EXIT_CHECK


@pytest.mark.parametrize("fault", ["missing-directory", "directory"])
@pytest.mark.parametrize("command", ["generate", "bounds", "sweep", "verify"])
def test_bad_out_is_rejected_before_any_work(tmp_path, capsys, monkeypatch, command, fault):
    import steerbound.cli as cli_module

    table = tmp_path / "m23.json"
    run(["generate", "--kind", "mub", "--d", "2", "--n", "3", "--out", str(table)])

    def no_work(*args, **kwargs):
        raise AssertionError("work started before --out was checked")

    for step in ("_build_functional", "load_functional", "violation", "run_suite"):
        monkeypatch.setattr(cli_module, step, no_work)
    argv = {
        "generate": ["generate", "--kind", "mub", "--d", "3"],
        "bounds": ["bounds", str(table)],
        "sweep": ["sweep", "--kind", "mub", "--d", "2"],
        "verify": ["verify"],
    }[command]
    out = tmp_path / "missing" / "out.txt" if fault == "missing-directory" else tmp_path
    capsys.readouterr()
    assert run([*argv, "--out", str(out)]) == EXIT_PRECONDITION
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--out" in captured.err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m23.json"]


@contextlib.contextmanager
def ambient_blas(count):
    """Set numpy's OpenBLAS count directly, as OPENBLAS_NUM_THREADS would,
    outside any blas_threads body; the previous count comes back after."""
    calls = _openblas()
    if not calls:
        pytest.skip("numpy does not bundle OpenBLAS here")
    get, put = calls
    before = get()
    put(count)
    try:
        yield get
    finally:
        put(before)


@pytest.mark.parametrize("command", ["generate", "bounds", "sweep", "verify"])
def test_every_command_holds_blas_at_one_thread(tmp_path, capsys, monkeypatch, command):
    import steerbound.cli as cli_module

    table = tmp_path / "m34.json"
    run(["generate", "--kind", "mub", "--d", "3", "--n", "4", "--out", str(table)])
    argv = {
        "generate": ["generate", "--kind", "clifford", "--n", "4"],
        "bounds": ["bounds", str(table)],
        "sweep": ["sweep", "--kind", "clifford", "--n", "2,3"],
        "verify": ["verify", "--filter", "quantum-canonical-attainment"],
    }[command]
    seen = []
    load, from_table = cli_module.load_functional, SteeringFunctional.from_table.__func__
    with ambient_blas(2) as get:

        def recording_load(*args, **kwargs):
            seen.append(get())
            return load(*args, **kwargs)

        def recording_from_table(cls, *args, **kwargs):
            seen.append(get())
            return from_table(cls, *args, **kwargs)

        monkeypatch.setattr(cli_module, "load_functional", recording_load)
        monkeypatch.setattr(SteeringFunctional, "from_table", classmethod(recording_from_table))
        assert run(argv) == EXIT_OK
        assert get() == 2
    assert seen
    assert set(seen) == {1}


@pytest.mark.parametrize("code", [EXIT_OK, EXIT_PARSE, EXIT_PRECONDITION])
def test_main_restores_the_ambient_blas_count(tmp_path, capsys, code):
    argv = {
        EXIT_OK: ["generate", "--kind", "mub", "--d", "2"],
        EXIT_PARSE: ["bounds", str(tmp_path / "missing.json")],
        EXIT_PRECONDITION: ["generate", "--kind", "mub"],
    }[code]
    with ambient_blas(2) as get:
        assert run(argv) == code
        assert get() == 2


def test_bounds_report_independent_of_ambient_blas_count(tmp_path):
    cases = {
        "mub-3-4": ["--kind", "mub", "--d", "3", "--n", "4"],
        "clifford-5-full": ["--kind", "clifford", "--n", "5", "--full-dim"],
        "random-3": ["--kind", "random", "--d", "3"],
    }
    for name, flags in cases.items():
        table = tmp_path / f"{name}.json"
        assert run(["generate", *flags, "--out", str(table)]) == EXIT_OK
        reports = []
        for count in (1, 2):
            out = tmp_path / f"{name}.{count}.report.json"
            with ambient_blas(count):
                assert run(["bounds", str(table), "--out", str(out)]) == EXIT_OK
            reports.append(json.dumps(load_report(out), sort_keys=True))
        assert reports[0] == reports[1], name
