import contextlib
import csv
import json
import os
import subprocess
import sys
import threading
import warnings
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
from steerbound import cli as cli_module
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


@pytest.mark.parametrize(
    "argv",
    [
        ["generate", "--kind", "random", "--d", "200"],
        ["generate", "--kind", "mub", "--d", "101"],
        ["generate", "--kind", "dichotomic", "--n", "12", "--full-dim"],
        ["sweep", "--kind", "clifford", "--n", "4,11", "--full-dim"],
    ],
)
def test_a_table_above_the_byte_cap_exits_with_a_precondition_error(tmp_path, capsys, argv):
    out = tmp_path / "out"
    assert run([*argv, "--out", str(out)]) == EXIT_PRECONDITION
    assert "bytes, above the cap" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--kind", "clifford", "--n", "4,11", "--full-dim"],
        ["sweep", "--kind", "mub", "--d", "3,4"],
    ],
)
def test_sweep_refuses_a_bad_row_before_bounding_any(tmp_path, monkeypatch, argv):
    calls = []
    monkeypatch.setattr(cli_module, "violation", lambda *a, **k: calls.append(a))
    out = tmp_path / "out.csv"
    assert run([*argv, "--out", str(out)]) == EXIT_PRECONDITION
    assert calls == []
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


@pytest.mark.parametrize(
    "argv",
    [
        ["bounds", "f.json", "--tol", "1e-9"],
        ["bounds", "f.json", "--angular-res", "720"],
        ["verify", "--restarts", "8"],
        ["verify", "--max-iters", "300"],
    ],
)
def test_fixed_numerical_settings_are_not_flags(argv):
    # the see-saw stop (1e-10), the numerical radius's width (2^-40) and
    # the suite's see-saw size (8 restarts x 300 updates) are constants
    assert run(argv) == EXIT_USAGE


def test_the_parser_built_once_serves_every_later_call(tmp_path):
    def sweep_rows(out):
        argv = ["sweep", "--kind", "dichotomic", "--n", "4,6", "--out", str(out)]
        assert run(argv) == EXIT_OK
        return [row[:-1] for row in csv.reader(out.read_text().splitlines())]

    cli_module._build_parser.cache_clear()
    fresh = sweep_rows(tmp_path / "fresh.csv")
    assert run(["sweep", "--kind", "dichotomic", "--n", "4,6", "--bogus"]) == EXIT_USAGE
    assert sweep_rows(tmp_path / "again.csv") == fresh
    assert cli_module._build_parser.cache_info().misses == 1


def test_bounds_reads_a_pipe_as_its_regular_file(tmp_path):
    """`bounds` on a FIFO fed by a writer thread reports what it reports on
    the regular file, apart from the timings and the meta's input path and
    timestamp."""
    table, pipe = tmp_path / "m56.json", tmp_path / "pipe"
    assert run(["generate", "--kind", "mub", "--d", "5", "--n", "6", "--out", str(table)]) == 0
    os.mkfifo(pipe)
    writer = threading.Thread(target=pipe.write_bytes, args=(table.read_bytes(),), daemon=True)
    writer.start()
    assert run(["bounds", str(pipe), "--out", str(tmp_path / "piped.json")]) == EXIT_OK
    writer.join(30)
    assert not writer.is_alive()
    assert run(["bounds", str(table), "--out", str(tmp_path / "regular.json")]) == EXIT_OK
    piped, regular = load_report(tmp_path / "piped.json"), load_report(tmp_path / "regular.json")
    assert (piped["meta"].pop("input"), regular["meta"].pop("input")) == (str(pipe), str(table))
    assert piped == regular


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
    timings = doc["report"]["diagnostics"]["timings"]  # the volatile fields, the load's too
    assert set(timings) == {"load_ms", "lhs_ms", "quantum_ms", "total_ms"}
    assert all(value >= 0 for value in timings.values())


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


def test_bounds_random_kind_reports_seesaw_extrapolations(tmp_path):
    functional = tmp_path / "rand.json"
    report = tmp_path / "r.json"
    run(["generate", "--kind", "random", "--d", "3", "--seed", "3", "--out", str(functional)])
    assert run(["bounds", str(functional), "--restarts", "3", "--out", str(report)]) == EXIT_OK
    diagnostics = json.loads(report.read_text())["report"]["diagnostics"]
    counts = diagnostics["seesaw_extrapolations"]
    assert set(counts) == {"kept", "tried"}
    assert 0 <= counts["kept"] <= counts["tried"]
    assert counts["tried"] > 0
    assert "seesaw_extrapolations" not in diagnostics["timings"]


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


def test_bounds_large_entries_report_the_enumerated_maximum(tmp_path, capsys):
    from steerbound import build_mub_family, mub_functional
    from steerbound.serialize import functional_to_json

    # squares of entries near 1e154 overflow: a Weyl tolerance taken from
    # an infinite table scale would accept the broken symmetry below
    table = mub_functional(build_mub_family(3, 3)).coefficients.copy()
    table[0, 1] *= 1.2
    path = tmp_path / "large.json"
    path.write_text(functional_to_json(SteeringFunctional.from_table(table * 6e154)))
    report = tmp_path / "report.json"
    assert run(["bounds", str(path), "--out", str(report)]) == EXIT_OK
    assert capsys.readouterr().err == ""
    written = load_report(report)["report"]
    assert written["diagnostics"]["lhs_method"] == "enumeration"
    assert written["s_lhs_exact"] == pytest.approx(2.2844212084666236 * 6e154, rel=1e-12)


def test_bounds_plus_minus_table_near_the_mass_limit_warns_nothing(tmp_path, capsys):
    from steerbound import build_clifford_family, dichotomic_functional
    from steerbound.serialize import functional_to_json

    # entries of 3e298 pass the mass check, but their squares and the
    # canonical pairing overflow: the kind's certificate fails on one line
    table = dichotomic_functional(build_clifford_family(4)).coefficients * 3e298
    path = tmp_path / "large.json"
    path.write_text(
        functional_to_json(SteeringFunctional.from_table(table, kind="clifford-dichotomic"))
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run(["bounds", str(path)]) == EXIT_CHECK
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "fails positivity" in err


def test_bounds_reports_a_missed_canonical_attainment(tmp_path, capsys):
    from steerbound import build_clifford_family, clifford_functional
    from steerbound.serialize import functional_to_json

    # cells +-A_x/4: a valid canonical assemblage that attains n/8, not n/2
    n = 4
    table = clifford_functional(build_clifford_family(n)).coefficients / 2
    path = tmp_path / "half.json"
    path.write_text(functional_to_json(SteeringFunctional.from_table(table, kind="clifford")))
    report = tmp_path / "report.json"
    assert run(["bounds", str(path), "--out", str(report)]) == EXIT_CHECK
    err = capsys.readouterr().err
    assert "failed certificates: canonical_attainment, violation_ge_clifford" in err
    written = load_report(report)["report"]
    assert written["s_q"] == pytest.approx(n / 8, abs=1e-12)
    assert written["s_q_method"] == "canonical-lower"
    assert written["violation"] == written["s_q"] / written["s_lhs_exact"]
    certificates = {c["name"]: c for c in written["certificates"]}
    attainment = certificates.pop("canonical_attainment")
    assert not attainment["satisfied"]
    assert attainment["value"] == written["s_q"]
    assert attainment["bound"] == n / 2
    assert not certificates.pop("violation_ge_clifford")["satisfied"]
    assert all(c["satisfied"] for c in certificates.values())


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


def test_negative_seed_is_a_precondition_failure(tmp_path, capsys):
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
    ):
        assert run(argv) == EXIT_PRECONDITION, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "seed" in captured.err
    assert run(["bounds", str(table), "--restarts", "2", "--max-iters", "5"]) == EXIT_OK


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


def test_bounds_clifford_label_without_anticommutation_takes_positivity_from_the_squares(
    tmp_path, capsys, eigvalsh_matrices
):
    from steerbound import build_clifford_family, dichotomic_functional, lhs_bound
    from steerbound.serialize import functional_to_json

    # dichotomic n = 5 with one entry of B_0 one ulp off anticommuting: no
    # closed form for the LHS bound, but B_x^2 = I still holds exactly, so
    # the canonical cells' positivity is read from the squares
    table = dichotomic_functional(build_clifford_family(5)).coefficients.copy()
    j = int(np.flatnonzero(table[0, 0, 0])[0])
    table[0, 0, 0, j] += 1j * np.spacing(abs(table[0, 0, 0, j]))
    table[0, 0, j, 0] = np.conj(table[0, 0, 0, j])
    table[0, 1] = -table[0, 0]
    path = tmp_path / "table.json"
    path.write_text(functional_to_json(SteeringFunctional.from_table(table, kind="clifford")))
    eigvalsh_matrices.clear()
    assert run(["bounds", str(path)]) == EXIT_CHECK
    assert capsys.readouterr().err == (
        "error: kind 'clifford' does not fit the table: "
        "its canonical assemblage fails positivity\n"
    )
    # the a_0 = 0 half in one chunk, pruned: the strategy with the largest
    # bound, then the 15 others, whose bounds all reach its value; no
    # canonical cell is eigensolved
    assert eigvalsh_matrices == [1, 15]
    lhs = lhs_bound(SteeringFunctional.from_table(table, kind="clifford"))
    assert lhs.strategies_evaluated == lhs.strategies_solved == 2**4


def test_bounds_cap_exceeded(tmp_path):
    functional = tmp_path / "m34.json"
    run(["generate", "--kind", "mub", "--d", "3", "--n", "4", "--out", str(functional)])
    # the Weyl orbit evaluates 3^2 of its 3^4 strategies
    assert run(["bounds", str(functional), "--cap", "8"]) == EXIT_CAP


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
    assert run(["verify"]) == EXIT_OK
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
    monkeypatch.setattr(verify_module, "_load_stream", lambda source: None)
    assert run(["verify", "--filter", "serialize-round-trip"]) == EXIT_CHECK
    assert "fell back to the tree walk" in capsys.readouterr().out


def test_verify_attainment_check_pairs_the_built_assemblage(capsys, monkeypatch):
    pairing = verify_module.evaluate
    monkeypatch.setattr(verify_module, "evaluate", lambda f, a: pairing(f, a) + 1e-6)
    assert run(["verify", "--filter", "quantum-canonical-attainment"]) == EXIT_CHECK
    assert "canonical assemblage attains" in capsys.readouterr().out


def test_verify_structure_check_reads_the_witness_radius_interval(capsys, monkeypatch):
    search = verify_module.numerical_radius_bounds

    def widened(ms, rtol):
        lower, upper = search(ms, rtol)
        return lower, upper * (1 + 2 * rtol)

    assert run(["verify", "--filter", "lhs-structure-shortcuts"]) == EXIT_OK
    assert "radius interval width" in capsys.readouterr().out
    monkeypatch.setattr(verify_module, "numerical_radius_bounds", widened)
    assert run(["verify", "--filter", "lhs-structure-shortcuts"]) == EXIT_CHECK


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


def test_package_runs_as_module():
    src = str(Path(steerbound.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "steerbound", "generate", "--kind", "mub", "--d", "2"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": pythonpath},
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["meta"]["kind"] == "mub"


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
    table = tmp_path / "m34.json"
    run(["generate", "--kind", "mub", "--d", "3", "--n", "4", "--out", str(table)])
    argv = {
        "generate": ["generate", "--kind", "clifford", "--n", "4"],
        "bounds": ["bounds", str(table)],
        "sweep": ["sweep", "--kind", "clifford", "--n", "2,3"],
        "verify": ["verify", "--filter", "quantum-canonical-attainment"],
    }[command]
    seen = []
    # every table, copied by from_table or adopted from a loader or a
    # builder, passes through _adopt
    load, adopt = cli_module.load_functional, SteeringFunctional._adopt.__func__
    with ambient_blas(2) as get:

        def recording_load(*args, **kwargs):
            seen.append(get())
            return load(*args, **kwargs)

        def recording_adopt(cls, *args, **kwargs):
            seen.append(get())
            return adopt(cls, *args, **kwargs)

        monkeypatch.setattr(cli_module, "load_functional", recording_load)
        monkeypatch.setattr(SteeringFunctional, "_adopt", classmethod(recording_adopt))
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


@pytest.mark.parametrize(
    "flags",
    [
        ["--kind", "dichotomic", "--n", "5", "--full-dim"],  # mostly zeros, many windows
        ["--kind", "mub", "--d", "5"],  # dense
    ],
    ids=["full-dim-sparse", "dense"],
)
def test_generate_to_stdout_writes_the_out_file_bytes(tmp_path, capsysbinary, flags):
    out = tmp_path / "table.json"
    assert run(["generate", *flags, "--out", str(out)]) == EXIT_OK
    capsysbinary.readouterr()
    assert run(["generate", *flags]) == EXIT_OK
    assert capsysbinary.readouterr().out == out.read_bytes()


@pytest.mark.parametrize("command", ["generate", "bounds", "sweep", "verify"])
def test_out_is_written_whole_or_not_at_all(tmp_path, capsys, monkeypatch, command):
    """Every command writes --out through a file beside it, renamed over
    --out on success: a run leaves --out and nothing else, through a
    symlink too, and a write that raises after its first window of
    numbers leaves neither."""
    from steerbound import SchemaError, serialize

    table = tmp_path / "m23.json"
    run(["generate", "--kind", "mub", "--d", "2", "--n", "3", "--out", str(table)])
    argv = {
        "generate": ["generate", "--kind", "clifford", "--n", "5", "--full-dim"],
        "bounds": ["bounds", str(table)],
        "sweep": ["sweep", "--kind", "clifford", "--n", "2,3"],
        "verify": ["verify", "--filter", "fine-grained"],
    }[command]
    done = tmp_path / "done"
    done.mkdir()
    out = done / "out.txt"
    out.write_text("stale")
    assert run([*argv, "--out", str(out)]) == EXIT_OK
    assert [p.name for p in done.iterdir()] == ["out.txt"]
    written = out.read_text()
    assert written != "stale"
    link = tmp_path / "link.txt"
    link.symlink_to(out)
    out.write_text("stale")
    assert run([*argv, "--out", str(link)]) == EXIT_OK
    assert link.is_symlink()
    assert [p.name for p in done.iterdir()] == ["out.txt"]
    assert out.read_text() != "stale"
    if command != "generate":
        return
    pipe, received = tmp_path / "pipe", []
    os.mkfifo(pipe)
    reader = threading.Thread(target=lambda: received.append(pipe.read_text()), daemon=True)
    reader.start()
    assert run([*argv, "--out", str(pipe)]) == EXIT_OK
    reader.join(30)
    assert not reader.is_alive()
    assert pipe.is_fifo()  # a pipe is written in place, not replaced
    assert received == [written]

    format_floats, calls = serialize._format_floats, []

    def fail_after_one_window(values):
        if calls:
            raise SchemaError("injected write failure")
        calls.append(values.size)
        return format_floats(values)

    monkeypatch.setattr(serialize, "_format_floats", fail_after_one_window)
    failed = tmp_path / "failed"
    failed.mkdir()
    capsys.readouterr()
    assert run([*argv, "--out", str(failed / "out.json")]) == EXIT_PARSE
    assert calls  # one window was written before the failure
    assert "injected write failure" in capsys.readouterr().err
    assert list(failed.iterdir()) == []
