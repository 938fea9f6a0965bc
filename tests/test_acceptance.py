"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines stream.
Tolerances are pinned here and never loosened to make a run green.
"""

import csv
import itertools
import json
import time
from contextlib import contextmanager

import numpy as np
import pytest

from steerbound import (
    build_clifford_family,
    build_mub_family,
    canonical_quantum_assemblage,
    clifford_functional,
    dichotomic_functional,
    evaluate,
    fine_grained_bound,
    fine_grained_xi,
    gram_norm_identity_check,
    lhs_bound,
    mub_functional,
    numerical_radius,
    paper_values,
    quantum_bound,
    quantum_bound_seesaw,
    random_functional,
    violation,
)
from steerbound.cli import main as cli_main

# exact LHS value of the d=2 random functional at seed 7, recorded on the
# first oracle run and pinned as a regression anchor
RANDOM_D2_SEED7_LHS = 1.2071067811865475


@contextmanager
def criterion(number: int, description: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"acceptance {number:2d} FAIL ({time.perf_counter() - start:7.2f} s): {description}")
        raise
    print(f"acceptance {number:2d} PASS ({time.perf_counter() - start:7.2f} s): {description}")


def test_criterion_1_quantum_attainment():
    with criterion(1, "canonical assemblages attain the quantum value n for unbiased bases"):
        for d, n in ((2, 3), (3, 4), (5, 6), (7, 8)):
            start = time.perf_counter()
            functional = mub_functional(build_mub_family(d, n))
            attained = evaluate(functional, canonical_quantum_assemblage(functional))
            assert attained == pytest.approx(n, abs=1e-9)
            assert quantum_bound(functional).value == n
            assert time.perf_counter() - start < 1.0


def test_criterion_2_exact_lhs_qubit_triple():
    with criterion(2, "exact LHS bound at (d=2, n=3) equals (3+sqrt(3))/2 and its analytic bound"):
        functional = mub_functional(build_mub_family(2, 3))
        exact = lhs_bound(functional).value
        assert exact == pytest.approx((3 + np.sqrt(3)) / 2, abs=1e-9)
        uncertainty = paper_values(functional).lhs_upper["mub-uncertainty"]
        assert exact == pytest.approx(uncertainty, abs=1e-9)
        report = violation(functional)
        assert report.violation == pytest.approx(6 / (3 + np.sqrt(3)), abs=1e-6)


def test_criterion_3_analytic_dominance():
    with criterion(3, "exact LHS below both analytic bounds; violation above both proven rates"):
        cases = [(2, 3), (3, 4), (5, 6), (7, 4)]  # d=7 at reduced n under the cap
        for d, n in cases:
            start = time.perf_counter()
            functional = mub_functional(build_mub_family(d, n))
            exact = lhs_bound(functional).value
            gram = paper_values(functional).lhs_upper["mub-gram"]
            uncertainty = paper_values(functional).lhs_upper["mub-uncertainty"]
            assert exact <= min(gram, uncertainty) + 1e-9
            v_exact = quantum_bound(functional).value / exact
            assert v_exact >= n * np.sqrt(d) / (n + 1 + np.sqrt(d)) - 1e-9
            assert v_exact >= d * np.sqrt(n) / (np.sqrt(n) + d - 1) - 1e-9
            assert time.perf_counter() - start < 60.0


def test_criterion_4_clifford_exactness():
    with criterion(4, "anticommuting table: every strategy at sqrt(n)/2, violation sqrt(n)"):
        start = time.perf_counter()
        from steerbound import strategy_norms

        for n in range(1, 13):
            functional = clifford_functional(build_clifford_family(n))
            norms = strategy_norms(functional)
            assert norms.shape == (2**n,)
            assert np.abs(norms - np.sqrt(n) / 2).max() <= 1e-10
            s_lhs = lhs_bound(functional).value
            assert s_lhs == pytest.approx(np.sqrt(n) / 2, abs=1e-10)
            assert s_lhs <= np.sqrt(n / 2) + 1e-12
            s_q = quantum_bound(functional).value
            assert s_q == n / 2
            v = s_q / s_lhs
            assert v == pytest.approx(np.sqrt(n), abs=1e-9)
            assert v >= np.sqrt(n / 2) - 1e-9
        assert time.perf_counter() - start < 30.0


def test_criterion_5_dichotomic_exactness():
    with criterion(5, "dichotomic table: LHS sqrt(n) <= sqrt(2n), quantum value n"):
        for n in range(1, 13):
            functional = dichotomic_functional(build_clifford_family(n))
            s_lhs = lhs_bound(functional).value
            assert s_lhs == pytest.approx(np.sqrt(n), abs=1e-9)
            assert s_lhs <= np.sqrt(2 * n) + 1e-12
            s_q = quantum_bound(functional).value
            assert s_q == n
            v = s_q / s_lhs
            assert v == pytest.approx(np.sqrt(n), abs=1e-9)
            assert v >= np.sqrt(n / 2) - 1e-9


def test_criterion_6_gram_identity():
    with criterion(6, "frame operator and Gram matrix share their norm; scaled norm bounded"):
        rng = np.random.default_rng(2026)
        for d, n in ((2, 3), (3, 4)):
            family = build_mub_family(d, n)
            for _ in range(100):
                p = rng.random((n, d))
                p /= p.sum(axis=1, keepdims=True)
                report = gram_norm_identity_check(family, p)
                assert report.deviation <= 1e-8
                assert report.scaled_norm <= np.sqrt(d) + n + 1 + 1e-8


def test_criterion_7_fine_grained_exhaustive():
    with criterion(7, "fine-grained uncertainty bound holds for every outcome string"):
        for d, n in ((2, 3), (3, 4)):
            family = build_mub_family(d, n)
            bound = fine_grained_bound(d, n)
            best = max(
                fine_grained_xi(family, strategy)
                for strategy in itertools.product(range(d), repeat=n)
            )
            assert best <= bound + 1e-9
            if (d, n) == (2, 3):
                assert best == pytest.approx(bound, abs=1e-9)


def test_criterion_8_seesaw_attainment():
    with criterion(8, "see-saw reaches 99% of the quantum value on reference scenarios"):
        start = time.perf_counter()
        scenarios = [
            (mub_functional(build_mub_family(2, 3)), 3.0),
            (mub_functional(build_mub_family(3, 4)), 4.0),
            (clifford_functional(build_clifford_family(2)), 1.0),
            (clifford_functional(build_clifford_family(4)), 2.0),
        ]
        for functional, target in scenarios:
            result = quantum_bound_seesaw(
                functional, restarts=20, max_iters=500, tol=1e-10, seed=0
            )
            assert result.value >= 0.99 * target
            assert result.value <= target + 1e-7
        assert time.perf_counter() - start < 60.0


def test_criterion_9_random_regression():
    with criterion(9, "random functional at d=2, seed 7: stable pinned LHS value"):
        functional = random_functional(2, 7)
        first = lhs_bound(functional).value
        second = lhs_bound(functional).value
        assert abs(first - second) <= 1e-7
        envelope = sum(
            max(numerical_radius(functional.coefficients[x, a]) for a in range(2))
            for x in range(2)
        )
        assert first <= envelope + 1e-9
        assert first == pytest.approx(RANDOM_D2_SEED7_LHS, abs=1e-7)


def test_criterion_10_sweep_monotonicity(tmp_path):
    with criterion(10, "violation columns strictly increase along both sweeps"):
        start = time.perf_counter()
        for kind, flag, values in (("mub", "--d", "2,3,5"), ("clifford", "--n", "2,4,8")):
            out = tmp_path / f"{kind}.csv"
            assert cli_main(["sweep", "--kind", kind, flag, values, "--out", str(out)]) == 0
            lines = out.read_text().splitlines()
            assert lines[-1] == "# violation_strictly_increasing=true"
            rows = list(csv.DictReader(lines[:-1]))
            violations = [float(row["violation"]) for row in rows]
            assert all(b > a for a, b in zip(violations, violations[1:]))
        assert time.perf_counter() - start < 120.0


def test_criterion_11_thread_determinism(tmp_path):
    with criterion(11, "bounds reports identical for 1 and 8 worker threads"):
        inputs = [
            ("mub", ["generate", "--kind", "mub", "--d", "3", "--n", "4"]),
            ("dichotomic", ["generate", "--kind", "dichotomic", "--n", "12"]),
        ]
        for name, generate_args in inputs:
            functional = tmp_path / f"{name}.json"
            assert cli_main(generate_args + ["--out", str(functional)]) == 0
            payloads = []
            for threads in (1, 8):
                out = tmp_path / f"{name}_t{threads}.json"
                code = cli_main(
                    ["bounds", str(functional), "--threads", str(threads), "--out", str(out)]
                )
                assert code == 0
                doc = json.loads(out.read_text())
                doc["meta"].pop("timestamp")
                doc["report"]["diagnostics"].pop("timings")
                payloads.append(doc)
            assert payloads[0] == payloads[1]
