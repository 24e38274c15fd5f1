"""Acceptance gate: one test per release criterion, at the pinned tolerances.

Every test prints a single PASS/FAIL line (visible with -s or in failure
output) and asserts both the criterion and its runtime budget.
"""

import time

import pytest

from edspec.cli import main
from edspec.validate import (
    criterion_biorthogonal,
    criterion_closed_form,
    criterion_convergence,
    criterion_emergence,
    criterion_fv_square_law,
    criterion_kl_contract,
    criterion_pseudo_unitarity,
)


def _run(criterion, budget_seconds):
    start = time.perf_counter()
    result = criterion()
    elapsed = time.perf_counter() - start
    print(f"[{'PASS' if result.passed else 'FAIL'}] {result.name} "
          f"({elapsed:.2f}s of {budget_seconds}s budget)")
    assert result.passed, result.details
    assert elapsed < budget_seconds, f"runtime {elapsed:.1f}s exceeds {budget_seconds}s"
    return result


def test_criterion_1_closed_form_self_consistency():
    result = _run(criterion_closed_form, budget_seconds=1.0)
    assert result.details["max_quadratic_residual"] <= 1e-12
    assert result.details["presence_matches_n_max"]


def test_criterion_2_emergence_rule():
    result = _run(criterion_emergence, budget_seconds=1.0)
    for sweep, n in zip(result.details["sweeps"], range(4)):
        assert sweep["count_at"] == sweep["count_below"] + 1 == n + 1


def test_criterion_3_numeric_vs_closed_form():
    result = _run(criterion_convergence, budget_seconds=60.0)
    assert all(3.0 <= r <= 5.0 for r in result.details["error_ratios"])
    assert max(result.details["plus_family_rel_errors"]) <= 1e-3
    assert max(result.details["both_families_rel_errors"]) <= 1e-3
    assert result.details["minus_pair_found"]
    assert result.details["fit_r_squared"] > 0.9999


def test_criterion_3_scales_error_ratios_with_the_spacing():
    # h shrinks by 1.5 and 4/3 here, so second order predicts ratios 2.26 and 1.78
    assert criterion_convergence((200, 300, 400)).passed


def test_criterion_4_biorthogonal_machinery():
    result = _run(criterion_biorthogonal, budget_seconds=30.0)
    for key, value in result.details.items():
        assert value <= 1e-8, (key, value)


def test_criterion_5_kl_contract():
    result = _run(criterion_kl_contract, budget_seconds=5.0)
    d = result.details
    assert d["constant_mass_K_error"] <= 1e-8
    assert d["constant_mass_L_error"] <= 1e-8
    assert d["two_level_right_action_error"] <= 1e-10
    assert d["two_level_left_action_error"] <= 1e-10
    assert d["two_level_residual_K"] <= 1e-9
    assert d["two_level_residual_L"] <= 1e-9


def test_criterion_6_fv_square_law():
    result = _run(criterion_fv_square_law, budget_seconds=5.0)
    assert result.details["max_pairing_residual"] <= 1e-8


def test_criterion_7_pseudo_unitarity():
    result = _run(criterion_pseudo_unitarity, budget_seconds=10.0)
    assert result.details["pseudo_norm_drift"] <= 1e-8
    assert result.details["euclidean_variation"] > 1e-3


def test_criterion_8_validate_determinism(tmp_path):
    first = tmp_path / "first"
    second = tmp_path / "second"
    start = time.perf_counter()
    assert main(["validate", "--out-dir", str(first)]) == 0
    assert main(["validate", "--out-dir", str(second)]) == 0
    elapsed = time.perf_counter() - start
    bytes_first = (first / "validation.json").read_bytes()
    bytes_second = (second / "validation.json").read_bytes()
    identical = bytes_first == bytes_second
    print(f"[{'PASS' if identical else 'FAIL'}] validate-determinism ({elapsed:.2f}s)")
    assert identical
