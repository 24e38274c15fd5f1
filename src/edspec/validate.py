"""Built-in verification suite behind the ``validate`` command.

Each check returns a CriterionResult with deterministic numeric details, so
repeated runs on the same configuration serialize to identical reports.
Wall-clock budgets are asserted by the test suite, not recorded here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import closed_form as cf
from . import errors
from .evolution import assemble_fv, conservation_report, evolve, gaussian_state
from .fixedpoint import PhysicalLevel, collect_physical
from .frozen_spectrum import decompose, eta_from_decomposition
from .operators import ConstantMass, Grid, HOQuadratic, build_problem
from .physical_basis import (
    build_basis,
    build_K,
    build_L,
    build_metrics,
    build_mu,
    build_nu,
    levels_from_matrix,
)

#: Reference discretization box for the convergence study.
BOX = (-12.0, 12.0)
#: Grid sizes of the convergence study when ``[validate] grid_sizes`` is unset.
GRID_SIZES = (100, 200, 400)


@dataclass(frozen=True)
class CriterionResult:
    name: str
    passed: bool
    details: dict


def shifted_random_matrix(rng: np.random.Generator, n: int) -> np.ndarray:
    """Non-Hermitian matrix with well-separated eigenvalues near 0..n-1."""
    noise = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(n)
    return np.diag(np.arange(n, dtype=float)) + 0.5 * noise


def pseudo_hermitian_pair(rng: np.random.Generator, n: int):
    """(H, eta0) with H = eta0^-1 M, M Hermitian, eta0 Hermitian positive.

    By construction H has a real spectrum and satisfies H^dagger eta0 = eta0 H.
    """
    w = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    eta0 = np.eye(n) + 0.25 * (w @ w.conj().T) / n
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    m = 0.5 * (m + m.conj().T) + np.diag(np.arange(n, dtype=float))
    return np.linalg.solve(eta0, m), eta0


def criterion_closed_form(seed: int = 0) -> CriterionResult:
    """1. Every emitted closed-form energy satisfies its defining quadratic."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    presence_ok = True
    for _ in range(1000):
        model = HOQuadratic(A=rng.uniform(0.1, 20.0), E0=rng.uniform(-5.0, 5.0))
        nmax = cf.n_max(model)
        for n in range(6):
            worst = max(worst, cf.quadratic_residual(
                model, n, cf.spectrum_plus(model, n), "plus"))
        top = -1 if nmax is None else nmax
        for n in range(top + 3):
            pair = cf.spectrum_minus(model, n)
            expected = nmax is not None and n <= nmax
            if (pair is not None) != expected:
                presence_ok = False
            if pair is not None:
                for value in pair:
                    worst = max(worst, cf.quadratic_residual(model, n, value, "minus"))
    passed = presence_ok and worst <= 1e-12
    return CriterionResult(
        name="closed-form-self-consistency",
        passed=passed,
        details={"max_quadratic_residual": worst, "presence_matches_n_max": presence_ok},
    )


def criterion_emergence() -> CriterionResult:
    """2. The finite family grows by exactly one pair at each threshold."""
    e0 = 1.0
    counts_ok = True
    observed = []
    for n in range(4):
        threshold = (8 * n + 4) / e0 ** 2
        below = cf.full_spectrum(HOQuadratic(threshold - 1e-9, e0), 0).minus_family
        at = cf.full_spectrum(HOQuadratic(threshold, e0), 0).minus_family
        observed.append({"threshold_A": threshold, "count_below": len(below),
                         "count_at": len(at)})
        if len(below) != n or len(at) != n + 1:
            counts_ok = False
    return CriterionResult(
        name="emergence-thresholds",
        passed=counts_ok,
        details={"sweeps": observed},
    )


def _pipeline_roots(model, grid, branches, windows, steps=48) -> dict:
    """Ascending fixed points of each branch, from one search of the windows.

    The first failed (branch, window) pair is raised as its own error type.
    """
    result = collect_physical(model, grid, branches, windows, steps=steps)
    if result.failures:
        failure = result.failures[0]
        raise getattr(errors, failure.error)(failure.message)
    roots = {n: [] for n in branches}
    for level in result.levels:
        roots[level.multi_index[0]].append(level.energy)
    return roots


def criterion_convergence(grid_sizes=GRID_SIZES) -> CriterionResult:
    """3. Pipeline fixed points converge at second order onto the closed forms.

    The discrete fixed points approach the closed-form values at exactly half
    their scale (documented full-line convention); comparisons apply
    ``closed_form.NUMERIC_TO_CLOSED``.
    """
    sizes = tuple(sorted(grid_sizes))
    factor = cf.NUMERIC_TO_CLOSED
    details: dict = {"grid_sizes": list(sizes), "convention_factor": factor}

    # Convergence study: A=1, E0=0, branches 0..2; exact limits sqrt(2n+1).
    model = HOQuadratic(1.0, 0.0)
    abs_errors = {n: [] for n in range(3)}
    finest_rel = []
    for size in sizes:
        grid = Grid(BOX[0], BOX[1], size)
        found = _pipeline_roots(model, grid, range(3), [(0.5, 4.0)])
        for n, roots in found.items():
            closed = cf.spectrum_plus(model, n)
            exact = closed / factor
            abs_errors[n].append(abs(roots[0] - exact) if roots else np.inf)
            if size == sizes[-1]:
                finest_rel.append(abs(factor * roots[0] - closed) / closed if roots else np.inf)
    ratios = []
    for n in range(3):
        for k in range(len(sizes) - 1):
            ratios.append(abs_errors[n][k] / max(abs_errors[n][k + 1], 1e-300))
    # second order predicts each ratio as the squared ratio of the spacings,
    # h = (BOX width) / (size - 1); accept 0.75-1.25 times it ([3, 5] when h halves)
    predicted = [((sizes[k + 1] - 1) / (sizes[k] - 1)) ** 2 for k in range(len(sizes) - 1)]
    ratio_ok = all(0.75 * p <= r <= 1.25 * p for r, p in zip(ratios, predicted * 3))
    details["error_ratios"] = ratios
    details["plus_family_rel_errors"] = finest_rel

    # Both families at the finest grid: A=1.5, E0=2 has one minus pair.
    model2 = HOQuadratic(1.5, 2.0)
    grid = Grid(BOX[0], BOX[1], sizes[-1])
    roots2 = _pipeline_roots(model2, grid, [0], [(0.05, 1.9), (2.1, 6.0)])[0]
    pair = cf.spectrum_minus(model2, 0)
    closed2 = [pair[1], pair[0], cf.spectrum_plus(model2, 0)]
    if len(roots2) == 3:
        both_rel = [abs(factor * z - c) / c for z, c in zip(roots2, closed2)]
    else:
        both_rel = [np.inf]
    details["both_families_rel_errors"] = both_rel
    details["minus_pair_found"] = len(roots2) == 3

    # Functional form: E^2 = E0*E + (8n+4)/(4A) must regress to R^2 > 0.9999.
    # The window keeps clear of the mass singularity at z = E0, where the
    # state width varies too fast for coarse continuation steps.
    found = _pipeline_roots(model2, grid, range(4), [(2.2, 3.6)], steps=32)
    fit_roots = [got[-1] if got else np.nan for got in found.values()]
    energies = np.array(fit_roots)
    if np.all(np.isfinite(energies)):
        design = np.column_stack([energies, np.ones(4), np.arange(4.0)])
        target = energies ** 2
        coef, *_ = np.linalg.lstsq(design, target, rcond=None)
        ss_res = float(np.sum((target - design @ coef) ** 2))
        ss_tot = float(np.sum((target - target.mean()) ** 2))
        r_squared = 1.0 - ss_res / ss_tot
        details["fit_coefficients"] = [float(c) for c in coef]
    else:
        r_squared = 0.0
        details["fit_coefficients"] = []
    details["fit_r_squared"] = r_squared

    match_ok = max(finest_rel, default=np.inf) <= 1e-3 and max(both_rel) <= 1e-3
    passed = ratio_ok and match_ok and r_squared > 0.9999
    return CriterionResult(
        name="numeric-vs-closed-form",
        passed=passed,
        details=details,
    )


def criterion_biorthogonal(seed: int = 0) -> CriterionResult:
    """4. Bi-orthogonality, completeness, reconstruction, metric intertwining."""
    rng = np.random.default_rng(seed)
    sizes = [4, 8, 12, 16, 24, 32, 48, 64]
    worst = {"biorth": 0.0, "completeness": 0.0, "reconstruction": 0.0,
             "intertwining": 0.0}
    for i in range(100):
        n = sizes[i % len(sizes)]
        if i % 5 < 3:
            h = shifted_random_matrix(rng, n)
            dec = decompose(h)
        else:
            h, _ = pseudo_hermitian_pair(rng, n)
            dec = decompose(h)
            eta = eta_from_decomposition(dec)
            rel = np.linalg.norm(h.conj().T @ eta - eta @ h) / (
                np.linalg.norm(h) * np.linalg.norm(eta))
            worst["intertwining"] = max(worst["intertwining"], float(rel))
        worst["biorth"] = max(worst["biorth"], dec.biorth_residual)
        worst["completeness"] = max(worst["completeness"], dec.completeness_residual)
        rebuilt = (dec.right_kets * dec.eigenvalues) @ dec.left_bras.conj().T
        rel = np.linalg.norm(rebuilt - h) / np.linalg.norm(h)
        worst["reconstruction"] = max(worst["reconstruction"], float(rel))
    passed = all(v <= 1e-8 for v in worst.values())
    return CriterionResult(
        name="biorthogonal-machinery",
        passed=passed,
        details={f"max_{k}_residual": v for k, v in worst.items()},
    )


def two_level_fixture() -> list[PhysicalLevel]:
    """Synthetic pair of levels with a non-trivial triangular overlap matrix."""
    c, s = 0.6, 0.8
    return [
        PhysicalLevel(multi_index=(0, 0), energy=1.0,
                      right_ket=np.array([1.0, 0.0], complex),
                      left_bra=np.array([1.0, 0.0], complex), residual=0.0),
        PhysicalLevel(multi_index=(1, 0), energy=2.5,
                      right_ket=np.array([c, s], complex),
                      left_bra=np.array([0.0, 1.0 / s], complex), residual=0.0),
    ]


def criterion_kl_contract() -> CriterionResult:
    """5. K and L collapse to H in the energy-independent limit and keep
    their one-sided actions on the synthetic two-level set."""
    grid = Grid(-6.0, 6.0, 12)
    bands = build_problem("kleingordon", grid, ConstantMass(1.0), 0.0)
    basis = build_basis(levels_from_matrix(bands))
    h = np.asarray(bands)
    K = build_K(basis)
    L = build_L(basis)
    details = {
        "constant_mass_K_error": float(np.linalg.norm(K - h)),
        "constant_mass_L_error": float(np.linalg.norm(L - h)),
        "constant_mass_mu_error": float(np.linalg.norm(build_mu(basis) - np.eye(12))),
        "constant_mass_nu_error": float(np.linalg.norm(build_nu(basis) - np.eye(12))),
    }

    basis2 = build_basis(two_level_fixture())
    K2 = build_K(basis2)
    L2 = build_L(basis2)
    suite2 = build_metrics(basis2)
    right_err = 0.0
    left_err = 0.0
    for level in basis2.levels:
        right_err = max(right_err, float(np.linalg.norm(
            K2 @ level.right_ket - level.energy * level.right_ket)))
        left_err = max(left_err, float(np.linalg.norm(
            level.left_bra.conj() @ L2 - level.energy * level.left_bra.conj())))
    details.update({
        "two_level_right_action_error": right_err,
        "two_level_left_action_error": left_err,
        "two_level_residual_K": suite2.residual_K,
        "two_level_residual_L": suite2.residual_L,
    })
    passed = (
        details["constant_mass_K_error"] <= 1e-8
        and details["constant_mass_L_error"] <= 1e-8
        and right_err <= 1e-10 and left_err <= 1e-10
        and suite2.residual_K <= 1e-9 and suite2.residual_L <= 1e-9
    )
    return CriterionResult(name="kl-contract", passed=passed, details=details)


def criterion_fv_square_law(seed: int = 0) -> CriterionResult:
    """6. Block-generator eigenvalues pair as +-sqrt(lambda) over spec(H)."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for i in range(100):
        n = 1 + i % 16
        h = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        system = assemble_fv(h)
        fv_eigs = np.sort_complex(np.linalg.eigvals(system.h_sr))
        roots = np.sqrt(np.linalg.eigvals(h).astype(complex))
        expected = np.sort_complex(np.concatenate([roots, -roots]))
        worst = max(worst, float(np.abs(fv_eigs - expected).max()
                                 / max(np.linalg.norm(h), 1e-300)))
    passed = worst <= 1e-8
    return CriterionResult(
        name="fv-square-law",
        passed=passed,
        details={"max_pairing_residual": worst},
    )


def criterion_pseudo_unitarity() -> CriterionResult:
    """7. The swap metric conserves the pseudo-norm where the Euclidean norm
    visibly oscillates."""
    grid = Grid(BOX[0], BOX[1], 120)
    system = assemble_fv(build_problem("kleingordon", grid, ConstantMass(1.0), 0.0))
    state = gaussian_state(grid, center=0.0, width=1.5, momentum=2.0)
    report = conservation_report(evolve(system, state, t_final=10.0, steps=200), "swap", system)
    euclid = report.euclidean_norms
    euclid_variation = float(np.abs(euclid - euclid[0]).max() / euclid[0])
    passed = report.passed and report.drift <= 1e-8 and euclid_variation > 1e-3
    return CriterionResult(
        name="pseudo-unitarity",
        passed=passed,
        details={
            "pseudo_norm_drift": report.drift,
            "euclidean_variation": euclid_variation,
            "metric_intertwine_residual": report.intertwine_residual,
            "spectrum_real": report.spectrum_real,
        },
    )


def run_all(seed: int = 0, grid_sizes=GRID_SIZES) -> list[CriterionResult]:
    checks = [
        ("closed-form-self-consistency", lambda: criterion_closed_form(seed)),
        ("emergence-thresholds", criterion_emergence),
        ("numeric-vs-closed-form", lambda: criterion_convergence(grid_sizes)),
        ("biorthogonal-machinery", lambda: criterion_biorthogonal(seed)),
        ("kl-contract", criterion_kl_contract),
        ("fv-square-law", lambda: criterion_fv_square_law(seed)),
        ("pseudo-unitarity", criterion_pseudo_unitarity),
    ]
    results = []
    for name, check in checks:
        try:
            results.append(check())
        except errors.SolverError as exc:
            # an under-resolved configuration may break the pipeline outright;
            # that is a failed criterion, not a crash
            results.append(CriterionResult(
                name=name, passed=False,
                details={"error": type(exc).__name__, "message": str(exc)},
            ))
    return results
