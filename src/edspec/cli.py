"""Command-line front end: spectrum | fixedpoint | metric | evolve | validate.

Exit codes: 0 success, 1 configuration error, 2 solver error, 3 fixed-point
search found no levels, 4 validation failure.  All reports embed the parsed
configuration and the tool version, and identical configurations produce
byte-identical files.
"""

from __future__ import annotations

import argparse
import sys
import warnings
from pathlib import Path

import numpy as np

from . import __version__
from . import closed_form as cf
from .config import ConfigError, RunConfig, load_config, require
from .errors import SolverError
from .evolution import FVState, FVSystem, assemble_fv, conservation_report, eigenstate, evolve
from .fixedpoint import CollectResult, collect_physical
from .frozen_spectrum import classify_spectrum, decompose
from .operators import HOQuadratic, build_problem
from .physical_basis import (
    build_basis,
    build_K,
    build_L,
    build_metrics,
    projector_residual,
)
from .serialize import write_csv, write_json, write_matrix
from .validate import gaussian_state, run_all


def _report_header(cfg: RunConfig) -> dict:
    return {"config": cfg.echo, "version": __version__}


def cmd_spectrum(cfg: RunConfig, out_dir: Path) -> int:
    require(cfg, "model", "a [model] section")
    require(cfg, "grid", "a [grid] section")
    z = require(cfg, "spectrum_z", "a [spectrum] section with a z value")
    dec = decompose(build_problem(cfg.problem_kind, cfg.grid, cfg.model, z))
    rows = [
        [i, float(dec.eigenvalues[i].real), float(dec.eigenvalues[i].imag),
         bool(dec.reality_flags[i])]
        for i in range(dec.size)
    ]
    write_csv(out_dir / "spectrum.csv", ["index", "re", "im", "reality_flag"], rows)
    # broken conjugation symmetry is reported through the JSON classification
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        classification = classify_spectrum(dec)
    report = _report_header(cfg)
    report.update({
        "z": float(z),
        "n_eigenvalues": dec.size,
        "biorth_residual": dec.biorth_residual,
        "completeness_residual": dec.completeness_residual,
        "classification": {
            "real_indices": list(classification.real_indices),
            "conjugate_pairs": [list(p) for p in classification.conjugate_pairs],
            "unpaired_indices": list(classification.unpaired_indices),
            "conjugation_symmetric": classification.conjugation_symmetric,
        },
    })
    write_json(out_dir / "spectrum.json", report)
    return 0


def _closed_form_table(model: HOQuadratic, levels) -> list[dict]:
    params = cf.HOParams(model.A, model.E0)
    factor = cf.NUMERIC_TO_CLOSED
    table = []
    for level in levels:
        n, j = level.multi_index
        scaled = factor * level.energy
        candidates = [("plus", cf.spectrum_plus(params, n))]
        pair = cf.spectrum_minus(params, n)
        if pair is not None:
            candidates.append(("minus_upper", pair[0]))
            candidates.append(("minus_lower", pair[1]))
        family, closed = min(candidates, key=lambda c: abs(scaled - c[1]))
        table.append({
            "n": int(n),
            "j": int(j),
            "family": family,
            "numeric": float(level.energy),
            "scaled_numeric": float(scaled),
            "closed": float(closed),
            "abs_err": abs(scaled - closed),
            "rel_err": abs(scaled - closed) / abs(closed),
        })
    return table


def _collect_levels(cfg: RunConfig) -> CollectResult:
    require(cfg, "model", "a [model] section")
    require(cfg, "grid", "a [grid] section")
    require(cfg, "branches", "a [fixedpoint] section with branches")
    require(cfg, "windows", "a [fixedpoint] section with non-empty windows")
    return collect_physical(
        cfg.model, cfg.grid, cfg.branches, cfg.windows, cfg.problem_kind,
        steps=cfg.steps, refine_tol=cfg.refine_tol,
    )


def cmd_fixedpoint(cfg: RunConfig, out_dir: Path) -> int:
    result = _collect_levels(cfg)
    rows = [
        [lv.multi_index[0], lv.multi_index[1], lv.energy, lv.residual]
        for lv in result.levels
    ]
    write_csv(out_dir / "levels.csv", ["n", "j", "E_alpha", "residual"], rows)
    report = _report_header(cfg)
    report.update({
        "n_levels": len(result.levels),
        "levels": [
            {"n": int(lv.multi_index[0]), "j": int(lv.multi_index[1]),
             "energy": float(lv.energy), "residual": float(lv.residual)}
            for lv in result.levels
        ],
        "failures": [
            {"branch": int(f.branch_index), "window": list(f.window),
             "error": f.error, "message": f.message}
            for f in result.failures
        ],
        "diagnostics": [
            {"branch": int(d.branch_index), "window": list(d.window),
             "samples": d.samples, "bisection_steps": d.bisection_steps,
             "near_miss": d.near_miss}
            for d in result.diagnostics
        ],
    })
    # the closed forms are the Schrodinger-form oscillator spectrum
    if isinstance(cfg.model, HOQuadratic) and cfg.problem_kind == "schrodinger":
        report["closed_form_comparison"] = _closed_form_table(cfg.model, result.levels)
        report["convention_factor"] = cf.NUMERIC_TO_CLOSED
    write_json(out_dir / "fixedpoint.json", report)
    return 0 if result.levels else 3


def cmd_metric(cfg: RunConfig, out_dir: Path) -> int:
    result = _collect_levels(cfg)
    if not result.levels:
        print("no physical levels found in the configured windows", file=sys.stderr)
        return 3
    basis = build_basis(result.levels)
    K = build_K(basis)
    L = build_L(basis)
    suite = build_metrics(basis, K, L)
    report = _report_header(cfg)
    report.update({
        "n_levels": basis.size,
        "condition_R": basis.condition_R,
        "projector_residual": projector_residual(basis),
        "residual_K": suite.residual_K,
        "residual_L": suite.residual_L,
        "min_eig_mu": suite.min_eig_mu,
        "min_eig_nu": suite.min_eig_nu,
    })
    write_json(out_dir / "metric.json", report)
    if cfg.dump_matrices:
        write_matrix(out_dir / "K.txt", K)
        write_matrix(out_dir / "L.txt", L)
        write_matrix(out_dir / "mu.txt", suite.mu)
        write_matrix(out_dir / "nu.txt", suite.nu)
        write_matrix(out_dir / "R.txt", basis.R)
    return 0


def _initial_state(cfg: RunConfig, system: FVSystem) -> FVState:
    spec = cfg.evolve
    if spec.state == "gaussian":
        return gaussian_state(cfg.grid, spec.center, spec.width, spec.momentum)
    return eigenstate(system, spec.index)


def cmd_evolve(cfg: RunConfig, out_dir: Path) -> int:
    require(cfg, "model", "a [model] section")
    require(cfg, "grid", "a [grid] section")
    require(cfg, "evolve", "an [evolve] section")
    if cfg.problem_kind != "kleingordon":
        raise ConfigError(
            f"evolve needs [problem] kind = kleingordon, got {cfg.problem_kind!r}")
    z = cfg.spectrum_z if cfg.spectrum_z is not None else 0.0
    system = assemble_fv(build_problem(cfg.problem_kind, cfg.grid, cfg.model, z))
    state = _initial_state(cfg, system)
    trajectory = evolve(system, state, cfg.evolve.t_final, cfg.evolve.steps)
    report_data = conservation_report(trajectory, cfg.evolve.metric, system)
    rows = [
        [s.t, float(value), float(np.linalg.norm(s.stacked()) ** 2)]
        for s, value in zip(trajectory, report_data.pseudo_norms)
    ]
    write_csv(out_dir / "trajectory.csv", ["t", "pseudo_norm", "euclidean_norm"], rows)
    report = _report_header(cfg)
    report.update({
        "flag": "PASS" if report_data.passed else "FAIL",
        "drift": report_data.drift,
        "degenerate_norm": report_data.degenerate_norm,
        "spectrum_real": report_data.spectrum_real,
        "metric_intertwines": report_data.metric_intertwines,
        "intertwine_residual": report_data.intertwine_residual,
        "metric": cfg.evolve.metric,
        "steps": cfg.evolve.steps,
        "t_final": cfg.evolve.t_final,
        "z": z,
    })
    write_json(out_dir / "evolve.json", report)
    return 0


def cmd_validate(cfg: RunConfig | None, out_dir: Path, seed: int) -> int:
    if cfg is None:
        cfg = RunConfig()
    results = run_all(seed=seed, grid_sizes=cfg.validate_grid_sizes)
    width = max(len(r.name) for r in results)
    for r in results:
        print(f"{r.name:<{width}}  {'PASS' if r.passed else 'FAIL'}")
    report = _report_header(cfg)
    report.update({
        "seed": seed,
        "grid_sizes": list(cfg.validate_grid_sizes),
        "all_passed": all(r.passed for r in results),
        "criteria": [
            {"name": r.name, "passed": r.passed, "details": r.details}
            for r in results
        ],
    })
    write_json(out_dir / "validation.json", report)
    return 0 if report["all_passed"] else 4


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="edspec",
        description="Energy-dependent eigenvalue problems: frozen spectra, "
                    "fixed points, and quasi-Hermitian linear operators",
    )
    parser.add_argument("command",
                        choices=["spectrum", "fixedpoint", "metric", "evolve", "validate"])
    parser.add_argument("--config", help="path to the run configuration")
    parser.add_argument("--out-dir", default=".", help="directory for reports")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for randomized validation fixtures")
    args = parser.parse_args(argv)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        cfg = load_config(args.config) if args.config else None
        if args.command == "validate":
            return cmd_validate(cfg, out_dir, args.seed)
        if cfg is None:
            raise ConfigError("this command needs --config <path>")
        handler = {
            "spectrum": cmd_spectrum,
            "fixedpoint": cmd_fixedpoint,
            "metric": cmd_metric,
            "evolve": cmd_evolve,
        }[args.command]
        return handler(cfg, out_dir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except SolverError as exc:
        print(f"solver error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
