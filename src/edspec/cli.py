"""Command-line front end: spectrum | fixedpoint | metric | evolve | validate.

Exit codes: 0 success, 1 configuration error (a stray ``--seed`` or an
unusable ``--out-dir`` too), 2 solver error, 3 fixed-point search found no
levels, 4 validation failure.  All reports embed the parsed configuration
and the tool version, and identical configurations run with the same BLAS
thread count produce byte-identical files.  The bytes can depend on that
count, as OpenBLAS splits its products and sums differently across threads
(the ``spectrum`` reports can differ in the last digit between one and two
threads), so pin it, e.g. ``OPENBLAS_NUM_THREADS=1``.

``COMMANDS`` names what each command reads, and ``main`` checks it before
it creates ``--out-dir``; only ``evolve``'s initial state and duration,
which need the grid or the decomposition, are refused once it exists.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import __version__
from . import closed_form as cf
from .config import ConfigError, RunConfig, load_config
from .errors import SolverError
from .evolution import assemble_fv, conservation_report, eigenstate, evolve, gaussian_state
from .fixedpoint import CollectResult, collect_physical
from .frozen_spectrum import classify_spectrum, decompose
from .operators import HOQuadratic, build_problem
from .physical_basis import (
    build_basis,
    build_K,
    build_L,
    build_metrics,
    build_mu,
    build_nu,
    projector_residual,
)
from .serialize import write_csv, write_json, write_matrix
from .validate import run_all


def _report_header(cfg: RunConfig) -> dict:
    return {"config": cfg.echo, "version": __version__}


def cmd_spectrum(cfg: RunConfig, out_dir: Path) -> int:
    z = cfg.spectrum_z
    dec = decompose(build_problem(cfg.problem_kind, cfg.grid, cfg.model, z), vectors=False)
    write_csv(out_dir / "spectrum.csv", ["index", "re", "im", "reality_flag"],
              [np.arange(dec.size), dec.eigenvalues.real, dec.eigenvalues.imag,
               dec.reality_flags])
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
    return collect_physical(
        cfg.model, cfg.grid, cfg.branches, cfg.windows, cfg.problem_kind,
        steps=cfg.steps, refine_tol=cfg.refine_tol,
    )


def _search_record(result: CollectResult) -> dict:
    """The per-(branch, window) failures and diagnostics of a level search."""
    return {
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
    }


def cmd_fixedpoint(cfg: RunConfig, out_dir: Path) -> int:
    result = _collect_levels(cfg)
    levels = result.levels
    write_csv(out_dir / "levels.csv", ["n", "j", "E_alpha", "residual"],
              [[lv.multi_index[0] for lv in levels], [lv.multi_index[1] for lv in levels],
               [lv.energy for lv in levels], [lv.residual for lv in levels]])
    report = _report_header(cfg)
    report.update({
        "n_levels": len(result.levels),
        "levels": [
            {"n": int(lv.multi_index[0]), "j": int(lv.multi_index[1]),
             "energy": float(lv.energy), "residual": float(lv.residual)}
            for lv in result.levels
        ],
        **_search_record(result),
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
    suite = build_metrics(basis)
    report = _report_header(cfg)
    report.update({
        "n_levels": basis.size,
        "condition_R": basis.condition_R,
        "projector_residual": projector_residual(basis),
        "residual_K": suite.residual_K,
        "residual_L": suite.residual_L,
        "min_eig_mu": suite.min_eig_mu,
        "min_eig_nu": suite.min_eig_nu,
        **_search_record(result),
    })
    write_json(out_dir / "metric.json", report)
    if cfg.dump_matrices:
        write_matrix(out_dir / "K.txt", build_K(basis))
        write_matrix(out_dir / "L.txt", build_L(basis))
        write_matrix(out_dir / "mu.txt", build_mu(basis))
        write_matrix(out_dir / "nu.txt", build_nu(basis))
        write_matrix(out_dir / "R.txt", basis.R)
    return 0


def cmd_evolve(cfg: RunConfig, out_dir: Path) -> int:
    z = cfg.spectrum_z if cfg.spectrum_z is not None else 0.0
    system = assemble_fv(build_problem(cfg.problem_kind, cfg.grid, cfg.model, z))
    spec = cfg.evolve
    try:
        state = (gaussian_state(cfg.grid, spec.center, spec.width, spec.momentum)
                 if spec.state == "gaussian" else eigenstate(system, spec.index))
        trajectory = evolve(system, state, spec.t_final, spec.steps)
    except ValueError as exc:
        # the state and the duration the configuration asks for cannot be represented
        raise ConfigError(str(exc)) from None
    report_data = conservation_report(trajectory, spec.metric, system)
    write_csv(out_dir / "trajectory.csv", ["t", "pseudo_norm", "euclidean_norm"],
              [trajectory.t, report_data.pseudo_norms, report_data.euclidean_norms])
    report = _report_header(cfg)
    report.update({
        "flag": "PASS" if report_data.passed else "FAIL",
        "drift": report_data.drift,
        "degenerate_norm": report_data.degenerate_norm,
        "spectrum_real": report_data.spectrum_real,
        "metric_intertwines": report_data.metric_intertwines,
        "intertwine_residual": report_data.intertwine_residual,
        "metric": spec.metric,
        "steps": spec.steps,
        "t_final": spec.t_final,
        "z": z,
    })
    write_json(out_dir / "evolve.json", report)
    return 0


def cmd_validate(cfg: RunConfig, out_dir: Path, seed: int = 0) -> int:
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


_MODEL_GRID = (("model", "a [model] section"), ("grid", "a [grid] section"))
_FIXEDPOINT = _MODEL_GRID + (("branches", "a [fixedpoint] section with branches"),
                             ("windows", "a [fixedpoint] section with non-empty windows"))

# Each command's handler, the RunConfig fields it reads in the order they are
# checked (a command that reads any needs --config), each with the words "this
# command needs ..." names it by, and the [problem] kind it needs, if any.
COMMANDS = {
    "spectrum": (cmd_spectrum, _MODEL_GRID + (
        ("spectrum_z", "a [spectrum] section with a z value"),), None),
    "fixedpoint": (cmd_fixedpoint, _FIXEDPOINT, None),
    "metric": (cmd_metric, _FIXEDPOINT, None),
    "evolve": (cmd_evolve, _MODEL_GRID + (("evolve", "an [evolve] section"),), "kleingordon"),
    "validate": (cmd_validate, (), None),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="edspec",
        description="Energy-dependent eigenvalue problems: frozen spectra, "
                    "fixed points, and quasi-Hermitian linear operators",
    )
    parser.add_argument("command", choices=list(COMMANDS))
    parser.add_argument("--config", help="path to the run configuration")
    parser.add_argument("--out-dir", default=".", help="directory for reports")
    parser.add_argument("--seed", type=int,
                        help="seed for the randomized fixtures of validate (default 0)")
    args = parser.parse_args(argv)

    out_dir = Path(args.out_dir)
    try:
        cfg = load_config(args.config) if args.config else RunConfig()
        if args.command != "validate" and args.seed is not None:
            raise ConfigError(f"--seed is read by validate only, not by {args.command}")
        handler, needs, kind = COMMANDS[args.command]
        if needs and not args.config:
            raise ConfigError("this command needs --config <path>")
        if args.seed is not None and args.seed < 0:
            raise ConfigError(f"--seed must be >= 0, got {args.seed}")
        for attr, what in needs:
            if getattr(cfg, attr) in (None, []):
                raise ConfigError(f"this command needs {what}")
        if kind not in (None, cfg.problem_kind):
            raise ConfigError(f"{args.command} needs [problem] kind = {kind}, "
                              f"got {cfg.problem_kind!r}")
        # created only once the configuration holds what the command reads
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create --out-dir {out_dir}: {exc}") from None
        # only validate is handed a seed; it runs seed 0 when none is given
        seed = () if args.seed is None else (args.seed,)
        return handler(cfg, out_dir, *seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except SolverError as exc:
        print(f"solver error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
