"""Output checks that do not use the code under test.

Each check reads the report files of one request and returns the list of
reasons it failed (empty when the output is correct).  Operators are
assembled here from the drawn parameters, the oscillator roots come from
their closed form, and reference spectra from LAPACK through numpy and
scipy; nothing is imported from the program.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal

import gen

#: |E_n(z*) - z*| allowed at a reported level, relative to 1 + |z*|.  The
#: bisection stops at |dz| <= 1e-10 and |dE/dz - 1| stays below ~10 on the
#: generated windows, so honest levels sit near 1e-9.
LEVEL_RESIDUAL_TOL = 1e-7
#: Multiple of the leading-order discretization shift allowed between a
#: numeric level and its closed-form root.
GRID_SAFETY = 4.0
#: Spectrum agreement with the reference eigensolver, relative to max |E|.
SPECTRUM_TOL = 1e-9
#: Pseudo-norm drift accepted for the conserving swap metric.
DRIFT_TOL = 1e-8
#: Residuals reported by metric.json must stay below this.
METRIC_RESIDUAL_TOL = 1e-6
#: Trace of a dumped K or L against the sum of the reference levels.
TRACE_TOL = 1e-7


def _grid_x(n_points: int) -> tuple[np.ndarray, float]:
    x = np.linspace(-gen.BOX, gen.BOX, n_points)
    return x, 2.0 * gen.BOX / (n_points - 1)


def schrodinger_bands(n_points: int, two_m: float) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal and off-diagonal of (1/(2m))(-d2/dx2) + x^2, 3-point Dirichlet."""
    x, h = _grid_x(n_points)
    k = 1.0 / (two_m * h * h)
    return 2.0 * k + x * x, np.full(n_points - 1, -k)


def schrodinger_dense(n_points: int, two_m: float) -> np.ndarray:
    d, e = schrodinger_bands(n_points, two_m)
    return np.diag(d) + np.diag(e, 1) + np.diag(e, -1)


def branch_value(n_points: int, two_m: float, n: int) -> float:
    """n-th eigenvalue of the frozen Schroedinger matrix."""
    d, e = schrodinger_bands(n_points, two_m)
    return float(eigvalsh_tridiagonal(d, e, select="i", select_range=(n, n))[0])


def oscillator_roots(A: float, E0: float, n: int) -> list[float]:
    """Fixed points of branch n on the full line: z A |z - E0| = 2n + 1, z > 0.

    These are the tabulated closed-form energies divided by the documented
    numeric-to-closed factor 2.
    """
    pair = gen.minus_pair(A, E0, n) if E0 > 0 else None
    return sorted([gen.plus_root(A, E0, n), *(pair or ())])


def grid_tolerance(A: float, E0: float, n: int, z: float, h: float) -> float:
    """Allowed |z_numeric - z_closed| for branch n on spacing h.

    The 3-point Laplacian lowers oscillator level n by about
    h^2 (2n^2 + 2n + 1) / 16 at every mass; the fixed point moves by that
    shift divided by |d(E_n(z) - z)/dz| at the root.
    """
    slope = abs(z / (z - E0) + 1.0) if z > E0 else abs(z / (E0 - z) - 1.0)
    shift = h * h * (2 * n * n + 2 * n + 1) / 16.0
    return GRID_SAFETY * shift / max(slope, 1e-3) + 1e-9


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _read_json(path: Path) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def _expected_levels(spec: dict) -> dict:
    """{branch: sorted closed-form roots inside the windows}."""
    out = {}
    for n in spec["branches"]:
        out[n] = [z for z in oscillator_roots(spec["A"], spec["E0"], n)
                  if any(lo < z < hi for lo, hi in spec["windows"])]
    return out


def _check_level(spec: dict, n: int, j: int, energy: float, expected: dict) -> list[str]:
    roots = expected.get(n, [])
    where = f"level (n={n}, j={j}) at z={energy!r}"
    if j >= len(roots):
        return [f"{where}: branch {n} has only {len(roots)} roots in the windows"]
    _, h = _grid_x(spec["n_points"])
    nearest = min(range(len(roots)), key=lambda k: abs(roots[k] - energy))
    problems = []
    if nearest != j:
        problems.append(f"{where}: nearest closed-form root is #{nearest}, not #{j}")
    tol = grid_tolerance(spec["A"], spec["E0"], n, roots[j], h)
    if abs(energy - roots[j]) > tol:
        problems.append(f"{where}: closed form {roots[j]!r} differs by "
                        f"{abs(energy - roots[j]):.3e} > {tol:.3e}")
    two_m = (spec["A"] * (energy - spec["E0"])) ** 2
    residual = abs(branch_value(spec["n_points"], two_m, n) - energy)
    if residual > LEVEL_RESIDUAL_TOL * (1.0 + abs(energy)):
        problems.append(f"{where}: |E_n(z) - z| = {residual:.3e} on the reference operator")
    return problems


def check_fixedpoint(spec: dict, out_dir: Path) -> list[str]:
    report = _read_json(out_dir / "fixedpoint.json")
    rows = _read_csv(out_dir / "levels.csv")
    expected = _expected_levels(spec)
    problems = [f"search failure: {f}" for f in report["failures"]]
    count = sum(len(v) for v in expected.values())
    if report["n_levels"] != count or len(report["levels"]) != count or len(rows) != count:
        problems.append(f"found {report['n_levels']} levels ({len(rows)} csv rows), "
                        f"closed form has {count} in the windows")
    for level, row in zip(report["levels"], rows):
        if (int(row["n"]), int(row["j"]), float(row["E_alpha"])) != (
                level["n"], level["j"], level["energy"]):
            problems.append(f"levels.csv row {row} disagrees with fixedpoint.json")
        problems += _check_level(spec, level["n"], level["j"], level["energy"], expected)
    if report.get("convention_factor") != 2.0:
        problems.append(f"convention factor {report.get('convention_factor')!r}, expected 2")
    for row in report.get("closed_form_comparison", []):
        roots = oscillator_roots(spec["A"], spec["E0"], row["n"])
        if min(abs(row["closed"] / 2.0 - r) for r in roots) > 1e-12 * (1.0 + row["closed"]):
            problems.append(f"closed-form table entry {row['closed']!r} for n={row['n']} "
                            "is not twice a root of z A |z - E0| = 2n + 1")
    return problems


def _check_metric_report(report: dict, count: int) -> list[str]:
    problems = []
    if report["n_levels"] != count:
        problems.append(f"metric basis has {report['n_levels']} levels, expected {count}")
    for key in ("residual_K", "residual_L"):
        if not report[key] <= METRIC_RESIDUAL_TOL:
            problems.append(f"{key} = {report[key]!r} above {METRIC_RESIDUAL_TOL}")
    for key in ("min_eig_mu", "min_eig_nu"):
        if not report[key] > 0.0:
            problems.append(f"{key} = {report[key]!r} is not positive")
    if not 1.0 <= report["condition_R"] < math.inf:
        problems.append(f"condition_R = {report['condition_R']!r}")
    return problems


def check_levels_metric(spec: dict, out_dir: Path) -> list[str]:
    count = sum(len(v) for v in _expected_levels(spec).values())
    return _check_metric_report(_read_json(out_dir / "metric.json"), count)


def check_spectrum(spec: dict, out_dir: Path) -> list[str]:
    model = spec["model"]
    if model["kind"] == "constant":
        two_m = 2.0 * model["m"]
    else:
        two_m = (model["A"] * (spec["z"] - model["E0"])) ** 2
    reference = np.linalg.eigvalsh(schrodinger_dense(spec["n_points"], two_m))
    rows = _read_csv(out_dir / "spectrum.csv")
    report = _read_json(out_dir / "spectrum.json")
    problems = []
    if len(rows) != spec["n_points"] or report["n_eigenvalues"] != spec["n_points"]:
        return [f"{len(rows)} csv rows / {report['n_eigenvalues']} eigenvalues "
                f"for N={spec['n_points']}"]
    re = np.sort(np.array([float(r["re"]) for r in rows]))
    im = np.array([float(r["im"]) for r in rows])
    err = float(np.abs(re - reference).max())
    if err > SPECTRUM_TOL * float(np.abs(reference).max()):
        problems.append(f"eigenvalues differ from the reference by {err:.3e}")
    if np.any(im != 0.0) or not all(r["reality_flag"] == "1" for r in rows):
        problems.append("a Hermitian spectrum is reported with complex entries")
    cls = report["classification"]
    if len(cls["real_indices"]) != spec["n_points"] or cls["conjugate_pairs"] \
            or cls["unpaired_indices"]:
        problems.append("classification is not all-real")
    for key in ("biorth_residual", "completeness_residual"):
        if not report[key] <= 1e-8:
            problems.append(f"{key} = {report[key]!r}")
    return problems


def _read_dump(path: Path, shape: tuple) -> tuple[list[str], np.ndarray | None]:
    """Header, row and token counts of a dense dump; parses it when asked."""
    lines = path.read_text(encoding="utf-8").split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines or lines[0] != f"{shape[0]} {shape[1]}":
        return [f"{path.name}: header {lines[0] if lines else ''!r}, expected {shape}"], None
    rows = lines[1:]
    if len(rows) != shape[0]:
        return [f"{path.name}: {len(rows)} rows, expected {shape[0]}"], None
    tokens = [row.split(" ") for row in rows]
    bad = [i for i, t in enumerate(tokens) if len(t) != shape[1]]
    if bad:
        return [f"{path.name}: row {bad[0]} has {len(tokens[bad[0]])} tokens, "
                f"expected {shape[1]}"], None
    return [], np.array([[complex(t) for t in row] for row in tokens])


def check_dump(spec: dict, out_dir: Path) -> list[str]:
    report = _read_json(out_dir / "metric.json")
    count = len(spec["branches"])
    problems = _check_metric_report(report, count)
    n = spec["n_points"]
    reference = [branch_value(n, 2.0 * spec["m"], b) for b in spec["branches"]]
    for name in ("K", "L", "mu", "nu"):
        found, matrix = _read_dump(out_dir / f"{name}.txt", (n, n))
        problems += found
        if matrix is not None and name in ("K", "L"):
            trace = matrix.trace()
            if abs(trace - sum(reference)) > TRACE_TOL * (1.0 + sum(reference)):
                problems.append(f"trace({name}) = {trace!r}, reference levels sum to "
                                f"{sum(reference)!r}")
    found, R = _read_dump(out_dir / "R.txt", (count, count))
    problems += found
    if R is not None and np.abs(np.diag(R) - 1.0).max() > 1e-8:
        problems.append("R has a diagonal entry away from 1")
    return problems


def check_evolve(spec: dict, out_dir: Path) -> list[str]:
    report = _read_json(out_dir / "evolve.json")
    rows = _read_csv(out_dir / "trajectory.csv")
    problems = []
    swap = spec["metric"] == "swap"
    if report["flag"] != ("PASS" if swap else "FAIL"):
        problems.append(f"{spec['metric']} metric reported {report['flag']}")
    if report["steps"] != spec["steps"] or report["metric"] != spec["metric"]:
        problems.append("evolve.json echoes the wrong steps or metric")
    if len(rows) != spec["steps"] + 1:
        return problems + [f"{len(rows)} trajectory rows, expected {spec['steps'] + 1}"]
    t = np.array([float(r["t"]) for r in rows])
    pn = np.array([float(r["pseudo_norm"]) for r in rows])
    euclid = np.array([float(r["euclidean_norm"]) for r in rows])
    grid = spec["t_final"] * np.arange(spec["steps"] + 1) / spec["steps"]
    if np.abs(t - grid).max() > 1e-12 * (1.0 + spec["t_final"]):
        problems.append("trajectory times are off the uniform grid")
    if swap:
        drift = float(np.abs(pn - pn[0]).max() / abs(pn[0]))
        if not drift <= DRIFT_TOL or not report["drift"] <= DRIFT_TOL:
            problems.append(f"swap drift {drift:.3e} (reported {report['drift']!r})")
    elif np.abs(pn - euclid).max() > 1e-8 * euclid.max():
        problems.append("identity pseudo-norm differs from the euclidean norm")
    if spec["state"] == "gaussian" and (abs(euclid[0] - 2.0) > 1e-10
                                        or (swap and abs(pn[0] - 2.0) > 1e-10)):
        problems.append(f"initial norms {pn[0]!r}, {euclid[0]!r}; the state has 2 and 2")
    return problems


def check(request: gen.Request, out_dir: Path) -> list[str]:
    """Failure reasons for one request's reports (empty when correct)."""
    kind = request.spec["kind"]
    try:
        if kind == "oscillator_levels":
            if request.command == "fixedpoint":
                return check_fixedpoint(request.spec, out_dir)
            return check_levels_metric(request.spec, out_dir)
        if kind == "spectrum":
            return check_spectrum(request.spec, out_dir)
        if kind == "dump":
            return check_dump(request.spec, out_dir)
        return check_evolve(request.spec, out_dir)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"unreadable report: {type(exc).__name__}: {exc}"]


def same_files(first: Path, second: Path) -> list[str]:
    """Byte-for-byte comparison of two report directories."""
    names = sorted(p.name for p in first.iterdir())
    other = sorted(p.name for p in second.iterdir())
    if names != other:
        return [f"report files differ: {names} vs {other}"]
    return [f"{name} differs between identical runs" for name in names
            if (first / name).read_bytes() != (second / name).read_bytes()]
