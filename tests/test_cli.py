import json
import os
import re
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest

import edspec.tridiagonal as tridiagonal
from edspec import cli
from edspec.cli import main
from edspec.frozen_spectrum import decompose
from edspec.operators import ConstantMass, Grid, build_problem


def write_config(tmp_path, body, name="run.ini"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(body), encoding="utf-8")
    return str(path)


def test_command_line_is_parsed_by_one_parser(capsys):
    # built on the first call of a process and reused: usage, help and exit
    # codes stay those of a fresh parser
    assert cli._parser() is cli._parser()
    outputs = []
    for argv in (["nonsense"], ["nonsense"], ["--help"], ["--help"]):
        with pytest.raises(SystemExit) as stop:
            main(argv)
        outputs.append((stop.value.code, *capsys.readouterr()))
    assert outputs[0] == outputs[1] and outputs[2] == outputs[3]
    code, out, err = outputs[0]
    assert code == 2 and not out and err.startswith("usage: edspec ")
    assert "invalid choice: 'nonsense'" in err
    code, out, err = outputs[2]
    assert code == 0 and out.startswith("usage: edspec ") and not err
    assert "{spectrum,fixedpoint,metric,evolve,validate}" in out


CONSTANT_KG = """
    [model]
    kind = constant
    m = 1.5

    [grid]
    x_min = -6.0
    x_max = 6.0
    n_points = 24

    [problem]
    kind = kleingordon

    [spectrum]
    z = 0.0
"""


def load_json(path):
    return json.loads(path.read_text(encoding="utf-8"))


# ---------------------------------------------------------------- spectrum

def test_spectrum_constant_mass(tmp_path):
    cfg = write_config(tmp_path, CONSTANT_KG)
    assert main(["spectrum", "--config", cfg, "--out-dir", str(tmp_path)]) == 0
    lines = (tmp_path / "spectrum.csv").read_text().strip().split("\n")
    assert lines[0] == "index,re,im,reality_flag"
    values = [float(line.split(",")[1]) for line in lines[1:]]
    oracle = np.linalg.eigvalsh(np.asarray(
        build_problem("kleingordon", Grid(-6.0, 6.0, 24), ConstantMass(1.5), 0.0)))
    np.testing.assert_allclose(values, oracle, atol=1e-12)
    report = load_json(tmp_path / "spectrum.json")
    assert report["completeness_residual"] < 1e-8
    assert report["classification"]["conjugation_symmetric"] is True
    assert report["version"]
    assert report["config"]["model"]["kind"] == "constant"


def test_missing_config_names_path(tmp_path, capsys):
    missing = str(tmp_path / "nope.ini")
    assert main(["spectrum", "--config", missing, "--out-dir", str(tmp_path)]) == 1
    assert "nope.ini" in capsys.readouterr().err


def test_unknown_key_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, CONSTANT_KG + "\n    typo_key = 3\n")
    assert main(["spectrum", "--config", cfg, "--out-dir", str(tmp_path)]) == 1
    assert "typo_key" in capsys.readouterr().err


def test_config_that_is_not_utf8_rejected(tmp_path, capsys):
    path = tmp_path / "run.ini"
    path.write_bytes(textwrap.dedent(CONSTANT_KG).encode("utf-8") + b"# caf\xff\n")
    assert main(["spectrum", "--config", str(path), "--out-dir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "config error:" in err and "run.ini" in err
    assert not (tmp_path / "spectrum.json").exists()


@pytest.mark.parametrize("grid, code, message", [
    ("x_min = 0.0\n    x_max = 2e-200\n    n_points = 3", 1, "config error: grid spacing"),
    ("x_min = -1.5e154\n    x_max = 1.5e154\n    n_points = 9", 2, "solver error: EvaluationFailure"),
], ids=["spacing-squares-to-zero", "end-nodes-square-past-the-float-range"])
def test_extreme_grid_exits_without_a_warning_or_traceback(tmp_path, capsys, grid, code, message):
    # h^2 underflows to 0 in the first; in the second the schrodinger form's
    # x^2 overflows at the end nodes
    body = CONSTANT_KG.replace("x_min = -6.0\n    x_max = 6.0\n    n_points = 24", grid)
    body = body.replace("kind = kleingordon", "kind = schrodinger")
    assert "kleingordon" not in body and grid in body
    cfg = write_config(tmp_path, body)
    out_dir = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["spectrum", "--config", cfg, "--out-dir", str(out_dir)]) == code
    err = capsys.readouterr().err
    assert err.startswith(message) and "Traceback" not in err
    # a config error is refused before --out-dir is created
    assert out_dir.exists() == (code == 2)
    assert not (out_dir / "spectrum.json").exists()


@pytest.mark.parametrize("old, new, key", [
    ("m = 1.5", "m = 1.5\n    A = 1.0", "A"),
    ("m = 1.5", "m = 1.5\n    E0 = 0.0", "E0"),
    ("kind = constant\n    m = 1.5", "kind = hoquadratic\n    A = 1.0\n    E0 = 0.0\n    m = 1.5",
     "m"),
], ids=["constant-A", "constant-E0", "hoquadratic-m"])
def test_model_key_of_another_kind_rejected(tmp_path, capsys, old, new, key):
    body = CONSTANT_KG.replace(old, new)
    assert body != CONSTANT_KG
    cfg = write_config(tmp_path, body)
    assert main(["spectrum", "--config", cfg, "--out-dir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "config error:" in err and f"'{key}'" in err
    assert not (tmp_path / "spectrum.json").exists()


def test_spectrum_at_mass_singularity(tmp_path, capsys):
    cfg = write_config(tmp_path, """
        [model]
        kind = hoquadratic
        A = 1.0
        E0 = 2.0

        [grid]
        x_min = -6.0
        x_max = 6.0
        n_points = 24

        [spectrum]
        z = 2.0
    """)
    assert main(["spectrum", "--config", cfg, "--out-dir", str(tmp_path)]) == 2
    assert "DegenerateMass" in capsys.readouterr().err


@pytest.mark.parametrize("kind, z", [("schrodinger", "1e200"), ("kleingordon", "1e100")])
def test_spectrum_coefficient_overflow_is_a_solver_error(tmp_path, capsys, kind, z):
    cfg = write_config(tmp_path, f"""
        [model]
        kind = hoquadratic
        A = 1.0
        E0 = 2.0

        [grid]
        x_min = -6.0
        x_max = 6.0
        n_points = 24

        [problem]
        kind = {kind}

        [spectrum]
        z = {z}
    """)
    assert main(["spectrum", "--config", cfg, "--out-dir", str(tmp_path)]) == 2
    assert "EvaluationFailure" in capsys.readouterr().err


# ---------------------------------------------------------------- fixedpoint

HO_FIXEDPOINT = """
    [model]
    kind = hoquadratic
    A = 1.0
    E0 = 3.0

    [grid]
    x_min = -10.0
    x_max = 10.0
    n_points = 120

    [fixedpoint]
    branches = 0
    windows = 3.1:6.0
    steps = 32
"""


def test_fixedpoint_closed_form_table(tmp_path):
    cfg = write_config(tmp_path, HO_FIXEDPOINT)
    assert main(["fixedpoint", "--config", cfg, "--out-dir", str(tmp_path)]) == 0
    report = load_json(tmp_path / "fixedpoint.json")
    assert report["convention_factor"] == 2.0
    rows = report["closed_form_comparison"]
    assert len(rows) == 1
    assert rows[0]["family"] == "plus"
    assert rows[0]["n"] == 0
    assert rows[0]["rel_err"] < 5e-3
    csv_lines = (tmp_path / "levels.csv").read_text().strip().split("\n")
    assert csv_lines[0] == "n,j,E_alpha,residual"
    assert len(csv_lines) == 2


def test_fixedpoint_constant_mass_levels(tmp_path):
    cfg = write_config(tmp_path, """
        [model]
        kind = constant
        m = 0.5

        [grid]
        x_min = -5.0
        x_max = 5.0
        n_points = 24

        [fixedpoint]
        branches = 0,1,2
        windows = 0.0:8.0
    """)
    assert main(["fixedpoint", "--config", cfg, "--out-dir", str(tmp_path)]) == 0
    report = load_json(tmp_path / "fixedpoint.json")
    oracle = np.linalg.eigvalsh(np.asarray(
        build_problem("schrodinger", Grid(-5.0, 5.0, 24), ConstantMass(0.5), 0.0)))[:3]
    got = sorted(lv["energy"] for lv in report["levels"])
    np.testing.assert_allclose(got, oracle, atol=1e-9)


@pytest.mark.parametrize("kind", ["schrodinger", "kleingordon"])
def test_closed_form_table_is_schrodinger_only(tmp_path, kind):
    # the closed forms are the Schrodinger-form oscillator spectrum; the
    # Klein-Gordon levels of the same model are no approximation of them
    cfg = write_config(tmp_path, HO_FIXEDPOINT + f"""
    [problem]
    kind = {kind}
""")
    assert main(["fixedpoint", "--config", cfg, "--out-dir", str(tmp_path)]) == 0
    report = load_json(tmp_path / "fixedpoint.json")
    assert report["n_levels"] == 1
    assert ("closed_form_comparison" in report) == (kind == "schrodinger")
    assert ("convention_factor" in report) == (kind == "schrodinger")


def test_fixedpoint_overflowing_window_fails_alone(tmp_path):
    # the coefficients overflow on the second window; the first keeps its levels
    body = HO_FIXEDPOINT.replace("A = 1.0", "A = 1.5").replace("E0 = 3.0", "E0 = 2.0") \
        + "\n    [problem]\n    kind = kleingordon\n"
    reports = []
    for name, windows in (("one", "0.1:1.9"), ("two", "0.1:1.9, 1e100:1e101")):
        cfg = write_config(tmp_path, body.replace("3.1:6.0", windows), f"{name}.ini")
        assert main(["fixedpoint", "--config", cfg, "--out-dir", str(tmp_path / name)]) == 0
        reports.append(load_json(tmp_path / name / "fixedpoint.json"))
    alone, report = reports
    assert alone["levels"] and report["levels"] == alone["levels"]
    (failure,) = report["failures"]
    assert (failure["window"], failure["error"]) == ([1e100, 1e101], "EvaluationFailure")


def test_fixedpoint_empty_windows(tmp_path, capsys):
    cfg = write_config(tmp_path, """
        [model]
        kind = constant
        m = 0.5

        [grid]
        x_min = -5.0
        x_max = 5.0
        n_points = 24

        [fixedpoint]
        branches = 0
        windows =
    """)
    assert main(["fixedpoint", "--config", cfg, "--out-dir", str(tmp_path)]) == 1
    assert "windows" in capsys.readouterr().err


def test_fixedpoint_no_roots(tmp_path):
    cfg = write_config(tmp_path, """
        [model]
        kind = constant
        m = 0.5

        [grid]
        x_min = -5.0
        x_max = 5.0
        n_points = 24

        [fixedpoint]
        branches = 0
        windows = 50.0:60.0
    """)
    assert main(["fixedpoint", "--config", cfg, "--out-dir", str(tmp_path)]) == 3


def test_fixedpoint_reports_window_diagnostics(tmp_path):
    cfg = write_config(tmp_path, HO_FIXEDPOINT.replace("windows = 3.1:6.0",
                                                       "windows = 3.1:6.0, 6.5:9.0"))
    assert main(["fixedpoint", "--config", cfg, "--out-dir", str(tmp_path)]) == 0
    hit, miss = load_json(tmp_path / "fixedpoint.json")["diagnostics"]
    assert (hit["branch"], hit["window"], hit["samples"]) == (0, [3.1, 6.0], 32)
    assert hit["near_miss"] is None and hit["bisection_steps"] > 0
    assert miss["window"] == [6.5, 9.0] and miss["bisection_steps"] == 0
    assert miss["near_miss"] > 0.0


#: Near misses of an oscillator report with six root-free (branch, window)
#: pairs, as LAPACK's dstevx solved them at every sample of each window
#: before exclusion counts left most samples unsolved.
PINNED_NEAR_MISSES = ["null", "null", "6.2160622426361787e+00", "4.5570977584732741e-01",
                      "null", "5.6517855512283797e+00", "1.4493355021607588e+00", "null",
                      "5.0947786032015339e+00"]


def test_fixedpoint_near_miss_tokens_are_pinned(tmp_path):
    cfg = write_config(tmp_path, HO_FIXEDPOINT.replace("branches = 0", "branches = 0, 1, 2")
                       .replace("windows = 3.1:6.0", "windows = 0.2:2.5, 3.1:6.0, 6.5:9.0"))
    assert main(["fixedpoint", "--config", cfg, "--out-dir", str(tmp_path)]) == 0
    text = (tmp_path / "fixedpoint.json").read_text(encoding="utf-8")
    tokens = re.findall(r'"near_miss": ([^,\n]+),', text)
    if tridiagonal._lapack() is not None:
        assert tokens == PINNED_NEAR_MISSES
    else:
        # the dense fallback's eigenvalues agree with dstevx's to a few eps ||H||
        assert [t == "null" for t in tokens] == [t == "null" for t in PINNED_NEAR_MISSES]
        np.testing.assert_allclose([float(t) for t in tokens if t != "null"],
                                   [float(t) for t in PINNED_NEAR_MISSES if t != "null"],
                                   rtol=1e-11)


def test_fixedpoint_imports_no_scipy(tmp_path):
    # numpy is the only runtime dependency, and importing scipy would add
    # to the start-up time and memory of every command; spectrum and evolve
    # run the tridiagonal eigensolver too
    runs = [("fixedpoint", write_config(tmp_path, HO_FIXEDPOINT, "fixedpoint.ini")),
            ("spectrum", write_config(tmp_path, CONSTANT_KG, "spectrum.ini")),
            ("evolve", write_config(tmp_path, EVOLVE_BASE, "evolve.ini"))]
    script = "import sys\nfrom edspec.cli import main\n" + "".join(
        f"code = main([{command!r}, '--config', {cfg!r}, '--out-dir', {str(tmp_path)!r}])\n"
        f"assert code == 0, ({command!r}, code)\n"
        for command, cfg in runs
    ) + "assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if 'scipy' in m)\n"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("old, new", [
    ("windows = 3.1:6.0", "windows = 8.0:0.0"),
    ("windows = 3.1:6.0", "windows = 3.1:3.1"),
    ("branches = 0", "branches = -1"),
    ("branches = 0", "branches = 0, 120"),
    ("steps = 32", "steps = 32\n    overlap_floor = 1.5"),
    ("steps = 32", "steps = 32\n    overlap_floor = 0"),
    ("branches = 0", "branches = 0, 0"),
    ("windows = 3.1:6.0", "windows = 3.1:6.0, 3.10:6"),
    ("branches = 0", "branches = 0,,1,"),
    ("windows = 3.1:6.0", "windows = 3.1:6.0,,"),
], ids=["reversed-window", "empty-window", "negative-branch", "branch-past-grid",
        "floor-above-one", "floor-zero", "duplicate-branch", "duplicate-window",
        "blank-branch-entry", "blank-window-entry"])
def test_fixedpoint_bad_input_rejected_at_load(tmp_path, capsys, old, new):
    cfg = write_config(tmp_path, HO_FIXEDPOINT.replace(old, new))
    assert main(["fixedpoint", "--config", cfg, "--out-dir", str(tmp_path)]) == 1
    assert "config error:" in capsys.readouterr().err
    assert not (tmp_path / "fixedpoint.json").exists()


# ---------------------------------------------------------------- metric

METRIC_BASE = """
    [model]
    kind = constant
    m = 0.5

    [grid]
    x_min = -5.0
    x_max = 5.0
    n_points = 24

    [fixedpoint]
    branches = 0,1,2,3
    windows = 0.0:9.0
"""


def test_metric_constant_mass(tmp_path):
    cfg = write_config(tmp_path, METRIC_BASE)
    assert main(["metric", "--config", cfg, "--out-dir", str(tmp_path)]) == 0
    report = load_json(tmp_path / "metric.json")
    assert report["n_levels"] == 4
    assert report["residual_K"] < 1e-9
    assert report["residual_L"] < 1e-9
    assert report["min_eig_mu"] == pytest.approx(1.0, abs=1e-8)
    assert report["min_eig_nu"] == pytest.approx(1.0, abs=1e-8)
    assert report["condition_R"] == pytest.approx(1.0, abs=1e-8)
    assert np.isfinite(report["projector_residual"])


def test_metric_two_level_pipeline(tmp_path):
    # minus-family pair of an oscillator model just above threshold: a real
    # two-level run through the full pipeline
    cfg = write_config(tmp_path, """
        [model]
        kind = hoquadratic
        A = 4.4
        E0 = 1.0

        [grid]
        x_min = -8.0
        x_max = 8.0
        n_points = 100

        [fixedpoint]
        branches = 0
        windows = 0.05:0.9
    """)
    assert main(["metric", "--config", cfg, "--out-dir", str(tmp_path)]) == 0
    report = load_json(tmp_path / "metric.json")
    assert report["n_levels"] == 2
    for key in ("condition_R", "projector_residual", "residual_K", "residual_L",
                "min_eig_mu", "min_eig_nu"):
        assert np.isfinite(report[key])
    assert report["min_eig_mu"] > 0
    assert report["min_eig_nu"] > 0


def test_metric_reports_window_failures_and_diagnostics(tmp_path):
    # the first window contains the mass singularity z = E0 and fails; the
    # second finds the level, so metric still succeeds
    cfg = write_config(tmp_path, HO_FIXEDPOINT.replace("E0 = 3.0", "E0 = 2.0").replace(
        "windows = 3.1:6.0", "windows = 1.0:3.0, 2.2:6.0"))
    assert main(["metric", "--config", cfg, "--out-dir", str(tmp_path)]) == 0
    assert main(["fixedpoint", "--config", cfg, "--out-dir", str(tmp_path)]) == 0
    metric = load_json(tmp_path / "metric.json")
    fixedpoint = load_json(tmp_path / "fixedpoint.json")
    (failure,) = metric["failures"]
    assert (failure["branch"], failure["window"], failure["error"]) == (
        0, [1.0, 3.0], "DegenerateMass")
    assert metric["n_levels"] == 1 and len(metric["diagnostics"]) == 1
    for key in ("failures", "diagnostics"):
        assert metric[key] == fixedpoint[key]


def test_metric_duplicated_level_ill_conditioned(tmp_path, capsys, monkeypatch):
    # the configuration refuses a window listed twice, so the search itself is
    # handed the window list twice: every level then comes twice
    import edspec.cli

    search = edspec.cli.collect_physical
    monkeypatch.setattr(edspec.cli, "collect_physical",
                        lambda model, grid, branches, windows, *args, **kwargs:
                        search(model, grid, branches, windows * 2, *args, **kwargs))
    cfg = write_config(tmp_path, """
        [model]
        kind = constant
        m = 0.5

        [grid]
        x_min = -5.0
        x_max = 5.0
        n_points = 24

        [fixedpoint]
        branches = 0
        windows = 0.0:2.0
    """)
    assert main(["metric", "--config", cfg, "--out-dir", str(tmp_path)]) == 2
    assert "IllConditionedOverlap" in capsys.readouterr().err


def test_metric_matrix_dumps(tmp_path):
    cfg = write_config(tmp_path, METRIC_BASE + "\n    [output]\n    dump_matrices = true\n")
    assert main(["metric", "--config", cfg, "--out-dir", str(tmp_path)]) == 0
    assert main(["fixedpoint", "--config", cfg, "--out-dir", str(tmp_path)]) == 0
    energies = [level["energy"] for level in load_json(tmp_path / "fixedpoint.json")["levels"]]
    dumps = {}
    for name in ("K", "L", "mu", "nu", "R"):
        lines = (tmp_path / f"{name}.txt").read_text().strip().split("\n")
        n, m = (int(tok) for tok in lines[0].split())
        assert len(lines) == n + 1
        tokens = [line.split(" ") for line in lines[1:]]
        assert all(len(row) == m for row in tokens)
        assert not any("j" in tok for row in tokens for tok in row)
        dumps[name] = np.array([[float(tok) for tok in row] for row in tokens])
    assert dumps["R"].shape == (len(energies),) * 2
    np.testing.assert_allclose(np.diag(dumps["R"]), 1.0, rtol=0, atol=1e-8)
    for name in ("K", "L"):
        assert np.trace(dumps[name]) == pytest.approx(sum(energies), rel=1e-7)


# ---------------------------------------------------------------- evolve

EVOLVE_BASE = """
    [model]
    kind = constant
    m = 1.0

    [grid]
    x_min = -8.0
    x_max = 8.0
    n_points = 40

    [problem]
    kind = kleingordon

    [evolve]
    t_final = 5.0
    steps = 50
    state = gaussian
    width = 1.2
    momentum = 1.5
"""


def test_evolve_conserves_with_swap_metric(tmp_path):
    cfg = write_config(tmp_path, EVOLVE_BASE)
    assert main(["evolve", "--config", cfg, "--out-dir", str(tmp_path)]) == 0
    report = load_json(tmp_path / "evolve.json")
    assert report["flag"] == "PASS"
    assert report["drift"] < 1e-8
    lines = (tmp_path / "trajectory.csv").read_text().strip().split("\n")
    assert lines[0] == "t,pseudo_norm,euclidean_norm"
    assert len(lines) == 52


def test_evolve_identity_metric_fails(tmp_path):
    cfg = write_config(tmp_path, EVOLVE_BASE + "\n    metric = identity\n")
    assert main(["evolve", "--config", cfg, "--out-dir", str(tmp_path)]) == 0
    report = load_json(tmp_path / "evolve.json")
    assert report["flag"] == "FAIL"
    assert report["drift"] > 1e-3


def test_evolve_zero_steps(tmp_path):
    cfg = write_config(tmp_path, EVOLVE_BASE.replace("steps = 50", "steps = 0"))
    assert main(["evolve", "--config", cfg, "--out-dir", str(tmp_path)]) == 0
    lines = (tmp_path / "trajectory.csv").read_text().strip().split("\n")
    assert len(lines) == 2


def _eigenstate(index):
    """EVOLVE_BASE with the generator eigenstate ``index`` for its initial state."""
    body = EVOLVE_BASE.replace("state = gaussian", f"state = eigenstate\n    index = {index}")
    return body.replace("    width = 1.2\n    momentum = 1.5\n", "")


def test_evolve_eigenstate(tmp_path):
    cfg = write_config(tmp_path, _eigenstate(2))
    assert main(["evolve", "--config", cfg, "--out-dir", str(tmp_path)]) == 0
    report = load_json(tmp_path / "evolve.json")
    assert report["flag"] == "PASS"


@pytest.mark.parametrize("spectrum, z", [("", 0.0), ("[spectrum]\n    z = 1.5\n", 1.5)],
                         ids=["unset", "set"])
def test_evolve_reports_its_frozen_parameter(tmp_path, spectrum, z):
    cfg = write_config(tmp_path, EVOLVE_BASE + "\n    " + spectrum)
    assert main(["evolve", "--config", cfg, "--out-dir", str(tmp_path)]) == 0
    assert load_json(tmp_path / "evolve.json")["z"] == z


@pytest.mark.parametrize("problem", ["kind = schrodinger", None], ids=["schrodinger", "default"])
def test_evolve_rejects_other_problem_kinds(tmp_path, capsys, problem):
    body = (EVOLVE_BASE.replace("kind = kleingordon", problem) if problem
            else EVOLVE_BASE.replace("[problem]\n    kind = kleingordon\n", ""))
    cfg = write_config(tmp_path, body)
    assert main(["evolve", "--config", cfg, "--out-dir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "config error:" in err and "[problem] kind" in err
    assert not (tmp_path / "evolve.json").exists()


@pytest.mark.parametrize("index", [-1, 80], ids=["negative", "past-generator"])
def test_evolve_index_rejected_at_load(tmp_path, capsys, monkeypatch, index):
    import edspec.cli
    import edspec.evolution

    def no_solve(H):
        raise AssertionError("a bad index must be rejected before any eigensolve")

    for module in (edspec.cli, edspec.evolution):
        monkeypatch.setattr(module, "decompose", no_solve)
    cfg = write_config(tmp_path, _eigenstate(index))
    assert main(["evolve", "--config", cfg, "--out-dir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "config error:" in err and "index" in err
    assert not (tmp_path / "evolve.json").exists()


def test_evolve_eigenstate_decomposes_h_once(tmp_path, monkeypatch):
    # the last generator eigenstate, 2 n_points - 1, is built from one N x N
    # decomposition of H; the 2N x 2N generator is never decomposed
    import edspec.cli
    import edspec.evolution

    sizes = []

    def counting(H):
        sizes.append(np.asarray(H).shape[0])
        return decompose(H)

    for module in (edspec.cli, edspec.evolution):
        monkeypatch.setattr(module, "decompose", counting)
    cfg = write_config(tmp_path, _eigenstate(79))
    assert main(["evolve", "--config", cfg, "--out-dir", str(tmp_path)]) == 0
    assert load_json(tmp_path / "evolve.json")["flag"] == "PASS"
    assert sizes == [40]


@pytest.mark.parametrize("metric", ["swap", "identity"])
def test_evolve_and_criterion_7_form_no_state(tmp_path, monkeypatch, metric):
    # both read their norms from the modal rows: a trajectory cannot form the
    # states K c.  It has one row per time, which the benchmark tracer counts
    import edspec.cli
    import edspec.validate
    from edspec.evolution import Trajectory, evolve

    assert not hasattr(Trajectory, "states")
    lengths = []

    def counting(system, state, t_final, steps):
        trajectory = evolve(system, state, t_final, steps)
        lengths.append((len(trajectory), steps + 1))
        return trajectory

    for module in (edspec.cli, edspec.validate):
        monkeypatch.setattr(module, "evolve", counting)
    cfg = write_config(tmp_path, EVOLVE_BASE + f"\n    metric = {metric}\n")
    assert main(["evolve", "--config", cfg, "--out-dir", str(tmp_path)]) == 0
    assert load_json(tmp_path / "evolve.json")["flag"] == ("PASS" if metric == "swap" else "FAIL")
    assert edspec.validate.criterion_pseudo_unitarity().passed
    assert lengths == [(51, 51), (201, 201)]


def test_evolve_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    # a swap and an identity run at one and at two OpenBLAS threads, each count
    # set before numpy loads
    large = EVOLVE_BASE.replace("n_points = 40", "n_points = 200")
    configs = {
        "swap": write_config(tmp_path, large, "swap.ini"),
        "identity": write_config(tmp_path, _eigenstate(3).replace("n_points = 40", "n_points = 200")
                                 + "\n    metric = identity\n", "identity.ini"),
    }
    outputs = {}
    for threads in ("1", "2"):
        script = "from edspec.cli import main\n" + "".join(
            f"assert main(['evolve', '--config', {cfg!r}, "
            f"'--out-dir', {str(tmp_path / (name + threads))!r}]) == 0\n"
            for name, cfg in configs.items())
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path), OPENBLAS_NUM_THREADS=threads)
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        outputs[threads] = {(name, report): (tmp_path / (name + threads) / report).read_bytes()
                            for name in configs for report in ("trajectory.csv", "evolve.json")}
    assert outputs["1"] == outputs["2"]


def _evolve_config_error(tmp_path, capsys, body):
    """The ``config error:`` line of an evolve run that must exit 1 without a warning."""
    cfg = write_config(tmp_path, body)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["evolve", "--config", cfg, "--out-dir", str(tmp_path)]) == 1
    assert not caught, [str(w.message) for w in caught]
    assert not list(tmp_path.glob("*.json")) and not list(tmp_path.glob("*.csv"))
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "Traceback" not in err
    return err


def test_evolve_gaussian_between_the_nodes_is_a_config_error(tmp_path, capsys):
    # a width far below the spacing 10 / 39 puts every node of the grid in the
    # gaussian's tail, where exp underflows to 0: the profile has norm 0
    body = EVOLVE_BASE.replace("-8.0", "-5.0").replace("x_max = 8.0", "x_max = 5.0")
    body = body.replace("width = 1.2", "width = 1e-3\n    center = 0.1")
    assert "n_points = 40" in body and "x_min = -5.0" in body
    assert "norm 0.0" in _evolve_config_error(tmp_path, capsys, body)


def test_evolve_overflowing_duration_is_a_config_error(tmp_path, capsys):
    body = EVOLVE_BASE.replace("t_final = 5.0", "t_final = 1e308")
    assert "t_final" in _evolve_config_error(tmp_path, capsys, body)


@pytest.mark.parametrize("body, key", [
    (_eigenstate(2).replace("index = 2", "index = 2\n    center = 99.0"), "center"),
    (_eigenstate(2).replace("index = 2", "index = 2\n    width = 7.0"), "width"),
    (_eigenstate(2).replace("index = 2", "index = 2\n    momentum = 5.0"), "momentum"),
    (EVOLVE_BASE.replace("momentum = 1.5", "momentum = 1.5\n    index = 3"), "index"),
], ids=["eigenstate-center", "eigenstate-width", "eigenstate-momentum", "gaussian-index"])
def test_evolve_key_of_another_state_rejected(tmp_path, capsys, body, key):
    cfg = write_config(tmp_path, body)
    assert main(["evolve", "--config", cfg, "--out-dir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "config error:" in err and f"'{key}'" in err
    assert not (tmp_path / "evolve.json").exists()


@pytest.mark.parametrize("command, body", [
    ("fixedpoint", HO_FIXEDPOINT.replace("E0 = 3.0", "E0 = nan")),
    ("fixedpoint", HO_FIXEDPOINT.replace("windows = 3.1:6.0", "windows = -inf:1")),
    ("evolve", EVOLVE_BASE.replace("t_final = 5.0", "t_final = inf")),
    ("evolve", EVOLVE_BASE.replace("momentum = 1.5", "momentum = nan")),
    ("spectrum", CONSTANT_KG.replace("z = 0.0", "z = nan")),
], ids=["model-E0", "window-bound", "evolve-t_final", "evolve-momentum", "spectrum-z"])
def test_non_finite_floats_rejected_at_load(tmp_path, capsys, command, body):
    cfg = write_config(tmp_path, body)
    assert main([command, "--config", cfg, "--out-dir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "config error:" in err and "finite" in err
    assert not list(tmp_path.glob("*.json"))


# ---------------------------------------------------------------- arguments

@pytest.mark.parametrize("command", ["spectrum", "validate"])
def test_out_dir_that_is_a_file_is_a_config_error(tmp_path, capsys, command):
    cfg = write_config(tmp_path, CONSTANT_KG)
    taken = tmp_path / "taken"
    taken.write_text("not a directory", encoding="utf-8")
    config = ["--config", cfg] if command == "spectrum" else []
    assert main([command, "--out-dir", str(taken)] + config) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "out-dir" in err and "Traceback" not in err
    assert taken.read_text(encoding="utf-8") == "not a directory"


MODEL_ONLY = """
    [model]
    kind = constant
    m = 1.5
"""


@pytest.mark.parametrize("command, body, error", [
    ("spectrum", CONSTANT_KG + "\n    colour = blue\n",
     "unknown key 'colour' in section [spectrum]"),
    ("spectrum", CONSTANT_KG.replace(MODEL_ONLY, ""), "this command needs a [model] section"),
    ("spectrum", MODEL_ONLY, "this command needs a [grid] section"),
    ("spectrum", CONSTANT_KG.partition("[spectrum]")[0],
     "this command needs a [spectrum] section with a z value"),
    ("fixedpoint", HO_FIXEDPOINT.partition("[fixedpoint]")[0],
     "this command needs a [fixedpoint] section with branches"),
    ("metric", HO_FIXEDPOINT.replace("windows = 3.1:6.0", "windows ="),
     "this command needs a [fixedpoint] section with non-empty windows"),
    ("evolve", CONSTANT_KG, "this command needs an [evolve] section"),
    ("evolve", None, "evolve needs [problem] kind = kleingordon, got 'schrodinger'"),
], ids=["unknown-key", "no-model", "spectrum-no-grid", "spectrum-no-z",
        "fixedpoint-no-section", "metric-blank-windows", "evolve-no-section",
        "evolve-readme-schrodinger"])
def test_rejected_config_creates_no_out_dir(tmp_path, capsys, command, body, error):
    cfg = write_config(tmp_path, readme_ini() if body is None else body)
    fresh = tmp_path / "fresh" / "reports"
    assert main([command, "--config", cfg, "--out-dir", str(fresh)]) == 1
    assert capsys.readouterr().err == f"config error: {error}\n"
    assert not (tmp_path / "fresh").exists()


@pytest.mark.parametrize("command", ["spectrum", "fixedpoint", "metric", "evolve"])
def test_seed_of_a_command_that_ignores_it_is_rejected(tmp_path, capsys, command):
    cfg = write_config(tmp_path, CONSTANT_KG)
    fresh = tmp_path / "fresh"
    assert main([command, "--config", cfg, "--seed", "5", "--out-dir", str(fresh)]) == 1
    err = capsys.readouterr().err
    assert "config error:" in err and "--seed" in err
    assert not fresh.exists()


def test_validate_seed_defaults_to_zero(tmp_path, monkeypatch):
    import types

    import edspec.cli

    seeds = []

    def one_criterion(seed, grid_sizes):
        seeds.append(seed)
        return [types.SimpleNamespace(name="stub", passed=True, details={})]

    monkeypatch.setattr(edspec.cli, "run_all", one_criterion)
    assert main(["validate", "--out-dir", str(tmp_path)]) == 0
    assert main(["validate", "--seed", "3", "--out-dir", str(tmp_path)]) == 0
    assert seeds == [0, 3]


# ---------------------------------------------------------------- README

def readme_ini():
    """README's one ``ini`` block, the example configuration."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"^```ini\n(.*?)^```$", readme, flags=re.M | re.S)
    return block


def test_readme_example_config_runs(tmp_path, capsys):
    cfg = write_config(tmp_path, readme_ini())
    for command, report in [("spectrum", "spectrum.json"), ("fixedpoint", "fixedpoint.json"),
                            ("metric", "metric.json")]:
        assert main([command, "--config", cfg, "--out-dir", str(tmp_path)]) == 0
        assert (tmp_path / report).exists()
    # the example's [problem] comment: evolve needs kleingordon
    assert main(["evolve", "--config", cfg, "--out-dir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "config error:" in err and "kleingordon" in err


# ---------------------------------------------------------------- determinism

def test_reports_are_byte_identical(tmp_path):
    cfg = write_config(tmp_path, CONSTANT_KG)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["spectrum", "--config", cfg, "--out-dir", str(out1)]) == 0
    assert main(["spectrum", "--config", cfg, "--out-dir", str(out2)]) == 0
    assert (out1 / "spectrum.csv").read_bytes() == (out2 / "spectrum.csv").read_bytes()
    assert (out1 / "spectrum.json").read_bytes() == (out2 / "spectrum.json").read_bytes()


# ---------------------------------------------------------------- validate

def test_validate_under_resolved_grid_fails(tmp_path, capsys):
    cfg = write_config(tmp_path, """
        [validate]
        grid_sizes = 10, 14, 20
    """)
    assert main(["validate", "--config", cfg, "--out-dir", str(tmp_path)]) == 4
    report = load_json(tmp_path / "validation.json")
    assert report["all_passed"] is False
    by_name = {c["name"]: c["passed"] for c in report["criteria"]}
    assert by_name["numeric-vs-closed-form"] is False
    assert by_name["closed-form-self-consistency"] is True
    out = capsys.readouterr().out
    assert "FAIL" in out and "PASS" in out


def test_validate_duplicate_grid_sizes_rejected_at_load(tmp_path, capsys):
    # repeated sizes would make every convergence ratio 1.0 and fail the
    # numeric-vs-closed-form criterion after running the whole suite
    cfg = write_config(tmp_path, """
        [validate]
        grid_sizes = 60, 60
    """)
    assert main(["validate", "--config", cfg, "--out-dir", str(tmp_path)]) == 1
    assert "config error:" in capsys.readouterr().err
    assert not (tmp_path / "validation.json").exists()


def test_validate_blank_grid_size_entry_rejected_at_load(tmp_path, capsys):
    cfg = write_config(tmp_path, """
        [validate]
        grid_sizes = 20,,40
    """)
    assert main(["validate", "--config", cfg, "--out-dir", str(tmp_path)]) == 1
    assert "config error:" in capsys.readouterr().err
    assert not (tmp_path / "validation.json").exists()


def test_validate_negative_seed_rejected(tmp_path, capsys, monkeypatch):
    import edspec.cli

    def no_criteria(*args, **kwargs):
        raise AssertionError("a criterion ran")

    monkeypatch.setattr(edspec.cli, "run_all", no_criteria)
    assert main(["validate", "--seed", "-1", "--out-dir", str(tmp_path)]) == 1
    assert "config error:" in capsys.readouterr().err
    assert not (tmp_path / "validation.json").exists()
