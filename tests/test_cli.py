import json
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from edspec.cli import main
from edspec.frozen_spectrum import decompose
from edspec.operators import ConstantMass, Grid, build_kleingordon, build_schrodinger


def write_config(tmp_path, body, name="run.ini"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(body), encoding="utf-8")
    return str(path)


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
    oracle = np.linalg.eigvalsh(
        build_kleingordon(Grid(-6.0, 6.0, 24), ConstantMass(1.5), 0.0))
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
    oracle = np.linalg.eigvalsh(
        build_schrodinger(Grid(-5.0, 5.0, 24), ConstantMass(0.5), 0.0))[:3]
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


def test_fixedpoint_duplicate_windows_stay_allowed(tmp_path):
    cfg = write_config(tmp_path, HO_FIXEDPOINT.replace("windows = 3.1:6.0",
                                                       "windows = 3.1:6.0, 3.1:6.0"))
    assert main(["fixedpoint", "--config", cfg, "--out-dir", str(tmp_path)]) == 0
    report = load_json(tmp_path / "fixedpoint.json")
    assert [(lv["n"], lv["j"]) for lv in report["levels"]] == [(0, 0), (0, 1)]


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
], ids=["reversed-window", "empty-window", "negative-branch", "branch-past-grid",
        "floor-above-one", "floor-zero", "duplicate-branch"])
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


def test_metric_duplicated_level_ill_conditioned(tmp_path, capsys):
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
        windows = 0.0:2.0, 0.0:2.0
    """)
    assert main(["metric", "--config", cfg, "--out-dir", str(tmp_path)]) == 2
    assert "IllConditionedOverlap" in capsys.readouterr().err


def test_metric_matrix_dumps(tmp_path):
    cfg = write_config(tmp_path, METRIC_BASE + "\n    [output]\n    dump_matrices = true\n")
    assert main(["metric", "--config", cfg, "--out-dir", str(tmp_path)]) == 0
    for name in ("K.txt", "L.txt", "mu.txt", "nu.txt", "R.txt"):
        lines = (tmp_path / name).read_text().strip().split("\n")
        n, m = (int(tok) for tok in lines[0].split())
        assert len(lines) == n + 1
        assert len(lines[1].split()) == m
        assert lines[1].split()[0].endswith("j")


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


def test_evolve_eigenstate(tmp_path):
    cfg = write_config(tmp_path, EVOLVE_BASE.replace(
        "state = gaussian", "state = eigenstate\n    index = 2"))
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
    cfg = write_config(tmp_path, EVOLVE_BASE.replace(
        "state = gaussian", f"state = eigenstate\n    index = {index}"))
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
    cfg = write_config(tmp_path, EVOLVE_BASE.replace(
        "state = gaussian", "state = eigenstate\n    index = 79"))
    assert main(["evolve", "--config", cfg, "--out-dir", str(tmp_path)]) == 0
    assert load_json(tmp_path / "evolve.json")["flag"] == "PASS"
    assert sizes == [40]


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
