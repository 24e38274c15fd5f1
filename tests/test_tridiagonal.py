import textwrap

import numpy as np
import pytest

import edspec.tridiagonal as tri
from edspec import cli, fixedpoint
from edspec.evolution import assemble_fv
from edspec.operators import (
    ConstantMass,
    Grid,
    HOQuadratic,
    build_bands,
    build_kleingordon,
    tridiagonal,
)

SIZES = (1, 2, 3, 50, 400)


def _random_bands(n, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n), rng.standard_normal(n - 1)


def _cases():
    cases = [(f"random-{n}", *_random_bands(n, n)) for n in SIZES]
    model = HOQuadratic(1.5, 2.0)
    for n in SIZES:
        if n < 3:
            continue       # a grid has at least three points
        for kind in ("schrodinger", "kleingordon"):
            cases.append((f"{kind}-{n}", *build_bands(kind, Grid(-10.0, 10.0, n), model, 0.7)))
    return cases


CASES = _cases()
IDS = [name for name, *_ in CASES]


@pytest.mark.parametrize("name, d, e", CASES, ids=IDS)
def test_eigenvalues_equal_numpy(name, d, e):
    T = tridiagonal(d, e)
    assert np.array_equal(tri.eigvalsh_bands(d, e), np.linalg.eigvalsh(T))
    assert np.array_equal(tri.eigh_bands(d, e)[0], np.linalg.eigh(T)[0])


@pytest.mark.parametrize("name, d, e", CASES, ids=IDS)
def test_eigenvectors_match_dense(name, d, e):
    T = tridiagonal(d, e)
    w, z = tri.eigh_bands(d, e)
    w_dense, z_dense = np.linalg.eigh(T)
    overlaps = np.abs(np.sum(z * z_dense, axis=0))
    np.testing.assert_allclose(overlaps, 1.0, rtol=0.0, atol=1e-12)
    residual = np.linalg.norm(T @ z - z * w)
    dense_residual = np.linalg.norm(T @ z_dense - z_dense * w_dense)
    assert residual <= 10.0 * max(dense_residual, np.finfo(float).eps * np.linalg.norm(T))


def test_inputs_are_not_overwritten():
    d, e = _random_bands(50, 0)
    d0, e0 = d.copy(), e.copy()
    tri.eigh_bands(d, e)
    tri.eigvalsh_bands(d, e)
    assert np.array_equal(d, d0) and np.array_equal(e, e0)


@pytest.mark.parametrize("solve", [tri.eigh_bands, tri.eigvalsh_bands])
def test_band_lengths_checked(solve):
    with pytest.raises(ValueError):
        solve(np.ones(4), np.ones(4))
    with pytest.raises(ValueError):
        solve(np.ones((2, 2)), np.ones(1))


def test_fast_path_resolves_on_bundled_openblas():
    # on a build that ships scipy-openblas the binding must not silently fall back
    config = np.show_config(mode="dicts") or {}
    lapack = config.get("Build Dependencies", {}).get("lapack", {}).get("name", "")
    if "scipy-openblas" not in lapack:
        pytest.skip(f"numpy links {lapack or 'an unnamed'} LAPACK")
    assert tri._lapack() is not None


@pytest.mark.parametrize("name, d, e", CASES, ids=IDS)
def test_dense_fallback_gives_the_same_eigenvalues(name, d, e, monkeypatch):
    fast = tri.eigvalsh_bands(d, e), tri.eigh_bands(d, e)[0]
    monkeypatch.setattr(tri, "_lapack", lambda: None)
    assert np.array_equal(tri.eigvalsh_bands(d, e), fast[0])
    assert np.array_equal(tri.eigh_bands(d, e)[0], fast[1])


REPORT_CONFIGS = {
    "spectrum": """
        [model]
        kind = hoquadratic
        A = 1.5
        E0 = 2.0

        [grid]
        x_min = -10.0
        x_max = 10.0
        n_points = 150

        [spectrum]
        z = 0.7
    """,
    "fixedpoint": """
        [model]
        kind = hoquadratic
        A = 1.5
        E0 = 2.0

        [grid]
        x_min = -10.0
        x_max = 10.0
        n_points = 150

        [fixedpoint]
        branches = 0, 1
        windows = 0.05:1.9, 2.1:6.0
        steps = 32
    """,
    "evolve": """
        [model]
        kind = constant
        m = 1.0

        [grid]
        x_min = -8.0
        x_max = 8.0
        n_points = 60

        [problem]
        kind = kleingordon

        [evolve]
        t_final = 2.0
        steps = 20
        state = eigenstate
        index = 70
    """,
}


def _reports(tmp_path, command):
    tmp_path.mkdir()
    cfg = tmp_path / f"{command}.ini"
    cfg.write_text(textwrap.dedent(REPORT_CONFIGS[command]), encoding="utf-8")
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(cfg), "--out-dir", str(out)]) == 0
    return {path.name: path.read_bytes() for path in sorted(out.iterdir())}


@pytest.mark.parametrize("command", sorted(REPORT_CONFIGS))
def test_dense_fallback_gives_the_same_reports(tmp_path, monkeypatch, command):
    fast = _reports(tmp_path / "fast", command)
    monkeypatch.setattr(tri, "_lapack", lambda: None)
    assert _reports(tmp_path / "dense", command) == fast


@pytest.fixture
def no_dense_eigensolves(monkeypatch):
    """Fail on any dense numpy symmetric eigensolve."""
    if tri._lapack() is None:
        pytest.skip("numpy links no bundled LAPACK; the dense fallback is the path")

    def refuse(*args, **kwargs):
        raise AssertionError("dense symmetric eigensolve on a tridiagonal problem")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)


def test_level_search_solves_no_dense_eigenproblem(no_dense_eigensolves, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the band search reached a dense decomposition")

    monkeypatch.setattr(fixedpoint, "decompose", refuse)
    for kind in ("schrodinger", "kleingordon"):
        result = fixedpoint.collect_physical(HOQuadratic(1.5, 2.0), Grid(-10.0, 10.0, 120),
                                             [0, 1], [(0.05, 1.9), (2.1, 6.0)], kind, steps=24)
        assert result.levels and not result.failures


def test_spectrum_solves_no_dense_eigenproblem(tmp_path, no_dense_eigensolves):
    cfg = tmp_path / "spectrum.ini"
    cfg.write_text(textwrap.dedent(REPORT_CONFIGS["spectrum"]), encoding="utf-8")
    assert cli.main(["spectrum", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 0


def test_fv_modes_solve_no_dense_eigenproblem(no_dense_eigensolves):
    H = build_kleingordon(Grid(-8.0, 8.0, 60), ConstantMass(1.0), 0.0)
    modes = assemble_fv(H).modes
    assert modes.spectrum_real
