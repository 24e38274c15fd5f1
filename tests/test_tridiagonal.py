import csv
import io
import json
import os
import subprocess
import sys
import textwrap
from functools import cache
from pathlib import Path

import numpy as np
import pytest

import edspec.tridiagonal as tri
from edspec import cli, fixedpoint
from edspec.evolution import assemble_fv
from edspec.frozen_spectrum import _fix_phases, decompose
from edspec.operators import (
    ConstantMass,
    GeneralMassSquared,
    Grid,
    HOQuadratic,
    Tridiagonal,
    build_problem,
)

SIZES = (1, 2, 3, 50, 400)
EPS = np.finfo(float).eps


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
            T = build_problem(kind, Grid(-10.0, 10.0, n), model, 0.7)
            cases.append((f"{kind}-{n}", T.diagonal, T.off_diagonal))
    return cases


CASES = _cases()
IDS = [name for name, *_ in CASES]


@pytest.mark.parametrize("name, d, e", CASES, ids=IDS)
def test_eigenvalues_equal_numpy(name, d, e):
    T = np.asarray(Tridiagonal(d, e))
    assert np.array_equal(tri.eigh_bands(d, e)[0], np.linalg.eigh(T)[0])


@pytest.mark.parametrize("name, d, e", CASES, ids=IDS)
def test_eigenvectors_match_dense(name, d, e):
    T = np.asarray(Tridiagonal(d, e))
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
    tri.eigpair_bands(d, e, 3)
    tri.eigpair_bands(d, e, 3, vectors=True)
    assert np.array_equal(d, d0) and np.array_equal(e, e0)


@pytest.mark.parametrize("solve", [
    tri.eigh_bands,
    pytest.param(lambda d, e: tri.eigpair_bands(d, e, 0), id="eigpair_bands"),
])
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


def test_library_without_dlaebz_keeps_the_drivers(monkeypatch):
    # dlaebz is a Fortran auxiliary that a build may leave unexported: its
    # absence sends the count to Python, not the solvers to the dense fallback
    if tri._lapack() is None:
        pytest.skip("numpy links no bundled LAPACK; the dense fallback is the path")
    CDLL = tri.ctypes.CDLL

    class WithoutCount:
        def __init__(self, path):
            self._lib = CDLL(path)

        def __getattr__(self, name):
            if name == "scipy_dlaebz_64_":
                raise AttributeError(name)
            return getattr(self._lib, name)

    monkeypatch.setattr(tri.ctypes, "CDLL", WithoutCount)
    drivers = tri._lapack.__wrapped__()
    assert drivers is not None and drivers.laebz is None
    assert drivers.abstol == tri._lapack().abstol
    d, e = _random_bands(40, 3)
    expected = (tri.eigh_bands(d, e), tri.eigpair_bands(d, e, 7, vectors=True))
    w = np.linalg.eigvalsh(np.asarray(Tridiagonal(d, e)))
    monkeypatch.setattr(tri, "_lapack", lambda: drivers)
    values, kets = tri.eigh_bands(d, e)
    assert kets.flags.f_contiguous and not kets.flags.c_contiguous      # dstevd's layout
    assert np.array_equal(values, expected[0][0]) and np.array_equal(kets, expected[0][1])
    value, ket = tri.eigpair_bands(d, e, 7, vectors=True)
    assert value == expected[1][0] and np.array_equal(ket, expected[1][1])
    for s in np.concatenate([0.5 * (w[:-1] + w[1:])[::5], [w[0] - 1.0, w[-1] + 1.0]]):
        assert tri.count_below(d, e, s) == np.sum(w < s)


def test_selective_driver_runs_in_a_subprocess():
    # a faulty ctypes prototype can crash the interpreter; in a child process
    # that fails this test alone instead of the whole test run
    script = textwrap.dedent("""
        import json
        import numpy as np
        import edspec.tridiagonal as tri
        d, e = np.array([2.0, -1.0, 0.5, 3.0]), np.array([1.0, 0.3, -0.7])
        value, ket = tri.eigpair_bands(d, e, 1, vectors=True)
        print(json.dumps({"bound": tri._lapack() is not None, "value": value,
                          "alone": tri.eigpair_bands(d, e, 1), "ket": ket.tolist(),
                          "count": tri.count_below(d, e, 0.6)}))
    """)
    src = str(Path(tri.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    child = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                           env={**os.environ, "PYTHONPATH": path}, timeout=300)
    assert child.returncode == 0, child.stderr
    out = json.loads(child.stdout)
    assert out["bound"] == (tri._lapack() is not None)
    T = np.asarray(Tridiagonal(np.array([2.0, -1.0, 0.5, 3.0]), np.array([1.0, 0.3, -0.7])))
    w, v = np.linalg.eigh(T)
    assert abs(out["value"] - w[1]) <= 32 * EPS * np.abs(T).sum(axis=0).max()
    assert out["alone"] == out["value"]
    np.testing.assert_allclose(out["ket"], _sign_fixed(v[:, 1]), rtol=0, atol=1e-12)
    assert out["count"] == np.sum(w < 0.6)


def _sign_fixed(ket):
    """The ket with its first component within a relative 1e-8 of the largest positive."""
    size = np.abs(ket)
    return ket * np.sign(ket[np.flatnonzero(size >= (1.0 - 1e-8) * size.max())[0]])


def _eigpair_cases():
    cases = [(f"random-{n}", *_random_bands(n, 7 + n)) for n in (2, 3, 50, 400, 1000)]
    model = HOQuadratic(1.5, 2.0)
    for n in (3, 50, 400, 1000):
        for kind in ("schrodinger", "kleingordon"):
            T = build_problem(kind, Grid(-10.0, 10.0, n), model, 0.7)
            cases.append((f"{kind}-{n}", T.diagonal, T.off_diagonal))
    return cases


EIGPAIR_CASES = _eigpair_cases()


@cache
def _dense_eigenpairs(name):
    """Dense matrix, eigenvalues, eigenpairs and 1-norm of a case, solved once for both paths."""
    _, d, e = next(case for case in EIGPAIR_CASES if case[0] == name)
    T = np.asarray(Tridiagonal(d, e))
    return T, np.linalg.eigvalsh(T), *np.linalg.eigh(T), float(np.abs(T).sum(axis=0).max())


@pytest.mark.parametrize("fallback", [False, True], ids=["lapack", "dense-fallback"])
@pytest.mark.parametrize("name, d, e", EIGPAIR_CASES, ids=[case[0] for case in EIGPAIR_CASES])
def test_eigpair_matches_dense_solvers(name, d, e, fallback, monkeypatch):
    T, reference, w, v, norm = _dense_eigenpairs(name)
    if fallback:
        monkeypatch.setattr(tri, "_lapack", lambda: None)
    size = len(d)
    compared = 0
    # both ends of the spectrum; n = 1 is an odd state of the oscillator,
    # whose mirrored components tie in magnitude
    for n in sorted({0, 1, size - 1}):
        value = tri.eigpair_bands(d, e, n)
        pair_value, ket = tri.eigpair_bands(d, e, n, vectors=True)
        # the dense QL/QR solve is the looser of the two: at N in the hundreds it
        # errs by up to ~20 eps ||T||_1 where bisection stays within 1 of a
        # 50-digit reference
        assert abs(value - reference[n]) <= 32 * EPS * norm
        assert abs(pair_value - reference[n]) <= 32 * EPS * norm
        assert abs(np.linalg.norm(ket) - 1.0) <= 1e-14
        assert np.linalg.norm(T @ ket - pair_value * ket) <= 8 * EPS * norm
        # a ket is defined only up to rounding / gap: compare isolated eigenvalues,
        # not the degenerate pairs at the top of the confined Schrodinger spectrum
        gap = min(abs(w[n] - w[m]) for m in (n - 1, n + 1) if 0 <= m < size)
        if gap >= 1e-6 * norm:
            np.testing.assert_allclose(ket, _sign_fixed(v[:, n]), rtol=0, atol=1e-12)
            compared += 1
    assert compared >= 1


@pytest.mark.parametrize("fallback", [False, True], ids=["lapack", "dense-fallback"])
def test_eigpair_index_outside_spectrum_rejected(fallback, monkeypatch):
    if fallback:
        monkeypatch.setattr(tri, "_lapack", lambda: None)
    d, e = _random_bands(5, 0)
    for n in (-1, 5):
        for vectors in (False, True):
            with pytest.raises(ValueError, match="outside the spectrum"):
                tri.eigpair_bands(d, e, n, vectors)


@pytest.mark.parametrize("fallback", [False, True], ids=["lapack", "dense-fallback"])
def test_eigpair_failure_raises_linalg_error(fallback, monkeypatch):
    if fallback:
        monkeypatch.setattr(tri, "_lapack", lambda: None)
    d, e = _random_bands(5, 0)
    d[2] = np.nan             # LAPACKE's input check answers info = -5
    for vectors in (False, True):
        with pytest.raises(np.linalg.LinAlgError):
            tri.eigpair_bands(d, e, 1, vectors)


def test_eigpair_driver_failures_raise(monkeypatch):
    drivers = tri._lapack()
    if drivers is None:
        pytest.skip("numpy links no bundled LAPACK; the dense fallback is the path")
    d, e = _random_bands(5, 0)
    for stevx, match in [(lambda *args: 2, "info = 2"),      # inverse iteration failed
                         (lambda *args: 0, "found 0")]:      # info 0, but m = 0
        monkeypatch.setattr(tri, "_lapack", lambda: drivers._replace(stevx=stevx))
        for vectors in (False, True):
            with pytest.raises(np.linalg.LinAlgError, match=match):
                tri.eigpair_bands(d, e, 1, vectors)


def _band_reference(d, e):
    """The real symmetric path of ``decompose`` spelled out on ``eigh_bands``:
    both residuals from the Gram columns of the solver's own kets, unphased
    and in dstevd's layout, over the 16 lowest and 16 highest (every ket up
    to N = 32), then the kets phased in C order, as numpy's ``eigh`` gives them."""
    w, v = tri.eigh_bands(d, e)
    n = len(d)
    v = np.asfortranarray(v)
    rows = np.arange(n) if n <= 32 else np.r_[:16, n - 16:n]
    gram = v.T @ (v if n <= 32 else v[:, rows]) - np.eye(n)[:, rows]
    kets = _fix_phases(np.ascontiguousarray(v))
    return (w.astype(complex), kets, float(np.abs(gram).max()), float(np.linalg.norm(gram)))


def _fields(dec):
    return (dec.eigenvalues, dec.right_kets, dec.biorth_residual,
            dec.completeness_residual)


@pytest.mark.parametrize("fallback", [False, True], ids=["lapack", "dense-fallback"])
@pytest.mark.parametrize("name, d, e", CASES, ids=IDS)
def test_band_value_decomposes_from_its_bands(name, d, e, fallback, monkeypatch):
    if fallback:
        monkeypatch.setattr(tri, "_lapack", lambda: None)
    dec = decompose(Tridiagonal(d, e))
    assert dec.left_bras is dec.right_kets and dec.right_kets.dtype == np.float64
    for got, expected in zip(_fields(dec), _band_reference(d, e)):
        assert np.array_equal(got, expected)
    if fallback:
        # the dense fallback solves the assembled matrix, as dense input does;
        # dense input reads its residuals from the whole Gram product instead
        dense = decompose(np.asarray(Tridiagonal(d, e)))
        assert np.array_equal(dec.eigenvalues, dense.eigenvalues)
        assert np.array_equal(dec.right_kets, dense.right_kets)


def test_complex_band_value_decomposes_as_its_dense_form():
    model = GeneralMassSquared(lambda z, x: 1.0 + 0.3 * x + 0.2j * x)
    T = build_problem("kleingordon", Grid(-6.0, 6.0, 30), model, 0.0)
    dec, dense = decompose(T), decompose(np.asarray(T))
    for got, expected in zip(_fields(dec) + (dec.left_bras,), _fields(dense) + (dense.left_bras,)):
        assert np.array_equal(got, expected)


@pytest.mark.parametrize("name, d, e", CASES, ids=IDS)
def test_dense_fallback_gives_the_same_eigenvalues(name, d, e, monkeypatch):
    fast = tri.eigh_bands(d, e)[0]
    monkeypatch.setattr(tri, "_lapack", lambda: None)
    assert np.array_equal(tri.eigh_bands(d, e)[0], fast)


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


def _norm_bound(z: float) -> float:
    """A bound on ||H(z)||_1 of the fixedpoint report's oscillator."""
    T = build_problem("schrodinger", Grid(-10.0, 10.0, 150), HOQuadratic(1.5, 2.0), z)
    return float(np.abs(T.diagonal).max() + 2.0 * np.abs(T.off_diagonal).max())


def _split_rounding(files):
    """The fixedpoint reports without near_miss and residual; those values apart.

    Each value set apart comes with the largest ||H(z)||_1 bound where it was
    computed: over the window's samples for a near miss, at the level for a
    residual.
    """
    report = json.loads(files["fixedpoint.json"])
    moved = []
    for diagnostic in report["diagnostics"]:
        near_miss = diagnostic.pop("near_miss")
        if near_miss is not None:
            samples = np.linspace(*diagnostic["window"], diagnostic["samples"])
            moved.append((near_miss, max(_norm_bound(float(z)) for z in samples)))
    moved += [(level.pop("residual"), _norm_bound(level["energy"]))
              for level in report["levels"]]
    rows = list(csv.DictReader(io.StringIO(files["levels.csv"].decode())))
    moved += [(float(row.pop("residual")), _norm_bound(float(row["E_alpha"]))) for row in rows]
    others = {name: data for name, data in files.items()
              if name not in ("fixedpoint.json", "levels.csv")}
    return (report, rows, others), np.array(moved)


@pytest.mark.parametrize("command", sorted(REPORT_CONFIGS))
def test_dense_fallback_gives_the_same_reports(tmp_path, monkeypatch, command):
    fast = _reports(tmp_path / "fast", command)
    monkeypatch.setattr(tri, "_lapack", lambda: None)
    dense = _reports(tmp_path / "dense", command)
    if command != "fixedpoint":
        assert dense == fast
        return
    # the search solves one eigenvalue or eigenpair with dstevx, which the
    # dense fallback's full solve matches to rounding, not bit for bit: the
    # near misses and residuals agree to a small multiple of eps * ||H||,
    # every other value exactly (energies come from the same inertia counts)
    fast_rest, fast_moved = _split_rounding(fast)
    dense_rest, dense_moved = _split_rounding(dense)
    assert dense_rest == fast_rest and len(fast_moved) > 3
    assert np.array_equal(dense_moved[:, 1], fast_moved[:, 1])
    assert np.all(np.abs(dense_moved[:, 0] - fast_moved[:, 0]) <= 16 * EPS * fast_moved[:, 1])


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
    def refuse(self, dtype=None, copy=None):
        raise AssertionError("the band search assembled a dense matrix")

    monkeypatch.setattr(Tridiagonal, "__array__", refuse)
    for kind in ("schrodinger", "kleingordon"):
        result = fixedpoint.collect_physical(HOQuadratic(1.5, 2.0), Grid(-10.0, 10.0, 120),
                                             [0, 1], [(0.05, 1.9), (2.1, 6.0)], kind, steps=24)
        assert result.levels and not result.failures


def test_spectrum_solves_no_dense_eigenproblem(tmp_path, no_dense_eigensolves):
    cfg = tmp_path / "spectrum.ini"
    cfg.write_text(textwrap.dedent(REPORT_CONFIGS["spectrum"]), encoding="utf-8")
    assert cli.main(["spectrum", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 0


def test_fv_modes_solve_no_dense_eigenproblem(no_dense_eigensolves):
    H = build_problem("kleingordon", Grid(-8.0, 8.0, 60), ConstantMass(1.0), 0.0)
    modes = assemble_fv(H).modes
    assert modes.spectrum_real


@pytest.mark.parametrize("command", ["spectrum", "fixedpoint", "metric", "evolve"])
def test_real_families_stay_banded(tmp_path, monkeypatch, command):
    if tri._lapack() is None:
        pytest.skip("numpy links no bundled LAPACK; the dense fallback assembles the bands")

    def refuse(self, dtype=None, copy=None):
        raise AssertionError("a real band value was assembled into a dense matrix")

    monkeypatch.setattr(Tridiagonal, "__array__", refuse)
    cfg = tmp_path / f"{command}.ini"
    body = REPORT_CONFIGS["fixedpoint" if command == "metric" else command]
    cfg.write_text(textwrap.dedent(body), encoding="utf-8")
    assert cli.main([command, "--config", str(cfg), "--out-dir", str(tmp_path)]) == 0
