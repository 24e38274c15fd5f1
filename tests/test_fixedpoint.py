import math

import numpy as np
import pytest

import edspec
from edspec.closed_form import spectrum_minus, spectrum_plus
import edspec.fixedpoint as fixedpoint_module
import edspec.operators as operators
import edspec.tridiagonal as tridiagonal
from edspec.errors import DegenerateMass, RefinementStall
from edspec.fixedpoint import (
    REFINE_TOL,
    WINDOW_STEPS,
    _close,
    _ModelFamily,
    _roots,
    _sample_window,
    _SampledWindow,
    collect_physical,
)
from edspec.operators import (
    ConstantMass,
    GeneralMassSquared,
    Grid,
    HOQuadratic,
    Tridiagonal,
    build_problem,
)
from edspec.tridiagonal import count_below, eigpair_bands


GRID = Grid(-10.0, 10.0, 120)


def _eigenvalues(kind, grid, model, z):
    return np.linalg.eigvalsh(np.asarray(build_problem(kind, grid, model, z)))


def test_package_exports_resolve():
    assert all(hasattr(edspec, name) for name in edspec.__all__)
    # the one level search (collect_physical) and its results, nothing beside them
    exported = {name for name in edspec.__all__
                if getattr(getattr(edspec, name), "__module__", "") == "edspec.fixedpoint"}
    assert exported == {"CollectResult", "PhysicalLevel", "WindowDiagnostics",
                        "collect_physical"}


# ---------------------------------------------------------------- branches

def _e_values(window, n):
    """E_n(z_k) at every sample of a window, one ``eigpair_bands`` solve each."""
    return np.array([tridiagonal.eigpair_bands(*window.family.bands(z), n)
                     for z in window.z_samples.tolist()])


def _all_samples_near_miss(window, n):
    """The near miss as min_k |E_n(z_k) - z_k| over every sample, each one solved."""
    return float(np.abs(_e_values(window, n) - window.z_samples).min())


def test_constant_mass_branch_is_flat():
    window = _sample_window(_ModelFamily("schrodinger", GRID, ConstantMass(0.5)), 0.1, 5.0, 16)
    e_values = _e_values(window, 2)
    assert e_values.max() - e_values.min() < 1e-10


def _compiled_count() -> bool:
    drivers = tridiagonal._lapack()
    return drivers is not None and drivers.laebz is not None


def _count_paths(monkeypatch):
    """The count paths that run here, with ``count_below`` sent down each in turn.

    LAPACK's ``dlaebz`` where numpy bundles it, then the Python recurrence of
    the fallback, which stays patched in until the test ends.
    """
    if _compiled_count():
        yield "dlaebz"
    monkeypatch.setattr(tridiagonal, "_lapack", lambda: None)
    yield "python"


def test_count_below_is_the_inertia(rng, monkeypatch):
    cases = []
    for size in (1, 2, 5, 17, 40):
        for _ in range(10):
            T = Tridiagonal(rng.standard_normal(size), rng.standard_normal(size - 1))
            w = np.linalg.eigvalsh(np.asarray(T))
            cases.append((T, w, rng.uniform(w[0] - 1.0, w[-1] + 1.0, 8)))
    for path in _count_paths(monkeypatch):
        for T, w, shifts in cases:
            d, e = T.diagonal, T.off_diagonal
            for s in shifts:
                assert count_below(d, e, s) == np.sum(w < s), path
            gap = 1e-10 * (1.0 + np.abs(w).max())
            for k, s in enumerate(w):
                # at a computed eigenvalue rounding decides its side ...
                assert np.sum(w < s) <= count_below(d, e, s) <= np.sum(w <= s), path
                # ... and a hair away from it the count is exact
                assert count_below(d, e, s - gap) == np.sum(w < s - gap), path
                assert count_below(d, e, s + gap) == np.sum(w < s + gap), path


def _count_bands(rng):
    """Random bands of several sizes, and oscillator bands of both forms."""
    bands = [Tridiagonal(rng.standard_normal(size), rng.standard_normal(size - 1))
             for size in (1, 2, 5, 17, 40, 120) for _ in range(4)]
    bands += [build_problem(kind, grid, model, z)
              for kind in ("schrodinger", "kleingordon")
              for grid, model in ((GRID, HOQuadratic(1.0, 0.0)),
                                  (Grid(-8.0, 8.0, 300), HOQuadratic(6.0, 1.2)))
              for z in (0.3, 1.7, 4.0)]
    return bands


def test_count_sign_agrees_with_the_selective_eigenvalue(rng, monkeypatch):
    # the search signs f_n(s) = E_n - s by count_below(d, e, s) <= n; dstevx
    # bisects the same count for E_n, so the two signs may differ only within
    # a few eps * ||T|| of E_n, where rounding decides the count
    if tridiagonal._lapack() is None:
        pytest.skip("numpy links no bundled LAPACK; the dense fallback solves no dstevx")
    eps = np.finfo(float).eps
    cases = []
    for T in _count_bands(rng):
        d, e = T.diagonal, T.off_diagonal
        norm = np.abs(d).max() + 2.0 * np.abs(e).max(initial=0.0)      # >= ||T||_2
        for n in range(0, len(d), max(1, len(d) // 6)):
            e_n = eigpair_bands(d, e, n)
            shifts = np.concatenate([
                [e_n, np.nextafter(e_n, np.inf), np.nextafter(e_n, -np.inf)],
                e_n + eps * norm * np.arange(-8, 9),
                rng.uniform(e_n - 1.0, e_n + 1.0, 4)])
            cases.append((d, e, n, e_n, 4.0 * eps * norm, shifts))
    for path in _count_paths(monkeypatch):
        near = far = 0
        for d, e, n, e_n, rounding, shifts in cases:
            for s in shifts:
                if (count_below(d, e, s) <= n) != (e_n > s):
                    assert abs(e_n - s) <= rounding, (path, n, e_n, s)
                if abs(e_n - s) <= rounding:
                    near += 1
                else:
                    far += 1
        assert near > 500 and far > 500


def test_compiled_and_python_counts_agree(rng, monkeypatch):
    # the two paths round every pivot alike, so they agree at every shift,
    # also at an eigenvalue and its neighbouring floats, where rounding
    # decides the count
    if not _compiled_count():
        pytest.skip("numpy's LAPACK exports no dlaebz: only the Python count runs")
    cases = []
    for T in _count_bands(rng):
        w = np.linalg.eigvalsh(np.asarray(T))[:10]
        shifts = np.concatenate([w, np.nextafter(w, np.inf), np.nextafter(w, -np.inf),
                                 rng.uniform(w[0] - 1.0, w[-1] + 1.0, 4)])
        cases.append((T.diagonal, T.off_diagonal, shifts))
    counts = {path: [count_below(d, e, s) for d, e, shifts in cases for s in shifts]
              for path in _count_paths(monkeypatch)}
    assert counts["dlaebz"] == counts["python"]
    assert len(counts["python"]) > 900


@pytest.mark.parametrize("d, e, s, distance", [
    ([1.0, 1.0], [2.0], 1.0, 0.1),                # first pivot 1 - 1 = 0
    ([1.0, 1.0, 5.0], [1.0, 2.0], 0.0, 0.1),      # second pivot 1 - 1/1 = 0
    ([np.finfo(float).tiny], [], 0.0, 0.0),       # pivot tiny = pivmin, kept as it is
], ids=["first-pivot", "inner-pivot", "tiny-pivot"])
def test_count_below_survives_zero_pivot(monkeypatch, d, e, s, distance):
    w = np.linalg.eigvalsh(np.asarray(Tridiagonal(np.array(d), np.array(e))))
    assert np.abs(w - s).min() > distance        # s is no eigenvalue
    for path in _count_paths(monkeypatch):
        assert count_below(d, e, s) == np.sum(w < s), path


_TINY = float(np.finfo(float).tiny)
_BELOW = math.nextafter(_TINY, 0.0)         # pivmin- where pivmin = tiny


@pytest.mark.parametrize("d, e, expected", [
    ([0.0], [], 1),
    ([-0.0], [], 1),
    ([_TINY], [], 0),                           # pivmin = tiny (no e^2 above 1)
    ([-_TINY], [], 1),
    ([_BELOW], [], 1),
    ([-_BELOW], [], 1),
    ([5e-324], [], 1),                          # a positive subnormal
    ([4.0 * _TINY, 1.0], [2.0], 1),             # pivmin = 4 tiny: kept, then 1 - 2^1022
    ([-4.0 * _TINY, 1.0], [2.0], 1),            # -pivmin, then 1 + 2^1022
    ([math.nextafter(4.0 * _TINY, 0.0), 1.0], [2.0], 1),   # pivmin-: replaced
    # the step after a replaced pivot: 1 - 1 / (-pivmin-) = 1 + 2^1022 (1 + eps)
    ([0.0, 1.0, 1.0], [1.0, 1.0], 1),
    # ... and one whose sign the replacement decides: det = -1, so one
    # eigenvalue is negative; -2^1022 + 1 / pivmin- = 2^970 > 0 counts 1, where
    # -2^1022 + 1 / pivmin = 0 would count a second
    ([0.0, -2.0 ** 1022], [1.0], 1),
], ids=["zero", "minus-zero", "pivmin", "minus-pivmin", "pivmin-below", "minus-pivmin-below",
        "subnormal", "pivmin-kept", "minus-pivmin-kept", "pivmin-below-replaced",
        "after-replaced", "sign-after-replaced"])
def test_counts_at_the_pivot_guard(monkeypatch, d, e, expected):
    # a pivot below pivmin counts, and is replaced by min(p, -pivmin-), on
    # every count path alike; the diagonal comes shifted by 0, so it holds
    # the pivots exactly
    counts = {path: count_below(d, e, 0.0) for path in _count_paths(monkeypatch)}
    assert set(counts.values()) == {expected}, counts


@pytest.mark.parametrize("kind, model, window", [
    ("schrodinger", HOQuadratic(1.0, 0.0), (0.5, 4.0)),
    ("kleingordon", HOQuadratic(1.0, 0.0), (0.5, 3.0)),
])
def test_index_labels_agree_with_dense_bisection(kind, model, window):
    # oracle: f(z) = E_1(z) - z from a dense eigensolve, signed on a grid ten
    # times finer than the search's and bisected apart from the search
    refine_tol = 1e-10

    def f(z):
        return _eigenvalues(kind, GRID, model, z)[1] - z

    z = np.linspace(*window, 241)
    values = np.array([f(zk) for zk in z])
    (k,) = np.flatnonzero(np.sign(values[:-1]) != np.sign(values[1:]))
    lo, hi = z[k], z[k + 1]
    while hi - lo > refine_tol / 4:
        mid = 0.5 * (lo + hi)
        if (f(mid) > 0.0) == (values[k] > 0.0):
            lo = mid
        else:
            hi = mid
    result = collect_physical(model, GRID, [1], [window], kind, steps=24,
                              refine_tol=refine_tol)
    roots = [lv.energy for lv in result.levels]
    assert len(roots) == 1
    assert abs(roots[0] - 0.5 * (lo + hi)) <= refine_tol


def test_real_general_mass_squared_is_searched_by_index():
    real = GeneralMassSquared(lambda z, x: 0.5 + 0.5 * z)
    result = collect_physical(real, GRID, [0], [(0.5, 2.0)], "kleingordon", steps=8)
    assert not result.failures and len(result.diagnostics) == 1


def test_complex_mass_squared_is_refused_by_the_index_search():
    # the evaluator's complex value is refused where the bands are written,
    # and the search records it as the window's failure
    model = GeneralMassSquared(lambda z, x: 0.5 + 0.5 * z + 1e-3j * x)
    result = collect_physical(model, GRID, [0], [(0.5, 2.0)], "kleingordon", steps=8)
    assert not result.levels and not result.diagnostics
    assert [(f.error, f.window) for f in result.failures] == [("EvaluationFailure", (0.5, 2.0))]
    assert "complex" in result.failures[0].message


def test_ho_branch_decreases_with_z():
    # effective mass grows with |z - E0|, so every frozen level falls
    window = _sample_window(_ModelFamily("schrodinger", GRID, HOQuadratic(1.0, 0.0)), 0.5, 5.0,
                            24)
    assert (np.diff(_e_values(window, 0)) < 0).all()


def test_window_containing_singularity_rejected():
    result = collect_physical(HOQuadratic(1.0, 1.0), GRID, [0], [(0.5, 2.0)], steps=8)
    assert not result.levels and not result.diagnostics
    assert [(f.window, f.error) for f in result.failures] == [((0.5, 2.0), "DegenerateMass")]


def test_kleingordon_window_may_straddle_e0():
    # only the schrodinger form divides by 2 m(z); the Klein-Gordon
    # mass-squared (A^2 (z - E0)^2 / 2)^2 is smooth through z = E0
    grid = Grid(-8.0, 8.0, 80)
    model = HOQuadratic(1.0, 1.0)
    whole = collect_physical(model, grid, [0, 1], [(0.05, 5.0)], "kleingordon")
    halves = collect_physical(model, grid, [0, 1], [(0.05, 1.0), (1.0, 5.0)], "kleingordon")
    assert not whole.failures and not halves.failures
    assert [lv.multi_index for lv in whole.levels] == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert [lv.multi_index for lv in halves.levels] == [lv.multi_index for lv in whole.levels]
    np.testing.assert_allclose([lv.energy for lv in whole.levels],
                               [lv.energy for lv in halves.levels], atol=1e-9)
    assert [lv.energy < 1.0 for lv in whole.levels] == [True, False, True, False]
    schrodinger = collect_physical(model, grid, [0], [(0.05, 5.0)])
    assert [f.error for f in schrodinger.failures] == ["DegenerateMass"]


def test_trace_argument_validation(monkeypatch):
    with pytest.raises(ValueError):
        collect_physical(ConstantMass(1.0), GRID, [0], [(1.0, 2.0)], steps=1)
    with pytest.raises(ValueError):
        collect_physical(ConstantMass(1.0), GRID, [0], [(2.0, 1.0)], steps=8)
    with pytest.raises(ValueError):
        collect_physical(ConstantMass(1.0), GRID, [500], [(1.0, 2.0)], steps=4)
    # checked before sampling, so also when every window fails to sample ...
    with pytest.raises(ValueError, match="branch index 999"):
        collect_physical(HOQuadratic(1.0, 2.0), Grid(-5.0, 5.0, 40), [999], [(1.0, 3.0)])
    # ... or contains the mass singularity z = E0 = 1
    with pytest.raises(ValueError, match="steps must be >= 2"):
        collect_physical(HOQuadratic(1.0, 1.0), GRID, [0], [(0.5, 2.0)], steps=1)
    with pytest.raises(ValueError, match="need z_lo < z_hi"):
        collect_physical(HOQuadratic(1.0, 1.0), GRID, [0], [(1.0, 1.0)])
    # ... and before any window is counted
    def no_count(self, z, shift):
        raise AssertionError(f"a window was counted, at z = {z}")

    monkeypatch.setattr(fixedpoint_module._ModelFamily, "count", no_count)
    with pytest.raises(ValueError, match=r"need z_lo < z_hi, got \[2.0, 2.0\]"):
        collect_physical(HOQuadratic(1.0, 1.0), GRID, [0], [(1.5, 3.0), (2.0, 2.0)])


@pytest.mark.parametrize("window", [(1.2, math.inf), (-math.inf, 0.5)], ids=["hi-inf", "lo-inf"])
def test_non_finite_window_rejected_before_sampling(window):
    with pytest.raises(ValueError, match="window bounds must be finite"):
        collect_physical(HOQuadratic(1.0, 1.0), Grid(-8.0, 8.0, 100), [0, 1], [window])


# ---------------------------------------------------------------- root solving

class _ScalarFamily:
    """The 1x1 family H(z) = [energy(z)], counted as the search counts its bands."""

    def __init__(self, energy):
        self.energy = energy

    def count(self, z, shift):
        # a zero pivot counts as negative, as in the search's own count
        return count_below([self.energy(z)], [], shift)


def _fixed_points(energy, z_lo, z_hi, steps, refine_tol=REFINE_TOL):
    """Roots of z = energy(z), a 1x1 family, by the search's root solver."""
    window = _SampledWindow(_ScalarFamily(energy), np.linspace(z_lo, z_hi, steps))
    return _roots(window, 0, refine_tol)[0]


def test_constant_branch_single_root():
    # the root z = 3 is a sample: its count puts it on one side, and the
    # bracket on the other side is bisected
    roots = _fixed_points(lambda z: 3.0, 0.0, 5.0, 11)
    assert len(roots) == 1
    assert roots[0] == pytest.approx(3.0, abs=REFINE_TOL / 2)


def test_hyperbolic_branch_root():
    # E(z) = c/z crosses z = E once on z > 0, at sqrt(c)
    roots = _fixed_points(lambda z: 4.0 / z, 0.5, 5.0, 32)
    assert len(roots) == 1
    assert roots[0] == pytest.approx(2.0, abs=1e-9)


def test_no_bracket_returns_empty():
    assert _fixed_points(lambda z: 10.0, 0.0, 5.0, 8) == []


def test_tangent_root_on_a_sample_is_one_root():
    # f(z) = (z - 3)^2 touches 0 at the sample z = 3 only, whose zero pivot
    # counts as negative: both brackets at that sample change sign.  Within
    # about sqrt(eps) of 3, z + (z - 3)^2 rounds to z, so the two estimates
    # stop that far on either side, inside the tangency guard of each other
    (root,) = _fixed_points(lambda z: z + (z - 3.0) ** 2, 0.0, 5.0, 11)
    assert root == pytest.approx(3.0, abs=1e-7)


@pytest.mark.parametrize("half_width", [1e-100, 1e-200])
def test_bracket_of_tiny_values_is_found(half_width):
    # f(z) = z: the counts at +-half_width differ however tiny f is, so the
    # root z = 0 is bisected to a tolerance at the scale of the bracket
    (root,) = _fixed_points(lambda z: 2.0 * z, -half_width, half_width, 2,
                            refine_tol=1e-10 * half_width)
    assert abs(root) <= 1e-10 * half_width


def test_refinement_stall():
    # root at sqrt(2), and the tolerance sits below float spacing, so
    # bisection must report exhaustion
    with pytest.raises(RefinementStall):
        _fixed_points(lambda z: 2.0 / z, 0.5, 5.0, 10, refine_tol=1e-300)


def test_refinement_stall_is_a_recorded_failure():
    # a tolerance below the float spacing at the root z = 1: bisection
    # exhausts float resolution, and the pair fails alone
    result = collect_physical(HOQuadratic(1.0, 0.0), GRID, [0, 1], [(0.5, 1.5), (1.5, 2.5)],
                              steps=8, refine_tol=1e-300)
    assert [(f.branch_index, f.window, f.error) for f in result.failures] == [
        (0, (0.5, 1.5), "RefinementStall"), (1, (1.5, 2.5), "RefinementStall")]
    assert [(d.branch_index, d.window) for d in result.diagnostics] == [
        (0, (1.5, 2.5)), (1, (0.5, 1.5))]
    assert not result.levels


def test_multiple_fixed_points_match_closed_form():
    # branch 0 of A=12, E0=1 carries the full multi-index structure: the
    # finite pair below E0 plus one root above it
    model = HOQuadratic(12.0, 1.0)
    result = collect_physical(model, GRID, [0], [(0.02, 0.95), (1.05, 4.0)], steps=48)
    zs = [lv.energy for lv in result.levels]
    pair = spectrum_minus(model, 0)
    expected = sorted([pair[1] / 2.0, pair[0] / 2.0, spectrum_plus(model, 0) / 2.0])
    assert len(zs) == 3
    # location check only at this coarse grid; the tight tolerance matching
    # lives in the acceptance suite at its pinned resolution
    np.testing.assert_allclose(zs, expected, rtol=3e-2)


def test_root_count_stable_under_resampling():
    model = HOQuadratic(12.0, 1.0)
    for steps in (33, 64):
        result = collect_physical(model, GRID, [0], [(0.02, 0.95)], steps=steps)
        assert len(result.levels) == 2


def test_fixed_point_identity():
    refine_tol = 1e-10
    model = HOQuadratic(1.0, 0.0)
    result = collect_physical(model, GRID, [0], [(0.5, 4.0)], steps=32, refine_tol=refine_tol)
    (level,) = result.levels
    nearest = _eigenvalues("schrodinger", GRID, model, level.energy)
    assert np.abs(nearest - level.energy).min() <= refine_tol * (1.0 + abs(level.energy))


# ---------------------------------------------------------------- exact oracle

def _kleingordon_oracle_roots(model, grid, n):
    """Real fixed points of branch n of the Klein-Gordon form of an oscillator mass.

    The mass-squared (A^2 (z - E0)^2 / 2)^2 does not depend on x, so H(z) is
    the Dirichlet 3-point matrix plus m^2(z) I, and E_n(z) = kappa_n + m^2(z)
    with kappa_n = (4 / h^2) sin^2((n + 1) pi / (2 (N + 1))).  The fixed
    points are the real roots of (A^4 / 4) u^4 - u + kappa_n - E0, u = z - E0.
    """
    kappa = 4.0 / grid.h ** 2 * np.sin((n + 1) * np.pi / (2 * (grid.n_points + 1))) ** 2
    u = np.roots([model.A ** 4 / 4.0, 0.0, 0.0, -1.0, kappa - model.E0])
    return np.sort(u.real[np.abs(u.imag) <= 1e-9 * (1.0 + np.abs(u))] + model.E0)


ORACLE_GRID = Grid(-8.0, 8.0, 200)


def _assert_oracle_levels(result, model, n_list, refine_tol=REFINE_TOL):
    """Two levels per branch, each within refine_tol of an exact root."""
    assert not result.failures
    for n in n_list:
        exact = _kleingordon_oracle_roots(model, ORACLE_GRID, n)
        found = [lv.energy for lv in result.levels if lv.multi_index[0] == n]
        assert len(exact) == len(found) == 2, (n, exact, found)
        assert np.abs(np.array(found) - exact).max() <= refine_tol, (n, exact, found)


@pytest.mark.parametrize("A, E0", [(1.0, 1.0), (1.0, 2.0), (1.2, 1.5)])
def test_kleingordon_levels_match_the_exact_oracle(A, E0):
    model = HOQuadratic(A, E0)
    result = collect_physical(model, ORACLE_GRID, [0, 1, 2], [(-3.0, 6.0)], "kleingordon")
    _assert_oracle_levels(result, model, [0, 1, 2])


@pytest.mark.parametrize("steps", [
    WINDOW_STEPS,
    pytest.param(16, marks=pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="ROADMAP item 9: a pair inside one sample step is missed, and reported "
               "only as a near miss")),
])
def test_near_threshold_pair_matches_the_exact_oracle(steps):
    # the branch-0 pair emerges at E0* = kappa_0 - 3/4 (A = 1), where the
    # quartic's double root sits at z = E0 + 1; 1e-3 above it the two roots
    # lie 0.05 apart
    kappa_0 = 4.0 / ORACLE_GRID.h ** 2 * np.sin(np.pi / (2 * (ORACLE_GRID.n_points + 1))) ** 2
    model = HOQuadratic(1.0, kappa_0 - 0.75 + 1e-3)
    np.testing.assert_allclose(_kleingordon_oracle_roots(model, ORACLE_GRID, 0),
                               [0.26274345, 0.31438992], atol=5e-9)
    window = (model.E0 + 0.2, model.E0 + 2.0)
    result = collect_physical(model, ORACLE_GRID, [0], [window], "kleingordon", steps=steps)
    _assert_oracle_levels(result, model, [0])


# ---------------------------------------------------------------- collection

def test_constant_mass_levels_equal_spectrum():
    grid = Grid(-5.0, 5.0, 24)
    model = ConstantMass(0.5)
    spectrum = _eigenvalues("schrodinger", grid, model, 0.0)
    covered = spectrum[spectrum < 8.0]
    result = collect_physical(model, grid, range(len(covered)), [(0.0, 8.0)])
    assert not result.failures
    energies = sorted(lv.energy for lv in result.levels)
    np.testing.assert_allclose(energies, covered, atol=1e-9)
    for level in result.levels:
        bra_ket = np.vdot(level.left_bra, level.right_ket)
        assert abs(bra_ket - 1.0) <= 1e-8
        assert level.residual <= 1e-8


def test_ho_plus_level_matches_closed_form():
    # converged level from the pipeline against the closed-form table at the
    # documented factor of two
    grid = Grid(-12.0, 12.0, 400)
    result = collect_physical(HOQuadratic(1.0, 3.0), grid, [0], [(3.1, 7.0)], steps=48)
    assert not result.failures
    assert len(result.levels) == 1
    closed = spectrum_plus(HOQuadratic(1.0, 3.0), 0)
    assert 2.0 * result.levels[0].energy == pytest.approx(closed, rel=1e-4)


def test_emergence_of_minus_family():
    # crossing the threshold A*E0^2 = 4 turns on the finite pair
    grid = Grid(-8.0, 8.0, 100)
    windows = [(0.05, 0.9)]
    sparse = collect_physical(HOQuadratic(3.6, 1.0), grid, [0], windows)
    assert len(sparse.levels) == 0
    rich = collect_physical(HOQuadratic(4.4, 1.0), grid, [0], windows)
    assert len(rich.levels) == 2
    assert [lv.multi_index for lv in rich.levels] == [(0, 0), (0, 1)]


def test_partial_failures_are_reported():
    grid = Grid(-8.0, 8.0, 80)
    result = collect_physical(
        HOQuadratic(1.0, 1.0), grid, [0], [(0.5, 1.5), (1.1, 4.0)])
    assert len(result.failures) == 1
    assert result.failures[0].error == "DegenerateMass"
    assert result.failures[0].window == (0.5, 1.5)
    assert len(result.levels) == 1          # the valid window still delivers


def test_multi_indices_unique():
    grid = Grid(-8.0, 8.0, 80)
    result = collect_physical(HOQuadratic(12.0, 1.0), grid, [0, 1],
                              [(0.02, 0.95), (1.05, 4.0)])
    indices = [lv.multi_index for lv in result.levels]
    assert len(indices) == len(set(indices))


def test_domain_convention_full_line_vs_half_line():
    # Documents the coordinate-domain resolution.  On the full line the
    # fixed points of branch n sit at sqrt(2n+1) for A=1, E0=0, i.e. at
    # exactly half the closed-form table; the half-line (Dirichlet at 0)
    # realization keeps only the odd-index states, sqrt(4k+3).  The full
    # line therefore reproduces the complete family and is the convention
    # used throughout, together with the factor-two energy scale.
    model = HOQuadratic(1.0, 0.0)
    n_points, box = 200, 12.0
    full = Grid(-box, box, n_points)
    # virtual Dirichlet node at exactly 0 makes this the half-line problem
    half = Grid(box / n_points, box, n_points)
    for n in range(2):
        (level_full,) = collect_physical(model, full, [n], [(0.5, 4.5)], steps=40).levels
        assert 2.0 * level_full.energy == pytest.approx(spectrum_plus(model, n), rel=5e-3)
        (level_half,) = collect_physical(model, half, [n], [(0.5, 4.5)], steps=40).levels
        assert level_half.energy == pytest.approx(np.sqrt(4.0 * n + 3.0), rel=5e-3)
        # the half-line root reproduces only the odd-index table entries
        assert 2.0 * level_half.energy == pytest.approx(
            spectrum_plus(model, 2 * n + 1), rel=5e-3)


def test_window_diagnostics_report_near_misses():
    # just below emergence the minus pair is absent, but f comes close to 0
    grid = Grid(-8.0, 8.0, 100)
    sparse = collect_physical(HOQuadratic(3.6, 1.0), grid, [0], [(0.05, 0.9)])
    assert not sparse.levels
    (diag,) = sparse.diagnostics
    assert (diag.branch_index, diag.window) == (0, (0.05, 0.9))
    assert diag.samples == WINDOW_STEPS and diag.bisection_steps == 0
    assert np.isfinite(diag.near_miss) and 0.0 < diag.near_miss < 0.1
    rich = collect_physical(HOQuadratic(4.4, 1.0), grid, [0], [(0.05, 0.9)])
    (diag,) = rich.diagnostics
    assert len(rich.levels) == 2
    assert diag.near_miss is None and diag.bisection_steps > 0


def test_failures_and_diagnostics_keep_branch_window_order():
    grid = Grid(-8.0, 8.0, 80)
    windows = [(0.5, 1.5), (1.1, 4.0)]
    result = collect_physical(HOQuadratic(1.0, 1.0), grid, [1, 0], windows)
    assert [(f.branch_index, f.window) for f in result.failures] == [
        (1, (0.5, 1.5)), (0, (0.5, 1.5))]
    assert [(d.branch_index, d.window) for d in result.diagnostics] == [
        (1, (1.1, 4.0)), (0, (1.1, 4.0))]


def test_root_on_shared_window_endpoint_counts_once():
    # H does not depend on z for a constant mass, so the branch-1 root is its
    # eigenvalue E1, sampled exactly as the end of one window and the start
    # of the next.  The count at E1 puts the sample on one side: the window
    # on the other side bisects the root, and the one whose samples all lie
    # on the count's side of it brackets nothing and misses E1 by 0
    grid = Grid(-5.0, 5.0, 24)
    model = ConstantMass(0.5)
    T = build_problem("schrodinger", grid, model, 0.0)
    e1 = eigpair_bands(T.diagonal, T.off_diagonal, 1)
    result = collect_physical(model, grid, [1], [(0.5 * e1, e1), (e1, 2.0 * e1)])
    assert not result.failures
    (level,) = result.levels
    assert level.multi_index == (1, 0) and abs(level.energy - e1) <= REFINE_TOL / 2
    assert sorted((d.bisection_steps > 0, d.near_miss) for d in result.diagnostics) == [
        (False, 0.0), (True, None)]
    # the same window listed twice still yields coincident levels (the run
    # configuration refuses such a list)
    twice = collect_physical(model, grid, [1], [(0.5 * e1, 2.0 * e1)] * 2)
    assert [lv.multi_index for lv in twice.levels] == [(1, 0), (1, 1)]
    assert twice.levels[0].energy == twice.levels[1].energy


def test_overlapping_windows_count_a_root_once():
    # both windows bracket the branch-0 root near z = 1; each bisection stops
    # within refine_tol / 2 of it, so the two estimates differ by more than
    # the tangency guard but by less than refine_tol
    grid = Grid(-8.0, 8.0, 80)
    model = HOQuadratic(1.0, 0.0)
    refine_tol = 1e-3
    windows = [(0.5, 2.0), (0.7, 3.0)]
    apart = [collect_physical(model, grid, [0], [w], refine_tol=refine_tol).levels[0].energy
             for w in windows]
    assert 1e-8 * 2.0 < abs(apart[0] - apart[1]) <= refine_tol
    result = collect_physical(model, grid, [0], windows, refine_tol=refine_tol)
    assert [(lv.multi_index, lv.energy) for lv in result.levels] == [((0, 0), min(apart))]
    (fine,) = collect_physical(model, grid, [0], windows).levels
    assert abs(fine.energy - min(apart)) <= refine_tol / 2


# ---------------------------------------------------------------- count signs

def _eigenvalue_sign_roots(window, n, refine_tol):
    """Reference search: signs of E_n(z) - z from eigenvalues, at every sample and step.

    A sample where E_n(z) == z is a root; a sign change between two samples
    is bisected by the sign of the eigenvalue at the midpoint.
    """
    z = window.z_samples
    f = _e_values(window, n) - z
    raw, evals = [], 0
    for k in range(len(z)):
        if f[k] == 0.0:
            raw.append(float(z[k]))
        elif k + 1 < len(z) and f[k + 1] != 0.0 and (f[k] > 0.0) != (f[k + 1] > 0.0):
            lo, hi = float(z[k]), float(z[k + 1])
            while hi - lo > refine_tol:
                mid = 0.5 * (lo + hi)
                evals += 1
                if (eigpair_bands(*window.family.bands(mid), n) > mid) == (f[k] > 0.0):
                    lo = mid
                else:
                    hi = mid
            raw.append(0.5 * (lo + hi))
    roots = []
    for root in raw:
        if not (roots and _close(root, roots[-1])):
            roots.append(root)
    return roots, evals


def test_count_signs_match_eigenvalue_signs(monkeypatch):
    rng = np.random.default_rng(20261018)
    seen = {"levels": 0, "near_misses": 0, "failures": 0}
    for draw in range(40):
        kind = ("schrodinger", "kleingordon")[draw % 2]
        e0 = float(rng.uniform(0.3, 2.0))
        model = HOQuadratic(float(rng.uniform(0.5, 12.0)), e0)
        half_width = float(rng.uniform(4.0, 10.0))
        grid = Grid(-half_width, half_width, int(rng.integers(20, 90)))
        steps = int(rng.integers(4, 40))
        n_list = sorted(rng.choice(4, size=int(rng.integers(1, 5)), replace=False).tolist())
        # disjoint windows a gap apart, so no root is merged across windows
        ends = np.sort(rng.uniform(0.02, 3.0 * e0 + 3.0, 4))
        windows = [(float(ends[0]), float(ends[1])),
                   (float(ends[2]) + 0.05, float(ends[3]) + 0.1)]
        result = collect_physical(model, grid, n_list, windows, kind, steps=steps)
        with monkeypatch.context() as patch:
            patch.setattr(fixedpoint_module, "_roots", _eigenvalue_sign_roots)
            patch.setattr(_SampledWindow, "near_miss", _all_samples_near_miss)
            reference = collect_physical(model, grid, n_list, windows, kind, steps=steps)
        levels = [(lv.multi_index, lv.energy) for lv in reference.levels]
        failures = [(f.branch_index, f.window, f.error) for f in reference.failures]
        near_misses = [d.near_miss for d in reference.diagnostics]
        assert [(lv.multi_index, lv.energy) for lv in result.levels] == levels
        assert [(f.branch_index, f.window, f.error) for f in result.failures] == failures
        assert [d.near_miss for d in result.diagnostics] == near_misses
        seen["levels"] += len(levels)
        seen["near_misses"] += sum(m is not None for m in near_misses)
        seen["failures"] += len(failures)
    assert all(count > 5 for count in seen.values()), seen


class _Solves(list):
    """(diagonal, branch) of each eigenvalue solve; ``kets`` those of the eigenpair solves."""

    def __init__(self):
        super().__init__()
        self.kets = []


@pytest.fixture
def solves(monkeypatch):
    """The level search's eigenvalue and eigenpair solves, with the bands they solve."""
    calls = _Solves()
    solve = tridiagonal.eigpair_bands

    def counted(d, e, n, vectors=False):
        (calls.kets if vectors else calls).append((np.asarray(d).tobytes(), n))
        return solve(d, e, n, vectors)

    monkeypatch.setattr(tridiagonal, "eigpair_bands", counted)
    monkeypatch.setattr(fixedpoint_module, "eigpair_bands", counted)
    return calls


@pytest.mark.parametrize("model, n_list, window, brackets", [
    (HOQuadratic(1.0, 0.0), [0, 1, 2], (0.5, 4.0), 3),      # one root per branch
    (HOQuadratic(12.0, 1.0), [0], (0.02, 0.95), 2),          # the minus pair
], ids=["root-per-branch", "minus-pair"])
def test_bracketing_window_solves_at_most_bracket_ends(solves, model, n_list, window,
                                                       brackets):
    result = collect_physical(model, GRID, n_list, [window], steps=32)
    assert len(result.levels) == brackets
    assert all(d.near_miss is None for d in result.diagnostics)
    # counts sign and bisect every bracket
    assert not solves
    # one ket per level, each solved for its own branch
    assert [n for _, n in solves.kets] == [lv.multi_index[0] for lv in result.levels]


@pytest.mark.parametrize("n_list", [[0], [0, 1, 2, 3]])
def test_root_free_window_solves_each_sample_once(solves, n_list):
    # f_n(z) = E_n(z) - z > 0 below the lowest root z = 1 of the oscillator
    result = collect_physical(HOQuadratic(1.0, 0.0), GRID, n_list, [(0.2, 0.9)], steps=16)
    assert not result.levels and not result.failures
    assert all(d.near_miss > 0.0 for d in result.diagnostics)
    # counts exclude all but at most three of the sixteen samples of each
    # branch, and no (sample, branch) pair is solved twice
    assert len(solves) == len(set(solves)) <= 3 * len(n_list)
    assert sorted({n for _, n in solves}) == n_list
    assert not solves.kets
    window = _sample_window(_ModelFamily("schrodinger", GRID, HOQuadratic(1.0, 0.0)),
                            0.2, 0.9, 16)
    assert [d.near_miss for d in result.diagnostics] == [
        _all_samples_near_miss(window, n) for n in n_list]


def test_bisection_makes_no_solves(solves):
    window = [(0.5, 4.0)]
    coarse = collect_physical(HOQuadratic(1.0, 0.0), GRID, [0, 1], window, refine_tol=1e-3)
    fine = collect_physical(HOQuadratic(1.0, 0.0), GRID, [0, 1], window, refine_tol=1e-12)
    assert (sum(d.bisection_steps for d in fine.diagnostics)
            > sum(d.bisection_steps for d in coarse.diagnostics))
    assert not solves and len(solves.kets) == len(coarse.levels) + len(fine.levels) == 4


def test_dense_fallback_solves_each_sample_once(monkeypatch, solves):
    # branches 1 and 2 have no root in the first window, so each has a near
    # miss there; branch 0 brackets roots, which need no solve
    args = (HOQuadratic(1.0, 2.0), Grid(-8.0, 8.0, 60), [0, 1, 2], [(0.1, 1.85), (2.1, 8.0)])
    monkeypatch.setattr(tridiagonal, "_lapack", lambda: None)
    with monkeypatch.context() as patch:
        # the near miss solved at every sample: one dense eigvalsh per
        # (sample, branch)
        patch.setattr(_SampledWindow, "near_miss", _all_samples_near_miss)
        reference = collect_physical(*args, steps=16)
    assert len(solves) == 2 * 16
    del solves[:]
    result = collect_physical(*args, steps=16)
    assert [d.near_miss is not None for d in result.diagnostics] == [False, False, True,
                                                                     False, True, False]
    # the counts leave at most three samples of each of the two to solve
    assert len(solves) == len(set(solves)) <= 2 * 3
    assert result.diagnostics == reference.diagnostics and not result.failures
    assert len(result.levels) == len(reference.levels)
    for level, expected in zip(result.levels, reference.levels):
        assert (level.multi_index, level.energy, level.residual) == \
            (expected.multi_index, expected.energy, expected.residual)
        assert np.array_equal(level.right_ket, expected.right_ket)


@pytest.mark.parametrize("kind, model, windows", [
    ("schrodinger", HOQuadratic(12.0, 1.0), [(0.02, 0.95), (1.05, 4.0)]),
    ("kleingordon", HOQuadratic(1.0, 1.0), [(0.05, 0.6), (0.7, 2.5)]),
    # the same mass-squared as the oscillator's, evaluated at every node
    ("kleingordon", GeneralMassSquared(lambda z, x: (0.5 * (z - 1.0) ** 2) ** 2),
     [(0.05, 0.6), (0.7, 2.5)]),
], ids=["schrodinger", "kleingordon", "general"])
def test_counts_build_no_bands(monkeypatch, solves, kind, model, windows):
    # every band of the search comes from write_bands: a count writes
    # H(z) - s into the search's own buffers, or shifts a near-miss sample's
    # bands into them, and new arrays are written once per sample of a window
    # with a near miss, whatever the number of its branches that miss, and
    # once per level for its ket.  No Tridiagonal is built, but for the dense
    # fallback's matrix of each solve
    built, in_place, new = [], [], []
    write, construct = operators.write_bands, Tridiagonal.__init__

    def counted_write(kind, grid, model, z, out=None):
        (new if out is None else in_place).append(z)
        return write(kind, grid, model, z, out)

    def counted_construct(self, *args):
        built.append(args)
        construct(self, *args)

    monkeypatch.setattr(operators, "write_bands", counted_write)
    monkeypatch.setattr(Tridiagonal, "__init__", counted_construct)
    result = collect_physical(model, GRID, [0, 1, 2], windows, kind, steps=16)
    missed = {d.window for d in result.diagnostics if d.near_miss is not None}
    assert not result.failures and len(result.levels) >= 3 and len(missed) == 1
    bisection_steps = sum(d.bisection_steps for d in result.diagnostics)
    assert bisection_steps > 80
    assert len(built) == (0 if tridiagonal._lapack() is not None
                          else len(solves) + len(solves.kets))
    assert len(in_place) == 16 * len(windows) + bisection_steps
    (window,) = missed
    assert sorted(new) == sorted([*np.linspace(*window, 16).tolist(),
                                  *(lv.energy for lv in result.levels)])


# ---------------------------------------------------------------- near misses

def _near_miss_paths(monkeypatch):
    """The paths a near miss runs, with the search's solver and counter sent down each in turn.

    LAPACK's ``dlaebz`` counts; the Python count beside LAPACK's ``dstevx``,
    as where a library exports the drivers but not ``dlaebz``; and the dense
    fallback with the Python count, which stays patched in until the test
    ends.  The paths of ``_count_paths`` are the first and the last.
    """
    drivers = tridiagonal._lapack()
    if drivers is not None:
        if drivers.laebz is not None:
            yield "dlaebz"
        monkeypatch.setattr(tridiagonal, "_lapack", lambda: drivers._replace(laebz=None))
        yield "python"
    monkeypatch.setattr(tridiagonal, "_lapack", lambda: None)
    yield "dense"


def _root_free_draws(rng, pairs):
    """Random windows, at least ``pairs`` root-free (branch, window) pairs among them.

    Both forms, constant and oscillator masses, N 10-200 and 2-40 samples;
    each draw is (kind, model, grid, window, steps, branches), its branches
    those that change sign nowhere on the window.
    """
    draws, found = [], 0
    while found < pairs:
        kind = ("schrodinger", "kleingordon")[len(draws) % 2]
        if len(draws) % 4 < 2:
            model = ConstantMass(float(rng.uniform(0.2, 3.0)))
        else:
            model = HOQuadratic(float(rng.uniform(0.5, 4.0)), float(rng.uniform(0.5, 3.0)))
        half_width = float(rng.uniform(3.0, 10.0))
        grid = Grid(-half_width, half_width, int(np.exp(rng.uniform(np.log(10), np.log(201)))))
        steps = int(np.exp(rng.uniform(np.log(2), np.log(41))))
        lo, hi = np.sort(rng.uniform(0.02, 8.0, 2)).tolist()
        try:
            window = _sample_window(_ModelFamily(kind, grid, model), lo, hi, steps)
        except DegenerateMass:
            continue
        above = window.counts[None, :] <= np.arange(min(grid.n_points, 12))[:, None]
        branches = np.flatnonzero(above.all(axis=1) | ~above.any(axis=1))
        branches = rng.permutation(branches)[:6].tolist()
        draws.append((kind, model, grid, (lo, hi), steps, branches))
        found += len(branches)
    return draws


def _reference_near_misses(sampled, branches):
    """min_k |E_n(z_k) - z_k| over every sample for each branch, E_n from ``eigpair_bands``.

    On the dense fallback ``eigpair_bands`` is an entry of the dense spectrum
    of the sample, so one ``eigvalsh`` per sample serves every branch.
    """
    z = sampled.z_samples
    bands = [sampled.family.bands(zk) for zk in z.tolist()]
    if tridiagonal._lapack() is not None:
        values = [[tridiagonal.eigpair_bands(d, e, n) for n in branches] for d, e in bands]
    else:
        values = [np.linalg.eigvalsh(np.asarray(Tridiagonal(d, e)))[branches] for d, e in bands]
    return np.abs(np.array(values) - z[:, None]).min(axis=0).tolist()


def test_near_miss_is_the_minimum_over_all_samples(monkeypatch, solves):
    # the near miss solves E_n only at the samples no exclusion count drops,
    # yet it is min_k |E_n(z_k) - z_k| over every sample bit for bit.  The
    # draws are dealt in turn to the paths that run here, and each path sees
    # both forms, both masses and f_n of either sign
    draws = _root_free_draws(np.random.default_rng(20261021), 2000)
    paths = 1 + (tridiagonal._lapack() is not None) + _compiled_count()
    checked = 0
    for turn, path in enumerate(_near_miss_paths(monkeypatch)):
        seen, signs, near_miss_solves = set(), [], 0
        for kind, model, grid, window, steps, branches in draws[turn::paths]:
            sampled = _sample_window(_ModelFamily(kind, grid, model), *window, steps)
            expected = _reference_near_misses(sampled, branches)
            solved = len(solves)
            for n, value in zip(branches, expected):
                assert sampled.near_miss(n) == value, (path, kind, model, grid, window, n)
                signs.append(bool(sampled.counts[0] <= n))
            near_miss_solves += len(solves) - solved
            seen.add((kind, type(model).__name__))
        assert len(seen) == 4 and 0.2 < np.mean(signs) < 0.8, path
        assert near_miss_solves < 2 * len(signs), path
        checked += len(signs)
    assert checked >= 2000


def test_near_miss_on_a_shared_window_endpoint_stays_zero(monkeypatch):
    # the family of test_root_on_shared_window_endpoint_counts_once: the
    # window whose samples all read the count's side of E1 misses it by
    # exactly 0.0, at the shared sample, which no count can exclude
    grid, model = Grid(-5.0, 5.0, 24), ConstantMass(0.5)
    for path in _near_miss_paths(monkeypatch):
        T = build_problem("schrodinger", grid, model, 0.0)
        e1 = eigpair_bands(T.diagonal, T.off_diagonal, 1)
        result = collect_physical(model, grid, [1], [(0.5 * e1, e1), (e1, 2.0 * e1)])
        assert sorted((d.bisection_steps > 0, d.near_miss) for d in result.diagnostics) == [
            (False, 0.0), (True, None)], path


def test_near_miss_of_a_two_sample_window(monkeypatch, solves):
    # f_n > 0 below the oscillator's roots, f_n < 0 above them
    family = _ModelFamily("schrodinger", GRID, HOQuadratic(1.0, 0.0))
    for path in _near_miss_paths(monkeypatch):
        for window in ((0.2, 0.9), (2.5, 4.0)):
            sampled = _sample_window(family, *window, 2)
            expected = _reference_near_misses(sampled, [0, 1])
            del solves[:]
            assert [sampled.near_miss(n) for n in (0, 1)] == expected, (path, window)
            assert len(solves) == len(set(solves)) <= 4, (path, window)


def test_near_miss_solves_both_samples_of_a_near_tie(monkeypatch, solves):
    # f_n(z) = lambda_n + 0.3 + (z - 2)^2, a dip at z = 2 between the samples
    # 1.9 and 2.1: their distances differ only by rounding, within the margin
    # of the exclusion counts, so neither may be dropped for the other
    model = GeneralMassSquared(lambda z, x: z + 0.3 + (z - 2.0) ** 2)
    family = _ModelFamily("kleingordon", Grid(-5.0, 5.0, 40), model)
    for path in _near_miss_paths(monkeypatch):
        sampled = _sample_window(family, 1.7, 2.3, 4)
        z = sampled.z_samples.tolist()
        for n in (0, 3):
            distances = [abs(eigpair_bands(*family.bands(zk), n) - zk) for zk in z]
            norm = max(np.abs(d).max() + 2.0 * np.abs(e).max()
                       for d, e in map(family.bands, z))
            assert abs(distances[1] - distances[2]) < 64 * np.finfo(float).eps * norm
            assert min(distances[1:3]) < min(distances[0], distances[3])
            del solves[:]
            assert sampled.near_miss(n) == min(distances), (path, n)
            tie = {family.bands(z[k])[0].tobytes() for k in (1, 2)}
            assert tie <= {d for d, _ in solves}, (path, n)
