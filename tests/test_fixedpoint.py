import numpy as np
import pytest

from edspec.closed_form import HOParams, spectrum_minus, spectrum_plus
import edspec.fixedpoint as fixedpoint_module
from edspec.errors import BranchLost, ComplexBranch, DegenerateMass, RefinementStall, SolverError
from edspec.fixedpoint import (
    WINDOW_STEPS,
    IndexedBranch,
    collect_physical,
    count_below,
    solve_fixed_points,
    trace_branch,
    trace_branch_family,
)
from edspec.operators import (
    ConstantMass,
    GeneralMassSquared,
    Grid,
    HOQuadratic,
    build_bands,
    build_problem,
    build_schrodinger,
    tridiagonal,
)


GRID = Grid(-10.0, 10.0, 120)


# ---------------------------------------------------------------- tracing

def test_constant_mass_branch_is_flat():
    model = ConstantMass(0.5)
    branch = trace_branch(model, GRID, 2, 0.1, 5.0, steps=16)
    assert branch.e_values.max() - branch.e_values.min() < 1e-10
    # the continuation of the same dense family keeps its eigenvector
    continued = trace_branch_family(lambda z: build_schrodinger(GRID, model, z),
                                    2, 0.1, 5.0, steps=16)
    assert (continued.continuity_overlaps >= 0.999).all()


def test_count_below_is_the_inertia(rng):
    for size in (1, 2, 5, 17, 40):
        for _ in range(10):
            d = rng.standard_normal(size)
            e = rng.standard_normal(size - 1)
            w = np.linalg.eigvalsh(tridiagonal(d, e))
            for s in rng.uniform(w[0] - 1.0, w[-1] + 1.0, 8):
                assert count_below(d, e, s) == np.sum(w < s)
            gap = 1e-10 * (1.0 + np.abs(w).max())
            for k, s in enumerate(w):
                # at a computed eigenvalue rounding decides its side ...
                assert np.sum(w < s) <= count_below(d, e, s) <= np.sum(w <= s)
                # ... and a hair away from it the count is exact
                assert count_below(d, e, s - gap) == np.sum(w < s - gap)
                assert count_below(d, e, s + gap) == np.sum(w < s + gap)


@pytest.mark.parametrize("d, e, s", [
    ([1.0, 1.0], [2.0], 1.0),                 # first pivot 1 - 1 = 0
    ([1.0, 1.0, 5.0], [1.0, 2.0], 0.0),       # second pivot 1 - 1/1 = 0
], ids=["first-pivot", "inner-pivot"])
def test_count_below_survives_zero_pivot(d, e, s):
    d, e = np.array(d), np.array(e)
    w = np.linalg.eigvalsh(tridiagonal(d, e))
    assert np.abs(w - s).min() > 0.1            # s is no eigenvalue
    assert count_below(d, e, s) == np.sum(w < s)


@pytest.mark.parametrize("kind, model, window", [
    ("schrodinger", HOQuadratic(1.0, 0.0), (0.5, 4.0)),
    ("kleingordon", HOQuadratic(1.0, 0.0), (0.5, 3.0)),
])
def test_index_labels_agree_with_overlap_continuation(kind, model, window):
    refine_tol = 1e-10
    indexed = trace_branch(model, GRID, 1, *window, steps=24, kind=kind)
    continued = trace_branch_family(lambda z: build_problem(kind, GRID, model, z),
                                    1, *window, steps=24)
    np.testing.assert_allclose(indexed.e_values, continued.e_values, rtol=1e-12)
    roots = [r.z for r in solve_fixed_points(indexed, refine_tol)]
    expected = [r.z for r in solve_fixed_points(continued, refine_tol)]
    assert len(roots) == len(expected) == 1
    assert abs(roots[0] - expected[0]) <= refine_tol


def test_complex_mass_squared_is_continued_by_overlap():
    # i g x breaks reality of H but not of its low spectrum (PT symmetry)
    model = GeneralMassSquared(lambda z, x: 0.5 + 0.5 * z + 1e-3j * x)
    branch = trace_branch_family(lambda z: build_problem("kleingordon", GRID, model, z),
                                 0, 0.5, 2.0, steps=8)
    assert (branch.continuity_overlaps >= 0.999).all()
    real = GeneralMassSquared(lambda z, x: 0.5 + 0.5 * z)
    assert isinstance(trace_branch(real, GRID, 0, 0.5, 2.0, steps=8, kind="kleingordon"),
                      IndexedBranch)


def test_complex_mass_squared_is_refused_by_the_index_search():
    model = GeneralMassSquared(lambda z, x: 0.5 + 0.5 * z + 1e-3j * x)
    with pytest.raises(ValueError, match="trace_branch_family"):
        trace_branch(model, GRID, 0, 0.5, 2.0, steps=8, kind="kleingordon")
    with pytest.raises(ValueError, match="trace_branch_family"):
        collect_physical(model, GRID, [0], [(0.5, 2.0)], "kleingordon", steps=8)


def test_ho_branch_decreases_with_z():
    # effective mass grows with |z - E0|, so every frozen level falls
    branch = trace_branch(HOQuadratic(1.0, 0.0), GRID, 0, 0.5, 5.0, steps=24)
    assert (np.diff(branch.e_values) < 0).all()


def test_window_containing_singularity_rejected():
    with pytest.raises(DegenerateMass):
        trace_branch(HOQuadratic(1.0, 1.0), GRID, 0, 0.5, 2.0, steps=8)


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


def test_avoided_crossing_keeps_diabatic_label():
    # exact 2x2 family: eigenvalues -+sqrt(z^2 + delta^2), eigenvectors
    # rotating from e1 to e2 through the avoided crossing at z = 0
    delta = 0.1

    def family(z):
        return np.array([[z, delta], [delta, -z]])

    branch = trace_branch_family(family, 0, -1.25, 1.25, steps=6)
    assert (branch.continuity_overlaps >= 0.7).all()
    # coarse steps straddle the crossing: overlap continuation follows the
    # diabatic state, so the tracked energy crosses zero ...
    assert branch.e_values[0] == pytest.approx(-np.sqrt(1.25 ** 2 + delta ** 2), abs=1e-12)
    assert branch.e_values[-1] == pytest.approx(np.sqrt(1.25 ** 2 + delta ** 2), abs=1e-12)
    # ... while index sorting would have kept the always-negative branch
    sorted_at_end = np.linalg.eigvalsh(family(1.25))
    assert branch.e_values[-1] != pytest.approx(sorted_at_end[0], abs=1e-6)
    assert branch.e_values[-1] == pytest.approx(sorted_at_end[1], abs=1e-12)


def test_branch_lost_on_fast_rotation():
    # eigenframe rotating by 60 degrees per step about (1,1,1): every overlap
    # against the previous vector is at most 2/3 < 0.7
    axis = np.ones(3) / np.sqrt(3.0)
    cross = np.array([[0.0, -axis[2], axis[1]],
                      [axis[2], 0.0, -axis[0]],
                      [-axis[1], axis[0], 0.0]])

    def rotation(theta):
        return (np.cos(theta) * np.eye(3) + np.sin(theta) * cross
                + (1 - np.cos(theta)) * np.outer(axis, axis))

    def family(z):
        r = rotation(z)
        return r @ np.diag([1.0, 2.0, 3.0]) @ r.T

    with pytest.raises(BranchLost):
        trace_branch_family(family, 0, 0.0, np.pi, steps=4)


def test_complex_branch_detected():
    # eigenvalues -+sqrt((3-z)^2 - 1) leave the real axis at z = 2
    def family(z):
        return np.array([[3.0 - z, 1.0], [-1.0, -(3.0 - z)]])

    with pytest.raises(ComplexBranch):
        trace_branch_family(family, 0, 1.2, 3.0, steps=7)


def test_trace_argument_validation():
    with pytest.raises(ValueError):
        trace_branch(ConstantMass(1.0), GRID, 0, 1.0, 2.0, steps=1)
    with pytest.raises(ValueError):
        trace_branch(ConstantMass(1.0), GRID, 0, 2.0, 1.0, steps=8)
    with pytest.raises(ValueError):
        trace_branch(ConstantMass(1.0), GRID, 500, 1.0, 2.0, steps=4)


# ---------------------------------------------------------------- root solving

def test_constant_branch_single_root():
    def family(z):
        return np.array([[3.0]])

    branch = trace_branch_family(family, 0, 0.0, 5.0, steps=11)
    roots = solve_fixed_points(branch)
    assert len(roots) == 1
    assert roots[0].j == 0
    assert roots[0].z == pytest.approx(3.0, abs=1e-9)


def test_hyperbolic_branch_root():
    # E(z) = c/z crosses z = E once on z > 0, at sqrt(c)
    def family(z):
        return np.array([[4.0 / z]])

    branch = trace_branch_family(family, 0, 0.5, 5.0, steps=32)
    roots = solve_fixed_points(branch)
    assert len(roots) == 1
    assert roots[0].z == pytest.approx(2.0, abs=1e-9)


def test_no_bracket_returns_empty():
    def family(z):
        return np.array([[10.0]])

    branch = trace_branch_family(family, 0, 0.0, 5.0, steps=8)
    assert solve_fixed_points(branch) == []


@pytest.mark.parametrize("half_width", [1e-100, 1e-200])
def test_bracket_of_tiny_values_is_found(half_width):
    # f(z) = z: at +-1e-200 the product f[0] * f[1] underflows to -0.0, but
    # the signs still differ, so the root z = 0 is bisected as at +-1e-100
    def family(z):
        return np.array([[2.0 * z]])

    branch = trace_branch_family(family, 0, -half_width, half_width, steps=2)
    (root,) = solve_fixed_points(branch, refine_tol=1e-300)
    assert abs(root.z) <= half_width


def test_exact_sample_root_needs_no_refinement():
    # the root lands exactly on a sample, so bisection never runs
    def family(z):
        return np.array([[3.0]])

    branch = trace_branch_family(family, 0, 0.0, 5.0, steps=11)
    (root,) = solve_fixed_points(branch, refine_tol=1e-300)
    assert root.z == 3.0


def test_refinement_stall():
    # root at sqrt(2): f never evaluates to exactly zero, and the tolerance
    # sits below float spacing, so bisection must report exhaustion
    def family(z):
        return np.array([[2.0 / z]])

    branch = trace_branch_family(family, 0, 0.5, 5.0, steps=10)
    with pytest.raises(RefinementStall):
        solve_fixed_points(branch, refine_tol=1e-300)


def test_multiple_fixed_points_match_closed_form():
    # branch 0 of A=12, E0=1 carries the full multi-index structure: the
    # finite pair below E0 plus one root above it
    model = HOQuadratic(12.0, 1.0)
    below = trace_branch(model, GRID, 0, 0.02, 0.95, steps=48)
    above = trace_branch(model, GRID, 0, 1.05, 4.0, steps=48)
    roots = solve_fixed_points(below) + solve_fixed_points(above)
    zs = sorted(r.z for r in roots)
    params = HOParams(12.0, 1.0)
    pair = spectrum_minus(params, 0)
    expected = sorted([pair[1] / 2.0, pair[0] / 2.0, spectrum_plus(params, 0) / 2.0])
    assert len(zs) == 3
    # location check only at this coarse grid; the tight tolerance matching
    # lives in the acceptance suite at its pinned resolution
    np.testing.assert_allclose(zs, expected, rtol=3e-2)


def test_root_count_stable_under_resampling():
    model = HOQuadratic(12.0, 1.0)
    for steps in (33, 64):
        branch = trace_branch(model, GRID, 0, 0.02, 0.95, steps=steps)
        assert len(solve_fixed_points(branch)) == 2


def test_fixed_point_identity():
    refine_tol = 1e-10
    branch = trace_branch(HOQuadratic(1.0, 0.0), GRID, 0, 0.5, 4.0, steps=32)
    (root,) = solve_fixed_points(branch, refine_tol)
    h = build_schrodinger(GRID, HOQuadratic(1.0, 0.0), root.z)
    nearest = np.linalg.eigvalsh(h)
    assert np.abs(nearest - root.z).min() <= refine_tol * (1.0 + abs(root.z))


# ---------------------------------------------------------------- collection

def test_constant_mass_levels_equal_spectrum():
    grid = Grid(-5.0, 5.0, 24)
    model = ConstantMass(0.5)
    spectrum = np.linalg.eigvalsh(build_schrodinger(grid, model, 0.0))
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
    closed = spectrum_plus(HOParams(1.0, 3.0), 0)
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
    params = HOParams(1.0, 0.0)
    n_points, box = 200, 12.0
    full = Grid(-box, box, n_points)
    # virtual Dirichlet node at exactly 0 makes this the half-line problem
    half = Grid(box / n_points, box, n_points)
    for n in range(2):
        (root_full,) = solve_fixed_points(
            trace_branch(model, full, n, 0.5, 4.5, steps=40))
        assert 2.0 * root_full.z == pytest.approx(spectrum_plus(params, n), rel=5e-3)
        (root_half,) = solve_fixed_points(
            trace_branch(model, half, n, 0.5, 4.5, steps=40))
        assert root_half.z == pytest.approx(np.sqrt(4.0 * n + 3.0), rel=5e-3)
        # the half-line root reproduces only the odd-index table entries
        assert 2.0 * root_half.z == pytest.approx(
            spectrum_plus(params, 2 * n + 1), rel=5e-3)


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
    # of the next
    grid = Grid(-5.0, 5.0, 24)
    model = ConstantMass(0.5)
    e1 = float(np.linalg.eigvalsh(tridiagonal(*build_bands("schrodinger", grid, model, 0.0)))[1])
    result = collect_physical(model, grid, [1], [(0.5 * e1, e1), (e1, 2.0 * e1)])
    assert not result.failures
    assert [(lv.multi_index, lv.energy) for lv in result.levels] == [((1, 0), e1)]
    assert [d.bisection_steps for d in result.diagnostics] == [0, 0]
    # the same window listed twice still yields coincident levels
    twice = collect_physical(model, grid, [1], [(0.5 * e1, e1), (0.5 * e1, e1)])
    assert [lv.multi_index for lv in twice.levels] == [(1, 0), (1, 1)]


# ---------------------------------------------------------------- count signs

def _eigenvalue_sign_search(model, grid, n_list, windows, kind, steps):
    """Reference: every sample solved, brackets from eigenvalue signs."""
    levels, failures, near_misses = [], [], []
    for n in n_list:
        found = []
        for lo, hi in windows:
            try:
                branch = trace_branch(model, grid, n, lo, hi, steps, kind)
                roots = solve_fixed_points(branch)
            except SolverError as exc:
                failures.append((n, (lo, hi), type(exc).__name__))
                continue
            near_misses.append(None if roots else float(
                np.abs(branch.e_values - branch.z_samples).min()))
            found.extend(root.z for root in roots)
        levels.extend(((n, j), z) for j, z in enumerate(sorted(found)))
    return levels, failures, near_misses


def test_count_signs_match_eigenvalue_signs():
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
        levels, failures, near_misses = _eigenvalue_sign_search(
            model, grid, n_list, windows, kind, steps)
        assert [(lv.multi_index, lv.energy) for lv in result.levels] == levels
        assert [(f.branch_index, f.window, f.error) for f in result.failures] == failures
        assert [d.near_miss for d in result.diagnostics] == near_misses
        seen["levels"] += len(levels)
        seen["near_misses"] += sum(m is not None for m in near_misses)
        seen["failures"] += len(failures)
    assert all(count > 5 for count in seen.values()), seen


@pytest.fixture
def solves(monkeypatch):
    """Bands handed to the level search's tridiagonal eigenvalue solver."""
    calls = []
    solve = fixedpoint_module.eigvalsh_bands

    def counted(d, e):
        calls.append(d)
        return solve(d, e)

    monkeypatch.setattr(fixedpoint_module, "eigvalsh_bands", counted)
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
    assert 0 < len(solves) <= 2 * brackets


@pytest.mark.parametrize("n_list", [[0], [0, 1, 2, 3]])
def test_root_free_window_solves_each_sample_once(solves, n_list):
    # f_n(z) = E_n(z) - z > 0 below the lowest root z = 1 of the oscillator
    result = collect_physical(HOQuadratic(1.0, 0.0), GRID, n_list, [(0.2, 0.9)], steps=16)
    assert not result.levels and not result.failures
    assert all(d.near_miss > 0.0 for d in result.diagnostics)
    # sixteen solves, each of a different sample's bands
    assert len(solves) == 16
    assert len({id(d) for d in solves}) == 16


def test_bisection_makes_no_solves(solves):
    window = [(0.5, 4.0)]
    coarse = collect_physical(HOQuadratic(1.0, 0.0), GRID, [0, 1], window, refine_tol=1e-3)
    used = len(solves)
    fine = collect_physical(HOQuadratic(1.0, 0.0), GRID, [0, 1], window, refine_tol=1e-12)
    assert (sum(d.bisection_steps for d in fine.diagnostics)
            > sum(d.bisection_steps for d in coarse.diagnostics))
    assert len(solves) == 2 * used
    branch = trace_branch(HOQuadratic(1.0, 0.0), GRID, 0, 0.5, 4.0, steps=32)
    del solves[:]
    assert len(solve_fixed_points(branch, refine_tol=1e-12)) == 1
    assert solves == []


def test_count_disagreeing_with_eigenvalue_falls_back_to_eigenvalue_signs(monkeypatch,
                                                                          solves):
    model, window, steps = HOQuadratic(1.0, 0.0), (0.5, 4.0), 32
    branch = trace_branch(model, GRID, 0, *window, steps=steps)
    (k,) = np.flatnonzero(np.diff(np.sign(branch.e_values - branch.z_samples)))
    # the count at the sample after the bracket end claims f > 0 where the
    # eigenvalue has f < 0: the count brackets two roots that do not exist
    liar = float(branch.z_samples[k + 2])
    count = fixedpoint_module.count_below
    monkeypatch.setattr(fixedpoint_module, "count_below",
                        lambda d, e, s: count(d, e, s) - (s == liar))
    del solves[:]
    result = collect_physical(model, GRID, [0], [window], steps=steps)
    (root,) = solve_fixed_points(branch)
    assert [(lv.multi_index, lv.energy) for lv in result.levels] == [((0, 0), root.z)]
    assert len(solves) == steps

