import math

import numpy as np
import pytest

from edspec.closed_form import (
    full_spectrum,
    n_max,
    quadratic_residual,
    spectrum_minus,
    spectrum_plus,
)
from edspec.operators import HOQuadratic


def test_plus_family_values():
    assert spectrum_plus(HOQuadratic(1.0, 0.0), 0) == pytest.approx(2.0, abs=1e-15)
    assert spectrum_plus(HOQuadratic(1.0, 3.0), 0) == pytest.approx(3.0 + math.sqrt(13.0))


def test_plus_family_monotone():
    model = HOQuadratic(2.5, -1.0)
    values = [spectrum_plus(model, n) for n in range(20)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_minus_family_values():
    pair = spectrum_minus(HOQuadratic(8.0, 1.0), 0)
    assert pair == pytest.approx((1.0 + math.sqrt(0.5), 1.0 - math.sqrt(0.5)))
    assert spectrum_minus(HOQuadratic(1.0, 0.0), 0) is None
    # zero radicand: A*E0^2 = 8n+4 exactly gives the degenerate pair at E0
    degenerate = spectrum_minus(HOQuadratic(4.0, 1.0), 0)
    assert degenerate == (1.0, 1.0)


def test_n_max_thresholds():
    assert n_max(HOQuadratic(1.0, 2.0)) == 0          # A*E0^2 = 4, boundary included
    assert n_max(HOQuadratic(12.0, 1.0)) == 1
    assert n_max(HOQuadratic(1.0, 1.0)) is None


def test_n_max_consistent_with_minus_presence():
    rng = np.random.default_rng(7)
    for _ in range(300):
        model = HOQuadratic(rng.uniform(0.1, 20.0), rng.uniform(-5.0, 5.0))
        top = n_max(model)
        for n in range(8):
            present = spectrum_minus(model, n) is not None
            assert present == (top is not None and n <= top)


def test_full_spectrum_plus_only():
    spec = full_spectrum(HOQuadratic(1.0, 0.0), 2)
    np.testing.assert_allclose([e for _, e in spec.plus_family],
                               [2.0, math.sqrt(12.0), math.sqrt(20.0)])
    assert spec.minus_family == []
    assert spec.n_max is None


def test_full_spectrum_emergence_jumps():
    e0 = 1.0
    for n in range(4):
        threshold = (8 * n + 4) / e0 ** 2
        below = full_spectrum(HOQuadratic(threshold - 1e-9, e0), 0)
        at = full_spectrum(HOQuadratic(threshold, e0), 0)
        assert len(at.minus_family) == len(below.minus_family) + 1


def test_minus_family_band():
    model = HOQuadratic(30.0, -2.0)
    spec = full_spectrum(model, 0)
    assert spec.minus_family
    for _, hi, lo in spec.minus_family:
        assert abs(hi - model.E0) <= abs(model.E0) + 1e-12
        assert abs(lo - model.E0) <= abs(model.E0) + 1e-12


def test_quadratic_self_consistency_sweep():
    rng = np.random.default_rng(3)
    for _ in range(200):
        model = HOQuadratic(rng.uniform(0.1, 20.0), rng.uniform(-5.0, 5.0))
        for n in range(4):
            assert quadratic_residual(model, n, spectrum_plus(model, n), "plus") <= 1e-12
            pair = spectrum_minus(model, n)
            if pair is not None:
                for value in pair:
                    assert quadratic_residual(model, n, value, "minus") <= 1e-12


def test_argument_validation():
    # the closed forms divide by A: the oscillator model refuses A <= 0
    for A in (0.0, -1.0):
        with pytest.raises(ValueError, match="A must be positive"):
            HOQuadratic(A, 1.0)
    with pytest.raises(ValueError):
        spectrum_plus(HOQuadratic(1.0, 0.0), -1)
    with pytest.raises(ValueError):
        full_spectrum(HOQuadratic(1.0, 0.0), -2)
    with pytest.raises(ValueError):
        quadratic_residual(HOQuadratic(1.0, 0.0), 0, 1.0, "other")
