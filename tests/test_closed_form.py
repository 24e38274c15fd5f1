import math

import numpy as np
import pytest

from edspec import closed_form
from edspec.closed_form import (
    n_max,
    quadratic_residual,
    spectrum_minus,
    spectrum_plus,
)
from edspec.operators import HOQuadratic
from edspec.validate import criterion_closed_form


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
    # presence and n_max are each checked against the sign of the radicand
    rng = np.random.default_rng(7)
    for _ in range(300):
        model = HOQuadratic(rng.uniform(0.1, 20.0), rng.uniform(-5.0, 5.0))
        top = n_max(model)
        for n in range(8):
            present = spectrum_minus(model, n) is not None
            radicand_ok = model.E0 ** 2 - (8 * n + 4) / model.A >= 0.0
            assert present == radicand_ok
            assert radicand_ok == (top is not None and n <= top)


def test_criterion_1_catches_an_undercounting_n_max(monkeypatch):
    true_n_max = closed_form.n_max

    def drops_top_pair(model):
        top = true_n_max(model)
        return None if top in (None, 0) else top - 1

    monkeypatch.setattr(closed_form, "n_max", drops_top_pair)
    result = criterion_closed_form(0)
    assert not result.passed
    assert result.details["presence_matches_n_max"] is False


def test_plus_only_below_first_threshold():
    model = HOQuadratic(1.0, 0.0)
    np.testing.assert_allclose([spectrum_plus(model, n) for n in range(3)],
                               [2.0, math.sqrt(12.0), math.sqrt(20.0)])
    assert n_max(model) is None
    assert spectrum_minus(model, 0) is None


def test_emergence_jumps_by_one_pair():
    e0 = 1.0
    for n in range(4):
        threshold = (8 * n + 4) / e0 ** 2
        below = HOQuadratic(threshold - 1e-9, e0)
        at = HOQuadratic(threshold, e0)
        assert n_max(below) == (None if n == 0 else n - 1)
        assert n_max(at) == n
        assert spectrum_minus(below, n) is None
        assert spectrum_minus(at, n) == (e0, e0)


def test_minus_family_band():
    model = HOQuadratic(30.0, -2.0)
    top = n_max(model)
    assert top is not None
    for n in range(top + 1):
        hi, lo = spectrum_minus(model, n)
        assert abs(hi - model.E0) <= abs(model.E0) + 1e-12
        assert abs(lo - model.E0) <= abs(model.E0) + 1e-12
    assert spectrum_minus(model, top + 1) is None


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
        spectrum_minus(HOQuadratic(1.0, 0.0), -1)
    with pytest.raises(ValueError):
        quadratic_residual(HOQuadratic(1.0, 0.0), 0, 1.0, "other")
