"""Closed-form spectrum of the exactly solvable energy-dependent oscillator.

For the mass ansatz 2 m(E) = A^2 (E - E0)^2, ``operators.HOQuadratic``, the
bound-state energies form two families,

    E_n(+)    = E0 + sqrt(E0^2 + (8n + 4)/A),       n = 0, 1, ...
    E_{+-n}(-) = E0 +- sqrt(E0^2 - (8n + 4)/A),     n = 0, ..., n_max

where the finite second family is non-empty only for A*E0^2 >= 4 and grows
by one pair at each new n_max = floor((A*E0^2 - 4)/8).

Both families are stated at twice the energy scale of the unit-coefficient
full-line realization solved by the numeric pipeline: the direct fixed points
of (1/(2 m(z)))(-d^2/dx^2) + x^2 sit at exactly half these values, with the
same radicands and the same emergence thresholds.  ``NUMERIC_TO_CLOSED``
carries that factor for comparisons.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .operators import HOQuadratic

#: Multiply full-line numeric fixed-point energies by this to land on the table.
NUMERIC_TO_CLOSED = 2.0


@dataclass(frozen=True)
class ClosedSpectrum:
    plus_family: list          # [(n, E_n_plus)]
    minus_family: list         # [(n, E_plus_n_minus, E_minus_n_minus)]
    n_max: int | None


def n_max(model: HOQuadratic) -> int | None:
    """Largest index of the finite family, floor((A*E0^2 - 4)/8); None if empty.

    The boundary A*E0^2 = 8n + 4 is included (degenerate pair at E0).
    """
    q = (model.A * model.E0 ** 2 - 4.0) / 8.0
    if q < 0.0:
        return None
    return int(math.floor(q))


def _minus_present(model: HOQuadratic, n: int) -> bool:
    nmax = n_max(model)
    return nmax is not None and n <= nmax


def spectrum_plus(model: HOQuadratic, n: int) -> float:
    """E0 + sqrt(E0^2 + (8n + 4)/A); defined for every n >= 0."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    return model.E0 + math.sqrt(model.E0 ** 2 + (8 * n + 4) / model.A)


def spectrum_minus(model: HOQuadratic, n: int) -> tuple[float, float] | None:
    """Pair E0 +- sqrt(E0^2 - (8n + 4)/A), or None when absent.

    Presence is decided by the same predicate as ``n_max`` so the two can
    never disagree; a radicand driven negative only by rounding is clamped.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if not _minus_present(model, n):
        return None
    radicand = max(model.E0 ** 2 - (8 * n + 4) / model.A, 0.0)
    root = math.sqrt(radicand)
    return (model.E0 + root, model.E0 - root)


def full_spectrum(model: HOQuadratic, n_cut: int) -> ClosedSpectrum:
    """Plus family for n = 0..n_cut plus the whole finite minus family."""
    if n_cut < 0:
        raise ValueError(f"n_cut must be >= 0, got {n_cut}")
    plus = [(n, spectrum_plus(model, n)) for n in range(n_cut + 1)]
    nmax = n_max(model)
    minus = []
    if nmax is not None:
        for n in range(nmax + 1):
            pair = spectrum_minus(model, n)
            minus.append((n, pair[0], pair[1]))
    return ClosedSpectrum(plus_family=plus, minus_family=minus, n_max=nmax)


def quadratic_residual(model: HOQuadratic, n: int, energy: float, family: str) -> float:
    """Scaled defect of (E - E0)^2 = E0^2 +- (8n + 4)/A for an emitted energy.

    The defect is normalized by the magnitude of the defining quadratic,
    max(1, E0^2, (8n+4)/A), so near-degenerate minus pairs are not judged
    against a vanishing radicand.
    """
    if family == "plus":
        target = model.E0 ** 2 + (8 * n + 4) / model.A
    elif family == "minus":
        target = model.E0 ** 2 - (8 * n + 4) / model.A
    else:
        raise ValueError(f"family must be 'plus' or 'minus', got {family!r}")
    scale = max(1.0, model.E0 ** 2, (8 * n + 4) / model.A)
    return abs((energy - model.E0) ** 2 - target) / scale
