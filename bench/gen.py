"""Seeded request lists for the benchmark workloads.

A workload is a fixed list of request slots.  A slot fixes the command, the
grid size and every other property that sets the cost of a request (branch
list, whether the oscillator has its minus family, initial-state kind, step
count class).  The seed draws everything else inside the slot: the model
parameters, the frozen parameter, the windows, the order in which the
cost classes are dealt to slots of one size.  Holding the cost structure
fixed keeps the work of one pass nearly the same from seed to seed, so the
wall times of different seeds measure the program rather than the draw,
while every seed still hands the program different matrices and roots.

Each request carries the INI text the program reads and, separately, the
drawn parameters the oracles need, so no oracle has to parse the INI with
the code under test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

WORKLOADS = ("levels", "evolve", "reports")

#: Every grid is [-BOX, BOX].
BOX = 10.0
#: Samples per fixed-point search window in the level searches.
LEVEL_STEPS = 16
#: Samples per window of the constant-mass search behind the matrix dump.
DUMP_STEPS = 8
#: Bisection tolerance on z, the program's documented default.
REFINE_TOL = 1e-10

# levels: (command, n_points, branches, minus family present, windows).
# "both" searches below and above E0, "above" only above it.  The N=400 slot
# searches branch 0 above E0 only, which keeps a pass of the list short
# enough for several passes per run while the grid size still reaches 400.
# The three N=200 slots cost about the same and sit in the middle of the
# cost order, one request below them and one above, so the median request
# time is the middle of their samples whatever the number of passes.
LEVELS_SLOTS = (
    ("fixedpoint", 100, (0, 1, 2), True, "both"),
    ("fixedpoint", 200, (0, 1), False, "both"),
    ("metric", 400, (0,), True, "above"),
    ("metric", 200, (0, 1), False, "both"),
    ("fixedpoint", 200, (0, 1), False, "both"),
)
# A E0^2 ranges.  The minus pair of branch 0 exists for A E0^2 >= 4 and of
# branch 1 for A E0^2 >= 12.  Draws stay at least 1.5x above the branch-0
# threshold and below the branch-1 one: near a threshold the pair is a
# tangent double root that the sampled search can step over (a known gap of
# the level search), and the benchmark measures speed, not that gap.
MINUS_Q = (6.0, 9.0)
PLAIN_Q = (1.5, 3.0)
E0_RANGE = (1.5, 3.0)
# Windows.  Below the singularity: [LO_START * E0, E0 - d_lo]; above it:
# [E0 + d_hi, HI_FACTOR * largest plus root].  The distances d keep at
# least GAP * E0 and half the way from E0 to the nearest root on that side
# (or to E0 / 2, where a minus pair would emerge), so consecutive samples
# near the singularity stay close enough for overlap continuation.
LO_START = 0.04
GAP = 0.06
HI_FACTOR = 1.2

# evolve: per grid size, the cost classes (steps, initial state) dealt out
# to its slots in seeded order, so every seed runs the same multiset of steps
# and eigenstate solves.  The metric does not change the cost; its multiset
# is permuted over the whole list.  The three N=200 slots cost about the
# same and sit in the middle of the cost order, with as many requests below
# them as above, so the median request time is the middle of their samples
# rather than the boundary between two requests.
EVOLVE_ORDER = (100, 200, 400, 100, 200, 200)
EVOLVE_CLASSES = {
    100: ((200, "gaussian"), (800, "eigenstate")),
    200: ((300, "eigenstate"), (450, "gaussian"), (600, "gaussian")),
    400: ((200, "gaussian"),),
}
EVOLVE_METRICS = ("swap",) * 3 + ("identity",) * 3
STEPS_JITTER = 20
#: Upper bound on the Klein-Gordon mass squared; larger shifts crowd the
#: generator spectrum towards the degeneracy guard of the eigensolver.
MAX_MASS_SQUARED = 9.0

# reports: spectrum slot k draws N in SPECTRUM_N[k] + [0, SIZE_JITTER); the
# dump draws N in DUMP_N0 + [0, SIZE_JITTER).  Dense eigensolves cost N^3,
# so the size draws stay narrow.  Two spectra are cheaper than the three at
# N ~ 1000 and two requests (N ~ 1200 and the dump) dearer, so the median
# request time is the middle of the N ~ 1000 samples.
SPECTRUM_N = (800, 900, 1000, 1000, 1000, 1191)
DUMP_POSITION = 3
DUMP_N0 = 396
SIZE_JITTER = 9


@dataclass(frozen=True)
class Request:
    """One CLI call: command, INI text, and the drawn parameters."""

    index: int
    command: str
    n_points: int
    ini: str
    spec: dict


def render_ini(sections: dict) -> str:
    """INI text of {section: {key: value}}; floats keep every digit."""
    lines = []
    for section, items in sections.items():
        lines.append(f"[{section}]")
        for key, value in items.items():
            if isinstance(value, bool):
                text = "true" if value else "false"
            elif isinstance(value, float):
                text = repr(value)
            elif isinstance(value, (list, tuple)):
                text = ",".join(_window(v) if isinstance(v, tuple) else str(v) for v in value)
            else:
                text = str(value)
            lines.append(f"{key} = {text}")
        lines.append("")
    return "\n".join(lines)


def _window(window: tuple) -> str:
    return f"{window[0]!r}:{window[1]!r}"


def _grid(n_points: int) -> dict:
    return {"x_min": -BOX, "x_max": BOX, "n_points": n_points}


def plus_root(A: float, E0: float, n: int) -> float:
    """Fixed point of branch n above E0: z A (z - E0) = 2n + 1."""
    return 0.5 * (E0 + math.sqrt(E0 * E0 + 4.0 * (2 * n + 1) / A))


def minus_pair(A: float, E0: float, n: int) -> tuple[float, float] | None:
    """Fixed points of branch n below E0, z A (E0 - z) = 2n + 1, if any."""
    disc = E0 * E0 - 4.0 * (2 * n + 1) / A
    if disc < 0.0:
        return None
    return 0.5 * (E0 - math.sqrt(disc)), 0.5 * (E0 + math.sqrt(disc))


def levels_request(rng: np.random.Generator, index: int, command: str,
                   n_points: int, branches: tuple, minus: bool, where: str) -> Request:
    """Oscillator level search with windows split around E0."""
    E0 = float(rng.uniform(*E0_RANGE))
    q = float(rng.uniform(*(MINUS_Q if minus else PLAIN_Q)))
    A = q / E0 ** 2
    d_hi = max(GAP * E0, 0.5 * (plus_root(A, E0, min(branches)) - E0))
    top = max(plus_root(A, E0, n) for n in branches)
    windows = ((E0 + d_hi, HI_FACTOR * top),)
    if where == "both":
        pair = minus_pair(A, E0, 0)
        d_lo = max(GAP * E0, 0.5 * (E0 - (pair[1] if pair else 0.5 * E0)))
        windows = ((LO_START * E0, E0 - d_lo),) + windows
    sections = {
        "model": {"kind": "hoquadratic", "A": A, "E0": E0},
        "grid": _grid(n_points),
        "problem": {"kind": "schrodinger"},
        "fixedpoint": {"branches": branches, "windows": windows,
                       "steps": LEVEL_STEPS, "refine_tol": REFINE_TOL},
    }
    spec = {"kind": "oscillator_levels", "A": A, "E0": E0, "branches": list(branches),
            "windows": [list(w) for w in windows], "n_points": n_points}
    return Request(index, command, n_points, render_ini(sections), spec)


def evolve_request(rng: np.random.Generator, index: int, n_points: int,
                   steps: int, state: str, metric: str) -> Request:
    """Two-component Klein-Gordon evolution at constant or oscillator mass."""
    if rng.random() < 0.5:
        m = float(rng.uniform(0.5, math.sqrt(MAX_MASS_SQUARED)))
        model = {"kind": "constant", "m": m}
        z = float(rng.uniform(-2.0, 2.0))
    else:
        A = float(rng.uniform(0.5, 2.0))
        E0 = float(rng.uniform(1.0, 3.0))
        # (0.5 A^2 (z - E0)^2)^2 <= MAX_MASS_SQUARED
        reach = math.sqrt(2.0 * math.sqrt(MAX_MASS_SQUARED)) / A
        z = E0 + float(rng.uniform(-reach, reach))
        model = {"kind": "hoquadratic", "A": A, "E0": E0}
    evolve = {"t_final": float(rng.uniform(5.0, 15.0)), "steps": steps,
              "metric": metric, "state": state}
    if state == "gaussian":
        evolve.update(center=float(rng.uniform(-1.0, 1.0)),
                      width=float(rng.uniform(0.8, 2.0)),
                      momentum=float(rng.uniform(0.0, 3.0)))
    else:
        evolve["index"] = int(rng.integers(0, 8))
    sections = {
        "model": model,
        "grid": _grid(n_points),
        "problem": {"kind": "kleingordon"},
        "spectrum": {"z": z},
        "evolve": evolve,
    }
    spec = {"kind": "evolve", "steps": steps, "metric": metric, "state": state,
            "t_final": evolve["t_final"], "n_points": n_points}
    return Request(index, "evolve", n_points, render_ini(sections), spec)


def spectrum_request(rng: np.random.Generator, index: int, n_points: int) -> Request:
    """Frozen spectrum of the Schroedinger form at a drawn z."""
    if rng.random() < 0.5:
        m = float(rng.uniform(0.5, 2.0))
        model = {"kind": "constant", "m": m}
        z = float(rng.uniform(-2.0, 2.0))
    else:
        A = float(rng.uniform(0.5, 2.0))
        E0 = float(rng.uniform(1.0, 3.0))
        offset = float(rng.uniform(0.3, 2.0)) * (1.0 if rng.random() < 0.5 else -1.0)
        z = E0 + offset
        model = {"kind": "hoquadratic", "A": A, "E0": E0}
    sections = {
        "model": model,
        "grid": _grid(n_points),
        "problem": {"kind": "schrodinger"},
        "spectrum": {"z": z},
    }
    spec = {"kind": "spectrum", "model": model, "z": z, "n_points": n_points}
    return Request(index, "spectrum", n_points, render_ini(sections), spec)


def continuum_level(two_m: float, n: int) -> float:
    """Level n of (1/(2m))(-d2/dx2) + x^2 on the full line: (2n+1)/sqrt(2m)."""
    return (2 * n + 1) / math.sqrt(two_m)


def dump_request(rng: np.random.Generator, index: int, n_points: int) -> Request:
    """Metric report with matrix dumps over a cheap constant-mass search."""
    m = float(rng.uniform(0.5, 2.0))
    e0 = continuum_level(2.0 * m, 0)
    windows = ((0.5 * e0, 1.5 * e0),)
    sections = {
        "model": {"kind": "constant", "m": m},
        "grid": _grid(n_points),
        "problem": {"kind": "schrodinger"},
        "fixedpoint": {"branches": (0,), "windows": windows,
                       "steps": DUMP_STEPS, "refine_tol": REFINE_TOL},
        "output": {"dump_matrices": True},
    }
    spec = {"kind": "dump", "m": m, "branches": [0], "n_points": n_points}
    return Request(index, "metric", n_points, render_ini(sections), spec)


def _levels(rng: np.random.Generator) -> list[Request]:
    return [levels_request(rng, i, *slot) for i, slot in enumerate(LEVELS_SLOTS)]


def _evolve(rng: np.random.Generator) -> list[Request]:
    dealt = {n_points: [classes[j] for j in rng.permutation(len(classes))]
             for n_points, classes in EVOLVE_CLASSES.items()}
    metrics = [EVOLVE_METRICS[j] for j in rng.permutation(len(EVOLVE_METRICS))]
    out = []
    for i, n_points in enumerate(EVOLVE_ORDER):
        steps, state = dealt[n_points].pop()
        steps += int(rng.integers(-STEPS_JITTER, STEPS_JITTER + 1))
        out.append(evolve_request(rng, i, n_points, steps, state, metrics[i]))
    return out


def _reports(rng: np.random.Generator) -> list[Request]:
    out = []
    for k, n0 in enumerate(SPECTRUM_N):
        if k == DUMP_POSITION:
            out.append(dump_request(rng, len(out), DUMP_N0 + int(rng.integers(SIZE_JITTER))))
        n_points = n0 + int(rng.integers(SIZE_JITTER))
        out.append(spectrum_request(rng, len(out), n_points))
    return out


def generate(workload: str, seed: int) -> list[Request]:
    """The request list of a workload; the same seed gives the same list."""
    makers = {"levels": _levels, "evolve": _evolve, "reports": _reports}
    if workload not in makers:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    # seed % 2**64 admits negative seeds, which numpy's seeding rejects
    return makers[workload](np.random.default_rng([seed % 2**64, WORKLOADS.index(workload)]))
