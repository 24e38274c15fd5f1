"""Span tracing of the program from outside, and the per-layer metrics.

The tracer replaces the program's public functions with wrappers that record
a span per call: name, layer (the defining module), start, end, parent span
and request id, kept in memory.  A function is wrapped when another module
of the package or the package namespace binds it (it is part of some layer's
interface), and the wrapper is installed at every name it is bound to, the
defining module included, because modules import by name
(``from .frozen_spectrum import decompose``).  ``cli.main`` is wrapped as
the root span of each request.

A span's self time is its duration minus the part of it its child spans
cover; summed over all spans of a request it equals the root span.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from dataclasses import dataclass, field
from types import ModuleType

import numpy as np

LAYERS = ("operators", "frozen_spectrum", "fixedpoint", "physical_basis",
          "evolution", "serialize", "config", "cli")
ROOT = "cli.main"


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float
    parent: int
    request: int
    attrs: dict = field(default_factory=dict)


class Tracer:
    """In-memory span recorder for one single-threaded client."""

    def __init__(self):
        self.spans: list[Span] = []
        self.request = -1
        self._stack: list[int] = []

    def open(self, name: str, layer: str, attrs: dict) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, layer, time.perf_counter(), 0.0, parent,
                               self.request, attrs))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()


def _matrix_bytes(value) -> int:
    """Bytes of a returned matrix, or of the matrices of a returned system."""
    if isinstance(value, np.ndarray):
        return value.nbytes
    fields = vars(value).values() if hasattr(value, "__dict__") else ()
    return sum(v.nbytes for v in fields if isinstance(v, np.ndarray))


# Probes run before the span opens, observers after it closes, so neither
# is counted in the wrapped call's own time.
def _probe_decompose(args, kwargs) -> dict:
    H = np.asarray(args[0] if args else kwargs["H"])
    return {"hermitian": bool(np.array_equal(H, H.conj().T)), "n": int(H.shape[0])}


def _observe_build(attrs, args, kwargs, result) -> None:
    attrs["bytes"] = _matrix_bytes(result)


def _observe_collect(attrs, args, kwargs, result) -> None:
    attrs["levels"] = len(result.levels)
    attrs["failures"] = len(result.failures)


def _observe_trace(attrs, args, kwargs, result) -> None:
    attrs["samples"] = int(result.z_samples.shape[0])


def _observe_evolve(attrs, args, kwargs, result) -> None:
    attrs["states"] = len(result)


def _observe_write(attrs, args, kwargs, result) -> None:
    attrs["bytes"] = os.path.getsize(args[0] if args else kwargs["path"])


PROBES = {"frozen_spectrum.decompose": _probe_decompose}
OBSERVERS = {
    "fixedpoint.collect_physical": _observe_collect,
    "fixedpoint.trace_branch_family": _observe_trace,
    "evolution.evolve": _observe_evolve,
    "serialize.write_json": _observe_write,
    "serialize.write_csv": _observe_write,
    "serialize.write_matrix": _observe_write,
}


def _wrap(tracer: Tracer, fn, layer: str, name: str):
    probe = PROBES.get(name)
    observe = OBSERVERS.get(name, _observe_build if layer == "operators" else None)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        attrs = probe(args, kwargs) if probe else {}
        idx = tracer.open(name, layer, attrs)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if observe:
            observe(attrs, args, kwargs, result)
        return result

    return traced


def install(tracer: Tracer, package: ModuleType):
    """Wrap the package's layer interfaces; returns a function that undoes it."""
    prefix = package.__name__ + "."
    modules = [package] + [m for k, m in sorted(sys.modules.items())
                           if k.startswith(prefix) and m is not None]
    bindings: dict[int, list[tuple[ModuleType, str]]] = {}
    functions = {}
    for module in modules:
        for attr, value in vars(module).items():
            if inspect.isfunction(value) and value.__module__.startswith(prefix) \
                    and not value.__name__.startswith("_"):
                functions[id(value)] = value
                bindings.setdefault(id(value), []).append((module, attr))
    patched = []
    for key, fn in functions.items():
        layer = fn.__module__[len(prefix):]
        name = f"{layer}.{fn.__name__}"
        crosses = any(m.__name__ != fn.__module__ for m, _ in bindings[key])
        if layer not in LAYERS or not (crosses or name == ROOT):
            continue
        wrapper = _wrap(tracer, fn, layer, name)
        for module, attr in bindings[key]:
            setattr(module, attr, wrapper)
            patched.append((module, attr, fn))

    def uninstall():
        for module, attr, fn in patched:
            setattr(module, attr, fn)

    return uninstall


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the union of its children's intervals."""
    children: dict[int, list[int]] = {}
    for i, span in enumerate(spans):
        if span.parent >= 0:
            children.setdefault(span.parent, []).append(i)
    out = []
    for i, span in enumerate(spans):
        covered, reach = 0.0, span.start
        for lo, hi in sorted((spans[c].start, spans[c].end) for c in children.get(i, [])):
            lo, hi = max(lo, reach), min(hi, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span.end - span.start - covered)
    return out


def _under(spans: list[Span], i: int, name: str) -> bool:
    parent = spans[i].parent
    while parent >= 0:
        if spans[parent].name == name:
            return True
        parent = spans[parent].parent
    return False


def layer_metrics(spans: list[Span]) -> dict:
    """Per-layer counts, computed sizes and self times of a traced run."""
    own = self_times(spans)

    def total(select) -> float:
        return float(sum(t for s, t in zip(spans, own) if select(s)))

    def count(select) -> int:
        return sum(1 for s in spans if select(s))

    def attr(select, key) -> int:
        return int(sum(s.attrs.get(key, 0) for s in spans if select(s)))

    def entry(layer):
        return lambda s: s.layer == layer and (
            s.parent < 0 or spans[s.parent].layer != layer)

    def named(*names):
        return lambda s: s.name in names

    def in_layer(layer):
        return lambda s: s.layer == layer

    decompose = named("frozen_spectrum.decompose")
    levels = attr(named("fixedpoint.collect_physical"), "levels")
    solves = sum(1 for i, s in enumerate(spans)
                 if decompose(s) and _under(spans, i, "fixedpoint.collect_physical"))
    return {
        "operators.build.calls": count(entry("operators")),
        "operators.build.self_s": total(in_layer("operators")),
        "operators.build.bytes": attr(entry("operators"), "bytes"),
        "frozen_spectrum.decompose.calls": count(decompose),
        "frozen_spectrum.decompose.hermitian_calls":
            count(lambda s: decompose(s) and s.attrs["hermitian"]),
        "frozen_spectrum.decompose.general_calls":
            count(lambda s: decompose(s) and not s.attrs["hermitian"]),
        "frozen_spectrum.decompose.self_s": total(decompose),
        "frozen_spectrum.decompose.work_n3":
            int(sum(s.attrs["n"] ** 3 for s in spans if decompose(s))),
        "frozen_spectrum.classify.self_s": total(named("frozen_spectrum.classify_spectrum")),
        "fixedpoint.trace.calls": count(named("fixedpoint.trace_branch_family")),
        "fixedpoint.trace.samples": attr(named("fixedpoint.trace_branch_family"), "samples"),
        "fixedpoint.trace.self_s":
            total(named("fixedpoint.trace_branch", "fixedpoint.trace_branch_family")),
        "fixedpoint.refine.evals": sum(
            1 for i, s in enumerate(spans)
            if decompose(s) and _under(spans, i, "fixedpoint.solve_fixed_points")),
        "fixedpoint.refine.self_s": total(named("fixedpoint.solve_fixed_points")),
        "fixedpoint.collect.self_s": total(named("fixedpoint.collect_physical")),
        "fixedpoint.levels": levels,
        "fixedpoint.failures": attr(named("fixedpoint.collect_physical"), "failures"),
        "fixedpoint.eigensolves_per_level": solves / levels if levels else 0.0,
        "physical_basis.calls": count(entry("physical_basis")),
        "physical_basis.self_s": total(in_layer("physical_basis")),
        "evolution.evolve.self_s": total(named("evolution.evolve")),
        "evolution.states": attr(named("evolution.evolve"), "states"),
        "evolution.pseudo_norm.calls": count(named("evolution.pseudo_norm")),
        "evolution.pseudo_norm.self_s": total(named("evolution.pseudo_norm")),
        "evolution.conservation.self_s": total(named("evolution.conservation_report")),
        "serialize.calls": count(entry("serialize")),
        "serialize.self_s": total(in_layer("serialize")),
        "serialize.bytes": attr(entry("serialize"), "bytes"),
        "config.load.self_s": total(in_layer("config")),
        "cli.self_s": total(in_layer("cli")),
        "trace.spans": len(spans),
        "trace.self_sum_s": float(sum(own)),
    }
