"""Tests of the benchmark itself: generator, oracles and span arithmetic.

Run with ``python -m pytest bench`` from the repository root.
"""

from __future__ import annotations

import csv
import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import edspec  # noqa: E402
import edspec.cli  # noqa: E402
import gen  # noqa: E402
import oracles  # noqa: E402
import spans  # noqa: E402


def _run(request: gen.Request, tmp_path: Path) -> Path:
    config = tmp_path / "request.ini"
    config.write_text(request.ini, encoding="utf-8")
    out = tmp_path / "out"
    code = edspec.cli.main([request.command, "--config", str(config), "--out-dir", str(out)])
    assert code == 0
    return out


def _rewrite_json(path: Path, edit) -> None:
    data = json.loads(path.read_text(encoding="utf-8"))
    edit(data)
    path.write_text(json.dumps(data), encoding="utf-8")


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_generator_repeats_for_a_seed_and_varies_across_seeds(workload):
    first = gen.generate(workload, 11)
    assert first == gen.generate(workload, 11)
    other = gen.generate(workload, 12)
    assert [r.command for r in first] == [r.command for r in other]
    assert all(a.ini != b.ini for a, b in zip(first, other))


def test_every_generated_config_loads(tmp_path):
    from edspec.config import load_config

    cfg = tmp_path / "request.ini"
    for workload in gen.WORKLOADS:
        for request in gen.generate(workload, 5):
            cfg.write_text(request.ini, encoding="utf-8")
            load_config(cfg)


def test_levels_oracle_rejects_a_level_shifted_by_one_percent(tmp_path):
    request = gen.levels_request(np.random.default_rng(3), 0, "fixedpoint", 100, (0,),
                                 True, "both")
    out = _run(request, tmp_path)
    assert oracles.check(request, out) == []

    def shift(report):
        for level in report["levels"]:
            level["energy"] *= 1.01

    _rewrite_json(out / "fixedpoint.json", shift)
    with open(out / "levels.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    for row in rows[1:]:
        row[2] = repr(float(row[2]) * 1.01)
    with open(out / "levels.csv", "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    reasons = oracles.check(request, out)
    assert len(reasons) >= 3
    assert all("E_n(z) - z" in r or "closed form" in r for r in reasons)


def test_levels_oracle_rejects_a_missing_root(tmp_path):
    request = gen.levels_request(np.random.default_rng(4), 0, "fixedpoint", 100, (0,),
                                 True, "both")
    out = _run(request, tmp_path)
    _rewrite_json(out / "fixedpoint.json", lambda r: r.update(n_levels=r["n_levels"] - 1))
    assert any("closed form has" in r for r in oracles.check(request, out))


@pytest.mark.parametrize("metric", ["swap", "identity"])
def test_evolve_oracle_rejects_a_flipped_verdict(tmp_path, metric):
    request = gen.evolve_request(np.random.default_rng(5), 0, 60, 40, "gaussian", metric)
    out = _run(request, tmp_path)
    assert oracles.check(request, out) == []
    flipped = {"PASS": "FAIL", "FAIL": "PASS"}
    _rewrite_json(out / "evolve.json", lambda r: r.update(flag=flipped[r["flag"]]))
    assert any("metric reported" in r for r in oracles.check(request, out))


def test_evolve_oracle_rejects_a_short_trajectory(tmp_path):
    request = gen.evolve_request(np.random.default_rng(6), 0, 60, 40, "eigenstate", "swap")
    out = _run(request, tmp_path)
    lines = (out / "trajectory.csv").read_text(encoding="utf-8").splitlines()
    (out / "trajectory.csv").write_text("\n".join(lines[:-1]) + "\n", encoding="utf-8")
    assert any("trajectory rows" in r for r in oracles.check(request, out))


def test_dump_oracle_rejects_a_truncated_dump(tmp_path):
    request = gen.dump_request(np.random.default_rng(7), 0, 60)
    out = _run(request, tmp_path)
    assert oracles.check(request, out) == []
    text = (out / "K.txt").read_text(encoding="utf-8")
    (out / "K.txt").write_text(text[: len(text) // 2], encoding="utf-8")
    assert any(r.startswith("K.txt") for r in oracles.check(request, out))


def test_spectrum_oracle_rejects_a_perturbed_eigenvalue(tmp_path):
    request = gen.spectrum_request(np.random.default_rng(8), 0, 80)
    out = _run(request, tmp_path)
    assert oracles.check(request, out) == []
    lines = (out / "spectrum.csv").read_text(encoding="utf-8").splitlines()
    cells = lines[5].split(",")
    cells[1] = repr(float(cells[1]) * 1.001)
    lines[5] = ",".join(cells)
    (out / "spectrum.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert any("reference" in r for r in oracles.check(request, out))


def test_same_files_reports_a_changed_byte(tmp_path):
    for name in ("a", "b"):
        (tmp_path / name).mkdir()
        (tmp_path / name / "r.json").write_text("{}\n", encoding="utf-8")
    assert oracles.same_files(tmp_path / "a", tmp_path / "b") == []
    (tmp_path / "b" / "r.json").write_text("{ }\n", encoding="utf-8")
    assert oracles.same_files(tmp_path / "a", tmp_path / "b") == ["r.json differs between identical runs"]


def _span(name, start, end, parent, **attrs):
    return spans.Span(name, name.split(".")[0], start, end, parent, 0, attrs)


def test_self_times_subtract_nested_children():
    trace = [
        _span("cli.main", 0.0, 10.0, -1),
        _span("fixedpoint.collect_physical", 1.0, 6.0, 0, levels=2, failures=0),
        _span("frozen_spectrum.decompose", 2.0, 3.0, 1, hermitian=True, n=10),
        _span("serialize.write_json", 7.0, 9.0, 0, bytes=100),
    ]
    assert spans.self_times(trace) == [3.0, 4.0, 1.0, 2.0]
    # overlapping children (impossible for one thread) are counted once
    trace = [_span("cli.main", 0.0, 4.0, -1),
             _span("config.load_config", 1.0, 3.0, 0),
             _span("config.require", 2.0, 3.5, 0)]
    assert spans.self_times(trace) == [1.5, 2.0, 1.5]


def test_layer_metrics_attribute_refinement_and_paths():
    trace = [
        _span("cli.main", 0.0, 20.0, -1),                                      # 0
        _span("fixedpoint.collect_physical", 1.0, 15.0, 0, levels=1, failures=0),
        _span("fixedpoint.trace_branch", 1.0, 6.0, 1),                        # 2
        _span("fixedpoint.trace_branch_family", 1.5, 6.0, 2, samples=2),
        _span("frozen_spectrum.decompose", 2.0, 3.0, 3, hermitian=True, n=10),
        _span("frozen_spectrum.decompose", 4.0, 5.0, 3, hermitian=True, n=10),
        _span("fixedpoint.solve_fixed_points", 6.0, 12.0, 1),                 # 6
        _span("operators.build_schrodinger", 7.0, 8.0, 6, bytes=800),
        _span("operators.build_laplacian", 7.2, 7.6, 7, bytes=800),
        _span("frozen_spectrum.decompose", 8.0, 10.0, 6, hermitian=True, n=10),
        _span("frozen_spectrum.decompose", 13.0, 14.0, 1, hermitian=True, n=10),
        _span("evolution.evolve", 16.0, 19.0, 0, states=3),
        _span("frozen_spectrum.decompose", 16.5, 18.5, 11, hermitian=False, n=20),
    ]
    m = spans.layer_metrics(trace)
    assert m["fixedpoint.refine.evals"] == 1
    assert m["frozen_spectrum.decompose.calls"] == 5
    assert m["frozen_spectrum.decompose.hermitian_calls"] == 4
    assert m["frozen_spectrum.decompose.general_calls"] == 1
    assert m["frozen_spectrum.decompose.work_n3"] == 4 * 1000 + 8000
    assert m["fixedpoint.eigensolves_per_level"] == 4.0
    assert m["operators.build.calls"] == 1 and m["operators.build.bytes"] == 800
    assert m["operators.build.self_s"] == pytest.approx(1.0)
    assert m["fixedpoint.trace.samples"] == 2
    assert m["fixedpoint.trace.self_s"] == pytest.approx(3.0)
    assert m["fixedpoint.refine.self_s"] == pytest.approx(3.0)
    assert m["fixedpoint.collect.self_s"] == pytest.approx(2.0)
    assert m["evolution.evolve.self_s"] == pytest.approx(1.0)
    assert m["cli.self_s"] == pytest.approx(3.0)
    assert m["trace.self_sum_s"] == pytest.approx(20.0)


def test_install_wraps_every_binding_and_accounts_for_the_request(tmp_path):
    tracer = spans.Tracer()
    original = edspec.frozen_spectrum.decompose
    uninstall = spans.install(tracer, edspec)
    try:
        wrapped = edspec.frozen_spectrum.decompose
        assert wrapped is not original
        for module in (edspec, edspec.cli, edspec.fixedpoint, edspec.evolution,
                       edspec.physical_basis):
            assert module.decompose is wrapped
        _run(gen.spectrum_request(np.random.default_rng(9), 0, 40), tmp_path)
    finally:
        uninstall()
    assert edspec.cli.decompose is original
    m = spans.layer_metrics(tracer.spans)
    assert tracer.spans[0].name == spans.ROOT
    assert m["frozen_spectrum.decompose.hermitian_calls"] == 1
    assert m["serialize.calls"] == 2 and m["serialize.bytes"] > 0
    root = tracer.spans[0]
    assert m["trace.self_sum_s"] == pytest.approx(root.end - root.start)


def test_benchmark_json_names_every_printed_metric():
    import run

    spec = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json")
                      .read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    printed = set(spans.layer_metrics([])) - {"trace.self_sum_s"} | {
        "trace.wall_s", "trace.overhead_s", "trace.accounted_share", "reference.blas1_wall_s"}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        {name: run._layer_unit(name) for name in printed}
