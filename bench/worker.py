"""One workload in a fresh process: set up, run the request list, check it.

Started by run.py, never by hand.  The worker imports the program from the
checkout's ``src``, writes the seeded INI configs, loads each through the
program's config loader and marks itself ready; that span is the set-up.
It then drives ``edspec.cli.main`` in-process, one request after another
(one client, closed loop).  Oracles run after each pass, outside the timed
region.  The result goes to the JSON file named by ``--result``.

Modes:
  setup      set up and exit (a set-up time sample)
  run        timed passes over the list until --seconds is used up
  trace      a warm-up pass, a pass with span tracing, an untraced pass
  reference  one untraced pass (run.py starts it with one BLAS thread)
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

import gen


def _import_program(root: Path):
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import edspec
    import edspec.cli
    import edspec.config

    if Path(edspec.__file__).resolve().parent != src / "edspec":
        raise ImportError(f"edspec was imported from {edspec.__file__}, not from {src}")
    return edspec


def _run_request(edspec, request: gen.Request, config: Path, out_dir: Path):
    out_dir.mkdir(parents=True, exist_ok=True)
    argv = [request.command, "--config", str(config), "--out-dir", str(out_dir)]
    start = time.perf_counter()
    try:
        code = edspec.cli.main(argv)
        error = None if code == 0 else f"exit code {code}"
    except Exception as exc:  # a crashing request is a failed operation, not a crashed client
        error = f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - start, error


class Client:
    """The workload's single closed-loop client and its bookkeeping."""

    def __init__(self, edspec, requests: list, configs: list, out: Path):
        self.edspec = edspec
        self.requests = requests
        self.configs = configs
        self.out = out
        self.attempted = 0
        self.failures: list[dict] = []
        self.warm_up_error: str | None = None

    def timed_pass(self, tracer=None) -> tuple[list[float], dict]:
        """Run the list once; returns request times and {index: error}."""
        times, errors = [], {}
        for request, config in zip(self.requests, self.configs):
            if tracer is not None:
                tracer.request = request.index
            elapsed, error = _run_request(self.edspec, request, config,
                                          self.out / str(request.index))
            times.append(elapsed)
            if error:
                errors[request.index] = error
        return times, errors

    def check_pass(self, errors: dict, label: str) -> None:
        import oracles

        for request in self.requests:
            self.attempted += 1
            reasons = [errors[request.index]] if request.index in errors else \
                oracles.check(request, self.out / str(request.index))
            if reasons:
                self.failures.append({"pass": label, "request": request.index,
                                      "command": request.command,
                                      "n_points": request.n_points, "reasons": reasons})

    def warm_up(self) -> None:
        """Run the first request once, untimed, before the first timed pass.

        The first call in a process pays for first touches that later calls
        do not.  Its reports are kept for the determinism check.
        """
        _, self.warm_up_error = _run_request(self.edspec, self.requests[0],
                                             self.configs[0], self.out / "repeat")

    def check_determinism(self) -> None:
        """The first request's reports must match its warm-up run byte for byte."""
        import oracles

        first = self.requests[0]
        self.attempted += 1
        reasons = [self.warm_up_error] if self.warm_up_error else \
            oracles.same_files(self.out / str(first.index), self.out / "repeat")
        if reasons:
            self.failures.append({"pass": "determinism", "request": first.index,
                                  "command": first.command, "n_points": first.n_points,
                                  "reasons": reasons})


def _environment(edspec) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "edspec": edspec.__version__,
    }


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True, type=Path)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--mode", required=True,
                        choices=("setup", "run", "trace", "reference"))
    parser.add_argument("--result", required=True, type=Path)
    args = parser.parse_args(argv)

    edspec = _import_program(args.root)
    requests = gen.generate(args.workload, args.seed)
    cfg_dir = args.out / "cfg"
    cfg_dir.mkdir(parents=True, exist_ok=True)
    configs = []
    for request in requests:
        path = cfg_dir / f"{request.index}.ini"
        path.write_text(request.ini, encoding="utf-8")
        edspec.config.load_config(path)
        configs.append(path)
    result = {"ready_at": time.monotonic()}
    if args.mode != "setup":
        client = Client(edspec, requests, configs, args.out)
        result.update(_measure(client, args.mode, args.seconds, result["ready_at"]))
        result.update(attempted=client.attempted, failures=client.failures,
                      environment=_environment(edspec), requests=len(requests))
    args.result.write_text(json.dumps(result), encoding="utf-8")
    return 0


def _measure(client: Client, mode: str, seconds: float, start: float) -> dict:
    """Request times per pass, and for a traced pass the layer metrics."""
    if mode != "reference":
        client.warm_up()
    if mode == "run":
        passes, rss = [], None
        while True:
            times, errors = client.timed_pass()
            rss = rss if rss is not None else _rss_mb()
            client.check_pass(errors, f"timed-{len(passes)}")
            passes.append(times)
            # start another pass only if it can finish inside the run length
            if time.monotonic() + sum(times) > start + seconds:
                break
        client.check_determinism()
        return {"passes": passes, "peak_rss_mb": rss}
    if mode == "reference":
        times, errors = client.timed_pass()
        client.check_pass(errors, "reference")
        return {"passes": [times]}
    import spans

    # the first pass in a process runs slower (first touch of memory, BLAS
    # thread start), so the untraced pass compared with the traced one
    # comes after both
    _, errors = client.timed_pass()
    client.check_pass(errors, "warm-up")
    tracer = spans.Tracer()
    uninstall = spans.install(tracer, sys.modules["edspec"])
    try:
        traced, errors = client.timed_pass(tracer)
    finally:
        uninstall()
    client.check_pass(errors, "traced")
    times, errors = client.timed_pass()
    client.check_pass(errors, "untraced")
    client.check_determinism()
    layers = spans.layer_metrics(tracer.spans)
    layers["trace.wall_s"] = sum(traced)
    layers["trace.overhead_s"] = sum(traced) - sum(times)
    layers["trace.accounted_share"] = layers.pop("trace.self_sum_s") / sum(traced)
    return {"passes": [times], "layers": layers}


if __name__ == "__main__":
    sys.exit(main())
