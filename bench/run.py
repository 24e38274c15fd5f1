"""edspec benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload levels|evolve|reports|all --seed N \\
        --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its ``src``.
Each workload runs in fresh worker processes (worker.py) with the BLAS
thread count pinned through their environment.

--trace 0 prints the end-to-end metrics: set-up time (median over several
process starts), wall time of the seeded request list and the median
request time (tracing off), and the workload process's peak RSS.
--trace 1 prints the per-layer metrics of a traced pass, the tracing
overhead, and a single-BLAS-thread reference pass.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.  With
--workload all the three workloads run in turn, each printing its lines and
its JSON line.  Reports, configs and a full record of the run go to
.bench_out/<workload>/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("levels", "evolve", "reports")
#: Fresh processes started only to sample the set-up time; the measuring
#: process adds one more sample.
SETUP_PROBES = 5
#: BLAS threads of a workload process.  One thread, so that a run needs one
#: core: on a small shared machine a second BLAS thread gains little (about
#: 15% on the evolve list with two cores) and makes every run hostage to any
#: other load on the second core, where spinning BLAS threads stall each
#: other (a pass can then take several times as long).
BLAS_THREADS = 1
#: Every worker must have ended this long after the start.
TIME_LIMIT_S = 170.0

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "request_s.p50": "s", "peak_rss_mb": "MB"}


class WorkerFailed(RuntimeError):
    pass


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes"):
        return "B"
    if name.endswith(("share", "per_level")):
        return "1"
    if name.endswith("work_n3"):
        return "n3"
    return "count"


def git_commit(root: Path) -> str:
    """Commit of the checkout, read from .git when present (no git needed)."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if not ref.startswith("ref: "):
            return ref
        target = root / ".git" / ref[5:]
        if target.is_file():
            return target.read_text(encoding="utf-8").strip()
        for line in (root / ".git" / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def spawn(args, mode: str, threads: int, out: Path, deadline: float, tag: str) -> dict:
    """Run worker.py in a fresh process; returns its result with setup_s."""
    result_path = out / f"result-{tag}.json"
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT),
           "--out", str(out / mode), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--mode", mode, "--result", str(result_path)]
    started = time.monotonic()
    try:
        # the worker's own output goes to stderr so stdout stays the report
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=sys.stderr,
                              timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"{mode} worker exceeded the time limit") from exc
    if proc.returncode != 0 or not result_path.is_file():
        raise WorkerFailed(f"{mode} worker exited with code {proc.returncode}")
    result = json.loads(result_path.read_text(encoding="utf-8"))
    result["setup_s"] = result["ready_at"] - started
    return result


def measure(args, out: Path, deadline: float) -> tuple[dict, list, dict]:
    threads = BLAS_THREADS
    if args.trace:
        main = spawn(args, "trace", threads, out, deadline, "trace")
        reference = spawn(args, "reference", 1, out, deadline, "reference")
        metrics = dict(main["layers"])
        metrics["reference.blas1_wall_s"] = sum(reference["passes"][0])
        notes = {"untraced_wall_s": sum(main["passes"][0]),
                 "reference_blas_threads": 1}
        runs = [main, reference]
    else:
        probes = [spawn(args, "setup", threads, out, deadline, f"setup-{k}")
                  for k in range(SETUP_PROBES)]
        main = spawn(args, "run", threads, out, deadline, "run")
        setups = [p["setup_s"] for p in probes] + [main["setup_s"]]
        passes = main["passes"]
        samples = [t for times in passes for t in times]
        metrics = {
            "setup_s": statistics.median(setups),
            # each request's median over the passes, summed over the list:
            # a burst of outside load in one pass is dropped per request
            "wall_s": sum(statistics.median(ts) for ts in zip(*passes)),
            "request_s.p50": statistics.median(samples),
            "peak_rss_mb": main["peak_rss_mb"],
        }
        notes = {"setup_samples": len(setups), "passes": len(passes),
                 "requests_per_pass": main["requests"], "request_samples": len(samples),
                 "pass_s": [sum(times) for times in passes]}
        runs = [main]
    notes["blas_threads"] = threads
    return metrics, runs, notes


def report(args, metrics: dict, runs: list, notes: dict) -> dict:
    attempted = sum(r["attempted"] for r in runs)
    failures = [f for r in runs for f in r["failures"]]
    env = dict(runs[0]["environment"], nproc=len(os.sched_getaffinity(0)),
               commit=git_commit(ROOT))
    units = END_TO_END_UNITS if not args.trace else {k: _layer_unit(k) for k in metrics}
    print(f"edspec benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("environment: " + " ".join(f"{k}={v}" for k, v in sorted(env.items())))
    for name, value in metrics.items():
        print(f"  {name:<44} {value:>16.6g} {units[name]}")
    if args.trace:
        print(f"  tracing overhead: traced wall {metrics['trace.wall_s']:.4g} s - untraced "
              f"{notes['untraced_wall_s']:.4g} s = {metrics['trace.overhead_s']:.4g} s")
        print("  reference.blas1_wall_s is a single-BLAS-thread reference pass, "
              "not an end-to-end metric")
    else:
        print(f"  samples: set-up {notes['setup_samples']} process starts, "
              f"{notes['passes']} pass(es) of {notes['requests_per_pass']} requests, "
              f"{notes['request_samples']} request times")
    print(f"  fail_ratio {len(failures)}/{attempted} = {len(failures) / attempted:.4g}")
    for failure in failures:
        print(f"  FAILED {failure}")
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "notes": notes,
              "metrics": metrics, "units": units, "attempted": attempted,
              "failures": failures, "fail_ratio": len(failures) / attempted}
    (OUT / args.workload / "record.json").write_text(json.dumps(record, indent=1),
                                                      encoding="utf-8")
    return {"correct": not failures, "attempted": attempted, "failed": len(failures),
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="edspec benchmark, one workload run")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                        help="one workload, or all three in turn (one result line each)")
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "edspec" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src' / 'edspec'}", file=sys.stderr)
        return 2
    for name in WORKLOADS if args.workload == "all" else (args.workload,):
        run_args = argparse.Namespace(**{**vars(args), "workload": name})
        deadline = time.monotonic() + TIME_LIMIT_S
        out = OUT / name
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        try:
            metrics, runs, notes = measure(run_args, out, deadline)
        except WorkerFailed as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        print(json.dumps(report(run_args, metrics, runs, notes)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
