"""Benchmark of ghdist: one workload, one seed, one closed loop.

From the repository root:

    python3 bench/run.py --workload curve --seed 1 --seconds 20 --trace 0

Workloads: curve, exact, files (see bench/README.md).  Each run starts the
workload in fresh worker processes that import ghdist from ./src.  In an
untraced run four of them only set up (import, input generation, one
warm-up operation) and exit; the fifth sets up the same way and then runs
the timed loop.  The set-up time is the median over the five, from
process start to READY.  A traced run starts only the one that measures.

With --trace 0 the last line of standard output holds the end-to-end
metrics, with --trace 1 the per-layer ones.  The line before it records
the machine and the run; the same record, with per-kind counts, is written
to bench/out/result-<workload>-seed<seed>-trace<t>.json.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
WORKLOADS = ("curve", "exact", "files")
SETUP_SAMPLES = 5
DEADLINE_S = 170.0


class BenchError(Exception):
    pass


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="operation time to measure; whole rounds are run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: per-layer metrics from a traced run")
    return p.parse_args(argv)


def worker_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"  # one thread of work
    return env


def run_worker(args, root: Path, workdir: Path, setup_only: bool, deadline: float):
    """(set-up seconds, parsed last line or None) of one worker process."""
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", str(workdir)]
    if setup_only:
        cmd.append("--setup-only")
    start = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=root, env=worker_env(root),
                            stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{args.workload} worker passed the deadline")
    if proc.returncode != 0:
        raise BenchError(f"{args.workload} worker exited {proc.returncode}")
    lines = out.splitlines()
    ready = next((ln for ln in lines if ln.startswith("READY ")), None)
    if ready is None:
        raise BenchError("worker never reported READY")
    setup = float(ready.split()[1]) - start
    return setup, (None if setup_only else json.loads(lines[-1]))


def machine() -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
    }


def end_to_end(run: dict, setups: list[float]) -> dict:
    ms = np.asarray(run["op_seconds"]) * 1e3
    passed = run["attempted"] - run["failed"] - run["wrong"]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (passed / (ms.sum() / 1e3), "1/s"),
        "op_ms.p50": (float(np.percentile(ms, 50)), "ms"),
        "op_ms.p90": (float(np.percentile(ms, 90)), "ms"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    root = Path.cwd()
    if not (root / "src" / "ghdist" / "__init__.py").is_file():
        print("error: run from a checkout of ghdist (no src/ghdist here)", file=sys.stderr)
        return 2
    workdir = HERE / "out"
    workdir.mkdir(exist_ok=True)
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                setups.append(run_worker(args, root, workdir, True, deadline)[0])
        setup, run = run_worker(args, root, workdir, False, deadline)
        setups.append(setup)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    metrics = run.pop("layers") if args.trace else end_to_end(run, setups)
    record = {
        "machine": machine(),
        "run": {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                "trace": args.trace, "attempted": run["attempted"],
                "failed": run["failed"], "wrong": run["wrong"], "rounds": run["rounds"],
                "setup_samples_s": setups, "by_kind": run["by_kind"],
                "median_ms_by_kind": run["median_ms_by_kind"],
                "problems": run["problems"],
                **{k: run[k] for k in ("trace_file", "spans", "missing") if k in run}},
        "metrics": metrics,
    }
    (workdir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps({"machine": record["machine"], "run": record["run"]}))
    print(json.dumps({"correct": run["wrong"] == 0, "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
