"""One workload in one process: set up, then a closed loop of operations.

Run by bench/run.py, which times the set-up from process start to the
READY line.  Each operation starts only after the previous one and its
check have finished; only the operation itself is timed.  With --trace 1
every operation runs twice on the same input, untraced and traced, the
order alternating from one operation to the next, so the trace's overhead
is measured on identical work and neither pass always finds caches warm.
Neither pass runs while the other's output is still alive.

The last line of standard output is one JSON object with the run's counts,
its operation times and, when traced, the per-layer figures.
"""
from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

MIN_OPS = 100  # p90 needs at least ten operations beyond it


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--workdir", required=True)
    return p.parse_args(argv)


def timed_call(call):
    """(output or None, error or None, seconds)."""
    start = time.perf_counter()
    try:
        out = call()
    except Exception as exc:  # a failing operation is counted, not fatal
        return None, exc, time.perf_counter() - start
    return out, None, time.perf_counter() - start


def run_loop(workload, seconds: float, tracer) -> dict:
    import checks

    op_seconds, base_seconds, kinds = [], [], []
    attempted = failed = wrong = 0
    by_kind: dict[str, list[int]] = {}  # kind -> [attempted, failed, wrong]
    problems: list[str] = []
    rounds = 0
    while sum(op_seconds) + sum(base_seconds) < seconds or attempted < MIN_OPS:
        for op in workload.round(rounds):
            untraced_first = tracer is not None and attempted % 2 == 0
            if untraced_first:
                base_seconds.append(timed_call(op.call)[2])
            if tracer is None:
                out, err, dt = timed_call(op.call)
            else:
                tracer.install()
                try:
                    out, err, dt = timed_call(op.call)
                finally:
                    tracer.uninstall()
            op_seconds.append(dt)
            kinds.append(op.kind)
            attempted += 1
            counts = by_kind.setdefault(op.kind, [0, 0, 0])
            counts[0] += 1
            if err is None and op.failed(out):
                err = RuntimeError(f"{op.kind} reported failure")
            if err is not None:
                failed += 1
                counts[1] += 1
                if len(problems) < 20:
                    problems.append(f"failed {op.kind}: {type(err).__name__}: {err}")
            else:
                try:
                    op.check(out)
                except checks.CheckFailed as exc:
                    wrong += 1
                    counts[2] += 1
                    if len(problems) < 20:
                        problems.append(f"wrong {op.kind}: {exc}")
            # an output, or a traceback holding the operation's frames, kept
            # alive into the next operation would count in its peak memory
            del out, err
            if tracer is not None and not untraced_first:
                base_seconds.append(timed_call(op.call)[2])
        rounds += 1
    return {
        "attempted": attempted,
        "failed": failed,
        "wrong": wrong,
        "rounds": rounds,
        "op_seconds": op_seconds,
        "base_seconds": base_seconds,
        "by_kind": by_kind,
        "median_ms_by_kind": {
            kind: statistics.median(1e3 * t for k, t in zip(kinds, op_seconds) if k == kind)
            for kind in sorted(by_kind)},
        "problems": problems,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    import ghdist

    if not Path(ghdist.__file__).resolve().is_relative_to((root / "src").resolve()):
        print(f"ghdist imported from {ghdist.__file__}, not from ./src", file=sys.stderr)
        return 2
    import workloads

    workdir = Path(args.workdir) / f"{args.workload}-{args.seed}-{args.trace}"
    workload = workloads.WORKLOADS[args.workload](ghdist, args.seed, workdir)
    try:
        workload.warmup()
        print(f"READY {time.monotonic()!r}", flush=True)
        if args.setup_only:
            return 0
        tracer = None
        if args.trace:
            from tracer import Tracer

            tracer = Tracer(ghdist)
        result = run_loop(workload, args.seconds, tracer)
    finally:
        workload.close()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        import layers

        result["layers"] = layers.summarize(tracer, result)
        trace_file = Path(args.workdir) / f"trace-{args.workload}-seed{args.seed}.jsonl"
        result["trace_file"] = str(trace_file.relative_to(root))
        result["spans"] = tracer.write_jsonl(trace_file)
        result["missing"] = tracer.missing
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(2)
