"""One workload in one process: set up, run whole rounds within the given
number of seconds, check every output, print one JSON line.

Started by ``run.py``; not meant to be run by hand.  ``--t0`` is the
``time.monotonic()`` reading taken just before this process was started,
so the set-up time it reports includes interpreter start-up and imports.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _import_program():
    """Import ``metriconn`` from this checkout's ``src`` and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import metriconn
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import metriconn from {SRC}: {exc}")
    if Path(metriconn.__file__).resolve().parent.parent != SRC.resolve():
        raise SystemExit(f"perfbench: metriconn came from {metriconn.__file__}, not {SRC}")


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args(argv)

    _import_program()
    import spans as tracing
    from workloads import WORKLOADS

    workdir = Path(args.workdir)
    workdir.mkdir(parents=True)
    workload = None
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        items = workload.round()
        setup_s = time.monotonic() - args.t0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        result = _measure(workload, items, args.seconds, args.trace, tracing)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if hasattr(workload, "close"):
            workload.close()
    result["setup_s"] = setup_s
    print(json.dumps(result))
    return 0


def _measure(workload, items, seconds, trace, tracing) -> dict:
    tracer = None
    if trace:
        tracer = tracing.Tracer()
        tracer.install()
    op_s, per_op, memory_ops, problems = [], [], [], []
    attempted = failed = rounds = 0
    started = round_started = time.perf_counter()
    try:
        while True:
            if tracer is not None:
                # the first round measures grid-evaluation memory; the later
                # ones, free of tracemalloc, give the layer times
                tracer.memory = rounds == 0
            for item in items:
                attempted += 1
                try:
                    if tracer is None:
                        t = time.perf_counter()
                        output = workload.run(item)
                        op_s.append(time.perf_counter() - t)
                    else:
                        output, figures = tracer.operation(workload.run, item)
                        op_s.append(figures["trace.op_wall_s"])
                except Exception:
                    failed += 1
                    traceback.print_exc()
                    continue
                try:
                    found = workload.verify(item, output)
                except Exception as exc:
                    found = [f"the output could not be read: {exc!r}"]
                problems += [f"{workload.name} op {attempted}: {p}" for p in found]
                if tracer is not None:
                    nodes, shapes = tracing.node_counts(workload.input_exprs(item, output))
                    figures.update({"expr.input_nodes": nodes, "expr.input_shapes": shapes,
                                    "cli.report_bytes": workload.report_bytes(output)})
                    (memory_ops if tracer.memory else per_op).append(figures)
                del output
            # stop before a round that would end past the deadline, judging
            # by the round just done, so a run never outlasts its seconds
            # by more than that one round's error; a traced run's memory
            # round reports no times, so the seconds start after it
            rounds += 1
            now = time.perf_counter()
            if tracer is not None and rounds == 1:
                started = now
            elif (now - started) + (now - round_started) > seconds:
                break
            round_started = now
            items = workload.round()
    finally:
        if tracer is not None:
            tracer.uninstall()
    for p in problems:
        print(p, file=sys.stderr)
    done = len(op_s)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "op_s": op_s,
        "op_p50_s": statistics.median(op_s) if done else None,
        "ops_per_s": done / sum(op_s) if done else None,
        "peak_rss_mb": _peak_rss_mb(),
    }
    if tracer is not None:
        result["per_op"] = per_op
        result["memory_ops"] = memory_ops
        timed = per_op or memory_ops
        result["layers"] = {key: statistics.median(f[key] for f in timed)
                            for key in timed[0]} if timed else {}
        if memory_ops:
            result["layers"]["forms.grid_eval_peak_mb"] = statistics.median(
                f["forms.grid_eval_peak_mb"] for f in memory_ops)
    return result


if __name__ == "__main__":
    sys.exit(main())
