"""Benchmark of metriconn: four workloads, each in fresh single-threaded
processes, with every output checked.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload box_check --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --seed 1            # all four workloads in turn

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
The full result, with every operation's time (and, traced, every
operation's layer figures), is written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
WORKLOADS = ("box_check", "spec_check", "flat_sweep", "euler_volume")

# BLAS and OpenMP pools pinned to one thread; bytecode is compiled on every
# start and never written, so the set-up time of every run is the same work.
CHILD_ENV = {
    "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1", "VECLIB_MAXIMUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1",
    "PYTHONDONTWRITEBYTECODE": "1", "PYTHONHASHSEED": "0",
}
# set-up is measured in this many fresh processes besides the measuring one
SETUP_PROBES = 4
# all processes of one workload end within this, or the run fails
WORKLOAD_TIMEOUT_S = 170.0

END_TO_END_UNITS = {"setup_s": "s", "op_p50_s": "s", "ops_per_s": "ops/s", "peak_rss_mb": "MB"}


def per_layer_units() -> dict:
    """Unit of every per-layer metric, in the order they are reported."""
    from spans import LAYERS, INCLUSIVE

    units = {f"{layer}_s": "s" for layer in LAYERS}
    units.update({f"{layer}_s": "s" for layer in INCLUSIVE.values()})
    units.update({
        "expr.node_evals": "count", "expr.memo_hit_ratio": "1",
        "expr.input_nodes": "count", "expr.input_shapes": "count",
        "expr.node_samples_per_s": "1/s", "forms.grid_eval_peak_mb": "MB",
        "cli.report_bytes": "bytes", "trace.op_wall_s": "s", "trace.unattributed_s": "s",
    })
    return units


def _child(workload, seed, seconds, trace, setup_only, deadline) -> dict:
    workdir = OUT / f"work-{os.getpid()}-{time.monotonic_ns()}"
    env = dict(os.environ, **CHILD_ENV)
    t0 = time.monotonic()
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
            "--t0", repr(t0), "--workdir", str(workdir)]
    if setup_only:
        argv.append("--setup-only")
    proc = subprocess.run(argv, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: {workload} worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Run one workload; returns the full result, with ``summary`` holding
    the line to print."""
    deadline = time.monotonic() + WORKLOAD_TIMEOUT_S
    result = _child(workload, seed, seconds, trace, False, deadline)
    summary = {"correct": result["correct"], "attempted": result["attempted"],
               "failed": result["failed"]}
    if trace:
        layers = result["layers"]
        summary["metrics"] = {name: {"value": layers.get(name, 0), "unit": unit}
                              for name, unit in per_layer_units().items()}
    else:
        setups = [result["setup_s"]] + [
            _child(workload, seed, seconds, 0, True, deadline)["setup_s"]
            for _ in range(SETUP_PROBES)]
        result["setup_runs_s"] = setups
        values = {"setup_s": statistics.median(setups), "op_p50_s": result["op_p50_s"],
                  "ops_per_s": result["ops_per_s"], "peak_rss_mb": result["peak_rss_mb"]}
        summary["metrics"] = {name: {"value": values[name], "unit": unit}
                              for name, unit in END_TO_END_UNITS.items()}
    result["summary"] = summary
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (HERE.parent / "src" / "metriconn" / "__init__.py").is_file():
        print(f"perfbench: no metriconn sources under {HERE.parent / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        result = run_workload(name, args.seed, args.seconds, args.trace)
        stem = f"{name}-seed{args.seed}-trace{args.trace}"
        (OUT / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n")
        if args.workload == "all":
            print(name, file=sys.stderr)
        print(json.dumps(result["summary"]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
