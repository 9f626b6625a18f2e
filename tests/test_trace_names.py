"""The benchmark's tracer (``perfbench/spans.py``) wraps ``metriconn``
calls by module and attribute name; a traced run breaks when one of those
names is gone.  This reads the tracer's own table rather than a copy."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np

from metriconn.expr import Expr, X, Y, sin

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _traced_calls():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.CALLS


def test_every_traced_call_resolves():
    calls = _traced_calls()
    assert calls
    for module, attr, _ in calls:
        target = getattr(importlib.import_module(f"metriconn.{module}"), attr, None)
        assert callable(target), f"metriconn.{module}.{attr}"
    # the tracer also replaces these two methods in the class dictionary
    assert "eval_grid" in Expr.__dict__ and "diff" in Expr.__dict__


def test_eval_grid_keeps_the_memo_contract_the_benchmark_calls():
    # perfbench/workloads.py samples the recovered metric with
    # ``e.eval_grid(xm, ym, memo)``, and the tracer wraps that signature
    params = list(inspect.signature(Expr.eval_grid).parameters)
    assert params == ["self", "xs", "ys", "memo"]
    e = sin(X) * Y
    xs, ys = np.linspace(0.0, 1.0, 4), np.linspace(1.0, 2.0, 4)
    memo: dict = {}
    value = e.eval_grid(xs, ys, memo)
    assert np.array_equal(value, np.sin(xs) * ys)
    assert memo[id(e)] is e.eval_grid(xs, ys, memo)
