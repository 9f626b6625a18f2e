"""The benchmark's tracer (``perfbench/spans.py``) wraps ``metriconn``
calls by module and attribute name; a traced run breaks when one of those
names is gone.  This reads the tracer's own table rather than a copy."""

import importlib
import importlib.util
from pathlib import Path

from metriconn.expr import Expr

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
