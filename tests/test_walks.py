"""Scalar evaluation and differentiation against the recursive references
they replaced, on every corpus the suite has: the same derivative structure,
and the same bits or the same error.  Also their depth on long and deeply
nested expressions, and the reference cycles they leave."""

from __future__ import annotations

import gc
import io
import math
import sys
from pathlib import Path

import numpy as np
import pytest

try:
    from hypothesis import given, settings
except ImportError:
    given = None

from metriconn.cli import run
from metriconn.connection import compatibility_residual
from metriconn.expr import (
    DomainError,
    Expr,
    _operands,
    _postorder,
    parse,
    to_source,
)
from metriconn.forms import Chart, evaluate_grid
from metriconn.gallery import GALLERY

from helpers import (
    random_points,
    random_safe_expr,
    reference_diff,
    reference_eval,
    scrambled_instance,
    torus_chart,
)
from test_expr import smart_expressions
from test_parse import SPEC_FILES, call_depth, spec_coefficients

ROOT = Path(__file__).resolve().parent.parent
POINTS = [(0.0, 0.0), (1.0, 0.0), (0.0, -1.0), (-2.5, -1.7), (-0.3, 0.4), (0.7, 2.2),
          (1.9, -1.0), (0.5, 0.5), (3.0, 6.0), (-1.0, 4.0)]


def corpus_of_spec(path: Path) -> list[Expr]:
    return [parse(text) for text in spec_coefficients(path)]


def corpus_of_gallery(name: str) -> list[Expr]:
    entry = GALLERY[name]()
    exprs = [e for row in entry.connection.entries for form in row for e in (form.p, form.q)]
    if entry.metric is not None:
        exprs += [e for row in entry.metric.entries for e in row]
        exprs += [f for row in compatibility_residual(entry.connection, entry.metric)
                  for form in row for f in (form.p, form.q)]
    return exprs


def corpus_of_scramble(seed: int) -> list[Expr]:
    _, _, theta = scrambled_instance(np.random.default_rng(seed), torus_chart((16, 16)))
    return [e for row in theta.entries for form in row for e in (form.p, form.q)]


def assert_same_structure(a: Expr, b: Expr):
    # equal numbers are equal structure, and so is the count of shapes below
    assert a._num.n == b._num.n
    assert len(_postorder(a)) == len(_postorder(b))
    assert to_source(a) == to_source(b)


def assert_derivatives_match(e: Expr):
    for v in "xy":
        d, ref = e.diff(v), reference_diff(e, v)
        assert_same_structure(d, ref)
        for w in "xy":
            assert_same_structure(d.diff(w), reference_diff(ref, w))


def outcome(evaluate, e: Expr, x: float, y: float):
    try:
        value = evaluate(e, x, y)
    except DomainError as err:
        return ("error", err.reason, err.node, err.point)
    return ("value", np.float64(value).view(np.uint64).item())


def assert_values_match(e: Expr, points):
    for x, y in points:
        new = outcome(Expr.eval, e, x, y)
        if new[:2] == ("error", "overflow"):
            # a node whose value is not finite while its operands are: the
            # reference goes on with inf, or fails later, from that node
            node = new[2]
            operands = [reference_eval(k, x, y) for k in _operands(node)]
            assert all(map(math.isfinite, operands))
            ref = outcome(reference_eval, node, x, y)
            if ref[0] == "value":
                assert not math.isfinite(np.uint64(ref[1]).view(np.float64))
            else:
                assert ref[1] == "overflow"
            continue
        assert new == outcome(reference_eval, e, x, y), (to_source(e)[:120], x, y)
        if new[0] == "value":
            assert math.isfinite(e.eval(x, y))


def check_corpus(exprs, points=POINTS):
    assert exprs
    for e in exprs:
        assert_values_match(e, points)
        assert_derivatives_match(e)


# ---------------------------------------------------------------------------
# differential: the references' structure, bits and errors


@pytest.mark.parametrize("path", SPEC_FILES, ids=lambda p: p.name)
def test_spec_coefficients_match_the_references(path):
    check_corpus(corpus_of_spec(path))


@pytest.mark.parametrize("name", sorted(GALLERY))
def test_gallery_expressions_match_the_references(name):
    check_corpus(corpus_of_gallery(name))


@pytest.mark.parametrize("seed", [5, 29])
def test_scrambled_coefficients_match_the_references(seed):
    check_corpus(corpus_of_scramble(seed), POINTS[:4])


def test_random_safe_expressions_match_the_references():
    rng = np.random.default_rng(41)
    check_corpus([random_safe_expr(rng, depth=4) for _ in range(40)], random_points(rng, 8, 3.0))


def test_domain_errors_match_the_references():
    # the reference reads a quotient's divisor, and tests it for zero, before
    # its dividend: 1/y fails as a division by zero before ln(x) is read
    texts = ["ln(x)/y", "y/ln(x)", "ln(x)*sqrt(y)", "sqrt(y)*ln(x)", "(x - x)^(-1) + ln(x)",
             "x^0.5/(y - y)", "exp(1000*x) - exp(1000*x)", "ln(x)/(y*ln(x))", "sinh(x*800)",
             "tan(x)/sin(x)", "1e200*x*1e200*y", "1/(1e300*x*1e300)", "sqrt(-(1e300*x*1e300))"]
    check_corpus([parse(t) for t in texts], POINTS + [(-1.0, -1.0), (2.0, 0.0)])


@pytest.mark.skipif(given is None, reason="needs Hypothesis")
def test_smart_expressions_match_the_references():
    @settings(max_examples=200, deadline=None)
    @given(smart_expressions())
    def check(e):
        check_corpus([e], POINTS[:6])

    check()


# ---------------------------------------------------------------------------
# depth and cycles


N = 10_000
DEEP = {
    "sum": " + ".join(f"sin({k}*x)" for k in range(1, N + 1)),
    "nested calls": "sin(" * N + "ln(x - 0.5)" + ")" * N,
}


@pytest.mark.parametrize("name", sorted(DEEP))
def test_deep_expressions_walk_without_recursion(name):
    e = parse(DEEP[name])
    chart = Chart((0.0, 1.0), (0.0, 1.0), grid=(8, 8))
    # a few dozen frames above the caller: any recursion would fail
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(call_depth() + 40)
    try:
        dx = e.diff("x")
        dxx = dx.diff("x")
        values = [f.eval(0.75, 0.5) for f in (e, dx, dxx)]
        try:
            e.eval(0.25, 0.5)
            failed = None
        except DomainError as err:
            failed = err
        try:
            evaluate_grid(e, chart)
            located = None
        except DomainError as err:
            located = err
    finally:
        sys.setrecursionlimit(limit)
    assert all(map(math.isfinite, values))
    if name == "sum":
        assert failed is None and located is None
        assert values[1] == pytest.approx(sum(k * math.cos(k * 0.75) for k in range(1, N + 1)))
    else:
        assert failed.reason == "ln of a non-positive value"
        assert located.reason == "ln of a non-positive value"
        assert located.point[0] < 0.5


def test_derivatives_make_no_reference_cycles():
    gc.collect()
    gc.disable()
    try:
        e = parse("exp(x*x) + sqrt(x + 3) + exp(sqrt(y))")
        d = e.diff("x").diff("x").diff("x")
        d = d.diff("y") + e.diff("y")
        del e, d
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_a_check_leaves_no_expression_to_the_cyclic_collector():
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        code = run(["check", str(ROOT / "tests" / "data" / "scramble_box.conn"), "--json"],
                   out=io.StringIO(), err=io.StringIO())
        gc.collect()
        leaked = sum(isinstance(obj, Expr) for obj in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert code == 0
    assert leaked == 0
