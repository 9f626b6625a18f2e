"""The tape engine against the reference tree walk, bit for bit, and its
sharing, caching, recursion and memory properties."""

from __future__ import annotations

import gc
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from metriconn import expr, forms
from metriconn.connection import (
    FrameChange,
    compatibility_residual,
    curvature,
    gauge_transform,
)
from metriconn.expr import (
    Add,
    Const,
    Div,
    Mul,
    X,
    Y,
    cos,
    eval_grid_many,
    parse,
    sin,
    to_source,
)
from metriconn.forms import (
    Chart,
    OneForm,
    evaluate_grid,
    evaluate_grid_many,
    root_cache,
    sup_norm,
)
from metriconn.gallery import GALLERY
from metriconn.metrizability import (
    check_metrizability,
    factor_curvature,
    recover_metric,
    skew_symmetrizer,
    spd_sqrt,
)
from metriconn.specfile import load_spec

from helpers import (
    random_gauge,
    random_safe_expr,
    reference_eval_grid,
    scrambled_instance,
    skew_connection,
    torus_chart,
    trig_poly,
)

SPECS = sorted((Path(__file__).resolve().parent.parent / "specs").glob("*.conn"))


def _bits(value, shape) -> np.ndarray:
    arr = np.ascontiguousarray(np.broadcast_to(np.asarray(value, dtype=float), shape))
    return arr.view(np.uint64)


def assert_matches_reference(exprs, xs, ys):
    """One tape over all of ``exprs`` against the reference walk: the same
    value type and the same bits at every sample."""
    got = eval_grid_many(exprs, xs, ys)
    memo: dict = {}
    want = [reference_eval_grid(e, xs, ys, memo) for e in exprs]
    shape = np.broadcast(xs, ys).shape
    for k, (g, w) in enumerate(zip(got, want)):
        assert type(g) is type(w), (k, to_source(exprs[k])[:80])
        assert np.array_equal(_bits(g, shape), _bits(w, shape)), (k, to_source(exprs[k])[:80])


def connection_exprs(theta) -> list:
    return [e for row in theta.entries for form in row for e in (form.p, form.q)]


def derived_exprs(theta) -> list:
    """Connection entries, their first derivatives and the curvature: the
    expressions a check builds first."""
    base = connection_exprs(theta)
    out = base + [e.diff(v) for e in base for v in ("x", "y")]
    return out + [f.r for row in curvature(theta).entries for f in row]


def pipeline_exprs(theta) -> list:
    """The expressions a metric verdict evaluates: the symmetrizer, its
    square root, the transformed connection and the compatibility residual
    of the recovered metric."""
    chart = theta.chart
    coeff = factor_curvature(curvature(theta), forms.TwoForm(Const(1.0)))
    s = skew_symmetrizer(coeff.matrix, chart)
    a = spd_sqrt(s, chart)
    theta_prime = gauge_transform(theta, FrameChange(a, chart))
    residual = compatibility_residual(theta, recover_metric(s))
    return ([e for row in s for e in row] + [e for row in a for e in row]
            + connection_exprs(theta_prime)
            + [e for row in residual for f in row for e in (f.p, f.q)])


@pytest.mark.parametrize("path", SPECS, ids=lambda p: p.name)
def test_tape_matches_reference_on_spec_files(path):
    spec = load_spec(path)
    exprs = []
    for theta in (spec.connection, spec.connection2):
        if theta is not None:
            exprs += derived_exprs(theta)
    if spec.metric is not None:
        exprs += [e for row in spec.metric.entries for e in row]
    if spec.oneform is not None:
        exprs += [spec.oneform.p, spec.oneform.q]
    assert exprs
    for lattice in ("mid", "node"):
        assert_matches_reference(exprs, *spec.chart.mesh(lattice))


@pytest.mark.parametrize("name", sorted(GALLERY))
def test_tape_matches_reference_on_gallery_entries(name):
    entry = GALLERY[name]()
    exprs = derived_exprs(entry.connection)
    if entry.metric is not None:
        exprs += [e for row in entry.metric.entries for e in row]
        exprs += [f for row in compatibility_residual(entry.connection, entry.metric)
                  for form in row for f in (form.p, form.q)]
    assert_matches_reference(exprs, *entry.connection.chart.mesh())


@pytest.mark.parametrize("seed", [3, 17])
def test_tape_matches_reference_on_scrambled_instances(seed):
    rng = np.random.default_rng(seed)
    chart = torus_chart((16, 16))
    theta0, _, theta = scrambled_instance(rng, chart)
    exprs = derived_exprs(theta0) + derived_exprs(theta) + pipeline_exprs(theta)
    assert_matches_reference(exprs, *chart.mesh())
    # a line of samples, as the RK4 sweeps evaluate
    ts = np.linspace(0.0, 1.0, 9)
    assert_matches_reference(connection_exprs(theta), ts, np.full_like(ts, 0.25))


def test_tape_matches_reference_on_random_expressions():
    rng = np.random.default_rng(5)
    exprs = [random_safe_expr(rng, depth=4) for _ in range(40)]
    xs, ys = np.meshgrid(np.linspace(-2, 2, 7), np.linspace(-2, 2, 5), indexing="ij")
    assert_matches_reference(exprs, xs, ys)
    assert_matches_reference(exprs, 0.5, -1.25)


def test_signed_zero_constants_stay_apart_in_one_batch():
    negative, positive = Mul(Const(-0.0), X), Mul(Const(0.0), X)
    xs = np.linspace(0.5, 2.0, 4)
    got = eval_grid_many([negative, positive], xs, xs)
    assert np.all(np.signbit(got[0])) and not np.any(np.signbit(got[1]))
    assert_matches_reference([negative, positive], xs, xs)
    assert negative._num.n != positive._num.n


def test_structurally_equal_nodes_share_one_value_number():
    a, b = sin(X) * Y, sin(X) * Y
    assert a is not b
    assert a._num.n == b._num.n
    # the tape computes the shared node once and returns it for both roots
    xs = np.linspace(0.0, 1.0, 5)
    ra, rb = eval_grid_many([a, b], xs, xs)
    assert ra is rb


def test_equal_nodes_are_numbered_not_merged(monkeypatch):
    a, b = sin(X) * Y, sin(X) * Y
    assert a is not b and a.left is not b.left
    # each object keeps its own derivative cache
    a.diff("x")
    assert a._dcache is not None and b._dcache is None
    assert a._num is b._num and a.left._num is b.left._num
    # one number is computed once on one tape
    computed = []
    run = expr._run

    def logging_run(tape, *args):
        computed.extend(tape)
        return run(tape, *args)

    monkeypatch.setattr(expr, "_run", logging_run)
    xs = np.linspace(0.0, 1.0, 5)
    ra, rb = eval_grid_many([a, b, a * 1.5, b * 1.5], xs, xs)[:2]
    assert ra is rb
    assert computed.count(a._num) == 1 and computed.count(a.left._num) == 1
    assert len(computed) == len(set(computed))


def test_value_numbers_are_never_reused():
    # structures no other test builds, so that no live node holds their numbers
    chart = torus_chart((12, 12))
    with root_cache():
        e = sin(X * 0.375)
        first = e._num.n
        evaluate_grid(e, chart)
        del e
        gc.collect()
        e = cos(X * 0.375)
        assert e._num.n > first
        value = evaluate_grid(e, chart)
    assert np.array_equal(value, np.cos(chart.mesh()[0] * 0.375))


def test_memo_entries_act_as_leaves():
    # the memo of Expr.eval_grid holds roots: a root found there is
    # returned as it is, and a computed root is stored under its id()
    outer = sin(X) + Y
    xs = np.linspace(0.0, 1.0, 5)
    planted = np.full(5, 10.0)
    memo = {id(outer): planted}
    assert outer.eval_grid(xs, xs, memo) is planted
    memo = {}
    assert np.array_equal(outer.eval_grid(xs, xs, memo), np.sin(xs) + xs)
    assert memo[id(outer)] is outer.eval_grid(xs, xs, memo)
    assert np.array_equal(outer.eval_grid(xs, xs), np.sin(xs) + xs)


# ---------------------------------------------------------------------------
# the per-check root cache


def test_root_cache_reuses_roots_within_the_block_only():
    chart = torus_chart((12, 12))
    e = sin(X) * Y + Const(1.0)
    assert forms._ROOT_CACHE.get() is None
    with root_cache():
        [first] = evaluate_grid_many([e], chart)
        [again] = evaluate_grid_many([e * 2.0, e], chart)[1:]
        assert np.shares_memory(first, again)
        # another lattice of the same chart is another set of samples
        node = evaluate_grid(e, chart, "node")
        assert not np.shares_memory(first, node)
    assert forms._ROOT_CACHE.get() is None
    [fresh] = evaluate_grid_many([e], chart)
    assert not np.shares_memory(first, fresh)
    assert np.array_equal(first, fresh)


def test_root_cache_is_reset_when_the_block_raises():
    with pytest.raises(RuntimeError):
        with root_cache():
            raise RuntimeError("stage failed")
    assert forms._ROOT_CACHE.get() is None


def test_check_leaves_no_cache_behind():
    rng = np.random.default_rng(2024)
    chart = torus_chart((16, 16))
    _, _, theta = scrambled_instance(rng, chart)
    report = check_metrizability(theta)
    assert report.verdict.value == "Metric"
    assert forms._ROOT_CACHE.get() is None


# ---------------------------------------------------------------------------
# long expressions: no recursion anywhere on the grid path


def test_five_thousand_term_sum():
    text = " + ".join(["sin(x)"] * 5000)
    e = parse(text)
    chart = torus_chart((16, 16))
    values = evaluate_grid(e, chart)
    want = np.zeros(chart.grid)
    xs = chart.mesh()[0]
    for _ in range(5000):
        want = want + np.sin(xs)
    assert np.array_equal(values, want)
    assert sup_norm(e, chart) == float(np.max(np.abs(want)))
    assert to_source(e) == text
    built = sin(X)
    for _ in range(4999):
        built = built + sin(X)
    assert to_source(built) == text


def test_parse_shares_equal_subtrees():
    e = parse("sin(x)*sin(x) + sin(x)*sin(x)")
    assert isinstance(e, Add)
    assert e.left is e.right
    assert e.left.left is e.left.right
    # constants are keyed by their bits: a signed zero is not an unsigned one
    signed = parse("x/-0.0 + x/0.0")
    assert isinstance(signed.left, Div) and signed.left is not signed.right
    with np.errstate(divide="ignore"):
        values = signed.left.eval_grid(np.array([1.0]), np.array([1.0]))
    assert values[0] == -np.inf


# ---------------------------------------------------------------------------
# memory


def box_scramble_residual(rng, grid: int):
    """The compatibility residual a check evaluates last, on a gauge-scrambled
    skew connection over the box ``[-1.5, 1.5]^2`` built as the box benchmark
    builds its inputs: the residual of the metric recovered from the
    symmetrizer of the curvature."""
    chart = Chart((-1.5, 1.5), (-1.5, 1.5), grid=(grid, grid))
    w = OneForm(trig_poly(rng, amplitude=0.025) - Y * 0.5,
                trig_poly(rng, amplitude=0.025) + X * 0.5)
    theta = gauge_transform(skew_connection(w, chart), random_gauge(rng, chart))
    coeff = factor_curvature(curvature(theta), forms.TwoForm(Const(1.0)))
    metric = recover_metric(skew_symmetrizer(coeff.matrix, chart))
    residual = compatibility_residual(theta, metric)
    return chart, [e for row in residual for f in row for e in (f.p, f.q)]


def test_grid_evaluation_frees_intermediates():
    # the recursive walk with one id() memo peaked near 400 MB here
    chart, exprs = box_scramble_residual(np.random.default_rng(11), 128)
    tracemalloc.start()
    try:
        arrays = evaluate_grid_many(exprs, chart)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the residual vanishes: the recovered metric is parallel
    assert max(float(np.max(np.abs(a))) for a in arrays) < 1e-9
    assert peak < 100 * 2**20, f"peak {peak / 2**20:.0f} MB"
