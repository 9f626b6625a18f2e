"""Grid evaluation on open meshes against the full meshes it replaced.

``forms`` hands the tape ``xs[:, None]`` and ``ys[None, :]``, so a node
that depends on one coordinate is computed on that axis alone.  Every
consumer must still give the bits it gave on full meshes, a sample outside
an expression's domain must be named at the same point, and a one-axis
root must stay one-axis inside the root cache.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext

import numpy as np
import pytest

from metriconn import forms
from metriconn.connection import trace_connection
from metriconn.expr import Const, DomainError, X, Y, cos, ln, sin
from metriconn.forms import (
    Chart,
    OneForm,
    TwoForm,
    evaluate_grid_many,
    generator_loop_integrals,
    integrate2,
    potential_on_grid,
    root_cache,
)
from metriconn.gallery import GALLERY
from metriconn.specfile import load_spec

from helpers import reference_eval_grid, scrambled_instance
from test_tape import SPECS, derived_exprs


def full_mesh_evaluate_on(exprs, xs, ys, known=None):
    """``forms._evaluate_on`` as it was before open meshes: the reference
    walk on full, contiguous meshes, each value broadcast to them, and a
    non-finite sample located on the full mesh."""
    shape = np.broadcast_shapes(np.shape(xs), np.shape(ys))
    xmesh = np.ascontiguousarray(np.broadcast_to(xs, shape), dtype=float)
    ymesh = np.ascontiguousarray(np.broadcast_to(ys, shape), dtype=float)
    memo: dict = {}
    out = []
    for e in exprs:
        with np.errstate(all="ignore"):
            arr = np.broadcast_to(np.asarray(reference_eval_grid(e, xmesh, ymesh, memo),
                                             dtype=float), shape)
        if not np.all(np.isfinite(arr)):
            idx = tuple(np.argwhere(~np.isfinite(arr))[0])
            e.eval(float(xmesh[idx]), float(ymesh[idx]))
            raise DomainError(float(xmesh[idx]), float(ymesh[idx]), e, "non-finite value")
        out.append(arr)
    return out


@contextmanager
def full_meshes(monkeypatch):
    """Within the block, ``forms`` evaluates as before open meshes: on full
    meshes, with the values handed to the quadratures as they are."""
    with monkeypatch.context() as patch:
        patch.setattr(forms, "_evaluate_on", full_mesh_evaluate_on)
        patch.setattr(forms, "_stored", lambda values: values)
        yield


def outcome(fn):
    """The value of ``fn()``, or the point, reason and node of its DomainError."""
    try:
        return fn()
    except DomainError as err:
        return ("DomainError", err.point, err.reason, str(err.node))


def bits(value):
    if isinstance(value, tuple) and value and value[0] == "DomainError":
        return value
    if isinstance(value, (list, tuple)):
        return [bits(v) for v in value]
    arr = np.asarray(value, dtype=float)
    return (arr.shape, np.ascontiguousarray(arr).view(np.uint64).tobytes())


def grid_outputs(exprs, forms_1, chart):
    """Everything ``forms`` computes from grid values of ``exprs`` and the
    1-forms ``forms_1``: both lattices, the root cache, quadrature,
    potentials (from the chart's basepoint and from one between the nodes)
    and generator loop integrals."""
    half = len(exprs) // 2

    def cached():
        with root_cache():
            first = evaluate_grid_many(exprs[:half], chart)
            return first + evaluate_grid_many(exprs, chart, "node") + evaluate_grid_many(
                exprs, chart)

    x0, x1 = chart.x_range
    y0, y1 = chart.y_range
    off_node = (x0 + 0.37 * (x1 - x0), y0 + 0.61 * (y1 - y0))
    return [
        outcome(lambda: evaluate_grid_many(exprs, chart)),
        outcome(lambda: evaluate_grid_many(exprs, chart, "node")),
        outcome(cached),
        [outcome(lambda e=e: integrate2(TwoForm(e), chart)) for e in exprs],
        [outcome(lambda a=a: potential_on_grid(a, chart)) for a in forms_1],
        [outcome(lambda a=a: potential_on_grid(a, chart, off_node)) for a in forms_1],
        [outcome(lambda a=a: generator_loop_integrals(a, chart)) for a in forms_1],
    ]


def assert_open_meshes_match_full_meshes(monkeypatch, exprs, forms_1, chart):
    got = bits(grid_outputs(exprs, forms_1, chart))
    with full_meshes(monkeypatch):
        want = bits(grid_outputs(exprs, forms_1, chart))
    assert got == want


def connection_forms(theta) -> list:
    return [form for row in theta.entries for form in row] + [trace_connection(theta)]


@pytest.mark.parametrize("path", SPECS, ids=lambda p: p.name)
def test_spec_files_give_the_full_mesh_bits(monkeypatch, path):
    spec = load_spec(path)
    exprs, forms_1 = [], []
    for theta in (spec.connection, spec.connection2):
        if theta is not None:
            exprs += derived_exprs(theta)
            forms_1 += connection_forms(theta)
    if spec.metric is not None:
        exprs += [e for row in spec.metric.entries for e in row]
    # the spec's own grid, and a smaller one with unequal axes
    for chart in (spec.chart, spec.chart.with_grid(12, 9)):
        assert_open_meshes_match_full_meshes(monkeypatch, exprs, forms_1, chart)


@pytest.mark.parametrize("name", sorted(GALLERY))
def test_gallery_entries_give_the_full_mesh_bits(monkeypatch, name):
    entry = GALLERY[name]()
    theta = entry.connection
    exprs = derived_exprs(theta)
    if entry.metric is not None:
        exprs += [e for row in entry.metric.entries for e in row]
    assert_open_meshes_match_full_meshes(monkeypatch, exprs, connection_forms(theta),
                                         theta.chart)


@pytest.mark.parametrize("seed", [7, 23])
def test_scrambled_instances_give_the_full_mesh_bits(monkeypatch, seed):
    chart = Chart((0.0, 2.0 * np.pi), (-1.0, 2.0), periodic_x=True, grid=(20, 14))
    theta0, _, theta = scrambled_instance(np.random.default_rng(seed), chart)
    exprs = derived_exprs(theta0) + derived_exprs(theta)
    assert_open_meshes_match_full_meshes(
        monkeypatch, exprs, connection_forms(theta0) + connection_forms(theta), chart)


def test_one_axis_and_constant_integrands_give_the_full_mesh_bits(monkeypatch):
    # a constant stays a stride-0 view for the BLAS reductions, as on full
    # meshes; a one-axis value is laid out in full first
    chart = Chart((0.0, 2.0 * np.pi), (0.5, 3.0), periodic_x=True, grid=(24, 18))
    exprs = [Const(0.7), sin(X) * 1.3 + 0.2, cos(Y) * Y, sin(X) * cos(Y), X * 0.0 + 2.5]
    forms_1 = [OneForm(Const(0.3), Const(-1.1)), OneForm(sin(X), cos(Y)),
               OneForm(cos(Y) * 2.0, sin(X) * 0.5), OneForm(sin(X) * Y, X * cos(Y))]
    assert_open_meshes_match_full_meshes(monkeypatch, exprs, forms_1, chart)


# ---------------------------------------------------------------------------
# located domain errors


@pytest.mark.parametrize("cached", [False, True], ids=["plain", "root cache"])
@pytest.mark.parametrize("axis", ["x", "y"])
def test_one_axis_domain_error_names_the_full_mesh_point(monkeypatch, axis, cached):
    chart = Chart((0.0, 1.0), (0.0, 1.0), grid=(16, 12))
    bad = ln(Const(0.5) - (X if axis == "x" else Y))
    exprs = [sin(X) * Y, bad]

    def errors():
        found = []
        with root_cache() if cached else nullcontext():
            for fn in (lambda: evaluate_grid_many(exprs, chart),
                       lambda: evaluate_grid_many(exprs, chart, "node"),
                       lambda: integrate2(TwoForm(bad), chart)):
                with pytest.raises(DomainError) as excinfo:
                    fn()
                err = excinfo.value
                found.append((err.point, err.reason, str(err.node)))
        return found

    got = errors()
    with full_meshes(monkeypatch):
        assert got == errors()
    # the first sample in row-major order where the argument is <= 0
    xs, ys = chart.xs(), chart.ys()
    first = (float(xs[8]), float(ys[0])) if axis == "x" else (float(xs[0]), float(ys[6]))
    assert got[0][:2] == (first, "ln of a non-positive value")


# ---------------------------------------------------------------------------
# shapes


def test_one_axis_roots_stay_one_axis_in_the_root_cache():
    chart = Chart((0.0, 1.0), (0.0, 2.0), grid=(16, 12))
    roots = [sin(X) * 2.0, cos(Y) + 1.0, sin(X) * Y, Const(3.0)]
    with root_cache():
        values = evaluate_grid_many(roots, chart)
        [(xs, ys, known)] = forms._ROOT_CACHE.get().values()
        kept = [np.shape(known[root._num]) for root in roots]
    assert (xs.shape, ys.shape) == ((16, 1), (1, 12))
    assert kept == [(16, 1), (1, 12), (16, 12), ()]
    for value in values:
        assert value.shape == (16, 12)
        assert not value.flags.writeable
    full_x, full_y = chart.mesh()
    assert np.array_equal(values[0], np.sin(full_x) * 2.0)
    assert np.array_equal(values[1], np.cos(full_y) + 1.0)
    assert np.array_equal(values[3], np.full((16, 12), 3.0))

