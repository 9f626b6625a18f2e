"""Verdicts that must not depend on the grid.

A gauge scramble of a skew connection is metric by construction, on every
grid, and must be reported ``Metric``; the same scramble with a small
non-metric term is not, on any grid.
The cases: the first 20 seed-2024 scrambles of the acceptance gate, whose
curvature floor holds on the 64^2 torus, rebound to finer grids; 40 seed-11
scrambles drawn with no curvature floor; and the first 8 seed-2024
scrambles with ``eps sin(y) dx`` added to ``theta_12`` and ``theta_21``.
Where mpmath is installed, a 40-digit oracle (``tests/oracle.py``) labels
the cases at seeded grid samples, at seeded points off the grid and at the
witness of every negative verdict, and checks on the rebinds that the
reported metric is parallel by the identity behind the test of ``P``.
A connection with a nearly nilpotent curvature coefficient (``det U``
near its floor) is metric too.
"""

from __future__ import annotations

import functools
import io

import numpy as np
import pytest

from metriconn.cli import run
from metriconn import metrizability
from metriconn.connection import ConnectionMatrix
from metriconn.expr import Const, Y, sin
from metriconn.forms import OneForm
from metriconn.metrizability import Verdict, check_metrizability
from metriconn.specfile import load_spec

from helpers import TAU, random_safe_expr, scrambled_instance, torus_chart

NEGATIVE = (Verdict.NOT_METRIC_EIGEN, Verdict.NOT_METRIC_SKEW)
REBIND_GRIDS = (96, 128, 256)
EPSILONS = (1e-4, 1e-6)


@functools.lru_cache(maxsize=None)
def seed_2024() -> tuple:
    rng = np.random.default_rng(2024)
    chart = torus_chart()
    return tuple(scrambled_instance(rng, chart)[2] for _ in range(20))


@functools.lru_cache(maxsize=None)
def unfiltered() -> tuple:
    rng = np.random.default_rng(11)
    chart = torus_chart((128, 128))
    return tuple(scrambled_instance(rng, chart, min_curvature_ratio=0.0)[2]
                 for _ in range(40))


def perturbed(theta: ConnectionMatrix, eps: float) -> ConnectionMatrix:
    bump = OneForm(sin(Y) * eps, Const(0.0))
    (a, b), (c, d) = theta.entries
    return ConnectionMatrix(((a, b + bump), (c + bump, d)), theta.chart)


def rebound(theta: ConnectionMatrix, n: int) -> ConnectionMatrix:
    return ConnectionMatrix(theta.entries, theta.chart.with_grid(n, n))


@functools.lru_cache(maxsize=None)
def rebind_report(k: int, n: int):
    return check_metrizability(rebound(seed_2024()[k], n))


@functools.lru_cache(maxsize=None)
def perturbed_report(k: int, eps: float, n: int):
    return check_metrizability(rebound(perturbed(seed_2024()[k], eps), n))


@pytest.mark.parametrize("n", REBIND_GRIDS)
def test_seed_2024_rebinds_are_never_negative(n):
    # never negative, and never inconclusive either: P passes at every sample
    reports = [rebind_report(k, n) for k in range(20)]
    verdicts = [r.verdict for r in reports]
    assert set(verdicts) == {Verdict.METRIC}, verdicts
    assert max(r.max_parallel_residual for r in reports) <= 1e-8


def test_scrambles_without_a_curvature_floor_are_never_negative():
    # nor inconclusive
    verdicts = [check_metrizability(theta).verdict for theta in unfiltered()]
    assert set(verdicts) == {Verdict.METRIC}, verdicts


@pytest.mark.parametrize("n", [64, 128])
@pytest.mark.parametrize("eps", EPSILONS)
def test_perturbed_scrambles_stay_negative(eps, n):
    verdicts = [perturbed_report(k, eps, n).verdict for k in range(8)]
    assert all(v in NEGATIVE for v in verdicts), verdicts


def test_failures_under_the_rounding_floor_are_inconclusive(monkeypatch):
    # a tolerance far below float64 rounding: every sample fails, and none
    # of them is certified, so no sample may serve as a witness
    theta = seed_2024()[0]
    monkeypatch.setattr(metrizability, "PARALLEL_TOL", 1e-17)
    report = check_metrizability(theta)
    assert report.verdict is Verdict.INCONCLUSIVE
    assert report.witness is None
    assert report.tolerances["parallel"] == 1e-17
    assert report.max_parallel_residual > 1e-17
    assert report.notes[-1].endswith(
        "samples fail the parallel test, all of them among the 4096 samples "
        "whose rounding floor reaches the tolerance")


def test_a_defect_above_the_rounding_floor_is_a_witness():
    report = perturbed_report(0, 1e-6, 64)
    assert report.verdict is Verdict.NOT_METRIC_SKEW
    assert report.max_parallel_residual > report.tolerances["parallel"] == 1e-8


# ---------------------------------------------------------------------------
# a nearly nilpotent curvature coefficient

def nearly_nilpotent_spec(path, delta: float):
    """``theta = 0.37 x^2 M dy`` on ``[0.5, 1] x [0, 1]`` at 32^2, with
    ``M = [[0.7, 1.3], [-(0.49 + delta) / 1.3, -0.7]]`` and ``det M = delta``.
    Then ``U = 0.74 x M``, and the constant ``G0`` of ``M`` (negated, so
    that it is positive definite) is parallel: metric by construction."""
    m = ((0.7, 1.3), (-(0.49 + delta) / 1.3, -0.7))
    lines = ["[chart]", "x = 0.5 .. 1", "y = 0 .. 1", "grid = 32 32", "", "[connection]"]
    lines += [f"theta.{i + 1}.{j + 1}.dy = 0.37*{m[i][j]!r}*x^2"
              for i in range(2) for j in range(2)]
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.mark.parametrize("delta", [1e-8, 1e-9])
def test_a_nearly_nilpotent_curvature_is_metric(tmp_path, delta):
    spec = nearly_nilpotent_spec(tmp_path / "nilpotent.conn", delta)
    theta = load_spec(spec).require_connection()
    report = check_metrizability(theta)
    assert report.verdict is Verdict.METRIC, report.notes
    g = report.metric_grid()
    assert np.all(g[..., 0, 0] > 0.0)
    assert np.all(g[..., 0, 0] * g[..., 1, 1] - g[..., 0, 1] * g[..., 1, 0] > 0.0)
    assert run(["check", str(spec), "--json"], out=io.StringIO(), err=io.StringIO()) == 0
    oracle = pytest.importorskip("oracle")
    assert oracle.label(theta, _points(np.random.default_rng(23), theta.chart, 3)).metric()


# ---------------------------------------------------------------------------
# the 40-digit oracle

def _points(rng, chart, count):
    """``count`` seeded grid samples and ``count`` seeded points off the
    grid."""
    xs, ys = chart.xs(), chart.ys()
    on = [(float(xs[i]), float(ys[j]))
          for i, j in zip(rng.integers(chart.nx, size=count), rng.integers(chart.ny, size=count))]
    (x0, x1), (y0, y1) = chart.x_range, chart.y_range
    return on + [tuple(map(float, p)) for p in rng.uniform((x0, y0), (x1, y1), size=(count, 2))]


def test_oracle_agrees_with_float_evaluation():
    oracle = pytest.importorskip("oracle")
    rng = np.random.default_rng(5)
    for _ in range(40):
        e = random_safe_expr(rng)
        x, y = map(float, rng.uniform(-2.0, 2.0, 2))
        [value] = oracle.evaluate([e], x, y)
        assert float(value) == pytest.approx(e.eval(x, y), rel=1e-12, abs=1e-12)


def test_oracle_labels_the_rebinds_metric():
    oracle = pytest.importorskip("oracle")
    rng = np.random.default_rng(13)
    for k, theta in enumerate(seed_2024()):
        points = [p for n in REBIND_GRIDS
                  for p in _points(rng, rebound(theta, n).chart, 1)]
        label = oracle.label(theta, points)
        assert label.metric(), (k, label)
        for n in REBIND_GRIDS:
            assert rebind_report(k, n).verdict is Verdict.METRIC
        # the trace-shifted residual of the reported g = adj S equals
        # -sgn(b) P / det U^(3/2), so the test of P proves g parallel
        gap, size = oracle.parallel_identity_gap(theta, rebind_report(k, 256).metric, points)
        assert gap <= 1e-30 and size <= 1e-30, (k, gap, size)


def test_oracle_labels_the_scrambles_without_a_curvature_floor_metric():
    oracle = pytest.importorskip("oracle")
    rng = np.random.default_rng(19)
    for k, theta in enumerate(unfiltered()):
        label = oracle.label(theta, _points(rng, theta.chart, 1))
        assert label.metric(), (k, label)


@pytest.mark.parametrize("eps", EPSILONS)
def test_oracle_labels_the_perturbed_scrambles_not_metric_at_their_witnesses(eps):
    oracle = pytest.importorskip("oracle")
    rng = np.random.default_rng(17)
    for k in range(8):
        theta = perturbed(seed_2024()[k], eps)
        assert oracle.label(theta, _points(rng, theta.chart, 1)).not_metric()
        for n in (64, 128):
            report = perturbed_report(k, eps, n)
            assert report.verdict in NEGATIVE
            assert oracle.label(theta, [report.witness]).not_metric(), (k, n, report.witness)
