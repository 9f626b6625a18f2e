"""Verdicts that must not depend on the grid.

A gauge scramble of a skew connection is metric by construction, on every
grid; the same scramble with a small non-metric term is not, on any grid.
The cases: the first 20 seed-2024 scrambles of the acceptance gate, whose
curvature floor holds on the 64^2 torus, rebound to finer grids; 40 seed-11
scrambles drawn with no curvature floor; and the first 8 seed-2024
scrambles with ``eps sin(y) dx`` added to ``theta_12`` and ``theta_21``.
Where mpmath is installed, a 40-digit oracle (``tests/oracle.py``) labels
the cases at seeded grid samples, at seeded points off the grid and at the
witness of every negative verdict.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest

from metriconn.connection import ConnectionMatrix, Tolerances
from metriconn.expr import Const, Y, sin
from metriconn.forms import OneForm
from metriconn.metrizability import Verdict, check_metrizability

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
    reports = [rebind_report(k, n) for k in range(20)]
    verdicts = [r.verdict for r in reports]
    assert not [v for v in verdicts if v in NEGATIVE], verdicts
    assert set(verdicts) <= {Verdict.METRIC, Verdict.INCONCLUSIVE}
    # P passes at every sample; an inconclusive verdict comes from the
    # compatibility check of the recovered metric
    assert max(r.max_parallel_residual for r in reports) <= 1e-8


def test_scrambles_without_a_curvature_floor_are_never_negative():
    verdicts = [check_metrizability(theta).verdict for theta in unfiltered()]
    assert not [v for v in verdicts if v in NEGATIVE], verdicts


@pytest.mark.parametrize("n", [64, 128])
@pytest.mark.parametrize("eps", EPSILONS)
def test_perturbed_scrambles_stay_negative(eps, n):
    verdicts = [perturbed_report(k, eps, n).verdict for k in range(8)]
    assert all(v in NEGATIVE for v in verdicts), verdicts


def test_failures_under_the_rounding_floor_are_inconclusive():
    # a tolerance far below float64 rounding: every sample fails, and none
    # of them is certified, so no sample may serve as a witness
    theta = seed_2024()[0]
    report = check_metrizability(theta, tolerances=Tolerances(skew=1e-17))
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
# the 40-digit oracle

def _points(rng, chart, count):
    """``count`` seeded grid samples and ``count`` seeded points off the
    grid."""
    xs, ys = chart.xs(), chart.ys()
    on = [(float(xs[i]), float(ys[j]))
          for i, j in zip(rng.integers(chart.nx, size=count), rng.integers(chart.ny, size=count))]
    return on + [tuple(map(float, p)) for p in rng.uniform(0.0, TAU, size=(count, 2))]


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
            assert rebind_report(k, n).verdict not in NEGATIVE


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
