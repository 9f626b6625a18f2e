import math

import numpy as np
import pytest

from metriconn.expr import Const, X, Y, cos, exp, sin
from metriconn.forms import Chart, OneForm, evaluate_grid, sup_norm
from metriconn.connection import (
    ConnectionMatrix,
    FrameChange,
    MetricField,
    compatibility_residual,
    curvature,
    gauge_transform,
    interpolate,
    residual_sup,
    trace_connection,
)
from metriconn.gallery import GALLERY, RiemannianMetric2D, levi_civita
from metriconn.volume_euler import (
    NotCompatible,
    compare_euler,
    euler_form,
    volume_criterion,
)

from helpers import (
    TAU,
    orthonormal_euler_gap,
    orthonormal_frame,
    scrambled_instance,
    skew_connection,
    symmetric_part_sup,
    torus_chart,
    zero_form,
)

ZERO = Const(0.0)
ONE = Const(1.0)


@pytest.fixture(scope="module")
def chart():
    return torus_chart()


@pytest.fixture(scope="module")
def torus(chart):
    z = zero_form()
    return ConnectionMatrix(((OneForm(ONE, ZERO), z), (z, z)), chart)


def test_volume_skew_connection(chart):
    theta = skew_connection(OneForm(sin(Y), X), chart)
    report = volume_criterion(theta)
    assert report.closed
    assert report.trace_curvature_max == 0.0
    assert np.max(np.abs(report.log_f)) == 0.0
    assert report.period_defects == (0.0, 0.0)


def test_volume_torus_loop_defect(torus, chart):
    report = volume_criterion(torus)
    assert report.closed
    xs = chart.xs("node")
    assert np.max(np.abs(report.log_f - xs[:, None])) <= 1e-9
    assert report.period_defects[0] == pytest.approx(TAU, abs=1e-9)
    assert report.period_defects[1] == pytest.approx(0.0, abs=1e-12)
    assert report.reconstruction_residual <= 1e-6


def test_volume_obstructed(chart):
    z = zero_form()
    theta = ConnectionMatrix(((OneForm(ZERO, X), z), (z, z)), chart)
    report = volume_criterion(theta)
    assert not report.closed
    assert report.trace_curvature_max == pytest.approx(1.0)
    assert report.log_f is None


def test_volume_nontrivial_closed_trace():
    chart = torus_chart()
    # trace = 2 sin(y) dy is closed with an explicit primitive -2 cos(y) + 2
    z = zero_form()
    w = OneForm(ZERO, sin(Y))
    theta = ConnectionMatrix(((w, z), (z, w)), chart)
    report = volume_criterion(theta)
    assert report.closed
    ys = chart.ys("node")
    expected = -2.0 * np.cos(ys) + 2.0
    assert np.max(np.abs(report.log_f - expected[None, :])) <= 1e-9
    assert report.period_defects == (0.0, pytest.approx(0.0, abs=1e-9))


def test_euler_zero_connection(chart):
    z = zero_form()
    theta = ConnectionMatrix(((z, z), (z, z)), chart)
    report = euler_form(theta, MetricField.identity())
    assert report.euler_number == 0.0
    assert sup_norm(report.euler_form, chart) == 0.0


def test_euler_sin_connection(chart):
    theta = skew_connection(OneForm(ZERO, sin(X)), chart)
    report = euler_form(theta, MetricField.identity())
    assert report.euler_number == pytest.approx(0.0, abs=1e-9)
    values = evaluate_grid(report.euler_form.r, chart)
    xs, _ = chart.mesh()
    assert np.max(np.abs(values - np.cos(xs) / TAU)) <= 1e-12


def test_euler_linear_coefficient_box():
    box = torus_chart(periodic=False)
    theta = skew_connection(OneForm(ZERO, X), box)
    report = euler_form(theta, MetricField.identity())
    assert report.euler_number == pytest.approx(TAU, abs=1e-6)


# diag(1, exp(3x)) on [0, 20] x [0, 1]: K = -2.25 and sqrt(det g) = exp(1.5 x)
STEEP_EULER = -1.5 * math.expm1(30.0) / (2.0 * math.pi)


def test_euler_takes_a_steep_positive_definite_metric():
    # sqrt(det g) = exp(1.5 x) spans 20 orders of magnitude; the form's
    # only guard is that g is positive definite, which it is everywhere
    chart = Chart((0.0, 20.0), (0.0, 1.0), grid=(64, 16))
    g = RiemannianMetric2D(MetricField.symmetric(ONE, ZERO, exp(X * 3.0)), chart)
    report = euler_form(levi_civita(g), g.metric)
    assert abs(report.euler_number / STEEP_EULER - 1.0) <= 1e-4


def test_euler_rejects_incompatible(torus):
    with pytest.raises(NotCompatible):
        euler_form(torus, MetricField.identity())


def test_compare_equal_connections(chart):
    theta = skew_connection(OneForm(ZERO, sin(X)), chart)
    assert compare_euler(theta, theta, MetricField.identity()) == 0.0


def test_compare_skew_perturbation(chart):
    theta1 = skew_connection(OneForm(ZERO, sin(X)), chart)
    theta2 = skew_connection(OneForm(cos(Y), sin(X)), chart)
    assert compare_euler(theta1, theta2, MetricField.identity()) <= 1e-9


def test_interpolation_sweep_stays_compatible(chart):
    theta1 = skew_connection(OneForm(ZERO, sin(X)), chart)
    theta2 = skew_connection(OneForm(cos(Y), sin(X) + Const(0.5) * cos(X)), chart)
    metric = MetricField.identity()
    numbers = []
    for t in (0.0, 0.25, 0.5, 0.75, 1.0):
        mixed = interpolate(theta1, theta2, t)
        assert symmetric_part_sup(mixed) <= 1e-10
        numbers.append(euler_form(mixed, metric).euler_number)
    spread = max(numbers) - min(numbers)
    assert spread <= 1e-6


def test_euler_form_rotation_gauge_invariance(chart):
    theta = skew_connection(OneForm(sin(Y), Const(1.5) + cos(X)), chart)
    omega12 = curvature(theta).entries[0][1].r
    phi = Const(0.8) * sin(X) + Const(0.3) * cos(Y)
    rotation = FrameChange(((cos(phi), sin(phi)), ((-sin(phi)), cos(phi))), chart)
    rotated = gauge_transform(theta, rotation)
    omega12_rot = curvature(rotated).entries[0][1].r
    scale = 1.0 + sup_norm(omega12, chart)
    assert sup_norm(omega12_rot - omega12, chart) <= 1e-9 * scale


def test_orthonormal_frame_trace_vanishes(chart):
    rng = np.random.default_rng(89)
    _, _, theta = scrambled_instance(rng, chart)
    from metriconn.metrizability import check_metrizability, Verdict
    report = check_metrizability(theta)
    assert report.verdict is Verdict.METRIC
    prime = gauge_transform(theta, FrameChange(orthonormal_frame(report.metric), chart))
    trace = trace_connection(prime)
    assert sup_norm(trace, chart) <= 1e-10 * (1.0 + theta.sup())


@pytest.mark.parametrize("name", ["semi_symmetric", "hyperbolic_band"])
def test_euler_form_matches_the_orthonormal_frame_on_the_gallery(name):
    entry = GALLERY[name]()
    report = euler_form(entry.connection, entry.metric)
    skew, gap = orthonormal_euler_gap(report, entry.connection, entry.metric)
    assert skew <= 1e-10
    assert gap <= 1e-12
    residual = compatibility_residual(entry.connection, entry.metric)
    assert report.compat_residual == residual_sup(residual, entry.connection.chart)


def test_compare_euler_takes_both_numbers_from_euler_form(chart, monkeypatch):
    # the benchmark counts Euler numbers by wrapping euler_form, and needs
    # both calls of compare_euler to go through it
    import metriconn.volume_euler as volume_euler
    numbers = []

    def counting(*args, **kwargs):
        report = euler_form(*args, **kwargs)
        numbers.append(report.euler_number)
        return report

    monkeypatch.setattr(volume_euler, "euler_form", counting)
    theta1 = skew_connection(OneForm(ZERO, sin(X) + X * 0.25), chart)
    theta2 = skew_connection(OneForm(cos(Y), sin(X)), chart)
    difference = volume_euler.compare_euler(theta1, theta2, MetricField.identity())
    assert len(numbers) == 2
    assert difference == abs(numbers[0] - numbers[1])
