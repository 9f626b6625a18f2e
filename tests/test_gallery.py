import numpy as np
import pytest

from metriconn.expr import Const, X, exp
from metriconn.forms import OneForm, evaluate_grid, sup_norm
from metriconn.connection import (
    MetricField,
    compatibility_residual,
    curvature,
    interpolate,
    residual_sup,
    transport_metric_x,
)
from metriconn.metrizability import NotSPD, Verdict, check_metrizability
from metriconn.volume_euler import compare_euler, volume_criterion
from metriconn.gallery import (
    GALLERY,
    RiemannianMetric2D,
    hyperbolic_band_metric,
    levi_civita,
    semi_symmetric,
    torsion,
    torus_example,
)

from helpers import TAU, parallel_metric_residual, torus_chart, trig_poly

ZERO = Const(0.0)
ONE = Const(1.0)


@pytest.fixture(scope="module")
def torus():
    return torus_example()


def _identity_metric(chart):
    return RiemannianMetric2D(MetricField.identity(), chart)


def test_torus_curvature_exactly_zero(torus):
    omega = curvature(torus)
    assert all(getattr(f.r, "value", None) == 0.0 for row in omega.entries for f in row)


def test_torus_is_flat_with_exponential_metric(torus):
    report = check_metrizability(torus)
    assert report.verdict is Verdict.FLAT
    xs = torus.chart.xs("node")
    g11 = report.metric_samples[:, :, 0, 0]
    expected = np.exp(2.0 * xs)[:, None]
    assert np.max(np.abs(g11 / expected - 1.0)) <= 1e-4
    assert np.max(np.abs(report.metric_samples[:, :, 0, 1])) <= 1e-9


def test_torus_transport_growth(torus):
    # theta = [[dx, 0], [0, 0]]: dG11/dx = 2 G11, so one x-period of the
    # transport multiplies G11 by exp(4 pi) and leaves G22 alone
    g_end = transport_metric_x(torus, np.eye(2))
    assert g_end[0, 0] == pytest.approx(np.exp(4.0 * np.pi), rel=1e-10)
    assert g_end[1, 1] == pytest.approx(1.0, abs=1e-12)
    assert g_end[0, 1] == g_end[1, 0] == 0.0
    half = transport_metric_x(torus, 2.0 * np.eye(2), y=1.0, periods=0.5)
    assert half[0, 0] == pytest.approx(2.0 * np.exp(2.0 * np.pi), rel=1e-10)


def test_levi_civita_identity_metric():
    chart = torus_chart()
    theta = levi_civita(_identity_metric(chart))
    assert theta.sup() == 0.0


def test_levi_civita_band_closed_form():
    g = hyperbolic_band_metric()
    theta = levi_civita(g)
    chart = g.chart
    xs = chart.xs()
    # theta = [[0, -exp(2x) dy], [dy, dx]] in the coordinate frame
    assert sup_norm([theta.entries[0][0], OneForm(theta.entries[0][1].p, ZERO),
                     OneForm(theta.entries[1][0].p, ZERO)], chart) == 0.0
    q12 = evaluate_grid(theta.entries[0][1].q, chart)
    assert np.max(np.abs(q12 + np.exp(2.0 * xs)[:, None])) <= 1e-12
    assert np.max(np.abs(evaluate_grid(theta.entries[1][0].q, chart) - 1.0)) <= 1e-12
    assert np.max(np.abs(evaluate_grid(theta.entries[1][1].p, chart) - 1.0)) <= 1e-12
    assert sup_norm(theta.entries[1][1].q, chart) == 0.0
    assert residual_sup(compatibility_residual(theta, g.metric), chart) <= 1e-12


def test_levi_civita_conformal():
    chart = torus_chart()
    factor = exp(X * 0.2)
    g = RiemannianMetric2D.from_exprs(factor, ZERO, factor, chart)
    theta = levi_civita(g)
    assert residual_sup(compatibility_residual(theta, g.metric), chart) <= 1e-10
    field = torsion(theta)
    assert sup_norm([field.component(1, 1, 2), field.component(2, 1, 2)], chart) == 0.0


def test_levi_civita_rejects_indefinite():
    chart = torus_chart()
    g = RiemannianMetric2D.from_exprs(Const(-1.0), ZERO, ONE, chart)
    with pytest.raises(NotSPD):
        levi_civita(g)


def test_semi_symmetric_zero_oneform_is_levi_civita():
    g = hyperbolic_band_metric()
    base = levi_civita(g)
    shifted = semi_symmetric(g, OneForm(ZERO, ZERO))
    diff = [
        [shifted.entries[i][j] - base.entries[i][j] for j in range(2)]
        for i in range(2)
    ]
    assert sup_norm(diff, g.chart) == 0.0


def test_semi_symmetric_flat_metric_dy():
    chart = torus_chart()
    theta = semi_symmetric(_identity_metric(chart), OneForm(ZERO, ONE))
    target = {(0, 0): (0.0, 0.0), (0, 1): (1.0, 0.0), (1, 0): (-1.0, 0.0), (1, 1): (0.0, 0.0)}
    for (i, j), (p, q) in target.items():
        assert sup_norm(theta.entries[i][j].p - Const(p), chart) == 0.0
        assert sup_norm(theta.entries[i][j].q - Const(q), chart) == 0.0
    field = torsion(theta)
    assert sup_norm(field.component(1, 1, 2) - ONE, chart) == 0.0
    assert sup_norm(field.component(2, 1, 2), chart) == 0.0


def test_semi_symmetric_band_compatible_with_torsion():
    g = hyperbolic_band_metric()
    theta = semi_symmetric(g, OneForm(Const(0.3), ZERO))
    assert residual_sup(compatibility_residual(theta, g.metric), g.chart) <= 1e-10
    field = torsion(theta)
    assert sup_norm([field.component(1, 1, 2), field.component(2, 1, 2)], g.chart) > 0.1


def _random_spd_metric(rng, chart):
    g11 = Const(1.5) + trig_poly(rng, amplitude=0.15)
    g12 = trig_poly(rng, amplitude=0.1)
    g22 = Const(1.5) + trig_poly(rng, amplitude=0.15)
    return RiemannianMetric2D.from_exprs(g11, g12, g22, chart)


def _random_oneform(rng):
    return OneForm(trig_poly(rng, amplitude=0.3), trig_poly(rng, amplitude=0.3))


def test_torsion_formula_random_draws():
    rng = np.random.default_rng(97)
    chart = torus_chart()
    for _ in range(20):
        g = _random_spd_metric(rng, chart)
        u = _random_oneform(rng)
        theta = semi_symmetric(g, u)
        assert residual_sup(compatibility_residual(theta, g.metric), chart) <= 1e-10
        field = torsion(theta)
        # torsion is u_j d^k_i - u_i d^k_j: T^1_12 = u_2, T^2_12 = -u_1
        assert sup_norm(field.component(1, 1, 2) - u.q, chart) <= 1e-10
        assert sup_norm(field.component(2, 1, 2) + u.p, chart) <= 1e-10


def test_levi_civita_and_semi_symmetric_are_metric_equivalent():
    rng = np.random.default_rng(101)
    chart = torus_chart()
    g = _random_spd_metric(rng, chart)
    u = _random_oneform(rng)
    base = levi_civita(g)
    shifted = semi_symmetric(g, u)
    assert residual_sup(compatibility_residual(base, g.metric), chart) <= 1e-10
    assert residual_sup(compatibility_residual(shifted, g.metric), chart) <= 1e-10
    assert compare_euler(base, shifted, g.metric) <= 1e-6


def test_interpolated_torsion_is_affine():
    rng = np.random.default_rng(103)
    chart = torus_chart()
    g = _random_spd_metric(rng, chart)
    u = _random_oneform(rng)
    base = levi_civita(g)
    shifted = semi_symmetric(g, u)
    full = torsion(shifted)
    for t in (0.25, 0.6, 0.9):
        mixed_torsion = torsion(interpolate(base, shifted, t))
        for k in (1, 2):
            diff = mixed_torsion.component(k, 1, 2) - full.component(k, 1, 2) * t
            assert sup_norm(diff, chart) <= 1e-10


def test_gallery_entries_build():
    for name, builder in GALLERY.items():
        entry = builder()
        assert entry.name == name
        assert len(entry.connection.entries) == 2
        if entry.metric is not None:
            assert entry.metric.spd_witness(entry.connection.chart) is None


def test_torus_volume_defect(torus):
    report = volume_criterion(torus)
    assert report.closed
    assert report.period_defects[0] == pytest.approx(TAU, abs=1e-9)


def test_hyperbolic_band_connection_is_metric():
    g = hyperbolic_band_metric()
    theta = levi_civita(g)
    report = check_metrizability(theta)
    assert report.verdict is Verdict.METRIC
    # the recovered metric matches the defining one up to a constant factor
    samples = report.metric_grid()
    gm = g.metric
    from metriconn.forms import evaluate_grid_many
    ref = evaluate_grid_many(
        [gm.entries[0][0], gm.entries[0][1], gm.entries[1][1]], g.chart, "node")
    scale = samples[0, 0, 0, 0] / ref[0][0, 0]
    assert np.max(np.abs(samples[:, :, 0, 0] - scale * ref[0])) <= 1e-6 * scale
    assert np.max(np.abs(samples[:, :, 1, 1] - scale * ref[2])) <= 1e-4 * scale * np.max(ref[2])


def test_semi_symmetric_gallery_entry_is_metric():
    entry = GALLERY["semi_symmetric"]()
    report = check_metrizability(entry.connection)
    assert report.verdict is Verdict.METRIC
    assert parallel_metric_residual(entry.connection, report) <= 1e-8
