import numpy as np
import pytest

from metriconn.expr import Const, X, Y, cos, exp, sin
from metriconn.forms import Chart, OneForm, evaluate_grid_many, sup_norm
from metriconn.connection import (
    ChartMismatch,
    ConnectionMatrix,
    FrameChange,
    MetricField,
    NotFlat,
    compatibility_residual,
    curvature,
    gauge_transform,
    interpolate,
    parallel_frame_flat,
    residual_sup,
    trace_connection,
    trace_curvature,
    transport_metric_x,
    _frame_residual,
    _sweep,
)
from metriconn.forms import d1

from helpers import (
    TAU,
    random_gauge,
    random_skew_connection,
    scrambled_flat_connection,
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


@pytest.fixture(scope="module")
def skew_x(chart):
    return skew_connection(OneForm(ZERO, X), chart)


def _connection_difference_sup(a, b):
    diffs = [
        [a.entries[i][j] - b.entries[i][j] for j in range(2)]
        for i in range(2)
    ]
    return sup_norm(diffs, a.chart)


def test_curvature_of_zero(chart):
    z = zero_form()
    theta = ConnectionMatrix(((z, z), (z, z)), chart)
    assert curvature(theta).sup() == 0.0


def test_curvature_of_torus_connection(torus):
    # flat despite the nonzero entry: d(dx) = 0 and the wedge square vanishes
    omega = curvature(torus)
    assert all(getattr(f.r, "value", None) == 0.0 for row in omega.entries for f in row)


def test_curvature_hand_expansion(skew_x, chart):
    omega = curvature(skew_x)
    assert sup_norm(omega.entries[0][1].r - ONE, chart) == 0.0
    assert sup_norm(omega.entries[1][0].r + ONE, chart) == 0.0
    assert sup_norm([omega.entries[0][0], omega.entries[1][1]], chart) == 0.0


def test_gauge_by_identity(skew_x, chart):
    assert _connection_difference_sup(
        gauge_transform(skew_x, FrameChange.identity(chart)), skew_x) == 0.0


def test_gauge_of_zero_by_exp_stretch(chart, torus):
    z = zero_form()
    zero_conn = ConnectionMatrix(((z, z), (z, z)), chart)
    frame = FrameChange(((exp(X), ZERO), (ZERO, ONE)), chart)
    assert _connection_difference_sup(gauge_transform(zero_conn, frame), torus) <= 1e-12


def test_rotation_gauge_preserves_skewness(chart):
    theta = skew_connection(OneForm(sin(Y), Const(2.0) + cos(X)), chart)
    rotation = FrameChange(((cos(X), sin(X)), ((-sin(X)), cos(X))), chart)
    transformed = gauge_transform(theta, rotation)
    assert symmetric_part_sup(transformed) <= 1e-10


def test_gauge_equivariance_of_curvature(chart):
    rng = np.random.default_rng(41)
    for _ in range(5):
        theta = random_skew_connection(rng, chart)
        frame = random_gauge(rng, chart)
        lhs = curvature(gauge_transform(theta, frame))
        omega = curvature(theta)
        b = frame.entries
        det = b[0][0] * b[1][1] - b[0][1] * b[1][0]
        binv = ((b[1][1] / det, -(b[0][1]) / det), (-(b[1][0]) / det, b[0][0] / det))
        exprs = []
        for i in range(2):
            for j in range(2):
                conj = None
                for k in range(2):
                    for l in range(2):
                        term = binv[i][k] * omega.entries[k][l].r * b[l][j]
                        conj = term if conj is None else conj + term
                exprs.append(lhs.entries[i][j].r - conj)
        scale = 1.0 + omega.sup()
        assert sup_norm(exprs, chart) <= 1e-9 * scale


def test_trace_identity(chart):
    rng = np.random.default_rng(43)
    for _ in range(5):
        theta = random_skew_connection(rng, chart)
        frame = random_gauge(rng, chart)
        mixed = gauge_transform(theta, frame)
        lhs = trace_curvature(curvature(mixed))
        rhs = d1(trace_connection(mixed))
        assert sup_norm(lhs.r - rhs.r, chart) <= 1e-12 * (1.0 + sup_norm(lhs, chart))


def test_compatibility_identity_metric_skew(skew_x, chart):
    residual = compatibility_residual(skew_x, MetricField.identity())
    assert residual_sup(residual, chart) == 0.0


def test_compatibility_torus_exponential_metric(torus, chart):
    metric = MetricField.symmetric(exp(X * 2.0), ZERO, ONE)
    assert residual_sup(compatibility_residual(torus, metric), chart) <= 1e-12


def test_compatibility_torus_identity_fails(torus, chart):
    residual = compatibility_residual(torus, MetricField.identity())
    [entry] = evaluate_grid_many([residual[0][0].p], chart)
    assert np.max(np.abs(entry)) == pytest.approx(2.0)


def test_compatibility_covariant_under_gauge(chart):
    rng = np.random.default_rng(47)
    theta = random_skew_connection(rng, chart)
    frame = random_gauge(rng, chart)
    transformed = gauge_transform(theta, frame)
    b = frame.entries
    bt_b = [
        [
            sum_expr([b[k][i] * b[k][j] for k in range(2)])
            for j in range(2)
        ]
        for i in range(2)
    ]
    metric = MetricField.symmetric(bt_b[0][0], bt_b[0][1], bt_b[1][1])
    residual = compatibility_residual(transformed, metric)
    scale = 1.0 + sup_norm(metric.entries, chart)
    assert residual_sup(residual, chart) <= 1e-9 * scale


def sum_expr(items):
    acc = items[0]
    for item in items[1:]:
        acc = acc + item
    return acc


def test_parallel_frame_of_zero_connection(chart):
    z = zero_form()
    theta = ConnectionMatrix(((z, z), (z, z)), chart)
    frame = parallel_frame_flat(theta)
    assert np.max(np.abs(frame.values - np.eye(2))) == 0.0
    assert frame.loop_defect() == 0.0


def test_parallel_frame_torus(torus, chart):
    frame = parallel_frame_flat(torus, basepoint=(0.0, 0.0))
    xs = chart.xs("node")
    expected = np.exp(-xs)[:, None]
    assert np.max(np.abs(frame.values[:, :, 0, 0] - expected)) <= 1e-6
    assert np.max(np.abs(frame.values[:, :, 1, 1] - 1.0)) == 0.0
    assert frame.residual_max <= 1e-6


def test_parallel_frame_periodic_loop_defect(torus):
    frame = parallel_frame_flat(torus)
    assert frame.loop_x is not None
    assert frame.loop_x[0, 0] == pytest.approx(np.exp(-TAU), abs=1e-6)
    assert frame.loop_defect() > 0.9  # no global parallel frame


def test_parallel_frame_rejects_curved(skew_x):
    with pytest.raises(NotFlat):
        parallel_frame_flat(skew_x)


def _frame_gauge_sup(theta, frame):
    """``max |B^-1 (dB + theta B)|`` over the nodes, x and y parts: the
    connection ``theta`` in a sampled parallel frame ``B``, which vanishes
    exactly when the frame is parallel."""
    binv = np.linalg.inv(frame.values)
    planes = np.moveaxis(frame.values, (2, 3), (0, 1))
    return max(float(np.max(np.abs(binv @ np.ascontiguousarray(np.moveaxis(res, (0, 1), (2, 3))))))
               for res in (_frame_residual(theta, planes, axis) for axis in (0, 1)))


def test_flat_reconstruction_round_trip(torus):
    frame = parallel_frame_flat(torus)
    assert _frame_gauge_sup(torus, frame) <= 1e-6


def test_flat_round_trip_gauge_scrambled(chart):
    # a gauge of the zero connection is flat; its parallel frame undoes it
    theta = scrambled_flat_connection(chart)
    frame = parallel_frame_flat(theta)
    assert frame.residual_max <= 1e-6
    assert _frame_gauge_sup(theta, frame) <= 1e-6


def test_gauge_transform_takes_only_a_symbolic_frame(torus):
    with pytest.raises(TypeError, match="FrameChange"):
        gauge_transform(torus, parallel_frame_flat(torus))


@pytest.mark.parametrize("basepoint", [(0.0, 0.0), (1.3, 2.2)])
def test_parallel_frame_path_independent(chart, basepoint):
    # on a flat connection, sweeping y-first lands on the x-first frame
    theta = scrambled_flat_connection(chart)
    x_first, _ = _sweep(theta, basepoint, x_first=True)
    y_first, _ = _sweep(theta, basepoint, x_first=False)
    assert np.max(np.abs(x_first - y_first)) <= 1e-6


def test_transport_metric_growth(torus):
    g_end = transport_metric_x(torus, np.eye(2), steps=1024)
    assert g_end[0, 0] == pytest.approx(np.exp(4 * np.pi), rel=1e-6)
    assert g_end[1, 1] == pytest.approx(1.0, abs=1e-12)


def test_interpolate_endpoints(chart, skew_x):
    other = skew_connection(OneForm(sin(Y), ZERO), chart)
    assert _connection_difference_sup(interpolate(skew_x, other, 0.0), skew_x) == 0.0
    assert _connection_difference_sup(interpolate(skew_x, other, 1.0), other) == 0.0


def test_interpolate_preserves_skewness(chart, skew_x):
    other = skew_connection(OneForm(sin(Y), cos(X)), chart)
    mixed = interpolate(skew_x, other, 0.37)
    assert symmetric_part_sup(mixed) <= 1e-12


def test_interpolate_chart_mismatch(skew_x):
    other_chart = torus_chart(grid=(32, 32))
    other = skew_connection(OneForm(ZERO, X), other_chart)
    with pytest.raises(ChartMismatch):
        interpolate(skew_x, other, 0.5)


def test_gauge_rejects_singular_frame(chart, skew_x):
    from metriconn.connection import SingularFrame
    pivot = Const(float(chart.xs()[3]))
    frame = FrameChange(((X - pivot, ZERO), (ZERO, ONE)), chart)
    with pytest.raises(SingularFrame) as excinfo:
        gauge_transform(skew_x, frame)
    x, y = excinfo.value.point
    assert chart.contains(x, y)


def test_gauge_takes_a_steep_frame_with_a_positive_determinant():
    # det = exp(-3x) falls to 9.4e-27 at x = 20 but never vanishes: against
    # its own terms it is exact at every sample, though a test relative to
    # the chart's largest det rejected it near x = 9.2
    chart = Chart((0.0, 20.0), (0.0, 1.0), grid=(64, 16))
    z = OneForm(ZERO, ZERO)
    theta = ConnectionMatrix(((z, z), (z, z)), chart)
    frame = FrameChange(((ONE, ZERO), (ZERO, exp(X * -3.0))), chart)
    prime = gauge_transform(theta, frame)
    assert sup_norm(prime.entries[1][1].p + Const(3.0), chart) <= 1e-12
    assert sup_norm([prime.entries[1][1].q, prime.entries[0][0], prime.entries[0][1],
                     prime.entries[1][0]], chart) == 0.0
