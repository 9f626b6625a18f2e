"""The lockstep RK4 parallel frame against the sweep it replaced
(``helpers.reference_flat_frame``), and the flat tolerance that
``check_metrizability`` hands to ``parallel_frame_flat``."""

import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from metriconn import connection
from metriconn.connection import (
    ConnectionMatrix,
    NotFlat,
    _coefficient_samples,
    _frame_residual,
    _mul,
    _sweep,
    _transport,
    parallel_frame_flat,
    transport_metric_x,
)
from metriconn.expr import Const, X
from metriconn.forms import _CENTRAL7, Chart, OneForm, _onesided_weights
from metriconn.gallery import torus_example
from metriconn.metrizability import Verdict, check_metrizability
from metriconn.specfile import load_spec

from helpers import (
    commuting_flat_connection,
    reference_flat_frame,
    reference_transport,
    scrambled_flat_connection,
    scrambled_instance,
    torus_chart,
    zero_form,
)

SPECS = Path(__file__).resolve().parent.parent / "specs"


def _cases():
    yield "gallery torus", torus_example(), None
    yield "specs/torus.conn", load_spec(SPECS / "torus.conn").connection, None
    yield "gauge scramble", scrambled_flat_connection(torus_chart()), None
    yield ("gauge scramble off-node basepoint", scrambled_flat_connection(torus_chart()),
           (1.3, 2.2))
    for n in (64, 128):
        for seed in (0, 1):
            rng = np.random.default_rng(seed)
            yield (f"commuting {n}^2 seed {seed}",
                   commuting_flat_connection(rng, torus_chart((n, n))), None)
    yield ("commuting 64^2 off-node basepoint",
           commuting_flat_connection(np.random.default_rng(2), torus_chart()), (0.7, 5.9))


CASES = list(_cases())


@pytest.mark.parametrize("name,theta,basepoint", CASES, ids=[c[0] for c in CASES])
def test_frame_matches_reference(name, theta, basepoint):
    values, metric, residual, defect = reference_flat_frame(theta, basepoint)
    frame = parallel_frame_flat(theta, basepoint)
    scale = float(np.max(np.abs(values)))
    assert np.max(np.abs(frame.values - values)) <= 1e-13 * scale
    # np.linalg.inv on B B^T, in the reference, rounds to about
    # eps * cond(B B^T) * |g| (1.75e-12 relative at a node with condition
    # 2.3e4 here); the closed form does not square the frame's condition
    node_scale = np.max(np.abs(metric), axis=(2, 3), keepdims=True)
    cond = np.linalg.cond(values @ np.swapaxes(values, 2, 3))[..., None, None]
    bound = 1e-12 * np.max(np.abs(metric)) + np.finfo(float).eps * cond * node_scale
    assert np.all(np.abs(frame.metric_samples() - metric) <= bound)
    assert frame.loop_defect() == pytest.approx(defect, rel=1e-9)
    # The residual is a difference of terms of size |B|/h that cancel to
    # about 1e-7, so a last-bit change in the frame moves it by about
    # eps * |B| / h on top of the relative bound.
    chart = theta.chart
    floor = np.finfo(float).eps * scale / min(chart.hx, chart.hy)
    assert abs(frame.residual_max - residual) <= 1e-9 * residual + floor

    report = check_metrizability(theta, basepoint=basepoint)
    assert report.verdict is Verdict.FLAT
    assert np.array_equal(report.metric_samples, frame.metric_samples())
    assert report.frame_residual == frame.residual_max
    assert report.loop_defect == frame.loop_defect()


def test_zero_connection_frame_is_exactly_identity():
    z = zero_form()
    theta = ConnectionMatrix(((z, z), (z, z)), torus_chart())
    frame = parallel_frame_flat(theta, (1.3, 2.2))
    assert np.array_equal(frame.values, np.broadcast_to(np.eye(2), frame.values.shape))
    assert np.array_equal(frame.metric_samples(), frame.values)
    assert frame.residual_max <= 1e-13
    assert frame.loop_defect() == 0.0


def test_flat_gate_takes_the_callers_tolerance():
    # curvature 5e-9 dx^dy: above the default flat tolerance, below ten times it
    chart = Chart((-1.0, 1.0), (-1.0, 1.0), grid=(32, 32))
    z = zero_form()
    theta = ConnectionMatrix(((z, OneForm(Const(0.0), X * 5e-9)), (z, z)), chart)
    with pytest.raises(NotFlat):
        parallel_frame_flat(theta)
    parallel_frame_flat(theta, tol=10.0)
    loose = check_metrizability(theta, tol=10.0)
    assert loose.verdict is Verdict.FLAT
    assert check_metrizability(theta).verdict is Verdict.NOT_METRIC_EIGEN


@pytest.mark.parametrize("basepoint", [(100.0, 100.0), (0.5, -1.5)])
def test_basepoint_outside_the_chart_is_rejected_on_every_path(basepoint):
    chart = Chart((-1.0, 1.0), (-1.0, 1.0), grid=(16, 16))
    z = zero_form()
    flat = ConnectionMatrix(((z, z), (z, z)), chart)
    skew = ConnectionMatrix(((z, OneForm(Const(0.0), X)), (OneForm(Const(0.0), -X), z)),
                            chart)
    for theta in (flat, skew):
        with pytest.raises(ValueError, match="outside the chart"):
            check_metrizability(theta, basepoint=basepoint)


# ---------------------------------------------------------------------------
# lockstep RK4 transport over several legs


def _bits(arr):
    return arr.shape, np.ascontiguousarray(arr).view(np.uint64).tobytes()


def _five_legs():
    # legs of different lengths, directions, steps, widths and starts on a
    # 48 x 64 chart periodic in x
    chart = Chart((0.0, 2.0 * np.pi), (-1.0, 2.0), periodic_x=True, grid=(48, 64))
    _, _, theta = scrambled_instance(np.random.default_rng(31), chart)
    p, q = theta.p_matrix(), theta.q_matrix()
    rng = np.random.default_rng(4)
    eye = np.eye(2)[:, :, None]
    return [
        (p, True, 0.0, chart.hx, chart.nx, [0.3], eye),
        (q, False, -1.0, chart.hy, chart.ny - 1, chart.xs("node")[::5],
         rng.uniform(-1.0, 1.0, (2, 2, 10))),
        (p, True, 4.0, -chart.hx, 17, [-0.2, 1.7], rng.uniform(-1.0, 1.0, (2, 2, 1))),
        (q, False, 0.37, 0.5 * chart.hy, 5, [1.0], eye),
        (p, True, 1.0, chart.hx, 0, [0.5, 0.6], eye),
    ]


def test_lockstep_legs_equal_single_leg_runs():
    # each leg gets the bits it gets alone
    legs = _five_legs()
    together = _transport(legs)
    assert len(together) == len(legs)
    for leg, got in zip(legs, together):
        [alone] = _transport([leg])
        assert got.shape == (leg[4] + 1, 2, 2, len(leg[5]))
        assert _bits(got) == _bits(alone)


def _lockstep_cases():
    legs = _five_legs()
    yield "five legs", legs
    for i, leg in enumerate(legs):
        yield f"leg {i} alone", [leg]
    # 512 lines sampling one coefficient that depends on y alone: the
    # samples broadcast across the lines without a copy
    chart = torus_chart((512, 512))
    theta = commuting_flat_connection(np.random.default_rng(9), chart)
    b0 = np.random.default_rng(10).uniform(-1.0, 1.0, (2, 2, 512))
    yield "512 uniform lines", [(theta.q_matrix(), False, 0.0, chart.hy, 40,
                                 chart.xs("node"), b0)]
    eye = np.eye(2)[:, :, None]
    yield "unequal steps", [
        (theta.p_matrix(), True, 0.0, chart.hx, 30, [0.1, 2.0], eye),
        (theta.q_matrix(), False, 1.0, 3.0 * chart.hy, 20, [0.4], eye),
        (theta.p_matrix(), True, 6.0, -0.7 * chart.hx, 25, [5.0, 0.0, 1.0], b0[..., :3]),
    ]


LOCKSTEP_CASES = list(_lockstep_cases())


@pytest.mark.parametrize("legs", [c[1] for c in LOCKSTEP_CASES],
                         ids=[c[0] for c in LOCKSTEP_CASES])
def test_transport_has_the_bits_of_the_reference_loop(legs):
    # the RK4 loop on buffers keeps every operation and its order
    got = _transport(legs)
    for out, expected in zip(got, reference_transport(legs), strict=True):
        assert _bits(out) == _bits(expected)


def test_metric_transport_has_the_bits_of_the_reference_loop():
    chart = torus_chart((48, 48))
    theta = scrambled_flat_connection(chart)
    g0 = np.array([[2.0, 0.3], [0.3, 1.0]])
    [frames] = reference_transport([(theta.p_matrix(), True, 0.0, 2.0 * np.pi / 96, 96,
                                     [0.0], np.eye(2)[:, :, None])])
    binv = np.linalg.inv(frames[-1, :, :, 0])
    expected = binv.T @ g0 @ binv
    assert _bits(transport_metric_x(theta, g0, steps=96)) == _bits(expected)


@pytest.mark.parametrize("basepoint", [None, (1.3, 0.4)])
def test_frame_loops_equal_single_leg_runs(basepoint):
    # the loops ride along with the frame's first gridline in one lockstep
    chart = Chart((0.0, 2.0 * np.pi), (0.0, 2.0 * np.pi), periodic_x=True, grid=(48, 64))
    theta = commuting_flat_connection(np.random.default_rng(6), chart)
    frame = parallel_frame_flat(theta, basepoint)
    xb, yb = frame.basepoint
    eye = np.eye(2)[:, :, None]
    [loop_x] = _transport([(theta.p_matrix(), True, xb, chart.hx, chart.nx, [yb], eye)])
    assert _bits(frame.loop_x) == _bits(loop_x[-1, ..., 0])
    assert frame.loop_y is None
    sweep, ridden = _sweep(theta, frame.basepoint)
    assert ridden == []
    assert _bits(frame.values) == _bits(np.moveaxis(sweep, (0, 1), (2, 3)))


# ---------------------------------------------------------------------------
# the frame on component planes against the formulas it replaced


def _matrix_product(a, b, out=None, prod=None):
    # the component product as it was written before the broadcast; it
    # writes into ``out`` when given, as ``_mul`` does in the RK4 loop
    product = a[:, :1] * b[:1] + a[:, 1:] * b[1:]
    if out is None:
        return product
    out[...] = product
    return out


def _one_sided_derivative(values, h, axis):
    # grid_derivative with a fresh array for every term
    field = np.moveaxis(values, axis, 0)
    n = field.shape[0]
    out = np.zeros_like(field)
    for k, c in enumerate(_CENTRAL7):
        if c != 0.0:
            out[3:n - 3] += c * field[k:n - 6 + k]
    for pos in range(3):
        out[pos] = np.tensordot(_onesided_weights(pos), field[:7], axes=(0, 0))
        out[n - 1 - pos] = np.tensordot(_onesided_weights(6 - pos), field[n - 7:], axes=(0, 0))
    return np.moveaxis(out / h, 0, axis)


def _frame_on_matrices(theta, basepoint, monkeypatch):
    """Frame values, residuals and metric computed on ``(nx, ny, 2, 2)``
    matrices, each node's matrix contiguous."""
    with monkeypatch.context() as patch:
        patch.setattr(connection, "_mul", _matrix_product)
        sweep, _ = _sweep(theta, basepoint)
    values = np.ascontiguousarray(np.moveaxis(sweep, (0, 1), (2, 3)))
    frames = np.moveaxis(values, (2, 3), (0, 1))
    chart = theta.chart
    xs, ys = chart.xs("node")[:, None], chart.ys("node")[None, :]
    residuals = [_one_sided_derivative(values, h, axis)
                 + np.moveaxis(_matrix_product(_coefficient_samples(coeffs, xs, ys), frames),
                               (0, 1), (2, 3))
                 for coeffs, h, axis in ((theta.p_matrix(), chart.hx, 0),
                                         (theta.q_matrix(), chart.hy, 1))]
    a, b = values[..., 0, 0], values[..., 0, 1]
    c, d = values[..., 1, 0], values[..., 1, 1]
    det2 = (a * d - b * c) ** 2
    metric = np.empty(values.shape)
    metric[..., 0, 0] = (c * c + d * d) / det2
    metric[..., 0, 1] = metric[..., 1, 0] = -(a * c + b * d) / det2
    metric[..., 1, 1] = (a * a + b * b) / det2
    return values, residuals, metric


@pytest.mark.parametrize("grid,basepoint", [((64, 64), None), ((37, 45), (1.3, 2.2))])
def test_frame_on_planes_equals_the_matrix_formulas(monkeypatch, grid, basepoint):
    theta = scrambled_flat_connection(torus_chart(grid))
    frame = parallel_frame_flat(theta, basepoint)
    values, residuals, metric = _frame_on_matrices(theta, frame.basepoint, monkeypatch)
    assert _bits(frame.values) == _bits(values)
    assert _bits(frame.metric_samples()) == _bits(metric)
    planes = np.moveaxis(frame.values, (2, 3), (0, 1))
    for axis, expected in enumerate(residuals):
        res = _frame_residual(theta, planes, axis)
        assert res.flags.c_contiguous
        assert _bits(np.moveaxis(res, (0, 1), (2, 3))) == _bits(expected)
    assert frame.residual_max == max(float(np.max(np.abs(r))) for r in residuals)


def test_component_product_makes_no_array_beyond_its_products():
    # a 512^2 frame's residual multiplies planes like these; a third array
    # for the sum raised the flat check's peak by one full frame
    rng = np.random.default_rng(8)
    a = rng.uniform(-1.0, 1.0, (2, 2, 256, 1))
    b = rng.uniform(-1.0, 1.0, (2, 2, 256, 256))
    tracemalloc.start()
    try:
        out = _mul(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert _bits(out) == _bits(_matrix_product(a, b))
    assert peak <= 2 * out.nbytes + 2**18


def test_flat_check_holds_few_frames():
    # a frame is 4 n^2 doubles; the check held 7.35 of them at its peak
    # when both residuals and their product temporaries were alive at once
    chart = torus_chart((256, 256))
    theta = commuting_flat_connection(np.random.default_rng(3), chart)
    tracemalloc.start()
    try:
        report = check_metrizability(theta)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.verdict is Verdict.FLAT
    assert peak <= 5.5 * (4 * 256 * 256 * 8)


def test_a_frame_that_overflows_is_an_error():
    # theta = -1000 I dx is flat; RK4 at this step size grows the frame past
    # the largest double, and the check reports it rather than a verdict
    c, z = OneForm(Const(-1000.0), Const(0.0)), zero_form()
    theta = ConnectionMatrix(((c, z), (z, c)), torus_chart((32, 32)))
    for check in (parallel_frame_flat, check_metrizability):
        with pytest.raises(ArithmeticError, match="RK4 transport overflowed"):
            check(theta)
