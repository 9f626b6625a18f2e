"""Connection matrices over a chart: curvature, gauge transformation,
metric-compatibility residual, interpolation, and parallel frames for flat
connections.

A connection matrix is an ``m x m`` matrix of 1-forms over a chart.  Frame
changes come in two flavours: symbolic (:class:`FrameChange`, expression
entries) and sampled (:class:`ParallelFrame`, produced by ODE integration
along gridlines, since path-ordered integrals have no closed form in the
expression grammar).  :func:`gauge_transform` accepts both; the sampled
variant differentiates the frame with sixth-order finite differences and
returns a sampled connection.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .expr import Const, Expr, eval_grid_many
from .forms import (
    Chart,
    OneForm,
    TwoForm,
    d1,
    evaluate_grid_many,
    grid_derivative,
    sup_norm,
    wedge11,
)

__all__ = [
    "ConnectionMatrix", "CurvatureMatrix", "FrameChange", "MetricField",
    "ParallelFrame", "GridConnection",
    "ChartMismatch", "SingularFrame", "NotFlat",
    "curvature", "gauge_transform", "compatibility_residual",
    "parallel_frame_flat", "interpolate",
    "trace_connection", "trace_curvature", "residual_sup",
    "transport_metric_x", "FLATNESS_SCALE",
]

FLATNESS_SCALE = 1e-9


class ChartMismatch(ValueError):
    pass


class SingularFrame(ValueError):
    def __init__(self, point, determinant):
        super().__init__(f"frame is singular near {point} (det = {determinant:.3g})")
        self.point = point
        self.determinant = determinant


class NotFlat(ValueError):
    def __init__(self, point, magnitude, threshold):
        super().__init__(
            f"connection is not flat: |curvature| = {magnitude:.3g} at {point} "
            f"(threshold {threshold:.3g})"
        )
        self.point = point
        self.magnitude = magnitude
        self.threshold = threshold


def _as_matrix(entries):
    rows = tuple(tuple(row) for row in entries)
    m = len(rows)
    if any(len(row) != m for row in rows):
        raise ValueError("matrix entries must be square")
    return rows


@dataclass(frozen=True)
class ConnectionMatrix:
    """``m x m`` matrix of 1-forms over a chart."""

    entries: tuple
    chart: Chart

    def __post_init__(self):
        object.__setattr__(self, "entries", _as_matrix(self.entries))

    @property
    def m(self) -> int:
        return len(self.entries)

    def p_matrix(self):
        return tuple(tuple(e.p for e in row) for row in self.entries)

    def q_matrix(self):
        return tuple(tuple(e.q for e in row) for row in self.entries)

    @classmethod
    def from_coefficients(cls, p, q, chart: Chart) -> "ConnectionMatrix":
        rows = tuple(
            tuple(OneForm(pij, qij) for pij, qij in zip(prow, qrow))
            for prow, qrow in zip(p, q)
        )
        return cls(rows, chart)

    def sup(self) -> float:
        return sup_norm(self.entries, self.chart)


@dataclass(frozen=True)
class CurvatureMatrix:
    """``m x m`` matrix of 2-forms; transforms by conjugation under gauge."""

    entries: tuple
    chart: Chart

    def __post_init__(self):
        object.__setattr__(self, "entries", _as_matrix(self.entries))

    @property
    def m(self) -> int:
        return len(self.entries)

    def sup(self) -> float:
        return sup_norm(self.entries, self.chart)


@dataclass(frozen=True)
class FrameChange:
    """Pointwise matrix of a frame change, with expression entries."""

    entries: tuple
    chart: Chart

    def __post_init__(self):
        object.__setattr__(self, "entries", _as_matrix(self.entries))

    @property
    def m(self) -> int:
        return len(self.entries)

    @classmethod
    def identity(cls, chart: Chart, m: int = 2) -> "FrameChange":
        rows = tuple(
            tuple(Const(1.0) if i == j else Const(0.0) for j in range(m))
            for i in range(m)
        )
        return cls(rows, chart)


@dataclass(frozen=True)
class MetricField:
    """Symmetric matrix of expressions; positive definiteness is a grid-level
    property checked by :meth:`spd_witness`."""

    entries: tuple

    def __post_init__(self):
        object.__setattr__(self, "entries", _as_matrix(self.entries))

    @property
    def m(self) -> int:
        return len(self.entries)

    @classmethod
    def symmetric(cls, g11: Expr, g12: Expr, g22: Expr) -> "MetricField":
        return cls(((g11, g12), (g12, g22)))

    @classmethod
    def identity(cls, m: int = 2) -> "MetricField":
        rows = tuple(
            tuple(Const(1.0) if i == j else Const(0.0) for j in range(m))
            for i in range(m)
        )
        return cls(rows)

    def spd_witness(self, chart: Chart):
        """Return ``None`` if positive definite at every grid point, else the
        lexicographically first offending point."""
        (g11, g12), (_, g22) = self.entries
        a, b, c = evaluate_grid_many([g11, g12, g22], chart)
        det = a * c - b * b
        bad = (a <= 0.0) | (det <= 0.0)
        if bad.any():
            i, j = np.argwhere(bad)[0]
            return (float(chart.xs()[i]), float(chart.ys()[j]))
        return None


# ---------------------------------------------------------------------------
# expression-matrix helpers (2x2 for anything needing an inverse)


def _mat_mul(a, b):
    m = len(a)
    out = []
    for i in range(m):
        row = []
        for j in range(m):
            acc = a[i][0] * b[0][j]
            for k in range(1, m):
                acc = acc + a[i][k] * b[k][j]
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def _mat_transpose(a):
    m = len(a)
    return tuple(tuple(a[j][i] for j in range(m)) for i in range(m))


def _mat_diff(a, variable):
    return tuple(tuple(e.diff(variable) for e in row) for row in a)


def _det2(a) -> Expr:
    return a[0][0] * a[1][1] - a[0][1] * a[1][0]


def _inverse2(a):
    det = _det2(a)
    return (
        (a[1][1] / det, -a[0][1] / det),
        (-a[1][0] / det, a[0][0] / det),
    )


# ---------------------------------------------------------------------------
# core operations


def curvature(theta: ConnectionMatrix) -> CurvatureMatrix:
    """Curvature matrix: exterior derivative plus the wedge square of the
    connection matrix."""
    m = theta.m
    rows = []
    for i in range(m):
        row = []
        for j in range(m):
            acc = d1(theta.entries[i][j])
            for k in range(m):
                acc = acc + wedge11(theta.entries[i][k], theta.entries[k][j])
            row.append(acc)
        rows.append(tuple(row))
    return CurvatureMatrix(tuple(rows), theta.chart)


def trace_connection(theta: ConnectionMatrix) -> OneForm:
    acc = theta.entries[0][0]
    for i in range(1, theta.m):
        acc = acc + theta.entries[i][i]
    return acc


def trace_curvature(omega: CurvatureMatrix) -> TwoForm:
    acc = omega.entries[0][0]
    for i in range(1, omega.m):
        acc = acc + omega.entries[i][i]
    return acc


def _check_nonsingular(frame: FrameChange) -> None:
    if frame.m != 2:
        raise NotImplementedError("symbolic frame inversion is implemented for m = 2")
    chart = frame.chart
    [det] = evaluate_grid_many([_det2(frame.entries)], chart)
    scale = float(np.max(np.abs(det)))
    bad = np.abs(det) <= 1e-12 * (1.0 + scale)
    if bad.any():
        i, j = np.argwhere(bad)[0]
        point = (float(chart.xs()[i]), float(chart.ys()[j]))
        raise SingularFrame(point, float(det[i, j]))


def gauge_transform(theta: ConnectionMatrix, frame) -> "ConnectionMatrix | GridConnection":
    """Transform the connection matrix under a change of frame.

    For a symbolic :class:`FrameChange` ``B`` the result is the exact
    symbolic ``B^-1 dB + B^-1 theta B``.  For a sampled
    :class:`ParallelFrame` the derivative of the frame is taken by
    sixth-order finite differences and a :class:`GridConnection` is
    returned.
    """
    if isinstance(frame, ParallelFrame):
        return _gauge_transform_sampled(theta, frame)
    if theta.chart != frame.chart:
        raise ChartMismatch("connection and frame live on different charts")
    _check_nonsingular(frame)
    b = frame.entries
    binv = _inverse2(b)
    new_p = _mat_mul(binv, _mat_diff(b, "x"))
    new_q = _mat_mul(binv, _mat_diff(b, "y"))
    conj_p = _mat_mul(binv, _mat_mul(theta.p_matrix(), b))
    conj_q = _mat_mul(binv, _mat_mul(theta.q_matrix(), b))
    m = theta.m
    rows = tuple(
        tuple(
            OneForm(new_p[i][j] + conj_p[i][j], new_q[i][j] + conj_q[i][j])
            for j in range(m)
        )
        for i in range(m)
    )
    return ConnectionMatrix(rows, theta.chart)


def compatibility_residual(theta: ConnectionMatrix, metric: MetricField):
    """Residual of the parallel-metric equation, ``dG - theta^T G - G theta``,
    as an ``m x m`` matrix of 1-forms.  Zero on the sampled set exactly when
    the metric is parallel for the connection there."""
    m = theta.m
    if metric.m != m:
        raise ChartMismatch("metric and connection sizes differ")
    g = metric.entries
    rows = []
    for i in range(m):
        row = []
        for j in range(m):
            p_acc = g[i][j].diff("x")
            q_acc = g[i][j].diff("y")
            for k in range(m):
                th_ki = theta.entries[k][i]
                th_kj = theta.entries[k][j]
                p_acc = p_acc - (th_ki.p * g[k][j] + g[i][k] * th_kj.p)
                q_acc = q_acc - (th_ki.q * g[k][j] + g[i][k] * th_kj.q)
            row.append(OneForm(p_acc, q_acc))
        rows.append(tuple(row))
    return tuple(rows)


def residual_sup(residual, chart: Chart) -> float:
    """Max absolute coefficient of a matrix of 1-forms over the grid."""
    return sup_norm(residual, chart)


def interpolate(theta: ConnectionMatrix, psi: ConnectionMatrix, t: float) -> ConnectionMatrix:
    """Entrywise affine combination ``(1 - t) theta + t psi``.

    Skewness is preserved for every ``t`` when both inputs are skew.
    """
    if theta.chart != psi.chart:
        raise ChartMismatch("cannot interpolate connections on different charts")
    if theta.m != psi.m:
        raise ChartMismatch("cannot interpolate connections of different sizes")
    s = Const(1.0 - float(t))
    u = Const(float(t))
    rows = tuple(
        tuple(a.scaled(s) + b.scaled(u) for a, b in zip(row_a, row_b))
        for row_a, row_b in zip(theta.entries, psi.entries)
    )
    return ConnectionMatrix(rows, theta.chart)


# ---------------------------------------------------------------------------
# parallel frames for flat connections


@dataclass(frozen=True)
class ParallelFrame:
    """Grid-sampled frame ``B`` with ``dB = -theta B`` and ``B = I`` at the
    basepoint, stored on the node lattice.

    ``loop_x`` / ``loop_y`` hold the transport matrices around the periodic
    generators (``None`` on non-periodic axes); a loop matrix away from the
    identity signals that no global parallel frame exists.
    """

    chart: Chart
    basepoint: tuple[float, float]
    values: np.ndarray
    residual_max: float
    sweep_discrepancy: float
    loop_x: np.ndarray | None
    loop_y: np.ndarray | None

    @property
    def m(self) -> int:
        return self.values.shape[2]

    def loop_defect(self) -> float:
        defect = 0.0
        for loop in (self.loop_x, self.loop_y):
            if loop is not None:
                defect = max(defect, float(np.max(np.abs(loop - np.eye(self.m)))))
        return defect

    def metric_samples(self) -> np.ndarray:
        """The parallel metric ``(B B^T)^-1`` at every node."""
        bbt = self.values @ np.swapaxes(self.values, 2, 3)
        return np.linalg.inv(bbt)


@dataclass(frozen=True)
class GridConnection:
    """Connection coefficients sampled on the node lattice: ``p``/``q`` hold
    the dx/dy coefficient matrices, shape ``(nx, ny, m, m)``."""

    p: np.ndarray
    q: np.ndarray
    chart: Chart

    def max_abs(self) -> float:
        return float(max(np.max(np.abs(self.p)), np.max(np.abs(self.q))))


# RK4 substeps per node interval.  A single step per interval leaves the
# accumulated error at the same magnitude as the 1e-6 frame-residual budget
# for unit-size coefficients on a 2pi/64 grid; two substeps buy a 16x margin.
RK4_SUBSTEPS = 2


def _rk4_step(mat_a, mat_b, mat_c, b, h):
    # one RK4 step of B' = M(t) B given M at t, t + h/2, t + h
    k1 = mat_a @ b
    k2 = mat_b @ (b + (h / 2.0) * k1)
    k3 = mat_b @ (b + (h / 2.0) * k2)
    k4 = mat_c @ (b + h * k3)
    return b + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _coefficient_samples(coeffs, xmesh, ymesh):
    """Evaluate an Expr matrix on meshes, stacked as (*mesh.shape, m, m)."""
    m = len(coeffs)
    with np.errstate(all="ignore"):
        raws = eval_grid_many([coeffs[i][j] for i in range(m) for j in range(m)],
                              xmesh, ymesh)
    rows = [
        [np.broadcast_to(np.asarray(raws[i * m + j], dtype=float), xmesh.shape)
         for j in range(m)]
        for i in range(m)
    ]
    out = np.stack([np.stack(r, axis=-1) for r in rows], axis=-2)
    if not np.all(np.isfinite(out)):
        raise ArithmeticError("connection coefficients are not finite on the sweep path")
    return out


def _transport_line(coeffs, fixed, fixed_is_y, t0, t1, steps, b0):
    """Transport B' = -theta_axis B along one axis-aligned segment."""
    if t0 == t1 or steps == 0:
        return b0
    steps = steps * RK4_SUBSTEPS
    ts = np.linspace(t0, t1, 2 * steps + 1)
    if fixed_is_y:
        mats = -_coefficient_samples(coeffs, ts, np.full_like(ts, fixed))
    else:
        mats = -_coefficient_samples(coeffs, np.full_like(ts, fixed), ts)
    h = (t1 - t0) / steps
    b = b0
    for k in range(steps):
        b = _rk4_step(mats[2 * k], mats[2 * k + 1], mats[2 * k + 2], b, h)
    return b


def _line_sweep(coeffs, fixed, fixed_is_y, nodes, h, b_start):
    """Advance frames node-to-node along one gridline, starting from
    ``b_start`` at ``nodes[0]``."""
    n = len(nodes)
    out = np.empty((n,) + b_start.shape)
    out[0] = b_start
    if n == 1:
        return out
    sub = RK4_SUBSTEPS
    ts = np.linspace(nodes[0], nodes[-1], 2 * sub * (n - 1) + 1)
    if fixed_is_y:
        mats = -_coefficient_samples(coeffs, ts, np.full_like(ts, fixed))
    else:
        mats = -_coefficient_samples(coeffs, np.full_like(ts, fixed), ts)
    hs = h / sub
    b = b_start
    for i in range(n - 1):
        for s in range(sub):
            k = 2 * (i * sub + s)
            b = _rk4_step(mats[k], mats[k + 1], mats[k + 2], b, hs)
        out[i + 1] = b
    return out


def _batched_sweep(coeffs, along_y: bool, xs, ys, h, init):
    """Advance a whole batch of gridlines in lockstep along one axis.

    With ``along_y`` the batch is the rows ``init[i] = B(x_i, ys[0])`` and
    columns advance together; otherwise the roles are exchanged.
    """
    sub = RK4_SUBSTEPS
    hs = h / sub
    if along_y:
        n = len(ys)
        half = np.linspace(ys[0], ys[-1], 2 * sub * (n - 1) + 1)
        xmesh, ymesh = np.meshgrid(xs, half, indexing="ij")
        mats = -_coefficient_samples(coeffs, xmesh, ymesh)  # (nx, samples, m, m)
        out = np.empty((len(xs), n) + init.shape[1:])
        out[:, 0] = init
        cur = init
        for j in range(n - 1):
            for s in range(sub):
                k = 2 * (j * sub + s)
                cur = _rk4_step(mats[:, k], mats[:, k + 1], mats[:, k + 2], cur, hs)
            out[:, j + 1] = cur
        return out
    n = len(xs)
    half = np.linspace(xs[0], xs[-1], 2 * sub * (n - 1) + 1)
    xmesh, ymesh = np.meshgrid(half, ys, indexing="ij")
    mats = -_coefficient_samples(coeffs, xmesh, ymesh)  # (samples, ny, m, m)
    out = np.empty((n, len(ys)) + init.shape[1:])
    out[0] = init
    cur = init
    for i in range(n - 1):
        for s in range(sub):
            k = 2 * (i * sub + s)
            cur = _rk4_step(mats[k], mats[k + 1], mats[k + 2], cur, hs)
        out[i + 1] = cur
    return out


def _sweep(theta: ConnectionMatrix, basepoint, x_first: bool) -> np.ndarray:
    chart = theta.chart
    m = theta.m
    xb, yb = basepoint
    p = theta.p_matrix()
    q = theta.q_matrix()
    xs = chart.xs("node")
    ys = chart.ys("node")
    eye = np.eye(m)

    if x_first:
        # basepoint -> first node column, along the row y = yb, then columns
        steps0 = max(1, int(np.ceil(abs(xs[0] - xb) / chart.hx))) if xs[0] != xb else 0
        start = _transport_line(p, yb, True, xb, xs[0], steps0, eye)
        row = _line_sweep(p, yb, True, xs, chart.hx, start)  # (nx, m, m)
        stepsv = max(1, int(np.ceil(abs(ys[0] - yb) / chart.hy))) if ys[0] != yb else 0
        if stepsv:
            stepsv *= RK4_SUBSTEPS
            ts = np.linspace(yb, ys[0], 2 * stepsv + 1)
            xmesh, ymesh = np.meshgrid(xs, ts, indexing="ij")
            mats = -_coefficient_samples(q, xmesh, ymesh)
            h = (ys[0] - yb) / stepsv
            for k in range(stepsv):
                row = _rk4_step(mats[:, 2 * k], mats[:, 2 * k + 1], mats[:, 2 * k + 2], row, h)
        return _batched_sweep(q, True, xs, ys, chart.hy, row)

    steps0 = max(1, int(np.ceil(abs(ys[0] - yb) / chart.hy))) if ys[0] != yb else 0
    start = _transport_line(q, xb, False, yb, ys[0], steps0, eye)
    col = _line_sweep(q, xb, False, ys, chart.hy, start)  # (ny, m, m)
    stepsh = max(1, int(np.ceil(abs(xs[0] - xb) / chart.hx))) if xs[0] != xb else 0
    if stepsh:
        stepsh *= RK4_SUBSTEPS
        ts = np.linspace(xb, xs[0], 2 * stepsh + 1)
        xmesh, ymesh = np.meshgrid(ts, ys, indexing="ij")
        mats = -_coefficient_samples(p, xmesh, ymesh)
        h = (xs[0] - xb) / stepsh
        for k in range(stepsh):
            col = _rk4_step(mats[2 * k], mats[2 * k + 1], mats[2 * k + 2], col, h)
    return _batched_sweep(p, False, xs, ys, chart.hx, col)


def parallel_frame_flat(theta: ConnectionMatrix, basepoint=None) -> ParallelFrame:
    """Construct a parallel frame for a flat connection by fourth-order ODE
    integration along the x-gridline through the basepoint, then along
    y-gridlines.

    Requires the curvature to vanish on the grid (scaled threshold);
    raises :class:`NotFlat` otherwise.  The returned frame satisfies
    ``B(basepoint) = I`` and ``dB = -theta B`` up to the reported residual.
    A y-first sweep is run as a cross-check and the maximum discrepancy
    reported; on periodic charts the loop transports around the generators
    are recorded as well.
    """
    chart = theta.chart
    if basepoint is None:
        basepoint = chart.basepoint
    xb, yb = float(basepoint[0]), float(basepoint[1])
    if not chart.contains(xb, yb):
        raise ValueError(f"basepoint {basepoint} lies outside the chart")

    omega = curvature(theta)
    scale = 1.0 + theta.sup()
    threshold = FLATNESS_SCALE * scale
    mags = [np.abs(arr) for arr in evaluate_grid_many(
        [f.r for row in omega.entries for f in row], chart)]
    peak = np.maximum.reduce(mags)
    if float(np.max(peak)) > threshold:
        i, j = np.argwhere(peak > threshold)[0]
        point = (float(chart.xs()[i]), float(chart.ys()[j]))
        raise NotFlat(point, float(peak[i, j]), threshold)

    values = _sweep(theta, (xb, yb), x_first=True)
    cross = _sweep(theta, (xb, yb), x_first=False)
    discrepancy = float(np.max(np.abs(values - cross)))

    # residual dB + theta B at the nodes; the frame itself need not be
    # periodic even on a periodic chart, so one-sided stencils are used
    xmesh, ymesh = chart.mesh("node")
    theta_p = _coefficient_samples(theta.p_matrix(), xmesh, ymesh)
    theta_q = _coefficient_samples(theta.q_matrix(), xmesh, ymesh)
    res_x = grid_derivative(values, chart.hx, 0, periodic=False) + theta_p @ values
    res_y = grid_derivative(values, chart.hy, 1, periodic=False) + theta_q @ values
    residual = float(max(np.max(np.abs(res_x)), np.max(np.abs(res_y))))

    m = theta.m
    loop_x = loop_y = None
    if chart.periodic_x:
        length = chart.x_range[1] - chart.x_range[0]
        loop_x = _transport_line(theta.p_matrix(), yb, True, xb, xb + length,
                                 chart.nx, np.eye(m))
    if chart.periodic_y:
        length = chart.y_range[1] - chart.y_range[0]
        loop_y = _transport_line(theta.q_matrix(), xb, False, yb, yb + length,
                                 chart.ny, np.eye(m))

    return ParallelFrame(chart, (xb, yb), values, residual, discrepancy, loop_x, loop_y)


def _gauge_transform_sampled(theta: ConnectionMatrix, frame: ParallelFrame) -> GridConnection:
    if theta.chart != frame.chart:
        raise ChartMismatch("connection and frame live on different charts")
    chart = theta.chart
    b = frame.values
    binv = np.linalg.inv(b)
    xmesh, ymesh = chart.mesh("node")
    theta_p = _coefficient_samples(theta.p_matrix(), xmesh, ymesh)
    theta_q = _coefficient_samples(theta.q_matrix(), xmesh, ymesh)
    db_x = grid_derivative(b, chart.hx, 0, periodic=False)
    db_y = grid_derivative(b, chart.hy, 1, periodic=False)
    new_p = binv @ (db_x + theta_p @ b)
    new_q = binv @ (db_y + theta_q @ b)
    return GridConnection(new_p, new_q, chart)


def transport_metric_x(theta: ConnectionMatrix, g0: np.ndarray, y: float | None = None,
                       steps: int = 1024, periods: float = 1.0) -> np.ndarray:
    """Transport a metric along the x-direction through ``periods`` periods of
    the chart by solving ``dG/dx = theta_x^T G + G theta_x`` with RK4.

    Returns the transported matrix.  ``steps`` controls the RK4 resolution
    independently of the chart grid.
    """
    chart = theta.chart
    if y is None:
        y = chart.y_range[0]
    x0 = chart.x_range[0]
    length = (chart.x_range[1] - x0) * float(periods)
    ts = np.linspace(x0, x0 + length, 2 * steps + 1)
    mats = _coefficient_samples(theta.p_matrix(), ts, np.full_like(ts, y))
    h = length / steps
    g = np.array(g0, dtype=float)

    def rhs(mat, gv):
        return mat.T @ gv + gv @ mat

    for k in range(steps):
        m1, m2, m3 = mats[2 * k], mats[2 * k + 1], mats[2 * k + 2]
        k1 = rhs(m1, g)
        k2 = rhs(m2, g + (h / 2.0) * k1)
        k3 = rhs(m2, g + (h / 2.0) * k2)
        k4 = rhs(m3, g + h * k3)
        g = g + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return g
