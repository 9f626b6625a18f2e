"""Connection matrices over a chart: curvature, gauge transformation,
metric-compatibility residual, interpolation, and parallel frames for flat
connections.

The bundle has rank 2, the whole scope of the decision: a connection matrix
is a 2x2 matrix of 1-forms over a chart, and every matrix type rejects any
other shape.  A frame change (:class:`FrameChange`) has expression entries,
and :func:`gauge_transform` applies it symbolically.  A parallel frame of a
flat connection (:class:`ParallelFrame`) is sampled instead, by ODE
integration along gridlines, since path-ordered integrals have no closed
form in the expression grammar; its node residual ``dB + theta B`` is
measured by sixth-order finite differences.
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
    "ParallelFrame",
    "ChartMismatch", "SingularFrame", "NotFlat",
    "curvature", "gauge_transform", "compatibility_residual",
    "parallel_frame_flat", "interpolate",
    "trace_connection", "trace_curvature", "residual_sup",
    "transport_metric_x",
]


# The base tolerances.  The public entry points take one scale ``tol``
# (default 1); each applies ``BASE * tol``, and every report echoes the
# tolerances it applied.
FLAT_TOL = 1e-9          # scaled by 1 + sup|theta|
EIGEN_TRACE_TOL = 1e-8   # scaled pointwise by max|U|
EIGEN_DET_TOL = 1e-10    # scaled pointwise by max|U|^2
PARALLEL_TOL = 1e-8      # bounds |P| / scale at each sample (parallel test)
COMPAT_TOL = 1e-8        # euler/compare; scaled by metric/connection magnitudes


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


@dataclass(frozen=True)
class _SquareMatrix:
    """The 2x2 entries shared by the matrix types below, stored as a tuple
    of row tuples; the bundle has rank 2, so any other shape is a
    ValueError."""

    entries: tuple

    def __post_init__(self):
        rows = tuple(tuple(row) for row in self.entries)
        if len(rows) != 2 or any(len(row) != 2 for row in rows):
            raise ValueError("matrix entries must be 2x2")
        object.__setattr__(self, "entries", rows)


def _identity() -> tuple:
    return ((Const(1.0), Const(0.0)), (Const(0.0), Const(1.0)))


@dataclass(frozen=True)
class ConnectionMatrix(_SquareMatrix):
    """2x2 matrix of 1-forms over a chart."""

    chart: Chart

    def p_matrix(self):
        return tuple(tuple(e.p for e in row) for row in self.entries)

    def q_matrix(self):
        return tuple(tuple(e.q for e in row) for row in self.entries)

    def sup(self) -> float:
        return sup_norm(self.entries, self.chart)


@dataclass(frozen=True)
class CurvatureMatrix(_SquareMatrix):
    """2x2 matrix of 2-forms; transforms by conjugation under gauge."""

    chart: Chart

    def sup(self) -> float:
        return sup_norm(self.entries, self.chart)


@dataclass(frozen=True)
class FrameChange(_SquareMatrix):
    """Pointwise matrix of a frame change, with expression entries."""

    chart: Chart

    @classmethod
    def identity(cls, chart: Chart) -> "FrameChange":
        return cls(_identity(), chart)


@dataclass(frozen=True)
class MetricField(_SquareMatrix):
    """Symmetric matrix of expressions; positive definiteness is a grid-level
    property checked by :meth:`spd_witness`."""

    @classmethod
    def symmetric(cls, g11: Expr, g12: Expr, g22: Expr) -> "MetricField":
        return cls(((g11, g12), (g12, g22)))

    @classmethod
    def identity(cls) -> "MetricField":
        return cls(_identity())

    def spd_witness(self, chart: Chart):
        """Return ``None`` if positive definite at every grid point, else the
        lexicographically first offending point."""
        bad, _ = _not_spd(self.entries, chart)
        return chart.first_point(bad) if bad.any() else None


def _not_spd(entries, chart: Chart):
    """The samples where the symmetric 2x2 matrix of expressions
    ``entries`` is not positive definite (``a11 <= 0`` or ``det <= 0``), as
    a mask, and its determinant at every sample."""
    a, b, c = evaluate_grid_many([entries[0][0], entries[0][1], entries[1][1]], chart)
    det = a * c - b * b
    return (a <= 0.0) | (det <= 0.0), det


# ---------------------------------------------------------------------------
# 2x2 expression-matrix helpers


def _mat_mul(a, b):
    return tuple(tuple(a[i][0] * b[0][j] + a[i][1] * b[1][j] for j in range(2))
                 for i in range(2))


def _mat_diff(a, variable):
    return tuple(tuple(e.diff(variable) for e in row) for row in a)


def _det2(a) -> Expr:
    return a[0][0] * a[1][1] - a[0][1] * a[1][0]


# ---------------------------------------------------------------------------
# core operations


def curvature(theta: ConnectionMatrix) -> CurvatureMatrix:
    """Curvature matrix: exterior derivative plus the wedge square of the
    connection matrix."""
    t = theta.entries
    return CurvatureMatrix(
        tuple(tuple(d1(t[i][j]) + wedge11(t[i][0], t[0][j]) + wedge11(t[i][1], t[1][j])
                    for j in range(2))
              for i in range(2)),
        theta.chart)


def trace_connection(theta: ConnectionMatrix) -> OneForm:
    return theta.entries[0][0] + theta.entries[1][1]


def trace_curvature(omega: CurvatureMatrix) -> TwoForm:
    return omega.entries[0][0] + omega.entries[1][1]


def _vanishing(expr: Expr, chart: Chart):
    """The samples of ``expr`` on the chart's grid, and the mask of those
    that vanish: ``|v| <= 1e-12 (1 + max |v|)``."""
    [values] = evaluate_grid_many([expr], chart)
    magnitude = np.abs(values)
    return values, magnitude <= 1e-12 * (1.0 + float(np.max(magnitude)))


def gauge_transform(theta: ConnectionMatrix, frame: FrameChange) -> ConnectionMatrix:
    """Transform the connection matrix under a symbolic change of frame
    ``B``: the result is the exact symbolic ``B^-1 dB + B^-1 theta B``.

    Only a :class:`FrameChange` is accepted; any other frame, a sampled
    :class:`ParallelFrame` included, is a TypeError.  Raises
    :class:`SingularFrame` if ``det B`` vanishes at a grid sample, that is,
    if it is within ``1e-12`` of the scale ``|b11 b22| + |b12 b21|`` of its
    terms there, so a determinant that is small but sure of its sign passes.
    """
    if not isinstance(frame, FrameChange):
        raise TypeError(f"gauge_transform takes a FrameChange, not {type(frame).__name__}")
    if theta.chart != frame.chart:
        raise ChartMismatch("connection and frame live on different charts")
    b, chart = frame.entries, frame.chart
    diagonal, anti = b[0][0] * b[1][1], b[0][1] * b[1][0]
    det = diagonal - anti
    values, diag_values, anti_values = evaluate_grid_many([det, diagonal, anti], chart)
    bad = np.abs(values) <= 1e-12 * (np.abs(diag_values) + np.abs(anti_values))
    if bad.any():
        raise SingularFrame(chart.first_point(bad), float(values[bad][0]))
    binv = (
        (b[1][1] / det, -b[0][1] / det),
        (-b[1][0] / det, b[0][0] / det),
    )
    new_p = _mat_mul(binv, _mat_diff(b, "x"))
    new_q = _mat_mul(binv, _mat_diff(b, "y"))
    conj_p = _mat_mul(binv, _mat_mul(theta.p_matrix(), b))
    conj_q = _mat_mul(binv, _mat_mul(theta.q_matrix(), b))
    rows = tuple(
        tuple(
            OneForm(new_p[i][j] + conj_p[i][j], new_q[i][j] + conj_q[i][j])
            for j in range(2)
        )
        for i in range(2)
    )
    return ConnectionMatrix(rows, theta.chart)


def compatibility_residual(theta: ConnectionMatrix, metric: MetricField):
    """Residual of the parallel-metric equation, ``dG - theta^T G - G theta``,
    as a 2x2 matrix of 1-forms.  Zero on the sampled set exactly when the
    metric is parallel for the connection there."""
    t, g = theta.entries, metric.entries
    rows = []
    for i in range(2):
        row = []
        for j in range(2):
            p = g[i][j].diff("x")
            q = g[i][j].diff("y")
            for k in range(2):
                p = p - (t[k][i].p * g[k][j] + g[i][k] * t[k][j].p)
                q = q - (t[k][i].q * g[k][j] + g[i][k] * t[k][j].q)
            row.append(OneForm(p, q))
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
    basepoint, stored on the node lattice as ``values[i, j] = B(x_i, y_j)``
    (:func:`parallel_frame_flat` gives a view of contiguous component
    planes, ``values[..., k, l]`` being the plane of entry ``(k, l)``).

    ``residual_max`` is the largest node residual of ``dB + theta B`` under
    sixth-order finite differences.  ``loop_x`` / ``loop_y`` hold the
    transport matrices around the periodic generators (``None`` on
    non-periodic axes); a loop matrix away from the identity signals that no
    global parallel frame exists.
    """

    chart: Chart
    basepoint: tuple[float, float]
    values: np.ndarray
    residual_max: float
    loop_x: np.ndarray | None
    loop_y: np.ndarray | None

    def loop_defect(self) -> float:
        defect = 0.0
        for loop in (self.loop_x, self.loop_y):
            if loop is not None:
                defect = max(defect, float(np.max(np.abs(loop - np.eye(2)))))
        return defect

    def metric_samples(self) -> np.ndarray:
        """The parallel metric ``(B B^T)^-1 = B^-T B^-1`` at every node, in
        the 2x2 closed form, computed on component planes: the result is
        an ``(nx, ny, 2, 2)`` view of contiguous ``(2, 2, nx, ny)`` planes."""
        a, b = self.values[..., 0, 0], self.values[..., 0, 1]
        c, d = self.values[..., 1, 0], self.values[..., 1, 1]
        det = a * d - b * c
        det2 = det * det
        out = np.empty((2, 2) + self.values.shape[:2])
        out[0, 0] = (c * c + d * d) / det2
        out[0, 1] = out[1, 0] = -(a * c + b * d) / det2
        out[1, 1] = (a * a + b * b) / det2
        return np.moveaxis(out, (0, 1), (2, 3))


# RK4 substeps per node interval.  A single step per interval leaves the
# accumulated error at the same magnitude as the 1e-6 frame-residual budget
# for unit-size coefficients on a 2pi/64 grid; two substeps buy a 16x margin.
RK4_SUBSTEPS = 2


def _coefficient_samples(coeffs, xs, ys) -> np.ndarray:
    """Sample a 2x2 Expr matrix on open meshes ``xs``, ``ys``, arrays that
    broadcast against each other such as ``xs[:, None]`` and ``ys[None, :]``.

    Returns shape ``(2, 2, *s)``, where ``s`` is the broadcast of the
    entries' own value shapes: an entry that depends on one axis is computed
    on that axis alone, and ``s`` is only as large as the entries need.
    """
    with np.errstate(all="ignore"):
        raws = [np.asarray(raw, dtype=float) for raw in
                eval_grid_many([e for row in coeffs for e in row], xs, ys)]
    shape = np.broadcast(*raws, np.empty((1,) * max(np.ndim(xs), np.ndim(ys)))).shape
    out = np.stack([np.broadcast_to(raw, shape) for raw in raws]).reshape((2, 2) + shape)
    if not np.all(np.isfinite(out)):
        raise ArithmeticError("connection coefficients are not finite on the sweep path")
    return out


def _mul(a, b, out=None, prod=None):
    """2x2 matrix product of component arrays: entry ``[i, j]`` of an
    operand is an array over its batch, so the product is elementwise.
    The four products ``a[i, k] b[k, j]`` are one broadcast into ``prod``,
    summed over ``k`` in one add into ``out``.  Either buffer is made when
    not given; without ``out`` the result is a view of the products."""
    prod = np.multiply(a[:, :, None], b, out=prod)
    return np.add(prod[:, 0], prod[:, 1], out=prod[:, 0] if out is None else out)


def _transport(legs) -> list:
    """Advance parallel frames along several legs of gridlines in lockstep.

    A leg is ``(coeffs, along_x, t0, h, intervals, fixed, b0)``: it solves
    ``B' = -M(t) B`` with classical RK4, ``RK4_SUBSTEPS`` steps per node
    interval, where ``M`` is the Expr matrix ``coeffs`` (the dx
    coefficients when ``along_x``, else the dy ones).  Line ``l`` of the
    leg lies at ``fixed[l]`` on the other axis and runs from ``t0`` through
    ``intervals`` node intervals of signed length ``h``.  Frames are
    component arrays of shape ``(2, 2, len(fixed))``, starting from ``b0``;
    the result of the leg holds them at every node, shape
    ``(intervals + 1, 2, 2, len(fixed))``.  One result per leg, in order.

    All lines of all legs take one RK4 step together.  Each leg keeps its
    own samples ``linspace(t0, t0 + intervals * h)`` and its own step, held
    per line, so each line gets the bits a run of its leg alone gives.  A
    leg with fewer steps repeats its last sample, and the frames of its
    extra steps are discarded.  A single leg steps on the broadcast samples
    without copying them.
    """
    legs = list(legs)
    widths = [len(leg[5]) for leg in legs]
    edges = np.cumsum([0] + widths)
    longest = max(leg[4] for leg in legs)
    out = np.empty((longest + 1, 2, 2, edges[-1]))
    for (*_, b0), lo, hi in zip(legs, edges, edges[1:]):
        out[0, :, :, lo:hi] = b0
    if longest:
        steps = longest * RK4_SUBSTEPS
        samples, hs = [], []
        for (coeffs, along_x, t0, h, intervals, fixed, _), width in zip(legs, widths):
            ts = np.linspace(t0, t0 + intervals * h, 2 * intervals * RK4_SUBSTEPS + 1)[:, None]
            line = np.asarray(fixed, dtype=float)[None, :]
            mats = _coefficient_samples(coeffs, *((ts, line) if along_x else (line, ts)))
            mats = np.broadcast_to(mats, (2, 2, ts.size, width))
            if ts.size < 2 * steps + 1:
                mats = mats[:, :, np.minimum(np.arange(2 * steps + 1), ts.size - 1)]
            samples.append(mats)
            hs.append(np.full(width, -h / RK4_SUBSTEPS))
        mats = samples[0] if len(legs) == 1 else np.concatenate(samples, axis=-1)
        # RK4 on B' = M B with the step negated: every stage only flips sign,
        # exactly, so this is RK4 on B' = -M B without negating the samples
        hs = np.concatenate(hs)
        half, sixth = hs / 2.0, hs / 6.0
        # buffers for every step, in the order b + sixth * (k1 + 2.0 * k2 + ...)
        b = out[0].copy()
        k1, k2, k3, k4, stage, acc = (np.empty_like(b) for _ in range(6))
        prod = np.empty((2,) + b.shape)
        for s in range(steps):
            start, mid, end = mats[:, :, 2 * s], mats[:, :, 2 * s + 1], mats[:, :, 2 * s + 2]
            _mul(start, b, k1, prod)
            _mul(mid, np.add(b, np.multiply(half, k1, out=stage), out=stage), k2, prod)
            _mul(mid, np.add(b, np.multiply(half, k2, out=stage), out=stage), k3, prod)
            _mul(end, np.add(b, np.multiply(hs, k3, out=stage), out=stage), k4, prod)
            np.add(k1, np.multiply(2.0, k2, out=acc), out=acc)
            np.add(acc, np.multiply(2.0, k3, out=stage), out=acc)
            np.add(acc, k4, out=acc)
            np.add(b, np.multiply(sixth, acc, out=acc), out=b)
            if (s + 1) % RK4_SUBSTEPS == 0:
                out[(s + 1) // RK4_SUBSTEPS] = b
    return [out[:leg[4] + 1, :, :, lo:hi] for leg, lo, hi in zip(legs, edges, edges[1:])]


def _transport_to(coeffs, along_x: bool, t0: float, t1: float, h: float, fixed, b0):
    """Frames at ``t1``, transported from ``b0`` at ``t0`` through node
    intervals no longer than ``h``."""
    intervals = 0 if t0 == t1 else max(1, int(np.ceil(abs(t1 - t0) / h)))
    [out] = _transport([(coeffs, along_x, t0, (t1 - t0) / max(intervals, 1), intervals,
                         fixed, b0)])
    return out[-1]


def _sweep(theta: ConnectionMatrix, basepoint, x_first: bool = True, riders=()):
    """Parallel frame at every node as contiguous component planes, shape
    ``(2, 2, nx, ny)``: transport from the basepoint to the first node of its
    gridline on the first axis and along that gridline, then move the whole
    line to the first node of the second axis and sweep every gridline of
    the second axis in lockstep.

    The legs ``riders`` (see :func:`_transport`) run in lockstep with the
    gridline on the first axis; their results follow the frame:
    ``(frame, rider_results)``.
    """
    chart = theta.chart
    first = (theta.p_matrix(), True, chart.xs("node"), chart.hx, basepoint[0])
    second = (theta.q_matrix(), False, chart.ys("node"), chart.hy, basepoint[1])
    if not x_first:
        first, second = second, first
    (c1, along1, nodes1, h1, b1), (c2, along2, nodes2, h2, b2) = first, second
    start = _transport_to(c1, along1, b1, nodes1[0], h1, [b2], np.eye(2)[:, :, None])
    line, *ridden = _transport([(c1, along1, nodes1[0], h1, len(nodes1) - 1, [b2], start),
                                *riders])
    line = np.moveaxis(line[..., 0], 0, -1)
    line = _transport_to(c2, along2, b2, nodes2[0], h2, nodes1, line)
    [grid] = _transport([(c2, along2, nodes2[0], h2, len(nodes2) - 1, nodes1, line)])
    planes = np.empty((2, 2, chart.nx, chart.ny))
    # ``grid`` leads with the sweep's node; a copy in blocks of 64 nodes is
    # about five times faster than node by node or all at once (512^2)
    target = np.moveaxis(planes, 3 if x_first else 2, 0)
    for lo in range(0, len(grid), 64):
        target[lo:lo + 64] = grid[lo:lo + 64]
    return planes, ridden


def _curvature_peak(omega: CurvatureMatrix, theta_sup: float, tol: float):
    """Sample the curvature ``omega`` of a connection ``theta`` for the flat
    test.

    Returns the curvature coefficients on the grid (row-major), their
    pointwise peak ``max_ij |Omega_ij|`` and the flat threshold
    ``FLAT_TOL * tol * (1 + sup|theta|)``, given ``theta_sup = sup|theta|``.
    """
    arrays = evaluate_grid_many([f.r for row in omega.entries for f in row], omega.chart)
    peak = np.abs(arrays[0])
    scratch = np.empty_like(peak)
    for arr in arrays[1:]:
        np.maximum(peak, np.abs(arr, out=scratch), out=peak)
    return arrays, peak, FLAT_TOL * tol * (1.0 + theta_sup)


def parallel_frame_flat(theta: ConnectionMatrix, basepoint=None, *,
                        tol: float = 1.0) -> ParallelFrame:
    """Construct a parallel frame for a flat rank-2 connection by RK4
    integration along the x-gridline through the basepoint, then along all
    y-gridlines in lockstep.

    Requires the curvature to vanish on the grid, to within
    ``FLAT_TOL * tol`` scaled by ``1 + sup|theta|``; raises
    :class:`NotFlat` otherwise.  The returned frame satisfies
    ``B(basepoint) = I`` and ``dB = -theta B`` up to the reported node
    residual; on periodic charts the loop transports around the generators
    are recorded as well.  A frame or residual that is not finite (the
    transport overflowed on this grid) raises ArithmeticError.
    """
    chart = theta.chart
    basepoint = chart.point(basepoint)
    _, peak, threshold = _curvature_peak(curvature(theta), theta.sup(), tol)
    curved = peak > threshold
    if curved.any():
        raise NotFlat(chart.first_point(curved), float(peak[curved][0]), threshold)
    return _parallel_frame(theta, basepoint)


def _parallel_frame(theta: ConnectionMatrix, basepoint) -> ParallelFrame:
    """The parallel frame of :func:`parallel_frame_flat`, for a connection
    already known to be flat and a basepoint in the chart."""
    chart = theta.chart
    xb, yb = basepoint
    # the transports around the periodic generators ride with the frame's
    # first gridline
    eye = np.eye(2)[:, :, None]
    loops = {}
    if chart.periodic_x:
        loops["x"] = (theta.p_matrix(), True, xb, chart.hx, chart.nx, [yb], eye)
    if chart.periodic_y:
        loops["y"] = (theta.q_matrix(), False, yb, chart.hy, chart.ny, [xb], eye)
    with np.errstate(over="ignore", invalid="ignore"):   # reported just below
        planes, looped = _sweep(theta, basepoint, riders=list(loops.values()))
        # one residual alive at a time: each is reduced as soon as it is made
        peaks = [_abs_max(_frame_residual(theta, planes, axis)) for axis in (0, 1)]
    if not (np.all(np.isfinite(planes)) and np.all(np.isfinite(peaks))):
        raise ArithmeticError("the parallel frame is not finite on the grid: "
                              "RK4 transport overflowed")
    ends = {axis: out[-1, ..., 0] for axis, out in zip(loops, looped)}
    return ParallelFrame(chart, basepoint, np.moveaxis(planes, (0, 1), (2, 3)), max(peaks),
                         ends.get("x"), ends.get("y"))


def _abs_max(arr: np.ndarray) -> float:
    """``max |arr|``, taking the absolute values in place; NaN if any
    entry is NaN."""
    return float(np.max(np.abs(arr, out=arr)))


def _frame_residual(theta: ConnectionMatrix, planes: np.ndarray, axis: int) -> np.ndarray:
    """``dB + theta B`` at the nodes, the x part (``axis`` 0) or the y part
    (1), for a frame given as component planes of shape ``(2, 2, nx, ny)``;
    the residual has that shape, and is contiguous when ``planes`` is.  The
    product ``theta B`` is formed one entry at a time through a buffer of
    two planes.  The frame need not be periodic even on a periodic chart,
    so one-sided stencils are used."""
    chart = theta.chart
    xs, ys = chart.xs("node")[:, None], chart.ys("node")[None, :]
    coeffs, h = (theta.p_matrix(), chart.hx) if axis == 0 else (theta.q_matrix(), chart.hy)
    res = grid_derivative(planes, h, axis + 2)
    samples = _coefficient_samples(coeffs, xs, ys)
    prod = np.empty((1, 2, 1) + planes.shape[2:])
    for i in range(2):
        for j in range(2):
            res[i, j] += _mul(samples[i:i + 1], planes[:, j:j + 1], prod=prod)[0, 0]
    return res


def transport_metric_x(theta: ConnectionMatrix, g0: np.ndarray, y: float | None = None,
                       steps: int = 1024, periods: float = 1.0) -> np.ndarray:
    """Transport a metric ``g0`` from the chart's left edge along the x-line
    at ``y`` (default: the bottom edge) through ``periods`` periods of the
    chart, solving ``dG/dx = theta_x^T G + G theta_x``.  A parallel metric
    makes a parallel frame ``B`` orthonormal, so this is ``B^-T g0 B^-1`` for
    the frame that the RK4 driver of :func:`parallel_frame_flat` carries from
    ``B = I`` through ``steps`` node intervals of ``RK4_SUBSTEPS`` RK4 steps
    each, whatever the chart grid.
    """
    chart = theta.chart
    if y is None:
        y = chart.y_range[0]
    x0 = chart.x_range[0]
    length = (chart.x_range[1] - x0) * float(periods)
    [frames] = _transport([(theta.p_matrix(), True, x0, length / steps, steps, [y],
                            np.eye(2)[:, :, None])])
    binv = np.linalg.inv(frames[-1, :, :, 0])
    return binv.T @ np.asarray(g0, dtype=float) @ binv
