"""Volume-form criterion and Euler-form integrals.

A connection preserves a local volume form exactly when the trace of its
curvature vanishes; the volume factor then solves ``d(log f) = tr theta``,
which is integrated along gridlines from the basepoint.  On periodic charts
the loop integrals of ``tr theta`` around the generators are reported: a
nonzero loop defect obstructs any global volume form (and hence any global
parallel metric).

For a connection compatible with a metric ``g``, the matrix ``g Omega`` is
skew, and its Pfaffian ``(g Omega)_12 / (2 pi sqrt(det g))`` is the Euler
2-form in any frame (Chern-Weil); it is formed in the given frame, with no
orthonormal frame.  Its integral is the Euler number used to compare
metric-equivalent connections.

:func:`volume_criterion`, :func:`euler_form` and :func:`compare_euler`
each run in one root cache (:func:`~metriconn.forms.root_cache`), which
keeps the grid arrays of the roots evaluated on a chart lattice by their
value numbers, so a later stage of the call takes them as they are.  A
call inside another joins its cache, so the two Euler forms of
:func:`compare_euler` share the grid arrays of their metric.
:func:`euler_form` evaluates the roots of its guards (the metric entries,
the compatibility residual and the connection) as one tape before the
first guard; on a chart periodic in both axes the Euler integrand joins
that tape, so it shares the arrays of the metric and the connection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .expr import Const, sqrt as expr_sqrt
from .forms import (
    Chart,
    TwoForm,
    evaluate_grid_many,
    generator_loop_integrals,
    grid_derivative,
    integrate2,
    potential_on_grid,
    prefetch,
    root_cache,
    sup_norm,
)
from .connection import (
    COMPAT_TOL,
    FLAT_TOL,
    ConnectionMatrix,
    MetricField,
    _det2,
    compatibility_residual,
    curvature,
    trace_connection,
    trace_curvature,
)

__all__ = [
    "VolumeReport", "EulerReport", "NotCompatible",
    "volume_criterion", "euler_form", "compare_euler",
]


class NotCompatible(ValueError):
    def __init__(self, label: str, residual: float, tolerance: float):
        super().__init__(
            f"{label} is not compatible with the metric: residual {residual:.3g} "
            f"exceeds tolerance {tolerance:.3g}")
        self.label = label
        self.residual = residual
        self.tolerance = tolerance


@dataclass(frozen=True)
class VolumeReport:
    """Outcome of the parallel-volume-form test.

    ``log_f`` is the node-lattice sample of the solution of
    ``d(log f) = tr theta`` when the trace curvature vanishes (``closed``),
    with ``log_f = 0`` at the basepoint.  ``period_defects`` holds the loop
    integrals of ``tr theta`` around the x- and y-generators (zero on
    non-periodic axes).
    """

    chart: Chart
    trace_curvature_max: float
    closed: bool
    log_f: np.ndarray | None
    period_defects: tuple[float, float]
    reconstruction_residual: float | None
    threshold: float


def volume_criterion(theta: ConnectionMatrix, *, tol: float = 1.0,
                     basepoint=None) -> VolumeReport:
    """Test whether the connection preserves a local volume form and, when it
    does, integrate ``tr theta`` from the basepoint to produce ``log f``.
    The trace curvature counts as zero up to ``FLAT_TOL * tol`` scaled by
    ``1 + sup|tr theta|``."""
    with root_cache():
        return _volume(theta, tol, basepoint)


def _volume(theta: ConnectionMatrix, tol: float, basepoint) -> VolumeReport:
    chart = theta.chart
    tr_theta = trace_connection(theta)
    tr_omega = trace_curvature(curvature(theta))
    prefetch([tr_omega, tr_theta], chart)
    [tr_curv] = evaluate_grid_many([tr_omega.r], chart)
    trace_max = float(np.max(np.abs(tr_curv)))
    scale = 1.0 + sup_norm(tr_theta, chart)
    threshold = FLAT_TOL * tol * scale
    closed = trace_max <= threshold
    defects = generator_loop_integrals(tr_theta, chart)

    log_f = None
    residual = None
    if closed:
        log_f = potential_on_grid(tr_theta, chart, basepoint)
        [p_vals, q_vals] = evaluate_grid_many([tr_theta.p, tr_theta.q], chart, "node")
        res_x = grid_derivative(log_f, chart.hx, 0) - p_vals
        res_y = grid_derivative(log_f, chart.hy, 1) - q_vals
        residual = float(max(np.max(np.abs(res_x)), np.max(np.abs(res_y))))

    return VolumeReport(chart, trace_max, closed, log_f, defects,
                        residual, threshold)


@dataclass(frozen=True)
class EulerReport:
    """Euler 2-form of a metric connection, the Pfaffian
    ``(g Omega)_12 / (2 pi sqrt(det g))`` in the given frame, its integral
    over the chart, and the compatibility residual ``sup|dg - theta^T g -
    g theta|`` that the connection passed."""

    euler_form: TwoForm
    euler_number: float
    compat_residual: float


def _require_compatible(theta: ConnectionMatrix, metric: MetricField, residual,
                        label: str, tol: float) -> float:
    chart = theta.chart
    value = sup_norm(residual, chart)
    bound = COMPAT_TOL * tol * (1.0 + sup_norm(metric.entries, chart)) * (1.0 + theta.sup())
    if value > bound:
        raise NotCompatible(label, value, bound)
    return value


def euler_form(theta: ConnectionMatrix, metric: MetricField, *, tol: float = 1.0,
               label: str = "connection") -> EulerReport:
    """Euler form and Euler number of a connection compatible with ``metric``.

    Raises :class:`NotCompatible` when the compatibility residual exceeds
    its tolerance, ``COMPAT_TOL * tol`` scaled by the magnitudes of the
    metric and the connection, and :class:`ValueError` if the metric is not
    positive definite on the grid.
    """
    with root_cache():
        return _euler(theta, metric, tol, label)


def _euler(theta: ConnectionMatrix, metric: MetricField, tol: float,
           label: str) -> EulerReport:
    chart = theta.chart
    g = metric.entries
    omega = curvature(theta).entries
    residual = compatibility_residual(theta, metric)
    # g Omega is skew for a compatible connection, so its Pfaffian is its
    # (1, 2) entry; sqrt(det g) is defined wherever the guard below passes
    form = TwoForm((g[0][0] * omega[0][1].r + g[0][1] * omega[1][1].r)
                   / expr_sqrt(_det2(g)) * Const(1.0 / (2.0 * math.pi)))
    # the roots of every guard below as one tape, with the integrand where
    # the quadrature samples the "mid" lattice; each guard checks its own
    roots = [metric.entries, residual, theta.entries]
    if chart.periodic_x and chart.periodic_y:
        roots.append(form)
    prefetch(roots, chart)
    witness = metric.spd_witness(chart)
    if witness is not None:
        raise ValueError(f"metric is not positive definite near {witness}")
    compat = _require_compatible(theta, metric, residual, label, tol)
    return EulerReport(form, integrate2(form, chart), compat)


def compare_euler(theta1: ConnectionMatrix, theta2: ConnectionMatrix,
                  metric: MetricField, *, tol: float = 1.0) -> float:
    """Absolute difference of the Euler numbers of two connections sharing a
    chart-global compatible metric.  Both Euler forms are computed in one
    root cache, so the metric's arrays are evaluated once."""
    if theta1.chart != theta2.chart:
        raise ValueError("connections must share a chart to be compared")
    with root_cache():
        first = euler_form(theta1, metric, tol=tol, label="first connection")
        second = euler_form(theta2, metric, tol=tol, label="second connection")
    return abs(first.euler_number - second.euler_number)
