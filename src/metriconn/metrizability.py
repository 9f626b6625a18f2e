"""Local metrizability of rank-2 connections over a surface chart.

The decision pipeline: compute the curvature matrix; handle the flat case
through a parallel frame; otherwise factor the volume form out of the
curvature, test pointwise for purely imaginary eigenvalues of the
coefficient matrix ``U``, and test the parallel condition in the given
frame.  With ``U``'s traceless part ``[[a, b], [c, -a]]`` and ``det U > 0``,
every symmetric ``G`` with ``G U + U^T G = 0`` is a multiple of
``G0 = [[c, -a], [-a, -b]]``, and ``exp(phi) G0`` is parallel exactly when

    P = det U (dG0 - theta^T G0 - G0 theta + tr(theta) G0) - 1/2 d(det U) G0

vanishes in its dx and dy parts, with ``d phi = tr(theta) - 1/2 d log det U``
(closed, since ``tr U = 0``).  ``P`` is a polynomial in ``U``, ``dU`` and
``theta``, so it keeps its accuracy where the curvature is small.  It is
tested sample by sample against its scale; a sample where the rounding of
``U`` could reach the tolerance is uncertified, and never a witness.  A
positive verdict comes with the adjugate of the det-1 solution ``S`` of
``U S + S U^T = 0``, rescaled by the potential of the trace form.  That
adjugate is ``g = -sgn(b) G0 / sqrt(det U)``, so its trace-shifted
compatibility residual is exactly

    dg - theta^T g - g theta + tr(theta) g = -sgn(b) P / det U^(3/2)

and the test of ``P`` is the proof that the reported metric is parallel;
nothing re-checks it.  It is positive definite wherever the eigenvalue
test holds: its (1,1) entry is ``-b c / (|b| sqrt(det U))`` with
``-b c > a^2``, and its determinant is ``det S = 1``.

All pointwise verdicts are certified on grid samples only; the grid and
every tolerance used are recorded in the report.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .expr import Const, sqrt as expr_sqrt
from .forms import (
    Chart,
    OneForm,
    TwoForm,
    d0,
    evaluate_grid_many,
    generator_loop_integrals,
    potential_on_grid,
    prefetch,
    root_cache,
    sup_norm,
)
from .connection import (
    EIGEN_DET_TOL,
    EIGEN_TRACE_TOL,
    PARALLEL_TOL,
    ConnectionMatrix,
    CurvatureMatrix,
    MetricField,
    _curvature_peak,
    _not_spd,
    _parallel_frame,
    _vanishing,
    compatibility_residual,
    curvature,
    trace_connection,
)

__all__ = [
    "Verdict", "CurvatureCoefficient", "MetrizabilityReport",
    "DegenerateVolume", "EigenPreconditionFailed", "NotSPD",
    "factor_curvature", "skew_symmetrizer",
    "spd_sqrt", "recover_metric", "check_metrizability",
]


class Verdict(enum.Enum):
    METRIC = "Metric"
    FLAT = "Flat"
    NOT_METRIC_EIGEN = "NotMetricEigen"
    NOT_METRIC_SKEW = "NotMetricSkew"
    INCONCLUSIVE = "Inconclusive"


class DegenerateVolume(ValueError):
    def __init__(self, point, value):
        super().__init__(f"volume form vanishes near {point} (value {value:.3g})")
        self.point = point
        self.value = value


class EigenPreconditionFailed(ValueError):
    def __init__(self, point, trace, det):
        super().__init__(
            f"eigenvalue precondition fails at {point}: trace {trace:.3g}, det {det:.3g}")
        self.point = point
        self.trace = trace
        self.det = det


class NotSPD(ValueError):
    def __init__(self, point, detail=""):
        message = f"matrix is not symmetric positive definite at {point}"
        if detail:
            message += f" ({detail})"
        super().__init__(message)
        self.point = point


@dataclass(frozen=True)
class CurvatureCoefficient:
    """Curvature factored through a volume form: ``Omega = volume * matrix``."""

    matrix: tuple
    volume: TwoForm


@dataclass(frozen=True)
class MetrizabilityReport:
    """Decision outcome with witnesses, residual diagnostics, and the
    recovered metric.

    For a ``Metric`` verdict the parallel metric in the original frame is
    ``exp(conformal_log) * metric`` pointwise; ``conformal_log`` is ``None``
    when the connection trace vanishes on the grid, in which case ``metric``
    alone is the (closed-form) parallel metric.  Nonzero
    ``conformal_defects`` on a periodic chart mean the metric is local only:
    it does not close up around the corresponding generator.
    """

    verdict: Verdict
    chart: Chart
    witness: tuple[float, float] | None = None
    metric: MetricField | None = None
    metric_samples: np.ndarray | None = None
    conformal_log: np.ndarray | None = None
    conformal_defects: tuple[float, float] | None = None
    max_parallel_residual: float | None = None
    min_det_u: float | None = None
    max_abs_trace_u: float | None = None
    curvature_zero_fraction: float = 0.0
    frame_residual: float | None = None
    loop_defect: float | None = None
    tolerances: dict = field(default_factory=dict)
    normalization: str = "det(S) = 1"
    notes: tuple = ("pointwise verdicts are certified on grid samples only",)

    @property
    def grid(self) -> tuple[int, int]:
        return self.chart.grid

    def metric_grid(self) -> np.ndarray | None:
        """Sampled parallel metric on the node lattice, conformal factor
        included."""
        if self.metric_samples is not None:
            return self.metric_samples
        if self.metric is None:
            return None
        entries = evaluate_grid_many(
            [self.metric.entries[i][j] for i in range(2) for j in range(2)],
            self.chart, "node")
        stacked = np.stack(
            [np.stack(entries[:2], -1), np.stack(entries[2:], -1)], -2)
        if self.conformal_log is not None:
            stacked = np.exp(self.conformal_log)[:, :, None, None] * stacked
        return stacked


# ---------------------------------------------------------------------------
# pipeline stages


def factor_curvature(omega: CurvatureMatrix, volume: TwoForm) -> CurvatureCoefficient:
    """Factor a (nonvanishing) volume form out of the curvature matrix.

    Raises :class:`DegenerateVolume` if the volume coefficient vanishes at a
    grid point.  The reconstruction ``volume * matrix = Omega`` is verified
    on the grid.
    """
    chart = omega.chart
    vol, degenerate = _vanishing(volume.r, chart)
    if degenerate.any():
        raise DegenerateVolume(chart.first_point(degenerate), float(vol[degenerate][0]))

    matrix = tuple(
        tuple(entry.r / volume.r for entry in row) for row in omega.entries
    )
    rebuilt = [u * volume.r for row in matrix for u in row]
    originals = [entry.r for row in omega.entries for entry in row]
    arrays = evaluate_grid_many(list(rebuilt) + list(originals), chart)
    half = len(rebuilt)
    scale = 1.0 + max(float(np.max(np.abs(a))) for a in arrays[half:])
    worst = max(
        float(np.max(np.abs(a - b))) for a, b in zip(arrays[:half], arrays[half:])
    )
    if worst > 1e-12 * scale:
        raise ArithmeticError(f"volume factoring failed to reconstruct: {worst:.3g}")
    return CurvatureCoefficient(matrix, volume)


def _imaginary_eigenvalues(u11, u12, u21, u22, tol: float):
    """The purely-imaginary-eigenvalue test on the entries of ``U``, floats
    and grid arrays alike.

    Returns ``(ok, trace, det, scale)`` with ``scale = max |U_ij|``.  Both
    eigenvalues of a real 2x2 matrix are purely imaginary and nonzero
    exactly when the trace vanishes and the determinant is positive; the
    margins are ``EIGEN_TRACE_TOL * tol`` and ``EIGEN_DET_TOL * tol``,
    relative to ``scale`` and ``scale^2``.
    """
    scale = np.maximum.reduce([np.abs(u11), np.abs(u12), np.abs(u21), np.abs(u22)])
    trace = u11 + u22
    det = u11 * u22 - u12 * u21
    ok = ((scale > 0.0)
          & (np.abs(trace) <= EIGEN_TRACE_TOL * tol * scale)
          & (det >= EIGEN_DET_TOL * tol * scale * scale))
    return ok, trace, det, scale


def skew_symmetrizer(matrix, chart: Chart, tol: float = 1.0):
    """Symmetric positive-definite solution ``S`` of ``U S + S U^T = 0`` with
    ``det S = 1``, as a 2x2 matrix of expressions.

    Writing the traceless part of ``U`` as ``[[a, b], [c, -a]]`` with
    ``det = -(a^2 + b c) > 0``, the solution is

        S = [[b^2, -a b], [-a b, -c b]] / sqrt(b^2 * det)

    The ``sqrt(b^2)`` factor realizes ``|b|`` inside the expression grammar,
    so the sign of ``b`` is resolved pointwise; ``b`` cannot vanish where
    the eigenvalue test holds, since ``b = 0`` forces ``det <= 0``.

    Raises :class:`EigenPreconditionFailed` if the eigenvalue test fails at
    a grid point.
    """
    ok, trace, det, _ = _imaginary_eigenvalues(*evaluate_grid_many(
        [matrix[0][0], matrix[0][1], matrix[1][0], matrix[1][1]], chart), tol)
    if not ok.all():
        bad = ~ok
        raise EigenPreconditionFailed(
            chart.first_point(bad), float(trace[bad][0]), float(det[bad][0]))
    return _symmetrizer(*_traceless_parts(matrix))


def _traceless_parts(matrix):
    """``(a, b, c, -(a^2 + b c))``: the traceless part ``[[a, b], [c, -a]]``
    of a 2x2 matrix of expressions, and its determinant."""
    a = (matrix[0][0] - matrix[1][1]) * Const(0.5)
    b = matrix[0][1]
    c = matrix[1][0]
    return a, b, c, -(a * a + b * c)


def _symmetrizer(a, b, c, disc):
    """The closed form of :func:`skew_symmetrizer`, for a ``U`` known to
    pass the eigenvalue test."""
    root = expr_sqrt((b * b) * disc)
    s11 = (b * b) / root
    s12 = (-(a * b)) / root
    s22 = (-(c * b)) / root
    return ((s11, s12), (s12, s22))


def spd_sqrt(s, chart: Chart):
    """Symmetric positive-definite square root of a det-1 SPD matrix of
    expressions, via the 2x2 closed form ``A = (S + I) / sqrt(tr S + 2)``.

    Raises :class:`NotSPD` if ``S`` is not SPD with unit determinant on the
    grid.
    """
    bad, det = _not_spd(s, chart)
    if bad.any():
        raise NotSPD(chart.first_point(bad), "non-positive leading minor")
    off = np.abs(det - 1.0) > 1e-8 * (1.0 + np.abs(det))
    if off.any():
        raise NotSPD(chart.first_point(off), f"det - 1 = {det[off][0] - 1.0:.2g}")
    s11, s12, s21, s22 = s[0][0], s[0][1], s[1][0], s[1][1]
    denom = expr_sqrt(s11 + s22 + Const(2.0))
    q11 = (s11 + Const(1.0)) / denom
    q12 = s12 / denom
    q21 = s21 / denom if s21 is not s12 else q12
    q22 = (s22 + Const(1.0)) / denom
    return ((q11, q12), (q21, q22))


def recover_metric(s) -> MetricField:
    """Metric making the transformed frame orthonormal, expressed in the
    original frame: the adjugate of the det-1 symmetrizer."""
    return MetricField.symmetric(s[1][1], -s[0][1], s[0][0])


def _parallel_residual(theta: ConnectionMatrix, g0: MetricField, det_u, tr_theta: OneForm):
    """The dx and dy coefficients of the entries (1,1), (1,2) and (2,2) of
    ``P = det U (R + tr(theta) G0) - 1/2 d(det U) G0``, with ``R`` the
    compatibility residual of ``G0``; ``R + tr(theta) G0`` is the residual
    of ``exp(L) G0`` over ``exp(L) > 0``, where ``dL = tr(theta)``."""
    residual = compatibility_residual(theta, g0)
    half_ddet = d0(det_u).scaled(Const(0.5))
    out = []
    for i, j in ((0, 0), (0, 1), (1, 1)):
        shifted = residual[i][j] + tr_theta.scaled(g0.entries[i][j])
        entry = shifted.scaled(det_u) - half_ddet.scaled(g0.entries[i][j])
        out += [entry.p, entry.q]
    return out


def _peak(exprs, chart: Chart) -> np.ndarray:
    """The largest absolute value of ``exprs`` at each sample."""
    return np.max(np.abs(evaluate_grid_many(exprs, chart)), axis=0)


# ---------------------------------------------------------------------------
# orchestration

# The rounding floor of P / scale, in units of eps (|d theta| + |theta|^2) / |U|
# (the relative rounding of U); scrambled skew connections stay below 9 units.
_ROUNDING = 32.0


def check_metrizability(theta: ConnectionMatrix, *, tol: float = 1.0,
                        basepoint=None) -> MetrizabilityReport:
    """Decide whether a rank-2 connection is locally metric on its chart.

    Returns a report whose verdict is one of ``Metric`` (with the recovered
    metric), ``Flat`` (with a sampled parallel metric and loop defects),
    ``NotMetricEigen`` / ``NotMetricSkew`` (with a witness point), or
    ``Inconclusive``: the sampled curvature-zero set is a proper nonempty
    subset of the grid, where the pointwise construction does not apply;
    or every sample that fails the parallel test is uncertified.
    A basepoint outside the chart is a ValueError, whatever the verdict.
    Every base tolerance is scaled by ``tol``, and the report echoes the
    tolerances applied.

    One root cache (:func:`~metriconn.forms.root_cache`) is open for the
    length of the call, so each stage takes the grid arrays of the
    expressions the stages before it evaluated as finished leaves.  The
    cache finds them by the value numbers the nodes got when they were
    built, so an expression a stage builds again is found too.  Once
    the eigenvalue test passes, every root the later stages ask for (the
    coefficients of ``P``, the norms of ``dU`` and ``d theta`` and
    ``tr theta``) runs as one tape (:func:`~metriconn.forms.prefetch`), so
    the derivatives of ``U`` that ``P`` and the norms share are computed
    once.  The stages then check their roots in their own order: a domain
    error or a verdict comes where it came with one tape per stage.  The flat,
    curvature-zero and eigenvalue-failure verdicts return before that
    tape.
    """
    with root_cache():
        return _decide(theta, tol, basepoint)


def _decide(theta: ConnectionMatrix, tol: float, basepoint) -> MetrizabilityReport:
    parallel_tol = PARALLEL_TOL * tol
    chart = theta.chart
    basepoint = chart.point(basepoint)

    theta_sup = theta.sup()
    omega = curvature(theta)
    u, peak, flat_tol = _curvature_peak(omega, theta_sup, tol)
    tol_echo = {
        "flat": flat_tol,
        "eigen_trace": EIGEN_TRACE_TOL * tol,
        "eigen_det": EIGEN_DET_TOL * tol,
        "skew_base": parallel_tol,
    }

    zero_mask = peak <= flat_tol
    zero_fraction = float(np.mean(zero_mask))

    if zero_fraction == 1.0:
        del u, peak, zero_mask     # not held while the frame is built
        frame = _parallel_frame(theta, basepoint)
        return MetrizabilityReport(
            verdict=Verdict.FLAT,
            chart=chart,
            metric_samples=frame.metric_samples(),
            curvature_zero_fraction=1.0,
            frame_residual=frame.residual_max,
            loop_defect=frame.loop_defect(),
            tolerances=tol_echo,
        )

    if zero_fraction > 0.0:
        return MetrizabilityReport(
            verdict=Verdict.INCONCLUSIVE,
            chart=chart,
            witness=chart.first_point(zero_mask),
            curvature_zero_fraction=zero_fraction,
            tolerances=tol_echo,
            notes=MetrizabilityReport.notes
            + ("curvature vanishes on a proper subset of the sampled grid; "
               "the pointwise construction does not apply there",),
        )

    # with volume form dx^dy the curvature coefficient U is the matrix of
    # the curvature's own dx^dy coefficients, sampled above
    ok, trace, det, u_scale = _imaginary_eigenvalues(*u, tol)
    u_fields = dict(min_det_u=float(np.min(det)), max_abs_trace_u=float(np.max(np.abs(trace))),
                    tolerances=tol_echo)
    if not ok.all():
        return MetrizabilityReport(
            verdict=Verdict.NOT_METRIC_EIGEN,
            chart=chart,
            witness=chart.first_point(~ok),
            **u_fields,
        )

    a, b, c, det_u = _traceless_parts(tuple(tuple(f.r for f in row) for row in omega.entries))
    g0 = MetricField.symmetric(c, -a, -b)
    tr_theta = trace_connection(theta)
    parallel = _parallel_residual(theta, g0, det_u, tr_theta)
    # the Euclidean norms of dU (of its traceless part) and d theta, squared
    du2 = sum((e.diff(v) ** 2 for e in (a, b, c) for v in ("x", "y")), Const(0.0))
    dtheta2 = sum((e ** 2 for row in theta.entries for f in row
                   for e in (f.p.diff("y"), f.q.diff("x"))), Const(0.0))
    # one tape for every root below; each stage still checks its own roots
    prefetch([parallel, du2, dtheta2, tr_theta], chart)
    theta_abs = _peak([e for row in theta.entries for f in row for e in (f.p, f.q)], chart)
    du, dtheta = np.sqrt(evaluate_grid_many([du2, dtheta2], chart))
    # P is of degree 2 in U and of degree 1 in (dU, theta U)
    scale = np.maximum(u_scale * u_scale * (u_scale * theta_abs + du), np.finfo(float).tiny)
    measured = _peak(parallel, chart) / scale
    floor = _ROUNDING * np.finfo(float).eps * (dtheta + theta_abs * theta_abs) / u_scale
    tol_echo["parallel"] = parallel_tol
    max_parallel = float(np.max(measured))
    failing = measured > parallel_tol
    if failing.any():
        uncertified = floor >= parallel_tol
        witnessed = failing & ~uncertified
        return MetrizabilityReport(
            verdict=Verdict.NOT_METRIC_SKEW if witnessed.any() else Verdict.INCONCLUSIVE,
            chart=chart,
            witness=chart.first_point(witnessed) if witnessed.any() else None,
            max_parallel_residual=max_parallel,
            **u_fields,
            notes=MetrizabilityReport.notes + (() if witnessed.any() else (
                f"{failing.sum()} of {failing.size} samples fail the parallel test, all "
                f"of them among the {uncertified.sum()} samples whose rounding floor "
                "reaches the tolerance",)),
        )

    notes = MetrizabilityReport.notes
    conformal_log = conformal_defects = None
    if sup_norm(tr_theta, chart) > 1e-10 * (1.0 + theta_sup):
        # the parallel metric is exp(L) * metric with dL = tr(theta)
        conformal_log = potential_on_grid(tr_theta, chart, basepoint)
        conformal_defects = generator_loop_integrals(tr_theta, chart)
        notes = notes + (
            "parallel metric = exp(conformal_log) * metric; the trace form "
            "integrates to the conformal factor",)
        if max(abs(conformal_defects[0]), abs(conformal_defects[1])) > 1e-9:
            notes = notes + (
                "nonzero conformal loop defect: the metric does not close up "
                "around a periodic generator",)
    return MetrizabilityReport(
        verdict=Verdict.METRIC,
        chart=chart,
        metric=recover_metric(_symmetrizer(a, b, c, det_u)),
        conformal_log=conformal_log,
        conformal_defects=conformal_defects,
        max_parallel_residual=max_parallel,
        **u_fields,
        notes=notes,
    )
