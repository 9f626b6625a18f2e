"""Worked examples and tangent-bundle constructors.

Tangent-bundle connections are expressed in the coordinate frame with the
index convention ``theta^i_j = Gamma^i_{kj} dx^k`` (``k`` is the form
index, ``j`` the frame column).  Everything here is specific to surface
charts (two-dimensional base, rank-2 tangent bundle).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .expr import Const, Expr, X, Y, cos, exp, sin
from .forms import Chart, OneForm
from .connection import ConnectionMatrix, MetricField
from .metrizability import NotSPD

__all__ = [
    "RiemannianMetric2D", "TorsionField",
    "torus_example", "hyperbolic_band_metric", "levi_civita", "semi_symmetric",
    "torsion", "GALLERY", "GalleryEntry",
]

_TAU = 2.0 * np.pi


@dataclass(frozen=True)
class RiemannianMetric2D:
    """A metric on the chart, read in the coordinate frame (d/dx, d/dy)."""

    metric: MetricField
    chart: Chart

    @classmethod
    def from_exprs(cls, g11: Expr, g12: Expr, g22: Expr, chart: Chart) -> "RiemannianMetric2D":
        return cls(MetricField.symmetric(g11, g12, g22), chart)

    def require_spd(self) -> None:
        witness = self.metric.spd_witness(self.chart)
        if witness is not None:
            raise NotSPD(witness, "metric is not positive definite")


@dataclass(frozen=True)
class TorsionField:
    """Torsion components ``T^k_ij``, antisymmetric in the lower pair.

    ``components[k][i][j]`` uses zero-based indices; the independent entries
    in dimension two are ``T^1_12`` and ``T^2_12``.
    """

    components: tuple

    @classmethod
    def from_independent(cls, t1: Expr, t2: Expr) -> "TorsionField":
        zero = Const(0.0)
        return cls((
            ((zero, t1), (-t1, zero)),
            ((zero, t2), (-t2, zero)),
        ))

    def component(self, k: int, i: int, j: int) -> Expr:
        return self.components[k - 1][i - 1][j - 1]


def torus_example(grid: tuple[int, int] = (64, 64)) -> ConnectionMatrix:
    """The flat, symmetric, locally (but not globally) metric connection on
    the torus whose matrix is ``[[dx, 0], [0, 0]]``.

    The parallel metric grows like ``exp(2x)`` along the first generator, so
    transporting it around one period multiplies the leading entry by
    ``exp(4 pi)``: no bounded global metric exists.
    """
    chart = Chart((0.0, _TAU), (0.0, _TAU), True, True, grid)
    zero = Const(0.0)
    z = OneForm(zero, zero)
    return ConnectionMatrix(((OneForm(Const(1.0), zero), z), (z, z)), chart)


def hyperbolic_band_metric(grid: tuple[int, int] = (64, 64)) -> RiemannianMetric2D:
    """The metric ``diag(1, exp(2x))`` on the band ``[-1, 1] x [0, 2 pi)``."""
    chart = Chart((-1.0, 1.0), (0.0, _TAU), False, True, grid)
    return RiemannianMetric2D.from_exprs(Const(1.0), Const(0.0), exp(X * 2.0), chart)


def _christoffels(g: RiemannianMetric2D):
    """Levi-Civita Christoffel symbols ``Gamma[i][k][j] = Gamma^i_{kj}``."""
    gm = g.metric.entries
    det = gm[0][0] * gm[1][1] - gm[0][1] * gm[1][0]
    ginv = (
        (gm[1][1] / det, -(gm[0][1]) / det),
        (-(gm[1][0]) / det, gm[0][0] / det),
    )
    variables = ("x", "y")
    dg = [[[gm[l][j].diff(variables[k]) for k in range(2)] for j in range(2)]
          for l in range(2)]
    half = Const(0.5)

    def gamma(i, k, j):
        acc = None
        for l in range(2):
            term = dg[l][j][k] + dg[l][k][j] - (gm[k][j].diff(variables[l]))
            contrib = ginv[i][l] * term
            acc = contrib if acc is None else acc + contrib
        return half * acc

    out = [[[None, None] for _ in range(2)] for _ in range(2)]
    for i in range(2):
        for k in range(2):
            for j in range(k, 2):
                value = gamma(i, k, j)
                out[i][k][j] = value
                out[i][j][k] = value  # symmetric lower pair
    return tuple(tuple(tuple(row) for row in plane) for plane in out)


def _matrix_from_christoffels(gamma, chart: Chart) -> ConnectionMatrix:
    rows = tuple(
        tuple(OneForm(gamma[i][0][j], gamma[i][1][j]) for j in range(2))
        for i in range(2)
    )
    return ConnectionMatrix(rows, chart)


def levi_civita(g: RiemannianMetric2D) -> ConnectionMatrix:
    """Connection matrix of the Levi-Civita connection of ``g`` in the
    coordinate frame; torsion-free and compatible with ``g``."""
    g.require_spd()
    return _matrix_from_christoffels(_christoffels(g), g.chart)


def semi_symmetric(g: RiemannianMetric2D, u: OneForm) -> ConnectionMatrix:
    """The metric-compatible connection with torsion ``u(Y) X - u(X) Y``:
    the Levi-Civita connection shifted by ``u(Y) X - g(X, Y) u_sharp``.

    Coefficient form: ``Gamma^i_{kj} += u_j delta^i_k - g_{kj} u_sharp^i``
    with ``u_sharp = g^-1 u``.
    """
    g.require_spd()
    gm = g.metric.entries
    det = gm[0][0] * gm[1][1] - gm[0][1] * gm[1][0]
    u_comp = (u.p, u.q)
    sharp = (
        (gm[1][1] * u.p - gm[0][1] * u.q) / det,
        (gm[0][0] * u.q - gm[1][0] * u.p) / det,
    )
    base = _christoffels(g)
    rows = []
    for i in range(2):
        plane = []
        for k in range(2):
            row = []
            for j in range(2):
                value = base[i][k][j] - gm[k][j] * sharp[i]
                if i == k:
                    value = value + u_comp[j]
                row.append(value)
            plane.append(tuple(row))
        rows.append(tuple(plane))
    return _matrix_from_christoffels(tuple(rows), g.chart)


def torsion(theta: ConnectionMatrix) -> TorsionField:
    """Torsion of a tangent-bundle connection in the coordinate frame,
    read off the connection matrix: ``T^k_ij = Gamma^k_ij - Gamma^k_ji``."""
    t1 = theta.entries[0][1].p - theta.entries[0][0].q
    t2 = theta.entries[1][1].p - theta.entries[1][0].q
    return TorsionField.from_independent(t1, t2)


# ---------------------------------------------------------------------------
# named gallery entries for the command-line front-end


@dataclass(frozen=True)
class GalleryEntry:
    name: str
    description: str
    connection: ConnectionMatrix
    metric: MetricField | None = None


def _build_torus() -> GalleryEntry:
    return GalleryEntry(
        "torus",
        "flat connection [[dx, 0], [0, 0]] on the periodic square; locally "
        "metric with an exp(2x) metric but globally obstructed",
        torus_example(),
    )


def _build_semi_symmetric() -> GalleryEntry:
    chart = Chart((0.0, _TAU), (0.0, _TAU), True, True)
    g = RiemannianMetric2D.from_exprs(
        Const(1.5) + cos(X) * 0.3,
        sin(X) * sin(Y) * 0.1,
        Const(1.2) + sin(Y) * 0.2,
        chart,
    )
    u = OneForm(cos(Y) * 0.2, sin(X) * 0.3)
    return GalleryEntry(
        "semi_symmetric",
        "metric-compatible connection with torsion u(Y)X - u(X)Y on the torus",
        semi_symmetric(g, u),
        g.metric,
    )


def _build_hyperbolic_band() -> GalleryEntry:
    g = hyperbolic_band_metric()
    return GalleryEntry(
        "hyperbolic_band",
        "Levi-Civita connection of diag(1, exp(2x)) on the band [-1,1] x [0,2pi)",
        levi_civita(g),
        g.metric,
    )


GALLERY = {
    "torus": _build_torus,
    "semi_symmetric": _build_semi_symmetric,
    "hyperbolic_band": _build_hyperbolic_band,
}
