"""Seeded inputs for the four workloads, and closed forms to check them by.

Every generator draws only coefficients from the seed; the shape of each
expression is fixed.  Two draws therefore differ in their constants and not
in their node counts, so the cost of an operation and the structural counts
of the traced run do not depend on the seed.

The closed forms here use numpy on the generators' own coefficients, never
``metriconn``'s evaluator, so they stay apart from the program they check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from metriconn.connection import ConnectionMatrix, FrameChange, MetricField, gauge_transform
from metriconn.expr import Const, X, Y, cos, exp, sin, to_source
from metriconn.forms import Chart, OneForm
from metriconn.gallery import RiemannianMetric2D

TAU = 2.0 * math.pi

# Fixed basis of every trigonometric polynomial: (x-wave, x-frequency,
# y-wave, y-frequency); frequency 0 means the factor is absent.
_BASIS = (
    [("sin", k, None, 0) for k in (1, 2)] + [("cos", k, None, 0) for k in (1, 2)]
    + [(None, 0, "sin", k) for k in (1, 2)] + [(None, 0, "cos", k) for k in (1, 2)]
    + [("sin", 1, "cos", 2), ("cos", 2, "sin", 1)]
)
_EXPR_WAVE = {"sin": sin, "cos": cos}
_NP_WAVE = {"sin": np.sin, "cos": np.cos}
_NP_DWAVE = {"sin": np.cos, "cos": lambda t: -np.sin(t)}


@dataclass(frozen=True)
class TrigPoly:
    """``c0 + sum c_i * wave(k x) * wave(k y)`` over the fixed basis."""

    c0: float
    coeffs: tuple

    @classmethod
    def draw(cls, rng, amplitude: float) -> "TrigPoly":
        c0, *coeffs = rng.uniform(-amplitude, amplitude, 1 + len(_BASIS))
        return cls(float(c0), tuple(float(c) for c in coeffs))

    def only(self, axis: str) -> "TrigPoly":
        """The same polynomial with every term that depends on the other axis
        dropped, so the result is a function of ``axis`` alone."""
        keep = [(c if (fy is None if axis == "x" else fx is None) else 0.0)
                for c, (fx, _, fy, _) in zip(self.coeffs, _BASIS)]
        return TrigPoly(self.c0, tuple(keep))

    def expr(self):
        acc = Const(self.c0)
        for c, (fx, kx, fy, ky) in zip(self.coeffs, _BASIS):
            if c == 0.0:
                continue
            term = None
            if fx is not None:
                term = _EXPR_WAVE[fx](X * float(kx))
            if fy is not None:
                wave = _EXPR_WAVE[fy](Y * float(ky))
                term = wave if term is None else term * wave
            acc = acc + term * c
        return acc

    def values(self, x, y, dx: int = 0, dy: int = 0):
        """Value, or a first partial derivative, by numpy."""
        x, y = np.broadcast_arrays(np.asarray(x, float), np.asarray(y, float))
        out = np.full(x.shape, self.c0 if dx == dy == 0 else 0.0)
        for c, (fx, kx, fy, ky) in zip(self.coeffs, _BASIS):
            if c == 0.0:
                continue
            if (dx and fx is None) or (dy and fy is None):
                continue
            fxv = 1.0 if fx is None else (
                kx * _NP_DWAVE[fx](kx * x) if dx else _NP_WAVE[fx](kx * x))
            fyv = 1.0 if fy is None else (
                ky * _NP_DWAVE[fy](ky * y) if dy else _NP_WAVE[fy](ky * y))
            out = out + c * fxv * fyv
        return out

    def antiderivative_x(self, x, x0: float):
        """``integral from x0 to x`` of a polynomial in x alone."""
        return self._antiderivative(x, x0, 0)

    def antiderivative_y(self, y, y0: float):
        return self._antiderivative(y, y0, 2)

    def _antiderivative(self, t, t0, slot):
        t = np.asarray(t, float)

        def prim(s):
            out = self.c0 * s
            for c, term in zip(self.coeffs, _BASIS):
                wave, k = term[slot], term[slot + 1]
                if c == 0.0 or wave is None:
                    continue
                if term[2 - slot] is not None:
                    raise ValueError("the polynomial depends on the other axis")
                out = out + c * (-np.cos(k * s) / k if wave == "sin" else np.sin(k * s) / k)
            return out

        return prim(t) - prim(np.asarray(t0, float))


def _skew(w: OneForm, chart: Chart) -> ConnectionMatrix:
    z = OneForm(Const(0.0), Const(0.0))
    return ConnectionMatrix(((z, w), (-w, z)), chart)


# ---------------------------------------------------------------------------
# gauge-scrambled skew connections (box_check and spec_check)


@dataclass(frozen=True)
class Scramble:
    """A skew connection ``theta0`` (metric: identity) seen through the
    det-1 rotation-stretch gauge ``B``; the scrambled connection's parallel
    metric is ``B^T B``."""

    p: TrigPoly           # theta0_12 = (p - linear y) dx + (q + linear x) dy
    q: TrigPoly
    linear: float         # 0.5 on the box, 0 on the torus
    phi: TrigPoly         # rotation angle
    s: TrigPoly           # log stretch

    def gauge_entries(self):
        grow, shrink = exp(self.s.expr()), exp(-self.s.expr())
        c, sn = cos(self.phi.expr()), sin(self.phi.expr())
        return ((c * grow, sn * shrink), ((-sn) * grow, c * shrink))

    def connection(self, chart: Chart) -> ConnectionMatrix:
        """Fresh expression objects on every call."""
        p, q = self.p.expr(), self.q.expr()
        if self.linear:
            p = p - Y * self.linear
            q = q + X * self.linear
        theta0 = _skew(OneForm(p, q), chart)
        return gauge_transform(theta0, FrameChange(self.gauge_entries(), chart))

    def gauge_values(self, x, y) -> np.ndarray:
        """``B`` sampled by numpy, shape ``(*x.shape, 2, 2)``."""
        phi, s = self.phi.values(x, y), self.s.values(x, y)
        c, sn, grow, shrink = np.cos(phi), np.sin(phi), np.exp(s), np.exp(-s)
        return np.stack([np.stack([c * grow, sn * shrink], -1),
                         np.stack([-sn * grow, c * shrink], -1)], -2)

    def metric_values(self, x, y) -> np.ndarray:
        b = self.gauge_values(x, y)
        return np.swapaxes(b, -1, -2) @ b

    def curvature_values(self, x, y) -> np.ndarray:
        """``d theta0_12`` coefficient, which is the skew curvature."""
        return 2.0 * self.linear + _curl(self.p, self.q, x, y)


def _curl(p: TrigPoly, q: TrigPoly, x, y) -> np.ndarray:
    """``dq/dx - dp/dy``."""
    return q.values(x, y, dx=1) - p.values(x, y, dy=1)


def box_chart(grid: int) -> Chart:
    return Chart((-1.5, 1.5), (-1.5, 1.5), grid=(grid, grid))


def torus_chart(grid: int) -> Chart:
    return Chart((0.0, TAU), (0.0, TAU), True, True, (grid, grid))


# Each coefficient of the small box perturbation is at most 0.025 and the
# basis has derivative weight 9 per axis, so the curvature 1 + d(p, q)
# stays within [0.55, 1.45]: the symmetrizer is well conditioned on every
# grid, and the verdict cannot depend on where the samples fall.
BOX_PERTURBATION = 0.025


def box_scramble(rng) -> Scramble:
    return Scramble(TrigPoly.draw(rng, BOX_PERTURBATION), TrigPoly.draw(rng, BOX_PERTURBATION),
                    0.5, TrigPoly.draw(rng, 0.4), TrigPoly.draw(rng, 0.25))


# The acceptance gate's curvature floor: a periodic skew curvature has zero
# mean, so draws are kept only when its sampled minimum clears this share of
# its maximum on the grid the check will run on.
CURVATURE_FLOOR = 3e-4


def torus_scramble(rng, chart: Chart, max_attempts: int = 500) -> Scramble:
    xmesh, ymesh = chart.mesh()
    for _ in range(max_attempts):
        p, q = TrigPoly.draw(rng, 0.5), TrigPoly.draw(rng, 0.5)
        kappa = np.abs(_curl(p, q, xmesh, ymesh))
        if kappa.max() > 0.1 and kappa.min() >= CURVATURE_FLOOR * kappa.max():
            return Scramble(p, q, 0.0, TrigPoly.draw(rng, 0.4), TrigPoly.draw(rng, 0.25))
    raise RuntimeError("no skew connection clears the curvature floor")


# ---------------------------------------------------------------------------
# flat connections (flat_sweep)


def _expm2(mats: np.ndarray) -> np.ndarray:
    """Exponential of a stack of real 2x2 matrices in closed form:
    ``exp(tI + N) = e^t (cosh(d) I + sinh(d)/d N)`` with ``N^2 = d^2 I``."""
    t = (mats[..., 0, 0] + mats[..., 1, 1]) / 2.0
    n = mats - t[..., None, None] * np.eye(2)
    d2 = -(n[..., 0, 0] * n[..., 1, 1] - n[..., 0, 1] * n[..., 1, 0])
    d = np.sqrt(d2.astype(complex))
    small = np.abs(d) < 1e-8
    safe = np.where(small, 1.0, d)
    ratio = np.where(small, 1.0 + d2 / 6.0, np.sinh(safe) / safe).real
    return np.exp(t)[..., None, None] * (np.cosh(d).real[..., None, None] * np.eye(2)
                                         + ratio[..., None, None] * n)


@dataclass(frozen=True)
class FlatPair:
    """``theta = f(x) M1 dx + g(y) M2 dy`` with ``M2 = alpha I + beta M1``;
    the coefficients commute, so ``theta`` is flat and its parallel frame
    is ``B = exp(-F(x) M1 - G(y) M2)`` with ``F' = f``, ``G' = g``."""

    f: TrigPoly
    g: TrigPoly
    m1: tuple
    alpha: float
    beta: float

    @property
    def m2(self):
        m1 = np.array(self.m1)
        return tuple(map(tuple, self.alpha * np.eye(2) + self.beta * m1))

    def connection(self, chart: Chart) -> ConnectionMatrix:
        fe, ge = self.f.expr(), self.g.expr()
        rows = tuple(
            tuple(OneForm(fe * self.m1[i][j], ge * self.m2[i][j]) for j in range(2))
            for i in range(2))
        return ConnectionMatrix(rows, chart)

    def frame_values(self, chart: Chart) -> np.ndarray:
        x0, y0 = chart.basepoint
        big_f = self.f.antiderivative_x(chart.xs("node"), x0)[:, None]
        big_g = self.g.antiderivative_y(chart.ys("node"), y0)[None, :]
        gen = (-big_f[..., None, None] * np.array(self.m1)
               - big_g[..., None, None] * np.array(self.m2))
        return _expm2(gen)

    def metric_values(self, chart: Chart) -> np.ndarray:
        b = self.frame_values(chart)
        return np.linalg.inv(b @ np.swapaxes(b, -1, -2))

    def loop_defect(self, chart: Chart) -> float:
        """``max |loop - I|`` over the transports around both generators."""
        lx = chart.x_range[1] - chart.x_range[0]
        ly = chart.y_range[1] - chart.y_range[0]
        loops = _expm2(np.stack([-lx * self.f.c0 * np.array(self.m1),
                                 -ly * self.g.c0 * np.array(self.m2)]))
        return float(np.max(np.abs(loops - np.eye(2))))


def flat_pair(rng) -> FlatPair:
    f = TrigPoly.draw(rng, 0.3).only("x")
    g = TrigPoly.draw(rng, 0.3).only("y")
    m1 = rng.uniform(-1.0, 1.0, (2, 2))
    return FlatPair(f, g, tuple(map(tuple, m1)), float(rng.uniform(-0.5, 0.5)),
                    float(rng.uniform(-1.0, 1.0)))


# ---------------------------------------------------------------------------
# metrics and one-forms (euler_volume)


@dataclass(frozen=True)
class EulerInput:
    """``g = diag(exp(a), exp(b))`` and ``u = p dx + q dy`` on the torus."""

    a: TrigPoly
    b: TrigPoly
    up: TrigPoly
    uq: TrigPoly

    def metric(self, chart: Chart) -> RiemannianMetric2D:
        return RiemannianMetric2D(
            MetricField.symmetric(exp(self.a.expr()), Const(0.0), exp(self.b.expr())), chart)

    def oneform(self) -> OneForm:
        return OneForm(self.up.expr(), self.uq.expr())

    def log_volume(self, chart: Chart) -> np.ndarray:
        """``1/2 log(det g / det g(basepoint))`` on the node lattice."""
        xm, ym = chart.mesh("node")
        x0, y0 = chart.basepoint
        log_det = self.a.values(xm, ym) + self.b.values(xm, ym)
        return 0.5 * (log_det - self.a.values(x0, y0) - self.b.values(x0, y0))


def euler_input(rng) -> EulerInput:
    return EulerInput(TrigPoly.draw(rng, 0.15), TrigPoly.draw(rng, 0.15),
                      TrigPoly.draw(rng, 0.3), TrigPoly.draw(rng, 0.3))


def spec_text(theta: ConnectionMatrix) -> str:
    """A spec file holding ``theta`` on its chart, as a user would write it
    with ``to_source``."""
    chart = theta.chart
    lines = ["[chart]",
             f"x = {chart.x_range[0]!r} .. {chart.x_range[1]!r}",
             f"y = {chart.y_range[0]!r} .. {chart.y_range[1]!r}",
             f"periodic = {str(chart.periodic_x).lower()} {str(chart.periodic_y).lower()}",
             f"grid = {chart.nx} {chart.ny}",
             "", "[connection]"]
    for i in range(2):
        for j in range(2):
            form = theta.entries[i][j]
            lines.append(f"theta.{i + 1}.{j + 1}.dx = {to_source(form.p)}")
            lines.append(f"theta.{i + 1}.{j + 1}.dy = {to_source(form.q)}")
    return "\n".join(lines) + "\n"
