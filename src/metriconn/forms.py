"""Charts and exterior calculus in dimension two.

A :class:`Chart` is a rectangular coordinate domain with periodicity flags
and a sampling grid.  Forms carry :class:`~metriconn.expr.Expr`
coefficients: a 1-form is ``p dx + q dy``, a 2-form is ``r dx^dy``.

Pointwise verdicts elsewhere in the package ("skew everywhere", "trace zero
everywhere") are certified on grid samples only; the grid density is under
caller control through ``Chart.grid``.

Grid evaluation runs all the expressions of one call as one tape
(:func:`metriconn.expr.eval_grid_many`), on the value numbers the nodes
got when they were built.  Inside :func:`root_cache`, which
:func:`metriconn.metrizability.check_metrizability` opens for the length of
one check (and the functions of :mod:`metriconn.volume_euler` for one
call), the roots evaluated on a (chart, lattice) pair are kept under
their numbers and reused by the later evaluations on that pair, so a root
equal in structure to one evaluated before is not computed again, even
when it was built anew.  A caller that knows which roots
its later stages will ask for runs them as one tape first with
:func:`prefetch`: the stages share the intermediates of that tape, and
each stage still checks its own roots, in its own order.

The tape runs on open meshes, ``xs[:, None]`` and ``ys[None, :]``, so a
node that depends on one coordinate is computed on that axis alone (shape
``(nx, 1)`` or ``(1, ny)``) and a constant once.  A result is a read-only
broadcast view of the full sample shape, possibly with stride 0 along an
axis.  Elementwise arithmetic on it gives the same bits as on a full mesh;
a BLAS reduction (``@``) need not, so the quadratures here copy a view
with a computed axis to a contiguous array first.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass

import numpy as np

from .expr import DomainError, Expr, eval_grid_many

__all__ = [
    "Chart", "OneForm", "TwoForm",
    "d0", "d1", "wedge11", "integrate2", "line_integral",
    "evaluate_grid", "evaluate_grid_many", "root_cache", "prefetch", "sup_norm",
    "grid_derivative",
    "potential_on_grid", "generator_loop_integrals",
]


@dataclass(frozen=True)
class Chart:
    """Rectangular domain ``[x0,x1] x [y0,y1]`` with an ``nx x ny`` grid.

    Periodic axes are treated as half-open cells ``[x0, x1)`` so that the
    seam is never double-counted.
    """

    x_range: tuple[float, float]
    y_range: tuple[float, float]
    periodic_x: bool = False
    periodic_y: bool = False
    grid: tuple[int, int] = (64, 64)

    def __post_init__(self):
        object.__setattr__(self, "x_range", (float(self.x_range[0]), float(self.x_range[1])))
        object.__setattr__(self, "y_range", (float(self.y_range[0]), float(self.y_range[1])))
        object.__setattr__(self, "grid", (int(self.grid[0]), int(self.grid[1])))
        if not all(map(math.isfinite, self.x_range)):
            raise ValueError(f"x_range must be finite, got {self.x_range}")
        if not all(map(math.isfinite, self.y_range)):
            raise ValueError(f"y_range must be finite, got {self.y_range}")
        if not self.x_range[0] < self.x_range[1]:
            raise ValueError(f"x_range must be increasing, got {self.x_range}")
        if not self.y_range[0] < self.y_range[1]:
            raise ValueError(f"y_range must be increasing, got {self.y_range}")
        if self.grid[0] < 8 or self.grid[1] < 8:
            raise ValueError(f"grid must be at least 8x8, got {self.grid}")
        for axis, h, samples in (("x", self.hx, self.xs), ("y", self.hy, self.ys)):
            if not (math.isfinite(h) and h > 0.0):
                raise ValueError(f"{axis}_range must give a finite positive grid spacing, got {h}")
            if not all(np.all(np.diff(samples(lattice)) > 0.0) for lattice in ("node", "mid")):
                raise ValueError(f"{axis}_range is too narrow for its magnitude: "
                                 "its grid samples are not distinct")

    @property
    def nx(self) -> int:
        return self.grid[0]

    @property
    def ny(self) -> int:
        return self.grid[1]

    @property
    def hx(self) -> float:
        return (self.x_range[1] - self.x_range[0]) / self.nx

    @property
    def hy(self) -> float:
        return (self.y_range[1] - self.y_range[0]) / self.ny

    @property
    def basepoint(self) -> tuple[float, float]:
        return (self.x_range[0], self.y_range[0])

    def xs(self, lattice: str = "mid") -> np.ndarray:
        x0 = self.x_range[0]
        if lattice == "mid":
            return x0 + (np.arange(self.nx) + 0.5) * self.hx
        if lattice == "node":
            return x0 + np.arange(self.nx) * self.hx
        raise ValueError(f"unknown lattice {lattice!r}")

    def ys(self, lattice: str = "mid") -> np.ndarray:
        y0 = self.y_range[0]
        if lattice == "mid":
            return y0 + (np.arange(self.ny) + 0.5) * self.hy
        if lattice == "node":
            return y0 + np.arange(self.ny) * self.hy
        raise ValueError(f"unknown lattice {lattice!r}")

    def mesh(self, lattice: str = "mid") -> tuple[np.ndarray, np.ndarray]:
        """Sample meshes with ``indexing='ij'``: entry ``[i, j]`` is ``(x_i, y_j)``."""
        return np.meshgrid(self.xs(lattice), self.ys(lattice), indexing="ij")

    def contains(self, x: float, y: float) -> bool:
        return (self.x_range[0] <= x <= self.x_range[1]
                and self.y_range[0] <= y <= self.y_range[1])

    def point(self, basepoint=None) -> tuple[float, float]:
        """``basepoint`` as a pair of floats, or the chart's own basepoint
        when it is ``None``.  A point outside the chart is a ValueError."""
        if basepoint is None:
            return self.basepoint
        x, y = float(basepoint[0]), float(basepoint[1])
        if not self.contains(x, y):
            raise ValueError(f"basepoint {(x, y)} lies outside the chart")
        return (x, y)

    def first_point(self, mask: np.ndarray) -> tuple[float, float]:
        """The sample point of the first ``True`` entry, in row-major
        order, of a mask over the midpoint lattice; the value there is
        ``values[mask][0]``."""
        i, j = np.argwhere(mask)[0]
        return (float(self.xs()[i]), float(self.ys()[j]))

    def with_grid(self, nx: int, ny: int) -> "Chart":
        return Chart(self.x_range, self.y_range, self.periodic_x, self.periodic_y, (nx, ny))


@dataclass(frozen=True)
class OneForm:
    """``p dx + q dy``."""

    p: Expr
    q: Expr

    def __add__(self, other: "OneForm") -> "OneForm":
        return OneForm(self.p + other.p, self.q + other.q)

    def __sub__(self, other: "OneForm") -> "OneForm":
        return OneForm(self.p - other.p, self.q - other.q)

    def __neg__(self) -> "OneForm":
        return OneForm(-self.p, -self.q)

    def scaled(self, factor) -> "OneForm":
        return OneForm(self.p * factor, self.q * factor)


@dataclass(frozen=True)
class TwoForm:
    """``r dx^dy``."""

    r: Expr

    def __add__(self, other: "TwoForm") -> "TwoForm":
        return TwoForm(self.r + other.r)

    def __sub__(self, other: "TwoForm") -> "TwoForm":
        return TwoForm(self.r - other.r)

    def __neg__(self) -> "TwoForm":
        return TwoForm(-self.r)

    def scaled(self, factor) -> "TwoForm":
        return TwoForm(self.r * factor)


# ---------------------------------------------------------------------------
# exterior derivative and wedge


def d0(f: Expr) -> OneForm:
    """Exterior derivative of a scalar field."""
    return OneForm(f.diff("x"), f.diff("y"))


def d1(a: OneForm) -> TwoForm:
    """Exterior derivative of a 1-form: ``(dq/dx - dp/dy) dx^dy``."""
    return TwoForm(a.q.diff("x") - a.p.diff("y"))


def wedge11(a: OneForm, b: OneForm) -> TwoForm:
    """Wedge of two 1-forms: ``(a.p b.q - a.q b.p) dx^dy``."""
    return TwoForm(a.p * b.q - a.q * b.p)


# ---------------------------------------------------------------------------
# grid evaluation


# the open root cache: (chart, lattice) -> (xs, ys, known), open meshes and
# the grid values of the roots evaluated on them by value number
_ROOT_CACHE: ContextVar[dict | None] = ContextVar("metriconn_root_cache", default=None)


@contextmanager
def root_cache():
    """Open a root cache for the length of the block.

    :func:`evaluate_grid` and :func:`evaluate_grid_many` on a (chart,
    lattice) pair, and :func:`integrate2` on a chart periodic in both axes,
    take the values of the roots already evaluated on that pair as
    finished leaves, so a later stage does not recompute the arrays of the
    stages before it.  A root is found by its value number, so a root
    built again with the same structure is found too.  Only roots are
    kept, never the intermediates of a tape, and only on named lattices.  Roots evaluated ahead by
    :func:`prefetch` are kept unchecked, and are checked by the evaluation
    that asks for them.
    The cache lives in a context variable and is gone when the block ends;
    a block opened while a cache is open joins that cache.
    """
    if _ROOT_CACHE.get() is not None:
        yield
        return
    token = _ROOT_CACHE.set({})
    try:
        yield
    finally:
        _ROOT_CACHE.reset(token)


def _lattice(cache: dict, chart: Chart, lattice: str) -> tuple:
    """The open meshes and the known roots of a chart lattice in a cache."""
    entry = cache.get((chart, lattice))
    if entry is None:
        entry = cache[(chart, lattice)] = (*_open_mesh(chart, lattice), {})
    return entry


def prefetch(exprs, chart: Chart) -> None:
    """Evaluate roots ahead of the stages that ask for them, on the
    ``"mid"`` lattice.

    ``exprs`` is an expression, a form, or any nesting of them, as for
    :func:`sup_norm`.  Outside :func:`root_cache` this does nothing.
    Inside it, all the roots run as one tape, so an intermediate they
    share is computed once, and their raw values join
    the lattice's known roots unchecked.  A later :func:`evaluate_grid_many` or
    :func:`sup_norm` takes them as leaves and checks them then: a guard
    that fails, or a DomainError, comes from the stage that asks, at the
    point it names without the prefetch.
    """
    cache = _ROOT_CACHE.get()
    if cache is None:
        return
    xs, ys, known = _lattice(cache, chart, "mid")
    with np.errstate(all="ignore"):
        eval_grid_many(_flatten_exprs(exprs), xs, ys, known)


def _checked(expr: Expr, raw, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """A tape value as a read-only view of the shape of the samples, the
    broadcast of the open meshes ``xs`` and ``ys``.  The value is tested on
    its own (smaller) shape; for a sample outside the expression's domain,
    the first in row-major order of the broadcast shape is located and a
    DomainError raised there."""
    shape = np.broadcast(xs, ys).shape
    raw = np.asarray(raw, dtype=float)
    if not np.all(np.isfinite(raw)):
        idx = tuple(np.argwhere(~np.isfinite(np.broadcast_to(raw, shape)))[0])
        x = float(np.broadcast_to(xs, shape)[idx])
        y = float(np.broadcast_to(ys, shape)[idx])
        expr.eval(x, y)
        raise DomainError(x, y, expr, "non-finite value")
    return np.broadcast_to(raw, shape)


def _evaluate_on(exprs, xs: np.ndarray, ys: np.ndarray, known=None) -> list[np.ndarray]:
    """Evaluate expressions on open meshes as one tape, checked in order.
    ``known`` holds the roots already evaluated on these meshes."""
    with np.errstate(all="ignore"):
        raws = eval_grid_many(exprs, xs, ys, known)
    return [_checked(e, raw, xs, ys) for e, raw in zip(exprs, raws)]


def evaluate_grid(expr: Expr, chart: Chart, lattice: str = "mid") -> np.ndarray:
    """Evaluate an expression on the chart's sample grid (shape ``nx x ny``)."""
    return evaluate_grid_many([expr], chart, lattice)[0]


def evaluate_grid_many(exprs, chart: Chart, lattice: str = "mid") -> list[np.ndarray]:
    """Evaluate several expressions on the chart's sample grid.

    All of them run as one value-numbered tape: a node shared between them,
    or built twice with the same structure, is computed once, and each
    intermediate array is dropped after its last use.  Inside
    :func:`root_cache` the roots evaluated earlier on the same chart lattice
    are reused instead of recomputed.  Each result has shape ``(nx, ny)``
    and is a read-only view, with stride 0 along an axis its expression
    does not depend on.
    """
    exprs = list(exprs)
    cache = _ROOT_CACHE.get()
    if cache is None:
        return _evaluate_on(exprs, *_open_mesh(chart, lattice))
    return _evaluate_on(exprs, *_lattice(cache, chart, lattice))


def _open_mesh(chart: Chart, lattice: str) -> tuple[np.ndarray, np.ndarray]:
    """The chart's samples as open meshes, shapes ``(nx, 1)`` and
    ``(1, ny)``: they broadcast to :meth:`Chart.mesh`."""
    return chart.xs(lattice)[:, None], chart.ys(lattice)[None, :]


def _flatten_exprs(obj) -> list[Expr]:
    if isinstance(obj, Expr):
        return [obj]
    if isinstance(obj, OneForm):
        return [obj.p, obj.q]
    if isinstance(obj, TwoForm):
        return [obj.r]
    out: list[Expr] = []
    for item in obj:
        out.extend(_flatten_exprs(item))
    return out


def sup_norm(obj, chart: Chart) -> float:
    """Max absolute value over the sample grid of an expression, a form, or
    any nesting of them."""
    exprs = _flatten_exprs(obj)
    if not exprs:
        return 0.0
    arrays = evaluate_grid_many(exprs, chart)
    return float(max(np.max(np.abs(a)) for a in arrays))


# ---------------------------------------------------------------------------
# quadrature

_GAUSS2 = 0.5 / math.sqrt(3.0)


def _axis_rule(x0: float, h: float, n: int, periodic: bool) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature nodes and weights along one axis.

    Periodic axes use the composite midpoint rule (spectrally accurate for
    smooth periodic integrands over the half-open cell).  Non-periodic axes
    use two-point Gauss-Legendre per cell, which is fourth order.
    """
    mids = x0 + (np.arange(n) + 0.5) * h
    if periodic:
        return mids, np.full(n, h)
    nodes = np.empty(2 * n)
    nodes[0::2] = mids - _GAUSS2 * h
    nodes[1::2] = mids + _GAUSS2 * h
    return nodes, np.full(2 * n, h / 2.0)


def _stored(values: np.ndarray) -> np.ndarray:
    """A grid result laid out as the tape on full meshes left it, for a
    BLAS reduction, which may round a stride-0 axis differently from a
    stored one: a value computed along an axis is copied to a contiguous
    array; a constant stays a stride-0 view."""
    return np.ascontiguousarray(values) if any(values.strides) else values


def integrate2(w: TwoForm, chart: Chart) -> float:
    """Integrate a 2-form over the chart.

    Weights are applied with a dot-product reduction (pairwise summation),
    so the result is deterministic for a given grid.  On a chart periodic
    in both axes the quadrature nodes are the ``"mid"`` lattice, so the
    integrand is evaluated there with :func:`evaluate_grid_many`: inside
    :func:`root_cache` a root evaluated (or prefetched) on that lattice is
    taken as it is.
    """
    xq, wx = _axis_rule(chart.x_range[0], chart.hx, chart.nx, chart.periodic_x)
    yq, wy = _axis_rule(chart.y_range[0], chart.hy, chart.ny, chart.periodic_y)
    if chart.periodic_x and chart.periodic_y:
        [values] = evaluate_grid_many([w.r], chart)
    else:
        [values] = _evaluate_on([w.r], xq[:, None], yq[None, :])
    return float(wx @ _stored(values) @ wy)


def line_integral(a: OneForm, vertices, panels: int = 128) -> float:
    """Integrate a 1-form along an axis-aligned polyline.

    Each segment uses composite Simpson quadrature with ``panels``
    subintervals, which is exact for polynomial coefficients of degree <= 3.
    """
    pts = [(float(px), float(py)) for (px, py) in vertices]
    if len(pts) < 2:
        raise ValueError("a polyline needs at least two vertices")
    if panels % 2:
        panels += 1
    weights = np.full(panels + 1, 2.0)
    weights[1::2] = 4.0
    weights[0] = weights[-1] = 1.0
    total = 0.0
    for (xa, ya), (xb, yb) in zip(pts, pts[1:]):
        if xa != xb and ya != yb:
            raise ValueError(f"segment ({xa},{ya})-({xb},{yb}) is not axis-aligned")
        if xa == xb and ya == yb:
            continue
        if ya == yb:  # horizontal: integrate p dx
            ts = np.linspace(xa, xb, panels + 1)
            [values] = _evaluate_on([a.p], ts, np.full(panels + 1, ya))
            h = (xb - xa) / panels
        else:  # vertical: integrate q dy
            ts = np.linspace(ya, yb, panels + 1)
            [values] = _evaluate_on([a.q], np.full(panels + 1, xa), ts)
            h = (yb - ya) / panels
        total += float(weights @ values) * h / 3.0
    return total


# ---------------------------------------------------------------------------
# potentials of closed 1-forms

_GL4_NODES, _GL4_WEIGHTS = np.polynomial.legendre.leggauss(4)


def _cumulative_line_integral(expr: Expr, nodes: np.ndarray, other: np.ndarray,
                              along_x: bool) -> np.ndarray:
    """Cumulative integral of an expression along gridlines.

    ``nodes`` are the integration coordinates; ``other`` the fixed
    coordinate of each line.  Returns shape ``(len(other), len(nodes))``
    with zeros in column 0; four-point Gauss-Legendre per node interval.
    """
    h = nodes[1] - nodes[0]
    mid = (nodes[:-1] + nodes[1:]) / 2.0
    ts = (mid[:, None] + (h / 2.0) * _GL4_NODES[None, :]).ravel()
    lines, samples = other[:, None], ts[None, :]
    [values] = _evaluate_on([expr], *((samples, lines) if along_x else (lines, samples)))
    per_interval = _stored(values).reshape(len(other), len(mid), 4) @ _GL4_WEIGHTS * (h / 2.0)
    out = np.zeros((len(other), len(nodes)))
    np.cumsum(per_interval, axis=1, out=out[:, 1:])
    return out


def potential_on_grid(a: OneForm, chart: Chart, basepoint=None) -> np.ndarray:
    """Integrate a 1-form from the basepoint along the x-gridline and then
    up y-gridlines, sampled on the node lattice (zero at the basepoint).

    The result is a potential of the form only where the form is closed;
    the caller owns that check.
    """
    xs = chart.xs("node")
    ys = chart.ys("node")
    x0, y0 = chart.basepoint
    base_row = _cumulative_line_integral(a.p, xs, np.array([y0]), True)[0]
    columns = _cumulative_line_integral(a.q, ys, xs, False)
    samples = base_row[:, None] + columns
    xb, yb = chart.point(basepoint)
    if (xb, yb) != (x0, y0):
        offset = line_integral(a, [(x0, y0), (xb, y0), (xb, yb)],
                               panels=4 * max(chart.nx, chart.ny))
        samples = samples - offset
    return samples


def generator_loop_integrals(a: OneForm, chart: Chart) -> tuple[float, float]:
    """Loop integrals of a 1-form around the periodic generators through the
    basepoint (zero on non-periodic axes).  A nonzero loop integral of a
    closed form obstructs any single-valued potential on the chart."""
    x0, y0 = chart.basepoint
    defect_x = defect_y = 0.0
    if chart.periodic_x:
        defect_x = line_integral(a, [(x0, y0), (chart.x_range[1], y0)],
                                 panels=4 * chart.nx)
    if chart.periodic_y:
        defect_y = line_integral(a, [(x0, y0), (x0, chart.y_range[1])],
                                 panels=4 * chart.ny)
    return (defect_x, defect_y)


# ---------------------------------------------------------------------------
# finite differences on sampled fields

_CENTRAL7 = np.array([-1.0, 9.0, -45.0, 0.0, 45.0, -9.0, 1.0]) / 60.0


def _onesided_weights(position: int) -> np.ndarray:
    # first-derivative weights on the 7 nodes 0..6, evaluated at `position`
    offsets = np.arange(7.0) - position
    van = np.vander(offsets, increasing=True).T
    rhs = np.zeros(7)
    rhs[1] = 1.0
    return np.linalg.solve(van, rhs)


def grid_derivative(values: np.ndarray, h: float, axis: int) -> np.ndarray:
    """Sixth-order finite-difference first derivative of a sampled field.

    Central stencils inside, one-sided stencils of the same order at the
    three nodes next to each edge, on every axis: a sampled field need not
    be periodic even on a periodic chart.  ``values`` may have trailing
    dimensions (for example sampled matrix fields).
    """
    field = np.moveaxis(np.asarray(values, dtype=float), axis, 0)
    n = field.shape[0]
    if n < 7:
        raise ValueError("need at least 7 samples along the axis")
    out = np.zeros_like(field)      # in the memory order of ``values``, as is the result
    inner = out[3:n - 3]
    term = np.empty_like(inner)
    for k, c in enumerate(_CENTRAL7):
        if c != 0.0:
            np.multiply(field[k:n - 6 + k], c, out=term)
            inner += term
    for pos in range(3):
        w_lo = _onesided_weights(pos)
        w_hi = _onesided_weights(6 - pos)
        out[pos] = np.tensordot(w_lo, field[:7], axes=(0, 0))
        out[n - 1 - pos] = np.tensordot(w_hi, field[n - 7:], axes=(0, 0))
    out /= h
    return np.moveaxis(out, 0, axis)
