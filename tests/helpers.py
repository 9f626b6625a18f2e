"""Shared construction helpers for the test suite: random expressions,
random skew connections with nonvanishing sampled curvature, and random
determinant-one gauges."""

from __future__ import annotations

import numpy as np

from metriconn.expr import Const, Expr, X, Y, cos, exp, ln, sin, sqrt
from metriconn.forms import Chart, OneForm, evaluate_grid_many
from metriconn.connection import ConnectionMatrix, FrameChange, curvature, gauge_transform

TAU = 2.0 * np.pi


def torus_chart(grid=(64, 64), periodic=True) -> Chart:
    return Chart((0.0, TAU), (0.0, TAU), periodic, periodic, grid)


def box_chart(half=2.0, grid=(16, 16)) -> Chart:
    return Chart((-half, half), (-half, half), grid=grid)


def zero_form() -> OneForm:
    z = Const(0.0)
    return OneForm(z, z)


def skew_connection(w: OneForm, chart: Chart) -> ConnectionMatrix:
    z = zero_form()
    return ConnectionMatrix(((z, w), (-w, z)), chart)


def trig_poly(rng, amplitude=0.5, degree=2) -> Expr:
    """Random trigonometric polynomial in x and y, frequencies <= degree."""
    acc: Expr = Const(rng.uniform(-amplitude, amplitude))
    for k in range(1, degree + 1):
        for wave in (sin, cos):
            for v in (X, Y):
                acc = acc + wave(v * float(k)) * rng.uniform(-amplitude, amplitude)
    for _ in range(2):
        kx = int(rng.integers(1, degree + 1))
        ky = int(rng.integers(1, degree + 1))
        f1 = sin if rng.integers(2) else cos
        f2 = sin if rng.integers(2) else cos
        acc = acc + f1(X * float(kx)) * f2(Y * float(ky)) * rng.uniform(-amplitude, amplitude)
    return acc


def random_skew_connection(rng, chart: Chart, min_curvature_ratio=3e-4,
                           max_attempts=500) -> ConnectionMatrix:
    """Skew connection with trig-polynomial coefficients whose curvature is
    bounded away from zero at every grid sample.

    A periodic trig-polynomial curvature has zero mean, so its zero curve
    always crosses the chart and typically passes within ~1e-4 of the
    closest sample; draws are rejected until the sampled minimum clears the
    floor, which keeps round-off amplification (~eps * max/min) orders of
    magnitude below the 1e-8 residual budget downstream."""
    for _ in range(max_attempts):
        w = OneForm(trig_poly(rng), trig_poly(rng))
        theta = skew_connection(w, chart)
        [r] = evaluate_grid_many([curvature(theta).entries[0][1].r], chart)
        lo = float(np.min(np.abs(r)))
        hi = float(np.max(np.abs(r)))
        if hi > 0.1 and lo >= min_curvature_ratio * hi:
            return theta
    raise RuntimeError("no usable skew connection after max_attempts draws")


def random_gauge(rng, chart: Chart) -> FrameChange:
    """Determinant-one frame change: pointwise rotation by a trig-poly angle
    composed with a unimodular diagonal stretch."""
    phi = trig_poly(rng, amplitude=0.4)
    s = trig_poly(rng, amplitude=0.25)
    grow, shrink = exp(s), exp(-s)
    entries = (
        (cos(phi) * grow, sin(phi) * shrink),
        ((-sin(phi)) * grow, cos(phi) * shrink),
    )
    return FrameChange(entries, chart)


def scrambled_instance(rng, chart: Chart):
    """A gauge-scramble of a random skew connection: returns
    (skew original, gauge, scrambled connection)."""
    theta0 = random_skew_connection(rng, chart)
    frame = random_gauge(rng, chart)
    return theta0, frame, gauge_transform(theta0, frame)


def random_safe_expr(rng, depth=3) -> Expr:
    """Random expression that is smooth and evaluable on [-3, 3]^2."""
    if depth == 0:
        pick = rng.integers(4)
        if pick == 0:
            return X
        if pick == 1:
            return Y
        return Const(round(float(rng.uniform(-2.0, 2.0)), 3))
    a = random_safe_expr(rng, depth - 1)
    b = random_safe_expr(rng, depth - 1)
    pick = rng.integers(10)
    if pick == 0:
        return a + b
    if pick == 1:
        return a - b
    if pick == 2:
        return a * b
    if pick == 3:
        return sin(a)
    if pick == 4:
        return cos(a)
    if pick == 5:
        return exp(a * 0.2)
    if pick == 6:
        return sqrt(Const(2.5) + sin(a))
    if pick == 7:
        return a / (Const(3.0) + cos(b))
    if pick == 8:
        return a ** int(rng.integers(2, 4))
    return ln(Const(3.5) + sin(a))


def random_points(rng, n, half=2.0):
    return [(float(x), float(y)) for x, y in rng.uniform(-half, half, size=(n, 2))]


def random_det_one_matrix(rng) -> np.ndarray:
    """Random real 2x2 matrix normalized to determinant one."""
    while True:
        m = rng.normal(size=(2, 2))
        det = np.linalg.det(m)
        if abs(det) > 0.1:
            m = m / np.sqrt(abs(det))
            if det < 0:
                m[:, 1] = -m[:, 1]
            return m


def random_traceless_positive(rng) -> np.ndarray:
    """Random traceless 2x2 matrix with positive determinant."""
    a = rng.uniform(-1.0, 1.0)
    b = rng.uniform(0.2, 2.0) * (1 if rng.integers(2) else -1)
    det = rng.uniform(0.1, 2.0)
    c = -(a * a + det) / b
    return np.array([[a, b], [c, -a]])


def random_spd_det_one(rng) -> np.ndarray:
    m = random_det_one_matrix(rng)
    s = m @ m.T
    return s / np.sqrt(np.linalg.det(s))


def symmetric_part_sup(theta: ConnectionMatrix) -> float:
    """Max over the grid of the symmetric part of a connection matrix."""
    from metriconn.forms import sup_norm
    forms = []
    for i in range(theta.m):
        for j in range(i, theta.m):
            forms.append(theta.entries[i][j] + theta.entries[j][i])
    return sup_norm(forms, theta.chart)


# ---------------------------------------------------------------------------
# reference grid evaluator


def reference_eval_grid(e: Expr, xs, ys, memo=None):
    """The recursive tree walk that evaluated expressions on grids before the
    tape engine, kept as the reference the engine must match bit for bit:
    the same numpy operation per node type, a shared ``id()`` memo, no
    domain checks."""
    from metriconn import expr as ex

    if memo is None:
        memo = {}
    hit = memo.get(id(e))
    if hit is not None:
        return hit

    def sub(node):
        return reference_eval_grid(node, xs, ys, memo)

    if isinstance(e, ex.Const):
        out = e.value
    elif isinstance(e, ex.Var):
        out = xs if e.name == "x" else ys
    elif isinstance(e, ex.Neg):
        out = -sub(e.arg)
    elif isinstance(e, ex.Add):
        out = sub(e.left) + sub(e.right)
    elif isinstance(e, ex.Sub):
        out = sub(e.left) - sub(e.right)
    elif isinstance(e, ex.Mul):
        out = sub(e.left) * sub(e.right)
    elif isinstance(e, ex.Div):
        out = sub(e.left) / sub(e.right)
    elif isinstance(e, ex.Pow):
        b = sub(e.base)
        n = e._int_exponent
        if n is not None:
            out = np.power(b, n, dtype=float) if isinstance(b, np.ndarray) else float(b) ** n
        else:
            out = np.power(b, e.exponent)
    elif isinstance(e, ex.Call):
        out = _REFERENCE_FUNCS[e.name](sub(e.arg))
    else:
        raise TypeError(f"cannot evaluate {type(e).__name__}")
    memo[id(e)] = out
    return out


_REFERENCE_FUNCS = {
    "sin": np.sin, "cos": np.cos, "tan": np.tan,
    "exp": np.exp, "ln": np.log, "sqrt": np.sqrt,
    "sinh": np.sinh, "cosh": np.cosh,
}
