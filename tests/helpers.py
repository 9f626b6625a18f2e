"""Shared construction helpers for the test suite: random expressions,
random skew connections with nonvanishing sampled curvature, and random
determinant-one gauges."""

from __future__ import annotations

import math

import numpy as np

from metriconn.expr import ONE, ZERO, Const, Expr, X, Y, cos, eval_grid_many, exp, ln, sin, sqrt
from metriconn.expr import (
    _CONSTANTS, _TOKEN_RE, FUNCTIONS, ParseError,
    _add, _call, _div, _mul, _neg, _pow, _sub,
)
from metriconn.forms import Chart, OneForm, evaluate_grid_many, grid_derivative
from metriconn.connection import (
    RK4_SUBSTEPS, ConnectionMatrix, FrameChange, _coefficient_samples,
    compatibility_residual, curvature, gauge_transform, residual_sup, trace_connection,
)

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


def scrambled_instance(rng, chart: Chart, min_curvature_ratio=3e-4):
    """A gauge-scramble of a random skew connection: returns
    (skew original, gauge, scrambled connection).  The curvature floor is
    that of :func:`random_skew_connection`; 0 draws without one."""
    theta0 = random_skew_connection(rng, chart, min_curvature_ratio)
    frame = random_gauge(rng, chart)
    return theta0, frame, gauge_transform(theta0, frame)


def scrambled_flat_connection(chart: Chart) -> ConnectionMatrix:
    """A gauge of the zero connection: flat, with coefficients that depend on
    both axes, and a parallel frame that undoes the gauge."""
    frame = FrameChange(((cos(X) * exp(sin(Y) * 0.2), sin(X)),
                         ((-sin(X)), cos(X) * exp(sin(Y) * -0.2))), chart)
    z = zero_form()
    return gauge_transform(ConnectionMatrix(((z, z), (z, z)), chart), frame)


def commuting_flat_connection(rng, chart: Chart) -> ConnectionMatrix:
    """``f(x) M1 dx + g(y) M2 dy`` with ``M2 = alpha I + beta M1``: the two
    coefficient matrices commute, so the connection is flat."""
    a = rng.uniform(-0.5, 0.5, 3)
    c = rng.uniform(-0.5, 0.5, 3)
    f = Const(a[0]) + Const(a[1]) * sin(X) + Const(a[2]) * cos(X * 2.0)
    g = Const(c[0]) + Const(c[1]) * cos(Y) + Const(c[2]) * sin(Y * 2.0)
    m1 = rng.uniform(-1.0, 1.0, (2, 2))
    m2 = rng.uniform(-0.5, 0.5) * np.eye(2) + rng.uniform(-1.0, 1.0) * m1
    return ConnectionMatrix(tuple(
        tuple(OneForm(f * Const(m1[i, j]), g * Const(m2[i, j])) for j in range(2))
        for i in range(2)), chart)


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


# ---------------------------------------------------------------------------
# matrix kernels (pointwise, numeric): independent checks of the closed-form
# symmetrizer and square root on float matrices

_J = np.array([[0.0, 1.0], [-1.0, 0.0]])


def symplectic_identity_residual(x) -> float:
    """Residual of the det-1 identity ``X J X^-1 = X X^T J`` in the max norm."""
    m = np.asarray(x, dtype=float)
    det = float(np.linalg.det(m))
    if abs(det - 1.0) > 1e-12:
        raise ValueError(f"matrix must have determinant 1, got {det!r}")
    lhs = m @ _J @ np.linalg.inv(m)
    rhs = m @ m.T @ _J
    return float(np.max(np.abs(lhs - rhs)))


def transition_orthogonality(a, b, u) -> float:
    """Distance of ``A^-1 B`` from the orthogonal group, for two det-1
    conjugators that both take ``U`` to a skew matrix.

    Raises ``ValueError`` when the preconditions (unit determinants,
    skewness of both conjugates) do not hold.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    u = np.asarray(u, dtype=float)
    for name, m in (("A", a), ("B", b)):
        det = float(np.linalg.det(m))
        if abs(det - 1.0) > 1e-9:
            raise ValueError(f"det {name} = {det!r}, expected 1")
    scale = float(np.max(np.abs(u))) + 1.0
    for name, m in (("A", a), ("B", b)):
        conjugate = np.linalg.inv(m) @ u @ m
        skew = float(np.max(np.abs(conjugate + conjugate.T)))
        if skew > 1e-10 * scale:
            raise ValueError(f"{name}^-1 U {name} is not skew (residual {skew:.3g})")
    s = np.linalg.inv(a) @ b
    return float(np.max(np.abs(s @ s.T - np.eye(2))))


def symmetric_part_sup(theta: ConnectionMatrix) -> float:
    """Max over the grid of the symmetric part of a connection matrix."""
    from metriconn.forms import sup_norm
    forms = []
    for i in range(2):
        for j in range(i, 2):
            forms.append(theta.entries[i][j] + theta.entries[j][i])
    return sup_norm(forms, theta.chart)


def orthonormal_frame(metric):
    """Entries of the frame change making the metric the identity: the
    inverse transpose of the lower-triangular square root of ``G`` (closed
    2x2 form).  The reference for the Euler form: in this frame the
    curvature of a compatible connection is skew, and its (1, 2) entry over
    ``2 pi`` is the Euler form."""
    (g11, g12), (_, g22) = metric.entries
    l11 = sqrt(g11)
    l21 = g12 / l11
    l22 = sqrt(g22 - l21 * l21)
    inv_l11 = Const(1.0) / l11
    inv_l22 = Const(1.0) / l22
    upper = (-(l21) / (l11 * l22))
    return ((inv_l11, upper), (Const(0.0), inv_l22))


def orthonormal_euler_gap(report, theta: ConnectionMatrix, metric) -> tuple[float, float]:
    """How far an Euler report is from the orthonormal-frame reference:
    the largest symmetric part of ``theta`` in the frame of
    :func:`orthonormal_frame` (its skew residual), and the largest
    pointwise gap, relative to ``1 + sup|reference|``, between the
    report's form and the reference ``curvature(theta')_12 / 2 pi``."""
    chart = theta.chart
    prime = gauge_transform(theta, FrameChange(orthonormal_frame(metric), chart))
    reference = curvature(prime).entries[0][1].r * Const(1.0 / (2.0 * math.pi))
    values, expected = evaluate_grid_many([report.euler_form.r, reference], chart)
    gap = np.max(np.abs(values - expected)) / (1.0 + np.max(np.abs(expected)))
    return symmetric_part_sup(prime), float(gap)


def parallel_metric_residual(theta: ConnectionMatrix, report) -> float:
    """The largest compatibility residual on the grid of the parallel metric
    a ``Metric`` report gives.  With a conformal factor that metric is
    ``exp(L) g`` with ``dL = tr(theta)``, whose residual over ``exp(L)`` is
    the residual of ``g`` plus ``tr(theta) g``; without one it is ``g``."""
    g = report.metric
    residual = compatibility_residual(theta, g)
    if report.conformal_log is not None:
        tr = trace_connection(theta)
        residual = tuple(tuple(residual[i][j] + tr.scaled(g.entries[i][j]) for j in range(2))
                         for i in range(2))
    return residual_sup(residual, report.chart)


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


# ---------------------------------------------------------------------------
# reference scalar evaluation and differentiation


def reference_eval(e: Expr, x: float, y: float) -> float:
    """The recursive per-class ``eval`` methods that scalar evaluation had
    before its one walk, kept as the reference it must match: the same
    ``math`` functions and Python operators, and the same
    :class:`DomainError` at the same node.  A shared node is evaluated each
    time it is reached, as before."""
    from metriconn import expr as ex

    if isinstance(e, ex.Const):
        return e.value
    if isinstance(e, ex.Var):
        return x if e.name == "x" else y
    if isinstance(e, ex.Neg):
        return -reference_eval(e.arg, x, y)
    if isinstance(e, ex.Add):
        return reference_eval(e.left, x, y) + reference_eval(e.right, x, y)
    if isinstance(e, ex.Sub):
        return reference_eval(e.left, x, y) - reference_eval(e.right, x, y)
    if isinstance(e, ex.Mul):
        return reference_eval(e.left, x, y) * reference_eval(e.right, x, y)
    if isinstance(e, ex.Div):
        den = reference_eval(e.right, x, y)
        if den == 0.0:
            raise ex.DomainError(x, y, e, "division by zero")
        return reference_eval(e.left, x, y) / den
    if isinstance(e, ex.Pow):
        b = reference_eval(e.base, x, y)
        n = e._int_exponent
        if n is not None:
            if b == 0.0 and n < 0:
                raise ex.DomainError(x, y, e, "zero base with negative exponent")
            try:
                return b ** n
            except OverflowError:
                raise ex.DomainError(x, y, e, "overflow") from None
        if b <= 0.0:
            raise ex.DomainError(x, y, e, "non-positive base with non-integer exponent")
        try:
            return math.pow(b, e.exponent)
        except OverflowError:
            raise ex.DomainError(x, y, e, "overflow") from None
    if isinstance(e, ex.Call):
        v = reference_eval(e.arg, x, y)
        name = e.name
        if name == "ln" and v <= 0.0:
            raise ex.DomainError(x, y, e, "ln of a non-positive value")
        if name == "sqrt" and v < 0.0:
            raise ex.DomainError(x, y, e, "sqrt of a negative value")
        try:
            return _REFERENCE_SCALAR_FUNCS[name](v)
        except OverflowError:
            raise ex.DomainError(x, y, e, "overflow") from None
    raise TypeError(f"cannot evaluate {type(e).__name__}")


_REFERENCE_SCALAR_FUNCS = {
    "sin": math.sin, "cos": math.cos, "tan": math.tan,
    "exp": math.exp, "ln": math.log, "sqrt": math.sqrt,
    "sinh": math.sinh, "cosh": math.cosh,
}


def reference_diff(e: Expr, variable: str, memo=None) -> Expr:
    """The recursive per-class ``_diff`` rules that differentiation had
    before its one walk, kept as the reference it must match structurally.
    The derivatives are kept in ``memo`` by ``id()`` for the length of one
    call, where they were kept on the nodes, so the reference leaves the
    nodes' own caches alone; ``exp`` and ``sqrt`` use their own node."""
    from metriconn import expr as ex

    if memo is None:
        memo = {}
    hit = memo.get(id(e))
    if hit is not None:
        return hit[1]

    def d(node):
        return reference_diff(node, variable, memo)

    if isinstance(e, ex.Const):
        out = ZERO
    elif isinstance(e, ex.Var):
        out = ONE if variable == e.name else ZERO
    elif isinstance(e, ex.Neg):
        out = _neg(d(e.arg))
    elif isinstance(e, ex.Add):
        out = _add(d(e.left), d(e.right))
    elif isinstance(e, ex.Sub):
        out = _sub(d(e.left), d(e.right))
    elif isinstance(e, ex.Mul):
        out = _add(_mul(d(e.left), e.right), _mul(e.left, d(e.right)))
    elif isinstance(e, ex.Div):
        out = _div(_sub(_mul(d(e.left), e.right), _mul(e.left, d(e.right))),
                   _mul(e.right, e.right))
    elif isinstance(e, ex.Pow):
        out = _mul(_mul(Const(e.exponent), _pow(e.base, e.exponent - 1.0)), d(e.base))
    elif isinstance(e, ex.Call):
        u = e.arg
        du = d(u)
        name = e.name
        if name == "sin":
            out = _mul(ex.Call("cos", u), du)
        elif name == "cos":
            out = _neg(_mul(ex.Call("sin", u), du))
        elif name == "tan":
            out = _div(du, _pow(ex.Call("cos", u), 2.0))
        elif name == "exp":
            out = _mul(e, du)
        elif name == "ln":
            out = _div(du, u)
        elif name == "sqrt":
            out = _div(du, _mul(Const(2.0), e))
        elif name == "sinh":
            out = _mul(ex.Call("cosh", u), du)
        else:
            out = _mul(ex.Call("sinh", u), du)
    else:
        raise TypeError(f"cannot differentiate {type(e).__name__}")
    # the node is kept with its derivative, so its id() is not reused
    memo[id(e)] = (e, out)
    return out


# ---------------------------------------------------------------------------
# reference flat frame


def _reference_rk4_step(mat_a, mat_b, mat_c, b, h):
    # one RK4 step of B' = M(t) B given M at t, t + h/2, t + h
    k1 = mat_a @ b
    k2 = mat_b @ (b + (h / 2.0) * k1)
    k3 = mat_b @ (b + (h / 2.0) * k2)
    k4 = mat_c @ (b + h * k3)
    return b + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _reference_samples(coeffs, xmesh, ymesh):
    # an Expr matrix on full meshes, stacked as (*mesh.shape, m, m)
    m = len(coeffs)
    with np.errstate(all="ignore"):
        raws = eval_grid_many([coeffs[i][j] for i in range(m) for j in range(m)],
                              xmesh, ymesh)
    rows = [[np.broadcast_to(np.asarray(raws[i * m + j], dtype=float), xmesh.shape)
             for j in range(m)] for i in range(m)]
    out = np.stack([np.stack(r, axis=-1) for r in rows], axis=-2)
    assert np.all(np.isfinite(out))
    return out


def _reference_line(coeffs, fixed, along_x, t0, t1, steps, b0, h=None, record=False):
    # RK4 along one gridline, 2 substeps of h per node interval (by default
    # an even split of t0..t1); with `record` the frames at every node, else
    # the frame at t1
    steps *= 2
    ts = np.linspace(t0, t1, 2 * steps + 1)
    other = np.full_like(ts, fixed)
    mats = -_reference_samples(coeffs, *((ts, other) if along_x else (other, ts)))
    if h is None:
        h = (t1 - t0) / steps
    out = [b0]
    b = b0
    for k in range(steps):
        b = _reference_rk4_step(mats[2 * k], mats[2 * k + 1], mats[2 * k + 2], b, h)
        if k % 2 == 1:
            out.append(b)
    return np.array(out) if record else b


def reference_flat_frame(theta: ConnectionMatrix, basepoint=None):
    """The parallel frame as it was computed before the lockstep RK4 on
    component arrays: the x-first sweep with one stacked 2x2 matmul per RK4
    stage, the node residual ``dB + theta B`` through stacked matmuls, the
    loop transports, and the metric ``(B B^T)^-1`` through
    ``np.linalg.inv``.
    Returns ``(values, metric, residual, loop_defect)``."""
    chart = theta.chart
    xb, yb = chart.basepoint if basepoint is None else basepoint
    p, q = theta.p_matrix(), theta.q_matrix()
    xs, ys = chart.xs("node"), chart.ys("node")

    def steps_to(t0, t1, h):
        return max(1, int(np.ceil(abs(t1 - t0) / h))) if t1 != t0 else 0

    start = np.eye(2)
    if steps_to(xb, xs[0], chart.hx):
        start = _reference_line(p, yb, True, xb, xs[0], steps_to(xb, xs[0], chart.hx), start)
    row = _reference_line(p, yb, True, xs[0], xs[-1], len(xs) - 1, start, chart.hx / 2,
                          record=True)
    stepsv = 2 * steps_to(yb, ys[0], chart.hy)
    if stepsv:
        xmesh, ymesh = np.meshgrid(xs, np.linspace(yb, ys[0], 2 * stepsv + 1), indexing="ij")
        mats = -_reference_samples(q, xmesh, ymesh)
        h = (ys[0] - yb) / stepsv
        for k in range(stepsv):
            row = _reference_rk4_step(mats[:, 2 * k], mats[:, 2 * k + 1], mats[:, 2 * k + 2],
                                      row, h)
    xmesh, ymesh = np.meshgrid(xs, np.linspace(ys[0], ys[-1], 4 * (len(ys) - 1) + 1),
                               indexing="ij")
    mats = -_reference_samples(q, xmesh, ymesh)
    values = np.empty((len(xs), len(ys), 2, 2))
    values[:, 0] = cur = row
    for j in range(len(ys) - 1):
        for s in range(2):
            k = 2 * (2 * j + s)
            cur = _reference_rk4_step(mats[:, k], mats[:, k + 1], mats[:, k + 2], cur,
                                      chart.hy / 2)
        values[:, j + 1] = cur

    xmesh, ymesh = chart.mesh("node")
    res_x = (grid_derivative(values, chart.hx, 0)
             + _reference_samples(p, xmesh, ymesh) @ values)
    res_y = (grid_derivative(values, chart.hy, 1)
             + _reference_samples(q, xmesh, ymesh) @ values)
    residual = float(max(np.max(np.abs(res_x)), np.max(np.abs(res_y))))

    defect = 0.0
    if chart.periodic_x:
        length = chart.x_range[1] - chart.x_range[0]
        loop = _reference_line(p, yb, True, xb, xb + length, chart.nx, np.eye(2))
        defect = max(defect, float(np.max(np.abs(loop - np.eye(2)))))
    if chart.periodic_y:
        length = chart.y_range[1] - chart.y_range[0]
        loop = _reference_line(q, xb, False, yb, yb + length, chart.ny, np.eye(2))
        defect = max(defect, float(np.max(np.abs(loop - np.eye(2)))))

    metric = np.linalg.inv(values @ np.swapaxes(values, 2, 3))
    return values, metric, residual, defect


def _reference_mul(a, b):
    # the component product of the lockstep RK4 before its buffers: the four
    # products in one broadcast, summed over k into the first half
    prod = a[:, :, None] * b
    out = prod[:, 0]
    out += prod[:, 1]
    return out


def reference_transport(legs) -> list:
    """``connection._transport`` as it was before its RK4 loop wrote into
    buffers allocated once: a fresh array for every stage and every term,
    in the order ``b + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)``.  Legs
    and results as there."""
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
        hs = np.concatenate(hs)
        half, sixth = hs / 2.0, hs / 6.0
        b = out[0]
        for s in range(steps):
            k1 = _reference_mul(mats[:, :, 2 * s], b)
            k2 = _reference_mul(mats[:, :, 2 * s + 1], b + half * k1)
            k3 = _reference_mul(mats[:, :, 2 * s + 1], b + half * k2)
            k4 = _reference_mul(mats[:, :, 2 * s + 2], b + hs * k3)
            b = b + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if (s + 1) % RK4_SUBSTEPS == 0:
                out[(s + 1) // RK4_SUBSTEPS] = b
    return [out[:leg[4] + 1, :, :, lo:hi] for leg, lo, hi in zip(legs, edges, edges[1:])]


# ---------------------------------------------------------------------------
# reference parser


class _ReferenceParser:
    """The recursive-descent parser that read expression text before the
    stack parser, unchanged but for the key of its table of shared
    subtrees, now the value number: it lexes the whole text first, then
    descends one Python frame per grammar level and per parenthesis."""

    def __init__(self, text: str):
        self.text = text
        self.tokens: list[tuple[str, str, int]] = []
        pos = 0
        n = len(text)
        while pos < n:
            if text[pos].isspace():
                pos += 1
                continue
            m = _TOKEN_RE.match(text, pos)
            if m is None:
                raise ParseError(pos, "illegal character", text[pos])
            kind = m.lastgroup
            self.tokens.append((kind, m.group(), pos))
            pos = m.end()
        self.tokens.append(("end", "", n))
        self.index = 0
        # structurally equal subtrees of this one text become one node
        self.shared: dict = {}

    def share(self, node: Expr) -> Expr:
        return self.shared.setdefault(node._num, node)

    def peek(self):
        return self.tokens[self.index]

    def advance(self):
        tok = self.tokens[self.index]
        if tok[0] != "end":
            self.index += 1
        return tok

    def expect_op(self, op: str):
        kind, text, offset = self.peek()
        if kind != "op" or text != op:
            raise ParseError(offset, f"expected {op!r}", text)
        return self.advance()

    # grammar ---------------------------------------------------------------

    def parse_expr(self) -> Expr:
        node = self.parse_term()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.advance()
                rhs = self.parse_term()
                node = self.share(_add(node, rhs) if text == "+" else _sub(node, rhs))
            else:
                return node

    def parse_term(self) -> Expr:
        node = self.parse_factor()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "*/":
                self.advance()
                rhs = self.parse_factor()
                node = self.share(_mul(node, rhs) if text == "*" else _div(node, rhs))
            else:
                return node

    def parse_factor(self) -> Expr:
        base = self.parse_base()
        kind, text, _ = self.peek()
        if kind == "op" and text == "^":
            self.advance()
            _, _, exp_offset = self.peek()
            exponent = self.parse_base()
            if not isinstance(exponent, Const):
                raise ParseError(exp_offset, "exponent must be a constant")
            return self.share(_pow(base, exponent.value))
        return base

    def parse_base(self) -> Expr:
        kind, text, offset = self.advance()
        if kind == "num":
            value = float(text)
            if not math.isfinite(value):
                raise ParseError(offset, f"number {text} is out of range", text)
            return self.share(Const(value))
        if kind == "ident":
            if text in ("x", "y"):
                return X if text == "x" else Y
            if text in _CONSTANTS:
                return self.share(Const(_CONSTANTS[text]))
            if text in FUNCTIONS:
                self.expect_op("(")
                arg = self.parse_expr()
                self.expect_op(")")
                return self.share(_call(text, arg))
            raise ParseError(offset, "unknown identifier", text)
        if kind == "op":
            if text == "-":
                return self.share(_neg(self.parse_base()))
            if text == "(":
                inner = self.parse_expr()
                self.expect_op(")")
                return inner
        raise ParseError(offset, "expected a number, variable, function, or '('", text)


def reference_parse(text: str) -> Expr:
    """The recursive parser that :func:`metriconn.expr.parse` replaced, kept
    as the reference the stack parser must match: the same tree and sharing,
    or the same :class:`ParseError` (offset, message, token)."""
    if not isinstance(text, str):
        raise TypeError("expression source must be a string")
    parser = _ReferenceParser(text)
    kind, _, offset = parser.peek()
    if kind == "end":
        raise ParseError(offset, "empty expression")
    node = parser.parse_expr()
    kind, trailing, offset = parser.peek()
    if kind != "end":
        raise ParseError(offset, "unexpected trailing input", trailing)
    return node
