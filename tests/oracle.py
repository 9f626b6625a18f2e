"""A 40-digit oracle for the metrizability verdict, for tests only.

:func:`evaluate` computes expression DAGs with mpmath at ``DIGITS``
significant digits, in one walk with the node rules of
``metriconn.expr._scalar``.  :func:`label` uses it to decide, at given
points, the paper's local condition in the given frame.  With the
curvature ``Omega = U dx^dy`` and ``U = [[a, b], [c, -a]]``, a parallel
metric exists near a point exactly when ``tr U = 0``, ``det U > 0`` and

    P = det U (dG0 - theta^T G0 - G0 theta + tr(theta) G0) - 1/2 d(det U) G0 = 0

for both the dx and the dy part, where ``G0 = [[c, -a], [-a, -b]]``.  The
oracle builds ``U``, its derivatives and ``theta`` as expressions (with
the package's ``curvature`` and ``diff``), and everything after them
(``G0``, ``P``, the scale of ``P``) in mpmath from their 40-digit values,
so neither float64 rounding nor the decision's own formulas for ``G0`` and
``P`` enter the label.  It removes rounding, not grid luck: it looks at
the points it is given only.

:func:`parallel_identity_gap` checks, at 40 digits, the identity that
lets the decision skip a compatibility check of the metric it reports:
for ``g = adj S = -sgn(b) G0 / sqrt(det U)``,

    dg - theta^T g - g theta + tr(theta) g = -sgn(b) P / det U^(3/2)

so where ``P`` vanishes, ``exp(L) g`` with ``dL = tr(theta)`` is parallel.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import mpmath

from metriconn.connection import ConnectionMatrix, curvature
from metriconn.expr import Add, Call, Const, Div, Mul, Neg, Pow, Sub, Var, _operands

DIGITS = 40

_BINARY = {Add: operator.add, Sub: operator.sub, Mul: operator.mul, Div: operator.truediv}
_FUNCS = {
    "sin": mpmath.sin, "cos": mpmath.cos, "tan": mpmath.tan,
    "exp": mpmath.exp, "ln": mpmath.log, "sqrt": mpmath.sqrt,
    "sinh": mpmath.sinh, "cosh": mpmath.cosh,
}


def _node(node, args, x, y):
    cls = node.__class__
    if cls is Const:
        return mpmath.mpf(node.value)
    if cls is Var:
        return x if node.name == "x" else y
    if cls is Neg:
        return -args[0]
    if cls is Pow:
        base = args[0]
        if node._int_exponent is not None:
            return base ** node._int_exponent
        if base <= 0:
            raise ArithmeticError("non-positive base with non-integer exponent")
        return mpmath.power(base, mpmath.mpf(node.exponent))
    if cls is Call:
        v = args[0]
        if (node.name == "ln" and v <= 0) or (node.name == "sqrt" and v < 0):
            raise ArithmeticError(f"{node.name} outside its domain")
        return _FUNCS[node.name](v)
    return _BINARY[cls](args[0], args[1])


def evaluate(roots, x: float, y: float) -> list:
    """The values of ``roots`` at ``(x, y)`` as mpmath numbers of ``DIGITS``
    digits.  One walk over the DAG, operands first; a node shared by
    several roots, or built twice with one structure, is computed once."""
    with mpmath.workdps(DIGITS):
        x, y = mpmath.mpf(x), mpmath.mpf(y)
        values: dict = {}
        stack = list(roots)
        while stack:
            node = stack[-1]
            if node._num in values:
                stack.pop()
                continue
            kids = _operands(node)
            pending = [k for k in kids if k._num not in values]
            if pending:
                stack.extend(pending)
                continue
            stack.pop()
            values[node._num] = _node(node, [values[k._num] for k in kids], x, y)
        return [values[r._num] for r in roots]


# A point whose |U| / (1 + |theta|)^2 is at most FLAT is flat at 40 digits.
FLAT = 1e-30


@dataclass(frozen=True)
class Label:
    """The oracle's figures over a set of points: the largest
    ``|U| / (1 + |theta|)^2``, and over the points where that exceeds
    ``FLAT`` the largest ``|P| / (|U|^2 (|U| |theta| + |dU|))``, the
    smallest ``det U / |U|^2`` and the largest ``|tr U| / |U|``, with
    ``|.|`` the largest absolute entry.  Over no such point they are 0,
    infinity and 0."""

    curvature: float
    defect: float
    det_ratio: float
    trace_ratio: float

    def flat(self) -> bool:
        """The curvature vanishes at every point."""
        return self.curvature <= FLAT

    def metric(self, slack: float = 1e-20) -> bool:
        """Every point passes with margin: a parallel metric exists near
        each of them (near a flat point, a parallel frame gives one)."""
        return self.det_ratio > 0 and self.trace_ratio <= slack and self.defect <= slack

    def not_metric(self, tolerance: float = 1e-8) -> bool:
        """Some curved point fails by more than ``tolerance``."""
        return self.det_ratio <= 0 or self.trace_ratio > tolerance or self.defect > tolerance


def _roots(theta: ConnectionMatrix) -> list:
    """``theta``'s 8 coefficients, the 4 entries of ``U`` and their 8
    partial derivatives, as expressions."""
    coefficients = [e for row in theta.entries for f in row for e in (f.p, f.q)]
    u = [f.r for row in curvature(theta).entries for f in row]
    return coefficients + u + [e.diff(v) for e in u for v in ("x", "y")]


def _shifted_residual(dg, t, g):
    """``dg - t^T g - g t + tr(t) g`` for the dx or the dy part ``t`` of
    ``theta``."""
    trace = t[0][0] + t[1][1]
    return [[dg[i][j] + trace * g[i][j]
             - sum(t[m][i] * g[m][j] + g[i][m] * t[m][j] for m in range(2))
             for j in range(2)] for i in range(2)]


def _condition(values):
    """At one point, from the values of :func:`_roots`: ``theta`` as
    ``t[k][i][j]`` (``k = 0`` for dx, 1 for dy), ``b``, ``det U`` and
    ``P[k][i][j]``."""
    t = [[[values[4 * i + 2 * j + k] for j in range(2)] for i in range(2)] for k in range(2)]
    u11, u12, u21, u22 = values[8:12]
    du = values[12:20]
    a, b, c = (u11 - u22) / 2, u12, u21
    det = -(a * a + b * c)
    g0 = [[c, -a], [-a, -b]]
    p = []
    for k in range(2):
        d11, d12, d21, d22 = du[k], du[2 + k], du[4 + k], du[6 + k]
        da, db, dc = (d11 - d22) / 2, d12, d21
        ddet = -(2 * a * da + b * dc + c * db)
        r = _shifted_residual([[dc, -da], [-da, -db]], t[k], g0)
        p.append([[det * r[i][j] - ddet * g0[i][j] / 2 for j in range(2)] for i in range(2)])
    return t, b, det, p


def _figures(values):
    """``(curvature, defect, det ratio, trace ratio)`` at one point from the
    values of :func:`_roots`."""
    u = values[8:12]
    u_abs = max(abs(v) for v in u)
    theta_abs = max(abs(v) for v in values[:8])
    du_abs = max(abs(v) for v in values[12:20])
    curvature_ratio = u_abs / (1 + theta_abs) ** 2
    if not u_abs:
        return curvature_ratio, 0, 0, 0
    _, _, det, p = _condition(values)
    defect = max(abs(v) for part in p for row in part for v in row)
    scale = u_abs * u_abs * (u_abs * theta_abs + du_abs)
    return (curvature_ratio, defect / scale if scale else mpmath.mpf(0),
            det / (u_abs * u_abs), abs(u[0] + u[3]) / u_abs)


def label(theta: ConnectionMatrix, points) -> Label:
    """The oracle's figures for ``theta`` over ``points``, pairs ``(x, y)``."""
    roots = _roots(theta)
    with mpmath.workdps(DIGITS):
        figures = [_figures(evaluate(roots, x, y)) for x, y in points]
        curved = [f for f in figures if f[0] > FLAT]
        return Label(float(max(f[0] for f in figures)),
                     float(max((f[1] for f in curved), default=0)),
                     float(min((f[2] for f in curved), default=mpmath.inf)),
                     float(max((f[3] for f in curved), default=0)))


def parallel_identity_gap(theta: ConnectionMatrix, metric, points) -> tuple[float, float]:
    """How far the trace-shifted compatibility residual of ``metric``,
    ``dg - theta^T g - g theta + tr(theta) g``, is from
    ``-sgn(b) P / det U^(3/2)`` at 40 digits, and how large the latter is:
    the largest entry of each over ``points``, relative to
    ``|dg| + |theta| |g|``.  For ``g = adj S`` the two are equal, so the
    test of ``P`` proves that ``g`` times the potential of ``tr(theta)`` is
    parallel."""
    g = [metric.entries[0][0], metric.entries[0][1], metric.entries[1][1]]
    roots = _roots(theta) + g + [e.diff(v) for e in g for v in ("x", "y")]
    gap = size = mpmath.mpf(0)
    with mpmath.workdps(DIGITS):
        for x, y in points:
            values = evaluate(roots, x, y)
            t, b, det, p = _condition(values)
            g11, g12, g22 = values[20:23]
            dg = [[[values[23 + 2 * n + k] for n in row] for row in ((0, 1), (1, 2))]
                  for k in range(2)]
            scale = (max(abs(v) for v in values[23:29])
                     + max(abs(v) for v in values[:8]) * max(abs(g11), abs(g12), abs(g22)))
            for k in range(2):
                r = _shifted_residual(dg[k], t[k], [[g11, g12], [g12, g22]])
                for i in range(2):
                    for j in range(2):
                        expected = -mpmath.sign(b) * p[k][i][j] / det ** 1.5
                        gap = max(gap, abs(r[i][j] - expected) / scale)
                        size = max(size, abs(expected) / scale)
    return float(gap), float(size)
