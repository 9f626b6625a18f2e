"""Acceptance gate: one test per criterion, each printing a PASS line with
its measured margin (visible with ``pytest -s`` or ``-rP``).

1. round-trip soundness on 100 gauge-scrambled skew connections
2. rejection correctness of the two negative instances through the CLI
3. matrix-kernel residuals over 1000 random draws each
4. the flat torus example: exact curvature, transport growth, loop defect
5. semi-symmetric construction: compatibility and the torsion formula
6. Euler-number equality for metric-equivalent pairs plus the
   interpolation sweep
7. calculus identities: d after d, trace identity, derivative agreement
8. byte-identical machine-readable reports
"""

import io
import json
from pathlib import Path

import numpy as np
import pytest

from metriconn.expr import Const
from metriconn.forms import OneForm, d0, d1, sup_norm
from metriconn.connection import (
    MetricField,
    compatibility_residual,
    curvature,
    interpolate,
    residual_sup,
    trace_connection,
    trace_curvature,
    transport_metric_x,
)
from metriconn.metrizability import (
    Verdict,
    check_metrizability,
    skew_symmetrizer,
    spd_sqrt,
)
from metriconn.volume_euler import euler_form, volume_criterion
from metriconn.gallery import (
    RiemannianMetric2D,
    levi_civita,
    semi_symmetric,
    torsion,
    torus_example,
)
from metriconn.cli import run as cli_run

from helpers import (
    TAU,
    box_chart,
    orthonormal_euler_gap,
    random_det_one_matrix,
    random_points,
    random_safe_expr,
    random_traceless_positive,
    scrambled_instance,
    skew_connection,
    symplectic_identity_residual,
    torus_chart,
    transition_orthogonality,
    trig_poly,
)

SPECS = Path(__file__).resolve().parent.parent / "specs"


def _cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = cli_run(list(argv), out=out, err=err)
    return code, out.getvalue()


def test_acceptance_1_round_trip_soundness():
    rng = np.random.default_rng(2024)
    chart = torus_chart()
    worst = 0.0
    for _ in range(100):
        _, _, theta = scrambled_instance(rng, chart)
        report = check_metrizability(theta)
        assert report.verdict is Verdict.METRIC
        residual = residual_sup(compatibility_residual(theta, report.metric), chart)
        worst = max(worst, residual)
        assert residual <= 1e-8
    print(f"[acceptance] 1. round-trip soundness on 100 scrambles: "
          f"PASS (max compatibility residual {worst:.2e} <= 1e-8)")


def test_acceptance_2_rejection_correctness():
    code, out = _cli("check", str(SPECS / "realeig.conn"), "--json")
    fields = json.loads(out)
    assert code == 1
    assert fields["verdict"] == "NotMetricEigen"
    assert fields["chart.x0"] <= fields["witness.x"] <= fields["chart.x1"]
    assert fields["chart.y0"] <= fields["witness.y"] <= fields["chart.y1"]

    code, out = _cli("check", str(SPECS / "skewfail.conn"), "--json")
    fields = json.loads(out)
    assert code == 1
    assert fields["verdict"] == "NotMetricSkew"
    assert fields["chart.x0"] <= fields["witness.x"] <= fields["chart.x1"]
    assert fields["chart.y0"] <= fields["witness.y"] <= fields["chart.y1"]
    print("[acceptance] 2. rejection correctness: PASS "
          "(NotMetricEigen and NotMetricSkew, exit 1, witnesses in-domain)")


def test_acceptance_3_matrix_kernel_residuals():
    rng = np.random.default_rng(7071)
    chart = torus_chart(grid=(8, 8))

    worst_identity = max(
        symplectic_identity_residual(random_det_one_matrix(rng)) for _ in range(1000))
    assert worst_identity <= 1e-10

    def eval_matrix(matrix):
        return np.array([[matrix[i][j].eval(0.0, 0.0) for j in range(2)]
                         for i in range(2)])

    def const_matrix(values):
        return tuple(tuple(Const(v) for v in row) for row in values)

    def eigenvector_symmetrizer(u):
        _, vectors = np.linalg.eig(u)
        values = np.linalg.eigvals(u)
        k = int(np.argmax(values.imag))
        v = vectors[:, k]
        b = np.column_stack([v.real, v.imag])
        det = np.linalg.det(b)
        b = b / np.sqrt(abs(det))
        if det < 0:
            b[:, 1] = -b[:, 1]
        return b

    worst_lyap = worst_det = worst_sqrt = worst_orth = 0.0
    for _ in range(1000):
        u = random_traceless_positive(rng)
        s_exprs = skew_symmetrizer(const_matrix(u), chart)
        s = eval_matrix(s_exprs)
        worst_lyap = max(worst_lyap, float(np.max(np.abs(u @ s + s @ u.T))))
        worst_det = max(worst_det, abs(float(np.linalg.det(s)) - 1.0))
        a = eval_matrix(spd_sqrt(s_exprs, chart))
        worst_sqrt = max(worst_sqrt, float(np.max(np.abs(a @ a - s))))
        b = eigenvector_symmetrizer(u)
        worst_orth = max(worst_orth, transition_orthogonality(a, b, u))
    assert worst_lyap <= 1e-10
    assert worst_det <= 1e-10
    assert worst_sqrt <= 1e-10
    assert worst_orth <= 1e-9
    print(f"[acceptance] 3. matrix kernels over 1000 draws: PASS "
          f"(identity {worst_identity:.1e}, lyapunov {worst_lyap:.1e}, "
          f"det {worst_det:.1e}, sqrt {worst_sqrt:.1e}, transition {worst_orth:.1e})")


def test_acceptance_4_torus_example():
    theta = torus_example()
    omega = curvature(theta)
    assert all(getattr(f.r, "value", None) == 0.0 for row in omega.entries for f in row)

    report = check_metrizability(theta)
    assert report.verdict is Verdict.FLAT

    growth = transport_metric_x(theta, np.eye(2))[0, 0]
    assert growth == pytest.approx(np.exp(4.0 * np.pi), rel=1e-6)

    volume = volume_criterion(theta)
    assert volume.period_defects[0] == pytest.approx(TAU, abs=1e-9)
    print(f"[acceptance] 4. torus example: PASS (curvature exactly 0, Flat, "
          f"growth/exp(4pi)-1 = {growth / np.exp(4 * np.pi) - 1:.2e}, "
          f"x-defect-2pi = {volume.period_defects[0] - TAU:.2e})")


def test_acceptance_5_semi_symmetric():
    rng = np.random.default_rng(555)
    chart = torus_chart()
    worst_res = worst_torsion = 0.0
    for _ in range(20):
        g = RiemannianMetric2D.from_exprs(
            Const(1.5) + trig_poly(rng, amplitude=0.15),
            trig_poly(rng, amplitude=0.1),
            Const(1.5) + trig_poly(rng, amplitude=0.15),
            chart)
        u = OneForm(trig_poly(rng, amplitude=0.3), trig_poly(rng, amplitude=0.3))
        theta = semi_symmetric(g, u)
        res = residual_sup(compatibility_residual(theta, g.metric), chart)
        worst_res = max(worst_res, res)
        assert res <= 1e-10
        field = torsion(theta)
        # the torsion formula gives T^1_12 = u_2 and T^2_12 = -u_1
        err = sup_norm([field.component(1, 1, 2) - u.q,
                        field.component(2, 1, 2) + u.p], chart)
        worst_torsion = max(worst_torsion, err)
        assert err <= 1e-10
    print(f"[acceptance] 5. semi-symmetric over 20 draws: PASS "
          f"(max residual {worst_res:.1e}, max torsion error {worst_torsion:.1e})")


def _euler_pair_cases(rng, chart):
    identity = MetricField.identity()
    for _ in range(7):
        w1 = OneForm(trig_poly(rng), trig_poly(rng))
        w2 = OneForm(trig_poly(rng, amplitude=0.3), trig_poly(rng, amplitude=0.3))
        yield (skew_connection(w1, chart), skew_connection(w1 + w2, chart), identity)
    for _ in range(3):
        g = RiemannianMetric2D.from_exprs(
            Const(1.5) + trig_poly(rng, amplitude=0.15),
            trig_poly(rng, amplitude=0.1),
            Const(1.5) + trig_poly(rng, amplitude=0.15),
            chart)
        u = OneForm(trig_poly(rng, amplitude=0.25), trig_poly(rng, amplitude=0.25))
        yield (levi_civita(g), semi_symmetric(g, u), g.metric)


def test_acceptance_6_euler_equivalence():
    rng = np.random.default_rng(666)
    chart = torus_chart()
    worst_gap = worst_skew = worst_form_gap = 0.0
    for theta1, theta2, metric in _euler_pair_cases(rng, chart):
        numbers = []
        for t in (0.0, 0.25, 0.5, 0.75, 1.0):
            mixed = interpolate(theta1, theta2, t)
            report = euler_form(mixed, metric)  # raises NotCompatible if not
            # the connection in the metric's orthonormal frame is skew, and
            # the form is its curvature's (1, 2) entry over 2 pi
            skew, form_gap = orthonormal_euler_gap(report, mixed, metric)
            worst_skew = max(worst_skew, skew)
            worst_form_gap = max(worst_form_gap, form_gap)
            assert skew <= 1e-10
            assert form_gap <= 1e-12
            numbers.append(report.euler_number)
        gap = abs(numbers[0] - numbers[-1])
        worst_gap = max(worst_gap, gap)
        assert gap <= 1e-6
        assert max(numbers) - min(numbers) <= 1e-6
    print(f"[acceptance] 6. Euler equivalence over 10 pairs: PASS "
          f"(max |delta Euler| {worst_gap:.1e}, max sweep skew residual "
          f"{worst_skew:.1e}, max gap to the orthonormal frame {worst_form_gap:.1e})")


def test_acceptance_7_calculus_identities():
    rng = np.random.default_rng(777)
    box = box_chart()
    worst_dd = 0.0
    for _ in range(25):
        f = random_safe_expr(rng)
        worst_dd = max(worst_dd, sup_norm(d1(d0(f)), box))
    assert worst_dd <= 1e-12

    chart = torus_chart()
    worst_trace = 0.0
    for _ in range(10):
        _, _, theta = scrambled_instance(rng, chart)
        lhs = trace_curvature(curvature(theta))
        rhs = d1(trace_connection(theta))
        gap = sup_norm(lhs.r - rhs.r, chart)
        scale = 1.0 + sup_norm(lhs, chart)
        worst_trace = max(worst_trace, gap / scale)
        assert gap <= 1e-12 * scale

    h = 1e-5
    worst_fd = 0.0
    for _ in range(100):
        e = random_safe_expr(rng)
        for variable in ("x", "y"):
            d = e.diff(variable)
            for x, y in random_points(rng, 2):
                if variable == "x":
                    fd = (e.eval(x + h, y) - e.eval(x - h, y)) / (2 * h)
                else:
                    fd = (e.eval(x, y + h) - e.eval(x, y - h)) / (2 * h)
                exact = d.eval(x, y)
                gap = abs(exact - fd) / (1.0 + abs(exact))
                worst_fd = max(worst_fd, gap)
                assert gap <= 1e-6
    print(f"[acceptance] 7. calculus identities: PASS (d after d {worst_dd:.1e}, "
          f"trace identity {worst_trace:.1e}, derivative agreement {worst_fd:.1e})")


def test_acceptance_8_deterministic_reports():
    first = _cli("check", str(SPECS / "skew.conn"), "--json")
    second = _cli("check", str(SPECS / "skew.conn"), "--json")
    assert first == second
    third = _cli("check", str(SPECS / "torus.conn"), "--json")
    fourth = _cli("check", str(SPECS / "torus.conn"), "--json")
    assert third == fourth
    print("[acceptance] 8. determinism: PASS (byte-identical JSON reports)")
