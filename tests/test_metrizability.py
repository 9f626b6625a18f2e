import numpy as np
import pytest

from metriconn.expr import Const, X, cos
from metriconn.forms import Chart, OneForm, TwoForm, evaluate_grid_many, sup_norm
from metriconn.connection import (
    ConnectionMatrix,
    CurvatureMatrix,
    FrameChange,
    MetricField,
    compatibility_residual,
    curvature,
    gauge_transform,
    residual_sup,
)
from metriconn.metrizability import (
    DegenerateVolume,
    EigenPreconditionFailed,
    NotSPD,
    Verdict,
    check_metrizability,
    factor_curvature,
    recover_metric,
    skew_symmetrizer,
    spd_sqrt,
    _imaginary_eigenvalues,
)

from helpers import (
    TAU,
    parallel_metric_residual,
    random_det_one_matrix,
    random_spd_det_one,
    random_traceless_positive,
    scrambled_instance,
    skew_connection,
    symplectic_identity_residual,
    torus_chart,
    transition_orthogonality,
    zero_form,
)

ZERO = Const(0.0)
ONE = Const(1.0)


@pytest.fixture(scope="module")
def chart():
    return torus_chart()


# ---------------------------------------------------------------------------
# curvature factoring


def _skew_x_curvature(chart):
    theta = skew_connection(OneForm(ZERO, X), chart)
    return curvature(theta)


def test_factor_curvature_unit_volume(chart):
    coeff = factor_curvature(_skew_x_curvature(chart), TwoForm(ONE))
    assert sup_norm(coeff.matrix[0][1] - ONE, chart) == 0.0
    assert sup_norm(coeff.matrix[1][0] + ONE, chart) == 0.0


def test_factor_curvature_scaling(chart):
    coeff = factor_curvature(_skew_x_curvature(chart), TwoForm(Const(2.0)))
    assert sup_norm(coeff.matrix[0][1] - Const(0.5), chart) <= 1e-15


def test_factor_curvature_degenerate_volume(chart):
    vanishing = TwoForm(X - Const(float(chart.xs()[5])))  # zero on one grid column
    with pytest.raises(DegenerateVolume) as excinfo:
        factor_curvature(_skew_x_curvature(chart), vanishing)
    x, y = excinfo.value.point
    assert chart.contains(x, y)


def _eigen_on_floats(u):
    """The eigenvalue predicate on the float entries of a 2x2 matrix."""
    return _imaginary_eigenvalues(u[0][0], u[0][1], u[1][0], u[1][1], 1.0)


@pytest.mark.parametrize("matrix,expected", [
    ([[0.0, 1.0], [-1.0, 0.0]], True),     # eigenvalues +-i
    ([[0.0, 1.0], [1.0, 0.0]], False),     # det -1, real eigenvalues
    ([[1.0, 1.0], [-1.0, -1.0]], False),   # nilpotent, zero eigenvalues
])
def test_imaginary_eigenvalue_test(matrix, expected):
    ok, _, _, _ = _eigen_on_floats(matrix)
    assert bool(ok) is expected


def test_imaginary_eigenvalue_margins():
    _, trace, det, _ = _eigen_on_floats([[0.0, 2.0], [-3.0, 0.0]])
    assert trace == 0.0
    assert det == 6.0


@pytest.mark.parametrize("u,expected", [
    ([[1e-8, 1.0], [-1.0, 0.0]], True),      # |trace| at its tolerance
    ([[2e-8, 1.0], [-1.0, 0.0]], False),     # |trace| past it
    ([[0.0, 1.0], [-1e-10, 0.0]], True),     # det at its tolerance
    ([[0.0, 1.0], [-5e-11, 0.0]], False),    # det below it
    ([[0.0, 0.0], [0.0, 0.0]], False),       # zero matrix, scale 0
])
def test_eigen_predicate_agrees_on_floats_and_grids(chart, u, expected):
    ok_f, trace_f, det_f, scale_f = _eigen_on_floats(u)
    ok, trace, det, scale = _imaginary_eigenvalues(
        *(np.full(chart.grid, v) for row in u for v in row), 1.0)
    assert bool(ok_f) is expected
    assert np.all(ok == expected)
    assert np.all(trace == trace_f) and np.all(det == det_f)
    assert np.all(scale == scale_f)
    if expected:
        skew_symmetrizer(_const_matrix(u), chart)
    else:
        with pytest.raises(EigenPreconditionFailed):
            skew_symmetrizer(_const_matrix(u), chart)


# ---------------------------------------------------------------------------
# symmetrizer and square root


def _const_matrix(values):
    return tuple(tuple(Const(v) for v in row) for row in values)


def _eval_matrix(matrix, x=0.0, y=0.0):
    return np.array([[matrix[i][j].eval(x, y) for j in range(2)] for i in range(2)])


def test_skew_symmetrizer_rotation(chart):
    s = skew_symmetrizer(_const_matrix([[0.0, 1.0], [-1.0, 0.0]]), chart)
    assert np.allclose(_eval_matrix(s), np.eye(2))


def test_skew_symmetrizer_rectangular(chart):
    u = np.array([[0.0, 2.0], [-1.0, 0.0]])
    s = _eval_matrix(skew_symmetrizer(_const_matrix(u), chart))
    assert np.allclose(s, np.diag([np.sqrt(2.0), np.sqrt(2.0) / 2.0]))
    assert np.max(np.abs(u @ s + s @ u.T)) <= 1e-15
    assert abs(np.linalg.det(s) - 1.0) <= 1e-15


def test_skew_symmetrizer_random_draws(chart):
    rng = np.random.default_rng(53)
    for _ in range(100):
        u = random_traceless_positive(rng)
        s = _eval_matrix(skew_symmetrizer(_const_matrix(u), chart))
        assert np.max(np.abs(u @ s + s @ u.T)) <= 1e-10
        assert abs(np.linalg.det(s) - 1.0) <= 1e-10
        assert s[0, 0] > 0.0


def test_skew_symmetrizer_precondition(chart):
    with pytest.raises(EigenPreconditionFailed):
        skew_symmetrizer(_const_matrix([[0.0, 1.0], [1.0, 0.0]]), chart)


def test_spd_sqrt_identity(chart):
    a = _eval_matrix(spd_sqrt(_const_matrix(np.eye(2)), chart))
    assert np.allclose(a, np.eye(2))


def test_spd_sqrt_diagonal(chart):
    a = _eval_matrix(spd_sqrt(_const_matrix([[4.0, 0.0], [0.0, 0.25]]), chart))
    assert np.allclose(a, np.diag([2.0, 0.5]))


def test_spd_sqrt_random_draws(chart):
    rng = np.random.default_rng(59)
    for _ in range(100):
        s = random_spd_det_one(rng)
        a = _eval_matrix(spd_sqrt(_const_matrix(s), chart))
        assert np.max(np.abs(a @ a - s)) <= 1e-10
        assert abs(np.linalg.det(a) - 1.0) <= 1e-10


def test_spd_sqrt_rejects_indefinite(chart):
    with pytest.raises(NotSPD):
        spd_sqrt(_const_matrix([[1.0, 0.0], [0.0, -1.0]]), chart)


def test_spd_sqrt_guard_is_not_a_recheck(chart):
    # U = [[a, b], [c, -a]] passes the eigenvalue test with det U close to
    # its tolerance; the closed-form S then misses det S = 1 by 4.5e-8, and
    # spd_sqrt's own guard, which allows 1e-8, reports the miss
    a, b, c = -79.98416009221647, -45.81835584694699, 139.62670239919484
    u = [[a, b], [c, -a]]
    assert _eigen_on_floats(u)[0]
    with pytest.raises(NotSPD, match=r"\(det - 1 = 4\.5e-08\)"):
        spd_sqrt(skew_symmetrizer(_const_matrix(u), chart), chart)


def test_recover_metric_examples(chart):
    g = recover_metric(_const_matrix(np.eye(2)))
    assert np.allclose(_eval_matrix(g.entries), np.eye(2))
    root2 = np.sqrt(2.0)
    g = recover_metric(_const_matrix([[root2, 0.0], [0.0, root2 / 2.0]]))
    assert np.allclose(_eval_matrix(g.entries), np.diag([root2 / 2.0, root2]))


# ---------------------------------------------------------------------------
# matrix kernels


def test_symplectic_identity_residual_basics():
    assert symplectic_identity_residual(np.eye(2)) == 0.0
    r = 0.3
    rotation = np.array([[np.cos(r), np.sin(r)], [-np.sin(r), np.cos(r)]])
    assert symplectic_identity_residual(rotation) <= 1e-15


def test_symplectic_identity_residual_random():
    rng = np.random.default_rng(61)
    worst = max(symplectic_identity_residual(random_det_one_matrix(rng))
                for _ in range(1000))
    assert worst <= 1e-10


def test_symplectic_identity_rejects_bad_det():
    with pytest.raises(ValueError):
        symplectic_identity_residual(2.0 * np.eye(2))


def _eigenvector_symmetrizer(u: np.ndarray) -> np.ndarray:
    """Independent conjugator construction: real and imaginary parts of an
    eigenvector of ``u`` give a basis in which ``u`` is a rotation scale."""
    values, vectors = np.linalg.eig(u)
    k = int(np.argmax(values.imag))
    v = vectors[:, k]
    b = np.column_stack([v.real, v.imag])
    det = np.linalg.det(b)
    b = b / np.sqrt(abs(det))
    if det < 0:
        b[:, 1] = -b[:, 1]
    return b


def test_transition_orthogonality_trivial():
    u = np.array([[0.0, 1.5], [-2.0, 0.0]])
    a = _eigenvector_symmetrizer(u)
    assert transition_orthogonality(a, a, u) <= 1e-12


def test_transition_orthogonality_rotation_factor():
    u = np.array([[0.3, 1.5], [-1.2, -0.3]])
    a = _eigenvector_symmetrizer(u)
    r = 1.1
    rotation = np.array([[np.cos(r), np.sin(r)], [-np.sin(r), np.cos(r)]])
    assert transition_orthogonality(a, a @ rotation, u) <= 1e-12


def test_transition_orthogonality_independent_solutions(chart):
    rng = np.random.default_rng(67)
    for _ in range(100):
        u = random_traceless_positive(rng)
        s = _eval_matrix(skew_symmetrizer(_const_matrix(u), chart))
        a = _eval_matrix(spd_sqrt(_const_matrix(s), chart))
        b = _eigenvector_symmetrizer(u)
        assert transition_orthogonality(a, b, u) <= 1e-9


# ---------------------------------------------------------------------------
# the decision pipeline


def test_check_skew_connection_is_metric(chart):
    theta = skew_connection(OneForm(ZERO, X), chart)
    report = check_metrizability(theta)
    assert report.verdict is Verdict.METRIC
    assert np.allclose(_eval_matrix(report.metric.entries, 1.0, 2.0), np.eye(2))
    assert parallel_metric_residual(theta, report) <= 1e-8


def test_check_real_eigenvalues_rejected(chart):
    w = OneForm(ZERO, X)
    theta = ConnectionMatrix(((zero_form(), w), (w, zero_form())), chart)
    report = check_metrizability(theta)
    assert report.verdict is Verdict.NOT_METRIC_EIGEN
    assert report.witness is not None
    x, y = report.witness
    assert chart.contains(x, y)
    assert report.min_det_u < 0.0


def test_check_skew_condition_rejected():
    chart = Chart((-0.9, 0.9), (0.0, TAU), grid=(64, 64))
    w = OneForm(ZERO, X)
    theta = ConnectionMatrix(
        ((OneForm(ONE, ZERO), w), (-w, zero_form())), chart)
    report = check_metrizability(theta)
    assert report.verdict is Verdict.NOT_METRIC_SKEW
    # condition (a) holds: trace 0 and det = 1 - x^2 > 0 on the strip
    assert report.min_det_u > 0.0
    assert report.max_abs_trace_u <= 1e-10
    x, y = report.witness
    assert chart.contains(x, y)


def test_skew_condition_rejection_cross_checked_by_least_squares():
    """Independent oracle for the rejected instance: any parallel metric must
    pointwise solve the curvature Lyapunov equation, which pins G down to
    a scalar factor; minimizing the compatibility residual over that factor
    (log-polynomial of degree 3) stays far from zero."""
    chart = Chart((-0.9, 0.9), (0.0, TAU), grid=(16, 16))
    w = OneForm(ZERO, X)
    theta = ConnectionMatrix(
        ((OneForm(ONE, ZERO), w), (-w, zero_form())), chart)

    xm, ym = chart.mesh()
    # admissible direction from U^T G + G U = 0 with U = [[0,1+x],[x-1,0]]:
    # G = s(x,y) * diag(1, (1+x)/(1-x)); the residual is linear in d(log s)
    m11 = np.ones_like(xm)
    m22 = (1.0 + xm) / (1.0 - xm)
    theta_p = np.array([[np.ones_like(xm), np.zeros_like(xm)],
                        [np.zeros_like(xm), np.zeros_like(xm)]])
    theta_q = np.array([[np.zeros_like(xm), xm], [-xm, np.zeros_like(xm)]])
    dm_x = np.array([[np.zeros_like(xm), np.zeros_like(xm)],
                     [np.zeros_like(xm), 2.0 / (1.0 - xm) ** 2]])
    dm_y = np.zeros_like(dm_x)
    mdiag = np.array([[m11, np.zeros_like(xm)], [np.zeros_like(xm), m22]])

    def residual_terms(mat_p, mat_q):
        # theta^T M + M theta per coefficient, for the fixed diagonal M
        tp = np.einsum("ki...,kj...->ij...", mat_p, mdiag) + \
             np.einsum("ik...,kj...->ij...", mdiag, mat_p)
        tq = np.einsum("ki...,kj...->ij...", mat_q, mdiag) + \
             np.einsum("ik...,kj...->ij...", mdiag, mat_q)
        return tp, tq

    tp, tq = residual_terms(theta_p, theta_q)
    # residual = s * [ d(log s) (x) M + dM - theta^T M - M theta ]; the bracket
    # is linear in the gradient coefficients of log s = sum c_ab x^a y^b
    powers = [(a, b) for a in range(4) for b in range(4) if a + b <= 3]
    rows = []
    rhs = []
    weight = np.ones_like(xm)
    for i in range(2):
        for j in range(2):
            for coeff, diff_x in ((dm_x[i, j] - tp[i, j], True),
                                  (dm_y[i, j] - tq[i, j], False)):
                base = mdiag[i, j]
                cols = []
                for a, b in powers:
                    if diff_x:
                        grad = a * xm ** max(a - 1, 0) * ym ** b if a else 0.0 * xm
                    else:
                        grad = b * xm ** a * ym ** max(b - 1, 0) if b else 0.0 * xm
                    cols.append((grad * base * weight).ravel())
                rows.append(np.stack(cols, axis=1))
                rhs.append((-coeff * weight).ravel())
    a_mat = np.concatenate(rows, axis=0)
    b_vec = np.concatenate(rhs)
    solution, *_ = np.linalg.lstsq(a_mat, b_vec, rcond=None)
    best_residual = np.max(np.abs(a_mat @ solution - b_vec))
    assert best_residual > 0.1  # no admissible metric comes close to parallel


def test_check_flat_connection(chart):
    z = zero_form()
    theta = ConnectionMatrix(((OneForm(ONE, ZERO), z), (z, z)),
                             torus_chart())
    report = check_metrizability(theta)
    assert report.verdict is Verdict.FLAT
    assert report.metric_samples is not None
    assert report.loop_defect > 0.9


def test_check_mixed_curvature_inconclusive():
    chart = Chart((0.0, TAU), (0.0, TAU), grid=(64, 64))
    # the curvature coefficient x - c vanishes exactly on one sample column
    c = float(chart.xs()[10])
    theta = skew_connection(OneForm(ZERO, X * X * Const(0.5) - Const(c) * X), chart)
    [r] = evaluate_grid_many([curvature(theta).entries[0][1].r], chart)
    assert np.any(np.abs(r) <= 1e-9 * (1 + theta.sup()))
    report = check_metrizability(theta)
    assert report.verdict is Verdict.INCONCLUSIVE
    assert 0.0 < report.curvature_zero_fraction < 1.0


def test_check_round_trip_gauge_scramble(chart):
    rng = np.random.default_rng(71)
    for _ in range(5):
        theta0, frame, theta = scrambled_instance(rng, chart)
        report = check_metrizability(theta)
        assert report.verdict is Verdict.METRIC
        residual = compatibility_residual(theta, report.metric)
        assert residual_sup(residual, chart) <= 1e-8


def test_check_volume_scaling_invariance(chart):
    rng = np.random.default_rng(73)
    _, _, theta = scrambled_instance(rng, chart)
    omega = curvature(theta)
    report = check_metrizability(theta)
    for scale in (0.5, 3.0):
        coeff = factor_curvature(omega, TwoForm(Const(scale)))
        s = skew_symmetrizer(coeff.matrix, chart)
        metric = recover_metric(s)
        diff = [
            metric.entries[i][j] - report.metric.entries[i][j]
            for i in range(2) for j in range(2)
        ]
        tol = 1e-9 * (1.0 + sup_norm(report.metric.entries, chart))
        assert sup_norm(diff, chart) <= tol


def test_check_frame_choice_covariance(chart):
    rng = np.random.default_rng(79)
    _, _, theta = scrambled_instance(rng, chart)
    base = check_metrizability(theta)
    angle = 0.7
    q = ((Const(np.cos(angle)), Const(np.sin(angle))),
         (Const(-np.sin(angle)), Const(np.cos(angle))))
    rotated = gauge_transform(theta, FrameChange(q, chart))
    report = check_metrizability(rotated)
    assert report.verdict is Verdict.METRIC
    qm = np.array([[np.cos(angle), np.sin(angle)], [-np.sin(angle), np.cos(angle)]])
    xs = chart.xs()
    ys = chart.ys()
    g_rot = evaluate_grid_many([report.metric.entries[i][j]
                                for i in range(2) for j in range(2)], chart)
    g_base = evaluate_grid_many([base.metric.entries[i][j]
                                 for i in range(2) for j in range(2)], chart)
    rot = np.stack([np.stack(g_rot[:2], -1), np.stack(g_rot[2:], -1)], -2)
    ref = np.stack([np.stack(g_base[:2], -1), np.stack(g_base[2:], -1)], -2)
    conj = np.einsum("ki,...kl,lj->...ij", qm, ref, qm)
    scale = 1.0 + np.max(np.abs(ref))
    assert np.max(np.abs(rot - conj)) <= 1e-8 * scale


def test_check_rejects_rank_mismatch(chart):
    # the bundle has rank 2: each matrix type refuses a 1x1, a 3x3 and a
    # ragged matrix when it is built, before any decision runs
    entries = {ConnectionMatrix: zero_form(), CurvatureMatrix: TwoForm(ZERO),
               FrameChange: ZERO, MetricField: ZERO}
    for cls, entry in entries.items():
        args = () if cls is MetricField else (chart,)
        for rows in ((1,), (3, 3, 3), (2, 1)):
            with pytest.raises(ValueError, match="2x2"):
                cls(tuple((entry,) * n for n in rows), *args)
        assert len(cls(((entry, entry), (entry, entry)), *args).entries) == 2


def test_recovered_metric_expressions_round_trip(chart):
    from metriconn.expr import parse, to_source
    w = OneForm(ZERO, Const(2.0) + cos(X))
    theta0 = skew_connection(w, chart)
    rotation = FrameChange(((cos(X), Const(0.6)), (Const(-0.6), cos(X))), chart)
    report = check_metrizability(gauge_transform(theta0, rotation))
    assert report.verdict is Verdict.METRIC
    points = [(0.3, 0.4), (2.0, 5.1), (4.4, 1.7)]
    for i in range(2):
        for j in range(2):
            entry = report.metric.entries[i][j]
            back = parse(to_source(entry))
            for x, y in points:
                assert back.eval(x, y) == entry.eval(x, y)


def test_check_conformal_metric_branch():
    # the tangent connection of diag(1, exp(2x)) is parallel-metric, but the
    # determinant of its parallel metric is non-constant: the det-1 frame is
    # skew only up to a multiple of the identity and the recovered metric
    # carries a conformal factor
    from metriconn.gallery import hyperbolic_band_metric, levi_civita
    g = hyperbolic_band_metric()
    theta = levi_civita(g)
    report = check_metrizability(theta)
    assert report.verdict is Verdict.METRIC
    assert report.conformal_log is not None
    assert parallel_metric_residual(theta, report) <= 1e-10
    samples = report.metric_grid()
    chart = theta.chart
    xs = chart.xs("node")
    expected = np.stack([
        np.stack([np.ones_like(xs), np.zeros_like(xs)], -1),
        np.stack([np.zeros_like(xs), np.exp(2.0 * xs)], -1),
    ], -2)[:, None, :, :]
    ratio = samples[:, :, 0, 0][0, 0]  # constant overall scale is free
    assert np.max(np.abs(samples / ratio - expected)) <= 1e-6 * np.max(expected)


def test_check_conformal_metric_defect_reported():
    # adding a closed multiple of the identity to a skew connection leaves
    # the curvature untouched but gives the trace a nonzero loop integral
    # around the periodic generator: locally metric, but the conformal
    # factor (hence the metric) cannot close up globally
    chart = torus_chart()
    w = OneForm(ZERO, Const(2.0) + cos(X))
    shift = OneForm(Const(0.3), ZERO)
    theta = ConnectionMatrix(
        ((shift, w), (-w, shift)), chart)
    report = check_metrizability(theta)
    assert report.verdict is Verdict.METRIC
    assert report.conformal_defects is not None
    assert report.conformal_defects[0] == pytest.approx(0.6 * np.pi * 2, abs=1e-9)
    assert any("close up" in note for note in report.notes)
