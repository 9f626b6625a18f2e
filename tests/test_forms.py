import numpy as np
import pytest

from metriconn.expr import Const, DomainError, X, Y, cos, parse, sin
from metriconn.forms import (
    Chart,
    OneForm,
    TwoForm,
    d0,
    d1,
    evaluate_grid,
    integrate2,
    line_integral,
    sup_norm,
    wedge11,
)

from helpers import TAU, box_chart, random_safe_expr, torus_chart


@pytest.fixture(scope="module")
def chart():
    return torus_chart()


@pytest.fixture(scope="module")
def scalar_corpus():
    rng = np.random.default_rng(5)
    fields = [random_safe_expr(rng) for _ in range(12)]
    fields += [
        parse("x*y"),
        parse("exp(x)*sin(y)"),
        parse("sqrt(4 + x^2 + y^2)"),
    ]
    return fields


def test_chart_validation():
    with pytest.raises(ValueError):
        Chart((1.0, 0.0), (0.0, 1.0))
    with pytest.raises(ValueError):
        Chart((0.0, 1.0), (0.0, 1.0), grid=(4, 64))


def test_d0_product(chart):
    df = d0(parse("x*y"))
    assert sup_norm(df.p - Y, chart) == 0.0
    assert sup_norm(df.q - X, chart) == 0.0


def test_d0_constant(chart):
    df = d0(Const(5.0))
    assert sup_norm(df, chart) == 0.0


def test_d0_sin(chart):
    df = d0(sin(X))
    assert sup_norm(df.p - cos(X), chart) == 0.0
    assert sup_norm(df.q, chart) == 0.0


def test_d1_examples(chart):
    zero = Const(0.0)
    assert sup_norm(d1(OneForm(zero, X)).r - Const(1.0), chart) == 0.0
    assert sup_norm(d1(OneForm(Y, zero)).r + Const(1.0), chart) == 0.0


def test_d_after_d_vanishes(scalar_corpus):
    box = box_chart()
    for field in scalar_corpus:
        assert sup_norm(d1(d0(field)), box) <= 1e-12


def test_wedge_examples(chart):
    zero, one = Const(0.0), Const(1.0)
    dx = OneForm(one, zero)
    dy = OneForm(zero, one)
    assert sup_norm(wedge11(dx, dy).r - one, chart) == 0.0
    assert sup_norm(wedge11(dx + dy, dx - dy).r + Const(2.0), chart) == 0.0


def test_wedge_antisymmetry():
    rng = np.random.default_rng(9)
    box = box_chart()
    for _ in range(10):
        a = OneForm(random_safe_expr(rng, 2), random_safe_expr(rng, 2))
        b = OneForm(random_safe_expr(rng, 2), random_safe_expr(rng, 2))
        assert sup_norm(wedge11(a, a), box) == 0.0
        assert sup_norm(wedge11(a, b) + wedge11(b, a), box) <= 1e-12


def test_leibniz_rule():
    rng = np.random.default_rng(21)
    box = box_chart()
    for _ in range(10):
        f = random_safe_expr(rng, 2)
        g = random_safe_expr(rng, 2)
        lhs = d0(f * g)
        rhs = d0(g).scaled(f) + d0(f).scaled(g)
        scale = 1.0 + sup_norm(lhs, box)
        assert sup_norm(lhs - rhs, box) <= 1e-9 * scale


def test_integrate_area(chart):
    assert integrate2(TwoForm(Const(1.0)), chart) == pytest.approx(TAU * TAU, abs=1e-9)


def test_integrate_full_period_sine(chart):
    assert integrate2(TwoForm(sin(X)), chart) == pytest.approx(0.0, abs=1e-9)


def test_integrate_cos_cos_box():
    box = Chart((0.0, np.pi / 2), (0.0, np.pi / 2), grid=(128, 128))
    value = integrate2(TwoForm(parse("cos(x)*cos(y)")), box)
    # oracle: the closed-form antiderivative gives sin(pi/2)^2 = 1
    assert value == pytest.approx(1.0, abs=1e-6)


def test_integrate_domain_error_propagates():
    box = Chart((-1.0, 1.0), (-1.0, 1.0))
    with pytest.raises(DomainError):
        integrate2(TwoForm(parse("ln(x)")), box)


def test_quadrature_convergence(chart):
    w = TwoForm(parse("exp(sin(x))*cos(2*y) + cos(x)"))
    results = [integrate2(w, chart.with_grid(n, n)) for n in (16, 32, 64)]
    diffs = [abs(a - b) for a, b in zip(results, results[1:])]
    assert diffs[1] <= diffs[0]
    assert diffs[1] <= 1e-6 * (1.0 + abs(results[-1]))


def test_line_integral_dx(chart):
    dx = OneForm(Const(1.0), Const(0.0))
    assert line_integral(dx, [(0.0, 1.0), (TAU, 1.0)]) == pytest.approx(TAU, abs=1e-9)


def test_line_integral_x_dy(chart):
    form = OneForm(Const(0.0), X)
    assert line_integral(form, [(3.0, 0.0), (3.0, 1.0)]) == pytest.approx(3.0, abs=1e-9)


def test_line_integral_fundamental_theorem():
    rng = np.random.default_rng(31)
    for _ in range(8):
        f = random_safe_expr(rng)
        form = d0(f)
        path = [(0.1, 0.2), (1.4, 0.2), (1.4, -0.7), (-0.3, -0.7)]
        expected = f.eval(*path[-1]) - f.eval(*path[0])
        assert line_integral(form, path) == pytest.approx(expected, abs=1e-6)


def test_line_integral_rejects_diagonal():
    with pytest.raises(ValueError):
        line_integral(OneForm(Const(1.0), Const(0.0)), [(0.0, 0.0), (1.0, 1.0)])


def test_evaluate_grid_shape(chart):
    arr = evaluate_grid(sin(X) * cos(Y), chart)
    assert arr.shape == (chart.nx, chart.ny)
    xs, ys = chart.mesh()
    assert np.allclose(arr, np.sin(xs) * np.cos(ys))
