import copy
import json
import math
import os
import pickle
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

try:
    from hypothesis import given, settings, strategies as st
except ImportError:
    given = None

from metriconn.expr import (
    FUNCTIONS,
    Add,
    Call,
    Const,
    Div,
    DomainError,
    Mul,
    Neg,
    ParseError,
    Pow,
    Sub,
    Var,
    X,
    Y,
    cos,
    cosh,
    eval_grid_many,
    exp,
    ln,
    parse,
    sin,
    sinh,
    sqrt,
    tan,
    to_source,
    to_sources,
)
from metriconn.forms import evaluate_grid_many
from metriconn.metrizability import check_metrizability

from helpers import random_points, random_safe_expr, scrambled_instance, torus_chart


def test_parse_product_structure():
    e = parse("sin(x)*y")
    assert isinstance(e, Mul)
    assert isinstance(e.left, Call) and e.left.name == "sin"
    assert isinstance(e.left.arg, Var) and e.left.arg.name == "x"
    assert isinstance(e.right, Var) and e.right.name == "y"


def test_parse_constant():
    e = parse("2")
    assert isinstance(e, Const)
    assert e.value == 2.0


def test_parse_incomplete_expression():
    with pytest.raises(ParseError) as excinfo:
        parse("x + ")
    assert excinfo.value.offset == 4


@pytest.mark.parametrize("text,offset", [
    ("", 0),
    ("foo(x)", 0),
    ("(x + y", 6),
    ("2 2", 2),
    ("x ^ y", 4),
    ("sin x", 4),
])
def test_parse_errors_carry_offsets(text, offset):
    with pytest.raises(ParseError) as excinfo:
        parse(text)
    assert excinfo.value.offset == offset
    assert 0 <= excinfo.value.offset <= len(text)


def test_reserved_constants():
    assert parse("pi").eval(0.0, 0.0) == math.pi
    assert parse("e").eval(0.0, 0.0) == math.e
    assert parse("cos(pi)").eval(1.0, 1.0) == -1.0


def test_scientific_notation():
    assert parse("1.5e-3").eval(0.0, 0.0) == 1.5e-3
    assert parse("2e2 + .5").eval(0.0, 0.0) == 200.5


def test_constant_exponent_folds():
    e = parse("x^(1+1)")
    assert e.eval(3.0, 0.0) == 9.0


def test_evaluate_polynomial():
    assert parse("x^2 + y").eval(2.0, 3.0) == 7.0


def test_evaluate_exp_zero():
    e = parse("exp(0)")
    assert e.eval(-1.3, 2.4) == 1.0


def test_evaluate_domain_errors():
    with pytest.raises(DomainError) as excinfo:
        parse("ln(x)").eval(-1.0, 0.0)
    assert excinfo.value.point == (-1.0, 0.0)
    with pytest.raises(DomainError):
        parse("1/x").eval(0.0, 1.0)
    with pytest.raises(DomainError):
        parse("sqrt(x)").eval(-0.5, 0.0)
    with pytest.raises(DomainError):
        parse("x^0.5").eval(-2.0, 0.0)
    with pytest.raises(DomainError):
        parse("x^(-1)").eval(0.0, 0.0)


def test_differentiate_product():
    d = parse("x*y").diff("x")
    for x, y in random_points(np.random.default_rng(0), 20):
        assert d.eval(x, y) == y


def test_differentiate_sin():
    d = parse("sin(x)").diff("x")
    for x, y in random_points(np.random.default_rng(1), 20):
        assert d.eval(x, y) == math.cos(x)


def test_differentiate_exp_chain():
    d = parse("exp(2*y)").diff("y")
    for x, y in random_points(np.random.default_rng(2), 20):
        assert math.isclose(d.eval(x, y), 2.0 * math.exp(2.0 * y), rel_tol=1e-15)


def test_derivative_matches_finite_differences():
    rng = np.random.default_rng(7)
    h = 1e-5
    for _ in range(100):
        e = random_safe_expr(rng)
        for variable in ("x", "y"):
            d = e.diff(variable)
            for x, y in random_points(rng, 3):
                if variable == "x":
                    fd = (e.eval(x + h, y) - e.eval(x - h, y)) / (2 * h)
                else:
                    fd = (e.eval(x, y + h) - e.eval(x, y - h)) / (2 * h)
                exact = d.eval(x, y)
                assert abs(exact - fd) <= 1e-6 * (1.0 + abs(exact))


def test_differentiate_total_on_grammar():
    rng = np.random.default_rng(11)
    for _ in range(200):
        e = random_safe_expr(rng, depth=4)
        e.diff("x").diff("y")  # must not raise


def test_linearity_of_differentiation():
    rng = np.random.default_rng(13)
    for _ in range(25):
        e1 = random_safe_expr(rng)
        e2 = random_safe_expr(rng)
        a = float(rng.uniform(-3, 3))
        combined = (e1 * a + e2).diff("x")
        split = e1.diff("x")
        split2 = e2.diff("x")
        for x, y in random_points(rng, 5):
            lhs = combined.eval(x, y)
            rhs = a * split.eval(x, y) + split2.eval(x, y)
            assert abs(lhs - rhs) <= 1e-9 * (1.0 + abs(lhs))


def test_mixed_partials_commute():
    rng = np.random.default_rng(17)
    for _ in range(25):
        e = random_safe_expr(rng)
        dxy = e.diff("x").diff("y")
        dyx = e.diff("y").diff("x")
        for x, y in random_points(rng, 5):
            a, b = dxy.eval(x, y), dyx.eval(x, y)
            assert abs(a - b) <= 1e-9 * (1.0 + abs(a))


def test_constant_folding_preserves_values():
    rng = np.random.default_rng(19)
    for _ in range(50):
        e = random_safe_expr(rng)
        folded = (e + 0) * 1 - 0
        for x, y in random_points(rng, 5):
            assert folded.eval(x, y) == e.eval(x, y)


@pytest.mark.parametrize("text,kept", [
    ("x + 0*(1/0)", "x + 0.0*(1.0/0.0)"),
    ("x + 1e200*1e200*0", "x + 1e+200*1e+200*0.0"),
    ("0*(1/0 + 1)", "0.0*(1.0/0.0 + 1.0)"),
    ("x + (1/0)^0", "x + (1.0/0.0)^0.0"),
    ("x + (1e200*1e200)^0", "x + (1e+200*1e+200)^0.0"),
])
def test_a_zero_does_not_absorb_a_failed_fold(text, kept):
    e = parse(text)
    assert to_source(e) == kept
    # the grid does not hide the constant either: no sample is finite
    xs = np.linspace(1.0, 2.0, 3)
    with np.errstate(all="ignore"):
        [values] = eval_grid_many([e], xs, xs)
    assert not np.any(np.isfinite(values))


@pytest.mark.parametrize("text,folded", [
    ("0*x", "0.0"), ("x*0", "0.0"), ("0*sin(y)*x", "0.0"), ("x^0", "1.0"),
    ("sin(x*y)^0", "1.0"), ("0*(1e200*1e200*x)", "0.0"),
    # undefined only where x <= 0: absorbed, out of reach without an
    # interval evaluation over the chart
    ("ln(x)*0", "0.0"),
])
def test_a_zero_absorbs_a_factor_that_has_a_value(text, folded):
    assert to_source(parse(text)) == folded


DEEP = 10_000


@pytest.mark.parametrize("text", [
    "sin(" * DEEP + "x" + ")" * DEEP,
    "*".join(["x"] * DEEP),
], ids=["nested calls", "product"])
def test_a_deep_expression_differentiates_in_a_variable_it_lacks(text):
    # each rule multiplies a factor by an operand's derivative, the constant
    # 0; whether that factor has a value is known without walking below it,
    # so this walk costs about what the one in x costs (a walk below each
    # factor made it quadratic in the depth: seconds, against milliseconds)
    start = time.perf_counter()
    assert to_source(parse(text).diff("y")) == "0.0"
    in_y = time.perf_counter() - start
    start = time.perf_counter()
    parse(text).diff("x")
    in_x = time.perf_counter() - start
    assert in_y <= 5.0 * in_x + 0.25


def test_print_parse_round_trip():
    rng = np.random.default_rng(23)
    corpus = [random_safe_expr(rng, depth=4) for _ in range(60)]
    corpus += [
        parse("-x^2"),
        parse("x^(-2)"),
        parse("1 - -x"),
        sin(X * 2.0) / (Const(3.0) + exp(Y)),
        (X + Y) ** 3,
        -(X * Y),
    ]
    for e in corpus:
        text = to_source(e)
        back = parse(text)
        for x, y in random_points(rng, 6):
            assert back.eval(x, y) == e.eval(x, y), text


def test_to_sources_renders_each_root_as_to_source():
    # roots that share nodes, that are operands of each other, and repeat
    a = sin(X) * Y
    b = a + 1.0
    c = b * a - exp(b)
    roots = [a, b, c, a, Const(2.5), X]
    assert to_sources(roots) == [to_source(e) for e in roots]
    assert to_sources([]) == []
    # the three entries of a recovered metric, which share most of their nodes
    rng = np.random.default_rng(41)
    _, _, theta = scrambled_instance(rng, torus_chart((16, 16)))
    report = check_metrizability(theta)
    assert report.verdict.value == "Metric"
    (g11, g12), (_, g22) = report.metric.entries
    assert to_sources([g11, g12, g22]) == [to_source(g) for g in (g11, g12, g22)]


def raw_expressions():
    """Trees of every node class built directly, so nothing is folded:
    the eight functions, negative and non-finite exponents, and constants
    with and without a source form."""
    extremes = [math.inf, -math.inf, math.nan, -0.0, 5e-324, 1.7976931348623157e308]
    leaves = st.one_of(
        st.sampled_from([X, Y]),
        st.sampled_from(extremes).map(Const),
        st.floats().map(Const),
    )
    exponents = st.one_of(st.sampled_from([-3.0, -0.5, *extremes]), st.floats())

    def extend(inner):
        return st.one_of(
            inner.map(Neg),
            st.tuples(st.sampled_from([Add, Sub, Mul, Div]), inner, inner)
            .map(lambda t: t[0](t[1], t[2])),
            st.tuples(inner, exponents).map(lambda t: Pow(*t)),
            st.tuples(st.sampled_from(FUNCTIONS), inner).map(lambda t: Call(t[0], t[1])),
        )

    return st.recursive(leaves, extend, max_leaves=16)


@pytest.mark.skipif(given is None, reason="needs Hypothesis")
def test_source_text_is_its_own_json_string_body():
    # the CLI writes this text into its --json report without escaping it
    def assert_plain(text):
        assert text.isascii()
        assert json.dumps(text) == '"' + text + '"'

    @settings(max_examples=300, deadline=None)
    @given(st.lists(raw_expressions(), min_size=1, max_size=4))
    def check(roots):
        roots.append(Mul(roots[0], Neg(roots[-1])))   # a root sharing the others' nodes
        for text in to_sources(roots):
            assert_plain(text)
        assert_plain(to_source(roots[-1]))

    check()


def smart_expressions():
    """Expressions built with the smart constructors (so folded, absorbed
    and with double negation removed) from x, y and finite constants."""
    leaves = st.one_of(
        st.sampled_from([X, Y]),
        st.floats(-1e6, 1e6, allow_nan=False).map(Const),
    )
    unary = [sin, cos, tan, exp, ln, sqrt, sinh, cosh, lambda e: -e]
    binary = [lambda a, b: a + b, lambda a, b: a - b,
              lambda a, b: a * b, lambda a, b: a / b]
    exponents = st.sampled_from([-3.0, -2.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 7.0])

    def extend(inner):
        return st.one_of(
            st.tuples(st.sampled_from(unary), inner).map(lambda t: t[0](t[1])),
            st.tuples(st.sampled_from(binary), inner, inner).map(lambda t: t[0](t[1], t[2])),
            st.tuples(inner, exponents).map(lambda t: t[0] ** t[1]),
        )

    return st.recursive(leaves, extend, max_leaves=24)


@pytest.mark.skipif(given is None, reason="needs Hypothesis")
def test_print_parse_round_trip_property():
    xs, ys = np.meshgrid([-2.5, -1.0, -0.3, 0.0, 0.7, 1.9], [-1.7, 0.0, 0.4, 2.2])

    def samples(e):
        # the bits of every sample, each expression on a tape of its own; a
        # constant subtree such as 1/0 raises as Python float arithmetic
        try:
            with np.errstate(all="ignore"):
                [value] = eval_grid_many([e], xs, ys)
        except ArithmeticError as err:
            return repr(err)
        return np.broadcast_to(np.asarray(value, dtype=float), xs.shape).view(np.uint64).tolist()

    @settings(max_examples=300, deadline=None)
    @given(smart_expressions())
    def check(e):
        text = to_source(e)
        assert samples(parse(text)) == samples(e), text

    check()


def test_expressions_are_pure():
    e = parse("sin(x)*exp(y) + x^3")
    first = [e.eval(0.3, -1.2) for _ in range(5)]
    assert len(set(first)) == 1


# ---------------------------------------------------------------------------
# pickling and copying: every node is rebuilt through its class

SRC = str(Path(__file__).resolve().parent.parent / "src")

# dumps an expression, or builds other expressions first and then loads one
# and evaluates it on one tape with them, printing the bits of its samples
PICKLE_SCRIPT = """
import pickle, sys
import numpy as np
from metriconn.expr import X, Y, cos, eval_grid_many, exp, sin
if sys.argv[1] == "dump":
    sys.stdout.buffer.write(pickle.dumps(sin(X) * Y + 2.0))
else:
    others = [cos(X) * Y + 3.0, exp(Y) - X, cos(Y) * 2.0, sin(Y) * X + 2.0]
    e = pickle.loads(sys.stdin.buffer.read())
    xs, ys = np.linspace(0.1, 1.0, 7)[:, None], np.linspace(-1.0, 1.0, 5)[None, :]
    values = eval_grid_many([*others, e], xs, ys)
    sys.stdout.write(np.broadcast_to(values[-1], (7, 5)).tobytes().hex())
"""


def test_a_connection_survives_a_pickle_round_trip():
    chart = torus_chart((16, 16))
    _, _, theta = scrambled_instance(np.random.default_rng(7), chart)
    again = pickle.loads(pickle.dumps(theta))
    assert again.chart == theta.chart

    def coefficients(c):
        return [e for row in c.entries for form in row for e in (form.p, form.q)]

    assert to_sources(coefficients(again)) == to_sources(coefficients(theta))
    got = evaluate_grid_many(coefficients(again), chart)
    want = evaluate_grid_many(coefficients(theta), chart)
    assert [a.tobytes() for a in got] == [w.tobytes() for w in want]


def test_an_unpickled_expression_keeps_its_values_in_a_fresh_process():
    env = {**os.environ, "PYTHONPATH": SRC}

    def child(mode, data=None):
        return subprocess.run([sys.executable, "-c", PICKLE_SCRIPT, mode], input=data,
                              capture_output=True, check=True, env=env, timeout=120).stdout

    got = bytes.fromhex(child("load", child("dump")).decode())
    xs, ys = np.linspace(0.1, 1.0, 7)[:, None], np.linspace(-1.0, 1.0, 5)[None, :]
    [want] = eval_grid_many([sin(X) * Y + 2.0], xs, ys)
    assert got == np.broadcast_to(want, (7, 5)).tobytes()


def test_deepcopy_rebuilds_an_expression():
    e = sin(X) * Y + 2.0
    e.diff("x")
    c = copy.deepcopy(e)
    assert c is not e and to_source(c) == to_source(e)
    # equal structure, so one number; the derivative cache is not copied
    assert c._num is e._num and c._dcache is None
    assert copy.deepcopy(Const(-0.0)).value.hex() == "-0x0.0p+0"


def test_a_deep_expression_pickles_without_recursion():
    e = X
    for k in range(5000):
        e = e + Y if k % 2 else e * 1.5
    again = pickle.loads(pickle.dumps(e))
    assert again is not e and again._num is e._num
