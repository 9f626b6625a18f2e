"""Roots evaluated ahead of the stages that ask for them (``forms.prefetch``):
the work a check and an Euler comparison do after the eigen test, the
memory they take, and the order in which their guards and domain errors
still come."""

from __future__ import annotations

import collections
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from metriconn import expr, forms, metrizability, volume_euler
from metriconn.connection import ConnectionMatrix, MetricField, gauge_transform
from metriconn.expr import Const, DomainError, Expr, X, Y, cos, exp, ln, sin
from metriconn.forms import (
    Chart,
    OneForm,
    evaluate_grid,
    evaluate_grid_many,
    integrate2,
    prefetch,
    root_cache,
    sup_norm,
)
from metriconn.gallery import RiemannianMetric2D, levi_civita, semi_symmetric
from metriconn.metrizability import Verdict, check_metrizability
from metriconn.specfile import load_spec
from metriconn.volume_euler import NotCompatible, compare_euler, euler_form

from helpers import (
    random_gauge,
    reference_eval_grid,
    skew_connection,
    torus_chart,
    trig_poly,
)

SPECS = Path(__file__).resolve().parent.parent / "specs"


def box_scramble(seed: int, grid: int) -> ConnectionMatrix:
    """A gauge-scrambled skew connection over the box ``[-1.5, 1.5]^2``,
    built as the box benchmark builds its inputs."""
    rng = np.random.default_rng(seed)
    chart = Chart((-1.5, 1.5), (-1.5, 1.5), grid=(grid, grid))
    w = OneForm(trig_poly(rng, amplitude=0.025) - Y * 0.5,
                trig_poly(rng, amplitude=0.025) + X * 0.5)
    return gauge_transform(skew_connection(w, chart), random_gauge(rng, chart))


def with_trace(theta: ConnectionMatrix) -> ConnectionMatrix:
    """``theta + d(phi) I``: still metric, with a closed trace form, so a
    check takes its conformal branch."""
    phi = sin(X) * cos(Y) * 0.1
    shift = OneForm(phi.diff("x"), phi.diff("y"))
    (a, b), (c, d) = theta.entries
    return ConnectionMatrix(((a + shift, b), (c, d + shift)), theta.chart)


class TapeLog:
    """Counts how often each structure is computed by the tape
    (``expr._run``) while ``recording`` is set, per set of sample points.
    Structures are numbered by a table of the log, which outlives the
    nodes, so a node that dies and is built again under a new value number
    still counts as a repeat; a structure run on other points (a
    quadrature's nodes, a potential's gridlines) is other work, not a
    repeat."""

    def __init__(self, monkeypatch):
        self.recording = False
        self.inputs: list = []          # kept, so that no id() is reused
        self.shapes: dict = {}          # (type, payload, operand shapes) -> shape
        self.steps = collections.Counter()
        inner = expr._run
        log = self

        def run(tape, roots, values, xs, ys):
            if log.recording:
                log.inputs.append((xs, ys))
                for shape in log.shapes_of(tape.values()):
                    log.steps[(id(xs), id(ys), shape)] += 1
            return inner(tape, roots, values, xs, ys)

        monkeypatch.setattr(expr, "_run", run)

    def shapes_of(self, nodes) -> list:
        """The structure number of each of ``nodes``: its type, its payload
        (by ``repr``, so ``-0.0`` and ``0.0`` stay apart) and the numbers of
        its operands."""
        seen: dict = {}                 # id(node) -> shape, for live nodes only
        for root in nodes:
            stack = [root]
            while stack:
                node = stack[-1]
                if id(node) in seen:
                    stack.pop()
                    continue
                kids = expr._operands(node)
                pending = [k for k in kids if id(k) not in seen]
                if pending:
                    stack.extend(pending)
                    continue
                stack.pop()
                payload = tuple(repr(a) for a in expr._init_args(node) if not isinstance(a, Expr))
                key = (type(node), payload, tuple(seen[id(k)] for k in kids))
                seen[id(node)] = self.shapes.setdefault(key, len(self.shapes))
        return [seen[id(node)] for node in nodes]

    def runs_of(self, e) -> int:
        """How often the structure of ``e`` was computed, on every set of
        sample points."""
        [shape] = self.shapes_of([e])
        return sum(count for (_, _, s), count in self.steps.items() if s == shape)


# ---------------------------------------------------------------------------
# the work after the eigen test


@pytest.mark.parametrize("conformal", [False, True], ids=["plain", "conformal"])
def test_each_value_number_runs_at_most_once_after_the_eigen_test(monkeypatch, conformal):
    theta = box_scramble(11, 32)
    if conformal:
        theta = with_trace(theta)
    log = TapeLog(monkeypatch)
    eigen = metrizability._imaginary_eigenvalues

    def start_recording(*args):
        out = eigen(*args)
        log.recording = True
        return out

    monkeypatch.setattr(metrizability, "_imaginary_eigenvalues", start_recording)
    report = check_metrizability(theta)
    assert report.verdict is Verdict.METRIC
    assert (report.conformal_log is not None) is conformal
    assert log.steps, "nothing ran after the eigen test"
    repeated = {key: n for key, n in log.steps.items() if n > 1}
    assert not repeated, f"{len(repeated)} structures ran more than once"


# a closed one-form: the semi-symmetric connection built from it
# preserves a volume form, so volume_criterion integrates its potential
CLOSED = OneForm(cos(X) * 0.3, -sin(Y) * 0.2)


def torus_pair(u: OneForm):
    """A metric on the 16^2 torus, the semi-symmetric connection built
    from ``u`` and the Levi-Civita connection."""
    chart = torus_chart((16, 16))
    g = RiemannianMetric2D.from_exprs(exp(sin(X) * 0.2), Const(0.0),
                                      exp(cos(Y) * 0.15 + sin(X) * 0.1), chart)
    return g, semi_symmetric(g, u), levi_civita(g)


def test_compare_euler_evaluates_the_metric_entries_once(monkeypatch):
    g, semi, levi = torus_pair(OneForm(sin(Y) * 0.3, cos(X) * 0.2))
    log = TapeLog(monkeypatch)
    log.recording = True
    assert compare_euler(semi, levi, g.metric) <= 1e-8
    # both Euler forms, their quadratures included, run in one cache, and
    # each quadrature samples the cache's "mid" lattice
    for entry in (g.metric.entries[0][0], g.metric.entries[1][1]):
        assert log.runs_of(entry) == 1


def test_torus_quadrature_gives_the_same_bits_in_and_out_of_a_cache(monkeypatch):
    g, semi, _ = torus_pair(CLOSED)
    chart = semi.chart
    report = euler_form(semi, g.metric)
    form = report.euler_form
    # the quadrature as written before it sampled the "mid" lattice: full
    # meshes on the midpoint rule's nodes
    xm, ym = chart.mesh()
    values = np.ascontiguousarray(np.broadcast_to(reference_eval_grid(form.r, xm, ym), xm.shape))
    expected = float(np.full(chart.nx, chart.hx) @ values @ np.full(chart.ny, chart.hy))
    numbers = {"euler_form": report.euler_number, "outside": integrate2(form, chart)}
    with root_cache():
        numbers["inside"] = integrate2(form, chart)
        numbers["kept root"] = integrate2(form, chart)
    with root_cache():
        prefetch([form], chart)
        numbers["prefetched"] = integrate2(form, chart)
    monkeypatch.setattr(volume_euler, "prefetch", lambda exprs, chart: None)
    numbers["euler_form without prefetch"] = euler_form(semi, g.metric).euler_number
    assert {name: n.hex() for name, n in numbers.items()} == {
        name: expected.hex() for name in numbers}


# ---------------------------------------------------------------------------
# memory

def check_peak(theta: ConnectionMatrix) -> int:
    """The tracemalloc peak of one check, which must find a metric."""
    tracemalloc.start()
    try:
        report = check_metrizability(theta)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.verdict is Verdict.METRIC
    return peak


@pytest.mark.parametrize("grid", [128, 256])
def test_check_peak_stays_at_or_below_the_two_tape_peak(monkeypatch, grid):
    # without the prefetch, each stage runs its own tape; each check gets
    # freshly built expressions, so neither finds derivatives cached
    with monkeypatch.context() as patch:
        patch.setattr(metrizability, "prefetch", lambda exprs, chart: None)
        two_tapes = check_peak(box_scramble(11, grid))
    peak = check_peak(box_scramble(11, grid))
    assert peak <= two_tapes, f"peak {peak / 2**20:.2f} MB, two tapes {two_tapes / 2**20:.2f} MB"
    if grid == 128:
        assert peak < 100 * 2**20


# ---------------------------------------------------------------------------
# errors come from the stage that asks, at the point it names


CHART = Chart((0.0, 1.0), (0.0, 1.0), grid=(16, 16))
UNDEFINED = {
    "x-only": ln(X - 0.5),
    "mixed": ln(X - 0.5) + sin(Y),
    "mixed, inner point": ln(Const(1.25) - X - Y) * cos(X),
}


def _domain_error(expr) -> DomainError:
    with pytest.raises(DomainError) as info:
        evaluate_grid(expr, CHART)
    return info.value


@pytest.mark.parametrize("name", sorted(UNDEFINED))
def test_a_prefetched_domain_error_waits_for_its_stage(monkeypatch, name):
    bad = UNDEFINED[name]
    good = sin(X) * Y + exp(Y)
    expected = _domain_error(bad)
    [plain] = evaluate_grid_many([good], CHART)
    log = TapeLog(monkeypatch)
    with root_cache():
        prefetch([good, bad, good * 2.0], CHART)
        log.recording = True
        [got, twice] = evaluate_grid_many([good, good * 2.0], CHART)
        # the stage takes the prefetched values; no tape runs again
        assert not log.steps
        assert np.array_equal(got, plain)
        assert np.array_equal(twice, plain * 2.0)
        with pytest.raises(DomainError) as info:
            evaluate_grid_many([good, bad], CHART)
        assert (info.value.point, str(info.value)) == (expected.point, str(expected))
        with pytest.raises(DomainError) as info:
            sup_norm(bad, CHART)
        assert (info.value.point, str(info.value)) == (expected.point, str(expected))


@pytest.mark.parametrize("bad", [Const(1e200) ** 2.0 * X, Const(0.0) ** -1.0 * Y + X],
                         ids=["overflowing power", "zero to a negative power"])
def test_a_power_of_a_failed_fold_waits_for_its_stage(bad):
    # the tape takes such a power to infinity, as on arrays, instead of
    # raising a Python error on the spot; the stage that asks locates it
    good = sin(X) * Y
    [plain] = evaluate_grid_many([good], CHART)
    expected = _domain_error(bad)
    assert expected.reason in ("overflow", "zero base with negative exponent")
    with root_cache():
        prefetch([good, bad], CHART)
        assert np.array_equal(evaluate_grid(good, CHART), plain)
        with pytest.raises(DomainError) as info:
            evaluate_grid(bad, CHART)
    assert (info.value.point, str(info.value)) == (expected.point, str(expected))


def test_prefetch_outside_a_root_cache_does_nothing():
    prefetch([UNDEFINED["x-only"]], CHART)
    assert forms._ROOT_CACHE.get() is None


def test_an_inner_root_cache_joins_the_open_one():
    e = sin(X) * Y
    with root_cache():
        outer = forms._ROOT_CACHE.get()
        [first] = evaluate_grid_many([e], CHART)
        with root_cache():
            assert forms._ROOT_CACHE.get() is outer
            assert np.shares_memory(first, evaluate_grid(e, CHART))
        assert forms._ROOT_CACHE.get() is outer
    assert forms._ROOT_CACHE.get() is None


ZERO_FORM = OneForm(Const(0.0), Const(0.0))
ZERO_CONNECTION = ConnectionMatrix(((ZERO_FORM, ZERO_FORM), (ZERO_FORM, ZERO_FORM)), CHART)


@pytest.mark.parametrize("metric,error,message", [
    (MetricField.symmetric(Const(1.0), Const(0.0), X - 0.5), ValueError,
     "metric is not positive definite near (0.03125, 0.03125)"),
    (MetricField.symmetric(ln(X - 0.5) + 2.0, Const(0.0), Const(1.0)), DomainError,
     "ln of a non-positive value at (0.03125, 0.03125) while evaluating ln(x - 0.5)"),
    (MetricField.symmetric(exp(Y) + 1.0, X * 0.1, ln(Const(1.25) - X - Y) + 3.0), DomainError,
     "ln of a non-positive value at (0.28125, 0.96875) while evaluating ln(1.25 - x - y)"),
], ids=["not SPD", "undefined entry", "undefined entry, inner point"])
def test_euler_form_guards_raise_as_before(metric, error, message):
    with pytest.raises(error) as info:
        euler_form(ZERO_CONNECTION, metric)
    assert str(info.value) == message


def test_compare_euler_names_the_incompatible_connection():
    chart = torus_chart((16, 16))
    g = RiemannianMetric2D.from_exprs(exp(sin(X) * 0.2), Const(0.0), exp(cos(Y) * 0.15), chart)
    levi = levi_civita(g)
    (a, b), row = levi.entries
    bent = ConnectionMatrix(((a + OneForm(sin(Y) * 0.1, Const(0.0)), b), row), chart)
    for first, second, label in ((levi, bent, "second connection"),
                                 (bent, levi, "first connection")):
        with pytest.raises(NotCompatible) as info:
            compare_euler(first, second, g.metric)
        assert str(info.value) == (f"{label} is not compatible with the metric: "
                                   "residual 0.239 exceeds tolerance 2.65e-08")


def test_skewfail_keeps_its_witness():
    spec = load_spec(SPECS / "skewfail.conn")
    report = check_metrizability(spec.connection)
    assert report.verdict is Verdict.NOT_METRIC_SKEW
    assert report.witness == (-0.8859375, 0.04908738521234052)
    assert report.max_parallel_residual == 0.8121276003639322
