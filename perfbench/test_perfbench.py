"""Tests of the benchmark itself: every check rejects a planted error, every
workload completes a smoke run, and the tracer accounts for its time.

Run from the root of a checkout with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from metriconn import expr, metrizability  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from textexpr import TextError, evaluate_text  # noqa: E402

CONFIG = json.loads((HERE.parent / "BENCHMARK.json").read_text())
PLANTED = 1e-6


def _passes(workload, item, output):
    assert workload.verify(item, output) == []


def _rejects(workload, item, output):
    assert workload.verify(item, output) != []


# ---------------------------------------------------------------------------
# each check rejects a perturbed output


def test_box_check_rejects_planted_errors(tmp_path):
    w = workloads.BoxCheck(3, tmp_path)
    w.chart = inputs.box_chart(32)
    item = w.round()[0]
    report = w.run(item)
    _passes(w, item, report)
    # the conformal factor multiplies one sample of the metric by exp(1e-6)
    bump = np.zeros((32, 32))
    bump[4, 8] = PLANTED
    _rejects(w, item, replace(report, conformal_log=bump))
    _rejects(w, item, replace(report, verdict=metrizability.Verdict.NOT_METRIC_SKEW))


def _spec_output(scramble, chart, code=0, verdict="Metric", shift=""):
    """A ``check --json`` report whose metric is ``B^T B`` written out by
    ``to_source`` from the scramble's gauge."""
    b = scramble.gauge_entries()
    g = [[b[0][i] * b[0][j] + b[1][i] * b[1][j] for j in range(2)] for i in range(2)]
    fields = {"verdict": verdict, "metric.g.1.1": expr.to_source(g[0][0]) + shift,
              "metric.g.1.2": expr.to_source(g[0][1]), "metric.g.2.2": expr.to_source(g[1][1])}
    return code, json.dumps(fields)


def test_spec_check_rejects_planted_errors(tmp_path):
    w = workloads.SpecCheck(3, tmp_path)
    item = w.round()[0]
    scramble = item[0]
    _passes(w, item, _spec_output(scramble, w.chart))
    _rejects(w, item, _spec_output(scramble, w.chart, shift=f" + {PLANTED!r}"))
    _rejects(w, item, _spec_output(scramble, w.chart, verdict="NotMetricSkew"))
    _rejects(w, item, _spec_output(scramble, w.chart, code=1))


def test_flat_sweep_rejects_planted_errors(tmp_path):
    w = workloads.FlatSweep(3, tmp_path)
    w.chart = inputs.torus_chart(256)     # RK4 error at 64^2 exceeds the tolerance
    item = w.round()[0]
    report = w.run(item)
    _passes(w, item, report)
    samples = report.metric_samples.copy()
    samples[10, 20, 0, 1] += PLANTED
    _rejects(w, item, replace(report, metric_samples=samples))
    _rejects(w, item, replace(report, loop_defect=report.loop_defect + PLANTED))
    _rejects(w, item, replace(report, verdict=metrizability.Verdict.METRIC))


def test_euler_volume_rejects_planted_errors(tmp_path):
    w = workloads.EulerVolume(3, tmp_path)
    try:
        item = w.round()[0]
        semi, levi, volume, difference, numbers = w.run(item)
        _passes(w, item, (semi, levi, volume, difference, numbers))
        log_f = volume.log_f.copy()
        log_f[7, 9] += PLANTED
        _rejects(w, item, (semi, levi, replace(volume, log_f=log_f), difference, numbers))
        _rejects(w, item, (semi, levi, replace(volume, closed=False), difference, numbers))
        _rejects(w, item, (semi, levi, volume, difference, [numbers[0] + 1e-3, numbers[1]]))
        _rejects(w, item, (semi, levi, volume, difference + 1e-3, numbers))
        _rejects(w, item, (semi, levi, volume, difference, numbers[:1]))
    finally:
        w.close()


def test_close_names_the_worst_sample():
    expected = np.ones((4, 4))
    actual = expected.copy()
    actual[2, 3] += PLANTED
    (problem,) = checks.close("metric", actual, expected)
    assert "(2, 3)" in problem
    assert checks.close("metric", actual[:2], expected) != []
    actual[0, 0] = np.nan
    assert checks.close("metric", actual, expected) != []


# ---------------------------------------------------------------------------
# closed forms and the independent text reader


def test_closed_forms_match_the_generators():
    rng = np.random.default_rng(5)
    chart = inputs.box_chart(16)
    xm, ym = chart.mesh("node")
    sc = inputs.box_scramble(rng)
    b = np.array([[e.eval_grid(xm, ym) for e in row] for row in sc.gauge_entries()])
    assert np.allclose(np.moveaxis(b, (0, 1), (-2, -1)), sc.gauge_values(xm, ym), atol=1e-13)
    assert np.allclose(np.linalg.det(sc.gauge_values(xm, ym)), 1.0, atol=1e-12)
    assert sc.curvature_values(xm, ym).min() > 0.5

    fp = inputs.flat_pair(rng)
    torus = inputs.torus_chart(16)
    frame = fp.frame_values(torus)
    assert np.allclose(frame[0, 0], np.eye(2), atol=1e-14)
    # F(x) M1 + G(y) M2 at one node, exponentiated by a series
    x, y = torus.xs("node")[5], torus.ys("node")[9]
    gen = -(fp.f.antiderivative_x(x, 0.0) * np.array(fp.m1)
            + fp.g.antiderivative_y(y, 0.0) * np.array(fp.m2))
    series, term = np.eye(2), np.eye(2)
    for k in range(1, 40):
        term = term @ gen / k
        series = series + term
    assert np.allclose(frame[5, 9], series, atol=1e-12)


@pytest.mark.parametrize("text", ["-x^2.0", "x^(-2.0)", "-(x^2.0)", "2.0*-y + 1.0",
                                  "sin(x)*cos(y)/(3.0 + x*x)", "exp(-x)^3.0 - pi*e",
                                  "1e-05*x - .5*y", "sqrt(cosh(x) + sinh(y)^2.0)"])
def test_text_reader_agrees_with_the_parser(text):
    xs = np.linspace(-1.3, 1.7, 7)
    ys = np.linspace(0.2, 2.1, 7)
    want = expr.parse(text).eval_grid(xs, ys)
    assert np.allclose(evaluate_text(text, xs, ys), want, rtol=1e-15, atol=0.0)


def test_text_reader_reads_a_report_sized_expression():
    rng = np.random.default_rng(2)
    chart = inputs.torus_chart(16)
    theta = inputs.torus_scramble(rng, chart).connection(chart)
    e = theta.entries[0][1].p.diff("x")
    text = expr.to_source(e)
    xm, ym = chart.mesh("node")
    assert np.allclose(evaluate_text(text, xm, ym), e.eval_grid(xm, ym), rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("text", ["", "x +", "(x", "x)", "foo(x)", "sin x", "x $ y"])
def test_text_reader_rejects_malformed_text(text):
    with pytest.raises(TextError):
        evaluate_text(text, 0.0, 0.0)


# ---------------------------------------------------------------------------
# tracer


def test_node_counts_separate_objects_from_shapes():
    a = expr.sin(expr.X)
    b = expr.sin(expr.X)
    assert spans.node_counts([a * a]) == (3, 3)     # Mul, sin, x
    assert spans.node_counts([a * b]) == (4, 3)     # two sin objects, one shape
    signed = [expr.Add(expr.Const(-0.0), expr.X), expr.Mul(expr.Const(0.0), expr.Y)]
    assert spans.node_counts(signed) == (6, 6)


def test_tracer_accounts_for_an_operation_and_uninstalls(tmp_path):
    original = (metrizability.check_metrizability, expr.Expr.eval_grid, expr.Expr.diff)
    w = workloads.BoxCheck(4, tmp_path)
    w.chart = inputs.box_chart(24)
    tracer = spans.Tracer()
    tracer.install()
    try:
        first = [tracer.operation(w.run, item)[1] for item in w.round()[:2]]
        again = [tracer.operation(w.run, item)[1] for item in w.round()[:2]]
    finally:
        tracer.uninstall()
    assert (metrizability.check_metrizability, expr.Expr.eval_grid, expr.Expr.diff) == original
    for figures in first:
        wall = figures["trace.op_wall_s"]
        assert figures["metrizability.check_s"] <= wall
        total = (sum(figures[f"{layer}_s"] for layer in spans.LAYERS)
                 + figures["trace.unattributed_s"])
        assert total == pytest.approx(wall, rel=1e-9)
        assert figures["expr.eval_s"] > 0 and figures["expr.diff_s"] > 0
        assert figures["connection.frame_s"] == 0.0
    # fresh objects of the same inputs: the counts repeat exactly
    for a, b in zip(first, again):
        assert a["expr.node_evals"] == b["expr.node_evals"] > 0
        assert a["expr.memo_hit_ratio"] == b["expr.memo_hit_ratio"]


# ---------------------------------------------------------------------------
# the command


def _run(*argv, cwd):
    return subprocess.run([sys.executable, "perfbench/run.py", *argv], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def test_workload_names_agree():
    names = [w["name"] for w in CONFIG["workloads"]]
    assert names == list(run.WORKLOADS) == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_every_workload_completes_a_smoke_run(name):
    proc = _run("--workload", name, "--seed", "7", "--seconds", "0", "--trace", "0",
                cwd=HERE.parent)
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    for metric in CONFIG["end_to_end"]:
        got = line["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"] and got["value"] > 0


def test_traced_smoke_run_reports_every_layer():
    proc = _run("--workload", "euler_volume", "--seed", "7", "--seconds", "0", "--trace", "1",
                cwd=HERE.parent)
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line["metrics"]) == {m["name"] for m in CONFIG["per_layer"]}
    for metric in CONFIG["per_layer"]:
        assert line["metrics"][metric["name"]]["unit"] == metric["unit"]
    assert line["metrics"]["volume_euler.euler_s"]["value"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = _run("--workload", "box_check", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
