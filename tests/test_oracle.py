"""The 40-digit oracle (``tests/oracle.py``) on the shipped corpus.

The cases: the connections of every spec file under ``specs/`` and
``tests/data/`` (for a spec with a metric and no connection, the
Levi-Civita connection of the metric and, with a one-form, the
semi-symmetric one), and every gallery entry.  Each case is labelled at
seeded grid samples, at seeded points off the grid and at the witness of a
negative verdict, and the label must agree with the verdict.  For every
``Metric`` verdict the oracle also checks the identity that makes the test
of ``P`` the proof that the reported metric is parallel, and the identity
is checked once more where ``P`` does not vanish.
"""

from __future__ import annotations

import functools
from pathlib import Path

import numpy as np
import pytest

from metriconn.connection import curvature
from metriconn.gallery import GALLERY, RiemannianMetric2D, levi_civita, semi_symmetric
from metriconn.metrizability import (
    Verdict, _symmetrizer, _traceless_parts, check_metrizability, recover_metric,
)
from metriconn.specfile import load_spec

oracle = pytest.importorskip("oracle")

ROOT = Path(__file__).resolve().parent.parent
SPECS = sorted(p for d in (ROOT / "specs", ROOT / "tests" / "data") for p in d.glob("*.conn"))


def spec_connections(path: Path) -> dict:
    spec = load_spec(path)
    name = f"{path.parent.name}/{path.name}"
    out = {}
    if spec.connection is not None:
        out[name] = spec.connection
    if spec.connection2 is not None:
        out[name + ":connection2"] = spec.connection2
    if spec.connection is None and spec.metric is not None:
        g = RiemannianMetric2D(spec.metric, spec.chart)
        out[name + ":levi-civita"] = levi_civita(g)
        if spec.oneform is not None:
            out[name + ":semi-symmetric"] = semi_symmetric(g, spec.oneform)
    return out


@functools.lru_cache(maxsize=None)
def corpus() -> dict:
    out = {}
    for path in SPECS:
        out.update(spec_connections(path))
    for name in sorted(GALLERY):
        out["gallery:" + name] = GALLERY[name]().connection
    return out


@functools.lru_cache(maxsize=None)
def report(name: str):
    return check_metrizability(corpus()[name])


def points(name: str) -> list:
    """Two seeded grid samples and two seeded points off the grid, seeded
    by the case's name, and the witness of the case's verdict."""
    chart = corpus()[name].chart
    rng = np.random.default_rng(list(name.encode()))
    xs, ys = chart.xs(), chart.ys()
    (x0, x1), (y0, y1) = chart.x_range, chart.y_range
    out = [(float(xs[i]), float(ys[j]))
           for i, j in zip(rng.integers(chart.nx, size=2), rng.integers(chart.ny, size=2))]
    out += [tuple(map(float, p)) for p in rng.uniform((x0, y0), (x1, y1), size=(2, 2))]
    witness = report(name).witness
    return out + ([witness] if witness is not None else [])


def test_the_corpus_covers_every_spec_and_gallery_entry():
    names = corpus()
    for path in SPECS:
        assert any(n.startswith(f"{path.parent.name}/{path.name}") for n in names), path
    assert {n for n in names if n.startswith("gallery:")} == {"gallery:" + n for n in GALLERY}


@pytest.mark.parametrize("name", sorted(corpus()))
def test_the_label_agrees_with_the_verdict(name):
    verdict = report(name).verdict
    label = oracle.label(corpus()[name], points(name))
    if verdict is Verdict.METRIC:
        assert label.metric() and not label.flat(), label
        # the trace-shifted residual of the reported g = adj S equals
        # -sgn(b) P / det U^(3/2), and P vanishes
        gap, size = oracle.parallel_identity_gap(corpus()[name], report(name).metric,
                                                 points(name))
        assert gap <= 1e-30 and size <= 1e-30, (gap, size)
    elif verdict is Verdict.FLAT:
        assert label.flat(), label
    elif verdict in (Verdict.NOT_METRIC_EIGEN, Verdict.NOT_METRIC_SKEW):
        assert label.not_metric(), label
    else:
        # the curvature vanishes at some grid samples, where the decision
        # does not apply; the oracle, off that set, finds a metric
        assert name == "specs/compare_pair.conn:connection2", verdict
        assert report(name).curvature_zero_fraction > 0.0
        assert label.metric() and not label.flat(), label


def test_the_identity_holds_where_p_does_not_vanish():
    theta = corpus()["specs/skewfail.conn"]
    # past the eigenvalue test, where the closed-form symmetrizer applies
    assert report("specs/skewfail.conn").verdict is Verdict.NOT_METRIC_SKEW
    u = tuple(tuple(f.r for f in row) for row in curvature(theta).entries)
    metric = recover_metric(_symmetrizer(*_traceless_parts(u)))
    gap, size = oracle.parallel_identity_gap(theta, metric, points("specs/skewfail.conn"))
    assert size > 1e-3
    assert gap <= 1e-30
