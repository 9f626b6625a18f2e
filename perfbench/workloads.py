"""The four workloads: what one operation is, the inputs of a round, and how
each output is checked.

A round is a fixed list of operations; a run repeats whole rounds.  Every
operation works on expression objects built for it alone, because
``Expr.diff`` caches derivatives on the nodes themselves and a repeated
object would time a warm cache that no user has.  Building a round's
objects is set-up for the first round and untimed for later ones.
"""

from __future__ import annotations

import io
import json
from pathlib import Path

import numpy as np

from metriconn import cli, gallery, metrizability, specfile, volume_euler

import checks
import inputs
from textexpr import evaluate_text

BOX_GRID = 128
SPEC_GRID = 32
FLAT_GRID = 512
EULER_GRID = 64

# every 4th node of the box lattice: 32 x 32 samples of the recovered metric;
# the whole 128^2 lattice would hold the metric's intermediates in the very
# process whose peak memory is reported
BOX_SAMPLE_STEP = 4


def _metric_samples(report, step: int) -> np.ndarray:
    """The report's parallel metric on every ``step``-th node, conformal
    factor included, shape ``(n, n, 2, 2)``."""
    chart = report.chart
    xm, ym = np.meshgrid(chart.xs("node")[::step], chart.ys("node")[::step], indexing="ij")
    memo: dict = {}
    g = report.metric.entries
    with np.errstate(all="ignore"):
        rows = [[np.broadcast_to(np.asarray(g[i][j].eval_grid(xm, ym, memo), dtype=float),
                                 xm.shape) for j in range(2)] for i in range(2)]
    samples = np.stack([np.stack(row, -1) for row in rows], -2)
    if report.conformal_log is not None:
        samples = np.exp(report.conformal_log[::step, ::step])[..., None, None] * samples
    return samples


def connection_exprs(theta) -> list:
    return [e for row in theta.entries for form in row for e in (form.p, form.q)]


class BoxCheck:
    """``check_metrizability`` on gauge-scrambled skew connections over a
    non-periodic box at 128^2."""

    name = "box_check"
    round_size = 4

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        self.chart = inputs.box_chart(BOX_GRID)
        self.scrambles = [inputs.box_scramble(rng) for _ in range(self.round_size)]

    def round(self) -> list:
        return [(sc, sc.connection(self.chart)) for sc in self.scrambles]

    def run(self, item):
        return metrizability.check_metrizability(item[1])

    def verify(self, item, report) -> list[str]:
        problems = checks.equal("verdict", report.verdict.value, "Metric")
        if problems:
            return problems
        xs = self.chart.xs("node")[::BOX_SAMPLE_STEP]
        ys = self.chart.ys("node")[::BOX_SAMPLE_STEP]
        xm, ym = np.meshgrid(xs, ys, indexing="ij")
        return checks.close_metric("metric", _metric_samples(report, BOX_SAMPLE_STEP),
                                   item[0].metric_values(xm, ym))

    def input_exprs(self, item, output) -> list:
        return connection_exprs(item[1])

    def report_bytes(self, output) -> int:
        return 0


class SpecCheck:
    """``metriconn check SPEC --json``, called in-process, on spec files
    written with ``to_source`` from torus scrambles at 32^2."""

    name = "spec_check"
    round_size = 1      # one check takes seconds; a round of one keeps runs short

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        self.chart = inputs.torus_chart(SPEC_GRID)
        self.scrambles = [inputs.torus_scramble(rng, self.chart) for _ in range(self.round_size)]
        self.paths = []
        for k, sc in enumerate(self.scrambles):
            path = workdir / f"scramble{k}.conn"
            path.write_text(inputs.spec_text(sc.connection(self.chart)), encoding="utf-8")
            self.paths.append(path)

    def round(self) -> list:
        return list(zip(self.scrambles, self.paths))

    def run(self, item):
        out, err = io.StringIO(), io.StringIO()
        code = cli.run(["check", str(item[1]), "--json"], out=out, err=err)
        return code, out.getvalue()

    def verify(self, item, output) -> list[str]:
        code, text = output
        problems = checks.equal("exit code", code, 0)
        if problems:
            return problems
        fields = json.loads(text)
        problems = checks.equal("verdict", fields.get("verdict"), "Metric")
        if problems:
            return problems
        xm, ym = self.chart.mesh("node")
        g11, g12, g22 = (evaluate_text(fields[f"metric.g.{key}"], xm, ym)
                         for key in ("1.1", "1.2", "2.2"))
        samples = np.stack([np.stack([g11, g12], -1), np.stack([g12, g22], -1)], -2)
        return checks.close_metric("metric", samples, item[0].metric_values(xm, ym))

    def input_exprs(self, item, output) -> list:
        # parsing is deterministic, so a second load has the operation's node counts
        return connection_exprs(specfile.load_spec(item[1]).connection)

    def report_bytes(self, output) -> int:
        return len(output[1].encode("utf-8"))


class FlatSweep:
    """``check_metrizability`` on flat commuting connections over the
    periodic torus at 512^2: the verdict comes from RK4 transport."""

    name = "flat_sweep"
    round_size = 2

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        self.chart = inputs.torus_chart(FLAT_GRID)
        self.pairs = [inputs.flat_pair(rng) for _ in range(self.round_size)]

    def round(self) -> list:
        return [(fp, fp.connection(self.chart)) for fp in self.pairs]

    def run(self, item):
        return metrizability.check_metrizability(item[1])

    def verify(self, item, report) -> list[str]:
        problems = checks.equal("verdict", report.verdict.value, "Flat")
        if problems:
            return problems
        pair = item[0]
        return (checks.close_metric("metric", report.metric_samples,
                                    pair.metric_values(self.chart))
                + checks.close("loop defect", report.loop_defect, pair.loop_defect(self.chart)))

    def input_exprs(self, item, output) -> list:
        return connection_exprs(item[1])

    def report_bytes(self, output) -> int:
        return 0


class _EulerNumbers:
    """Keeps the Euler numbers that ``compare_euler`` computes and drops: it
    wraps ``euler_form`` in the namespace ``compare_euler`` reads it from."""

    def __init__(self):
        self.numbers: list = []
        inner = volume_euler.euler_form

        def euler_form(*args, **kwargs):
            report = inner(*args, **kwargs)
            self.numbers.append(report.euler_number)
            return report

        self._inner = inner
        volume_euler.euler_form = euler_form

    def take(self) -> list:
        numbers, self.numbers = self.numbers, []
        return numbers

    def close(self) -> None:
        volume_euler.euler_form = self._inner


class EulerVolume:
    """For a random metric ``g`` and one-form ``u`` on the torus at 64^2:
    build ``semi_symmetric(g, u)`` and ``levi_civita(g)``, then run
    ``volume_criterion`` and ``compare_euler``."""

    name = "euler_volume"
    round_size = 4

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        self.chart = inputs.torus_chart(EULER_GRID)
        self.draws = [inputs.euler_input(rng) for _ in range(self.round_size)]
        self.recorder = _EulerNumbers()

    def round(self) -> list:
        return [(e, e.metric(self.chart), e.oneform()) for e in self.draws]

    def run(self, item):
        _, g, u = item
        self.recorder.take()    # numbers left by an operation that raised
        semi = gallery.semi_symmetric(g, u)
        levi = gallery.levi_civita(g)
        volume = volume_euler.volume_criterion(semi)
        difference = volume_euler.compare_euler(semi, levi, g.metric)
        return semi, levi, volume, difference, self.recorder.take()

    def verify(self, item, output) -> list[str]:
        _, _, volume, difference, numbers = output
        problems = checks.equal("closed", volume.closed, True)
        if problems:
            return problems
        problems += checks.close("log_f", volume.log_f, item[0].log_volume(self.chart))
        problems += checks.equal("euler numbers computed", len(numbers), 2)
        for k, number in enumerate(numbers):
            problems += checks.near_zero(f"euler number {k + 1}", number)
        problems += checks.near_zero("euler difference", difference)
        return problems

    def input_exprs(self, item, output) -> list:
        return connection_exprs(output[0]) + connection_exprs(output[1])

    def report_bytes(self, output) -> int:
        return 0

    def close(self) -> None:
        self.recorder.close()


WORKLOADS = {w.name: w for w in (BoxCheck, SpecCheck, FlatSweep, EulerVolume)}
