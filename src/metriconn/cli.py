"""Batch command-line front-end.

Exit codes: 0 = metric / success, 1 = negative verdict (not metric, not
compatible, no volume form), 2 = inconclusive or flat with a periodic
defect, 3 = input error: a malformed spec or option, a basepoint outside
the chart, or a spec that cannot be evaluated (a division by zero,
coefficients that are not finite on a sweep path, a parallel frame that
overflows).  Reports go to the output stream; diagnostics, usage errors
included, to the error stream.  The report is written only after every
value in it is computed, so a run that exits 3 writes no report, and the
exit code does not depend on ``--json``.
With ``--json`` the report is a single flat JSON object
with dotted keys and no timestamps, so identical inputs produce
byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

import numpy as np

from .expr import to_source, to_sources
from .forms import Chart, root_cache, sup_norm
from .connection import ConnectionMatrix, compatibility_residual, residual_sup
from .metrizability import MetrizabilityReport, Verdict, check_metrizability
from .volume_euler import NotCompatible, euler_form, volume_criterion
from .gallery import GALLERY, semi_symmetric, levi_civita, torsion, RiemannianMetric2D
from .specfile import SpecError, SpecFile, load_spec

__all__ = ["run", "main"]

EXIT_SUCCESS = 0
EXIT_NEGATIVE = 1
EXIT_INCONCLUSIVE = 2
EXIT_INPUT_ERROR = 3

# a flat verdict with a periodic loop defect above this is only locally metric
DEFECT_THRESHOLD = 1e-6


class _Report:
    """Flat key/value report: dotted keys, scalar values only.  Text mode
    writes the lines of ``appendix`` after the report."""

    def __init__(self, command: str):
        self.fields: dict[str, object] = {"command": command}
        self.sources: set[str] = set()  # keys whose values are to_source text
        self.appendix = ()
        self.started = time.monotonic()

    def put(self, key: str, value) -> None:
        if isinstance(value, (np.floating, np.integer)):
            value = value.item()
        self.fields[key] = value

    def put_all(self, items) -> None:
        for key, value in items:
            self.put(key, value)

    def put_source(self, key: str, text: str) -> None:
        """Put expression text made by ``to_source`` or ``to_sources``,
        whose alphabet needs no JSON escape, so ``emit`` writes it as it
        is: re-escaping the megabytes of a recovered metric cost more than
        the check."""
        self.fields[key] = text
        self.sources.add(key)

    def emit(self, out, as_json: bool) -> None:
        """Write the report: with ``as_json`` the bytes of
        ``json.dumps(fields, sort_keys=True)`` and a newline, otherwise one
        ``key: value`` line per field in the order put, the wall clock and
        the appendix.  Every value is encoded before the first write, so a
        value that fails to encode writes nothing."""
        pieces = []
        if as_json:
            separator = "{"
            for key in sorted(self.fields):
                value = self.fields[key]
                pieces += (separator, json.dumps(key), ": ")
                if key in self.sources:
                    pieces += ('"', value, '"')
                else:
                    pieces.append(json.dumps(value))
                separator = ", "
            pieces.append("}\n")
            out.writelines(pieces)
            return
        for key, value in self.fields.items():
            pieces += (key, ": ", str(value), "\n")
        pieces.append(f"wall_clock: {time.monotonic() - self.started:.3f} s\n")
        out.writelines(pieces)
        out.writelines(self.appendix)


def _apply_overrides(spec: SpecFile, args) -> SpecFile:
    chart = spec.chart
    if args.grid is not None:
        chart = chart.with_grid(args.grid[0], args.grid[1])
    if chart is spec.chart:
        return spec
    def rebind(conn):
        return None if conn is None else ConnectionMatrix(conn.entries, chart)
    return SpecFile(chart, rebind(spec.connection), rebind(spec.connection2),
                    spec.metric, spec.oneform, spec.digest, spec.source)


def _tolerance_scale(text: str) -> float:
    scale = float(text)
    if not (math.isfinite(scale) and scale > 0.0):
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {text}")
    return scale


def _chart_fields(chart: Chart):
    yield "chart.x0", chart.x_range[0]
    yield "chart.x1", chart.x_range[1]
    yield "chart.y0", chart.y_range[0]
    yield "chart.y1", chart.y_range[1]
    yield "chart.periodic_x", chart.periodic_x
    yield "chart.periodic_y", chart.periodic_y
    yield "grid.nx", chart.nx
    yield "grid.ny", chart.ny


def _check_exit_code(report: MetrizabilityReport) -> int:
    if report.verdict is Verdict.METRIC:
        return EXIT_SUCCESS
    if report.verdict is Verdict.FLAT:
        defect = report.loop_defect or 0.0
        return EXIT_SUCCESS if defect <= DEFECT_THRESHOLD else EXIT_INCONCLUSIVE
    if report.verdict in (Verdict.NOT_METRIC_EIGEN, Verdict.NOT_METRIC_SKEW):
        return EXIT_NEGATIVE
    return EXIT_INCONCLUSIVE


# ---------------------------------------------------------------------------
# commands: ``run`` opens the subject (a spec file with the overrides, or a
# gallery entry) with its report header; the body adds the rest of the
# report and returns the exit code


def _open_spec(args):
    spec = _apply_overrides(load_spec(args.spec), args)
    return spec, [("spec.digest", spec.digest), *_chart_fields(spec.chart)]


def _open_example(args):
    builder = GALLERY.get(args.name)
    if builder is None:
        raise SpecError(args.name, 0,
                        f"unknown example; available: {', '.join(sorted(GALLERY))}")
    entry = builder()
    theta = entry.connection
    if args.grid is not None:
        chart = theta.chart.with_grid(args.grid[0], args.grid[1])
        theta = ConnectionMatrix(theta.entries, chart)
    return (entry, theta), [("example", entry.name), ("description", entry.description),
                            ("spec.digest", "gallery:" + entry.name),
                            *_chart_fields(theta.chart)]


def _put_verdict(theta: ConnectionMatrix, args, report: _Report) -> MetrizabilityReport:
    result = check_metrizability(theta, tol=args.tol, basepoint=args.basepoint)
    put = report.put
    put("verdict", result.verdict.value)
    put("curvature_zero_fraction", result.curvature_zero_fraction)
    put("normalization", result.normalization)
    if result.witness is not None:
        put("witness.x", result.witness[0])
        put("witness.y", result.witness[1])
    if result.min_det_u is not None:
        put("diagnostics.min_det_u", result.min_det_u)
    if result.max_abs_trace_u is not None:
        put("diagnostics.max_abs_trace_u", result.max_abs_trace_u)
    if result.max_parallel_residual is not None:
        put("diagnostics.max_parallel_residual", result.max_parallel_residual)
    if result.frame_residual is not None:
        put("diagnostics.frame_residual", result.frame_residual)
    if result.loop_defect is not None:
        put("diagnostics.loop_defect", result.loop_defect)
    for name, value in sorted(result.tolerances.items()):
        put(f"tolerance.{name}", value)
    if result.metric is not None:
        (g11, g12), (_, g22) = result.metric.entries
        for key, text in zip(("metric.g.1.1", "metric.g.1.2", "metric.g.2.2"),
                             to_sources([g11, g12, g22])):
            report.put_source(key, text)
    if result.conformal_log is not None:
        put("metric.conformal", True)
        put("metric.conformal_log.min", float(np.min(result.conformal_log)))
        put("metric.conformal_log.max", float(np.max(result.conformal_log)))
        put("metric.conformal_defect.x", result.conformal_defects[0])
        put("metric.conformal_defect.y", result.conformal_defects[1])
    elif result.metric is not None:
        put("metric.conformal", False)
    if result.metric_samples is not None:
        samples = result.metric_samples
        put("metric.samples.g11.min", float(np.min(samples[:, :, 0, 0])))
        put("metric.samples.g11.max", float(np.max(samples[:, :, 0, 0])))
    put("notes", "; ".join(result.notes))
    return result


def _check(spec: SpecFile, args, report: _Report) -> int:
    return _check_exit_code(_put_verdict(spec.require_connection(), args, report))


def _metric(spec: SpecFile, args, report: _Report) -> int:
    result = _put_verdict(spec.require_connection(), args, report)
    if result.metric_samples is not None or result.conformal_log is not None:
        # sampled in both modes: a node where the metric cannot be
        # evaluated is an input error whether or not the table is written
        report.appendix = _metric_table(result.chart, result.metric_grid())
    return _check_exit_code(result)


def _metric_table(chart: Chart, samples: np.ndarray):
    """The sampled metric at every node, as text lines."""
    xs, ys = chart.xs("node"), chart.ys("node")
    yield "# sampled metric: x y g11 g12 g22\n"
    for i in range(chart.nx):
        for j in range(chart.ny):
            yield (f"{xs[i]:.9g} {ys[j]:.9g} "
                   f"{samples[i, j, 0, 0]:.12g} {samples[i, j, 0, 1]:.12g} "
                   f"{samples[i, j, 1, 1]:.12g}\n")


def _volume(spec: SpecFile, args, report: _Report) -> int:
    result = volume_criterion(spec.require_connection(), tol=args.tol,
                              basepoint=args.basepoint)
    report.put("closed", result.closed)
    report.put("trace_curvature_max", result.trace_curvature_max)
    report.put("tolerance.closed", result.threshold)
    report.put("defect.x", result.period_defects[0])
    report.put("defect.y", result.period_defects[1])
    if result.reconstruction_residual is not None:
        report.put("diagnostics.reconstruction_residual", result.reconstruction_residual)
    if result.log_f is not None:
        report.put("log_f.min", float(np.min(result.log_f)))
        report.put("log_f.max", float(np.max(result.log_f)))
    if not result.closed:
        return EXIT_NEGATIVE
    defect = max(abs(result.period_defects[0]), abs(result.period_defects[1]))
    return EXIT_SUCCESS if defect <= DEFECT_THRESHOLD else EXIT_INCONCLUSIVE


def _euler(spec: SpecFile, args, report: _Report) -> int:
    theta = spec.require_connection()
    try:
        result = euler_form(theta, spec.require_metric(), tol=args.tol)
    except NotCompatible as exc:
        report.put("error", "NotCompatible")
        report.put("error.residual", exc.residual)
        report.put("error.tolerance", exc.tolerance)
        return EXIT_NEGATIVE
    report.put("euler_number", result.euler_number)
    report.put_source("euler_form.coefficient", to_source(result.euler_form.r))
    report.put("diagnostics.compat_residual", result.compat_residual)
    return EXIT_SUCCESS


def _compare(spec: SpecFile, args, report: _Report) -> int:
    theta1 = spec.require_connection()
    if args.other:
        other = _apply_overrides(load_spec(args.other), args)
        if other.chart != theta1.chart:
            raise SpecError(other.source, 0,
                            "the second spec's chart must match the first")
        theta2 = other.require_connection()
    elif spec.connection2 is not None:
        theta2 = spec.connection2
    else:
        raise SpecError(spec.source, 0,
                        "compare needs a second spec file or a [connection2] section")
    if args.metric:
        metric = _apply_overrides(load_spec(args.metric), args).require_metric()
    else:
        metric = spec.require_metric()
    try:
        # one cache, as in compare_euler: the metric's arrays are evaluated once
        with root_cache():
            first = euler_form(theta1, metric, tol=args.tol, label="first connection")
            second = euler_form(theta2, metric, tol=args.tol, label="second connection")
    except NotCompatible as exc:
        report.put("error", "NotCompatible")
        report.put("error.which", exc.label)
        report.put("error.residual", exc.residual)
        return EXIT_NEGATIVE
    report.put("euler_number.first", first.euler_number)
    report.put("euler_number.second", second.euler_number)
    report.put("euler_number.difference",
               abs(first.euler_number - second.euler_number))
    return EXIT_SUCCESS


def _put_connection(report: _Report, theta: ConnectionMatrix, prefix: str = "theta"):
    for i, row in enumerate(theta.entries, 1):
        for j, form in enumerate(row, 1):
            report.put_source(f"{prefix}.{i}.{j}.dx", to_source(form.p))
            report.put_source(f"{prefix}.{i}.{j}.dy", to_source(form.q))


def _torsion(spec: SpecFile, args, report: _Report) -> int:
    theta = spec.require_connection()
    field = torsion(theta)
    t1 = field.component(1, 1, 2)
    t2 = field.component(2, 1, 2)
    report.put_source("torsion.1.12", to_source(t1))
    report.put_source("torsion.2.12", to_source(t2))
    report.put("torsion.sup", sup_norm([t1, t2], theta.chart))
    return EXIT_SUCCESS


def _levi_civita(spec: SpecFile, args, report: _Report) -> int:
    metric = spec.require_metric()
    theta = levi_civita(RiemannianMetric2D(metric, spec.chart))
    _put_connection(report, theta)
    report.put("diagnostics.compat_residual",
               residual_sup(compatibility_residual(theta, metric), spec.chart))
    return EXIT_SUCCESS


def _semi_symmetric(spec: SpecFile, args, report: _Report) -> int:
    metric = spec.require_metric()
    u = spec.require_oneform()
    theta = semi_symmetric(RiemannianMetric2D(metric, spec.chart), u)
    _put_connection(report, theta)
    field = torsion(theta)
    report.put_source("torsion.1.12", to_source(field.component(1, 1, 2)))
    report.put_source("torsion.2.12", to_source(field.component(2, 1, 2)))
    report.put("diagnostics.compat_residual",
               residual_sup(compatibility_residual(theta, metric), spec.chart))
    return EXIT_SUCCESS


def _example(subject, args, report: _Report) -> int:
    entry, theta = subject
    result = _put_verdict(theta, args, report)
    volume = volume_criterion(theta, tol=args.tol)
    report.put("volume.closed", volume.closed)
    report.put("volume.defect.x", volume.period_defects[0])
    report.put("volume.defect.y", volume.period_defects[1])
    if entry.metric is not None:
        euler = euler_form(theta, entry.metric, tol=args.tol)
        report.put("euler_number", euler.euler_number)
    return _check_exit_code(result)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--grid", type=int, nargs=2, metavar=("NX", "NY"),
                        help="override the chart grid")
    parser.add_argument("--tol", type=_tolerance_scale, default=1.0, metavar="T",
                        help="scale all tolerances by T")
    parser.add_argument("--json", action="store_true",
                        help="emit the machine-readable flat report")
    parser.add_argument("--basepoint", type=float, nargs=2, metavar=("X", "Y"),
                        help="basepoint for frame and volume integrations")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="metriconn",
        description="Local metrizability of rank-2 connections over surface charts.")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, body, help_text in (
        ("check", _check, "decide local metrizability of the connection"),
        ("metric", _metric, "recover and print the compatible metric"),
        ("volume", _volume, "test the parallel-volume-form criterion"),
        ("euler", _euler, "Euler form and number of a metric connection"),
        ("torsion", _torsion, "torsion of a coordinate-frame connection"),
        ("levi-civita", _levi_civita, "Levi-Civita connection of the metric"),
        ("semi-symmetric", _semi_symmetric,
         "metric connection with torsion built from a one-form"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("spec", help="spec file")
        _add_common(p)
        p.set_defaults(open=_open_spec, body=body)

    p = sub.add_parser("compare",
                       help="compare Euler numbers of two metric-equivalent connections")
    p.add_argument("spec", help="spec file with the first connection")
    p.add_argument("other", nargs="?", default=None,
                   help="spec file with the second connection "
                        "(default: [connection2] of the first file)")
    p.add_argument("--metric", default=None,
                   help="spec file providing the shared metric "
                        "(default: [metric] of the first file)")
    _add_common(p)
    p.set_defaults(open=_open_spec, body=_compare)

    p = sub.add_parser("example", help="run a named gallery example")
    p.add_argument("name", help=f"one of: {', '.join(sorted(GALLERY))}")
    _add_common(p)
    p.set_defaults(open=_open_example, body=_example)
    return parser


def run(argv=None, out=None, err=None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    parser = build_parser()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT_ERROR if exc.code else EXIT_SUCCESS
    try:
        subject, header = args.open(args)
        report = _Report(args.command)
        report.put_all(header)
        code = args.body(subject, args, report)
        report.emit(out, args.json)
        return code
    except (ValueError, ArithmeticError, RecursionError, MemoryError) as exc:
        if isinstance(exc, MemoryError):
            exc = ": ".join(filter(None, ("out of memory", str(exc))))
        err.write(f"error: {exc}\n")
        return EXIT_INPUT_ERROR


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
