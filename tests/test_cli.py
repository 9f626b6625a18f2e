import io
import json
import math
from pathlib import Path

import numpy as np
import pytest

try:
    from hypothesis import given, settings, strategies as st
except ImportError:
    given = None

from metriconn import cli
from metriconn.cli import run
from metriconn.expr import parse, to_source, to_sources

SPECS = Path(__file__).resolve().parent.parent / "specs"


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(list(argv), out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def run_json(*argv):
    code, out, err = run_cli(*argv, "--json")
    return code, json.loads(out), err


def test_check_skew_is_metric():
    code, fields, _ = run_json("check", str(SPECS / "skew.conn"))
    assert code == 0
    assert fields["verdict"] == "Metric"
    assert fields["metric.g.1.1"] == "1.0"
    assert fields["metric.g.1.2"] == "0.0"
    assert fields["metric.g.2.2"] == "1.0"


def test_check_real_eigenvalues_exits_one():
    code, fields, _ = run_json("check", str(SPECS / "realeig.conn"))
    assert code == 1
    assert fields["verdict"] == "NotMetricEigen"
    assert fields["chart.x0"] <= fields["witness.x"] <= fields["chart.x1"]
    assert fields["chart.y0"] <= fields["witness.y"] <= fields["chart.y1"]


def test_check_skew_condition_exits_one():
    code, fields, _ = run_json("check", str(SPECS / "skewfail.conn"))
    assert code == 1
    assert fields["verdict"] == "NotMetricSkew"
    assert -0.9 <= fields["witness.x"] <= 0.9


def test_check_flat_with_defect_exits_two():
    code, fields, _ = run_json("check", str(SPECS / "torus.conn"))
    assert code == 2
    assert fields["verdict"] == "Flat"
    assert fields["diagnostics.loop_defect"] > 0.9


def test_volume_torus_defect():
    code, fields, _ = run_json("volume", str(SPECS / "torus.conn"))
    assert code == 2
    assert fields["closed"] is True
    assert abs(fields["defect.x"] - 2.0 * 3.141592653589793) <= 1e-9


def test_volume_skew_clean():
    code, fields, _ = run_json("volume", str(SPECS / "skew.conn"))
    assert code == 0
    assert fields["closed"] is True


def test_euler_on_compare_pair():
    code, fields, _ = run_json("euler", str(SPECS / "compare_pair.conn"))
    assert code == 0
    assert abs(fields["euler_number"]) <= 1e-9


def test_compare_with_second_section():
    code, fields, _ = run_json("compare", str(SPECS / "compare_pair.conn"))
    assert code == 0
    assert fields["euler_number.difference"] <= 1e-9


def test_compare_two_files(tmp_path):
    second = tmp_path / "second.conn"
    second.write_text(
        "[chart]\n"
        "x = 0 .. 6.283185307179586\n"
        "y = 0 .. 6.283185307179586\n"
        "periodic = true true\n"
        "[connection]\n"
        "theta.1.2.dy = sin(x)\n"
        "theta.2.1.dy = -sin(x)\n",
        encoding="utf-8")
    code, fields, _ = run_json(
        "compare", str(SPECS / "compare_pair.conn"), str(second))
    assert code == 0
    assert fields["euler_number.difference"] <= 1e-9


def test_compare_incompatible_exits_one(tmp_path):
    spec = tmp_path / "incompat.conn"
    spec.write_text(
        "[chart]\n"
        "x = 0 .. 6.283185307179586\n"
        "y = 0 .. 6.283185307179586\n"
        "[connection]\n"
        "theta.1.1.dx = 1\n"
        "[connection2]\n"
        "theta.1.2.dy = x\n"
        "theta.2.1.dy = -x\n"
        "[metric]\n"
        "g.1.1 = 1\n"
        "g.2.2 = 1\n",
        encoding="utf-8")
    code, fields, _ = run_json("compare", str(spec))
    assert code == 1
    assert fields["error"] == "NotCompatible"
    assert fields["error.which"] == "first connection"


def test_torsion_command():
    code, fields, _ = run_json("torsion", str(SPECS / "realeig.conn"))
    assert code == 0
    assert fields["torsion.sup"] >= 0.0


def test_levi_civita_command():
    code, fields, _ = run_json("levi-civita", str(SPECS / "hyperbolic_band.conn"))
    assert code == 0
    assert fields["diagnostics.compat_residual"] <= 1e-10
    from metriconn.expr import parse
    assert parse(fields["theta.2.1.dy"]).eval(0.3, 1.0) == pytest.approx(1.0)
    assert parse(fields["theta.1.2.dy"]).eval(0.3, 1.0) == pytest.approx(-np.exp(0.6))


def test_semi_symmetric_command():
    code, fields, _ = run_json("semi-symmetric", str(SPECS / "hyperbolic_band.conn"))
    assert code == 0
    assert fields["diagnostics.compat_residual"] <= 1e-10
    assert fields["torsion.2.12"] != "0.0"


@pytest.mark.parametrize("name,expected_code", [
    ("torus", 2),
    ("semi_symmetric", 0),
    ("hyperbolic_band", 0),
])
def test_examples_run(name, expected_code):
    code, fields, _ = run_json("example", name)
    assert code == expected_code
    assert fields["example"] == name


def test_example_unknown_name():
    code, out, err = run_cli("example", "moebius")
    assert code == 3
    assert "unknown example" in err


def test_grid_override():
    code, fields, _ = run_json("check", str(SPECS / "skew.conn"), "--grid", "32", "48")
    assert code == 0
    assert fields["grid.nx"] == 32
    assert fields["grid.ny"] == 48


def test_malformed_spec_reports_location(tmp_path):
    bad = tmp_path / "bad.conn"
    bad.write_text(
        "[chart]\n"
        "x = 0 .. 1\n"
        "y = 0 .. 1\n"
        "[connection]\n"
        "theta.1.2.dy = x + \n",
        encoding="utf-8")
    code, out, err = run_cli("check", str(bad))
    assert code == 3
    assert "bad.conn:5" in err


def test_missing_chart_section(tmp_path):
    bad = tmp_path / "nochart.conn"
    bad.write_text("[connection]\ntheta.1.1.dx = 1\n", encoding="utf-8")
    code, _, err = run_cli("check", str(bad))
    assert code == 3
    assert "[chart]" in err


def test_unknown_key_rejected(tmp_path):
    bad = tmp_path / "key.conn"
    bad.write_text(
        "[chart]\nx = 0 .. 1\ny = 0 .. 1\nspin = 7\n", encoding="utf-8")
    code, _, err = run_cli("check", str(bad))
    assert code == 3
    assert "spin" in err


def test_missing_file():
    code, _, err = run_cli("check", "no_such_file.conn")
    assert code == 3
    assert "cannot read" in err


def test_a_spec_file_that_is_not_utf8_names_the_file(tmp_path):
    bad = tmp_path / "bad.conn"
    bad.write_bytes(b"\xff\xfe")
    code, out, err = run_cli("check", str(bad))
    assert (code, out) == (3, "")
    assert err == (f"error: {bad}:0: cannot read spec file: 'utf-8' codec can't decode "
                   "byte 0xff in position 0: invalid start byte\n")


def streamed_report():
    """A report whose plain strings need escapes, with every kind of scalar
    value, and expression text put as source."""
    report = cli._Report("check")
    report.put_all([("quote", 'a "b"'), ("backslash", "c\\d"), ("bell", "\x07"),
                    ("theta", "\u03b8"), ("nan", math.nan), ("inf", -math.inf),
                    ("flag", True), ("none", None), ("count", 7), ("half", np.float64(0.5))])
    texts = to_sources([parse("sin(x)^(-2)/y - 1e-300"), parse("-x^2"), parse("5e-324*y")])
    for k, text in enumerate(texts):
        report.put_source(f"metric.g.{k}", text)
    report.put_source("torsion.1.12", "0.0")
    return report


def test_the_streamed_report_is_json_dumps_of_its_fields(monkeypatch):
    report = streamed_report()
    expected = json.dumps(report.fields, sort_keys=True) + "\n"
    sources = [report.fields[key] for key in report.sources]
    encoded = []
    dumps = json.dumps

    def spy(obj, *args, **kwargs):
        encoded.append(obj)
        return dumps(obj, *args, **kwargs)

    monkeypatch.setattr(cli.json, "dumps", spy)
    out = io.StringIO()
    report.emit(out, as_json=True)
    assert out.getvalue() == expected
    # expression text is written as it is, never passed through the encoder
    assert encoded
    assert not [obj for obj in encoded if isinstance(obj, str) and obj in sources]


def test_a_value_that_cannot_be_encoded_writes_nothing():
    report = streamed_report()
    report.put("unencodable", object())
    out = io.StringIO()
    with pytest.raises(TypeError):
        report.emit(out, as_json=True)
    assert out.getvalue() == ""


def test_json_reports_are_deterministic():
    first = run_cli("check", str(SPECS / "skew.conn"), "--json")
    second = run_cli("check", str(SPECS / "skew.conn"), "--json")
    assert first == second
    assert first[1].endswith("\n")


def test_json_round_trip():
    _, out, _ = run_cli("check", str(SPECS / "torus.conn"), "--json")
    fields = json.loads(out)
    assert json.dumps(fields, sort_keys=True) + "\n" == out
    for value in fields.values():
        # flat document: every value is a scalar, never a nested structure
        assert isinstance(value, (str, int, float, bool))


def test_metric_command_dumps_sampled_metric():
    code, out, _ = run_cli("metric", str(SPECS / "torus.conn"))
    assert code == 2
    # 64 x 64 node samples follow the report
    data = [ln for ln in out.splitlines() if ln.count(" ") == 4 and ":" not in ln]
    assert len(data) == 64 * 64
    x, y, g11, g12, g22 = map(float, data[-1].split())
    assert g11 > 1.0 and abs(g12) < 1e-9


def test_human_report_includes_wall_clock():
    code, out, _ = run_cli("check", str(SPECS / "skew.conn"))
    assert code == 0
    assert "wall_clock:" in out
    assert "verdict: Metric" in out


def test_euler_requires_metric_section():
    code, _, err = run_cli("euler", str(SPECS / "skew.conn"))
    assert code == 3
    assert "[metric]" in err


def test_compare_rejects_chart_mismatch(tmp_path):
    second = tmp_path / "second.conn"
    second.write_text(
        "[chart]\nx = 0 .. 1\ny = 0 .. 1\n[connection]\ntheta.1.2.dy = x\n",
        encoding="utf-8")
    code, _, err = run_cli(
        "compare", str(SPECS / "compare_pair.conn"), str(second))
    assert code == 3
    assert "chart" in err


def test_out_of_domain_coefficient_is_input_error(tmp_path):
    bad = tmp_path / "domain.conn"
    bad.write_text(
        "[chart]\nx = -1 .. 1\ny = -1 .. 1\n"
        "[connection]\ntheta.1.2.dy = ln(x)\ntheta.2.1.dy = -ln(x)\n",
        encoding="utf-8")
    code, _, err = run_cli("check", str(bad))
    assert code == 3
    assert "ln" in err


def test_tolerance_scaling_is_echoed():
    _, strict, _ = run_json("check", str(SPECS / "skew.conn"))
    _, loose, _ = run_json("check", str(SPECS / "skew.conn"), "--tol", "10")
    for name in ("skew_base", "eigen_trace", "eigen_det", "parallel"):
        assert loose[f"tolerance.{name}"] == 10 * strict[f"tolerance.{name}"], name
    # formed as (base * T) * (1 + sup|theta|): one rounding apart from 10x
    flat = 10 * strict["tolerance.flat"]
    assert abs(loose["tolerance.flat"] - flat) <= math.ulp(flat)
    assert loose["verdict"] == strict["verdict"] == "Metric"
    _, strict, _ = run_json("volume", str(SPECS / "skew.conn"))
    _, loose, _ = run_json("volume", str(SPECS / "skew.conn"), "--tol", "10")
    closed = 10 * strict["tolerance.closed"]
    assert abs(loose["tolerance.closed"] - closed) <= math.ulp(closed)
    assert loose["closed"] is strict["closed"] is True


def _spec(tmp_path, name, connection, chart="x = -1 .. 1\ny = -1 .. 1\ngrid = 32 32\n"):
    path = tmp_path / name
    path.write_text(f"[chart]\n{chart}\n[connection]\n{connection}\n", encoding="utf-8")
    return str(path)


def test_one_flat_tolerance(tmp_path):
    # curvature 5e-9: flat under --tol 10, not flat under the defaults; the
    # parallel frame takes the same scaled tolerance as the decision
    spec = _spec(tmp_path, "near_flat.conn", "theta.1.2.dy = 5e-9 * x")
    code, fields, err = run_json("check", spec, "--tol", "10")
    assert (code, fields["verdict"], err) == (0, "Flat", "")
    code, fields, _ = run_json("check", spec)
    assert (code, fields["verdict"]) == (1, "NotMetricEigen")


def test_euler_of_a_steep_metric_exits_zero(tmp_path):
    # the Levi-Civita connection of diag(1, exp(3x)); K = -2.25
    path = tmp_path / "steep.conn"
    path.write_text("[chart]\nx = 0 .. 20\ny = 0 .. 1\ngrid = 64 16\n\n"
                    "[connection]\ntheta.1.2.dy = -1.5*exp(3*x)\n"
                    "theta.2.1.dy = 1.5\ntheta.2.2.dx = 1.5\n\n"
                    "[metric]\ng.1.1 = 1\ng.2.2 = exp(3*x)\n", encoding="utf-8")
    code, fields, err = run_json("euler", str(path))
    assert (code, err) == (0, "")
    expected = -1.5 * math.expm1(30.0) / (2.0 * math.pi)
    assert abs(fields["euler_number"] / expected - 1.0) <= 1e-4


@pytest.mark.parametrize("command,connection", [
    ("check", "theta.1.1.dx = 1/0"),
    # flat, finite on the sample grid, infinite on the node line x = 0
    ("check", "theta.1.1.dx = 1/x"),
])
def test_numerical_failures_are_input_errors(tmp_path, command, connection):
    spec = _spec(tmp_path, "bad.conn", connection,
                 chart="x = 0 .. 1\ny = 0 .. 1\ngrid = 16 16\n")
    code, out, err = run_cli(command, spec)
    assert code == 3
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("command,field,verdict,expected_code", [
    ("check", "verdict", "NotMetricEigen", 1),
    ("volume", "closed", True, 0),
])
def test_long_sum_gets_a_verdict(tmp_path, command, field, verdict, expected_code):
    # 5000 terms: deeper than the interpreter's recursion limit
    spec = _spec(tmp_path, "long.conn", "theta.1.2.dy = " + " + ".join(["sin(x)"] * 5000),
                 chart="x = 0 .. 1\ny = 0 .. 1\ngrid = 16 16\n")
    code, fields, err = run_json(command, spec)
    assert (code, fields[field], err) == (expected_code, verdict, "")


def test_overflowing_constants_are_located(tmp_path):
    # two constants fold only to a finite constant: the product stays a node
    # that prints, parses back, and is named where it overflows
    assert to_source(parse("1e200*1e200*x")) == "1e+200*1e+200*x"
    assert to_source(parse(to_source(parse("1e200*1e200*x")))) == "1e+200*1e+200*x"
    spec = _spec(tmp_path, "overflow.conn", "theta.1.2.dy = 1e200*1e200*x",
                 chart="x = 0 .. 1\ny = 0 .. 1\ngrid = 16 16\n")
    code, out, err = run_cli("check", spec)
    assert (code, out) == (3, "")
    assert err == "error: overflow at (0.03125, 0.03125) while evaluating 1e+200*1e+200\n"


@pytest.mark.parametrize("coefficient,named", [
    ("x + 0*(1/0)", "division by zero at (1.03125, 0.03125) while evaluating 1.0/0.0"),
    ("x + 1e200*1e200*0", "overflow at (1.03125, 0.03125) while evaluating 1e+200*1e+200"),
    ("x + (1/0)^0", "division by zero at (1.03125, 0.03125) while evaluating 1.0/0.0"),
    ("x + 1/0", "division by zero at (1.03125, 0.03125) while evaluating 1.0/0.0"),
    ("x + (1e200)^2*y", "overflow at (1.03125, 0.03125) while evaluating 1e+200^2.0"),
    ("x + 0^(-1)*y",
     "zero base with negative exponent at (1.03125, 0.03125) while evaluating 0.0^(-1.0)"),
])
def test_an_undefined_constant_is_named(tmp_path, coefficient, named):
    # a zero factor or a zeroth power absorbed the first three, so the
    # coefficient read as x (or x + 1) and the check gave a verdict; the
    # last three failed with a bare Python error that named no constant
    spec = _spec(tmp_path, "hidden.conn", f"theta.1.2.dy = {coefficient}\ntheta.2.1.dy = -x",
                 chart="x = 1 .. 2\ny = 0 .. 1\ngrid = 16 16\n")
    for argv in (["check", spec], ["check", spec, "--json"]):
        code, out, err = run_cli(*argv)
        assert (code, out) == (3, "")
        assert err == f"error: {named}\n"


def test_overflowing_literal_is_an_input_error(tmp_path):
    # it folded to inf and was reported as a non-finite value of 'x + inf*x'
    spec = _spec(tmp_path, "literal.conn", "theta.1.2.dy = x + 1e999*x\ntheta.2.1.dy = -x",
                 chart="x = 0 .. 1\ny = 0 .. 1\ngrid = 16 16\n")
    for argv in (["check", spec], ["check", spec, "--json"], ["volume", spec]):
        code, out, err = run_cli(*argv)
        assert (code, out) == (3, "")
        assert err == (f"error: {spec}:7: bad expression 'x + 1e999*x': "
                       "number 1e999 is out of range at offset 4\n")


@pytest.mark.parametrize("tail,cut", [("", "'"), (" + x" * 100, "'...")])
def test_parse_error_in_a_long_coefficient_echoes_a_window(tmp_path, tail, cut):
    # it echoed the whole coefficient: a 20 439-character error line
    coefficient = "+".join(["x"] * 10000) + " $" + tail
    spec = _spec(tmp_path, "long.conn", f"theta.1.2.dy = {coefficient}\ntheta.2.1.dy = -x")
    for argv in (["check", spec], ["check", spec, "--json"]):
        code, out, err = run_cli(*argv)
        assert (code, out) == (3, "")
        [line] = err.splitlines()
        assert line.startswith(f"error: {spec}:7: bad expression ...'x+x+")
        assert len(line) - len(spec) < 150      # the echo, not the file name, is bounded
        assert f" ${tail[:29]}{cut}: " in line
        assert line.endswith(f" at offset {coefficient.index('$')}")


@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_out_of_memory_is_an_input_error(monkeypatch, json_flag):
    # a MemoryError escaped as a traceback with exit 1, which means "not metric"
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 8.00 GiB for an array")

    monkeypatch.setattr(cli, "check_metrizability", exhausted)
    code, out, err = run_cli("check", str(SPECS / "skew.conn"), *json_flag)
    assert (code, out) == (3, "")
    assert err == "error: out of memory: Unable to allocate 8.00 GiB for an array\n"


@pytest.mark.parametrize("value", ["-1", "0", "nan", "inf"])
def test_tolerance_scale_must_be_finite_and_positive(value, capsys):
    code, out, err = run_cli("check", str(SPECS / "skew.conn"), "--tol", value)
    assert code == 3
    assert out == ""
    assert "argument --tol: must be finite and > 0" in err
    assert capsys.readouterr() == ("", "")


def test_option_errors_and_help_go_to_the_callers_streams(capsys):
    code, out, err = run_cli("check", str(SPECS / "skew.conn"), "--frobnicate")
    assert (code, out) == (3, "")
    assert "unrecognized arguments: --frobnicate" in err
    code, out, err = run_cli("check", "--help")
    assert (code, err) == (0, "")
    assert out.startswith("usage: metriconn check")
    assert capsys.readouterr() == ("", "")


def test_overflowing_parallel_frame_is_input_error(tmp_path, capsys, recwarn):
    # flat, but RK4 at |theta| h = 47 per step overflows: an input error,
    # not a Flat verdict with a NaN frame residual and metric
    spec = _spec(tmp_path, "stiff.conn", "theta.1.1.dx = 800",
                 chart="x = 0 .. 30\ny = 0 .. 1\ngrid = 256 16\n")
    code, out, err = run_cli("check", spec, "--json")
    assert (code, out) == (3, "")
    assert err.startswith("error: the parallel frame is not finite")
    assert capsys.readouterr() == ("", "")
    assert not recwarn.list


def test_metric_gives_one_exit_code_in_both_modes(tmp_path):
    # the decision samples cell midpoints and never meets x = 0, where the
    # metric divides by x; the metric table samples the nodes.  Text mode
    # wrote the whole report and then exited 3, while --json exited 0
    spec = _spec(tmp_path, "log.conn",
                 "theta.1.2.dy = ln(x)\ntheta.2.1.dy = 0 - ln(x)\n"
                 "theta.1.1.dx = 0.5\ntheta.2.2.dx = 0.5",
                 chart="x = 0 .. 1\ny = 0 .. 1\ngrid = 8 8\n")
    code, fields, _ = run_json("check", spec)
    assert (code, fields["verdict"]) == (0, "Metric")
    for mode in ((), ("--json",)):
        code, out, err = run_cli("metric", spec, *mode)
        assert (code, out) == (3, "")
        assert err.startswith("error: division by zero at (0, 0)")


@pytest.mark.parametrize("command", ["check", "volume"])
def test_basepoint_outside_the_chart_is_input_error(command):
    code, out, err = run_cli(command, str(SPECS / "skew.conn"), "--basepoint", "100", "100")
    assert code == 3
    assert out == ""
    assert "outside the chart" in err


def _chart_case(axis, bounds, grid, message):
    return pytest.param(axis, bounds, grid, message, id=f"{axis}-{bounds}")


@pytest.mark.parametrize("command", ["volume", "euler", "torsion", "check"])
@pytest.mark.parametrize("axis,bounds,grid,message", [
    # an infinite bound gave a closed volume form with NaN potentials, a NaN
    # Euler number and a non-JSON 'Infinity' chart field, all with exit 0
    _chart_case("x", "0 .. inf", 16, "x_range must be finite"),
    _chart_case("y", "-inf .. 0", 16, "y_range must be finite"),
    _chart_case("x", "nan .. 1", 16, "x_range must be finite"),
    # a width that overflows, or cells that underflow to 0, gave NaN in the
    # JSON report with exit 0
    _chart_case("x", "-1e308 .. 1e308", 16, "x_range must give a finite positive grid spacing"),
    _chart_case("x", "0 .. 5e-324", 16, "x_range must give a finite positive grid spacing"),
    # 50 distinct node samples out of 64, and still a verdict
    _chart_case("x", "1e16 .. 1.00000000000001e16", 64, "x_range is too narrow"),
])
def test_non_finite_chart_bounds_are_input_errors(tmp_path, command, axis, bounds, grid, message):
    ranges = {"x": "0 .. 1", "y": "0 .. 1", axis: bounds}
    path = tmp_path / "unbounded.conn"
    path.write_text(f"[chart]\nx = {ranges['x']}\ny = {ranges['y']}\ngrid = {grid} {grid}\n\n"
                    "[connection]\ntheta.1.2.dy = 1\ntheta.2.1.dy = -1\n\n"
                    "[metric]\ng.1.1 = 1\ng.2.2 = 1\n", encoding="utf-8")
    code, out, err = run_cli(command, str(path), "--json")
    assert (code, out) == (3, "")
    assert message in err


def test_deeply_parenthesised_coefficient(tmp_path):
    # 300 nested parentheses overflowed the recursive parser's stack
    deep = "(" * 300 + "x" + ")" * 300
    spec = _spec(tmp_path, "deep.conn", f"theta.1.2.dy = {deep}\ntheta.2.1.dy = -x",
                 chart="x = 0 .. 1\ny = 0 .. 1\ngrid = 16 16\n")
    code, fields, err = run_json("check", spec)
    assert (code, fields["verdict"], err) == (0, "Metric", "")


# ---------------------------------------------------------------------------
# the exit-code contract on generated spec files

SPEC_COMMANDS = ("check", "metric", "volume", "euler", "torsion", "levi-civita",
                 "semi-symmetric", "compare")


def coefficients(variables="xy"):
    """Coefficient text from the expression grammar in the given variables.
    The leaves are the variables, numbers, the named constants, and the
    eight functions and four powers of a variable, which vanish, or have a
    derivative that vanishes or blows up, at 0 and at multiples of pi/2.
    Leaves combine under the four operators, the functions, powers and
    unary minus, with every compound operand parenthesised."""
    variable = st.sampled_from(variables)
    functions = st.sampled_from(["sin", "cos", "tan", "exp", "ln", "sqrt", "sinh", "cosh"])
    powers = st.sampled_from(["2", "3", "0.5", "-1"])
    leaves = st.one_of(
        variable,
        st.sampled_from(["pi", "e", "0", "1", "0.5", "2.5", "3", "1e3"]),
        st.builds(lambda f, v: f"{f}({v})", functions, variable),
        st.builds(lambda v, k: f"({v})^{k}", variable, powers),
    )

    def extend(inner):
        return st.one_of(
            st.builds(lambda f, a: f"{f}({a})", functions, inner),
            st.builds(lambda a, op, b: f"({a}) {op} ({b})", inner,
                      st.sampled_from("+-*/"), inner),
            st.builds(lambda a, k: f"({a})^{k}", inner, powers),
            st.builds(lambda a: f"-({a})", inner),
        )

    return st.recursive(leaves, extend, max_leaves=6)


def draw_spec(draw):
    """A spec file on a random chart with 8-12 samples an axis: a connection
    of random entries, or a skew one with an optional closed trace
    ``t(x) dx``, metric where its curvature does not vanish; and optional
    second connection, metric and one-form sections.  ``draw`` is that of
    a Hypothesis composite strategy."""
    def bounds():
        # an edge or a node at 0, where ln, sqrt and negative powers break
        lo = draw(st.sampled_from([0.0, -1.0, 0.5, -3.0]))
        return f"{lo} .. {lo + draw(st.sampled_from([0.5, 1.0, 2.0, 6.283185307179586]))}"

    def entries(keys):
        chosen = draw(st.lists(st.sampled_from(keys), min_size=1, max_size=4, unique=True))
        return "".join(f"{key} = {draw(coefficients())}\n" for key in chosen)

    def connection():
        if draw(st.booleans()):
            return entries([f"theta.{i}.{j}.{part}" for i in "12" for j in "12"
                            for part in ("dx", "dy")])
        # the curvature of w dy is w_x dx^dy, and that of w dx is -w_y dx^dy
        part, variable = draw(st.sampled_from([("dy", "x"), ("dx", "y")]))
        w = draw(coefficients(variable))
        text = f"theta.1.2.{part} = {w}\ntheta.2.1.{part} = -({w})\n"
        if draw(st.integers(0, 3)):
            trace = draw(coefficients("x"))
            text += f"theta.1.1.dx = {trace}\ntheta.2.2.dx = {trace}\n"
        return text

    def metric():
        diagonal = st.one_of(st.sampled_from(["1", "2.5"]),
                             coefficients().map(lambda a: f"1 + ({a})^2"), coefficients())
        text = f"g.1.1 = {draw(diagonal)}\ng.2.2 = {draw(diagonal)}\n"
        if draw(st.booleans()):
            text += f"g.1.2 = 0.1 * ({draw(coefficients())})\n"
        return text

    periodic = " ".join(draw(st.sampled_from(["true", "false"])) for _ in "xy")
    grid = " ".join(str(draw(st.integers(8, 12))) for _ in "xy")
    text = (f"[chart]\nx = {bounds()}\ny = {bounds()}\nperiodic = {periodic}\n"
            f"grid = {grid}\n\n[connection]\n{connection()}")
    for section, body in (("connection2", connection), ("metric", metric),
                          ("oneform", lambda: entries(["u.dx", "u.dy"]))):
        if draw(st.integers(0, 3)):
            text += f"\n[{section}]\n{body()}"
    return text


@pytest.mark.skipif(given is None, reason="needs Hypothesis")
def test_generated_specs_keep_the_exit_code_contract(tmp_path):
    # every spec command, in text and in --json mode, exits 0, 1, 2 or 3
    # without raising; both modes agree; --json writes one JSON document
    # unless the input is an error, and an input error writes nothing
    path = tmp_path / "generated.conn"

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(st.composite(draw_spec)())
    def check(text):
        path.write_text(text, encoding="utf-8")
        for command in SPEC_COMMANDS:
            code, out, _ = run_cli(command, str(path))
            json_code, json_out, _ = run_cli(command, str(path), "--json")
            assert code in (0, 1, 2, 3), (command, text)
            assert json_code == code, (command, text)
            if code == 3:
                assert out == json_out == "", (command, text)
            else:
                assert json.loads(json_out)["command"] == command

    check()
