"""Line-oriented spec files describing a chart, a connection, and optional
metric / one-form / second-connection sections.

Format::

    # comments start with '#'
    [chart]
    x = 0 .. 6.2831853
    y = 0 .. 6.2831853
    periodic = true true      # optional, default "false false"
    grid = 64 64              # optional, default "64 64"

    [connection]
    theta.1.1.dx = <expr>     # every theta.I.J.{dx,dy} defaults to "0"
    theta.1.2.dy = x

    [connection2]             # optional second connection (same keys)
    [metric]                  # g.1.1, g.1.2, g.2.2 (g.1.2 defaults to 0)
    [oneform]                 # u.dx, u.dy (default 0)

Expressions use the grammar of :mod:`metriconn.expr`.  All the
expressions of one file are parsed in one
:func:`~metriconn.expr.parse_context`, so a subtree that recurs anywhere in
the file is one node.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass
from pathlib import Path

from .expr import Const, Expr, ParseError, parse, parse_context
from .forms import Chart, OneForm
from .connection import ConnectionMatrix, MetricField

__all__ = ["SpecFile", "SpecError", "load_spec", "parse_spec"]


class SpecError(ValueError):
    """Malformed spec file; carries the source location."""

    def __init__(self, source: str, line: int, message: str):
        super().__init__(f"{source}:{line}: {message}")
        self.source = source
        self.line = line
        self.reason = message


@dataclass(frozen=True)
class SpecFile:
    chart: Chart
    connection: ConnectionMatrix | None
    connection2: ConnectionMatrix | None
    metric: MetricField | None
    oneform: OneForm | None
    digest: str
    source: str

    def require_connection(self) -> ConnectionMatrix:
        if self.connection is None:
            raise SpecError(self.source, 0, "a [connection] section is required")
        return self.connection

    def require_metric(self) -> MetricField:
        if self.metric is None:
            raise SpecError(self.source, 0, "a [metric] section is required")
        return self.metric

    def require_oneform(self) -> OneForm:
        if self.oneform is None:
            raise SpecError(self.source, 0, "a [oneform] section is required")
        return self.oneform


_SECTION_RE = re.compile(r"^\[([a-z0-9_]+)\]$")
_KEY_RE = re.compile(r"^([A-Za-z0-9_.]+)\s*=\s*(.*)$")
_THETA_RE = re.compile(r"^theta\.([12])\.([12])\.(dx|dy)$")
_METRIC_RE = re.compile(r"^g\.([12])\.([12])$")

_SECTIONS = ("chart", "connection", "connection2", "metric", "oneform")
_BOOLEANS = {"true": True, "yes": True, "1": True,
             "false": False, "no": False, "0": False}


def _parse_expr(source: str, line: int, text: str) -> Expr:
    try:
        return parse(text)
    except ParseError as err:
        shown = repr(text)
        if len(text) > 80:      # echo a window around the offset, cuts marked
            lo, hi = max(0, err.offset - 30), err.offset + 30
            shown = "..." * (lo > 0) + repr(text[lo:hi]) + "..." * (hi < len(text))
        raise SpecError(source, line,
                        f"bad expression {shown}: {err.message} at offset {err.offset}"
                        ) from err


def _parse_range(source: str, line: int, text: str) -> tuple[float, float]:
    parts = text.split("..")
    if len(parts) != 2:
        raise SpecError(source, line, f"expected 'a .. b', got {text!r}")
    try:
        return (float(parts[0]), float(parts[1]))
    except ValueError as err:
        raise SpecError(source, line, f"bad range bounds {text!r}") from err


def _parse_pair(source: str, line: int, text: str, conv, what: str):
    parts = text.split()
    if len(parts) != 2:
        raise SpecError(source, line, f"expected two {what} values, got {text!r}")
    try:
        return (conv(parts[0]), conv(parts[1]))
    except (ValueError, KeyError) as err:
        raise SpecError(source, line, f"bad {what} pair {text!r}") from err


def parse_spec(text: str, source: str = "<spec>") -> SpecFile:
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    sections: dict[str, dict[str, tuple[int, str]]] = {}
    current: dict[str, tuple[int, str]] | None = None
    current_name = ""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _SECTION_RE.match(line)
        if m:
            name = m.group(1)
            if name not in _SECTIONS:
                raise SpecError(source, lineno, f"unknown section [{name}]")
            if name in sections:
                raise SpecError(source, lineno, f"duplicate section [{name}]")
            current = {}
            current_name = name
            sections[name] = current
            continue
        m = _KEY_RE.match(line)
        if not m:
            raise SpecError(source, lineno, f"expected 'key = value', got {line!r}")
        if current is None:
            raise SpecError(source, lineno, "key outside of any section")
        key, value = m.group(1), m.group(2).strip()
        if key in current:
            raise SpecError(source, lineno, f"duplicate key {key!r} in [{current_name}]")
        current[key] = (lineno, value)

    if "chart" not in sections:
        raise SpecError(source, 0, "a [chart] section is required")
    chart = _build_chart(source, sections.pop("chart"))
    with parse_context():
        connection = _build_connection(source, sections.pop("connection", None), chart)
        connection2 = _build_connection(source, sections.pop("connection2", None), chart)
        metric = _build_metric(source, sections.pop("metric", None))
        oneform = _build_oneform(source, sections.pop("oneform", None))
    return SpecFile(chart, connection, connection2, metric, oneform, digest, source)


def _take(section: dict, key: str):
    return section.pop(key, None)


def _reject_unknown(source: str, section: dict, where: str) -> None:
    if section:
        key, (lineno, _) = next(iter(section.items()))
        raise SpecError(source, lineno, f"unknown key {key!r} in [{where}]")


def _build_chart(source: str, section: dict) -> Chart:
    x_item = _take(section, "x")
    y_item = _take(section, "y")
    if x_item is None or y_item is None:
        raise SpecError(source, 0, "[chart] needs both 'x = a .. b' and 'y = a .. b'")
    x_range = _parse_range(source, x_item[0], x_item[1])
    y_range = _parse_range(source, y_item[0], y_item[1])
    periodic = (False, False)
    grid = (64, 64)
    item = _take(section, "periodic")
    if item is not None:
        periodic = _parse_pair(source, item[0], item[1].lower(),
                               _BOOLEANS.__getitem__, "boolean")
    item = _take(section, "grid")
    if item is not None:
        grid = _parse_pair(source, item[0], item[1], int, "integer")
    _reject_unknown(source, section, "chart")
    try:
        return Chart(x_range, y_range, periodic[0], periodic[1], grid)
    except ValueError as err:
        raise SpecError(source, 0, str(err)) from err


def _build_connection(source: str, section: dict | None, chart: Chart):
    if section is None:
        return None
    zero = Const(0.0)
    coeffs = [[[zero, zero] for _ in range(2)] for _ in range(2)]
    for key, (lineno, value) in section.items():
        m = _THETA_RE.match(key)
        if not m:
            raise SpecError(source, lineno, f"unknown key {key!r} in a connection section")
        i, j = int(m.group(1)) - 1, int(m.group(2)) - 1
        axis = 0 if m.group(3) == "dx" else 1
        coeffs[i][j][axis] = _parse_expr(source, lineno, value)
    rows = tuple(
        tuple(OneForm(coeffs[i][j][0], coeffs[i][j][1]) for j in range(2))
        for i in range(2)
    )
    return ConnectionMatrix(rows, chart)


def _build_metric(source: str, section: dict | None):
    if section is None:
        return None
    entries = {}
    for key, (lineno, value) in section.items():
        m = _METRIC_RE.match(key)
        if not m:
            raise SpecError(source, lineno, f"unknown key {key!r} in [metric]")
        idx = (int(m.group(1)), int(m.group(2)))
        entries[idx] = (lineno, _parse_expr(source, lineno, value))
    if (1, 2) in entries and (2, 1) in entries:
        raise SpecError(source, entries[(2, 1)][0],
                        "give only one of g.1.2 / g.2.1 (the metric is symmetric)")
    off = entries.get((1, 2), entries.get((2, 1), (0, Const(0.0))))[1]
    for idx in ((1, 1), (2, 2)):
        if idx not in entries:
            raise SpecError(source, 0, f"[metric] needs g.{idx[0]}.{idx[1]}")
    return MetricField.symmetric(entries[(1, 1)][1], off, entries[(2, 2)][1])


def _build_oneform(source: str, section: dict | None):
    if section is None:
        return None
    zero = Const(0.0)
    p, q = zero, zero
    for key, (lineno, value) in section.items():
        if key == "u.dx":
            p = _parse_expr(source, lineno, value)
        elif key == "u.dy":
            q = _parse_expr(source, lineno, value)
        else:
            raise SpecError(source, lineno, f"unknown key {key!r} in [oneform]")
    return OneForm(p, q)


def load_spec(path: str | Path) -> SpecFile:
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as err:
        raise SpecError(str(p), 0, f"cannot read spec file: {err}") from err
    return parse_spec(text, str(p))
