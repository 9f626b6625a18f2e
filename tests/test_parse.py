"""The stack parser against the recursive reference parser, on every input
they are given: the same tree with the same sharing, or the same error.
Also the parser's depth, time and memory on deeply nested text."""

from __future__ import annotations

import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

try:
    from hypothesis import given, settings, strategies as st
except ImportError:
    given = None

from metriconn.connection import compatibility_residual
from metriconn.expr import (
    Call,
    Const,
    ParseError,
    Var,
    X,
    _operands,
    eval_grid_many,
    parse,
    parse_context,
    to_source,
)
from metriconn.gallery import GALLERY
from metriconn.specfile import SpecError, load_spec

from helpers import reference_parse, scrambled_instance, torus_chart

ROOT = Path(__file__).resolve().parent.parent
SPEC_FILES = sorted((ROOT / "specs").glob("*.conn")) + sorted((ROOT / "tests" / "data").glob("*.conn"))

MALFORMED = [
    "", "  ", "x +", "x y", "(x", "x)", "()", "sin x", "sin(", "1.5.5",
    "x^2^3", "(x^2^3)", "x^-y", "x^(0/0)", "foo(x)", "x # y", "x$",
]


def distinct_nodes(e) -> list:
    """The distinct node objects (by identity) below ``e``, operands first."""
    order, seen, stack = [], set(), [e]
    while stack:
        node = stack[-1]
        if id(node) in seen:
            stack.pop()
            continue
        pending = [k for k in _operands(node) if id(k) not in seen]
        if pending:
            stack.extend(pending)
            continue
        stack.pop()
        seen.add(id(node))
        order.append(node)
    return order


def outcome(parser, text: str):
    """What ``parser`` makes of ``text``: the error's (offset, message,
    token), or the tree's source, the value numbers of its distinct nodes in
    post-order, and their count.  The numbers are renumbered from 0 in order
    of first appearance, as a numbering of this tree alone would give."""
    try:
        e = parser(text)
    except ParseError as err:
        return ("error", err.offset, err.message, err.token)
    nodes = distinct_nodes(e)
    first: dict = {}
    numbers = [first.setdefault(node._num.n, len(first)) for node in nodes]
    return ("tree", to_source(e), numbers, len(nodes))


def assert_same_as_reference(text: str):
    assert outcome(parse, text) == outcome(reference_parse, text), text[:120]


def spec_coefficients(path: Path) -> list[str]:
    """The expression texts of a spec file: every value outside [chart]."""
    texts, section = [], ""
    for raw in path.read_text(encoding="utf-8").splitlines():
        line = raw.split("#", 1)[0].strip()
        if line.startswith("["):
            section = line
        elif "=" in line and section != "[chart]":
            texts.append(line.split("=", 1)[1].strip())
    return texts


def connection_sources(theta) -> list[str]:
    return [to_source(e) for row in theta.entries for form in row for e in (form.p, form.q)]


# ---------------------------------------------------------------------------
# differential: the same tree or the same error


@pytest.mark.parametrize("path", SPEC_FILES, ids=lambda p: p.name)
def test_spec_coefficients_parse_as_the_reference_does(path):
    texts = spec_coefficients(path)
    assert texts
    for text in texts:
        assert_same_as_reference(text)


@pytest.mark.parametrize("name", sorted(GALLERY))
def test_gallery_sources_parse_as_the_reference_does(name):
    entry = GALLERY[name]()
    texts = connection_sources(entry.connection)
    if entry.metric is not None:
        texts += [to_source(e) for row in entry.metric.entries for e in row]
        texts += [to_source(f) for row in compatibility_residual(entry.connection, entry.metric)
                  for form in row for f in (form.p, form.q)]
    for text in texts:
        assert_same_as_reference(text)


@pytest.mark.parametrize("seed", [5, 29])
def test_scrambled_sources_parse_as_the_reference_does(seed):
    # gauge scrambles repeat the same groups many times over: the memo's case
    _, _, theta = scrambled_instance(np.random.default_rng(seed), torus_chart((16, 16)))
    texts = connection_sources(theta)
    assert max(map(len, texts)) > 10_000
    for text in texts:
        assert_same_as_reference(text)


@pytest.mark.parametrize("text", MALFORMED)
def test_malformed_text_fails_as_the_reference_does(text):
    assert outcome(parse, text)[0] == "error"
    assert_same_as_reference(text)


@pytest.mark.parametrize("text", [
    "-x^2", "--x", "x^-2", "2*-3^2", "1 - -x", "x/-0.0 + x/0.0", "((x))^2*3-4/5+-y",
    "sin(sin(x)) + sin(sin(x))", "(x+1)*(x+1) - (x+1)", "sin(x+1) + (x+1)", "(x+1)^2 + (x+1",
    # an illegal character after a syntax error is reported first
    "(x+1) + (x+1 $", "x^y $", "x^(0/0) #",
    # groups over the fingerprint length: a hit, a same-fingerprint miss, an error in the copy
    "(x + x + x + x + x + 1 + x + x + x + x + x)*(x + x + x + x + x + 1 + x + x + x + x + x)",
    "(x + x + x + x + x + 1 + x + x + x + x + x)*(x + x + x + x + x + 2 + x + x + x + x + x)",
    "(x + x + x + x + x + 1 + x + x + x + x + x)*(x + x + x + x + x + $ + x + x + x + x + x)",
])
def test_group_reuse_and_precedence_match_the_reference(text):
    assert_same_as_reference(text)


@pytest.mark.parametrize("text,offset,literal", [
    ("1e999*x", 0, "1e999"),
    ("x + 2*1e400", 6, "1e400"),
    ("sin(1e309)", 4, "1e309"),
    ("-1e999", 1, "1e999"),
    ("(x + 1e999) + (x + 1e999)", 5, "1e999"),
    ("x^1e999", 2, "1e999"),
    ("1" + "0" * 400, 0, "1" + "0" * 400),
])
def test_an_overflowing_literal_is_a_parse_error(text, offset, literal):
    # it folded to Const(inf), which prints as 'inf' and does not parse back
    with pytest.raises(ParseError) as excinfo:
        parse(text)
    err = excinfo.value
    assert (err.offset, err.message, err.token) == (
        offset, f"number {literal} is out of range", literal)
    assert_same_as_reference(text)


@pytest.mark.parametrize("text,error", [
    ("1e999 $", (6, "illegal character", "$")),
    ("1e999 + (x", (0, "number 1e999 is out of range", "1e999")),
    ("x + 1e999)", (4, "number 1e999 is out of range", "1e999")),
])
def test_an_overflowing_literal_keeps_the_error_order(text, error):
    # an illegal character anywhere is reported first; the literal comes
    # before a later syntax error
    assert outcome(parse, text) == ("error", *error)
    assert_same_as_reference(text)


def test_largest_and_underflowing_literals_parse():
    assert parse("1.7976931348623157e308*x").left.value == 1.7976931348623157e308
    assert to_source(parse("1e-999*x")) == "0.0"


def test_unary_minus_binds_before_power():
    [value] = eval_grid_many([parse("-x^2")], 3.0, 0.0)
    assert value == 9.0


def test_reused_group_is_the_same_node():
    e = parse("sin(x*y + 1) * (x*y + 1) - (x*y + 1)")
    assert e.right is e.left.right is e.left.left.arg


# with a tab and a no-break space (whitespace to both lexers) and an
# Arabic-Indic three (a digit to their number pattern)
VOCABULARY = ["x", "y", "pi", "e", "0", "1", "2.5", "1e3", ".5", "sin", "ln", "sqrt",
              "foo", "(", ")", "(", ")", "+", "-", "*", "/", "^", " ", "\t", "\u00a0",
              "\u0663", "$"]


def soups():
    return st.lists(st.sampled_from(VOCABULARY), max_size=30).map("".join)


@pytest.mark.skipif(given is None, reason="needs Hypothesis")
def test_token_soups_parse_as_the_reference_does():
    @settings(max_examples=400, deadline=None)
    @given(soups())
    def check(text):
        assert_same_as_reference(text)

    check()


@pytest.mark.skipif(given is None, reason="needs Hypothesis")
def test_repeated_groups_in_soups_parse_as_the_reference_does():
    @settings(max_examples=200, deadline=None)
    @given(soups(), soups())
    def check(a, b):
        assert_same_as_reference(f"({a})*sin({a}) + ({b}) - ({a})^2 + ln(({b}))")

    check()


# ---------------------------------------------------------------------------
# one parse context per spec file


def spec_roots(spec) -> list:
    """Every expression of a loaded spec file, in every section."""
    roots = []
    for theta in (spec.connection, spec.connection2):
        if theta is not None:
            roots += [e for row in theta.entries for form in row for e in (form.p, form.q)]
    if spec.metric is not None:
        roots += [e for row in spec.metric.entries for e in row]
    if spec.oneform is not None:
        roots += [spec.oneform.p, spec.oneform.q]
    return roots


def file_nodes(spec) -> dict:
    """id -> node for the distinct node objects of a whole spec file."""
    return {id(node): node for root in spec_roots(spec) for node in distinct_nodes(root)}


def scramble_spec(path: Path, seed: int) -> Path:
    """A spec file holding a gauge scramble written with ``to_source``, the
    way the benchmark's spec files are written."""
    _, _, theta = scrambled_instance(np.random.default_rng(seed), torus_chart((16, 16)))
    lines = ["[chart]", "x = 0 .. 6.283185307179586", "y = 0 .. 6.283185307179586",
             "periodic = true true", "grid = 16 16", "[connection]"]
    lines += [f"theta.{i + 1}.{j + 1}.{part} = {to_source(e)}"
              for i, row in enumerate(theta.entries) for j, form in enumerate(row)
              for part, e in (("dx", form.p), ("dy", form.q))]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


@pytest.mark.parametrize("which", ["scramble_box", "scramble"])
def test_a_spec_file_has_one_node_per_value_number(which, tmp_path):
    path = (ROOT / "tests" / "data" / "scramble_box.conn" if which == "scramble_box"
            else scramble_spec(tmp_path / "scramble.conn", 5))
    spec = load_spec(path)
    nodes = file_nodes(spec).values()
    assert len({node._num for node in nodes}) == len(nodes)
    # each coefficient parsed alone has the same tree, text and numbering
    texts = [to_source(e) for e in spec_roots(spec)]
    assert len(set(texts)) > 1
    for root, text in zip(spec_roots(spec), texts):
        alone = parse(text)
        assert outcome(lambda _: alone, text) == outcome(lambda _: root, text)
        assert alone._num is root._num


def test_every_section_shares_one_context(tmp_path):
    path = tmp_path / "sections.conn"
    path.write_text("[chart]\nx = 0 .. 1\ny = 0 .. 1\n"
                    "[connection]\ntheta.1.2.dx = sin(x*y + 1)\n"
                    "[metric]\ng.1.1 = exp(x*y + 1)\ng.2.2 = 1 + (x*y + 1)\n"
                    "[oneform]\nu.dy = (x*y + 1)^2\n", encoding="utf-8")
    spec = load_spec(path)
    g = spec.metric.entries
    group = spec.connection.entries[0][1].p.arg
    assert g[0][0].arg is group and g[1][1].right is group
    assert spec.oneform.q.base is group


def test_two_loads_of_one_file_share_no_inner_node():
    path = ROOT / "tests" / "data" / "scramble_box.conn"
    first, second = file_nodes(load_spec(path)), file_nodes(load_spec(path))
    inner = [node for node in second.values() if not isinstance(node, (Const, Var))]
    assert inner
    assert not [node for node in inner if id(node) in first]


def test_a_long_group_is_confirmed_against_the_text_it_came_from():
    # same length and same 16-character ends: one memo key, another group
    one = "(x + x + x + x + x + 1 + x + x + x + x + x)*y"
    two = "(x + x + x + x + x + 2 + x + x + x + x + x)*y"
    with parse_context():
        first, second = parse(one), parse(two)
        again = parse(two)
    assert (to_source(first), to_source(second)) == (to_source(parse(one)), to_source(parse(two)))
    assert again is second


def test_a_parse_error_names_its_line_after_earlier_lines(tmp_path):
    bad_text = "sin(x*y + 1) + (x*y + 1) + $"
    path = tmp_path / "late.conn"
    path.write_text("[chart]\nx = 0 .. 1\ny = 0 .. 1\n[connection]\n"
                    "theta.1.1.dx = sin(x*y + 1)\n"
                    "theta.1.2.dx = (x*y + 1)*2\n"
                    f"theta.2.1.dy = {bad_text}\n", encoding="utf-8")
    with pytest.raises(SpecError) as excinfo:
        load_spec(path)
    with pytest.raises(ParseError) as alone:
        parse(bad_text)
    assert excinfo.value.line == 7
    assert excinfo.value.reason == (f"bad expression {bad_text!r}: {alone.value.message} "
                                    f"at offset {alone.value.offset}")


@pytest.mark.skipif(given is None, reason="needs Hypothesis")
def test_soups_parsed_in_one_context_parse_as_the_reference_does():
    @settings(max_examples=200, deadline=None)
    @given(st.lists(soups(), min_size=1, max_size=3))
    def check(parts):
        texts = [f"({a})*sin({b}) - ({a})" for a in parts for b in parts]
        with parse_context():
            together = [outcome(parse, text) for text in texts]
        assert together == [outcome(reference_parse, text) for text in texts]

    check()


# ---------------------------------------------------------------------------
# depth, time and memory


def call_depth() -> int:
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    return depth


N = 10_000
DEEP = {
    "parentheses": "(" * N + "x" + ")" * N,
    "calls": "sin(" * N + "x" + ")" * N,
    "minus signs": "-" * N + "x",
    "distinct groups": "(" * N + "x" + "+1)" * N,
}


@pytest.mark.parametrize("name", sorted(DEEP))
def test_deep_text_parses_without_recursion(name):
    # a few dozen frames above the caller: any recursion in parse would fail
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(call_depth() + 40)
    try:
        e = parse(DEEP[name])
        with pytest.raises(ParseError) as excinfo:
            parse("(" * N + "x")
    finally:
        sys.setrecursionlimit(limit)
    assert (excinfo.value.offset, excinfo.value.message) == (N + 1, "expected ')'")
    if name == "parentheses" or name == "minus signs":
        assert e is X
    elif name == "calls":
        for _ in range(N):
            assert isinstance(e, Call) and e.name == "sin"
            e = e.arg
        assert e is X
    else:
        [value] = eval_grid_many([e], 0.0, 0.0)
        assert value == N


def test_memo_grows_linearly_with_the_text():
    # every group distinct: a memo keyed by whole group texts would hold
    # about N^2 characters here
    text = DEEP["distinct groups"]
    start = time.perf_counter()
    parse(text)
    assert time.perf_counter() - start < 1.0
    tracemalloc.start()
    try:
        parse(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**20, f"peak {peak / 2**20:.1f} MB"
