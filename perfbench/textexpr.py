"""Evaluate expression text of ``metriconn``'s grammar with numpy, without
``metriconn``.

Reports carry the recovered metric as ``to_source`` text.  Checking it with
the program's own parser and evaluator would let one fault hide another, so
this module reads the text on its own: one pass of operator precedence with
explicit stacks (a sum of many terms would exhaust Python's recursion),
applying each operator to numpy arrays of sample values as it is reduced.

``to_source`` expands every shared node of the program's expression graph,
so the same parenthesised text recurs thousands of times in a report.  Each
parenthesised group is therefore evaluated once and its value looked up by
its text afterwards, which makes a 4 MB text cost about as much as the
distinct groups in it.

Grammar (as in ``metriconn.expr``)::

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := base ('^' base)?
    base   := number | 'x' | 'y' | 'pi' | 'e' | func '(' expr ')' | '(' expr ')' | '-' base

A prefix minus binds tighter than ``^`` on its left: ``-a^2`` is ``(-a)^2``.
"""

from __future__ import annotations

import math
import re

import numpy as np

_TOKEN = re.compile(r"\s*(?:(\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
                    r"|([A-Za-z_][A-Za-z_0-9]*)|([-+*/^()]))")
_FUNCS = {"sin": np.sin, "cos": np.cos, "tan": np.tan, "exp": np.exp, "ln": np.log,
          "sqrt": np.sqrt, "sinh": np.sinh, "cosh": np.cosh}
_BINARY = {"+": (1, np.add), "-": (1, np.subtract), "*": (2, np.multiply),
           "/": (2, np.divide), "^": (3, np.power)}
_NEG = 4          # prefix minus: above every binary operator
_OPEN = 0         # '(' and function calls never reduce on precedence


class TextError(ValueError):
    pass


def evaluate_text(text: str, x, y) -> np.ndarray:
    """Values of the expression ``text`` at the points ``(x, y)``."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    names = {"x": x, "y": y, "pi": math.pi, "e": math.e}
    values: list = []
    ops: list = []          # (precedence, tag, start); tag is an operator, "neg", "(" or a function
    closing = _matching_parens(text)
    groups: dict = {}       # text of a parenthesised group -> its value

    def reduce_top():
        prec, tag, _ = ops.pop()
        if tag == "neg":
            values.append(np.negative(values.pop()))
        else:
            right = values.pop()
            values.append(_BINARY[tag][1](values.pop(), right))

    expect_operand = True
    pos, end = 0, len(text)
    with np.errstate(all="ignore"):
        while pos < end:
            m = _TOKEN.match(text, pos)
            if m is None:
                if text[pos:].strip() == "":
                    break
                raise TextError(f"cannot read {text[pos:pos + 20]!r} at offset {pos}")
            pos = m.end()
            number, ident, op = m.groups()
            if expect_operand:
                if number is not None:
                    values.append(float(number))
                    expect_operand = False
                elif ident is not None:
                    if ident in _FUNCS:
                        start = m.start(2)
                        m = _TOKEN.match(text, pos)
                        if m is None or m.group(3) != "(":
                            raise TextError(f"{ident} without '(' at offset {pos}")
                        pos, expect_operand = _open_group(text, start, m.end(), closing,
                                                          groups, values, ops, ident)
                    elif ident in names:
                        values.append(names[ident])
                        expect_operand = False
                    else:
                        raise TextError(f"unknown name {ident!r}")
                elif op == "-":
                    ops.append((_NEG, "neg", None))
                elif op == "(":
                    pos, expect_operand = _open_group(text, m.start(3), pos, closing,
                                                      groups, values, ops, "(")
                else:
                    raise TextError(f"unexpected {op!r} at offset {pos}")
                continue
            if op == ")":
                while ops and ops[-1][0] != _OPEN:
                    reduce_top()
                if not ops:
                    raise TextError(f"unbalanced ')' at offset {pos}")
                _, tag, start = ops.pop()
                if tag != "(":
                    values.append(_FUNCS[tag](values.pop()))
                groups[text[start:pos]] = values[-1]
                continue
            if op not in _BINARY:
                raise TextError(f"expected an operator at offset {pos}")
            prec = _BINARY[op][0]
            while ops and ops[-1][0] >= prec:
                reduce_top()
            ops.append((prec, op, None))
            expect_operand = True
        if expect_operand:
            raise TextError("incomplete expression")
        while ops:
            if ops[-1][0] == _OPEN:
                raise TextError("unbalanced '('")
            reduce_top()
    return np.broadcast_to(np.asarray(values[0], dtype=float), np.broadcast(x, y).shape)


def _matching_parens(text: str) -> dict:
    """Offset of each '(' -> offset just past its ')'."""
    closing, stack = {}, []
    for m in re.finditer(r"[()]", text):
        if m.group() == "(":
            stack.append(m.start())
        elif stack:
            closing[stack.pop()] = m.end()
    return closing


def _open_group(text, start, body, closing, groups, values, ops, tag):
    """Enter the group starting at ``start``, whose body starts at ``body``.

    When the same text was evaluated before, push its value and skip past
    it; otherwise open the group.  Returns where to read next and whether an
    operand is expected there.
    """
    end = closing.get(body - 1)
    if end is not None:
        hit = groups.get(text[start:end])
        if hit is not None:
            values.append(hit)
            return end, False
    ops.append((_OPEN, tag, start))
    return body, True
