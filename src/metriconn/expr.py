"""Symbolic scalar expressions in the two chart variables ``x`` and ``y``.

Expression text is read by :func:`parse`, whose docstring gives the
grammar, and written by :func:`to_source`.

Expressions are immutable trees.  Simplification is deliberately limited to
constant folding, absorption of additive zeros and multiplicative
zeros/ones, and removal of double negation; the folded tree evaluates to the
same value as the unfolded one wherever both are defined, and constants
fold only to finite ones.  A constant-only node that is not a
:class:`Const` is therefore a fold that failed, and neither a zero factor
nor a zeroth power absorbs it: evaluation reports it.  Derivatives are
cached per node, so repeated differentiation builds a shared DAG rather
than an exponentially growing tree.  No derivative of an inner node refers
to that node (the derivative of ``exp(u)`` holds a fresh ``exp(u)``), so
the caches make no reference cycles.  :func:`parse` shares structurally
equal subtrees of one text, or of every text it reads inside one
:func:`parse_context`.

Every node gets a value number when it is built: structurally equal nodes
get one number, whether they are one object or several.  A number stands
for the node's type, its payload (constants keyed by their bits, so
``-0.0`` and ``0.0`` stay apart) and its operands' numbers; it is drawn
from a counter that never gives a value twice, so the sorted numbers of a
set of nodes are a topological order of them.  A number is a token
held by every node of its structure (and by the tables that key grid
values by it); one process-wide table maps each structure to its token
while the token lives, and a structure built again after its token died
gets a new number.  Nodes are numbered, not merged: two equal nodes built
apart stay two objects, each with its own derivative cache.

Grid evaluation lowers all the roots of one call to a single tape
(:func:`eval_grid_many`): the tape runs each number once with the numpy
operation of its node type, and every intermediate is dropped after its
last use.  The root values of one call can be carried to the next; the
per-check root cache in :mod:`metriconn.forms` does that.  Scalar
:meth:`Expr.eval` is the located, domain-checked path.

Nothing in this module recurses: every walk over the nodes keeps an
explicit stack, so expression depth is bounded by memory only.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import re
import struct
import weakref
from contextlib import contextmanager
from contextvars import ContextVar

import numpy as np

__all__ = [
    "Expr", "Const", "Var", "Neg", "Add", "Sub", "Mul", "Div", "Pow", "Call",
    "ParseError", "DomainError",
    "parse", "parse_context", "to_source", "to_sources",
    "eval_grid_many",
    "sin", "cos", "tan", "exp", "ln", "sqrt", "sinh", "cosh",
    "X", "Y", "ZERO", "ONE",
]

FUNCTIONS = ("sin", "cos", "tan", "exp", "ln", "sqrt", "sinh", "cosh")


class ParseError(ValueError):
    """Malformed expression text; ``offset`` is a byte offset into the input."""

    def __init__(self, offset: int, message: str, token: str = ""):
        detail = f"{message} at offset {offset}"
        if token:
            detail += f" (near {token!r})"
        super().__init__(detail)
        self.offset = offset
        self.message = message
        self.token = token


class DomainError(ArithmeticError):
    """Evaluation hit a point outside the expression's domain.

    Carries the offending point, the failing node, and the reason
    (division by zero, ln of a non-positive value, sqrt of a negative
    value, power of a non-positive base, overflow).
    """

    def __init__(self, x: float, y: float, node: "Expr", reason: str):
        super().__init__(f"{reason} at ({x:.6g}, {y:.6g}) while evaluating {node}")
        self.point = (x, y)
        self.node = node
        self.reason = reason


# ---------------------------------------------------------------------------
# nodes


class Expr:
    """Base class for expression nodes.  Instances are immutable and pure.

    ``_varying`` is whether a node depends on a variable, and ``_num`` the
    token of its value number (see :func:`_number`); each node sets both
    when it is built.
    """

    __slots__ = ("_dcache", "_varying", "_num")

    # evaluation -----------------------------------------------------------

    def eval(self, x: float, y: float) -> float:
        """Evaluate at a point; raises :class:`DomainError` out of domain.

        One walk, operands first, with the rule of :func:`_scalar` at each
        node.  Operands are read left to right, but a quotient tests its
        divisor for zero before it reads its dividend.  A node whose value
        is not finite while its operands are is an overflow.
        """
        values: dict = {}       # value number -> value
        stack = [self]
        while stack:
            node = stack[-1]
            if node._num in values:
                stack.pop()
                continue
            if node.__class__ is Div:
                den = values.get(node.right._num)
                if den is None:
                    stack.append(node.right)
                    continue
                if den == 0.0:
                    raise DomainError(x, y, node, "division by zero")
            kids = _operands(node)
            pending = [k for k in kids if k._num not in values]
            if pending:
                stack.extend(reversed(pending))
                continue
            stack.pop()
            args = [values[k._num] for k in kids]
            value = _scalar(node, args, x, y)
            if args and not math.isfinite(value) and all(map(math.isfinite, args)):
                raise DomainError(x, y, node, "overflow")
            values[node._num] = value
        return values[self._num]

    def eval_grid(self, xs, ys, memo=None):
        """Vectorised evaluation on numpy arrays, without domain checks.

        Runs this expression as a one-root tape (see :func:`eval_grid_many`).
        Out-of-domain points surface as non-finite entries; callers needing a
        located error fall back to :meth:`eval` at the offending point.  A
        ``memo`` dict holds the results of earlier calls on the same ``xs``,
        ``ys`` under ``id(root)``: a root found there is returned as it is,
        and a new result is stored under ``id(self)``.  Only roots are
        looked up; the nodes below are always computed.
        """
        if memo is None:
            return eval_grid_many([self], xs, ys)[0]
        if id(self) not in memo:
            memo[id(self)] = eval_grid_many([self], xs, ys)[0]
        return memo[id(self)]

    # differentiation ------------------------------------------------------

    def diff(self, variable: str) -> "Expr":
        """Exact derivative with respect to ``'x'`` or ``'y'``.

        Fills the empty derivative slots below, operands first, with the
        rule of :func:`_derivative`; a walk stops at a filled slot.  Each
        visit of a node reads its own slot once; the derivatives of its
        operands reach it on a stack, so no operand's slot is read again.
        """
        if variable not in ("x", "y"):
            raise ValueError(f"unknown variable {variable!r}")
        todo: list = [self]
        done: list = []         # derivatives of the nodes walked, in order
        while todo:
            node = todo.pop()
            if node.__class__ is tuple:
                # the derivatives of all operands of ``node`` are on ``done``
                node, arity = node
                d = _derivative(node, done[-arity:])
                del done[-arity:]
                if node._dcache is None:
                    node._dcache = {variable: d}
                else:
                    node._dcache[variable] = d
                done.append(d)
                continue
            cache = node._dcache
            d = cache.get(variable) if cache is not None else None
            if d is not None:
                done.append(d)
                continue
            kids = _operands(node)
            todo.append((node, len(kids)))
            todo.extend(reversed(kids))
        return done[0]

    # operator sugar -------------------------------------------------------

    def __add__(self, other):
        return _add(self, _wrap(other))

    def __radd__(self, other):
        return _add(_wrap(other), self)

    def __sub__(self, other):
        return _sub(self, _wrap(other))

    def __rsub__(self, other):
        return _sub(_wrap(other), self)

    def __mul__(self, other):
        return _mul(self, _wrap(other))

    def __rmul__(self, other):
        return _mul(_wrap(other), self)

    def __truediv__(self, other):
        return _div(self, _wrap(other))

    def __rtruediv__(self, other):
        return _div(_wrap(other), self)

    def __pow__(self, exponent):
        return _pow(self, exponent)

    def __neg__(self):
        return _neg(self)

    def __str__(self):
        return to_source(self)

    def __repr__(self):
        return f"<{type(self).__name__} {to_source(self)!r}>"

    def __reduce__(self):
        # a value number is only valid in the process that drew it, so a
        # copy or an unpickled node is rebuilt through its class, which
        # numbers it afresh; the nodes travel as a flat list, operands
        # first, so depth is no limit
        nodes = _postorder(self)
        index = {node._num: i for i, node in enumerate(nodes)}
        return _rebuild, ([(type(node), tuple(index[a._num] if isinstance(a, Expr) else a
                                              for a in _init_args(node)))
                           for node in nodes],)


class Const(Expr):
    __slots__ = ("value",)
    _varying = False

    def __init__(self, value: float):
        self.value = float(value)
        self._num = _number((Const, _bits(self.value)))


class Var(Expr):
    __slots__ = ("name",)
    _varying = True

    def __init__(self, name: str):
        if name not in ("x", "y"):
            raise ValueError(f"variable must be 'x' or 'y', got {name!r}")
        self.name = name
        self._dcache = {"x": ZERO, "y": ZERO, name: ONE}
        self._num = _number((Var, name))


class Neg(Expr):
    __slots__ = ("arg",)

    def __init__(self, arg: Expr):
        self.arg = arg
        self._dcache = None
        self._varying = arg._varying
        self._num = _number((Neg, arg._num))


class _Binary(Expr):
    __slots__ = ("left", "right")

    def __init__(self, left: Expr, right: Expr):
        self.left = left
        self.right = right
        self._dcache = None
        self._varying = left._varying or right._varying
        self._num = _number((self.__class__, left._num, right._num))


class Add(_Binary):
    __slots__ = ()


class Sub(_Binary):
    __slots__ = ()


class Mul(_Binary):
    __slots__ = ()


class Div(_Binary):
    __slots__ = ()


class Pow(Expr):
    """``base ^ exponent`` with a constant real exponent.

    Integer exponents act on any base; non-integer exponents require a
    positive base (evaluated as ``exp(exponent * ln(base))``).
    """

    __slots__ = ("base", "exponent", "_int_exponent")

    def __init__(self, base: Expr, exponent: float):
        self.base = base
        self.exponent = float(exponent)
        self._dcache = None
        self._varying = base._varying
        self._num = _number((Pow, _bits(self.exponent), base._num))
        self._int_exponent = (
            int(self.exponent)
            if self.exponent.is_integer() and abs(self.exponent) < 2**31
            else None
        )


class Call(Expr):
    __slots__ = ("name", "arg")

    def __init__(self, name: str, arg: Expr):
        if name not in FUNCTIONS:
            raise ValueError(f"unknown function {name!r}")
        self.name = name
        self.arg = arg
        self._dcache = None
        self._varying = arg._varying
        self._num = _number((Call, name, arg._num))


def _operands(e: Expr) -> tuple:
    cls = type(e)
    if cls is Neg or cls is Call:
        return (e.arg,)
    if cls is Pow:
        return (e.base,)
    if cls is Const or cls is Var:
        return ()
    return (e.left, e.right)


def _scalar(node: Expr, args: list, x: float, y: float) -> float:
    """Value of one node at ``(x, y)`` from the values ``args`` of its
    operands; raises :class:`DomainError` outside the node's domain.
    :meth:`Expr.eval` tests a divisor for zero."""
    cls = node.__class__
    if cls is Const:
        return node.value
    if cls is Var:
        return x if node.name == "x" else y
    if cls is Neg:
        return -args[0]
    if cls is Pow:
        b = args[0]
        n = node._int_exponent
        if n is not None:
            if b == 0.0 and n < 0:
                raise DomainError(x, y, node, "zero base with negative exponent")
            try:
                return b ** n
            except OverflowError:
                raise DomainError(x, y, node, "overflow") from None
        if b <= 0.0:
            raise DomainError(x, y, node, "non-positive base with non-integer exponent")
        try:
            return math.pow(b, node.exponent)
        except OverflowError:
            raise DomainError(x, y, node, "overflow") from None
    if cls is Call:
        v = args[0]
        name = node.name
        if name == "ln" and v <= 0.0:
            raise DomainError(x, y, node, "ln of a non-positive value")
        if name == "sqrt" and v < 0.0:
            raise DomainError(x, y, node, "sqrt of a negative value")
        try:
            return _SCALAR_FUNCS[name](v)
        except OverflowError:
            raise DomainError(x, y, node, "overflow") from None
    return _BINARY_OPS[cls](args[0], args[1])


def _derivative(node: Expr, ds: list) -> Expr:
    """Derivative of an inner node from the derivatives ``ds`` of its
    operands.  ``exp`` and ``sqrt`` use a fresh twin of the node."""
    cls = node.__class__
    if cls is Neg:
        return _neg(ds[0])
    if cls is Add:
        return _add(ds[0], ds[1])
    if cls is Sub:
        return _sub(ds[0], ds[1])
    if cls is Mul:
        return _add(_mul(ds[0], node.right), _mul(node.left, ds[1]))
    if cls is Div:
        # (l/r)' = l'/r - l*r'/r^2, assembled to share the quotient node
        right = node.right
        return _div(_sub(_mul(ds[0], right), _mul(node.left, ds[1])), _mul(right, right))
    if cls is Pow:
        return _mul(_mul(Const(node.exponent), _pow(node.base, node.exponent - 1.0)), ds[0])
    u, du, name = node.arg, ds[0], node.name
    if name in _CHAIN:
        return _mul(Call(_CHAIN[name], u), du)
    if name == "cos":
        return _neg(_mul(Call("sin", u), du))
    if name == "tan":
        return _div(du, _pow(Call("cos", u), 2.0))
    if name == "exp":
        return _mul(Call("exp", u), du)
    if name == "ln":
        return _div(du, u)
    # sqrt
    return _div(du, _mul(Const(2.0), Call("sqrt", u)))


# functions whose derivative is another function of the same argument
_CHAIN = {"sin": "cos", "sinh": "cosh", "cosh": "sinh"}


def _bits(value: float) -> bytes:
    # constants and exponents are keyed by their bits: -0.0 and 0.0 stay apart
    return struct.pack("<d", value)


class _Number:
    """The token of one value number; its integer ``n`` orders numbers as
    they were drawn.  The structure's entry in the table lives as long as
    the token does."""

    __slots__ = ("n", "__weakref__")

    def __init__(self):
        self.n = next(_COUNTER)


_COUNTER = itertools.count()
_DRAWN = operator.attrgetter("n")
# structural key -> weak reference to its token, dropped when the token
# dies; a key holds the tokens of the operands, so no token in a live key
# can die and give its identity to another.  A weakref.WeakValueDictionary
# does the same, but its lookup raises and catches a KeyError for every new
# structure, which made building a node about twice as dear as this.
_NUMBERS: dict = {}


def _forget(table: dict, key: tuple, ref) -> None:
    if table.get(key) is ref:
        del table[key]


def _number(key: tuple) -> _Number:
    """The token of the structure ``key``: a node's type, its payload and
    its operands' tokens.  A structure whose token has died gets a new one."""
    ref = _NUMBERS.get(key)
    token = ref() if ref is not None else None
    if token is None:
        token = _Number()
        _NUMBERS[key] = weakref.ref(token, functools.partial(_forget, _NUMBERS, key))
    return token


def _init_args(e: Expr) -> tuple:
    """The arguments of the class of ``e`` that build ``e``."""
    cls = type(e)
    if cls is Const:
        return (e.value,)
    if cls is Var:
        return (e.name,)
    if cls is Call:
        return (e.name, e.arg)
    if cls is Pow:
        return (e.base, e.exponent)
    return _operands(e)


def _rebuild(steps: list) -> Expr:
    """The last node of ``steps``, pairs ``(class, arguments)`` in which an
    ``int`` argument is the index of an earlier node (a payload is a float
    or a string); each node is built by its class."""
    nodes: list = []
    for cls, args in steps:
        nodes.append(cls(*[nodes[a] if a.__class__ is int else a for a in args]))
    return nodes[-1]


_SCALAR_FUNCS = {
    "sin": math.sin, "cos": math.cos, "tan": math.tan,
    "exp": math.exp, "ln": math.log, "sqrt": math.sqrt,
    "sinh": math.sinh, "cosh": math.cosh,
}

_GRID_FUNCS = {
    "sin": np.sin, "cos": np.cos, "tan": np.tan,
    "exp": np.exp, "ln": np.log, "sqrt": np.sqrt,
    "sinh": np.sinh, "cosh": np.cosh,
}


ZERO = Const(0.0)
ONE = Const(1.0)
# the derivative slot of every constant; an inner node's slot is None until a
# walk fills it
Const._dcache = {"x": ZERO, "y": ZERO}
X = Var("x")
Y = Var("y")


# ---------------------------------------------------------------------------
# smart constructors (constant folding to finite constants, 0/1 absorption,
# double negation)


def _wrap(value) -> Expr:
    if isinstance(value, Expr):
        return value
    return Const(float(value))


def _has_value(e: Expr) -> bool:
    """Whether ``e`` is a :class:`Const` or depends on a variable.  Built
    by the smart constructors, a constant-only node of another class is a
    fold that failed."""
    return e._varying or e.__class__ is Const


def _is_const(e: Expr, v: float) -> bool:
    return e.__class__ is Const and e.value == v


def _add(a: Expr, b: Expr) -> Expr:
    a_const, b_const = a.__class__ is Const, b.__class__ is Const
    if a_const and b_const and math.isfinite(a.value + b.value):
        return Const(a.value + b.value)
    if a_const and a.value == 0.0:
        return b
    if b_const and b.value == 0.0:
        return a
    return Add(a, b)


def _sub(a: Expr, b: Expr) -> Expr:
    a_const, b_const = a.__class__ is Const, b.__class__ is Const
    if a_const and b_const and math.isfinite(a.value - b.value):
        return Const(a.value - b.value)
    if b_const and b.value == 0.0:
        return a
    if a_const and a.value == 0.0:
        return _neg(b)
    return Sub(a, b)


def _mul(a: Expr, b: Expr) -> Expr:
    """``a * b``.  A zero factor absorbs the other only when the other has
    a value: a constant-only node that is not a :class:`Const` is a fold
    that failed (an overflowing or undefined constant), and ``0 * (1/0)``
    keeps it, so evaluation reports it.  A factor that is undefined only
    somewhere on a chart, such as ``ln(x) * 0`` where ``x <= 0``, is still
    absorbed; telling it apart needs an interval evaluation of the factor
    over the chart."""
    if a.__class__ is Const:
        if b.__class__ is Const and math.isfinite(a.value * b.value):
            return Const(a.value * b.value)
        if a.value == 0.0 and _has_value(b):
            return ZERO
        if a.value == 1.0:
            return b
    if b.__class__ is Const:
        if b.value == 0.0 and _has_value(a):
            return ZERO
        if b.value == 1.0:
            return a
    return Mul(a, b)


def _div(a: Expr, b: Expr) -> Expr:
    if _is_const(b, 1.0):
        return a
    if (a.__class__ is Const and b.__class__ is Const and b.value != 0.0
            and math.isfinite(a.value / b.value)):
        return Const(a.value / b.value)
    return Div(a, b)


def _neg(a: Expr) -> Expr:
    cls = a.__class__
    if cls is Const:
        return Const(-a.value)
    if cls is Neg:
        return a.arg
    return Neg(a)


def _pow(base: Expr, exponent: float) -> Expr:
    e = float(exponent)
    if e == 0.0 and _has_value(base):
        return ONE
    if e == 1.0:
        return base
    return _unary(Pow(base, e))


def _call(name: str, arg: Expr) -> Expr:
    return _unary(Call(name, arg))


def _unary(node: Expr) -> Expr:
    """A power or call of a constant folded to its value, if it has one."""
    [arg] = _operands(node)
    if isinstance(arg, Const):
        try:
            return Const(_scalar(node, [arg.value], 0.0, 0.0))
        except DomainError:
            pass
    return node


# public constructor helpers

def sin(e) -> Expr:
    return _call("sin", _wrap(e))


def cos(e) -> Expr:
    return _call("cos", _wrap(e))


def tan(e) -> Expr:
    return _call("tan", _wrap(e))


def exp(e) -> Expr:
    return _call("exp", _wrap(e))


def ln(e) -> Expr:
    return _call("ln", _wrap(e))


def sqrt(e) -> Expr:
    return _call("sqrt", _wrap(e))


def sinh(e) -> Expr:
    return _call("sinh", _wrap(e))


def cosh(e) -> Expr:
    return _call("cosh", _wrap(e))


# ---------------------------------------------------------------------------
# grid evaluation: one value-numbered tape per call


def _int_power(b, n: int):
    if n == 0:
        # a base without a value stays without one (``nan ** 0`` is 1);
        # ``_pow`` keeps a 0th power only of such a base
        return b * 0.0 + 1.0
    if isinstance(b, np.ndarray):
        return np.power(b, n, dtype=float)
    try:
        return float(b) ** n
    except (OverflowError, ZeroDivisionError):
        # a power of a constant that does not fold: infinite, as on
        # arrays, and located by the domain check
        return float(np.power(float(b), float(n)))


_BINARY_OPS = {Add: operator.add, Sub: operator.sub, Mul: operator.mul, Div: operator.truediv}
# on the tape a quotient by zero is infinite where two constants meet too:
# ``1/0`` is a fold that failed, and the domain check locates it
_GRID_BINARY = {**_BINARY_OPS, Div: np.true_divide}


def _grid(node: Expr, args: list, xs, ys):
    """Value of one node on the tape from the values ``args`` of its
    operands, with the numpy operation of its type and no domain check."""
    cls = node.__class__
    if cls is Const:
        return node.value
    if cls is Var:
        return xs if node.name == "x" else ys
    if cls is Neg:
        return -args[0]
    if cls is Call:
        return _GRID_FUNCS[node.name](args[0])
    if cls is Pow:
        n = node._int_exponent
        return _int_power(args[0], n) if n is not None else np.power(args[0], node.exponent)
    return _GRID_BINARY[cls](args[0], args[1])


def eval_grid_many(exprs, xs, ys, known: dict | None = None) -> list:
    """Evaluate several expressions on the same ``xs``, ``ys`` as one tape.

    All roots are lowered together, so a node they share, or a structurally
    equal node built twice, is computed once.  Each value is what the node's
    numpy operation gives (a float for a constant subtree), without domain
    checks.  A caller that evaluates more roots on the same inputs later
    passes the same ``known`` dict, value number -> value: the roots'
    values are added to it, and later tapes take them as leaves.  The dict
    holds the tokens of its numbers, so a root built again with the same
    structure finds its value there, even after every node of the first
    one has died.
    """
    if known is None:
        known = {}
    values: dict = {}       # number -> value, of known roots and computed nodes
    tape: dict = {}         # number -> the node computed under it
    stack = list(exprs)
    while stack:
        node = stack.pop()
        vn = node._num
        if vn in tape or vn in values:
            continue
        if vn in known:
            values[vn] = known[vn]
        else:
            tape[vn] = node
            stack.extend(_operands(node))
    roots = [e._num for e in exprs]
    out = _run(tape, roots, values, xs, ys)
    known.update(zip(roots, out))
    return out


def _run(tape: dict, roots: list, values: dict, xs, ys) -> list:
    """The values of the numbers ``roots``.  Each node of ``tape`` (number
    -> node) is computed once, in number order, from the values of its
    operands, which ``values`` holds for the known ones, and dropped after
    its last use."""
    order = sorted(tape, key=_DRAWN)
    args = [[k._num for k in _operands(tape[vn])] for vn in order]
    last_use = {}
    for step, a in enumerate(args):
        for k in a:
            last_use[k] = step
    for vn in roots:
        last_use.pop(vn, None)
    dead: dict = {}
    for vn, step in last_use.items():
        dead.setdefault(step, []).append(vn)
    for step, vn in enumerate(order):
        values[vn] = _grid(tape[vn], [values[k] for k in args[step]], xs, ys)
        for d in dead.get(step, ()):
            del values[d]
    return [values[vn] for vn in roots]


# ---------------------------------------------------------------------------
# printing

# precedence levels: 0 = additive, 1 = multiplicative, 2 = power, 3 = base
_LEVEL = {Add: 0, Sub: 0, Mul: 1, Div: 1, Pow: 2, Const: 3, Var: 3, Call: 3, Neg: 3}
_INFIX = {Add: " + ", Sub: " - ", Mul: "*", Div: "/"}


def _render(e: Expr, text: dict) -> str:
    """Text of one node, given the text of its operands by value number."""
    cls = type(e)

    def src(operand, min_level):
        t = text[operand._num]
        return f"({t})" if _LEVEL[type(operand)] < min_level else t

    if cls is Const:
        return repr(e.value)
    if cls is Var:
        return e.name
    if cls is Call:
        return f"{e.name}({text[e.arg._num]})"
    if cls is Neg:
        return "-" + src(e.arg, 3)
    if cls is Pow:
        exp_text = repr(e.exponent)
        if e.exponent < 0:
            exp_text = f"({exp_text})"
        return f"{src(e.base, 3)}^{exp_text}"
    if cls in _INFIX:
        level = _LEVEL[cls]
        return f"{src(e.left, level)}{_INFIX[cls]}{src(e.right, level + 1)}"
    raise TypeError(f"cannot render {cls.__name__}")


def _postorder(*roots: Expr) -> list:
    """One node of each value number below ``roots``, operands first,
    found without recursion."""
    order = []
    seen = set()
    stack = list(reversed(roots))
    while stack:
        node = stack[-1]
        if node._num in seen:
            stack.pop()
            continue
        pending = [k for k in _operands(node) if k._num not in seen]
        if pending:
            stack.extend(pending)
            continue
        stack.pop()
        seen.add(node._num)
        order.append(node)
    return order


def to_source(e: Expr) -> str:
    """Render an expression in the input grammar.

    Parenthesisation preserves the tree shape, so re-parsing evaluates to
    bit-identical values.  Non-finite constants (``inf``, ``nan``) have no
    source form: their text does not parse.  See :func:`to_sources`.
    """
    return to_sources([e])[0]


def to_sources(roots) -> list[str]:
    """The text of :func:`to_source` for each of ``roots``.

    Each value number below them is rendered once, operands first and
    without recursion, and its text serves every node of that structure;
    an operand's text is dropped once every node that uses it has been
    rendered, a root's is kept.

    The text is printable ASCII drawn from the grammar's tokens, the
    space, and the ``repr`` of floats (so ``inf``, ``nan`` and exponents
    such as ``5e-324``): it never holds ``"``, ``\\`` or a control
    character, so it is its own JSON string body.  The CLI's ``--json``
    report relies on this and writes the text between quotes unescaped.
    """
    roots = list(roots)
    order = _postorder(*roots)
    uses: dict = {r._num: 1 for r in roots}
    for node in order:
        for k in _operands(node):
            uses[k._num] = uses.get(k._num, 0) + 1
    text: dict = {}
    for node in order:
        text[node._num] = _render(node, text)
        for k in _operands(node):
            uses[k._num] -= 1
            if not uses[k._num]:
                del text[k._num]
    return [text[r._num] for r in roots]


# ---------------------------------------------------------------------------
# parsing

_TOKEN_RE = re.compile(
    r"(?P<num>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()])"
)

_CONSTANTS = {"pi": math.pi, "e": math.e}

_PAREN_RE = re.compile(r"[()]")

# groups longer than this are keyed by a fingerprint, not by their text
_SHORT_GROUP = 32

# the operator-stack entry of a pending unary minus
_NEG = ("neg",)


def _closers(text: str) -> dict:
    """Offset of each ``(`` of ``text`` that has a matching ``)`` -> the
    offset of that ``)``.  Parentheses are single-character tokens, so
    matching them needs no lexing."""
    closers = {}
    opened = []
    for m in _PAREN_RE.finditer(text):
        if m.group() == "(":
            opened.append(m.start())
        elif opened:
            closers[opened.pop()] = m.start()
    return closers


def _group_key(text: str, start: int, end: int):
    """Memo key of the group ``text[start:end + 1]``.  A long group is keyed
    by its length and its two ends, so the memo grows linearly with the
    text however deep the groups nest; a hit is confirmed in full."""
    if end - start < _SHORT_GROUP:
        return text[start:end + 1]
    return (end - start, text[start:start + 16], text[end - 15:end + 1])


# the share table and the group memo of the open parse context
_PARSE_CONTEXT: ContextVar[tuple | None] = ContextVar("metriconn_parse_context",
                                                      default=None)


@contextmanager
def parse_context():
    """Parse every text of the block in one context.

    Inside the block, :func:`parse` shares structurally equal subtrees
    across all the texts it reads, not only within one, and it does not
    parse again a parenthesised group whose exact text it parsed before in
    the block, in any text.  So the nodes of one spec file are one object
    per value number, and each is differentiated once.  The context keeps
    every node and text it has seen until the block ends, and then nothing
    of it is kept; a block opened inside another starts a context of its
    own.  :func:`~metriconn.specfile.parse_spec` opens one for each file.
    """
    token = _PARSE_CONTEXT.set(({}, {}))
    try:
        yield
    finally:
        _PARSE_CONTEXT.reset(token)


class _Parser:
    """One call of :func:`parse`: a lexer that reads one token at a time,
    the table that shares equal subtrees, and the memo of the groups parsed
    so far.  Table and memo are those of the open :func:`parse_context`, or
    the call's own, which nothing keeps after the call."""

    def __init__(self, text: str, context: tuple | None):
        self.text = text
        self.pos = 0            # where the lexer reads the next token
        self.closers = _closers(text)
        # value number -> the one node of that structure, and group key ->
        # (the text the group is in, offset of its '(', inner node)
        self.shared, self.groups = context if context is not None else ({}, {})

    def share(self, node: Expr) -> Expr:
        return self.shared.setdefault(node._num, node)

    def token(self) -> tuple:
        """The next token as ``(kind, text, offset)``; kind ``end`` at the
        end of the text."""
        text, pos = self.text, self.pos
        n = len(text)
        while pos < n and text[pos].isspace():
            pos += 1
        if pos == n:
            self.pos = n
            return "end", "", n
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(pos, "illegal character", text[pos])
        self.pos = m.end()
        return m.lastgroup, m.group(), pos

    def fail(self, offset: int, message: str, token: str = ""):
        """Raise a syntax error, unless the text not yet lexed holds an
        illegal character: that error comes first, as if the whole text
        had been lexed before parsing."""
        while self.token()[0] != "end":
            pass
        raise ParseError(offset, message, token)

    def open_group(self, start: int, name: str | None, ops: list):
        """At the ``(`` at ``start`` (of a call of ``name`` if given): the
        group's node if the same text was parsed before in this call or
        context, with the lexer moved past its ``)``; otherwise None, with
        the group pushed on ``ops``."""
        end = self.closers.get(start)
        if end is not None:
            hit = self.groups.get(_group_key(self.text, start, end))
            if hit is not None:
                source, first, node = hit
                if end - start < _SHORT_GROUP or self.text.startswith(
                        source[first:first + end - start + 1], start):
                    self.pos = end + 1
                    return node if name is None else self.share(_call(name, node))
        ops.append(("(", start, name))
        return None

    def parse(self) -> Expr:
        share = self.share
        operands: list = []     # left operands of the pending operators
        ops: list = []          # pending operators and open groups, innermost last
        kind, tok, offset = self.token()
        if kind == "end":
            raise ParseError(offset, "empty expression")
        while True:
            # a base starts at the token (kind, tok, offset)
            node = None
            if kind == "num":
                value = float(tok)
                if not math.isfinite(value):
                    self.fail(offset, f"number {tok} is out of range", tok)
                node = share(Const(value))
            elif kind == "ident":
                if tok in ("x", "y"):
                    node = X if tok == "x" else Y
                elif tok in _CONSTANTS:
                    node = share(Const(_CONSTANTS[tok]))
                elif tok in FUNCTIONS:
                    kind, paren, offset = self.token()
                    if kind != "op" or paren != "(":
                        self.fail(offset, "expected '('", paren)
                    node = self.open_group(offset, tok, ops)
                else:
                    self.fail(offset, "unknown identifier", tok)
            elif kind == "op" and tok == "-":
                ops.append(_NEG)
            elif kind == "op" and tok == "(":
                node = self.open_group(offset, None, ops)
            else:
                self.fail(offset, "expected a number, variable, function, or '('", tok)
            kind, tok, offset = self.token()
            if node is None:
                continue
            # ``node`` is a whole base and (kind, tok, offset) the token after it
            while True:
                # unary minus applies to its base, before '^'
                while ops and ops[-1] is _NEG:
                    ops.pop()
                    node = share(_neg(node))
                top = ops[-1][0] if ops else None
                if top == "^":
                    _, exp_offset = ops.pop()
                    if not isinstance(node, Const):
                        self.fail(exp_offset, "exponent must be a constant")
                    node = share(_pow(operands.pop(), node.value))
                    top = ops[-1][0] if ops else None
                elif kind == "op" and tok == "^":
                    operands.append(node)
                    kind, tok, offset = self.token()
                    ops.append(("^", offset))
                    break
                # a whole factor
                if top == "*" or top == "/":
                    ops.pop()
                    left = operands.pop()
                    node = share(_mul(left, node) if top == "*" else _div(left, node))
                    top = ops[-1][0] if ops else None
                if kind == "op" and tok in "*/":
                    operands.append(node)
                    ops.append((tok,))
                    kind, tok, offset = self.token()
                    break
                # a whole term
                if top == "+" or top == "-":
                    ops.pop()
                    left = operands.pop()
                    node = share(_add(left, node) if top == "+" else _sub(left, node))
                if kind == "op" and tok in "+-":
                    operands.append(node)
                    ops.append((tok,))
                    kind, tok, offset = self.token()
                    break
                # a whole expression: the text ends, or the innermost group does
                if not ops:
                    if kind != "end":
                        self.fail(offset, "unexpected trailing input", tok)
                    return node
                _, start, name = ops.pop()
                if kind != "op" or tok != ")":
                    self.fail(offset, "expected ')'", tok)
                self.groups.setdefault(_group_key(self.text, start, offset),
                                       (self.text, start, node))
                if name is not None:
                    node = share(_call(name, node))
                kind, tok, offset = self.token()


def parse(text: str) -> Expr:
    """Parse expression text; raises :class:`ParseError` with an offset.

    Grammar (whitespace insignificant)::

        expr   := term (('+'|'-') term)*
        term   := factor (('*'|'/') factor)*
        factor := base ('^' base)?
        base   := number | 'x' | 'y' | 'pi' | 'e' | func '(' expr ')' | '(' expr ')' | '-' base
        func   in {sin, cos, tan, exp, ln, sqrt, sinh, cosh}

    Numbers are decimals with an optional exponent (``1.5e-3``); a number
    that overflows a float (``1e999``) is an error.  ``pi`` and
    ``e`` are reserved constants.  ``^`` takes one exponent, which must
    reduce to a constant at parse time, so every derivative stays inside the
    grammar; it does not chain (``x^2^3`` is an error).  Unary minus belongs
    to the base, so it applies before ``^``: ``-x^2`` is ``(-x)^2``.
    Parentheses nest to any depth.

    The text is lexed one token at a time and parsed with an explicit
    operator stack, without recursion.  Structurally equal subtrees become
    one node, and a parenthesised group (or call argument) whose exact text
    was parsed before in the same call is not parsed again: the parser
    takes that group's node and moves past its ``)``.  Inside a
    :func:`parse_context` both hold across every text of the block.
    """
    if not isinstance(text, str):
        raise TypeError("expression source must be a string")
    return _Parser(text, _PARSE_CONTEXT.get()).parse()
