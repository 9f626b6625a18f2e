"""Spans and counters around ``metriconn``'s public calls, installed from
outside the package.

Modules import functions by name (``from .connection import curvature``),
so a function is replaced in every ``metriconn`` module namespace that
holds it, not only where it is defined.  ``Expr.eval_grid`` and
``Expr.diff`` recurse through the class attribute; only the outermost call
opens a span, while every call is counted.

A layer's self time is the time spent inside its spans minus the time its
child spans cover.  Self times are kept per operation; the operation itself
is the root span, and its own self time is the share no layer claims.
"""

from __future__ import annotations

import sys
import time
import tracemalloc

# (module, attribute, layer); a layer may own several calls.
CALLS = (
    ("specfile", "load_spec", "specfile.load"),
    ("specfile", "parse_spec", "specfile.load"),
    ("expr", "parse", "expr.parse"),
    ("expr", "to_source", "cli.render"),
    ("forms", "evaluate_grid", "forms.grid_eval"),
    ("forms", "evaluate_grid_many", "forms.grid_eval"),
    ("forms", "sup_norm", "forms.grid_eval"),
    ("forms", "integrate2", "forms.quadrature"),
    ("forms", "line_integral", "forms.quadrature"),
    ("forms", "potential_on_grid", "forms.quadrature"),
    ("forms", "generator_loop_integrals", "forms.quadrature"),
    ("forms", "grid_derivative", "forms.fd"),
    ("connection", "curvature", "connection.curvature"),
    ("connection", "gauge_transform", "connection.gauge"),
    ("connection", "compatibility_residual", "connection.compat"),
    ("connection", "residual_sup", "connection.compat"),
    ("connection", "parallel_frame_flat", "connection.frame"),
    ("connection", "transport_metric_x", "connection.frame"),
    ("metrizability", "check_metrizability", "metrizability.self"),
    ("metrizability", "factor_curvature", "metrizability.factor"),
    ("metrizability", "skew_symmetrizer", "metrizability.symmetrizer"),
    ("metrizability", "spd_sqrt", "metrizability.sqrt"),
    ("volume_euler", "volume_criterion", "volume_euler.volume"),
    ("volume_euler", "euler_form", "volume_euler.euler"),
    ("volume_euler", "compare_euler", "volume_euler.euler"),
    ("gallery", "levi_civita", "gallery.build"),
    ("gallery", "semi_symmetric", "gallery.build"),
    ("cli", "run", "cli.run"),
)
LAYERS = tuple(dict.fromkeys([layer for _, _, layer in CALLS] + ["expr.diff", "expr.eval"]))
# reported with its total time as well: the sum of its stages
INCLUSIVE = {"metrizability.self": "metrizability.check"}
GRID_EVAL = "forms.grid_eval"
ROOT = "op"


class Tracer:
    """Per-operation span and counter store; inactive outside ``operation``.

    ``memory`` turns ``tracemalloc`` on across outermost grid evaluations.
    It slows allocation-heavy operations several times over (a spec check
    from 6.8 s to 14.3 s), so runs keep it to operations whose times they
    do not report.
    """

    def __init__(self):
        self.active = False
        self.memory = False
        self._stack: list = []
        self._eval_depth = 0
        self._diff_depth = 0
        self._grid_depth = 0
        self._undo: list = []
        self._reset()

    def _reset(self):
        self.self_s = dict.fromkeys(LAYERS + (ROOT,), 0.0)
        self.total_s = dict.fromkeys(INCLUSIVE.values(), 0.0)
        self.eval_calls = 0
        self.memo_hits = 0
        self.node_samples = 0
        self.grid_peak_bytes = 0
        self.wall_s = 0.0

    # spans --------------------------------------------------------------

    def _push(self, layer):
        self._stack.append([layer, time.perf_counter(), 0.0])

    def _pop(self):
        layer, start, children = self._stack.pop()
        duration = time.perf_counter() - start
        self.self_s[layer] += duration - children
        if layer in INCLUSIVE:
            self.total_s[INCLUSIVE[layer]] += duration
        if self._stack:
            self._stack[-1][2] += duration
        return duration

    def operation(self, fn, *args):
        """Run ``fn(*args)`` as one traced operation; returns its result and
        the per-layer figures of that operation."""
        self._reset()
        self.active = True
        self._push(ROOT)
        try:
            result = fn(*args)
        finally:
            self.wall_s = self._pop()
            self.active = False
        return result, self.figures()

    def figures(self) -> dict:
        out = {f"{layer}_s": value for layer, value in self.self_s.items() if layer != ROOT}
        out.update({f"{layer}_s": value for layer, value in self.total_s.items()})
        misses = self.eval_calls - self.memo_hits
        eval_s = self.self_s["expr.eval"]
        out["expr.node_evals"] = misses
        out["expr.memo_hit_ratio"] = self.memo_hits / self.eval_calls if self.eval_calls else 0.0
        out["expr.node_samples_per_s"] = self.node_samples / eval_s if eval_s > 0 else 0.0
        out["forms.grid_eval_peak_mb"] = self.grid_peak_bytes / 2**20
        out["trace.op_wall_s"] = self.wall_s
        out["trace.unattributed_s"] = self.self_s[ROOT]
        return out

    # wrappers -----------------------------------------------------------

    def _span(self, fn, layer):
        tracer = self
        grid = layer == GRID_EVAL

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            measure = grid and tracer.memory and tracer._grid_depth == 0
            if grid:
                tracer._grid_depth += 1
            if measure:
                tracemalloc.start()
            tracer._push(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._pop()
                if grid:
                    tracer._grid_depth -= 1
                if measure:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    tracer.grid_peak_bytes = max(tracer.grid_peak_bytes, peak)

        wrapper.__wrapped__ = fn
        return wrapper

    def _eval_grid(self, fn):
        tracer = self

        def eval_grid(node, xs, ys, memo=None):
            if not tracer.active:
                return fn(node, xs, ys, memo)
            tracer.eval_calls += 1
            if memo is not None and id(node) in memo:
                tracer.memo_hits += 1
            else:
                tracer.node_samples += max(getattr(xs, "size", 1), getattr(ys, "size", 1))
            if tracer._eval_depth:
                return fn(node, xs, ys, memo)
            tracer._eval_depth += 1
            tracer._push("expr.eval")
            try:
                return fn(node, xs, ys, memo)
            finally:
                tracer._pop()
                tracer._eval_depth -= 1

        eval_grid.__wrapped__ = fn
        return eval_grid

    def _diff(self, fn):
        tracer = self

        def diff(node, variable):
            if not tracer.active or tracer._diff_depth:
                return fn(node, variable)
            tracer._diff_depth += 1
            tracer._push("expr.diff")
            try:
                return fn(node, variable)
            finally:
                tracer._pop()
                tracer._diff_depth -= 1

        diff.__wrapped__ = fn
        return diff

    # installation ---------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced call in every ``metriconn`` namespace."""
        import metriconn
        from metriconn import expr

        namespaces = [m for name, m in sorted(sys.modules.items())
                      if name == "metriconn" or name.startswith("metriconn.")]
        for module_name, attr, layer in CALLS:
            original = getattr(getattr(metriconn, module_name), attr)
            wrapper = self._span(original, layer)
            for namespace in namespaces:
                if namespace.__dict__.get(attr) is original:
                    self._undo.append((namespace, attr, original))
                    setattr(namespace, attr, wrapper)
        for attr, make in (("eval_grid", self._eval_grid), ("diff", self._diff)):
            original = expr.Expr.__dict__[attr]
            self._undo.append((expr.Expr, attr, original))
            setattr(expr.Expr, attr, make(original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def node_counts(roots) -> tuple[int, int]:
    """Distinct node objects reachable from ``roots``, and how many of them
    are structurally distinct (the count hash-consing would leave)."""
    from metriconn import expr

    shape_of: dict = {}     # id(node) -> shape number
    shapes: dict = {}       # structural key -> shape number
    stack = [(node, False) for node in roots]
    while stack:
        node, expanded = stack.pop()
        if id(node) in shape_of:
            continue
        children = _children(node, expr)
        if not expanded and children:
            stack.append((node, True))
            stack.extend((child, False) for child in children if id(child) not in shape_of)
            continue
        key = (type(node).__name__, _payload(node, expr),
               tuple(shape_of[id(child)] for child in children))
        shape_of[id(node)] = shapes.setdefault(key, len(shapes))
    return len(shape_of), len(shapes)


def _children(node, expr) -> tuple:
    if isinstance(node, (expr.Neg, expr.Call)):
        return (node.arg,)
    if isinstance(node, expr.Pow):
        return (node.base,)
    if isinstance(node, (expr.Const, expr.Var)):
        return ()
    return (node.left, node.right)


def _payload(node, expr):
    if isinstance(node, expr.Const):
        return repr(node.value)
    if isinstance(node, expr.Var):
        return node.name
    if isinstance(node, expr.Call):
        return node.name
    if isinstance(node, expr.Pow):
        return repr(node.exponent)
    return None
