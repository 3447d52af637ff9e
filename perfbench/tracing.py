"""Spans and counters recorded around tunnelkit's layer functions, from outside.

The package is not modified.  ``Tracer.install_package`` replaces each layer
function listed below at every place that binds it: the defining module,
every ``tunnelkit`` module that imported it with ``from .x import y``, the
package namespace, and module-level dispatch tables such as
``cli._COMMANDS``.  A name that no longer exists in its defining module
raises ``SiteMissing``, so a refactor cannot silently zero a counter.

Functions in ``SPANS`` record a span (name, start, end, parent, op id).
The hot leaves in ``COUNTED`` and the dependency entry point only bump
counters: a span per scalar ``v(x)`` call would cost more than the call.

Spans are kept in memory and turned into per-layer metrics by
``layer_metrics``.  Counters live in one dict per thread, merged when each
op ends, so the sweep pool's threads never race on a shared counter and
the figures of chosen ops can be left out.  A
thread with no open span of its own (a pool worker) parents its spans on
the innermost open span of the thread that started the op.
"""

import functools
import importlib
import itertools
import math
import sys
import threading
import time

import numpy as np

SPANS = {
    "potentials": ("analyze",),
    "quadrature": ("adaptive_quadrature",),
    "actions": ("turning_points", "gamow_integral", "action_slope", "evaluate_action"),
    "splitting": ("compute_splitting", "solve_quantization"),
    "oracle": ("eigen_lowest_two", "default_grid"),
    "config": ("parse_config", "load_config"),
    "cli": ("run_analyze", "run_sweep", "run_oracle", "run_compare"),
}
COUNTED = {"potentials": ("evaluate",), "quadrature": ("panel_quadrature",)}
# (module, name): wrapped on the dependency itself before tunnelkit is
# imported, so a module-level or a lazy import both bind the wrapper.
DEPENDENCIES = (("scipy.linalg", "eigh_tridiagonal"),)

# ?stebz on an n-point tridiagonal matrix touches d (8n B), e (8n B) and
# its work arrays WORK (4n doubles) and IWORK (3n ints): 60 B per point.
STEBZ_BYTES_PER_POINT = 8 + 8 + 4 * 8 + 3 * 4

MAX_COUNTERS = ("panel_max_panels", "max_route_rel_err")


class SiteMissing(RuntimeError):
    """A function the tracer wraps is gone from its defining module."""


class Tracer:
    def __init__(self):
        self.spans = []
        self.op_id = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._all_counts = []
        self._op_counts = {}  # op id (None outside ops) -> counters
        self._counts_lock = threading.Lock()
        self._main_stack = None
        self._patches = []  # (setter, original, wrapped)
        self._dependencies = []  # (original, wrapped)

    # -- per-thread state ------------------------------------------------
    def _state(self):
        loc = self._local
        if not hasattr(loc, "stack"):
            loc.stack = []
            loc.eval_depth = 0
            loc.counts = {}
            with self._counts_lock:
                self._all_counts.append(loc.counts)
        return loc

    def _count(self, key, n=1):
        counts = self._state().counts
        counts[key] = counts.get(key, 0) + n

    def _count_max(self, key, value):
        counts = self._state().counts
        if value > counts.get(key, 0):
            counts[key] = value

    # -- wrappers ----------------------------------------------------------
    def _span(self, name, fn, hook=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = tracer._state()
            stack = st.stack
            if stack:
                parent = stack[-1]
            else:
                main = tracer._main_stack
                parent = main[-1] if main else None
            sid = next(tracer._ids)
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if hook is not None:
                    hook(None, exc)
                raise
            finally:
                t1 = time.perf_counter()
                stack.pop()
                tracer.spans.append((sid, name, parent, tracer.op_id, t0, t1))
            if hook is not None:
                hook(result, None)
            return result

        return wrapper

    def _splitting_hook(self, result, exc):
        if exc is not None:
            if type(exc).__name__ == "RootNotBracketed":
                self._count("unbracketed")
            return
        trans = result.delta_E_transcendental
        if math.isfinite(trans) and trans != 0.0:
            routes = (result.delta_E, result.delta_E_quadratic, trans)
            err = max(abs(p - q) for p in routes for q in routes) / abs(trans)
            self._count_max("max_route_rel_err", err)

    def _evaluate(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(spec, x, *args, **kwargs):
            st = tracer._state()
            if st.eval_depth == 0:  # a Mirrored spec re-enters evaluate
                if np.ndim(x) == 0:
                    tracer._count("evaluate_scalar")
                else:
                    tracer._count("evaluate_points", int(np.size(x)))
            st.eval_depth += 1
            try:
                return fn(spec, x, *args, **kwargs)
            finally:
                st.eval_depth -= 1

        return wrapper

    def _panel(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(f, a, b, panels, *args, **kwargs):
            order = args[0] if args else kwargs.get("order", 16)
            tracer._count("panel_calls")
            tracer._count("panel_nodes", panels * order)
            tracer._count_max("panel_max_panels", panels)
            return fn(f, a, b, panels, *args, **kwargs)

        return wrapper

    def _tridiagonal(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(d, e, *args, **kwargs):
            n = int(np.size(d))
            tracer._count("tridiagonal_solves")
            tracer._count("grid_points", n)
            tracer._count("bytes_computed", STEBZ_BYTES_PER_POINT * n)
            return fn(d, e, *args, **kwargs)

        return wrapper

    # -- installation ------------------------------------------------------
    def _patch_attr(self, owner, attr, original, wrapped):
        self._patches.append((lambda v: setattr(owner, attr, v), original, wrapped))
        setattr(owner, attr, wrapped)

    def _patch_item(self, table, key, original, wrapped):
        def setter(v):
            table[key] = v

        self._patches.append((setter, original, wrapped))
        table[key] = wrapped

    def _bind_everywhere(self, original, wrapped):
        """Replace ``original`` at every tunnelkit binding; return the count.

        Bindings that already hold ``wrapped`` (made by an import after a
        dependency was wrapped) are recorded too, so ``uninstall`` restores
        them.
        """
        found = 0
        for modname, module in list(sys.modules.items()):
            if modname != "tunnelkit" and not modname.startswith("tunnelkit."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original or value is wrapped:
                    self._patch_attr(module, attr, original, wrapped)
                    found += 1
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if item is original:
                            self._patch_item(value, key, original, wrapped)
                            found += 1
                        elif isinstance(item, tuple) and any(x is original for x in item):
                            new = tuple(wrapped if x is original else x for x in item)
                            self._patch_item(value, key, item, new)
                            found += 1
        return found

    def install_dependencies(self):
        """Wrap dependency entry points; call before ``import tunnelkit``."""
        for modname, attr in DEPENDENCIES:
            module = importlib.import_module(modname)
            original = getattr(module, attr, None)
            if original is None:
                raise SiteMissing(f"{modname}.{attr} not found")
            wrapped = self._tridiagonal(original)
            self._dependencies.append((original, wrapped))
            self._patch_attr(module, attr, original, wrapped)

    def install_package(self):
        """Wrap every layer function at every binding inside tunnelkit."""
        for original, wrapped in self._dependencies:
            self._bind_everywhere(original, wrapped)
        for layer, names in list(SPANS.items()) + list(COUNTED.items()):
            module = importlib.import_module(f"tunnelkit.{layer}")
            for name in names:
                original = getattr(module, name, None)
                if original is None or not callable(original):
                    raise SiteMissing(f"tunnelkit.{layer}.{name} not found")
                if name == "evaluate":
                    wrapped = self._evaluate(original)
                elif name == "panel_quadrature":
                    wrapped = self._panel(original)
                else:
                    hook = self._splitting_hook if name == "compute_splitting" else None
                    wrapped = self._span(f"{layer}.{name}", original, hook)
                if self._bind_everywhere(original, wrapped) == 0:
                    raise SiteMissing(f"tunnelkit.{layer}.{name} is bound nowhere")

    def uninstall(self):
        for setter, original, _ in reversed(self._patches):
            setter(original)

    def reinstall(self):
        for setter, _, wrapped in self._patches:
            setter(wrapped)

    # -- ops and results ---------------------------------------------------
    def begin_op(self, op_id):
        """Open the benchmark's own span around one op on this thread."""
        st = self._state()
        self.op_id = op_id
        self._main_stack = st.stack
        sid = next(self._ids)
        st.stack.append(sid)
        return sid, time.perf_counter()

    def end_op(self, token):
        sid, t0 = token
        t1 = time.perf_counter()
        self._state().stack.pop()
        self.spans.append((sid, "op", None, self.op_id, t0, t1))
        self._close(self.op_id)
        self._main_stack = None
        self.op_id = None

    def _close(self, op_id):
        # Book the counters gathered since the last close to ``op_id``.  An
        # op has returned, so the sweep pool's threads are idle by now.
        with self._counts_lock:
            counts = merge_counts([self._op_counts.get(op_id, {})] + self._all_counts)
            self._op_counts[op_id] = counts
            for c in self._all_counts:
                c.clear()

    def take(self, drop=()):
        """Return (spans, counters) recorded so far and start afresh.

        Spans and counters of the ops in ``drop`` are left out.
        """
        self._close(None)
        spans = [s for s in self.spans if s[3] not in drop]
        counts = merge_counts([c for op, c in self._op_counts.items() if op not in drop])
        self.spans, self._op_counts = [], {}
        return spans, counts


def merge_counts(dicts):
    out = {}
    for d in dicts:
        for key, value in d.items():
            if key in MAX_COUNTERS:
                out[key] = max(out.get(key, 0), value)
            else:
                out[key] = out.get(key, 0) + value
    return out


def _covered(intervals, lo, hi):
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def layer_metrics(spans, counts):
    """Per-layer metrics (name -> (value, unit)) from spans and counters."""
    children = {}
    by_id = {}
    for sid, name, parent, _, t0, t1 in spans:
        by_id[sid] = (name, parent)
        children.setdefault(parent, []).append((t0, t1))
    calls, self_s = {}, {}
    for sid, name, _, _, t0, t1 in spans:
        calls[name] = calls.get(name, 0) + 1
        own = (t1 - t0) - _covered(children.get(sid, ()), t0, t1)
        self_s[name] = self_s.get(name, 0.0) + own

    def under(sid, ancestor):
        parent = by_id[sid][1]
        while parent is not None and parent in by_id:
            if by_id[parent][0] == ancestor:
                return True
            parent = by_id[parent][1]
        return False

    gamow_in_solve = sum(
        1 for sid, name, *_ in spans if name == "actions.gamow_integral" and under(sid, "splitting.solve_quantization")
    )
    sweep_wall = sweep_children = 0.0
    for sid, name, _, _, t0, t1 in spans:
        if name == "cli.run_sweep":
            sweep_wall += t1 - t0
            sweep_children += sum(b - a for a, b in children.get(sid, ()))
    solves = calls.get("splitting.solve_quantization", 0)
    max_panels = counts.get("panel_max_panels", 0)

    def n(name):
        return calls.get(name, 0), "count"

    def ms(name):
        return 1e3 * self_s.get(name, 0.0), "ms"

    return {
        "potentials.analyze.calls": n("potentials.analyze"),
        "potentials.analyze.self_ms": ms("potentials.analyze"),
        "potentials.evaluate.scalar_calls": (counts.get("evaluate_scalar", 0), "count"),
        "potentials.evaluate.array_points": (counts.get("evaluate_points", 0), "count"),
        "quadrature.adaptive_quadrature.calls": n("quadrature.adaptive_quadrature"),
        "quadrature.adaptive_quadrature.self_ms": ms("quadrature.adaptive_quadrature"),
        "quadrature.adaptive_quadrature.max_depth": (int(math.log2(max_panels)) if max_panels else 0, "count"),
        "quadrature.panel_quadrature.calls": (counts.get("panel_calls", 0), "count"),
        "quadrature.panel_quadrature.nodes": (counts.get("panel_nodes", 0), "count"),
        "actions.turning_points.calls": n("actions.turning_points"),
        "actions.turning_points.self_ms": ms("actions.turning_points"),
        "actions.gamow_integral.calls": n("actions.gamow_integral"),
        "actions.gamow_integral.self_ms": ms("actions.gamow_integral"),
        "actions.action_slope.calls": n("actions.action_slope"),
        "actions.action_slope.self_ms": ms("actions.action_slope"),
        "actions.evaluate_action.calls": n("actions.evaluate_action"),
        "splitting.compute_splitting.calls": n("splitting.compute_splitting"),
        "splitting.compute_splitting.self_ms": ms("splitting.compute_splitting"),
        "splitting.solve_quantization.calls": n("splitting.solve_quantization"),
        "splitting.solve_quantization.self_ms": ms("splitting.solve_quantization"),
        "splitting.gamow_per_solve": (gamow_in_solve / solves if solves else 0.0, "ratio"),
        "splitting.unbracketed": (counts.get("unbracketed", 0), "count"),
        "splitting.max_route_rel_err": (counts.get("max_route_rel_err", 0.0), "ratio"),
        "oracle.eigen_lowest_two.calls": n("oracle.eigen_lowest_two"),
        "oracle.eigen_lowest_two.self_ms": ms("oracle.eigen_lowest_two"),
        "oracle.tridiagonal_solves": (counts.get("tridiagonal_solves", 0), "count"),
        "oracle.grid_points": (counts.get("grid_points", 0), "count"),
        "oracle.bytes_computed": (counts.get("bytes_computed", 0), "B"),
        "oracle.default_grid.calls": n("oracle.default_grid"),
        "config.load_config.self_ms": ms("config.load_config"),
        "config.parse_config.self_ms": ms("config.parse_config"),
        "cli.run_sweep.self_ms": ms("cli.run_sweep"),
        "cli.run_sweep.concurrency": (sweep_children / sweep_wall if sweep_wall else 0.0, "ratio"),
        "cli.run_oracle.self_ms": ms("cli.run_oracle"),
    }


def count_metrics(metrics):
    """The subset of ``layer_metrics`` output that must repeat exactly."""
    return {k: v for k, (v, unit) in metrics.items() if unit in ("count", "B")}
