"""External tracer: times calls into conjscope's modules from outside.

The tracer replaces module functions (in every conjscope namespace that
binds them, so by-name imports such as ``pair.evaluate`` are covered) and a
few methods with wrappers that keep a per-thread span stack.  Spans are not
stored one by one: each (parent span, span) edge accumulates its call count,
total time and self time (total minus the time of child spans), so memory
stays bounded however hot a leaf like ``scalar.evaluate`` is.  A span that
opens a worker thread's stack is a child of the span open in the harness
thread, and the time its children cover is the union of their intervals.
Span times are wall times: under the CLI's sweep threads they include waits
for the interpreter lock, which ``cli.sweep.overlap`` above 1 exposes.  Every
``ode.integrate`` also adds the RHS evaluations and steps of the Trajectory
it returns.  Leaving the ``with`` block restores every original object.
"""

from __future__ import annotations

import functools
import sys
import threading
from collections import defaultdict
from time import perf_counter

PACKAGE = "conjscope"

HAMILTONIAN_CHECKS = ("check_lagrangian", "induced_metric", "check_semi_invariance",
                      "check_K_selfadjoint", "horizontal_lagrangian_residual",
                      "metric_constancy_residual")

# (module, attribute, span name)
FUNCTIONS = (
    ("ode", "integrate", "ode.integrate"),
    ("ode", "locate_events", "ode.locate_events"),
    ("ode", "refine_minimum", "ode.refine_minimum"),
    ("scalar", "evaluate", "scalar.evaluate"),
    ("scalar", "second_partials", "scalar.second_partials"),
    ("pair", "brackets_at", "pair.brackets_at"),
    ("pair", "extract_H", "pair.extract_H"),
    ("pair", "sode_curvature", "pair.sode_curvature"),
    ("pair", "flow_derivative_H1", "pair.flow_derivative_H1"),
    ("pair", "check_regularity", "pair.check_regularity"),
    ("frames", "transport_normal_frame", "frames.transport_normal_frame"),
    ("jacobi", "integrate_jacobi", "jacobi.integrate_jacobi"),
    ("jacobi", "find_conjugate_times", "jacobi.find_conjugate_times"),
    ("jacobi", "variational_oracle", "jacobi.variational_oracle"),
    ("bounds", "bounds_report", "bounds.bounds_report"),
    ("bounds", "sturm_zeros", "bounds.sturm_zeros"),
    *(("hamiltonian", name, f"hamiltonian.{name}") for name in HAMILTONIAN_CHECKS),
    ("analysis", "analyze", "analysis.analyze"),
    ("analysis", "curve_rows", "analysis.curve_rows"),
    ("cli", "main", "cli"),
    ("catalog", "build", "catalog.build"),
)

# (module, class, method, span name)
METHODS = (
    ("ode", "Trajectory", "at", "ode.at"),
    ("frames", "FrameTransport", "K_normal", "frames.K_normal"),
    ("jacobi", "JacobiSolution", "sigma_min", "jacobi.sigma_min"),
)


class _ThreadState:
    def __init__(self):
        self.stack = []           # [name, same-thread child time, other-thread child intervals]
        self.edges = defaultdict(lambda: [0, 0.0, 0.0])   # (parent, name) -> calls, total, self
        self.rhs_evals = 0
        self.steps = 0


class Tracer:
    """Context manager that wraps the traced names for its duration; with
    ``spans`` only the listed span names (a light trace for stage timing)."""

    def __init__(self, spans=None):
        self._spans = spans
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states = []
        self._patches = []        # (owner, attribute, original)

    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState()
            with self._lock:
                self._states.append(state)
        return state

    def _wrap(self, fn, name, count_work=False):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = tracer._state()
            stack = state.stack
            if stack:
                parent, cross = stack[-1], False
            else:
                # a worker thread's first span: its parent is the span the
                # harness thread has open (the sweep command of the CLI)
                origin = tracer._origin.stack if state is not tracer._origin else ()
                parent, cross = (origin[-1] if origin else None), True
            frame = [name, 0.0, []]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                dt = t1 - t0
                stack.pop()
                edge = state.edges[(parent[0] if parent else None, name)]
                edge[0] += 1
                edge[1] += dt
                edge[2] += dt - frame[1] - (_union(frame[2]) if frame[2] else 0.0)
                if parent is not None:
                    if cross:
                        parent[2].append((t0, t1))
                    else:
                        parent[1] += dt
            if count_work:
                state.rhs_evals += result.n_rhs_evals
                state.steps += result.n_steps
            return result

        return wrapper

    def __enter__(self):
        self._origin = self._state()
        modules = [mod for key, mod in sorted(sys.modules.items())
                   if key == PACKAGE or key.startswith(PACKAGE + ".")]
        try:
            for module, attr, name in FUNCTIONS:
                if self._spans is not None and name not in self._spans:
                    continue
                original = _lookup(module, attr)
                wrapper = self._wrap(original, name, count_work=(name == "ode.integrate"))
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, wrapper)
            for module, cls, attr, name in METHODS:
                if self._spans is not None and name not in self._spans:
                    continue
                owner = _lookup(module, cls)
                if attr not in vars(owner):
                    raise RuntimeError(f"traced method {PACKAGE}.{module}.{cls}.{attr} is missing")
                self._patch(owner, attr, self._wrap(vars(owner)[attr], name))
        except BaseException:
            self.restore()
            raise
        return self

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __exit__(self, *exc):
        self.restore()

    def edges(self):
        """(parent, name) -> [calls, total seconds, self seconds], summed
        over threads."""
        out = defaultdict(lambda: [0, 0.0, 0.0])
        with self._lock:
            states = list(self._states)
        for state in states:
            for key, values in state.edges.items():
                acc = out[key]
                for i, v in enumerate(values):
                    acc[i] += v
        return out

    def totals(self):
        """Per span name: [calls, total seconds, self seconds]; plus the
        summed RHS evaluations and steps of every integration."""
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for (_, name), values in self.edges().items():
            acc = out[name]
            for i, v in enumerate(values):
                acc[i] += v
        with self._lock:
            states = list(self._states)
        return out, sum(s.rhs_evals for s in states), sum(s.steps for s in states)


def _union(intervals):
    """Total length covered by possibly overlapping (start, end) intervals."""
    covered, end = 0.0, None
    for a, b in sorted(intervals):
        if end is None or a > end:
            covered += b - a
            end = b
        elif b > end:
            covered += b - end
            end = b
    return covered


def _lookup(module, attr):
    mod = sys.modules.get(f"{PACKAGE}.{module}")
    if mod is None or not hasattr(mod, attr):
        raise RuntimeError(f"traced name {PACKAGE}.{module}.{attr} is missing")
    return getattr(mod, attr)


def layer_metrics(totals, rhs_evals, steps, operations):
    """The per-layer table, per operation."""
    def calls(name):
        return totals[name][0] / operations if name in totals else 0.0

    def total_s(name):
        return totals[name][1] / operations if name in totals else 0.0

    def self_s(name):
        return totals[name][2] / operations if name in totals else 0.0

    metrics = {
        "ode.integrate.calls": calls("ode.integrate"),
        "ode.integrate.self_s": self_s("ode.integrate"),
        "ode.rhs_evals": rhs_evals / operations,
        "ode.steps": steps / operations,
        "ode.rhs_per_step": rhs_evals / steps if steps else 0.0,
        "ode.at.calls": calls("ode.at"),
        "ode.at.self_s": self_s("ode.at"),
        "ode.locate_events.self_s": self_s("ode.locate_events"),
        "ode.refine_minimum.calls": calls("ode.refine_minimum"),
        "scalar.evaluate.calls": calls("scalar.evaluate"),
        "scalar.evaluate.self_s": self_s("scalar.evaluate"),
        "scalar.second_partials.calls": calls("scalar.second_partials"),
        "scalar.second_partials.self_s": self_s("scalar.second_partials"),
        "pair.brackets_at.calls": calls("pair.brackets_at"),
        "pair.brackets_at.self_s": self_s("pair.brackets_at"),
        "pair.extract_H.calls": calls("pair.extract_H"),
        "pair.extract_H.self_s": self_s("pair.extract_H"),
        "pair.sode_curvature.calls": calls("pair.sode_curvature"),
        "pair.sode_curvature.self_s": self_s("pair.sode_curvature"),
        "pair.flow_derivative_H1.calls": calls("pair.flow_derivative_H1"),
        "pair.flow_derivative_H1.self_s": self_s("pair.flow_derivative_H1"),
        "pair.check_regularity.self_s": self_s("pair.check_regularity"),
        "frames.transport_normal_frame.self_s": self_s("frames.transport_normal_frame"),
        "frames.K_normal.calls": calls("frames.K_normal"),
        "frames.K_normal.self_s": self_s("frames.K_normal"),
        "jacobi.integrate_jacobi.total_s": total_s("jacobi.integrate_jacobi"),
        "jacobi.find_conjugate_times.self_s": self_s("jacobi.find_conjugate_times"),
        "jacobi.sigma_min.calls": calls("jacobi.sigma_min"),
        "jacobi.variational_oracle.self_s": self_s("jacobi.variational_oracle"),
        "bounds.bounds_report.self_s": self_s("bounds.bounds_report"),
        "bounds.sturm_zeros.calls": calls("bounds.sturm_zeros"),
        "hamiltonian.self_s": sum(self_s(f"hamiltonian.{n}") for n in HAMILTONIAN_CHECKS),
        "analysis.analyze.self_s": self_s("analysis.analyze"),
        "analysis.curve_rows.self_s": self_s("analysis.curve_rows"),
        "cli.self_s": self_s("cli"),
        "catalog.build.self_s": self_s("catalog.build"),
    }
    return metrics
