"""In-memory span tracer that wraps public functions at module boundaries.

``Tracer.install`` replaces ``module.name`` with a wrapper in the namespace
the caller looks it up in (``nisyn.cli.synthesize`` rather than
``nisyn.synthesis.synthesize``), so only calls that cross that boundary are
recorded.  Functions called once per integration step are deliberately not
wrapped; their cost comes from isolated micro-timings instead.
"""

from __future__ import annotations

import functools
import importlib
import time

# (importing module, attribute, layer) for every wrapped call site.
BOUNDARIES = [
    ("nisyn.cli", "load_scenario", "scenario"),
    ("nisyn.cli", "build_plant", "scenario"),
    ("nisyn.cli", "resolve_synthesis_spec", "scenario"),
    ("nisyn.cli", "build_uncertainty", "scenario"),
    ("nisyn.cli", "build_general_form", "scenario"),
    ("nisyn.cli", "run_analyze", "cli"),
    ("nisyn.cli", "run_synthesize", "cli"),
    ("nisyn.cli", "run_verify", "cli"),
    ("nisyn.cli", "run_simulate", "cli"),
    ("nisyn.cli", "run_reproduce", "cli"),
    ("nisyn.cli", "synthesize", "synthesis"),
    ("nisyn.cli", "classify_stability", "lyapunov"),
    ("nisyn.cli", "sampled_positive_definite", "lyapunov"),
    ("nisyn.cli", "compile_exprs", "expr"),
    ("nisyn.cli", "simulate_closed_loop", "sim"),
    ("nisyn.cli", "simulate_uncertainty", "sim"),
    ("nisyn.cli", "simulate_interconnection", "sim"),
    ("nisyn.cli", "check_dissipation", "sim"),
    ("nisyn.cli", "check_w_decrease", "sim"),
    ("nisyn.cli", "convergence_metrics", "sim"),
    ("nisyn.cli", "write_trajectory_csv", "sim"),
    ("nisyn.scenario", "classify_stability", "lyapunov"),
    ("nisyn.scenario", "lyapunov_certificate", "lyapunov"),
    ("nisyn.sim", "integrate", "sim"),
    ("nisyn.synthesis", "compile_exprs", "expr"),
    ("nisyn.uncertainty", "compile_exprs", "expr"),
]


class Tracer:
    """Records spans (id, name, parent, start, end, op) while enabled."""

    def __init__(self):
        self.spans: list = []
        self.enabled = False
        self.op = None
        self._stack: list = []
        self._originals: list = []

    def install(self) -> None:
        for module_name, attr, layer in BOUNDARIES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr,
                    self._wrap(original, f"{layer}.{attr}", module_name))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()

    def _wrap(self, fn, name: str, site: str):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            span = {"id": len(tracer.spans), "name": name, "site": site,
                    "op": tracer.op,
                    "parent": tracer._stack[-1]["id"] if tracer._stack else None,
                    "start": time.perf_counter(), "end": None}
            tracer.spans.append(span)
            tracer._stack.append(span)
            try:
                result = fn(*args, **kwargs)
                if name == "sim.integrate":
                    span["steps"] = int(result.n_samples - 1)
                return result
            finally:
                span["end"] = time.perf_counter()
                tracer._stack.pop()

        return wrapper

    def with_self_times(self) -> list:
        """Spans with duration and self time (duration minus the time its
        direct children cover; children never overlap on one thread)."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span["parent"] is not None:
                child_time[span["parent"]] += span["end"] - span["start"]
        out = []
        for span, covered in zip(self.spans, child_time):
            duration = span["end"] - span["start"]
            out.append({**span, "duration_s": duration,
                        "self_s": duration - covered})
        return out
