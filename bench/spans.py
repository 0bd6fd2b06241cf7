"""Spans around the package's layer functions, installed from outside.

``install`` wraps the public functions of each ``dualrbvp`` module and
rebinds every module attribute that refers to one of them, so that a
``from .integral import boundary_values`` in another module is traced as
well.  Each wrapper records a span (name, start, end, parent, CLI call);
a span's self time is its duration minus the durations of its children.
``algebra`` is not wrapped: its calls are too small and too many, so its
cost shows in the self time of the layer that calls it.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
import tracemalloc
from collections import defaultdict

import numpy as np

# module -> functions; every span is named "<module>.<function>"
FUNCTIONS = {
    "cli": ("main", "run_solve", "run_verify", "run_index"),
    "problemfile": ("load_problem", "result_document", "write_json",
                    "read_json", "dc_array_from_lists"),
    "contour": ("build_contour",),
    "expr": ("evaluate", "parse"),
    "canonical": ("compute_index", "continuous_log", "build_canonical_X"),
    "integral": ("boundary_values", "jump_check", "boundary_samples",
                 "contour_integral"),
    "rbvp": ("solve_auto", "solve_jump", "solve_homogeneous",
             "solve_nonhomogeneous", "check_solvability", "residual_report"),
    "diagnostics": ("regularity_report",),
}
METHODS = {
    ("contour", "Contour"): ("dist_to", "interior_mask", "winding_number"),
    ("integral", "CauchyIntegralFn"): ("__call__",),
    ("rbvp", "RBVPSolution"): ("boundary_table",),
}
RENAME = {
    "integral.CauchyIntegralFn.__call__": "integral.cauchy_eval",
    "contour.Contour.dist_to": "contour.dist_to",
    "contour.Contour.interior_mask": "contour.interior_mask",
    "contour.Contour.winding_number": "contour.winding_number",
    "rbvp.RBVPSolution.boundary_table": "rbvp.boundary_table",
    "rbvp.solve_auto": "rbvp.solve",
    "rbvp.solve_jump": "rbvp.solve",
    "rbvp.solve_homogeneous": "rbvp.solve",
    "rbvp.solve_nonhomogeneous": "rbvp.solve",
}
# near-curve evaluation of a polygon refines one panel per call on an
# 8-point Gauss rule; counted, not timed
REFINED_PANEL = ("integral", "_refined_panel_integral")
PANEL_NODES = 8
UPSAMPLE = 8


class Tracer:
    """Span stack, per-name self times and counters of one traced pass."""

    def __init__(self):
        self.stack: list = []          # [name, start, child_time, span index]
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(float)
        self.spans: list = []          # (name, start, end, parent, request)
        self.request = -1
        self._tabulated: dict = {}     # (evaluator id, side) -> evaluator
        self._evaluated: dict = {}     # (integral id, x, y bytes) -> integral
        self.memory_probe = (0, None, (), {})

    def enter(self, name: str) -> None:
        if name == "cli.main":
            self.request += 1
            self._tabulated.clear()
            self._evaluated.clear()
        parent = self.stack[-1][3] if self.stack else None
        self.spans.append([name, 0.0, 0.0, parent, self.request])
        self.stack.append([name, time.perf_counter(), 0.0, len(self.spans) - 1])

    def exit(self) -> None:
        end = time.perf_counter()
        name, start, child, idx = self.stack.pop()
        duration = end - start
        self.spans[idx][1:3] = [start, end]
        self.self_s[name] += duration - child
        self.calls[name] += 1
        if self.stack:
            self.stack[-1][2] += duration

    @property
    def caller(self):
        """Name of the span that called the innermost one."""
        return self.stack[-2][0] if len(self.stack) > 1 else None

    # -- counters taken where the work happens ------------------------------

    def note_distances(self, contour, dist) -> None:
        self.counts["contour.dist_to.points"] += len(dist)
        if self.caller != "integral.cauchy_eval":
            return
        near = int((dist < contour.guard_band).sum())
        far = len(dist) - near
        self.counts["integral.targets_near"] += near
        self.counts["integral.targets_far"] += far
        n = contour.n
        if contour.kind == "polygon":
            self.counts["integral.kernel_pairs"] += (near + far) * n
        else:
            self.counts["integral.kernel_pairs"] += far * n + near * UPSAMPLE * n

    def note_report(self, fn, contour, args, kwargs) -> None:
        if contour.n > self.memory_probe[0]:
            self.memory_probe = (contour.n, fn, (contour,) + args, kwargs)

    def probe_memory(self) -> float:
        """Peak traced memory (MB) of the largest regularity_report call of
        the pass, repeated under tracemalloc once the pass is over: tracing
        allocations inside the pass would slow every span it encloses."""
        _, fn, args, kwargs = self.memory_probe
        if fn is None:
            return 0.0
        tracemalloc.start()
        try:
            fn(*args, **kwargs)
            return tracemalloc.get_traced_memory()[1] / 2.0 ** 20
        finally:
            tracemalloc.stop()

    def note_cauchy_targets(self, fn, points) -> None:
        """Count targets this Cauchy integral already evaluated at, with the
        same coordinates, earlier in the same CLI call."""
        x = np.asarray(points.x, dtype=float)
        key = (id(fn), x.tobytes(), np.asarray(points.y, dtype=float).tobytes())
        self.counts["integral.cauchy_eval.targets"] += x.size
        if key in self._evaluated:
            self.counts["integral.cauchy_eval.repeated_targets"] += x.size
        self._evaluated[key] = fn      # keeps the id from being reused

    def note_boundary_values(self, evaluator, side: str) -> None:
        key = (id(evaluator), side)
        self.counts["integral.boundary_values.repeats"] += key in self._tabulated
        self._tabulated[key] = evaluator   # keeps the id from being reused


def _wrap(tracer: Tracer, name: str, fn):
    if name == "contour.dist_to":
        def body(self, x, y):
            out = fn(self, x, y)
            tracer.note_distances(self, out)
            return out
    elif name == "integral.cauchy_eval":
        def body(self, points):
            tracer.note_cauchy_targets(self, points)
            return fn(self, points)
    elif name == "integral.boundary_values":
        def body(evaluator, contour, side, *args, **kwargs):
            tracer.note_boundary_values(evaluator, side)
            return fn(evaluator, contour, side, *args, **kwargs)
    elif name == "problemfile.write_json":
        def body(path, doc):
            fn(path, doc)
            tracer.counts["problemfile.result_bytes"] += os.path.getsize(path)
    elif name == "diagnostics.regularity_report":
        def body(contour, *args, **kwargs):
            tracer.note_report(fn, contour, args, kwargs)
            return fn(contour, *args, **kwargs)
    else:
        body = fn

    @functools.wraps(fn)
    def span(*args, **kwargs):
        tracer.enter(name)
        try:
            return body(*args, **kwargs)
        finally:
            tracer.exit()
    return span


def _count_calls(tracer: Tracer, key: str, fn):
    @functools.wraps(fn)
    def counted(*args, **kwargs):
        tracer.counts[key] += 1
        return fn(*args, **kwargs)
    return counted


def _package_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if name == "dualrbvp" or name.startswith("dualrbvp.")]


class Installed:
    """Wrappers in place; ``restore`` puts every original back."""

    def __init__(self):
        self.undo: list = []        # (owner, attribute, original)
        self.rebound: dict = defaultdict(list)   # span name -> module names

    def restore(self) -> None:
        for owner, attr, original in reversed(self.undo):
            setattr(owner, attr, original)
        self.undo.clear()


def install(tracer: Tracer) -> Installed:
    """Wrap every listed function and method of the imported package."""
    pkg = "dualrbvp."
    wrappers = {}                   # id(original) -> (original, wrapper, name)
    for mod_name, names in FUNCTIONS.items():
        mod = importlib.import_module(pkg + mod_name)
        for fname in names:
            fn = getattr(mod, fname)
            span = RENAME.get(f"{mod_name}.{fname}", f"{mod_name}.{fname}")
            wrappers[id(fn)] = (fn, _wrap(tracer, span, fn), span)
    mod_name, fname = REFINED_PANEL
    fn = getattr(importlib.import_module(pkg + mod_name), fname)
    wrappers[id(fn)] = (fn, _count_calls(tracer, "integral.refined_panels", fn),
                        "integral.refined_panels")

    done = Installed()
    for mod in _package_modules():
        for attr, value in list(vars(mod).items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                done.undo.append((mod, attr, value))
                setattr(mod, attr, hit[1])
                done.rebound[hit[2]].append(mod.__name__)
    for (mod_name, cls_name), names in METHODS.items():
        cls = getattr(importlib.import_module(pkg + mod_name), cls_name)
        for fname in names:
            fn = cls.__dict__[fname]
            span = RENAME[f"{mod_name}.{cls_name}.{fname}"]
            done.undo.append((cls, fname, fn))
            setattr(cls, fname, _wrap(tracer, span, fn))
            done.rebound[span].append(cls.__qualname__)
    return done


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer numbers of one traced pass, keyed by metric name; call it
    after the wrappers are restored."""
    s, c, k = tracer.self_s, tracer.calls, tracer.counts
    pairs = k["integral.kernel_pairs"] + PANEL_NODES * k["integral.refined_panels"]
    bv_calls = c["integral.boundary_values"]
    return {
        "integral.cauchy_eval.s": s["integral.cauchy_eval"],
        "integral.cauchy_eval.calls": c["integral.cauchy_eval"],
        "integral.targets_near": k["integral.targets_near"],
        "integral.targets_far": k["integral.targets_far"],
        "integral.kernel_pairs": pairs,
        "integral.cauchy_eval.repeat_share":
            k["integral.cauchy_eval.repeated_targets"]
            / k["integral.cauchy_eval.targets"]
            if k["integral.cauchy_eval.targets"] else 0.0,
        "integral.boundary_values.s": s["integral.boundary_values"],
        "integral.boundary_values.calls": bv_calls,
        "integral.boundary_values.repeat_share":
            k["integral.boundary_values.repeats"] / bv_calls if bv_calls else 0.0,
        "integral.jump_check.s": s["integral.jump_check"],
        "rbvp.solve.s": s["rbvp.solve"],
        "rbvp.residual_report.s": s["rbvp.residual_report"],
        "rbvp.boundary_table.calls": c["rbvp.boundary_table"],
        "canonical.compute_index.s": s["canonical.compute_index"],
        "canonical.continuous_log.s": s["canonical.continuous_log"],
        "canonical.build_canonical_X.s": s["canonical.build_canonical_X"],
        "contour.dist_to.s": s["contour.dist_to"],
        "contour.dist_to.points": k["contour.dist_to.points"],
        "contour.interior_mask.s": s["contour.interior_mask"],
        "contour.build_contour.s": s["contour.build_contour"],
        "diagnostics.regularity_report.s": s["diagnostics.regularity_report"],
        "diagnostics.regularity_report.peak_mb": tracer.probe_memory(),
        "problemfile.load_problem.s": s["problemfile.load_problem"],
        "problemfile.result_document.s": s["problemfile.result_document"],
        "problemfile.write_json.s": s["problemfile.write_json"],
        "problemfile.result_bytes": k["problemfile.result_bytes"],
        "expr.evaluate.s": s["expr.evaluate"],
        "expr.evaluate.calls": c["expr.evaluate"],
        "cli.unattributed.s": sum(v for name, v in s.items()
                                  if name.startswith("cli.")),
    }
