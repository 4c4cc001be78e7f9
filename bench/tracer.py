"""Spans around hellykit's public functions, recorded from outside the package.

`Tracer.install` replaces every binding of each target function across all
loaded `hellykit.*` modules.  Rebinding only the defining module would miss
calls made through `from .lp import lp_solve`-style imports in the modules
that use it.  Spans stay in memory (name, parent span, job id, start, end)
until `write_spans` is called at the end of the run; self time is each
span's duration minus the time covered by its direct children.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array

from hellykit.lp import Infeasible

# module -> functions wrapped.  `dot`/`vadd` stay unwrapped: their per-call
# cost is about that of the wrapper itself.
TARGETS = {
    "rationals": ("normalize_row", "solve_linear", "nullspace"),
    "lp": ("lp_solve",),
    "geometry": (
        "flat_crosses",
        "line_through",
        "vertices_of",
        "hyperplane_crosses",
        "polyhedra_intersect",
        "polytope_from_vertices",
    ),
    "projection": ("affine_project",),
    "hypergraphs": (
        "tau",
        "tau_star",
        "nu_b",
        "maximal_intersecting_subfamilies",
        "candidate_lines",
        "build_cover_hypergraph",
    ),
    "colorful": (
        "check_ch",
        "two_color_lemma",
        "theorem_main_d2",
        "intersecting_class",
        "generic_line_class",
        "fractional_two_color_search",
    ),
    "constructions": (
        "generate_simplex_family",
        "generate_planar",
        "verify_relint_property",
        "max_simplex_facets_crossed",
    ),
    "instances": (
        "random_hypergraph",
        "random_polygon_family",
        "random_two_colored",
        "random_ch_pair",
        "random_ch_family",
        "random_fractional_instance",
    ),
}

# Extra per-function counts taken from arguments and results:
# qualified name -> (stat names, function(args, result) -> tuple of numbers).
HOOKS = {
    "lp.lp_solve": (
        ("rows", "infeasible"),
        lambda args, out: (len(args[0].leq) + len(args[0].eq), isinstance(out, Infeasible)),
    ),
    "geometry.flat_crosses": (("hits",), lambda args, out: (bool(out),)),
    "geometry.hyperplane_crosses": (("hits",), lambda args, out: (bool(out),)),
    "geometry.polyhedra_intersect": (("feasible",), lambda args, out: (out.feasible,)),
    "hypergraphs.candidate_lines": (("lines",), lambda args, out: (len(out),)),
    "colorful.check_ch": (("rainbows",), lambda args, out: (out.checked,)),
}


class Tracer:
    """In-memory span recorder; `enabled` pauses and resumes recording."""

    def __init__(self):
        self.names: list[str] = []
        self.enabled = False
        self.job_id = 0
        self.stack: list[int] = []
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_job = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_child = array("d")  # time covered by direct children
        self.extras: dict[int, list] = {}
        self._wrappers: dict[int, object] = {}
        self._patches: list[tuple] = []

    def _wrap(self, idx: int, fn, hook):
        tracer = self
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer.stack
            parent = stack[-1] if stack else -1
            sid = len(tracer.span_start)
            tracer.span_name.append(idx)
            tracer.span_parent.append(parent)
            tracer.span_job.append(tracer.job_id)
            tracer.span_child.append(0.0)
            tracer.span_start.append(0.0)
            tracer.span_end.append(0.0)
            stack.append(sid)
            t0 = perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                tracer.span_start[sid] = t0
                tracer.span_end[sid] = t1
                if parent >= 0:
                    tracer.span_child[parent] += t1 - t0
            if hook is not None and tracer.job_id > 0:
                acc = tracer.extras[idx]
                for i, v in enumerate(hook(args, out)):
                    acc[i] += v
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def install(self) -> None:
        """Wrap every target and rebind it in each loaded hellykit module."""
        if not self._wrappers:
            for mod_name, fn_names in TARGETS.items():
                mod = importlib.import_module(f"hellykit.{mod_name}")
                for fn_name in fn_names:
                    qual = f"{mod_name}.{fn_name}"
                    fn = getattr(mod, fn_name)
                    stats, hook = HOOKS.get(qual, ((), None))
                    idx = len(self.names)
                    self.names.append(qual)
                    self.extras[idx] = [0] * len(stats)
                    self._wrappers[id(fn)] = (fn, self._wrap(idx, fn, hook))
        for name, mod in list(sys.modules.items()):
            if name != "hellykit" and not name.startswith("hellykit."):
                continue
            for attr, value in list(vars(mod).items()):
                entry = self._wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(mod, attr, entry[1])
                    self._patches.append((mod, attr, value))

    def uninstall(self) -> None:
        for mod, attr, value in self._patches:
            setattr(mod, attr, value)
        self._patches = []

    def summary(self, jobs: bool = True) -> dict:
        """Per-function calls, inclusive and self seconds over job or setup spans."""
        out = {q: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for q in self.names}
        for sid in range(len(self.span_start)):
            if (self.span_job[sid] > 0) != jobs:
                continue
            rec = out[self.names[self.span_name[sid]]]
            dur = self.span_end[sid] - self.span_start[sid]
            rec["calls"] += 1
            rec["total_s"] += dur
            rec["self_s"] += dur - self.span_child[sid]
        if jobs:
            for idx, acc in self.extras.items():
                qual = self.names[idx]
                stats = HOOKS.get(qual, ((),))[0]
                out[qual].update(zip(stats, acc))
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span,parent,job,name,start_s,end_s\n")
            for sid in range(len(self.span_start)):
                fh.write(
                    f"{sid},{self.span_parent[sid]},{self.span_job[sid]},"
                    f"{self.names[self.span_name[sid]]},"
                    f"{self.span_start[sid]:.9f},{self.span_end[sid]:.9f}\n"
                )
