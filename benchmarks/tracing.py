"""Spans and work counts around geodisc's public functions.

The tracer is installed from outside the package: it replaces each traced
function in every module namespace that imported it (``kobayashi`` calls
``inscribed_disc_radius`` through its own name, ``cli`` through
``convex_geometry``), and a few class methods, then puts the originals back.
Spans (name, start, end, parent span, op id) stay in memory until
``write_spans``.
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys
import time
from collections import Counter, defaultdict

# module -> public functions that get a span
SPANNED = {
    "numerics": ("integrate_endpoint", "solve_monotone", "minimize_on_circle"),
    "disc_analysis": ("boundary_samples", "modulus_profile", "log_dini_test", "pz_bound"),
    "hardy_littlewood": ("phi_log_l1", "omega_bound", "verify_majorant"),
    "convex_geometry": ("exit_time", "inscribed_disc_radius", "boundary_distance",
                        "x0_cap", "rest_bound_check"),
    "kobayashi": ("boundary_extension_probe", "theorem_pipeline", "graham_bounds",
                  "geodesic_defect", "mercer_fit"),
    "cli": ("run",),
}

# callable argument -> work counter name; it is the first parameter of each
CALLABLE_ARGS = {
    "integrate_endpoint": ("f", "integrand_evals"),
    "solve_monotone": ("g", "g_evals"),
    "minimize_on_circle": ("h", "objective_evals"),
}

DOMAIN_CLASSES = ("Polydisc", "Ball", "HalfspaceIntersection", "FlatModelDomain")
COMPLEX_BYTES = 16
PACKAGE = "geodisc"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, op]
        self.counts: Counter = Counter()
        self.op_id = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # --- installation -------------------------------------------------------

    def __enter__(self) -> "Tracer":
        modules = {name: sys.modules[f"{PACKAGE}.{name}"] for name in SPANNED}
        namespaces = [sys.modules[PACKAGE], *modules.values()]
        for module_name, functions in SPANNED.items():
            for fn_name in functions:
                original = getattr(modules[module_name], fn_name)
                wrapper = self._wrap(module_name, fn_name, original)
                for namespace in namespaces:
                    for attr, value in list(vars(namespace).items()):
                        if value is original:
                            self._patch(namespace, attr, wrapper)

        cg = modules["convex_geometry"]
        for cls_name in DOMAIN_CLASSES:
            cls = getattr(cg, cls_name)
            self._patch(cls, "signed_gap", self._counted(
                f"convex_geometry.signed_gap.{cls.kind}.calls", cls.signed_gap))
        flat = cg.FlatModelDomain
        self._patch(flat, "graph_distance",
                    self._spanned(lambda args: "convex_geometry.graph_distance",
                                  flat.graph_distance))
        disc = modules["disc_analysis"].UnitDiscFunction
        self._patch(disc, "__call__", self._counted("disc_analysis.map_evals", disc.__call__))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    # --- wrappers -------------------------------------------------------------

    def _counted(self, key: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def _spanned(self, name_of, fn, before=None, after=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            sid = len(spans)
            spans.append([name_of(args), time.perf_counter(), None,
                          stack[-1] if stack else -1, self.op_id])
            stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[sid][2] = time.perf_counter()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return spanned

    def _wrap(self, module_name: str, fn_name: str, fn):
        qual = f"{module_name}.{fn_name}"
        name_of = lambda args: qual
        before = after = None
        counts = self.counts

        if fn_name == "exit_time":
            name_of = lambda args: f"{qual}.{args[0].kind}"
        elif fn_name in CALLABLE_ARGS:
            param, counter = CALLABLE_ARGS[fn_name]
            key = f"{qual}.{counter}"

            def before(args, kwargs):
                if args:
                    return (self._counted(key, args[0]), *args[1:]), kwargs
                kwargs = dict(kwargs, **{param: self._counted(key, kwargs[param])})
                return args, kwargs

            if fn_name == "integrate_endpoint":
                def after(args, kwargs, result):
                    counts[f"{qual}.unconverged"] += not result.converged
        elif fn_name == "boundary_samples":
            def after(args, kwargs, result):
                counts[f"{qual}.nodes"] += result.n
        elif fn_name == "modulus_profile":
            def after(args, kwargs, result):
                samples = args[0]
                deltas = args[1] if len(args) > 1 else kwargs["deltas"]
                step = 2.0 * math.pi / samples.n
                max_lag = min(int(math.floor(max(deltas) / step + 1e-12)), samples.n // 2)
                pairs = samples.n * max_lag
                counts[f"{qual}.lag_pairs"] += pairs
                counts[f"{qual}.bytes_computed"] += pairs * samples.dimension * COMPLEX_BYTES
        elif qual == "cli.run":
            def after(args, kwargs, result):
                cfg = args[1] if len(args) > 1 else kwargs["cfg"]
                counts["cli.report_bytes"] += os.path.getsize(cfg["out"])

        return self._spanned(name_of, fn, before, after)

    # --- results --------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """calls and self seconds per span name, merged with the work counts."""
        child_time = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for sid, (name, start, end, _, _) in enumerate(self.spans):
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += (end - start) - child_time[sid]
        out.update(self.counts)
        return dict(out)

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            for sid, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps([sid, name, start, end, parent, op]) + "\n")
