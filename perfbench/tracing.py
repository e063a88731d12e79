"""Spans around the package's public functions, recorded from outside.

``Tracer.install`` replaces each traced function, in its home module and
in every package module that bound the same object with ``from ...
import``, by a wrapper that records a span: name, start, end, parent
span and request id.  Self time is a span's duration minus the time its
child spans cover, so the self times of all spans, including the
``bench`` root span of a pass, sum to the root's duration.  Spans stay
in memory until ``write``.
"""

import functools
import json
import sys
import time

from harness import PACKAGE

# (module, function) pairs that get spans, grouped by layer.
TRACED = (
    ("cli", ("main", "parse_poly", "poly_to_str", "bpoly_to_str",
             "load_group_spec")),
    ("excep", ("decide_exceptional", "fiber_product_poly",
               "validate_intersection_property", "validate_diagonal_bound")),
    ("polyfactor", ("factor_bivariate", "absolute_component_count",
                    "factor_univariate", "splitting_type")),
    ("covers", ("audit_rational_map", "audit_superelliptic",
                "splitting_census", "ramified_rational_points",
                "omitted_point_cover")),
    ("gf", ("make_field", "extension")),
    ("groups", ("all_subgroups_symmetric", "cyclic_quotient_chains",
                "fixed_point_identity", "exceptionality_conditions",
                "cycle_type_histogram")),
    ("bounds", ("threshold_report",)),
)
LAYERS = tuple(mod for mod, _ in TRACED) + ("bench",)
SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in TRACED for fn in fns)


class Tracer:
    """Spans, self times and counters of one traced pass."""

    def __init__(self):
        self.spans = []          # (name, start, end, parent index, request)
        self.self_s = dict.fromkeys(SPAN_NAMES + ("bench",), 0.0)
        self.calls = dict.fromkeys(SPAN_NAMES + ("bench",), 0)
        self.counts = {"max_k": 0, "acc_calls": 0, "acc_split": 0,
                       "points": 0, "audit_points": 0, "audit_s": 0.0,
                       "pairs": 0}
        self.request = None
        self._stack = []         # [span index, child time]
        self._patched = []       # (module, attribute, original)

    # -- spans ----------------------------------------------------------------

    def _enter(self, name):
        parent = self._stack[-1][0] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent,
                           self.request])
        self._stack.append([len(self.spans) - 1, 0.0])

    def _exit(self):
        index, child = self._stack.pop()
        span = self.spans[index]
        span[2] = end = time.perf_counter()
        duration = end - span[1]
        self.self_s[span[0]] += duration - child
        self.calls[span[0]] += 1
        if self._stack:
            self._stack[-1][1] += duration
        return duration

    def run_root(self, body):
        """Run ``body()`` inside the ``bench`` span; returns the span's
        duration."""
        self._enter("bench")
        try:
            body()
        finally:
            duration = self._exit()
        return duration

    # -- counters measured at the span boundaries ----------------------------

    def _count(self, name, args, result, duration):
        c = self.counts
        if name == "gf.extension":
            c["max_k"] = max(c["max_k"], result[0].k)
        elif name == "polyfactor.absolute_component_count":
            c["acc_calls"] += 1
            c["acc_split"] += result > 1
        elif name in ("covers.audit_rational_map", "covers.audit_superelliptic",
                      "covers.splitting_census"):
            field = (args[0].field if name != "covers.audit_superelliptic"
                     else args[0].h.field)
            points = field.order ** args[1] + 1
            c["points"] += points
            if name != "covers.splitting_census":
                c["audit_points"] += points
                c["audit_s"] += duration
        elif name in ("excep.validate_intersection_property",
                      "excep.validate_diagonal_bound"):
            c["pairs"] += (args[0].map.field.order + 1) ** 2

    # -- installation ----------------------------------------------------------

    def _wrap(self, name, original):
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            tracer._enter(name)
            try:
                result = original(*args, **kwargs)
            finally:
                duration = tracer._exit()
            tracer._count(name, args, result, duration)
            return result

        if hasattr(original, "cache_clear"):
            wrapper.cache_clear = original.cache_clear
        return wrapper

    def install(self):
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == PACKAGE or key.startswith(PACKAGE + ".")]
        for mod, fns in TRACED:
            home = sys.modules[f"{PACKAGE}.{mod}"]
            for fn in fns:
                original = getattr(home, fn)
                wrapper = self._wrap(f"{mod}.{fn}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._patched.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # -- results --------------------------------------------------------------

    def layer_self(self):
        out = dict.fromkeys(LAYERS, 0.0)
        for name, value in self.self_s.items():
            out[name.split(".", 1)[0]] += value
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, request in self.spans:
                fh.write(json.dumps([name, start, end, parent, request]) + "\n")
