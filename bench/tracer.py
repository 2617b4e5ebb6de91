"""Per-layer tracing from outside the program: wrap public ``knothom`` functions.

Each entry of :data:`LAYERS` names a function by module and attribute path.
Installing a :class:`Tracer` replaces that function, in its defining module or
class and under every other name in ``knothom`` bound to the same object
(``cli.torus_homfly``, ``checks.max_cancel``, ``LaurentPoly.__radd__``, ...),
with a wrapper that records a span.  A listed name that cannot be resolved
raises :class:`TraceTableError`, so a renamed function cannot silently drop
out of the trace.

A span is ``(name, start, end, parent, request, counts)``: ``parent`` is the
index of the enclosing span (-1 at the top), ``request`` the batch index
(-1 during set-up) and ``counts`` the work counts of that call.  Spans stay
in memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time


class TraceTableError(RuntimeError):
    pass


def _terms(p) -> int:
    return len(p.terms)


def _mul_counts(args, result):
    a, b = args[0], args[1]
    return {"term_products": _terms(a) * (_terms(b) if hasattr(b, "terms") else 1)}


def _divide_counts(args, result):
    return {"quotient_terms": _terms(result), "errors": 0}


def _divide_error_counts(args, exc):
    return {"quotient_terms": 0, "errors": 1}


def _torus_counts(args, result):
    poly = result[0]
    return {"terms_out": _terms(poly) if hasattr(poly, "terms") else 0}


def _macaulay_counts(args, result):
    return {"dimension": result.dimension(), "top_degree": result.top_degree}


def _sl_cancel_counts(args, result):
    return {"survivors": _terms(result[0])}


#: (metric prefix, module, attribute path, counts on return, counts on raise)
LAYERS = (
    ("laurent.mul", "laurent", "LaurentPoly.__mul__", _mul_counts, None),
    ("laurent.add", "laurent", "LaurentPoly.__add__", None, None),
    ("laurent.divide_exact", "laurent", "LaurentPoly.divide_exact",
     _divide_counts, _divide_error_counts),
    ("laurent.substitute", "laurent", "LaurentPoly.substitute", None, None),
    ("laurent.map_exponents", "laurent", "LaurentPoly.map_exponents", None, None),
    ("laurent.to_json", "laurent", "LaurentPoly.to_json", None, None),
    ("laurent.from_json", "laurent", "LaurentPoly.from_json", None, None),
    ("laurent.expand", "laurent", "RationalSeries.expand",
     lambda args, r: {"terms_out": _terms(r)}, None),
    ("laurent.max_cancel", "laurent", "max_cancel",
     lambda args, r: {"pairs": r[1]}, None),
    ("laurent.nonneg_divisibility", "laurent", "nonneg_divisibility", None, None),
    ("laurent.series_pow_rational", "laurent", "series_pow_rational", None, None),
    ("symmetric.plethysm_pn", "symmetric", "plethysm_pn", None, None),
    ("invariants.torus_homfly", "invariants", "torus_homfly", _torus_counts, None),
    ("invariants.unknot_homfly", "invariants", "unknot_homfly", None, None),
    ("checks.sl_cancel", "checks", "sl_cancel", _sl_cancel_counts, None),
    ("checks.unreduced_from_reduced", "checks", "unreduced_from_reduced",
     None, None),
    ("models.macaulay_basis", "models", "macaulay_basis", _macaulay_counts, None),
    ("models.scheme_presentation", "models", "scheme_presentation", None, None),
    ("models.torus_potential", "models", "torus_potential", None, None),
    ("models.unknot_model", "models", "unknot_model", None, None),
    ("fixtures.load_fixture", "fixtures", "load_fixture", None, None),
    ("bottom.bottom_poincare", "bottom", "bottom_poincare", None, None),
    ("bottom.row_count", "bottom", "row_count", None, None),
    ("bottom.vortex_character", "bottom", "vortex_character", None, None),
    ("partitions.catalan_count", "partitions", "catalan_count", None, None),
    ("cli.main", "cli", "main", None, None),
)

#: work counts reported per layer; ``kept_ratio`` is derived (see below)
COUNTS = {
    "laurent.mul": ("term_products",),
    "laurent.divide_exact": ("quotient_terms", "errors"),
    "laurent.expand": ("terms_out",),
    "laurent.max_cancel": ("pairs",),
    "invariants.torus_homfly": ("terms_out",),
    "checks.sl_cancel": ("kept_ratio",),
    "models.macaulay_basis": ("dimension", "top_degree"),
}

#: layers below the verbs: the trace check names the one with the most time
WORK_MODULES = ("laurent", "symmetric", "models", "fixtures", "bottom", "partitions")


def metric_names():
    """Every per-layer metric a traced run reports, with its unit."""
    out = []
    for name, *_ in LAYERS:
        out += [(f"{name}.calls", "count"), (f"{name}.total_s", "s"),
                (f"{name}.self_s", "s")]
        for stat in COUNTS.get(name, ()):
            out.append((f"{name}.{stat}", "ratio" if stat == "kept_ratio" else "count"))
    out.append(("trace.overhead_s", "s"))
    return out


def _resolve(module, path):
    owner = importlib.import_module(f"knothom.{module}")
    *owner_path, attr = path.split(".")
    for part in owner_path:
        owner = getattr(owner, part, None)
        if owner is None:
            break
    raw = vars(owner).get(attr) if owner is not None else None
    if raw is None:
        raise TraceTableError(
            f"knothom.{module}.{path} is missing; update the trace table")
    return owner, raw


class Tracer:
    def __init__(self):
        self.spans = []
        self.request = -1
        self._stack = []

    def _wrap(self, fn, name, on_return, on_raise):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                end = clock()
                stack.pop()
                spans[sid] = (name, start, end, parent, self.request,
                              on_raise(args, exc) if on_raise else None)
                raise
            end = clock()
            stack.pop()
            spans[sid] = (name, start, end, parent, self.request,
                          on_return(args, result) if on_return else None)
            return result

        return wrapper

    def install(self):
        """Wrap every function in :data:`LAYERS`, under all of its names."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "knothom" or n.startswith("knothom."))]
        resolved = [(entry, *_resolve(entry[1], entry[2])) for entry in LAYERS]
        for (name, _, _, on_return, on_raise), owner, raw in resolved:
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(raw.__func__, name, on_return, on_raise))
            else:
                wrapped = self._wrap(raw, name, on_return, on_raise)
            if isinstance(owner, type):
                homes = [owner]
            else:
                homes = modules
            for home in homes:
                for attr, value in list(vars(home).items()):
                    if value is raw:
                        setattr(home, attr, wrapped)

    def layer_metrics(self):
        """Aggregate the spans into ``<module>.<function>.<stat>`` values."""
        stats = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
                 for name, *_ in LAYERS}
        sums = {name: {} for name, *_ in LAYERS}
        child_time = [0.0] * len(self.spans)
        open_names = [None] * len(self.spans)   # name set of the ancestors
        max_expand = {}                          # sl_cancel span -> terms
        for sid, (name, start, end, parent, _, counts) in enumerate(self.spans):
            duration = end - start
            if parent >= 0:
                child_time[parent] += duration
                ancestors = open_names[parent] | {self.spans[parent][0]}
            else:
                ancestors = frozenset()
            open_names[sid] = ancestors
            st = stats[name]
            st["calls"] += 1
            if name not in ancestors:            # recursion counts once
                st["total_s"] += duration
            for key, value in (counts or {}).items():
                old = sums[name].get(key, 0)
                sums[name][key] = max(old, value) if key == "top_degree" else old + value
            if name == "laurent.expand" and counts:
                p = parent
                while p >= 0 and self.spans[p][0] != "checks.sl_cancel":
                    p = self.spans[p][3]
                if p >= 0:
                    max_expand[p] = max(max_expand.get(p, 0), counts["terms_out"])
        # spans are appended when they open, so parents precede children and
        # every child's time is in by the time the loop ends
        for sid, (name, start, end, *_) in enumerate(self.spans):
            stats[name]["self_s"] += (end - start) - child_time[sid]
        # an sl_cancel that raised has no survivors to count
        done = [s for s in max_expand if self.spans[s][5]]
        kept = sum(self.spans[s][5]["survivors"] for s in done)
        expanded = sum(max_expand[s] for s in done)
        out = {}
        for name, *_ in LAYERS:
            for stat, value in stats[name].items():
                out[f"{name}.{stat}"] = value
            for stat in COUNTS.get(name, ()):
                if stat == "kept_ratio":
                    out[f"{name}.{stat}"] = kept / expanded if expanded else 0.0
                else:
                    out[f"{name}.{stat}"] = sums[name].get(stat, 0)
        return out
