"""Per-layer tracing from outside the package.

`install()` replaces the public names at each layer boundary with
wrappers.  A span wrapper records (trace id, parent span, name, start,
end).  Each wrapper is installed in every module namespace of the
package that holds the original, so calls from inside the package are
seen too.  The `fields` and `orders` call counters wrap millions of
calls a pass, so `Tracer.counters()` installs them for one counting pass
only and then restores the originals: the passes whose times are
reported run without them.

Spans are kept in memory and folded into per-pass metrics by
`close_pass`.  Times are inclusive durations of the outermost span of a
name (a span nested in a span of the same name is not counted twice);
`cli.self_s` is a self time: the span's duration minus its children's.
"""

import contextlib
import statistics
import sys
import time
from collections import defaultdict

# span name -> (module, attribute path); attributes with a dot are methods
SPANS = {
    "cli.main": ("cli", "main"),
    "poly.parse": ("poly", "parse_polynomial"),
    "poly.substitute_linear": ("poly", "Polynomial.substitute_linear"),
    "poly.coprime": ("poly", "binary_forms_coprime"),
    "linalg.nullspace": ("linalg", "nullspace"),
    "groebner.buchberger": ("groebner", "buchberger"),
    "groebner.gb_request": ("groebner", "IdealBasis.groebner"),
    "groebner.nf": ("groebner", "GroebnerBasis.normal_form"),
    "groebner.ideal_equal": ("groebner", "ideal_equal"),
    "groebner.initial_ideal": ("groebner", "initial_ideal"),
    "groebner.eliminate": ("groebner", "eliminate"),
    "groebner.intersect": ("groebner", "ideal_intersect"),
    "groebner.saturate_irrelevant": ("groebner", "saturate_irrelevant"),
    "hilbert.hilbert": ("hilbert", "hilbert"),
    "curves.from_ideal": ("curves", "CurveIdeal.from_ideal"),
    "curves.transform_ideal": ("curves", "transform_ideal"),
    "curves.from_parametrization": ("curves", "from_parametrization"),
    "curves.link": ("curves", "link"),
    "degeneration.specialize": ("degeneration", "specialize"),
    "degeneration.disjoint": ("degeneration", "check_disjoint_line"),
    "degeneration.monoid": ("degeneration", "_find_monoid_surface"),
    "degeneration.certify": ("degeneration", "verify_extremal_shape"),
    "degeneration.family": ("degeneration", "emit_family"),
    "degeneration.probe": ("degeneration", "condition_star_probe"),
}

# call counters: counter name -> [(module, attribute path)]
COUNTERS = {
    "fields.ops": [("fields", f"{cls}.{op}")
                   for cls in ("PrimeField", "RationalField")
                   for op in ("add", "sub", "mul", "neg", "inv", "div")],
    "orders.key_calls": [("orders", f"{cls}.key")
                         for cls in ("GrevlexOrder", "WeightRefinedOrder",
                                     "BlockEliminationOrder")],
}

# pipeline stages: the span a call made directly by specialize() opens
STAGES = {
    "curves.transform_ideal": "stage.coord_change_s",
    "degeneration.disjoint": "stage.disjoint_s",
    "degeneration.monoid": "stage.monoid_s",
    "groebner.initial_ideal": "stage.initial_s",
    "groebner.saturate_irrelevant": "stage.saturate_s",
    "degeneration.certify": "stage.certify_s",
    "degeneration.family": "stage.family_s",
}

# inclusive-time metrics: metric -> span names
TIMES = {
    "poly.substitute_linear_s": ("poly.substitute_linear",),
    "poly.coprime_s": ("poly.coprime",),
    "poly.parse_s": ("poly.parse",),
    "linalg.nullspace_s": ("linalg.nullspace",),
    "groebner.buchberger_s": ("groebner.buchberger",),
    "groebner.nf_s": ("groebner.nf",),
    "groebner.eliminate_s": ("groebner.eliminate",),
    "groebner.intersect_s": ("groebner.intersect",),
    "hilbert.s": ("hilbert.hilbert",),
    "curves.construct_s": ("curves.from_parametrization", "curves.link"),
    "curves.from_ideal_s": ("curves.from_ideal",),
    "degeneration.specialize_s": ("degeneration.specialize",),
    "degeneration.probe_s": ("degeneration.probe",),
}

# call-count metrics: metric -> span name
CALLS = {
    "groebner.buchberger_calls": "groebner.buchberger",
    "groebner.nf_calls": "groebner.nf",
    "groebner.ideal_equal_calls": "groebner.ideal_equal",
    "groebner.gb_requests": "groebner.gb_request",
    "hilbert.calls": "hilbert.hilbert",
}


def _on_substitute(counts, args, result):
    counts["poly.substitute_linear_terms"] += len(args[0].terms)


def _on_nullspace(counts, args, result):
    counts["linalg.nullspace_cells"] += len(args[1]) * args[2]


def _on_buchberger(counts, args, result):
    counts["groebner.basis_elems"] += len(result.elements)
    top = max((g.degree for g in result.elements), default=0)
    counts["groebner.max_basis_deg"] = max(counts["groebner.max_basis_deg"],
                                           top)


def _on_specialize(counts, args, result):
    counts["degeneration.attempts"] += result.retries + 1


ON_RESULT = {
    "poly.substitute_linear": _on_substitute,
    "linalg.nullspace": _on_nullspace,
    "groebner.buchberger": _on_buchberger,
    "degeneration.specialize": _on_specialize,
}

UNITS = {"_s": "s", ".s": "s", "_ratio": "ratio", "_deg": "degree"}


def unit_of(metric):
    return next((u for suffix, u in UNITS.items() if metric.endswith(suffix)),
                "count")


def metric_names():
    """Every per-layer metric, in report order."""
    return (list(STAGES.values()) + list(TIMES) + list(CALLS)
            + ["groebner.gb_cache_hit_ratio", "cli.self_s",
               "poly.substitute_linear_terms", "linalg.nullspace_cells",
               "groebner.basis_elems", "groebner.max_basis_deg",
               "degeneration.attempts", "fields.ops", "orders.key_calls",
               "trace.sweep_s", "trace.overhead_ratio"])


class Tracer:
    def __init__(self):
        self.trace_id = 0
        self.spans = []           # [trace id, parent index, name, start, end]
        self.stack = []
        self.counts = defaultdict(int)
        self.cells = {name: [0] for name in COUNTERS}
        self.missing = []
        self.per_pass = []

    def span(self, name, fn):
        spans, stack, counts = self.spans, self.stack, self.counts
        clock = time.perf_counter
        hook = ON_RESULT.get(name)

        def traced(*args, **kwargs):
            record = [self.trace_id, stack[-1] if stack else -1, name,
                      clock(), 0.0]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[4] = clock()
                stack.pop()
            if hook is not None:
                hook(counts, args, result)
            return result

        return traced

    def counter(self, name, fn):
        cell = self.cells[name]

        def counted(*args):
            cell[0] += 1
            return fn(*args)

        return counted

    @contextlib.contextmanager
    def counters(self):
        """Install the call counters, and restore the originals on exit."""
        replaced = []
        for name, targets in COUNTERS.items():
            for module_name, path in targets:
                done = _replace(module_name, path,
                                lambda fn, name=name: self.counter(name, fn))
                if not done:
                    self.missing.append(f"{module_name}.{path}")
                replaced += done
        try:
            yield
        finally:
            for namespace, attr, original in replaced:
                setattr(namespace, attr, original)

    def close_pass(self):
        """Fold this pass's spans and counts into one metrics dict."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for parent_idx, duration in ((s[1], s[4] - s[3]) for s in spans):
            if parent_idx >= 0:
                child_time[parent_idx] += duration
        name_of = [s[2] for s in spans]

        def outermost(idx):
            name, parent_idx = name_of[idx], spans[idx][1]
            while parent_idx >= 0:
                if name_of[parent_idx] == name:
                    return False
                parent_idx = spans[parent_idx][1]
            return True

        inclusive = defaultdict(float)
        calls = defaultdict(int)
        values = defaultdict(float)
        misses = set()
        for idx, (_, parent_idx, name, start, end) in enumerate(spans):
            calls[name] += 1
            if outermost(idx):
                inclusive[name] += end - start
            if name == "cli.main":
                values["cli.self_s"] += end - start - child_time[idx]
            parent = name_of[parent_idx] if parent_idx >= 0 else None
            if parent == "degeneration.specialize" and name in STAGES:
                values[STAGES[name]] += end - start
            if (name == "groebner.buchberger"
                    and parent == "groebner.gb_request"):
                misses.add(parent_idx)
        for metric, names in TIMES.items():
            values[metric] = sum(inclusive[n] for n in names)
        for metric, name in CALLS.items():
            values[metric] = calls[name]
        requests = calls["groebner.gb_request"]
        values["groebner.gb_cache_hit_ratio"] = (
            (requests - len(misses)) / requests if requests else 0.0)
        values.update(self.counts)
        for name, cell in self.cells.items():
            values[name] = cell[0]
            cell[0] = 0
        self.per_pass.append({m: values.get(m, 0) for m in metric_names()
                              if not m.startswith("trace.")})
        spans.clear()
        self.counts.clear()

    def metrics(self, passes, untraced):
        """Per-layer metrics.  The first traced pass is the counting pass:
        counts come from it (every later pass repeats them exactly, bar
        the call counters, which only it carries).  Times are medians
        over the later passes, which run without the call counters.
        `passes` and `untraced` hold (op seconds, reference seconds) per
        pass; the overhead compares them in reference-loop units."""
        first, timed = self.per_pass[0], self.per_pass[1:]
        out = {}
        for metric in first:
            if unit_of(metric) == "s":
                value = statistics.median(p[metric] for p in timed)
            else:
                value = first[metric]
            out[metric] = (value, unit_of(metric))
        out["trace.sweep_s"] = (statistics.median(b for b, _ in passes), "s")
        out["trace.overhead_ratio"] = (
            statistics.median(b / r for b, r in passes)
            / statistics.median(b / r for b, r in untraced), "ratio")
        return out

    def report_lines(self):
        lines = []
        if self.missing:
            lines.append("not traced (name not found): "
                         + ", ".join(self.missing))
        counts = [{m: v for m, v in p.items()
                   if unit_of(m) != "s" and m not in COUNTERS}
                  for p in self.per_pass]
        if any(c != counts[0] for c in counts):
            lines.append("WARNING: per-layer counts differ between passes")
        return lines


def _replace(module_name, path, make):
    """Wrap one name in place; functions in every namespace holding them.
    Returns the (namespace, attribute, original) triples replaced, none
    when the name no longer exists."""
    module = owner = sys.modules.get(f"extremalcurves.{module_name}")
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
    if owner is None or attr not in vars(owner):
        return []
    original = vars(owner)[attr]
    if isinstance(original, classmethod):
        setattr(owner, attr, classmethod(make(original.__func__)))
        return [(owner, attr, original)]
    wrapped = make(original)
    if owner is not module:          # a method: the class holds the only copy
        setattr(owner, attr, wrapped)
        return [(owner, attr, original)]
    replaced = []
    for mod in list(sys.modules.values()):
        name = getattr(mod, "__name__", "")
        if name == "extremalcurves" or name.startswith("extremalcurves."):
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
                    replaced.append((mod, key, original))
    return replaced


def install():
    tracer = Tracer()
    for name, (module_name, path) in SPANS.items():
        if not _replace(module_name, path,
                        lambda fn, name=name: tracer.span(name, fn)):
            tracer.missing.append(f"{module_name}.{path}")
    return tracer
