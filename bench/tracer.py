"""In-memory span tracer that wraps gridcoord's public functions.

Each wrapped function is replaced at the module attribute through which
the program calls it, so calls made inside the program are caught too
and spans nest.  A span records its name, layer, start, end, parent
span and the operation it belongs to; a few spans also carry the counts
the program already returns (branch-and-bound nodes, simplex
iterations, sweeps, power-flow iterations, model sizes).  Spans stay in
memory until :meth:`Tracer.dump` writes them out.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import dataclass, field

# Functions wrapped when tracing is on, by module; the module's short name
# is the span's layer.
WRAPPED = {
    "data": ["load_scenario"],
    "feeder": ["build_blocks", "make_partition", "partition_blocks",
               "observable_matrices", "lindist_voltages", "substation_flow",
               "bfm_oracle"],
    "inverter": ["make_curve_set", "capability_constraints", "encode_bigM",
                 "encode_sos1", "mode_exclusivity"],
    "dso_dispatch": ["make_context", "build_stage_model", "stage1_max_power",
                     "stage2a_aggregate", "stage2b_disaggregate",
                     "sensitivity_weights"],
    "milp": ["solve_milp", "solve_lp", "brute_force"],
    "tso": ["tso_dispatch", "newton_powerflow", "vq_sensitivity"],
    "numkit": ["solve_linear"],
}


def _counts(name, result):
    """Counts the program returns from one call, keyed by metric stem."""
    if name in ("milp.solve_milp", "milp.solve_lp"):
        return {"nodes": result.node_count, "iters": result.simplex_iterations,
                "incumbent": int(result.x is not None)}
    if name == "dso_dispatch.build_stage_model":
        mm = result[0]
        int_vars = set(mm.binary_ids)
        for members in mm.sos1_sets:
            int_vars.update(members)
        return {"rows": len(mm.constraints), "cols": len(mm.variables),
                "int_vars": len(int_vars)}
    if name == "feeder.bfm_oracle":
        return {"sweeps": result.sweeps}
    if name == "tso.tso_dispatch":
        return {"outer": result.outer_iterations, "pf": result.pf_iterations}
    return None


@dataclass
class Span:
    name: str
    layer: str
    start: float
    parent: int
    op: str
    end: float = 0.0
    counts: dict | None = None

    @property
    def dur(self):
        return self.end - self.start


@dataclass
class Tracer:
    """Records spans while :attr:`enabled`; wrappers stay installed until
    :meth:`uninstall`."""

    enabled: bool = False
    op: str = "setup"
    spans: list = field(default_factory=list)
    _stack: list = field(default_factory=list)
    _saved: list = field(default_factory=list)

    def install(self, package):
        for layer, attrs in WRAPPED.items():
            module = getattr(package, layer)
            for attr in attrs:
                fn = getattr(module, attr)
                self._saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(fn, layer, f"{layer}.{attr}"))

    def uninstall(self):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def _wrap(self, fn, layer, name):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span = Span(name, layer, 0.0, self._stack[-1] if self._stack else -1, self.op)
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            span.counts = _counts(name, result)
            return result
        return traced

    def mark(self):
        """Index of the next span, to slice out the spans of one phase."""
        return len(self.spans)

    def dump(self, path):
        rows = [{"name": s.name, "layer": s.layer, "start": s.start, "end": s.end,
                 "parent": s.parent, "op": s.op, "counts": s.counts}
                for s in self.spans]
        path.write_text(json.dumps(rows))


def summarize(spans, offset):
    """Per-function time, self time and calls, per-layer self time and
    per-function counts for ``spans``, whose first span has index
    ``offset`` in the tracer's list (parents are indices into that list).
    """
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent >= offset:
            child_time[s.parent - offset] += s.dur
    fn_time, fn_self, fn_calls, layer_self, counts = {}, {}, {}, {}, {}
    for s, child in zip(spans, child_time):
        fn_time[s.name] = fn_time.get(s.name, 0.0) + s.dur
        fn_self[s.name] = fn_self.get(s.name, 0.0) + s.dur - child
        fn_calls[s.name] = fn_calls.get(s.name, 0) + 1
        layer_self[s.layer] = layer_self.get(s.layer, 0.0) + s.dur - child
        bucket = counts.setdefault(s.name, {})
        for key, val in (s.counts or {}).items():
            if key in ("rows", "cols", "int_vars"):
                bucket[key] = max(bucket.get(key, 0), val)
            else:
                bucket[key] = bucket.get(key, 0) + val
    return {"time": fn_time, "self": fn_self, "calls": fn_calls,
            "layer_self": layer_self, "counts": counts}
