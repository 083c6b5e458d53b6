"""In-memory spans around the public calls into each unitred layer.

The benchmark measures layers from outside the package: `install` replaces
the public functions and methods listed in LAYERS with wrappers, in every
unitred module that binds them, so calls the package makes internally are
timed too.  Each wrapper records one span (name, item, parent, start, end)
and the counters the layer's result carries.  A call made while a span of
the same name is already the innermost open span is not recorded again
(inverse multiplies, decompose lifts), so arithmetic is counted once per
call into the layer.

A span's self time is its duration minus the time its child spans cover.
Spans stay in memory and are written out once, after the pass.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time

ITEM = "bench.item"


def _enum_counts(res):
    return {"svp.enum_nodes": res.nodes, "svp.enum_vectors": len(res.vectors)}


def _dumps_counts(text):
    return {"serialize.bytes": len(text.encode())}


def _l75_counts(rep):
    return {"witness.l75_points": rep.permutations * rep.grid_points}


# (module, owner, attribute) -> (span name, counter function or None).
# owner is None for a module-level function, else the class name.
LAYERS = {
    ("unitred.traceform", None, "gram"): ("traceform.gram", None),
    ("unitred.traceform", None, "ldl"): ("traceform.ldl", None),
    ("unitred.svp", None, "lll_reduce"): ("svp.lll", None),
    ("unitred.svp", None, "enumerate_below"): ("svp.enum", _enum_counts),
    ("unitred.field", "CycloElement", "norm"): ("field.norm", None),
    ("unitred.realfield", "RealElement", "norm"): ("realfield.norm", None),
    ("unitred.field", None, "make_field"): ("field.make_field", None),
    ("unitred.units", None, "eta"): ("units.eta", None),
    ("unitred.certify", None, "strong_criterion"): ("certify.criterion", None),
    ("unitred.certify", None, "classify"): ("certify.classify", None),
    ("unitred.field", "CycloElement", "__mul__"): ("field.arith", None),
    ("unitred.field", "CycloElement", "conj"): ("field.arith", None),
    ("unitred.field", "CycloElement", "inverse"): ("field.arith", None),
    ("unitred.field", "CycloElement", "lift"): ("field.arith", None),
    ("unitred.field", "CycloElement", "decompose"): ("field.arith", None),
    ("unitred.realfield", "RealElement", "__mul__"): ("realfield.arith", None),
    ("unitred.realfield", "RealElement", "inverse"): ("realfield.arith", None),
    ("unitred.realfield", "RealElement", "embed"): ("realfield.arith", None),
    ("unitred.realfield", None, "embed"): ("realfield.arith", None),
    ("unitred.realfield", None, "project"): ("realfield.arith", None),
    ("unitred.witness", None, "eq4_check"): ("witness.eq4", None),
    ("unitred.witness", None, "l75_scan"): ("witness.l75", _l75_counts),
    ("unitred.witness", None, "verify_witness"): ("witness.verify", None),
    ("unitred.realfield", None, "verify_real_witness"): ("witness.verify", None),
    ("unitred.serialize", None, "dumps_canonical"): ("serialize.dumps", _dumps_counts),
}

# span name -> (self-time metric, call-count metric or None)
SPAN_METRICS = {
    "traceform.gram": ("traceform.gram_s", None),
    "traceform.ldl": ("traceform.ldl_s", None),
    "svp.lll": ("svp.lll_s", None),
    "svp.enum": ("svp.enum_s", None),
    "field.norm": ("field.norm_s", "field.norm_calls"),
    "realfield.norm": ("realfield.norm_s", "realfield.norm_calls"),
    "field.make_field": ("field.make_field_s", None),
    "units.eta": ("units.eta_s", None),
    "certify.criterion": ("certify.criterion_s", None),
    "certify.classify": ("certify.classify_s", "certify.conductors"),
    "field.arith": ("field.arith_s", "field.arith_ops"),
    "realfield.arith": ("realfield.arith_s", "realfield.arith_ops"),
    "witness.eq4": ("witness.eq4_s", "witness.eq4_checks"),
    "witness.l75": ("witness.l75_s", None),
    "witness.verify": ("witness.verify_s", None),
    "serialize.dumps": ("serialize.dumps_s", None),
    ITEM: ("bench.item_self_s", None),
}

COUNTERS = (
    "svp.enum_nodes",
    "svp.enum_vectors",
    "serialize.bytes",
    "witness.l75_points",
)


class Tracer:
    """Span store for one traced pass; single-threaded by construction."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # [name id, item, parent span index or -1, start ns, end ns]
        self.spans: list[list[int]] = []
        self._stack: list[int] = []
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.item = -1
        self.active = False

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def call(self, name_id: int, fn, args, kwargs, counts):
        stack = self._stack
        if not self.active or (stack and self.spans[stack[-1]][0] == name_id):
            return fn(*args, **kwargs)
        span = [name_id, self.item, stack[-1] if stack else -1, 0, 0]
        idx = len(self.spans)
        self.spans.append(span)
        stack.append(idx)
        span[3] = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[4] = time.perf_counter_ns()
            stack.pop()
        if counts is not None:
            for key, val in counts(result).items():
                self.counters[key] += val
        return result

    def run_item(self, index: int, fn):
        """Run one workload item inside its root span."""
        self.item = index
        return self.call(self.name_id(ITEM), fn, (), {}, None)

    def layer_metrics(self) -> dict[str, float]:
        """Self time per layer and the call counts, from the recorded spans."""
        child = [0] * len(self.spans)
        for name_id, _, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_ns = dict.fromkeys(range(len(self.names)), 0)
        calls = dict.fromkeys(range(len(self.names)), 0)
        for i, (name_id, _, _, start, end) in enumerate(self.spans):
            self_ns[name_id] += end - start - child[i]
            calls[name_id] += 1
        out: dict[str, float] = {}
        for name, (time_metric, count_metric) in SPAN_METRICS.items():
            nid = self._ids.get(name)
            out[time_metric] = self_ns[nid] / 1e9 if nid is not None else 0.0
            if count_metric:
                out[count_metric] = calls[nid] if nid is not None else 0
        out.update(self.counters)
        nodes = self.counters["svp.enum_nodes"]
        out["svp.enum_yield"] = self.counters["svp.enum_vectors"] / nodes if nodes else 0.0
        out["trace.spans"] = len(self.spans)
        return out

    def write(self, path, items: list[str]) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["name", "item", "parent", "start_ns", "end_ns"],
                    "names": self.names,
                    "items": items,
                    "spans": self.spans,
                },
                fh,
                separators=(",", ":"),
            )


def _wrapper(tracer: Tracer, name: str, fn, counts):
    name_id = tracer.name_id(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return tracer.call(name_id, fn, args, kwargs, counts)

    return traced


def install(tracer: Tracer) -> None:
    """Route every binding of the LAYERS callables through tracer.

    Bindings made by `from .x import f` in other unitred modules, and the
    re-exports in the package itself, are replaced as well.
    """
    modules = [
        mod
        for key, mod in list(sys.modules.items())
        if key == "unitred" or key.startswith("unitred.")
    ]
    for (mod_name, owner, attr), (name, counts) in LAYERS.items():
        home = sys.modules[mod_name]
        holder = getattr(home, owner) if owner else home
        orig = holder.__dict__[attr]
        wrapped = _wrapper(tracer, name, orig, counts)
        targets = [getattr(home, owner)] if owner else modules
        for target in targets:
            for key, val in list(vars(target).items()):
                if val is orig:
                    setattr(target, key, wrapped)
