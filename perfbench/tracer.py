"""Per-layer tracing from the benchmark's side.

``Tracer.install()`` replaces selected public functions of the
modules under ``src/cellnet/`` with wrappers, at every place a module
or class binds them (``compiler``'s own ``scells``, ``PES.down``, ...),
so calls made inside the library are seen too.  While an operation is
being recorded each wrapper appends a span (name, start, end, parent)
to an in-memory list; a call of a function from inside its own open
span (recursion) joins that span.  ``uninstall`` puts the originals
back.  Self time is a span's duration minus its children's.
"""

from __future__ import annotations

import sys
import time
import tracemalloc
from collections import defaultdict

# module, name (or Class.name), metric for its self time, metric for its call count
WRAPPED = [
    ("netfile", "parse_net", "netfile.parse_ms", None),
    ("nets", "validate_occurrence", "nets.validate_ms", "nets.validate_calls"),
    ("cells", "scells", "cells.scells_ms", "cells.scells_calls"),
    ("cells", "cell_order", "cells.cell_order_ms", None),
    ("cells", "canonical_form", "cells.canonical_form_ms", None),
    ("compiler", "compile_net", "compiler.compile_net_ms", None),
    ("compiler", "compile_cell", "compiler.compile_net_ms", "compiler.compile_cell_calls"),
    ("terms", "typecheck", "terms.typecheck_ms", None),
    ("terms", "constants_of", "terms.constants_of_ms", None),
    ("terms", "render_term", "terms.render_term_ms", None),
    ("kleisli", "interpret", "kleisli.interpret_ms", None),
    ("kleisli", "permutation_arrow", "kleisli.permutation_arrow_ms", "kleisli.permutation_arrow_calls"),
    ("kleisli", "validate_delta", "kleisli.validate_delta_ms", None),
    ("inference", "marginalize", "inference.marginalize_ms", None),
    ("inference", "forward", "inference.forward_ms", None),
    ("inference", "Predicate.from_evidence", "inference.posterior_ms", None),
    ("inference", "pullback", "inference.posterior_ms", None),
    ("inference", "condition", "inference.posterior_ms", None),
    ("oracle", "check_correspondence", "oracle.check_correspondence_ms", None),
    ("oracle", "pes_of_net", "oracle.pes_of_net_ms", None),
    ("oracle", "PES.down", None, "oracle.pes_down_calls"),
    ("oracle", "enumerate_outcome_distribution", "oracle.enumerate_ms", None),
    ("oracle", "r_stopped_configs", None, "oracle.r_stopped_configs"),
    ("diagram", "export_diagram", "diagram.export_ms", None),
]

# Metrics the wrappers do not derive from spans and call counts.
DERIVED = {
    "terms.typecheck_cache_entries": "count",  # entries one operation adds (cache misses)
    "terms.term_nodes": "count",  # nodes of the terms compile_net returns
    "kleisli.alloc_peak_mb": "MB",  # tracemalloc peak inside interpret
}


def metric_units() -> dict[str, str]:
    units = {}
    for _, _, time_metric, count_metric in WRAPPED:
        if time_metric:
            units[time_metric] = "ms"
        if count_metric:
            units[count_metric] = "count"
    units.update(DERIVED)
    return units


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, int]] = []
        self.stack: list[tuple[str, int]] = []  # open spans: (name, index)
        self.op = -1
        self.recording = False
        self.measure_alloc = False
        self.counts: dict[str, int] = defaultdict(int)
        self.alloc_peak = 0
        self.terms: list = []
        self._saved: list[tuple[object, str, object]] = []

    # -- operation bracket ------------------------------------------------

    def begin(self, op: int, measure_alloc: bool) -> None:
        self.op = op
        self.counts = defaultdict(int)
        self.alloc_peak = 0
        self.terms = []
        self.measure_alloc = measure_alloc
        self.recording = True

    def end(self) -> None:
        self.recording = False

    # -- wrapping ----------------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "cellnet" or n.startswith("cellnet.")]
        for module_name, qualname, time_metric, count_metric in WRAPPED:
            home = sys.modules[f"cellnet.{module_name}"]
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(home, cls_name)
                raw = cls.__dict__[attr]
                func = raw.__func__ if isinstance(raw, classmethod) else raw
                wrapper = self._wrap(func, qualname, time_metric, count_metric)
                self._saved.append((cls, attr, raw))
                setattr(cls, attr, classmethod(wrapper) if isinstance(raw, classmethod) else wrapper)
                continue
            original = getattr(home, qualname)
            wrapper = self._wrap(original, qualname, time_metric, count_metric)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._saved.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._saved):
            setattr(owner, key, original)
        self._saved = []

    def _wrap(self, func, name, time_metric, count_metric):
        tracer = self
        if time_metric is None:
            # Counted only: PES.down runs too often for a span per call,
            # and r_stopped_configs counts the configurations it returns.
            sized = name == "r_stopped_configs"

            def counted(*args, **kwargs):
                result = func(*args, **kwargs)
                if tracer.recording:
                    tracer.counts[count_metric] += len(result) if sized else 1
                return result
            return counted

        def traced(*args, **kwargs):
            if not tracer.recording:
                return func(*args, **kwargs)
            if count_metric:
                tracer.counts[count_metric] += 1
            stack = tracer.stack
            if stack and stack[-1][0] == name:
                return func(*args, **kwargs)
            parent = stack[-1][1] if stack else -1
            index = len(tracer.spans)
            tracer.spans.append(None)
            stack.append((name, index))
            alloc = name == "interpret" and tracer.measure_alloc
            if alloc:
                tracemalloc.start()
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                if alloc:
                    tracer.alloc_peak = max(tracer.alloc_peak, tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()
                stack.pop()
                tracer.spans[index] = (tracer.op, name, start, end, parent)
            if name == "compile_net":
                tracer.terms.append(result)
            return result

        traced.__wrapped__ = func
        return traced

    # -- results -------------------------------------------------------------

    def self_times(self, first: int) -> dict[str, float]:
        """Self time in ms per time metric over the spans recorded since
        index ``first`` (one operation)."""
        metric = {name: tm for _, name, tm, _ in WRAPPED if tm}
        spans = list(enumerate(self.spans[first:], start=first))
        child = defaultdict(float)
        for _, (_, _, start, end, parent) in spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (_, name, start, end, _) in spans:
            out[metric[name]] += (end - start - child[i]) * 1000.0
        return out

    def dump(self) -> list:
        return [[op, name, round(start * 1e6, 1), round(end * 1e6, 1), parent]
                for op, name, start, end, parent in self.spans]


def count_term_nodes(cellnet, term) -> int:
    terms = cellnet.terms
    count, stack = 0, [term]
    while stack:
        t = stack.pop()
        count += 1
        if isinstance(t, terms.Par):
            stack.extend((t.left, t.right))
        elif isinstance(t, terms.Seq):
            stack.extend((t.first, t.second))
        elif isinstance(t, terms.Sum):
            stack.extend(sub for _, sub in t.branches)
    return count
