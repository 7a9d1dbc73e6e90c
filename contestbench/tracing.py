"""Per-layer tracing from outside the program.

A traced pass wraps each layer's public entry point (see
:data:`ENTRY_POINTS`) in a span recorder, learns the workload, then puts
every original function back.  Spans stay in memory — name, layer,
start, end, parent, case id — and are written out once the run ends, as
JSONL and as a Chrome/Perfetto trace.  A layer's *self time* is the
duration of its spans minus the part covered by their child spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

ORACLE_LAYERS = ("bank", "retry", "oracle")
"""``Oracle.obs_layer`` values that are layers of their own; queries
through any other wrapper are not spanned and count as their caller's
self time."""

LAYERS = ("templates", "support", "fbdt", "minimize", "synth", "verify",
          "bank", "retry", "oracle")

ENTRY_POINTS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.core.templates.linear", "match_linear", "templates"),
    ("repro.core.templates.comparator", "match_comparator", "templates"),
    ("repro.core.templates.extended", "match_mux", "templates"),
    ("repro.core.templates.extended", "match_bitwise", "templates"),
    ("repro.core.templates.extended", "match_wiring", "templates"),
    ("repro.core.support", "identify_supports", "support"),
    ("repro.core.fbdt", "learn_output", "fbdt"),
    ("repro.core.fbdt", "cleanup_cover", "minimize"),
    ("repro.logic.minimize", "espresso_lite", "minimize"),
    ("repro.logic.minimize", "quine_mccluskey", "minimize"),
    ("repro.synth.scripts", "optimize_netlist", "synth"),
    ("repro.robustness.verify", "verify_and_repair", "verify"),
    ("repro.oracle.base", "Oracle.query", "<obs_layer>"),
    ("repro.perf.bank", "SampleBank.record", "bank"),
    ("repro.perf.bank", "SampleBank.take", "bank"),
)
"""``(module, attribute, layer)`` of every timed entry point."""


class Span:
    __slots__ = ("id", "parent", "name", "layer", "case", "start", "end",
                 "rows", "attrs")

    def __init__(self, id: int, parent: Optional[int], name: str,
                 layer: str, case: str, start: float,
                 end: Optional[float] = None, rows: int = 0,
                 attrs: Optional[Dict[str, Any]] = None):
        self.id = id
        self.parent = parent
        self.name = name
        self.layer = layer
        self.case = case
        self.start = start
        self.end = start if end is None else end
        self.rows = rows
        self.attrs = attrs or {}

    @property
    def duration(self) -> float:
        return max(0.0, self.end - self.start)

    def to_json(self) -> Dict[str, Any]:
        return {"id": self.id, "parent": self.parent, "name": self.name,
                "layer": self.layer, "case": self.case,
                "start": self.start, "end": self.end, "rows": self.rows,
                "attrs": self.attrs}


class Recorder:
    """In-memory span store with a stack of open spans (one thread)."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        self.case = ""
        self._open: List[Span] = []

    def open(self, name: str, layer: str, rows: int = 0) -> Span:
        parent = self._open[-1].id if self._open else None
        span = Span(len(self.spans), parent, name, layer, self.case,
                    self.clock(), rows=rows)
        self.spans.append(span)
        self._open.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = self.clock()
        popped = self._open.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    @contextmanager
    def span(self, name: str, layer: str) -> Iterator[Span]:
        span = self.open(name, layer)
        try:
            yield span
        finally:
            self.close(span)


# -- patching -----------------------------------------------------------------


def _function_wrapper(recorder: Recorder, name: str, layer: str,
                      fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = recorder.open(name, layer)
        try:
            result = fn(*args, **kwargs)
            _annotate(span, args, result)
            return result
        finally:
            recorder.close(span)
    return wrapper


def _annotate(span: Span, args: tuple, result: Any) -> None:
    """Per-layer counts read off a call's arguments and result."""
    if span.layer == "templates":
        span.attrs["matched"] = result is not None
    elif span.layer == "synth":
        span.attrs["gates_in"] = args[0].gate_count()
        span.attrs["gates_out"] = result[0].gate_count()
    elif span.name == "SampleBank.record":
        span.rows = len(args[1])


def _query_wrapper(recorder: Recorder, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def query(self, patterns, *args, **kwargs):
        layer = self.obs_layer
        if layer not in ORACLE_LAYERS:
            return fn(self, patterns, *args, **kwargs)
        span = recorder.open(f"{layer}.query", layer, rows=len(patterns))
        if layer == "retry":
            if self.cache_entries >= getattr(self, "_max_cache_rows", 0):
                span.attrs["memo_full"] = True
            misses, entries = self.cache_misses, self.cache_entries
        try:
            return fn(self, patterns, *args, **kwargs)
        finally:
            if layer == "retry":
                # Missed rows the memo did not store (it is frozen or
                # full): each is looked up by a linear scan of the
                # batch's miss list.
                span.attrs["memo_bypass"] = (
                    (self.cache_misses - misses)
                    - (self.cache_entries - entries))
            recorder.close(span)
    return query


def _repro_modules() -> List[Any]:
    return [m for n, m in list(sys.modules.items())
            if (n == "repro" or n.startswith("repro.")) and m is not None]


@contextmanager
def patched(recorder: Recorder) -> Iterator[None]:
    """Wrap every entry point of :data:`ENTRY_POINTS` for the extent.

    Functions are replaced in their defining module *and* in every
    loaded ``repro`` module that imported them by name; methods are
    replaced on their class.  On exit every binding of a wrapper — also
    one a module imported while patched — is put back to the original.
    """
    swaps: List[Tuple[Callable, Callable]] = []  # (original, wrapper)
    undo: List[Tuple[Any, str, Any]] = []
    try:
        for module_name, attr, layer in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                wrapper = (_query_wrapper(recorder, original)
                           if layer == "<obs_layer>" else
                           _function_wrapper(recorder, attr, layer,
                                             original))
                undo.append((cls, meth, original))
                setattr(cls, meth, wrapper)
            else:
                original = getattr(module, attr)
                wrapper = _function_wrapper(recorder, attr, layer,
                                            original)
                for mod in _repro_modules():
                    if getattr(mod, attr, None) is original:
                        undo.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
            swaps.append((original, wrapper))
        yield
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
        wrappers = {id(w): o for o, w in swaps}
        for mod in _repro_modules():
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers:
                    setattr(mod, attr, wrappers[id(value)])


# -- arithmetic ---------------------------------------------------------------


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Each span's duration minus the union of its children's intervals
    (clipped to the span), by span id."""
    children: Dict[int, List[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out: Dict[int, float] = {}
    for span in spans:
        covered = 0.0
        reach = span.start
        for child in sorted(children.get(span.id, ()),
                            key=lambda c: c.start):
            lo = max(child.start, reach)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[span.id] = max(0.0, span.duration - covered)
    return out


def layer_self_times(spans: List[Span]) -> Dict[str, float]:
    """Self time summed per layer (spans outside :data:`LAYERS` too)."""
    selfs = self_times(spans)
    out: Dict[str, float] = {}
    for span in spans:
        out[span.layer] = out.get(span.layer, 0.0) + selfs[span.id]
    return out


def layer_metrics(spans: List[Span], results: List[Any],
                  learn_s: float) -> Dict[str, float]:
    """Per-layer metrics of one traced pass.

    ``results`` are the pass's :class:`~repro.core.regressor.LearnResult`
    objects (learned with ``ObsConfig(profile=True)``); ``learn_s`` is
    the pass's traced wall time.
    """
    from repro.obs.profile import Profiler

    selfs = layer_self_times(spans)
    by_id = {span.id: span for span in spans}

    def of(layer: str) -> List[Span]:
        return [s for s in spans if s.layer == layer]

    def rows_called_from(layer: str) -> int:
        return sum(s.rows for s in spans if s.layer in ORACLE_LAYERS
                   and s.parent is not None
                   and by_id[s.parent].layer == layer)

    counters: Dict[str, float] = {}
    bank_hits = bank_misses = bank_evicted = 0
    memo_hits = memo_misses = 0
    fbdt_nodes = repaired = 0
    for res in results:
        if res.instrumentation is not None:
            for name, value in Profiler.from_instrumentation(
                    res.instrumentation).counters().items():
                counters[name] = counters.get(name, 0) + value
        if res.bank_stats is not None:
            bank_hits += res.bank_stats.hits
            bank_misses += res.bank_stats.misses
            bank_evicted += res.bank_stats.rows_evicted
        if res.retry_stats is not None:
            memo_hits += res.retry_stats["hits"]
            memo_misses += res.retry_stats["misses"]
        fbdt_nodes += sum(r.stats.nodes_expanded for r in res.reports
                          if r.stats is not None)
        if res.verification is not None:
            repaired += sum(1 for v in res.verification.outputs
                            if v.repair_rounds > 0)

    templates = of("templates")
    synth = of("synth")
    records = [s for s in spans if s.name == "SampleBank.record"]
    takes = [s for s in spans if s.name == "SampleBank.take"]
    retry = of("retry")
    oracle = of("oracle")
    metrics = {
        "templates.self_s": selfs.get("templates", 0.0),
        "templates.calls": len(templates),
        "templates.matched_frac": _frac(
            sum(1 for s in templates if s.attrs["matched"]),
            len(templates)),
        "support.self_s": selfs.get("support", 0.0),
        "support.rows": rows_called_from("support"),
        "fbdt.self_s": selfs.get("fbdt", 0.0),
        "fbdt.nodes": fbdt_nodes,
        "fbdt.fused_rows": counters.get("fbdt.fused_rows", 0),
        "minimize.self_s": selfs.get("minimize", 0.0),
        "minimize.calls": len(of("minimize")),
        "minimize.espresso_iterations":
            counters.get("minimize.espresso_iterations", 0),
        "minimize.qm_implicant_pairs":
            counters.get("minimize.qm_implicant_pairs", 0),
        "synth.self_s": selfs.get("synth", 0.0),
        "synth.gates_in": sum(s.attrs["gates_in"] for s in synth),
        "synth.gates_out": sum(s.attrs["gates_out"] for s in synth),
        "verify.self_s": selfs.get("verify", 0.0),
        "verify.rows": rows_called_from("verify"),
        "verify.outputs_repaired": repaired,
        "bank.self_s": selfs.get("bank", 0.0),
        "bank.rows_in": sum(s.rows for s in of("bank")
                            if s.name == "bank.query"),
        "bank.hit_frac": _frac(bank_hits, bank_hits + bank_misses),
        "bank.record_s": sum(s.duration for s in records),
        "bank.record_rows": sum(s.rows for s in records),
        "bank.take_s": sum(s.duration for s in takes),
        "bank.evicted": bank_evicted,
        "bank.scan_words": counters.get("bank.scan_words", 0),
        "retry.self_s": selfs.get("retry", 0.0),
        "retry.rows_in": sum(s.rows for s in retry),
        "retry.memo_hit_frac": _frac(memo_hits, memo_hits + memo_misses),
        "retry.memo_full_rows": sum(s.rows for s in retry
                                    if s.attrs.get("memo_full")),
        "retry.memo_bypass_rows": sum(s.attrs.get("memo_bypass", 0)
                                      for s in retry),
        "oracle.self_s": selfs.get("oracle", 0.0),
        "oracle.rows": sum(s.rows for s in oracle),
        "oracle.calls": len(oracle),
    }
    metrics["unattributed_s"] = learn_s - sum(selfs.get(layer, 0.0)
                                              for layer in LAYERS)
    return metrics


def _frac(num: float, den: float) -> float:
    return num / den if den else 0.0


# -- export -------------------------------------------------------------------


def write_spans(spans: List[Span], jsonl_path: str,
                chrome_path: str) -> None:
    """Write spans as JSONL and as a Chrome/Perfetto trace
    (``chrome://tracing`` or ui.perfetto.dev)."""
    with open(jsonl_path, "w") as handle:
        for span in spans:
            handle.write(json.dumps(span.to_json(), sort_keys=True) + "\n")
    origin = min((s.start for s in spans), default=0.0)
    events = [{"name": s.name, "cat": s.layer, "ph": "X", "pid": 1,
               "tid": 1, "ts": (s.start - origin) * 1e6,
               "dur": s.duration * 1e6,
               "args": {"case": s.case, "rows": s.rows, **s.attrs}}
              for s in spans]
    with open(chrome_path, "w") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"},
                  handle)
