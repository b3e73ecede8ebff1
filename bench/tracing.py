"""Span recording for the traced benchmark pass, installed from outside ``src/``.

:func:`install` rebinds the public entry points of each layer of ``repro``
to thin wrappers that record one span per call: name, start, end, self time,
span id, parent span id, and operation id.  Nothing under ``src/`` changes;
the wrappers replace

* module-level functions in the defining module *and* every loaded ``repro``
  module that imported them by name (``from .x import f`` copies), and
* methods in the ``__dict__`` of the class that defines them, one wrapper per
  original function object, so identity checks such as
  ``type(adversary).corrupt_state is Adversary.corrupt_state`` keep their
  meaning.

Spans are kept in memory (one tuple each) and written out when the benchmark
ends.  A span's self time is its duration minus the duration of its child
spans on the same thread; self times of all spans of an operation therefore
partition the operation's root span.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

#: The root span a workload opens around each timed operation.  Its self
#: time is the part of the operation no layer span covers.
ROOT = "bench.op"

#: Every layer span, in report order, with the callables it wraps.  A
#: target is ``"module:function"``, ``"module:Class.method"``, or
#: ``"module:Class.method@subclasses"`` (the method wherever it is defined on
#: the class or any of its subclasses).
LAYER_TARGETS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("core.fault_masking.gather", (
        "repro.core.fault_masking:gather_level_batched",
        "repro.core.fault_masking:gather_level_flat",
        "repro.core.fault_masking:gather_level_numpy")),
    ("core.fault_masking.discover_mask", (
        "repro.core.fault_masking:discover_and_mask_batched",
        "repro.core.fault_masking:discover_and_mask")),
    ("core.resolve.resolve", (
        "repro.core.resolve:batched_resolve_levels",
        "repro.core.resolve:flat_resolve_levels",
        "repro.core.resolve:numpy_resolve_levels")),
    ("core.fault_discovery.conversion_discovery", (
        "repro.core.fault_discovery:discover_during_conversion_batched",
        "repro.core.fault_discovery:discover_during_conversion_flat",
        "repro.core.fault_discovery:discover_during_conversion_numpy")),
    ("runtime.batched.driver", (
        "repro.runtime.batched:run_batched_if_supported",)),
    ("core.processor.step", (
        "repro.core.shifting:ShiftingEIGProcessor.outgoing",
        "repro.core.shifting:ShiftingEIGProcessor.incoming",
        "repro.core.algorithm_c:AlgorithmCProcessor.outgoing",
        "repro.core.algorithm_c:AlgorithmCProcessor.incoming",
        "repro.core.hybrid:HybridProcessor.outgoing",
        "repro.core.hybrid:HybridProcessor.incoming")),
    ("runtime.simulation.driver", (
        "repro.runtime.simulation:run_agreement",)),
    ("runtime.network.deliver", (
        "repro.runtime.network:SynchronousNetwork.deliver",)),
    ("adversary.tamper", (
        "repro.adversary.base:Adversary.round_messages@subclasses",
        "repro.adversary.base:Adversary.observe_delivery@subclasses",
        "repro.adversary.base:Adversary.corrupt_state@subclasses")),
    ("api.request.resolve_parts", (
        "repro.api.request:RunRequest.resolve_parts",)),
    ("api.planner.plan_run", ("repro.api.planner:plan_run",)),
    ("api.request.report_build", (
        "repro.api.request:RunReport.from_result",)),
    ("api.executors.serial", (
        "repro.api.executors:SerialExecutor.iter_reports",)),
    ("stats.trial_request", ("repro.stats.spec:McSpec.trial_request",)),
    ("stats.fold", ("repro.stats.campaign:McState.fold",)),
    ("stats.snapshot", ("repro.stats.campaign:McState.to_dict",)),
    ("stats.run_mc", ("repro.stats.campaign:run_mc",)),
    ("serve.admit", ("repro.serve.service:AgreementService.admit",)),
    ("serve.digest", ("repro.serve.cache:request_digest",)),
    ("serve.cache.get", ("repro.serve.cache:ResultCache.get",)),
    ("serve.cache.put", ("repro.serve.cache:ResultCache.put",)),
    ("serve.journal.append", (
        "repro.serve.journal:ServeJournal.accepted",
        "repro.serve.journal:ServeJournal.completed")),
    ("serve.run_job", ("repro.serve.service:AgreementService.run_job",)),
)

LAYER_SPANS: Tuple[str, ...] = tuple(name for name, _ in LAYER_TARGETS)

#: Span tuple fields, in order (also the column order of the spans file).
SPAN_FIELDS = ("name", "start", "end", "self", "span", "parent", "op")


class Tracer:
    """In-memory span recorder; thread-safe under the interpreter lock.

    Each thread keeps its own stack of open spans, so spans from the serve
    worker threads nest only under spans of their own thread.  A span opened
    with an empty stack takes the operation id it is given, or a fresh one.
    """

    def __init__(self) -> None:
        self.spans: List[Tuple[str, float, float, float, int, Optional[int],
                               Optional[int]]] = []
        #: Work counts read from every report built while tracing:
        #: ``(end, op, messages, entries, units, discoveries)``.
        self.reports: List[Tuple[float, Optional[int], int, int, int, int]] = []
        self._local = threading.local()
        self._span_ids = itertools.count(1)
        self._op_ids = itertools.count(1_000_000)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current_op(self) -> Optional[int]:
        stack = self._stack()
        return stack[-1][4] if stack else None

    def enter(self, name: str, op: Optional[int] = None,
              root: bool = False) -> list:
        """Open a span; ``root=True`` keeps *op* even when it is ``None``."""
        stack = self._stack()
        if stack:
            parent = stack[-1]
            frame = [name, 0.0, 0.0, next(self._span_ids), parent[4],
                     parent[3]]
        else:
            if op is None and not root:
                op = next(self._op_ids)
            frame = [name, 0.0, 0.0, next(self._span_ids), op, None]
        stack.append(frame)
        frame[1] = time.perf_counter()
        return frame

    def exit(self, frame: list) -> None:
        end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        duration = end - frame[1]
        if stack:
            stack[-1][2] += duration
        self.spans.append((frame[0], frame[1], end, duration - frame[2],
                           frame[3], frame[5], frame[4]))

    def record_report(self, report: Any) -> None:
        metrics = report.metrics
        self.reports.append((
            time.perf_counter(), self.current_op(),
            int(metrics.get("total_messages", 0)),
            int(metrics.get("total_value_entries", 0)),
            int(metrics.get("max_computation_units", 0)),
            sum(len(found) for found in report.discovered.values())))

    def write(self, path: str) -> None:
        """Write every span and report count, one JSON array per line."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"fields": SPAN_FIELDS}) + "\n")
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
            for entry in self.reports:
                handle.write(json.dumps(["#report", *entry]) + "\n")


#: Work counts per run, read from reports; the per-workload counts that
#: only one workload produces; and the trace bookkeeping metrics.
REPORT_COUNTS = ("network.messages", "network.entries", "core.units",
                 "core.discoveries")
WORKLOAD_COUNTS = ("serve.cache.hit_ratio", "serve.journal.appends",
                   "stats.checkpoint_lines")


def layer_metrics(tracer: Tracer, ops: int,
                  select: Callable[[Optional[int], float], bool],
                  e2e_s: float, root: Optional[str] = ROOT,
                  client: Optional[List[Tuple[float, float, float]]] = None
                  ) -> Dict[str, float]:
    """Per-operation self time and calls of every layer span.

    *select* picks the spans of the timed operations by ``(op, start)``.
    In-process workloads pass their operation ids; the root span's self time
    is ``bench.unattributed``.  For serve, *client* holds each request's
    ``(due, send, done)``: the wait before sending (send - due: generator
    lateness plus waiting for a free connection) is ``bench.unattributed``,
    and ``serve.frontend`` is the rest of the client latency that no server
    span covers (HTTP, queue wait, loopback).

    ``trace.reconcile`` is (layer self times + frontend + unattributed) over
    the traced end-to-end time *e2e_s*; 1.0 means the spans account for
    every millisecond exactly once.
    """
    self_s = dict.fromkeys(LAYER_SPANS, 0.0)
    calls = dict.fromkeys(LAYER_SPANS, 0)
    unattributed = 0.0
    for name, start, _end, self_time, _span, _parent, op in tracer.spans:
        if not select(op, start):
            continue
        if name == root:
            unattributed += self_time
        elif name in self_s:
            self_s[name] += self_time
            calls[name] += 1
    frontend = 0.0
    if client is not None:
        unattributed = sum(send - due for due, send, _ in client)
        frontend = (sum(done - send for _, send, done in client)
                    - sum(self_s.values()))
    metrics: Dict[str, float] = {}
    for name in LAYER_SPANS:
        metrics[f"{name}.self_ms"] = 1000.0 * self_s[name] / ops
        metrics[f"{name}.calls"] = calls[name] / ops
    metrics["serve.frontend.self_ms"] = 1000.0 * frontend / ops
    metrics["bench.unattributed"] = 1000.0 * unattributed / ops
    reports = [entry for entry in tracer.reports
               if select(entry[1], entry[0])]
    for column, name in enumerate(REPORT_COUNTS, start=2):
        metrics[name] = (sum(entry[column] for entry in reports)
                         / len(reports) if reports else 0.0)
    metrics.update(dict.fromkeys(WORKLOAD_COUNTS, 0.0))
    metrics["trace.reconcile"] = (sum(self_s.values()) + frontend
                                  + unattributed) / e2e_s
    return metrics


def read_spans(path: str) -> Tracer:
    """Load a spans file written by :meth:`Tracer.write`."""
    tracer = Tracer()
    with open(path, encoding="utf-8") as handle:
        next(handle)
        for line in handle:
            row = json.loads(line)
            if row[0] == "#report":
                tracer.reports.append(tuple(row[1:]))
            else:
                tracer.spans.append(tuple(row))
    return tracer


# -- wrapper installation ------------------------------------------------------

def _span_wrapper(tracer: Tracer, name: str, fn: Callable) -> Callable:
    if inspect.isgeneratorfunction(fn):
        @functools.wraps(fn)
        def traced_generator(*args, **kwargs):
            inner = fn(*args, **kwargs)
            try:
                while True:
                    frame = tracer.enter(name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        tracer.exit(frame)
                    yield item
            finally:
                inner.close()
        return traced_generator

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        frame = tracer.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.exit(frame)
    return traced


def _report_wrapper(tracer: Tracer, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        report = fn(*args, **kwargs)
        tracer.record_report(report)
        return report
    return traced


def _subclasses(cls: type) -> Iterable[type]:
    seen = {cls}
    queue = [cls]
    while queue:
        current = queue.pop()
        yield current
        for sub in current.__subclasses__():
            if sub not in seen:
                seen.add(sub)
                queue.append(sub)


def install(tracer: Tracer) -> None:
    """Install every layer wrapper around the loaded ``repro`` modules."""
    for module in ("repro.adversary", "repro.api", "repro.core.algorithm_c",
                   "repro.core.hybrid", "repro.runtime.batched",
                   "repro.serve", "repro.stats"):
        importlib.import_module(module)
    # One wrapper per original function object, whatever the name it hides
    # behind, so two class slots holding one function still hold one wrapper.
    wrappers: Dict[int, Callable] = {}

    def wrapped(name: str, fn: Callable) -> Callable:
        if id(fn) not in wrappers:
            wrapper = _span_wrapper(tracer, name, fn)
            if name == "api.request.report_build":
                wrapper = _report_wrapper(tracer, wrapper)
            wrappers[id(fn)] = wrapper
        return wrappers[id(fn)]

    for name, targets in LAYER_TARGETS:
        for target in targets:
            module_name, _, attr = target.partition(":")
            module = importlib.import_module(module_name)
            attr, _, scope = attr.partition("@")
            if "." not in attr:
                original = getattr(module, attr)
                replacement = wrapped(name, original)
                for loaded in list(sys.modules.values()):
                    namespace = getattr(loaded, "__dict__", None)
                    if (namespace is None or not getattr(
                            loaded, "__name__", "").startswith("repro")):
                        continue
                    for key, value in list(namespace.items()):
                        if value is original:
                            setattr(loaded, key, replacement)
                continue
            class_name, method = attr.split(".")
            base = getattr(module, class_name)
            classes = _subclasses(base) if scope == "subclasses" else (base,)
            for cls in classes:
                slot = cls.__dict__.get(method)
                if slot is None:
                    continue
                if isinstance(slot, classmethod):
                    setattr(cls, method,
                            classmethod(wrapped(name, slot.__func__)))
                else:
                    setattr(cls, method, wrapped(name, slot))
