"""Tracing for the per-layer run: spans around the benchmark's calls
into the program, and call statistics of the program's public methods.

Spans record each call the benchmark makes (import, construction,
generation, each ``run`` and each check) with its parent and the id of
the point it belongs to; they stay in memory and are written out once,
when the benchmark ends.

Layer statistics come from wrapping public methods at class level, so
the program itself is unchanged and never sees an observer: the
simulators' own ``obs=``/``telemetry=`` hooks are deliberately not used,
because attaching them turns off the vectorized engine's idle-epoch
skip and switches its grant path, and the traced run would then time
a different program.  Each wrapped method accumulates its call count,
total time and self time (total minus the time spent in other wrapped
methods it called).
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Tuple

pc = time.perf_counter


class SpanRecorder:
    """In-memory spans; disabled recorders cost one branch per span."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: List[dict] = []
        self._stack: List[int] = []
        self._t0 = pc()

    @contextmanager
    def span(self, name: str, point: Optional[str] = None, **attrs):
        if not self.enabled:
            yield
            return
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        if point is None and parent is not None:
            point = self.spans[parent]["point"]
        record = {"id": span_id, "parent": parent, "point": point,
                  "name": name, "start_s": pc() - self._t0, "end_s": None}
        record.update(attrs)
        self.spans.append(record)
        self._stack.append(span_id)
        try:
            yield
        finally:
            self._stack.pop()
            record["end_s"] = pc() - self._t0

    def write(self, path: str, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**header, "spans": self.spans}, fh, indent=1)
            fh.write("\n")


class MethodStats:
    """Count, total and self time of one wrapped method, plus an
    optional work counter fed from its return values."""

    __slots__ = ("calls", "total_s", "self_s", "work")

    def __init__(self) -> None:
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.work = 0


class LayerProbe:
    """Wrappers for public methods, patched in at class level while
    :meth:`install`ed and taken out again by :meth:`restore`."""

    def __init__(self) -> None:
        self.stats: Dict[str, MethodStats] = {}
        self._stack: List[List[float]] = []
        self._wrappers: List[Tuple[type, str, object, object]] = []

    def wrap(self, cls: type, name: str,
             work: Optional[Callable[[object], int]] = None) -> None:
        key = f"{cls.__name__}.{name}"
        original = cls.__dict__[name]
        stats = self.stats[key] = MethodStats()
        stack = self._stack

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = pc()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = pc() - t0
                stack.pop()
                stats.calls += 1
                stats.total_s += elapsed
                stats.self_s += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
            if work is not None:
                stats.work += work(result)
            return result

        self._wrappers.append((cls, name, original, wrapper))

    def install(self) -> None:
        for cls, name, _original, wrapper in self._wrappers:
            setattr(cls, name, wrapper)

    def restore(self) -> None:
        for cls, name, original, _wrapper in self._wrappers:
            setattr(cls, name, original)

    def get(self, key: str) -> MethodStats:
        return self.stats.get(key) or MethodStats()

    def self_s(self, *keys: str) -> float:
        return sum(self.get(key).self_s for key in keys)


#: Public methods wrapped per layer, as ``(module, class, method)``.
CONTROL = (("repro.core.node", "SiriusNode", "generate_requests"),
           ("repro.core.node", "SiriusNode", "decide_grants"),
           ("repro.core.node", "SiriusNode", "apply_grants_and_expiries"),
           ("repro.core.node", "SiriusNode", "catch_up_history"))
DATAPLANE = (("repro.core.node", "SiriusNode", "enqueue_local_cells"),
             ("repro.core.node", "SiriusNode", "dequeue_for"),
             ("repro.core.node", "SiriusNode", "receive_transit"),
             ("repro.core.node", "SiriusNode", "busy_destinations"))
CELL = (("repro.core.cell", "Flow", "segment"),
        ("repro.core.cell", "Flow", "record_delivery"))
REORDER = (("repro.core.reorder", "ReorderTracker", "accept"),
           ("repro.core.reorder", "ReorderTracker", "finish_flow"))
FAILURES = (("repro.core.failures", "FailurePlan", "advance_to"),
            ("repro.core.node", "SiriusNode", "purge_destination"),
            ("repro.core.node", "SiriusNode", "drain_for_failure"),
            ("repro.core.node", "SiriusNode", "release_grants_for"))
COMPLETION_QUEUE = (("repro.sim.engine", "CompletionQueue", "push"),
                    ("repro.sim.engine", "CompletionQueue", "peek"),
                    ("repro.sim.engine", "CompletionQueue", "pop"),
                    ("repro.sim.engine", "CompletionQueue", "invalidate"))
SETUP = (("repro.workload.flows", "FlowWorkload", "generate"),
         ("repro.core.network", "SiriusNetwork", "__init__"),
         ("repro.topology.sirius", "SiriusTopology", "__init__"),
         ("repro.core.schedule", "CyclicSchedule",
          "verify_contention_free"))
ENGINES = (("repro.core.network", "SiriusNetwork", "run"),
           ("repro.sim.fluid", "FluidNetwork", "run"))

#: Units of the per-layer metrics (per-point run times are added by
#: ``run.per_layer_units``).
LAYER_UNITS = {
    "import.repro_s": "s",
    "workload.generate_s": "s",
    "network.init_s": "s",
    "topology.build_s": "s",
    "schedule.verify_s": "s",
    "engine.self_s": "s",
    "engine.us_per_epoch": "us",
    "engine.cells_per_s": "1/s",
    "control.self_s": "s",
    "control.requests": "count",
    "control.grant_ratio": "ratio",
    "dataplane.self_s": "s",
    "dataplane.cells_sent": "count",
    "dataplane.hops_per_cell": "ratio",
    "cell.self_s": "s",
    "reorder.self_s": "s",
    "failures.self_s": "s",
    "failures.retransmitted_cells": "count",
    "fluid.self_s": "s",
    "fluid.events_per_s": "1/s",
    "completion_queue.self_s": "s",
    "completion_queue.pushes": "count",
    "completion_queue.completions_per_push": "ratio",
    "host.calib_s": "s",
    "trace.overhead": "ratio",
}

#: Work counters: how much each call did, read from its return value.
WORK = {"generate_requests": len, "decide_grants": len, "dequeue_for": len}


def _key(entry) -> str:
    return f"{entry[1]}.{entry[2]}"


def program_probe() -> LayerProbe:
    """A probe over every layer's public methods (the program must be
    imported already)."""
    probe = LayerProbe()
    for group in (SETUP, ENGINES, CONTROL, DATAPLANE, CELL, REORDER,
                  FAILURES, COMPLETION_QUEUE):
        for module, cls_name, method in group:
            cls = getattr(importlib.import_module(module), cls_name)
            probe.wrap(cls, method, WORK.get(method))
    return probe


def layer_metrics(probe: LayerProbe, *, epochs: int, fluid_events: int,
                  retransmitted_cells: int) -> Dict[str, float]:
    """The per-layer figures of one traced round."""
    g = probe.get
    engine = g("SiriusNetwork.run")
    fluid = g("FluidNetwork.run")
    delivered_cells = g("Flow.record_delivery").calls
    requests = g("SiriusNode.generate_requests").work
    grants = g("SiriusNode.decide_grants").work
    cells_sent = g("SiriusNode.dequeue_for").work
    pushes = g("CompletionQueue.push").calls
    completions = g("CompletionQueue.pop").calls
    return {
        "workload.generate_s": g("FlowWorkload.generate").total_s,
        "network.init_s": g("SiriusNetwork.__init__").self_s,
        "topology.build_s": g("SiriusTopology.__init__").total_s,
        "schedule.verify_s": g("CyclicSchedule.verify_contention_free"
                               ).total_s,
        "engine.self_s": engine.self_s,
        "engine.us_per_epoch": (1e6 * engine.self_s / epochs
                                if epochs else 0.0),
        "engine.cells_per_s": (delivered_cells / engine.total_s
                               if engine.total_s else 0.0),
        "control.self_s": probe.self_s(*map(_key, CONTROL)),
        "control.requests": requests,
        "control.grant_ratio": grants / requests if requests else 0.0,
        "dataplane.self_s": probe.self_s(*map(_key, DATAPLANE)),
        "dataplane.cells_sent": cells_sent,
        "dataplane.hops_per_cell": (cells_sent / delivered_cells
                                    if engine.calls and delivered_cells
                                    else 0.0),
        "cell.self_s": probe.self_s(*map(_key, CELL)),
        "reorder.self_s": probe.self_s(*map(_key, REORDER)),
        "failures.self_s": probe.self_s(*map(_key, FAILURES)),
        "failures.retransmitted_cells": retransmitted_cells,
        "fluid.self_s": fluid.self_s,
        "fluid.events_per_s": (fluid_events / fluid.total_s
                               if fluid.total_s else 0.0),
        "completion_queue.self_s": probe.self_s(*map(_key,
                                                     COMPLETION_QUEUE)),
        "completion_queue.pushes": pushes,
        "completion_queue.completions_per_push": (completions / pushes
                                                  if pushes else 0.0),
    }
