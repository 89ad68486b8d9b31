"""The observation bundle threaded through the simulator stack.

:class:`Observation` groups the three instrument planes — a metrics
registry, an event tracer and a phase profiler — behind one object that
:meth:`repro.core.network.SiriusNetwork.run` (and
:meth:`repro.sim.fluid.FluidNetwork.run`) accept as ``obs=``.  Each
plane defaults to its no-op implementation, so ``Observation()`` is
itself a no-op: passing it costs one attribute load and branch per
instrumented site (the tier-1 overhead test bounds this at < 5 % of
run wall-clock).  :meth:`Observation.recording` turns everything on.
"""

from __future__ import annotations

from time import monotonic
from typing import Optional

import numpy as np

from repro.obs.events import NULL_TRACER, EventTracer
from repro.obs.metrics import NULL_REGISTRY, MetricsRegistry
from repro.obs.profiling import NULL_PROFILER, PhaseProfiler

__all__ = ["Observation", "NULL_OBS"]


class Observation:
    """Registry + tracer + profiler, each independently optional.

    Parameters
    ----------
    registry:
        A :class:`repro.obs.metrics.MetricsRegistry`, or None for the
        no-op registry.
    tracer:
        A :class:`repro.obs.events.EventTracer`, or None for the no-op
        tracer.
    profiler:
        A :class:`repro.obs.profiling.PhaseProfiler`, or None for the
        no-op profiler.
    sample_every:
        Epoch period at which the network publishes queue-occupancy
        gauges into the registry (1 = every epoch).
    """

    def __init__(self, *,
                 registry: Optional[MetricsRegistry] = None,
                 tracer: Optional[EventTracer] = None,
                 profiler: Optional[PhaseProfiler] = None,
                 sample_every: int = 1) -> None:
        if sample_every < 1:
            raise ValueError(
                f"sampling period must be >= 1, got {sample_every}"
            )
        self.registry = registry if registry is not None else NULL_REGISTRY
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.profiler = profiler if profiler is not None else NULL_PROFILER
        self.sample_every = sample_every
        #: Per-node depths published by the last sample_network call.
        self._node_depths = None

    @classmethod
    def recording(cls, *, sample_every: int = 1, per_epoch_profile: bool = False,
                  max_events: int = 1_000_000) -> "Observation":
        """All three planes live: full metrics, tracing and profiling."""
        return cls(
            registry=MetricsRegistry(),
            tracer=EventTracer(max_events=max_events),
            profiler=PhaseProfiler(per_epoch=per_epoch_profile),
            sample_every=sample_every,
        )

    @classmethod
    def live(cls, *, sample_every: int = 1,
             max_events: int = 65_536) -> "Observation":
        """The streaming-service bundle (:mod:`repro.serve`).

        Metrics plus a *ring* tracer: retained events are a bounded
        recent window (oldest evicted, :attr:`EventTracer.dropped`
        counted) and live consumers follow the stream through
        :meth:`EventTracer.tap`.  No profiler — a long-running service
        job has no single wall-clock breakdown to report.
        """
        return cls(
            registry=MetricsRegistry(),
            tracer=EventTracer(max_events=max_events, ring=True),
            sample_every=sample_every,
        )

    @property
    def enabled(self) -> bool:
        """True when any plane records (False for the no-op default)."""
        return (self.registry.enabled or self.tracer.enabled
                or self.profiler.enabled)

    # -- network-level publication ----------------------------------------
    def sample_network(self, epoch: int, local_depth, vq_depth, fwd_depth,
                       in_flight: int, delivered_bits: float) -> None:
        """Publish one epoch's queue state into the registry.

        Called by the network loop at the ``sample_every`` cadence with
        per-node integer depth arrays (one entry per node).  Publishes
        the aggregate occupancy series (tracked gauges, the substrate
        of run reports) plus per-node labelled gauges
        (``vq_cells{node=}``) for drill-down — the latter only for nodes
        whose depth changed since the previous sample, so a sample of a
        4096-node network costs array compares, not 12k gauge writes.
        """
        registry = self.registry
        previous = self._node_depths
        depths = (np.asarray(local_depth), np.asarray(vq_depth),
                  np.asarray(fwd_depth))
        if previous is None or len(previous[0]) != len(depths[0]):
            previous = tuple(np.zeros_like(d) for d in depths)
        totals = []
        for name, depth, last in zip(("local_cells", "vq_cells",
                                      "fwd_cells"), depths, previous):
            gauge = registry.gauge(name, track=False)
            changed = np.flatnonzero(depth != last)
            for node, value in zip(changed.tolist(),
                                   depth[changed].tolist()):
                gauge.set(value, node=node)
            totals.append(int(depth.sum()))
        self._node_depths = tuple(d.copy() for d in depths)
        local, vq, fwd = totals
        registry.gauge("net_local_cells", track=True).set(local, at=epoch)
        registry.gauge("net_vq_cells", track=True).set(vq, at=epoch)
        registry.gauge("net_fwd_cells", track=True).set(fwd, at=epoch)
        registry.gauge("net_in_flight_cells", track=True).set(
            in_flight, at=epoch
        )
        registry.gauge("net_backlog_cells", track=True).set(
            local + vq + fwd + in_flight, at=epoch
        )
        registry.gauge("net_delivered_bits", track=True).set(
            delivered_bits, at=epoch
        )
        # Per-run progress/heartbeat gauges for live observers.
        # ``run_epoch`` is the simulation's position; ``run_heartbeat_s``
        # is a wall-clock stamp proving the epoch loop is advancing (a
        # stalled run keeps its last stamp, which is how the service
        # distinguishes "slow" from "wedged").  Wall-clock never feeds
        # back into simulated behaviour — it is observation only.
        registry.gauge("run_epoch").set(epoch)
        registry.gauge("run_heartbeat_s").set(monotonic())


#: The module-wide no-op bundle the simulators default to.
NULL_OBS = Observation()
