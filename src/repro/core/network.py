"""Epoch-synchronous cell-level simulator of a Sirius network (paper §7).

The cyclic schedule connects every node pair exactly
``links_per_block`` times per epoch, so the simulator advances
epoch-by-epoch rather than slot-by-slot: within an epoch each node may
hand at most ``capacity(e)`` cells to every other node.  Slot-level
timing (cell size, guardband) sets the epoch's wall-clock duration, so
guardband sweeps (Fig 11) lengthen epochs exactly as in the paper.

Per-epoch phase order (see :mod:`repro.core.congestion` for the protocol
round-trip this implements):

1. **Deliver** cells transmitted in the previous epoch — to the
   application (final destination) or into forward queues (intermediate).
2. **Resolve** the request round that completes this epoch: apply
   arrived grants (LOCAL → virtual queue) and expire denials.
3. **Admit** new flow arrivals into LOCAL.
4. **Request** — every node emits this epoch's requests.
5. **Grant** — every node decides on the requests received last epoch.
6. **Transmit** — every node fills its slots: forward-queue cells
   first, then granted virtual-queue cells.

Fractional uplink provisioning (the paper's 1.5× of Fig 9/12) is
modelled as per-epoch capacity alternation: with multiplier ``m`` the
per-pair capacity of epoch ``e`` is ``floor((e+1)m) − floor(em)``
(e.g. 1, 2, 1, 2… for m = 1.5), while the physical topology carries
``ceil(m)`` uplink replicas.

The epoch loop is pluggable (see :mod:`repro.core.backend`): the
``reference`` backend is the straightforward all-nodes loop below, the
oracle every other engine is validated against; the default
``vectorized`` backend (:mod:`repro.core.vectorized`) keeps activity
masks and depth slabs in numpy, visits only nodes with live state and
skips fully-idle epochs outright.  Both drive one
:class:`repro.core.ledger.RunLedger` — flow table, delivery, failure
handling, counters and result — and call the same
:class:`repro.core.node.SiriusNode` request and grant methods; they
keep only their phase iteration and transmit code.  They produce
bit-identical seeded results because a skipped node performs no work
and consumes no randomness (every per-node phase operation
early-returns before its first RNG draw when the node is idle).
"""

from __future__ import annotations

import math
import random
from typing import List, Optional, Sequence

from repro.core.backend import resolve_backend
from repro.core.cell import Flow
from repro.core.congestion import CongestionConfig
from repro.core.failures import FailurePlan
from repro.core.ledger import RunLedger, SimulationResult
from repro.core.node import SiriusNode
from repro.core.schedule import CyclicSchedule, SlotTiming
from repro.obs.observation import NULL_OBS, Observation
from repro.topology.sirius import SiriusTopology


class SiriusNetwork:
    """A simulated Sirius deployment: topology + schedule + protocol.

    Parameters
    ----------
    n_nodes:
        Nodes (racks) attached to the optical core.
    grating_ports:
        AWGR port count; the epoch is this many timeslots.
    uplink_multiplier:
        Uplink over-provisioning relative to the reachability minimum
        (1.0, 1.5 or 2.0 in the paper's experiments).
    timing:
        Slot timing (cell size / guardband); defaults to the paper's
        100 ns slot with a 10 ns guardband.
    config:
        Congestion-control configuration (``Q``, ideal mode).
    track_reorder:
        Maintain destination reorder buffers and their peak statistic
        (costs some simulation speed; needed for Fig 10d).
    local_capacity_cells:
        Optional bound on each node's LOCAL buffer (cells).  When set,
        arrivals beyond the bound wait in a per-node server-side
        backlog and trickle in as LOCAL drains — the §4.3 one-hop
        (credit-style) flow control between servers and their rack
        switch.  ``None`` (default) models an unbounded LOCAL, as a
        server-based deployment's host memory effectively is.
    seed:
        Seed for all protocol randomness (intermediate choice, grant
        tie-breaks).
    backend:
        Select the epoch loop's execution strategy by name:
        ``"reference"`` or ``"vectorized"``.  ``None`` (default) defers
        to the ``REPRO_BACKEND`` environment variable, falling back to
        ``"vectorized"`` (see :func:`repro.core.backend.resolve_backend`).
        Both backends are bit-identical on seeded runs.
    """

    def __init__(self, n_nodes: int, grating_ports: int, *,
                 uplink_multiplier: float = 1.5,
                 timing: Optional[SlotTiming] = None,
                 config: Optional[CongestionConfig] = None,
                 track_reorder: bool = False,
                 local_capacity_cells: Optional[int] = None,
                 seed: int = 1,
                 backend: Optional[str] = None) -> None:
        if uplink_multiplier < 1.0:
            raise ValueError(
                f"uplink multiplier must be >= 1, got {uplink_multiplier}"
            )
        self.multiplier = uplink_multiplier
        self.topology = SiriusTopology(
            n_nodes, grating_ports,
            uplink_multiplier=math.ceil(uplink_multiplier),
        )
        self.schedule = CyclicSchedule(self.topology, timing)
        self.schedule.verify_contention_free()
        self.timing = self.schedule.timing
        self.config = config or CongestionConfig()
        self.track_reorder = track_reorder
        if local_capacity_cells is not None and local_capacity_cells < 1:
            raise ValueError(
                "local_capacity_cells must be None or >= 1, got "
                f"{local_capacity_cells}"
            )
        self.local_capacity_cells = local_capacity_cells
        self.backend = resolve_backend(backend)
        self.rng = random.Random(seed)
        self.nodes: List[SiriusNode] = [
            SiriusNode(n, n_nodes, self.config, self.rng)
            for n in range(n_nodes)
        ]

    # -- capacity ------------------------------------------------------------
    def epoch_capacity(self, epoch: int) -> int:
        """Per-pair cell capacity of ``epoch`` under fractional multipliers."""
        if epoch < 0:
            raise ValueError(f"epoch cannot be negative, got {epoch}")
        m = self.multiplier
        return int(math.floor((epoch + 1) * m) - math.floor(epoch * m))

    @property
    def reference_node_bandwidth_bps(self) -> float:
        """ESN-equivalent node bandwidth (multiplier-1 uplinks)."""
        return self.topology.n_blocks * self.topology.link_rate_bps

    # -- main loop ------------------------------------------------------------
    def run(self, flows: Sequence[Flow], *,
            max_epochs: Optional[int] = None,
            drain_epochs: int = 200_000,
            check_invariants: bool = False,
            failure_plan: Optional[FailurePlan] = None,
            detection_epochs: int = 3,
            obs: Optional[Observation] = None) -> SimulationResult:
        """Simulate until every flow completes (or an epoch cap is hit).

        ``flows`` must be sorted by arrival time.  Returns the
        :class:`SimulationResult` with per-flow FCTs and queue peaks.

        ``failure_plan`` scripts node failures and recoveries (§4.5):
        a failed node freezes; cells in flight to it are lost; after
        ``detection_epochs`` (the detector's miss threshold) the
        failure is announced datacenter-wide — survivors purge cells
        addressed to it, release grant reservations held for it, stop
        detouring through it, and sources retransmit the transit cells
        that were stranded at it.  Flows already admitted towards the
        dead node, and those it sourced with cells still there, are
        terminated and counted in ``failed_flows``; so are flows that
        arrive while an endpoint is failed.  Flows arriving after a
        recovery run normally (see :mod:`repro.core.ledger`).

        ``obs`` attaches a :class:`repro.obs.Observation`: its metrics
        registry receives run counters and queue-occupancy gauges, its
        tracer structured events (cell movements, grants, failures,
        epoch boundaries) and its profiler a wall-clock breakdown of
        the phase loop.  The default is a shared no-op bundle whose
        per-site cost is one attribute load and branch.
        """
        if self.backend == "vectorized":
            # Imported on first use: the engine module is large, and
            # ``import repro`` serves many callers that never run it.
            from repro.core.vectorized import VectorizedEngine

            return VectorizedEngine(self).run(
                flows, max_epochs=max_epochs, drain_epochs=drain_epochs,
                check_invariants=check_invariants,
                failure_plan=failure_plan,
                detection_epochs=detection_epochs, obs=obs,
            )
        if obs is None:
            obs = NULL_OBS
        tracer = obs.tracer
        profiler = obs.profiler
        tracing = tracer.enabled
        profiling = profiler.enabled
        t_mark = profiler.start_run()
        ledger = RunLedger(
            self, flows, max_epochs=max_epochs, drain_epochs=drain_epochs,
            check_invariants=check_invariants, failure_plan=failure_plan,
            detection_epochs=detection_epochs, obs=obs,
            on_work=None,  # every phase visits every node
        )
        epoch_dur = ledger.epoch_s
        max_epochs = ledger.max_epochs
        in_flight = ledger.in_flight
        failed = ledger.failed
        nodes = self.nodes
        ideal = self.config.ideal
        grant_cap = self.config.effective_grant_cap
        epoch = 0
        if profiling:
            t_mark = profiler.lap("setup", t_mark)
        while epoch < max_epochs:
            if tracing:
                tracer.at(epoch, epoch * epoch_dur)
                tracer.emit("epoch", in_flight=len(in_flight))
            if profiling:
                profiler.set_epoch(epoch)

            # Phase 0: failure events fire; announcements propagate
            # after the detection delay.
            ledger.failure_phase(epoch)
            if profiling:
                t_mark = profiler.lap("failures", t_mark)

            # Phase 1: deliver last epoch's transmissions.
            ledger.deliver(epoch * epoch_dur)
            if profiling:
                t_mark = profiler.lap("deliver", t_mark)

            # Phase 2: resolve the completed request round.
            if not ideal:
                for node in nodes:
                    if node.node in failed:
                        continue
                    node.apply_grants_and_expiries()
            if profiling:
                t_mark = profiler.lap("resolve", t_mark)

            # Phase 3: admit arrivals whose time falls inside this epoch.
            ledger.admit((epoch + 1) * epoch_dur)
            if profiling:
                t_mark = profiler.lap("admit", t_mark)

            # Phases 4-5: grant round, then request round.  Grants are
            # decided on the requests received in the *previous* epoch
            # (§4.3), so the grant phase must run before this epoch's
            # requests reach the inboxes.
            if not ideal:
                for node in nodes:
                    if node.node in failed:
                        # A silently-failed node keeps its stale inbox
                        # until the announcement drains it.
                        continue
                    for src, dst in node.decide_grants(grant_cap):
                        if src in failed:
                            continue
                        nodes[src].grant_inbox.append((node.node, dst))
                for node in nodes:
                    if node.node in failed:
                        continue
                    for intermediate, dst in node.generate_requests():
                        nodes[intermediate].request_inbox.append(
                            (node.node, dst)
                        )
            if profiling:
                t_mark = profiler.lap("control", t_mark)

            # Phase 6: transmit on every busy pair slot.
            capacity = self.epoch_capacity(epoch)
            for node in nodes:
                if node.node in failed:
                    continue
                for dst in node.busy_destinations():
                    for cell in node.dequeue_for(dst, capacity):
                        in_flight.append((dst, cell, node.node))
                        if tracing:
                            tracer.emit("cell.dequeue", node=node.node,
                                        to=dst, flow=cell.flow_id,
                                        dst=cell.dst)
            if profiling:
                t_mark = profiler.lap("transmit", t_mark)

            ledger.end_epoch(epoch)
            if profiling:
                t_mark = profiler.lap("observe", t_mark)

            epoch += 1
            if ledger.done:
                break

        # Deliver anything sent in the final epoch (epoch-cap exit).
        result = ledger.finish(epoch)
        if profiling:
            profiler.lap("finalize", t_mark)
            profiler.end_run()
        return result
