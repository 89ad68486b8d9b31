"""Per-run bookkeeping shared by every cell-level engine (paper §4, §7).

The epoch-synchronous ``reference`` loop
(:meth:`repro.core.network.SiriusNetwork.run`), the numpy-slab
``vectorized`` engine (:mod:`repro.core.vectorized`) and the
slot-granularity validator (:mod:`repro.sim.slotsim`) drive the same
:class:`repro.core.node.SiriusNode` state machine and differ only in
how they iterate its phases.  Everything *around* those phases is one
:class:`RunLedger` per run:

* **the flow table** — input validation, segmentation into cells, the
  arrival cursor and admission into LOCAL (through the §4.3 server-side
  backlog when LOCAL is bounded);
* **delivery** — cells transmitted in the previous epoch (or slot) land
  in a forward queue, at the application, or are lost at a failed node;
* **§4.5 failure handling** — scripted events fire, announcements
  propagate after the detection delay, flows are terminated and transit
  cells stranded at a dead node are retransmitted by their sources;
* **observation** — run counters, queue-occupancy sampling and the
  per-epoch invariant checks;
* **the result** — final delivery and :class:`SimulationResult`.

An engine learns which nodes got new work from the ledger through one
hook, ``on_work(node, local)``: ``local`` is True for cells entering
the node's LOCAL buffer (admission, backlog trickle, retransmission)
and False for a transit cell entering a forward queue.  The
all-nodes loops visit every node every epoch and leave it unset.

Failure semantics (§4.5) are causal.  A node that fails freezes; cells
in flight to it are lost.  After the detection delay the failure is
announced: survivors purge cells addressed to it and stop detouring
through it, transit cells stranded at it are retransmitted, and the
flows it sourced with cells still there (in its queues or its servers'
backlog), plus every flow already admitted towards it, terminate.  A flow arriving while either endpoint
is failed terminates at admission.  A flow arriving after its endpoints
recovered is admitted and runs normally.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import (Callable, Deque, Dict, List, Optional, Sequence, Set,
                    Tuple)

import numpy as np

from repro.core.cell import Cell, Flow, cell_range
from repro.core.congestion import CongestionConfig
from repro.core.failures import FailureEvent, FailurePlan
from repro.obs.observation import NULL_OBS, Observation
from repro.units import KILOBYTE

__all__ = ["RunLedger", "SimulationResult"]


@dataclass
class SimulationResult:
    """Outcome of one cell-level simulation run.

    All byte/bit quantities are application payload (goodput), matching
    the paper's server-goodput metric.
    """

    flows: List[Flow]
    epochs: int
    duration_s: float
    delivered_bits: float
    offered_bits: float
    #: Node bandwidth used for goodput normalization: the ESN-equivalent
    #: (multiplier-1) uplink bandwidth, as in Fig 9b.
    reference_node_bandwidth_bps: float
    n_nodes: int
    cell_bytes: float
    peak_fwd_cells: int
    peak_local_cells: int
    peak_reorder_cells: int
    config: CongestionConfig
    #: Flows terminated by node failures (source or destination died).
    failed_flows: int = 0
    #: Cells lost to failed nodes and retransmitted by their sources.
    retransmitted_cells: int = 0

    # -- derived metrics -----------------------------------------------------
    @property
    def normalized_goodput(self) -> float:
        """Delivered bits / (duration × nodes × reference bandwidth)."""
        capacity = self.duration_s * self.n_nodes * (
            self.reference_node_bandwidth_bps
        )
        return self.delivered_bits / capacity if capacity else 0.0

    @property
    def completed_flows(self) -> List[Flow]:
        return [f for f in self.flows if f.is_complete]

    @property
    def delivered_cells(self) -> int:
        """Cells delivered across all flows (the bench throughput unit)."""
        return sum(f.delivered_cells for f in self.flows)

    def fcts(self, max_size_bits: Optional[float] = None,
             min_size_bits: Optional[float] = None) -> List[float]:
        """Completion times of completed flows, optionally size-filtered."""
        out = []
        for flow in self.flows:
            if flow.completion_time is None:
                continue
            if max_size_bits is not None and flow.size_bits >= max_size_bits:
                continue
            if min_size_bits is not None and flow.size_bits < min_size_bits:
                continue
            out.append(flow.fct)
        return out

    def fct_percentile(self, percentile: float,
                       max_size_bits: Optional[float] = 100 * KILOBYTE
                       ) -> Optional[float]:
        """FCT percentile of "short" flows (default < 100 KB, as Fig 9a)."""
        fcts = sorted(self.fcts(max_size_bits=max_size_bits))
        if not fcts:
            return None
        if not 0 < percentile <= 100:
            raise ValueError(f"percentile must be in (0, 100], got {percentile}")
        index = min(len(fcts) - 1,
                    int(math.ceil(percentile / 100 * len(fcts))) - 1)
        return fcts[index]

    @property
    def completion_fraction(self) -> float:
        """Fraction of offered flows that completed within the run."""
        if not self.flows:
            return 1.0
        return len(self.completed_flows) / len(self.flows)

    @property
    def peak_fwd_bytes(self) -> float:
        """Peak aggregate forward-queue occupancy at any node (Fig 10c)."""
        return self.peak_fwd_cells * self.cell_bytes

    @property
    def peak_reorder_bytes(self) -> float:
        """Peak per-flow reorder buffer at any destination (Fig 10d)."""
        return self.peak_reorder_cells * self.cell_bytes


def _queue_depths(nodes: Sequence) -> Tuple[np.ndarray, np.ndarray,
                                           np.ndarray]:
    """Per-node LOCAL, virtual-queue and forward-queue depths (cells)."""
    count = len(nodes)
    return (
        np.fromiter((n.local_cells for n in nodes), np.int64, count),
        np.fromiter((n.vq_cells for n in nodes), np.int64, count),
        np.fromiter((n.fwd_cells for n in nodes), np.int64, count),
    )


def _validate(flows: List[Flow], failure_plan: Optional[FailurePlan],
              n_nodes: int) -> None:
    """Reject unsorted flows, nodes outside ``[0, n_nodes)`` and a
    failure plan that already drove a run."""
    for i, flow in enumerate(flows):
        if i and flow.arrival_time < flows[i - 1].arrival_time:
            raise ValueError("flows must be sorted by arrival time")
        if not (0 <= flow.src < n_nodes and 0 <= flow.dst < n_nodes):
            raise ValueError(
                f"flow {flow.flow_id} ({flow.src}->{flow.dst}) names a "
                f"node outside [0, {n_nodes})"
            )
    if failure_plan is not None:
        if failure_plan.started:
            raise ValueError(
                "failure plan already drove a run (its cursor and failed "
                "set are spent); pass a fresh FailurePlan"
            )
        for event in failure_plan.events:
            if not 0 <= event.node < n_nodes:
                raise ValueError(
                    f"failure-plan event {event} names a node outside "
                    f"[0, {n_nodes})"
                )


class RunLedger:
    """Flow table, delivery, failures, counters and result of one run.

    Parameters
    ----------
    net:
        The :class:`repro.core.network.SiriusNetwork` being simulated;
        the ledger reads its nodes, timing, config and LOCAL bound.
    flows:
        Flows sorted by arrival time, each endpoint in ``[0, n_nodes)``.
    max_epochs, drain_epochs:
        The epoch cap: ``max_epochs`` if given, else the last arrival's
        epoch plus ``drain_epochs``.
    check_invariants:
        Assert every node's accounting at the end of each epoch.
    failure_plan, detection_epochs:
        Scripted failures/recoveries and the announcement delay (§4.5).
    obs:
        Observation bundle: counters, events and per-epoch series.
    on_work:
        ``on_work(node, local)`` — called when ``node`` gets new queued
        cells; see the module docstring.
    """

    def __init__(self, net, flows: Sequence[Flow], *,
                 max_epochs: Optional[int] = None,
                 drain_epochs: int = 200_000,
                 check_invariants: bool = False,
                 failure_plan: Optional[FailurePlan] = None,
                 detection_epochs: int = 3,
                 obs: Optional[Observation] = None,
                 on_work: Optional[Callable[[int, bool], None]] = None,
                 ) -> None:
        self.obs = obs = obs if obs is not None else NULL_OBS
        self.nodes = nodes = net.nodes
        self.flows = flows = list(flows)
        _validate(flows, failure_plan, len(nodes))
        self.tracer = obs.tracer
        self.tracing = obs.tracer.enabled
        self.metering = obs.registry.enabled
        for node in nodes:
            node.observe_with(obs)
        if failure_plan is not None:
            failure_plan.observe_with(obs)
        if self.metering:
            registry = obs.registry
            self._delivered_counter = registry.counter(
                "delivered_bits_total", "application payload delivered"
            )
            self._transmitted_counter = registry.counter(
                "cells_transmitted_total", "cells placed on schedule slots"
            )
            self._retransmit_counter = registry.counter(
                "retransmitted_cells_total",
                "cells resent after loss at a failed node",
            )
            self._failed_flow_counter = registry.counter(
                "failed_flows_total", "flows terminated by node failures"
            )
            self._dropped_counter = registry.counter(
                "cells_dropped_total", "cells purged or lost to failures"
            )
        self.net = net
        self.on_work = on_work
        self.check_invariants = check_invariants
        self.ideal = net.config.ideal
        self.track_reorder = net.track_reorder
        self.payload_bits = payload_bits = net.timing.payload_bits
        self.epoch_s = net.schedule.epoch_duration_s

        self.flow_by_id: Dict[int, Flow] = {}
        self.last_cell_bits: Dict[int, int] = {}
        self.offered_bits = 0.0
        for flow in flows:
            flow.segment(payload_bits)
            self.flow_by_id[flow.flow_id] = flow
            self.last_cell_bits[flow.flow_id] = (
                flow.size_bits - (flow.n_cells - 1) * payload_bits
            )
            self.offered_bits += flow.size_bits
        if max_epochs is None:
            last_arrival = flows[-1].arrival_time if flows else 0.0
            max_epochs = int(last_arrival / self.epoch_s) + drain_epochs
        self.max_epochs = max_epochs

        self.failure_plan = failure_plan
        self.detection_epochs = detection_epochs
        #: Nodes currently failed (shared with the plan, updated in place).
        self.failed: Set[int] = (failure_plan.failed
                                 if failure_plan is not None
                                 else frozenset())
        #: Pending announcements: (due epoch, node, fails).
        self.announcements: Deque[Tuple[int, int, bool]] = deque()
        self.dead_flows: Set[int] = set()

        #: Index of the next flow to arrive; flows before it are admitted.
        self.next_flow = 0
        self.pending_flows = len(flows)
        self.delivered_bits = 0.0
        self.peak_reorder = 0
        self.failed_flows = 0
        self.retransmits = 0
        #: ``(receiver, cell, sender)`` transmissions awaiting delivery.
        self.in_flight: List[Tuple[int, Cell, int]] = []

        self.local_capacity = net.local_capacity_cells
        #: Per-node server-side backlogs (§4.3), only with bounded LOCAL.
        self.server_backlog: Optional[List[Deque[Tuple[Flow, int]]]] = (
            None if self.local_capacity is None
            else [deque() for _ in nodes]
        )
        self.backlogged: Set[int] = set()

    # -- state queries ---------------------------------------------------------
    @property
    def done(self) -> bool:
        """Every flow arrived and finished, and nothing is in transit."""
        return (self.pending_flows == 0 and not self.in_flight
                and self.next_flow >= len(self.flows)
                and not self.backlogged)

    @property
    def quiet(self) -> bool:
        """No ledger-side work can happen before the next external event."""
        return (not self.in_flight and not self.announcements
                and not self.backlogged)

    def next_event_epoch(self) -> Optional[int]:
        """Epoch of the next flow arrival or scripted failure event."""
        targets = []
        if self.next_flow < len(self.flows):
            targets.append(
                int(self.flows[self.next_flow].arrival_time / self.epoch_s)
            )
        if self.failure_plan is not None:
            next_event = self.failure_plan.next_event_epoch()
            if next_event is not None:
                targets.append(next_event)
        return min(targets) if targets else None

    # -- flow and cell fates ---------------------------------------------------
    def kill_flow(self, flow_id: int) -> None:
        """Terminate an unfinished flow (counted in ``failed_flows``)."""
        if flow_id in self.dead_flows:
            return
        if self.flow_by_id[flow_id].is_complete:
            return
        self.dead_flows.add(flow_id)
        self.pending_flows -= 1
        self.failed_flows += 1
        if self.metering:
            self._failed_flow_counter.inc()

    def retransmit(self, cell: Cell) -> None:
        """Endpoint retransmission of a cell lost at a failed node."""
        if cell.flow_id in self.dead_flows:
            return
        if cell.src in self.failed:
            self.kill_flow(cell.flow_id)
            return
        self.nodes[cell.src].enqueue_local(cell)
        if self.on_work is not None:
            self.on_work(cell.src, True)
        self.retransmits += 1
        if self.metering:
            self._retransmit_counter.inc()

    # -- phase 0: failures -----------------------------------------------------
    def failure_phase(self, epoch: int) -> Tuple[List[FailureEvent], bool]:
        """Fire this epoch's scripted events and due announcements.

        Returns the events that fired and whether any announcement ran
        (announcements touch queues across the whole network).
        """
        plan = self.failure_plan
        if plan is None:
            return [], False
        fired = plan.advance_to(epoch)
        for event in fired:
            self.announcements.append(
                (epoch + self.detection_epochs, event.node, event.fails)
            )
        announced = False
        announcements = self.announcements
        while announcements and announcements[0][0] <= epoch:
            _due, node, fails = announcements.popleft()
            if fails:
                self.announce_failure(node)
            else:
                self.announce_recovery(node)
            announced = True
        return fired, announced

    def announce_failure(self, dead: int) -> None:
        """Datacenter-wide failure announcement (§4.5)."""
        if self.tracing:
            self.tracer.emit("failure.announce", node=dead)
        nodes = self.nodes
        for node in nodes:
            if node.node == dead:
                continue
            node.excluded.add(dead)
            node.release_grants_for(dead)
            node.purge_destination(dead)
        transit, own = nodes[dead].drain_for_failure()
        for cell in own:
            self.kill_flow(cell.flow_id)
        if self.server_backlog is not None:
            # Flows still waiting host-side at the dead rack die with
            # its LOCAL cells.
            for flow, _start in self.server_backlog[dead]:
                self.kill_flow(flow.flow_id)
            self.server_backlog[dead].clear()
            self.backlogged.discard(dead)
        # Only flows already admitted towards the dead node die here;
        # later arrivals meet the admission check.
        for flow in self.flows[:self.next_flow]:
            if flow.dst == dead:
                self.kill_flow(flow.flow_id)
        for cell in transit:
            self.retransmit(cell)

    def announce_recovery(self, node: int) -> None:
        if self.tracing:
            self.tracer.emit("failure.recover", node=node)
        for peer in self.nodes:
            peer.excluded.discard(node)

    # -- phase 1: delivery -----------------------------------------------------
    def deliver(self, arrival_time: float) -> None:
        """Land every in-flight cell, stamping completions at ``arrival_time``."""
        batch = self.in_flight
        if not batch:
            return
        nodes = self.nodes
        failed = self.failed
        dead_flows = self.dead_flows
        flow_by_id = self.flow_by_id
        on_work = self.on_work
        ideal = self.ideal
        track_reorder = self.track_reorder
        tracing = self.tracing
        payload_bits = self.payload_bits
        delivered_bits = self.delivered_bits
        batch_bits = 0.0
        for recv, cell, sender in batch:
            if recv in failed:
                # Lost at the failed node: transit cells are
                # retransmitted by their source; final-destination
                # cells die with the flow.
                if tracing:
                    self.tracer.emit("cell.drop", node=recv, count=1,
                                     flow=cell.flow_id,
                                     reason="lost-in-flight")
                if self.metering:
                    self._dropped_counter.inc(reason="lost-in-flight")
                if cell.dst == recv:
                    self.kill_flow(cell.flow_id)
                else:
                    self.retransmit(cell)
                continue
            if cell.flow_id in dead_flows:
                continue  # residue of a terminated flow
            node = nodes[recv]
            if cell.dst != recv:
                node.receive_transit(cell)
                if on_work is not None:
                    on_work(recv, False)
                continue
            if sender == cell.src and not ideal:
                # Single-hop (direct-granted) delivery: release one
                # slot of the source's direct-grant window.
                node.note_direct_arrival(sender)
            flow = flow_by_id[cell.flow_id]
            if track_reorder:
                node.reorder.accept(cell.flow_id, cell.seq)
            if cell.seq == flow.n_cells - 1:
                cell_bits = self.last_cell_bits[cell.flow_id]
            else:
                cell_bits = payload_bits
            delivered_bits += cell_bits
            batch_bits += cell_bits
            if flow.record_delivery(arrival_time):
                self.pending_flows -= 1
                if tracing:
                    self.tracer.emit("flow.completion", node=recv,
                                     flow=cell.flow_id)
                if track_reorder:
                    peak = node.reorder.peak_flow_cells
                    if peak > self.peak_reorder:
                        self.peak_reorder = peak
                    node.reorder.finish_flow(cell.flow_id)
        batch.clear()
        self.delivered_bits = delivered_bits
        if self.metering and batch_bits:
            self._delivered_counter.inc(batch_bits)

    # -- phase 3: admission ----------------------------------------------------
    def admit(self, horizon: float) -> None:
        """Admit every flow arriving before ``horizon`` (seconds)."""
        flows = self.flows
        n_flows = len(flows)
        index = self.next_flow
        failed = self.failed
        on_work = self.on_work
        backlog = self.server_backlog
        while index < n_flows and flows[index].arrival_time < horizon:
            flow = flows[index]
            index += 1
            self.next_flow = index
            if self.tracing:
                self.tracer.emit("flow.arrival", node=flow.src,
                                 flow=flow.flow_id, dst=flow.dst,
                                 cells=flow.n_cells)
            if flow.src in failed or flow.dst in failed:
                self.kill_flow(flow.flow_id)
                continue
            if backlog is None:
                self.nodes[flow.src].enqueue_local_cells(
                    cell_range(flow, 0, flow.n_cells)
                )
                if on_work is not None:
                    on_work(flow.src, True)
            else:
                backlog[flow.src].append((flow, 0))
                self.backlogged.add(flow.src)
        if self.backlogged:
            self._trickle()

    def _trickle(self) -> None:
        """§4.3 one-hop flow control: servers fill LOCAL only to its
        advertised capacity; the rest waits host-side."""
        limit = self.local_capacity
        on_work = self.on_work
        for idx in sorted(self.backlogged):
            node = self.nodes[idx]
            backlog = self.server_backlog[idx]
            while backlog and node.local_cells < limit:
                flow, start = backlog[0]
                if flow.flow_id in self.dead_flows:
                    backlog.popleft()
                    continue
                room = limit - node.local_cells
                end = min(flow.n_cells, start + room)
                node.enqueue_local_cells(cell_range(flow, start, end))
                if on_work is not None:
                    on_work(idx, True)
                if end == flow.n_cells:
                    backlog.popleft()
                else:
                    backlog[0] = (flow, end)
                    break
            if not backlog:
                self.backlogged.discard(idx)

    # -- end of epoch ------------------------------------------------------------
    def end_epoch(self, epoch: int, depths: Optional[Tuple] = None) -> None:
        """Count this epoch's transmissions, check invariants and sample.

        ``depths`` are per-node (LOCAL, VQ, forward) depth arrays the
        engine already keeps; without them they are read off the nodes
        when a sample is due.
        """
        nodes = self.nodes
        in_flight = len(self.in_flight)
        if self.metering and in_flight:
            self._transmitted_counter.inc(in_flight)
        if self.check_invariants:
            for node in nodes:
                node.check_invariants()
        if self.metering and epoch % self.obs.sample_every == 0:
            local, vq, fwd = depths if depths is not None else (
                _queue_depths(nodes))
            self.obs.sample_network(epoch, local, vq, fwd, in_flight,
                                    self.delivered_bits)

    # -- result ----------------------------------------------------------------
    def finish(self, epoch: int) -> SimulationResult:
        """Deliver the final epoch's transmissions and build the result."""
        net = self.net
        nodes = self.nodes
        if self.tracing:
            self.tracer.at(epoch, epoch * self.epoch_s)
        self.deliver(epoch * self.epoch_s)
        return SimulationResult(
            flows=self.flows,
            epochs=epoch,
            duration_s=max(epoch, 1) * self.epoch_s,
            delivered_bits=self.delivered_bits,
            offered_bits=self.offered_bits,
            reference_node_bandwidth_bps=net.reference_node_bandwidth_bps,
            n_nodes=len(nodes),
            cell_bytes=net.timing.cell_bytes,
            peak_fwd_cells=max(n.peak_fwd_cells for n in nodes),
            peak_local_cells=max(n.peak_local_cells for n in nodes),
            peak_reorder_cells=self.peak_reorder,
            config=net.config,
            failed_flows=self.failed_flows,
            retransmitted_cells=self.retransmits,
        )
