"""The ``vectorized`` epoch-loop backend, the default cell engine (§7).

:class:`VectorizedEngine` executes the same protocol state machine as
the ``reference`` loop of :meth:`repro.core.network.SiriusNetwork.run`
— identical phase order, identical per-node operations, the same single
seeded RNG stream — and drives the same
:class:`repro.core.ledger.RunLedger` for flows, delivery, failures and
the result.  Requests and multi-request grant decisions are the
node's own :meth:`~repro.core.node.SiriusNode.generate_requests` and
:meth:`~repro.core.node.SiriusNode.decide_grants`; only the inner loop
is inlined — the one-request grant and the protocol-mode dequeue.  It
keeps the *scheduling* of the per-node work in numpy slabs instead of
visiting every node, and exploits two properties the all-nodes loop
cannot:

* **Activity masks and depth slabs.**  Which node has control-plane
  work, a pending grant decision or queued cells is one boolean vector
  per phase; the per-epoch "who is active" scan is ``np.flatnonzero``
  (ascending, matching the reference visit order), and a node-failure
  mask filters rows without per-node predicate calls.  The ledger
  reports nodes that got new work through its ``on_work`` hook.  When
  metrics are recorded, per-node queue depths are mirrored into integer
  slabs that :meth:`repro.obs.Observation.sample_network` reads
  directly.
* **Idle-epoch skipping.**  When every mask is empty and the ledger is
  quiet (nothing in flight, no announcement pending, no server-side
  backlog), *no* state can change until the next flow arrival or
  scripted failure event — every per-node phase operation is a no-op
  that consumes no randomness, and the DRRM offsets and request
  histories of idle nodes do not advance.  The engine jumps the epoch
  counter straight to the next event, which is what makes sparse
  workloads (the bench micro scenario, long drain tails, failure-wait
  windows) orders of magnitude cheaper.  Skipping is disabled while a
  live observation bundle is attached, since it records per-epoch
  series.

Cells themselves stay in the per-node queue structures of
:class:`repro.core.node.SiriusNode`: the simulation's observable output
is per-cell (flow completion times, queue peaks, reorder distances), so
cell identity must be preserved and per-cell queue moves remain Python.
The slabs hold everything *about* the nodes that the epoch loop reads
on its hot path.

Seeded-run equivalence with the ``reference`` backend is enforced by
the parity suite in ``tests/core/test_fast_path_equivalence.py``.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.core.cell import Flow
from repro.core.congestion import DIRECT_GRANT_WINDOW
from repro.core.failures import FailurePlan
from repro.core.ledger import RunLedger, SimulationResult
from repro.obs.observation import NULL_OBS, Observation

__all__ = ["VectorizedEngine"]


class VectorizedEngine:
    """Run one :class:`SiriusNetwork` simulation on numpy slabs.

    The engine is constructed per run from the owning network and
    borrows its topology, schedule, config, RNG and nodes — it is an
    execution strategy, not a second simulator.
    """

    def __init__(self, network) -> None:
        self.net = network

    # -- main loop -----------------------------------------------------------
    def run(self, flows: Sequence[Flow], *,
            max_epochs: Optional[int] = None,
            drain_epochs: int = 200_000,
            check_invariants: bool = False,
            failure_plan: Optional[FailurePlan] = None,
            detection_epochs: int = 3,
            obs: Optional[Observation] = None) -> SimulationResult:
        """Simulate; same contract as :meth:`SiriusNetwork.run`."""
        net = self.net
        if obs is None:
            obs = NULL_OBS
        tracer = obs.tracer
        profiler = obs.profiler
        tracing = tracer.enabled
        metering = obs.registry.enabled
        profiling = profiler.enabled
        observing = tracing or metering
        nodes = net.nodes
        n_nodes = len(nodes)
        ideal = net.config.ideal
        grant_cap = net.config.effective_grant_cap
        queue_threshold = net.config.queue_threshold
        drrm_selection = net.config.selection == "drrm"

        # The per-phase activity state, as one boolean slab per phase
        # plus the failure mask.  np.flatnonzero yields rows in
        # ascending order — exactly the visit order of the reference
        # loop, which the shared RNG stream requires.
        control_m = np.zeros(n_nodes, dtype=bool)
        grant_m = np.zeros(n_nodes, dtype=bool)
        transmit_m = np.zeros(n_nodes, dtype=bool)
        failed_m = np.zeros(n_nodes, dtype=bool)
        # Nodes whose request history rotated in this epoch's resolve
        # phase; None before that phase runs.
        popped: Optional[set] = None

        # Depth slabs: per-node queue depths, mirrored only while a
        # metrics registry is live — they exist so the sampling hook
        # reads occupancy from arrays rather than touching every node
        # object.
        if metering:
            local_depth = np.zeros(n_nodes, dtype=np.int64)
            vq_depth = np.zeros(n_nodes, dtype=np.int64)
            fwd_depth = np.zeros(n_nodes, dtype=np.int64)
            depths = (local_depth, vq_depth, fwd_depth)
        else:
            depths = None

        def sync_depths(idx: int) -> None:
            node = nodes[idx]
            local_depth[idx] = node.local_cells
            vq_depth[idx] = node.vq_cells
            fwd_depth[idx] = node.fwd_cells

        def on_work(idx: int, local: bool) -> None:
            """The ledger queued cells at ``idx``: mark its phase."""
            if local and not ideal:
                if popped is not None and idx not in popped:
                    # A node re-activating after the resolve phase
                    # replays the history rotation it slept through.
                    nodes[idx].catch_up_history()
                    popped.add(idx)
                control_m[idx] = True
            else:
                transmit_m[idx] = True
            if metering:
                sync_depths(idx)

        def alive_rows(mask) -> List[int]:
            rows = np.flatnonzero(mask)
            if failure_plan is not None and failed_m.any():
                rows = rows[~failed_m[rows]]
            return rows.tolist()

        def rebuild_masks() -> None:
            control_m[:] = False
            grant_m[:] = False
            transmit_m[:] = False
            for node in nodes:
                if not node.control_idle():
                    control_m[node.node] = True
                if node.request_inbox:
                    grant_m[node.node] = True
                if node.fwd or node.vq:
                    transmit_m[node.node] = True
                if metering:
                    sync_depths(node.node)

        t_mark = profiler.start_run()
        ledger = RunLedger(
            net, flows, max_epochs=max_epochs, drain_epochs=drain_epochs,
            check_invariants=check_invariants, failure_plan=failure_plan,
            detection_epochs=detection_epochs, obs=obs, on_work=on_work,
        )
        epoch_dur = ledger.epoch_s
        max_epochs = ledger.max_epochs
        in_flight = ledger.in_flight
        failed = ledger.failed
        # Idle-epoch skipping records per-epoch nothing, so it is only
        # legal when nothing records per-epoch series either.
        can_skip = not obs.enabled
        epoch = 0
        if profiling:
            t_mark = profiler.lap("setup", t_mark)
        while epoch < max_epochs:
            if tracing:
                tracer.at(epoch, epoch * epoch_dur)
                tracer.emit("epoch", in_flight=len(in_flight))
            if profiling:
                profiler.set_epoch(epoch)
            popped = None

            # Phase 0: failure events fire; announcements propagate
            # after the detection delay.
            fired, announced = ledger.failure_phase(epoch)
            for event in fired:
                failed_m[event.node] = event.fails
            if announced:
                rebuild_masks()
            if profiling:
                t_mark = profiler.lap("failures", t_mark)

            # Phase 1: deliver last epoch's transmissions.
            ledger.deliver(epoch * epoch_dur)
            if profiling:
                t_mark = profiler.lap("deliver", t_mark)

            # Phase 2: resolve the completed request round.
            if not ideal:
                popped = set()
                for idx in alive_rows(control_m):
                    node = nodes[idx]
                    if node.control_idle():
                        control_m[idx] = False
                        continue
                    node.apply_grants_and_expiries()
                    popped.add(idx)
                    if metering:
                        sync_depths(idx)
                    if node.vq_cells:
                        transmit_m[idx] = True
            if profiling:
                t_mark = profiler.lap("resolve", t_mark)

            # Phase 3: admit arrivals whose time falls inside this epoch.
            ledger.admit((epoch + 1) * epoch_dur)
            if profiling:
                t_mark = profiler.lap("admit", t_mark)

            # Phases 4-5: grant round, then request round (grants act
            # on the requests received in the *previous* epoch, §4.3).
            if not ideal:
                for idx in alive_rows(grant_m):
                    grant_m[idx] = False
                    node = nodes[idx]
                    if observing or len(node.request_inbox) != 1:
                        grants = node.decide_grants(grant_cap)
                    else:
                        # Dominant case on sparse workloads: one request
                        # pending.  A one-element source list needs no
                        # ordering (and a one-element shuffle draws
                        # nothing), so this inline skips the method
                        # call, grouping dict and sort of
                        # SiriusNode.decide_grants while leaving
                        # protocol state and RNG exactly as it would.
                        src, dst = node.request_inbox[0]
                        node.request_inbox.clear()
                        grants = ()
                        if src in node.excluded or dst in node.excluded:
                            pass
                        elif dst == idx:
                            window = node._direct_outstanding
                            direct = window.get(src, 0)
                            if direct < DIRECT_GRANT_WINDOW:
                                window[src] = direct + 1
                                grants = ((src, dst),)
                        else:
                            outstanding = node.outstanding.get(dst, 0)
                            if (grant_cap >= 1
                                    and len(node.fwd.get(dst, ()))
                                    + outstanding < queue_threshold):
                                node.outstanding[dst] = outstanding + 1
                                pair = (src, dst)
                                node._outstanding_by_src[pair] = (
                                    node._outstanding_by_src.get(pair, 0)
                                    + 1
                                )
                                if drrm_selection:
                                    node._grant_pointers[dst] = (
                                        (src + 1) % n_nodes
                                    )
                                grants = (pair,)
                    for src, dst in grants:
                        if src in failed:
                            continue
                        nodes[src].grant_inbox.append((idx, dst))
                        if src not in popped:
                            nodes[src].catch_up_history()
                            popped.add(src)
                        control_m[src] = True
                for idx in alive_rows(control_m):
                    node = nodes[idx]
                    for intermediate, dst in node.generate_requests():
                        nodes[intermediate].request_inbox.append((idx, dst))
                        grant_m[intermediate] = True
                    if node.control_idle():
                        control_m[idx] = False
            if profiling:
                t_mark = profiler.lap("control", t_mark)

            # Phase 6: transmit on every busy pair slot.  The busy-
            # destination scan is inlined (same key-set union, so the
            # same visiting order as SiriusNode.busy_destinations —
            # a transmit-mask bit guarantees a non-empty queue), and so
            # is the protocol-mode branch of SiriusNode.dequeue_for:
            # forward cells first, then granted virtual-queue cells, up
            # to the slot capacity.  Ideal mode keeps the method call
            # (fair-queue alternation), as do traced runs (per-cell
            # ``cell.dequeue`` events).
            capacity = net.epoch_capacity(epoch)
            for idx in alive_rows(transmit_m):
                node = nodes[idx]
                fwd = node.fwd
                vq = node.vq
                if ideal or tracing:
                    for dst in list(fwd.keys() | vq.keys()):
                        for cell in node.dequeue_for(dst, capacity):
                            in_flight.append((dst, cell, idx))
                            if tracing:
                                tracer.emit("cell.dequeue", node=idx,
                                            to=dst, flow=cell.flow_id,
                                            dst=cell.dst)
                elif capacity > 0:
                    for dst in list(fwd.keys() | vq.keys()):
                        taken = 0
                        fwd_queue = fwd.get(dst)
                        if fwd_queue:
                            while fwd_queue and taken < capacity:
                                in_flight.append(
                                    (dst, fwd_queue.popleft(), idx)
                                )
                                taken += 1
                            if not fwd_queue:
                                del fwd[dst]
                            node.fwd_cells -= taken
                        vq_queue = vq.get(dst)
                        if vq_queue and taken < capacity:
                            vq_taken = 0
                            while vq_queue and taken + vq_taken < capacity:
                                in_flight.append(
                                    (dst, vq_queue.popleft(), idx)
                                )
                                vq_taken += 1
                            if not vq_queue:
                                del vq[dst]
                            node.vq_cells -= vq_taken
                if metering:
                    sync_depths(idx)
                if not node.fwd and not node.vq:
                    transmit_m[idx] = False
            if profiling:
                t_mark = profiler.lap("transmit", t_mark)

            ledger.end_epoch(epoch, depths)
            if profiling:
                t_mark = profiler.lap("observe", t_mark)

            epoch += 1
            if ledger.done:
                break

            # Idle-epoch skip: with every mask empty and the ledger
            # quiet, each epoch until the next external event is a
            # proven no-op for every node — no queue moves, no history
            # rotation, no RNG draw — so the epoch counter can jump
            # there directly.
            if (can_skip and ledger.quiet
                    and not (control_m.any() or grant_m.any()
                             or transmit_m.any())):
                target = ledger.next_event_epoch()
                if target is None:
                    target = max_epochs
                if target > epoch:
                    epoch = min(target, max_epochs)

        result = ledger.finish(epoch)
        if profiling:
            profiler.lap("finalize", t_mark)
            profiler.end_run()
        return result
