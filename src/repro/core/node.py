"""Per-node state for the Sirius cell simulator (paper §4.2–4.3).

A node (rack switch or server NIC) owns four kinds of queues:

* ``LOCAL`` — cells generated locally (or received from the rack's
  servers), awaiting a grant.  Partitioned by final destination.
* virtual queues ``vq[I]`` — granted cells awaiting their slot to
  intermediate ``I``.
* forward queues ``fwd[D]`` — cells received as intermediate, awaiting
  the node's slot to final destination ``D``.  Bounded by the grant
  protocol at ``Q`` cells each.
* the reorder buffers of locally-terminating flows.

The epoch-by-epoch protocol state machine (request → grant → send) is
driven by :class:`repro.core.network.SiriusNetwork`; this class provides
the state plus the per-phase operations, so the protocol logic is
testable in isolation.

One deliberate deviation from the paper's Fig 15 pseudocode: the paper
scans LOCAL in strict FIFO order when generating requests, whereas this
implementation round-robins across destinations with backlogged cells.
The orderings only differ when the LOCAL backlog exceeds the number of
intermediates (N−1 requests per epoch), where round-robin is at least as
fair across destinations; throughput and queue bounds are unaffected.
"""

from __future__ import annotations

import random
from collections import Counter, deque
from typing import Deque, Dict, List, Optional, Tuple

from repro.core.cell import Cell
from repro.core.congestion import (
    DIRECT_GRANT_WINDOW,
    REQUEST_ROUND_TRIP_EPOCHS,
    CongestionConfig,
    may_grant,
    record_grant_decision,
)
from repro.core.reorder import ReorderTracker
from repro.core.routing import OtherNodes
from repro.obs.events import NULL_TRACER
from repro.obs.metrics import NULL_REGISTRY


class FairQueue:
    """A queue of cells served round-robin across flows.

    Implements the per-flow-queue idealization of the paper's
    SIRIUS (IDEAL) and ESN (Ideal) baselines (§7): short flows are never
    stuck behind an elephant's burst in the same queue.  Supports the
    same ``append`` / ``popleft`` / ``len`` surface as
    :class:`collections.deque` so the transmit path is agnostic.
    """

    __slots__ = ("_flows", "_order", "_cursor", "_size")

    def __init__(self) -> None:
        self._flows: Dict[int, Deque[Cell]] = {}
        self._order: List[int] = []
        self._cursor = 0
        self._size = 0

    def append(self, cell: Cell) -> None:
        queue = self._flows.get(cell.flow_id)
        if queue is None:
            queue = deque()
            self._flows[cell.flow_id] = queue
            self._order.append(cell.flow_id)
        queue.append(cell)
        self._size += 1

    def popleft(self) -> Cell:
        if not self._size:
            raise IndexError("pop from an empty FairQueue")
        while True:
            self._cursor %= len(self._order)
            flow_id = self._order[self._cursor]
            queue = self._flows[flow_id]
            if queue:
                cell = queue.popleft()
                self._size -= 1
                if not queue:
                    del self._flows[flow_id]
                    self._order.pop(self._cursor)
                else:
                    self._cursor += 1
                return cell
            del self._flows[flow_id]
            self._order.pop(self._cursor)

    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        return self._size > 0

    def purge(self, predicate) -> List[Cell]:
        """Remove and return every queued cell matching ``predicate``.

        Partitions each flow's queue in a single pass — the predicate
        runs exactly once per queued cell.
        """
        removed: List[Cell] = []
        for flow_id in list(self._flows):
            queue = self._flows[flow_id]
            kept: Deque[Cell] = deque()
            before = len(removed)
            for cell in queue:
                if predicate(cell):
                    removed.append(cell)
                else:
                    kept.append(cell)
            if len(removed) == before:
                continue
            if kept:
                self._flows[flow_id] = kept
            else:
                del self._flows[flow_id]
                self._order.remove(flow_id)
        self._size -= len(removed)
        self._cursor = 0
        return removed


class SiriusNode:
    """State and per-phase operations of one Sirius node."""

    def __init__(self, node: int, n_nodes: int, config: CongestionConfig,
                 rng: random.Random) -> None:
        self.node = node
        self.n_nodes = n_nodes
        self.config = config
        self.rng = rng
        # Candidate intermediates: every other node, as an index
        # computation rather than a list — an eager list per sending
        # node is ~N**2 ints at paper scale (4095 each at 4096 nodes).
        self._others = OtherNodes(n_nodes, node)

        # LOCAL buffer, partitioned by destination, plus request bookkeeping.
        self.local_by_dst: Dict[int, Deque[Cell]] = {}
        self.local_cells = 0
        self.requested: Dict[int, int] = {}
        # Request batches awaiting resolution, oldest first.  A batch
        # appended during epoch e is popped (resolved) by the apply phase
        # of epoch e + REQUEST_ROUND_TRIP_EPOCHS, so the history is primed
        # with that many ``None`` placeholders, empty batches that
        # allocate nothing.  Popping the head of so short a list costs
        # no more than a deque's popleft, and the list is a tenth of a
        # deque's size (~80 B against ~770 B a node).
        self._sent_request_history: List[Optional[Counter]] = (
            [None] * REQUEST_ROUND_TRIP_EPOCHS)

        # Granted first-hop cells per intermediate.
        self.vq: Dict[int, Deque[Cell]] = {}
        self.vq_cells = 0

        # Second-hop queues per final destination, and grant accounting.
        self.fwd: Dict[int, Deque[Cell]] = {}
        self.fwd_cells = 0
        self.outstanding: Dict[int, int] = {}
        self.peak_fwd_cells = 0
        self.peak_local_cells = 0

        # Control-plane inboxes (filled by the network, drained per epoch).
        self.request_inbox: List[Tuple[int, int]] = []
        self.grant_inbox: List[Tuple[int, int]] = []

        # DRRM state: rotating request offset (desynchronized across
        # nodes by seeding with the node id) and per-destination grant
        # pointers over sources.
        self._request_offset = node
        self._grant_pointers: Dict[int, int] = {}

        # Ideal mode: per-flow fair queues (instead of FIFOs) and a
        # round-robin spreading pointer (instead of request/grant).
        self._queue_factory = FairQueue if config.ideal else deque
        self._spread_pointer = node
        self._slot_parity: Dict[int, int] = {}

        # Failure handling (§4.5): peers announced failed are excluded
        # from intermediate selection; per-source grant attribution lets
        # reservations held for a dead source be released.
        self.excluded: set = set()
        self._outstanding_by_src: Dict[Tuple[int, int], int] = {}

        # Direct (single-hop) grant window: as the *destination*, this
        # node bounds in-flight direct grants per source so the
        # source's shared slot (forward traffic has priority) cannot
        # accumulate an unbounded virtual-queue backlog.
        self._direct_outstanding: Dict[int, int] = {}

        self.reorder = ReorderTracker()

        # Observability (repro.obs): no-op by default; the network's
        # run() swaps these for live instruments via observe_with().
        # Hot paths gate on `.enabled`, so the disabled cost is one
        # attribute load and branch per operation.
        self._tracer = NULL_TRACER
        self._registry = NULL_REGISTRY

    def observe_with(self, obs) -> None:
        """Attach an :class:`repro.obs.Observation`'s planes."""
        self._tracer = obs.tracer
        self._registry = obs.registry

    # ------------------------------------------------------------------
    # Phase: local arrivals
    # ------------------------------------------------------------------
    def enqueue_local(self, cell: Cell) -> None:
        """Add a locally-generated cell to LOCAL (or push it straight to a
        virtual queue in the ideal, protocol-less variant)."""
        if self.config.ideal:
            intermediate = self._pick_intermediate(cell.dst)
            queue = self.vq.get(intermediate)
            if queue is None:
                queue = self._queue_factory()
                self.vq[intermediate] = queue
            queue.append(cell)
            self.vq_cells += 1
            if self._tracer.enabled:
                self._tracer.emit("cell.enqueue", node=self.node,
                                  queue="vq", flow=cell.flow_id,
                                  dst=cell.dst, intermediate=intermediate)
            return
        self.local_by_dst.setdefault(cell.dst, deque()).append(cell)
        self.local_cells += 1
        if self.local_cells > self.peak_local_cells:
            self.peak_local_cells = self.local_cells
        if self._tracer.enabled:
            self._tracer.emit("cell.enqueue", node=self.node, queue="local",
                              flow=cell.flow_id, dst=cell.dst)

    def enqueue_local_cells(self, cells: List[Cell]) -> None:
        """Admit a slab of locally-generated cells of one flow.

        All cells of a flow share the same destination, so protocol
        mode extends the destination's LOCAL deque in one C-level call
        — the order is exactly that of per-cell :meth:`enqueue_local`.
        Ideal mode must advance the spreading pointer per cell, so it
        falls back to the per-cell path.
        """
        if not cells:
            return
        if self.config.ideal:
            for cell in cells:
                self.enqueue_local(cell)
            return
        self.local_by_dst.setdefault(cells[0].dst, deque()).extend(cells)
        self.local_cells += len(cells)
        if self.local_cells > self.peak_local_cells:
            self.peak_local_cells = self.local_cells
        if self._tracer.enabled:
            for cell in cells:
                self._tracer.emit("cell.enqueue", node=self.node,
                                  queue="local", flow=cell.flow_id,
                                  dst=cell.dst)

    def _pick_intermediate(self, dst: int) -> int:
        """Ideal-mode spreading: strict round-robin over the other nodes
        ("routed uniformly on a packet-by-packet basis", §4.2)."""
        for _ in range(self.n_nodes):
            self._spread_pointer = (self._spread_pointer + 1) % self.n_nodes
            choice = self._spread_pointer
            if choice == self.node or choice in self.excluded:
                continue
            if self.config.exclude_destination_intermediate and choice == dst:
                continue
            return choice
        raise RuntimeError("no legal intermediate available")

    # ------------------------------------------------------------------
    # Sparse-iteration support (the vectorized engine's activity masks)
    # ------------------------------------------------------------------
    def control_idle(self) -> bool:
        """True when this epoch's control phases would all be no-ops.

        An idle node has no LOCAL backlog (nothing to request: with
        ``requested[dst] <= len(local_by_dst[dst])`` by invariant, an
        empty LOCAL implies nothing outstanding either), no arrived
        grants to apply, and an all-empty request history (every
        pending batch resolves to an empty :class:`Counter`).  For such
        a node ``apply_grants_and_expiries`` + ``generate_requests``
        reduce to popping one empty batch and appending another — and,
        crucially, consume **no** RNG draws, so the vectorized engine
        may skip it without perturbing the shared seeded stream
        (:meth:`catch_up_history` replays the pop/append pair lazily).
        """
        return (not self.local_cells and not self.grant_inbox
                and not self.requested
                and not any(self._sent_request_history))

    def catch_up_history(self) -> None:
        """Replay the history rotation skipped while control-idle.

        The reference loop pops one request batch and appends one per
        epoch; a skipped idle epoch leaves both sides empty, so popping
        a single empty placeholder per missed epoch restores the history
        the reference loop would hold (a ``None`` placeholder and an
        empty :class:`Counter` resolve alike).  The vectorized engine
        calls this when an idle node re-activates mid-epoch (cells
        admitted or grants received after the resolve phase ran).
        """
        if self._sent_request_history:
            self._sent_request_history.pop(0)

    # ------------------------------------------------------------------
    # Phase: resolve the previous round's requests (grants + expiries)
    # ------------------------------------------------------------------
    def apply_grants_and_expiries(self) -> None:
        """Apply arrived grants, then expire the unanswered requests of
        the same (oldest) batch so their cells become requestable again."""
        if self.config.ideal:
            return
        resolved = self._sent_request_history.pop(0) if (
            self._sent_request_history
        ) else None
        if resolved is None:
            resolved = Counter()
        for _intermediate, dst in self.grant_inbox:
            if dst in self.excluded or _intermediate in self.excluded:
                # Grant referencing a failed node: the reservation was
                # (or will be) released by the failure announcement.
                continue
            queue = self.local_by_dst.get(dst)
            if not queue:
                raise RuntimeError(
                    f"node {self.node}: grant for destination {dst} but no "
                    "cell awaits — request accounting is corrupt"
                )
            cell = queue.popleft()
            if not queue:
                del self.local_by_dst[dst]
            self.local_cells -= 1
            intermediate = _intermediate
            self.vq.setdefault(intermediate, deque()).append(cell)
            self.vq_cells += 1
            self.requested[dst] -= 1
            resolved[dst] -= 1
            if self._tracer.enabled:
                self._tracer.emit("cell.enqueue", node=self.node,
                                  queue="vq", flow=cell.flow_id, dst=dst,
                                  intermediate=intermediate)
        self.grant_inbox.clear()
        # Whatever remains of the oldest batch was denied: release it.
        for dst, count in resolved.items():
            if dst in self.excluded:
                continue  # purged with the failed destination
            if count > 0:
                remaining = self.requested.get(dst, 0) - count
                if remaining < 0:
                    raise RuntimeError(
                        f"node {self.node}: request accounting underflow "
                        f"for destination {dst}"
                    )
                if remaining:
                    self.requested[dst] = remaining
                else:
                    self.requested.pop(dst, None)
        # Drop zeroed entries created by grant consumption.
        for dst in [d for d, c in self.requested.items() if c == 0]:
            del self.requested[dst]

    # ------------------------------------------------------------------
    # Phase: generate this epoch's requests
    # ------------------------------------------------------------------
    def generate_requests(self) -> List[Tuple[int, int]]:
        """Produce ``(intermediate, dst)`` requests for unrequested cells.

        At most one request per intermediate per epoch; destinations
        with backlog are served round-robin.  Returns the request list;
        the network routes each to its intermediate's inbox.
        """
        config = self.config
        if config.ideal:
            return []
        requested = self.requested
        excluded = self.excluded
        backlog = [
            (dst, len(queue) - requested.get(dst, 0))
            for dst, queue in self.local_by_dst.items()
            if len(queue) > requested.get(dst, 0) and dst not in excluded
        ]
        history = self._sent_request_history
        if not backlog:
            history.append(Counter())
            return []
        others = self._others
        drrm = config.selection == "drrm"
        forbid_direct = config.exclude_destination_intermediate
        # One backlogged destination under DRRM: every request of the
        # epoch targets it, so no round-robin sequence is needed.
        single = len(backlog) == 1 and drrm and not forbid_direct
        if single:
            total = min(backlog[0][1], len(others))
        else:
            pending = dict(backlog)
            total = min(sum(pending.values()), len(others))
            # Destination sequence: round-robin across backlogged
            # destinations so no destination starves.
            if drrm:
                order = sorted(pending)
            else:
                order = list(pending)
                self.rng.shuffle(order)
            dst_sequence: List[int] = []
            idx = 0
            while len(dst_sequence) < total:
                dst = order[idx % len(order)]
                if pending[dst] > 0:
                    dst_sequence.append(dst)
                    pending[dst] -= 1
                    idx += 1
                else:
                    order.remove(dst)

        # Intermediate pairing: DRRM rotates a deterministic offset so
        # different sources map the same intermediate to different
        # destinations (desynchronization) — the window of ``total``
        # candidates starting at ``offset mod m``, wrapping once, taken
        # as at most two slices; random mode samples.
        candidates = (
            [o for o in others if o not in excluded] if excluded else others
        )
        total = min(total, len(candidates))
        if drrm:
            offset = self._request_offset
            self._request_offset += 1
            if total:
                start = offset % len(candidates)
                stop = start + total
                if stop <= len(candidates):
                    intermediates = candidates[start:stop]
                else:
                    intermediates = (candidates[start:]
                                     + candidates[:stop - len(candidates)])
            else:
                intermediates = []
        else:
            intermediates = self.rng.sample(candidates, total)

        if single:
            if not total:
                history.append(Counter())
                return []
            dst = backlog[0][0]
            requested[dst] = requested.get(dst, 0) + total
            history.append(Counter({dst: total}))
            return [(intermediate, dst) for intermediate in intermediates]
        requests: List[Tuple[int, int]] = []
        batch: Counter = Counter()
        for intermediate, dst in zip(intermediates, dst_sequence):
            if forbid_direct and intermediate == dst:
                # Ablation: single-hop routing forbidden — skip this
                # pairing; the cell stays eligible for the next epoch.
                continue
            requests.append((intermediate, dst))
            batch[dst] += 1
            requested[dst] = requested.get(dst, 0) + 1
        history.append(batch)
        return requests

    # ------------------------------------------------------------------
    # Phase: decide grants for requests received last epoch
    # ------------------------------------------------------------------
    def decide_grants(self,
                      grants_per_destination: int) -> List[Tuple[int, int]]:
        """Pick per-destination winners among inbox requests (§4.3).

        Returns ``(source, dst)`` grants.  Requests whose destination is
        this node bypass the forward-queue test (delivery consumes no
        queue space) but are bounded at
        :data:`~repro.core.congestion.DIRECT_GRANT_WINDOW` in-flight
        grants per source.  Other requests pass the
        ``queued + outstanding < Q`` test, up to
        ``grants_per_destination`` per epoch.
        """
        if not self.request_inbox:
            return []
        by_dst: Dict[int, List[int]] = {}
        for src, dst in self.request_inbox:
            if src in self.excluded or dst in self.excluded:
                continue  # stale requests referencing a failed node
            by_dst.setdefault(dst, []).append(src)
        self.request_inbox.clear()
        grants: List[Tuple[int, int]] = []
        threshold = self.config.queue_threshold
        observing = self._tracer.enabled or self._registry.enabled
        for dst, sources in by_dst.items():
            if dst == self.node:
                for src in sources:
                    in_flight = self._direct_outstanding.get(src, 0)
                    if in_flight < DIRECT_GRANT_WINDOW:
                        self._direct_outstanding[src] = in_flight + 1
                        grants.append((src, dst))
                        if observing:
                            record_grant_decision(
                                self._registry, self._tracer, self.node,
                                src, dst, granted=True, direct=True,
                            )
                    elif observing:
                        record_grant_decision(
                            self._registry, self._tracer, self.node,
                            src, dst, granted=False,
                            reason="direct-window-full",
                        )
                continue
            if self.config.selection == "drrm":
                # Round-robin over sources from the per-destination
                # pointer (iSLIP/DRRM-style desynchronization).
                pointer = self._grant_pointers.get(dst, 0)
                sources.sort(key=lambda s: (s - pointer) % self.n_nodes)
            else:
                self.rng.shuffle(sources)
            granted_here = 0
            for index, src in enumerate(sources):
                if granted_here >= grants_per_destination:
                    if observing:
                        for denied in sources[index:]:
                            record_grant_decision(
                                self._registry, self._tracer, self.node,
                                denied, dst, granted=False,
                                reason="grant-cap",
                            )
                    break
                queued = len(self.fwd.get(dst, ()))
                outstanding = self.outstanding.get(dst, 0)
                if may_grant(queued, outstanding, threshold):
                    self.outstanding[dst] = outstanding + 1
                    pair = (src, dst)
                    self._outstanding_by_src[pair] = (
                        self._outstanding_by_src.get(pair, 0) + 1
                    )
                    grants.append((src, dst))
                    granted_here += 1
                    if self.config.selection == "drrm":
                        self._grant_pointers[dst] = (src + 1) % self.n_nodes
                    if observing:
                        record_grant_decision(
                            self._registry, self._tracer, self.node,
                            src, dst, granted=True,
                        )
                else:
                    if observing:
                        for denied in sources[index:]:
                            record_grant_decision(
                                self._registry, self._tracer, self.node,
                                denied, dst, granted=False,
                                reason="queue-threshold",
                            )
                    break
        return grants

    # ------------------------------------------------------------------
    # Phase: transmit
    # ------------------------------------------------------------------
    def dequeue_for(self, dst: int, capacity: int) -> List[Cell]:
        """Cells to transmit on this epoch's slot(s) to ``dst``.

        Protocol mode: second-hop (forward-queue) cells take strict
        priority over first-hop (virtual-queue) cells, which is what
        keeps the in-network queue bound — the grant pacing guarantees
        forward queues stay at most Q, so starvation is bounded.

        Ideal mode: the slot alternates fairly between the two queues
        (per-flow back-pressure idealization — without pacing, strict
        priority would let one source's unpaced burst starve first-hop
        traffic on shared slots for arbitrarily long).
        """
        if capacity <= 0:
            return []
        out: List[Cell] = []
        fwd_queue = self.fwd.get(dst)
        vq_queue = self.vq.get(dst)
        fwd_taken = 0
        vq_taken = 0
        if self.config.ideal and fwd_queue and vq_queue:
            parity = self._slot_parity.get(dst, 0)
            while len(out) < capacity and (fwd_queue or vq_queue):
                take_fwd = bool(fwd_queue) and (parity == 0 or not vq_queue)
                if take_fwd:
                    out.append(fwd_queue.popleft())
                    fwd_taken += 1
                else:
                    out.append(vq_queue.popleft())
                    vq_taken += 1
                parity ^= 1
            self._slot_parity[dst] = parity
        else:
            while fwd_queue and len(out) < capacity:
                out.append(fwd_queue.popleft())
                fwd_taken += 1
            if vq_queue:
                while vq_queue and len(out) < capacity:
                    out.append(vq_queue.popleft())
                    vq_taken += 1
        if fwd_queue is not None and not fwd_queue:
            del self.fwd[dst]
        if vq_queue is not None and not vq_queue:
            del self.vq[dst]
        self.fwd_cells -= fwd_taken
        self.vq_cells -= vq_taken
        return out

    def busy_destinations(self) -> List[int]:
        """Destinations with anything to send this epoch."""
        if not self.fwd and not self.vq:
            return []
        return list(self.fwd.keys() | self.vq.keys())

    # ------------------------------------------------------------------
    # Phase: receive
    # ------------------------------------------------------------------
    def note_direct_arrival(self, src: int) -> None:
        """A granted single-hop cell from ``src`` arrived: release one
        slot of its direct-grant window."""
        in_flight = self._direct_outstanding.get(src, 0)
        if in_flight <= 1:
            self._direct_outstanding.pop(src, None)
        else:
            self._direct_outstanding[src] = in_flight - 1

    def receive_transit(self, cell: Cell) -> None:
        """Accept a first-hop cell for which this node is the intermediate."""
        queue = self.fwd.get(cell.dst)
        if queue is None:
            queue = self._queue_factory()
            self.fwd[cell.dst] = queue
        queue.append(cell)
        self.fwd_cells += 1
        if self.fwd_cells > self.peak_fwd_cells:
            self.peak_fwd_cells = self.fwd_cells
        if self._tracer.enabled:
            self._tracer.emit("cell.enqueue", node=self.node, queue="fwd",
                              flow=cell.flow_id, dst=cell.dst)
        if not self.config.ideal:
            outstanding = self.outstanding.get(cell.dst, 0)
            if outstanding <= 0:
                raise RuntimeError(
                    f"node {self.node}: transit cell for {cell.dst} arrived "
                    "without an outstanding grant"
                )
            if outstanding == 1:
                del self.outstanding[cell.dst]
            else:
                self.outstanding[cell.dst] = outstanding - 1
            pair = (cell.src, cell.dst)
            by_src = self._outstanding_by_src.get(pair, 0)
            if by_src == 1:
                del self._outstanding_by_src[pair]
            elif by_src > 1:
                self._outstanding_by_src[pair] = by_src - 1

    # ------------------------------------------------------------------
    # Failure handling (§4.5)
    # ------------------------------------------------------------------
    def release_grants_for(self, failed_src: int) -> int:
        """Release outstanding-grant reservations held for a dead source.

        Without this, reservations for cells a failed node will never
        send would pin forward-queue headroom forever.  Returns the
        number of reservations released.
        """
        released = 0
        for (src, dst) in list(self._outstanding_by_src):
            if src != failed_src:
                continue
            count = self._outstanding_by_src.pop((src, dst))
            released += count
            remaining = self.outstanding.get(dst, 0) - count
            if remaining > 0:
                self.outstanding[dst] = remaining
            else:
                self.outstanding.pop(dst, None)
        self._direct_outstanding.pop(failed_src, None)
        return released

    def purge_destination(self, dead: int) -> int:
        """Drop every cell addressed to a failed node (§4.5: failure
        announcements prevent blackholing).  Returns cells dropped."""
        dropped = 0
        queue = self.local_by_dst.pop(dead, None)
        if queue:
            dropped += len(queue)
            self.local_cells -= len(queue)
        self.requested.pop(dead, None)
        fwd = self.fwd.pop(dead, None)
        if fwd:
            dropped += len(fwd)
            self.fwd_cells -= len(fwd)
        self.outstanding.pop(dead, None)
        for pair in [p for p in self._outstanding_by_src if p[1] == dead]:
            del self._outstanding_by_src[pair]
        for intermediate in list(self.vq):
            queue = self.vq[intermediate]
            if isinstance(queue, FairQueue):
                removed = queue.purge(lambda c: c.dst == dead)
            else:
                removed = [c for c in queue if c.dst == dead]
                if removed:
                    kept = deque(c for c in queue if c.dst != dead)
                    if kept:
                        self.vq[intermediate] = kept
                    else:
                        del self.vq[intermediate]
            if removed:
                dropped += len(removed)
                self.vq_cells -= len(removed)
        if dropped:
            if self._tracer.enabled:
                self._tracer.emit("cell.drop", node=self.node,
                                  count=dropped, dst=dead,
                                  reason="destination-failed")
            if self._registry.enabled:
                self._registry.counter(
                    "cells_dropped_total",
                    "cells purged or lost to failures",
                ).inc(dropped, reason="destination-failed")
        return dropped

    def drain_for_failure(self) -> Tuple[List[Cell], List[Cell]]:
        """Empty this (failed) node's queues.

        Returns ``(transit_cells, own_cells)``: cells this node held as
        an intermediate (recoverable — their sources retransmit) and
        cells of its own flows (lost with the node).  All protocol
        state is reset so a later recovery starts clean.
        """
        transit: List[Cell] = []
        own: List[Cell] = []
        for queue in self.fwd.values():
            while queue:
                transit.append(queue.popleft())
        for queue in self.vq.values():
            while queue:
                own.append(queue.popleft())
        for queue in self.local_by_dst.values():
            own.extend(queue)
        self.fwd.clear()
        self.vq.clear()
        self.local_by_dst.clear()
        self.fwd_cells = self.vq_cells = self.local_cells = 0
        self.requested.clear()
        self.outstanding.clear()
        self._outstanding_by_src.clear()
        self._direct_outstanding.clear()
        self.request_inbox.clear()
        self.grant_inbox.clear()
        self._sent_request_history[:] = [None] * REQUEST_ROUND_TRIP_EPOCHS
        return transit, own

    # ------------------------------------------------------------------
    # Invariants (used by tests and debug runs)
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Assert internal accounting consistency and the queue bound."""
        assert self.local_cells == sum(
            len(q) for q in self.local_by_dst.values()
        ), f"node {self.node}: LOCAL count drift"
        assert self.fwd_cells == sum(len(q) for q in self.fwd.values()), (
            f"node {self.node}: forward count drift"
        )
        assert self.vq_cells == sum(len(q) for q in self.vq.values()), (
            f"node {self.node}: virtual-queue count drift"
        )
        for dst, count in self.requested.items():
            assert 0 < count <= len(self.local_by_dst.get(dst, ())), (
                f"node {self.node}: requested[{dst}]={count} exceeds backlog"
            )
        if not self.config.ideal:
            limit = self.config.queue_threshold
            for dst, queue in self.fwd.items():
                total = len(queue) + self.outstanding.get(dst, 0)
                assert total <= limit, (
                    f"node {self.node}: fwd[{dst}] {len(queue)} + outstanding "
                    f"{self.outstanding.get(dst, 0)} exceeds Q={limit}"
                )
