"""Slot-granularity Sirius simulator (validation of the epoch abstraction).

The main simulator (:mod:`repro.core.network`) advances epoch-by-epoch,
exploiting the schedule's guarantee that every pair connects once per
epoch.  This module simulates the *same* node state machine at
timeslot granularity instead: each slot, each uplink transmits to the
single destination the cyclic schedule (and hence AWGR physics) assigns
it, and deliveries land one slot later.  Protocol phases (grant
decisions, request generation) still run at epoch boundaries, as they
do in hardware — the piggybacked control plane completes once per
epoch.

Uses:

* **validation** — throughput and delivery totals must match the epoch
  simulator on identical workloads (asserted in the test suite), which
  justifies the epoch abstraction the benchmarks rely on;
* **resolution** — FCTs resolve to a slot rather than an epoch, which
  matters for flows of a few cells at low load.

The price is simulation cost: O(slots) instead of O(epochs) outer
iterations, so keep node counts small.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.core.cell import Flow
from repro.core.ledger import RunLedger, SimulationResult
from repro.core.network import SiriusNetwork
from repro.core.schedule import SlotTiming


class SlotLevelSirius(SiriusNetwork):
    """Timeslot-granularity variant of :class:`SiriusNetwork`.

    Accepts the same construction parameters; only integer uplink
    multipliers are supported (fractional capacity alternation is an
    epoch-level modelling device).
    """

    def __init__(self, n_nodes: int, grating_ports: int, *,
                 uplink_multiplier: float = 1.0,
                 timing: Optional[SlotTiming] = None,
                 config=None, track_reorder: bool = False,
                 seed: int = 1) -> None:
        if abs(uplink_multiplier - round(uplink_multiplier)) > 1e-9:
            raise ValueError(
                "the slot-level simulator needs an integer uplink "
                f"multiplier, got {uplink_multiplier}"
            )
        super().__init__(
            n_nodes, grating_ports, uplink_multiplier=uplink_multiplier,
            timing=timing, config=config, track_reorder=track_reorder,
            seed=seed,
        )
        # Precompute per-slot connectivity: slot -> [(src, dst), ...].
        self._slot_pairs: List[List[Tuple[int, int]]] = []
        for slot in range(self.schedule.slots_per_epoch):
            pairs = [
                (uplink.node, self.schedule.destination(uplink, slot))
                for uplink in self.topology.iter_uplinks()
            ]
            self._slot_pairs.append(
                [(src, dst) for src, dst in pairs if src != dst]
            )

    # -- main loop -------------------------------------------------------------
    def run(self, flows: Sequence[Flow], *,
            max_epochs: Optional[int] = None,
            drain_epochs: int = 50_000,
            check_invariants: bool = False) -> SimulationResult:
        ledger = RunLedger(self, flows, max_epochs=max_epochs,
                           drain_epochs=drain_epochs,
                           check_invariants=check_invariants)
        slots_per_epoch = self.schedule.slots_per_epoch
        slot_dur = self.timing.slot_duration_s
        epoch_dur = ledger.epoch_s
        in_flight = ledger.in_flight
        nodes = self.nodes
        ideal = self.config.ideal
        grant_cap = self.config.effective_grant_cap
        epoch = 0
        while epoch < ledger.max_epochs:
            # Epoch-boundary protocol phases (identical to the epoch sim).
            if not ideal:
                for node in nodes:
                    node.apply_grants_and_expiries()
            ledger.admit((epoch + 1) * epoch_dur)
            if not ideal:
                for node in nodes:
                    for src, dst in node.decide_grants(grant_cap):
                        nodes[src].grant_inbox.append((node.node, dst))
                for node in nodes:
                    for intermediate, dst in node.generate_requests():
                        nodes[intermediate].request_inbox.append(
                            (node.node, dst)
                        )

            # Slot-by-slot transmission within the epoch.
            for slot in range(slots_per_epoch):
                now = epoch * epoch_dur + (slot + 1) * slot_dur
                # Deliver the previous slot's cells.
                ledger.deliver(now - slot_dur)
                # Transmit on this slot's physical connectivity.
                for src, dst in self._slot_pairs[slot]:
                    for cell in nodes[src].dequeue_for(dst, 1):
                        in_flight.append((dst, cell, src))

            ledger.end_epoch(epoch)
            epoch += 1
            if ledger.done:
                break

        return ledger.finish(epoch)
