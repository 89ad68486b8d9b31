"""The static cyclic schedule and slot timing (paper §4.2, Fig 5b).

Sirius is *scheduler-less*: instead of collecting demands and computing
assignments, every transceiver cycles through all its grating's
wavelengths on a fixed timeslot-by-timeslot pattern, so each node is
connected to every other node once per *epoch* (``G`` timeslots for
``G``-port gratings).  The schedule is contention-free by construction:
within a timeslot all inputs of a grating use the same wavelength
channel, and the AWGR's cyclic routing is a permutation for any fixed
channel — no output port ever receives two signals at once.

Slot timing (§4.5, §7): each timeslot is a cell transmission followed by
a *guardband* during which the lasers retune, CDR re-locks and
synchronization slack is absorbed.  The paper's default is a 100 ns slot
= 90 ns of data (562 B at 50 Gb/s) + 10 ns guardband; Fig 11 sweeps the
guardband while keeping it at 10 % of the slot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Tuple

import numpy as np

from repro.topology.sirius import SiriusTopology, Uplink
from repro.units import GBPS, NANOSECOND


@dataclass(frozen=True)
class SlotTiming:
    """Timing of one timeslot: data transmission + reconfiguration guardband.

    Parameters
    ----------
    guardband_s:
        End-to-end reconfiguration window (laser tuning + CDR lock +
        sync error).  Paper default 10 ns (conservative; the prototype
        achieves 3.84 ns).
    guard_fraction:
        Guardband share of the total slot.  The paper fixes this at 10 %
        when sweeping the guardband (Fig 11), so the slot duration is
        ``guardband / guard_fraction``.
    link_rate_bps:
        Optical channel rate (50 Gb/s).
    header_bytes:
        Per-cell framing overhead (addressing, sequence number, CRC and
        the piggybacked request/grant fields).  The burst preamble is
        part of the guardband, not the cell, so this stays small.
    """

    guardband_s: float = 10 * NANOSECOND
    guard_fraction: float = 0.1
    link_rate_bps: float = 50 * GBPS
    header_bytes: int = 18

    def __post_init__(self) -> None:
        if self.guardband_s <= 0:
            raise ValueError(f"guardband must be positive, got {self.guardband_s}")
        if not 0 < self.guard_fraction < 1:
            raise ValueError(
                f"guard fraction must be in (0, 1), got {self.guard_fraction}"
            )
        if self.link_rate_bps <= 0:
            raise ValueError("link rate must be positive")
        if self.header_bytes < 0:
            raise ValueError("header size cannot be negative")
        if self.payload_bits <= 0:
            raise ValueError(
                "slot too short: header consumes the entire cell "
                f"(cell {self.cell_bits} bits, header {self.header_bytes * 8})"
            )

    @property
    def slot_duration_s(self) -> float:
        """Total slot duration (data + guardband)."""
        return self.guardband_s / self.guard_fraction

    @property
    def transmission_time_s(self) -> float:
        """Data-carrying portion of the slot."""
        return self.slot_duration_s - self.guardband_s

    @property
    def cell_bits(self) -> int:
        """Total cell size on the wire (bits)."""
        return int(self.transmission_time_s * self.link_rate_bps)

    @property
    def cell_bytes(self) -> float:
        return self.cell_bits / 8.0

    @property
    def payload_bits(self) -> int:
        """Application payload per cell (cell minus framing)."""
        return self.cell_bits - self.header_bytes * 8

    @property
    def efficiency(self) -> float:
        """Fraction of the slot carrying application payload."""
        return self.payload_bits / (self.slot_duration_s * self.link_rate_bps)


class CyclicSchedule:
    """The static round-robin schedule over a :class:`SiriusTopology`.

    At timeslot ``t`` (mod G) every uplink transmits on wavelength
    channel ``t``, reaching grating output port ``(input_port + t) mod
    G``.  Over one epoch of ``G`` slots each uplink visits all ``G``
    nodes of its destination block exactly once, so a node with
    ``links_per_block`` uplinks per block reaches *every* node in the
    network ``links_per_block`` times per epoch.
    """

    def __init__(self, topology: SiriusTopology,
                 timing: SlotTiming = None) -> None:
        if timing is None:
            timing = SlotTiming(link_rate_bps=topology.link_rate_bps)
        self.topology = topology
        self.timing = timing
        self.slots_per_epoch = topology.grating_ports
        #: Wall-clock duration of one epoch, cached at construction (the
        #: schedule is static, so the value never changes; the paper's
        #: §4.2 example — 16 nodes per grating, 100 ns slots — gives a
        #: 1.6 us epoch).  The simulator's epoch loop reads this every
        #: epoch, which is why it is a plain attribute, not a property
        #: recomputing two divisions per access.
        self.epoch_duration_s: float = (
            self.slots_per_epoch * timing.slot_duration_s
        )

    def epoch_of(self, time_s: float) -> int:
        """Epoch index containing absolute time ``time_s``."""
        if time_s < 0:
            raise ValueError(f"time cannot be negative, got {time_s}")
        return int(time_s / self.epoch_duration_s)

    # -- per-slot connectivity -------------------------------------------------
    def destination(self, uplink: Uplink, slot: int) -> int:
        """Node reached by ``uplink`` during timeslot ``slot``."""
        if slot < 0:
            raise ValueError(f"slot cannot be negative, got {slot}")
        g = self.topology.grating_ports
        channel = slot % g
        output_port = self.topology.gratings[uplink.grating].output_port(
            uplink.input_port, channel
        )
        return uplink.reachable_block * g + output_port

    def wavelength(self, slot: int) -> int:
        """Wavelength channel all uplinks use during ``slot``."""
        if slot < 0:
            raise ValueError(f"slot cannot be negative, got {slot}")
        return slot % self.topology.grating_ports

    def connections(self, slot: int) -> List[Tuple[int, int, Uplink]]:
        """All ``(src, dst, uplink)`` connections active in ``slot``."""
        return [
            (uplink.node, self.destination(uplink, slot), uplink)
            for uplink in self.topology.iter_uplinks()
        ]

    def slot_for(self, uplink: Uplink, dst_node: int) -> int:
        """Timeslot (within the epoch) at which ``uplink`` reaches ``dst``."""
        return self.topology.wavelength_for(uplink, dst_node)

    def pair_slots(self, src: int, dst: int) -> List[Tuple[Uplink, int]]:
        """Every (uplink, slot) by which ``src`` reaches ``dst`` per epoch.

        Length equals ``links_per_block`` — the per-pair per-epoch cell
        capacity.
        """
        return [
            (uplink, self.slot_for(uplink, dst))
            for uplink, _wavelength in self.topology.paths_to(src, dst)
        ]

    # -- whole-schedule views ---------------------------------------------------
    def table(self) -> List[Dict[str, object]]:
        """Fig 5b-style schedule table.

        One row per (node, uplink): the wavelength letter and
        destination for each timeslot of the epoch.
        """
        rows = []
        for uplink in self.topology.iter_uplinks():
            entry: Dict[str, object] = {
                "node": uplink.node,
                "uplink": uplink.index,
            }
            for slot in range(self.slots_per_epoch):
                entry[f"slot{slot}"] = {
                    "wavelength": self.wavelength(slot),
                    "dst": self.destination(uplink, slot),
                }
            rows.append(entry)
        return rows

    def iter_epoch(self) -> Iterator[Tuple[int, List[Tuple[int, int, Uplink]]]]:
        """Iterate ``(slot, connections)`` over one epoch."""
        for slot in range(self.slots_per_epoch):
            yield slot, self.connections(slot)

    # -- invariants ----------------------------------------------------------
    def verify_contention_free(self) -> None:
        """Assert no destination uplink port receives two cells in a slot.

        Receive contention is per (grating, output port): each node has
        one downlink per grating that outputs to it.  Within any slot
        all inputs of a grating transmit on the same wavelength channel,
        and the AWGR's cyclic routing ``output = (input + channel) mod
        G`` is a permutation of the input ports for every fixed channel
        — so two uplinks of one grating collide in *some* slot iff they
        share an input port, in which case they collide in *every*
        slot.  Checking that no two uplinks share a ``(grating, input
        port)`` is therefore equivalent to the slot-by-slot output scan.

        That in turn is a check on grating ids alone.  Uplink ``k`` of
        node ``n`` sits on input port ``n mod G`` of grating
        ``_grating_id(n // G, k // m, k mod m)``.  Node ↔ (source
        block, input port) and uplink index ↔ (destination block,
        replica) are bijections, and the grating id does not depend on
        the input port, so two uplinks share a ``(grating, input
        port)`` exactly when ``_grating_id`` repeats over the
        ``n_blocks² · m`` triples (source block, destination block,
        replica).  One numpy evaluation on that grid makes the check
        O(n_blocks² · m) instead of O(n_nodes · uplinks_per_node):
        8,192 ids instead of 524,288 uplinks at 4096 nodes with 64-port
        gratings and two replicas, 65,536 instead of 6.5 M at the
        paper's 25,600 racks.
        """
        topo = self.topology
        shape = (topo.n_blocks, topo.n_blocks, topo.links_per_block)
        src_block, dst_block, replica = np.ogrid[:shape[0], :shape[1],
                                                 :shape[2]]
        # Broadcast to the full grid before counting: a ``_grating_id``
        # that ignores an argument returns a smaller array whose ids
        # would all look distinct.
        ids = np.broadcast_to(
            topo._grating_id(src_block, dst_block, replica), shape
        ).ravel()
        values, counts = np.unique(ids, return_counts=True)
        if values.size < ids.size:
            shared = values[counts > 1][0]
            first, second = (
                tuple(int(i) for i in np.unravel_index(flat, shape))
                for flat in np.flatnonzero(ids == shared)[:2]
            )
            raise AssertionError(
                f"grating {shared} is wired to (source block, destination "
                f"block, replica) {first} and {second}: each of its input "
                "ports feeds two uplinks, and every slot's shared-channel "
                "permutation would deliver both to the same output port"
            )

    def verify_full_coverage(self) -> None:
        """Assert every node reaches every node exactly
        ``links_per_block`` times per epoch."""
        expected = self.topology.links_per_block
        for src in range(self.topology.n_nodes):
            counts: Dict[int, int] = {}
            for uplink in self.topology.uplinks(src):
                for slot in range(self.slots_per_epoch):
                    dst = self.destination(uplink, slot)
                    counts[dst] = counts.get(dst, 0) + 1
            for dst in range(self.topology.n_nodes):
                assert counts.get(dst, 0) == expected, (
                    f"{src}->{dst} connected {counts.get(dst, 0)} times per "
                    f"epoch, expected {expected}"
                )
