"""Cells and flows (paper §4.2, "Packet forwarding").

Sirius transports *fixed-size cells* generated by the source node.  A
flow of ``size_bits`` is segmented into ``ceil(size / payload)`` cells;
cells of the same flow take different paths (different intermediates)
and may arrive out of order, carrying a sequence number for reassembly.

``Cell`` is a *flyweight*: a bare 4-tuple of small integers with named
field access and no per-instance ``__dict__``.  A simulated epoch moves
thousands of cells between queues, so construction cost and memory
footprint are hot-path concerns — the tuple representation constructs
in one C call and shares the interned small-int field objects, where
the previous frozen-dataclass representation paid four
``object.__setattr__`` calls and a dict per cell.  :func:`cell_range`
is the slab-style batch constructor the simulator uses to materialize a
flow's cells in one C-level loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import repeat
from typing import List, NamedTuple, Optional


class Cell(NamedTuple):
    """A fixed-size cell in flight or queued.

    ``flow_id``/``seq`` identify the payload chunk; ``src``/``dst`` are
    the source and final-destination nodes.  Cells are immutable — all
    mutable transit state (which queue, which intermediate) lives in the
    node structures holding them.
    """

    flow_id: int
    seq: int
    src: int
    dst: int


def cell_range(flow: "Flow", start: int, stop: int) -> List[Cell]:
    """Materialize cells ``start .. stop-1`` of ``flow`` in one batch.

    The flow's identity fields (``flow_id``, ``src``, ``dst``) are
    constant across the slab; only ``seq`` varies.  ``map`` drives the
    construction loop in C, which is what makes bulk admission cheap.
    """
    return list(map(Cell, repeat(flow.flow_id), range(start, stop),
                    repeat(flow.src), repeat(flow.dst)))


@dataclass
class Flow:
    """One transfer between a source and a destination node.

    Tracks lifecycle timestamps used by the FCT statistics: creation
    (arrival) time, per-cell delivery accounting and completion time.
    """

    flow_id: int
    src: int
    dst: int
    size_bits: int
    arrival_time: float
    n_cells: int = 0
    delivered_cells: int = field(default=0, repr=False)
    completion_time: Optional[float] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.size_bits <= 0:
            raise ValueError(f"flow size must be positive, got {self.size_bits}")
        if self.src == self.dst:
            raise ValueError("flow source and destination must differ")
        if self.arrival_time < 0:
            raise ValueError("arrival time cannot be negative")

    def segment(self, payload_bits: int) -> int:
        """Set and return the cell count for a given cell payload size."""
        if payload_bits <= 0:
            raise ValueError(f"payload must be positive, got {payload_bits}")
        self.n_cells = max(1, math.ceil(self.size_bits / payload_bits))
        return self.n_cells

    def record_delivery(self, time: float) -> bool:
        """Record one delivered cell; returns True when the flow completes."""
        if self.n_cells == 0:
            raise RuntimeError("flow was never segmented into cells")
        if self.delivered_cells >= self.n_cells:
            raise RuntimeError(
                f"flow {self.flow_id} already complete; duplicate delivery"
            )
        self.delivered_cells += 1
        if self.delivered_cells == self.n_cells:
            self.completion_time = time
            return True
        return False

    @property
    def is_complete(self) -> bool:
        return self.completion_time is not None

    @property
    def fct(self) -> Optional[float]:
        """Flow completion time (seconds), or None if still in flight."""
        if self.completion_time is None:
            return None
        return self.completion_time - self.arrival_time
