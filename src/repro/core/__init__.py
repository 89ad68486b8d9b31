"""Sirius' network stack: scheduling, routing, congestion control and the
epoch-synchronous cell-level simulator (paper §4, §7).

Module map:

* :mod:`repro.core.cell` — fixed-size cells and flows.
* :mod:`repro.core.schedule` — the static cyclic schedule (Fig 5b) and
  slot/epoch timing derived from cell size and guardband.
* :mod:`repro.core.routing` — Valiant load-balanced routing decisions.
* :mod:`repro.core.congestion` — the request/grant protocol (§4.3).
* :mod:`repro.core.reorder` — destination-side reorder buffers.
* :mod:`repro.core.node` — per-node state (LOCAL buffer, virtual
  queues, forward queues, protocol bookkeeping).
* :mod:`repro.core.network` — the epoch-synchronous simulator that ties
  it all together and produces the §7 metrics.
* :mod:`repro.core.backend` / :mod:`repro.core.vectorized` — the
  selectable epoch-loop strategies (``reference``/``vectorized``) and
  the numpy-slab engine behind the default.
* :mod:`repro.core.ledger` — the per-run flow table, delivery, failure
  handling and result every cell engine drives.
"""

from repro.core.backend import BACKEND_ENV, BACKENDS, resolve_backend
from repro.core.cell import Cell, Flow
from repro.core.failures import (
    AdjustedSchedule,
    FailureDetector,
    FailureEvent,
    FailurePlan,
)
from repro.core.schedule import CyclicSchedule, SlotTiming
from repro.core.routing import ValiantRouter
from repro.core.congestion import CongestionConfig
from repro.core.reorder import ReorderBuffer
from repro.core.node import SiriusNode
from repro.core.network import SiriusNetwork, SimulationResult
from repro.core.parallel import ParallelSiriusPlanes
from repro.core.rack import CreditLink, RackConfig, RackDeployment, RackSwitch

__all__ = [
    "AdjustedSchedule",
    "BACKENDS",
    "BACKEND_ENV",
    "resolve_backend",
    "Cell",
    "FailureDetector",
    "FailureEvent",
    "FailurePlan",
    "Flow",
    "CyclicSchedule",
    "SlotTiming",
    "ValiantRouter",
    "CongestionConfig",
    "ReorderBuffer",
    "SiriusNode",
    "SiriusNetwork",
    "ParallelSiriusPlanes",
    "CreditLink",
    "RackConfig",
    "RackDeployment",
    "RackSwitch",
    "SimulationResult",
]
