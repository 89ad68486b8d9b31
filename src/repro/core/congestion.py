"""Request/grant congestion control (paper §4.3, Fig 15).

Queuing in Sirius happens only at the nodes: an intermediate node ``I``
queues a cell for destination ``D`` whenever two or more sources detour
cells for ``D`` through ``I`` in the same epoch (``I`` can drain only
one cell per destination per epoch).  The protocol bounds this queue at
``Q`` cells:

1. **Request** — at the start of each epoch, a source scans its LOCAL
   buffer and, for each queued cell, sends a request to a uniformly
   random intermediate (at most one request per intermediate per
   epoch).  Requests are piggybacked on the cells of the cyclic
   schedule, costing no extra bandwidth.
2. **Grant** — each node considers the requests received in the
   previous epoch; per destination ``D`` it picks one at random and
   grants it iff ``queued(D) + outstanding_grants(D) < Q``.  Requests
   whose destination is the granting node itself are always granted
   (the "intermediate" is the destination; the cell is consumed on
   arrival and never occupies a forward queue).
3. **Send** — when the grant reaches the source, the source moves one
   cell for ``D`` from LOCAL into the virtual queue for ``I`` and
   transmits it on its next slot to ``I``.

``Q = 2`` is the feasible minimum (a node may receive a new cell for
``D`` before its slot to ``D`` comes around); the paper selects
``Q = 4`` as the best FCT/goodput compromise (Fig 10).

This module holds the protocol *parameters* and the grant-side decision
logic; the per-epoch state machine is driven by
:class:`repro.core.network.SiriusNetwork` with per-node state in
:class:`repro.core.node.SiriusNode`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

#: The paper's chosen per-destination queue bound (Fig 10 analysis).
DEFAULT_QUEUE_THRESHOLD = 4
#: Epochs between sending a request and learning its outcome: the request
#: rides epoch e's cells, is decided during epoch e+1, and the grant rides
#: epoch e+1's cells back — known to the source at the start of epoch e+2.
REQUEST_ROUND_TRIP_EPOCHS = 2
#: In-flight direct (single-hop) grants a destination allows per
#: source.  The source's slot to the destination drains one cell per
#: epoch and forwarded traffic has priority on it, so more direct
#: grants would only pile up in the source's virtual queue.
DIRECT_GRANT_WINDOW = 3


@dataclass(frozen=True)
class CongestionConfig:
    """Parameters of the request/grant protocol.

    Parameters
    ----------
    queue_threshold:
        ``Q``: maximum cells queued (plus outstanding grants) per
        destination at an intermediate node.  Minimum feasible value 2.
    ideal:
        When True the protocol is disabled entirely and replaced by the
        paper's SIRIUS (IDEAL) baseline: cells are pushed immediately to
        a uniformly random intermediate with unbounded per-destination
        queues (per-flow-queue back-pressure idealization).  Provides
        the performance bound of Fig 9.
    exclude_destination_intermediate:
        Ablation switch: forbid single-hop routing (see
        :class:`repro.core.routing.ValiantRouter`).
    selection:
        How request targets and grant winners are picked.

        * ``"drrm"`` (default) — desynchronized round-robin pointers on
          both sides, the DRRM discipline the paper builds on [13]:
          each source pairs its backlogged destinations with
          intermediates through a rotating offset, and each grant
          pointer cycles over sources.  At saturation the pointers
          self-organize into a collision-free pattern, approaching
          100 % matching efficiency — the behaviour the paper's
          throughput results (Fig 9b, Fig 12) exhibit.
        * ``"random"`` — the uniform random choices of the §4.3 prose;
          a single random-matching iteration saturates near 63 %
          (PIM-style), provided as an ablation
          (``benchmarks/test_ablation_selection.py``).
    max_grants_per_destination:
        Cap on grants one intermediate issues per destination per
        epoch.  ``None`` (default) bounds grants only by the ``Q`` test
        — bursts refill a drained queue, which is what lets the
        protocol sustain ~100 % hot-spot throughput (the DRRM property
        §4.3 cites).  Setting ``1`` enforces the literal
        one-grant-per-epoch reading, which caps the grant rate at
        exactly the drain rate and loses throughput to queue-idle
        epochs (provided as an ablation).
    """

    queue_threshold: int = DEFAULT_QUEUE_THRESHOLD
    ideal: bool = False
    exclude_destination_intermediate: bool = False
    selection: str = "drrm"
    max_grants_per_destination: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.ideal and self.queue_threshold < 2:
            raise ValueError(
                "queue threshold below 2 can deadlock the schedule "
                f"(paper §4.3); got {self.queue_threshold}"
            )
        if self.selection not in ("drrm", "random"):
            raise ValueError(
                f"selection must be 'drrm' or 'random', got {self.selection!r}"
            )
        if (self.max_grants_per_destination is not None
                and self.max_grants_per_destination < 1):
            raise ValueError(
                "max_grants_per_destination must be None or >= 1, got "
                f"{self.max_grants_per_destination}"
            )

    @property
    def effective_grant_cap(self) -> int:
        """Grants one intermediate may issue per destination per epoch.

        The ``Q`` admission test is the real bound when
        ``max_grants_per_destination`` is unset (the default); an
        explicit cap is an ablation.  The network hoists this out of
        its epoch loop — it is configuration, not per-epoch state.
        """
        return self.max_grants_per_destination or self.queue_threshold


def may_grant(queued: int, outstanding: int, threshold: int) -> bool:
    """Grant-side admission test (§4.3).

    A grant may be issued for destination ``D`` iff the cells already
    queued for ``D`` plus grants already outstanding for ``D`` stay
    below the threshold ``Q``.
    """
    if queued < 0 or outstanding < 0:
        raise ValueError("queue and grant counts cannot be negative")
    if threshold < 1:
        raise ValueError(f"threshold must be >= 1, got {threshold}")
    return queued + outstanding < threshold


def record_grant_decision(registry, tracer, intermediate: int,
                          src: int, dst: int, *, granted: bool,
                          direct: bool = False,
                          reason: Optional[str] = None) -> None:
    """Publish one grant decision into the observability planes.

    The protocol's visible behaviour — how often the ``Q`` admission
    test or the direct-grant window refuses a request — lives here in
    the congestion layer, next to :func:`may_grant` whose verdict it
    reports.  Counters: ``grants_issued_total{src,dst}`` (the paper's
    per-pair grant rate) and ``grants_denied_total{reason}``; matching
    ``grant.issued`` / ``grant.denied`` trace events carry the same
    fields.  Call sites gate on the planes' ``enabled`` flags, so the
    un-observed cost is zero.
    """
    if granted:
        if registry.enabled:
            registry.counter(
                "grants_issued_total", "grants issued per (src, dst) pair",
            ).inc(src=src, dst=dst)
        if tracer.enabled:
            tracer.emit("grant.issued", node=intermediate,
                        src=src, dst=dst, direct=direct)
    else:
        if registry.enabled:
            registry.counter(
                "grants_denied_total", "requests refused, by reason",
            ).inc(reason=reason or "unknown")
        if tracer.enabled:
            tracer.emit("grant.denied", node=intermediate,
                        src=src, dst=dst, reason=reason or "unknown")


def max_queue_delay_epochs(threshold: int) -> int:
    """Upper bound on epochs a cell waits at an intermediate.

    A cell entering a forward queue behind at most ``Q - 1`` cells (the
    grant test admitted it below the threshold) waits at most ``Q - 1``
    epochs for its turn, plus the epoch in flight — the "bounded
    latency" property the protocol trades the initial round-trip for.
    """
    if threshold < 1:
        raise ValueError(f"threshold must be >= 1, got {threshold}")
    return threshold
