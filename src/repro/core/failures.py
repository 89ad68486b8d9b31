"""Failure detection, blast radius and schedule adjustment (paper §4.5).

Load-balanced routing increases the *blast radius* of a node failure:
every node detours traffic through every other node, so one failed rack
degrades everyone (unlike a conventional Clos where a dead ToR strands
only its own rack).  Sirius' mitigations, modelled here:

* **Fast detection** — the cyclic schedule connects every pair once per
  epoch (microseconds), so a silent peer is noticed within a few missed
  visits, even for grey failures that only show on an actual link.
* **Proportional degradation** — a failed node costs each survivor
  exactly ``1/N`` of its bandwidth (its slots to/through the dead node
  idle); nothing blackholes once the failure is announced.
* **Schedule adjustment** — for failures that persist, all nodes switch
  (consistently) to a schedule that omits the failed node, regaining
  the lost bandwidth at the price of a coordinated update.

The detector is a per-peer miss counter driven by the epoch loop; the
:class:`FailurePlan` drives node failures/recoveries in
:class:`repro.core.network.SiriusNetwork` simulations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.obs.metrics import NULL_REGISTRY


@dataclass(frozen=True)
class FailureEvent:
    """A node failing or recovering at a given epoch."""

    epoch: int
    node: int
    #: True = the node fails at ``epoch``; False = it recovers.
    fails: bool = True

    def __post_init__(self) -> None:
        if self.epoch < 0:
            raise ValueError(f"epoch cannot be negative, got {self.epoch}")
        if self.node < 0:
            raise ValueError(f"node cannot be negative, got {self.node}")


class FailurePlan:
    """A scripted sequence of failures/recoveries for a simulation."""

    def __init__(self, events: Sequence[FailureEvent] = ()) -> None:
        self.events = sorted(events, key=lambda e: e.epoch)
        self._index = 0
        self.failed: Set[int] = set()
        self._registry = NULL_REGISTRY

    def observe_with(self, obs) -> None:
        """Publish fired events into an :class:`repro.obs.Observation`'s
        registry (``failure_events_total{kind}``)."""
        self._registry = obs.registry

    def advance_to(self, epoch: int) -> List[FailureEvent]:
        """Apply all events up to and including ``epoch``.

        Returns the events that fired; :attr:`failed` reflects the new
        state.
        """
        fired: List[FailureEvent] = []
        while (self._index < len(self.events)
               and self.events[self._index].epoch <= epoch):
            event = self.events[self._index]
            if event.fails:
                self.failed.add(event.node)
            else:
                self.failed.discard(event.node)
            fired.append(event)
            self._index += 1
        if fired and self._registry.enabled:
            counter = self._registry.counter(
                "failure_events_total", "scripted failures/recoveries fired",
            )
            for event in fired:
                counter.inc(kind="fail" if event.fails else "recover")
        return fired

    def is_failed(self, node: int) -> bool:
        return node in self.failed

    @property
    def started(self) -> bool:
        """True once an event has fired: the plan is spent for new runs."""
        return self._index > 0

    def next_event_epoch(self) -> Optional[int]:
        """Epoch of the next unfired event, or None when exhausted.

        A pure peek — :attr:`failed` and the cursor are untouched.  The
        vectorized backend's idle-epoch skip uses this to avoid jumping
        over a scripted failure or recovery.
        """
        if self._index < len(self.events):
            return self.events[self._index].epoch
        return None

    @classmethod
    def single_failure(cls, node: int, at_epoch: int,
                       recover_at: Optional[int] = None) -> "FailurePlan":
        """Convenience: one node fails (and optionally recovers)."""
        events = [FailureEvent(at_epoch, node, fails=True)]
        if recover_at is not None:
            if recover_at <= at_epoch:
                raise ValueError("recovery must come after the failure")
            events.append(FailureEvent(recover_at, node, fails=False))
        return cls(events)


class FailureDetector:
    """Per-peer miss counting over the cyclic schedule (§4.5).

    Every epoch each node expects to hear from every other node (a cell
    or an idle keep-alive on the scheduled slot).  ``threshold``
    consecutive misses declare the peer failed; a single successful
    visit clears the counter (handling grey/sporadic failures without
    flapping requires a few misses in a row).
    """

    def __init__(self, n_nodes: int, node: int, *, threshold: int = 3,
                 registry=None) -> None:
        if n_nodes < 2:
            raise ValueError("need at least 2 nodes")
        if not 0 <= node < n_nodes:
            raise ValueError(f"node {node} out of range")
        if threshold < 1:
            raise ValueError("threshold must be >= 1")
        self.n_nodes = n_nodes
        self.node = node
        self.threshold = threshold
        self._misses: Dict[int, int] = {}
        self.suspected: Set[int] = set()
        #: Optional repro.obs metrics registry: publishes per-peer miss
        #: counts and suspicion transitions.
        self._registry = registry if registry is not None else NULL_REGISTRY

    def observe_epoch(self, heard_from: Set[int]) -> List[int]:
        """Record one epoch of visits; returns peers newly suspected."""
        newly = []
        publishing = self._registry.enabled
        for peer in range(self.n_nodes):
            if peer == self.node:
                continue
            if peer in heard_from:
                self._misses.pop(peer, None)
                self.suspected.discard(peer)
                continue
            misses = self._misses.get(peer, 0) + 1
            self._misses[peer] = misses
            if publishing:
                self._registry.counter(
                    "detector_misses_total", "scheduled visits missed",
                ).inc(node=self.node, peer=peer)
            if misses >= self.threshold and peer not in self.suspected:
                self.suspected.add(peer)
                newly.append(peer)
                if publishing:
                    self._registry.counter(
                        "detector_suspected_total", "peers declared failed",
                    ).inc(node=self.node)
        return newly

    def detection_latency_epochs(self) -> int:
        """Worst-case epochs from failure to suspicion."""
        return self.threshold

    def detection_latency_s(self, epoch_duration_s: float) -> float:
        """Worst-case wall-clock detection latency (§4.5: microseconds)."""
        if epoch_duration_s <= 0:
            raise ValueError("epoch duration must be positive")
        return self.threshold * epoch_duration_s


def surviving_bandwidth_fraction(n_nodes: int, n_failed: int,
                                 schedule_adjusted: bool = False) -> float:
    """Usable bandwidth fraction per surviving node after failures.

    Without adjustment, a survivor idles its slots to each failed node:
    it keeps ``(N - 1 - f) / (N - 1)`` of its uplink bandwidth (§4.5:
    "failure of a node means the effective uplink bandwidth of each
    node is reduced by 1/N").  After the consistent schedule update the
    remaining nodes cycle only among themselves and regain everything.
    """
    if n_nodes < 2:
        raise ValueError("need at least 2 nodes")
    if not 0 <= n_failed < n_nodes:
        raise ValueError(
            f"n_failed must be in [0, {n_nodes}), got {n_failed}"
        )
    if schedule_adjusted:
        return 1.0
    usable_peers = n_nodes - 1 - n_failed
    return usable_peers / (n_nodes - 1)


def blast_radius(n_nodes: int, deployment: str = "rack") -> Tuple[int, str]:
    """Nodes affected by a single rack/node failure (§4.5).

    In a conventional Clos a dead ToR strands only its own rack; with
    Sirius' load-balanced routing every node loses the detour capacity
    through the failed node — the blast radius is the whole deployment,
    but the impact is a proportional (1/N) bandwidth loss rather than an
    outage.
    """
    if n_nodes < 2:
        raise ValueError("need at least 2 nodes")
    if deployment not in ("rack", "server"):
        raise ValueError(f"unknown deployment {deployment!r}")
    return n_nodes, (
        "all nodes lose 1/N detour bandwidth; the failed "
        f"{deployment}'s own endpoints lose connectivity"
    )


class AdjustedSchedule:
    """A consistent schedule update that omits failed nodes (§4.5).

    Survivors renumber themselves into a dense range and run the cyclic
    schedule over the reduced set, regaining the bandwidth that idle
    slots to failed nodes would waste.  The mapping is deterministic
    from the failed set, so all nodes compute the same update without
    extra coordination once the failure announcement propagates.
    """

    def __init__(self, n_nodes: int, failed: Set[int]) -> None:
        if n_nodes < 2:
            raise ValueError("need at least 2 nodes")
        bad = [f for f in failed if not 0 <= f < n_nodes]
        if bad:
            raise ValueError(f"failed nodes out of range: {bad}")
        if len(failed) >= n_nodes - 1:
            raise ValueError("fewer than 2 survivors; no schedule possible")
        self.n_nodes = n_nodes
        self.failed = set(failed)
        self.survivors: List[int] = [
            n for n in range(n_nodes) if n not in self.failed
        ]
        self._dense: Dict[int, int] = {
            node: index for index, node in enumerate(self.survivors)
        }

    @property
    def epoch_slots(self) -> int:
        """Slots per adjusted epoch: one visit to each survivor."""
        return len(self.survivors)

    def peer_at(self, node: int, slot: int) -> int:
        """The survivor that ``node`` is connected to at ``slot``."""
        if node in self.failed:
            raise ValueError(f"node {node} is failed")
        if node not in self._dense:
            raise ValueError(f"node {node} out of range")
        if slot < 0:
            raise ValueError("slot cannot be negative")
        dense = self._dense[node]
        peer_dense = (dense + slot) % len(self.survivors)
        return self.survivors[peer_dense]

    def verify_round_robin(self) -> None:
        """Every survivor meets every survivor once per adjusted epoch."""
        for node in self.survivors:
            met = {self.peer_at(node, slot) for slot in range(self.epoch_slots)}
            assert met == set(self.survivors), (
                f"survivor {node} meets {sorted(met)}, expected all survivors"
            )

    def bandwidth_fraction(self) -> float:
        """Usable bandwidth after adjustment (always 1.0)."""
        return surviving_bandwidth_fraction(
            self.n_nodes, len(self.failed), schedule_adjusted=True
        )
