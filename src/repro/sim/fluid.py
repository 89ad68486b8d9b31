"""Event-driven max-min-fair fluid simulator: the ESN (Ideal) baselines (§7).

The paper compares Sirius against *idealized* electrically-switched
networks: per-flow queues, back-pressure at every switch and packet
spraying over all paths of a folded Clos.  That idealization is
throughput-equivalent to max-min fair bandwidth sharing constrained
only by

* each node's transmit capacity,
* each node's receive capacity, and
* (for the oversubscribed variant) each pod's uplink/downlink capacity,

because a non-blocking fabric with perfect load balancing and lossless
back-pressure delivers exactly the max-min allocation over those edge
resources ("an upper bound on the performance achievable by any rate
control and routing protocol").  ESN-OSUB (Ideal) adds the pod
constraints with the 3:1 oversubscription factor.

The simulation is event-driven: flow rates are recomputed by
progressive filling (exact max-min) at every arrival/completion, and
time advances to the earlier of the next arrival and the earliest
completion under current rates.

Two event-loop strategies implement one semantics
(:func:`repro.core.backend.resolve_fluid_backend` picks between them):

* ``reference`` — per event, rebuild the progressive-filling state
  from scratch (:meth:`FluidNetwork.maxmin_rates`, the readable
  from-first-principles allocator) and scan every stored completion
  instant linearly.
* ``incremental`` (default) — persistent per-resource membership,
  counts and base saturation levels kept across events and updated
  only for the resources the arriving/completing flow touches, filling
  driven by a copy of a persistently maintained level heap instead of
  repeated full scans, and a heap-scheduled completion queue
  (:class:`repro.sim.engine.CompletionQueue`) with stale-entry
  invalidation — entries are re-pushed only for flows whose rate
  changed.

Both loops allocate with bottleneck water-filling over *saturation
levels* (the fill height ``base + residual/count`` at which a resource
pins its remaining members): the globally lowest level saturates
first, its unfrozen members freeze at that level, and each of their
other resources settles its residual to the new base.  In exact
arithmetic this is the same max-min allocation progressive filling
computes; :meth:`FluidNetwork.maxmin_rates` (the verbatim
progressive-filling allocator) is retained as the readable oracle the
equivalence suite pins both loops against, to relative tolerance.
Level-filling is what makes an incremental engine possible at all — a
level is untouched by a round's delta (it only moves when a count or
residual changes), so the persistent heap stays valid across events,
whereas every progressive-filling round perturbs every residual and
forces O(rounds × resources) work per event.

Both engines account for a flow lazily: its
``(remaining, rate, since)`` triple is settled only when its max-min
rate *value* changes, it completes, or the run truncates — never per
event — and both execute the same float operations in the same order,
so seeded runs are bit-identical field-for-field
(``tests/sim/test_fluid_equivalence.py`` proves it across pod maps,
simultaneous arrivals and truncation).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.backend import resolve_fluid_backend
from repro.core.cell import Flow
from repro.obs.observation import NULL_OBS, Observation
from repro.sim.engine import CompletionQueue
from repro.units import KILOBYTE, US


def pod_map_for(n_nodes: int, pod_size: int) -> List[int]:
    """Assign nodes to pods of ``pod_size`` consecutive nodes."""
    if pod_size <= 0:
        raise ValueError(f"pod size must be positive, got {pod_size}")
    if n_nodes % pod_size:
        raise ValueError(
            f"pod size {pod_size} must divide node count {n_nodes}"
        )
    return [node // pod_size for node in range(n_nodes)]


@dataclass
class FluidResult:
    """Outcome of a fluid simulation, mirroring
    :class:`repro.core.network.SimulationResult` where metrics overlap."""

    flows: List[Flow]
    duration_s: float
    delivered_bits: float
    offered_bits: float
    reference_node_bandwidth_bps: float
    n_nodes: int
    #: Arrival + completion events processed (the fluid analogue of the
    #: cell simulator's epoch count; drives ``events_per_s`` in bench
    #: records).
    events: int = 0

    @property
    def normalized_goodput(self) -> float:
        capacity = self.duration_s * self.n_nodes * (
            self.reference_node_bandwidth_bps
        )
        return self.delivered_bits / capacity if capacity else 0.0

    @property
    def completed_flows(self) -> List[Flow]:
        return [f for f in self.flows if f.is_complete]

    def fcts(self, max_size_bits: Optional[float] = None,
             min_size_bits: Optional[float] = None) -> List[float]:
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
        fcts = sorted(self.fcts(max_size_bits=max_size_bits))
        if not fcts:
            return None
        if not 0 < percentile <= 100:
            raise ValueError(f"percentile must be in (0, 100], got {percentile}")
        index = min(len(fcts) - 1,
                    int(math.ceil(percentile / 100 * len(fcts))) - 1)
        return fcts[index]


class FluidNetwork:
    """Max-min fair fluid network over node (and optional pod) capacities.

    Parameters
    ----------
    n_nodes:
        Attached nodes.
    node_bandwidth_bps:
        Per-node transmit = receive capacity (``R``).
    pod_map:
        Optional node → pod assignment; with ``pod_bandwidth_bps`` this
        models aggregation-tier oversubscription (inter-pod flows also
        consume pod uplink/downlink capacity).
    pod_bandwidth_bps:
        Aggregate inter-pod capacity per pod in each direction.
    base_rtt_s:
        Fixed latency added to every flow's completion (propagation +
        store-and-forward through the hierarchy); keeps FCTs of tiny
        flows non-zero, as in any real Clos.  Default 2 us, matching
        the low-load 99p FCT of the paper's ESN (Ideal) in Fig 9a.
    backend:
        Select the event loop's execution strategy (see the module
        docstring and :func:`repro.core.backend.resolve_fluid_backend`):
        ``incremental`` (default) keeps persistent max-min state and a
        completion heap; ``reference`` rebuilds everything per event.
        Both are bit-identical on any input.
    """

    def __init__(self, n_nodes: int, node_bandwidth_bps: float, *,
                 pod_map: Optional[Sequence[int]] = None,
                 pod_bandwidth_bps: Optional[float] = None,
                 base_rtt_s: float = 2 * US,
                 backend: Optional[str] = None) -> None:
        if n_nodes < 2:
            raise ValueError(f"need at least 2 nodes, got {n_nodes}")
        if node_bandwidth_bps <= 0:
            raise ValueError("node bandwidth must be positive")
        if (pod_map is None) != (pod_bandwidth_bps is None):
            raise ValueError(
                "pod_map and pod_bandwidth_bps must be given together"
            )
        if pod_map is not None and len(pod_map) != n_nodes:
            raise ValueError("pod_map must assign every node")
        if base_rtt_s < 0:
            raise ValueError("base RTT cannot be negative")
        self.n_nodes = n_nodes
        self.node_bandwidth_bps = node_bandwidth_bps
        self.pod_map = list(pod_map) if pod_map is not None else None
        self.pod_bandwidth_bps = pod_bandwidth_bps
        self.base_rtt_s = base_rtt_s
        self.backend = resolve_fluid_backend(backend)

    # -- resource vocabulary -------------------------------------------------
    def _flow_resources(self, flow: Flow) -> Tuple:
        resources = [("tx", flow.src), ("rx", flow.dst)]
        if self.pod_map is not None:
            src_pod, dst_pod = self.pod_map[flow.src], self.pod_map[flow.dst]
            if src_pod != dst_pod:
                resources.append(("up", src_pod))
                resources.append(("down", dst_pod))
        return tuple(resources)

    def _capacity(self, resource: Tuple[str, int]) -> float:
        if resource[0] in ("tx", "rx"):
            return self.node_bandwidth_bps
        return float(self.pod_bandwidth_bps)

    # -- max-min allocation ------------------------------------------------------
    def maxmin_rates(self, active: Dict[int, Tuple],
                     ) -> Dict[int, float]:
        """Progressive-filling max-min rates for the active flow set.

        ``active`` maps flow id → resource tuple.  Returns flow id →
        rate (bits/second).  This is the progressive-filling oracle:
        the readable from-first-principles allocator both event loops'
        level-filling (:meth:`_fill_levels` and its persistent-heap
        twin inside the incremental loop) is validated against —
        identical in exact arithmetic, within float tolerance in
        practice (``tests/sim/test_fluid_equivalence.py``).
        """
        if not active:
            return {}
        unfrozen = set(active)
        members: Dict[Tuple, set] = {}
        for fid, resources in active.items():
            for res in resources:
                members.setdefault(res, set()).add(fid)
        cap_left = {res: self._capacity(res) for res in members}
        rates = {fid: 0.0 for fid in active}
        while unfrozen:
            delta = min(
                cap_left[res] / len(flows)
                for res, flows in members.items() if flows
            )
            saturated = []
            for res, flows in members.items():
                if not flows:
                    continue
                cap_left[res] -= delta * len(flows)
                # relative epsilon, not a unit  # lint: ignore[unit-literal]
                if cap_left[res] <= 1e-9 * self._capacity(res):
                    saturated.append(res)
            # every member gets the same delta: order cannot
            # affect the result  # lint: ignore[set-iteration]
            for fid in unfrozen:
                rates[fid] += delta
            frozen = set()
            for res in saturated:
                frozen |= members[res]
            if not frozen:
                # Numerical corner: freeze everything touching the min.
                frozen = set(unfrozen)
            for fid in frozen & unfrozen:
                for res in active[fid]:
                    members[res].discard(fid)
            unfrozen -= frozen
        return rates

    def _fill_levels(self, active: Dict[int, Tuple]) -> Dict[int, float]:
        """Bottleneck water-filling over saturation levels, from scratch.

        Per step, the unsaturated resource with the lowest level
        ``base + residual/count`` (ties broken on the resource tuple)
        saturates: its unfrozen members freeze at that level, and each
        member's other resources settle — residual drops by
        ``(level - base) * count`` once per level, then the member
        count decrements.  Exact max-min, like :meth:`maxmin_rates`;
        the incremental loop computes the same float expressions over
        the same operands in the same order from its persistent state,
        which is what makes the two backends bit-identical.

        This is the reference implementation: member lists, counts and
        residuals are rebuilt from the active set on every call, and
        every step re-derives all levels with a full linear scan.
        """
        if not active:
            return {}
        members: Dict[Tuple, List[int]] = {}
        count: Dict[Tuple, int] = {}
        for fid, resources in active.items():
            for res in resources:
                fids = members.get(res)
                if fids is None:
                    members[res] = [fid]
                    count[res] = 1
                else:
                    fids.append(fid)
                    count[res] += 1
        residual = {res: self._capacity(res) for res in members}
        base = {res: 0.0 for res in members}
        done: Set[Tuple] = set()
        rates: Dict[int, float] = {}
        unfrozen = len(active)
        while unfrozen:
            best_level = None
            best_res = None
            for res, cnt in count.items():
                if not cnt or res in done:
                    continue
                level = base[res] + residual[res] / cnt
                if (best_level is None or level < best_level
                        or (level == best_level and res < best_res)):
                    best_level, best_res = level, res
            level, res = best_level, best_res
            done.add(res)
            for fid in members[res]:
                if fid in rates:
                    continue
                rates[fid] = level
                unfrozen -= 1
                for other in active[fid]:
                    if other in done or not count[other]:
                        continue
                    if base[other] != level:
                        residual[other] -= (level - base[other]) * count[other]
                        base[other] = level
                    count[other] -= 1
        return rates

    # -- simulation ----------------------------------------------------------
    def run(self, flows: Sequence[Flow], *,
            max_duration_s: Optional[float] = None,
            obs: Optional[Observation] = None) -> FluidResult:
        """Simulate the flow list (sorted by arrival) to completion.

        The caller's ``Flow`` objects are the accounting records: each
        completed flow is stamped with ``n_cells = 1`` and one recorded
        delivery (the fluid model has no cells, so a flow is a single
        indivisible unit of delivery), which sets ``completion_time``.
        The objects stay usable afterwards — FCT statistics read them
        in place, and :meth:`repro.core.cell.Flow.segment` may
        re-segment them for a later cell-level run.

        ``obs`` attaches a :class:`repro.obs.Observation`: flow
        arrival/completion trace events (the fluid simulator has no
        epochs, so events are stamped with the event index), a tracked
        ``fluid_active_flows`` gauge, the shared ``delivered_bits_total``
        counter and an ``advance``/``recompute``/``settle`` wall-clock
        breakdown (event selection, progressive filling, and lazy
        drain settlement for rate-changed flows, respectively).
        """
        if obs is None:
            obs = NULL_OBS
        profiler = obs.profiler
        profiling = profiler.enabled
        t_mark = profiler.start_run()

        flows = list(flows)
        for i in range(1, len(flows)):
            if flows[i].arrival_time < flows[i - 1].arrival_time:
                raise ValueError("flows must be sorted by arrival time")
        offered = sum(f.size_bits for f in flows)
        if profiling:
            t_mark = profiler.lap("setup", t_mark)
        if self.backend == "incremental":
            delivered, now, events = self._loop_incremental(
                flows, max_duration_s, obs, t_mark)
        else:
            delivered, now, events = self._loop_reference(
                flows, max_duration_s, obs, t_mark)
        duration = max(now, 1e-12)
        if profiling:
            profiler.lap("finalize", profiler.tick())
            profiler.end_run()
        return FluidResult(
            flows=flows,
            duration_s=duration,
            delivered_bits=delivered,
            offered_bits=offered,
            reference_node_bandwidth_bps=self.node_bandwidth_bps,
            n_nodes=self.n_nodes,
            events=events,
        )

    # Both loops below execute the same float operations in the same
    # order — the settle expressions and their iteration orders are
    # deliberately identical statement-for-statement, which is what
    # makes seeded runs bit-identical across backends.

    def _loop_reference(self, flows: List[Flow],
                        max_duration_s: Optional[float],
                        obs: Observation, t_mark: float,
                        ) -> Tuple[float, float, int]:
        """From-scratch loop: full refill and linear scans per event."""
        tracer, registry, profiler = obs.tracer, obs.registry, obs.profiler
        tracing, metering = tracer.enabled, registry.enabled
        profiling = profiler.enabled
        if metering:
            delivered_counter = registry.counter(
                "delivered_bits_total", "application payload delivered"
            )
            event_counter = registry.counter(
                "fluid_events_total", "fluid events processed, by kind"
            )
            active_gauge = registry.gauge("fluid_active_flows", track=True)

        flow_by_id = {f.flow_id: f for f in flows}
        n_flows = len(flows)
        resources_of: Dict[int, Tuple] = {}
        remaining: Dict[int, float] = {}
        rate: Dict[int, float] = {}
        since: Dict[int, float] = {}
        completion_at: Dict[int, float] = {}
        delivered = 0.0
        now = 0.0
        next_arrival_idx = 0
        event_index = 0
        inf = math.inf

        while True:
            next_arrival = (
                flows[next_arrival_idx].arrival_time
                if next_arrival_idx < n_flows else None
            )
            # Single pass, strict <: among bit-equal completion
            # instants the first (earliest-arrived) flow wins, the
            # same tie-break the incremental heap's (time, arrival)
            # key encodes.
            next_completion = None
            completing = None
            for fid, t in completion_at.items():
                if t is not inf and (next_completion is None
                                     or t < next_completion):
                    next_completion, completing = t, fid
            if next_arrival is None and next_completion is None:
                break
            if next_completion is None or (
                next_arrival is not None and next_arrival <= next_completion
            ):
                event_time, event = next_arrival, "arrival"
            else:
                event_time, event = next_completion, "completion"
            if max_duration_s is not None and event_time > max_duration_s:
                truncated = 0.0
                for fid in remaining:
                    drained = min(remaining[fid],
                                  rate[fid] * (max_duration_s - since[fid]))
                    remaining[fid] -= drained
                    truncated += drained
                delivered += truncated
                if metering and truncated:
                    delivered_counter.inc(truncated)
                now = max_duration_s
                break
            now = event_time
            if profiling:
                t_mark = profiler.lap("advance", t_mark)

            if tracing:
                tracer.at(event_index, now)
            if event == "arrival":
                flow = flows[next_arrival_idx]
                next_arrival_idx += 1
                fid = flow.flow_id
                resources_of[fid] = self._flow_resources(flow)
                remaining[fid] = float(flow.size_bits)
                rate[fid] = 0.0
                since[fid] = now
                completion_at[fid] = inf
                if tracing:
                    tracer.emit("flow.arrival", node=flow.src,
                                flow=fid, dst=flow.dst)
            else:
                fid = completing
                drained = remaining.pop(fid)
                delivered += drained
                if metering and drained:
                    delivered_counter.inc(drained)
                del resources_of[fid], rate[fid], since[fid]
                del completion_at[fid]
                flow = flow_by_id[fid]
                flow.n_cells = 1
                flow.record_delivery(now + self.base_rtt_s)
                if tracing:
                    tracer.emit("flow.completion", node=flow.dst, flow=fid)
            if metering:
                event_counter.inc(kind=event)
                active_gauge.set(len(resources_of), at=event_index)
            event_index += 1

            new_rates = self._fill_levels(resources_of)
            if profiling:
                t_mark = profiler.lap("recompute", t_mark)
            advanced = 0.0
            for fid, old in rate.items():
                new = new_rates[fid]
                if new == old:
                    continue
                # Update hysteresis (same relative epsilon as the
                # allocators' saturation threshold): level filling
                # perturbs every allocation by ulps each event, and
                # rescheduling a completion for a sub-1e-9 rate shift
                # would settle and re-queue every active flow on every
                # event.  The drift is bounded — the comparison is
                # always against the freshly computed allocation, so
                # accumulated change past the threshold updates.
                # relative epsilon, not a unit  # lint: ignore[unit-literal]
                if old > 0.0 and -1e-9 * old <= new - old <= 1e-9 * old:
                    continue
                left = remaining[fid]
                drained = min(left, old * (now - since[fid]))
                left -= drained
                advanced += drained
                remaining[fid] = left
                rate[fid] = new
                since[fid] = now
                completion_at[fid] = now + left / new if new > 0 else inf
            delivered += advanced
            if metering and advanced:
                delivered_counter.inc(advanced)
            if profiling:
                t_mark = profiler.lap("settle", t_mark)
        return delivered, now, event_index

    def _loop_incremental(self, flows: List[Flow],
                          max_duration_s: Optional[float],
                          obs: Observation, t_mark: float,
                          ) -> Tuple[float, float, int]:
        """Persistent-state loop: O(touched resources) index updates,
        counted refills and a heap-scheduled completion queue."""
        tracer, registry, profiler = obs.tracer, obs.registry, obs.profiler
        tracing, metering = tracer.enabled, registry.enabled
        profiling = profiler.enabled
        if metering:
            delivered_counter = registry.counter(
                "delivered_bits_total", "application payload delivered"
            )
            event_counter = registry.counter(
                "fluid_events_total", "fluid events processed, by kind"
            )
            active_gauge = registry.gauge("fluid_active_flows", track=True)

        flow_by_id = {f.flow_id: f for f in flows}
        n_flows = len(flows)
        # Persistent max-min state, updated only for the resources the
        # arriving/completing flow touches: ordered member maps (dict
        # keys, so deletions preserve the arrival order the reference
        # rebuild produces), member counts, capacities, and the base
        # level heap — one live ``(cap/count, res)`` entry per
        # resource, superseded entries invalidated by value against
        # ``base_level``.
        members: Dict[Tuple, Dict[int, None]] = {}
        count: Dict[Tuple, int] = {}
        cap0: Dict[Tuple, float] = {}
        base_level: Dict[Tuple, float] = {}
        base_heap: List[Tuple[float, Tuple]] = []
        resources_of: Dict[int, Tuple] = {}
        remaining: Dict[int, float] = {}
        rate: Dict[int, float] = {}
        since: Dict[int, float] = {}
        arrival_seq: Dict[int, int] = {}
        queue = CompletionQueue()
        capacity_of = self._capacity
        heappush, heappop = heapq.heappush, heapq.heappop
        delivered = 0.0
        now = 0.0
        next_arrival_idx = 0
        event_index = 0

        while True:
            next_arrival = (
                flows[next_arrival_idx].arrival_time
                if next_arrival_idx < n_flows else None
            )
            head = queue.peek()
            if next_arrival is None and head is None:
                break
            if head is None or (
                next_arrival is not None and next_arrival <= head[0]
            ):
                event_time, event = next_arrival, "arrival"
            else:
                event_time, event = head[0], "completion"
            if max_duration_s is not None and event_time > max_duration_s:
                truncated = 0.0
                for fid in remaining:
                    drained = min(remaining[fid],
                                  rate[fid] * (max_duration_s - since[fid]))
                    remaining[fid] -= drained
                    truncated += drained
                delivered += truncated
                if metering and truncated:
                    delivered_counter.inc(truncated)
                now = max_duration_s
                break
            now = event_time
            if profiling:
                t_mark = profiler.lap("advance", t_mark)

            if tracing:
                tracer.at(event_index, now)
            if event == "arrival":
                flow = flows[next_arrival_idx]
                fid = flow.flow_id
                arrival_seq[fid] = next_arrival_idx
                next_arrival_idx += 1
                resources = self._flow_resources(flow)
                resources_of[fid] = resources
                for res in resources:
                    c = count.get(res)
                    if c is None:
                        members[res] = {fid: None}
                        cap0[res] = capacity_of(res)
                        c = 1
                    else:
                        members[res][fid] = None
                        c += 1
                    count[res] = c
                    level = cap0[res] / c
                    base_level[res] = level
                    heappush(base_heap, (level, res))
                remaining[fid] = float(flow.size_bits)
                rate[fid] = 0.0
                since[fid] = now
                if tracing:
                    tracer.emit("flow.arrival", node=flow.src,
                                flow=fid, dst=flow.dst)
            else:
                fid = head[2]
                queue.pop()
                drained = remaining.pop(fid)
                delivered += drained
                if metering and drained:
                    delivered_counter.inc(drained)
                for res in resources_of[fid]:
                    del members[res][fid]
                    c = count[res] - 1
                    if c:
                        count[res] = c
                        level = cap0[res] / c
                        base_level[res] = level
                        heappush(base_heap, (level, res))
                    else:
                        del members[res], count[res], cap0[res]
                        del base_level[res]
                del resources_of[fid], rate[fid], since[fid]
                del arrival_seq[fid]
                flow = flow_by_id[fid]
                flow.n_cells = 1
                flow.record_delivery(now + self.base_rtt_s)
                if tracing:
                    tracer.emit("flow.completion", node=flow.dst, flow=fid)
            if metering:
                event_counter.inc(kind=event)
                active_gauge.set(len(resources_of), at=event_index)
            event_index += 1
            if len(base_heap) > len(base_level) + 64:
                # Superseded entries would be copied into (and popped
                # from) every filling below: rebuild from the live
                # levels, O(resources) amortized over ~16 events.
                base_heap = [(level, res)
                             for res, level in base_level.items()]
                heapq.heapify(base_heap)

            # Level filling from the persistent state: the same float
            # expressions as _fill_levels over the same operands, but
            # driven by a copy of the maintained base heap instead of
            # a full linear scan per saturation step.  Pops validate
            # against ``lvl`` (the live level per unsaturated
            # resource); saturated or emptied resources leave it, so
            # their stale heap entries mismatch and are skipped.
            unfrozen = len(resources_of)
            frozen: Dict[int, None] = {}
            changed: List[Tuple[int, int, float]] = []
            if unfrozen:
                heap = base_heap.copy()
                lvl = base_level.copy()
                # Per-resource working state [count, residual, base],
                # materialized lazily from the persistent index on
                # first touch — most fillings touch a fraction of the
                # live resources before every flow is frozen.
                state: Dict[Tuple, List] = {}
                while unfrozen:
                    level, res = heappop(heap)
                    if lvl.get(res) != level:
                        continue
                    del lvl[res]
                    touched: Dict[Tuple, None] = {}
                    for frozen_fid in members[res]:
                        if frozen_fid in frozen:
                            continue
                        frozen[frozen_fid] = None
                        unfrozen -= 1
                        old = rate[frozen_fid]
                        if level != old and not (
                            old > 0.0
                            # same relative epsilon as the reference
                            # loop  # lint: ignore[unit-literal]
                            and -1e-9 * old <= level - old <= 1e-9 * old
                        ):
                            changed.append(
                                (arrival_seq[frozen_fid], frozen_fid, level)
                            )
                        for other in resources_of[frozen_fid]:
                            if other not in lvl:
                                continue
                            s = state.get(other)
                            if s is None:
                                s = state[other] = [
                                    count[other], cap0[other], 0.0
                                ]
                            b = s[2]
                            if b != level:
                                s[1] = s[1] - (level - b) * s[0]
                                s[2] = level
                            c = s[0] - 1
                            if c:
                                s[0] = c
                                touched[other] = None
                            else:
                                del lvl[other]
                    # One push per touched resource, with its
                    # batch-final count — the value the reference
                    # scan would derive on its next pass.
                    for other in touched:
                        if other in lvl:
                            s = state[other]
                            next_level = level + s[1] / s[0]
                            lvl[other] = next_level
                            heappush(heap, (next_level, other))
            if profiling:
                t_mark = profiler.lap("recompute", t_mark)
            # Settle in arrival order (the reference iterates its
            # stored-rate dict, which is arrival-ordered), so the
            # drain accumulation below sums in the same order.
            changed.sort()
            advanced = 0.0
            for _, fid, new in changed:
                old = rate[fid]
                left = remaining[fid]
                drained = min(left, old * (now - since[fid]))
                left -= drained
                advanced += drained
                remaining[fid] = left
                rate[fid] = new
                since[fid] = now
                if new > 0:
                    queue.push(now + left / new, arrival_seq[fid], fid)
                else:
                    queue.invalidate(fid)
            delivered += advanced
            if metering and advanced:
                delivered_counter.inc(advanced)
            if profiling:
                t_mark = profiler.lap("settle", t_mark)
        return delivered, now, event_index
