"""A small max-min fair fluid simulator, independent of ``repro.sim``.

It is the benchmark's oracle for the ESN (Ideal) baselines: flows share
node transmit/receive capacity (and, with pods, pod uplink/downlink
capacity) max-min fairly, rates are recomputed by textbook progressive
filling at every arrival and completion, and time jumps to the next
event.  Nothing here is shared with :class:`repro.sim.FluidNetwork`,
so agreement between the two is evidence, not tautology.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

#: A flow as generated: (flow_id, src, dst, size_bits, arrival_s).
FlowSpec = Tuple[int, int, int, int, float]


def _resources(spec: FlowSpec, pod_map: Optional[Sequence[int]]):
    _fid, src, dst, _size, _arrival = spec
    res = [("tx", src), ("rx", dst)]
    if pod_map is not None and pod_map[src] != pod_map[dst]:
        res.append(("up", pod_map[src]))
        res.append(("down", pod_map[dst]))
    return res


def progressive_filling(active: Dict[int, list],
                        capacity: Dict[Tuple[str, int], float]
                        ) -> Dict[int, float]:
    """Max-min rates: raise every unfrozen rate together until some
    resource fills, freeze the flows crossing it, repeat."""
    rates = {fid: 0.0 for fid in active}
    unfrozen = set(active)
    left = {}
    for fid in active:
        for res in active[fid]:
            left[res] = capacity[res]
    while unfrozen:
        users: Dict[Tuple[str, int], int] = {}
        for fid in unfrozen:
            for res in active[fid]:
                users[res] = users.get(res, 0) + 1
        step = min(left[res] / n for res, n in users.items())
        full = set()
        for res, n in users.items():
            left[res] -= step * n
            if left[res] <= 1e-12 * capacity[res]:
                full.add(res)
        for fid in unfrozen:
            rates[fid] += step
        unfrozen = {fid for fid in unfrozen
                    if not any(res in full for res in active[fid])}
    return rates


def simulate(specs: Sequence[FlowSpec], node_bw: float, *,
             pod_map: Optional[Sequence[int]] = None,
             pod_bw: Optional[float] = None,
             base_rtt_s: float = 0.0) -> Dict[int, float]:
    """Completion time (s) of every flow; ``specs`` sorted by arrival."""
    capacity: Dict[Tuple[str, int], float] = {}
    routes = {}
    for spec in specs:
        routes[spec[0]] = _resources(spec, pod_map)
        for res in routes[spec[0]]:
            capacity[res] = node_bw if res[0] in ("tx", "rx") else pod_bw
    size = {spec[0]: float(spec[3]) for spec in specs}
    remaining: Dict[int, float] = {}
    active: Dict[int, list] = {}
    done: Dict[int, float] = {}
    now = 0.0
    i = 0
    inf = float("inf")
    while i < len(specs) or active:
        rates = progressive_filling(active, capacity)
        t_arrival = specs[i][4] if i < len(specs) else inf
        t_done, first = inf, None
        for fid in active:
            if rates[fid] > 0:
                t = now + remaining[fid] / rates[fid]
                if t < t_done:
                    t_done, first = t, fid
        t_next = min(t_arrival, t_done)
        for fid in active:
            remaining[fid] -= rates[fid] * (t_next - now)
        now = t_next
        if t_arrival <= t_done:
            spec = specs[i]
            i += 1
            active[spec[0]] = routes[spec[0]]
            remaining[spec[0]] = size[spec[0]]
            continue
        finished: List[int] = [first] + [
            fid for fid in active
            if fid != first and remaining[fid] <= 1e-9 * size[fid]
        ]
        for fid in finished:
            done[fid] = now + base_rtt_s
            del active[fid], remaining[fid]
    return done
