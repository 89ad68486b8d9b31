"""Output checks that do not trust the program's own bookkeeping.

Each check compares a result with the generated inputs, or with a
property the model must have, and returns a list of human-readable
problems (empty when the result passes).  Inputs are snapshots taken
right after generation, before the simulator touched the flows:
``FlowSpec = (flow_id, src, dst, size_bits, arrival_s)``.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, List, Optional, Sequence

from maxmin import FlowSpec, simulate

#: Problems reported per check before the list is cut short.
_MAX_REPORTED = 3


def snapshot(flows) -> List[FlowSpec]:
    """The generated inputs, frozen before any simulator runs."""
    return [(f.flow_id, f.src, f.dst, f.size_bits, f.arrival_time)
            for f in flows]


def _completions(result) -> Dict[int, Optional[float]]:
    return {f.flow_id: f.completion_time for f in result.flows}


def _cut(problems: List[str], name: str) -> List[str]:
    if len(problems) > _MAX_REPORTED:
        extra = len(problems) - _MAX_REPORTED
        problems = problems[:_MAX_REPORTED] + [f"{name}: {extra} more"]
    return problems


def delivered_equals_offered(specs: Sequence[FlowSpec], result, *,
                             rel_tol: float = 0.0) -> List[str]:
    """With no failures every generated bit is delivered, exactly for
    the cell simulator (whole-bit cells) and to ``rel_tol`` for the
    fluid one (float drain arithmetic)."""
    offered = float(sum(spec[3] for spec in specs))
    delivered = result.delivered_bits
    if abs(delivered - offered) > rel_tol * offered:
        return [f"delivered_bits {delivered!r} != generated {offered!r}"]
    return []


def cell_fct_bounds(specs: Sequence[FlowSpec], result, *, n_nodes: int,
                    max_pair_cells: int, payload_bits: int,
                    epoch_s: float) -> List[str]:
    """Every cell-simulator flow completes, and no sooner than physics
    allows: a source puts at most ``max_pair_cells`` cells per epoch on
    each of its ``n_nodes - 1`` peers, cells land at the start of the
    epoch after the one they left in, and a flow admitted in epoch
    ``e`` sends nothing before ``e``.  So a flow of ``c`` cells cannot
    finish before ``(e + ceil(c / per_epoch)) * epoch_s`` — in
    particular not before its arrival epoch has ended."""
    per_epoch = (n_nodes - 1) * max_pair_cells
    done = _completions(result)
    problems = []
    for fid, _src, _dst, size, arrival in specs:
        finished = done.get(fid)
        if finished is None:
            problems.append(f"flow {fid} never completed")
            continue
        cells = max(1, math.ceil(size / payload_bits))
        # The simulator admits a flow in the epoch ``e`` with
        # ``e * epoch_s <= arrival < (e + 1) * epoch_s``; correct the
        # division's rounding to that same product test.
        first_epoch = math.floor(arrival / epoch_s)
        if arrival < first_epoch * epoch_s:
            first_epoch -= 1
        elif arrival >= (first_epoch + 1) * epoch_s:
            first_epoch += 1
        earliest = (first_epoch + math.ceil(cells / per_epoch)) * epoch_s
        if finished < earliest * (1 - 1e-12):
            problems.append(
                f"flow {fid} ({cells} cells, arrived {arrival:.9g}s) "
                f"completed at {finished:.9g}s, before {earliest:.9g}s")
    return _cut(problems, "cell_fct_bounds")


def fluid_fct_bounds(specs: Sequence[FlowSpec], result, *,
                     node_bw: float) -> List[str]:
    """Every fluid flow completes no faster than ``size / node_bw``."""
    done = _completions(result)
    problems = []
    for fid, _src, _dst, size, arrival in specs:
        finished = done.get(fid)
        if finished is None:
            problems.append(f"flow {fid} never completed")
            continue
        if finished - arrival < (size / node_bw) * (1 - 1e-9):
            problems.append(
                f"flow {fid} took {finished - arrival:.9g}s for {size} "
                f"bits, under size/bandwidth {size / node_bw:.9g}s")
    return _cut(problems, "fluid_fct_bounds")


def fluid_capacity(specs: Sequence[FlowSpec], result, *, node_bw: float,
                   pod_map: Optional[Sequence[int]] = None,
                   pod_bw: Optional[float] = None) -> List[str]:
    """Each node (sending and receiving) and each pod (up and down)
    carried no more bits than its bandwidth allows between the first
    arrival and the last completion of the flows crossing it."""
    done = _completions(result)
    usage: Dict[tuple, list] = {}
    for fid, src, dst, size, arrival in specs:
        finished = done.get(fid)
        if finished is None:
            continue  # fluid_fct_bounds reports it
        keys = [("tx", src), ("rx", dst)]
        if pod_map is not None and pod_map[src] != pod_map[dst]:
            keys += [("up", pod_map[src]), ("down", pod_map[dst])]
        for key in keys:
            entry = usage.setdefault(key, [0.0, arrival, finished])
            entry[0] += size
            entry[1] = min(entry[1], arrival)
            entry[2] = max(entry[2], finished)
    problems = []
    for key in sorted(usage):
        bits, first, last = usage[key]
        bw = node_bw if key[0] in ("tx", "rx") else pod_bw
        if bits > bw * (last - first) * (1 + 1e-9):
            problems.append(
                f"{key[0]} {key[1]} carried {bits:.6g} bits in "
                f"{last - first:.6g}s, over {bw:.6g} b/s")
    return _cut(problems, "fluid_capacity")


def matches_maxmin_oracle(specs: Sequence[FlowSpec], result, *,
                          node_bw: float,
                          pod_map: Optional[Sequence[int]] = None,
                          pod_bw: Optional[float] = None,
                          base_rtt_s: float,
                          rel_tol: float = 1e-6) -> List[str]:
    """FluidNetwork's flow completion times agree with the benchmark's
    own progressive-filling simulator to ``rel_tol`` of each FCT."""
    expected = simulate(specs, node_bw, pod_map=pod_map, pod_bw=pod_bw,
                        base_rtt_s=base_rtt_s)
    done = _completions(result)
    problems = []
    for fid, _src, _dst, _size, arrival in specs:
        got, want = done.get(fid), expected.get(fid)
        if got is None or want is None:
            problems.append(f"flow {fid}: completion {got!r} vs oracle "
                            f"{want!r}")
            continue
        if abs(got - want) > rel_tol * (want - arrival):
            problems.append(f"flow {fid}: completed at {got!r}, oracle "
                            f"says {want!r}")
    return _cut(problems, "matches_maxmin_oracle")


def _flow_record(flow) -> tuple:
    return tuple(getattr(flow, field.name)
                 for field in dataclasses.fields(flow))


def results_identical(result, oracle) -> List[str]:
    """Two SimulationResults agree field for field, flows included."""
    problems = []
    for field in dataclasses.fields(result):
        mine = getattr(result, field.name)
        theirs = getattr(oracle, field.name)
        if field.name == "flows":
            if len(mine) != len(theirs):
                problems.append(f"flows: {len(mine)} vs {len(theirs)}")
                continue
            for a, b in zip(mine, theirs):
                if _flow_record(a) != _flow_record(b):
                    problems.append(f"flow {a.flow_id}: {_flow_record(a)} "
                                    f"vs reference {_flow_record(b)}")
        elif mine != theirs:
            problems.append(f"{field.name}: {mine!r} vs reference "
                            f"{theirs!r}")
    return _cut(problems, "results_identical")


def failure_accounting(specs: Sequence[FlowSpec], result, *,
                       failed_node: int) -> List[str]:
    """Flows that never touch the failed rack complete, and the flows
    left incomplete are exactly the ones the simulator counts as
    failed."""
    done = _completions(result)
    problems = []
    for fid, src, dst, _size, _arrival in specs:
        if failed_node not in (src, dst) and done.get(fid) is None:
            problems.append(f"flow {fid} ({src}->{dst}) avoids rack "
                            f"{failed_node} but never completed")
    incomplete = sum(1 for spec in specs if done.get(spec[0]) is None)
    if incomplete != result.failed_flows:
        problems.append(f"{incomplete} flows incomplete but failed_flows="
                        f"{result.failed_flows}")
    return _cut(problems, "failure_accounting")


def completes_after_recovery(specs: Sequence[FlowSpec], result, *,
                             announced_s: float) -> List[str]:
    """Every flow arriving once the recovery is announced completes."""
    done = _completions(result)
    late = [spec for spec in specs if spec[4] >= announced_s]
    lost = [spec for spec in late if done.get(spec[0]) is None]
    if not late:
        return [f"no flow arrives after the recovery at {announced_s}s"]
    if lost:
        dsts = sorted({spec[2] for spec in lost})
        return [f"{len(lost)} of {len(late)} flows arriving after the "
                f"recovery never complete (destinations {dsts})"]
    return []
