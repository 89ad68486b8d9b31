"""The perf-regression harness behind ``sirius-repro bench``.

Runs a pinned scenario matrix and writes a ``BENCH_<date>.json``
snapshot, so "did the simulator get slower?" is a diff between two
committed files rather than a guess:

* ``micro_epoch_loop`` — the cell simulator's epoch loop on a
  light all-to-all workload (many epochs, sparse per-epoch activity:
  the regime the vectorized engine's masks and idle-epoch skipping
  target), measured once per backend — ``reference`` and
  ``vectorized`` — so the recorded ratio tracks what the default
  engine is worth.  This scenario runs at the pinned 64-node scale even under
  ``--quick``: it is sub-second and its ratio feeds the live
  regression guard.
* ``scale_512`` / ``scale_4096`` — the vectorized backend at paper
  scale: a sparse workload spread over a pinned 10k-epoch budget,
  the runs EXPERIMENTS.md's Fig 9-at-scale recipe is built on.
  Skipped under ``--quick``.
* ``fluid_events[reference|incremental]`` — the max-min fluid
  simulator's event loop, once per backend on the same seeded
  workload.  Fluid records carry an explicit ``events_per_s`` field
  (``cells_per_s`` is pinned to zero — the fluid model has no cells),
  and the payload's ``fluid_speedup`` headline is the incremental /
  reference ``events_per_s`` ratio.
* ``sweep_e2e`` — an end-to-end load sweep through
  :class:`repro.perf.ParallelSweepRunner`, the shape the benchmark
  suite runs all day.

Each record carries ``scenario``, ``nodes``, ``epochs``, ``wall_s``,
``cells_per_s`` and ``peak_rss_kb`` (``ru_maxrss`` — the *process*
peak at the moment the scenario finished, monotone across records;
the 4096-node record is the meaningful one and is held under
:data:`VECTORIZED_4096_RSS_BUDGET_KB`).  The headline timing comes
from an *unprofiled* run; a second, profiled run of the micro scenario
contributes the per-phase wall-clock split (``repro.obs.profiling``)
without polluting the headline number.
"""

from __future__ import annotations

import json
import platform
import resource
import sys
import time
from typing import Dict, List, Optional

from repro.core.backend import BACKENDS
from repro.core.congestion import CongestionConfig
from repro.core.network import SiriusNetwork
from repro.obs.observation import Observation
from repro.obs.profiling import PhaseProfiler
from repro.perf.sweep import (
    FluidSweepJob,
    ParallelSweepRunner,
    SiriusSweepJob,
    run_fluid_job,
    run_sirius_job,
)
from repro.sim.fluid import FluidNetwork
from repro.units import KILOBYTE, MEGABYTE
from repro.workload import FlowWorkload, WorkloadConfig

__all__ = [
    "BENCH_SCHEMA",
    "BENCH_SCHEMA_V1",
    "BENCH_SCHEMA_V2",
    "BENCH_SCHEMA_V3",
    "VECTORIZED_4096_RSS_BUDGET_KB",
    "run_bench",
    "validate_payload",
    "write_payload",
]

#: Schema tag of the emitted JSON; bump on incompatible layout changes.
BENCH_SCHEMA = "sirius-bench/4"
#: Previous tags, still accepted by :func:`validate_payload` so
#: committed baselines keep validating (v1–v3 also measured the
#: since-removed ``fast`` backend and its ``micro_speedup``; v1 lacks
#: the vectorized scenarios; v2 has a single ``fluid_events`` record
#: whose ``cells_per_s`` counted completed flows and no
#: ``events_per_s``).
BENCH_SCHEMA_V3 = "sirius-bench/3"
BENCH_SCHEMA_V2 = "sirius-bench/2"
BENCH_SCHEMA_V1 = "sirius-bench/1"

#: Pinned scenario scale (full / --quick).
MICRO_NODES, MICRO_NODES_QUICK = 64, 16
MICRO_GRATING, MICRO_GRATING_QUICK = 8, 4
MICRO_FLOWS, MICRO_FLOWS_QUICK = 300, 80
#: Sparse regime: arrivals far apart, so most epochs touch a handful of
#: nodes — the all-pairs reference loop pays the full O(n) scan per
#: epoch while the vectorized engine pays only for live state.
MICRO_LOAD = 0.002
MICRO_MEAN_FLOW_BITS = 20 * KILOBYTE
#: Fluid matrix scale: large enough that the O(steps × resources)
#: reference rebuild and the O(touched) incremental engine separate
#: clearly (the ``fluid_speedup`` acceptance ratio is measured here).
#: ``--quick`` shrinks to a sub-100ms workload.
FLUID_NODES, FLUID_FLOWS = 512, 800
FLUID_NODES_QUICK, FLUID_FLOWS_QUICK = 16, 60
#: The fluid event-loop strategies, ratio-denominator first.
FLUID_BACKENDS_BENCH = ("reference", "incremental")
SWEEP_LOADS = (0.1, 0.25, 0.5)
SWEEP_FLOWS, SWEEP_FLOWS_QUICK = 400, 80

#: Paper-scale scenarios: (nodes, grating ports, flows), vectorized only.
SCALE_SCENARIOS = ((512, 8, 1000), (4096, 64, 2000))
#: Epoch budget of the scale scenarios; arrivals are spread over ~95 %
#: of it, so the runs exercise the long sparse regime end to end.
SCALE_EPOCHS = 10_000
#: Memory budget (``ru_maxrss`` kilobytes) for the 4096-node vectorized
#: scenario.  The slab representation keeps per-node state in a handful
#: of numpy arrays, so a whole-process peak well under a gigabyte —
#: measured ~0.5 GB including every earlier scenario — is the contract;
#: a per-node-object regression blows past it immediately.
VECTORIZED_4096_RSS_BUDGET_KB = 786_432


def _peak_rss_kb() -> int:
    """Peak resident set size of this process, in kilobytes (Linux)."""
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def _micro_workload(n_nodes: int, n_flows: int, bandwidth: float):
    return FlowWorkload(WorkloadConfig(
        n_nodes=n_nodes,
        load=MICRO_LOAD,
        node_bandwidth_bps=bandwidth,
        mean_flow_bits=MICRO_MEAN_FLOW_BITS,
        truncation_bits=max(2 * MEGABYTE, 4 * MICRO_MEAN_FLOW_BITS),
        seed=7,
    )).generate(n_flows)


def _record(scenario: str, nodes: int, epochs: int, wall_s: float,
            cells: int, **extra) -> Dict[str, object]:
    record: Dict[str, object] = {
        "scenario": scenario,
        "nodes": nodes,
        "epochs": epochs,
        "wall_s": wall_s,
        "cells_per_s": (cells / wall_s) if wall_s > 0 else 0.0,
        "peak_rss_kb": _peak_rss_kb(),
    }
    record.update(extra)
    return record


def _bench_micro(quick: bool) -> List[Dict[str, object]]:
    # Pinned 64-node scale regardless of --quick (see module docstring).
    nodes, grating, n_flows = MICRO_NODES, MICRO_GRATING, MICRO_FLOWS

    records = []
    for variant in BACKENDS:
        # Best-of-3: the recorded ratios feed regression guards, so
        # scheduler noise must not contaminate the snapshot.
        wall = float("inf")
        for _ in range(3):
            net = SiriusNetwork(nodes, grating, uplink_multiplier=1.5,
                                config=CongestionConfig(), seed=1,
                                backend=variant)
            flows = _micro_workload(nodes, n_flows,
                                    net.reference_node_bandwidth_bps)
            t0 = time.perf_counter()
            result = net.run(flows)
            wall = min(wall, time.perf_counter() - t0)
        records.append(_record(
            f"micro_epoch_loop[{variant}]", nodes, result.epochs, wall,
            result.delivered_cells, backend=variant,
        ))

    # Separate profiled pass (default engine): phase totals without
    # contaminating the headline wall-clock above.
    profiler = PhaseProfiler()
    net = SiriusNetwork(nodes, grating, uplink_multiplier=1.5,
                        config=CongestionConfig(), seed=1)
    flows = _micro_workload(nodes, n_flows,
                            net.reference_node_bandwidth_bps)
    net.run(flows, obs=Observation(profiler=profiler))
    profiled = next(r for r in records if r["backend"] == net.backend)
    profiled["phase_totals_s"] = {
        phase: round(seconds, 6)
        for phase, seconds in sorted(profiler.totals_s.items())
    }
    return records


def _bench_scale() -> List[Dict[str, object]]:
    records = []
    for nodes, grating, n_flows in SCALE_SCENARIOS:
        net = SiriusNetwork(nodes, grating, uplink_multiplier=1.5,
                            config=CongestionConfig(), seed=1,
                            backend="vectorized")
        bandwidth = net.reference_node_bandwidth_bps
        # Spread arrivals over ~95 % of the epoch budget: the load that
        # makes n_flows Poisson arrivals span that window (the paper's
        # load definition inverted twice).
        span_s = 0.95 * SCALE_EPOCHS * net.schedule.epoch_duration_s
        load = (n_flows / span_s) * MICRO_MEAN_FLOW_BITS / (
            nodes * bandwidth
        )
        flows = FlowWorkload(WorkloadConfig(
            n_nodes=nodes, load=load, node_bandwidth_bps=bandwidth,
            mean_flow_bits=MICRO_MEAN_FLOW_BITS,
            truncation_bits=max(2 * MEGABYTE, 4 * MICRO_MEAN_FLOW_BITS),
            seed=7,
        )).generate(n_flows)
        t0 = time.perf_counter()
        result = net.run(flows, max_epochs=SCALE_EPOCHS)
        wall = time.perf_counter() - t0
        records.append(_record(
            f"scale_{nodes}[vectorized]", nodes, result.epochs, wall,
            result.delivered_cells, backend="vectorized",
            epochs_per_s=round(result.epochs / wall, 1) if wall else 0.0,
        ))
    return records


def _bench_fluid(quick: bool) -> List[Dict[str, object]]:
    nodes = FLUID_NODES_QUICK if quick else FLUID_NODES
    n_flows = FLUID_FLOWS_QUICK if quick else FLUID_FLOWS
    bandwidth = 4e11

    def workload():
        # Fresh Flow objects per run: FluidNetwork.run stamps
        # completions into the caller's list.
        return FlowWorkload(WorkloadConfig(
            n_nodes=nodes, load=0.5, node_bandwidth_bps=bandwidth,
            mean_flow_bits=100 * KILOBYTE, truncation_bits=2 * MEGABYTE,
            seed=7,
        )).generate(n_flows)

    records = []
    for variant in FLUID_BACKENDS_BENCH:
        # Best-of-3, mirroring the micro matrix: the recorded
        # events_per_s pair feeds the fluid_speedup headline.
        wall = float("inf")
        for _ in range(3):
            net = FluidNetwork(nodes, bandwidth, backend=variant)
            flows = workload()
            t0 = time.perf_counter()
            result = net.run(flows)
            wall = min(wall, time.perf_counter() - t0)
        # The fluid model has no cells — cells_per_s is pinned to 0
        # and throughput lives in the explicit events_per_s field.
        records.append(_record(
            f"fluid_events[{variant}]", nodes, 0, wall, 0,
            backend=variant, events=result.events,
            events_per_s=round(result.events / wall, 1) if wall else 0.0,
            completed_flows=len(result.completed_flows),
        ))
    return records


def _bench_sweep(quick: bool, workers: Optional[int]) -> Dict[str, object]:
    nodes = MICRO_NODES_QUICK if quick else MICRO_NODES
    grating = MICRO_GRATING_QUICK if quick else MICRO_GRATING
    n_flows = SWEEP_FLOWS_QUICK if quick else SWEEP_FLOWS
    jobs = [
        SiriusSweepJob(
            n_nodes=nodes, grating_ports=grating, load=load,
            n_flows=n_flows, label=f"load={load}",
        )
        for load in SWEEP_LOADS
    ]
    runner = ParallelSweepRunner(workers)
    t0 = time.perf_counter()
    points = runner.run_sirius(jobs)
    wall = time.perf_counter() - t0
    epochs = sum(p.epochs for p in points)
    cells = sum(p.delivered_cells for p in points)
    return _record("sweep_e2e", nodes, epochs, wall, cells,
                   jobs=len(jobs), workers=runner.workers,
                   goodputs=[round(p.normalized_goodput, 4) for p in points])


def run_bench(*, quick: bool = False,
              workers: Optional[int] = None) -> Dict[str, object]:
    """Run the pinned scenario matrix; returns the JSON-ready payload."""
    records: List[Dict[str, object]] = []
    records.extend(_bench_micro(quick))
    records.extend(_bench_fluid(quick))
    records.append(_bench_sweep(quick, workers))
    if not quick:
        records.extend(_bench_scale())
    ref = next(r for r in records
               if r["scenario"] == "micro_epoch_loop[reference]")
    vec = next(r for r in records
               if r["scenario"] == "micro_epoch_loop[vectorized]")
    fluid_ref = next(r for r in records
                     if r["scenario"] == "fluid_events[reference]")
    fluid_inc = next(r for r in records
                     if r["scenario"] == "fluid_events[incremental]")
    payload: Dict[str, object] = {
        "schema": BENCH_SCHEMA,
        "quick": quick,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "vectorized_speedup": (
            round(vec["cells_per_s"] / ref["cells_per_s"], 3)
            if ref["cells_per_s"] else 0.0
        ),
        "fluid_speedup": (
            round(fluid_inc["events_per_s"] / fluid_ref["events_per_s"], 3)
            if fluid_ref["events_per_s"] else 0.0
        ),
        "records": records,
    }
    validate_payload(payload)
    return payload


_RECORD_FIELDS = ("scenario", "nodes", "epochs", "wall_s", "cells_per_s",
                  "peak_rss_kb")


def validate_payload(payload: Dict[str, object]) -> None:
    """Raise ``ValueError`` unless ``payload`` matches the bench schema.

    Shared by the CLI (before writing) and the tier-1 smoke test
    (on both a fresh ``--quick`` run and the committed baseline).
    """
    schema = payload.get("schema")
    accepted = (BENCH_SCHEMA, BENCH_SCHEMA_V3, BENCH_SCHEMA_V2,
                BENCH_SCHEMA_V1)
    if schema not in accepted:
        raise ValueError(
            f"schema mismatch: {schema!r} is not one of {accepted}"
        )
    records = payload.get("records")
    if not isinstance(records, list) or not records:
        raise ValueError("payload has no records")
    for record in records:
        for key in _RECORD_FIELDS:
            if key not in record:
                raise ValueError(
                    f"record {record.get('scenario')!r} missing {key!r}"
                )
        if record["wall_s"] < 0 or record["cells_per_s"] < 0:
            raise ValueError(
                f"record {record['scenario']!r} has negative timings"
            )
        if record["peak_rss_kb"] <= 0:
            raise ValueError(
                f"record {record['scenario']!r} has no peak RSS"
            )
    scenarios = [r["scenario"] for r in records]
    split_fluid = schema in (BENCH_SCHEMA, BENCH_SCHEMA_V3)
    has_vectorized = schema != BENCH_SCHEMA_V1
    required = ["micro_epoch_loop[reference]", "sweep_e2e"]
    if schema != BENCH_SCHEMA:
        required.append("micro_epoch_loop[fast]")
    if split_fluid:
        required.extend(["fluid_events[reference]",
                         "fluid_events[incremental]"])
    else:
        required.append("fluid_events")
    if has_vectorized:
        required.append("micro_epoch_loop[vectorized]")
        if not payload.get("quick"):
            required.extend(["scale_512[vectorized]",
                             "scale_4096[vectorized]"])
    for name in required:
        if name not in scenarios:
            raise ValueError(f"missing scenario {name!r}")
    if schema != BENCH_SCHEMA and "micro_speedup" not in payload:
        raise ValueError("payload missing micro_speedup")
    if split_fluid:
        for record in records:
            if not str(record["scenario"]).startswith("fluid_events["):
                continue
            if record.get("events_per_s", -1.0) < 0:
                raise ValueError(
                    f"record {record['scenario']!r} missing events_per_s"
                )
        if "fluid_speedup" not in payload:
            raise ValueError("payload missing fluid_speedup")
    if has_vectorized:
        if "vectorized_speedup" not in payload:
            raise ValueError("payload missing vectorized_speedup")
        for record in records:
            if record["scenario"] != "scale_4096[vectorized]":
                continue
            if record["peak_rss_kb"] > VECTORIZED_4096_RSS_BUDGET_KB:
                raise ValueError(
                    "scale_4096[vectorized] peak RSS "
                    f"{record['peak_rss_kb']} KB exceeds the "
                    f"{VECTORIZED_4096_RSS_BUDGET_KB} KB slab budget"
                )


def write_payload(payload: Dict[str, object], path: str) -> str:
    """Write the payload as pretty JSON; returns the path."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=False)
        fh.write("\n")
    return path


def main_text(payload: Dict[str, object]) -> str:
    """Human-readable summary printed by the CLI."""
    lines = [f"bench schema {payload['schema']} "
             f"(python {payload['python']})"]
    for record in payload["records"]:
        rate = (f"events/s={record['events_per_s']:,.0f}"
                if "events_per_s" in record
                else f"cells/s={record['cells_per_s']:,.0f}")
        lines.append(
            f"  {record['scenario']:<28} nodes={record['nodes']:<4} "
            f"epochs={record['epochs']:<6} wall={record['wall_s']:.3f}s "
            f"{rate} "
            f"rss={record['peak_rss_kb']}KB"
        )
    if "vectorized_speedup" in payload:
        lines.append(f"  micro speedup (vectorized/reference): "
                     f"{payload['vectorized_speedup']}x")
    if "fluid_speedup" in payload:
        lines.append(f"  fluid speedup (incremental/reference): "
                     f"{payload['fluid_speedup']}x")
    return "\n".join(lines)


if __name__ == "__main__":
    out = run_bench(quick="--quick" in sys.argv)
    print(main_text(out))
