"""The benchmark's workloads: simulation points driven through the
program's public API with its default engines.

A point is one operation: build the simulator and its input, run it,
check the output.  Every point of a workload is run once per round.
Inputs come from the benchmark's ``--seed`` through :func:`point_seed`
(the failure point's excepted: see ``FAILURE_SEED``); the program only
receives the generated flows.

The program is imported by ``run.py`` inside the timed set-up, so this
module takes the imported package as an argument instead of importing
it at load time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import checks

# Fig 9 at the figure suite's scale (benchmarks/_harness.py).
FIG9_NODES = 32
FIG9_GRATING = 8
FIG9_FLOWS = 1500
FIG9_MULTIPLIER = 1.5
FIG9_POD = 8
FIG9_OVERSUBSCRIPTION = 3.0

# §4.5: the failure point's inputs are fixed, not drawn from --seed, so
# that its known fault (flows to a recovered rack are never delivered)
# fails it on every run and the failed share never moves.
FAILURE_SEED = 2
FAILURE_LOAD = 0.5
FAILED_RACK = 5
FAIL_EPOCH = 50
RECOVER_EPOCH = 120
DETECTION_EPOCHS = 3

# The scale_4096 recipe of EXPERIMENTS.md.
SPARSE_NODES = 4096
SPARSE_GRATING = 64
SPARSE_FLOWS = 2000
SPARSE_EPOCH_BUDGET = 10_000
# Its reduced copy, re-run on the reference engine.
REDUCED_NODES = 256
REDUCED_GRATING = 16
REDUCED_FLOWS = 150
REDUCED_EPOCH_BUDGET = 500

# The fluid oracle's reduced instance: dense enough that most events
# change several rates.
ORACLE_NODES = 16
ORACLE_POD = 4
ORACLE_FLOWS = 240
ORACLE_LOAD = 0.9


@dataclass
class Built:
    """A point ready to run: simulator, flows and ``run`` arguments."""

    sim: object
    flows: list
    run_kwargs: dict = field(default_factory=dict)
    facts: dict = field(default_factory=dict)


@dataclass
class Point:
    """One operation of a workload."""

    label: str
    build: Callable[..., Built]
    #: Checks of every run of the point, from its inputs and the model.
    check: Callable[..., Dict[str, List[str]]]
    #: A costlier check against an independent implementation, run in
    #: the first round only.
    cross_check: Optional[Callable[..., Dict[str, List[str]]]] = None
    #: A check that fails today because of a named program fault; the
    #: point then counts as failed but the run stays correct.
    known_fault: Optional[str] = None


def _flows(repro, n_nodes: int, load: float, bandwidth: float, seed: int,
           n_flows: int, mean_bits: float):
    """The §7 flow mix: Pareto 1.05 sizes, Poisson arrivals."""
    config = repro.WorkloadConfig(
        n_nodes=n_nodes, load=load, node_bandwidth_bps=bandwidth,
        mean_flow_bits=mean_bits,
        truncation_bits=max(2 * repro.units.MEGABYTE, 4 * mean_bits),
        seed=seed,
    )
    return repro.FlowWorkload(config).generate(n_flows)


# -- cell simulator -----------------------------------------------------
def _cell_network(repro, n_nodes, grating, *, ideal=False,
                  track_reorder=False, backend=None):
    kwargs = {} if backend is None else {"backend": backend}
    return repro.SiriusNetwork(
        n_nodes, grating, uplink_multiplier=FIG9_MULTIPLIER,
        config=repro.CongestionConfig(queue_threshold=4, ideal=ideal),
        track_reorder=track_reorder, seed=1, **kwargs)


def _cell_facts(net) -> dict:
    return {
        "n_nodes": net.topology.n_nodes,
        "max_pair_cells": math.ceil(net.multiplier),
        "payload_bits": net.timing.payload_bits,
        "epoch_s": net.schedule.epoch_duration_s,
    }


def _cell_bounds(specs, result, facts) -> List[str]:
    return checks.cell_fct_bounds(
        specs, result, n_nodes=facts["n_nodes"],
        max_pair_cells=facts["max_pair_cells"],
        payload_bits=facts["payload_bits"], epoch_s=facts["epoch_s"])


def fig9_point(load: float, *, ideal: bool = False,
               track_reorder: bool = False, cross_check: bool = False):
    def build(repro, seed, spans):
        with spans.span("construct"):
            net = _cell_network(repro, FIG9_NODES, FIG9_GRATING,
                                ideal=ideal, track_reorder=track_reorder)
        with spans.span("generate"):
            flows = _flows(repro, FIG9_NODES, load,
                           net.reference_node_bandwidth_bps, seed,
                           FIG9_FLOWS, 100 * repro.units.KILOBYTE)
        return Built(net, flows, facts=_cell_facts(net))

    def check(repro, specs, result, built, seed):
        return {
            "delivered_equals_offered": checks.delivered_equals_offered(
                specs, result),
            "cell_fct_bounds": _cell_bounds(specs, result, built.facts),
        }

    def reference_engine(repro, result, seed):
        """The same point re-run on the reference engine."""
        net = _cell_network(repro, FIG9_NODES, FIG9_GRATING, ideal=ideal,
                            track_reorder=track_reorder,
                            backend="reference")
        flows = _flows(repro, FIG9_NODES, load,
                       net.reference_node_bandwidth_bps, seed, FIG9_FLOWS,
                       100 * repro.units.KILOBYTE)
        return {"results_identical":
                checks.results_identical(result, net.run(flows))}

    kind = "ideal" if ideal else "drrm"
    label = f"{kind}_{load}" + ("_reorder" if track_reorder else "")
    return Point(label, build, check,
                 cross_check=reference_engine if cross_check else None)


def failure_point():
    def build(repro, seed, spans):
        with spans.span("construct"):
            net = _cell_network(repro, FIG9_NODES, FIG9_GRATING)
            plan = repro.FailurePlan.single_failure(
                FAILED_RACK, FAIL_EPOCH, recover_at=RECOVER_EPOCH)
        with spans.span("generate"):
            flows = _flows(repro, FIG9_NODES, FAILURE_LOAD,
                           net.reference_node_bandwidth_bps, FAILURE_SEED,
                           FIG9_FLOWS, 100 * repro.units.KILOBYTE)
        facts = _cell_facts(net)
        return Built(net, flows,
                     run_kwargs={"failure_plan": plan,
                                 "detection_epochs": DETECTION_EPOCHS},
                     facts=facts)

    def check(repro, specs, result, built, seed):
        announced = (RECOVER_EPOCH + DETECTION_EPOCHS) * built.facts[
            "epoch_s"]
        survivors = [s for s in specs if FAILED_RACK not in (s[1], s[2])]
        return {
            "failure_accounting": checks.failure_accounting(
                specs, result, failed_node=FAILED_RACK),
            "cell_fct_bounds": _cell_bounds(survivors, result, built.facts),
            "completes_after_recovery": checks.completes_after_recovery(
                specs, result, announced_s=announced),
        }

    return Point(f"failure_{FAILURE_LOAD}", build, check,
                 known_fault="completes_after_recovery")


def _sparse_flows(repro, net, n_nodes, n_flows, budget, seed):
    """Arrivals spread over ~95 % of the epoch budget (scale_4096)."""
    bandwidth = net.reference_node_bandwidth_bps
    mean_bits = 20 * repro.units.KILOBYTE
    span_s = 0.95 * budget * net.schedule.epoch_duration_s
    load = (n_flows / span_s) * mean_bits / (n_nodes * bandwidth)
    return _flows(repro, n_nodes, load, bandwidth, seed, n_flows, mean_bits)


def sparse_point():
    def build(repro, seed, spans):
        with spans.span("construct"):
            net = repro.SiriusNetwork(SPARSE_NODES, SPARSE_GRATING,
                                      uplink_multiplier=FIG9_MULTIPLIER,
                                      config=repro.CongestionConfig(),
                                      seed=1)
        with spans.span("generate"):
            flows = _sparse_flows(repro, net, SPARSE_NODES, SPARSE_FLOWS,
                                  SPARSE_EPOCH_BUDGET, seed)
        return Built(net, flows, facts=_cell_facts(net))

    def check(repro, specs, result, built, seed):
        return {
            "delivered_equals_offered": checks.delivered_equals_offered(
                specs, result),
            "cell_fct_bounds": _cell_bounds(specs, result, built.facts),
        }

    def reference_engine(repro, result, seed):
        return {"results_identical": _reduced_cross_check(repro, seed)}

    return Point("sparse_4096", build, check, cross_check=reference_engine)


def _reduced_cross_check(repro, seed) -> List[str]:
    """The sparse recipe at reduced scale on the default and the
    reference engine: the two results must agree field for field."""
    results = []
    for backend in (None, "reference"):
        kwargs = {} if backend is None else {"backend": backend}
        net = repro.SiriusNetwork(REDUCED_NODES, REDUCED_GRATING,
                                  uplink_multiplier=FIG9_MULTIPLIER,
                                  config=repro.CongestionConfig(), seed=1,
                                  **kwargs)
        flows = _sparse_flows(repro, net, REDUCED_NODES, REDUCED_FLOWS,
                              REDUCED_EPOCH_BUDGET, seed)
        results.append(net.run(flows))
    return checks.results_identical(*results)


# -- fluid simulator ----------------------------------------------------
def _fluid_network(repro, bandwidth, n_nodes, pod, oversubscription):
    if oversubscription is None:
        return repro.FluidNetwork(n_nodes, bandwidth)
    return repro.FluidNetwork(
        n_nodes, bandwidth, pod_map=repro.pod_map_for(n_nodes, pod),
        pod_bandwidth_bps=pod * bandwidth / oversubscription)


def _reference_bandwidth(repro) -> float:
    """The ESN-equivalent node bandwidth of the Sirius network, as the
    figure suite derives it."""
    return repro.SiriusNetwork(
        FIG9_NODES, FIG9_GRATING, uplink_multiplier=1.0,
    ).reference_node_bandwidth_bps


def esn_point(load: float, oversubscription: Optional[float] = None):
    def build(repro, seed, spans):
        with spans.span("construct"):
            bandwidth = _reference_bandwidth(repro)
            net = _fluid_network(repro, bandwidth, FIG9_NODES, FIG9_POD,
                                 oversubscription)
        with spans.span("generate"):
            flows = _flows(repro, FIG9_NODES, load, bandwidth, seed,
                           FIG9_FLOWS, 100 * repro.units.KILOBYTE)
        return Built(net, flows, facts={"bandwidth": bandwidth})

    def check(repro, specs, result, built, seed):
        bw = built.facts["bandwidth"]
        pods = (None if oversubscription is None
                else repro.pod_map_for(FIG9_NODES, FIG9_POD))
        pod_bw = (None if oversubscription is None
                  else FIG9_POD * bw / oversubscription)
        return {
            "delivered_equals_offered": checks.delivered_equals_offered(
                specs, result, rel_tol=1e-9),
            "fluid_fct_bounds": checks.fluid_fct_bounds(
                specs, result, node_bw=bw),
            "fluid_capacity": checks.fluid_capacity(
                specs, result, node_bw=bw, pod_map=pods, pod_bw=pod_bw),
        }

    def maxmin_oracle(repro, result, seed):
        return {"matches_maxmin_oracle": _oracle_check(
            repro, _reference_bandwidth(repro), seed, oversubscription)}

    kind = "esn" if oversubscription is None else "osub"
    return Point(f"{kind}_{load}", build, check,
                 cross_check=maxmin_oracle if load == 0.25 else None)


def _oracle_check(repro, bandwidth, seed, oversubscription) -> List[str]:
    """FluidNetwork against the benchmark's own max-min simulator, on a
    reduced instance (with pods when the point has them)."""
    net = _fluid_network(repro, bandwidth, ORACLE_NODES, ORACLE_POD,
                         oversubscription)
    flows = _flows(repro, ORACLE_NODES, ORACLE_LOAD, bandwidth, seed,
                   ORACLE_FLOWS, 100 * repro.units.KILOBYTE)
    specs = checks.snapshot(flows)
    result = net.run(flows)
    pods = net.pod_map
    pod_bw = net.pod_bandwidth_bps
    return checks.matches_maxmin_oracle(
        specs, result, node_bw=bandwidth, pod_map=pods, pod_bw=pod_bw,
        base_rtt_s=net.base_rtt_s)


def point_seed(seed: int, round_index: int, index: int) -> int:
    """Workload seed of point ``index`` in round ``round_index`` of the
    run with ``--seed`` ``seed``.

    Every point of every round gets its own flow mix: Pareto(1.05)
    sizes make the work of one point vary by 15-30 % between seeds,
    most where a few huge flows keep nodes busy (sparse_4096) or the
    network is overloaded (ESN-OSUB at load 1), and the median over
    rounds evens that out.  The sequence is fixed by ``seed``; how many
    rounds of it a run gets through depends on the host's speed.
    """
    return seed * 10_000 + round_index * 100 + index


WORKLOADS: Dict[str, List[Point]] = {
    "fig9_sirius": [
        fig9_point(0.25, cross_check=True),
        fig9_point(0.5),
        fig9_point(1.0, track_reorder=True),
        fig9_point(0.5, ideal=True),
        failure_point(),
    ],
    "sparse_4096": [sparse_point()],
    "fig9_esn": [
        esn_point(0.25), esn_point(0.5), esn_point(1.0),
        esn_point(0.25, FIG9_OVERSUBSCRIPTION),
        esn_point(0.5, FIG9_OVERSUBSCRIPTION),
        esn_point(1.0, FIG9_OVERSUBSCRIPTION),
    ],
}
