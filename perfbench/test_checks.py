"""Each benchmark check passes on a real result and fails on a
perturbed one.

Run from the root of a checkout::

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import copy
import dataclasses
import json
import os
import signal
import sys
from types import SimpleNamespace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import calib  # noqa: E402
import checks  # noqa: E402
import maxmin  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

import repro  # noqa: E402
from repro.core.cell import Flow  # noqa: E402

BW = 1e9


def _flows(n_nodes, load, n_flows, seed=3, bandwidth=BW):
    return workloads._flows(repro, n_nodes, load, bandwidth, seed, n_flows,
                            100 * repro.units.KILOBYTE)


@pytest.fixture(scope="module")
def cell_run():
    net = repro.SiriusNetwork(8, 4, uplink_multiplier=1.5, seed=1)
    flows = _flows(8, 0.4, 80, bandwidth=net.reference_node_bandwidth_bps)
    specs = checks.snapshot(flows)
    return net, specs, net.run(flows)


def _cell_facts(net):
    return workloads._cell_facts(net)


def _perturb_flow(result, index, **changes):
    """A deep copy of ``result`` with one flow's fields changed."""
    clone = copy.deepcopy(result)
    for name, value in changes.items():
        setattr(clone.flows[index], name, value)
    return clone


# -- cell simulator ------------------------------------------------------
def test_delivered_equals_offered(cell_run):
    _net, specs, result = cell_run
    assert checks.delivered_equals_offered(specs, result) == []
    short = dataclasses.replace(result,
                                delivered_bits=result.delivered_bits - 1)
    assert checks.delivered_equals_offered(specs, short)


def test_cell_fct_bounds(cell_run):
    net, specs, result = cell_run
    facts = _cell_facts(net)
    assert workloads._cell_bounds(specs, result, facts) == []
    arrival = result.flows[0].arrival_time
    too_fast = _perturb_flow(result, 0, completion_time=arrival)
    assert workloads._cell_bounds(specs, too_fast, facts)
    unfinished = _perturb_flow(result, 1, completion_time=None)
    assert workloads._cell_bounds(specs, unfinished, facts)


def test_cell_fct_bounds_cover_large_flows(cell_run):
    """A many-cell flow finishing one epoch after arrival is too fast."""
    net, specs, result = cell_run
    facts = _cell_facts(net)
    big = max(range(len(specs)), key=lambda i: specs[i][3])
    per_epoch = (facts["n_nodes"] - 1) * facts["max_pair_cells"]
    assert specs[big][3] > per_epoch * facts["payload_bits"]
    arrival = specs[big][4]
    next_epoch = (arrival // facts["epoch_s"] + 1) * facts["epoch_s"]
    too_fast = _perturb_flow(result, big, completion_time=next_epoch)
    assert workloads._cell_bounds(specs, too_fast, facts)


def test_results_identical(cell_run):
    net, _specs, result = cell_run
    twin = repro.SiriusNetwork(8, 4, uplink_multiplier=1.5, seed=1,
                               backend="reference")
    oracle = twin.run(_flows(8, 0.4, 80,
                             bandwidth=net.reference_node_bandwidth_bps))
    assert checks.results_identical(result, oracle) == []
    late = _perturb_flow(oracle, 5, completion_time=(
        oracle.flows[5].completion_time + 1e-9))
    assert checks.results_identical(result, late)
    assert checks.results_identical(
        result, dataclasses.replace(oracle, epochs=oracle.epochs + 1))


def test_reduced_sparse_cross_check_passes():
    assert workloads._reduced_cross_check(repro, seed=4) == []


# -- §4.5 failure point --------------------------------------------------
@pytest.fixture(scope="module")
def failure_run():
    """The reproduction of the recovery fault: 32 racks, load 0.4, 800
    flows, seed 2, rack 5 down from epoch 50 to epoch 120."""
    net = repro.SiriusNetwork(32, 8, uplink_multiplier=1.5, seed=1)
    flows = workloads._flows(repro, 32, 0.4, net.reference_node_bandwidth_bps,
                             2, 800, 100 * repro.units.KILOBYTE)
    specs = checks.snapshot(flows)
    plan = repro.FailurePlan.single_failure(5, 50, recover_at=120)
    result = net.run(flows, failure_plan=plan, detection_epochs=3)
    announced = 123 * net.schedule.epoch_duration_s
    return specs, result, announced


def test_failure_accounting(failure_run):
    specs, result, _announced = failure_run
    assert checks.failure_accounting(specs, result, failed_node=5) == []
    miscounted = dataclasses.replace(result,
                                     failed_flows=result.failed_flows + 1)
    assert checks.failure_accounting(specs, miscounted, failed_node=5)
    bystander = next(i for i, s in enumerate(specs) if 5 not in s[1:3])
    stranded = _perturb_flow(result, bystander, completion_time=None)
    assert checks.failure_accounting(specs, stranded, failed_node=5)


def test_recovery_fault_is_visible(failure_run):
    """Flows to rack 5 arriving after its recovery never complete: the
    fault the failure point keeps visible."""
    specs, result, announced = failure_run
    problems = checks.completes_after_recovery(specs, result,
                                               announced_s=announced)
    assert problems and "destinations [5]" in problems[0]


def test_completes_after_recovery_on_a_healthy_result(failure_run):
    specs, result, announced = failure_run
    healed = copy.deepcopy(result)
    for flow in healed.flows:
        if flow.completion_time is None:
            flow.completion_time = flow.arrival_time + 1.0
    assert checks.completes_after_recovery(specs, healed,
                                           announced_s=announced) == []
    late = next(i for i, s in enumerate(specs) if s[4] >= announced)
    broken = _perturb_flow(healed, late, completion_time=None)
    assert checks.completes_after_recovery(specs, broken,
                                           announced_s=announced)


# -- fluid simulator -----------------------------------------------------
@pytest.fixture(scope="module", params=[None, 3.0], ids=["esn", "osub"])
def fluid_run(request):
    net = workloads._fluid_network(repro, BW, 16, 4, request.param)
    flows = _flows(16, 0.9, 150)
    specs = checks.snapshot(flows)
    return net, specs, net.run(flows)


def test_fluid_delivered(fluid_run):
    _net, specs, result = fluid_run
    assert checks.delivered_equals_offered(specs, result, rel_tol=1e-9) == []
    short = dataclasses.replace(result,
                                delivered_bits=result.delivered_bits * 0.999)
    assert checks.delivered_equals_offered(specs, short, rel_tol=1e-9)


def test_fluid_fct_bounds(fluid_run):
    _net, specs, result = fluid_run
    assert checks.fluid_fct_bounds(specs, result, node_bw=BW) == []
    size, arrival = specs[0][3], specs[0][4]
    too_fast = _perturb_flow(result, 0,
                             completion_time=arrival + 0.5 * size / BW)
    assert checks.fluid_fct_bounds(specs, too_fast, node_bw=BW)


def test_fluid_capacity(fluid_run):
    net, specs, result = fluid_run
    kwargs = dict(node_bw=BW, pod_map=net.pod_map,
                  pod_bw=net.pod_bandwidth_bps)
    assert checks.fluid_capacity(specs, result, **kwargs) == []


def _finished_together(specs):
    """Flows that all complete at the line-rate time of one flow."""
    flows = [Flow(fid, src, dst, size, arrival)
             for fid, src, dst, size, arrival in specs]
    for flow in flows:
        flow.completion_time = 1000 / BW
    return SimpleNamespace(flows=flows)


def test_fluid_capacity_nodes():
    """Two flows out of one node, each at full node rate, overrun it."""
    apart = [(0, 0, 2, 1000, 0.0), (1, 1, 3, 1000, 0.0)]
    shared = [(0, 0, 2, 1000, 0.0), (1, 0, 3, 1000, 0.0)]
    assert checks.fluid_capacity(apart, _finished_together(apart),
                                 node_bw=BW) == []
    problems = checks.fluid_capacity(shared, _finished_together(shared),
                                     node_bw=BW)
    assert problems and problems[0].startswith("tx 0")


def test_fluid_capacity_pods():
    """Two inter-pod flows from different nodes of one pod, each at
    full node rate, overrun a pod uplink of one node's bandwidth."""
    specs = [(0, 0, 2, 1000, 0.0), (1, 1, 3, 1000, 0.0)]
    result = _finished_together(specs)
    pods = [0, 0, 1, 1]
    assert checks.fluid_capacity(specs, result, node_bw=BW,
                                 pod_map=pods, pod_bw=2 * BW) == []
    assert checks.fluid_capacity(specs, result, node_bw=BW,
                                 pod_map=pods, pod_bw=BW)


def test_matches_maxmin_oracle(fluid_run):
    net, specs, result = fluid_run
    kwargs = dict(node_bw=BW, pod_map=net.pod_map,
                  pod_bw=net.pod_bandwidth_bps, base_rtt_s=net.base_rtt_s)
    assert checks.matches_maxmin_oracle(specs, result, **kwargs) == []
    flow = result.flows[7]
    shift = 1e-5 * (flow.completion_time - flow.arrival_time)
    off = _perturb_flow(result, 7,
                        completion_time=flow.completion_time + shift)
    assert checks.matches_maxmin_oracle(specs, off, **kwargs)


def test_maxmin_oracle_shares_a_bottleneck():
    """Two flows into one receiver split it; the third runs alone."""
    specs = [(0, 0, 2, 1000, 0.0), (1, 1, 2, 1000, 0.0),
             (2, 3, 4, 1000, 0.0)]
    done = maxmin.simulate(specs, 1000.0)
    assert done[0] == pytest.approx(2.0)
    assert done[1] == pytest.approx(2.0)
    assert done[2] == pytest.approx(1.0)


def test_workload_oracle_check_passes():
    for oversubscription in (None, 3.0):
        assert workloads._oracle_check(repro, BW, 5, oversubscription) == []


# -- calibration and tracing ---------------------------------------------
def test_calibrated_clock_scales_to_reference(monkeypatch):
    before = [0.5 * calib.REFERENCE_PROBE_S] * calib.BRACKET_PROBES
    after = [calib.REFERENCE_PROBE_S] * calib.BRACKET_PROBES
    ticks = iter(before + after)
    monkeypatch.setattr(calib, "probe", lambda: next(ticks))
    handler = signal.getsignal(signal.SIGALRM)
    clock = calib.CalibratedClock()
    with clock.measure() as section:
        pass
    # The host ran at 4/3 of the reference speed on average.
    assert section.scaled_s == pytest.approx(section.raw_s / 0.75)
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_probes_inside_a_section_are_not_counted_as_its_time():
    clock = calib.CalibratedClock()
    with clock.measure() as section:
        calib._switch(12_000)  # ~50 ms of work: several probes fire
    assert len(clock.probes) > 2 * calib.BRACKET_PROBES
    inside = sum(clock.probes[calib.BRACKET_PROBES:-calib.BRACKET_PROBES])
    assert section.raw_s > 0 and inside > 0


def test_layer_probe_counts_self_time_and_restores():
    class Inner:
        def work(self):
            return [1, 2, 3]

    class Outer:
        def call(self, inner):
            return inner.work()

    probe = tracing.LayerProbe()
    probe.wrap(Outer, "call")
    probe.wrap(Inner, "work", len)
    probe.install()
    try:
        Outer().call(Inner())
    finally:
        probe.restore()
    Outer().call(Inner())  # not counted once restored
    outer, inner = probe.get("Outer.call"), probe.get("Inner.work")
    assert (outer.calls, inner.calls, inner.work) == (1, 1, 3)
    assert outer.self_s == pytest.approx(outer.total_s - inner.total_s)
    assert "work" in Inner.__dict__ and Inner.work.__name__ == "work"
    assert not hasattr(Inner.work, "__wrapped__")


def test_benchmark_json_lists_every_metric():
    path = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
    with open(path, encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == (
        run.END_TO_END_UNITS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == (
        run.per_layer_units())
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(
        workloads.WORKLOADS)
