"""An observed run reads the same on every cell backend.

The engine-equivalence suite pins the ``SimulationResult`` of the two
cell backends; this pins what an attached :class:`Observation` records.
Both backends run the same :class:`repro.core.node.SiriusNode`
operations in the same order, so the traced events and every metric
must match exactly — except ``run_heartbeat_s`` and the profiler's lap
times, which are wall-clock.  The profilers must still name the same
phases, so a per-phase comparison across backends stays meaningful.
"""

import pytest

from repro import (
    CongestionConfig,
    FailurePlan,
    FlowWorkload,
    Observation,
    SiriusNetwork,
    WorkloadConfig,
)
from repro.core.backend import BACKENDS

SCENARIOS = {
    "drrm": dict(config=CongestionConfig()),
    "random-selection": dict(config=CongestionConfig(selection="random")),
    "single-grant": dict(
        config=CongestionConfig(max_grants_per_destination=1)
    ),
    "ideal": dict(config=CongestionConfig(ideal=True)),
    "fail-recover": dict(failure_plan=True),
    "bounded-local": dict(local_capacity_cells=16),
}

#: The profiler phases every cell backend charges its time to.
PHASES = {"setup", "failures", "deliver", "resolve", "admit", "control",
          "transmit", "observe", "finalize"}


def _observed_run(backend, failure_plan=False, **net_kwargs):
    net = SiriusNetwork(16, 4, seed=5, backend=backend, **net_kwargs)
    flows = FlowWorkload(WorkloadConfig(
        n_nodes=16, load=0.6,
        node_bandwidth_bps=net.reference_node_bandwidth_bps, seed=6,
    )).generate(200)
    plan = (FailurePlan.single_failure(3, at_epoch=40, recover_at=120)
            if failure_plan else None)
    obs = Observation.recording()
    net.run(flows, obs=obs, failure_plan=plan)
    events = [(e.type, e.epoch, e.ts_s, e.node, e.fields)
              for e in obs.tracer.events]
    metrics = [sample for sample in obs.registry.collect()
               if sample["name"] != "run_heartbeat_s"]
    return events, metrics, set(obs.profiler.totals_s)


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_observed_runs_agree_across_backends(scenario):
    runs = {backend: _observed_run(backend, **SCENARIOS[scenario])
            for backend in BACKENDS}
    events, metrics, phases = runs["reference"]
    assert events and metrics
    assert phases == PHASES
    for backend, (other_events, other_metrics, other_phases) in runs.items():
        assert other_events == events, f"{backend} traced other events"
        assert other_metrics == metrics, f"{backend} recorded other metrics"
        assert other_phases == phases, f"{backend} profiled other phases"
    names = {sample["name"] for sample in metrics}
    assert {"cells_transmitted_total", "delivered_bits_total"} <= names
    if scenario != "ideal":
        assert {"grants_issued_total", "grants_denied_total"} <= names
    if scenario == "fail-recover":
        assert {"cells_dropped_total", "retransmitted_cells_total",
                "failed_flows_total"} <= names
