"""Integration tests: repro.obs threaded through the simulators.

Covers the ISSUE acceptance criteria: a traced run produces events,
metrics and a profile that agree with the SimulationResult, and the
per-epoch phase timing sums to within 10 % of the measured run
wall-clock.
"""

import pytest

from repro import (
    FailurePlan,
    FlowWorkload,
    FluidNetwork,
    Observation,
    SiriusNetwork,
    WorkloadConfig,
)
from repro.obs import NULL_OBS
from repro.obs.observation import Observation as ObservationClass


def small_run(obs=None, failure_plan=None, **net_kwargs):
    net = SiriusNetwork(8, 4, seed=3, **net_kwargs)
    workload = FlowWorkload(WorkloadConfig(
        n_nodes=8, load=0.6,
        node_bandwidth_bps=net.reference_node_bandwidth_bps, seed=4,
    ))
    result = net.run(workload.generate(80), obs=obs,
                     failure_plan=failure_plan)
    return net, result


class TestObservationBundle:
    def test_default_is_noop(self):
        obs = Observation()
        assert not obs.enabled
        assert not obs.registry.enabled
        assert not obs.tracer.enabled
        assert not obs.profiler.enabled

    def test_recording_enables_all_planes(self):
        obs = Observation.recording()
        assert obs.enabled
        assert obs.registry.enabled
        assert obs.tracer.enabled
        assert obs.profiler.enabled

    def test_invalid_sample_every(self):
        with pytest.raises(ValueError):
            Observation(sample_every=0)

    def test_null_obs_is_shared_noop(self):
        assert isinstance(NULL_OBS, ObservationClass)
        assert not NULL_OBS.enabled


class TestNetworkIntegration:
    def test_run_without_obs_matches_run_with_noop_obs(self):
        _, bare = small_run(obs=None)
        _, nooped = small_run(obs=Observation())
        assert bare.delivered_bits == nooped.delivered_bits
        assert bare.epochs == nooped.epochs

    def test_registry_counters_agree_with_result(self):
        obs = Observation.recording()
        _, result = small_run(obs=obs)
        registry = obs.registry
        assert registry.counter("delivered_bits_total").value() == (
            pytest.approx(result.delivered_bits)
        )
        tx = registry.counter("cells_transmitted_total").value()
        assert tx == len(obs.tracer.select("cell.dequeue"))
        assert tx > 0

    def test_grant_counters_are_labelled_per_pair(self):
        obs = Observation.recording()
        small_run(obs=obs)
        issued = obs.registry.get("grants_issued_total")
        assert issued is not None
        assert len(issued.label_sets()) > 1  # more than one (src, dst) pair
        total = sum(
            issued.value(**dict(labels)) for labels in issued.label_sets()
        )
        assert total == len(obs.tracer.select("grant.issued"))

    def test_tracer_records_run_structure(self):
        obs = Observation.recording()
        _, result = small_run(obs=obs)
        counts = obs.tracer.counts_by_type()
        assert counts["epoch"] == result.epochs
        assert counts["flow.arrival"] == len(result.flows)
        assert counts["flow.completion"] == len(result.completed_flows)
        assert counts["cell.enqueue"] >= counts["cell.dequeue"] > 0

    def test_queue_gauges_sampled_at_cadence(self):
        obs = Observation.recording(sample_every=5)
        _, result = small_run(obs=obs)
        points = obs.registry.gauge("net_backlog_cells", track=True).series()
        assert points  # sampled at least once
        epochs = [at for at, _v in points]
        assert all(at % 5 == 0 for at in epochs)
        assert len(points) == pytest.approx(result.epochs / 5, abs=2)
        per_node = obs.registry.get("vq_cells")
        assert per_node is not None and per_node.label_sets()

    def test_failure_run_emits_failure_events(self):
        obs = Observation.recording()
        plan = FailurePlan.single_failure(3, at_epoch=40, recover_at=200)
        _, result = small_run(obs=obs, failure_plan=plan)
        assert len(obs.tracer.select("failure.announce")) == 1
        assert len(obs.tracer.select("failure.recover")) == 1
        registry = obs.registry
        assert registry.counter("failure_events_total").value(kind="fail") == 1
        assert registry.counter(
            "failure_events_total").value(kind="recover") == 1
        assert registry.counter("failed_flows_total").value() == (
            result.failed_flows
        )
        assert registry.counter("retransmitted_cells_total").value() == (
            result.retransmitted_cells
        )

    def test_phase_timing_sums_to_run_wallclock(self):
        """Acceptance: lap totals within 10 % of measured wall-clock."""
        obs = Observation.recording()
        small_run(obs=obs)
        profiler = obs.profiler
        assert profiler.total_run_s > 0
        assert profiler.coverage() == pytest.approx(1.0, abs=0.10)
        phases = set(profiler.totals_s)
        assert {"deliver", "resolve", "admit", "control",
                "transmit", "observe"} <= phases


class TestFluidIntegration:
    def fluid_run(self, obs=None):
        net = FluidNetwork(8, 1e9)
        workload = FlowWorkload(WorkloadConfig(
            n_nodes=8, load=0.5, node_bandwidth_bps=1e9, seed=6,
        ))
        return net.run(workload.generate(50), obs=obs)

    def test_fluid_events_and_counters(self):
        obs = Observation.recording()
        result = self.fluid_run(obs=obs)
        counts = obs.tracer.counts_by_type()
        assert counts["flow.arrival"] == len(result.flows)
        assert counts["flow.completion"] == len(result.completed_flows)
        registry = obs.registry
        assert registry.counter("delivered_bits_total").value() == (
            pytest.approx(result.delivered_bits)
        )
        assert registry.counter("fluid_events_total").value(
            kind="arrival") == len(result.flows)
        assert registry.gauge("fluid_active_flows", track=True).series()

    def test_fluid_profile_covers_run(self):
        obs = Observation.recording()
        self.fluid_run(obs=obs)
        assert obs.profiler.coverage() == pytest.approx(1.0, abs=0.10)
        assert {"advance", "recompute"} <= set(obs.profiler.totals_s)

    def test_fluid_noop_obs_unchanged(self):
        bare = self.fluid_run(obs=None)
        nooped = self.fluid_run(obs=Observation())
        assert bare.delivered_bits == pytest.approx(nooped.delivered_bits)
