"""Per-epoch network telemetry: the tracked ``net_*`` gauges that an
:class:`~repro.obs.observation.Observation` samples at its cadence,
and the sparkline that renders them."""

import pytest

from repro import FlowWorkload, Observation, SiriusNetwork, WorkloadConfig
from repro.obs.metrics import MetricsRegistry
from repro.obs.report import ascii_sparkline

SERIES = ("net_local_cells", "net_vq_cells", "net_fwd_cells",
          "net_in_flight_cells", "net_backlog_cells", "net_delivered_bits")


def run_with_telemetry(sample_every=1, load=0.5, flows=150):
    net = SiriusNetwork(8, 4, uplink_multiplier=1.0, seed=1)
    workload = FlowWorkload(WorkloadConfig(
        n_nodes=8, load=load,
        node_bandwidth_bps=net.reference_node_bandwidth_bps,
        mean_flow_bits=200_000, truncation_bits=2_000_000, seed=3,
    ))
    obs = Observation(registry=MetricsRegistry(), sample_every=sample_every)
    result = net.run(workload.generate(flows), obs=obs)
    return result, obs


def series(obs, name):
    return obs.registry.gauge(name, track=True).series()


def values(obs, name):
    return [value for _at, value in series(obs, name)]


class TestCollection:
    def test_samples_every_epoch_by_default(self):
        result, obs = run_with_telemetry()
        epochs = [at for at, _v in series(obs, "net_backlog_cells")]
        assert epochs == list(range(result.epochs))

    def test_sampling_period_thins_series(self):
        result, obs = run_with_telemetry(sample_every=4)
        points = series(obs, "net_backlog_cells")
        assert len(points) == pytest.approx(result.epochs / 4, abs=1.0)
        assert all(at % 4 == 0 for at, _v in points)

    def test_series_lengths_consistent(self):
        _result, obs = run_with_telemetry()
        epochs = [at for at, _v in series(obs, "net_backlog_cells")]
        for name in SERIES:
            assert [at for at, _v in series(obs, name)] == epochs, name

    def test_delivered_bits_monotone(self):
        _result, obs = run_with_telemetry()
        delivered = values(obs, "net_delivered_bits")
        assert all(a <= b for a, b in zip(delivered, delivered[1:]))

    def test_backlog_drains_to_zeroish(self):
        _result, obs = run_with_telemetry()
        backlog = values(obs, "net_backlog_cells")
        assert backlog[-1] <= 2  # final in-flight residue at most

    def test_validation(self):
        for period in (0, -1):
            with pytest.raises(ValueError, match="sampling period"):
                Observation(registry=MetricsRegistry(), sample_every=period)


class TestSparkline:
    def test_flat_zero_series(self):
        assert ascii_sparkline([0, 0, 0]).strip() == ""


class TestEdgeCases:
    def test_sampling_period_longer_than_run(self):
        result, obs = run_with_telemetry(sample_every=10**6)
        assert result.epochs < 10**6
        for name in SERIES:
            assert [at for at, _v in series(obs, name)] == [0]  # epoch 0 only

    def test_empty_run(self):
        net = SiriusNetwork(8, 4, seed=1)
        obs = Observation(registry=MetricsRegistry())
        result = net.run([], obs=obs)
        assert result.delivered_bits == 0
        assert values(obs, "net_delivered_bits") in ([], [0.0])
        assert all(v == 0 for v in values(obs, "net_backlog_cells"))


class TestSparklineGuards:
    def test_negative_values_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            ascii_sparkline([1.0, -0.5, 2.0])
