"""Every simulation backend is bit-identical to the reference loop.

The cell simulator keeps two interchangeable epoch-loop strategies
(:mod:`repro.core.backend`): the all-nodes ``reference`` loop and the
numpy-slab ``vectorized`` engine (the default).  Both share the
reference's single RNG stream and visit order, so a seeded run must
produce *exactly* the same ``SimulationResult``, not merely a
statistically similar one.  These tests pin that contract across every
scheduling mode the simulator supports, plus a failure/recovery
scenario and a scale ladder (16/64/256 nodes); the fluid simulator's
incremental engine gets the same treatment.
"""

import dataclasses

import pytest

from repro import (
    CongestionConfig,
    FailurePlan,
    FlowWorkload,
    FluidNetwork,
    SiriusNetwork,
    WorkloadConfig,
    pod_map_for,
)
from repro.core.backend import (
    BACKEND_ENV,
    BACKENDS,
    resolve_backend,
    resolve_fluid_backend,
)
from repro.units import KILOBYTE, MEGABYTE

N_NODES, GRATING = 12, 4


def _workload(bandwidth, *, n_flows=60, load=0.4, seed=5,
              n_nodes=N_NODES):
    return FlowWorkload(WorkloadConfig(
        n_nodes=n_nodes,
        load=load,
        node_bandwidth_bps=bandwidth,
        mean_flow_bits=20 * KILOBYTE,
        truncation_bits=MEGABYTE,
        seed=seed,
    )).generate(n_flows)


def _fingerprint(result):
    """Everything a SimulationResult observably says about a run."""
    return (
        result.epochs,
        result.duration_s,
        result.delivered_bits,
        result.offered_bits,
        result.peak_fwd_cells,
        result.peak_local_cells,
        result.peak_reorder_cells,
        result.failed_flows,
        result.retransmitted_cells,
        tuple(
            (f.flow_id, f.delivered_cells, f.completion_time)
            for f in result.flows
        ),
    )


def _run_backends(*, seed=1, workload_seed=5, make_plan=None,
                  n_nodes=N_NODES, grating=GRATING, n_flows=60,
                  **net_kwargs):
    """One seeded run per backend; returns fingerprints keyed by name.

    ``make_plan`` is a factory, not a plan: a ``FailurePlan`` is
    stateful (it tracks fired events and the failed set), so each run
    needs its own instance.
    """
    prints = {}
    for backend in BACKENDS:
        net = SiriusNetwork(n_nodes, grating, uplink_multiplier=1.5,
                            seed=seed, backend=backend, **net_kwargs)
        flows = _workload(net.reference_node_bandwidth_bps,
                          seed=workload_seed, n_nodes=n_nodes,
                          n_flows=n_flows)
        plan = make_plan() if make_plan is not None else None
        prints[backend] = _fingerprint(net.run(
            flows, failure_plan=plan, check_invariants=True))
    return prints


def _assert_all_equal(prints):
    reference = prints["reference"]
    for backend, fingerprint in prints.items():
        assert fingerprint == reference, (
            f"{backend} backend diverged from reference"
        )


CONFIG_CASES = {
    "drrm": dict(config=CongestionConfig(selection="drrm")),
    "random-selection": dict(config=CongestionConfig(selection="random")),
    "ideal": dict(config=CongestionConfig(ideal=True)),
    "single-grant": dict(
        config=CongestionConfig(max_grants_per_destination=1)
    ),
    "exclude-dst-intermediate": dict(
        config=CongestionConfig(exclude_destination_intermediate=True)
    ),
    "bounded-local": dict(local_capacity_cells=32),
    "track-reorder": dict(track_reorder=True),
}

#: The scale ladder: (nodes, grating ports, flows).  Flow counts shrink
#: as the topology grows to keep the reference runs affordable.
SCALE_CASES = {
    "16-node": (16, 4, 60),
    "64-node": (64, 8, 60),
    "256-node": (256, 16, 40),
}


class TestSiriusEquivalence:
    @pytest.mark.parametrize("case", sorted(CONFIG_CASES))
    def test_identical_results_per_config(self, case):
        _assert_all_equal(_run_backends(**CONFIG_CASES[case]))

    @pytest.mark.parametrize("seed", [1, 7])
    def test_identical_results_across_seeds(self, seed):
        _assert_all_equal(_run_backends(seed=seed,
                                        workload_seed=seed + 4))

    def test_identical_results_under_failure_and_recovery(self):
        _assert_all_equal(_run_backends(make_plan=lambda: (
            FailurePlan.single_failure(3, at_epoch=30, recover_at=60)
        )))


class TestScaleParity:
    """The two-way contract holds as the topology grows."""

    @pytest.mark.parametrize("case", sorted(SCALE_CASES))
    def test_identical_results_at_scale(self, case):
        nodes, grating, n_flows = SCALE_CASES[case]
        _assert_all_equal(_run_backends(
            n_nodes=nodes, grating=grating, n_flows=n_flows,
        ))

    def test_bounded_local_and_reorder_at_scale(self):
        nodes, grating, n_flows = SCALE_CASES["64-node"]
        _assert_all_equal(_run_backends(
            n_nodes=nodes, grating=grating, n_flows=n_flows,
            local_capacity_cells=32, track_reorder=True,
        ))

    def test_failure_and_recovery_at_scale(self):
        nodes, grating, n_flows = SCALE_CASES["64-node"]
        _assert_all_equal(_run_backends(
            n_nodes=nodes, grating=grating, n_flows=n_flows,
            make_plan=lambda: FailurePlan.single_failure(
                5, at_epoch=20, recover_at=50
            ),
        ))


class TestBackendResolution:
    def test_two_backends(self):
        assert BACKENDS == ("reference", "vectorized")

    def test_explicit_argument_wins_over_env(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "reference")
        assert resolve_backend("vectorized") == "vectorized"
        assert SiriusNetwork(8, 4, backend="vectorized").backend == (
            "vectorized")

    def test_env_selects_backend(self, monkeypatch):
        for name in BACKENDS:
            monkeypatch.setenv(BACKEND_ENV, name)
            assert resolve_backend(None) == name
            assert SiriusNetwork(8, 4).backend == name

    def test_default_is_vectorized(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV, raising=False)
        assert resolve_backend(None) == "vectorized"
        assert SiriusNetwork(8, 4).backend == "vectorized"

    def test_invalid_names_raise(self, monkeypatch):
        with pytest.raises(ValueError, match="unknown backend"):
            resolve_backend("warp")
        monkeypatch.setenv(BACKEND_ENV, "warp")
        with pytest.raises(ValueError, match=BACKEND_ENV):
            resolve_backend(None)

    def test_removed_fast_backend_is_rejected(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV, raising=False)
        with pytest.raises(ValueError, match="'reference', 'vectorized'"):
            SiriusNetwork(8, 4, backend="fast")
        monkeypatch.setenv(BACKEND_ENV, "fast")
        with pytest.raises(ValueError, match="'reference', 'vectorized'"):
            SiriusNetwork(8, 4)
        with pytest.raises(ValueError, match="'incremental'"):
            FluidNetwork(8, 4e11)

    def test_legacy_spellings_are_gone(self, monkeypatch):
        with pytest.raises(TypeError):
            SiriusNetwork(8, 4, fast_path=True)
        with pytest.raises(TypeError):
            FluidNetwork(8, 4e11, fast_path=True)
        monkeypatch.delenv(BACKEND_ENV, raising=False)
        monkeypatch.setenv("REPRO_FAST_PATH", "0")
        assert SiriusNetwork(8, 4).backend == "vectorized"
        assert FluidNetwork(8, 4e11).backend == "incremental"

    def test_fluid_resolution(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV, raising=False)
        assert resolve_fluid_backend(None) == "incremental"
        assert resolve_fluid_backend("reference") == "reference"
        monkeypatch.setenv(BACKEND_ENV, "vectorized")
        assert resolve_fluid_backend(None) == "incremental"
        monkeypatch.setenv(BACKEND_ENV, "reference")
        assert resolve_fluid_backend(None) == "reference"
        with pytest.raises(ValueError, match="unknown fluid backend"):
            resolve_fluid_backend("vectorized")


class TestFluidEquivalence:
    def _pair(self, **net_kwargs):
        bandwidth = 4e11
        results = []
        for backend in ("incremental", "reference"):
            net = FluidNetwork(N_NODES, bandwidth, backend=backend,
                               **net_kwargs)
            flows = _workload(bandwidth, n_flows=120, load=0.6)
            results.append(net.run(flows))
        return results

    @staticmethod
    def _fluid_fingerprint(result):
        # Every FluidResult field; the flows by id and completion time.
        fingerprint = {field.name: getattr(result, field.name)
                       for field in dataclasses.fields(result)}
        fingerprint["flows"] = tuple(
            (f.flow_id, f.completion_time) for f in result.flows
        )
        return fingerprint

    def test_flat_network_identical(self):
        fast, reference = self._pair()
        assert (self._fluid_fingerprint(fast)
                == self._fluid_fingerprint(reference))

    def test_oversubscribed_pods_identical(self):
        bandwidth = 4e11
        pod_kwargs = dict(
            pod_map=pod_map_for(N_NODES, 4),
            pod_bandwidth_bps=4 * bandwidth / 3.0,
        )
        fast, reference = self._pair(**pod_kwargs)
        assert (self._fluid_fingerprint(fast)
                == self._fluid_fingerprint(reference))
