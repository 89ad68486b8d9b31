"""The run ledger shared by the cell engines: §4.5 failure semantics and
input validation, on every backend."""

import pytest

from repro import (
    CongestionConfig,
    FailurePlan,
    FlowWorkload,
    SiriusNetwork,
    WorkloadConfig,
)
from repro.core.backend import BACKENDS
from repro.core.cell import Flow
from repro.core.failures import FailureEvent
from repro.sim.slotsim import SlotLevelSirius
from repro.units import KILOBYTE, MEGABYTE

FAILED_RACK, FAIL_AT, RECOVER_AT, DETECTION = 5, 50, 120, 3


def _recovery_run(backend):
    """32 racks, 8-port gratings, 1.5x uplinks, Q=4, load 0.4, 800
    flows (workload seed 2); rack 5 is down from epoch 50 to 120."""
    net = SiriusNetwork(32, 8, uplink_multiplier=1.5, seed=1,
                        config=CongestionConfig(queue_threshold=4),
                        backend=backend)
    mean = 100 * KILOBYTE
    flows = FlowWorkload(WorkloadConfig(
        n_nodes=32, load=0.4,
        node_bandwidth_bps=net.reference_node_bandwidth_bps,
        mean_flow_bits=mean, truncation_bits=2 * MEGABYTE, seed=2,
    )).generate(800)
    plan = FailurePlan.single_failure(FAILED_RACK, FAIL_AT,
                                      recover_at=RECOVER_AT)
    result = net.run(flows, failure_plan=plan, detection_epochs=DETECTION)
    announced_s = (RECOVER_AT + DETECTION) * net.schedule.epoch_duration_s
    return result, announced_s


@pytest.mark.parametrize("backend", BACKENDS)
def test_flows_arriving_after_recovery_complete(backend):
    result, announced_s = _recovery_run(backend)
    late = [f for f in result.flows
            if f.dst == FAILED_RACK and f.arrival_time >= announced_s]
    assert len(late) == 12
    assert all(f.is_complete for f in late)
    assert len(result.completed_flows) + result.failed_flows == len(
        result.flows)
    # Only flows that touched the rack while it was down may fail.
    for flow in result.flows:
        if not flow.is_complete:
            assert FAILED_RACK in (flow.src, flow.dst)
            assert flow.arrival_time < announced_s
    assert result.failed_flows == 12


@pytest.mark.parametrize("backend", BACKENDS)
def test_backlogged_flows_of_a_dead_source_are_counted(backend):
    # Bounded LOCAL: two of node 0's three flows still wait host-side
    # when it fails for good; they die with it instead of trickling into
    # its frozen LOCAL and pinning the run to its epoch cap.
    net = SiriusNetwork(8, 4, uplink_multiplier=1.0, seed=1,
                        local_capacity_cells=4, backend=backend)
    flows = [Flow(i, 0, 1 + i, size_bits=80_000, arrival_time=0.0)
             for i in range(3)]
    result = net.run(flows, failure_plan=FailurePlan.single_failure(0, 3),
                     check_invariants=True, drain_epochs=2000)
    assert result.failed_flows == 3
    assert result.epochs < 100


def _flows(*pairs):
    return [Flow(i, src, dst, size_bits=4000, arrival_time=i * 1e-7)
            for i, (src, dst) in enumerate(pairs)]


@pytest.mark.parametrize("backend", BACKENDS)
class TestInputValidation:
    def test_negative_destination(self, backend):
        net = SiriusNetwork(8, 4, backend=backend)
        with pytest.raises(ValueError, match=r"flow 1 \(2->-1\)"):
            net.run(_flows((0, 3), (2, -1)))

    def test_destination_past_the_last_node(self, backend):
        net = SiriusNetwork(8, 4, backend=backend)
        with pytest.raises(ValueError, match=r"flow 0 \(1->8\).*\[0, 8\)"):
            net.run(_flows((1, 8)))

    def test_source_out_of_range(self, backend):
        net = SiriusNetwork(8, 4, backend=backend)
        with pytest.raises(ValueError, match=r"flow 0 \(9->1\)"):
            net.run(_flows((9, 1)))

    def test_failure_plan_names_unknown_node(self, backend):
        net = SiriusNetwork(8, 4, backend=backend)
        plan = FailurePlan([FailureEvent(10, 99)])
        with pytest.raises(ValueError, match="node=99"):
            net.run(_flows((0, 3)), failure_plan=plan)

    def test_failure_plan_reused_across_runs(self, backend):
        # A plan keeps its cursor and failed set: a second run would
        # start with node 3 down and never announce it.
        plan = FailurePlan.single_failure(3, 1)
        SiriusNetwork(8, 4, backend=backend).run(
            _flows((0, 5), (2, 6)), failure_plan=plan)
        with pytest.raises(ValueError, match="fresh FailurePlan"):
            SiriusNetwork(8, 4, backend=backend).run(
                _flows((0, 5), (2, 6)), failure_plan=plan)


def test_slot_level_simulator_validates_through_the_ledger():
    with pytest.raises(ValueError, match=r"flow 0 \(0->8\)"):
        SlotLevelSirius(8, 4).run(_flows((0, 8)))
