"""Chaos property tests: random failure plans, full accounting.

The invariants under any failure/recovery schedule: **no silent loss**
— every offered flow either completes or is explicitly counted in
``failed_flows``, and the in-network queue bounds hold throughout —
and **causal failure handling** (§4.5): a flow whose endpoints are both
up when it arrives, with every past failure and recovery of theirs
already announced, and that neither fails later, completes.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import FailurePlan, SiriusNetwork
from repro.core.backend import BACKENDS
from repro.core.cell import Flow
from repro.core.failures import FailureEvent


@st.composite
def chaos_scenarios(draw, recovery=False):
    """Random flows and failure plans; ``recovery`` forces at least one
    failed node to recover and spreads arrivals past its recovery."""
    n_nodes = draw(st.sampled_from([8, 12]))
    n_flows = draw(st.integers(5, 25))
    gap_s = (1e-6, 8e-6) if recovery else (0.0, 4e-6)
    flows = []
    time = 0.0
    for fid in range(n_flows):
        time += draw(st.floats(*gap_s))
        src = draw(st.integers(0, n_nodes - 1))
        offset = draw(st.integers(1, n_nodes - 1))
        size = draw(st.integers(100, 40_000))
        flows.append(Flow(fid, src, (src + offset) % n_nodes,
                          size_bits=size, arrival_time=time))
    events = []
    n_failures = draw(st.integers(1 if recovery else 0, 2))
    used = set()
    for _ in range(n_failures):
        node = draw(st.integers(0, n_nodes - 1))
        if node in used:
            continue
        used.add(node)
        fail_at = draw(st.integers(1, 60))
        events.append(FailureEvent(fail_at, node, fails=True))
        if recovery or draw(st.booleans()):
            events.append(FailureEvent(
                fail_at + draw(st.integers(10, 60)), node, fails=False,
            ))
    return n_nodes, flows, events


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(scenario=chaos_scenarios(), seed=st.integers(0, 5))
def test_no_silent_loss_under_chaos(scenario, seed):
    n_nodes, flows, events = scenario
    net = SiriusNetwork(n_nodes, n_nodes // 2, uplink_multiplier=1.0,
                        seed=seed)
    result = net.run(flows, failure_plan=FailurePlan(events),
                     check_invariants=True, drain_epochs=20_000)
    completed = len(result.completed_flows)
    # Full accounting: completed + explicitly failed = offered.
    assert completed + result.failed_flows == len(flows), (
        completed, result.failed_flows, len(flows), events,
    )
    # Causality for everything that completed.
    for flow in result.completed_flows:
        assert flow.completion_time > flow.arrival_time


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(scenario=chaos_scenarios())
def test_bounded_local_under_chaos(scenario):
    n_nodes, flows, events = scenario
    net = SiriusNetwork(n_nodes, n_nodes // 2, uplink_multiplier=1.0,
                        seed=1, local_capacity_cells=16)
    result = net.run(flows, failure_plan=FailurePlan(events),
                     check_invariants=True, drain_epochs=20_000)
    assert (result.peak_local_cells
            <= 16 + result.retransmitted_cells)
    assert (len(result.completed_flows) + result.failed_flows
            == len(flows))


def _admission_epoch(arrival, epoch_s):
    """The epoch whose admission phase takes a flow arriving at
    ``arrival``: the first ``e`` with ``arrival < (e + 1) * epoch_s``."""
    epoch = int(arrival / epoch_s)
    while arrival >= (epoch + 1) * epoch_s:
        epoch += 1
    while epoch and arrival < epoch * epoch_s:
        epoch -= 1
    return epoch


def _settled_up(node, epoch, events, detection):
    """``node`` is up at ``epoch``, every earlier event of it has been
    announced by then, and it never fails afterwards."""
    up = True
    for event in events:
        if event.node != node:
            continue
        if event.epoch <= epoch:
            up = not event.fails
            if event.epoch + detection > epoch:
                return False
        elif event.fails:
            return False
    return up


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(scenario=chaos_scenarios(recovery=True), seed=st.integers(0, 5),
       backend=st.sampled_from(BACKENDS),
       local=st.sampled_from([None, 16]))
def test_flows_between_settled_nodes_complete(scenario, seed, backend,
                                              local):
    n_nodes, flows, events = scenario
    detection = 3
    net = SiriusNetwork(n_nodes, n_nodes // 2, uplink_multiplier=1.0,
                        seed=seed, backend=backend,
                        local_capacity_cells=local)
    result = net.run(flows, failure_plan=FailurePlan(events),
                     detection_epochs=detection, check_invariants=True,
                     drain_epochs=20_000)
    epoch_s = net.schedule.epoch_duration_s
    for flow in result.flows:
        arrival = _admission_epoch(flow.arrival_time, epoch_s)
        if (_settled_up(flow.src, arrival, events, detection)
                and _settled_up(flow.dst, arrival, events, detection)):
            assert flow.is_complete, (flow, arrival, events)
