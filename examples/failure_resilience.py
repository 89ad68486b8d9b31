#!/usr/bin/env python3
"""Fault tolerance in a Sirius datacenter (paper §4.5).

Fails a rack mid-run and shows what the paper promises: microsecond
detection via the cyclic schedule, no blackholing (stranded transit
cells are retransmitted), unaffected flows complete, degradation is
proportional, and a consistent schedule update regains the lost
bandwidth.  A sparkline of the backlog series an ``Observation``
records shows the footprint of the failure.

Run:  python examples/failure_resilience.py
"""

from repro import (
    FailureDetector,
    FailurePlan,
    FlowWorkload,
    MetricsRegistry,
    Observation,
    SiriusNetwork,
    WorkloadConfig,
)
from repro.core.failures import AdjustedSchedule, surviving_bandwidth_fraction
from repro.obs import ascii_sparkline
from repro.units import KILOBYTE, MEGABYTE

N_NODES = 32
GRATING_PORTS = 8
FAILED_NODE = 5
FAIL_EPOCH = 120


def main() -> None:
    net = SiriusNetwork(N_NODES, GRATING_PORTS, uplink_multiplier=1.0,
                        seed=1)
    workload = FlowWorkload(WorkloadConfig(
        n_nodes=N_NODES, load=0.4,
        node_bandwidth_bps=net.reference_node_bandwidth_bps,
        mean_flow_bits=50 * KILOBYTE, truncation_bits=1 * MEGABYTE,
        seed=3,
    ))
    flows = workload.generate(1_000)
    plan = FailurePlan.single_failure(FAILED_NODE, at_epoch=FAIL_EPOCH)
    obs = Observation(registry=MetricsRegistry(), sample_every=2)

    print(f"failing node {FAILED_NODE} at epoch {FAIL_EPOCH} "
          f"({FAIL_EPOCH * net.schedule.epoch_duration_s / 1e-6:.0f} us "
          "into the run)\n")
    result = net.run(flows, failure_plan=plan, obs=obs)

    detector = FailureDetector(N_NODES, node=0, threshold=3)
    unaffected = [f for f in flows
                  if f.src != FAILED_NODE and f.dst != FAILED_NODE]
    completed = sum(1 for f in unaffected if f.is_complete)

    print(f"detection latency        : "
          f"{detector.detection_latency_s(net.schedule.epoch_duration_s) / 1e-6:.1f} us "
          "(3 missed epochs)")
    print(f"unaffected flows         : {completed}/{len(unaffected)} "
          "completed")
    print(f"terminated flows         : {result.failed_flows} "
          "(source or destination was the dead rack)")
    print(f"transit cells salvaged   : {result.retransmitted_cells} "
          "retransmitted by their sources")
    print(f"survivor bandwidth       : "
          f"{surviving_bandwidth_fraction(N_NODES, 1):.1%} "
          "(before schedule adjustment)")

    adjusted = AdjustedSchedule(N_NODES, failed={FAILED_NODE})
    adjusted.verify_round_robin()
    print(f"after schedule adjustment: "
          f"{adjusted.bandwidth_fraction():.0%} over "
          f"{adjusted.epoch_slots}-slot epochs "
          f"({len(adjusted.survivors)} survivors, round-robin verified)")

    print("\nsystem backlog over time (failure visible as the hump):")
    backlog = obs.registry.gauge("net_backlog_cells", track=True)
    print("  " + ascii_sparkline([value for _at, value in backlog.series()],
                                 width=70))


if __name__ == "__main__":
    main()
