"""Tier-1 guard: the no-op Observation must be (nearly) free.

The whole design of repro.obs rests on hot paths gating on cached
``enabled`` flags, so that passing ``obs=Observation()`` (all planes
null) costs the same as passing nothing at all.  This benchmark-style
test times both and bounds the difference at < 5 % wall-clock.  Host
speed drifts within seconds, so the two arms are interleaved trial by
trial — alternating which runs first, each after a ``gc.collect()`` —
and the guard reads the median of the per-pair ratios: a drift then
hits both sides of a pair alike.
"""

import gc
import statistics
import time

from repro import FlowWorkload, Observation, SiriusNetwork, WorkloadConfig

#: Interleaved bare/no-op trial pairs.
PAIRS = 9
_MAX_OVERHEAD = 0.05


def _flows():
    net = SiriusNetwork(16, 4, seed=11)
    workload = FlowWorkload(WorkloadConfig(
        n_nodes=16, load=0.7,
        node_bandwidth_bps=net.reference_node_bandwidth_bps, seed=12,
    ))
    return workload.generate(300)


def _timed_run(obs):
    net = SiriusNetwork(16, 4, seed=11)
    flows = _flows()
    gc.collect()
    start = time.perf_counter()
    net.run(flows, obs=obs)
    return time.perf_counter() - start


def test_noop_observation_overhead_below_five_percent():
    _timed_run(None)  # warm-up: first-call costs land outside the pairs
    ratios = []
    for pair in range(PAIRS):
        if pair % 2:
            nooped = _timed_run(Observation())
            baseline = _timed_run(None)
        else:
            baseline = _timed_run(None)
            nooped = _timed_run(Observation())
        ratios.append(nooped / baseline)
    overhead = statistics.median(ratios) - 1
    assert overhead <= _MAX_OVERHEAD, (
        f"no-op Observation overhead {overhead:.1%} above "
        f"{_MAX_OVERHEAD:.0%} (pair ratios {[round(r, 3) for r in ratios]})"
    )
