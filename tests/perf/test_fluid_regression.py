"""Tier-1 guard: the incremental fluid engine must actually be faster.

``tests/sim/test_fluid_equivalence.py`` proves the incremental and
reference fluid loops are bit-identical; this test proves the
persistent-state machinery still pays for itself.  Both backends run
live, in-process, on a pinned mid-scale workload — large enough that
the reference loop's O(events × resources) rebuild separates clearly
from the incremental engine (the gap *grows* with scale: ~12x at the
bench matrix's 512 nodes, ~7x here at 256).  Host speed drifts within
seconds, so the two sides are interleaved trial by trial, each after a
``gc.collect()``, and the guard reads the median of the per-pair
ratios: a drift then hits both sides of a pair alike, as in the
vectorized epoch-loop guard.  The bar sits well below the measured gap.
"""

import gc
import statistics
import time

from repro.sim.fluid import FluidNetwork
from repro.units import KILOBYTE, MEGABYTE
from repro.workload import FlowWorkload, WorkloadConfig

#: Below the ~7x measured on this workload, above anything a merely
#: cosmetic rework could hit by accident: losing the persistent index,
#: the lazy drain accounting or the completion heap drops the ratio
#: under the bar.
MIN_FLUID_SPEEDUP = 5.0
#: Interleaved reference/incremental trial pairs.
PAIRS = 5

GUARD_NODES, GUARD_FLOWS, GUARD_LOAD = 256, 400, 0.5
BANDWIDTH = 4e11


def _guard_workload():
    return FlowWorkload(WorkloadConfig(
        n_nodes=GUARD_NODES,
        load=GUARD_LOAD,
        node_bandwidth_bps=BANDWIDTH,
        mean_flow_bits=100 * KILOBYTE,
        truncation_bits=2 * MEGABYTE,
        seed=7,
    )).generate(GUARD_FLOWS)


def _timed_run(backend: str) -> float:
    net = FluidNetwork(GUARD_NODES, BANDWIDTH, backend=backend)
    flows = _guard_workload()
    gc.collect()
    start = time.perf_counter()
    net.run(flows)
    return time.perf_counter() - start


def test_incremental_beats_reference():
    # A warm-up pass per backend absorbs first-call costs.
    for backend in ("incremental", "reference"):
        _timed_run(backend)
    ratios = [_timed_run("reference") / _timed_run("incremental")
              for _ in range(PAIRS)]
    speedup = statistics.median(ratios)
    assert speedup >= MIN_FLUID_SPEEDUP, (
        f"incremental fluid engine only {speedup:.2f}x over reference "
        f"(required {MIN_FLUID_SPEEDUP}x; pairs "
        f"{[round(r, 2) for r in ratios]})"
    )
