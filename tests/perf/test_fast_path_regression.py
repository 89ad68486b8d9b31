"""Tier-1 guard: the vectorized backend must actually be faster.

Equivalence tests prove the vectorized backend computes the same
results as the reference loop; this test proves it still pays for its
complexity.  Both backends run live, in-process, on the bench
harness's pinned micro scenario (64 nodes, sparse activity — the
regime the masks and idle-epoch skipping target).  Host speed drifts
within seconds, so the two sides are interleaved trial by trial, each
after a ``gc.collect()``, and the guard reads the median of the
per-pair ratios: a drift then hits both sides of a pair alike.  The
bar sits below the recorded speedup (see the committed
``BENCH_<date>.json``: ~3.5x) — but a regression that makes the
backend pointless still fails.
"""

import gc
import statistics
import time

from repro.core.congestion import CongestionConfig
from repro.core.network import SiriusNetwork
from repro.perf.bench import (
    MICRO_FLOWS,
    MICRO_GRATING,
    MICRO_NODES,
    _micro_workload,
)

#: The vectorized backend's acceptance criterion: it must earn a 3x gap
#: over the reference loop at 64 nodes to justify a second strategy.
MIN_VECTORIZED_SPEEDUP = 3.0
#: Interleaved reference/vectorized trial pairs.
PAIRS = 5


def _timed_run(backend: str) -> float:
    net = SiriusNetwork(MICRO_NODES, MICRO_GRATING,
                        uplink_multiplier=1.5, config=CongestionConfig(),
                        seed=1, backend=backend)
    flows = _micro_workload(MICRO_NODES, MICRO_FLOWS,
                            net.reference_node_bandwidth_bps)
    gc.collect()
    start = time.perf_counter()
    net.run(flows)
    return time.perf_counter() - start


def test_backends_beat_reference():
    # A warm-up pass per backend absorbs first-call costs (imports,
    # allocator growth, numpy initialization).
    for backend in ("vectorized", "reference"):
        _timed_run(backend)
    ratios = [_timed_run("reference") / _timed_run("vectorized")
              for _ in range(PAIRS)]
    speedup = statistics.median(ratios)
    assert speedup >= MIN_VECTORIZED_SPEEDUP, (
        f"vectorized backend only {speedup:.2f}x over reference "
        f"(required {MIN_VECTORIZED_SPEEDUP}x; pairs "
        f"{[round(r, 2) for r in ratios]})"
    )
