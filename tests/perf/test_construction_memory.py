"""Tier-1 guard: building a network stores no per-uplink or per-pair state.

The topology's wiring, its contention check and each node's candidate
intermediates are computed from closed forms, so construction memory
grows with the node count, not with ``nodes x uplinks`` or
``nodes x nodes``.  The guard reads the ``tracemalloc`` peak, which
depends only on what the code allocates, never on host speed or load.
Storing the 4096-node topology's 524,288 uplinks again, or an eager
candidate list per node, multiplies the peak several times over.
"""

import tracemalloc

from repro.core.network import SiriusNetwork
from repro.core.schedule import CyclicSchedule
from repro.topology import SiriusTopology

#: ``SiriusNetwork(4096, 64, uplink_multiplier=1.5)``: 6.0 MB measured
#: (the per-node state of 4096 nodes).  A deque of fresh ``Counter``
#: placeholders per node for the request history took 9.4 MB, and the
#: stored uplinks took 121 MB.
NETWORK_4096_PEAK_MB = 8
#: ``SiriusTopology(32768, 128, uplink_multiplier=2)`` plus its
#: contention check: 5.4 MB measured; 16.8 M stored uplinks would take
#: gigabytes.
TOPOLOGY_32768_PEAK_MB = 16


def _traced_peak_mb(build) -> float:
    build()  # first-call costs (lazy imports, numpy) stay untraced
    tracemalloc.start()
    try:
        build()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / 2**20


def test_network_construction_at_4096_nodes():
    peak = _traced_peak_mb(
        lambda: SiriusNetwork(4096, 64, uplink_multiplier=1.5))
    assert peak < NETWORK_4096_PEAK_MB, (
        f"building a 4096-node network peaked at {peak:.1f} MB "
        f"(bar {NETWORK_4096_PEAK_MB} MB)"
    )


def test_topology_and_check_at_32768_nodes():
    def build():
        topo = SiriusTopology(32768, 128, uplink_multiplier=2)
        CyclicSchedule(topo).verify_contention_free()

    peak = _traced_peak_mb(build)
    assert peak < TOPOLOGY_32768_PEAK_MB, (
        f"a 32768-node topology and its check peaked at {peak:.1f} MB "
        f"(bar {TOPOLOGY_32768_PEAK_MB} MB)"
    )
