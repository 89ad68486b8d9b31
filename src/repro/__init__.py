"""repro — a reproduction of *Sirius: A Flat Datacenter Network with
Nanosecond Optical Switching* (Ballani et al., SIGCOMM 2020).

The library rebuilds, in Python, every system the paper describes:

* the optical substrate — AWGR gratings, tunable lasers (standard and
  disaggregated), SOA gates, link budgets and BER models
  (:mod:`repro.optics`);
* the flat topology and the folded-Clos baselines
  (:mod:`repro.topology`);
* Sirius' network stack — static cyclic scheduling, Valiant
  load-balanced routing, the request/grant congestion-control protocol
  and an epoch-synchronous cell-level simulator (:mod:`repro.core`);
* physical-layer mechanisms — phase-caching CDR and the guardband
  budget (:mod:`repro.phy`);
* decentralized time synchronization (:mod:`repro.sync`);
* workload generators matching the paper's evaluation (§2.2, §7)
  (:mod:`repro.workload`);
* the idealized electrical baselines as a max-min-fair fluid simulator
  (:mod:`repro.sim`);
* power/cost/scaling analysis models (:mod:`repro.analysis`);
* a software surrogate of the four-node prototype (:mod:`repro.testbed`).

Quickstart::

    from repro import SiriusNetwork, FlowWorkload, WorkloadConfig

    net = SiriusNetwork(n_nodes=32, grating_ports=8)
    workload = FlowWorkload(WorkloadConfig(
        n_nodes=32, load=0.5,
        node_bandwidth_bps=net.reference_node_bandwidth_bps,
    ))
    result = net.run(workload.generate(5_000))
    print(result.normalized_goodput, result.fct_percentile(99))
"""

from repro.core import (
    Cell,
    FailureDetector,
    FailurePlan,
    ParallelSiriusPlanes,
    RackDeployment,
    CongestionConfig,
    CyclicSchedule,
    Flow,
    ReorderBuffer,
    SimulationResult,
    SiriusNetwork,
    SiriusNode,
    SlotTiming,
    ValiantRouter,
)
from repro.obs import (
    EventTracer,
    MetricsRegistry,
    Observation,
    PhaseProfiler,
)
from repro.optics import (
    AWGR,
    BERModel,
    CombLaserSource,
    FixedLaserBank,
    LinkBudget,
    SOABank,
    TunableLaser,
    TunableLaserBank,
)
from repro.phy import GuardbandBudget, PhaseCachingCDR
from repro.sim import FluidNetwork, SlotLevelSirius, pod_map_for
from repro.sync import DriftingClock, SyncProtocol
from repro.testbed import PrototypeRig
from repro.topology import ClosTopology, SiriusTopology
from repro.workload import (
    FlowWorkload,
    PacketTraceModel,
    TrafficPattern,
    WorkloadConfig,
)

__version__ = "1.0.0"

__all__ = [
    "AWGR",
    "BERModel",
    "Cell",
    "ClosTopology",
    "FailureDetector",
    "FailurePlan",
    "ParallelSiriusPlanes",
    "RackDeployment",
    "CombLaserSource",
    "CongestionConfig",
    "CyclicSchedule",
    "DriftingClock",
    "EventTracer",
    "FixedLaserBank",
    "Flow",
    "FlowWorkload",
    "FluidNetwork",
    "GuardbandBudget",
    "LinkBudget",
    "MetricsRegistry",
    "Observation",
    "PacketTraceModel",
    "PhaseCachingCDR",
    "PhaseProfiler",
    "PrototypeRig",
    "ReorderBuffer",
    "SOABank",
    "SimulationResult",
    "SiriusNetwork",
    "SiriusNode",
    "SiriusTopology",
    "SlotLevelSirius",
    "SlotTiming",
    "SyncProtocol",
    "TrafficPattern",
    "TunableLaser",
    "TunableLaserBank",
    "ValiantRouter",
    "WorkloadConfig",
    "pod_map_for",
    "__version__",
]
