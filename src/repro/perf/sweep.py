"""Parallel fan-out of independent simulator configurations.

A paper figure is a *sweep*: the same simulator run at several loads,
multipliers or queue thresholds (Fig 9, 10, 12).  Each point is an
independent, fully-seeded simulation, which makes the sweep trivially
parallel — provided the parallelism cannot perturb the results.

:class:`ParallelSweepRunner` guarantees that by construction:

* **Jobs are descriptions, not objects.**  A job carries only the
  configuration and seeds; the worker process rebuilds the network and
  regenerates the workload from them, so nothing non-deterministic (or
  expensive to pickle) crosses the process boundary.
* **Results are compact.**  Workers return :class:`SweepPoint`
  summaries — the metrics the benchmarks actually plot — rather than
  the full ``SimulationResult`` with its thousands of ``Flow`` objects.
* **Order is submission order.**  ``multiprocessing.Pool.map`` with
  ``chunksize=1`` merges results in job order regardless of which
  worker finishes first, so a parallel sweep's output is positionally
  identical to the serial one.

Worker count resolution: an explicit ``workers=`` argument wins, then
the ``REPRO_SWEEP_WORKERS`` environment variable, then the machine's
CPU count.  ``workers=1`` (or a single job) runs serially in-process,
which is also the fallback the tests compare the parallel path against.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
from dataclasses import dataclass, field
from dataclasses import fields as dataclass_fields
from dataclasses import is_dataclass
from typing import (
    Callable,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

from repro.core.congestion import CongestionConfig
from repro.core.network import SiriusNetwork
from repro.core.schedule import SlotTiming
from repro.sim.fluid import FluidNetwork, pod_map_for
from repro.units import KILOBYTE, MEGABYTE, NANOSECOND
from repro.workload import FlowWorkload, WorkloadConfig

__all__ = [
    "FluidSweepJob",
    "ParallelSweepRunner",
    "SiriusSweepJob",
    "SweepPoint",
    "WORKERS_ENV",
    "run_fluid_job",
    "run_sirius_job",
]

#: Environment variable consulted when no explicit worker count is given.
WORKERS_ENV = "REPRO_SWEEP_WORKERS"

T = TypeVar("T")
R = TypeVar("R")


@dataclass(frozen=True)
class SiriusSweepJob:
    """One cell-simulator point of a sweep.

    Only configuration and seeds — the worker rebuilds the
    :class:`SiriusNetwork` and regenerates the workload, so a job is
    cheap to pickle and deterministic wherever it executes.
    """

    n_nodes: int
    grating_ports: int
    load: float
    n_flows: int
    uplink_multiplier: float = 1.5
    queue_threshold: int = 4
    ideal: bool = False
    selection: str = "drrm"
    guardband_ns: float = 10.0
    header_bytes: int = 18
    track_reorder: bool = False
    local_capacity_cells: Optional[int] = None
    mean_flow_bits: float = 100 * KILOBYTE
    seed: int = 1
    workload_seed: int = 2
    max_epochs: Optional[int] = None
    backend: Optional[str] = None
    label: str = ""

    def __post_init__(self) -> None:
        if self.n_flows < 1:
            raise ValueError(f"need at least one flow, got {self.n_flows}")
        if self.load <= 0:
            raise ValueError(f"load must be positive, got {self.load}")


@dataclass(frozen=True)
class FluidSweepJob:
    """One fluid-simulator (ESN baseline) point of a sweep."""

    n_nodes: int
    load: float
    n_flows: int
    node_bandwidth_bps: float
    oversubscription: Optional[float] = None
    pod_size: Optional[int] = None
    mean_flow_bits: float = 100 * KILOBYTE
    workload_seed: int = 2
    backend: Optional[str] = None
    label: str = ""

    def __post_init__(self) -> None:
        if self.n_flows < 1:
            raise ValueError(f"need at least one flow, got {self.n_flows}")
        if self.load <= 0:
            raise ValueError(f"load must be positive, got {self.load}")
        if self.node_bandwidth_bps <= 0:
            raise ValueError("node bandwidth must be positive")
        if (self.oversubscription is not None
                and self.oversubscription <= 0):
            raise ValueError("oversubscription must be positive")


@dataclass(frozen=True)
class SweepPoint:
    """Compact result of one sweep job — the plotted metrics only."""

    label: str
    kind: str
    load: float
    n_flows: int
    completed_flows: int
    normalized_goodput: float
    fct_p50_s: Optional[float]
    fct_p99_s: Optional[float]
    duration_s: float
    delivered_bits: float
    #: Cell-simulator extras (zero for fluid points).
    epochs: int = 0
    delivered_cells: int = 0
    peak_fwd_cells: int = 0
    peak_local_cells: int = 0
    peak_reorder_cells: int = 0
    failed_flows: int = 0
    extra: dict = field(default_factory=dict)


def _make_workload(n_nodes: int, load: float, bandwidth: float,
                   mean_flow_bits: float, seed: int) -> FlowWorkload:
    truncation = max(2 * MEGABYTE, 4 * mean_flow_bits)
    return FlowWorkload(WorkloadConfig(
        n_nodes=n_nodes,
        load=load,
        node_bandwidth_bps=bandwidth,
        mean_flow_bits=mean_flow_bits,
        truncation_bits=truncation,
        seed=seed,
    ))


def run_sirius_job(job: SiriusSweepJob, obs=None) -> SweepPoint:
    """Execute one cell-simulator job (module-level: picklable).

    ``obs`` attaches a live :class:`repro.obs.Observation` to the run —
    used by the in-process service executor (:mod:`repro.serve.jobs`);
    it never crosses the process-pool boundary, so pool jobs stay
    cheap to pickle.
    """
    timing = SlotTiming(guardband_s=job.guardband_ns * NANOSECOND,
                        header_bytes=job.header_bytes)
    net = SiriusNetwork(
        job.n_nodes, job.grating_ports,
        uplink_multiplier=job.uplink_multiplier,
        timing=timing,
        config=CongestionConfig(
            queue_threshold=job.queue_threshold,
            ideal=job.ideal,
            selection=job.selection,
        ),
        track_reorder=job.track_reorder,
        local_capacity_cells=job.local_capacity_cells,
        seed=job.seed,
        backend=job.backend,
    )
    workload = _make_workload(
        job.n_nodes, job.load, net.reference_node_bandwidth_bps,
        job.mean_flow_bits, job.workload_seed,
    )
    result = net.run(workload.generate(job.n_flows),
                     max_epochs=job.max_epochs, obs=obs)
    return SweepPoint(
        label=job.label,
        kind="sirius",
        load=job.load,
        n_flows=len(result.flows),
        completed_flows=len(result.completed_flows),
        normalized_goodput=result.normalized_goodput,
        fct_p50_s=result.fct_percentile(50),
        fct_p99_s=result.fct_percentile(99),
        duration_s=result.duration_s,
        delivered_bits=result.delivered_bits,
        epochs=result.epochs,
        delivered_cells=result.delivered_cells,
        peak_fwd_cells=result.peak_fwd_cells,
        peak_local_cells=result.peak_local_cells,
        peak_reorder_cells=result.peak_reorder_cells,
        failed_flows=result.failed_flows,
    )


def run_fluid_job(job: FluidSweepJob) -> SweepPoint:
    """Execute one fluid-simulator job (module-level: picklable)."""
    if job.oversubscription is None:
        net = FluidNetwork(job.n_nodes, job.node_bandwidth_bps,
                           backend=job.backend)
    else:
        pod = job.pod_size or max(2, job.n_nodes // 4)
        net = FluidNetwork(
            job.n_nodes, job.node_bandwidth_bps,
            pod_map=pod_map_for(job.n_nodes, pod),
            pod_bandwidth_bps=pod * job.node_bandwidth_bps / (
                job.oversubscription
            ),
            backend=job.backend,
        )
    workload = _make_workload(
        job.n_nodes, job.load, job.node_bandwidth_bps,
        job.mean_flow_bits, job.workload_seed,
    )
    result = net.run(workload.generate(job.n_flows))
    return SweepPoint(
        label=job.label,
        kind="fluid",
        load=job.load,
        n_flows=len(result.flows),
        completed_flows=len(result.completed_flows),
        normalized_goodput=result.normalized_goodput,
        fct_p50_s=result.fct_percentile(50),
        fct_p99_s=result.fct_percentile(99),
        duration_s=result.duration_s,
        delivered_bits=result.delivered_bits,
    )


def resolve_workers(explicit: Optional[int] = None) -> int:
    """Effective worker count: argument, then env, then CPU count."""
    if explicit is not None:
        if explicit < 1:
            raise ValueError(f"workers must be >= 1, got {explicit}")
        return explicit
    env = os.environ.get(WORKERS_ENV)
    if env is not None:
        try:
            value = int(env)
        except ValueError:
            raise ValueError(
                f"{WORKERS_ENV} must be a positive integer, got {env!r}"
            ) from None
        if value < 1:
            raise ValueError(
                f"{WORKERS_ENV} must be >= 1, got {env}"
            )
        return value
    return os.cpu_count() or 1


def _check_picklable(fn: Callable, jobs: Sequence) -> None:
    """Fail fast, by name, on anything the pool could not ship.

    ``multiprocessing`` reports a pickle failure from deep inside its
    worker-feeder thread, naming neither the job nor the field.  Checking
    up front costs one extra serialization of the (small, by design)
    job descriptions and turns that into an actionable error.
    """
    try:
        pickle.dumps(fn)
    except Exception as exc:
        name = getattr(fn, "__qualname__", repr(fn))
        raise ValueError(
            f"worker function {name} cannot be pickled for the process "
            f"pool ({exc}); use a module-level function"
        ) from exc
    for index, job in enumerate(jobs):
        try:
            pickle.dumps(job)
        except Exception as exc:
            detail = ""
            if is_dataclass(job) and not isinstance(job, type):
                for spec in dataclass_fields(job):
                    value = getattr(job, spec.name, None)
                    try:
                        pickle.dumps(value)
                    except Exception:
                        detail = (f": field '{spec.name}' "
                                  f"({type(value).__name__}) is not "
                                  "picklable")
                        break
            raise ValueError(
                f"job {index} ({type(job).__name__}) cannot be pickled "
                f"for the process pool{detail or f' ({exc})'}; jobs must "
                "carry only plain configuration values"
            ) from exc


def _indexed_call(entry):
    """Worker trampoline for :meth:`ParallelSweepRunner.map_stream`."""
    fn, index, job = entry
    return index, fn(job)


class ParallelSweepRunner:
    """Fan independent, seeded simulator jobs over worker processes.

    ``map(fn, jobs)`` returns one result per job, in submission order.
    With one worker (or fewer than two jobs) everything runs serially
    in-process — the degenerate case the parallel path is tested
    against for equality.
    """

    def __init__(self, workers: Optional[int] = None) -> None:
        self.workers = resolve_workers(workers)

    def map(self, fn: Callable[[T], R], jobs: Iterable[T]) -> List[R]:
        job_list: List[T] = list(jobs)
        if self.workers <= 1 or len(job_list) < 2:
            return [fn(job) for job in job_list]
        _check_picklable(fn, job_list)
        processes = min(self.workers, len(job_list))
        with multiprocessing.Pool(processes=processes) as pool:
            # chunksize=1: results merge in submission order and the
            # slowest job cannot strand a whole chunk on one worker.
            return pool.map(fn, job_list, chunksize=1)

    def map_stream(self, fn: Callable[[T], R], jobs: Iterable[T],
                   on_result: Optional[Callable[[int, R], None]] = None,
                   ) -> Iterator[Tuple[int, R]]:
        """Yield ``(job_index, result)`` pairs as jobs *complete*.

        The async-friendly counterpart of :meth:`map`: a long sweep
        surfaces each finished point immediately (completion order, via
        ``imap_unordered``) instead of blocking until the last job is
        done, so a service can stream per-point progress while the
        sweep runs.  ``on_result`` is invoked before each yield — handy
        when the consumer is a plain ``for`` loop in an executor thread
        marshalling progress back to an event loop.

        Results are the same as :meth:`map`'s — each job is still fully
        seeded and independent — only arrival order differs; reorder by
        the yielded index for the deterministic submission-order view.
        """
        job_list: List[T] = list(jobs)
        if self.workers <= 1 or len(job_list) < 2:
            for index, job in enumerate(job_list):
                result = fn(job)
                if on_result is not None:
                    on_result(index, result)
                yield index, result
            return
        _check_picklable(fn, job_list)
        entries = [(fn, index, job) for index, job in enumerate(job_list)]
        processes = min(self.workers, len(job_list))
        with multiprocessing.Pool(processes=processes) as pool:
            for index, result in pool.imap_unordered(
                    _indexed_call, entries, chunksize=1):
                if on_result is not None:
                    on_result(index, result)
                yield index, result

    def run_sirius(self, jobs: Sequence[SiriusSweepJob]) -> List[SweepPoint]:
        return self.map(run_sirius_job, jobs)

    def run_fluid(self, jobs: Sequence[FluidSweepJob]) -> List[SweepPoint]:
        return self.map(run_fluid_job, jobs)
