"""Performance tooling: parallel sweeps and the perf-regression bench.

* :mod:`repro.perf.sweep` — :class:`ParallelSweepRunner` fans
  independent, seeded simulator configurations over worker processes
  and merges results in submission order (deterministic by
  construction; see the module docstring for the guarantees).
* :mod:`repro.perf.bench` — the ``sirius-repro bench`` harness: a
  pinned scenario matrix timing the cell simulator's two backends
  (``reference``/``vectorized``), the vectorized backend at
  paper scale (512/4096 nodes), both fluid event-loop backends
  (``reference``/``incremental``) and an end-to-end sweep,
  snapshotted to ``BENCH_<date>.json``.
"""

from repro.perf.bench import (
    BENCH_SCHEMA,
    BENCH_SCHEMA_V1,
    BENCH_SCHEMA_V2,
    BENCH_SCHEMA_V3,
    VECTORIZED_4096_RSS_BUDGET_KB,
    run_bench,
    validate_payload,
    write_payload,
)
from repro.perf.sweep import (
    WORKERS_ENV,
    FluidSweepJob,
    ParallelSweepRunner,
    SiriusSweepJob,
    SweepPoint,
    run_fluid_job,
    run_sirius_job,
)

__all__ = [
    "BENCH_SCHEMA",
    "BENCH_SCHEMA_V1",
    "BENCH_SCHEMA_V2",
    "BENCH_SCHEMA_V3",
    "VECTORIZED_4096_RSS_BUDGET_KB",
    "FluidSweepJob",
    "ParallelSweepRunner",
    "SiriusSweepJob",
    "SweepPoint",
    "WORKERS_ENV",
    "run_bench",
    "run_fluid_job",
    "run_sirius_job",
    "validate_payload",
    "write_payload",
]
