"""Reproduction benchmark for the Sirius simulators (Fig 9, §4.5, 4096 nodes).

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fig9_sirius --seed 2 --seconds 25 --trace 0

Workloads (see README.md): ``fig9_sirius``, ``sparse_4096``,
``fig9_esn``.  The run repeats whole rounds of the workload's points
until ``--seconds`` of measurement have passed, then prints a summary
and, as its last line, one JSON object::

    {"correct": true, "attempted": 5, "failed": 1, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics (``setup_s``, ``run_s``,
``peak_rss_mb``); ``--trace 1`` runs one untraced and one traced round
and reports the per-layer metrics, writing the traced spans to
``perfbench-spans-<workload>.json`` at the checkout root.

The program is imported from the checkout's ``src/`` only; without it
the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
import traceback

import calib
import checks
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Environment the measured process runs under: a fixed string-hash seed
#: (the fluid engine keys its state on ``("tx", n)`` tuples, so dict
#: probing, and with it timing, otherwise varies between processes) and
#: single-threaded numpy.
PINNED_ENV = {"PYTHONHASHSEED": "0", "OMP_NUM_THREADS": "1",
              "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
#: Engine selectors the program reads; unset so its defaults run.
UNSET_ENV = ("REPRO_BACKEND", "REPRO_FAST_PATH")

END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MiB"}


def per_layer_units() -> dict:
    """Name -> unit of every per-layer metric, across all workloads."""
    units = dict(tracing.LAYER_UNITS)
    for points in workloads.WORKLOADS.values():
        for point in points:
            units[f"point.{point.label}.run_s"] = "s"
    return units


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _pin_environment(argv) -> None:
    """Re-execute this script under :data:`PINNED_ENV` if needed.

    ``exec`` replaces the process, so no child is left to wait for.
    """
    env = dict(os.environ)
    env.update(PINNED_ENV)
    for name in UNSET_ENV:
        env.pop(name, None)
    if env != dict(os.environ):
        sys.stdout.flush()
        os.execve(sys.executable,
                  [sys.executable, os.path.abspath(__file__), *argv], env)


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=2)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class Outcome:
    """What one operation (one point in one round) produced."""

    def __init__(self, label: str) -> None:
        self.label = label
        self.setup = calib.Section()
        self.run = calib.Section()
        self.failed = False
        self.unexpected = False
        self.problems = {}
        self.epochs = 0
        self.events = 0
        self.retransmitted = 0


def run_point(point, repro, seed, clock, spans, tag, probe,
              cross_check) -> Outcome:
    """Build, run and check one point; never raises.

    With a layer ``probe``, its wrappers are in place for the build and
    the run only: the checks' own simulations are not the point's work.
    """
    out = Outcome(point.label)
    gc.collect()
    try:
        with spans.span("point", point=tag, label=point.label):
            if probe is not None:
                probe.install()
            try:
                with clock.measure() as out.setup:
                    built = point.build(repro, seed, spans)
                specs = checks.snapshot(built.flows)
                with clock.measure() as out.run, spans.span("run"):
                    result = built.sim.run(built.flows, **built.run_kwargs)
            finally:
                if probe is not None:
                    probe.restore()
            with spans.span("check"):
                found = point.check(repro, specs, result, built, seed)
            if cross_check and point.cross_check is not None:
                with spans.span("cross_check"):
                    found.update(point.cross_check(repro, result, seed))
            out.epochs = getattr(result, "epochs", 0)
            out.events = getattr(result, "events", 0)
            out.retransmitted = getattr(result, "retransmitted_cells", 0)
    except Exception:  # one failed operation must not end the run
        traceback.print_exc(file=sys.stderr)
        out.failed = out.unexpected = True
        return out
    out.problems = {name: p for name, p in found.items() if p}
    out.failed = bool(out.problems)
    out.unexpected = any(name != point.known_fault for name in out.problems)
    return out


def run_round(points, repro, seed, clock, spans, index, probe=None):
    """Every point once, on round ``index``'s inputs.  Cross-checks run
    in the first untraced round only."""
    prefix = "traced" if probe is not None else str(index)
    return [run_point(point, repro, workloads.point_seed(seed, index, i),
                      clock, spans, f"{prefix}.{point.label}", probe,
                      cross_check=index == 0 and probe is None)
            for i, point in enumerate(points)]


def _report(outcomes) -> None:
    for out in outcomes:
        status = "FAILED" if out.failed else "ok"
        print(f"  {out.label:<18} setup {out.setup.scaled_s:8.4f}s "
              f"(raw {out.setup.raw_s:.4f})  run {out.run.scaled_s:8.4f}s "
              f"(raw {out.run.raw_s:.4f})  {status}")
        for name, problems in out.problems.items():
            for problem in problems:
                print(f"      {name}: {problem}")


def _run_s(rounds, field="scaled_s") -> float:
    """Sum over points of each point's median run time across rounds:
    the time of one pass over the workload's points, robust to the
    rare round whose heavy-tailed flow mix costs several times more."""
    return sum(statistics.median(getattr(r[i].run, field) for r in rounds)
               for i in range(len(rounds[0])))


def measure(args, points, clock, spans):
    """Import the program, then run whole rounds until ``--seconds``
    have passed or, with ``--trace``, one untraced round and the same
    round again traced.  Returns the import section, the rounds and the
    layer probe (traced runs) and the peak RSS after the first round
    (untraced runs)."""
    # Cold set-up: the package import, then each point's construction
    # and input generation in the first round.
    gc.collect()
    with clock.measure() as imported, spans.span("import"):
        sys.path.insert(0, SRC)
        import repro

    rounds = []
    t_measure = time.perf_counter()
    if args.trace:
        rounds.append(run_round(points, repro, args.seed, clock, spans, 0))
        probe = tracing.program_probe()
        traced = run_round(points, repro, args.seed, clock, spans, 0, probe)
        return imported, rounds + [traced], probe, None
    while True:
        rounds.append(run_round(points, repro, args.seed, clock, spans,
                                len(rounds)))
        if len(rounds) == 1:
            first_round_peak = _peak_rss_mb()
        if time.perf_counter() - t_measure >= args.seconds:
            return imported, rounds, None, first_round_peak


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _parse(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program source at {SRC}/repro",
              file=sys.stderr)
        return 2
    _pin_environment(argv)

    points = workloads.WORKLOADS[args.workload]
    clock = calib.CalibratedClock()
    spans = tracing.SpanRecorder(enabled=bool(args.trace))

    with spans.span("benchmark", point="benchmark",
                    workload=args.workload, seed=args.seed):
        imported, rounds, probe, peak_mb = measure(args, points, clock,
                                                   spans)

    outcomes = [out for r in rounds for out in r]
    for index, r in enumerate(rounds):
        print(f"round {index}:")
        _report(r)
    attempted = len(outcomes)
    failed = sum(out.failed for out in outcomes)
    correct = not any(out.unexpected for out in outcomes)

    if args.trace:
        traced, untraced = rounds[1], rounds[0]
        metrics = tracing.layer_metrics(
            probe,
            epochs=sum(out.epochs for out in traced),
            fluid_events=sum(out.events for out in traced),
            retransmitted_cells=sum(out.retransmitted for out in traced))
        metrics["import.repro_s"] = imported.raw_s
        for out in untraced:
            metrics[f"point.{out.label}.run_s"] = out.run.scaled_s
        untraced_run = _run_s([untraced])
        metrics["trace.overhead"] = (_run_s([traced]) / untraced_run
                                     if untraced_run else 0.0)
        metrics["host.calib_s"] = clock.mean_probe_s
        # Every per-layer metric is printed; layers and points this
        # workload does not exercise read 0.
        values = {name: {"value": metrics.get(name, 0.0), "unit": unit}
                  for name, unit in per_layer_units().items()}
        path = os.path.join(ROOT, f"perfbench-spans-{args.workload}.json")
        spans.write(path, {"workload": args.workload, "seed": args.seed})
        print(f"spans: {path}")
    else:
        # One cold set-up: the import and each point's first build.
        setup = (imported.raw_s + sum(o.setup.raw_s for o in rounds[0]),
                 imported.scaled_s + sum(o.setup.scaled_s for o in rounds[0]))
        run = (_run_s(rounds, "raw_s"), _run_s(rounds))
        print(f"rounds {len(rounds)}  setup_s {setup[1]:.4f} "
              f"(raw {setup[0]:.4f})  run_s {run[1]:.4f} (raw {run[0]:.4f})"
              f"  probe {clock.mean_probe_s:.6f}s "
              f"(reference {calib.REFERENCE_PROBE_S}s)")
        # The peak of one pass over the points: later rounds draw new
        # flow mixes, and how many fit in --seconds depends on the host.
        values = {"setup_s": setup[1], "run_s": run[1],
                  "peak_rss_mb": peak_mb}
        values = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                  for name, value in values.items()}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": values}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
