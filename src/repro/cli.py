"""Command-line interface to the Sirius reproduction.

Subcommands::

    python -m repro.cli simulate   --nodes 32 --load 0.5 [--ideal] ...
    python -m repro.cli compare    --nodes 32 --loads 0.25,0.5,1.0
    python -m repro.cli prototype  --generation v2
    python -m repro.cli power      [--laser-overheads 1,3,5,7,10,20]
    python -m repro.cli cost       [--grating-fractions 0.05,0.25,1.0]
    python -m repro.cli sync       --nodes 16 --epochs 20000
    python -m repro.cli sweep      --nodes 32 --loads 0.1,0.5,1.0
    python -m repro.cli bench      [--quick] [--out BENCH.json]
    python -m repro.cli report     run.jsonl
    python -m repro.cli trace      run.jsonl -o run.trace.json
    python -m repro.cli serve      [--port 8151] [--workers 4]
    python -m repro.cli watch      [--port 8151] [--runs run-1,run-2]

``sweep`` fans a Sirius-vs-ESN load sweep over worker processes
(:class:`repro.perf.ParallelSweepRunner`); ``bench`` runs the pinned
perf-regression scenario matrix and snapshots it to
``BENCH_<date>.json`` (see EXPERIMENTS.md for the schema).

``simulate --trace-out run.jsonl`` records a full :mod:`repro.obs`
trace; ``report`` renders a run summary from a JSONL or Chrome trace
file and ``trace`` converts a JSONL log to Chrome ``trace_event`` JSON
(open it in ``chrome://tracing`` or https://ui.perfetto.dev).

``serve`` starts the live telemetry service (:mod:`repro.serve`):
submit jobs over HTTP, watch them stream in a browser dashboard or
with ``watch`` from another shell.

Each prints a compact text report; the benchmark suite
(``pytest benchmarks/``) remains the canonical figure regenerator.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro import (
    CongestionConfig,
    FlowWorkload,
    FluidNetwork,
    PrototypeRig,
    SiriusNetwork,
    SyncProtocol,
    WorkloadConfig,
    pod_map_for,
)
from repro.analysis import NetworkCostModel, NetworkPowerModel, SiriusPowerModel
from repro.core.backend import BACKENDS
from repro.obs import (
    MetricsRegistry,
    Observation,
    ascii_sparkline,
    format_table,
    load_any,
    render_report,
    run_trace,
    write_chrome_trace,
    write_jsonl,
)
from repro.sync.protocol import make_clock_ensemble
from repro.units import KILOBYTE, MEGABYTE, NS, PS, US


def _floats(text: str) -> List[float]:
    return [float(part) for part in text.split(",") if part]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Sirius (SIGCOMM 2020) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run one Sirius simulation")
    sim.add_argument("--nodes", type=int, default=32)
    sim.add_argument("--grating-ports", type=int, default=8)
    sim.add_argument("--load", type=float, default=0.5)
    sim.add_argument("--flows", type=int, default=1000)
    sim.add_argument("--multiplier", type=float, default=1.5)
    sim.add_argument("--queue-threshold", type=int, default=4)
    sim.add_argument("--ideal", action="store_true",
                     help="SIRIUS (IDEAL) baseline instead of the protocol")
    sim.add_argument("--mean-flow-kb", type=float, default=100.0)
    sim.add_argument("--seed", type=int, default=1)
    sim.add_argument("--telemetry", action="store_true",
                     help="print a backlog sparkline")
    sim.add_argument("--trace-out", metavar="PATH",
                     help="record a repro.obs trace to this JSONL file")
    sim.add_argument("--chrome-out", metavar="PATH",
                     help="also write a Chrome trace_event JSON file")
    sim.add_argument("--profile", action="store_true",
                     help="print the per-phase wall-clock breakdown")
    sim.add_argument("--sample-every", type=int, default=4,
                     help="epochs between queue-gauge samples (default 4)")
    sim.add_argument("--backend", choices=BACKENDS, default=None,
                     help="epoch-loop backend (default: REPRO_BACKEND "
                          "or 'vectorized'; 'reference' is the all-nodes "
                          "oracle)")

    cmp_ = sub.add_parser("compare", help="Sirius vs ESN baselines")
    cmp_.add_argument("--nodes", type=int, default=32)
    cmp_.add_argument("--grating-ports", type=int, default=8)
    cmp_.add_argument("--loads", type=_floats, default=[0.25, 0.5, 1.0])
    cmp_.add_argument("--flows", type=int, default=800)
    cmp_.add_argument("--seed", type=int, default=2)

    proto = sub.add_parser("prototype", help="the §6 four-node testbed")
    proto.add_argument("--generation", choices=("v1", "v2"), default="v2")
    proto.add_argument("--epochs", type=int, default=15)

    power = sub.add_parser("power", help="the §5 power analysis (Fig 6a)")
    power.add_argument("--laser-overheads", type=_floats,
                       default=[1, 3, 5, 7, 10, 20])

    cost = sub.add_parser("cost", help="the §5 cost analysis (Fig 6b)")
    cost.add_argument("--grating-fractions", type=_floats,
                      default=[0.05, 0.10, 0.25, 0.50, 0.75, 1.0])

    sync = sub.add_parser("sync", help="time-synchronization accuracy")
    sync.add_argument("--nodes", type=int, default=16)
    sync.add_argument("--epochs", type=int, default=20_000)

    report = sub.add_parser(
        "report", help="summarize a recorded run trace"
    )
    report.add_argument("file", help="JSONL run log or Chrome trace JSON")

    trace = sub.add_parser(
        "trace", help="convert a JSONL run log to Chrome trace_event JSON"
    )
    trace.add_argument("file", help="JSONL run log (from simulate --trace-out)")
    trace.add_argument("-o", "--output", required=True,
                       help="output path for the Chrome trace JSON")

    sweep = sub.add_parser(
        "sweep", help="parallel load sweep: Sirius vs the ESN baselines"
    )
    sweep.add_argument("--nodes", type=int, default=32)
    sweep.add_argument("--grating-ports", type=int, default=8)
    sweep.add_argument("--loads", type=_floats,
                       default=[0.10, 0.25, 0.50, 0.75, 1.00])
    sweep.add_argument("--flows", type=int, default=800)
    sweep.add_argument("--seed", type=int, default=1)
    sweep.add_argument("--workers", type=int, default=None,
                       help="worker processes (default: REPRO_SWEEP_WORKERS "
                            "or the CPU count)")

    bench = sub.add_parser(
        "bench", help="perf-regression scenario matrix -> BENCH_<date>.json"
    )
    bench.add_argument("--quick", action="store_true",
                       help="reduced scale (smoke test; not comparable "
                            "to full-scale snapshots)")
    bench.add_argument("--out", metavar="PATH", default=None,
                       help="output JSON path (default BENCH_<date>.json)")
    bench.add_argument("--no-write", action="store_true",
                       help="print the summary without writing JSON")
    bench.add_argument("--workers", type=int, default=None,
                       help="worker processes for the sweep scenario")

    serve = sub.add_parser(
        "serve", help="start the live telemetry service + dashboard"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8151,
                       help="TCP port (0 picks an ephemeral port)")
    serve.add_argument("--workers", type=int, default=4,
                       help="max concurrently running jobs")
    serve.add_argument("--sample-interval", type=float, default=0.25,
                       metavar="SECONDS",
                       help="telemetry sampling period (default 0.25)")

    watch = sub.add_parser(
        "watch", help="stream a running service's telemetry to the terminal"
    )
    watch.add_argument("--host", default="127.0.0.1")
    watch.add_argument("--port", type=int, default=8151)
    watch.add_argument("--runs", default=None,
                       help="comma-separated run ids (default: all runs)")
    watch.add_argument("--streams", default="metrics,events",
                       help="comma-separated subset of metrics,events")
    watch.add_argument("--max-frames", type=int, default=None,
                       help="stop after N frames (default: stream forever)")

    sub.add_parser(
        "lint",
        help="run the repro.checks static analysis (see sirius-lint)",
        add_help=False,
    )
    return parser


# -- subcommand implementations ------------------------------------------------
def _cmd_simulate(args) -> int:
    config = CongestionConfig(
        queue_threshold=args.queue_threshold, ideal=args.ideal,
    )
    net = SiriusNetwork(
        args.nodes, args.grating_ports,
        uplink_multiplier=args.multiplier,
        config=config, track_reorder=True, seed=args.seed,
        backend=args.backend,
    )
    workload = FlowWorkload(WorkloadConfig(
        n_nodes=args.nodes, load=args.load,
        node_bandwidth_bps=net.reference_node_bandwidth_bps,
        mean_flow_bits=args.mean_flow_kb * KILOBYTE,
        truncation_bits=max(2 * MEGABYTE, 4 * args.mean_flow_kb * KILOBYTE),
        seed=args.seed + 1,
    ))
    observing = bool(args.trace_out or args.chrome_out or args.profile)
    if observing:
        obs = Observation.recording(sample_every=args.sample_every)
    elif args.telemetry:
        obs = Observation(registry=MetricsRegistry(),
                          sample_every=args.sample_every)
    else:
        obs = None
    result = net.run(workload.generate(args.flows), obs=obs)
    print(f"system            : "
          f"{'SIRIUS (IDEAL)' if args.ideal else 'Sirius'} "
          f"{args.nodes} nodes, {args.multiplier}x uplinks, "
          f"Q={args.queue_threshold}")
    print(f"epochs            : {result.epochs} "
          f"({result.duration_s / US:.1f} us)")
    print(f"completed flows   : {len(result.completed_flows)}"
          f"/{len(result.flows)}")
    print(f"goodput           : {result.normalized_goodput:.3f}")
    p50, p99 = result.fct_percentile(50), result.fct_percentile(99)
    if p99 is not None:
        print(f"short-flow FCT    : p50 {p50 / US:.1f} us, "
              f"p99 {p99 / US:.1f} us")
    print(f"peak queues       : fwd {result.peak_fwd_bytes / 1000:.1f} KB, "
          f"reorder {result.peak_reorder_bytes / 1000:.1f} KB")
    if args.telemetry:
        gauge = obs.registry.gauge("net_backlog_cells", track=True)
        backlog = [value for _at, value in gauge.series()]
        if backlog:
            print(f"backlog           : {ascii_sparkline(backlog)}")
    if observing:
        meta = {
            "system": "SIRIUS (IDEAL)" if args.ideal else "Sirius",
            "nodes": args.nodes,
            "epochs": result.epochs,
            "epoch_duration_s": net.schedule.epoch_duration_s,
            "seed": args.seed,
        }
        if args.trace_out:
            path = write_jsonl(args.trace_out, obs, meta=meta)
            print(f"trace             : {path}")
        if args.chrome_out or args.profile:
            trace = run_trace(obs, meta=meta)
            if args.chrome_out:
                path = write_chrome_trace(args.chrome_out, trace)
                print(f"chrome trace      : {path}")
            if args.profile and trace.profile is not None:
                rows = [
                    [row["phase"], f"{row['seconds'] / US:.0f}",
                     f"{row['share']:.1%}", row["laps"]]
                    for row in trace.profile.breakdown()
                ]
                print(format_table(
                    ["phase", "wall us", "share", "laps"], rows
                ))
                print(f"profiler coverage : "
                      f"{trace.profile.coverage():.1%} of "
                      f"{trace.profile.total_run_s / US:.0f} us measured")
    return 0


def _cmd_compare(args) -> int:
    reference = SiriusNetwork(
        args.nodes, args.grating_ports, uplink_multiplier=1.0
    ).reference_node_bandwidth_bps
    pod = max(2, args.nodes // 4)

    def workload(load):
        return FlowWorkload(WorkloadConfig(
            n_nodes=args.nodes, load=load, node_bandwidth_bps=reference,
            mean_flow_bits=100 * KILOBYTE, truncation_bits=2 * MEGABYTE,
            seed=args.seed,
        )).generate(args.flows)

    print(f"{'load':>6} {'system':>18} {'goodput':>8} {'p99 FCT us':>11}")
    for load in args.loads:
        systems = [
            ("ESN (Ideal)", FluidNetwork(args.nodes, reference)),
            ("ESN-OSUB (Ideal)", FluidNetwork(
                args.nodes, reference,
                pod_map=pod_map_for(args.nodes, pod),
                pod_bandwidth_bps=pod * reference / 3.0,
            )),
        ]
        for name, net in systems:
            result = net.run(workload(load))
            p99 = result.fct_percentile(99)
            print(f"{load:>6.0%} {name:>18} "
                  f"{result.normalized_goodput:>8.3f} "
                  f"{(p99 or 0) / US:>11.1f}")
        sirius = SiriusNetwork(
            args.nodes, args.grating_ports, uplink_multiplier=1.5,
            seed=args.seed,
        ).run(workload(load))
        p99 = sirius.fct_percentile(99)
        print(f"{load:>6.0%} {'Sirius':>18} "
              f"{sirius.normalized_goodput:>8.3f} "
              f"{(p99 or 0) / US:>11.1f}")
    return 0


def _cmd_prototype(args) -> int:
    rig = PrototypeRig(args.generation, seed=5)
    report = rig.run(n_epochs=args.epochs, sync_epochs=4000)
    print(f"Sirius {report.generation}")
    print(f"guardband             : {report.guardband_s / NS:.2f} ns")
    print(f"worst reconfiguration : "
          f"{report.worst_reconfiguration_s / NS:.3f} ns "
          f"({'OK' if report.guardband_sufficient else 'EXCEEDED'})")
    print(f"post-FEC error-free   : {report.error_free} "
          f"({report.bits_checked:,} bits)")
    print(f"sync deviation        : "
          f"±{report.sync_max_offset_s / PS:.2f} ps")
    return 0


def _cmd_power(args) -> int:
    sirius, esn = SiriusPowerModel(), NetworkPowerModel()
    print("tunable/fixed laser power -> Sirius/ESN power ratio")
    for overhead in args.laser_overheads:
        ratio = sirius.ratio_vs_esn(overhead, esn)
        print(f"  {overhead:>5.1f}x : {ratio:.1%}  "
              f"({1 - ratio:.0%} savings)")
    return 0


def _cmd_cost(args) -> int:
    model = NetworkCostModel()
    print("grating/switch cost -> Sirius cost ratios")
    print(f"{'fraction':>9} {'vs non-blocking':>16} {'vs 3:1 oversub':>15}")
    for fraction in args.grating_fractions:
        print(f"{fraction:>9.0%} "
              f"{model.ratio_vs_esn(fraction):>16.1%} "
              f"{model.ratio_vs_esn(fraction, oversubscription=3.0):>15.1%}")
    return 0


def _cmd_sync(args) -> int:
    protocol = SyncProtocol(make_clock_ensemble(args.nodes, seed=9))
    result = protocol.run(args.epochs,
                          warmup_epochs=min(5000, args.epochs // 3))
    print(f"{args.nodes} nodes, {args.epochs} epochs: max offset "
          f"±{result.max_abs_offset_ps:.2f} ps (paper: ±5 ps for 2 nodes)")
    return 0


def _cmd_sweep(args) -> int:
    from repro.perf import (
        FluidSweepJob,
        ParallelSweepRunner,
        SiriusSweepJob,
        run_fluid_job,
        run_sirius_job,
    )

    reference = SiriusNetwork(
        args.nodes, args.grating_ports, uplink_multiplier=1.0
    ).reference_node_bandwidth_bps
    jobs = []
    for load in args.loads:
        jobs.append(("ESN (Ideal)", run_fluid_job, FluidSweepJob(
            n_nodes=args.nodes, load=load, n_flows=args.flows,
            node_bandwidth_bps=reference, workload_seed=args.seed + 1,
            label=f"esn@{load}",
        )))
        jobs.append(("Sirius", run_sirius_job, SiriusSweepJob(
            n_nodes=args.nodes, grating_ports=args.grating_ports,
            load=load, n_flows=args.flows, seed=args.seed,
            workload_seed=args.seed + 1, label=f"sirius@{load}",
        )))
    runner = ParallelSweepRunner(args.workers)
    # One heterogeneous fan-out: each entry already binds its job
    # function, so a single map() call covers both simulators.
    points = runner.map(_run_sweep_entry, [(fn, job) for _n, fn, job in jobs])
    print(f"{len(jobs)} jobs on {runner.workers} workers")
    print(f"{'load':>6} {'system':>12} {'goodput':>8} {'p99 FCT us':>11}")
    for (name, _fn, _job), point in zip(jobs, points):
        p99 = point.fct_p99_s or 0.0
        print(f"{point.load:>6.0%} {name:>12} "
              f"{point.normalized_goodput:>8.3f} {p99 / US:>11.1f}")
    return 0


def _run_sweep_entry(entry):
    """Top-level trampoline so heterogeneous jobs stay picklable."""
    fn, job = entry
    return fn(job)


def _cmd_bench(args) -> int:
    import datetime

    from repro.perf import run_bench, write_payload
    from repro.perf.bench import main_text

    payload = run_bench(quick=args.quick, workers=args.workers)
    print(main_text(payload))
    if not args.no_write:
        out = args.out or (
            f"BENCH_{datetime.date.today().isoformat()}.json"
        )
        print(f"wrote {write_payload(payload, out)}")
    return 0


def _cmd_serve(args) -> int:
    import asyncio

    from repro.serve import serve_forever

    try:
        asyncio.run(serve_forever(
            args.host, args.port,
            sample_interval_s=args.sample_interval,
            max_workers=args.workers,
        ))
    except KeyboardInterrupt:
        print("sirius-repro serve: stopped")
    return 0


def _cmd_watch(args) -> int:
    import asyncio

    from repro.serve.watch import watch as watch_client

    runs: object = "*"
    if args.runs:
        runs = [part for part in args.runs.split(",") if part]
    streams = [part for part in args.streams.split(",") if part]
    try:
        asyncio.run(watch_client(
            args.host, args.port, runs=runs, streams=streams,
            max_frames=args.max_frames,
        ))
    except KeyboardInterrupt:
        pass
    except ConnectionRefusedError:
        print(f"no service at {args.host}:{args.port} "
              f"(start one with `sirius-repro serve`)")
        return 1
    return 0


def _cmd_report(args) -> int:
    print(render_report(load_any(args.file), title=args.file))
    return 0


def _cmd_trace(args) -> int:
    path = write_chrome_trace(args.output, load_any(args.file))
    print(f"wrote {path} (open in chrome://tracing or ui.perfetto.dev)")
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "compare": _cmd_compare,
    "prototype": _cmd_prototype,
    "power": _cmd_power,
    "cost": _cmd_cost,
    "sync": _cmd_sync,
    "sweep": _cmd_sweep,
    "bench": _cmd_bench,
    "report": _cmd_report,
    "trace": _cmd_trace,
    "serve": _cmd_serve,
    "watch": _cmd_watch,
}


def main(argv: Optional[List[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "lint":
        # Forwarded wholesale so `sirius-repro lint` and `sirius-lint`
        # accept identical options.
        from repro.checks.cli import main as lint_main

        return lint_main(argv[1:])
    args = _build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
