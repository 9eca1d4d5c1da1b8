"""Command-line interface: ``python -m repro <command>``.

Commands:

- ``list`` — show every reproducible experiment with its paper artifact.
- ``run <experiment> [...] [--jobs N] [--no-cache] [--shards N]`` — run
  catalogue entries by id (e.g. ``fig10``, ``table3``, or ``all``; see
  ``repro.harness.experiments``), print each paper-vs-measured table and
  check its shape claims: exit 1 naming the entry and the claim when one
  fails, 2 on bad input. ``--jobs`` fans each experiment's sweep across
  worker processes and repeated runs reuse the content-addressed result
  cache; ``--shards`` runs shard-aware experiments (``mesh``) on N
  parallel event loops (results are bit-identical in every mode — see
  ``repro.harness.sweep`` and ``repro.sim.sharded``).
- ``sweep [--clear]`` — inspect or purge the sweep result cache.
- ``calibration`` — dump the timing-model constants and their anchors.
- ``resources [--flows N] [--connections N] [...]`` — estimate the FPGA
  footprint of a NIC configuration (Table 1's estimator).
- ``trace [--stack S] [--interface I] [...]`` — run a traced echo
  benchmark and print the per-RPC stage breakdown plus the unified
  metrics-registry snapshot (optionally dumping spans as JSON lines);
  ``trace --replay dump.jsonl`` re-renders the breakdown from a previous
  dump (exit code 2 on a missing or corrupt file).
- ``timeline [--chrome-trace out.json] [--interval-ns N] [--report]`` —
  run a telemetry-enabled echo benchmark and print the exact
  per-component utilization table; ``--chrome-trace`` exports a Chrome
  trace-event / Perfetto JSON file (open at https://ui.perfetto.dev);
  ``--report`` sweeps offered load and prints the bottleneck attribution
  at the latency knee; ``--tenants N [--noisy-mrps X] [--steady-mrps Y]``
  runs N echo tenants on one virtualized FPGA (Fig 14) and prints the
  per-tenant utilization table instead.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.harness.report import render_bottleneck, render_table


def _positive(text: str) -> int:
    """argparse type: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def cmd_list(_args) -> int:
    from repro.harness import experiments

    print(render_table(
        ["experiment", "reproduces"],
        [(experiment.id, experiment.description)
         for experiment in experiments.CATALOGUE],
        title="Reproducible experiments (run with: python -m repro run <id>)",
    ))
    return 0


def cmd_run(args) -> int:
    from repro.harness import experiments

    by_id = {experiment.id: experiment for experiment in experiments.CATALOGUE}
    targets = list(by_id) if "all" in args.experiments else args.experiments
    unknown = [t for t in targets if t not in by_id]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}; "
              "see `python -m repro list`", file=sys.stderr)
        return 2
    failed = False
    for target in targets:
        experiment = by_id[target]
        print(f"== {target}: {experiment.description}")
        started = time.time()
        options = {"jobs": args.jobs, "cache": not args.no_cache}
        if experiment.sharded:
            options.update(shards=args.shards, window_mode=args.window_mode)
        try:
            data = experiment.run(**options)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(experiment.render(data))
        for claim in experiment.failures(data):
            print(f"check failed: {target}: {claim}", file=sys.stderr)
            failed = True
        print(f"   ({time.time() - started:.1f}s)\n")
    return 1 if failed else 0


def cmd_trace(args) -> int:
    from repro.harness.report import render_breakdown, render_metrics
    from repro.harness.runner import EchoRig
    from repro.obs import JsonLinesSink, dump_metrics, dump_trace

    if args.replay is not None:
        from repro.obs import TraceFileError, breakdown, load_trace

        try:
            data = load_trace(args.replay)
        except TraceFileError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if not data["spans"]:
            print(f"error: no spans in {args.replay} (was the dump written "
                  "with --jsonl from a traced run?)", file=sys.stderr)
            return 2
        print(render_breakdown(
            breakdown(data["spans"], warmup_ns=0),
            title=f"Per-stage latency breakdown (replay of {args.replay}, "
                  f"{len(data['spans'])} spans)",
        ))
        return 0

    try:
        rig = EchoRig(
            stack_name=args.stack,
            interface=args.interface,
            batch_size=args.batch,
            num_threads=args.threads,
            trace=True,
        )
        if args.open_loop_mrps is not None:
            result = rig.open_loop(args.open_loop_mrps, nreq=args.nreq)
        else:
            result = rig.closed_loop(window=args.window, nreq=args.nreq)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(render_breakdown(
        result.breakdown,
        title=f"Per-stage latency breakdown ({args.stack}/{args.interface}, "
              f"{result.count} RPCs, {result.throughput_mrps:.2f} Mrps)",
    ))
    print()
    print(render_metrics(result.metrics))
    if args.jsonl:
        with JsonLinesSink(args.jsonl) as sink:
            emitted = dump_trace(rig.tracer, sink)
            dump_metrics(rig.registry, sink)
        print(f"\nwrote {emitted + 1} records to {args.jsonl}")
    return 0


def cmd_timeline(args) -> int:
    from repro.harness.report import render_utilization
    from repro.harness.runner import EchoRig

    if args.tenants is not None:
        return _timeline_tenants(args)

    if args.report:
        from repro.harness.experiments import fig11_bottleneck

        result = fig11_bottleneck(
            loads_mrps=args.loads, batch_size=args.batch, nreq=args.nreq,
            jobs=args.jobs, cache=not args.no_cache,
        )
        print(render_bottleneck(result["report"]))
        return 0

    try:
        chaos = None
        if args.chaos is not None:
            from repro.chaos import ChaosConfig
            from repro.chaos.rig import FAULT_CLASSES

            if args.chaos not in FAULT_CLASSES:
                raise ValueError(
                    f"unknown fault class {args.chaos!r} "
                    f"(choose from {sorted(FAULT_CLASSES)})"
                )
            chaos = ChaosConfig.from_dict(dict(FAULT_CLASSES[args.chaos],
                                               seed=1))
        rig = EchoRig(
            stack_name=args.stack,
            interface=args.interface,
            batch_size=args.batch,
            num_threads=args.threads,
            trace=args.chrome_trace is not None,
            telemetry=True,
            telemetry_interval_ns=args.interval_ns,
            telemetry_adaptive=args.adaptive,
            chaos=chaos,
            mode=args.mode,
            hard_overrides=({"reliable_transport": True,
                             "flow_control": True}
                            if args.chaos is not None else None),
        )
        if args.open_loop_mrps is not None:
            result = rig.open_loop(args.open_loop_mrps, nreq=args.nreq)
        else:
            result = rig.closed_loop(window=args.window, nreq=args.nreq)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"{result.count} RPCs, {result.throughput_mrps:.2f} Mrps, "
          f"p50 {result.p50_us:.2f} us, p99 {result.p99_us:.2f} us, "
          f"{rig.timeline.samples_taken} telemetry samples")
    if args.adaptive:
        tl = rig.timeline
        print(f"adaptive sampler: interval {tl.interval_ns} -> "
              f"{tl.current_interval_ns} ns ({tl.tightenings} tightenings, "
              f"{tl.widenings} widenings)")
    print()
    print(render_utilization(result.utilization))
    if args.anomalies:
        from repro.harness.report import render_anomalies
        from repro.obs import detect_anomalies

        print()
        print(render_anomalies(detect_anomalies(result.timeline)))
    if args.chrome_trace:
        try:
            emitted = rig.export_chrome_trace(args.chrome_trace)
        except OSError as exc:
            print(f"error: cannot write {args.chrome_trace}: {exc}",
                  file=sys.stderr)
            return 2
        print(f"\nwrote {emitted} trace events to {args.chrome_trace} "
              "(open at https://ui.perfetto.dev)")
    return 0


def _timeline_tenants(args) -> int:
    """``timeline --tenants N``: one noisy + N-1 steady tenants (Fig 14)."""
    from repro.harness.report import render_tenant_utilization
    from repro.harness.runner import MultiTenantEchoRig

    try:
        names = [f"t{i}" for i in range(args.tenants)]
        rig = MultiTenantEchoRig(
            tenants=names,
            interface=args.interface,
            batch_size=args.batch,
            telemetry=True,
            telemetry_interval_ns=args.interval_ns,
        )
        loads = {name: (args.noisy_mrps if name == names[0]
                        else args.steady_mrps) for name in names}
        result = rig.open_loop(loads, nreq_total=args.nreq)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(render_table(
        ["tenant", "offered Mrps", "RPCs", "Mrps", "p50 us", "p99 us",
         "drops"],
        [(tenant, loads[tenant], stats.count, stats.throughput_mrps,
          stats.p50_us, stats.p99_us, stats.drops)
         for tenant, stats in result.per_tenant.items()],
        title=f"Per-tenant echo over one virtualized FPGA "
              f"({names[0]} is the noisy neighbour)",
    ))
    print()
    print(render_tenant_utilization(result.utilization, result.tenant_map))
    if args.anomalies:
        from repro.harness.report import render_anomalies
        from repro.obs import detect_anomalies

        print()
        print(render_anomalies(detect_anomalies(result.timeline)))
    if args.chrome_trace:
        try:
            emitted = rig.export_chrome_trace(args.chrome_trace)
        except OSError as exc:
            print(f"error: cannot write {args.chrome_trace}: {exc}",
                  file=sys.stderr)
            return 2
        print(f"\nwrote {emitted} trace events to {args.chrome_trace} "
              "(one counter process per tenant; open at "
              "https://ui.perfetto.dev)")
    return 0


def cmd_sweep(args) -> int:
    from repro.harness.sweep import cache_info, clear_cache

    if args.clear:
        removed = clear_cache()
        print(f"removed {removed} cached sweep result(s)")
        return 0
    info = cache_info()
    print(render_table(
        ["property", "value"],
        [("directory", info["dir"]),
         ("entries", info["entries"]),
         ("size (KiB)", f"{info['bytes'] / 1024:.1f}")],
        title="Sweep result cache",
    ))
    return 0


def cmd_calibration(_args) -> int:
    from dataclasses import fields

    from repro.hw.calibration import DEFAULT_CALIBRATION

    rows = [(f.name, getattr(DEFAULT_CALIBRATION, f.name))
            for f in fields(DEFAULT_CALIBRATION)]
    print(render_table(["constant", "value"], rows,
                       title="Timing-model calibration (ns unless noted)"))
    return 0


def cmd_resources(args) -> int:
    from repro.hw.nic.config import NicHardConfig
    from repro.hw.nic.resources import estimate_resources, max_nic_instances

    hard = NicHardConfig(
        num_flows=args.flows,
        connection_cache_entries=args.connections,
        hw_reassembly=args.hw_reassembly,
        reliable_transport=args.reliable,
        flow_control=args.flow_control,
        inline_crypto=args.inline_crypto,
    )
    footprint = estimate_resources(hard)
    print(render_table(
        ["resource", "used", "utilization"],
        [("LUTs", footprint.luts, f"{footprint.lut_utilization:.1%}"),
         ("M20K blocks", footprint.m20k_blocks,
          f"{footprint.bram_utilization:.1%}"),
         ("registers", footprint.registers,
          f"{footprint.register_utilization:.1%}")],
        title=f"NIC footprint: {args.flows} flows, "
              f"{args.connections} cached connections",
    ))
    print(f"instances fitting under 50% utilization: "
          f"{max_nic_instances(hard)}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Dagger (ASPLOS'21) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list reproducible experiments")
    run_parser = sub.add_parser("run", help="run experiments by id")
    run_parser.add_argument("experiments", nargs="+",
                            help="experiment ids (or 'all')")
    run_parser.add_argument("--jobs", type=_positive, default=1, metavar="N",
                            help="fan sweep points across N worker "
                                 "processes (results are bit-identical "
                                 "to --jobs 1)")
    run_parser.add_argument("--no-cache", action="store_true",
                            help="ignore and do not update the sweep "
                                 "result cache")
    run_parser.add_argument("--shards", type=_positive, default=None,
                            metavar="N",
                            help="run shard-aware experiments (e.g. 'mesh') "
                                 "with N parallel event-loop workers; "
                                 "results are bit-identical to --shards 1 "
                                 "(see repro.sim.sharded)")
    run_parser.add_argument("--window-mode", dest="window_mode",
                            choices=("fixed", "adaptive"), default=None,
                            help="window policy for shard-aware "
                                 "experiments: 'adaptive' stretches "
                                 "conservative windows past hosts' egress "
                                 "bounds, 'fixed' grants one lookahead per "
                                 "window; payloads are bit-identical "
                                 "either way")
    sweep_parser = sub.add_parser(
        "sweep", help="inspect or purge the sweep result cache"
    )
    sweep_parser.add_argument("--clear", action="store_true",
                              help="delete every cached sweep result")
    sub.add_parser("calibration", help="dump timing-model constants")
    trace_parser = sub.add_parser(
        "trace",
        help="run a traced echo benchmark; print the per-stage breakdown",
    )
    trace_parser.add_argument("--stack", default="dagger")
    trace_parser.add_argument("--interface", default="upi")
    trace_parser.add_argument("--batch", type=int, default=1)
    trace_parser.add_argument("--threads", type=int, default=1)
    trace_parser.add_argument("--window", type=int, default=8,
                              help="closed-loop in-flight window per client")
    trace_parser.add_argument("--nreq", type=int, default=4000)
    trace_parser.add_argument("--open-loop-mrps", type=float, default=None,
                              help="use Poisson open-loop at this load "
                                   "instead of the closed loop")
    trace_parser.add_argument("--jsonl", default=None, metavar="PATH",
                              help="also dump spans + metrics as JSON lines")
    trace_parser.add_argument("--replay", default=None, metavar="PATH",
                              help="re-render the breakdown from a previous "
                                   "--jsonl dump instead of running")
    timeline_parser = sub.add_parser(
        "timeline",
        help="run a telemetry-enabled echo benchmark; print exact "
             "utilization (and optionally export a Perfetto trace)",
    )
    timeline_parser.add_argument("--stack", default="dagger")
    timeline_parser.add_argument("--interface", default="upi")
    timeline_parser.add_argument("--batch", type=int, default=1)
    timeline_parser.add_argument("--threads", type=int, default=1)
    timeline_parser.add_argument("--window", type=int, default=8,
                                 help="closed-loop in-flight window per "
                                      "client")
    timeline_parser.add_argument("--nreq", type=int, default=4000)
    timeline_parser.add_argument("--open-loop-mrps", type=float, default=None,
                                 help="use Poisson open-loop at this load "
                                      "instead of the closed loop")
    timeline_parser.add_argument("--interval-ns", type=int, default=2000,
                                 help="telemetry sampling period in "
                                      "simulated ns")
    timeline_parser.add_argument("--chrome-trace", default=None,
                                 metavar="PATH",
                                 help="export a Chrome trace-event / "
                                      "Perfetto JSON file (open at "
                                      "https://ui.perfetto.dev)")
    timeline_parser.add_argument("--report", action="store_true",
                                 help="sweep offered load and print the "
                                      "bottleneck attribution at the "
                                      "latency knee")
    timeline_parser.add_argument("--loads", type=float, nargs="+",
                                 default=None, metavar="MRPS",
                                 help="offered loads for --report")
    timeline_parser.add_argument("--jobs", type=_positive, default=1,
                                 metavar="N",
                                 help="worker processes for --report")
    timeline_parser.add_argument("--no-cache", action="store_true",
                                 help="ignore the sweep result cache for "
                                      "--report")
    timeline_parser.add_argument("--tenants", type=int, default=None,
                                 metavar="N",
                                 help="multi-tenant mode: run N echo "
                                      "tenants on one virtualized FPGA "
                                      "(t0 is the noisy neighbour) and "
                                      "print per-tenant utilization")
    timeline_parser.add_argument("--noisy-mrps", type=float, default=7.5,
                                 help="offered load of the noisy tenant "
                                      "(with --tenants)")
    timeline_parser.add_argument("--steady-mrps", type=float, default=0.5,
                                 help="offered load of each steady tenant "
                                      "(with --tenants)")
    timeline_parser.add_argument("--anomalies", action="store_true",
                                 help="run the change-point + z-score "
                                      "classifier over the collected "
                                      "timeline and name the culprit "
                                      "component/tenant")
    timeline_parser.add_argument("--chaos", default=None, metavar="CLASS",
                                 help="inject a named fault class "
                                      "(repro.chaos FAULT_CLASSES) so "
                                      "--anomalies has something to find")
    timeline_parser.add_argument("--adaptive", action="store_true",
                                 help="adaptive telemetry sampling: widen "
                                      "the interval on flat stretches, "
                                      "tighten around change points")
    timeline_parser.add_argument("--mode", default="exact",
                                 choices=("exact", "sketch"),
                                 help="latency recording: exact sample "
                                      "list or O(1)-memory quantile "
                                      "sketch")
    resources_parser = sub.add_parser(
        "resources", help="estimate a NIC configuration's FPGA footprint"
    )
    resources_parser.add_argument("--flows", type=int, default=64)
    resources_parser.add_argument("--connections", type=int, default=65_536)
    resources_parser.add_argument("--hw-reassembly", action="store_true")
    resources_parser.add_argument("--reliable", action="store_true")
    resources_parser.add_argument("--flow-control", action="store_true")
    resources_parser.add_argument("--inline-crypto", action="store_true")

    args = parser.parse_args(argv)
    handlers = {
        "list": cmd_list,
        "run": cmd_run,
        "calibration": cmd_calibration,
        "resources": cmd_resources,
        "trace": cmd_trace,
        "timeline": cmd_timeline,
        "sweep": cmd_sweep,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
