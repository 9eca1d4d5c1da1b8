"""The experiment catalogue: every paper artifact, defined once.

Each :class:`Experiment` in :data:`CATALOGUE` names one table or figure of
the paper's evaluation (or one ablation / future-work extension) and holds
everything about it: its runner, the paper's reference values, the
renderer whose text is archived as ``benchmarks/results/<result>.txt``,
and the shape claims the measured data must satisfy. ``python -m repro
list`` and ``run``, the ``benchmarks/`` suite and EXPERIMENTS.md's tables
all read the catalogue; nothing else renders or checks a result.

Runners return plain data (lists of dicts) with the paper's reference
numbers attached under ``paper_*`` keys. Every runner takes ``jobs`` and
``cache`` keyword arguments; those with independent sub-runs evaluate
their grid through :func:`repro.harness.sweep.run_sweep`, so ``python -m
repro run fig10 --jobs 4`` fans the cells across worker processes and
repeated runs hit the content-addressed result cache. The module-level
``_*_point`` helpers exist so sweep points can name them by dotted path;
they must return JSON-able data (see the sweep module's determinism
contract).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.apps.kvs import run_kvs_workload
from repro.apps.microservices.flight import build_flight_app
from repro.apps.microservices.social_network import (
    DEFAULT_MIX as SOCIAL_MIX,
    PROFILED_TIERS,
    social_network_graph,
)
from repro.harness.report import (
    render_bottleneck,
    render_slo_curve,
    render_table,
)
from repro.harness.runner import EchoRig, run_closed_loop, run_open_loop
from repro.harness.sweep import SweepPoint, run_sweep
from repro.obs import attribute_bottleneck
from repro.hw.calibration import DEFAULT_CALIBRATION
from repro.hw.nic.config import NicHardConfig
from repro.hw.nic.resources import estimate_resources, max_nic_instances
from repro.workloads.kv_datasets import DATASETS, WORKLOAD_MIXES
from repro.workloads.rpc_sizes import (
    MEDIA_SIZES,
    SOCIAL_NETWORK_SIZES,
    request_size_cdf,
    sample_sizes,
)

#: A shape check yields one ``(claim, holds)`` pair per claim.
Check = Callable[[Any], Iterator[Tuple[str, bool]]]


@dataclass(frozen=True)
class Experiment:
    """One catalogue entry.

    ``run(jobs=1, cache=True)`` measures the artifact; ``render`` turns
    the measured data into the text archived as
    ``benchmarks/results/<result>.txt``; ``check`` states the shape claims
    the data must satisfy (``None`` for entries that only report).
    ``paper`` holds the paper's reference values the runner attaches to
    its rows, and ``sharded`` marks the entry whose runner also takes the
    CLI's ``shards`` and ``window_mode``.
    """

    id: str
    description: str
    result: str
    run: Callable[..., Any]
    render: Callable[[Any], str]
    check: Optional[Check] = None
    paper: Any = None
    sharded: bool = False

    def failures(self, data: Any) -> List[str]:
        """The claims ``data`` breaks; empty when every check holds."""
        if self.check is None:
            return []
        return [claim for claim, holds in self.check(data) if not holds]


def _within(measured: float, paper: float, fraction: float) -> bool:
    """True when ``measured`` is within ``fraction`` of ``paper``."""
    return abs(measured - paper) / paper < fraction


#: Dotted paths for sweep points (resolvable inside worker processes).
_CLOSED_LOOP = "repro.harness.runner:run_closed_loop"
_OPEN_LOOP = "repro.harness.runner:run_open_loop"
_THREAD_SCALING = "repro.harness.runner:run_thread_scaling"
_RAW_READS = "repro.harness.runner:run_raw_reads"
_KVS_POINT = "repro.harness.experiments:_kvs_point"
_FLIGHT_POINT = "repro.harness.experiments:_flight_point"
_FIG3_POINT = "repro.harness.experiments:_fig3_point"
_FIG5_POINT = "repro.harness.experiments:_fig5_point"
_FIG14_POINT = "repro.harness.experiments:_fig14_point"


def _kvs_point(**kwargs) -> Dict:
    """Sweep wrapper: one Fig 12 KVS cell as a plain dict."""
    return asdict(run_kvs_workload(**kwargs))


def _flight_point(optimized: bool, load_krps: float, nreq: int,
                  measure_from_issue: bool = False) -> Dict:
    """Sweep wrapper: one Flight Registration run as a plain dict."""
    app = build_flight_app(optimized=optimized)
    result = app.run(load_krps, nreq=nreq,
                     measure_from_issue=measure_from_issue)
    return {
        "throughput_krps": result.throughput_krps,
        "p50_us": result.p50_us,
        "p90_us": result.p90_us,
        "p99_us": result.p99_us,
        "drop_rate": result.drop_rate,
    }


def _fig3_point(load_krps: float, nreq: int) -> List[Dict]:
    """Sweep wrapper: Fig 3 per-tier rows for one offered load."""
    graph = social_network_graph("linux-tcp")
    result = graph.run_load("nginx", SOCIAL_MIX, load_krps=load_krps,
                            nreq=nreq)
    rows = []
    for label, tier in PROFILED_TIERS.items():
        breakdown = result.tracer.breakdown(tier)
        rows.append({
            "load_krps": load_krps,
            "tier": f"{label}:{tier}",
            "p50_us": breakdown.p50_us,
            "p99_us": breakdown.p99_us,
            "app_fraction": breakdown.app_fraction,
            "rpc_fraction": breakdown.rpc_fraction,
            "transport_fraction": breakdown.transport_fraction,
            "network_fraction": breakdown.network_fraction,
        })
    e2e = result.tracer.e2e_breakdown()
    rows.append({
        "load_krps": load_krps,
        "tier": "e2e",
        "p50_us": e2e.p50_us,
        "p99_us": e2e.p99_us,
        "app_fraction": None,
        "rpc_fraction": None,
        "transport_fraction": None,
        "network_fraction": None,
    })
    return rows


def _fig5_point(load_krps: float, shared: bool, nreq: int) -> Dict:
    """Sweep wrapper: one Fig 5 (load, core-placement) cell."""
    irq_cores = [0, 1, 2, 3]
    tiers = (
        "nginx", "compose_post", "media", "user", "unique_id",
        "text", "user_mention", "url_shorten", "post_storage",
        "home_timeline", "user_timeline",
    )
    if shared:
        pins = {tier: irq_cores for tier in tiers}
    else:
        pins = {tier: [4, 5, 6, 7, 8, 9, 10, 11] for tier in tiers}
    graph = social_network_graph("linux-tcp", cores=pins)
    irq_threads = [graph.machine.thread(core, name=f"irq{core}")
                   for core in irq_cores]
    for microservice in graph.tiers.values():
        microservice.stack.irq_threads = irq_threads
    result = graph.run_load("nginx", SOCIAL_MIX, load_krps=load_krps,
                            nreq=nreq)
    return {
        "load_krps": load_krps,
        "shared_cores": shared,
        "p50_us": result.p50_us,
        "p99_us": result.p99_us,
        "drop_rate": result.drop_rate,
    }


# --------------------------------------------------------------------- T1


def table1_resources(jobs: int = 1, cache: bool = True) -> List[Dict]:
    """Table 1: FPGA resource usage of the reference NIC configuration."""
    del jobs, cache  # an analytic model, not a sweep
    reference = NicHardConfig(num_flows=64, connection_cache_entries=65_536)
    footprint = estimate_resources(reference)
    max_flows_config = NicHardConfig(
        num_flows=512, connection_cache_entries=65_536
    )
    big = estimate_resources(max_flows_config)
    return [
        {
            "parameter": "FPGA resource usage, LUT (K)",
            "paper": 87.1,
            "measured": footprint.luts / 1000.0,
            "utilization": footprint.lut_utilization,
            "paper_utilization": 0.20,
        },
        {
            "parameter": "FPGA resource usage, BRAM blocks (M20K)",
            "paper": 555,
            "measured": footprint.m20k_blocks,
            "utilization": footprint.bram_utilization,
            "paper_utilization": 0.20,
        },
        {
            "parameter": "FPGA resource usage, registers (K)",
            "paper": 120.8,
            "measured": footprint.registers / 1000.0,
            "utilization": footprint.register_utilization,
            "paper_utilization": None,
        },
        {
            "parameter": "Max number of NIC flows (<=50% util)",
            "paper": 512,
            "measured": 512 if big.fits(0.5) else 0,
            "utilization": big.lut_utilization,
            "paper_utilization": 0.50,
        },
        {
            "parameter": "NIC instances fitting one FPGA (default config)",
            "paper": 8,  # the Fig 14 deployment instantiates 8
            "measured": min(8, max_nic_instances(NicHardConfig())),
            "utilization": None,
            "paper_utilization": None,
        },
    ]


def _render_table1(rows) -> str:
    return render_table(
        ["parameter", "paper", "measured", "utilization"],
        [(r["parameter"], r["paper"], r["measured"],
          "-" if r["utilization"] is None else f"{r['utilization']:.0%}")
         for r in rows],
        title="Table 1 — Dagger NIC implementation specs",
    )


def _check_table1(rows):
    by_name = {r["parameter"]: r for r in rows}
    for name in ("FPGA resource usage, LUT (K)",
                 "FPGA resource usage, BRAM blocks (M20K)",
                 "FPGA resource usage, registers (K)"):
        row = by_name[name]
        yield (f"{name} within 5% of the paper",
               _within(row["measured"], row["paper"], 0.05))
    flows = by_name["Max number of NIC flows (<=50% util)"]
    yield "512 NIC flows fit under 50% utilization", flows["measured"] == 512
    instances = by_name["NIC instances fitting one FPGA (default config)"]
    yield "at least 8 NIC instances fit one FPGA", instances["measured"] >= 8


# --------------------------------------------------------------------- T3

#: Table 3 rows: (stack, rpc bytes, paper RTT us, paper Mrps).
TABLE3_PAPER = {
    "ix": {"bytes": 64, "rtt_us": 11.4, "mrps": 1.5},
    "fasst-rdma": {"bytes": 48, "rtt_us": 2.8, "mrps": 4.8},
    "erpc": {"bytes": 32, "rtt_us": 2.3, "mrps": 4.96},
    "netdimm": {"bytes": 64, "rtt_us": 2.2, "mrps": None},
    "dagger": {"bytes": 64, "rtt_us": 2.1, "mrps": 12.4},
}


def table3_rpc_platforms(nreq: int = 12000, jobs: int = 1,
                         cache: bool = True) -> List[Dict]:
    """Table 3: median RTT and single-core throughput per platform."""
    points = []
    layout = []
    for stack, paper in TABLE3_PAPER.items():
        # Table 3's object sizes are wire sizes; the 16 B RPC header is
        # part of them (a "64 B RPC" fits one cache line).
        payload = max(16, paper["bytes"] - 16)
        # Unloaded RTT: a single outstanding request over a 0.3 us TOR.
        points.append(SweepPoint(_CLOSED_LOOP, dict(
            stack_name=stack, batch_size=1, window=1, nreq=min(nreq, 3000),
            rpc_bytes=payload, loopback=False,
        )))
        has_throughput = paper["mrps"] is not None
        if has_throughput:
            points.append(SweepPoint(_CLOSED_LOOP, dict(
                stack_name=stack,
                batch_size=4 if stack == "dagger" else 1,
                auto_batch=(stack == "dagger"),
                window=64, nreq=nreq, rpc_bytes=payload,
            )))
        layout.append((stack, paper, has_throughput))
    results = iter(run_sweep(points, jobs=jobs, cache=cache))
    rows = []
    for stack, paper, has_throughput in layout:
        latency = next(results)
        throughput = next(results).throughput_mrps if has_throughput else None
        rows.append({
            "stack": stack,
            "rpc_bytes": paper["bytes"],
            "paper_rtt_us": paper["rtt_us"],
            "rtt_us": latency.p50_us,
            "paper_mrps": paper["mrps"],
            "mrps": throughput,
        })
    return rows


def _render_table3(rows) -> str:
    return render_table(
        ["stack", "bytes", "paper RTT us", "RTT us", "paper Mrps", "Mrps"],
        [(r["stack"], r["rpc_bytes"], r["paper_rtt_us"], r["rtt_us"],
          "-" if r["paper_mrps"] is None else r["paper_mrps"],
          "-" if r["mrps"] is None else r["mrps"]) for r in rows],
        title="Table 3 — RPC platforms, 0.3 us TOR",
    )


def _check_table3(rows):
    by_stack = {r["stack"]: r for r in rows}
    for stack, row in by_stack.items():
        yield (f"{stack} RTT within 25% of the paper",
               _within(row["rtt_us"], row["paper_rtt_us"], 0.25))
    # Dagger has the highest per-core throughput (1.3-3.8x over the
    # others) and IX is slowest on both axes.
    dagger = by_stack["dagger"]
    for other in ("ix", "fasst-rdma", "erpc"):
        yield (f"dagger Mrps > 1.3x {other}",
               dagger["mrps"] / by_stack[other]["mrps"] > 1.3)
    yield "ix RTT > 3x dagger", by_stack["ix"]["rtt_us"] > 3 * dagger["rtt_us"]


# --------------------------------------------------------------------- F10

#: Fig 10 bars: (interface, batch, paper Mrps, paper p50 us, paper p99 us).
FIG10_PAPER = [
    ("pcie-mmio", 1, 4.2, 3.8, 5.2),
    ("pcie-doorbell", 1, 4.3, 4.4, 5.1),
    ("pcie-doorbell", 3, 7.9, 4.4, 5.8),
    ("pcie-doorbell", 7, 9.9, 4.6, 7.0),
    ("pcie-doorbell", 11, 10.8, 5.5, 9.1),
    ("upi", 1, 8.1, 1.8, 2.0),
    ("upi", 4, 12.4, 2.4, 3.1),
]


def fig10_interfaces(nreq: int = 12000,
                     latency_load_fraction: float = 0.75,
                     jobs: int = 1, cache: bool = True) -> List[Dict]:
    """Fig 10: single-core throughput + latency per CPU-NIC interface.

    Two sweep phases: the open-loop load of each latency run is derived
    from the measured saturated throughput of the same configuration, so
    the saturation sweep must complete first.
    """
    saturated = run_sweep(
        [SweepPoint(_CLOSED_LOOP, dict(
            stack_name="dagger", interface=interface, batch_size=batch,
            window=64, nreq=nreq,
        )) for interface, batch, *_ in FIG10_PAPER],
        jobs=jobs, cache=cache,
    )
    loaded = run_sweep(
        [SweepPoint(_OPEN_LOOP, dict(
            load_mrps=max(0.5, result.throughput_mrps
                          * latency_load_fraction),
            stack_name="dagger", interface=interface, batch_size=batch,
            nreq=nreq,
        )) for (interface, batch, *_), result in zip(FIG10_PAPER, saturated)],
        jobs=jobs, cache=cache,
    )
    rows = []
    for (interface, batch, paper_mrps, paper_p50, paper_p99), sat, load \
            in zip(FIG10_PAPER, saturated, loaded):
        rows.append({
            "interface": interface,
            "batch": batch,
            "paper_mrps": paper_mrps,
            "mrps": sat.throughput_mrps,
            "paper_p50_us": paper_p50,
            "p50_us": load.p50_us,
            "paper_p99_us": paper_p99,
            "p99_us": load.p99_us,
        })
    return rows


def _render_fig10(rows) -> str:
    return render_table(
        ["interface", "B", "paper Mrps", "Mrps",
         "paper p50", "p50 us", "paper p99", "p99 us"],
        [(r["interface"], r["batch"], r["paper_mrps"], r["mrps"],
          r["paper_p50_us"], r["p50_us"], r["paper_p99_us"], r["p99_us"])
         for r in rows],
        title="Fig 10 — CPU-NIC interfaces, 64 B RPCs, one core",
    )


def _check_fig10(rows):
    by_key = {(r["interface"], r["batch"]): r for r in rows}
    for (interface, batch), row in by_key.items():
        yield (f"{interface} B={batch} Mrps within 15% of the paper",
               _within(row["mrps"], row["paper_mrps"], 0.15))
    # The doorbell batching ladder is monotone; UPI beats every PCIe mode
    # on throughput at B=4 and on latency at B=1.
    doorbells = [by_key[("pcie-doorbell", b)]["mrps"] for b in (1, 3, 7, 11)]
    yield "doorbell Mrps rises with B", doorbells == sorted(doorbells)
    pcie = [r for k, r in by_key.items() if k[0] != "upi"]
    yield ("upi B=4 out-runs every PCIe mode",
           by_key[("upi", 4)]["mrps"] > max(r["mrps"] for r in pcie))
    yield ("upi B=1 p50 below every PCIe mode",
           by_key[("upi", 1)]["p50_us"] < min(r["p50_us"] for r in pcie))


# --------------------------------------------------------------------- F11


def fig11_latency_load(loads_mrps: Optional[List[float]] = None,
                       nreq: int = 10000, jobs: int = 1,
                       cache: bool = True) -> List[Dict]:
    """Fig 11 (left): latency vs load for B=1, B=2, B=4 and auto."""
    configs = [("B=1", 1, False), ("B=2", 2, False), ("B=4", 4, False),
               ("auto", 4, True)]
    grid = []
    for label, batch, auto in configs:
        # Batch-1 saturates ~8.1 Mrps; larger batches go to ~12.4.
        loads = loads_mrps or ([1, 2, 4, 6, 7] if batch == 1 and not auto
                               else [1, 2, 4, 6, 8, 10, 12])
        for load in loads:
            grid.append((label, batch, auto, load))
    results = run_sweep(
        [SweepPoint(_OPEN_LOOP, dict(
            load_mrps=load, batch_size=batch, auto_batch=auto, nreq=nreq,
        )) for _, batch, auto, load in grid],
        jobs=jobs, cache=cache,
    )
    return [{
        "config": label,
        "offered_mrps": load,
        "p50_us": result.p50_us,
        "p99_us": result.p99_us,
        "throughput_mrps": result.throughput_mrps,
    } for (label, _, _, load), result in zip(grid, results)]


def _render_fig11_load(rows) -> str:
    return render_table(
        ["config", "offered Mrps", "p50 us", "p99 us", "thr Mrps"],
        [(r["config"], r["offered_mrps"], r["p50_us"], r["p99_us"],
          r["throughput_mrps"]) for r in rows],
        title="Fig 11 (left) — latency vs load, 64 B async RPCs",
    )


def _check_fig11_load(rows):
    b1, b4, auto = ([r for r in rows if r["config"] == config]
                    for config in ("B=1", "B=4", "auto"))
    # B=1: ~1.8 us flat median until close to its saturation point.
    yield ("B=1 low-load p50 within 0.4 us of 1.8",
           abs(b1[0]["p50_us"] - 1.8) < 0.4)
    yield "B=1 p50 < 2.6 us close to saturation", b1[-2]["p50_us"] < 2.6
    # B=4 sustains ~12 Mrps but pays latency at low load.
    yield "B=4 sustains > 11 Mrps", b4[-1]["throughput_mrps"] > 11.0
    yield ("B=4 low-load p50 > 2x B=1's",
           b4[0]["p50_us"] > 2 * b1[0]["p50_us"])
    # Auto-batching: B=1 latency at low load AND B=4 throughput at high.
    yield ("auto low-load p50 within 0.5 us of B=1's",
           abs(auto[0]["p50_us"] - b1[0]["p50_us"]) < 0.5)
    yield "auto sustains > 11 Mrps", auto[-1]["throughput_mrps"] > 11.0
    yield ("auto high-load p50 below B=4's low-load p50",
           auto[-1]["p50_us"] < b4[0]["p50_us"])


def fig11_bottleneck(loads_mrps: Optional[List[float]] = None,
                     batch_size: int = 1, nreq: int = 6000, jobs: int = 1,
                     cache: bool = True) -> Dict:
    """Fig 11 (left) with bottleneck attribution (ISSUE 3 tentpole).

    Re-runs the latency/load sweep with time-series telemetry enabled, so
    every load point carries the exact per-component busy fractions, then
    names the first-saturating component at the latency knee. This turns
    the paper's section 5.4 narrative ("B=1 is paced by the fetch FSM;
    larger batches move the bound to the flow scheduler / UPI") into a
    measured attribution instead of prose.
    """
    loads = loads_mrps or ([1, 2, 4, 6, 7, 7.8] if batch_size == 1
                           else [1, 2, 4, 6, 8, 10, 12])
    results = run_sweep(
        [SweepPoint(_OPEN_LOOP, dict(
            load_mrps=load, batch_size=batch_size, nreq=nreq,
            telemetry=True,
        )) for load in loads],
        jobs=jobs, cache=cache,
    )
    points = [{
        "offered_mrps": load,
        "p50_us": result.p50_us,
        "p99_us": result.p99_us,
        "throughput_mrps": result.throughput_mrps,
        "utilization": result.utilization,
    } for load, result in zip(loads, results)]
    report = attribute_bottleneck(points)
    return {"batch_size": batch_size, "points": points,
            "report": report.as_dict()}


def _render_fig11_bottleneck(result) -> str:
    return render_bottleneck(result["report"])


def _fig14_point(noisy_mrps: float, steady_mrps: float, tenants: int,
                 nreq_total: int, noisy: str = "t0") -> Dict:
    """Sweep wrapper: one Fig 14 noisy-neighbour cell as a plain dict."""
    from repro.harness.runner import run_multi_tenant

    result = run_multi_tenant(
        noisy_mrps=noisy_mrps, steady_mrps=steady_mrps, tenants=tenants,
        noisy=noisy, nreq_total=nreq_total, telemetry=True,
    )
    data = result.to_dict()
    # The ring-buffered samples are bulky and attribution only needs the
    # summaries; drop them from the cached sweep payload.
    data["timeline"] = None
    return data


#: Fig 14 anchor: the paper reports tenant medians "barely distinguishable"
#: as neighbours are added — steady tenants must not follow the noisy one
#: into saturation.
FIG14_PAPER = {"max_steady_p99_drift": 0.10}


def fig14_isolation(noisy_loads_mrps: Optional[List[float]] = None,
                    steady_mrps: float = 0.5, tenants: int = 3,
                    nreq_total: int = 6000, jobs: int = 1,
                    cache: bool = True) -> Dict:
    """Fig 14: tenant isolation on a virtualized FPGA (ISSUE 4 tentpole).

    Ramps one tenant ("t0") to saturation while the other tenants hold a
    steady trickle, with per-tenant telemetry enabled throughout. The
    returned report names the *tenant* that owns the saturating component
    (``nic.t0.fetch``-class, per section 5.4's batch-1 bound), and the
    ``isolation`` rows quantify how far each steady tenant's p99 moved
    between the lightest and heaviest noisy load — the paper's claim is
    that it barely moves at all.
    """
    loads = noisy_loads_mrps or [1, 2, 4, 6, 7, 7.8]
    noisy = "t0"
    results = run_sweep(
        [SweepPoint(_FIG14_POINT, dict(
            noisy_mrps=load, steady_mrps=steady_mrps, tenants=tenants,
            nreq_total=nreq_total, noisy=noisy,
        )) for load in loads],
        jobs=jobs, cache=cache,
    )
    points = []
    for load, result in zip(loads, results):
        noisy_stats = result["per_tenant"][noisy]
        points.append({
            "offered_mrps": load,
            "p50_us": noisy_stats["p50_us"],
            "p99_us": noisy_stats["p99_us"],
            "throughput_mrps": noisy_stats["throughput_mrps"],
            "utilization": result["utilization"],
            "tenants": result["tenant_map"],
            "per_tenant": {
                tenant: {"p99_us": stats["p99_us"],
                         "throughput_mrps": stats["throughput_mrps"],
                         "drops": stats["drops"]}
                for tenant, stats in result["per_tenant"].items()
            },
        })
    report = attribute_bottleneck(points)
    steady = [t for t in results[0]["tenants"] if t != noisy]
    isolation = []
    for tenant in steady:
        p99_low = points[0]["per_tenant"][tenant]["p99_us"]
        p99_high = points[-1]["per_tenant"][tenant]["p99_us"]
        drift = (p99_high - p99_low) / p99_low if p99_low > 0 else 0.0
        isolation.append({
            "tenant": tenant,
            "p99_us_at_min_noise": p99_low,
            "p99_us_at_max_noise": p99_high,
            "p99_drift": drift,
            "isolated": abs(drift) <= FIG14_PAPER["max_steady_p99_drift"],
        })
    return {
        "noisy": noisy,
        "steady_mrps": steady_mrps,
        "points": points,
        "report": report.as_dict(),
        "isolation": isolation,
        "paper": FIG14_PAPER,
    }


def _render_fig14(result) -> str:
    isolation = render_table(
        ["steady tenant", "p99 us (quiet)", "p99 us (noisy)", "drift",
         "isolated"],
        [(r["tenant"], r["p99_us_at_min_noise"], r["p99_us_at_max_noise"],
          f"{r['p99_drift']:+.1%}", "yes" if r["isolated"] else "NO")
         for r in result["isolation"]],
        title=f"Steady-tenant p99 while {result['noisy']} ramps to "
              f"saturation (paper: barely moves)",
    )
    return f"{render_bottleneck(result['report'])}\n\n{isolation}"


def _check_fig14(result):
    for row in result["isolation"]:
        yield (f"steady tenant {row['tenant']} isolated "
               f"(p99 drift <= {FIG14_PAPER['max_steady_p99_drift']:.0%})",
               row["isolated"])


_CHAOS_POINT = "repro.chaos.rig:run_chaos_point"

#: §4.5 leaves reliable transport as future work, so there are no published
#: fault numbers to anchor on; the gate asserts recovery *invariants*:
#: nothing lost beyond this fraction, and zero duplicate host executions.
CHAOS_PAPER = {"max_lost_fraction": 0.01}


def figx_chaos(fault_classes: Optional[List[str]] = None,
               load_mrps: float = 1.0, nreq: int = 2000, seed: int = 1,
               hedge_ns: Optional[int] = None,
               jobs: int = 1, cache: bool = True) -> Dict:
    """Chaos: tail latency + recovery accounting per fault class (ISSUE 6).

    Runs one seeded open-loop echo workload per fault class (see
    :data:`repro.chaos.rig.FAULT_CLASSES`) over the reliable transport +
    credit flow control, and reports p50/p99/p99.9 alongside the recovery
    counters. ``recovered`` is the per-class invariant: bounded loss and
    zero duplicate host deliveries.
    """
    from repro.chaos.rig import FAULT_CLASSES

    classes = list(fault_classes or FAULT_CLASSES)
    results = run_sweep(
        [SweepPoint(_CHAOS_POINT, dict(
            fault_class=fault_class, load_mrps=load_mrps, nreq=nreq,
            seed=seed, hedge_ns=hedge_ns,
        )) for fault_class in classes],
        jobs=jobs, cache=cache,
    )
    baseline = next(
        (r for c, r in zip(classes, results) if c == "none"), results[0]
    )
    max_lost = nreq * CHAOS_PAPER["max_lost_fraction"]
    points = []
    for fault_class, result in zip(classes, results):
        transport = result["transport"]
        flow = result["flow_control"]

        def both(section, field):
            return section["client"][field] + section["server"][field]

        points.append({
            "fault_class": fault_class,
            "completed": result["completed"],
            "lost_rpcs": result["lost_rpcs"],
            "p50_us": result["p50_us"],
            "p99_us": result["p99_us"],
            "p999_us": result["p999_us"],
            "p99_vs_fault_free": (
                round(result["p99_us"] / baseline["p99_us"], 3)
                if baseline["p99_us"] else 0.0
            ),
            "duplicate_host_deliveries":
                result["duplicate_host_deliveries"],
            "retransmissions": both(transport, "retransmissions"),
            "timeout_retransmissions":
                both(transport, "timeout_retransmissions"),
            "duplicates_dropped": both(transport, "duplicates_dropped"),
            "lost_unrecoverable": both(transport, "lost_unrecoverable"),
            "credit_repairs": both(flow, "credit_repairs"),
            "hedges_sent": result["hedges_sent"],
            "faults_injected": result["chaos"],
            "recovered": (result["lost_rpcs"] <= max_lost
                          and result["duplicate_host_deliveries"] == 0),
        })
    return {
        "points": points,
        "seed": seed,
        "nreq": nreq,
        "load_mrps": load_mrps,
        "paper": CHAOS_PAPER,
    }


def _render_chaos(result) -> str:
    return render_table(
        ["fault class", "p50 us", "p99 us", "p99.9 us", "retx", "rto retx",
         "dup drop", "lost", "recovered"],
        [(r["fault_class"], r["p50_us"], r["p99_us"], r["p999_us"],
          r["retransmissions"], r["timeout_retransmissions"],
          r["duplicates_dropped"], r["lost_rpcs"],
          "yes" if r["recovered"] else "NO")
         for r in result["points"]],
        title=f"Seeded fault injection (seed {result['seed']}, "
              f"{result['nreq']} RPCs/class at {result['load_mrps']} Mrps)",
    )


def _check_chaos(result):
    for row in result["points"]:
        yield (f"{row['fault_class']} recovered (lost <= "
               f"{CHAOS_PAPER['max_lost_fraction']:.0%}, no duplicate "
               "host delivery)", row["recovered"])


#: Fig 11 (right) anchors: ~42 Mrps end-to-end plateau, ~80 Mrps raw reads.
FIG11_PAPER = {"e2e_plateau_mrps": 42.0, "raw_plateau_mrps": 80.0}


def fig11_scalability(threads: Optional[List[int]] = None,
                      nreq_per_thread: int = 5000, jobs: int = 1,
                      cache: bool = True) -> List[Dict]:
    """Fig 11 (right): thread scaling, end-to-end vs raw UPI reads."""
    counts = threads or [1, 2, 3, 4, 6, 8]
    points = []
    for count in counts:
        points.append(SweepPoint(_THREAD_SCALING, dict(
            num_threads=count, nreq_per_thread=nreq_per_thread,
        )))
        points.append(SweepPoint(_RAW_READS, dict(
            num_threads=count, nreads_per_thread=nreq_per_thread,
        )))
    results = run_sweep(points, jobs=jobs, cache=cache)
    return [{
        "threads": count,
        "e2e_mrps": results[2 * i].throughput_mrps,
        "raw_mrps": results[2 * i + 1],
    } for i, count in enumerate(counts)]


def _render_fig11_scale(rows) -> str:
    return render_table(
        ["threads", "e2e Mrps", "raw UPI Mrps"],
        [(r["threads"], r["e2e_mrps"], r["raw_mrps"]) for r in rows],
        title=("Fig 11 (right) — thread scaling "
               f"(paper plateaus: {FIG11_PAPER['e2e_plateau_mrps']} e2e, "
               f"{FIG11_PAPER['raw_plateau_mrps']} raw)"),
    )


def _check_fig11_scale(rows):
    by_threads = {r["threads"]: r for r in rows}
    one = by_threads[1]["e2e_mrps"]
    # Near-linear scaling to 4 threads, then flat at ~42 Mrps.
    yield "2 threads > 1.6x one", by_threads[2]["e2e_mrps"] > 1.6 * one
    yield "4 threads > 3x one", by_threads[4]["e2e_mrps"] > 3.0 * one
    plateau = by_threads[4]["e2e_mrps"]
    yield ("e2e plateau within 5 Mrps of the paper",
           abs(plateau - FIG11_PAPER["e2e_plateau_mrps"]) < 5.0)
    yield ("8 threads within 2 Mrps of the plateau",
           abs(by_threads[8]["e2e_mrps"] - plateau) < 2.0)
    # Raw reads plateau around 80 Mrps — roughly 2x the end-to-end cap.
    raw_plateau = by_threads[8]["raw_mrps"]
    yield ("raw plateau within 10 Mrps of the paper",
           abs(raw_plateau - FIG11_PAPER["raw_plateau_mrps"]) < 10.0)
    yield "raw plateau > 1.7x the e2e plateau", raw_plateau > 1.7 * plateau


# --------------------------------------------------------------------- F12

#: Fig 12 paper anchors: latency under the write-intensive mix, peak
#: single-core throughput per mix.
FIG12_PAPER = {
    ("memcached", "tiny"): {"p50_us": 2.8, "p99_us": 6.9,
                            "thr_50": 0.6, "thr_95": 1.5, "window": 2},
    ("memcached", "small"): {"p50_us": 3.2, "p99_us": 7.8,
                             "thr_50": 0.6, "thr_95": 1.5, "window": 2},
    ("mica", "tiny"): {"p50_us": 3.4, "p99_us": 5.4,
                       "thr_50": 4.7, "thr_95": 5.2, "window": 16},
    ("mica", "small"): {"p50_us": 3.5, "p99_us": 5.7,
                        "thr_50": 4.3, "thr_95": 5.0, "window": 16},
}


def fig12_kvs(nreq: int = 8000, jobs: int = 1,
              cache: bool = True) -> List[Dict]:
    """Fig 12: memcached and MICA over Dagger (latency + throughput)."""
    points = []
    for (system, dataset_name), paper in FIG12_PAPER.items():
        dataset = DATASETS[dataset_name]
        common = dict(
            system=system,
            key_bytes=dataset.key_bytes,
            value_bytes=dataset.value_bytes,
            num_keys=dataset.num_keys(system),
            nreq=nreq,
        )
        points.append(SweepPoint(_KVS_POINT, dict(
            get_fraction=WORKLOAD_MIXES["write-intensive"],
            closed_loop_window=paper["window"], **common,
        )))
        points.append(SweepPoint(_KVS_POINT, dict(
            get_fraction=WORKLOAD_MIXES["write-intensive"],
            closed_loop_window=32, **common,
        )))
        points.append(SweepPoint(_KVS_POINT, dict(
            get_fraction=WORKLOAD_MIXES["read-intensive"],
            closed_loop_window=32, **common,
        )))
    results = iter(run_sweep(points, jobs=jobs, cache=cache))
    rows = []
    for (system, dataset_name), paper in FIG12_PAPER.items():
        latency, thr50, thr95 = next(results), next(results), next(results)
        rows.append({
            "system": system,
            "dataset": dataset_name,
            "paper_p50_us": paper["p50_us"], "p50_us": latency["p50_us"],
            "paper_p99_us": paper["p99_us"], "p99_us": latency["p99_us"],
            "paper_thr_50get": paper["thr_50"],
            "thr_50get": thr50["throughput_mrps"],
            "paper_thr_95get": paper["thr_95"],
            "thr_95get": thr95["throughput_mrps"],
            "drop_rate": max(latency["drop_rate"], thr50["drop_rate"],
                             thr95["drop_rate"]),
        })
    return rows


def _render_fig12(rows) -> str:
    return render_table(
        ["system", "dataset", "paper p50", "p50 us", "paper p99", "p99 us",
         "paper thr50", "thr 50%GET", "paper thr95", "thr 95%GET"],
        [(r["system"], r["dataset"], r["paper_p50_us"], r["p50_us"],
          r["paper_p99_us"], r["p99_us"], r["paper_thr_50get"],
          r["thr_50get"], r["paper_thr_95get"], r["thr_95get"])
         for r in rows],
        title="Fig 12 — KVS over Dagger, zipf 0.99, one core",
    )


def _check_fig12(rows):
    by_cell = {(r["system"], r["dataset"]): r for r in rows}
    for (system, dataset), row in by_cell.items():
        cell = f"{system}/{dataset}"
        yield (f"{cell} p50 within 20% of the paper",
               _within(row["p50_us"], row["paper_p50_us"], 0.20))
        yield (f"{cell} 50% GET throughput within 20% of the paper",
               _within(row["thr_50get"], row["paper_thr_50get"], 0.20))
        yield f"{cell} drops < 1%", row["drop_rate"] < 0.01
    # MICA sustains ~7-8x memcached's write-heavy throughput.
    yield ("mica 50% GET throughput > 5x memcached's",
           by_cell[("mica", "tiny")]["thr_50get"]
           > 5 * by_cell[("memcached", "tiny")]["thr_50get"])
    for system in ("mica", "memcached"):
        row = by_cell[(system, "tiny")]
        yield (f"{system} read-heavy mix out-runs write-heavy",
               row["thr_95get"] > row["thr_50get"])


def sec56_mica_high_skew(nreq: int = 8000, jobs: int = 1,
                         cache: bool = True) -> Dict:
    """Section 5.6: MICA under zipf 0.9999 (paper: 10.2/9.8 Mrps with two
    partitions' worth of locality; single-core here, so the anchor is the
    ratio to the 0.99-skew run)."""
    base, hot = run_sweep(
        [SweepPoint(_KVS_POINT, dict(system="mica", skew=0.99, nreq=nreq,
                                     closed_loop_window=32)),
         SweepPoint(_KVS_POINT, dict(system="mica", skew=0.9999, nreq=nreq,
                                     closed_loop_window=32))],
        jobs=jobs, cache=cache,
    )
    return {
        "thr_skew_099": base["throughput_mrps"],
        "thr_skew_09999": hot["throughput_mrps"],
        "hit_rate_099": base["hit_rate"],
        "hit_rate_09999": hot["hit_rate"],
    }


def _render_sec56(result) -> str:
    return render_table(
        ["skew", "thr Mrps", "hit rate"],
        [("0.99", result["thr_skew_099"], result["hit_rate_099"]),
         ("0.9999", result["thr_skew_09999"], result["hit_rate_09999"])],
        title="Section 5.6 — MICA under higher skew (better locality)",
    )


def _check_sec56(result):
    # Higher skew concentrates accesses; throughput must not degrade.
    yield ("zipf 0.9999 keeps >= 95% of zipf 0.99 throughput",
           result["thr_skew_09999"] >= 0.95 * result["thr_skew_099"])


# --------------------------------------------------------------------- F3

#: Paper anchors: networking is ~40% of tier latency on average and up to
#: ~80% for User/UniqueID; it grows with load.
FIG3_PAPER = {"mean_network_fraction": 0.40, "max_network_fraction": 0.80}


def fig3_breakdown(loads_krps: Optional[List[float]] = None,
                   nreq: int = 4000, jobs: int = 1,
                   cache: bool = True) -> List[Dict]:
    """Fig 3: networking share of per-tier median/tail latency vs load."""
    loads = loads_krps or [8, 16, 21]
    per_load = run_sweep(
        [SweepPoint(_FIG3_POINT, dict(load_krps=load, nreq=nreq))
         for load in loads],
        jobs=jobs, cache=cache,
    )
    return [row for rows in per_load for row in rows]


def _share(fraction: Optional[float]) -> str:
    return "-" if fraction is None else f"{fraction:.0%}"


def _render_fig3(rows) -> str:
    return render_table(
        ["load Krps", "tier", "p50 us", "p99 us", "app", "rpc", "tcp"],
        [(r["load_krps"], r["tier"], r["p50_us"], r["p99_us"],
          _share(r["app_fraction"]), _share(r["rpc_fraction"]),
          _share(r["transport_fraction"])) for r in rows],
        title="Fig 3 — latency breakdown, Social Network over kernel TCP",
    )


def _check_fig3(rows):
    lowest = [r for r in rows
              if r["tier"] != "e2e" and r["load_krps"] == rows[0]["load_krps"]]
    fractions = {r["tier"].split(":")[1]: r["network_fraction"]
                 for r in lowest}
    # Communication is a large share on average, up to ~80%+ for the light
    # User and UniqueID tiers (paper: 40% average, up to 80%).
    mean_fraction = sum(fractions.values()) / len(fractions)
    paper_mean = FIG3_PAPER["mean_network_fraction"]
    yield (f"mean network share > {paper_mean:.0%}",
           mean_fraction > paper_mean)
    for tier in ("user", "unique_id"):
        yield f"{tier} network share > 70%", fractions[tier] > 0.7
    # Compute-heavy tiers spend most of their time on application logic.
    for tier in ("text", "user_mention"):
        yield f"{tier} network share < 50%", fractions[tier] < 0.5
    # RPC processing is a substantial share of networking, comparable to
    # the TCP/IP layer itself.
    user = next(r for r in lowest if r["tier"].endswith("user"))
    yield ("user RPC share > half its TCP share",
           user["rpc_fraction"] > 0.5 * user["transport_fraction"])
    # End-to-end latency grows with load (queueing through the stack).
    e2e = [r for r in rows if r["tier"] == "e2e"]
    yield "e2e p99 grows with load", e2e[-1]["p99_us"] > e2e[0]["p99_us"]


# --------------------------------------------------------------------- F4

#: Paper anchors: 75% of requests < 512 B; >90% of responses < 64 B;
#: Text's median request ~580 B; Media/User/UniqueID never exceed 64 B.
FIG4_PAPER = {
    "requests_under_512": 0.75,
    "responses_under_64": 0.90,
    "text_median_request": 580,
}


def fig4_rpc_sizes(samples_per_tier: int = 2000, jobs: int = 1,
                   cache: bool = True) -> Dict:
    """Fig 4: RPC size CDF + per-tier medians for both applications."""
    del jobs, cache  # one in-process sampling pass, not a sweep
    social_req, social_resp = sample_sizes(
        SOCIAL_NETWORK_SIZES, samples_per_tier
    )
    media_req, media_resp = sample_sizes(MEDIA_SIZES, samples_per_tier)
    per_tier_medians = {
        tier: sizes.median_request()
        for tier, sizes in SOCIAL_NETWORK_SIZES.items()
    }
    return {
        "social_requests_under_512": request_size_cdf(social_req, 512),
        "social_responses_under_64": request_size_cdf(social_resp, 64),
        "media_requests_under_512": request_size_cdf(media_req, 512),
        "media_responses_under_64": request_size_cdf(media_resp, 64),
        "per_tier_median_request": per_tier_medians,
        "paper": FIG4_PAPER,
    }


def _render_fig4(result) -> str:
    paper = result["paper"]
    cdf = render_table(
        ["cdf point", "paper (at least)", "measured"],
        [(f"{app} {kind} <= {size} B", paper[f"{kind}_under_{size}"],
          result[f"{app}_{kind}_under_{size}"])
         for app in ("social", "media")
         for kind, size in (("requests", 512), ("responses", 64))],
        title="Fig 4 — RPC size distributions",
    )
    medians = render_table(
        ["tier", "median request B"],
        sorted(result["per_tier_median_request"].items()),
        title="Fig 4 (right) — per-tier median request sizes",
    )
    return f"{cdf}\n\n{medians}"


def _check_fig4(result):
    yield ("social requests <= 512 B >= 75%",
           result["social_requests_under_512"] >= 0.75)
    for app in ("social", "media"):
        yield (f"{app} responses <= 64 B >= 90%",
               result[f"{app}_responses_under_64"] >= 0.90)
    # Text's median is ~580 B while Media/User/UniqueID stay <= 64 B.
    per_tier = result["per_tier_median_request"]
    yield "text median request is 580 B", per_tier["text"] == 580
    for tier in ("media", "user", "unique_id"):
        yield f"{tier} median request <= 64 B", per_tier[tier] <= 64


# --------------------------------------------------------------------- F5


def fig5_interference(loads_krps: Optional[List[float]] = None,
                      nreq: int = 3000, jobs: int = 1,
                      cache: bool = True) -> List[Dict]:
    """Fig 5: end-to-end latency, networking on separate vs shared cores.

    Network interrupt routines are bound to 4 cores (N=4 as in the paper);
    the application tiers run either on the other cores (isolated) or on
    the same 4 cores (shared). See :func:`_fig5_point` for one cell.
    """
    grid = [(load, shared)
            for load in (loads_krps or [5, 10, 15])
            for shared in (False, True)]
    return run_sweep(
        [SweepPoint(_FIG5_POINT, dict(load_krps=load, shared=shared,
                                      nreq=nreq))
         for load, shared in grid],
        jobs=jobs, cache=cache,
    )


def _render_fig5(rows) -> str:
    return render_table(
        ["load Krps", "cores", "p50 us", "p99 us", "drop rate"],
        [(r["load_krps"], "shared" if r["shared_cores"] else "separate",
          r["p50_us"], r["p99_us"], f"{r['drop_rate']:.2%}") for r in rows],
        title="Fig 5 — networking/application core sharing, Social Network",
    )


def _check_fig5(rows):
    by_key = {(r["load_krps"], r["shared_cores"]): r for r in rows}
    loads = sorted({r["load_krps"] for r in rows})
    gaps = [by_key[(load, True)]["p99_us"] - by_key[(load, False)]["p99_us"]
            for load in loads]
    # Sharing cores with interrupt processing hurts latency, and the
    # penalty grows with load, especially at the tail.
    for load, gap in zip(loads, gaps):
        yield f"shared cores raise p99 at {load} Krps", gap > 0
    yield "the shared-core p99 penalty grows with load", gaps[-1] > gaps[0]


# ---------------------------------------------------------------- T4, F15

#: Table 4 anchors.
TABLE4_PAPER = {
    "simple": {"max_krps": 2.7, "p50_us": 13.3, "p90_us": 20.2,
               "p99_us": 23.8},
    "optimized": {"max_krps": 48.0, "p50_us": 23.4, "p90_us": 27.3,
                  "p99_us": 33.6},
}


def table4_flight(nreq: int = 4000, jobs: int = 1,
                  cache: bool = True) -> List[Dict]:
    """Table 4: highest sustainable load + lowest latency per model."""
    models = (
        ("simple", 0.025, [2.4, 2.8, 3.2]),
        ("optimized", 5.0, [30, 36, 40]),
    )
    points = []
    for model, latency_load, capacity_loads in models:
        optimized = model == "optimized"
        points.append(SweepPoint(_FLIGHT_POINT, dict(
            optimized=optimized, load_krps=latency_load,
            nreq=min(nreq, 2000),
        )))
        for load in capacity_loads:
            points.append(SweepPoint(_FLIGHT_POINT, dict(
                optimized=optimized, load_krps=load, nreq=nreq,
                measure_from_issue=True,
            )))
    results = iter(run_sweep(points, jobs=jobs, cache=cache))
    rows = []
    for model, latency_load, capacity_loads in models:
        latency = next(results)
        max_krps = 0.0
        for _ in capacity_loads:
            result = next(results)
            if result["drop_rate"] <= 0.01:
                max_krps = max(max_krps, result["throughput_krps"])
        paper = TABLE4_PAPER[model]
        rows.append({
            "model": model,
            "paper_max_krps": paper["max_krps"], "max_krps": max_krps,
            "paper_p50_us": paper["p50_us"], "p50_us": latency["p50_us"],
            "paper_p90_us": paper["p90_us"], "p90_us": latency["p90_us"],
            "paper_p99_us": paper["p99_us"], "p99_us": latency["p99_us"],
        })
    return rows


def _render_table4(rows) -> str:
    return render_table(
        ["model", "paper max Krps", "max Krps", "paper p50", "p50 us",
         "paper p90", "p90 us", "paper p99", "p99 us"],
        [(r["model"], r["paper_max_krps"], r["max_krps"],
          r["paper_p50_us"], r["p50_us"], r["paper_p90_us"], r["p90_us"],
          r["paper_p99_us"], r["p99_us"]) for r in rows],
        title="Table 4 — Flight Registration service (drops < 1%)",
    )


def _check_table4(rows):
    by_model = {r["model"]: r for r in rows}
    simple, optimized = by_model["simple"], by_model["optimized"]
    # Worker threading lifts throughput by an order of magnitude (paper:
    # ~17x) at a latency cost.
    yield ("optimized max Krps > 10x simple",
           optimized["max_krps"] > 10 * simple["max_krps"])
    yield "optimized p50 above simple", optimized["p50_us"] > simple["p50_us"]
    yield ("simple p50 within 4 us of the paper",
           abs(simple["p50_us"] - simple["paper_p50_us"]) < 4.0)
    yield "optimized sustains > 30 Krps", optimized["max_krps"] > 30.0


def fig15_flight_curves(loads_krps: Optional[List[float]] = None,
                        nreq: int = 4000, jobs: int = 1,
                        cache: bool = True) -> List[Dict]:
    """Fig 15: latency/load curves, Optimized threading model."""
    loads = loads_krps or [15, 20, 25, 30, 36, 42]
    results = run_sweep(
        [SweepPoint(_FLIGHT_POINT, dict(
            optimized=True, load_krps=load, nreq=nreq,
            measure_from_issue=True,
        )) for load in loads],
        jobs=jobs, cache=cache,
    )
    return [{"load_krps": load, **result}
            for load, result in zip(loads, results)]


def _render_fig15(rows) -> str:
    return render_table(
        ["load Krps", "thr Krps", "p50 us", "p90 us", "p99 us", "drop rate"],
        [(r["load_krps"], r["throughput_krps"], r["p50_us"], r["p90_us"],
          r["p99_us"], f"{r['drop_rate']:.2%}") for r in rows],
        title="Fig 15 — Flight Registration, Optimized threading",
    )


def _check_fig15(rows):
    by_load = {r["load_krps"]: r for r in rows}
    # Below the ~25 Krps saturation point the median stays in the ~20s of
    # us; past it the tail soars (paper: into the 10^2-10^3 us range)
    # while the median moves far less.
    yield "p50 < 30 us at 15 Krps", by_load[15]["p50_us"] < 30
    yield "p50 < 35 us at 25 Krps", by_load[25]["p50_us"] < 35
    yield ("p99 at the highest load > 4x p99 at 15 Krps",
           rows[-1]["p99_us"] > 4 * by_load[15]["p99_us"])
    # Throughput tracks offered load up to saturation.
    yield ("throughput within 2 Krps of 25 Krps offered",
           abs(by_load[25]["throughput_krps"] - 25) < 2.0)


# --------------------------------------------------------------------- §5.3


def sec53_raw_access(jobs: int = 1, cache: bool = True) -> Dict:
    """Section 5.3: raw one-way shared-memory access, UPI vs PCIe DMA.

    Paper: ~400 ns over UPI, ~450 ns over PCIe.
    """
    del jobs, cache  # two fixed-latency probes, not a sweep
    from repro.hw.interconnect.ccip import make_interface
    from repro.hw.platform import Machine
    from repro.sim import Simulator

    results = {}
    for kind, key in (("upi", "upi_ns"), ("pcie-doorbell", "pcie_ns")):
        sim = Simulator()
        machine = Machine(sim, calibration=DEFAULT_CALIBRATION)
        interface = make_interface(kind, sim, DEFAULT_CALIBRATION,
                                   machine.fpga)

        def once():
            start = sim.now
            yield from interface.raw_read()
            return sim.now - start

        results[key] = sim.run_until_done(sim.spawn(once()))
    results["paper_upi_ns"] = 400
    results["paper_pcie_ns"] = 450
    return results


def _render_sec53(result) -> str:
    return render_table(
        ["interconnect", "paper ns", "measured ns"],
        [("UPI coherent read", result["paper_upi_ns"], result["upi_ns"]),
         ("PCIe DMA read", result["paper_pcie_ns"], result["pcie_ns"])],
        title="Section 5.3 — raw one-way shared-memory read latency",
    )


def _check_sec53(result):
    for link in ("upi", "pcie"):
        yield (f"{link} read within 40 ns of the paper",
               abs(result[f"{link}_ns"] - result[f"paper_{link}_ns"]) < 40)
    # UPI is physically slightly faster than PCIe (the paper's finding).
    yield "upi read faster than pcie", result["upi_ns"] < result["pcie_ns"]


# ------------------------------------------------------------- sharded mesh


def mesh_scaling(shard_counts: Optional[List[int]] = None, hosts: int = 4,
                 nreq_per_host: int = 2000, jobs: int = 1,
                 cache: bool = True,
                 window_mode: str = "adaptive") -> List[Dict]:
    """Sharded-engine parity over the multi-host echo mesh (ISSUE 7).

    Runs the full-mesh closed-loop echo at each shard count through
    ``run_sweep`` and reports the *simulated* metrics plus a ``parity``
    flag: every row's result signature (everything except the shard count
    and window accounting) must be byte-identical to the serial row's.
    ``window_mode`` selects the horizon policy (``"adaptive"`` stretches
    conservative windows past hosts' declared egress bounds, ``"fixed"``
    is the classic one-lookahead grant); both must produce the same
    signature. Wall-clock scaling is deliberately not measured here — it
    belongs to ``benchmarks/perf/bench_kernel.py --scenario mesh``,
    outside the deterministic cache.
    """
    from repro.harness.mesh import mesh_signature

    counts = list(shard_counts or [1, 2, 4])
    if 1 not in counts:
        counts = [1] + counts
    results = run_sweep(
        [SweepPoint("repro.harness.mesh:run_echo_mesh", dict(
            hosts=hosts, shards=shards, nreq_per_host=nreq_per_host,
            window_mode=window_mode,
        )) for shards in counts],
        jobs=jobs, cache=cache,
    )
    serial = mesh_signature(results[counts.index(1)])
    return [{
        "shards": shards,
        "window_mode": result["window_mode"],
        "throughput_mrps": result["throughput_mrps"],
        "p50_us": result["p50_us"],
        "p99_us": result["p99_us"],
        "count": result["count"],
        "windows": result["windows"],
        "stretched_windows": result["stretched_windows"],
        "skipped_shard_rounds": result["skipped_shard_rounds"],
        "events_total": result["events_total"],
        "parity": mesh_signature(result) == serial,
    } for shards, result in zip(counts, results)]


def _mesh_parity(shards: Optional[int] = None,
                 window_mode: Optional[str] = None, jobs: int = 1,
                 cache: bool = True) -> List[Dict]:
    """:func:`mesh_scaling` as the CLI runs it: serial against the 2- and
    4-shard runs, or against ``shards`` alone when given."""
    return mesh_scaling(
        shard_counts=None if shards is None else sorted({1, shards}),
        window_mode=window_mode or "adaptive", jobs=jobs, cache=cache)


def _render_mesh(rows) -> str:
    return render_table(
        ["shards", "mode", "Mrps", "p50 us", "p99 us", "windows",
         "stretched", "skipped", "events", "parity"],
        [(r["shards"], r["window_mode"], round(r["throughput_mrps"], 3),
          round(r["p50_us"], 3), round(r["p99_us"], 3), r["windows"],
          r["stretched_windows"], r["skipped_shard_rounds"],
          r["events_total"],
          "bit-identical" if r["parity"] else "DIVERGED")
         for r in rows],
        title="4-host full-mesh echo, serial vs sharded "
              "(repro.sim.sharded; signatures must match byte-for-byte)",
    )


def _check_mesh(rows):
    for row in rows:
        yield (f"{row['shards']}-shard signature matches serial",
               row["parity"])


# ------------------------------------------------------- rack-scale cluster


_CLUSTER_POINT = "repro.harness.cluster:run_cluster_point"


def cluster_slo(loads_krps: Optional[List[float]] = None,
                app: str = "social_network", machines: int = 8,
                policy: str = "p2c", modulation: str = "bursty",
                nreq: int = 2000, deadline_us: float = 500.0,
                seed: int = 11, mode: str = "exact", jobs: int = 1,
                cache: bool = True) -> List[Dict]:
    """End-to-end SLO attainment vs offered load at rack scale (ISSUE 9).

    Each point deploys the app as replica pools across ``machines``
    machines behind the ToR (``repro.harness.cluster``), drives it with
    Zipf-skewed session traffic at the given peak rate under the chosen
    arrival modulation, and reports the fraction of requests completing
    within ``deadline_us`` — measured from each request's *intended*
    arrival time, so entry-queueing counts against the SLO. The
    autoscaler is on: the per-tier replica counts in the result show
    which tier it had to grow.

    Deliberately serial-only (no ``shards``): replica selection is a
    dynamic per-call decision the conservative-window sharded engine
    cannot partition (see the ``repro.harness.cluster`` docstring).
    """
    loads = list(loads_krps or [30.0, 50.0, 70.0, 90.0])
    return run_sweep(
        [SweepPoint(_CLUSTER_POINT, dict(
            app=app, machines=machines, load_krps=load, nreq=nreq,
            policy=policy, modulation=modulation, deadline_us=deadline_us,
            seed=seed, mode=mode,
        )) for load in loads],
        jobs=jobs, cache=cache,
    )


def _render_cluster(rows) -> str:
    first = rows[0]
    return render_slo_curve(
        rows, first["deadline_us"],
        title=f"{first['app']} on {first['machines']} machines "
              f"({first['policy']} balancing, {first['modulation']} "
              "arrivals, Zipf-skewed sessions)",
    )


# ------------------------------------------------- ablations and extensions
#
# The design choices DESIGN.md section 5 calls out, swept beyond the
# paper's settings, and the future-work extensions the paper defers. Each
# runs in-process (no sweep), so ``jobs`` and ``cache`` do not apply.


def ablation_batch_sweep(jobs: int = 1, cache: bool = True) -> List[Dict]:
    """CCI-P batch size beyond the paper's B values (fixed-B mode).

    Throughput saturates once the per-flow issue rate exceeds the CPU
    bound (by B=2), while low-load latency keeps growing with B (fixed-B
    mode waits for full batches) — the knee the auto-batcher exploits.
    """
    del jobs, cache
    rows = []
    for batch in (1, 2, 3, 4, 6, 8, 12, 16):
        saturated = run_closed_loop(batch_size=batch, nreq=8000)
        low_load = run_open_loop(load_mrps=1.0, batch_size=batch, nreq=5000)
        rows.append({
            "batch": batch,
            "mrps": saturated.throughput_mrps,
            "low_load_p50_us": low_load.p50_us,
        })
    return rows


def _render_batch_sweep(rows) -> str:
    return render_table(
        ["B", "saturated Mrps", "p50 us @ 1 Mrps"],
        [(r["batch"], r["mrps"], r["low_load_p50_us"]) for r in rows],
        title="Ablation — CCI-P batch size sweep (fixed-B mode)",
    )


def _check_batch_sweep(rows):
    by_batch = {r["batch"]: r for r in rows}
    # Throughput rises from B=1 to the CPU bound, then stays flat...
    yield ("B=2 Mrps > 1.2x B=1",
           by_batch[2]["mrps"] > by_batch[1]["mrps"] * 1.2)
    yield ("B=16 Mrps within 1 of B=4",
           abs(by_batch[16]["mrps"] - by_batch[4]["mrps"]) < 1.0)
    # ...while low-load latency grows with B (the batch-fill wait).
    for big, small in ((8, 1), (16, 4)):
        yield (f"B={big} low-load p50 above B={small}",
               by_batch[big]["low_load_p50_us"]
               > by_batch[small]["low_load_p50_us"])


def _batch_timeout_run(timeout_ns: Optional[int]) -> Dict:
    """A B=4 echo at 0.5 Mrps with this fixed-batch timeout, or with the
    auto-batcher (which needs none) when ``timeout_ns`` is None."""
    rig = EchoRig(batch_size=4, auto_batch=timeout_ns is None)
    if timeout_ns is not None:
        rig.client_stack.nic.soft.batch_timeout_ns = timeout_ns
        rig.server_stack.nic.soft.batch_timeout_ns = timeout_ns
    result = rig.open_loop(0.5, nreq=4000)
    return {"timeout_ns": "auto-batch" if timeout_ns is None else timeout_ns,
            "p50_us": result.p50_us, "p99_us": result.p99_us}


def ablation_batch_timeout(jobs: int = 1, cache: bool = True) -> List[Dict]:
    """The fixed-batch timeout soft register.

    With fixed B > 1 at low load the RX FSM waits for a full batch; the
    timeout bounds that wait. Sweeping it moves the latency floor with
    the timeout — and shows why auto-batching, which needs no timeout, is
    the better default the paper lands on.
    """
    del jobs, cache
    return [_batch_timeout_run(timeout_ns)
            for timeout_ns in (500, 1500, 3000, 6000, None)]


def _render_batch_timeout(rows) -> str:
    return render_table(
        ["batch timeout ns", "p50 us", "p99 us"],
        [(r["timeout_ns"], r["p50_us"], r["p99_us"]) for r in rows],
        title="Ablation — fixed-B batch timeout at 0.5 Mrps, B=4",
    )


def _check_batch_timeout(rows):
    *fixed, auto = rows
    p50s = [r["p50_us"] for r in fixed]
    # Latency grows with the timeout (requests wait longer for peers)...
    yield "p50 grows with the timeout", p50s == sorted(p50s)
    # ...and auto-batching beats every fixed-timeout configuration.
    yield "auto-batching p50 below every timeout", auto["p50_us"] < min(p50s)


def _echo_handler(ctx, payload):
    return payload, 48
    yield  # pragma: no cover


def _connection_cache_run(cache_entries: int, num_connections: int,
                          nreq: int = 2000) -> Dict:
    """Round-robin echo calls over ``num_connections`` connections through
    NICs that cache ``cache_entries`` of them."""
    from repro.hw.platform import Machine
    from repro.hw.switch import ToRSwitch
    from repro.rpc import RpcClient, RpcThreadedServer
    from repro.sim import LatencyRecorder, Simulator
    from repro.stacks import DaggerStack, connect

    sim = Simulator()
    machine = Machine(sim)
    switch = ToRSwitch(sim, machine.calibration, loopback=True)
    hard = NicHardConfig(num_flows=1,
                         connection_cache_entries=cache_entries)
    client_stack = DaggerStack(machine, switch, "client", hard=hard)
    server_stack = DaggerStack(machine, switch, "server", hard=hard)
    server = RpcThreadedServer(sim, machine.calibration)
    server.register_handler("echo", _echo_handler)
    server.add_server_thread(server_stack.port(0), machine.thread(6))
    server.start()
    thread = machine.thread(0)
    clients = [
        RpcClient(client_stack.port(0), thread,
                  connect(client_stack, 0, server_stack, 0))
        for _ in range(num_connections)
    ]
    recorder = LatencyRecorder()

    def driver():
        for i in range(nreq):
            client = clients[i % len(clients)]
            call = yield from client.call_async("echo", b"", 48)
            yield call.event
            recorder.record(call.issued_at, call.completed_at)

    sim.run_until_done(sim.spawn(driver()))
    misses = (client_stack.nic.connection_manager.cache.misses
              + server_stack.nic.connection_manager.cache.misses)
    return {
        "cache_entries": cache_entries,
        "connections": num_connections,
        "p50_us": recorder.summary().p50_us,
        "misses_per_req": misses / nreq,
    }


def ablation_connection_cache(jobs: int = 1,
                              cache: bool = True) -> List[Dict]:
    """Connection-cache size vs the DRAM-miss penalty (section 4.2).

    Opens more connections than the on-NIC cache holds and measures the
    per-request cost of conflict misses on the ingress/egress pipelines.
    """
    del jobs, cache
    return [_connection_cache_run(entries, num_connections=64)
            for entries in (4, 16, 64, 1024)]


def _render_connection_cache(rows) -> str:
    return render_table(
        ["cache entries", "connections", "p50 us", "misses/req"],
        [(r["cache_entries"], r["connections"], r["p50_us"],
          r["misses_per_req"]) for r in rows],
        title="Ablation — connection-cache size, 64 open connections",
    )


def _check_connection_cache(rows):
    tiny, big = rows[0], rows[-1]
    # A cache smaller than the working set thrashes: every request pays
    # DRAM-miss penalties on both NICs; a big cache absorbs them all.
    yield ("the smallest cache misses > 1 per request",
           tiny["misses_per_req"] > 1.0)
    yield ("the largest cache misses < 0.1 per request",
           big["misses_per_req"] < 0.1)
    yield ("thrashing adds > 0.8 us of p50 (~2x 600 ns penalties)",
           tiny["p50_us"] > big["p50_us"] + 0.8)
    misses = [r["misses_per_req"] for r in rows]
    yield ("misses fall as the cache grows",
           misses == sorted(misses, reverse=True))


def ablation_hw_reassembly(jobs: int = 1, cache: bool = True) -> Dict:
    """CAM-based hardware reassembly (section 4.7's future work).

    Removes the per-line software reassembly CPU cost, lifting single-core
    throughput for >64 B RPCs at a steep FPGA-area price.
    """
    del jobs, cache
    rows = []
    for rpc_bytes in (48, 496, 1008):
        for hw in (False, True):
            rig = EchoRig(batch_size=4, auto_batch=True,
                          rpc_bytes=rpc_bytes,
                          hard_overrides={"hw_reassembly": hw})
            result = rig.closed_loop(window=64, nreq=6000)
            rows.append({
                "rpc_bytes": rpc_bytes,
                "reassembly": "hw (CAM)" if hw else "software",
                "mrps": result.throughput_mrps,
            })
    base = estimate_resources(NicHardConfig())
    cam = estimate_resources(NicHardConfig(hw_reassembly=True))
    return {"rows": rows, "cam_luts": cam.luts - base.luts,
            "cam_m20k_blocks": cam.m20k_blocks - base.m20k_blocks}


def _render_hw_reassembly(result) -> str:
    return render_table(
        ["RPC bytes", "reassembly", "Mrps/core"],
        [(r["rpc_bytes"], r["reassembly"], r["mrps"])
         for r in result["rows"]],
        title=(
            "Ablation — software vs CAM reassembly "
            f"(CAM costs +{result['cam_luts'] / 1000:.0f}K LUTs, "
            f"+{result['cam_m20k_blocks']} M20K)"
        ),
    )


def _check_hw_reassembly(result):
    mrps = {(r["rpc_bytes"], r["reassembly"]): r["mrps"]
            for r in result["rows"]}
    # Single-line RPCs gain nothing from the CAM; multi-line RPCs gain
    # substantially (no per-line CPU cost).
    yield ("48 B RPCs: CAM within 0.8 Mrps of software",
           abs(mrps[(48, "hw (CAM)")] - mrps[(48, "software")]) < 0.8)
    yield ("1008 B RPCs: CAM > 1.5x software",
           mrps[(1008, "hw (CAM)")] > 1.5 * mrps[(1008, "software")])


def ablation_protocol_unit(jobs: int = 1, cache: bool = True) -> List[Dict]:
    """Reliable transport and credit flow control (section 4.5's future
    work) under receiver pressure: tiny (8-entry) RX rings.

    The NACK/retransmit machinery converts packet loss into extra latency
    and NIC-side work with zero host CPU involvement; credits prevent the
    loss instead.
    """
    del jobs, cache
    rows = []
    for label, overrides in (
        ("udp-like (paper)", {}),
        ("reliable (NACK/retx)", {"reliable_transport": True}),
        ("credits (flow ctl)", {"flow_control": True,
                                "flow_control_credits": 8,
                                "credit_batch": 4}),
    ):
        rig = EchoRig(batch_size=4, auto_batch=True, rx_ring_entries=8,
                      hard_overrides=overrides)
        result = rig.closed_loop(window=64, nreq=6000)
        nics = (rig.client_stack.nic, rig.server_stack.nic)
        rows.append({
            "transport": label,
            "completed": result.count,
            "drops": sum(nic.monitor.drops for nic in nics),
            "retransmissions": sum(nic.transport.stats.retransmissions
                                   for nic in nics
                                   if nic.transport is not None),
            "p99_us": result.p99_us,
        })
    return rows


def _render_protocol_unit(rows) -> str:
    return render_table(
        ["protocol unit", "completed", "nic drops", "retransmissions",
         "p99 us"],
        [(r["transport"], r["completed"], r["drops"],
          r["retransmissions"], r["p99_us"]) for r in rows],
        title="Ablation — Protocol unit variants, tiny (8-entry) rings",
    )


def _check_protocol_unit(rows):
    udp, reliable, credits = rows
    # With tiny rings and a 64-deep window the unreliable run loses RPCs;
    # the reliable run recovers them on the NIC...
    yield "reliable transport retransmits", reliable["retransmissions"] > 0
    yield ("reliable completes at least as many as udp",
           reliable["completed"] >= udp["completed"])
    # ...and credit-based flow control prevents the drops entirely.
    yield "credits drop nothing", credits["drops"] == 0
    yield "credits retransmit nothing", credits["retransmissions"] == 0
    yield ("credits complete at least as many as udp",
           credits["completed"] >= udp["completed"])


#: Incast: six clients send 400 RPCs each into one server flow that drains
#: one RPC per 600 ns through a 16-entry ring.
INCAST_CLIENTS = 6
INCAST_REQS_PER_CLIENT = 400
INCAST_DRAIN_NS = 600


def _incast_run(overrides: Dict) -> Dict:
    """One incast with the given Protocol-unit overrides."""
    from repro.hw.cluster import Cluster
    from repro.hw.nic.config import NicSoftConfig
    from repro.rpc.messages import RpcKind, RpcPacket
    from repro.sim import Simulator
    from repro.stacks import DaggerStack, connect

    sim = Simulator()
    cluster = Cluster(sim, 1 + INCAST_CLIENTS)
    hard = dict(num_flows=1, rx_ring_entries=16, **overrides)
    server_stack = DaggerStack(
        cluster.machine(0), cluster.switch, "incast-server",
        hard=NicHardConfig(**hard),
        soft=NicSoftConfig(batch_size=4, auto_batch=True),
    )
    drained = []

    def drainer():
        ring = server_stack.nic.rx_ring(0)
        while True:
            pkt = yield ring.get()
            drained.append(pkt)
            yield sim.timeout(INCAST_DRAIN_NS)

    sim.spawn(drainer())

    client_nics = []
    for index in range(INCAST_CLIENTS):
        client_stack = DaggerStack(
            cluster.machine(1 + index), cluster.switch, f"incast-c{index}",
            hard=NicHardConfig(**hard),
            soft=NicSoftConfig(batch_size=4, auto_batch=True),
        )
        client_nics.append(client_stack.nic)
        conn = connect(client_stack, 0, server_stack, 0)

        def burst(stack=client_stack, conn=conn):
            for _ in range(INCAST_REQS_PER_CLIENT):
                packet = RpcPacket(RpcKind.REQUEST, conn, "put", b"", 48)
                yield from stack.nic.send_from_host(0, packet)

        sim.spawn(burst())

    sim.run()
    return {
        "delivered": len(drained),
        "drops": server_stack.nic.monitor.drops,
        "retransmissions": sum(nic.transport.stats.retransmissions
                               for nic in client_nics
                               if nic.transport is not None),
    }


def ablation_incast(jobs: int = 1, cache: bool = True) -> List[Dict]:
    """Incast: many clients, one server flow.

    Under the paper's UDP-like protocol the server's RX ring overflows
    and RPCs vanish; the reliable transport re-sends them, and
    credit-based flow control serializes the senders and delivers
    everything.
    """
    del jobs, cache
    return [{"protocol": label, **_incast_run(overrides)}
            for label, overrides in (
                ("udp-like (paper)", {}),
                ("reliable (NACK/retx)", {"reliable_transport": True}),
                ("credits (flow ctl)", {"flow_control": True,
                                        "flow_control_credits": 2,
                                        "credit_batch": 2}),
            )]


def _render_incast(rows) -> str:
    offered = INCAST_CLIENTS * INCAST_REQS_PER_CLIENT
    return render_table(
        ["protocol unit", "offered", "delivered", "drops",
         "retransmissions"],
        [(r["protocol"], offered, r["delivered"], r["drops"],
          r["retransmissions"]) for r in rows],
        title=f"Ablation — {INCAST_CLIENTS}-to-1 incast, 16-entry ring",
    )


def _check_incast(rows):
    offered = INCAST_CLIENTS * INCAST_REQS_PER_CLIENT
    udp, reliable, credits = rows
    yield "udp drops packets", udp["drops"] > 0
    yield "udp delivers less than offered", udp["delivered"] < offered
    # Retransmission recovers most losses; credits prevent them outright.
    yield ("reliable delivers more than udp",
           reliable["delivered"] > udp["delivered"])
    yield "credits drop nothing", credits["drops"] == 0
    yield ("credits deliver everything offered",
           credits["delivered"] == offered)


def ablation_load_balancer_mica(jobs: int = 1,
                                cache: bool = True) -> List[Dict]:
    """The NIC load-balancer scheme under MICA (section 5.7).

    MICA needs every request for a key to reach the owning partition. The
    object-level balancer (key hash on the FPGA) does that; round-robin
    steering misroutes ~(P-1)/P of requests, each paying cross-partition
    concurrency control.
    """
    del jobs, cache
    return [{"scheme": scheme, **asdict(run_kvs_workload(
        system="mica", num_threads=2, num_keys=1_000_000,
        load_balancer=scheme, nreq=6000, closed_loop_window=16,
        warmup_ns=50_000,
    ))} for scheme in ("object-level", "round-robin")]


def _render_load_balancer_mica(rows) -> str:
    return render_table(
        ["balancer", "p50 us", "p99 us", "Mrps", "misrouted"],
        [(r["scheme"], r["p50_us"], r["p99_us"], r["throughput_mrps"],
          r["misrouted"]) for r in rows],
        title="Ablation — MICA with 2 partitions, balancer scheme",
    )


def _check_load_balancer_mica(rows):
    objective, round_robin = rows
    yield "object-level misroutes nothing", objective["misrouted"] == 0
    # Round-robin misroutes about half the requests with 2 partitions,
    # and the cross-partition penalty costs throughput and latency.
    yield "round-robin misroutes > 2000", round_robin["misrouted"] > 2000
    yield ("round-robin Mrps below object-level",
           round_robin["throughput_mrps"] < objective["throughput_mrps"])
    yield ("round-robin p99 above object-level",
           round_robin["p99_us"] > objective["p99_us"])


def ablation_threading_sweep(jobs: int = 1, cache: bool = True) -> List[Dict]:
    """Which Flight-app tiers get worker threads.

    Table 4 compares only the two extremes. Flight is the binding
    constraint, so giving *only* Flight worker threads recovers almost all
    of the Optimized model's throughput at lower latency cost.
    """
    del jobs, cache
    variants = {
        "simple": {"optimized": False},
        # Workers for Flight; Check-in/Passport stay on dispatch threads.
        "flight-only": {"optimized": True, "checkin_workers": 1,
                        "passport_workers": 1},
        "optimized": {"optimized": True},
    }
    rows = []
    for name, load in (("simple", 2.6), ("flight-only", 25),
                       ("optimized", 25)):
        loaded = build_flight_app(**variants[name]).run(
            load, nreq=3000, measure_from_issue=True)
        latency = build_flight_app(**variants[name]).run(0.5, nreq=1200)
        rows.append({
            "variant": name,
            "thr_krps": loaded.throughput_krps,
            "drop_rate": loaded.drop_rate,
            "p50_us": latency.p50_us,
        })
    return rows


def _render_threading_sweep(rows) -> str:
    return render_table(
        ["variant", "thr Krps", "drops", "low-load p50 us"],
        [(r["variant"], r["thr_krps"], f"{r['drop_rate']:.1%}",
          r["p50_us"]) for r in rows],
        title="Ablation — worker threads per Flight-app tier",
    )


def _check_threading_sweep(rows):
    simple, flight_only, optimized = rows
    # Moving only Flight to workers recovers the throughput cliff, and the
    # full Optimized config sustains the same offered load...
    yield ("flight-only Krps > 5x simple",
           flight_only["thr_krps"] > 5 * simple["thr_krps"])
    yield "optimized sustains > 20 Krps", optimized["thr_krps"] > 20
    # ...at a latency cost over the simple model.
    yield ("simple p50 below flight-only",
           simple["p50_us"] < flight_only["p50_us"])


def extension_mica_multicore(jobs: int = 1, cache: bool = True) -> List[Dict]:
    """MICA multi-core scaling over distributed FPGAs (section 5.6's
    future work).

    With the server alone on its machine and load arriving over the ToR,
    MICA scales with its partitions until SMT sharing flattens
    per-thread gains.
    """
    del jobs, cache
    from repro.apps.kvs.cluster_bench import run_kvs_multicore

    return [{"threads": threads, **asdict(run_kvs_multicore(
        server_threads=threads, nreq_per_thread=3000))}
        for threads in (1, 2, 4, 8)]


def _render_mica_multicore(rows) -> str:
    return render_table(
        ["server threads", "Mrps", "p50 us", "drops"],
        [(r["threads"], r["throughput_mrps"], r["p50_us"],
          f"{r['drop_rate']:.1%}") for r in rows],
        title=("Extension — MICA multi-core over distributed FPGAs "
               "(95% GET, zipf 0.99)"),
    )


def _check_mica_multicore(rows):
    mrps = {r["threads"]: r["throughput_mrps"] for r in rows}
    # Meaningful scaling: ~3x at 4 threads, >4x at 8 (SMT flattens it).
    for threads, factor in ((2, 1.5), (4, 2.5), (8, 4.0)):
        yield (f"{threads} threads > {factor}x one",
               mrps[threads] > factor * mrps[1])
    for row in rows:
        yield (f"{row['threads']} threads drop < 1%",
               row["drop_rate"] < 0.01)


def extension_colocation(jobs: int = 1, cache: bool = True) -> List[Dict]:
    """Section 5.6's reason for omitting multi-core MICA numbers.

    Client/server LLC contention on one machine (the co-located generator
    "reads 1.49 GB at a very high rate") against clean distributed
    machines.
    """
    del jobs, cache
    from repro.apps.kvs.cluster_bench import run_kvs_multicore

    rows = []
    for threads in (2, 4):
        colocated = run_kvs_workload(
            system="mica", num_threads=threads, num_keys=1_000_000,
            get_fraction=0.95, nreq=3000 * threads, closed_loop_window=24,
            model_llc_contention=True, warmup_ns=100_000,
        )
        distributed = run_kvs_multicore(server_threads=threads,
                                        nreq_per_thread=3000)
        rows.append({
            "threads": threads,
            "colocated_mrps": colocated.throughput_mrps,
            "distributed_mrps": distributed.throughput_mrps,
        })
    return rows


def _render_colocation(rows) -> str:
    return render_table(
        ["server threads", "colocated Mrps", "distributed Mrps"],
        [(r["threads"], r["colocated_mrps"], r["distributed_mrps"])
         for r in rows],
        title=("Extension — MICA multi-core: colocated (LLC-contended, "
               "as §5.6 describes) vs distributed FPGAs"),
    )


def _check_colocation(rows):
    # Distributed measurement is strictly cleaner — the paper's reason for
    # deferring multi-core numbers to a real cluster.
    for row in rows:
        yield (f"{row['threads']} threads: distributed out-runs colocated",
               row["distributed_mrps"] > row["colocated_mrps"])


# ---------------------------------------------------------------- catalogue

#: Every paper artifact, ablation and extension, in ``run all`` order.
CATALOGUE: Tuple[Experiment, ...] = (
    Experiment("table1", "Table 1: NIC implementation specs",
               "table1_resources", table1_resources, _render_table1,
               _check_table1),
    Experiment("table3", "Table 3: RTT + per-core Mrps across RPC platforms",
               "table3_rpc_platforms", table3_rpc_platforms, _render_table3,
               _check_table3, paper=TABLE3_PAPER),
    Experiment("table4", "Table 4: Flight Registration threading models",
               "table4_flight", table4_flight, _render_table4,
               _check_table4, paper=TABLE4_PAPER),
    Experiment("fig3", "Fig 3: networking share of tier latency",
               "fig3_breakdown", fig3_breakdown, _render_fig3, _check_fig3,
               paper=FIG3_PAPER),
    Experiment("fig4", "Fig 4: RPC size distributions", "fig4_rpc_sizes",
               fig4_rpc_sizes, _render_fig4, _check_fig4, paper=FIG4_PAPER),
    Experiment("fig5", "Fig 5: networking/application CPU contention",
               "fig5_interference", fig5_interference, _render_fig5,
               _check_fig5),
    Experiment("fig10", "Fig 10: CPU-NIC interface comparison",
               "fig10_interfaces", fig10_interfaces, _render_fig10,
               _check_fig10, paper=FIG10_PAPER),
    Experiment("fig11-load", "Fig 11 (left): latency vs load",
               "fig11_latency_load", fig11_latency_load, _render_fig11_load,
               _check_fig11_load),
    Experiment("fig11-bottleneck",
               "Fig 11 (left): first-saturating component at the latency "
               "knee", "fig11_bottleneck", fig11_bottleneck,
               _render_fig11_bottleneck),
    Experiment("fig11-scale", "Fig 11 (right): thread scalability",
               "fig11_scalability", fig11_scalability, _render_fig11_scale,
               _check_fig11_scale, paper=FIG11_PAPER),
    Experiment("fig12", "Fig 12: memcached + MICA over Dagger", "fig12_kvs",
               fig12_kvs, _render_fig12, _check_fig12, paper=FIG12_PAPER),
    Experiment("sec56", "Section 5.6: MICA under higher key skew",
               "sec56_mica_high_skew", sec56_mica_high_skew, _render_sec56,
               _check_sec56),
    Experiment("fig14-isolation",
               "Fig 14: tenant isolation on a virtualized multi-NIC FPGA",
               "fig14_isolation", fig14_isolation, _render_fig14,
               _check_fig14, paper=FIG14_PAPER),
    Experiment("fig15", "Fig 15: Flight Registration latency/load curves",
               "fig15_flight_curves", fig15_flight_curves, _render_fig15,
               _check_fig15),
    Experiment("sec53", "Section 5.3: raw UPI vs PCIe access latency",
               "sec53_raw_access", sec53_raw_access, _render_sec53,
               _check_sec53),
    Experiment("chaos",
               "Chaos: tail latency + recovery invariants per fault class",
               "chaos_fault_classes", figx_chaos, _render_chaos,
               _check_chaos, paper=CHAOS_PAPER),
    Experiment("mesh",
               "Sharded engine: multi-host echo mesh parity across shard "
               "counts", "mesh_parity", _mesh_parity, _render_mesh,
               _check_mesh, sharded=True),
    Experiment("cluster",
               "Rack-scale cluster: SLO attainment under skewed bursty load "
               "with autoscaling", "cluster_slo", cluster_slo,
               _render_cluster),
    Experiment("ablation-batch-sweep",
               "Ablation: CCI-P batch size beyond the paper's B values",
               "ablation_batch_sweep", ablation_batch_sweep,
               _render_batch_sweep, _check_batch_sweep),
    Experiment("ablation-batch-timeout",
               "Ablation: the fixed-batch timeout soft register",
               "ablation_batch_timeout", ablation_batch_timeout,
               _render_batch_timeout, _check_batch_timeout),
    Experiment("ablation-connection-cache",
               "Ablation: connection-cache size vs DRAM-miss penalty",
               "ablation_connection_cache", ablation_connection_cache,
               _render_connection_cache, _check_connection_cache),
    Experiment("ablation-hw-reassembly",
               "Ablation: software vs CAM reassembly (section 4.7)",
               "ablation_hw_reassembly", ablation_hw_reassembly,
               _render_hw_reassembly, _check_hw_reassembly),
    Experiment("ablation-protocol-unit",
               "Ablation: reliable transport and credits under tiny rings "
               "(section 4.5)", "ablation_protocol_unit",
               ablation_protocol_unit, _render_protocol_unit,
               _check_protocol_unit),
    Experiment("ablation-incast",
               "Ablation: 6-to-1 incast per Protocol-unit variant",
               "ablation_incast", ablation_incast, _render_incast,
               _check_incast),
    Experiment("ablation-load-balancer-mica",
               "Ablation: NIC load-balancer scheme under MICA (section 5.7)",
               "ablation_load_balancer_mica", ablation_load_balancer_mica,
               _render_load_balancer_mica, _check_load_balancer_mica),
    Experiment("ablation-threading-sweep",
               "Ablation: worker threads per Flight-app tier",
               "ablation_threading_sweep", ablation_threading_sweep,
               _render_threading_sweep, _check_threading_sweep),
    Experiment("extension-mica-multicore",
               "Extension: MICA multi-core over distributed FPGAs",
               "extension_mica_multicore", extension_mica_multicore,
               _render_mica_multicore, _check_mica_multicore),
    Experiment("extension-colocation",
               "Extension: colocated vs distributed multi-core MICA",
               "extension_colocation", extension_colocation,
               _render_colocation, _check_colocation),
)
