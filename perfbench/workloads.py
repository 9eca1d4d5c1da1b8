"""The benchmark's four workloads, driven through the public rig entry points.

Each workload turns a benchmark seed into one fixed unit of work (a
"repetition") and checks what the simulator computed for it:

- ``set_up(seed)`` is the part ``setup_s`` times after the import: it builds
  the rigs, shard workers and inputs;
- ``prepare(seed, rpcs)`` returns ``(go, finish)`` for a repetition of
  ``rpcs`` operations (default ``rpcs``, the timed size). ``go()`` is the
  timed section and returns the raw result; ``finish(raw)`` checks it and
  returns an :class:`Outcome`. Nothing in ``finish`` is timed.

A run starts with one untimed *reference* repetition of ``reference_rpcs``
operations, whose simulated outputs and memory the benchmark reports; the
timed repetitions that follow give the host speed.

The rigs are called directly, never through ``run_sweep``, so the sweep
result cache can never serve a repetition.

Seeds: benchmark seed ``s`` reaches every random number generator. With
``s = 1`` every rig keeps its own default seed (echo rig 1, open-loop
arrivals 7, chaos 1, mesh 1, cluster 11).
"""

from __future__ import annotations

import hashlib
import io
import json
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Modules every set-up probe imports before it starts building, so that
#: ``python.import_s`` costs the same on all four workloads.
IMPORTS = ("repro.harness", "repro.chaos.rig")


@dataclass
class Outcome:
    """What one repetition did, and whether it was right."""

    rpcs: int  # operations issued (RPCs; cluster entry requests)
    completed: int
    failed: int
    sim: Dict[str, float]  # sim_p50_us, sim_p99_us, sim_mrps, samples
    digest: str
    problems: List[str] = field(default_factory=list)
    #: Raw counters the traced run turns into per-layer extras.
    detail: Dict[str, Any] = field(default_factory=dict)


def digest_of(data: Any) -> str:
    """Short hash of the canonical JSON of ``data``."""
    text = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _conservation(problems: List[str], issued: int, requested: int,
                  completed: int, in_flight: int) -> int:
    """Check issued = completed + failed with nothing in flight; returns
    the failed count."""
    failed = issued - completed - in_flight
    if issued != requested:
        problems.append(f"issued {issued} of {requested} requested RPCs")
    if in_flight:
        problems.append(f"{in_flight} RPCs still in flight after the run")
    if failed:
        problems.append(f"{failed} RPCs failed")
    return failed


def _echo_sim(result) -> Dict[str, float]:
    return {"sim_p50_us": result.p50_us, "sim_p99_us": result.p99_us,
            "sim_mrps": result.throughput_mrps, "samples": result.count}


def _echo_counters(rig) -> Tuple[int, int, int]:
    clients = rig.clients
    return (sum(c.calls_issued for c in clients),
            sum(c.calls_completed for c in clients),
            sum(c.outstanding for c in clients))


def _nic_detail(snapshot: Dict[str, dict]) -> Dict[str, float]:
    """Sum the NIC counters the per-layer extras need over every NIC."""
    totals = {"data_packets": 0, "retransmissions": 0, "duplicates": 0,
              "cache_hits": 0, "cache_misses": 0}
    batches = []
    for component, metrics in sorted(snapshot.items()):
        if not component.startswith("nic."):
            continue
        totals["data_packets"] += metrics.get("transport.data_packets", 0)
        totals["retransmissions"] += metrics.get(
            "transport.retransmissions", 0)
        totals["duplicates"] += metrics.get(
            "transport.duplicates_dropped", 0)
        totals["cache_hits"] += metrics.get("conn_cache.hits", 0)
        totals["cache_misses"] += metrics.get("conn_cache.misses", 0)
        batches.append(metrics.get("mean_batch", 0.0))
    totals["mean_batch"] = sum(batches) / len(batches) if batches else 0.0
    return totals


class EchoClosed:
    """Table 3 echo: one client thread, 64 RPCs in flight, 48-B payloads."""

    name = "echo_closed"
    why = ("smallest RPC, closed loop: only the kernel, NIC, interconnect "
           "and RPC hot path run")
    rpcs = reference_rpcs = 6000

    def _rig(self, seed: int):
        from repro.harness import EchoRig

        return EchoRig(batch_size=4, seed=seed)

    def set_up(self, seed: int) -> None:
        self._rig(seed)

    def prepare(self, seed: int, rpcs: Optional[int] = None
                ) -> Tuple[Callable[[], Any], Callable]:
        rig = self._rig(seed)
        nreq = rpcs or self.rpcs

        def go():
            return rig.closed_loop(window=64, nreq=nreq)

        def finish(result) -> Outcome:
            problems: List[str] = []
            issued, completed, in_flight = _echo_counters(rig)
            failed = _conservation(problems, issued, nreq, completed,
                                   in_flight)
            if rig.server.requests_handled != issued:
                problems.append(
                    f"server handled {rig.server.requests_handled} of "
                    f"{issued} requests")
            if result.drops:
                problems.append(f"{result.drops} packets dropped")
            if not 0 < result.count <= completed:
                problems.append(f"{result.count} latency samples for "
                                f"{completed} completed RPCs")
            return Outcome(
                rpcs=issued, completed=completed, failed=failed,
                sim=_echo_sim(result),
                digest=digest_of(result.to_dict()),
                problems=problems,
                detail=_nic_detail(rig.registry.snapshot()),
            )

        return go, finish


class Mesh4:
    """Four hosts, each running one closed-loop client per peer, on two
    shard workers."""

    name = "mesh4"
    why = ("the only workload where the sharded coordinator works: "
           "windows, boundary pickling and pipe waits")
    hosts = 4
    shards = 2
    rpcs = reference_rpcs = 6000  # 1500 per host

    def set_up(self, seed: int) -> None:
        from repro.harness import run_echo_mesh

        run_echo_mesh(hosts=self.hosts, shards=self.shards,
                      nreq_per_host=1, warmup_ns=0, seed=seed)

    def prepare(self, seed: int, rpcs: Optional[int] = None,
                shards: Optional[int] = None):
        from repro.harness import run_echo_mesh
        from repro.harness.mesh import mesh_signature

        shards = shards or self.shards
        nreq = rpcs or self.rpcs
        per_host = nreq // self.hosts

        def go():
            return run_echo_mesh(hosts=self.hosts, shards=shards,
                                 nreq_per_host=per_host, window=64,
                                 seed=seed)

        def finish(result) -> Outcome:
            problems: List[str] = []
            issued = sum(host["issued"] for host in result.per_host)
            completed = sum(host["completed"] for host in result.per_host)
            handled = sum(host["requests_handled"]
                          for host in result.per_host)
            # The engine runs every host to full drain, so nothing can be
            # left in flight: whatever did not complete failed.
            failed = _conservation(problems, issued, nreq, completed, 0)
            for host in result.per_host:
                if host["issued"] != per_host:
                    problems.append(f"host {host['host']} issued "
                                    f"{host['issued']} of {per_host}")
            if handled != issued:
                problems.append(f"servers handled {handled} of {issued} "
                                "requests")
            if result.drops:
                problems.append(f"{result.drops} packets dropped")
            if not 0 < result.count <= completed:
                problems.append(f"{result.count} latency samples for "
                                f"{completed} completed RPCs")
            return Outcome(
                rpcs=issued, completed=completed, failed=failed,
                sim=_echo_sim(result),
                digest=digest_of(mesh_signature(result)),
                problems=problems,
                detail={
                    "events_total": result.events_total,
                    "windows": result.windows,
                    "stretched_windows": result.stretched_windows,
                    "boundary_bytes": result.boundary_bytes,
                },
            )

        return go, finish


class ClusterSocial:
    """Social network deployed as replica pools on 8 machines plus a load
    box: p2c balancing, autoscaler on, Zipf 0.99 over 1 M sessions."""

    name = "cluster_social"
    why = ("deepest fan-out and heaviest set-up: the only user of the "
           "cluster harness, apps, workloads and the autoscaler")
    #: Timed repetitions use run_cluster_point's default size, so a run
    #: times several; the simulated p99 needs the larger reference run.
    rpcs = 2000
    reference_rpcs = 4000
    #: Steady Poisson sessions: bursty on/off arrivals made the simulated
    #: p99 swing by a third from seed to seed at any affordable size.
    point = dict(app="social_network", machines=8, policy="p2c",
                 modulation="steady", load_krps=40.0,
                 num_sessions=1_000_000, skew_theta=0.99, autoscale=True)

    def set_up(self, seed: int) -> None:
        from repro.harness import run_cluster_point

        run_cluster_point(nreq=1, warmup_ns=0, seed=seed + 10, **self.point)

    def prepare(self, seed: int, rpcs: Optional[int] = None):
        from repro.harness import run_cluster_point
        from repro.harness.cluster import cluster_signature

        nreq = rpcs or self.rpcs

        def go():
            return run_cluster_point(nreq=nreq, seed=seed + 10, **self.point)

        def finish(result: dict) -> Outcome:
            problems: List[str] = []
            completed = result["completed"]
            failed = _conservation(problems, completed + result["lost"],
                                   nreq, completed, 0)
            entry = result["tiers"]["nginx"]["requests_handled"]
            if entry != nreq:
                problems.append(f"entry tier handled {entry} of {nreq} "
                                "requests")
            if result["drops"]:
                problems.append(f"{result['drops']} packets dropped")
            if not 0 < result["count"] <= completed:
                problems.append(f"{result['count']} latency samples for "
                                f"{completed} completed requests")
            return Outcome(
                rpcs=nreq, completed=completed, failed=failed,
                sim={"sim_p50_us": result["p50_us"],
                     "sim_p99_us": result["p99_us"],
                     "sim_mrps": result["throughput_krps"] / 1e3,
                     "samples": result["count"]},
                digest=digest_of(cluster_signature(result)),
                problems=problems,
                detail={"scaling_events": len(result["scaling_events"])},
            )

        return go, finish


class NullSink(io.TextIOBase):
    """Text stream that keeps only a byte count."""

    def __init__(self):
        super().__init__()
        self.bytes = 0

    def writable(self) -> bool:
        return True

    def write(self, text: str) -> int:
        self.bytes += len(text)
        return len(text)


class EchoTracedLossy:
    """The ``timeline --chaos loss --chrome-trace`` investigation path:
    Poisson echo at 2 Mrps over 2 client threads with a bounded span ring,
    telemetry, sketch recording, 2 % wire loss, the reliable transport and
    credit flow control; ends by exporting the Perfetto trace."""

    name = "echo_traced_lossy"
    why = ("the only workload where obs, chaos and transport recovery run; "
           "the trace export dominates its host time and memory")
    #: Timed repetitions are shorter so that a run times more of them.
    rpcs = 2000
    reference_rpcs = 3000
    load_mrps = 2.0
    max_spans = 1500

    def _rig(self, seed: int):
        from repro.chaos import ChaosConfig
        from repro.chaos.rig import FAULT_CLASSES, HostDeliveryAuditor
        from repro.harness import EchoRig

        rig = EchoRig(
            batch_size=4, num_threads=2, seed=seed,
            trace=True, trace_max_spans=self.max_spans,
            telemetry=True, mode="sketch",
            chaos=ChaosConfig.from_dict(dict(FAULT_CLASSES["loss"],
                                             seed=seed)),
            hard_overrides={"reliable_transport": True,
                            "flow_control": True},
        )
        auditor = HostDeliveryAuditor()
        auditor.watch(rig.client_stack.nic)
        auditor.watch(rig.server_stack.nic)
        return rig, auditor

    def set_up(self, seed: int) -> None:
        self._rig(seed)

    def prepare(self, seed: int, rpcs: Optional[int] = None):
        rig, auditor = self._rig(seed)
        nreq = rpcs or self.rpcs

        def go():
            result = rig.open_loop(self.load_mrps, nreq=nreq, seed=seed + 6)
            sink = NullSink()
            events = rig.export_chrome_trace(sink)
            return result, events, sink.bytes

        def finish(raw) -> Outcome:
            result, events, exported = raw
            problems: List[str] = []
            issued, completed, in_flight = _echo_counters(rig)
            failed = _conservation(problems, issued, nreq, completed,
                                   in_flight)
            if auditor.duplicates:
                problems.append(f"{auditor.duplicates} duplicate host "
                                "deliveries")
            # Exactly once: every request reaches the server host once and
            # every response reaches the client host once.
            if auditor.delivered != 2 * issued:
                problems.append(f"{auditor.delivered} host deliveries for "
                                f"{issued} RPCs (expected {2 * issued})")
            if rig.server.requests_handled != issued:
                problems.append(
                    f"server handled {rig.server.requests_handled} of "
                    f"{issued} requests")
            if not 0 < result.count <= completed:
                problems.append(f"{result.count} latency samples for "
                                f"{completed} completed RPCs")
            if events <= 0 or exported <= 0:
                problems.append("the trace export wrote nothing")
            detail = _nic_detail(result.metrics)
            # The byte count depends on how many RPC ids the process has
            # handed out before (ids are process-wide and appear in the
            # trace's flow events), so it stays out of the digest.
            detail["export_bytes"] = exported
            signature = result.to_dict()
            signature["audit"] = [auditor.delivered, auditor.duplicates]
            signature["export_events"] = events
            return Outcome(
                rpcs=issued, completed=completed, failed=failed,
                sim=_echo_sim(result), digest=digest_of(signature),
                problems=problems, detail=detail,
            )

        return go, finish


WORKLOADS = {w.name: w for w in (EchoClosed(), Mesh4(), ClusterSocial(),
                                  EchoTracedLossy())}
