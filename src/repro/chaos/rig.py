"""Chaos measurement rig: seeded fault schedules over the reliable stack.

``run_chaos_point`` runs one open-loop echo workload with the reliable
transport + credit flow control enabled and one named fault class active,
and returns a plain-JSON dict: tail latency (p50/p99/p99.9), loss and
recovery accounting, and the host-delivery audit. The dict is exactly
reproducible for a fixed (fault_class, seed, nreq, load) — the chaos CI
gate diffs two runs' canonical JSON byte-for-byte.

The rig tolerates genuinely lost RPCs (``lost_unrecoverable`` after
``max_retries``): a run that deadlocks waiting for them fails the
remaining calls and reports ``lost_rpcs`` instead of crashing.
"""

from __future__ import annotations

from dataclasses import asdict
from itertools import repeat
from typing import Any, Dict, Optional

from repro.chaos.faults import ChaosConfig
from repro.sim import Exponential
from repro.sim.stats import _check_mode, percentile
from repro.workloads.driver import LoadDriver, poisson_schedule

#: Named fault schedules (config overrides merged with the run's seed).
#: Rates are chosen to stress recovery hard while staying far from the
#: max_retries give-up horizon, so a healthy transport loses nothing.
FAULT_CLASSES: Dict[str, dict] = {
    "none": {},
    "loss": {"wire": {"loss": 0.02}},
    "burst": {"wire": {"burst_enter": 0.01, "burst_exit": 0.3}},
    "reorder": {"wire": {"reorder": 0.05, "reorder_delay_ns": 3_000}},
    "duplicate": {"wire": {"duplicate": 0.03}},
    "degraded_nic": {"degraded_nics": {"server": 2_000}},
    "straggler": {"straggler": {"core_id": 6, "slowdown": 6.0,
                                "period_ns": 150_000,
                                "duration_ns": 50_000, "windows": 8}},
    "cache_thrash": {"cache_thrash": {"period_ns": 50_000, "flushes": 40}},
}


class HostDeliveryAuditor:
    """Counts per-(connection, peer, seq) host deliveries on a NIC.

    Hooks every RX ring's ``on_get`` (chaining whatever hook — e.g. the
    credit engine's dequeue watcher — is already installed), so any RPC
    the host observes twice is caught regardless of which recovery path
    leaked it. The chaos gate asserts ``duplicates == 0``.
    """

    def __init__(self):
        self.seen: Dict[Any, int] = {}
        self.duplicates = 0
        self.delivered = 0

    def watch(self, nic) -> None:
        for rings in nic.flow_rings:
            self._wrap(rings.rx_ring)

    def _wrap(self, ring) -> None:
        prev = ring.on_get

        def audit(item, _prev=prev):
            if getattr(item, "seq", None) is not None:
                key = (item.connection_id, item.src_address, item.seq)
                count = self.seen.get(key, 0)
                if count:
                    self.duplicates += 1
                self.seen[key] = count + 1
                self.delivered += 1
            if _prev is not None:
                _prev(item)

        ring.on_get = audit


def run_chaos_point(
    fault_class: str = "loss",
    load_mrps: float = 1.0,
    nreq: int = 2_000,
    seed: int = 1,
    rpc_bytes: int = 48,
    batch_size: int = 4,
    hedge_ns: Optional[int] = None,
    mode: str = "exact",
) -> dict:
    """One seeded chaos run; returns a canonical-JSON-able result dict.

    ``mode="sketch"`` streams latencies into a quantile sketch
    (:mod:`repro.obs.sketch`) instead of a list — O(1) memory for huge
    ``nreq`` — and tags the result with a ``"mode"`` key. Exact mode
    emits the historical dict byte-for-byte (no ``"mode"`` key), so the
    chaos determinism gate and previously cached sweep entries are
    untouched.
    """
    _check_mode(mode)
    if fault_class not in FAULT_CLASSES:
        raise ValueError(
            f"unknown fault class {fault_class!r} "
            f"(choose from {sorted(FAULT_CLASSES)})"
        )
    if nreq < 1:
        raise ValueError(f"nreq must be >= 1, got {nreq}")
    if load_mrps <= 0:
        raise ValueError(f"load must be positive, got {load_mrps}")
    from repro.harness.runner import EchoRig, echo_issue  # avoid a cycle

    config = ChaosConfig.from_dict(
        dict(FAULT_CLASSES[fault_class], seed=seed)
    )
    rig = EchoRig(
        batch_size=batch_size,
        rpc_bytes=rpc_bytes,
        hard_overrides={"reliable_transport": True, "flow_control": True},
        chaos=config,
    )
    if hedge_ns is not None:
        for client in rig.clients:
            client.hedge_ns = hedge_ns
    auditor = HostDeliveryAuditor()
    auditor.watch(rig.client_stack.nic)
    auditor.watch(rig.server_stack.nic)

    sim = rig.sim
    sketch = None
    latencies = []
    if mode == "sketch":
        from repro.obs.sketch import QuantileSketch

        sketch = QuantileSketch()

        def record(intended, completed_at):
            sketch.add(completed_at - intended)
    else:
        def record(intended, completed_at):
            latencies.append(completed_at - intended)

    driver = LoadDriver(sim, nreq, rig.clients)
    # Distinct stream from the chaos RNG: fault decisions and arrivals must
    # not share draws, or changing the fault class would reshape the load.
    interarrival = Exponential(mean=1000.0 / load_mrps, rng=seed + 7919)
    driver.open_lane(
        poisson_schedule(interarrival, repeat(rig.clients[0], nreq), sim.now),
        echo_issue(rpc_bytes, record, driver),
    )
    # Calls the sender gave up on after max_retries never complete: the
    # driver's stall policy fails them and drains what is still in flight.
    driver.run(drain=False)

    if sketch is not None and sketch.count:
        p50_us = round(sketch.quantile(50) / 1000.0, 3)
        p99_us = round(sketch.quantile(99) / 1000.0, 3)
        p999_us = round(sketch.quantile(99.9) / 1000.0, 3)
    elif latencies:
        data = sorted(latencies)
        p50_us = round(percentile(data, 50, presorted=True) / 1000.0, 3)
        p99_us = round(percentile(data, 99, presorted=True) / 1000.0, 3)
        p999_us = round(percentile(data, 99.9, presorted=True) / 1000.0, 3)
    else:
        p50_us = p99_us = p999_us = 0.0

    client_nic = rig.client_stack.nic
    server_nic = rig.server_stack.nic
    result = {
        "fault_class": fault_class,
        "seed": seed,
        "nreq": nreq,
        "load_mrps": load_mrps,
        "hedge_ns": hedge_ns,
        "completed": driver.completed,
        "lost_rpcs": nreq - driver.completed,
        "p50_us": p50_us,
        "p99_us": p99_us,
        "p999_us": p999_us,
        "duplicate_host_deliveries": auditor.duplicates,
        "host_deliveries": auditor.delivered,
        "hedges_sent": sum(c.hedges_sent for c in rig.clients),
        "monitor_drops": rig.drops,
        "wire": {
            "forwarded": rig.switch.packets_forwarded,
            "dropped": rig.switch.packets_dropped,
        },
        "chaos": asdict(rig.chaos.stats),
        "transport": {
            "client": asdict(client_nic.transport.stats),
            "server": asdict(server_nic.transport.stats),
        },
        "flow_control": {
            "client": asdict(client_nic.flow_control.stats),
            "server": asdict(server_nic.flow_control.stats),
        },
    }
    if mode != "exact":
        # Tag only non-default modes: the exact dict must stay
        # byte-identical to what the chaos gate and old cache entries hold.
        result["mode"] = mode
    return result
