"""Multi-core KVS scaling over a distributed cluster.

The measurement section 5.6 explicitly could not take: "we do not show
results of multi-core scalability for MICA, since the extensive amount of
LLC contention [from running client and server on the same CPU] introduces
considerable instability... we plan to deploy Dagger to a cluster
environment with physically distributed FPGAs". This module takes it:
the MICA server runs alone on one machine; load comes from separate client
machines over a real ToR switch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

from repro.apps.kvs.client import (
    KvsClient,
    drive_ops,
    encode_key,
    generate_ops,
    kvs_backend,
    kvs_idl,
    make_value,
    start_kvs_server,
)
from repro.hw.calibration import Calibration, DEFAULT_CALIBRATION
from repro.hw.cluster import Cluster
from repro.hw.nic.config import NicHardConfig, NicSoftConfig
from repro.hw.platform import MachineConfig
from repro.rpc import RpcClient
from repro.sim import LatencyRecorder, Simulator
from repro.stacks import DaggerStack, connect

#: Client threads one 12-core machine contributes (2 SMT threads per core
#: on 8 of its cores; the rest absorb OS noise, as the paper's setup does).
CLIENT_THREADS_PER_MACHINE = 16


@dataclass
class ClusterKvsResult:
    """Multi-core scaling measurement."""

    server_threads: int
    client_machines: int
    throughput_mrps: float
    p50_us: float
    p99_us: float
    drop_rate: float


def run_kvs_multicore(
    system: str = "mica",
    server_threads: int = 4,
    key_bytes: int = 8,
    value_bytes: int = 8,
    num_keys: int = 1_000_000,
    get_fraction: float = 0.95,
    window_per_client: int = 24,
    nreq_per_thread: int = 4000,
    batch_size: int = 4,
    calibration: Calibration = DEFAULT_CALIBRATION,
    seed: int = 13,
) -> ClusterKvsResult:
    """Closed-loop saturation of a multi-threaded KVS server."""
    config = MachineConfig()
    # The server's threads fill two SMT slots per core of its machine.
    max_threads = config.cores * config.smt
    if not 1 <= server_threads <= max_threads:
        raise ValueError(f"server_threads must be in [1, {max_threads}] "
                         f"({config.cores} cores, {config.smt} threads "
                         f"each), got {server_threads}")
    for name, value in (("nreq_per_thread", nreq_per_thread),
                        ("window_per_client", window_per_client)):
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")
    sim = Simulator()
    # Enough client machines to saturate the server threads.
    clients_needed = max(server_threads, 2)
    num_client_machines = max(
        1, math.ceil(clients_needed / CLIENT_THREADS_PER_MACHINE)
    )
    cluster = Cluster(sim, 1 + num_client_machines, calibration, seed=seed,
                      machine_config=config)
    server_machine = cluster.machine(0)
    namespace = kvs_idl(key_bytes, value_bytes)

    backend, balancer = kvs_backend(system, server_threads)
    server_stack = DaggerStack(
        server_machine, cluster.switch, "kvs-server",
        hard=NicHardConfig(num_flows=server_threads, rx_ring_entries=256),
        soft=NicSoftConfig(batch_size=batch_size, auto_batch=True,
                           load_balancer=balancer),
    )
    start_kvs_server(sim, calibration, system, namespace, backend,
                     value_bytes, server_stack,
                     server_machine.threads(server_threads, start_core=0))

    # Client fleet: one thread per server thread, spread across machines.
    clients: List[KvsClient] = []
    for index in range(clients_needed):
        machine = cluster.machine(1 + index % num_client_machines)
        stack_name = f"kvs-client{index}"
        client_stack = DaggerStack(
            machine, cluster.switch, stack_name,
            hard=NicHardConfig(num_flows=1),
            soft=NicSoftConfig(batch_size=batch_size, auto_batch=True),
        )
        thread = machine.thread(
            (index // num_client_machines) % machine.config.cores,
            name=stack_name,
        )
        conn = connect(client_stack, 0, server_stack,
                       index % server_threads, load_balancer=balancer)
        clients.append(KvsClient(namespace, RpcClient(client_stack.port(0),
                                                      thread, conn),
                                 key_bytes, value_bytes,
                                 use_lb_key=(system == "mica")))

    nreq = nreq_per_thread * server_threads
    ops = generate_ops(nreq, num_keys, get_fraction, seed=seed)
    backend.populate(
        (encode_key(i, key_bytes), make_value(i, value_bytes))
        for i in sorted({index for _, index in ops})
    )

    recorder = LatencyRecorder(warmup_ns=150_000)
    drive_ops(sim, clients, ops, recorder, window=window_per_client)

    total = recorder.count + recorder.discarded
    drops = server_stack.drops
    stats = recorder.summary()
    # Throughput needs a measurement window; one sample has none.
    throughput = recorder.throughput_mrps() if recorder.count >= 2 else 0.0
    return ClusterKvsResult(
        server_threads=server_threads,
        client_machines=num_client_machines,
        throughput_mrps=throughput,
        p50_us=stats.p50_us,
        p99_us=stats.p99_us,
        drop_rate=drops / max(1, total + drops),
    )
