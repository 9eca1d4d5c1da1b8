"""Service-graph builder and load driver.

Builds every tier of an application on one machine — each tier with its own
NIC instance on the shared FPGA, connected through the static-table ToR
switch, exactly the virtualized deployment of Fig 14 — then drives an
open-loop request mix at the entry tier and collects end-to-end latency
plus per-tier traces.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import Dict, List, Optional, Tuple, Union

from repro.apps.microservices.tier import (
    MethodSpec,
    Microservice,
    TierSpec,
    resolve_mix,
)
from repro.apps.microservices.tracing import Tracer
from repro.hw.calibration import Calibration, DEFAULT_CALIBRATION
from repro.hw.nic.config import NicHardConfig, NicSoftConfig
from repro.hw.platform import Machine, MachineConfig
from repro.hw.switch import ToRSwitch
from repro.rpc import RpcClient, RpcThreadedServer, ThreadingModel
from repro.sim import Exponential, LatencyRecorder, Simulator
from repro.sim.distributions import make_rng
from repro.stacks import DaggerStack, connect, make_stack
from repro.workloads.driver import LoadDriver, poisson_schedule, split_quota


class ThreadAllocator:
    """Round-robin software-thread placement over the machine's cores."""

    def __init__(self, machine: Machine):
        self.machine = machine
        self._counter = 0

    def alloc(self, name: str, core: Optional[int] = None):
        if core is None:
            core = self._counter % len(self.machine.cores)
            self._counter += 1
        return self.machine.thread(core, name=name)


@dataclass
class GraphResult:
    """Outcome of one load run against a service graph."""

    throughput_krps: float
    p50_us: float
    p90_us: float
    p99_us: float
    count: int
    drops: int
    drop_rate: float
    tracer: Tracer


class ServiceGraph:
    """A set of tiers + the fabric between them."""

    def __init__(
        self,
        stack_name: str = "dagger",
        calibration: Calibration = DEFAULT_CALIBRATION,
        machine_config: Optional[MachineConfig] = None,
        loopback: bool = True,
        seed: int = 5,
    ):
        self.sim = Simulator()
        self.calibration = calibration
        self.stack_name = stack_name
        self.machine = Machine(
            self.sim, machine_config or MachineConfig(), calibration, seed=seed
        )
        self.switch = ToRSwitch(self.sim, calibration, loopback=loopback)
        self.allocator = ThreadAllocator(self.machine)
        self.tiers: Dict[str, Microservice] = {}
        self.tracer = Tracer(*self._transport_profile(stack_name))
        self.rng = make_rng(seed)
        self._built = False

    def _transport_profile(self, stack_name: str) -> Tuple[int, int]:
        """(oneway_ns, cpu_ns) of the *transport* (TCP/IP) layer only.

        For software stacks roughly half the stack cost is the transport
        layer and the rest is RPC processing (Thrift-style marshalling,
        dispatch); Fig 3 shows the two shares are comparable, with RPC
        growing under load because queueing happens in the RPC layer.
        """
        if stack_name == "dagger":
            # Transport is on the NIC; the CPU-visible transport share is 0.
            return (self.calibration.upi_oneway_ns
                    + self.calibration.loopback_delay_ns, 0)
        from repro.stacks.registry import STACKS

        params = STACKS[stack_name].params
        return (int(params.oneway_ns * 0.53),
                int((params.cpu_tx_ns + params.cpu_rx_ns) * 0.48))

    # -- construction -----------------------------------------------------------

    def add_tier(self, spec: TierSpec) -> Microservice:
        if self._built:
            raise RuntimeError("graph already built")
        if spec.name in self.tiers:
            raise ValueError(f"duplicate tier name {spec.name!r}")
        microservice = Microservice(spec, self)
        self.tiers[spec.name] = microservice
        return microservice

    def _core_for(self, spec: TierSpec, index: int) -> Optional[int]:
        if spec.cores is None:
            return None
        return spec.cores[index % len(spec.cores)]

    def _make_stack(self, name: str, num_flows: int, spec: TierSpec):
        if self.stack_name == "dagger":
            hard = NicHardConfig(
                num_flows=max(1, num_flows),
                rx_ring_entries=256,
            )
            soft = NicSoftConfig(
                batch_size=spec.batch_size,
                auto_batch=spec.auto_batch,
                active_flows=spec.num_dispatch_threads,
                load_balancer=spec.load_balancer,
            )
            return DaggerStack(self.machine, self.switch, name,
                               hard=hard, soft=soft)
        stack = make_stack(self.stack_name, self.machine, self.switch, name,
                           num_ports=max(1, num_flows),
                           load_balancer=spec.load_balancer)
        stack.server_ports = list(range(spec.num_dispatch_threads))
        return stack

    def build(self) -> None:
        """Instantiate stacks, servers, threads, clients, connections."""
        if self._built:
            raise RuntimeError("graph already built")
        self._built = True
        # validate targets first
        for microservice in self.tiers.values():
            for target in microservice.spec.downstream_targets:
                if target not in self.tiers:
                    raise ValueError(
                        f"tier {microservice.name}: unknown downstream "
                        f"tier {target!r}"
                    )
        for microservice in self.tiers.values():
            spec = microservice.spec
            microservice.stack = self._make_stack(
                spec.name, microservice.required_flows(), spec
            )
            server = RpcThreadedServer(self.sim, self.calibration,
                                       name=spec.name)
            microservice.server = server
            for method_name, method_spec in spec.methods.items():
                if isinstance(method_spec, MethodSpec):
                    handler = microservice.make_handler(
                        method_name, method_spec
                    )
                else:
                    handler = method_spec  # custom handler function
                server.register_handler(method_name, handler)
            for i in range(spec.num_workers):
                microservice.worker_threads.append(self.allocator.alloc(
                    f"{spec.name}-worker{i}", core=self._core_for(spec, i)
                ))
            for i in range(spec.num_dispatch_threads):
                thread = self.allocator.alloc(
                    f"{spec.name}-dispatch{i}",
                    core=self._core_for(spec, spec.num_workers + i),
                )
                microservice.dispatch_threads.append(thread)
                server.add_server_thread(
                    microservice.stack.port(i),
                    thread,
                    model=spec.threading,
                    workers=(microservice.worker_threads
                             if spec.threading is ThreadingModel.WORKER
                             else None),
                )
        # downstream clients (needs all stacks to exist)
        for microservice in self.tiers.values():
            for thread in microservice.handler_threads:
                per_target: Dict[str, RpcClient] = {}
                for target in microservice.spec.downstream_targets:
                    flow = microservice.alloc_client_flow()
                    connection = connect(
                        microservice.stack, flow, self.tiers[target].stack, 0
                    )
                    per_target[target] = RpcClient(
                        microservice.stack.port(flow), thread, connection,
                        name=f"{microservice.name}->{target}",
                    )
                microservice.clients[thread] = per_target
        for microservice in self.tiers.values():
            microservice.server.start()

    @property
    def drops(self) -> int:
        return sum(ms.stack.drops for ms in self.tiers.values())

    # -- load driving -------------------------------------------------------------

    def run_load(
        self,
        entry_tier: Optional[str],
        method_mix: Dict[str, float],
        load_krps: float,
        nreq: int = 5000,
        entry_payload_bytes: Union[int, Dict[str, int]] = 64,
        num_load_threads: int = 2,
        warmup_ns: int = 2_000_000,
        seed: int = 17,
        measure_from_issue: bool = False,
    ) -> GraphResult:
        """Drive a Poisson request mix.

        ``method_mix`` keys are method names on ``entry_tier``, or
        ``"tier.method"`` keys to spread load over several entry tiers
        (the Flight app drives both front-ends at once).
        """
        if not self._built:
            self.build()
        if load_krps <= 0:
            raise ValueError(f"load must be positive, got {load_krps}")
        entries = resolve_mix(
            method_mix, entry_tier,
            {name: ms.spec for name, ms in self.tiers.items()},
        )
        entry_tiers = sorted({tier for tier, _ in entries.values()})

        sim = self.sim
        rng = make_rng(seed)
        # External load generator: its own NIC + threads (the "Client" box).
        flows_needed = num_load_threads * len(entry_tiers)
        if self.stack_name == "dagger":
            loadgen_stack = DaggerStack(
                self.machine, self.switch, "loadgen",
                hard=NicHardConfig(num_flows=flows_needed,
                                   rx_ring_entries=512),
                soft=NicSoftConfig(batch_size=1, auto_batch=True),
            )
        else:
            loadgen_stack = make_stack(
                self.stack_name, self.machine, self.switch, "loadgen",
                num_ports=flows_needed,
            )
        # One RpcClient per (loadgen thread, entry tier).
        clients: List[Dict[str, RpcClient]] = []
        next_flow = 0
        for i in range(num_load_threads):
            thread = self.allocator.alloc(f"loadgen{i}")
            per_tier: Dict[str, RpcClient] = {}
            for tier_name in entry_tiers:
                connection = connect(
                    loadgen_stack, next_flow, self.tiers[tier_name].stack, 0
                )
                per_tier[tier_name] = RpcClient(
                    loadgen_stack.port(next_flow), thread, connection
                )
                next_flow += 1
            clients.append(per_tier)

        methods = list(method_mix)
        weights = [method_mix[m] for m in methods]
        total_weight = sum(weights)
        if total_weight <= 0:
            raise ValueError("method mix weights must sum to > 0")
        recorder = LatencyRecorder(warmup_ns=warmup_ns)
        driver = LoadDriver(sim, nreq, [
            client for per_tier in clients for client in per_tier.values()
        ])
        interarrival = Exponential(
            mean=1e6 / load_krps * len(clients), rng=seed + 1
        )

        def payload_size(method: str) -> int:
            if isinstance(entry_payload_bytes, dict):
                return entry_payload_bytes.get(method, 64)
            return entry_payload_bytes

        def issue(per_tier: Dict[str, RpcClient], intended: int):
            # Past saturation the generator falls behind its schedule;
            # measuring from issue time (as the paper's generator does)
            # keeps the median meaningful while the tail soars (Fig 15).
            arrival = sim.now if measure_from_issue else intended
            mix_key = rng.choices(methods, weights=weights)[0]
            tier_name, method = entries[mix_key]

            def on_complete(call):
                recorder.record(arrival, call.completed_at)
                self.tracer.record_e2e(call.completed_at - arrival)
                driver.complete()

            return per_tier[tier_name].call_async(
                method, b"", payload_size(mix_key), callback=on_complete
            )

        for per_tier, quota in zip(clients,
                                   split_quota(nreq, len(clients))):
            driver.open_lane(poisson_schedule(
                interarrival, repeat(per_tier, quota), sim.now), issue)
        driver.run()

        drops = self.drops + loadgen_stack.drops
        total = recorder.count + recorder.discarded
        stats = recorder.summary()
        return GraphResult(
            throughput_krps=recorder.throughput_rps() / 1e3,
            p50_us=stats.p50_us,
            p90_us=stats.p90_us,
            p99_us=stats.p99_us,
            count=recorder.count,
            drops=drops,
            drop_rate=drops / max(1, total + drops),
            tracer=self.tracer,
        )
