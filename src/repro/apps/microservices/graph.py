"""Service-graph builder and load driver.

Deploys one copy of every tier of an application on one machine (a
:class:`~repro.apps.microservices.tier.Microservice` each) — each tier
with its own NIC instance on the shared FPGA, connected through the
static-table ToR switch, exactly the virtualized deployment of Fig 14 —
then drives an open-loop request mix at the entry tier and collects
end-to-end latency plus per-tier traces. Threads are placed round-robin
over the machine's cores unless a spec pins them (``TierSpec.cores``).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import Dict, Optional, Tuple, Union

from repro.apps.microservices.tier import (
    Microservice,
    TierSpec,
    deploy_load_generator,
    resolve_mix,
)
from repro.apps.microservices.tracing import Tracer
from repro.hw.calibration import Calibration, DEFAULT_CALIBRATION
from repro.hw.platform import Machine, MachineConfig
from repro.hw.switch import ToRSwitch
from repro.sim import Exponential, LatencyRecorder, Simulator
from repro.sim.distributions import make_rng
from repro.workloads.driver import LoadDriver, poisson_schedule, split_quota


def _own_client(tier: Microservice, thread, target: str):
    """The graph's route: the calling thread's own client, whose one
    connection reaches the target's only copy."""
    return tier.client_for(thread, target), None, None


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
        self.specs: Dict[str, TierSpec] = {}
        #: Tier name -> its deployed copy, filled by :meth:`build`.
        self.tiers: Dict[str, Microservice] = {}
        self.tracer = Tracer(*self._transport_profile(stack_name))
        self.rng = make_rng(seed)
        self._built = False
        self._ran = False

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
        from repro.stacks.registry import BASELINES, _check_stack

        _check_stack(stack_name)
        params = BASELINES[stack_name]
        return (int(params.oneway_ns * 0.53),
                int((params.cpu_tx_ns + params.cpu_rx_ns) * 0.48))

    # -- construction -----------------------------------------------------------

    def add_tier(self, spec: TierSpec) -> None:
        if self._built:
            raise RuntimeError("graph already built")
        if spec.name in self.specs:
            raise ValueError(f"duplicate tier name {spec.name!r}")
        self.specs[spec.name] = spec

    def _core_for(self, spec: TierSpec, index: int) -> Optional[int]:
        if spec.cores is None:
            return None
        return spec.cores[index % len(spec.cores)]

    def build(self) -> None:
        """Instantiate stacks, servers, threads, clients, connections."""
        if self._built:
            raise RuntimeError("graph already built")
        self._built = True
        # validate targets first
        for spec in self.specs.values():
            for target in spec.downstream_targets:
                if target not in self.specs:
                    raise ValueError(
                        f"tier {spec.name}: unknown downstream "
                        f"tier {target!r}"
                    )
        for spec in self.specs.values():
            workers = [
                self.allocator.alloc(f"{spec.name}-worker{i}",
                                     core=self._core_for(spec, i))
                for i in range(spec.num_workers)
            ]
            dispatchers = [
                self.allocator.alloc(
                    f"{spec.name}-dispatch{i}",
                    core=self._core_for(spec, spec.num_workers + i),
                )
                for i in range(spec.num_dispatch_threads)
            ]
            self.tiers[spec.name] = Microservice(
                spec, self.stack_name, self.machine, self.switch, spec.name,
                worker_threads=workers, dispatch_threads=dispatchers,
                rng=self.rng, route=_own_client, tracer=self.tracer,
            )
        # downstream clients (needs all stacks to exist)
        copies = {name: [tier] for name, tier in self.tiers.items()}
        for tier in self.tiers.values():
            tier.wire(copies)
        for tier in self.tiers.values():
            tier.server.start()

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
        (the Flight app drives both front-ends at once). A graph runs
        once: build a fresh one for another run.
        """
        if self._ran:
            raise RuntimeError("graph already ran (build a fresh one)")
        self._ran = True
        if nreq < 1:
            raise ValueError(f"nreq must be >= 1, got {nreq}")
        if load_krps <= 0:
            raise ValueError(f"load_krps must be positive, got {load_krps}")
        entries = resolve_mix(method_mix, entry_tier, self.specs)
        entry_tiers = sorted({tier for tier, _ in entries.values()})
        methods = list(method_mix)
        weights = [method_mix[m] for m in methods]
        if sum(weights) <= 0:
            raise ValueError("method mix weights must sum to > 0")
        if not self._built:
            self.build()

        sim = self.sim
        rng = make_rng(seed)
        # External load generator: its own NIC + threads (the "Client" box).
        loadgen_stack, lanes = deploy_load_generator(
            self.stack_name, self.machine, self.switch, num_load_threads,
            lambda count: [self.allocator.alloc(f"loadgen{i}")
                           for i in range(count)],
            {name: [self.tiers[name]] for name in entry_tiers},
        )
        recorder = LatencyRecorder(warmup_ns=warmup_ns)
        driver = LoadDriver(sim, nreq, [
            client for lane in lanes for client, _ in lane.values()
        ])
        interarrival = Exponential(
            mean=1e6 / load_krps * len(lanes), rng=seed + 1
        )

        def payload_size(method: str) -> int:
            if isinstance(entry_payload_bytes, dict):
                return entry_payload_bytes.get(method, 64)
            return entry_payload_bytes

        def issue(lane, intended: int):
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

            client, _ = lane[tier_name]
            return client.call_async(
                method, b"", payload_size(mix_key), callback=on_complete
            )

        for lane, quota in zip(lanes, split_quota(nreq, len(lanes))):
            driver.open_lane(poisson_schedule(
                interarrival, repeat(lane, quota), sim.now), issue)
        driver.run()

        drops = self.drops + loadgen_stack.drops
        total = recorder.count + recorder.discarded
        stats = recorder.summary()
        # Throughput needs a measurement window; one sample has none.
        throughput_krps = (recorder.throughput_rps() / 1e3
                           if recorder.count >= 2 else 0.0)
        return GraphResult(
            throughput_krps=throughput_krps,
            p50_us=stats.p50_us,
            p90_us=stats.p90_us,
            p99_us=stats.p99_us,
            count=recorder.count,
            drops=drops,
            drop_rate=drops / max(1, total + drops),
            tracer=self.tracer,
        )
