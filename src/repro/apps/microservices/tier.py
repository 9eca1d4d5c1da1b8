"""Declarative microservice tiers.

A :class:`TierSpec` describes one tier: its methods (compute + downstream
fanout), its threading model, and its placement. The graph builder turns a
spec into a :class:`Microservice`: an RPC server over the tier's own NIC
instance plus per-thread RPC clients to every downstream tier (each handler
thread owns its own client flows, which keeps ring access lock-free, as in
the paper's threading model, Fig 7).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.rpc import RpcClient, RpcThreadedServer, ThreadingModel
from repro.sim.distributions import Constant, Distribution

SizeLike = Union[int, Distribution]


def sample_size(size: SizeLike) -> int:
    if isinstance(size, Distribution):
        return max(1, size.sample_ns())
    if size < 1:
        raise ValueError(f"payload size must be >= 1, got {size}")
    return size


@dataclass
class CallSpec:
    """One downstream call a handler makes.

    ``use_key``: pass the request's key (see ``MethodSpec.request_key``) as
    the call's load-balancing key — what routes KVS calls to the owning
    MICA partition through the object-level balancer.
    """

    target: str
    method: str = "handle"
    payload_bytes: SizeLike = 64
    use_key: bool = False


@dataclass
class MethodSpec:
    """Behaviour of one method of a tier.

    ``stages`` is a list of fanout stages executed in order; the calls
    inside one stage are issued concurrently (non-blocking) and joined
    before the next stage starts — which expresses every dependency shape
    of Fig 13 (chains, fanouts, one-to-many).
    """

    compute: Distribution = field(default_factory=lambda: Constant(0))
    stages: List[List[CallSpec]] = field(default_factory=list)
    response_bytes: SizeLike = 64
    post_compute_ns: int = 0  # deferred (post-response) work
    request_key: bool = False  # draw one key per request (for use_key calls)


@dataclass
class TierSpec:
    """Static description of one tier."""

    name: str
    #: method name -> MethodSpec, or a custom handler generator function
    #: ``handler(ctx, payload) -> (payload, bytes)`` for tiers whose logic
    #: the declarative spec cannot express (e.g. MICA-backed storage).
    methods: Dict[str, object]
    num_dispatch_threads: int = 1
    threading: ThreadingModel = ThreadingModel.DISPATCH
    num_workers: int = 0
    cores: Optional[Sequence[int]] = None  # explicit pinning (Fig 5)
    batch_size: int = 1
    auto_batch: bool = True
    load_balancer: str = "round-robin"  # NIC steering scheme for this tier

    def __post_init__(self):
        if not self.methods:
            raise ValueError(f"tier {self.name}: needs at least one method")
        if self.num_dispatch_threads < 1:
            raise ValueError(f"tier {self.name}: needs a dispatch thread")
        if self.threading is ThreadingModel.WORKER and self.num_workers < 1:
            raise ValueError(
                f"tier {self.name}: worker model needs num_workers >= 1"
            )

    @property
    def downstream_targets(self) -> List[str]:
        targets = []
        for method in self.methods.values():
            if not isinstance(method, MethodSpec):
                continue  # custom handlers declare no static fanout
            for stage in method.stages:
                for call in stage:
                    if call.target not in targets:
                        targets.append(call.target)
        return targets


def resolve_mix(keys, entry_tier: Optional[str],
                specs: Dict[str, TierSpec]) -> Dict[str, Tuple[str, str]]:
    """Map each request-mix key to the ``(tier, method)`` it calls.

    A key names a method on ``entry_tier``, or is a ``"tier.method"`` pair
    to spread load over several entry tiers (Flight drives both of its
    front-ends at once). ``specs`` maps the deployed tier names to specs.
    """
    entries: Dict[str, Tuple[str, str]] = {}
    for key in keys:
        if "." in key:
            tier_name, method = key.split(".", 1)
        else:
            if entry_tier is None:
                raise ValueError(
                    f"mix key {key!r} has no tier and no entry_tier given"
                )
            tier_name, method = entry_tier, key
        if tier_name not in specs:
            raise ValueError(f"unknown entry tier {tier_name!r}")
        if method not in specs[tier_name].methods:
            raise ValueError(
                f"entry tier {tier_name} has no method {method!r}"
            )
        entries[key] = (tier_name, method)
    return entries


class Microservice:
    """A built tier: server + per-thread downstream clients."""

    def __init__(self, spec: TierSpec, graph):
        self.spec = spec
        self.graph = graph
        self.stack = None  # set by the graph builder
        self.server: Optional[RpcThreadedServer] = None
        self.dispatch_threads = []
        self.worker_threads = []
        # thread -> target tier name -> RpcClient
        self.clients: Dict[object, Dict[str, RpcClient]] = {}
        self._next_client_flow = spec.num_dispatch_threads

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def handler_threads(self) -> List:
        """Threads that can run handlers (and thus issue nested calls)."""
        if self.spec.threading is ThreadingModel.WORKER:
            return list(self.worker_threads)
        return list(self.dispatch_threads)

    def required_flows(self) -> int:
        """NIC flows: one per dispatch thread + one per (handler, target)."""
        handler_count = (self.spec.num_workers
                         if self.spec.threading is ThreadingModel.WORKER
                         else self.spec.num_dispatch_threads)
        return (self.spec.num_dispatch_threads
                + handler_count * len(self.spec.downstream_targets))

    def alloc_client_flow(self) -> int:
        flow = self._next_client_flow
        self._next_client_flow += 1
        return flow

    def client_for(self, thread, target: str) -> RpcClient:
        try:
            return self.clients[thread][target]
        except KeyError:
            raise KeyError(
                f"tier {self.name}: thread {getattr(thread, 'name', thread)} "
                f"has no client for target {target!r}"
            ) from None

    # -- handler construction ------------------------------------------------

    def make_handler(self, method_name: str, method: MethodSpec):
        tracer = self.graph.tracer

        rng = self.graph.rng

        def handler(ctx, payload):
            compute = method.compute.sample_ns()
            if compute:
                yield from ctx.exec(compute)
            tracer.record_compute(self.name, compute)
            request_key = None
            if method.request_key:
                # One key per request: inherited from the caller when it
                # forwarded one, else freshly drawn.
                request_key = ctx.packet.lb_key
                if request_key is None:
                    request_key = rng.getrandbits(32)
            nested_wait = 0
            for stage in method.stages:
                stage_start = ctx.sim.now
                pending = []
                for call_spec in stage:
                    client = self.client_for(ctx.thread, call_spec.target)
                    call = yield from client.call_async(
                        call_spec.method,
                        b"",
                        sample_size(call_spec.payload_bytes),
                        lb_key=request_key if call_spec.use_key else None,
                    )
                    pending.append((call_spec.target, call))
                for target, call in pending:
                    yield call.event
                    tracer.record_call(target, call.latency_ns,
                                       rpc_id=call.rpc_id)
                nested_wait += ctx.sim.now - stage_start
            if method.stages:
                tracer.record_nested(self.name, ctx.packet.rpc_id,
                                     nested_wait)
            if method.post_compute_ns:
                ctx.defer(method.post_compute_ns)
            return b"", sample_size(method.response_bytes)

        return handler
