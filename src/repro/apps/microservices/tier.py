"""Declarative microservice tiers and their deployed copies.

A :class:`TierSpec` describes one tier: its methods (compute + downstream
fanout), its threading model, and its placement. A :class:`Microservice`
is one deployed copy of a spec: an RPC server over its own NIC instance
plus per-thread RPC clients to every downstream tier (each handler thread
owns its own client flows, which keeps ring access lock-free, as in the
paper's threading model, Fig 7). The single-machine service graph
(:mod:`repro.apps.microservices.graph`) deploys one copy per tier; the
rack-scale cluster (:mod:`repro.harness.cluster`) deploys a pool of
replicas per tier. Both drive load through
:func:`deploy_load_generator`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.hw.nic.config import NicHardConfig, NicSoftConfig
from repro.rpc import RpcClient, RpcThreadedServer, ThreadingModel
from repro.sim.distributions import Constant, Distribution
from repro.stacks import connect, make_stack

SizeLike = Union[int, Distribution]

#: ``route(copy, thread, target) -> (client, connection_id, callback)``:
#: where a deployed copy's handler sends a nested call to ``target``.
Route = Callable[["Microservice", object, str],
                 Tuple[RpcClient, Optional[int], Optional[Callable]]]


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
    def num_threads(self) -> int:
        """Software threads one deployed copy runs."""
        return self.num_dispatch_threads + self.num_workers

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


def connect_client(stack, flow: int, thread, copies: Sequence["Microservice"],
                   name: str,
                   alloc_connection: Optional[Callable[[], int]] = None,
                   ) -> Tuple[RpcClient, List[int]]:
    """One client on ``flow`` with a connection to each deployed copy.

    The connections share the client's ring pair (the SRQ model of section
    4.2); the first copy's is the default. ``alloc_connection`` hands out
    the connection ids (None: the process-wide counter).
    """
    conn_ids = [
        connect(stack, flow, copy.stack, 0,
                connection_id=(None if alloc_connection is None
                               else alloc_connection()))
        for copy in copies
    ]
    client = RpcClient(stack.port(flow), thread, conn_ids[0], name=name)
    for connection_id in conn_ids[1:]:
        client.add_connection(connection_id)
    return client, conn_ids


class Microservice:
    """One deployed copy of a tier: its stack, server, threads and clients.

    The service graph deploys one per tier, the cluster one per replica.
    The copy owns its flow layout: one NIC flow per dispatch thread, then
    one per (handler thread, downstream tier). Nested calls go where
    ``route(copy, thread, target) -> (client, connection_id, callback)``
    sends them; ``tracer`` (a per-tier
    :class:`~repro.apps.microservices.tracing.Tracer`, or None) records
    compute, call and nested-wait times.
    """

    def __init__(self, spec: TierSpec, stack_name: str, machine, switch,
                 address: str, worker_threads: List, dispatch_threads: List,
                 rng, route: Route, tracer=None):
        self.spec = spec
        self.address = address
        self.worker_threads = worker_threads
        self.dispatch_threads = dispatch_threads
        self.rng = rng
        self.route = route
        self.tracer = tracer
        # thread -> target tier name -> RpcClient
        self.clients: Dict[object, Dict[str, RpcClient]] = {}
        # thread -> target tier name -> connection id per deployed copy
        self.connections: Dict[object, Dict[str, List[int]]] = {}
        num_flows = (len(dispatch_threads) + len(self.handler_threads)
                     * len(spec.downstream_targets))
        self.stack = make_stack(
            stack_name, machine, switch, address,
            hard=NicHardConfig(num_flows=num_flows, rx_ring_entries=256),
            soft=NicSoftConfig(
                batch_size=spec.batch_size,
                auto_batch=spec.auto_batch,
                active_flows=spec.num_dispatch_threads,
                load_balancer=spec.load_balancer,
            ),
        )
        self.server = RpcThreadedServer(machine.sim, machine.calibration,
                                        name=address)
        for method_name, method in spec.methods.items():
            handler = (self.make_handler(method)
                       if isinstance(method, MethodSpec)
                       else method)  # a custom handler function
            self.server.register_handler(method_name, handler)
        workers = (worker_threads
                   if spec.threading is ThreadingModel.WORKER else None)
        for flow, thread in enumerate(dispatch_threads):
            self.server.add_server_thread(self.stack.port(flow), thread,
                                          model=spec.threading,
                                          workers=workers)

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def handler_threads(self) -> List:
        """Threads that can run handlers (and thus issue nested calls)."""
        if self.spec.threading is ThreadingModel.WORKER:
            return list(self.worker_threads)
        return list(self.dispatch_threads)

    def wire(self, copies: Dict[str, Sequence["Microservice"]],
             alloc_connection: Optional[Callable[[], int]] = None) -> None:
        """Give every handler thread a client per downstream tier, with a
        connection to each of that tier's deployed ``copies``."""
        flow = self.spec.num_dispatch_threads
        for thread in self.handler_threads:
            self.clients[thread] = {}
            self.connections[thread] = {}
            for target in self.spec.downstream_targets:
                client, conn_ids = connect_client(
                    self.stack, flow, thread, copies[target],
                    f"{self.address}->{target}", alloc_connection,
                )
                self.clients[thread][target] = client
                self.connections[thread][target] = conn_ids
                flow += 1

    def client_for(self, thread, target: str) -> RpcClient:
        try:
            return self.clients[thread][target]
        except KeyError:
            raise KeyError(
                f"tier {self.name}: thread {getattr(thread, 'name', thread)} "
                f"has no client for target {target!r}"
            ) from None

    # -- handler construction ------------------------------------------------

    def make_handler(self, method: MethodSpec):
        name = self.name
        rng = self.rng
        route = self.route
        tracer = self.tracer

        def handler(ctx, payload):
            compute = method.compute.sample_ns()
            if compute:
                yield from ctx.exec(compute)
            if tracer is not None:
                tracer.record_compute(name, compute)
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
                    client, connection_id, callback = route(
                        self, ctx.thread, call_spec.target
                    )
                    call = yield from client.call_async(
                        call_spec.method,
                        b"",
                        sample_size(call_spec.payload_bytes),
                        lb_key=request_key if call_spec.use_key else None,
                        connection_id=connection_id,
                        callback=callback,
                    )
                    pending.append((call_spec.target, call))
                for target, call in pending:
                    yield call.event
                    if tracer is not None:
                        tracer.record_call(target, call.latency_ns,
                                           rpc_id=call.rpc_id)
                nested_wait += ctx.sim.now - stage_start
            if tracer is not None and method.stages:
                tracer.record_nested(name, ctx.packet.rpc_id, nested_wait)
            if method.post_compute_ns:
                ctx.defer(method.post_compute_ns)
            return b"", sample_size(method.response_bytes)

        return handler


def deploy_load_generator(
    stack_name: str,
    machine,
    switch,
    num_load_threads: int,
    alloc_threads: Callable[[int], List],
    entry_copies: Dict[str, Sequence[Microservice]],
    alloc_connection: Optional[Callable[[], int]] = None,
) -> Tuple[object, List[Dict[str, Tuple[RpcClient, List[int]]]]]:
    """The external load generator (the "Client" box): its own NIC and
    ``alloc_threads(num_load_threads)`` threads, each with one client per
    entry tier carrying a connection to every copy in ``entry_copies``.

    Returns the stack and, per load thread, entry tier -> (client,
    connection ids).
    """
    if num_load_threads < 1:
        raise ValueError(
            f"num_load_threads must be >= 1, got {num_load_threads}"
        )
    stack = make_stack(
        stack_name, machine, switch, "loadgen",
        hard=NicHardConfig(num_flows=num_load_threads * len(entry_copies),
                           rx_ring_entries=512),
        soft=NicSoftConfig(batch_size=1, auto_batch=True),
    )
    lanes = []
    flow = 0
    for i, thread in enumerate(alloc_threads(num_load_threads)):
        lane = {}
        for tier_name, copies in entry_copies.items():
            lane[tier_name] = connect_client(
                stack, flow, thread, copies, f"loadgen{i}->{tier_name}",
                alloc_connection,
            )
            flow += 1
        lanes.append(lane)
    return stack, lanes
