"""Multi-host echo mesh over the sharded engine (one Simulator per host).

The single-machine :class:`~repro.harness.runner.EchoRig` puts client and
server NICs on one FPGA behind one simulator. This rig scales out instead:
``hosts`` machines, each with its own client NIC and server NIC behind a
:class:`~repro.hw.switch.ShardBoundary`, every host running a closed-loop
echo workload against *every other* host (a full mesh — the densest
cross-host traffic pattern, so it is the honest scaling benchmark for
:mod:`repro.sim.sharded`).

Cross-host connections cannot go through :func:`repro.stacks.connect` (the
two stacks live in different simulators, possibly different processes), so
each side registers the connection independently with an id that is a pure
function of the (client_host, server_host) pair — both sides compute the
same id without ever sharing an object.

``run_echo_mesh(shards=N)`` returns a :class:`MeshResult` whose fields —
including merged latency percentiles (via :meth:`SummaryStats.merge` over
the per-host sample runs), per-host breakdowns, window count, and per-host
event counts — are bit-identical for every shard count. ``signature()``
drops only the ``shards`` field itself; its canonical JSON is what the
parity gates (tests, ``bench_sharded.py``, CI) compare byte-for-byte.
"""

from __future__ import annotations

from collections import deque
from dataclasses import asdict, dataclass
from itertools import repeat
from typing import Any, Dict, List, Optional, Union

from repro.harness.runner import (
    SERVER_CORE_BASE,
    _echo_handler,
    _echo_payload,
)
from repro.hw.calibration import Calibration, DEFAULT_CALIBRATION
from repro.hw.nic.config import NicHardConfig, NicSoftConfig
from repro.hw.platform import Machine, MachineConfig
from repro.hw.switch import ShardBoundary
from repro.rpc import RpcClient, RpcThreadedServer, ThreadingModel
from repro.sim import LatencyRecorder, Simulator, SummaryStats
from repro.sim.sharded import EGRESS_NEVER, canonical_json, run_sharded
from repro.sim.stats import _check_mode
from repro.stacks import DaggerStack
from repro.workloads.driver import LoadDriver, split_quota

#: Base for deterministic cross-host connection ids: far above anything
#: next_connection_id() hands out in-process, so explicit mesh ids can
#: never collide with locally allocated ones.
_MESH_CONNECTION_BASE = 1_000_000


def _mesh_connection_id(client_host: int, server_host: int, hosts: int) -> int:
    """Connection id for the (client_host -> server_host) pair.

    A pure function of the pair so both endpoints — built in different
    processes with no shared state — register the same id.
    """
    return _MESH_CONNECTION_BASE + client_host * hosts + server_host


def _client_address(host_id: int) -> str:
    return f"h{host_id}-c"


def _server_address(host_id: int) -> str:
    return f"h{host_id}-s"


def _flow_index(host_id: int, remote: int) -> int:
    """Dense [0, hosts-2] flow index for a remote host (skips ``host_id``)."""
    return remote - 1 if remote > host_id else remote


class MeshHost:
    """One host of the echo mesh: machine, client+server NICs, workload.

    Satisfies the :func:`repro.sim.sharded.run_sharded` host protocol:
    exposes ``sim``, ``boundary``, and ``finish()`` returning plain data.
    The closed-loop issue processes are spawned at construction, so the
    engine's first window finds the kick-off events already pending.
    """

    def __init__(
        self,
        host_id: int,
        hosts: int,
        nreq_per_host: int,
        window: int = 64,
        batch_size: int = 4,
        rpc_bytes: int = 48,
        service_ns: int = 0,
        warmup_ns: int = 20_000,
        tor_delay_ns: Optional[int] = None,
        seed: int = 1,
        mode: str = "exact",
        calibration: Calibration = DEFAULT_CALIBRATION,
    ):
        if hosts < 2:
            raise ValueError(f"a mesh needs at least 2 hosts, got {hosts}")
        if not 0 <= host_id < hosts:
            raise ValueError(f"host_id {host_id} out of range for {hosts} hosts")
        if nreq_per_host < 1:
            raise ValueError(f"nreq_per_host must be >= 1, got {nreq_per_host}")
        peers = [h for h in range(hosts) if h != host_id]
        if len(peers) > SERVER_CORE_BASE * 2:
            raise ValueError(
                f"{len(peers)} peer connections exceed the per-host thread "
                f"budget ({SERVER_CORE_BASE * 2})"
            )
        self.host_id = host_id
        self.hosts = hosts
        self.window = window
        self.rpc_bytes = rpc_bytes
        self.sim = Simulator()
        self.machine = Machine(self.sim, MachineConfig(), calibration,
                               seed=(seed << 4) + host_id)
        self.boundary = ShardBoundary(self.sim, calibration, host_id=host_id,
                                      delay_ns=tor_delay_ns)

        hard = NicHardConfig(num_flows=len(peers))
        self.client_stack = DaggerStack(
            self.machine, self.boundary, _client_address(host_id),
            hard=hard, soft=NicSoftConfig(batch_size=batch_size),
        )
        self.server_stack = DaggerStack(
            self.machine, self.boundary, _server_address(host_id),
            hard=hard, soft=NicSoftConfig(batch_size=batch_size),
        )

        self.server = RpcThreadedServer(self.sim, calibration,
                                        name=f"echo-h{host_id}")
        self.server.register_handler(
            "echo", _echo_handler(service_ns, response_bytes=rpc_bytes)
        )
        client_threads = self.machine.threads(len(peers), start_core=0)
        server_threads = self.machine.threads(len(peers),
                                              start_core=SERVER_CORE_BASE)
        self.clients: List[RpcClient] = []
        for remote in peers:
            flow = _flow_index(host_id, remote)
            # Server side of the connection *from* `remote`'s client.
            self.server.add_server_thread(
                self.server_stack.port(flow), server_threads[flow],
                model=ThreadingModel.DISPATCH,
            )
            self.server_stack.register_connection(
                _mesh_connection_id(remote, host_id, hosts), flow,
                _client_address(remote),
            )
            # Client side of our connection *to* `remote`'s server.
            outbound = _mesh_connection_id(host_id, remote, hosts)
            self.client_stack.register_connection(
                outbound, flow, _server_address(remote),
            )
            self.clients.append(
                RpcClient(self.client_stack.port(flow), client_threads[flow],
                          outbound)
            )
        self.server.start()

        self.recorder = LatencyRecorder(name=f"h{host_id}",
                                        warmup_ns=warmup_ns, mode=mode)
        self.service_ns = service_ns
        # No completion gate: the sharded engine runs every host to full
        # drain, which is exactly when all lanes have issued their quota and
        # every response has been polled.
        self.driver = LoadDriver(self.sim)
        self.quotas = split_quota(nreq_per_host, len(peers))
        self._issued = [0] * len(peers)
        self._payload = _echo_payload(rpc_bytes)
        recorder, driver = self.recorder, self.driver

        def on_complete(call):
            recorder.record(call.issued_at, call.completed_at)
            driver.complete()

        self._on_complete = on_complete
        for index, (client, quota) in enumerate(zip(self.clients,
                                                    self.quotas)):
            if quota:
                self.driver.closed_lane(client, window, repeat(index, quota),
                                        self._issue)

        # Adaptive-horizon support (repro.sim.sharded): the boundary tracks
        # per-address delivery counts, the delivery hook keeps per-client-
        # flow request arrival times, and _egress_bound turns those plus
        # the client/server counters into a conservative earliest-next-
        # egress estimate. A request arriving at the server cannot cause a
        # new cross-host send before service_ns has elapsed — that is the
        # ingress floor the coordinator stretches past.
        self._flow_deliveries: Dict[int, deque] = {r: deque() for r in peers}
        self._flow_answered = {r: 0 for r in peers}
        self.boundary.delivery_hook = self._on_delivery
        self.boundary.egress_bound_fn = self._egress_bound
        if service_ns > 0:
            self.boundary.ingress_floors[_server_address(host_id)] = service_ns

    def _issue(self, index: int, _intended: int):
        """Closed-loop ``issue`` for the lane of ``self.clients[index]``."""
        # Counted *before* submission: from here until the NIC puts the
        # request on the wire, the host must report "egress imminent".
        self._issued[index] += 1
        return self.clients[index].call_async(
            "echo", self._payload, self.rpc_bytes,
            callback=self._on_complete,
        )

    def _on_delivery(self, dst_address: str, packet: Any) -> None:
        """Boundary delivery hook: record per-flow request arrival times.

        Only requests (deliveries to the server address) matter for the
        serving bound; responses to the client address are covered by the
        delivered-vs-completed check in :meth:`_egress_bound`. The client
        flow a request belongs to is recovered from the packet's mesh
        connection id, which encodes the (client_host, server_host) pair.
        """
        if dst_address != _server_address(self.host_id):
            return
        client_host = ((packet.connection_id - _MESH_CONNECTION_BASE)
                       // self.hosts)
        self._flow_deliveries[client_host].append(self.sim.now)

    def _egress_bound(self):
        """Conservative earliest next cross-host send (adaptive horizons).

        Every cross-host send from this host is either a request (client
        NIC -> a peer's server address) or a response (server NIC -> a
        peer's client address), and ``boundary.sent_by_address`` counts the
        wire-level truth for both. The host claims a bound only for states
        it can prove from counters:

        - anything issued but not yet on the wire, or delivered but not yet
          completed, or a client that is free to issue -> no claim (None);
        - requests delivered but not yet answered on the wire -> the oldest
          unanswered delivery plus the handler's minimum service time.
          Responses leave in delivery order *within* a client flow (one
          FIFO dispatch lane per flow, identical minimum service time), so
          each flow's queue is trimmed by the per-flow response count and
          the bound is the min over flows of head-of-queue + service;
        - fully drained and every client blocked or done -> EGRESS_NEVER.

        Unsound claims are fail-stop (the engine's arrival check), and the
        mesh parity gates compare fixed vs adaptive byte-for-byte.
        """
        if self.client_stack.drops or self.server_stack.drops:
            return None  # drop accounting breaks the send-count algebra
        boundary = self.boundary
        sent = boundary.sent_by_address
        delivered = boundary.delivered_by_address
        peers = [h for h in range(self.hosts) if h != self.host_id]
        if sum(sent.get(_server_address(r), 0)
               for r in peers) < sum(self._issued):
            return None  # request(s) still inside the client TX pipeline
        if (delivered.get(_client_address(self.host_id), 0)
                > self.driver.completed):
            return None  # response mid-RX: completion may free a slot now
        for index, client in enumerate(self.clients):
            if (self._issued[index] < self.quotas[index]
                    and client.outstanding < self.window):
                return None  # free to issue immediately
        bound = None
        for remote in peers:
            answered = sent.get(_client_address(remote), 0)
            queue = self._flow_deliveries[remote]
            trimmed = self._flow_answered[remote]
            while trimmed < answered and queue:
                queue.popleft()
                trimmed += 1
            self._flow_answered[remote] = trimmed
            if queue:
                flow_bound = queue[0] + self.service_ns
                bound = (flow_bound if bound is None
                         else min(bound, flow_bound))
        if bound is not None:
            return bound
        return EGRESS_NEVER

    def finish(self) -> Dict[str, Any]:
        recorder = self.recorder
        data = {
            "host": self.host_id,
            "first_finish_ns": recorder.first_finish_ns,
            "last_finish_ns": recorder.last_finish_ns,
            "discarded": recorder.discarded,
            "issued": sum(self.quotas),
            "completed": self.driver.completed,
            "requests_handled": self.server.requests_handled,
            "drops": self.client_stack.drops + self.server_stack.drops,
            "packets_forwarded": self.boundary.packets_forwarded,
        }
        # Latency payload by mode: the raw sample list in exact mode (the
        # historical key, byte-for-byte), the sketch's plain-data record in
        # sketch mode. Either form crosses the worker-process boundary as
        # plain JSON-able data.
        if recorder.sketch is not None:
            data["sketch"] = recorder.sketch.to_record()
        else:
            data["samples"] = list(recorder.samples)
        return data


def build_mesh_host(host_id: int, **params: Any) -> MeshHost:
    """Builder entry point for :func:`repro.sim.sharded.run_sharded`."""
    return MeshHost(host_id=host_id, **params)


#: MeshResult fields that describe *how the engine ran*, not what the
#: simulation computed: excluded from the parity signature. ``windows``
#: moved here when adaptive horizons landed — the window count is engine
#: bookkeeping that legally differs between fixed and adaptive modes while
#: the simulated results stay byte-identical.
ENGINE_FIELDS = (
    "shards", "mode", "window_mode", "windows", "stretched_windows",
    "skipped_shard_rounds", "boundary_packets", "boundary_bytes",
)


@dataclass
class MeshResult:
    """Outcome of a mesh run; every field outside :data:`ENGINE_FIELDS`
    is identical for every shard count *and* window mode (that is the
    parity contract)."""

    hosts: int
    shards: int
    throughput_mrps: float
    p50_us: float
    p90_us: float
    p99_us: float
    mean_us: float
    count: int
    drops: int
    windows: int
    events_total: int
    events_per_host: List[int]
    per_host: List[dict]
    #: Latency-recording mode the hosts ran with ("exact" | "sketch").
    #: Defaulted so cached dicts from before ISSUE 8 still round-trip.
    mode: str = "exact"
    #: Horizon policy the engine ran ("fixed" | "adaptive") plus its
    #: window accounting — all signature-adjacent metadata, defaulted so
    #: cached dicts from before ISSUE 10 still round-trip.
    window_mode: str = "adaptive"
    stretched_windows: int = 0
    skipped_shard_rounds: int = 0
    boundary_packets: int = 0
    boundary_bytes: int = 0

    def signature(self) -> dict:
        """Everything the simulation computed, minus the engine metadata.

        ``shards``, ``mode``, ``window_mode``, and the window accounting
        are dropped: they label or describe the execution strategy, and
        the parity gates compare simulated results across strategies
        (sketch-mode percentiles legally differ from exact ones, but
        sketched shard counts must still agree with each other — lossless
        sketch merge guarantees it).
        """
        data = asdict(self)
        for field in ENGINE_FIELDS:
            del data[field]
        return data

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "MeshResult":
        return cls(**data)


def mesh_signature(result: Union[MeshResult, dict]) -> str:
    """Canonical-JSON signature of a mesh result (or its dict form).

    This is the byte string the A/B parity gates compare: identical bytes
    <=> the sharded/adaptive run reproduced the serial run exactly.
    """
    if isinstance(result, MeshResult):
        data = result.signature()
    else:
        data = {key: value for key, value in result.items()
                if key not in ENGINE_FIELDS}
    return canonical_json(data)


def run_echo_mesh(
    hosts: int = 4,
    shards: int = 1,
    nreq_per_host: int = 4000,
    window: int = 64,
    batch_size: int = 4,
    rpc_bytes: int = 48,
    service_ns: int = 0,
    warmup_ns: int = 20_000,
    tor_delay_ns: Optional[int] = None,
    seed: int = 1,
    mode: str = "exact",
    window_mode: str = "adaptive",
    record_boundary_log: bool = False,
    max_windows: Optional[int] = None,
) -> MeshResult:
    """Closed-loop full-mesh echo across ``hosts`` machines on ``shards``
    event-loop workers; see the module docstring for the parity contract.

    ``mode="sketch"`` records per-host latencies in quantile sketches
    (:mod:`repro.obs.sketch`): no host ships a sample list back, and the
    cross-host merge folds bucket maps instead of k-way-merging samples —
    O(1) memory per host no matter how large ``nreq_per_host`` gets.

    ``window_mode="adaptive"`` (default) lets the engine stretch
    conservative windows using the hosts' egress bounds; ``"fixed"`` grants
    the minimal ``T_min + lookahead`` every round. Simulated results are
    byte-identical across modes — only the window accounting differs.
    """
    _check_mode(mode)  # fail in the parent, not inside a worker process
    lookahead = (tor_delay_ns if tor_delay_ns is not None
                 else DEFAULT_CALIBRATION.tor_delay_ns)
    sharded = run_sharded(
        "repro.harness.mesh:build_mesh_host",
        hosts=hosts,
        params=dict(
            hosts=hosts,
            nreq_per_host=nreq_per_host,
            window=window,
            batch_size=batch_size,
            rpc_bytes=rpc_bytes,
            service_ns=service_ns,
            warmup_ns=warmup_ns,
            tor_delay_ns=tor_delay_ns,
            seed=seed,
            mode=mode,
        ),
        shards=shards,
        lookahead_ns=lookahead,
        window_mode=window_mode,
        record_boundary_log=record_boundary_log,
        max_windows=max_windows,
    )

    def host_stats(host: Dict[str, Any], *, keep: bool):
        """Per-host SummaryStats (or None when warmup ate every sample)."""
        if "sketch" in host:
            from repro.obs.sketch import QuantileSketch

            sketch = QuantileSketch.from_record(host["sketch"])
            return (SummaryStats.from_sketch(sketch) if sketch.count
                    else None)
        if not host["samples"]:
            return None
        return SummaryStats.from_samples(host["samples"], keep_samples=keep)

    parts = [stats for stats in
             (host_stats(host, keep=True) for host in sharded.per_host)
             if stats is not None]
    if not parts:
        raise ValueError(
            "no latency samples survived warmup — lower warmup_ns or raise "
            "nreq_per_host"
        )
    merged = SummaryStats.merge(parts)
    firsts = [host["first_finish_ns"] for host in sharded.per_host
              if host["first_finish_ns"] is not None]
    lasts = [host["last_finish_ns"] for host in sharded.per_host
             if host["last_finish_ns"] is not None]
    span_ns = max(lasts) - min(firsts)
    throughput_mrps = ((merged.count - 1) * 1e3 / span_ns
                       if merged.count >= 2 and span_ns > 0 else 0.0)

    per_host = []
    for index, host in enumerate(sharded.per_host):
        stats = host_stats(host, keep=False)
        per_host.append({
            "host": host["host"],
            "count": stats.count if stats else 0,
            "p50_us": stats.p50_us if stats else None,
            "p99_us": stats.p99_us if stats else None,
            "issued": host["issued"],
            "completed": host["completed"],
            "requests_handled": host["requests_handled"],
            "drops": host["drops"],
            "packets_forwarded": host["packets_forwarded"],
            "events": sharded.events_per_host[index],
        })

    return MeshResult(
        hosts=hosts,
        shards=shards,
        throughput_mrps=throughput_mrps,
        p50_us=merged.p50_us,
        p90_us=merged.p90_us,
        p99_us=merged.p99_us,
        mean_us=merged.mean_ns / 1000.0,
        count=merged.count,
        drops=sum(host["drops"] for host in sharded.per_host),
        windows=sharded.windows,
        events_total=sharded.events_total,
        events_per_host=list(sharded.events_per_host),
        per_host=per_host,
        mode=mode,
        window_mode=sharded.window_mode,
        stretched_windows=sharded.stretched_windows,
        skipped_shard_rounds=sharded.skipped_shard_rounds,
        boundary_packets=sharded.boundary_packets,
        boundary_bytes=sharded.boundary_bytes,
    )
