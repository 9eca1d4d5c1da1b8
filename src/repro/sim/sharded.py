"""Conservative-window parallel simulation: one event loop per host.

The single-core kernel plateaus around ~1.4M events/s (see
``BENCH_kernel.json``); the next order of magnitude comes from the physics
already in the model. Every cross-host packet must traverse the ToR switch,
which charges at least ``tor_delay_ns`` (0.3 us, Table 3 of the Dagger
paper) of wire time — so a host's events in the next ``tor_delay_ns`` of
simulated time can never be affected by what *other* hosts do during that
same span. That bound is the classic *lookahead* of conservative parallel
discrete-event simulation, and this module exploits it:

- every host owns a private :class:`~repro.sim.kernel.Simulator` plus a
  :class:`~repro.hw.switch.ShardBoundary` that captures cross-host egress
  instead of scheduling it;
- hosts are partitioned across *shards* (worker processes) with
  :func:`repro.hw.cluster.partition_hosts`;
- a coordinator repeatedly grants every host a horizon, each host runs
  :meth:`~repro.sim.kernel.Simulator.run_horizon` (strictly-before-``H``
  semantics), and captured egress is exchanged at the barrier.

**Fixed windows** grant the minimal safe horizon ``H = T_min + lookahead``
(``T_min`` = earliest pending event or undelivered boundary packet
anywhere). Why this is safe: any packet sent during a window starts at some
``t >= T_min`` and arrives at ``t + delay >= T_min + lookahead = H``, i.e.
never inside the window that produced it.

**Adaptive windows** (the default, ``window_mode="adaptive"``) grant the
*largest provably-safe* horizon instead. Alongside ``peek()``, each host
reports a conservative *earliest next egress* bound ``B_h`` (see
:meth:`repro.hw.switch.ShardBoundary.egress_bound`): assuming no further
injections, host ``h`` captures no cross-host send before ``B_h``. Each
undelivered boundary packet contributes ``arrival + floor(dst_address)``,
where the host-declared *ingress floor* bounds how quickly an arrival at
that address can cause a new cross-host send (e.g. a server's minimum
service time). The first cross-host send anywhere in the window is then no
earlier than::

    S = min( min_h B_h , min_pending (arrival + floor) )

(any causal chain's first cross-host hop is either injection-free — covered
by some ``B_h`` — or caused by a pending arrival — covered by its floor
term; later hops add at least one more ToR crossing). So every arrival the
window produces lands at ``>= S + lookahead``, and

    ``H = max(T_min, S) + lookahead``

is safe. When ``S`` is unbounded (every host proves it can never egress
again and nothing is in flight) the coordinator grants a *drain* window
(``run_horizon(None)``) that runs the remaining purely-local work to
completion in one round. Estimates are verified, not trusted: the
coordinator raises :class:`~repro.sim.kernel.SimulationError` for any
captured arrival that lands inside the window that produced it, so an
unsound ``egress_bound`` is fail-stop — it can never silently break
bit-identity. Hosts that report no estimate degrade to fixed-window
behavior exactly.

**Bit-identity** to serial is structural, not statistical: ``shards=1``
runs the *identical* windowed per-host algorithm in-process. Cross-shard
packets are injected with a canonical heap key derived from
``(arrival_ns, src_host, seq)`` (see ``Simulator.inject(seq_key=...)``), so
each host's event order is a pure function of the delivered packet set —
independent of window structure, shard layout, and injection batching.
That is what makes fixed and adaptive runs (and every shard count within a
mode) byte-identical: per-host results are shipped as canonical JSON (same
``sort_keys``/``separators`` contract as :mod:`repro.harness.sweep`), and
the mesh benchmarks gate on byte equality of those signatures.

**Boundary exchange** is batched: each worker pickles one buffer per
(window, destination shard) pair — live packets, one ``dumps`` — and the
coordinator relays the buffers without unpickling them (routing runs on a
small metadata list). The in-process ``shards=1`` runtime skips pickling
altogether and exchanges raw record lists. Shards whose hosts have nothing
to do before the horizon and no pending injections skip the pipe
round-trip entirely.
"""

from __future__ import annotations

import importlib
import json
import pickle
import traceback
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.sim.kernel import SimulationError
from repro.sim.stats import canonical_json

#: In-memory boundary record layout: ``(arrival_ns, src_host, seq,
#: dst_address, packet)``. ``(arrival_ns, src_host, seq)`` is the canonical
#: total order in which same-window arrivals commit; records travel between
#: shards inside one pickled buffer per (window, destination shard) pair.
BoundaryEvent = Tuple[int, int, int, str, Any]

#: ``egress_bound()`` sentinel: the host can prove it will never capture
#: another cross-host send unless a new boundary packet is injected.
EGRESS_NEVER = 1 << 62

#: Injected events tie-break below every locally-scheduled event (local
#: sequence numbers are >= 0) with a key that is a pure function of the
#: canonical (src_host, seq) identity — injection *batching* can then never
#: influence per-host event order.
_INJECT_BASE = -(1 << 62)
_SEQ_BITS = 40

_PROTO = pickle.HIGHEST_PROTOCOL


def _resolve(path: str) -> Callable[..., Any]:
    """Resolve a ``"module:attr"`` dotted path (sweep's convention)."""
    module_name, sep, attr = path.partition(":")
    if not sep or not module_name or not attr:
        raise ValueError(
            f"builder path must look like 'pkg.module:fn', got {path!r}"
        )
    module = importlib.import_module(module_name)
    try:
        return getattr(module, attr)
    except AttributeError:
        raise AttributeError(f"{module_name!r} has no attribute {attr!r}") from None


def _inject_key(src_host: int, seq: int) -> int:
    return _INJECT_BASE + (src_host << _SEQ_BITS) + seq


@dataclass
class ShardedResult:
    """Outcome of a sharded run, identical for every shard count.

    The simulation payload (``per_host``, ``events_per_host``,
    ``boundary_log``) is additionally identical across *window modes*; the
    window accounting (``windows``, ``stretched_windows``,
    ``skipped_shard_rounds``, ``boundary_*``) describes how the engine got
    there and legitimately differs between fixed and adaptive runs.
    """

    hosts: int
    shards: int
    lookahead_ns: int
    windows: int
    events_per_host: List[int]
    per_host: List[Any]
    #: Committed cross-shard deliveries as (arrival_ns, src_host, seq,
    #: dst_host) in commit order; only populated with record_boundary_log.
    boundary_log: Optional[List[Tuple[int, int, int, int]]] = field(default=None)
    #: "fixed" | "adaptive" — which horizon-granting policy ran.
    window_mode: str = "adaptive"
    #: Windows whose horizon was stretched past ``T_min + lookahead``
    #: (drain windows included).
    stretched_windows: int = 0
    #: Per-shard pipe round-trips elided because the shard provably had
    #: nothing to do before the horizon.
    skipped_shard_rounds: int = 0
    #: Cross-shard packets exchanged through the coordinator.
    boundary_packets: int = 0
    #: Bytes of pickled boundary buffers relayed through the coordinator.
    boundary_bytes: int = 0

    @property
    def events_total(self) -> int:
        return sum(self.events_per_host)


class _ShardRuntime:
    """Builds and drives the host simulators owned by one shard.

    Used verbatim by both execution modes — called directly in-process for
    ``shards=1``, or inside a worker process behind a pipe for
    ``shards>1`` — so the per-host work is the same code path either way.
    """

    def __init__(self, builder_path: str, host_ids: List[int],
                 params: Dict[str, Any], lookahead_ns: int,
                 local: bool = False):
        builder = _resolve(builder_path)
        self.hosts = {hid: builder(host_id=hid, **params) for hid in host_ids}
        self._address_to_host: Dict[str, int] = {}
        self._host_to_shard: List[int] = []
        #: In-process runtimes skip the pickle round-trip: buffers stay raw
        #: record lists (commit order and heap keys are unchanged either
        #: way, so the bytes-vs-list choice cannot affect results).
        self._local = local
        for hid, host in self.hosts.items():
            delay = host.boundary.delay_ns
            if delay < lookahead_ns:
                raise SimulationError(
                    f"host {hid} boundary delay {delay} ns is below the "
                    f"engine lookahead {lookahead_ns} ns — the conservative "
                    "window would miss its arrivals"
                )

    def hello(self):
        """Per-host addresses, peeks, egress bounds, and ingress floors."""
        addresses = {hid: host.boundary.addresses()
                     for hid, host in self.hosts.items()}
        peeks = {hid: host.sim.peek() for hid, host in self.hosts.items()}
        bounds = {hid: host.boundary.egress_bound()
                  for hid, host in self.hosts.items()}
        floors = {hid: dict(getattr(host.boundary, "ingress_floors", {}))
                  for hid, host in self.hosts.items()}
        return addresses, peeks, bounds, floors

    def set_peers(self, all_addresses, address_to_host, host_to_shard) -> None:
        for host in self.hosts.values():
            host.boundary.set_remote_addresses(all_addresses)
        self._address_to_host = dict(address_to_host)
        self._host_to_shard = list(host_to_shard)

    def window(self, horizon: Optional[int], blobs: List[bytes]):
        """Inject boundary arrivals, run one window, capture egress.

        ``blobs`` are pickled record buffers (one per source shard) whose
        records all target this shard's hosts. Returns
        ``(per_host, meta, out_blobs)`` where ``per_host`` maps host id to
        ``(next_event_time, egress_bound, events_dispatched)``, ``meta``
        lists captured egress as ``(arrival, src, seq, dst_host,
        dst_address)``, and ``out_blobs`` maps destination shard to one
        pickled buffer of captured records.
        """
        by_host: Dict[int, List[BoundaryEvent]] = {}
        for blob in blobs:
            records = blob if isinstance(blob, list) else pickle.loads(blob)
            for record in records:
                by_host.setdefault(
                    self._address_to_host[record[3]], []
                ).append(record)
        per_host = {}
        captured: List[BoundaryEvent] = []
        for hid in sorted(self.hosts):
            host = self.hosts[hid]
            sim = host.sim
            boundary = host.boundary
            batch = by_host.get(hid)
            if batch:
                # Canonical commit order, then a canonical heap key per
                # record: the destination's event order cannot depend on
                # which window delivered the batch.
                batch.sort(key=lambda record: record[:3])
                for arrival, src, seq, dst, packet in batch:
                    sim.inject(arrival, partial(boundary.deliver, dst, packet),
                               seq_key=_inject_key(src, seq))
            events = sim.run_horizon(horizon)
            captured.extend(boundary.drain_egress())
            per_host[hid] = (sim.peek(), boundary.egress_bound(), events)
        meta = []
        groups: Dict[int, List[BoundaryEvent]] = {}
        a2h = self._address_to_host
        for record in captured:
            try:
                dst_host = a2h[record[3]]
            except KeyError:
                raise SimulationError(
                    f"boundary packet for unknown address {record[3]!r} "
                    f"from host {record[1]}"
                ) from None
            meta.append((record[0], record[1], record[2], dst_host, record[3]))
            groups.setdefault(self._host_to_shard[dst_host], []).append(record)
        if self._local:
            out_blobs: Dict[int, Any] = groups
        else:
            out_blobs = {shard: pickle.dumps(records, protocol=_PROTO)
                         for shard, records in groups.items()}
        return per_host, meta, out_blobs

    def finish(self) -> Dict[int, str]:
        """Per-host results as canonical JSON strings.

        Hosts return plain JSON-able data from ``finish()``; shipping the
        canonical encoding (rather than live objects) guarantees the
        coordinator sees byte-identical payloads whether the host ran
        in-process or in a worker.
        """
        return {hid: canonical_json(host.finish())
                for hid, host in self.hosts.items()}


def _shard_worker(conn, builder_path: str, host_ids: List[int],
                  params: Dict[str, Any], lookahead_ns: int) -> None:
    """Worker process main loop: lockstep request/reply over one pipe."""
    try:
        runtime = _ShardRuntime(builder_path, host_ids, params, lookahead_ns)
        conn.send(("hello",) + runtime.hello())
        while True:
            message = conn.recv()
            kind = message[0]
            if kind == "peers":
                runtime.set_peers(message[1], message[2], message[3])
                conn.send(("ok",))
            elif kind == "window":
                conn.send(("window",) + runtime.window(message[1], message[2]))
            elif kind == "finish":
                conn.send(("finish", runtime.finish()))
                return
            else:  # pragma: no cover - protocol misuse
                raise ValueError(f"unknown message {kind!r}")
    except BaseException:
        try:
            conn.send(("error", traceback.format_exc()))
        except (BrokenPipeError, OSError):  # pragma: no cover
            pass
    finally:
        conn.close()


class _LocalShards:
    """In-process execution of every host (``shards=1``)."""

    def __init__(self, builder_path, host_ids, params, lookahead_ns):
        self.runtime = _ShardRuntime(builder_path, host_ids, params,
                                     lookahead_ns, local=True)
        self._reply = None

    def hello(self):
        return self.runtime.hello()

    def set_peers(self, all_addresses, address_to_host, host_to_shard):
        self.runtime.set_peers(all_addresses, address_to_host, host_to_shard)

    def send_window(self, horizon, blobs):
        self._reply = self.runtime.window(horizon, blobs)

    def recv_window(self):
        reply, self._reply = self._reply, None
        return reply

    def finish(self):
        return self.runtime.finish()

    def close_conn(self):
        pass

    def reap(self):
        pass

    def close(self):
        pass


class _RemoteShard:
    """A worker process driven over a duplex pipe."""

    def __init__(self, ctx, builder_path, host_ids, params, lookahead_ns):
        self.conn, child = ctx.Pipe(duplex=True)
        self.process = ctx.Process(
            target=_shard_worker,
            args=(child, builder_path, host_ids, params, lookahead_ns),
            daemon=True,
        )
        self.process.start()
        child.close()

    def _recv(self, expected: str):
        try:
            message = self.conn.recv()
        except EOFError:
            raise SimulationError(
                "shard worker died without reporting an error"
            ) from None
        if message[0] == "error":
            raise SimulationError(f"shard worker failed:\n{message[1]}")
        if message[0] != expected:  # pragma: no cover - protocol misuse
            raise SimulationError(
                f"expected {expected!r} reply, got {message[0]!r}"
            )
        return message[1:]

    def hello(self):
        return self._recv("hello")

    def set_peers(self, all_addresses, address_to_host, host_to_shard):
        self.conn.send(("peers", all_addresses, address_to_host,
                        host_to_shard))
        self._recv("ok")

    def send_window(self, horizon, blobs):
        self.conn.send(("window", horizon, blobs))

    def recv_window(self):
        return self._recv("window")

    def finish(self):
        self.conn.send(("finish",))
        return self._recv("finish")[0]

    def close_conn(self):
        """Phase 1 of teardown: EOF the pipe so the worker unblocks."""
        try:
            self.conn.close()
        except OSError:  # pragma: no cover
            pass

    def reap(self):
        """Phase 2 of teardown: join, escalating to terminate/kill."""
        self.process.join(timeout=2)
        if self.process.is_alive():  # pragma: no cover - hung worker
            self.process.terminate()
            self.process.join(timeout=2)
        if self.process.is_alive():  # pragma: no cover - unkillable worker
            kill = getattr(self.process, "kill", self.process.terminate)
            kill()
            self.process.join(timeout=2)

    def close(self):
        self.close_conn()
        self.reap()


def _close_handles(handles: List[Any]) -> None:
    """Tear every shard down, errors-path safe.

    Closing all pipes *first* delivers EOF to every worker at once (a
    worker blocked in ``recv`` exits immediately), then the joins run —
    so teardown latency is one worker's exit time, not the sum, and no
    daemon outlives the run even when the coordinator raised mid-window.
    """
    for handle in handles:
        handle.close_conn()
    for handle in handles:
        handle.reap()


def run_sharded(
    builder: str,
    hosts: int,
    params: Optional[Dict[str, Any]] = None,
    shards: int = 1,
    *,
    lookahead_ns: int,
    window_mode: str = "adaptive",
    record_boundary_log: bool = False,
    max_windows: Optional[int] = None,
) -> ShardedResult:
    """Run ``hosts`` per-host simulators to completion across ``shards``.

    ``builder`` is a ``"module:fn"`` path (the sweep executor's dotted-path
    convention, so workers can re-resolve it); it is called as
    ``builder(host_id=i, **params)`` and must return an object exposing
    ``sim`` (a :class:`~repro.sim.kernel.Simulator`), ``boundary`` (a
    :class:`~repro.hw.switch.ShardBoundary` or duck-type equivalent whose
    ``delay_ns`` is at least ``lookahead_ns``), and ``finish()`` returning
    plain JSON-able data.

    ``window_mode`` selects the horizon policy: ``"fixed"`` grants the
    minimal ``T_min + lookahead`` every round; ``"adaptive"`` (default)
    stretches to the largest provably-safe horizon using the hosts'
    ``egress_bound()`` estimates and ingress floors (see module docstring).
    Simulation results are bit-identical across modes *and* shard counts;
    only the window accounting differs.

    The run terminates when no host has pending events and no boundary
    packet is in flight.
    """
    # Imported lazily: repro.sim is the bottom layer and must stay
    # importable without pulling in the hardware models; only the engine
    # entry point needs the topology partitioner.
    from repro.hw.cluster import partition_hosts

    if window_mode not in ("fixed", "adaptive"):
        raise ValueError(
            f"window_mode must be 'fixed' or 'adaptive', got {window_mode!r}"
        )
    adaptive = window_mode == "adaptive"
    params = dict(params or {})
    assignment = partition_hosts(hosts, shards)
    host_to_shard = [0] * hosts
    for shard_index, host_ids in enumerate(assignment):
        for hid in host_ids:
            host_to_shard[hid] = shard_index
    handles: List[Any] = []
    try:
        if shards == 1:
            handles.append(
                _LocalShards(builder, assignment[0], params, lookahead_ns)
            )
        else:
            import multiprocessing  # only multi-shard runs need it

            ctx = multiprocessing.get_context(
                "fork" if "fork" in multiprocessing.get_all_start_methods()
                else None
            )
            for host_ids in assignment:
                handles.append(
                    _RemoteShard(ctx, builder, host_ids, params, lookahead_ns)
                )

        address_to_host: Dict[str, int] = {}
        next_times: Dict[int, Optional[int]] = {}
        bounds: Dict[int, Optional[int]] = {}
        floor_by_address: Dict[str, int] = {}
        all_addresses: List[str] = []
        for handle, host_ids in zip(handles, assignment):
            addresses, peeks, host_bounds, floors = handle.hello()
            for hid in host_ids:
                next_times[hid] = peeks[hid]
                bounds[hid] = host_bounds[hid]
                for address in addresses[hid]:
                    if address in address_to_host:
                        raise SimulationError(
                            f"address {address!r} registered on hosts "
                            f"{address_to_host[address]} and {hid}"
                        )
                    address_to_host[address] = hid
                    all_addresses.append(address)
                for address, floor in floors[hid].items():
                    floor_by_address[address] = floor
        for handle in handles:
            handle.set_peers(sorted(all_addresses), address_to_host,
                             host_to_shard)

        # Undelivered boundary traffic, grouped by destination shard:
        # routing metadata (arrival, src, seq, dst_host, dst_address) next
        # to the opaque pickled buffers the coordinator relays untouched.
        pending_meta: Dict[int, List[Tuple[int, int, int, int, str]]] = {
            index: [] for index in range(len(handles))
        }
        pending_blobs: Dict[int, List[bytes]] = {
            index: [] for index in range(len(handles))
        }
        events_per_host = {hid: 0 for hid in range(hosts)}
        windows = 0
        stretched_windows = 0
        skipped_shard_rounds = 0
        boundary_packets = 0
        boundary_bytes = 0
        boundary_log: Optional[List[Tuple[int, int, int, int]]] = (
            [] if record_boundary_log else None
        )
        while True:
            candidates = [t for t in next_times.values() if t is not None]
            for records in pending_meta.values():
                candidates.extend(record[0] for record in records)
            if not candidates:
                break
            if max_windows is not None and windows >= max_windows:
                raise SimulationError(
                    f"exceeded max_windows={max_windows} (windows={windows}, "
                    f"pending={sum(map(len, pending_meta.values()))})"
                )
            t_min = min(candidates)
            base_horizon = t_min + lookahead_ns
            horizon: Optional[int] = base_horizon
            if adaptive:
                # Earliest provably-possible cross-host send anywhere: the
                # hosts' injection-free bounds, floored at peek() when a
                # host makes no claim, plus one floor term per in-flight
                # arrival. See the module docstring for the safety proof.
                earliest_send = EGRESS_NEVER
                for hid in range(hosts):
                    bound = bounds[hid]
                    if bound is None:
                        bound = next_times[hid]
                        if bound is None:
                            continue  # no events, no claim: ingress-only
                    if bound < earliest_send:
                        earliest_send = bound
                for records in pending_meta.values():
                    for record in records:
                        term = record[0] + floor_by_address.get(record[4], 0)
                        if term < earliest_send:
                            earliest_send = term
                if earliest_send >= EGRESS_NEVER:
                    horizon = None  # drain: no host can ever egress again
                    stretched_windows += 1
                elif earliest_send > t_min:
                    horizon = earliest_send + lookahead_ns
                    stretched_windows += 1

            active: List[Tuple[int, Any, List[int]]] = []
            for shard_index, (handle, host_ids) in enumerate(
                    zip(handles, assignment)):
                shard_min: Optional[int] = None
                for hid in host_ids:
                    peek = next_times[hid]
                    if peek is not None and (shard_min is None
                                             or peek < shard_min):
                        shard_min = peek
                for record in pending_meta[shard_index]:
                    if shard_min is None or record[0] < shard_min:
                        shard_min = record[0]
                if shard_min is None or (horizon is not None
                                         and shard_min >= horizon):
                    # Nothing this shard could do before the horizon and no
                    # injections due: elide the round-trip. Its pending
                    # buffers (all at >= horizon) stay queued.
                    skipped_shard_rounds += 1
                    continue
                blobs = pending_blobs[shard_index]
                boundary_packets += len(pending_meta[shard_index])
                # In-process buffers are raw record lists (no pickle pass),
                # so only real byte buffers count toward bytes-exchanged.
                boundary_bytes += sum(len(blob) for blob in blobs
                                      if isinstance(blob, bytes))
                pending_meta[shard_index] = []
                pending_blobs[shard_index] = []
                handle.send_window(horizon, blobs)
                active.append((shard_index, handle, host_ids))
            committed: List[Tuple[int, int, int, int]] = []
            for shard_index, handle, host_ids in active:
                per_host, meta, out_blobs = handle.recv_window()
                for hid, (next_time, bound, events) in per_host.items():
                    next_times[hid] = next_time
                    bounds[hid] = bound
                    events_per_host[hid] += events
                for record in meta:
                    if horizon is None or record[0] < horizon:
                        raise SimulationError(
                            f"host {record[1]} violated its egress bound: "
                            f"captured arrival {record[0]} inside the "
                            f"granted window (horizon="
                            f"{'drain' if horizon is None else horizon})"
                        )
                    dst_shard = host_to_shard[record[3]]
                    pending_meta[dst_shard].append(record)
                    if boundary_log is not None:
                        committed.append(record[:4])
                for dst_shard, blob in out_blobs.items():
                    pending_blobs[dst_shard].append(blob)
            if boundary_log is not None and committed:
                boundary_log.extend(sorted(committed))
            windows += 1

        results: Dict[int, str] = {}
        for handle in handles:
            results.update(handle.finish())
        per_host = [json.loads(results[hid]) for hid in range(hosts)]
    finally:
        _close_handles(handles)
    return ShardedResult(
        hosts=hosts,
        shards=shards,
        lookahead_ns=lookahead_ns,
        windows=windows,
        events_per_host=[events_per_host[hid] for hid in range(hosts)],
        per_host=per_host,
        boundary_log=boundary_log,
        window_mode=window_mode,
        stretched_windows=stretched_windows,
        skipped_shard_rounds=skipped_shard_rounds,
        boundary_packets=boundary_packets,
        boundary_bytes=boundary_bytes,
    )
