"""ToR switch model with a static switching table (Fig 14).

The paper connects NIC instances through a simple model of a top-of-rack
switch with pre-defined static L2 switching. Here each NIC registers its
address with an ingress callback; ``send`` forwards a packet after the
configured ToR delay (0.3 us by default, as assumed in Table 3) or the
loopback delay when source and destination share the FPGA.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

from repro.hw.calibration import Calibration
from repro.sim.kernel import Simulator


class UnknownDestinationError(KeyError):
    """Raised when a packet targets an address missing from the table."""


class ToRSwitch:
    """Static-table L2 switch."""

    def __init__(
        self,
        sim: Simulator,
        calibration: Calibration,
        loopback: bool = False,
        delay_ns: Optional[int] = None,
    ):
        self.sim = sim
        self.calibration = calibration
        if delay_ns is not None:
            self.delay_ns = delay_ns
        elif loopback:
            self.delay_ns = calibration.loopback_delay_ns
        else:
            self.delay_ns = calibration.tor_delay_ns
        self._table: Dict[str, Callable[[Any], None]] = {}
        self.packets_forwarded = 0
        #: Optional wire-fault injector (see :mod:`repro.chaos`): an object
        #: whose ``on_wire(dst_address, packet)`` returns the deliveries a
        #: crossing produces as ``[(packet, extra_delay_ns), ...]`` — empty
        #: for a loss, two entries for a duplication. None = perfect wire.
        self.wire_faults = None
        self.packets_dropped = 0

    def register(self, address: str, ingress: Callable[[Any], None]) -> None:
        """Add a static table entry: address -> NIC ingress function."""
        if address in self._table:
            raise ValueError(f"address {address!r} already registered")
        self._table[address] = ingress

    def addresses(self):
        return sorted(self._table)

    def send(self, dst_address: str, packet: Any) -> None:
        """Forward ``packet`` to ``dst_address`` after the switch delay.

        The destination's ingress is called through
        :meth:`~repro.sim.kernel.Simulator.call_after`. Chaos verdict
        accounting: ``packets_dropped`` on a loss verdict, one scheduled
        delivery per surviving copy, each after the switch delay plus the
        copy's extra delay.
        """
        try:
            ingress = self._table[dst_address]
        except KeyError:
            raise UnknownDestinationError(dst_address) from None
        self.packets_forwarded += 1
        if self.wire_faults is not None:
            deliveries = self.wire_faults.on_wire(dst_address, packet)
            if not deliveries:
                self.packets_dropped += 1
                return
            for copy, extra_ns in deliveries:
                self.sim.call_after(self.delay_ns + extra_ns, ingress, copy)
            return
        self.sim.call_after(self.delay_ns, ingress, packet)


class ShardBoundary(ToRSwitch):
    """A host's view of the ToR at a shard boundary (sharded simulation).

    In :mod:`repro.sim.sharded` every host owns a private
    :class:`~repro.sim.kernel.Simulator`, so the rack's single ToR object is
    replaced by one ``ShardBoundary`` per host: local destinations (same
    host) are delivered through the ordinary :meth:`ToRSwitch.send`
    path, while packets for remote hosts are *captured* as timestamped
    egress records instead of being scheduled directly. The sharded engine
    drains the captures at each conservative-window barrier and injects them
    into the destination host's simulator in the canonical
    ``(arrival_ns, src_host, seq)`` order.

    The capture stamps ``arrival = now + delay_ns`` — the full ToR crossing
    is charged at the source, which is exactly what makes ``delay_ns`` the
    engine's lookahead. Cross-shard wire faults are not supported (the chaos
    injector's RNG is single-stream and would break shard independence);
    ``wire_faults`` may only be used for host-local traffic.

    Adaptive-horizon support (see :mod:`repro.sim.sharded`): the boundary
    keeps per-address send/delivery counters and, when
    ``track_delivery_times`` is set, the timestamps of injected arrivals —
    the raw material a host model needs to compute a *conservative earliest
    next egress* bound. The host plugs its estimator into
    ``egress_bound_fn``; :meth:`egress_bound` is what the engine polls
    alongside ``peek()``. ``ingress_floors`` declares, per local address, a
    lower bound on the delay between an injected arrival at that address
    and any cross-host send it can cause (e.g. a server's minimum service
    time) — the coordinator uses it to stretch horizons past in-flight
    arrivals. All of it is opt-in: with no estimator and no floors the
    engine behaves exactly like the fixed-window protocol.
    """

    def __init__(
        self,
        sim: Simulator,
        calibration: Calibration,
        host_id: int = 0,
        delay_ns: Optional[int] = None,
    ):
        super().__init__(sim, calibration, delay_ns=delay_ns)
        self.host_id = host_id
        self._remote: set = set()
        self._egress: list = []
        self._egress_seq = 0
        #: Captured cross-host sends per destination address (wire-level
        #: truth: incremented only when the packet is actually captured).
        self.sent_by_address: Dict[str, int] = {}
        #: Injected cross-shard arrivals per local address.
        self.delivered_by_address: Dict[str, int] = {}
        #: When True, :meth:`deliver` appends ``sim.now`` per address to
        #: :attr:`delivery_times` (host estimators may trim the lists).
        self.track_delivery_times = False
        self.delivery_times: Dict[str, list] = {}
        #: Host-declared conservative estimator; returns an absolute ns
        #: lower bound on the next cross-host send assuming no further
        #: injections, or None to make no claim.
        self.egress_bound_fn: Optional[Callable[[], Optional[int]]] = None
        #: Optional ``(dst_address, packet)`` callback fired for every
        #: injected arrival before it reaches the local ingress. Host
        #: models that need more than per-address counts (e.g. per-flow
        #: delivery order keyed on a connection id) hang their tracking
        #: here instead of wrapping the ingress table.
        self.delivery_hook: Optional[Callable[[str, Any], None]] = None
        #: Per-local-address ingress-to-egress floors (ns), see class doc.
        self.ingress_floors: Dict[str, int] = {}
        self.packets_delivered = 0

    def set_remote_addresses(self, addresses) -> None:
        """Install the set of addresses served by other shards."""
        self._remote = set(addresses) - set(self._table)

    def send(self, dst_address: str, packet: Any) -> None:
        if dst_address in self._table:
            super().send(dst_address, packet)
            return
        if dst_address not in self._remote:
            raise UnknownDestinationError(dst_address)
        self.packets_forwarded += 1
        self.sent_by_address[dst_address] = (
            self.sent_by_address.get(dst_address, 0) + 1
        )
        self._egress.append(
            (self.sim.now + self.delay_ns, self.host_id, self._egress_seq,
             dst_address, packet)
        )
        self._egress_seq += 1

    def drain_egress(self) -> list:
        """Take the captured ``(arrival, src_host, seq, dst, packet)`` records."""
        egress, self._egress = self._egress, []
        return egress

    def deliver(self, dst_address: str, packet: Any) -> None:
        """Hand an injected cross-shard packet to the local ingress (at ``now``)."""
        self.packets_delivered += 1
        self.delivered_by_address[dst_address] = (
            self.delivered_by_address.get(dst_address, 0) + 1
        )
        if self.track_delivery_times:
            self.delivery_times.setdefault(dst_address, []).append(self.sim.now)
        if self.delivery_hook is not None:
            self.delivery_hook(dst_address, packet)
        self._table[dst_address](packet)

    def egress_bound(self) -> Optional[int]:
        """Conservative earliest-next-egress estimate, or None for no claim.

        The contract the adaptive coordinator relies on: *assuming no
        further cross-shard injections*, this host will not capture another
        cross-host send strictly before ``max(bound, sim.now)``. Hosts that
        cannot egress at all without new ingress return
        :data:`repro.sim.sharded.EGRESS_NEVER`. Unsound estimates are
        fail-stop, not silent: the coordinator raises ``SimulationError``
        on any captured arrival that lands inside the granted window.
        """
        if self.egress_bound_fn is None:
            return None
        return self.egress_bound_fn()

    def timeline_probes(self):
        """Boundary counters for timeline collectors (probe protocol)."""
        return [
            ("packets_forwarded", "counter", lambda: self.packets_forwarded),
            ("packets_delivered", "counter", lambda: self.packets_delivered),
            ("egress_captured", "counter", lambda: self._egress_seq),
        ]
