"""Regression + recovery tests for the transport bugs chaos flushed out.

Three fixed bugs, each pinned by a failing-before/passing-after test:

- ``on_delivered`` crashed with a ``KeyError`` when the *first* packet
  from a peer arrived out of order (no ``_delivered`` entry yet);
- duplicate arrivals (retransmit races, wire duplication) were delivered
  to the host ring again — now the NIC suppresses them pre-ring and the
  verdict comes back as ``on_delivered``'s return value;
- NACK retransmission re-enqueued the *same* ``RpcPacket`` object, so an
  in-flight alias and its retransmission corrupted each other's
  timestamps — retransmissions now send ``clone()``s.

Plus the new recovery machinery: sender RTO, SKIP hole-closing, stale
NACK accounting, the wire-arrival gap NACK (fast retransmit), cumulative
credit-grant reconciliation, and the credit-stall watchdog.
"""

from types import SimpleNamespace

from repro.rpc.congestion import CreditFlowControl
from repro.rpc.messages import RpcKind, RpcPacket
from repro.rpc.transport import (
    ACK_METHOD,
    NACK_METHOD,
    SKIP_METHOD,
    ReliableTransport,
)
from repro.sim import Simulator


class FakeNic:
    """Just enough NIC for the transport unit: address + egress capture.

    No ``sim`` attribute — the transport's RTO and delayed-ACK timers
    must detect that and stay off, so these tests drive every transition
    by hand.
    """

    def __init__(self):
        self.address = "a"
        self.hard = SimpleNamespace(num_flows=1)
        self.sent = []

    def enqueue_egress(self, flow_id, packet):
        self.sent.append((flow_id, packet))


class SimNic(FakeNic):
    """FakeNic plus a kernel, for the timer-driven paths."""

    def __init__(self, sim):
        super().__init__()
        self.sim = sim


def data_packet(conn=1, src="b", seq=None):
    packet = RpcPacket(RpcKind.REQUEST, conn, "m", b"", 48, src_address=src,
                       dst_address="a")
    packet.seq = seq
    return packet


def controls(nic, method):
    return [p for _, p in nic.sent
            if p.kind is RpcKind.CONTROL and p.method == method]


# -- KeyError regression (satellite 1) --------------------------------------


def test_first_delivery_out_of_order_does_not_crash():
    """Before the fix: first packet from a peer with seq > 0 (reordered
    ahead of seq 0) hit ``self._delivered[key]`` with no entry."""
    transport = ReliableTransport(FakeNic(), ack_interval=2)
    assert transport.on_delivered(data_packet(seq=1)) is True
    assert transport._out_of_order[(1, "b")] == {1}
    assert transport.on_delivered(data_packet(seq=0)) is True
    assert transport._delivered[(1, "b")] == 1


def test_first_deliveries_from_many_peers():
    transport = ReliableTransport(FakeNic(), ack_interval=2)
    for src in ("b", "c", "d"):
        assert transport.on_delivered(data_packet(src=src, seq=2)) is True
    assert transport.stats.duplicates_dropped == 0


# -- duplicate suppression (satellite 2) -------------------------------------


def test_duplicate_is_suppressed_and_reacked():
    transport = ReliableTransport(FakeNic(), ack_interval=32)
    assert transport.on_delivered(data_packet(seq=0)) is True
    assert transport.on_delivered(data_packet(seq=0)) is False
    assert transport.stats.duplicates_dropped == 1
    # The duplicate means the sender missed our ACK coverage: re-ACK
    # immediately so its buffer frees without waiting for the RTO.
    acks = controls(transport.nic, ACK_METHOD)
    assert len(acks) == 1 and acks[0].payload == 0


def test_duplicate_of_pending_out_of_order_packet_is_suppressed():
    transport = ReliableTransport(FakeNic(), ack_interval=32)
    assert transport.on_delivered(data_packet(seq=3)) is True
    assert transport.on_delivered(data_packet(seq=3)) is False
    assert transport.stats.duplicates_dropped == 1
    # Nothing contiguous delivered yet: no ACK to re-send.
    assert controls(transport.nic, ACK_METHOD) == []


def test_fresh_packets_are_never_flagged_duplicate():
    transport = ReliableTransport(FakeNic(), ack_interval=4)
    for seq in (0, 2, 1, 3):
        assert transport.on_delivered(data_packet(seq=seq)) is True
    assert transport.stats.duplicates_dropped == 0
    assert transport._delivered[(1, "b")] == 3


# -- clone-on-retransmit (satellite 3) ---------------------------------------


def test_nack_retransmits_a_clone_not_the_buffered_alias():
    transport = ReliableTransport(FakeNic(), ack_interval=4)
    packet = RpcPacket(RpcKind.REQUEST, 1, "m", b"", 48, src_address="a",
                       dst_address="b")
    transport.on_egress(packet)
    transport._handle_nack(1, 0)
    _, resent = transport.nic.sent[-1]
    assert resent is not packet  # the aliasing bug
    assert resent.seq == packet.seq
    assert resent.rpc_id == packet.rpc_id


# -- stale NACKs -------------------------------------------------------------


def test_nack_behind_cumulative_ack_is_stale_not_lost():
    transport = ReliableTransport(FakeNic(), ack_interval=4)
    for _ in range(4):
        transport.on_egress(
            RpcPacket(RpcKind.REQUEST, 1, "m", b"", 48, src_address="a",
                      dst_address="b"))
    transport._handle_ack(1, 2)
    transport._handle_nack(1, 1)  # a dropped stray duplicate, already ACKed
    assert transport.stats.stale_nacks == 1
    assert transport.stats.retransmissions == 0
    assert transport.stats.lost_unrecoverable == 0


def test_nack_for_given_up_seq_is_stale_not_double_counted():
    transport = ReliableTransport(FakeNic(), ack_interval=4, max_retries=1)
    transport.on_egress(
        RpcPacket(RpcKind.REQUEST, 1, "m", b"", 48, src_address="a",
                  dst_address="b"))
    transport._handle_nack(1, 0)  # retry 1
    transport._handle_nack(1, 0)  # exhausts max_retries: given up
    assert transport.stats.lost_unrecoverable == 1
    transport._handle_nack(1, 0)  # late NACK for the abandoned seq
    assert transport.stats.stale_nacks == 1
    assert transport.stats.lost_unrecoverable == 1  # not counted again


# -- SKIP: closing the hole left by a given-up packet ------------------------


def test_give_up_emits_skip_and_receiver_closes_the_hole():
    sender = ReliableTransport(FakeNic(), ack_interval=4, max_retries=1)
    sender.on_egress(
        RpcPacket(RpcKind.REQUEST, 1, "m", b"", 48, src_address="a",
                  dst_address="b"))
    sender._handle_nack(1, 0)
    sender._handle_nack(1, 0)  # give up -> SKIP
    skips = controls(sender.nic, SKIP_METHOD)
    assert sender.stats.skips_sent == 1
    assert len(skips) == 1 and skips[0].payload == 0

    receiver = ReliableTransport(FakeNic(), ack_interval=32)
    skip = skips[0].clone()
    skip.src_address, skip.dst_address = "a", "b"
    receiver.on_control(skip)
    # The abandoned seq counts as delivered, so later seqs cascade and the
    # immediate ACK lets the sender free anything stalled behind the hole.
    assert receiver._delivered[(1, "a")] == 0
    assert controls(receiver.nic, ACK_METHOD)[0].payload == 0
    nxt = data_packet(src="a", seq=1)
    assert receiver.on_delivered(nxt) is True
    assert receiver._delivered[(1, "a")] == 1


def test_skip_ahead_of_the_hole_parks_until_the_gap_fills():
    receiver = ReliableTransport(FakeNic(), ack_interval=32)
    assert receiver.on_delivered(data_packet(seq=0)) is True
    skip = RpcPacket(RpcKind.CONTROL, 1, SKIP_METHOD, 3, 16,
                     src_address="b", dst_address="a")
    receiver.on_control(skip)
    assert receiver._delivered[(1, "b")] == 0  # hole at 1-2 still open
    assert receiver.on_delivered(data_packet(seq=1)) is True
    assert receiver.on_delivered(data_packet(seq=2)) is True
    assert receiver._delivered[(1, "b")] == 3  # cascaded through the skip


# -- gap NACK at wire arrival (fast retransmit) ------------------------------


def nacked(nic):
    return [p.payload for p in controls(nic, NACK_METHOD)]


def test_wire_gap_nacks_every_skipped_seq_once():
    transport = ReliableTransport(FakeNic())
    transport.on_arrival(data_packet(seq=0))
    transport.on_arrival(data_packet(seq=3))
    assert nacked(transport.nic) == [1, 2]
    # The NACKs go back to the sender of the gapped connection.
    for packet in controls(transport.nic, NACK_METHOD):
        assert packet.connection_id == 1 and packet.dst_address == "b"
    for seq in (2, 3, 4):  # late, duplicate, next in line: no NACK
        transport.on_arrival(data_packet(seq=seq))
    assert nacked(transport.nic) == [1, 2]
    assert transport.stats.nacks_sent == 2


def test_gap_watermark_is_per_connection_and_peer():
    transport = ReliableTransport(FakeNic())
    transport.on_arrival(data_packet(conn=1, src="b", seq=0))
    transport.on_arrival(data_packet(conn=2, src="b", seq=0))
    transport.on_arrival(data_packet(conn=1, src="c", seq=0))
    assert nacked(transport.nic) == []


def test_receiver_drop_after_arrival_is_nacked_once():
    """An arrived-then-dropped seq belongs to ``on_receiver_drop`` only."""
    transport = ReliableTransport(FakeNic())
    transport.on_arrival(data_packet(seq=0))
    dropped = data_packet(seq=1)
    transport.on_arrival(dropped)
    transport.on_receiver_drop(dropped)  # flow FIFO or host RX ring full
    transport.on_arrival(data_packet(seq=2))
    assert nacked(transport.nic) == [1]
    assert transport.stats.nacks_sent == 1


def test_control_packets_do_not_move_the_watermark():
    transport = ReliableTransport(FakeNic())
    transport.on_arrival(RpcPacket(RpcKind.CONTROL, 1, ACK_METHOD, 5, 16,
                                   src_address="b", dst_address="a"))
    transport.on_arrival(data_packet(seq=0))
    assert nacked(transport.nic) == []


# -- retransmission timeout --------------------------------------------------


def test_rto_retransmits_then_gives_up_without_any_nack():
    sim = Simulator()
    transport = ReliableTransport(SimNic(sim), ack_interval=4,
                                  max_retries=2, rto_ns=1_000)
    transport.on_egress(
        RpcPacket(RpcKind.REQUEST, 1, "m", b"", 48, src_address="a",
                  dst_address="b"))
    sim.run()  # terminates: RTO probes are capped by max_retries
    assert transport.stats.timeout_retransmissions == 2
    assert transport.stats.retransmissions == 2
    assert transport.stats.lost_unrecoverable == 1
    assert transport.unacked == 0
    assert len(controls(transport.nic, SKIP_METHOD)) == 1


def test_ack_before_rto_means_no_timeout_probe():
    sim = Simulator()
    transport = ReliableTransport(SimNic(sim), ack_interval=4,
                                  rto_ns=1_000)
    transport.on_egress(
        RpcPacket(RpcKind.REQUEST, 1, "m", b"", 48, src_address="a",
                  dst_address="b"))
    transport._handle_ack(1, 0)
    sim.run()
    assert transport.stats.timeout_retransmissions == 0
    assert transport._sent_at == {}


def test_rto_disabled_with_none():
    sim = Simulator()
    transport = ReliableTransport(SimNic(sim), ack_interval=4, rto_ns=None)
    transport.on_egress(
        RpcPacket(RpcKind.REQUEST, 1, "m", b"", 48, src_address="a",
                  dst_address="b"))
    sim.run()
    assert transport.stats.retransmissions == 0
    assert transport.unacked == 1  # parked forever; nothing probes it


# -- delayed flush ACK -------------------------------------------------------


def test_short_tail_gets_flush_acked_before_any_rto():
    sim = Simulator()
    transport = ReliableTransport(SimNic(sim), ack_interval=32,
                                  ack_flush_ns=500)
    for seq in range(3):  # far below ack_interval
        assert transport.on_delivered(data_packet(seq=seq)) is True
    sim.run()
    acks = controls(transport.nic, ACK_METHOD)
    assert len(acks) == 1 and acks[0].payload == 2
    assert transport.stats.acks_sent == 1


# -- credit reconciliation (cumulative grants) -------------------------------


def grant(conn, consumed):
    from repro.rpc.congestion import CREDIT_METHOD
    return RpcPacket(RpcKind.CONTROL, conn, CREDIT_METHOD, consumed, 16,
                     src_address="b", dst_address="a")


def spend_all(fc, count, conn=1):
    for _ in range(count):
        assert fc.try_acquire(
            RpcPacket(RpcKind.REQUEST, conn, "m", b"", 48)) is True


def test_later_cumulative_grant_covers_a_lost_one():
    sim = Simulator()
    fc = CreditFlowControl(SimNic(sim), initial_credits=4, credit_batch=2)
    spend_all(fc, 4)
    assert fc.available_credits(1) == 0
    # Grant for consumed=2 was lost on the wire; the next one (consumed=3)
    # supersedes it and restores the full window.
    fc.on_control(grant(1, 3))
    assert fc.available_credits(1) == 3
    assert fc.stats.stale_grants == 0


def test_stale_or_reordered_grant_is_ignored():
    sim = Simulator()
    fc = CreditFlowControl(SimNic(sim), initial_credits=4, credit_batch=2)
    spend_all(fc, 4)
    fc.on_control(grant(1, 3))
    fc.on_control(grant(1, 2))  # reordered behind the one above
    assert fc.stats.stale_grants == 1
    assert fc.available_credits(1) == 3


def test_reconciliation_drains_watchdog_overinjection():
    sim = Simulator()
    fc = CreditFlowControl(SimNic(sim), initial_credits=4, credit_batch=2)
    spend_all(fc, 4)
    tokens = fc._tokens(1)
    tokens.try_put(1)  # what a stall-watchdog repair would inject
    tokens.try_put(1)
    fc.on_control(grant(1, 1))  # target = 4 + 1 - 4 = 1
    assert fc.available_credits(1) == 1


def test_retransmissions_ride_free_of_credits():
    sim = Simulator()
    fc = CreditFlowControl(SimNic(sim), initial_credits=1, credit_batch=2)
    spend_all(fc, 1)
    retransmit = RpcPacket(RpcKind.REQUEST, 1, "m", b"", 48)
    retransmit.seq = 0  # already charged on first transmission
    assert fc.try_acquire(retransmit) is True
    assert fc.available_credits(1) == 0  # and charged no token


def test_stall_watchdog_self_heals_a_lost_grant():
    sim = Simulator()
    fc = CreditFlowControl(SimNic(sim), initial_credits=1, credit_batch=2,
                           grant_timeout_ns=1_000)
    done = []

    def sender():
        yield from fc.acquire(RpcPacket(RpcKind.REQUEST, 1, "m", b"", 48))
        # Second acquire stalls (no grant will ever arrive); the watchdog
        # must inject a token after grant_timeout_ns instead of deadlock.
        yield from fc.acquire(RpcPacket(RpcKind.REQUEST, 1, "m", b"", 48))
        done.append(sim.now)

    sim.spawn(sender())
    sim.run()
    assert done and done[0] >= 1_000
    assert fc.stats.credit_repairs == 1
    assert fc.stats.stalls == 1
