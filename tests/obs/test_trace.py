"""Unit tests for the span tracer (repro.obs.trace)."""

from repro.obs import CANONICAL_POINTS, SpanTracer, attach_tracer, packet_point
from repro.rpc.client import RpcClient
from repro.rpc.messages import RpcKind, RpcPacket
from repro.rpc.server import RpcServerThread
from repro.hw.interconnect.base import CpuNicInterface
from repro.hw.nic.dagger_nic import DaggerNic


def test_record_builds_spans_in_rpc_id_order():
    tracer = SpanTracer()
    tracer.record(7, "req_issue", 100)
    tracer.record(3, "req_issue", 50)
    tracer.record(3, "resp_complete", 950)
    assert len(tracer) == 2
    assert [s.rpc_id for s in tracer.spans()] == [3, 7]
    span = tracer.span(3)
    assert span.complete
    assert span.e2e_ns == 900
    assert not tracer.span(7).complete
    assert tracer.span(7).e2e_ns is None


def test_first_timestamp_wins_over_a_retransmit():
    tracer = SpanTracer()
    tracer.record(1, "req_wire_tx", 200)
    tracer.record(1, "req_wire_tx", 900)  # retransmit
    assert tracer.span(1).events["req_wire_tx"] == 200


def test_packet_point_qualifies_direction():
    req = RpcPacket(RpcKind.REQUEST, 1, "m", b"", 48)
    resp = req.make_response(b"", 48)
    assert packet_point(req, "wire_tx") == "req_wire_tx"
    assert packet_point(resp, "wire_tx") == "resp_wire_tx"


def test_record_packet_skips_control_packets():
    tracer = SpanTracer()
    control = RpcPacket(RpcKind.CONTROL, 1, "__ack__", 0, 16)
    tracer.record_packet(control, "wire_tx", 10)
    assert len(tracer) == 0


def test_ordered_events_follow_lifecycle_not_insertion():
    tracer = SpanTracer()
    tracer.record(1, "resp_complete", 900)
    tracer.record(1, "req_issue", 0)
    tracer.record(1, "req_wire_tx", 300)
    names = [name for name, _ in tracer.span(1).ordered_events()]
    assert names == ["req_issue", "req_wire_tx", "resp_complete"]


def test_canonical_points_bracket_the_lifecycle():
    assert CANONICAL_POINTS[0] == "req_issue"
    assert CANONICAL_POINTS[-1] == "resp_complete"
    assert len(set(CANONICAL_POINTS)) == len(CANONICAL_POINTS)


def test_transfers_aggregate_per_component():
    tracer = SpanTracer()
    tracer.record_transfer("upi", 1, 100)
    tracer.record_transfer("upi", 4, 300)
    tracer.record_transfer("pcie-mmio", 2, 200)
    assert tracer.transfers["upi"]["transactions"] == 2
    assert tracer.transfers["upi"]["lines"] == 5
    assert tracer.transfers["upi"]["first_ns"] == 100
    assert tracer.transfers["upi"]["last_ns"] == 300
    assert tracer.transfers["pcie-mmio"]["lines"] == 2


def test_clear_resets_everything():
    tracer = SpanTracer()
    tracer.record(1, "req_issue", 0)
    tracer.record_transfer("upi", 1, 0)
    tracer.clear()
    assert len(tracer) == 0
    assert tracer.transfers == {}


def test_all_hookable_components_default_to_no_tracer():
    # The zero-cost-when-disabled contract: hooks only check a class
    # attribute that defaults to None.
    for cls in (RpcClient, RpcServerThread, DaggerNic, CpuNicInterface):
        assert cls.tracer is None


def test_attach_tracer_sets_and_detaches():
    class Thing:
        tracer = None

    things = [Thing(), Thing()]
    tracer = SpanTracer()
    attach_tracer(tracer, things)
    assert all(t.tracer is tracer for t in things)
    attach_tracer(None, things)
    assert all(t.tracer is None for t in things)


def test_span_to_record_is_json_shaped():
    tracer = SpanTracer()
    tracer.record(5, "req_issue", 10)
    record = tracer.span(5).to_record()
    assert record == {"type": "span", "rpc_id": 5,
                      "events": {"req_issue": 10}}
