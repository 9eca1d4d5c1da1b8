"""Unit tests for the RPC wire-packet model."""

import pytest

from repro.rpc.messages import HEADER_BYTES, RpcKind, RpcPacket


def test_packet_ids_unique():
    a = RpcPacket(RpcKind.REQUEST, 1, "m", b"", 64)
    b = RpcPacket(RpcKind.REQUEST, 1, "m", b"", 64)
    assert a.rpc_id != b.rpc_id


def test_wire_bytes_include_header():
    packet = RpcPacket(RpcKind.REQUEST, 1, "m", b"", 48)
    assert packet.wire_bytes == 48 + HEADER_BYTES


def test_lines_rounding():
    assert RpcPacket(RpcKind.REQUEST, 1, "m", b"", 1).lines() == 1
    assert RpcPacket(RpcKind.REQUEST, 1, "m", b"", 48).lines() == 1
    assert RpcPacket(RpcKind.REQUEST, 1, "m", b"", 49).lines() == 2
    assert RpcPacket(RpcKind.REQUEST, 1, "m", b"", 500).lines() == 9


def test_negative_payload_rejected():
    with pytest.raises(ValueError):
        RpcPacket(RpcKind.REQUEST, 1, "m", b"", -1)


def test_make_response_swaps_addresses_and_keeps_id():
    request = RpcPacket(RpcKind.REQUEST, 7, "get", b"req", 64,
                        src_address="client", dst_address="server",
                        src_flow=3)
    response = request.make_response(b"resp", 32)
    assert response.kind is RpcKind.RESPONSE
    assert response.rpc_id == request.rpc_id
    assert response.connection_id == 7
    assert response.src_address == "server"
    assert response.dst_address == "client"
    assert response.src_flow == 3
    assert response.payload_bytes == 32


def test_make_response_from_response_rejected():
    request = RpcPacket(RpcKind.REQUEST, 1, "m", b"", 64)
    response = request.make_response(b"", 16)
    with pytest.raises(ValueError):
        response.make_response(b"", 16)


def test_repr_is_informative():
    packet = RpcPacket(RpcKind.REQUEST, 5, "get", b"", 64)
    text = repr(packet)
    assert "get" in text and "conn=5" in text and "64B" in text
