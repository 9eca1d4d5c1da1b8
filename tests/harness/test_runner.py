"""Integration tests for the echo-benchmark harness (scaled down)."""

import pytest

from repro.harness import (
    EchoRig,
    MultiTenantEchoRig,
    run_closed_loop,
    run_open_loop,
    run_raw_reads,
    run_thread_scaling,
)


def test_closed_loop_reaches_expected_throughput():
    result = run_closed_loop(batch_size=4, nreq=4000)
    assert abs(result.throughput_mrps - 12.4) < 1.0
    assert result.drops == 0
    # ~1.2k of the 4k samples fall inside the warmup window.
    assert result.count > 2500


def test_closed_loop_batch1_bound():
    result = run_closed_loop(batch_size=1, nreq=4000)
    assert abs(result.throughput_mrps - 8.1) < 0.6


def test_open_loop_latency_low_at_low_load():
    result = run_open_loop(load_mrps=1.0, batch_size=1, nreq=3000)
    assert abs(result.p50_us - 1.8) < 0.4
    assert result.p99_us < 3.0
    assert abs(result.throughput_mrps - 1.0) < 0.1
    assert result.offered_mrps == 1.0


def test_open_loop_validates_load():
    with pytest.raises(ValueError):
        run_open_loop(load_mrps=0)


def test_open_loop_reports_drops_instead_of_raising():
    # A 4-entry RX ring in front of a 2 us handler drops most requests;
    # the dropped calls never complete, so the event heap drains before
    # the completion gate and the run must report them, not deadlock.
    rig = EchoRig(batch_size=1, rx_ring_entries=4, server_service_ns=2000)
    result = rig.open_loop(2.0, nreq=1000, warmup_ns=0)
    assert (result.count, result.drops) == (237, 763)
    assert all(client.outstanding == 0 for client in rig.clients)


def test_multi_tenant_open_loop_reports_drops_instead_of_raising():
    rig = MultiTenantEchoRig(rx_ring_entries=2, batch_size=4)
    result = rig.open_loop({"t0": 20.0, "t1": 0.5, "t2": 0.5},
                           nreq_total=3000)
    assert rig.drops == 998
    assert result.per_tenant["t0"].drops == 998
    assert result.per_tenant["t1"].drops == 0


def test_thread_scaling_two_threads():
    result = run_thread_scaling(2, nreq_per_thread=2000)
    assert result.throughput_mrps > 18


def test_raw_reads_single_thread():
    mrps = run_raw_reads(1, nreads_per_thread=4000)
    assert 10 < mrps < 16


def test_rig_with_server_service_time():
    rig = EchoRig(server_service_ns=5000)
    result = rig.closed_loop(window=8, nreq=1500)
    # 5 us handler bounds single-thread throughput near 0.2 Mrps.
    assert result.throughput_mrps < 0.25


def test_rig_over_tor_switch_adds_latency():
    loopback = EchoRig(loopback=True).open_loop(0.5, nreq=1500)
    tor = EchoRig(loopback=False).open_loop(0.5, nreq=1500)
    gap_us = tor.p50_us - loopback.p50_us
    assert 0.4 < gap_us < 0.8  # ~2x 0.3 us TOR minus loopback delay


def test_rig_other_stack():
    result = run_closed_loop(stack_name="erpc", window=32, nreq=3000)
    assert abs(result.throughput_mrps - 4.96) < 0.8
