"""Integration tests for the KVS workload driver (scaled down)."""

import pytest

from repro.apps.kvs import run_kvs_workload
from repro.apps.kvs.client import encode_key, generate_ops, kvs_idl, make_value
from repro.apps.kvs.cluster_bench import run_kvs_multicore


def test_kvs_idl_shapes():
    namespace = kvs_idl(8, 8)
    assert namespace["GetRequest"].BYTE_SIZE == 8
    assert namespace["SetRequest"].BYTE_SIZE == 16
    namespace_small = kvs_idl(16, 32)
    assert namespace_small["SetRequest"].BYTE_SIZE == 48


def test_kvs_idl_cached():
    assert kvs_idl(8, 8) is kvs_idl(8, 8)


def test_kvs_idl_key_floor():
    with pytest.raises(ValueError):
        kvs_idl(4, 8)


def test_encode_key_unique_and_sized():
    keys = {encode_key(i, 16) for i in range(1000)}
    assert len(keys) == 1000
    assert all(len(k) == 16 for k in keys)


def test_make_value_sized():
    assert len(make_value(7, 32)) == 32
    assert len(make_value(7, 8)) == 8


def test_generate_ops_mix_and_range():
    ops = generate_ops(2000, num_keys=1000, get_fraction=0.9, seed=3)
    gets = sum(1 for op, _ in ops if op == "get")
    assert abs(gets / len(ops) - 0.9) < 0.03
    assert all(0 <= idx < 1000 for _, idx in ops)


def test_generate_ops_deterministic():
    a = generate_ops(100, 50, 0.5, seed=1)
    b = generate_ops(100, 50, 0.5, seed=1)
    assert a == b


def test_generate_ops_validation():
    with pytest.raises(ValueError):
        generate_ops(10, 10, get_fraction=1.5)


def test_mica_workload_end_to_end():
    result = run_kvs_workload(system="mica", nreq=1500, num_keys=100_000,
                              closed_loop_window=16)
    assert result.hit_rate == 1.0  # every touched key was populated
    assert result.drop_rate < 0.01
    assert 2.0 < result.throughput_mrps < 6.5
    assert result.p50_us > 1.5
    assert result.misrouted == 0  # object-level LB routes correctly


def test_memcached_workload_end_to_end():
    result = run_kvs_workload(system="memcached", nreq=1000,
                              num_keys=100_000, closed_loop_window=4)
    assert result.hit_rate == 1.0
    assert 0.3 < result.throughput_mrps < 1.2
    assert result.p99_us > result.p50_us


def test_mica_round_robin_misroutes():
    result = run_kvs_workload(system="mica", nreq=1500, num_keys=100_000,
                              num_threads=2, load_balancer="round-robin",
                              closed_loop_window=16, warmup_ns=20_000)
    # With 2 partitions and uniform steering, ~half the requests misroute.
    assert result.misrouted > 400


def test_unknown_system_rejected():
    with pytest.raises(ValueError, match="unknown KVS system"):
        run_kvs_workload(system="redis", nreq=10)


def test_over_baseline_stack():
    result = run_kvs_workload(system="mica", stack_name="linux-tcp",
                              nreq=400, num_keys=10_000,
                              closed_loop_window=4, warmup_ns=50_000)
    # Kernel networking dominates MICA access latency (the 4-5x gap).
    assert result.p50_us > 25


@pytest.mark.parametrize("system, name", [
    ("mica", "nreq"),
    ("mica", "num_threads"),
    ("memcached", "num_threads"),
    ("mica", "load_mrps"),
    ("mica", "load_factor"),
    ("mica", "closed_loop_window"),
])
def test_kvs_workload_rejects_zero_argument_by_name(system, name):
    # Each used to fail inside the run, naming a parameter the caller never
    # set ("num_partitions", "num_flows", "window"), a throughput sample
    # count, or nothing at all (ZeroDivisionError).
    with pytest.raises(ValueError, match=f"{name} must be"):
        run_kvs_workload(system=system, num_keys=10_000, **{name: 0})


@pytest.mark.parametrize("system", ["mica", "memcached"])
@pytest.mark.parametrize("num_threads", [13, 600])
def test_kvs_workload_rejects_threads_past_the_machine_by_name(system,
                                                              num_threads):
    # Server threads fill two SMT slots per core from core 6 of 12: 13
    # used to fail with "core 12 out of range" and 600 with "num_flows".
    with pytest.raises(ValueError,
                       match=r"num_threads must be in \[1, 12\]"):
        run_kvs_workload(system=system, num_keys=10_000,
                         num_threads=num_threads)


def test_kvs_workload_inside_warmup_names_warmup():
    # Five requests all finish inside the default 300 us warm-up.
    with pytest.raises(ValueError, match="warmup_ns=300000"):
        run_kvs_workload(nreq=5, num_keys=10_000)


def test_kvs_workload_single_sample_reports_zero_throughput():
    # One sample has no measurement window; the other rigs report 0.0.
    result = run_kvs_workload(nreq=1, num_keys=10_000, warmup_ns=0)
    assert result.throughput_mrps == 0.0
    assert result.p50_us > 0


@pytest.mark.parametrize(
    "name", ["server_threads", "nreq_per_thread", "window_per_client"])
def test_kvs_multicore_rejects_zero_argument_by_name(name):
    with pytest.raises(ValueError, match=f"{name} must be"):
        run_kvs_multicore(num_keys=10_000, **{name: 0})


@pytest.mark.parametrize("server_threads", [25, 600])
def test_kvs_multicore_rejects_threads_past_the_machine_by_name(
        server_threads):
    with pytest.raises(ValueError,
                       match=r"server_threads must be in \[1, 24\]"):
        run_kvs_multicore(num_keys=10_000, server_threads=server_threads)


def test_kvs_multicore_inside_warmup_names_warmup():
    # Four requests all finish inside the fixed 150 us warm-up.
    with pytest.raises(ValueError, match="warmup_ns=150000"):
        run_kvs_multicore(nreq_per_thread=1, num_keys=10_000)
