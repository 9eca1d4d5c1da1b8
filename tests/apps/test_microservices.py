"""Integration tests for the microservice tier/graph framework."""

import pytest

from repro.apps.microservices import CallSpec, MethodSpec, ServiceGraph, TierSpec
from repro.apps.microservices.tier import sample_size
from repro.rpc import ThreadingModel
from repro.sim.distributions import Constant


def two_tier_graph(stack_name="dagger"):
    graph = ServiceGraph(stack_name=stack_name, seed=3)
    graph.add_tier(TierSpec(
        name="backend",
        methods={"handle": MethodSpec(compute=Constant(2000),
                                      response_bytes=32)},
    ))
    graph.add_tier(TierSpec(
        name="frontend",
        methods={"serve": MethodSpec(
            compute=Constant(1000),
            stages=[[CallSpec("backend", payload_bytes=64)]],
            response_bytes=48,
        )},
        num_dispatch_threads=2,
    ))
    return graph


# ----------------------------------------------------------------- specs


def test_sample_size():
    assert sample_size(64) == 64
    assert sample_size(Constant(100)) == 100
    with pytest.raises(ValueError):
        sample_size(0)


def test_tier_spec_validation():
    with pytest.raises(ValueError):
        TierSpec(name="x", methods={})
    with pytest.raises(ValueError):
        TierSpec(name="x", methods={"m": MethodSpec()},
                 num_dispatch_threads=0)
    with pytest.raises(ValueError):
        TierSpec(name="x", methods={"m": MethodSpec()},
                 threading=ThreadingModel.WORKER, num_workers=0)


def test_downstream_targets_deduplicated():
    spec = TierSpec(name="x", methods={
        "a": MethodSpec(stages=[[CallSpec("t1"), CallSpec("t2")]]),
        "b": MethodSpec(stages=[[CallSpec("t1")]]),
    })
    assert spec.downstream_targets == ["t1", "t2"]


# ----------------------------------------------------------------- graph


def test_graph_build_and_run():
    graph = two_tier_graph()
    result = graph.run_load("frontend", {"serve": 1.0}, load_krps=20,
                            nreq=400, warmup_ns=100_000)
    assert result.count > 300
    assert result.drop_rate < 0.01
    # Path: 2 hops (~2 us each) + 3 us compute.
    assert 5 < result.p50_us < 15


def test_graph_records_traces():
    graph = two_tier_graph()
    result = graph.run_load("frontend", {"serve": 1.0}, load_krps=10,
                            nreq=300, warmup_ns=0)
    breakdown = result.tracer.breakdown("backend")
    assert breakdown.count > 0
    assert breakdown.app_p50_us == pytest.approx(2.0, abs=0.5)
    assert 0 < breakdown.app_fraction < 1
    e2e = result.tracer.e2e_breakdown()
    assert e2e.p50_us > breakdown.p50_us


def test_graph_rejects_unknown_downstream():
    graph = ServiceGraph(seed=1)
    graph.add_tier(TierSpec(
        name="lonely",
        methods={"m": MethodSpec(stages=[[CallSpec("ghost")]])},
    ))
    with pytest.raises(ValueError, match="unknown downstream"):
        graph.build()


def test_graph_rejects_unknown_stack_by_name():
    # Used to fail with a bare KeyError: 'quic'.
    with pytest.raises(ValueError, match="unknown stack 'quic'; choose from"):
        ServiceGraph(stack_name="quic")


def test_graph_duplicate_tier():
    graph = ServiceGraph(seed=1)
    graph.add_tier(TierSpec(name="a", methods={"m": MethodSpec()}))
    with pytest.raises(ValueError, match="duplicate"):
        graph.add_tier(TierSpec(name="a", methods={"m": MethodSpec()}))


def test_graph_unknown_entry():
    graph = two_tier_graph()
    with pytest.raises(ValueError, match="unknown entry tier"):
        graph.run_load("nope", {"serve": 1.0}, load_krps=1, nreq=10)


def test_graph_unknown_method():
    graph = two_tier_graph()
    with pytest.raises(ValueError, match="no method"):
        graph.run_load("frontend", {"missing": 1.0}, load_krps=1, nreq=10)


def test_graph_over_modeled_stack():
    graph = two_tier_graph(stack_name="erpc")
    result = graph.run_load("frontend", {"serve": 1.0}, load_krps=10,
                            nreq=300, warmup_ns=0)
    assert result.count > 200
    assert result.p50_us > 5


def test_custom_handler_method():
    graph = ServiceGraph(seed=2)
    seen = []

    def custom(ctx, payload):
        yield from ctx.exec(500)
        seen.append(payload)
        return b"custom", 16

    graph.add_tier(TierSpec(name="svc", methods={"go": custom}))
    result = graph.run_load("svc", {"go": 1.0}, load_krps=5, nreq=100,
                            warmup_ns=0)
    assert result.count == 100
    assert len(seen) == 100


def test_worker_tier_runs():
    graph = ServiceGraph(seed=4)
    graph.add_tier(TierSpec(
        name="svc",
        methods={"m": MethodSpec(compute=Constant(1000),
                                 post_compute_ns=20_000)},
        threading=ThreadingModel.WORKER,
        num_workers=4,
    ))
    result = graph.run_load("svc", {"m": 1.0}, load_krps=50, nreq=300,
                            warmup_ns=0)
    assert result.count == 300
    # 4 workers absorb 50 Krps x 21 us (util ~0.26); latency stays low.
    assert result.p50_us < 20


def test_core_pinning_respected():
    graph = ServiceGraph(seed=5)
    graph.add_tier(TierSpec(
        name="svc",
        methods={"m": MethodSpec()},
        num_dispatch_threads=2,
        cores=[3],
    ))
    graph.build()
    threads = graph.tiers["svc"].dispatch_threads
    assert all(t.core.core_id == 3 for t in threads)


def test_run_load_rejects_zero_weights():
    graph = two_tier_graph()
    with pytest.raises(ValueError, match="sum to > 0"):
        graph.run_load("frontend", {"serve": 0.0}, load_krps=1, nreq=10)


def test_run_load_rejects_nonpositive_load():
    graph = two_tier_graph()
    with pytest.raises(ValueError, match="positive"):
        graph.run_load("frontend", {"serve": 1.0}, load_krps=0, nreq=10)


def test_run_load_issues_every_request_for_odd_nreq():
    # Two load threads used to issue nreq // 2 each, losing the remainder.
    graph = two_tier_graph()
    result = graph.run_load("frontend", {"serve": 1.0}, load_krps=20,
                            nreq=21, warmup_ns=0)
    assert result.count == 21


def test_client_for_unknown_target():
    graph = two_tier_graph()
    graph.build()
    frontend = graph.tiers["frontend"]
    thread = frontend.handler_threads[0]
    with pytest.raises(KeyError, match="no client for target"):
        frontend.client_for(thread, "ghost")


def test_build_twice_rejected():
    graph = two_tier_graph()
    graph.build()
    with pytest.raises(RuntimeError, match="already built"):
        graph.build()
    with pytest.raises(RuntimeError, match="already built"):
        graph.add_tier(TierSpec(name="late", methods={"m": MethodSpec()}))


def test_run_load_rejects_zero_load_threads_by_name():
    # Used to fail inside the NIC config: "num_flows must be in [1, 512]".
    graph = two_tier_graph()
    with pytest.raises(ValueError, match="num_load_threads must be >= 1"):
        graph.run_load("frontend", {"serve": 1.0}, load_krps=10, nreq=10,
                       num_load_threads=0)


def test_run_load_rejects_zero_nreq_by_name():
    # Used to fail after the run with "no samples to summarize".
    graph = two_tier_graph()
    with pytest.raises(ValueError, match="nreq must be >= 1"):
        graph.run_load("frontend", {"serve": 1.0}, load_krps=10, nreq=0)
    assert not graph.tiers  # rejected before anything was built


def test_single_sample_run_reports_zero_throughput():
    # One sample has no measurement window; EchoRig and the cluster
    # report 0.0 for it, and so does the graph.
    graph = two_tier_graph()
    result = graph.run_load("frontend", {"serve": 1.0}, load_krps=10,
                            nreq=1, warmup_ns=0)
    assert result.count == 1
    assert result.throughput_krps == 0.0
    assert result.p50_us > 0


def test_second_run_on_one_graph_rejected_up_front():
    # Used to fail half-built: "address 'loadgen' already registered".
    graph = two_tier_graph()
    graph.run_load("frontend", {"serve": 1.0}, load_krps=10, nreq=20,
                   warmup_ns=0)
    with pytest.raises(RuntimeError, match="already ran"):
        graph.run_load("frontend", {"serve": 1.0}, load_krps=10, nreq=20,
                       warmup_ns=0)
