"""Pinned result digests for every rig that drives load.

One small case per load-driving entry point: the echo rig's closed and
open loops (plus a closed loop that drops and stalls, and a traced open
loop), the multi-tenant rig, the chaos rig, the sharded mesh, the cluster,
the single-machine service graphs and the three KVS drivers. Each case
hashes the canonical JSON of its result, through ``mesh_signature`` and
``cluster_signature`` where those exist, so any change to what a rig
simulates shows up as a changed digest.

The cases are independent of the order they run in: nothing hashed here
depends on the process-wide RPC-id or connection-id counters.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.apps.kvs import run_kvs_workload
from repro.apps.kvs.cluster_bench import run_kvs_multicore
from repro.apps.microservices.flight import build_flight_app
from repro.apps.microservices.social_network import (
    DEFAULT_MIX as SOCIAL_MIX,
    social_network_graph,
)
from repro.chaos.rig import run_chaos_point
from repro.harness import EchoRig, MultiTenantEchoRig, run_cluster_point
from repro.harness.cluster import cluster_signature
from repro.harness.mesh import mesh_signature, run_echo_mesh
from repro.sim.sharded import canonical_json


def _graph_json(result) -> str:
    tracer = result.tracer
    data = {
        "throughput_krps": result.throughput_krps,
        "p50_us": result.p50_us,
        "p90_us": result.p90_us,
        "p99_us": result.p99_us,
        "count": result.count,
        "drops": result.drops,
        "drop_rate": result.drop_rate,
        "call_latencies": tracer.call_latencies,
        "computes": tracer.computes,
        "e2e_latencies": tracer.e2e_latencies,
    }
    return canonical_json(data)


def echo_closed() -> str:
    rig = EchoRig(batch_size=4, num_threads=2)
    return canonical_json(rig.closed_loop(window=16, nreq=1500).to_dict())


def echo_closed_stall() -> str:
    rig = EchoRig(batch_size=4, rx_ring_entries=8, num_threads=2)
    result = rig.closed_loop(nreq=2000)
    assert result.drops > 0
    return canonical_json(result.to_dict())


def echo_open() -> str:
    rig = EchoRig(batch_size=4, num_threads=2)
    return canonical_json(rig.open_loop(2.0, nreq=1500).to_dict())


def echo_open_traced() -> str:
    rig = EchoRig(batch_size=4, trace=True, telemetry=True)
    return canonical_json(rig.open_loop(1.0, nreq=800).to_dict())


def multi_tenant() -> str:
    rig = MultiTenantEchoRig(telemetry=True)
    result = rig.open_loop({"t0": 2.0, "t1": 0.5, "t2": 0.5},
                           nreq_total=1500)
    return canonical_json(result.to_dict())


def chaos_loss() -> str:
    return canonical_json(run_chaos_point("loss", nreq=800))


def mesh3() -> str:
    return mesh_signature(run_echo_mesh(hosts=3, nreq_per_host=400))


def cluster_steady() -> str:
    return cluster_signature(run_cluster_point(
        modulation="steady", load_krps=40.0, nreq=600, warmup_ns=500_000,
    ))


def flight() -> str:
    result = build_flight_app(optimized=False).run(0.05, nreq=400,
                                                    warmup_ns=0)
    return _graph_json(result)


def social_linux_tcp() -> str:
    graph = social_network_graph("linux-tcp")
    result = graph.run_load("nginx", SOCIAL_MIX, load_krps=20.0, nreq=400,
                            warmup_ns=0)
    return _graph_json(result)


_KVS = dict(system="mica", nreq=1200, num_keys=50_000, warmup_ns=20_000)


def kvs_closed() -> str:
    return canonical_json(vars(run_kvs_workload(closed_loop_window=8,
                                                **_KVS)))


def kvs_open() -> str:
    return canonical_json(vars(run_kvs_workload(**_KVS)))


def kvs_multicore() -> str:
    return canonical_json(vars(run_kvs_multicore(
        server_threads=2, nreq_per_thread=600, num_keys=50_000,
    )))


#: case -> sha256 of its canonical JSON.
DIGESTS = {
    echo_closed:
        "373d33e0141778ce31866e27ce31b381d62ff6a933d573b257ac4fc4847678ac",
    echo_closed_stall:
        "c1ea3bee99cdc620bd4459cecbfc13adfe569d747944f0f79dff2f0655a605ed",
    echo_open:
        "aea2c7997b56f6dde008c3af20ed73d96b1ea068c07b6159a32bd86c88d95a37",
    echo_open_traced:
        "d1e892f531dc2d2050e02e7e64e6263bffd6133882e5c3f081d18e5fd3b90052",
    multi_tenant:
        "fcda08d886f8715bd11d7e434a676c065896795aef5ce7f743eb4480f004fcb0",
    chaos_loss:
        "751c42fc7363b9ef216d8e57b68b971b5b9a1331336f7f5f2ede29a243354b5b",
    mesh3:
        "76f357d41e06f18defb66f6a3be054f01d0cf4fcc4188f5313cb84ecf25974b7",
    cluster_steady:
        "73d54627d15417247788ce55f903d46a3df77c5f99102c0401374dc21675ab86",
    flight:
        "ab47b5a8c5d10807dbac11140e5945a1d41025536b16b2cb450688e0f49988f4",
    social_linux_tcp:
        "bc817b8faf804b0737fa14db09933ba229d9164cb6db908941a3163bd5a8f02d",
    kvs_closed:
        "f4963afaf02e20606133d98f896b63ef9ed34a366769b7590a1a37622b4534e1",
    kvs_open:
        "3b6eb97fffd9a4dd36cded55ffe627d919c6d5d05d081bfa0fc7077f3652112a",
    kvs_multicore:
        "e590ff8f40d8b86c667a7bd16c54e02dc6d9cddd85b73a737962c55a01ca6ca1",
}


@pytest.mark.parametrize("case", list(DIGESTS), ids=lambda case: case.__name__)
def test_rig_digest(case):
    digest = hashlib.sha256(case().encode()).hexdigest()
    assert digest == DIGESTS[case]
