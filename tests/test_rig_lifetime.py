"""Every per-request object a rig creates dies by reference counting.

Each load-driving rig runs at two request counts with the cyclic collector
off, so anything a request leaves behind stays visible:

- a rig the test keeps referenced must leave no unreachable objects after
  its run, and no more live objects after the longer run than after the
  shorter one;
- a rig that its entry point builds and drops becomes garbage itself, so
  it must leave the same number of unreachable objects at both sizes.

"The same" allows ``SLACK`` objects: the kernel's event free lists keep
the largest number of events that were pending at once, and the calls
still in flight when an open loop ends vary, so a longer run can end a
few objects apart. A request that leaves one object behind adds 1500.

Left out because they keep up to two objects per request by design: the
KVS rigs (the stored pairs), the Flight app (its databases) and the chaos
rig's ``HostDeliveryAuditor`` (every delivered id, to prove exactly-once).
"""

import gc

import pytest

from repro.apps.microservices.social_network import (
    DEFAULT_MIX as SOCIAL_MIX,
    social_network_graph,
)
from repro.chaos import ChaosConfig
from repro.chaos.rig import FAULT_CLASSES
from repro.harness import EchoRig, MultiTenantEchoRig, run_cluster_point
from repro.harness.mesh import run_echo_mesh

SIZES = (500, 2000)
SLACK = 64


def lossy_rig():
    # perfbench's echo_traced_lossy rig, minus the export. Its span ring is
    # smaller than either run, so it is full at both sizes.
    return EchoRig(
        batch_size=4, num_threads=2,
        trace=True, trace_max_spans=256,
        telemetry=True, mode="sketch",
        chaos=ChaosConfig.from_dict(dict(FAULT_CLASSES["loss"], seed=1)),
        hard_overrides={"reliable_transport": True, "flow_control": True},
    )


#: name -> (build the rig, run it for n requests)
KEPT = {
    "echo_closed_sketch": (
        lambda: EchoRig(batch_size=4, mode="sketch"),
        lambda rig, n: rig.closed_loop(window=64, nreq=n, warmup_ns=0),
    ),
    "echo_traced_lossy": (
        lossy_rig,
        lambda rig, n: rig.open_loop(2.0, nreq=n, warmup_ns=0),
    ),
    "multi_tenant_open": (
        MultiTenantEchoRig,
        lambda rig, n: rig.open_loop({"t0": 1.0, "t1": 0.5, "t2": 0.5},
                                     nreq_total=n),
    ),
}

#: name -> run an entry point that builds and drops its own rig
DROPPED = {
    "mesh_serial": lambda n: run_echo_mesh(
        hosts=4, shards=1, nreq_per_host=n // 4, warmup_ns=0),
    "cluster_steady": lambda n: run_cluster_point(
        modulation="steady", load_krps=40.0, nreq=n, warmup_ns=0),
    "social_run_load": lambda n: social_network_graph().run_load(
        "nginx", SOCIAL_MIX, load_krps=20.0, nreq=n, warmup_ns=0),
}


def collect_after(run):
    """(unreachable, live-object growth) of ``run()``, collector off."""
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        run()
        unreachable = gc.collect()
        return unreachable, len(gc.get_objects()) - before
    finally:
        gc.enable()


@pytest.mark.parametrize("name", list(KEPT))
def test_kept_rig_leaves_no_garbage_and_stays_flat(name):
    build, drive = KEPT[name]
    growth = []
    for n in SIZES:
        rig = build()
        unreachable, live = collect_after(lambda: drive(rig, n))
        assert unreachable == 0, f"{n} requests left {unreachable} objects"
        growth.append(live)
    small, large = growth
    assert large - small <= SLACK, (
        f"live objects grew by {small} at {SIZES[0]} requests and by "
        f"{large} at {SIZES[1]}")


@pytest.mark.parametrize("name", list(DROPPED))
def test_dropped_rig_leaves_the_same_garbage_at_both_sizes(name):
    small, large = (collect_after(lambda: DROPPED[name](n))[0]
                    for n in SIZES)
    assert abs(large - small) <= SLACK, (
        f"{small} unreachable objects at {SIZES[0]} requests, "
        f"{large} at {SIZES[1]}")
