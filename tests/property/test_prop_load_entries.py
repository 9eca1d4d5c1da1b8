"""Property-based tests: the load entry points fail by name or finish whole.

Draws ``nreq``, ``num_load_threads``, ``load_krps`` and ``warmup_ns`` from
valid and invalid ranges for a small two-tier ``ServiceGraph.run_load``
and for ``run_cluster_point``, and ``nreq``, ``num_threads`` (up to
600, past the machine's 12 server threads), ``load_mrps``,
``closed_loop_window`` and ``warmup_ns`` for a small
``run_kvs_workload`` over MICA or memcached. Every example must do one of
two things:

- raise a ``ValueError`` whose message names an argument the example got
  wrong (a positive warm-up is wrong when the whole run ends inside it);
- finish with every request accounted for: for the graph, ``count ==
  nreq`` at ``warmup_ns=0`` with no drops; for the cluster, ``completed +
  lost == nreq``, with the entry tier having handled ``completed``; for
  the KVS workload, no drops, a hit rate in [0, 1], ordered percentiles
  and a non-negative throughput.

A per-example ``deadline`` fails an example that runs far longer than a
small point should.
"""

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from repro.apps.kvs import run_kvs_workload
from repro.apps.kvs.client import SERVER_START_CORE
from repro.apps.microservices import CallSpec, MethodSpec, ServiceGraph, TierSpec
from repro.harness.cluster import run_cluster_point
from repro.hw.platform import MachineConfig
from repro.sim.distributions import Constant

#: argument -> (valid range, invalid range)
RANGES = {
    "nreq": (st.integers(min_value=1, max_value=30),
             st.integers(min_value=-2, max_value=0)),
    "num_load_threads": (st.integers(min_value=1, max_value=3),
                         st.integers(min_value=-1, max_value=0)),
    "load_krps": (st.floats(min_value=1.0, max_value=60.0),
                  st.floats(min_value=-5.0, max_value=0.0)),
    "warmup_ns": (st.one_of(st.just(0),
                            st.integers(min_value=1, max_value=100_000)),
                  st.integers(min_value=-1000, max_value=-1)),
}


#: Server threads ``run_kvs_workload`` can place on the default machine.
_KVS_MAX_THREADS = ((MachineConfig().cores - SERVER_START_CORE)
                    * MachineConfig().smt)

#: ``run_kvs_workload`` argument -> (valid range, invalid range); a
#: ``closed_loop_window`` of None runs the open loop at ``load_mrps``.
KVS_RANGES = {
    "nreq": RANGES["nreq"],
    "num_threads": (st.integers(min_value=1, max_value=3),
                    st.one_of(st.integers(min_value=-1, max_value=0),
                              st.integers(min_value=_KVS_MAX_THREADS + 1,
                                          max_value=600))),
    "load_mrps": (st.floats(min_value=0.2, max_value=4.0),
                  st.floats(min_value=-5.0, max_value=0.0)),
    "closed_loop_window": (st.one_of(st.none(),
                                     st.integers(min_value=1, max_value=8)),
                           st.integers(min_value=-2, max_value=0)),
    "warmup_ns": RANGES["warmup_ns"],
}


@st.composite
def load_arguments(draw, ranges=RANGES):
    """One value per argument; a drawn subset of them is out of range."""
    broken = draw(st.sets(st.sampled_from(sorted(ranges)), max_size=2))
    return {name: draw(invalid if name in broken else valid)
            for name, (valid, invalid) in ranges.items()}


def _invalid(nreq, num_load_threads, load_krps, warmup_ns):
    """The argument names this example got wrong."""
    return {name for name, bad in (
        ("nreq", nreq < 1),
        ("num_load_threads", num_load_threads < 1),
        ("load_krps", load_krps <= 0),
        ("warmup_ns", warmup_ns < 0),
    ) if bad}


def _kvs_invalid(nreq, num_threads, load_mrps, closed_loop_window,
                 warmup_ns):
    """The argument names this ``run_kvs_workload`` example got wrong."""
    return {name for name, bad in (
        ("nreq", nreq < 1),
        ("num_threads", not 1 <= num_threads <= _KVS_MAX_THREADS),
        ("load_mrps", load_mrps <= 0),
        ("closed_loop_window",
         closed_loop_window is not None and closed_loop_window < 1),
        ("warmup_ns", warmup_ns < 0),
    ) if bad}


def _run_or_name(run, args, oracle=_invalid):
    """Run; returns the result, or None after checking a named rejection."""
    invalid = oracle(**args)
    warmup_ns = args["warmup_ns"]
    try:
        result = run()
    except ValueError as error:
        # A positive warm-up may legitimately swallow the whole run.
        culprits = invalid or ({"warmup_ns"} if warmup_ns > 0 else set())
        assert any(name in str(error) for name in culprits), (
            f"{error!r} names none of {sorted(culprits)}")
        event("rejected by name")
        return None
    assert not invalid, f"accepted invalid {sorted(invalid)}"
    event("finished")
    return result


def _two_tier_graph():
    graph = ServiceGraph(seed=3)
    graph.add_tier(TierSpec(
        name="backend",
        methods={"handle": MethodSpec(compute=Constant(2000))},
    ))
    graph.add_tier(TierSpec(
        name="frontend",
        methods={"serve": MethodSpec(
            compute=Constant(1000),
            stages=[[CallSpec("backend")]],
        )},
        num_dispatch_threads=2,
    ))
    return graph


@given(load_arguments())
@settings(max_examples=60, deadline=2000)
def test_graph_run_load_names_bad_arguments_or_accounts(args):
    graph = _two_tier_graph()
    result = _run_or_name(
        lambda: graph.run_load("frontend", {"serve": 1.0}, **args), args)
    if result is None:
        return
    assert result.drops == 0
    assert 1 <= result.count <= args["nreq"]
    if args["warmup_ns"] == 0:
        assert result.count == args["nreq"]
    assert result.throughput_krps >= 0.0


@given(load_arguments())
@settings(max_examples=40, deadline=5000)
def test_cluster_point_names_bad_arguments_or_accounts(args):
    result = _run_or_name(
        lambda: run_cluster_point(modulation="steady", **args), args)
    if result is None:
        return
    assert result["completed"] + result["lost"] == args["nreq"]
    assert result["tiers"]["nginx"]["requests_handled"] == result["completed"]
    assert result["count"] + result["discarded"] == result["completed"]


def _kvs_point(num_threads):
    return dict(nreq=10, num_threads=num_threads, load_mrps=1.0,
                closed_loop_window=None, warmup_ns=0)


@given(load_arguments(KVS_RANGES), st.sampled_from(("mica", "memcached")))
# One thread past the machine, and more than the NIC has flows.
@example(_kvs_point(_KVS_MAX_THREADS + 1), "mica")
@example(_kvs_point(600), "memcached")
@settings(max_examples=60, deadline=1000)
def test_kvs_workload_names_bad_arguments_or_finishes(args, system):
    result = _run_or_name(
        lambda: run_kvs_workload(system=system, num_keys=50_000, **args),
        args, _kvs_invalid)
    if result is None:
        return
    assert result.drops == 0
    assert 0.0 <= result.hit_rate <= 1.0
    assert result.p50_us <= result.p99_us
    assert result.throughput_mrps >= 0.0


def test_invalid_arguments_are_recognised():
    # The oracle itself: zero load threads, zero requests, a non-positive
    # load and a negative warm-up are flagged, and a valid point is not.
    assert _invalid(50, 0, 60.0, 0) == {"num_load_threads"}
    assert _invalid(0, 2, 10.0, 0) == {"nreq"}
    assert _invalid(1, 2, -1.0, -5) == {"load_krps", "warmup_ns"}
    assert not _invalid(1, 1, 1.0, 0)
    # For the KVS workload a zero window is wrong; None (open loop) is not.
    assert _kvs_invalid(10, 1, 1.0, 0, 0) == {"closed_loop_window"}
    assert _kvs_invalid(10, 0, 0.0, None, 0) == {"num_threads", "load_mrps"}
    assert _kvs_invalid(10, 13, 1.0, None, 0) == {"num_threads"}
    assert not _kvs_invalid(10, 12, 1.0, None, 0)
    assert not _kvs_invalid(1, 1, 0.2, None, 0)
    args = dict(nreq=0, num_load_threads=1, load_krps=1.0, warmup_ns=0)
    with pytest.raises(AssertionError, match="accepted invalid"):
        _run_or_name(lambda: object(), args)
