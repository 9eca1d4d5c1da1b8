"""Rack-scale cluster harness (repro.harness.cluster)."""

import pytest

from repro.apps.microservices.tier import CallSpec, MethodSpec, TierSpec
from repro.harness.cluster import (
    AutoscalerConfig,
    ClusterRig,
    TierDeployment,
    cluster_signature,
    run_cluster_point,
)
from repro.sim.distributions import Constant
from repro.workloads.sessions import SessionWorkload, make_modulation


def _tiny_tiers(backend_compute_ns=20_000):
    """Two tiers: a light front fanning into a compute-heavy backend."""
    return [
        TierSpec(
            name="backend",
            methods={"handle": MethodSpec(
                compute=Constant(backend_compute_ns), response_bytes=32,
            )},
            num_dispatch_threads=2,
        ),
        TierSpec(
            name="front",
            methods={"handle": MethodSpec(
                compute=Constant(2_000),
                stages=[[CallSpec("backend", payload_bytes=64)]],
                response_bytes=32,
            )},
            num_dispatch_threads=2,
        ),
    ]


def _echo_tiers(compute_ns=20_000):
    return [TierSpec(
        name="echo",
        methods={"handle": MethodSpec(
            compute=Constant(compute_ns), response_bytes=32,
        )},
        num_dispatch_threads=2,
    )]


def _run_echo(policy, load_krps=120.0, nreq=1200, straggler=None,
              seed=21):
    rig = ClusterRig(
        _echo_tiers(),
        machines=2,
        policy=policy,
        deployment=TierDeployment(initial=3, min_replicas=3,
                                  max_replicas=3),
        autoscaler=AutoscalerConfig(enabled=False),
        seed=seed,
    )
    if straggler is not None:
        for core in rig.pools["echo"].replicas[straggler].cores:
            core.slowdown = 8.0
    workload = SessionWorkload(peak_rate_krps=load_krps, seed=seed + 1)
    result = rig.run_sessions(workload, nreq, entry_tier="echo",
                              deadline_us=300.0)
    return rig, result


# -- construction and validation ------------------------------------------


def test_rejects_custom_handler_tiers():
    def handler(ctx, payload):
        yield from ()

    with pytest.raises(ValueError, match="declarative"):
        ClusterRig([TierSpec(name="kv", methods={"get": handler})],
                   machines=1)


def test_rejects_duplicate_and_forward_references():
    with pytest.raises(ValueError, match="duplicate"):
        ClusterRig(_echo_tiers() + _echo_tiers(), machines=1)
    backwards = list(reversed(_tiny_tiers()))
    with pytest.raises(ValueError, match="declared before"):
        ClusterRig(backwards, machines=1)


def test_rejects_unknown_policy_and_bad_bounds():
    with pytest.raises(ValueError, match="policy"):
        ClusterRig(_echo_tiers(), machines=1, policy="random")
    with pytest.raises(ValueError):
        TierDeployment(initial=3, min_replicas=1, max_replicas=2)
    with pytest.raises(ValueError):
        AutoscalerConfig(low_watermark=0.8, high_watermark=0.7)
    with pytest.raises(ValueError):
        AutoscalerConfig(window=4, down_window=2)


def test_out_of_cores_is_informative():
    # 1 machine = 12 cores; 3 replicas x 8 threads need more.
    tiers = [TierSpec(
        name="fat",
        methods={"handle": MethodSpec(compute=Constant(1000))},
        num_dispatch_threads=8,
    )]
    with pytest.raises(ValueError, match="out of cores"):
        ClusterRig(tiers, machines=1,
                   deployment=TierDeployment(initial=1, max_replicas=4))


def test_replicas_spread_across_machines():
    rig = ClusterRig(_echo_tiers(), machines=2,
                     deployment=TierDeployment(initial=3, min_replicas=3,
                                               max_replicas=3))
    machines = [r.machine_id for r in rig.pools["echo"].replicas]
    assert set(machines) == {0, 1}  # round-robin placement
    # The loadgen machine is extra and never hosts replicas.
    assert len(rig.cluster.machines) == 3


def test_rig_is_single_use():
    rig = ClusterRig(_echo_tiers(), machines=1)
    workload = SessionWorkload(peak_rate_krps=20.0, seed=1)
    rig.run_sessions(workload, 50, entry_tier="echo")
    with pytest.raises(RuntimeError, match="already ran"):
        rig.run_sessions(workload, 50, entry_tier="echo")


# -- end-to-end behaviour --------------------------------------------------


def test_tiny_app_completes_and_measures():
    rig = ClusterRig(_tiny_tiers(), machines=2, seed=3)
    workload = SessionWorkload(peak_rate_krps=20.0, seed=4)
    result = rig.run_sessions(workload, 300, entry_tier="front",
                              deadline_us=400.0)
    assert result.completed == 300
    assert result.lost == 0
    assert result.count + result.discarded == 300
    assert result.slo_total == result.count
    assert 0.0 <= result.slo_attainment <= 1.0
    assert result.p50_us > 20.0  # at least the backend compute
    assert result.tiers["backend"]["requests_handled"] == 300


def test_tier_dot_method_mix_keys():
    rig = ClusterRig(_tiny_tiers(), machines=2, seed=5)
    workload = SessionWorkload(
        peak_rate_krps=20.0,
        method_mix={"front.handle": 0.5, "backend.handle": 0.5},
        seed=6,
    )
    result = rig.run_sessions(workload, 300)
    # Every request touches backend exactly once: directly for the
    # backend.handle share, via a nested call for the front.handle share.
    front_handled = result.tiers["front"]["requests_handled"]
    assert 0 < front_handled < 300
    assert result.tiers["backend"]["requests_handled"] == 300


def test_unknown_entry_method_rejected():
    rig = ClusterRig(_tiny_tiers(), machines=2)
    workload = SessionWorkload(peak_rate_krps=20.0,
                               method_mix={"missing": 1.0}, seed=1)
    with pytest.raises(ValueError, match="no method"):
        rig.run_sessions(workload, 10, entry_tier="front")
    rig2 = ClusterRig(_tiny_tiers(), machines=2)
    with pytest.raises(ValueError, match="no tier"):
        rig2.run_sessions(
            SessionWorkload(peak_rate_krps=20.0, seed=1), 10)


def test_serial_runs_bit_identical_in_one_process():
    def run():
        rig = ClusterRig(_tiny_tiers(), machines=2, seed=7)
        workload = SessionWorkload(
            peak_rate_krps=25.0, seed=8,
            modulation=make_modulation("bursty", seed=9),
        )
        return rig.run_sessions(workload, 400, entry_tier="front")

    assert cluster_signature(run()) == cluster_signature(run())


def test_sketch_mode_same_slo_counters_as_exact():
    def run(mode):
        rig = ClusterRig(_tiny_tiers(), machines=2, seed=7)
        workload = SessionWorkload(peak_rate_krps=25.0, seed=8)
        return rig.run_sessions(workload, 400, entry_tier="front",
                                mode=mode)

    exact, sketch = run("exact"), run("sketch")
    # The simulation and the SLO counting are mode-independent; only the
    # percentile estimates may differ (within sketch accuracy).
    assert sketch.slo_met == exact.slo_met
    assert sketch.slo_total == exact.slo_total
    assert sketch.completed == exact.completed
    assert sketch.p99_us == pytest.approx(exact.p99_us, rel=0.05)


# -- load-balancing policies -----------------------------------------------


def test_round_robin_spreads_evenly_when_healthy():
    rig, _ = _run_echo("round-robin", nreq=600)
    issued = rig.pools["echo"].issued
    assert max(issued) - min(issued) <= 1


def test_smart_policies_beat_round_robin_under_straggler():
    # One of three replicas runs on 8x-slowed cores. Round-robin keeps
    # feeding it 1/3 of the traffic; feedback policies must divert.
    shares = {}
    p99 = {}
    for policy in ("round-robin", "least-outstanding", "p2c"):
        rig, result = _run_echo(policy, straggler=2)
        issued = rig.pools["echo"].issued
        shares[policy] = issued[2] / sum(issued)
        p99[policy] = result.p99_us
    assert shares["round-robin"] == pytest.approx(1 / 3, abs=0.02)
    assert shares["least-outstanding"] < shares["round-robin"] / 2
    assert shares["p2c"] < shares["round-robin"]
    assert p99["least-outstanding"] < p99["round-robin"]
    assert p99["p2c"] < p99["round-robin"]


# -- autoscaler ------------------------------------------------------------


def _run_autoscaled(initial, load_krps, nreq=1500, seed=31,
                    autoscaler=None):
    rig = ClusterRig(
        _echo_tiers(),
        machines=2,
        deployment=TierDeployment(initial=initial, min_replicas=1,
                                  max_replicas=3),
        autoscaler=autoscaler or AutoscalerConfig(),
        seed=seed,
    )
    workload = SessionWorkload(peak_rate_krps=load_krps, seed=seed + 1)
    result = rig.run_sessions(workload, nreq, entry_tier="echo")
    return rig, result


def test_autoscaler_grows_overloaded_tier_within_bounds():
    # 80 Krps x 20 us over one 2-thread replica = 0.8 busy > 0.7: must
    # scale up; two replicas sit at 0.4, inside the deadband.
    _, result = _run_autoscaled(initial=1, load_krps=80.0)
    tier = result.tiers["echo"]
    assert tier["scale_ups"] >= 1
    assert tier["final"] == 2
    assert 1 <= tier["peak"] <= tier["max"]
    assert tier["issued_per_replica"][1] > 0  # new replica took traffic
    assert any(e["action"] == "up" for e in result.scaling_events)


def test_autoscaler_no_flapping_on_steady_plateau():
    # 0.4 busy per replica: between the watermarks, so a steady plateau
    # must produce zero actions in either direction (hysteresis).
    _, result = _run_autoscaled(initial=2, load_krps=80.0)
    assert result.scaling_events == []
    assert result.tiers["echo"]["final"] == 2


def test_autoscaler_drains_idle_replicas_slowly():
    # 0.08 busy per replica across 2 replicas: below the low watermark,
    # so the scaler drains back to min - but only after down_window
    # consecutive quiet intervals.
    _, result = _run_autoscaled(initial=2, load_krps=8.0, nreq=1200)
    tier = result.tiers["echo"]
    assert tier["scale_downs"] >= 1
    assert tier["final"] >= tier["min"]
    down = [e for e in result.scaling_events if e["action"] == "down"]
    assert down and down[0]["t_ns"] >= 8 * 1_000_000  # full down_window


def test_autoscaler_disabled_never_scales():
    rig, result = _run_echo("p2c", nreq=400)
    assert result.scaling_events == []
    assert result.tiers["echo"]["scale_ups"] == 0


# -- the full application point -------------------------------------------


def test_social_network_point_deterministic_and_scales():
    kwargs = dict(machines=8, load_krps=60.0, nreq=900,
                  modulation="steady", seed=11)
    a = run_cluster_point(**kwargs)
    b = run_cluster_point(**kwargs)
    assert cluster_signature(a) == cluster_signature(b)
    assert a["completed"] == 900
    assert a["machines"] == 8
    assert a["tiers"]["post_storage"]["peak"] >= 2  # the bottleneck grew
    assert a["slo_attainment"] > 0.8
    # Provisioned occupancy-bound frontends are pinned, never drained.
    assert a["tiers"]["nginx"]["final"] == 2


def test_cluster_point_validation():
    with pytest.raises(ValueError, match="unknown app"):
        run_cluster_point(app="hotel_reservation")
    with pytest.raises(ValueError, match="unknown modulation"):
        run_cluster_point(modulation="square")


def test_cluster_point_rejects_zero_load_threads_by_name():
    # Used to return completed 0 and lost 50: nothing issued, yet every
    # request reported lost.
    with pytest.raises(ValueError, match="num_load_threads must be >= 1"):
        run_cluster_point(nreq=50, num_load_threads=0)


def test_cluster_point_rejects_nonpositive_load_by_name():
    # Used to fail as "peak rate must be positive", after the rig was built.
    with pytest.raises(ValueError, match="load_krps must be positive"):
        run_cluster_point(nreq=50, load_krps=0.0)


def test_flight_cluster_point_runs():
    result = run_cluster_point(app="flight", machines=8, load_krps=5.0,
                               nreq=200, modulation="steady", seed=11)
    assert result["completed"] == 200
    assert result["tiers"]["flight"]["requests_handled"] > 0
    assert result["tiers"]["airport_db"]["requests_handled"] > 0


def test_telemetry_timeline_shows_scaling():
    result = run_cluster_point(machines=8, load_krps=60.0, nreq=900,
                               modulation="steady", seed=11,
                               telemetry=True)
    series = {(s["component"], s["name"]): s
              for s in result["timeline"]["series"]}
    active = series[("cluster.post_storage", "active_replicas")]
    assert active["values"][0] == 1
    assert max(active["values"]) >= 2  # the scale-up is visible
