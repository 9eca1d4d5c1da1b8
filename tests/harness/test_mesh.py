"""Multi-host echo mesh: shard parity and harness integration."""

import pytest

from repro.harness.experiments import mesh_scaling
from repro.harness.mesh import (
    MeshResult,
    mesh_signature,
    run_echo_mesh,
)
from repro.harness.sweep import SweepPoint, run_sweep

#: Small enough for unit-test wall time, dense enough for real traffic.
MESH_KW = dict(hosts=2, nreq_per_host=200, warmup_ns=0)


def probe_sharded(value: int = 0, shards: int = 1) -> dict:
    return {"value": value, "shards": shards}


def probe_plain(value: int = 0) -> dict:
    return {"value": value}


def probe_window_mode(value: int = 0, window_mode: str = "adaptive") -> dict:
    return {"value": value, "window_mode": window_mode}


def test_mesh_serial_vs_sharded_signature():
    serial = run_echo_mesh(shards=1, **MESH_KW)
    sharded = run_echo_mesh(shards=2, **MESH_KW)
    assert serial.shards == 1 and sharded.shards == 2
    assert mesh_signature(serial) == mesh_signature(sharded)
    # The signature must exclude only the shard count.
    assert serial.count == sharded.count
    assert serial.events_per_host == sharded.events_per_host
    assert serial.windows == sharded.windows


def test_mesh_fixed_vs_adaptive_signature():
    # Window policy is engine plumbing: the measured payload must be
    # byte-identical across modes at every shard count.
    fixed = run_echo_mesh(shards=2, window_mode="fixed", **MESH_KW)
    adaptive = run_echo_mesh(shards=2, window_mode="adaptive", **MESH_KW)
    assert fixed.window_mode == "fixed"
    assert adaptive.window_mode == "adaptive"
    assert mesh_signature(fixed) == mesh_signature(adaptive)
    assert adaptive.windows <= fixed.windows
    assert fixed.stretched_windows == 0


def test_mesh_adaptive_accounting_populated():
    result = run_echo_mesh(shards=2, **MESH_KW)
    assert result.window_mode == "adaptive"
    assert result.windows > 0
    assert result.boundary_packets > 0
    assert result.boundary_bytes > 0


def test_mesh_rejects_bad_window_mode():
    with pytest.raises(ValueError, match="window_mode"):
        run_echo_mesh(window_mode="loose", **MESH_KW)


def test_mesh_repeat_runs_identical():
    first = run_echo_mesh(shards=2, **MESH_KW)
    second = run_echo_mesh(shards=2, **MESH_KW)
    assert mesh_signature(first) == mesh_signature(second)


def test_mesh_completes_all_requests():
    result = run_echo_mesh(**MESH_KW)
    assert result.count > 0
    assert result.drops == 0
    for host in result.per_host:
        assert host["completed"] == host["issued"]


def test_mesh_signature_accepts_dict_roundtrip():
    result = run_echo_mesh(**MESH_KW)
    assert mesh_signature(result.to_dict()) == mesh_signature(result)
    assert MeshResult.from_dict(result.to_dict()) == result


def test_mesh_rejects_single_host():
    with pytest.raises(ValueError):
        run_echo_mesh(hosts=1)


def test_run_sweep_injects_shards_when_accepted():
    points = [SweepPoint("tests.harness.test_mesh:probe_sharded",
                         {"value": 1})]
    results = run_sweep(points, cache=False, shards=2)
    assert results == [{"value": 1, "shards": 2}]


def test_run_sweep_keeps_pinned_shards():
    points = [SweepPoint("tests.harness.test_mesh:probe_sharded",
                         {"value": 1, "shards": 3})]
    results = run_sweep(points, cache=False, shards=2)
    assert results == [{"value": 1, "shards": 3}]


def test_run_sweep_skips_shard_unaware_points():
    points = [SweepPoint("tests.harness.test_mesh:probe_plain",
                         {"value": 1})]
    results = run_sweep(points, cache=False, shards=2)
    assert results == [{"value": 1}]


def test_run_sweep_validates_shards():
    with pytest.raises(ValueError, match="shards"):
        run_sweep([], shards=0)


def test_run_sweep_injects_window_mode_when_accepted():
    points = [SweepPoint("tests.harness.test_mesh:probe_window_mode",
                         {"value": 1})]
    results = run_sweep(points, cache=False, window_mode="fixed")
    assert results == [{"value": 1, "window_mode": "fixed"}]


def test_run_sweep_keeps_pinned_window_mode():
    points = [SweepPoint("tests.harness.test_mesh:probe_window_mode",
                         {"value": 1, "window_mode": "adaptive"})]
    results = run_sweep(points, cache=False, window_mode="fixed")
    assert results == [{"value": 1, "window_mode": "adaptive"}]


def test_run_sweep_validates_window_mode():
    with pytest.raises(ValueError, match="window_mode"):
        run_sweep([], window_mode="loose")


def test_jobs_and_shards_compose():
    # jobs parallelize across grid cells, shards inside one cell; the two
    # layered process pools must not perturb results.
    points = [SweepPoint("repro.harness.mesh:run_echo_mesh",
                         dict(shards=shards, **MESH_KW))
              for shards in (1, 2)]
    serial_jobs = run_sweep(points, jobs=1, cache=False)
    parallel_jobs = run_sweep(points, jobs=2, cache=False)
    signatures = {mesh_signature(result)
                  for result in serial_jobs + parallel_jobs}
    assert len(signatures) == 1


def test_mesh_scaling_reports_parity():
    # mesh_scaling uses run_echo_mesh's default warmup (20 us), so the run
    # needs enough requests for samples to outlive it.
    rows = mesh_scaling(shard_counts=[1, 2], hosts=2, nreq_per_host=1000,
                        cache=False)
    assert [row["shards"] for row in rows] == [1, 2]
    assert all(row["parity"] for row in rows)
    assert rows[0]["throughput_mrps"] == rows[1]["throughput_mrps"]
