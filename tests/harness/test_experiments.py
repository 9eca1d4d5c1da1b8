"""Tests for the cheap experiment entry points (expensive ones are
exercised by the benchmark suite)."""

import pytest

from repro.harness import experiments
from repro.harness.experiments import (
    FIG10_PAPER,
    FIG12_PAPER,
    TABLE3_PAPER,
    TABLE4_PAPER,
    fig4_rpc_sizes,
    fig11_bottleneck,
    mesh_scaling,
    sec53_raw_access,
    table1_resources,
)


def test_table1_structure():
    rows = table1_resources()
    assert len(rows) == 5
    for row in rows:
        assert {"parameter", "paper", "measured"} <= set(row)


def test_table1_anchors():
    by_name = {r["parameter"]: r for r in table1_resources()}
    luts = by_name["FPGA resource usage, LUT (K)"]
    assert abs(luts["measured"] - 87.1) < 4


def test_sec53_raw_access_values():
    result = sec53_raw_access()
    assert result["upi_ns"] < result["pcie_ns"]
    assert abs(result["upi_ns"] - 400) < 40
    assert abs(result["pcie_ns"] - 450) < 40


def test_fig4_structure():
    result = fig4_rpc_sizes(samples_per_tier=300)
    assert 0 <= result["social_requests_under_512"] <= 1
    assert result["per_tier_median_request"]["text"] == 580
    assert result["paper"]["requests_under_512"] == 0.75


def test_fig11_bottleneck_small_sweep():
    result = fig11_bottleneck(loads_mrps=[1.0, 7.5], nreq=2000, cache=False)
    assert result["batch_size"] == 1
    assert len(result["points"]) == 2
    for point in result["points"]:
        assert point["utilization"] is not None
        assert len(point["utilization"]) >= 5
    report = result["report"]
    assert report["bottleneck"] != "unknown"
    assert report["knee_load_mrps"] in (1.0, 7.5)


def test_paper_reference_tables_complete():
    # Sanity on the embedded paper anchors the benchmarks compare against.
    assert set(TABLE3_PAPER) == {"ix", "fasst-rdma", "erpc", "netdimm",
                                 "dagger"}
    assert TABLE3_PAPER["dagger"]["mrps"] == 12.4
    assert len(FIG10_PAPER) == 7
    assert {k[0] for k in FIG12_PAPER} == {"memcached", "mica"}
    assert TABLE4_PAPER["optimized"]["max_krps"] == 48.0


def test_mesh_scaling_rejects_more_shards_than_hosts_before_simulating(
        monkeypatch):
    def no_sweep(*args, **kwargs):
        raise AssertionError("run_sweep ran before the shard count check")

    monkeypatch.setattr(experiments, "run_sweep", no_sweep)
    with pytest.raises(ValueError, match=r"shards must be in \[1, 4\], got 5"):
        mesh_scaling(shard_counts=[5])
