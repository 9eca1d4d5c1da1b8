"""Experiment harness.

:mod:`repro.harness.runner` builds rigs (machines + stacks + echo services +
load generators) and runs them; :mod:`repro.harness.experiments` exposes one
entry point per paper table/figure; :mod:`repro.harness.sweep` evaluates
grids of measurement points (in parallel, with a content-addressed result
cache); :mod:`repro.harness.report` renders the paper-style text tables the
benchmarks print.
"""

from repro.harness import experiments, report
from repro.harness.cluster import (
    AutoscalerConfig,
    ClusterResult,
    ClusterRig,
    LB_POLICIES,
    LoadBalancer,
    TierDeployment,
    cluster_signature,
    run_cluster_point,
)
from repro.harness.mesh import MeshResult, run_echo_mesh
from repro.harness.runner import (
    BenchResult,
    EchoRig,
    MultiTenantEchoRig,
    MultiTenantResult,
    run_closed_loop,
    run_multi_tenant,
    run_open_loop,
    run_raw_reads,
    run_thread_scaling,
)
from repro.harness.sweep import SweepPoint, run_sweep

__all__ = [
    "experiments",
    "report",
    "AutoscalerConfig",
    "ClusterResult",
    "ClusterRig",
    "LB_POLICIES",
    "LoadBalancer",
    "TierDeployment",
    "cluster_signature",
    "run_cluster_point",
    "BenchResult",
    "EchoRig",
    "MeshResult",
    "run_echo_mesh",
    "MultiTenantEchoRig",
    "MultiTenantResult",
    "run_closed_loop",
    "run_multi_tenant",
    "run_open_loop",
    "run_raw_reads",
    "run_thread_scaling",
    "SweepPoint",
    "run_sweep",
]
