"""Experiment harness.

:mod:`repro.harness.runner` builds rigs (machines + stacks + echo services +
load generators) and runs them; :mod:`repro.harness.experiments` exposes one
entry point per paper table/figure; :mod:`repro.harness.sweep` evaluates
grids of measurement points (in parallel, with a content-addressed result
cache); :mod:`repro.harness.report` renders the paper-style text tables the
benchmarks print.
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "cluster": ("AutoscalerConfig", "ClusterResult", "ClusterRig",
                "LB_POLICIES", "LoadBalancer", "TierDeployment",
                "cluster_signature", "run_cluster_point"),
    "runner": ("BenchResult", "EchoRig", "MultiTenantEchoRig",
               "MultiTenantResult", "run_closed_loop", "run_multi_tenant",
               "run_open_loop", "run_raw_reads", "run_thread_scaling"),
    "mesh": ("MeshResult", "run_echo_mesh"),
    "sweep": ("SweepPoint", "run_sweep"),
}, submodules=("experiments", "report"))
