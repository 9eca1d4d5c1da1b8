"""Workload and dataset generators.

- :mod:`repro.workloads.rpc_sizes` — the Fig 4 RPC size distributions of
  the Social Network / Media tiers.
- :mod:`repro.workloads.kv_datasets` — the tiny/small KVS dataset shapes
  and YCSB-style mixes of section 5.6.
- :mod:`repro.workloads.sessions` — session-based open-loop traffic for
  cluster-scale runs (Zipf-skewed sessions, bursty/diurnal modulation).
- :mod:`repro.workloads.driver` — the load driver every rig shares:
  closed- and open-loop issue lanes, the completion gate, and the stall
  policy.
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "driver": ("LoadDriver", "poisson_schedule", "split_quota"),
    "sessions": ("BurstModulation", "DiurnalModulation", "MODULATIONS",
                 "SessionArrival", "SessionWorkload", "SteadyModulation",
                 "make_modulation", "session_key"),
    "rpc_sizes": ("SOCIAL_NETWORK_SIZES", "MEDIA_SIZES", "TierSizes",
                  "request_size_cdf", "sample_sizes"),
    "kv_datasets": ("DATASETS", "KvDataset", "WORKLOAD_MIXES"),
})
