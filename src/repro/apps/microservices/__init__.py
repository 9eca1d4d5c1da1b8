"""Multi-tier microservice applications.

- :mod:`repro.apps.microservices.tier` / :mod:`graph` — a declarative
  framework: tiers are specs (threads, threading model, per-method compute
  and fanout); a ``Microservice`` is one deployed copy of a spec with its
  own NIC instance on the shared FPGA (Fig 14) and wired connections. The
  graph deploys one copy per tier on one machine; the rack-scale cluster
  (:mod:`repro.harness.cluster`) deploys replica pools of the same class.
- :mod:`repro.apps.microservices.social_network` / :mod:`media` — the
  DeathStarBench Social Network and Media Serving topologies (Figs 1-2)
  used for the section 3 characterization.
- :mod:`repro.apps.microservices.flight` — the 8-tier Flight Registration
  service (Fig 13) with real MICA-backed storage tiers.
- :mod:`repro.apps.microservices.tracing` — the lightweight request-tracing
  system of section 5.7, producing the Fig 3 latency breakdowns.
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "tier": ("CallSpec", "MethodSpec", "TierSpec", "Microservice"),
    "graph": ("ServiceGraph", "GraphResult"),
    "tracing": ("Tracer", "TierBreakdown"),
})
