"""Deterministic fault injection for the Dagger reproduction (`repro.chaos`).

The ROADMAP's chaos-engineering item: a seed-scheduled fault layer that
exercises the recovery paths of the reliable transport and the credit
engine — wire loss/reorder/duplication (plus correlated loss bursts) at
the ToR switch, degraded-NIC tenants, straggler cores, and
connection-cache thrash — with every fault decision drawn from one seeded
RNG so any run is bit-identical reproducible from ``(code, config)``.

See ``docs/robustness.md`` for the fault model and the determinism
contract.
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "faults": ("CacheThrashFault", "ChaosConfig", "StragglerFault",
               "WireFaults"),
    "injector": ("ChaosInjector", "ChaosStats"),
    "rig": ("FAULT_CLASSES", "HostDeliveryAuditor", "run_chaos_point"),
})
