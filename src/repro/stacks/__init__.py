"""Pluggable end-host networking stacks.

Every stack exposes the same two-sided interface — *ports* with a ``send``
generator, an ``rx_ring`` to poll, and CPU cost accessors — so the RPC
runtime, the KVS applications, and the microservice graphs run unmodified
over any of them:

- :class:`~repro.stacks.dagger.DaggerStack` — the system under test: the
  full hardware-offloaded RPC stack over the simulated NIC (UPI or PCIe).
- :class:`~repro.stacks.modeled.ModeledStack` — every baseline, run from
  its row of :data:`~repro.stacks.registry.BASELINES`: kernel TCP/IP
  (memcached's native transport), MICA's DPDK transport, eRPC, FaSST's
  two-sided RDMA, the IX dataplane OS, and the in-DIMM NetDIMM NIC
  (message-level only, as in Table 3).

:func:`~repro.stacks.registry.make_stack` builds either kind by name.
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "base": ("RpcStack", "StackPort", "connect"),
    "dagger": ("DaggerStack",),
    "modeled": ("ModeledStack",),
    "registry": ("BASELINES", "ModeledStackParams", "STACKS", "make_stack"),
})
