"""Pluggable end-host networking stacks.

Every stack exposes the same two-sided interface — *ports* with a ``send``
generator, an ``rx_ring`` to poll, and CPU cost accessors — so the RPC
runtime, the KVS applications, and the microservice graphs run unmodified
over any of them:

- :class:`~repro.stacks.dagger.DaggerStack` — the system under test: the
  full hardware-offloaded RPC stack over the simulated NIC (UPI or PCIe).
- :class:`~repro.stacks.linux_tcp.LinuxTcpStack` — kernel TCP/IP + software
  RPC (memcached's native transport).
- :class:`~repro.stacks.dpdk.DpdkStack` / ``ERpcStack`` — user-space
  networking: MICA's native DPDK transport and the eRPC baseline.
- :class:`~repro.stacks.rdma.FasstRdmaStack` — two-sided RDMA datagram RPCs.
- :class:`~repro.stacks.ix.IxStack` — the IX protected dataplane OS.
- :class:`~repro.stacks.netdimm.NetDimmStack` — the integrated in-DIMM NIC
  (message-level only, as in Table 3).
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "base": ("RpcStack", "StackPort", "connect"),
    "dagger": ("DaggerStack",),
    "modeled": ("ModeledStack", "ModeledStackParams"),
    "linux_tcp": ("LinuxTcpStack",),
    "dpdk": ("DpdkStack", "ERpcStack"),
    "rdma": ("FasstRdmaStack",),
    "ix": ("IxStack",),
    "netdimm": ("NetDimmStack",),
    "registry": ("STACKS", "make_stack"),
})
