"""The Dagger NIC (the FPGA green-region design of Figs 6, 8 and 9).

One Python module per RTL block:

- :mod:`config` — hard configuration (SystemVerilog parameters: flow count,
  ring sizes, connection-cache entries) vs soft configuration (runtime soft
  register file: batch size, load balancer, active flows).
- :mod:`rings` — the software RX/TX rings + free-buffer bookkeeping (Fig 8).
- :mod:`rx_path` — the RX FSM fetching RPCs from host TX rings.
- :mod:`tx_path` — request table, free-slot FIFO, flow FIFOs, flow
  scheduler, CCI-P transmitter (Fig 9).
- :mod:`load_balancer` — round-robin / static / object-level balancers.
- :mod:`connection_manager` — the 1W3R direct-mapped connection cache.
- :mod:`packet_monitor` — networking statistics counters.
- :mod:`dagger_nic` — the top level wiring everything together.
- :mod:`resources` — Table 1's FPGA LUT/BRAM/register estimator.
- :mod:`virtualization` — multi-NIC instancing on one FPGA (Fig 14).
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "config": ("NicHardConfig", "NicSoftConfig"),
    "connection_manager": ("ConnectionManager", "ConnectionTuple"),
    "dagger_nic": ("DaggerNic",),
    "load_balancer": ("LoadBalancer", "RoundRobinBalancer", "StaticBalancer",
                      "ObjectLevelBalancer", "make_balancer"),
    "packet_monitor": ("PacketMonitor",),
    "resources": ("FpgaResources", "estimate_resources"),
    "virtualization": ("VirtualizedFpga",),
})
