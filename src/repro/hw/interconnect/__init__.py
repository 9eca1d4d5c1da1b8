"""CPU <-> NIC interconnect models.

The paper's central claim is that a coherent NUMA interconnect (UPI, reached
through CCI-P) is a better NIC I/O than PCIe for small RPCs. This package
models the four CPU-NIC interface schemes of section 4.4.1 at the
transaction level:

- :class:`~repro.hw.interconnect.pcie.PcieMmioInterface` — WQE-by-MMIO: the
  CPU writes the whole RPC into FPGA BAR space with AVX MMIO stores.
- :class:`~repro.hw.interconnect.pcie.PcieDoorbellInterface` — classic
  doorbell: MMIO doorbell + DMA fetch, optionally with doorbell batching.
- :class:`~repro.hw.interconnect.upi.UpiInterface` — the Dagger interface:
  the CPU only stores to a shared buffer; the NIC's per-flow FSM pulls
  cache lines over the coherent bus.
- raw reads (:meth:`~repro.hw.interconnect.upi.UpiInterface.raw_read`) for
  the Fig 11 endpoint-saturation microbenchmark.
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "base": ("CpuNicInterface", "TransferMode"),
    "pcie": ("PcieMmioInterface", "PcieDoorbellInterface"),
    "upi": ("UpiInterface",),
    "ccip": ("make_interface",),
})
