"""CCI-P: the protocol stack multiplexing UPI and PCIe links to the FPGA.

CCI-P wraps one UPI link and two PCIe links behind a single interface
(section 4.1). :func:`make_interface` binds every interface it builds to
the FPGA's shared endpoints, so when several NIC instances live on the
same FPGA (Fig 14), fair FIFO arbitration between tenants emerges at the
endpoint resources.
"""

from __future__ import annotations

from repro.hw.calibration import Calibration
from repro.hw.interconnect.base import CpuNicInterface
from repro.hw.interconnect.pcie import PcieDoorbellInterface, PcieMmioInterface
from repro.hw.interconnect.upi import UpiInterface
from repro.hw.platform import Fpga
from repro.sim.kernel import Simulator

_INTERFACES = {
    "upi": UpiInterface,
    "pcie-mmio": PcieMmioInterface,
    "pcie-doorbell": PcieDoorbellInterface,
}


def make_interface(
    kind: str, sim: Simulator, calibration: Calibration, fpga: Fpga
) -> CpuNicInterface:
    """Build a CPU-NIC interface bound to the FPGA's shared endpoints."""
    try:
        cls = _INTERFACES[kind]
    except KeyError:
        raise ValueError(
            f"unknown interface {kind!r}; choose from {sorted(_INTERFACES)}"
        ) from None
    if kind == "upi":
        return cls(sim, calibration, fpga.upi_endpoint,
                   write_endpoint=fpga.upi_write_endpoint)
    return cls(sim, calibration, fpga.pcie_endpoint,
               write_endpoint=fpga.pcie_write_endpoint)
