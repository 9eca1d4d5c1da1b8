"""Unit tests for the PCIe/UPI interconnect models."""

import pytest

from repro.hw.calibration import DEFAULT_CALIBRATION
from repro.hw.interconnect import (
    PcieDoorbellInterface,
    PcieMmioInterface,
    TransferMode,
    UpiInterface,
    make_interface,
)
from repro.hw.platform import Machine
from repro.sim import Simulator

CAL = DEFAULT_CALIBRATION


def build(kind):
    sim = Simulator()
    machine = Machine(sim, calibration=CAL)
    return sim, make_interface(kind, sim, CAL, machine.fpga)


def run_one(sim, generator):
    start = sim.now

    def proc():
        yield from generator
        return sim.now - start

    return sim.run_until_done(sim.spawn(proc()))


# ---------------------------------------------------------------- factory


def test_make_interface_kinds():
    sim = Simulator()
    machine = Machine(sim)
    assert isinstance(make_interface("upi", sim, CAL, machine.fpga),
                      UpiInterface)
    assert isinstance(make_interface("pcie-mmio", sim, CAL, machine.fpga),
                      PcieMmioInterface)
    assert isinstance(
        make_interface("pcie-doorbell", sim, CAL, machine.fpga),
        PcieDoorbellInterface,
    )


def test_make_interface_unknown():
    sim = Simulator()
    machine = Machine(sim)
    with pytest.raises(ValueError, match="unknown interface"):
        make_interface("infiniband", sim, CAL, machine.fpga)


def test_make_interface_binds_shared_endpoints():
    # Every NIC on one FPGA arbitrates at the same endpoint resources.
    sim = Simulator()
    machine = Machine(sim)
    upi = make_interface("upi", sim, CAL, machine.fpga)
    pcie = make_interface("pcie-doorbell", sim, CAL, machine.fpga)
    assert upi.endpoint is machine.fpga.upi_endpoint
    assert pcie.endpoint is machine.fpga.pcie_endpoint


# -------------------------------------------------------------------- UPI


def test_upi_tx_cpu_cost_is_zero():
    _, upi = build("upi")
    assert upi.tx_cpu_cost_ns(1, 1) == 0
    assert upi.tx_cpu_cost_ns(10, 16) == 0


def test_upi_issue_occupancy():
    _, upi = build("upi")
    assert upi.issue_occupancy_ns(1) == CAL.upi_flow_read_ns
    assert upi.issue_occupancy_ns(4) == (CAL.upi_flow_read_ns
                                         + 3 * CAL.upi_read_line_ns)
    with pytest.raises(ValueError):
        upi.issue_occupancy_ns(0)


def test_upi_host_to_nic_latency():
    sim, upi = build("upi")
    elapsed = run_one(sim, upi.host_to_nic(1))
    assert elapsed == CAL.upi_endpoint_line_ns + CAL.upi_oneway_ns


def test_upi_nic_to_host_latency():
    sim, upi = build("upi")
    elapsed = run_one(sim, upi.nic_to_host(1))
    assert elapsed == CAL.upi_endpoint_line_ns + CAL.upi_nic_to_host_ns


def test_upi_raw_read_near_400ns():
    sim, upi = build("upi")
    elapsed = run_one(sim, upi.raw_read())
    assert abs(elapsed - 400) < 30


def test_upi_mode_is_fetch():
    _, upi = build("upi")
    assert upi.mode is TransferMode.FETCH


def test_upi_accounting():
    sim, upi = build("upi")
    run_one(sim, upi.host_to_nic(4))
    assert upi.lines_transferred == 4
    assert upi.transactions == 1


def test_upi_endpoint_serializes_aggregate_bandwidth():
    sim, upi = build("upi")
    finishes = []

    def reader():
        yield from upi.host_to_nic(1)
        finishes.append(sim.now)

    for _ in range(3):
        sim.spawn(reader())
    sim.run()
    # Endpoint occupancy staggers arrivals by upi_endpoint_line_ns each.
    assert finishes[1] - finishes[0] == CAL.upi_endpoint_line_ns
    assert finishes[2] - finishes[1] == CAL.upi_endpoint_line_ns


# -------------------------------------------------------------------- PCIe


def test_mmio_mode_is_push():
    _, mmio = build("pcie-mmio")
    assert mmio.mode is TransferMode.PUSH
    assert mmio.issue_occupancy_ns(4) == 0


def test_mmio_tx_cpu_cost_scales_with_lines():
    _, mmio = build("pcie-mmio")
    one = mmio.tx_cpu_cost_ns(1, 1)
    two = mmio.tx_cpu_cost_ns(2, 1)
    assert one == 2 * CAL.mmio_store32_ns
    assert two == 2 * one
    # Batching does not help MMIO pushes.
    assert mmio.tx_cpu_cost_ns(1, 8) == one


def test_doorbell_batching_amortizes_mmio():
    _, doorbell = build("pcie-doorbell")
    b1 = doorbell.tx_cpu_cost_ns(1, 1)
    b4 = doorbell.tx_cpu_cost_ns(1, 4)
    b11 = doorbell.tx_cpu_cost_ns(1, 11)
    assert b1 > b4 > b11
    assert b1 == CAL.doorbell_ring_ns + CAL.mmio_doorbell_ns
    assert b1 - CAL.doorbell_ring_ns == CAL.mmio_doorbell_ns


def test_doorbell_rejects_bad_batch():
    _, doorbell = build("pcie-doorbell")
    with pytest.raises(ValueError):
        doorbell.tx_cpu_cost_ns(1, 0)


def test_pcie_fetch_slower_than_upi():
    sim_u, upi = build("upi")
    upi_ns = run_one(sim_u, upi.host_to_nic(1))
    sim_p, doorbell = build("pcie-doorbell")
    pcie_ns = run_one(sim_p, doorbell.host_to_nic(1))
    assert pcie_ns > upi_ns


def test_pcie_raw_read_near_450ns():
    sim, doorbell = build("pcie-doorbell")
    elapsed = run_one(sim, doorbell.raw_read())
    assert abs(elapsed - 450) < 30
