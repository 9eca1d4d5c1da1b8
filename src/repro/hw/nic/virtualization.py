"""NIC virtualization: multiple NIC instances on one FPGA (Fig 14, §6).

The paper serves an 8-tier application from one physical FPGA by
instantiating one Dagger NIC per tier and giving the instances fair
round-robin access to the CCI-P bus. :class:`VirtualizedFpga` is the
factory for that setup: every NIC it creates shares the machine's FPGA
endpoints (arbitration emerges from FIFO grants at the shared endpoint
resources) and registers with the same switch model.

Per-tenant observability (ISSUE 4): each NIC belongs to a *tenant* (by
default its own address; pass ``tenant=`` to group several instances —
e.g. a client/server pair — under one name). :meth:`timeline_probes`
exposes one probe namespace per tenant, backed by the same exact
``sim.Usage`` busy-time integrals the single-NIC probes use, so a
:class:`~repro.obs.timeline.TimelineCollector` registered with
``collector.add_source("nic", vfpga)`` yields utilization keys like
``nic.<tenant>.fetch`` — which is what lets
:func:`~repro.obs.timeline.attribute_bottleneck` blame a noisy
neighbour *by name* instead of pointing at one aggregate NIC.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.hw.nic.config import NicHardConfig, NicSoftConfig
from repro.hw.nic.dagger_nic import DaggerNic
from repro.hw.nic.resources import estimate_resources
from repro.hw.platform import Machine
from repro.hw.switch import ToRSwitch


class VirtualizedFpga:
    """Factory for co-located NIC instances sharing one FPGA."""

    def __init__(self, machine: Machine, switch: ToRSwitch,
                 max_utilization: float = 0.5):
        self.machine = machine
        self.switch = switch
        self.max_utilization = max_utilization
        self.nics: Dict[str, DaggerNic] = {}
        #: NIC address -> tenant name (insertion order = display order).
        self._tenant_of: Dict[str, str] = {}

    def add_nic(
        self,
        address: str,
        hard: Optional[NicHardConfig] = None,
        soft: Optional[NicSoftConfig] = None,
        tenant: Optional[str] = None,
    ) -> DaggerNic:
        """Instantiate one tenant NIC; checks the FPGA still has room.

        ``tenant`` groups several instances under one observability
        namespace (defaults to the NIC's own address).
        """
        if address in self.nics:
            raise ValueError(f"NIC address {address!r} already in use")
        hard = hard or NicHardConfig()
        self._check_capacity(hard)
        nic = DaggerNic.on_machine(self.machine, self.switch, address, hard,
                                   soft)
        self.nics[address] = nic
        self._tenant_of[address] = tenant if tenant is not None else address
        return nic

    # -- per-tenant telemetry --------------------------------------------------

    def tenant_names(self) -> List[str]:
        """Distinct tenant names, in first-registration order."""
        seen: Dict[str, None] = {}
        for tenant in self._tenant_of.values():
            seen.setdefault(tenant, None)
        return list(seen)

    def tenant_nics(self, tenant: str) -> List[DaggerNic]:
        """All NIC instances belonging to one tenant."""
        return [self.nics[address]
                for address, owner in self._tenant_of.items()
                if owner == tenant]

    def enable_usage(self) -> None:
        """Exact busy-time accounting on every instance and every shared
        blue-region endpoint (idempotent)."""
        for nic in self.nics.values():
            nic.enable_usage()
        self.machine.fpga.enable_usage()

    def timeline_probes(self):
        """Per-tenant timeline probe set (Fig 14 observability).

        Yields ``(tenant, name, mode, fn)`` 4-tuples — the multi-tenant
        flavor of the ``timeline_probes()`` protocol — covering, per
        tenant: the fetch-FSM and flow-scheduler issue occupancies, the
        green-region pipeline and ethernet-port exact busy integrals
        (each averaged across the tenant's instances, so the windowed
        derivative is that tenant's mean utilization), plus ring depths,
        drop and RPC counters summed across the tenant's instances.
        Register with ``collector.add_source("nic", vfpga)`` to get
        series under ``nic.<tenant>.*``.
        """
        sim = self.machine.sim
        probes = []
        for tenant in self.tenant_names():
            nics = self.tenant_nics(tenant)
            count = len(nics)
            pipeline_usages = [nic.pipeline.enable_usage() for nic in nics]
            eth_usages = [nic.eth.enable_usage() for nic in nics]

            def fetch(nics=nics, count=count):
                return sum(nic.rx_path.issue_busy_ns
                           / max(1, nic.hard.num_flows)
                           for nic in nics) / count

            def sched(nics=nics, count=count):
                return sum(nic.tx_path.issue_busy_ns
                           / max(1, len(nic.tx_path.flow_fifos))
                           for nic in nics) / count

            def pipeline(nics=nics, usages=pipeline_usages, count=count):
                return sum(usage.busy_integral(sim.now, nic.pipeline._in_use)
                           for nic, usage in zip(nics, usages)) / count

            def eth(nics=nics, usages=eth_usages, count=count):
                return sum(usage.busy_integral(sim.now, nic.eth._port._in_use)
                           for nic, usage in zip(nics, usages)) / count

            def tx_depth(nics=nics):
                return sum(len(rings.tx_ring)
                           for nic in nics for rings in nic.flow_rings)

            def rx_depth(nics=nics):
                return sum(len(rings.rx_ring)
                           for nic in nics for rings in nic.flow_rings)

            def rx_drops(nics=nics):
                return sum(rings.rx_ring.drops
                           for nic in nics for rings in nic.flow_rings)

            def tx_rpcs(nics=nics):
                return sum(nic.monitor.tx_rpcs for nic in nics)

            def delivered(nics=nics):
                return sum(nic.monitor.delivered_rpcs for nic in nics)

            probes.extend([
                (tenant, "fetch_busy_ns", "counter", fetch),
                (tenant, "sched_busy_ns", "counter", sched),
                (tenant, "pipeline_busy_ns", "counter", pipeline),
                (tenant, "eth_busy_ns", "counter", eth),
                (tenant, "tx_ring_depth", "gauge", tx_depth),
                (tenant, "rx_ring_depth", "gauge", rx_depth),
                (tenant, "rx_ring_drops", "counter", rx_drops),
                (tenant, "tx_rpcs", "counter", tx_rpcs),
                (tenant, "delivered_rpcs", "counter", delivered),
            ])
        return probes

    def _check_capacity(self, new_hard: NicHardConfig) -> None:
        """Would adding this instance exceed the utilization budget?

        Sums green-region footprints of all resident instances plus the
        shared blue region.
        """
        configs = [nic.hard for nic in self.nics.values()] + [new_hard]
        luts = 0.0
        brams = 0.0
        for index, config in enumerate(configs):
            footprint = estimate_resources(
                config, include_blue_region=(index == 0)
            )
            luts += footprint.luts
            brams += footprint.m20k_blocks
        from repro.hw.nic.resources import DEVICE_LUTS, DEVICE_M20K

        if (luts / DEVICE_LUTS > self.max_utilization
                or brams / DEVICE_M20K > self.max_utilization):
            raise ValueError(
                f"adding NIC would exceed {self.max_utilization:.0%} FPGA "
                f"utilization ({len(configs)} instances)"
            )

    def __len__(self) -> int:
        return len(self.nics)
