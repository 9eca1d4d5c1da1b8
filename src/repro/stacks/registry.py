"""Name -> stack factory registry.

The harness selects stacks by name ("dagger", "linux-tcp", ...) and
describes every stack in the NIC's terms: a :class:`NicHardConfig` and a
:class:`NicSoftConfig`. Dagger owns real NIC hardware and takes both as
they are; a modeled baseline maps them onto its own model (see
:func:`make_stack`). A baseline's module is imported the first time its
class is looked up, so a Dagger-only run loads none of them.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Optional

import repro.stacks
from repro.hw.nic.config import NicHardConfig, NicSoftConfig
from repro.hw.platform import Machine
from repro.hw.switch import ToRSwitch
from repro.stacks.base import RpcStack
from repro.stacks.dagger import DaggerStack

#: stack name -> class name among :mod:`repro.stacks`' exports.
_CLASS_NAMES = {
    "dagger": "DaggerStack",
    "linux-tcp": "LinuxTcpStack",
    "dpdk": "DpdkStack",
    "erpc": "ERpcStack",
    "fasst-rdma": "FasstRdmaStack",
    "ix": "IxStack",
    "netdimm": "NetDimmStack",
}


class _StackClasses(Mapping):
    """Read-only name -> class table resolving each class on lookup."""

    def __getitem__(self, name: str) -> type:
        return getattr(repro.stacks, _CLASS_NAMES[name])

    def __iter__(self):
        return iter(_CLASS_NAMES)

    def __len__(self) -> int:
        return len(_CLASS_NAMES)


STACKS = _StackClasses()


def make_stack(
    name: str,
    machine: Machine,
    switch: ToRSwitch,
    address: str,
    hard: Optional[NicHardConfig] = None,
    soft: Optional[NicSoftConfig] = None,
) -> RpcStack:
    """Build a stack instance by name on the given machine.

    A modeled stack gets one port per NIC flow (``hard.num_flows``),
    steers requests with ``soft.load_balancer`` across its first
    ``soft.active_flows`` ports (all opened ports when 0), keeps its
    calibrated ring depth and ignores batching. Omitted configs take
    their defaults.
    """
    try:
        cls = STACKS[name]
    except KeyError:
        raise ValueError(
            f"unknown stack {name!r}; choose from {sorted(STACKS)}"
        ) from None
    hard = hard or NicHardConfig()
    soft = soft or NicSoftConfig()
    if cls is DaggerStack:
        return DaggerStack(machine, switch, address, hard=hard, soft=soft)
    stack = cls(machine.sim, machine.calibration, switch, address,
                num_ports=hard.num_flows, load_balancer=soft.load_balancer)
    stack.server_ports = list(range(soft.active_flows))
    return stack
