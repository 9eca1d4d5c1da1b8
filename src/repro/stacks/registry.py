"""Name -> stack factory registry.

The harness selects stacks by name ("dagger", "linux-tcp", ...). Dagger
needs a :class:`Machine` (it owns real NIC hardware); the modeled baselines
only need the simulator and a switch. A baseline's module is imported the
first time its class is looked up, so a Dagger-only run loads none of them.
"""

from __future__ import annotations

from collections.abc import Mapping

import repro.stacks
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
    **kwargs,
) -> RpcStack:
    """Build a stack instance by name on the given machine."""
    try:
        cls = STACKS[name]
    except KeyError:
        raise ValueError(
            f"unknown stack {name!r}; choose from {sorted(STACKS)}"
        ) from None
    if cls is DaggerStack:
        return DaggerStack(machine, switch, address, **kwargs)
    return cls(machine.sim, machine.calibration, switch, address, **kwargs)
