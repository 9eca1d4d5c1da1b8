"""repro: a simulation-based reproduction of Dagger (ASPLOS 2021).

Dagger is an FPGA-based RPC acceleration fabric coupled to the host CPU over
a coherent NUMA memory interconnect (Intel UPI via CCI-P) rather than PCIe.
This package reproduces the paper's system and its entire evaluation on top
of a from-scratch discrete-event simulator:

- :mod:`repro.sim` -- the discrete-event simulation kernel.
- :mod:`repro.hw` -- hardware substrate: CPUs, caches, PCIe/UPI interconnects,
  the Dagger NIC pipeline, Ethernet and the ToR switch.
- :mod:`repro.rpc` -- the Dagger RPC framework: IDL + code generator, client
  and server runtimes, threading models.
- :mod:`repro.stacks` -- pluggable end-host networking stacks (Dagger and the
  baselines it is compared against: Linux TCP, DPDK/eRPC, RDMA/FaSST, IX,
  NetDIMM).
- :mod:`repro.apps` -- the paper's applications: memcached, MICA KVS, and the
  DeathStarBench-style microservice graphs including the 8-tier Flight
  Registration service.
- :mod:`repro.workloads` -- workload and dataset generators.
- :mod:`repro.harness` -- experiment runners regenerating every table and
  figure of the paper's evaluation.

Every package exports its public names lazily (:func:`lazy_exports`): a run
imports only the modules it uses.
"""

import sys

__version__ = "1.0.0"


def lazy_exports(package, exports, submodules=()):
    """PEP 562 exports for ``package``: each name is imported on first use.

    ``exports`` maps a submodule, relative to ``package``, to the public
    names it defines; ``submodules`` are exported as modules. Returns
    ``(__all__, __getattr__, __dir__)`` for the package's ``__init__``. The
    first lookup of a name imports its submodule and binds the name in the
    package, so later lookups never reach ``__getattr__``.
    """
    where = {name: f"{package}.{module}"
             for module, names in exports.items() for name in names}
    where.update((name, f"{package}.{name}") for name in submodules)
    namespace = sys.modules[package].__dict__

    def __getattr__(name):
        try:
            module = where[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        # __import__, unlike importlib.import_module, is what
        # ``python -X importtime`` reports.
        __import__(module)
        value = sys.modules[module]
        if name not in submodules:
            value = getattr(value, name)
        namespace[name] = value
        return value

    def __dir__():
        return sorted(namespace.keys() | where.keys())

    return list(where), __getattr__, __dir__


__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "sim.kernel": ("Simulator",),
    "hw.platform": ("MachineConfig", "Machine"),
})
__all__.append("__version__")
