"""Discrete-event simulation kernel.

A small, fast, from-scratch DES library in the style of SimPy: generator
coroutines are *processes*, they yield *events* (timeouts, resource grants,
store gets/puts, other processes) and are resumed when those events trigger.
Simulated time is integer nanoseconds throughout the repository.
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "kernel": ("Simulator", "Event", "Timeout", "Interrupt", "SimulationError"),
    "process": ("Process",),
    "resources": ("Resource", "Store", "QueueFullError", "Usage"),
    "stats": ("LatencyRecorder", "SummaryStats", "percentile"),
    "sharded": ("ShardedResult", "run_sharded"),
    "distributions": ("Distribution", "Constant", "Exponential", "LogNormal",
                      "Uniform", "Empirical", "Zipfian"),
})
