"""Layer profiler: host time and call counts split by ``repro`` module.

A layer is a group of ``repro`` modules. :func:`layer_of` maps a dotted
module name to its layer; every module under ``src/repro`` must match one
rule (the self-tests check this), so a new module forces a decision rather
than landing silently in some catch-all.

:class:`LayerProfile` runs a call under cProfile and reads the raw entries:

- ``calls[layer]`` counts Python calls, generator resumes included, of
  functions defined in the layer's modules. These counts repeat exactly
  from run to run.
- ``self_s[layer]`` is the layer's own traced time plus the time of every
  frame outside ``repro`` (the standard library, builtins, generated
  ``<string>`` code) charged to the nearest calling ``repro`` frame. Where
  such a frame has several callers, its time is split in proportion to the
  time each caller spent in it.
"""

from __future__ import annotations

import cProfile
import os
import sys
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

#: layer -> module patterns; "pkg.*" matches a package and everything in it.
LAYERS: Dict[str, Tuple[str, ...]] = {
    "sim.kernel": ("repro.sim", "repro.sim.kernel"),
    "sim.process": ("repro.sim.process",),
    "sim.resources": ("repro.sim.resources",),
    "sim.stats": ("repro.sim.stats",),
    "sim.distributions": ("repro.sim.distributions",),
    "sim.sharded": ("repro.sim.sharded",),
    "hw.nic": ("repro.hw.nic.*",),
    "hw.interconnect": ("repro.hw.interconnect.*",),
    "hw.cpu": ("repro.hw", "repro.hw.cpu", "repro.hw.platform",
               "repro.hw.cluster", "repro.hw.calibration"),
    "hw.cache": ("repro.hw.cache",),
    "hw.switch": ("repro.hw.switch", "repro.hw.ethernet"),
    "stacks": ("repro.stacks.*",),
    "rpc.client": ("repro.rpc.client",),
    "rpc.server": ("repro.rpc.server",),
    "rpc.transport": ("repro.rpc.transport", "repro.rpc.congestion"),
    "rpc.messages": ("repro.rpc", "repro.rpc.messages",
                     "repro.rpc.serialization", "repro.rpc.errors",
                     "repro.rpc.idl.*"),
    "obs.trace": ("repro.obs.trace", "repro.obs.breakdown"),
    "obs.timeline": ("repro.obs.timeline", "repro.obs.anomaly"),
    "obs.chrome_trace": ("repro.obs.chrome_trace",),
    "obs.metrics": ("repro.obs", "repro.obs.registry", "repro.obs.sketch",
                    "repro.obs.sinks"),
    "chaos": ("repro.chaos.*",),
    "apps": ("repro.apps.*",),
    "workloads": ("repro.workloads.*",),
    "harness": ("repro", "repro.__main__", "repro.harness.*"),
}

#: Layers that must record zero calls unless the workload turns them on.
OFF_BY_DEFAULT = ("obs.trace", "obs.timeline", "obs.chrome_trace",
                  "obs.metrics", "chaos", "rpc.transport")


def layer_of(module: str) -> Optional[str]:
    """The layer a dotted ``repro`` module belongs to, or None."""
    for layer, patterns in LAYERS.items():
        for pattern in patterns:
            if pattern.endswith(".*"):
                package = pattern[:-2]
                if module == package or module.startswith(package + "."):
                    return layer
            elif module == pattern:
                return layer
    return None


def module_of(filename: str, src_root: str) -> Optional[str]:
    """Dotted module name of a source file under ``src_root``, else None."""
    prefix = os.path.join(src_root, "repro") + os.sep
    if not filename.startswith(prefix) or not filename.endswith(".py"):
        return None
    parts = os.path.relpath(filename, src_root)[:-3].split(os.sep)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


class _ForkGuard:
    """Stops an active profiler in forked children.

    Shard workers are forked from the profiled coordinator and would
    otherwise inherit its profiler and run several times slower.
    """

    active: Optional[cProfile.Profile] = None
    _registered = False

    @classmethod
    def install(cls, profiler: cProfile.Profile) -> None:
        if not cls._registered:
            os.register_at_fork(after_in_child=cls._after_fork)
            cls._registered = True
        cls.active = profiler

    @classmethod
    def _after_fork(cls) -> None:
        if cls.active is not None:
            cls.active.disable()
            cls.active = None
        sys.setprofile(None)


class LayerProfile:
    """One profiled call, aggregated by layer."""

    def __init__(self, src_root: str):
        self.src_root = src_root
        self.calls: Dict[str, int] = {layer: 0 for layer in LAYERS}
        self.self_s: Dict[str, float] = {layer: 0.0 for layer in LAYERS}
        #: Time in frames outside repro with no repro caller (the
        #: benchmark's own frames).
        self.unattributed_s = 0.0
        self.entries: List[Any] = []

    def run(self, fn: Callable[[], Any]) -> Any:
        profiler = cProfile.Profile()
        _ForkGuard.install(profiler)
        try:
            profiler.enable()
            try:
                result = fn()
            finally:
                profiler.disable()
        finally:
            _ForkGuard.active = None
        self.entries = profiler.getstats()
        self._aggregate()
        return result

    def builtin_time(self, label: str) -> float:
        """Total own time of builtin entries whose label contains
        ``label``."""
        return sum(entry.inlinetime for entry in self.entries
                   if isinstance(entry.code, str) and label in entry.code)

    def function_time(self, filename_end: str, name: str) -> float:
        """Total inclusive time of Python functions ``name`` defined in a
        file whose path ends with ``filename_end``."""
        return sum(entry.totaltime for entry in self.entries
                   if not isinstance(entry.code, str)
                   and entry.code.co_name == name
                   and entry.code.co_filename.endswith(filename_end))

    def _aggregate(self) -> None:
        layers: Dict[int, Optional[str]] = {}
        for entry in self.entries:
            code = entry.code
            layer = None
            if not isinstance(code, str):
                module = module_of(code.co_filename, self.src_root)
                if module is not None:
                    layer = layer_of(module)
                    if layer is None:
                        raise ValueError(f"module {module} maps to no layer")
            layers[id(code)] = layer

        # callers[callee] = [(caller, own time under it, inclusive time)]
        callers: Dict[int, List[Tuple[int, float, float]]] = defaultdict(list)
        for entry in self.entries:
            for sub in entry.calls or ():
                if id(sub.code) != id(entry.code):
                    callers[id(sub.code)].append(
                        (id(entry.code), sub.inlinetime, sub.totaltime))

        # Where the time of each frame outside repro ends up: the share of
        # it that belongs to each layer, found by walking caller edges up
        # to the nearest repro frames (iterated so recursion converges).
        outside = [key for key, layer in layers.items() if layer is None]
        share: Dict[int, Dict[Optional[str], float]] = {k: {} for k in outside}
        for _ in range(64):
            for key in outside:
                edges = callers.get(key, ())
                total = sum(edge[2] for edge in edges)
                if total <= 0:
                    share[key] = {None: 1.0}
                    continue
                mix: Dict[Optional[str], float] = defaultdict(float)
                for caller, _own, inclusive in edges:
                    weight = inclusive / total
                    layer = layers.get(caller)
                    if layer is not None:
                        mix[layer] += weight
                    else:
                        for target, part in share.get(caller, {}).items():
                            mix[target] += weight * part
                share[key] = dict(mix)

        for entry in self.entries:
            key = id(entry.code)
            layer = layers[key]
            if layer is not None:
                self.calls[layer] += entry.callcount
                self.self_s[layer] += entry.inlinetime
                continue
            edges = callers.get(key)
            if not edges:
                self.unattributed_s += entry.inlinetime
                continue
            for caller, own, _inclusive in edges:
                layer = layers.get(caller)
                if layer is not None:
                    self.self_s[layer] += own
                    continue
                parts = share.get(caller) or {None: 1.0}
                norm = sum(parts.values())
                for target, part in parts.items():
                    if target is None:
                        self.unattributed_s += own * part / norm
                    else:
                        self.self_s[target] += own * part / norm
