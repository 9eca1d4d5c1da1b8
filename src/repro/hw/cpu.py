"""CPU core and software-thread models.

A :class:`Core` is an out-of-order core with ``smt`` hardware thread slots
(2 on the paper's Broadwell Xeon). Software threads pinned to a core contend
for its slots; when two hardware threads are active simultaneously, each
op's cost inflates by the calibrated SMT slowdown (this is what makes 4
threads on 2 physical cores land at 42 Mrps instead of 49 in Fig 11).

CPU costs carry a small exponential jitter term modelling pipeline /
scheduling noise; it is what gives the simulated tail latencies their
realistic (non-degenerate) shape at low load.
"""

from __future__ import annotations

import random
from typing import Generator, Optional

from repro.hw.calibration import Calibration
from repro.sim.kernel import Simulator
from repro.sim.resources import Resource


class Core:
    """One physical core with SMT slots."""

    def __init__(
        self,
        sim: Simulator,
        calibration: Calibration,
        core_id: int,
        smt: int = 2,
        rng: Optional[random.Random] = None,
        llc_domain=None,
    ):
        if smt < 1:
            raise ValueError(f"smt must be >= 1, got {smt}")
        self.sim = sim
        self.calibration = calibration
        self.core_id = core_id
        self.smt = smt
        self.slots = Resource(sim, capacity=smt, name=f"core{core_id}")
        self.rng = rng or random.Random(core_id)
        # Shared-LLC interference domain (machine-wide); None -> no model.
        self.llc_domain = llc_domain
        self._active = 0
        self.busy_ns = 0  # accumulated busy time (utilization accounting)
        #: Straggler multiplier (chaos fault injection): every burst on
        #: this core scales by this factor. 1.0 = healthy; applied before
        #: the jitter draw so the RNG stream is unchanged when healthy.
        self.slowdown = 1.0

    @property
    def contended(self) -> bool:
        return self.slots.queue_length > 0

    def enable_usage(self):
        """Exact slot-occupancy accounting on this core (idempotent)."""
        return self.slots.enable_usage()

    def timeline_probes(self):
        """Timeline probe set: exact run-state integral + queue depth.

        ``busy_ns`` is the slot-occupancy integral normalized by ``smt``
        (its windowed derivative is the exact core utilization — unlike
        the legacy ``self.busy_ns``, which front-loads each burst at its
        start); ``runq`` is the instantaneous slot wait-queue depth.
        """
        usage = self.enable_usage()
        slots = self.slots
        sim = self.sim
        smt = self.smt
        return [
            ("busy_ns", "counter",
             lambda: usage.busy_integral(sim.now, slots._in_use) / smt),
            ("runq", "gauge", lambda: len(slots._waiters)),
        ]


class SoftwareThread:
    """A software thread pinned to a core.

    Thin wrapper: the thread's logic is a simulation process; every chunk of
    CPU work it does goes through :meth:`exec` so core contention and SMT
    effects apply. Statistics: ``ops`` counts completed exec calls.
    """

    def __init__(self, core: Core, name: str = ""):
        self.core = core
        self.name = name or f"thread@core{core.core_id}"
        self.ops = 0

    @property
    def sim(self) -> Simulator:
        return self.core.sim

    def begin_exec(self, cost_ns: int) -> int:
        """Account the start of a CPU burst; returns the scaled duration.

        Fast-path protocol for call sites too hot for the :meth:`exec`
        generator (one generator object per RPC per side adds up)::

            if not thread.core.slots.try_acquire():
                yield thread.core.slots.request()
            scaled = thread.begin_exec(cost_ns)
            try:
                yield scaled
            finally:
                thread.end_exec()

        Must be called only after the slot grant, and always paired with
        :meth:`end_exec`. Event sequence and RNG draws are identical to
        :meth:`exec`.
        """
        core = self.core
        core._active += 1
        calibration = core.calibration
        scaled = cost_ns
        if core._active >= 2:
            scaled = int(cost_ns * calibration.smt_slowdown)
        if core.llc_domain is not None:
            scaled = int(scaled * core.llc_domain.multiplier_for(self))
        if core.slowdown != 1.0:
            scaled = int(scaled * core.slowdown)
        mean = calibration.cpu_jitter_mean_ns
        if mean > 0:
            scaled += int(core.rng.expovariate(1.0 / mean))
        core.busy_ns += scaled
        return scaled

    def end_exec(self) -> None:
        """Finish a burst started with :meth:`begin_exec`."""
        core = self.core
        core._active -= 1
        core.slots.release()
        self.ops += 1

    def exec(self, cost_ns: int) -> Generator:
        """Occupy a hardware thread slot of the core for a ``cost_ns`` burst
        (scaled by :meth:`begin_exec`); hot call sites inline this."""
        if cost_ns < 0:
            raise ValueError(f"negative cost {cost_ns}")
        slots = self.core.slots
        if not slots.try_acquire():
            yield slots.request()
        scaled = self.begin_exec(cost_ns)
        try:
            yield scaled
        finally:
            self.end_exec()

    def mark_llc_heavy(self) -> None:
        """Flag this thread as LLC-trashing (slows everyone else, §5.6)."""
        if self.core.llc_domain is not None:
            self.core.llc_domain.mark_heavy(self)

    def __repr__(self) -> str:
        return f"SoftwareThread({self.name})"
