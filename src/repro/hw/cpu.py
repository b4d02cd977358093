"""CPU core model.

Software activities that contend for processor time (packet dispatcher
threads, the bridge thread, guest VCPUs) acquire a core for the duration
of each burst of work.  The model deliberately keeps scheduling simple —
FIFO per-core — because the paper's evaluation pins its threads and
measures with otherwise-idle machines.
"""

from __future__ import annotations


from ..config import CPUParams
from ..sim import Resource, Simulator

__all__ = ["Core", "CPU"]


class Core:
    """One processor core; a unit-capacity resource plus busy accounting."""

    def __init__(self, sim: Simulator, index: int, name: str = "core"):
        self.sim = sim
        self.index = index
        self.name = f"{name}{index}"
        self._res = Resource(sim, capacity=1, name=self.name)
        self.busy_ns = 0

    def execute(self, duration_ns: int):
        """Generator: occupy this core for ``duration_ns``."""
        yield self._res.request()
        try:
            yield self.sim.timeout(duration_ns)
            self.busy_ns += duration_ns
        finally:
            self._res.release()

    @property
    def idle(self) -> bool:
        return self._res.available > 0


class CPU:
    """A socket's worth of cores."""

    def __init__(self, sim: Simulator, params: CPUParams, name: str = "cpu"):
        self.sim = sim
        self.params = params
        self.name = name
        self.cores = [Core(sim, i, name=f"{name}.core") for i in range(params.cores)]

    def __len__(self) -> int:
        return len(self.cores)

    def core(self, index: int) -> Core:
        return self.cores[index]

    def utilization(self, elapsed_ns: int) -> float:
        """Aggregate busy fraction across cores over ``elapsed_ns``."""
        if elapsed_ns <= 0:
            return 0.0
        return sum(c.busy_ns for c in self.cores) / (elapsed_ns * len(self.cores))
