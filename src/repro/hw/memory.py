"""Memory-copy engine.

The paper attributes VNET/P's 10 Gbps large-message ceiling partly to
memory copy bandwidth (Sect. 5.3).  Copies inside one host share the
memory system, so concurrent copies serialize through this engine.
"""

from __future__ import annotations

from ..config import MemoryParams
from ..sim import Resource, Simulator

__all__ = ["MemorySystem"]


class MemorySystem:
    """Shared per-host memory-copy bandwidth."""

    def __init__(self, sim: Simulator, params: MemoryParams, name: str = "mem"):
        self.sim = sim
        self.params = params
        self.name = name
        self._res = Resource(sim, capacity=1, name=name)

    def copy_at(self, nbytes: int, bw_Bps: float):
        """Generator: copy at a caller-specified effective bandwidth.

        Used for paths whose copies are cache-cold or double-crossing
        (e.g. the VMM's TXQ->bridge copy) and therefore run well below
        streaming bandwidth, while still contending for the one memory
        system.
        """
        yield self._res.request()
        try:
            yield self.params.copy_setup_ns + int(round(nbytes * 1e9 / bw_Bps))
        finally:
            self._res.release()
