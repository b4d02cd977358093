"""ping: ICMP round-trip latency measurement (Sect. 5.2, Fig. 9)."""

from __future__ import annotations

from dataclasses import dataclass

from ..harness.testbed import Endpoint
from ..sim import SampleStats

__all__ = ["PingResult", "run_ping"]


@dataclass
class PingResult:
    """Round-trip latency statistics for one payload size."""

    data_size: int
    count: int
    rtt_ns: SampleStats

    @property
    def avg_rtt_us(self) -> float:
        return self.rtt_ns.mean / 1_000

    @property
    def min_rtt_us(self) -> float:
        return self.rtt_ns.min / 1_000

    @property
    def max_rtt_us(self) -> float:
        return self.rtt_ns.max / 1_000


def run_ping(
    src: Endpoint,
    dst: Endpoint,
    data_size: int = 56,
    count: int = 100,
    interval_ns: int = 1_000_000,
) -> PingResult:
    """Ping ``dst`` from ``src`` ``count`` times; runs the simulation.

    The default 1 ms inter-ping interval keeps the path quiescent between
    probes, as ping(8) does (the paper averages 100 measurements).
    """
    sim = src.stack.sim
    stats = SampleStats()

    def pinger():
        for _ in range(count):
            rtt = yield from src.stack.ping(dst.ip, data_size=data_size)
            stats.add(rtt)
            yield interval_ns
        return stats

    proc = sim.process(pinger(), name="ping")
    sim.run(until=proc)
    return PingResult(data_size=data_size, count=count, rtt_ns=stats)
