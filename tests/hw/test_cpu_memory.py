"""Tests for the memory-system model."""

from repro.config import MemoryParams
from repro.hw import MemorySystem
from repro.sim import Simulator


def test_memory_copy_cost_model():
    sim = Simulator()
    mem = MemorySystem(sim, MemoryParams(copy_setup_ns=100))

    def copier():
        yield from mem.copy_at(1000, 1e9)

    p = sim.process(copier())
    sim.run(until=p)
    assert sim.now == 100 + 1000  # setup plus 1000 B at 1 GB/s


def test_memory_copies_serialize():
    sim = Simulator()
    mem = MemorySystem(sim, MemoryParams(copy_setup_ns=0))
    done = []

    def copier(tag):
        yield from mem.copy_at(1000, 1e9)
        done.append((sim.now, tag))

    sim.process(copier("a"))
    sim.process(copier("b"))
    sim.run()
    assert done == [(1000, "a"), (2000, "b")]


def test_memory_copy_at_custom_bandwidth():
    sim = Simulator()
    mem = MemorySystem(sim, MemoryParams(copy_setup_ns=0))

    def copier():
        yield from mem.copy_at(1000, 0.5e9)

    p = sim.process(copier())
    sim.run(until=p)
    assert sim.now == 2000  # 1000 B at 0.5 GB/s
