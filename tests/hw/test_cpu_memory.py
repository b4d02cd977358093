"""Tests for the CPU core and memory-system models."""

import pytest

from repro.config import CPUParams, MemoryParams, XEON_X3430
from repro.hw import CPU, MemorySystem
from repro.sim import Simulator


def test_cpu_has_configured_cores():
    sim = Simulator()
    cpu = CPU(sim, XEON_X3430)
    assert len(cpu) == 4
    assert cpu.core(0).idle


def test_core_serializes_work():
    sim = Simulator()
    cpu = CPU(sim, CPUParams(cores=1))
    core = cpu.core(0)
    log = []

    def job(tag, dur):
        yield from core.execute(dur)
        log.append((sim.now, tag))

    sim.process(job("a", 100))
    sim.process(job("b", 100))
    sim.run()
    assert log == [(100, "a"), (200, "b")]
    assert core.busy_ns == 200


def test_cpu_utilization():
    sim = Simulator()
    cpu = CPU(sim, CPUParams(cores=2))

    def job(core):
        yield from core.execute(500)

    sim.process(job(cpu.core(0)))
    sim.run()
    assert cpu.utilization(500) == pytest.approx(0.5)
    assert cpu.utilization(0) == 0.0


def test_memory_copy_cost_model():
    p = MemoryParams(copy_bw_Bps=1e9, copy_setup_ns=100)
    assert p.copy_ns(1000) == 100 + 1000


def test_memory_copies_serialize():
    sim = Simulator()
    mem = MemorySystem(sim, MemoryParams(copy_bw_Bps=1e9, copy_setup_ns=0))
    done = []

    def copier(tag):
        yield from mem.copy(1000)
        done.append((sim.now, tag))

    sim.process(copier("a"))
    sim.process(copier("b"))
    sim.run()
    assert done == [(1000, "a"), (2000, "b")]
    assert mem.bytes_copied == 2000


def test_memory_copy_at_custom_bandwidth():
    sim = Simulator()
    mem = MemorySystem(sim, MemoryParams(copy_bw_Bps=6e9, copy_setup_ns=0))

    def copier():
        yield from mem.copy_at(1000, 0.5e9)

    p = sim.process(copier())
    sim.run(until=p)
    assert sim.now == 2000  # 1000 B at 0.5 GB/s
