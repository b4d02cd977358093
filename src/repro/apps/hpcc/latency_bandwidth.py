"""HPCC latency-bandwidth benchmark (Sect. 5.4, Figs. 12 and 15).

Three components, as in the HPC Challenge b_eff suite:

* **ping-pong** — latency (8 B) and bandwidth (2 MB) between all
  distinct process pairs, averaged;
* **naturally ordered ring** — every process exchanges with its ring
  neighbours simultaneously (MPI_Sendrecv), ranks in natural order;
* **randomly ordered ring** — the same over randomly permuted rings,
  averaged over several permutations.

Ring bandwidth is reported per the paper: the per-process bandwidth
(total volume / processes / max time) multiplied back by the number of
processes.
"""

from __future__ import annotations

from dataclasses import dataclass

from ... import units
from ...mpi import MPIWorld
from ...mpi.transport import FlowTransport
from ...sim.rng import Rng

__all__ = ["HpccLatBw", "run_latency_bandwidth"]

LAT_BYTES = 8
BW_BYTES = 2_000_000
RING_REPS = 4
RANDOM_RINGS = 6


@dataclass
class HpccLatBw:
    """Results for one (configuration, process count) cell."""

    n_procs: int
    pingpong_lat_us: float
    pingpong_bw_MBps: float
    natural_ring_lat_us: float
    natural_ring_bw_MBps: float       # summed over processes (paper convention)
    random_ring_lat_us: float
    random_ring_bw_MBps: float


def _mean(values: list) -> float:
    """``numpy.mean(values)``, bit for bit, for the lists averaged here.

    A left-to-right sum over the count: exact for int ns totals far
    below 2**53, and numpy's own order for fewer than 8 floats (its
    pairwise sum adds short runs sequentially).  ``sum()`` compensates
    float rounding on Python 3.12+, so it could differ.
    """
    total = 0.0
    for value in values:
        total += value
    return total / len(values)


def _pingpong_phase(world: MPIWorld, pairs: list[tuple[int, int]], nbytes: int) -> float:
    """Average one-way time (ns) over the given pairs, run serially."""
    sim = world.sim
    times: list[int] = []

    def program(comm):
        for idx, (i, j) in enumerate(pairs):
            yield from comm.barrier()
            if comm.rank == i:
                start = sim.now
                yield from comm.send(j, nbytes, tag=idx)
                yield from comm.recv(j, idx)
                times.append((sim.now - start) // 2)
            elif comm.rank == j:
                yield from comm.recv(i, idx)
                yield from comm.send(i, nbytes, tag=idx)

    world.run(program)
    return _mean(times)


def _ring_phase(world: MPIWorld, order: list[int], nbytes: int) -> float:
    """Max per-process time (ns) for RING_REPS bidirectional ring rounds."""
    sim = world.sim
    n = len(order)
    pos = {rank: k for k, rank in enumerate(order)}
    finish: dict[int, int] = {}

    def program(comm):
        k = pos[comm.rank]
        right = order[(k + 1) % n]
        left = order[(k - 1) % n]
        yield from comm.barrier()
        start = sim.now
        for rep in range(RING_REPS):
            # Exchange with both neighbours each round (HPCC sends in both
            # ring directions).
            r1 = comm.isend(right, nbytes, tag=rep * 2)
            r2 = comm.isend(left, nbytes, tag=rep * 2 + 1)
            yield from comm.recv(left, rep * 2)
            yield from comm.recv(right, rep * 2 + 1)
            yield from comm.waitall([r1, r2])
        finish[comm.rank] = sim.now - start

    world.run(program)
    return max(finish.values()) / RING_REPS


def run_latency_bandwidth(
    make_world,
    n_procs: int,
    seed: int = 42,
) -> HpccLatBw:
    """Run the full latency-bandwidth suite.

    ``make_world`` builds a fresh MPIWorld for each phase (phases must not
    share simulators, since each run consumes its simulation).
    """
    rng = Rng(seed)
    all_pairs = [(i, j) for i in range(n_procs) for j in range(i + 1, n_procs)]
    # HPCC benchmarks a bounded subset of pairs on large runs.
    if len(all_pairs) > 64:
        idx = rng.choice(len(all_pairs), size=64, replace=False)
        pairs = [all_pairs[i] for i in idx]
    else:
        pairs = all_pairs

    lat_ns = _pingpong_phase(make_world(), pairs, LAT_BYTES)
    bw_ns = _pingpong_phase(make_world(), pairs, BW_BYTES)
    natural = list(range(n_procs))
    nat_lat_ns = _ring_phase(make_world(), natural, LAT_BYTES)
    nat_bw_ns = _ring_phase(make_world(), natural, BW_BYTES)
    rand_lats, rand_bws = [], []
    for _ in range(RANDOM_RINGS):
        order = rng.permutation(n_procs)
        rand_lats.append(_ring_phase(make_world(), order, LAT_BYTES))
        rand_bws.append(_ring_phase(make_world(), order, BW_BYTES))

    def ring_bw(per_round_ns: float) -> float:
        # Each process moves 2 x nbytes per round (both directions).
        per_proc = 2 * BW_BYTES / (per_round_ns / units.SECOND) / units.MB
        return per_proc * n_procs

    return HpccLatBw(
        n_procs=n_procs,
        pingpong_lat_us=lat_ns / 1_000,
        pingpong_bw_MBps=BW_BYTES / (bw_ns / units.SECOND) / units.MB,
        natural_ring_lat_us=nat_lat_ns / 1_000,
        natural_ring_bw_MBps=ring_bw(nat_bw_ns),
        random_ring_lat_us=_mean(rand_lats) / 1_000,
        random_ring_bw_MBps=ring_bw(_mean(rand_bws)),
    )


def flow_world(model, n_procs: int, ranks_per_node: int = 4) -> MPIWorld:
    """Standard cluster world: 4 HPCC processes per node (Sect. 5.4)."""
    from ...sim import Simulator

    sim = Simulator()
    n_nodes = (n_procs + ranks_per_node - 1) // ranks_per_node
    transport = FlowTransport(
        sim, n_nodes=n_nodes, model=model, ranks_per_node=ranks_per_node
    )
    return MPIWorld(sim, transport, n_procs)
