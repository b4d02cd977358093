"""Simulated MPI: communicators, point-to-point messaging, matching.

Rank programs are generator functions taking a :class:`Communicator`;
:class:`MPIWorld` spawns one simulation process per rank and provides
the transport.  Message payloads are byte counts (plus optional
metadata), in keeping with the library-wide convention.

Point-to-point semantics follow MPI closely enough for the paper's
workloads: (source, tag) matching with ``ANY_SOURCE``/``ANY_TAG``
wildcards, non-blocking isend/irecv returning requests, and blocking
send/recv built on top.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Generator, Optional

from ..config import DEFAULT_MPI, MPIParams
from ..sim import Event, Signal, Simulator
from . import collectives

if TYPE_CHECKING:  # pragma: no cover
    from .transport import Transport

__all__ = ["ANY_SOURCE", "ANY_TAG", "Message", "Request", "Communicator", "MPIWorld"]

ANY_SOURCE = -1
ANY_TAG = -1


@dataclass(slots=True)
class Message:
    """One delivered MPI message."""

    src: int
    tag: int
    nbytes: int
    meta: Any = None
    dst: int = -1


class Request:
    """Handle for a non-blocking operation; wait() yields the result."""

    def __init__(self, event: Event):
        self.event = event

    @property
    def done(self) -> bool:
        return self.event.processed

    def wait(self):
        """Generator: block until the operation completes; returns value."""
        result = yield self.event
        return result


class _Mailbox:
    """Per-rank receive queue with (source, tag) matching."""

    def __init__(self, sim: Simulator):
        self.sim = sim
        self.pending: list[Message] = []
        self._arrival = Signal(sim, "mpi.arrival")

    def deliver(self, msg: Message) -> None:
        self.pending.append(msg)
        self._arrival.fire()

    def match(self, src: int, tag: int) -> Optional[Message]:
        for i, msg in enumerate(self.pending):
            if (src == ANY_SOURCE or msg.src == src) and (
                tag == ANY_TAG or msg.tag == tag
            ):
                return self.pending.pop(i)
        return None

    def recv(self, src: int, tag: int):
        """Generator: wait for a matching message."""
        while True:
            msg = self.match(src, tag)
            if msg is not None:
                return msg
            yield self._arrival.wait()


class Communicator:
    """An MPI communicator bound to one rank."""

    def __init__(self, world: "MPIWorld", rank: int):
        self.world = world
        self.rank = rank
        self.sim = world.sim

    @property
    def size(self) -> int:
        return self.world.size

    # -- point to point -------------------------------------------------------
    def send(self, dst: int, nbytes: int, tag: int = 0, meta: Any = None):
        """Generator: blocking send (returns when the transport accepts and
        the message is on its way; like MPI buffered-eager semantics)."""
        if not 0 <= dst < self.size:
            raise ValueError(f"rank {self.rank}: send to invalid rank {dst}")
        yield from self.world.transport.send(self.rank, dst, nbytes, tag, meta)

    def recv(self, src: int = ANY_SOURCE, tag: int = ANY_TAG):
        """Generator: blocking receive; returns the matched Message."""
        params = self.world.params
        yield params.overhead_ns
        msg = yield from self.world.mailbox(self.rank).recv(src, tag)
        return msg

    def isend(self, dst: int, nbytes: int, tag: int = 0, meta: Any = None) -> Request:
        proc = self.sim.process(self.send(dst, nbytes, tag, meta), name="mpi.isend")
        return Request(proc)

    def irecv(self, src: int = ANY_SOURCE, tag: int = ANY_TAG) -> Request:
        proc = self.sim.process(self.recv(src, tag), name="mpi.irecv")
        return Request(proc)

    def sendrecv(
        self,
        dst: int,
        send_bytes: int,
        src: int,
        send_tag: int = 0,
        recv_tag: int = ANY_TAG,
    ):
        """Generator: simultaneous send + receive (MPI_Sendrecv)."""
        req = self.isend(dst, send_bytes, tag=send_tag)
        msg = yield from self.recv(src, recv_tag)
        yield from req.wait()
        return msg

    def waitall(self, requests: list[Request]):
        """Generator: wait for all requests; returns their values."""
        results = []
        for req in requests:
            results.append((yield from req.wait()))
        return results

    # -- collectives (implemented in collectives.py) ---------------------------
    def barrier(self):
        yield from collectives.barrier(self)

    def bcast(self, nbytes: int, root: int = 0):
        yield from collectives.bcast(self, nbytes, root)

    def reduce(self, nbytes: int, root: int = 0):
        yield from collectives.reduce(self, nbytes, root)

    def allreduce(self, nbytes: int):
        yield from collectives.allreduce(self, nbytes)

    def allgather(self, nbytes_per_rank: int):
        yield from collectives.allgather(self, nbytes_per_rank)

    def alltoall(self, nbytes_per_pair: int):
        yield from collectives.alltoall(self, nbytes_per_pair)

    def gather(self, nbytes_per_rank: int, root: int = 0):
        yield from collectives.gather(self, nbytes_per_rank, root)

    def scatter(self, nbytes_per_rank: int, root: int = 0):
        yield from collectives.scatter(self, nbytes_per_rank, root)

    def reduce_scatter(self, nbytes_per_rank: int):
        yield from collectives.reduce_scatter(self, nbytes_per_rank)

    def scan(self, nbytes: int):
        yield from collectives.scan(self, nbytes)

    def compute(self, duration_ns: int):
        """Generator: local computation for ``duration_ns`` (skeleton apps)."""
        yield int(duration_ns)


class MPIWorld:
    """The job: ``size`` ranks over a transport."""

    def __init__(
        self,
        sim: Simulator,
        transport: Transport,
        size: int,
        params: Optional[MPIParams] = None,
    ):
        self.sim = sim
        self.transport = transport
        self.size = size
        self.params = params or DEFAULT_MPI
        self._mailboxes = [_Mailbox(sim) for _ in range(size)]
        transport.attach(self)

    def mailbox(self, rank: int) -> _Mailbox:
        return self._mailboxes[rank]

    def comm(self, rank: int) -> Communicator:
        return Communicator(self, rank)

    def launch(
        self, rank_fn: Callable[[Communicator], Generator], ranks: Optional[range] = None
    ) -> list:
        """Spawn one process per rank running ``rank_fn(comm)``."""
        procs = []
        for rank in ranks or range(self.size):
            comm = self.comm(rank)
            procs.append(self.sim.process(rank_fn(comm), name=f"mpi.rank{rank}"))
        return procs

    def run(self, rank_fn: Callable[[Communicator], Generator]) -> list:
        """Launch all ranks and run the simulation until they finish.

        Returns the per-rank results (rank_fn return values).
        """
        procs = self.launch(rank_fn)
        done = self.sim.all_of(procs)
        self.sim.run(until=done)
        return [p.value for p in procs]
