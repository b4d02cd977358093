"""MPI transports.

Two fidelity levels (see DESIGN.md):

* :class:`SocketTransport` — messages ride TCP connections over the full
  simulated stack (native or VNET/P), one persistent connection per host
  pair, like OpenMPI's TCP BTL.  Used for the two-node IMB benchmarks so
  MPI results inherit the packet-level behaviour directly.
* :class:`FlowTransport` — a calibrated latency/bandwidth/contention
  model (``alpha`` + size/``beta``, with per-node tx/rx serialization)
  whose parameters are *measured from* SocketTransport runs.  Used for
  the 6-node HPCC and NAS benchmarks where packet-level simulation of
  gigabytes of traffic would be prohibitive.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Optional, Protocol

from ..config import DEFAULT_MPI, MPIParams
from ..proto.tcp import TcpMessageChannel
from ..sim import Resource, Simulator
from .api import Message

if TYPE_CHECKING:  # pragma: no cover
    from ..harness.testbed import Endpoint
    from .api import MPIWorld

__all__ = ["Transport", "SocketTransport", "FlowTransport", "FlowModel"]

MPI_PORT_BASE = 6200


class Transport(Protocol):
    """What a transport provides to the MPI world."""

    def attach(self, world: "MPIWorld") -> None: ...

    def send(self, src: int, dst: int, nbytes: int, tag: int, meta: Any):
        """Generator: move one message from rank ``src`` to rank ``dst``."""
        ...


def _copy_ns(nbytes: int, bw_Bps: float) -> int:
    return int(round(nbytes * 1e9 / bw_Bps))


class SocketTransport:
    """MPI over TCP connections through the simulated stack.

    ``rank_map[i]`` gives the endpoint index hosting rank ``i`` (several
    ranks per VM/host, as in the paper's HPCC runs with 4 processes per
    node).  Intra-node messages use a shared-memory cost model instead of
    the network.
    """

    def __init__(
        self,
        endpoints: list["Endpoint"],
        rank_map: Optional[list[int]] = None,
        params: Optional[MPIParams] = None,
    ):
        self.endpoints = endpoints
        self.params = params or DEFAULT_MPI
        self.sim: Simulator = endpoints[0].stack.sim
        self.rank_map = rank_map  # filled at attach if None
        self.world: Optional["MPIWorld"] = None
        # (local_ep, remote_ep) -> (channel, lock)
        self._channels: dict[tuple[int, int], tuple[Any, Resource]] = {}
        self._listeners_started = False

    # -- wiring ------------------------------------------------------------------
    def attach(self, world: "MPIWorld") -> None:
        self.world = world
        if self.rank_map is None:
            if world.size % len(self.endpoints) != 0:
                raise ValueError(
                    f"{world.size} ranks do not divide over {len(self.endpoints)} endpoints"
                )
            per = world.size // len(self.endpoints)
            self.rank_map = [r // per for r in range(world.size)]
        if len(self.rank_map) != world.size:
            raise ValueError("rank_map length != world size")
        if not self._listeners_started:
            self._start_listeners()
            self._listeners_started = True

    def _ep_index(self, stack_ip: str) -> int:
        for i, ep in enumerate(self.endpoints):
            if ep.ip == stack_ip:
                return i
        raise KeyError(f"no endpoint with ip {stack_ip}")

    def _start_listeners(self) -> None:
        for i, ep in enumerate(self.endpoints):
            listener = ep.stack.tcp_listen(MPI_PORT_BASE + i)

            def accept_loop(listener=listener, i=i):
                while True:
                    conn = yield from listener.accept()
                    j = self._ep_index(conn.remote_ip)
                    channel = TcpMessageChannel(conn)
                    lock = Resource(self.sim, 1, name=f"mpi.ch{i}-{j}")
                    self._channels[(i, j)] = (channel, lock)
                    self.sim.process(self._rx_pump(channel), name=f"mpi.rx{i}<-{j}")

            self.sim.process(accept_loop(), name=f"mpi.accept{i}")

    def _channel(self, src_ep: int, dst_ep: int):
        """Generator: get or lazily dial the channel src_ep -> dst_ep."""
        entry = self._channels.get((src_ep, dst_ep))
        if entry is None:
            conn = yield from self.endpoints[src_ep].stack.tcp_connect(
                self.endpoints[dst_ep].ip, MPI_PORT_BASE + dst_ep
            )
            channel = TcpMessageChannel(conn)
            lock = Resource(self.sim, 1, name=f"mpi.ch{src_ep}-{dst_ep}")
            entry = (channel, lock)
            self._channels[(src_ep, dst_ep)] = entry
            self.sim.process(self._rx_pump(channel), name=f"mpi.rx{src_ep}<-{dst_ep}")
        return entry

    # -- data path ------------------------------------------------------------------
    def send(self, src: int, dst: int, nbytes: int, tag: int, meta: Any):
        params = self.params
        msg = Message(src=src, tag=tag, nbytes=nbytes, meta=meta, dst=dst)
        yield params.overhead_ns + _copy_ns(nbytes, self._copy_bw(self.rank_map[src]))
        src_ep, dst_ep = self.rank_map[src], self.rank_map[dst]
        if src_ep == dst_ep:
            # Shared-memory BTL: latency + one copy through the shm segment.
            yield params.shm_latency_ns + _copy_ns(nbytes, params.shm_bw_Bps)
            self.world.mailbox(dst).deliver(msg)
            return
        channel, lock = yield from self._channel(src_ep, dst_ep)
        # One message at a time per socket (BTL serialization).
        yield lock.request()
        try:
            yield from channel.send_message(msg, max(1, nbytes))
        finally:
            lock.release()

    def _copy_bw(self, ep_index: int) -> float:
        """Guest-side copies run below native streaming bandwidth: they
        contend with the VMM's in-flight packet copies."""
        if self.endpoints[ep_index].is_virtual:
            return self.params.copy_bw_virtual_Bps
        return self.params.copy_bw_Bps

    def _rx_pump(self, channel):
        """Drain a channel into mailboxes, charging receive-side copies."""
        while True:
            try:
                msg: Message = yield from channel.recv_message()
            except EOFError:
                return
            yield _copy_ns(msg.nbytes, self._copy_bw(self.rank_map[msg.dst]))
            self.world.mailbox(msg.dst).deliver(msg)


@dataclass(frozen=True)
class FlowModel:
    """Calibrated flow parameters for one network configuration.

    Frozen and compared by value, so a model can key a cache of results
    derived from it.
    """

    name: str
    alpha_ns: int
    beta_Bps: float
    link_bps: float
    virtual: bool = False  # endpoints are guests (copies run slower)
    # Incast degradation: when several flows converge on one node, a
    # virtualized receive path (single dispatcher, virtio ring bounce)
    # loses efficiency that native NIC flow-steering retains.  It only
    # bites when that receive path — not the wire — is the bottleneck.
    fanin_penalty: float = 1.0

    def __post_init__(self):
        if self.beta_Bps <= 0 or self.link_bps <= 0:
            raise ValueError("flow model rates must be positive")
        object.__setattr__(self, "alpha_ns", int(self.alpha_ns))

    @property
    def rx_path_limited(self) -> bool:
        """True when beta is set by receive-side processing, not the link."""
        return self.beta_Bps < 0.85 * self.link_bps / 8

    def occupancy_ns(self, nbytes: int) -> int:
        """Per-stage occupancy of one message at the bottleneck rate."""
        return max(1, _copy_ns(nbytes, self.beta_Bps))

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<FlowModel {self.name} alpha={self.alpha_ns / 1000:.1f}us "
            f"beta={self.beta_Bps / 1e6:.0f}MB/s>"
        )


class FlowTransport:
    """Latency/bandwidth/contention model with per-node tx/rx serialization.

    A message holds its source node's tx engine for its occupancy, then
    (pipelined — the stages overlap for a single large message, exactly
    as packets pipeline in the real stack) holds the destination node's
    rx engine before delivery.  Streaming throughput per node is
    ``beta``; a single message's one-way time is ``alpha + size/beta``
    plus any queueing.
    """

    def __init__(
        self,
        sim: Simulator,
        n_nodes: int,
        model: FlowModel,
        ranks_per_node: int = 1,
        params: Optional[MPIParams] = None,
    ):
        self.sim = sim
        self.n_nodes = n_nodes
        self.model = model
        self.ranks_per_node = ranks_per_node
        self.params = params or DEFAULT_MPI
        self.world: Optional["MPIWorld"] = None
        self._tx = [Resource(sim, 1, name=f"flow.tx{i}") for i in range(n_nodes)]
        self._rx = [Resource(sim, 1, name=f"flow.rx{i}") for i in range(n_nodes)]
        self._copy_bw = (
            self.params.copy_bw_virtual_Bps if model.virtual else self.params.copy_bw_Bps
        )

    def attach(self, world: "MPIWorld") -> None:
        self.world = world
        if world.size > self.n_nodes * self.ranks_per_node:
            raise ValueError(
                f"{world.size} ranks exceed {self.n_nodes} nodes x {self.ranks_per_node}"
            )

    def node_of(self, rank: int) -> int:
        return rank // self.ranks_per_node

    def send(self, src: int, dst: int, nbytes: int, tag: int, meta: Any):
        params = self.params
        msg = Message(src=src, tag=tag, nbytes=nbytes, meta=meta, dst=dst)
        yield params.overhead_ns + _copy_ns(nbytes, self._copy_bw)
        ns, nd = self.node_of(src), self.node_of(dst)
        if ns == nd:
            yield params.shm_latency_ns + _copy_ns(nbytes, params.shm_bw_Bps)
            self.world.mailbox(dst).deliver(msg)
            return
        occ = self.model.occupancy_ns(nbytes)
        # Receive side runs concurrently, offset by the base latency, so a
        # single message's stages pipeline while back-to-back messages
        # serialize on both engines.
        self.sim.process(self._deliver(msg, dst, nd, occ), name="flow.deliver")
        yield self._tx[ns].request()
        try:
            yield occ
        finally:
            self._tx[ns].release()

    def _deliver(self, msg, dst_rank: int, dst_node: int, occ: int):
        yield self.model.alpha_ns
        rx = self._rx[dst_node]
        contended = len(rx._waiters) >= 1 or rx.in_use >= rx.capacity
        yield rx.request()
        try:
            if (
                contended
                and self.model.fanin_penalty > 1.0
                and self.model.rx_path_limited
            ):
                occ = int(occ * self.model.fanin_penalty)
            yield occ
        finally:
            rx.release()
        yield _copy_ns(msg.nbytes, self._copy_bw)
        self.world.mailbox(dst_rank).deliver(msg)
