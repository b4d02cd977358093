"""Physical NIC model.

A :class:`PhysicalNIC` owns a transmit queue and a serializer process
(the wire can carry one frame at a time per direction), and a receive
path that charges descriptor-ring cost serially and interrupt/wakeup
latency in parallel (interrupt delay is latency, not occupancy — frames
arriving back-to-back are coalesced by real NICs).

Frames are duck-typed: anything with ``size`` (payload bytes on the
wire, excluding the link header accounted by ``NICParams``), ``src`` and
``dst`` (link-layer addresses; used by switches) can be transported.

The NIC is a :class:`~repro.sim.pipeline.PacketStage` with two ports:
``tx`` (to the attached medium — link or switch port) and ``rx`` (to
the host driver).  Harnesses that interpose on a NIC (pcap taps, chaos
stages) wrap and restore those ports' sinks with ``Port.rebind``.
"""

from __future__ import annotations

from typing import Any

from ..config import NICParams
from ..obs.context import Observability
from ..obs.span import STAGE_NIC_RX, STAGE_NIC_TX
from ..sim import PacketStage, Simulator, Store

__all__ = ["PhysicalNIC"]


class PhysicalNIC(PacketStage):
    """One physical network device attached to a link or switch port."""

    def __init__(
        self,
        sim: Simulator,
        params: NICParams,
        name: str = "nic",
    ):
        self._init_stage(sim, name)
        self.params = params
        self.txq: Store = Store(sim, capacity=params.tx_queue_frames, name=f"{name}.txq")
        self.obs = Observability.of(sim)
        # tx: frame fully serialized -> medium (link/switch ingress).
        # rx: ring + interrupt latency charged -> host driver.
        self.tx_port = self.make_port("tx")
        self.rx_port = self.make_port(
            "rx", spans=self.obs.spans, stage=STAGE_NIC_RX, who=name, where="host"
        )
        metrics = self.obs.metrics
        prefix = f"hw.nic.{name}"
        self._tx_bytes = metrics.counter(f"{prefix}.tx_bytes")
        self._rx_bytes = metrics.counter(f"{prefix}.rx_bytes")
        self._tx_frames = metrics.counter(f"{prefix}.tx_frames")
        self._rx_frames = metrics.counter(f"{prefix}.rx_frames")
        self._dropped_frames = metrics.counter(f"{prefix}.dropped_frames")
        sim.process(self._tx_loop(), name=f"{name}.tx")

    # -- counters (registry-backed, read-only views) -----------------------
    @property
    def tx_bytes(self) -> int:
        return self._tx_bytes.value

    @property
    def rx_bytes(self) -> int:
        return self._rx_bytes.value

    @property
    def tx_frames(self) -> int:
        return self._tx_frames.value

    @property
    def rx_frames(self) -> int:
        return self._rx_frames.value

    @property
    def dropped_frames(self) -> int:
        return self._dropped_frames.value

    # -- attachment --------------------------------------------------------
    @property
    def attached(self) -> bool:
        return self.tx_port.connected

    # -- transmit ----------------------------------------------------------
    def send(self, frame: Any) -> bool:
        """Queue a frame for transmission; returns False on tail drop."""
        if frame.payload_size > self.params.max_mtu:
            raise ValueError(
                f"frame payload of {frame.payload_size} B exceeds "
                f"{self.name} MTU {self.params.max_mtu}"
            )
        ok = self.txq.try_put(frame)
        if not ok:
            self._dropped_frames.inc()
        return ok

    def _tx_loop(self):
        params = self.params
        tx_port = self.tx_port
        while True:
            frame = yield self.txq.get()
            if not tx_port.connected:
                raise RuntimeError(f"NIC {self.name} transmitting while unattached")
            with self.obs.spans.span(
                STAGE_NIC_TX, who=self.name, where="host", flow_of=frame
            ):
                yield self.sim.timeout(
                    params.tx_ring_ns + params.serialize_ns(frame.size)
                )
            self._tx_bytes.inc(frame.size)
            self._tx_frames.inc()
            tx_port.push(frame)

    # -- receive -----------------------------------------------------------
    def deliver(self, frame: Any) -> None:
        """Called by the medium when a frame arrives at this NIC.

        Ring handling plus interrupt delay is latency, not occupancy, so
        the hand-off to the driver is a single latency-charged port push
        (no per-frame process).
        """
        self._rx_bytes.inc(frame.size)
        self._rx_frames.inc()
        params = self.params
        self.rx_port.push_after(
            frame, params.rx_ring_ns + params.rx_interrupt_delay_ns
        )

    # PacketStage entry point: the medium pushes arriving frames here.
    ingress = deliver

    def __repr__(self) -> str:  # pragma: no cover
        return f"<PhysicalNIC {self.name} ({self.params.name})>"
