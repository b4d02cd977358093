"""Palacios virtio-net virtual NIC (Sect. 4.4).

The virtio NIC is the guest-visible network device.  Its transmit ring
(TXQ) and receive ring (RXQ) are bounded stores; a registered *backend*
(the VNET/P core, or any object with the same interface) consumes
transmitted packets and produces received ones.

Exit behaviour is the crux of the paper's two dispatch modes:

* **guest-driven** — every TX kick causes a VM exit whose handler runs
  the packet dispatch inline; every RX packet raises an interrupt.
* **VMM-driven** — kicks are suppressed (`suppress_kicks`), a dispatcher
  thread polls the TXQ, and RX interrupts are naturally batched: one
  injection wakes the guest, which then drains the whole ring backlog.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Generator, Optional

from ..obs.context import Observability
from ..obs.span import (
    STAGE_GUEST_WAKE,
    STAGE_VIRTIO_RX,
    STAGE_VIRTIO_TX,
    STAGE_VMENTRY,
    STAGE_VMEXIT,
)
from ..proto.ethernet import EthernetFrame
from ..proto.stack import Stack
from ..sim import PacketStage, Signal, Store

if TYPE_CHECKING:  # pragma: no cover
    from .vmm import VirtualMachine

__all__ = ["VirtioNIC"]


class VirtioNIC(PacketStage):
    """Virtio network device; satisfies the stack's NetDevice duck type."""

    COUNTERS = (
        "irq_injections", "full_irq_wakeups", "tx_packets", "rx_packets", "rx_drops",
        "tx_kicks",
    )

    def __init__(self, vm: "VirtualMachine", mac: str, mtu: int = 9000):
        self._init_stage(vm.sim, f"{vm.name}.virtio{len(vm.virtio_nics)}")
        self.vm = vm
        self.mac = mac
        self.mtu = mtu
        params = vm.vmm.virtio_params
        self.params = params
        self.vmm_params = vm.vmm.params
        # Hand-off to the guest stack after rx descriptor processing.
        self.guest_rx = self.make_port("guest_rx")
        self.txq: Store = Store(self.sim, capacity=params.ring_size, name=f"{self.name}.txq")
        self.rxq: Store = Store(self.sim, capacity=params.ring_size, name=f"{self.name}.rxq")
        self.stack: Optional[Stack] = None
        # Backend hooks, registered by the VNET/P core (Sect. 4.4: a virtual
        # NIC must register with VNET/P before use).
        self._kick_handler: Optional[Callable[["VirtioNIC"], Generator]] = None
        self._ever_registered = False
        self.suppress_kicks = False
        self._irq = Signal(self.sim, f"{self.name}.irq")
        self.obs = Observability.of(self.sim)
        metrics = self.obs.metrics
        prefix = f"palacios.virtio.{self.name}"
        self.irq_injections = self.full_irq_wakeups = 0
        self.tx_packets = self.rx_packets = self.rx_drops = self.tx_kicks = 0
        metrics.publish(prefix, self)
        # Ring occupancy as a time-weighted gauge: set with timestamps so
        # time_avg() reads true mean depth, not the last sampled value.
        self._rxq_depth = metrics.gauge(f"{prefix}.rxq_depth")
        self.sim.process(self._guest_rx_loop(), name=f"{self.name}.rxloop")

    # -- registration -----------------------------------------------------------
    def bind(self, stack: Stack, default: bool = True) -> None:
        self.stack = stack
        self.guest_rx.rebind(lambda frame: stack.rx_frame(self, frame))
        stack.add_device(self, default=default)

    def register_backend(self, kick_handler: Callable[["VirtioNIC"], Generator]) -> None:
        """Register packet-dispatch callbacks (VNET/P core attach)."""
        self._kick_handler = kick_handler
        self._ever_registered = True

    @property
    def registered(self) -> bool:
        return self._kick_handler is not None

    # -- guest transmit path (runs in guest/VCPU context) -----------------------
    def send_blocking(self, frame: EthernetFrame):
        """Generator: guest driver queues a frame and (maybe) kicks."""
        if frame.payload_size > self.mtu:
            raise ValueError(
                f"{self.name}: frame payload {frame.payload_size} B > MTU {self.mtu}"
            )
        if self._kick_handler is None and not self._ever_registered:
            raise RuntimeError(f"{self.name}: no backend registered with VNET/P")
        # A detached-but-previously-registered NIC (mid-migration) queues
        # frames in the ring; the new core drains them after reattachment.
        params = self.params
        spans = self.obs.spans
        span = spans.open(
            STAGE_VIRTIO_TX, who=self.name, where="guest", flow_of=frame
        ) if spans.enabled else None
        try:
            yield params.guest_driver_tx_ns + params.per_descriptor_ns
        finally:
            if span is not None:
                spans.close(span)
        yield self.txq.put(frame)
        self.tx_packets += 1
        if not self.suppress_kicks:
            # I/O port write -> VM exit; the kick handler (packet dispatch in
            # guest-driven mode, a cheap wakeup in VMM-driven mode) runs
            # inside the exit, stalling this VCPU.
            self.tx_kicks += 1
            self.vm.vmm.exits_virtio_kick += 1
            span = spans.open(
                STAGE_VMEXIT, who=self.name, where="vmm", flow_of=frame
            ) if spans.enabled else None
            try:
                yield self.vmm_params.exit_ns + params.kick_ns
            finally:
                if span is not None:
                    spans.close(span)
            handler = self._kick_handler
            if handler is not None:  # may detach mid-send (VM migration)
                yield from handler(self)
            span = spans.open(
                STAGE_VMENTRY, who=self.name, where="vmm", flow_of=frame
            ) if spans.enabled else None
            try:
                yield self.vmm_params.entry_ns
            finally:
                if span is not None:
                    spans.close(span)

    # -- VMM-side receive path (called from dispatcher context) ----------------
    def deliver_to_guest(self, frame: EthernetFrame) -> bool:
        """Place a frame in the RXQ; returns False if the ring overflowed."""
        if not self.rxq.try_put(frame):
            self.rx_drops += 1
            return False
        self._rxq_depth.set(len(self.rxq.items), now_ns=self.sim.now)
        return True

    # PacketStage entry point: the VNET/P core pushes delivered frames here.
    ingress = deliver_to_guest

    def raise_irq(self) -> None:
        """Interrupt injection request (the injection cost itself is charged
        by the dispatcher; the guest-side exit/entry is charged in the rx
        loop when it wakes)."""
        self.irq_injections += 1
        self._irq.fire()

    # -- guest receive loop ------------------------------------------------------
    def _guest_rx_loop(self):
        """Guest interrupt handler + NAPI-style ring drain.

        One wakeup (interrupt) costs a guest exit/entry plus injection
        bookkeeping; the backlog present at wakeup is then drained at
        per-descriptor cost, which is what makes VMM-driven mode cheap at
        high packet rates.
        """
        params = self.params
        vmm_params = self.vmm_params
        spans = self.obs.spans
        last_work = 0
        while True:
            if not self.rxq.items:
                yield self._irq.wait()
                # Interrupt delivery: vector injection always costs an
                # exit/entry; waking the halted VCPU on top of that is only
                # paid after the guest has actually gone idle (back-to-back
                # interrupts find it still polling, NAPI-style).
                cost = (
                    vmm_params.exit_ns
                    + vmm_params.interrupt_inject_ns
                    + vmm_params.entry_ns
                )
                if self.sim.now - last_work > params.irq_coalesce_ns:
                    cost += params.irq_wakeup_ns
                    self.full_irq_wakeups += 1
                span = spans.open(
                    STAGE_GUEST_WAKE, who=self.name, where="vmm"
                ) if spans.enabled else None
                try:
                    yield cost
                finally:
                    if span is not None:
                        spans.close(span)
            # NAPI batch: one wakeup drains the whole backlog, one frame per
            # descriptor charge.  The ring is popped frame-by-frame (not
            # bulk-drained) so concurrent deliveries observe the true ring
            # occupancy — that occupancy gates interrupt-injection charges.
            frame = self.rxq.try_get()
            if frame is None:
                continue
            self._rxq_depth.set(len(self.rxq.items), now_ns=self.sim.now)
            span = spans.open(
                STAGE_VIRTIO_RX, who=self.name, where="guest", flow_of=frame
            ) if spans.enabled else None
            try:
                yield params.guest_driver_rx_ns + params.per_descriptor_ns
            finally:
                if span is not None:
                    spans.close(span)
            self.rx_packets += 1
            last_work = self.sim.now
            self.guest_rx.push(frame)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<VirtioNIC {self.name} mtu={self.mtu}>"
