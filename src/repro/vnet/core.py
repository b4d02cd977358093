"""The VNET/P core: routing and dispatching raw Ethernet packets (Sect. 4.3).

The core intercepts every Ethernet packet from registered virtual NICs
and forwards it either to a VM on the same host (interface destination)
or to the outside world through the VNET/P bridge (link destination).

Dispatch runs in one of two contexts:

* **guest-driven** — inside the VM-exit handler of the TX kick, stalling
  the guest VCPU for the duration (lowest latency for sparse traffic);
* **VMM-driven** — in dedicated packet-dispatcher threads that poll the
  virtio rings (highest throughput for bulk traffic), with guest kicks
  suppressed.

Inbound packets from the bridge go through a receive queue served by
``n_dispatchers`` dispatcher threads (Fig. 4/5: multicore scaling).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..config import VnetMode, VnetTuning
from ..obs.context import Observability
from ..obs.span import (
    STAGE_COPY,
    STAGE_COPY_ASYNC,
    STAGE_DISPATCH,
    STAGE_INJECT,
)
from ..proto.ethernet import BROADCAST_MAC, EthernetFrame
from ..sim import CopyCharger, PacketStage, Simulator, Store
from .dispatcher import ModeController, YieldState
from .flowcache import FlowCache, FlowCacheEntry
from .heartbeat import HeartbeatFrame
from .node import VnetNode
from .overlay import DestType, InterfaceSpec, LinkSpec, RouteEntry
from .routing import NoRouteError, RoutingTable

if TYPE_CHECKING:  # pragma: no cover
    from ..host.machine import Host
    from ..palacios.virtio import VirtioNIC
    from .bridge import VnetBridge

__all__ = ["VnetCore"]


class VnetCore(VnetNode, PacketStage):
    """Per-host VNET/P core embedded in the Palacios VMM."""

    def __init__(
        self,
        sim: Simulator,
        host: "Host",
        tuning: Optional[VnetTuning] = None,
    ):
        self._init_stage(sim, f"{host.name}.vnet")
        self.host = host
        self.tuning = tuning or VnetTuning()
        self.costs = host.params.vnet_costs
        self._init_node(RoutingTable(self.costs, cache_enabled=self.tuning.routing_cache))
        # Per-flow fast path (ONCache-style, see repro.vnet.flowcache):
        # subscribes to routing changes so a compiled flow can never
        # outlive the route it was compiled from.
        self.flowcache = FlowCache(sim, self)
        # Hybrid fluid/packet fast path (repro.sim.fluid): registering
        # the core lets the region compile overlay paths through it and
        # subscribes fluid flows to this table's route changes.
        self.fluid_region = None
        if self.tuning.fluid:
            from .fluidpath import install_fluid

            self.fluid_region = install_fluid(sim, self)
        self.bridge: Optional["VnetBridge"] = None
        self.controllers: dict[str, ModeController] = {}
        self.rx_queue: Store = Store(sim, capacity=16384, name=f"{host.name}.vnet.rxq")
        # Inbound pipeline port: bridges (Linux UDP/TCP decap, Kitten
        # bridge VM) push unwrapped guest frames here; the sink feeds
        # the dispatcher rx queue.
        self.inbound = self.make_port("inbound")
        self.inbound.connect(self._accept_inbound)
        # Statistics live in the shared metrics registry under
        # ``vnet.core.<host>.*``; the attribute names below stay readable
        # as plain ints through the properties that follow.
        self.obs = Observability.of(sim)
        metrics = self.obs.metrics
        prefix = f"vnet.core.{host.name}"
        self._pkts_from_guest = metrics.counter(f"{prefix}.pkts_from_guest")
        self._pkts_to_guest = metrics.counter(f"{prefix}.pkts_to_guest")
        self._pkts_to_bridge = metrics.counter(f"{prefix}.pkts_to_bridge")
        self._pkts_dropped_no_route = metrics.counter(f"{prefix}.dropped_no_route")
        self._pkts_dropped_ring_full = metrics.counter(f"{prefix}.dropped_ring_full")
        self._guest_driven_dispatches = metrics.counter(
            f"{prefix}.guest_driven_dispatches"
        )
        self._vmm_driven_dispatches = metrics.counter(
            f"{prefix}.vmm_driven_dispatches"
        )
        # Dispatcher backlog as a time-weighted gauge (set with
        # timestamps so time_avg() reads mean depth, not last value).
        self._rxq_depth = metrics.gauge(f"{prefix}.rxq_depth")
        # Descriptor-frame copies are charged, never performed: the
        # charger accounts the single in-VMM copy (Sect. 4.7) against
        # the host memory system and counts the bytes.
        self.copier = CopyCharger(
            host.memory,
            self.costs.copy_bw_Bps,
            counter=metrics.counter(f"{prefix}.copied_bytes"),
        )
        # Optional observers (see repro.vnet.monitor).
        self.monitor = None
        host.vnet_core = self
        for i in range(self.tuning.n_dispatchers):
            sim.process(self._rx_dispatcher(i), name=f"{self.name}.rxd{i}")

    # -- statistics (registry-backed, read-only views) ---------------------------
    @property
    def pkts_from_guest(self) -> int:
        return self._pkts_from_guest.value

    @property
    def pkts_to_guest(self) -> int:
        return self._pkts_to_guest.value

    @property
    def pkts_to_bridge(self) -> int:
        return self._pkts_to_bridge.value

    @property
    def pkts_dropped_no_route(self) -> int:
        return self._pkts_dropped_no_route.value

    @property
    def pkts_dropped_ring_full(self) -> int:
        return self._pkts_dropped_ring_full.value

    @property
    def guest_driven_dispatches(self) -> int:
        return self._guest_driven_dispatches.value

    @property
    def vmm_driven_dispatches(self) -> int:
        return self._vmm_driven_dispatches.value

    # -- configuration (driven by the control component) ------------------------
    def register_interface(self, spec: InterfaceSpec, nic: "VirtioNIC") -> None:
        """Register a virtual NIC with VNET/P; installs its mode
        controller, the kick handler backend and its tx dispatchers."""
        super().register_interface(spec, nic)
        ctl = self.controllers[spec.name] = ModeController(self.sim, nic, self.tuning)
        if self.fluid_region is not None:
            # A guest/VMM mode switch changes per-packet datapath costs,
            # so any analytic rate captured under the old mode is stale:
            # de-escalate at the exact switch instant.
            ctl.on_switch.append(self.fluid_region.on_mode_switch)
        nic.register_backend(self._make_kick_handler(spec.name))
        # One or more dispatcher threads per NIC (Fig. 4: idle cores can be
        # employed to raise packet-forwarding bandwidth).
        for i in range(self.tuning.n_dispatchers):
            self.sim.process(
                self._tx_dispatcher(spec.name), name=f"{self.name}.txd{i}.{spec.name}"
            )

    def remove_interface(self, name: str) -> "VirtioNIC":
        nic = super().remove_interface(name)
        # Wake any dispatcher blocked on the mode signal so it can exit.
        nic.suppress_kicks = False
        self.controllers.pop(name).mode_changed.fire()
        return nic

    def attach_bridge(self, bridge: "VnetBridge") -> None:
        self.bridge = bridge
        self.host.vnet_bridge = bridge

    def stats(self) -> dict:
        """Operational counters, as the control interface would expose them."""
        return {
            "pkts_from_guest": self.pkts_from_guest,
            "pkts_to_guest": self.pkts_to_guest,
            "pkts_to_bridge": self.pkts_to_bridge,
            "dropped_no_route": self.pkts_dropped_no_route,
            "dropped_ring_full": self.pkts_dropped_ring_full,
            "guest_driven_dispatches": self.guest_driven_dispatches,
            "vmm_driven_dispatches": self.vmm_driven_dispatches,
            "routing_entries": len(self.routing),
            "routing_cache_hit_rate": self.routing.cache_hit_rate,
            "flow_cache": self.flowcache.stats(),
            "links": sorted(self.links),
            "interfaces": sorted(self.interfaces),
            "modes": {
                name: ctl.mode.value for name, ctl in self.controllers.items()
            },
        }

    # -- guest TX path -------------------------------------------------------------
    def _make_kick_handler(self, if_name: str):
        def handler(nic: "VirtioNIC"):
            return self._on_kick(if_name, nic)

        return handler

    def _on_kick(self, if_name: str, nic: "VirtioNIC"):
        """Runs inside the TX-kick VM exit (guest VCPU stalled)."""
        ctl = self.controllers.get(if_name)
        if ctl is None:
            # The interface was unregistered (VM migrating away) while this
            # kick was in flight; the frame stays queued for the new core.
            yield self.sim.timeout(0)
            return
        if ctl.mode is VnetMode.GUEST_DRIVEN:
            # Batched ring drain: one VM exit dispatches every frame the
            # guest queued (and any that land while earlier ones process).
            while True:
                frames = nic.txq.get_batch()
                if not frames:
                    break
                for frame in frames:
                    ctl.note_packet()
                    self._guest_driven_dispatches.inc()
                    yield from self._dispatch(frame)
        else:
            # VMM-driven: the dispatcher thread owns the TXQ; the kick (if
            # one slipped in before suppression took effect) is a no-op.
            yield self.sim.timeout(0)

    def _tx_dispatcher(self, if_name: str):
        """Per-NIC transmit dispatcher thread (active in VMM-driven mode)."""
        nic = self.interfaces[if_name]
        ctl = self.controllers[if_name]
        ystate = YieldState(self.sim, self.tuning, base_wakeup_ns=self.costs.idle_wakeup_ns)
        # Single-dispatcher backlog drain, mirroring _rx_dispatcher.
        drain = self.tuning.n_dispatchers == 1
        while True:
            if self.interfaces.get(if_name) is not nic:
                return  # interface unregistered (VM migrated away)
            if ctl.mode is not VnetMode.VMM_DRIVEN:
                yield ctl.mode_changed.wait()
                continue
            blocked = len(nic.txq) == 0
            frame = yield nic.txq.get()
            while True:
                penalty = ystate.penalty(blocked)
                if blocked:
                    penalty += self.host.wakeup_noise_ns()
                if penalty:
                    with self.obs.spans.span(
                        STAGE_DISPATCH, who=self.name, where="vmm", flow_of=frame
                    ):
                        yield self.sim.timeout(penalty)
                ystate.note_work()
                ctl.note_packet()
                self._vmm_driven_dispatches.inc()
                yield from self._dispatch(frame)
                # note_packet above may have switched the controller back
                # to guest-driven, and the VM may have migrated away: the
                # drain must re-establish the outer loop's guards before
                # claiming another frame.
                if (
                    not drain
                    or ctl.mode is not VnetMode.VMM_DRIVEN
                    or self.interfaces.get(if_name) is not nic
                ):
                    break
                frame = nic.txq.try_get()
                if frame is None:
                    break
                blocked = False

    def _dispatch(self, frame: EthernetFrame, penalty: int = 0,
                  ystate: Optional[YieldState] = None):
        """Generator: route one frame and hand it onward.

        Guest frames come from the tx path with no ``ystate``; inbound
        frames carry the rx dispatcher's wakeup ``penalty``, merged into
        the dispatch charge (one timeout instead of two) while
        ``note_work_at`` keeps the adaptive idle clock on the unmerged
        instant, so the route lookup still happens at exactly
        now + penalty + dispatch_ns.
        """
        from_guest = ystate is None
        if from_guest:
            self._pkts_from_guest.inc()
            if self.monitor is not None:
                self.monitor.observe(frame.src, frame.dst, frame.size)
        broadcast = frame.dst == BROADCAST_MAC
        if not broadcast:
            hit = self.flowcache.lookup(frame.src, frame.dst)
            if hit is not None:
                yield from self._forward_cached(frame, hit, penalty, ystate)
                return
        with self.obs.spans.span(
            STAGE_DISPATCH, who=self.name, where="vmm", flow_of=frame
        ):
            if ystate is not None:
                ystate.note_work_at(self.sim.now + penalty)
            yield self.sim.timeout(penalty + self.costs.dispatch_ns)
            if not broadcast:
                try:
                    entry, cost = self.routing.lookup(frame.src, frame.dst)
                except NoRouteError:
                    self._pkts_dropped_no_route.inc()
                    return
                yield self.sim.timeout(cost)
        if broadcast:
            yield from self._broadcast(frame, from_guest)
        else:
            # An inbound packet may be destined for a local interface or
            # forwarded onward (overlay waypoint).
            self.flowcache.install(frame.src, frame.dst, entry)
            yield from self._forward(frame, entry)

    def _broadcast(self, frame: EthernetFrame, from_guest: bool):
        """Deliver a broadcast frame to every local interface; a guest's
        own broadcast skips its sender and is flooded to every link."""
        for mac, nic in self.if_by_mac.items():
            if not from_guest or mac != frame.src:
                yield from self._deliver_local(frame, nic)
        if from_guest:
            for link in self.links.values():
                yield from self._send_via_bridge(frame, link)

    def _forward(self, frame: EthernetFrame, entry: RouteEntry):
        if entry.dest_type is DestType.INTERFACE:
            nic = self.interfaces[entry.dest_name]
            yield from self._deliver_local(frame, nic)
        else:
            link = self.links[entry.dest_name]
            yield from self._send_via_bridge(frame, link)

    def _forward_cached(self, frame: EthernetFrame, hit: FlowCacheEntry,
                        penalty: int, ystate: Optional[YieldState]):
        """The compiled fast path: one merged charge, pre-resolved hand-off.

        ``hit.charge_ns`` equals the
        dispatch + warm-lookup charges of the full chain, collapsed into
        a single timeout, so simulated time is bit-identical while the
        kernel processes fewer events.  ``penalty``/``ystate`` mirror
        the rx dispatcher's wakeup accounting: the wakeup penalty is
        merged into the same timeout (one kernel event instead of two)
        and ``note_work_at`` pins the adaptive yield strategy's idle
        clock to the instant the unmerged chain would have noted work.
        """
        with self.obs.spans.span(
            STAGE_DISPATCH, who=self.name, where="vmm", flow_of=frame
        ):
            if ystate is not None:
                ystate.note_work_at(self.sim.now + penalty)
            yield self.sim.timeout(penalty + hit.charge_ns)
        if hit.nic is not None:
            yield from self._deliver_local(frame, hit.nic)
        else:
            yield from self._send_via_bridge(frame, hit.link)

    def _deliver_local(self, frame: EthernetFrame, nic: "VirtioNIC"):
        """Copy the packet into a local VM's virtio RXQ and notify it.

        With VNET/P+'s *cut-through forwarding* the dispatcher only peeks
        the header and reserves the ring slot; the body copy streams
        concurrently (still contending for the memory system).  With
        *optimistic interrupts* the irq is raised while the data is still
        moving, overlapping the guest's wakeup with the copy.
        """
        if self.tuning.cut_through:
            with self.obs.spans.span(
                STAGE_COPY, who=self.name, where="vmm", flow_of=frame
            ):
                yield self.sim.timeout(self.costs.cut_through_ns)
            if self.tuning.optimistic_interrupts:
                nic.raise_irq()  # guest starts waking while the copy streams
            self.sim.process(self._finish_local_copy(frame, nic), name=f"{self.name}.ct")
            return
        with self.obs.spans.span(
            STAGE_COPY, who=self.name, where="vmm", flow_of=frame
        ):
            yield from self.copier.charge(frame.size)
        yield from self._complete_delivery(frame, nic)

    def _finish_local_copy(self, frame: EthernetFrame, nic: "VirtioNIC"):
        """Overlapped tail of a cut-through delivery (own process)."""
        with self.obs.spans.span(
            STAGE_COPY_ASYNC, who=self.name, where="vmm", flow_of=frame
        ):
            yield from self.copier.charge(frame.size)
        yield from self._complete_delivery(frame, nic)

    def _complete_delivery(self, frame: EthernetFrame, nic: "VirtioNIC"):
        ring_was_empty = len(nic.rxq) == 0
        if nic.deliver_to_guest(frame):
            self._pkts_to_guest.inc()
            for name, inic in self.interfaces.items():
                if inic is nic:
                    self.controllers[name].note_packet()
                    break
            if ring_was_empty:
                # Interrupt injection work on the dispatching side (possibly
                # a cross-core IPI, Sect. 4.3).
                with self.obs.spans.span(
                    STAGE_INJECT, who=self.name, where="vmm", flow_of=frame
                ):
                    yield self.sim.timeout(self.host.params.vmm.interrupt_inject_ns)
            nic.raise_irq()
        else:
            self._pkts_dropped_ring_full.inc()

    def _send_via_bridge(self, frame: EthernetFrame, link: LinkSpec):
        """The single in-VMM copy (Sect. 4.7): TXQ -> bridge buffer.

        Under cut-through forwarding the bridge starts encapsulating while
        the body still streams: the copy leaves the dispatcher's serial
        path (but still occupies the memory system for contention).
        """
        if self.bridge is None:
            raise RuntimeError(f"{self.name}: no bridge attached for link {link.name!r}")
        if self.tuning.cut_through:
            with self.obs.spans.span(
                STAGE_COPY, who=self.name, where="vmm", flow_of=frame
            ):
                yield self.sim.timeout(self.costs.cut_through_ns)
            self.sim.process(
                self._shadow_copy(frame.size), name=f"{self.name}.ctcopy"
            )
        else:
            with self.obs.spans.span(
                STAGE_COPY, who=self.name, where="vmm", flow_of=frame
            ):
                yield from self.copier.charge(frame.size)
        self._pkts_to_bridge.inc()
        yield self.bridge.txq.put((frame, link))

    def _shadow_copy(self, nbytes: int):
        """Body copy streaming off the critical path (memory contention only)."""
        with self.obs.spans.span(STAGE_COPY_ASYNC, who=self.name, where="vmm"):
            yield from self.copier.charge(nbytes)

    # -- inbound path (from the bridge) -----------------------------------------------
    def _accept_inbound(self, frame: EthernetFrame) -> bool:
        """Inbound port sink: queue a frame for the rx dispatchers.

        Heartbeats are VNET control traffic: they are consumed here
        (feeding the monitor's liveness tracker) and never enter the
        guest-facing dispatch queue.
        """
        if frame.__class__ is HeartbeatFrame:
            if self.monitor is not None:
                self.monitor.note_heartbeat_from(frame.src_host_ip)
            return True
        if not self.rx_queue.try_put(frame):
            self._pkts_dropped_ring_full.inc()
            return False
        self._rxq_depth.set(len(self.rx_queue), now_ns=self.sim.now)
        return True

    # PacketStage entry point (what ``inbound`` is wired to).
    ingress = _accept_inbound

    def _rx_dispatcher(self, index: int):
        """Inbound packet dispatcher thread (one of ``n_dispatchers``)."""
        ystate = YieldState(self.sim, self.tuning, base_wakeup_ns=self.costs.idle_wakeup_ns)
        # With a single dispatcher, a non-empty queue after a frame
        # completes is drained synchronously (try_get) instead of paying
        # one kernel hand-off event per frame; with several dispatchers
        # the blocking get() arbitrates which thread picks up work, so
        # draining would change the concurrency the Fig. 4/5 scaling
        # scenarios measure.
        drain = self.tuning.n_dispatchers == 1
        rxq = self.rx_queue
        while True:
            blocked = len(rxq) == 0
            frame = yield rxq.get()
            while True:
                self._rxq_depth.set(len(rxq), now_ns=self.sim.now)
                penalty = ystate.penalty(blocked)
                if blocked:
                    penalty += self.host.wakeup_noise_ns()
                yield from self._dispatch(frame, penalty, ystate)
                if not drain:
                    break
                frame = rxq.try_get()
                if frame is None:
                    break
                blocked = False
