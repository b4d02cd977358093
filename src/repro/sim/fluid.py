"""Hybrid fluid/packet simulation: a flow-level fast path in the kernel.

Packet-level simulation spends hundreds of kernel events per round trip
of a steady bulk transfer whose behaviour is, for long stretches,
entirely predictable: a ttcp/fig8 stream that has reached its stable
window moves bytes at a constant rate set by its bottleneck.  This
module models such flows *analytically* — the classic fluid-model move
of ns-3-class simulators — while everything else stays packet-level:

* A :class:`FluidRegion` (one per :class:`~repro.sim.core.Simulator`)
  watches established TCP connections for steady state: two consecutive
  rate windows within tolerance, no retransmissions, no duplicate ACKs,
  congestion window beyond the socket buffer (the paper's workloads are
  socket-buffer-limited), enough pending bytes to be worth it, and a
  compilable overlay path.
* A captured flow is *parked*: its sender and retransmit loops block on
  a region event, in-flight segments drain through normal ACK
  processing, and once ``snd_una == snd_nxt`` the region advances the
  flow in **strides** — one kernel wake-up per stride instead of one
  event per packet — applying aggregate byte/segment/counter updates
  computed from max-min fair rate shares on the links the active flows
  share (:func:`max_min_rates`).
* Any transition de-escalates back to packet level **at the exact
  transition instant**: chaos fault windows (stride ends are clipped to
  the pre-declared transition times, and injector installs release
  affected flows), route changes, failover/failback, flow join/leave
  (rates are re-solved from a checkpoint), receiver-window stalls, and
  data exhaustion.  Stride segments therefore never span a transition —
  the property :attr:`FluidRegion.stride_log` records and the golden
  tests assert.

Observables stay bit-identical wherever packet-level runs (the mode is
default-off behind ``VnetTuning.fluid`` / ``REPRO_FLUID``); where fluid
runs, goodput and completion times are statistically validated against
all-packet golden runs by the hybrid test suite
(``tests/vnet/test_fluid_hybrid.py``), which also holds the 40 MB
transfer's events-per-frame reduction to at least 6.12x.

Layering: this module knows nothing about VNET/P.  The overlay-specific
path compilation and per-hop counter charging plug in through
:attr:`FluidRegion.compile_path` (see :mod:`repro.vnet.fluidpath`);
paths only need ``link_tokens`` (for fault matching) and a
``charge(data_segs, ack_segs)`` hook.
"""

from __future__ import annotations

from bisect import bisect_right, insort
from typing import TYPE_CHECKING, Any, Callable, Optional

from .core import Event, Simulator

if TYPE_CHECKING:  # pragma: no cover
    from ..proto.tcp import TcpConnection

__all__ = ["FluidFlow", "FluidRegion", "fluid_region_of", "max_min_rates"]

# Attribute on the per-simulator Observability context carrying the
# region singleton (mirrors the flow-cache registry idiom).
_REGION_ATTR = "_fluid_region"


def fluid_region_of(sim: Simulator) -> Optional["FluidRegion"]:
    """The simulator's :class:`FluidRegion`, or ``None`` when fluid is off."""
    obs = getattr(sim, "_repro_obs", None)
    if obs is None:
        return None
    return getattr(obs, _REGION_ATTR, None)


def max_min_rates(
    demands: list[float],
    memberships: list[frozenset[str]],
    capacities: dict[str, float],
) -> list[float]:
    """Max-min fair rate allocation (progressive water-filling).

    ``demands[i]`` is flow *i*'s offered rate (bytes/s), ``memberships[i]``
    the set of link tokens it traverses, ``capacities`` each link's
    capacity.  A flow crossing no known link is demand-limited.  The
    classic algorithm: repeatedly find the most constrained link, fix
    its unfrozen flows at the equal share (or their demand, whichever is
    smaller), remove the satisfied capacity, repeat.
    """
    n = len(demands)
    rates: list[Optional[float]] = [None] * n
    cap = dict(capacities)
    active = set(range(n))
    while active:
        # Equal share currently available to each active flow: the min
        # over its links of remaining capacity / active flows on it.
        share: dict[int, float] = {}
        for i in active:
            links = [tok for tok in memberships[i] if tok in cap]
            if not links:
                share[i] = demands[i]
                continue
            share[i] = min(
                cap[tok] / sum(1 for j in active if tok in memberships[j])
                for tok in links
            )
        # Freeze demand-limited flows first (they free capacity for the
        # rest); otherwise freeze the flows at the tightest share.
        limited = [i for i in active if demands[i] <= share[i]]
        if limited:
            frozen = {i: demands[i] for i in limited}
        else:
            tightest = min(share[i] for i in active)
            frozen = {i: tightest for i in active if share[i] <= tightest}
        for i, r in frozen.items():
            rates[i] = r
            active.discard(i)
            for tok in memberships[i]:
                if tok in cap:
                    cap[tok] = max(0.0, cap[tok] - r)
    return [r if r is not None else 0.0 for r in rates]


class FluidFlow:
    """One captured connection: the fluid model's per-flow state."""

    __slots__ = (
        "conn", "peer", "path", "demand_Bps", "rate_Bps", "active",
        "last_advance_ns", "seg_carry", "zero_strides",
        "_parked",
    )

    def __init__(self, conn: "TcpConnection", peer: "TcpConnection",
                 path: Any, demand_Bps: float, captured_ns: int):
        self.conn = conn
        self.peer = peer
        self.path = path
        self.demand_Bps = demand_Bps
        self.rate_Bps = demand_Bps
        self.active = False          # True once in-flight data has drained
        self.last_advance_ns = captured_ns
        self.seg_carry = 0           # bytes not yet amounting to a segment
        self.zero_strides = 0        # consecutive strides that moved nothing
        self._parked: list[Event] = []

    # -- the TcpConnection-facing protocol ---------------------------------
    def parked(self, conn: "TcpConnection") -> Event:
        """Event a captured connection's loops block on until release."""
        evt = conn.sim.event()
        self._parked.append(evt)
        return evt

    def on_ack_progress(self, conn: "TcpConnection") -> None:
        """ACK advanced ``snd_una`` while captured (the drain phase)."""
        region = fluid_region_of(conn.sim)
        if region is not None:
            region._on_ack_progress(self)

    def cancel(self, conn: "TcpConnection") -> None:
        """Loss recovery engaged while draining: capture was premature."""
        region = fluid_region_of(conn.sim)
        if region is not None:
            region._cancel(self, "loss-recovery")

    def _wake(self) -> None:
        parked, self._parked = self._parked, []
        for evt in parked:
            if not evt.triggered:
                evt.succeed()


class FluidRegion:
    """Per-simulator coordinator of fluid flows.

    Created by the VNET/P core when ``VnetTuning.fluid`` is on (see
    :meth:`ensure`); :meth:`repro.proto.stack.Stack.register_tcp` points
    every non-kernel connection's ``_fluid_watch`` at :meth:`_probe`.
    """

    #: Strides that may move zero bytes before a receiver-limited flow
    #: is handed back to packet level.
    MAX_ZERO_STRIDES = 2
    #: Eligibility backoff multiplier after a cancelled capture.
    CANCEL_BACKOFF = 8
    #: Steady-state probe window: at most one eligibility check per
    #: connection per 200 us.
    CHECK_NS = 200_000
    #: Stride ceiling (1 ms).
    MAX_STRIDE_NS = 1_000_000
    #: No capture when a transition is closer than this (50 us); also the
    #: short retry stride while the receiver's buffer is full.
    MIN_STRIDE_NS = 50_000
    #: Two consecutive probe windows must measure rates this close.
    RATE_TOLERANCE = 0.2

    COUNTERS = ("captures", "strides", "bytes")

    def __init__(self, sim: Simulator, tuning: Any):
        self.sim = sim
        self.tuning = tuning
        self.min_bytes = int(tuning.fluid_min_bytes)
        # Domain objects registered by the path adapter (VNET/P cores).
        self.cores: list[Any] = []
        self.compile_path: Optional[Callable[["FluidRegion", Any], Any]] = None
        self.flows: dict[Any, FluidFlow] = {}     # conn -> flow (captured)
        self.active: list[FluidFlow] = []
        # Pre-declared transition instants (chaos schedules) and blackout
        # intervals [start, stop_or_None) during which no flow may run.
        self._transitions: list[int] = []
        self._blackouts: list[tuple[int, Optional[int]]] = []
        # Per-connection eligibility state:
        # [last_check_ns, bytes_acked_at, retransmits_at, last_rate_Bps].
        self._watch: dict[Any, list] = {}
        self._loop_proc = None
        #: Every advanced stride segment ``(t0, t1)`` — none may span a
        #: declared transition instant (golden fluid-fault test).
        self.stride_log: list[tuple[int, int]] = []
        from ..obs.context import Observability  # lazy: sim must not hard-depend on obs
        from ..proto.tcp import CongestionState, TcpState  # lazy: nor on proto

        # The states _eligible tests on every probe.
        self._established = TcpState.ESTABLISHED
        self._fast_recovery = CongestionState.FAST_RECOVERY
        self.obs = Observability.of(sim)
        metrics = self.obs.metrics
        self.captures = self.strides = self.bytes = 0
        metrics.publish("sim.fluid", self)
        self._active_gauge = metrics.gauge("sim.fluid.active_flows")
        self._rate_gauge = metrics.gauge("sim.fluid.rate_Bps")
        # Modeled per-segment RTT, weighted by the segments each stride
        # stands for (observe_weighted): packet-weighted like the packet
        # path's per-segment samples, not one point sample per stride.
        self._latency_hist = metrics.histogram(
            "sim.fluid.latency_ns",
            (10_000, 50_000, 100_000, 250_000, 500_000, 1_000_000, 5_000_000),
        )

    @classmethod
    def ensure(cls, sim: Simulator, tuning: Any) -> "FluidRegion":
        """The simulator's region, created on first call."""
        from ..obs.context import Observability

        obs = Observability.of(sim)
        region = getattr(obs, _REGION_ATTR, None)
        if region is None:
            region = cls(sim, tuning)
            setattr(obs, _REGION_ATTR, region)
        return region

    # -- registration ------------------------------------------------------
    def add_core(self, core: Any) -> None:
        """Register a VNET/P core for path walking; route changes on any
        registered core de-escalate every fluid flow at that instant."""
        if core in self.cores:
            return
        self.cores.append(core)
        core.routing.on_change(self._on_route_change)

    def _on_route_change(self) -> None:
        if self.flows:
            self.deescalate_all("route-change")

    def watch(self, conn: "TcpConnection") -> None:
        """Point ``conn``'s eligibility probe at this region."""
        conn._fluid_watch = self._probe

    def note_transitions(
        self,
        points: list[int],
        blackouts: Optional[list[tuple[int, Optional[int]]]] = None,
    ) -> None:
        """Pre-declare fault-schedule transition instants and windows."""
        for t in points:
            insort(self._transitions, int(t))
        if blackouts:
            self._blackouts.extend(blackouts)

    def next_transition_after(self, now: int) -> Optional[int]:
        idx = bisect_right(self._transitions, now)
        if idx < len(self._transitions):
            return self._transitions[idx]
        return None

    def in_blackout(self, now: int) -> bool:
        """Whether ``now`` falls inside any declared fault window."""
        for start, stop in self._blackouts:
            if start <= now and (stop is None or now < stop):
                return True
        return False

    # -- eligibility & capture ---------------------------------------------
    def _probe(self, conn: "TcpConnection") -> None:
        """Per-ACK steady-state probe (cheap early-outs; rate-limited)."""
        now = self.sim.now
        st = self._watch.get(conn)
        if st is None:
            self._watch[conn] = [now, conn.bytes_acked, conn.retransmits, -1.0]
            return
        if now - st[0] < self.CHECK_NS:
            return
        interval = now - st[0]
        rate = (conn.bytes_acked - st[1]) * 1e9 / interval
        clean = conn.retransmits == st[2]
        prev_rate = st[3]
        st[0] = now
        st[1] = conn.bytes_acked
        st[2] = conn.retransmits
        st[3] = rate if clean else -1.0
        if not clean or rate <= 0.0 or prev_rate <= 0.0:
            return
        if abs(rate - prev_rate) > self.RATE_TOLERANCE * prev_rate:
            return
        if not self._eligible(conn, now):
            return
        self._capture(conn, (rate + prev_rate) / 2.0)

    def _eligible(self, conn: "TcpConnection", now: int) -> bool:
        if conn.state is not self._established or conn.peer is None:
            return False
        if conn.srtt is None or conn._backoff or conn._dup_acks:
            return False
        # A sender in fast recovery (or with unresolved SACK holes) is
        # mid loss-episode: it must stay packet-level until the Reno
        # machinery converges back to a steady window.
        if conn.cc_state is self._fast_recovery or conn._sacked:
            return False
        if conn.app_written - conn.snd_una < self.min_bytes:
            return False
        # Socket-buffer-limited regime: the congestion window no longer
        # governs the rate, so growth transients are over.  A cwnd-limited
        # flow (post-loss) is governed by Reno dynamics and never captured.
        if conn.cwnd < conn.sndbuf:
            return False
        return self._horizon_ok(now)

    def _horizon_ok(self, now: int) -> bool:
        if self.in_blackout(now):
            return False
        nt = self.next_transition_after(now)
        return nt is None or nt - now >= self.MIN_STRIDE_NS

    def _capture(self, conn: "TcpConnection", demand_Bps: float) -> None:
        if self.compile_path is None:
            return
        path = self.compile_path(self, conn)
        if path is None:
            return
        flow = FluidFlow(conn, conn.peer, path, demand_Bps, self.sim.now)
        conn.fluid = flow
        self.flows[conn] = flow
        self.captures += 1
        self.obs.health.log.emit(
            self.sim.now, "sim.fluid", "capture", "info",
            f"captured flow :{conn.local_port}->{conn.remote_ip}:"
            f"{conn.remote_port} at {demand_Bps / 1e9:.3f} GB/s",
            demand_Bps)
        if conn.snd_una == conn.snd_nxt:
            self._activate(flow)

    def _on_ack_progress(self, flow: FluidFlow) -> None:
        if not flow.active and flow.conn.snd_una == flow.conn.snd_nxt:
            self._activate(flow)

    def _activate(self, flow: FluidFlow) -> None:
        now = self.sim.now
        if not self._horizon_ok(now):
            self._cancel(flow, "horizon")
            return
        # A flow joining a shared link is a transition: checkpoint the
        # flows already in fluid at the old rates before re-solving.
        for other in self.active:
            self._advance_flow(other, other.last_advance_ns, now)
        flow.active = True
        flow.last_advance_ns = now
        flow.conn._rtt_probe = None
        self.active.append(flow)
        self._recompute()
        self._active_gauge.set(len(self.active), now_ns=now)
        if self._loop_proc is None:
            self._loop_proc = self.sim.process(
                self._stride_loop(), name="sim.fluid.strides"
            )

    def _cancel(self, flow: FluidFlow, reason: str) -> None:
        """Abort a capture (drain-phase loss, bad horizon): back to packets."""
        self._release(flow, reason)
        # Eligibility backoff: demand fresh stability windows before the
        # connection may be captured again.
        st = self._watch.get(flow.conn)
        if st is not None:
            st[0] = self.sim.now + self.CANCEL_BACKOFF * self.CHECK_NS
            st[3] = -1.0

    # -- de-escalation (the packet-level handback) --------------------------
    def _release(self, flow: FluidFlow, reason: str) -> None:
        conn = flow.conn
        if self.flows.get(conn) is not flow:
            return
        if flow.active:
            self._advance_flow(flow, flow.last_advance_ns, self.sim.now)
            self.active.remove(flow)
        del self.flows[conn]
        conn.fluid = None
        flow._wake()
        self.obs.metrics.counter(f"sim.fluid.releases.{reason}").inc()
        self._active_gauge.set(len(self.active), now_ns=self.sim.now)
        self.obs.health.log.emit(
            self.sim.now, "sim.fluid", "release", "info",
            f"released flow :{conn.local_port}->{conn.remote_ip}:"
            f"{conn.remote_port} ({reason})")

    def _external_release(self, victims: list[FluidFlow], reason: str) -> None:
        """Checkpoint every active flow at *now*, then release ``victims``.

        The checkpoint is what makes mid-stride transitions exact: bytes
        up to this instant moved at the old rates; the pending stride
        timer later advances the survivors at the re-solved rates.
        """
        now = self.sim.now
        # list() copy: a mode switch fired from inside an advance's
        # charge hook re-enters here and mutates self.active.
        for flow in list(self.active):
            self._advance_flow(flow, flow.last_advance_ns, now)
        for flow in victims:
            self._release(flow, reason)
        self._recompute()

    def deescalate_all(self, reason: str) -> int:
        """Release every captured flow (route change, failover, ...)."""
        victims = list(self.flows.values())
        self._external_release(victims, reason)
        return len(victims)

    def on_mode_switch(self, mode: Any = None) -> None:
        """Datapath regime change (guest/VMM-driven switch): per-packet
        costs just changed, so every captured rate — and every stability
        window measured under the old regime — is stale.  The probe backs
        off so the packet path re-converges in the new regime before any
        stability window is measured (the refill right after a release
        can look deceptively stable at the old rate)."""
        self.deescalate_all("mode-change")
        next_check = self.sim.now + self.CANCEL_BACKOFF * self.CHECK_NS
        for st in self._watch.values():
            st[0] = next_check
            st[3] = -1.0

    def deescalate_port(self, port_name: str, reason: str) -> int:
        """Chaos hook: release the flows riding a faulted port.

        Per-overlay-link ports (``<host>.vbridge.link.<link>``) release
        exactly the flows whose compiled path crosses that link; any
        other placement is below link granularity and releases all.
        """
        if ".vbridge.link." in port_name:
            victims = [
                f for f in self.flows.values()
                if port_name in f.path.link_tokens
            ]
        else:
            victims = list(self.flows.values())
        self._external_release(victims, reason)
        return len(victims)

    # -- the stride engine -------------------------------------------------
    def _stride_loop(self):
        sim = self.sim
        while self.active:
            now = sim.now
            # Every flow is checkpointed at ``now`` here (stride end,
            # join, or external release all advance first), so rates may
            # be re-solved without losing accumulated progress.
            self._recompute()
            end = self._stride_end(now)
            self.strides += 1
            yield end - now
            now = sim.now
            for flow in list(self.active):
                self._advance_flow(flow, flow.last_advance_ns, now)
            self._release_done(now)
        self._loop_proc = None

    def _stride_end(self, now: int) -> int:
        """Latest instant this stride may reach: the max stride clipped
        to the next declared transition and each flow's data/receive-
        buffer exhaustion time (so releases land exactly on time)."""
        end = now + self.MAX_STRIDE_NS
        nt = self.next_transition_after(now)
        if nt is not None:
            end = min(end, nt)
        for flow in self.active:
            rate = flow.rate_Bps
            if rate <= 0.0:
                continue
            conn, peer = flow.conn, flow.peer
            pending = conn.app_written - conn.snd_nxt
            if pending > 0:
                end = min(end, now + int(pending * 1e9 / rate) + 1)
            space = peer.rcvbuf - peer.recv_available
            if space > 0:
                # Half-fill the receive buffer per stride: the receiver
                # app drains on the stride's recv signal, an instant
                # *after* the advance, so filling it exactly would make
                # the next stride start space-bound at zero.
                end = min(end, now + int(space * 1e9 / (2.0 * rate)) + 1)
            else:
                # Buffer momentarily full (drain pending on the kernel's
                # immediate queue): take a short retry stride instead of
                # sleeping a whole max-stride moving nothing.
                end = min(end, now + self.MIN_STRIDE_NS)
        return max(end, now + 1)

    def _advance_flow(self, flow: FluidFlow, t0: int, t1: int) -> int:
        """Apply ``[t0, t1)`` of analytic progress to one flow."""
        if t1 <= t0:
            return 0
        conn, peer = flow.conn, flow.peer
        budget = int(flow.rate_Bps * (t1 - t0) / 1e9)
        pending = conn.app_written - conn.snd_nxt
        space = peer.rcvbuf - peer.recv_available
        moved = min(budget, pending, max(0, space))
        if moved < 0:
            moved = 0
        flow.last_advance_ns = t1
        self.stride_log.append((t0, t1))
        flow.zero_strides = 0 if moved else flow.zero_strides + 1
        if not moved:
            return 0
        # Sender bookkeeping: data sent, acked and window edges exactly as
        # a per-packet exchange would have left them at t1.
        conn.snd_nxt += moved
        conn.snd_una = conn.snd_nxt
        conn.bytes_acked += moved
        conn._ack_progress_at = t1
        # Receiver bookkeeping.
        peer.rcv_nxt += moved
        peer.recv_available += moved
        peer.bytes_delivered += moved
        conn.peer_rwnd = peer.my_rwnd
        conn._window_edge = conn.snd_una + conn.peer_rwnd
        # Segment/frame accounting, carried across strides so totals
        # match the per-packet segmentation to within one MSS.
        total = moved + flow.seg_carry
        segs = total // conn.mss
        flow.seg_carry = total - segs * conn.mss
        if segs:
            if conn.srtt is not None:
                self._latency_hist.observe_weighted(conn.srtt, segs)
            flow.path.charge(segs, segs)
        self.bytes += moved
        # One aggregate wakeup per stride instead of one per packet.
        conn._space_signal.fire()
        peer._recv_signal.fire()
        return moved

    def _release_done(self, now: int) -> None:
        for flow in list(self.active):
            conn = flow.conn
            if conn.app_written == conn.snd_nxt:
                self._release(flow, "drained")
            elif flow.zero_strides >= self.MAX_ZERO_STRIDES:
                self._release(flow, "flow-control")
            elif self.in_blackout(now):
                self._release(flow, "fault-window")

    def _recompute(self) -> None:
        """Re-solve max-min rate shares over the active flows."""
        flows = self.active
        if not flows:
            self._rate_gauge.set(0.0, now_ns=self.sim.now)
            return
        demands = [f.demand_Bps for f in flows]
        memberships = [f.path.link_tokens for f in flows]
        # Demand-derived capacities: the solo rate already reflects each
        # flow's bottleneck, so a shared link can carry at least the
        # largest solo rate crossing it (documented modelling choice).
        capacities: dict[str, float] = {}
        for f in flows:
            for tok in f.path.link_tokens:
                cap = capacities.get(tok, 0.0)
                if f.demand_Bps > cap:
                    capacities[tok] = f.demand_Bps
        rates = max_min_rates(demands, memberships, capacities)
        for f, r in zip(flows, rates):
            f.rate_Bps = r
        self._rate_gauge.set(sum(rates), now_ns=self.sim.now)

    # -- observability ------------------------------------------------------
    def stats(self) -> dict:
        return {
            "captured": len(self.flows),
            "active": len(self.active),
            "captures": self.captures,
            "strides": self.strides,
            "bytes": self.bytes,
        }
