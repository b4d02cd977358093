"""Simplified TCP: connection setup, sliding window, Reno congestion control.

Implements what the paper's workloads exercise — bulk transfer with
socket-buffer-limited windows (ttcp -t with 256 KB buffers) — on top of
a full Reno state machine (see ``docs/congestion.md``):

* slow start and AIMD congestion avoidance split by ``ssthresh``, with
  the sender's phase tracked explicitly in :class:`CongestionState`;
* fast retransmit on three duplicate ACKs, retransmitting only the
  hole at ``snd_una`` (not the whole window), then NewReno-style fast
  recovery: window inflation per additional dup-ACK, partial-ACK hole
  retransmission, deflation to ``ssthresh`` on full recovery;
* SACK: the receiver buffers out-of-order data as merged intervals and
  advertises up to three blocks; the sender keeps a scoreboard so hole
  retransmissions stop at SACKed data;
* adaptive RTO per RFC 6298 (SRTT/RTTVAR EWMA) with Karn's algorithm
  (retransmitted segments are never RTT-sampled) and exponential
  backoff, falling back to go-back-N on timeout;
* flow control from the receive buffer (out-of-order bytes count
  against the advertised window).

Nagle and delayed ACK are deliberately omitted.  The simulated links
are lossless unless a fault is injected or a queue tail-drops, so the
clean path stays in slow start (``ssthresh`` starts at infinity) and
is bit-identical to the pre-Reno machinery; congestion response is
exercised by the chaos tests and the ``fairness`` experiment family.

Non-kernel connections publish ``cwnd``/``ssthresh``/state as
timestamped gauges (``tcp.cc.<stack>.<lport>-<rport>.*``) in
:mod:`repro.obs.metrics`, so sim-time-weighted window averages come
for free via :meth:`Gauge.time_avg <repro.obs.metrics.Gauge.time_avg>`.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from ..sim import Event, Signal, Simulator
from .base import next_pdu_id
from .ip import PROTO_TCP

if TYPE_CHECKING:  # pragma: no cover
    from .stack import Stack

__all__ = [
    "TCP_HEADER",
    "CongestionState",
    "TcpSegment",
    "TcpConnection",
    "TcpListener",
    "TcpState",
]

TCP_HEADER = 20
# SACK option on-the-wire cost: kind + length + padding (4) plus two
# 4-byte sequence numbers per block (RFC 2018).
SACK_OPTION_BASE = 4
SACK_BLOCK_BYTES = 8


@dataclass(slots=True)
class TcpSegment:
    """One TCP segment; ``size`` covers the TCP header + payload bytes
    plus SACK option bytes when blocks are present."""

    sport: int
    dport: int
    seq: int
    ack: int
    payload_bytes: int = 0
    syn: bool = False
    fin: bool = False
    is_ack: bool = True
    rwnd: int = 1 << 30
    # SACK blocks: (start, end) byte ranges the receiver holds above the
    # cumulative ACK.  Empty on the clean path, so segment sizes there
    # are identical to a SACK-less stack.
    sack: tuple = ()
    # Simulation bookkeeping: SYN/SYNACK segments carry a reference to the
    # sending endpoint so the two TcpConnection objects can pair up (used
    # for message framing; see TcpMessageChannel).
    conn_ref: Optional["TcpConnection"] = None
    id: int = field(default_factory=next_pdu_id)

    @property
    def size(self) -> int:
        opt = SACK_OPTION_BASE + SACK_BLOCK_BYTES * len(self.sack) if self.sack else 0
        return TCP_HEADER + opt + self.payload_bytes


class TcpState(enum.Enum):
    CLOSED = "closed"
    SYN_SENT = "syn-sent"
    SYN_RECEIVED = "syn-received"
    ESTABLISHED = "established"
    FIN_WAIT = "fin-wait"
    CLOSE_WAIT = "close-wait"


class CongestionState(enum.Enum):
    """Reno sender phase (RFC 5681/6582).

    ``SLOW_START`` doubles the window per RTT until ``ssthresh``;
    ``CONGESTION_AVOIDANCE`` grows one MSS per RTT; ``FAST_RECOVERY``
    is entered on the third duplicate ACK and left (deflating to
    ``ssthresh``) when the cumulative ACK passes the recovery point.
    An RTO always falls back to ``SLOW_START`` with ``cwnd = 1 MSS``.
    """

    SLOW_START = "slow-start"
    CONGESTION_AVOIDANCE = "congestion-avoidance"
    FAST_RECOVERY = "fast-recovery"


# Stable numeric encoding for the cc-state gauge.
CC_STATE_CODE = {
    CongestionState.SLOW_START: 0,
    CongestionState.CONGESTION_AVOIDANCE: 1,
    CongestionState.FAST_RECOVERY: 2,
}


class TcpConnection:
    """One endpoint of a TCP connection over a simulated stack."""

    # RTO floor: Linux uses 200 ms; we scale it down for simulation
    # turnaround but keep it well above any queue-inflated LAN RTT so
    # timeouts are real losses, not bufferbloat (fast retransmit handles
    # the common single-loss case without waiting for this).
    MIN_RTO_NS = 10_000_000       # 10 ms
    INITIAL_CWND_SEGMENTS = 10

    def __init__(
        self,
        stack: "Stack",
        local_port: int,
        remote_ip: str,
        remote_port: int,
        sndbuf: int = 256 * 1024,
        rcvbuf: int = 256 * 1024,
        in_kernel: bool = False,
    ):
        self.stack = stack
        self.sim: Simulator = stack.sim
        self.local_port = local_port
        self.remote_ip = remote_ip
        self.remote_port = remote_port
        self.sndbuf = sndbuf
        self.rcvbuf = rcvbuf
        self.in_kernel = in_kernel
        self.state = TcpState.CLOSED

        dev, _ = stack.route(remote_ip)
        self.mss = dev.mtu - TCP_HEADER - 20  # IP header

        # Sender state (byte sequence space).
        self.snd_una = 0              # oldest unacknowledged
        self.snd_nxt = 0              # next to send
        self.app_written = 0          # bytes the app has handed to the socket
        self.cwnd = self.INITIAL_CWND_SEGMENTS * self.mss
        self.ssthresh = 1 << 30
        self.peer_rwnd = 1 << 30
        # Right edge of the peer's advertised window (ack + rwnd), which is
        # what actually bounds snd_nxt (RFC 793): using the latest rwnd
        # against a newer snd_una would overshoot a slow receiver.
        self._window_edge = 1 << 30
        self._send_signal = Signal(self.sim, "tcp.send")
        self._space_signal = Signal(self.sim, "tcp.space")
        self._ack_progress_at = 0

        # Receiver state.
        self.rcv_nxt = 0
        self.recv_available = 0       # in-order bytes the app has not read
        # Out-of-order reassembly queue: sorted, disjoint (start, end)
        # byte intervals above rcv_nxt, advertised as SACK blocks.
        self._ooo: list[tuple[int, int]] = []
        self.ooo_bytes = 0
        self.peer_fin = False
        self._active_close = False
        self._recv_signal = Signal(self.sim, "tcp.recv")
        self._fin_signal = Signal(self.sim, "tcp.fin")

        # RTT estimation.
        self.srtt: Optional[float] = None
        self.rttvar = 0.0
        self._rtt_probe: Optional[tuple[int, int]] = None  # (seq_end, sent_at)

        # Reno congestion machinery (RFC 5681/6582).  Three duplicate
        # ACKs trigger a fast retransmit of the hole at snd_una and move
        # the sender to FAST_RECOVERY; the NewReno recovery point
        # (_recover) guards against the retransmitted burst re-triggering
        # itself and marks where recovery completes.
        self.cc_state = CongestionState.SLOW_START
        self._dup_acks = 0
        self._recover = 0
        self._backoff = 0
        # SACK scoreboard: sorted, disjoint (start, end) intervals the
        # peer has acknowledged above snd_una.  Hole retransmissions stop
        # at the first SACKed byte; cleared on RTO (RFC 2018 pessimism).
        self._sacked: list[tuple[int, int]] = []

        # Statistics.
        self.retransmits = 0
        self.fast_retransmits = 0
        self.bytes_acked = 0
        self.bytes_delivered = 0

        # cwnd/ssthresh/state gauges (non-kernel connections only; see
        # _publish_cc).  Created lazily at establishment.
        self._cc_gauges = None

        self.established_event: Event = self.sim.event()
        self._sender_proc = None

        # Hybrid fluid/packet simulation (repro.sim.fluid).  ``fluid`` is
        # the FluidFlow while this connection is captured; ``_fluid_watch``
        # is the region's steady-state probe, set by Stack.register_tcp
        # when fluid mode is on.  Both stay None otherwise, costing one
        # attribute test per ACK.
        self.fluid = None
        self._fluid_watch = None

        # Message-framing bookkeeping (see TcpMessageChannel).
        self.peer: Optional["TcpConnection"] = None
        # deque: recv_message pops from the left on every framed
        # message, which is O(n) on a list for deep backlogs.
        self._in_msgs: deque[tuple[int, object]] = deque()

    # -- lifecycle -----------------------------------------------------------
    def _start(self) -> None:
        """Begin sender + retransmit machinery (after handshake)."""
        self.state = TcpState.ESTABLISHED
        if not self.established_event.triggered:
            self.established_event.succeed(self)
        if not self.in_kernel and self._cc_gauges is None:
            # Guest/application connections publish their congestion
            # trajectory; in-kernel bridge links stay gauge-free (they are
            # numerous and their windows never leave slow start).
            m = self.stack.obs.metrics
            base = f"tcp.cc.{self.stack.name}.{self.local_port}-{self.remote_port}"
            self._cc_gauges = (
                m.gauge(base + ".cwnd"),
                m.gauge(base + ".ssthresh"),
                m.gauge(base + ".state"),
            )
            self._publish_cc()
        if self._sender_proc is None:
            self._sender_proc = self.sim.process(self._sender_loop(), name="tcp.sender")
            self.sim.process(self._retx_loop(), name="tcp.retx")

    def _publish_cc(self) -> None:
        """Refresh the timestamped cwnd/ssthresh/state gauges."""
        g = self._cc_gauges
        if g is None:
            return
        now = self.sim.now
        g[0].set(float(self.cwnd), now_ns=now)
        g[1].set(float(self.ssthresh), now_ns=now)
        g[2].set(float(CC_STATE_CODE[self.cc_state]), now_ns=now)

    @property
    def rto_ns(self) -> int:
        if self.srtt is None:
            base = self.MIN_RTO_NS
        else:
            # RFC 6298 with a variance floor: the timeout must clear the
            # smoothed RTT by a healthy margin or steady paths see
            # spurious go-back-N storms.
            base = max(
                self.MIN_RTO_NS,
                int(self.srtt + max(4 * self.rttvar, self.srtt / 2)),
            )
        # Exponential backoff while retransmissions go unacknowledged.
        return base << min(self._backoff, 6)

    @property
    def inflight(self) -> int:
        return self.snd_nxt - self.snd_una

    @property
    def send_space(self) -> int:
        return self.sndbuf - (self.app_written - self.snd_una)

    @property
    def my_rwnd(self) -> int:
        return max(0, self.rcvbuf - self.recv_available - self.ooo_bytes)

    # -- application API -------------------------------------------------------
    def send(self, nbytes: int):
        """Generator: hand ``nbytes`` to the socket, blocking on buffer space."""
        if nbytes < 0:
            raise ValueError("negative send size")
        params = self.stack.params
        if not self.in_kernel:
            yield params.syscall_ns
        remaining = nbytes
        while remaining > 0:
            space = self.send_space
            if space <= 0:
                yield self._space_signal.wait()
                continue
            chunk = min(space, remaining)
            self.app_written += chunk
            remaining -= chunk
            self._send_signal.fire()

    def recv(self, nbytes: int):
        """Generator: block until ``nbytes`` arrive (or EOF); returns count."""
        params = self.stack.params
        got = 0
        while got < nbytes:
            if self.recv_available > 0:
                chunk = min(self.recv_available, nbytes - got)
                self.recv_available -= chunk
                got += chunk
                continue
            if self.peer_fin:
                break
            yield self._recv_signal.wait()
            yield params.sched_wakeup_ns
        if not self.in_kernel:
            yield params.syscall_ns
        return got

    def drain(self):
        """Generator: keep reading until EOF; returns total bytes read."""
        total = 0
        while True:
            got = yield from self.recv(1 << 30)
            total += got
            if self.peer_fin and self.recv_available == 0:
                return total

    def close(self):
        """Generator: flush all data, then FIN (retried until the peer FINs back)."""
        while self.snd_una < self.app_written:
            yield self._space_signal.wait()
        self._active_close = True
        self.state = TcpState.FIN_WAIT
        for _attempt in range(16):
            yield from self._emit(fin=True)
            if self.peer_fin:
                return
            timer = self.sim.timeout(2 * self.rto_ns)
            yield self.sim.any_of([timer, self._fin_signal.wait()])
            if self.peer_fin:
                return

    # -- sender machinery --------------------------------------------------------
    def _send_limit(self) -> int:
        """Highest sequence the congestion and flow windows permit."""
        return min(self.snd_una + self.cwnd, self._window_edge)

    def _sender_loop(self):
        while True:
            fl = self.fluid
            if fl is not None:
                # Captured by the fluid region: the region moves bytes in
                # strides; park until it hands the flow back.  (Capture
                # happens inside on_segment *after* _send_signal.fire(),
                # so a sender blocked below always wakes to re-check.)
                yield fl.parked(self)
                continue
            sent_any = False
            while self.snd_nxt < min(self.app_written, self._send_limit()):
                chunk = min(
                    self.mss,
                    self.app_written - self.snd_nxt,
                    self._send_limit() - self.snd_nxt,
                )
                if chunk <= 0:
                    break
                yield from self._emit(payload_bytes=chunk, seq=self.snd_nxt)
                self.snd_nxt += chunk
                sent_any = True
                if self._rtt_probe is None:
                    self._rtt_probe = (self.snd_nxt, self.sim.now)
            if not sent_any:
                yield self._send_signal.wait()

    def _emit(self, payload_bytes: int = 0, seq: Optional[int] = None, **flags):
        """Generator: build and transmit one segment (with stack costs)."""
        params = self.stack.params
        seg = TcpSegment(
            sport=self.local_port,
            dport=self.remote_port,
            seq=self.snd_nxt if seq is None else seq,
            ack=self.rcv_nxt,
            payload_bytes=payload_bytes,
            rwnd=self.my_rwnd,
            sack=tuple(self._ooo[:3]),
            conn_ref=self if flags.get("syn") else None,
            **flags,
        )
        cost = params.tcp_tx_ns if payload_bytes else params.tcp_ack_tx_ns
        yield cost + params.checksum_ns(payload_bytes)
        yield from self.stack.ip_send(self.remote_ip, PROTO_TCP, seg)

    def _retx_loop(self):
        while True:
            fl = self.fluid
            if fl is not None and self.inflight == 0:
                # Fluid-active (drained): nothing to time out; park.  While
                # still draining (inflight > 0) the timer stays armed.
                yield fl.parked(self)
                continue
            if self.inflight == 0 and self.snd_nxt >= self.app_written:
                # Truly idle (nothing outstanding or pending): block on the
                # send signal so the simulation can drain.  When data is
                # pending but momentarily not in flight (immediately after
                # a go-back-N reset), keep the timer armed instead.
                yield self._send_signal.wait()
                continue
            yield self.rto_ns
            if self.inflight == 0:
                if (
                    self.snd_nxt < self.app_written
                    and self.snd_nxt >= self._window_edge
                ):
                    # Zero-window persist probe: one byte past the edge
                    # elicits an ACK carrying the receiver's current window.
                    yield from self._emit(payload_bytes=1, seq=self.snd_nxt)
                    self.snd_nxt += 1
                continue
            if self.sim.now - self._ack_progress_at < self.rto_ns:
                continue
            # Timeout: go-back-N from snd_una with multiplicative decrease
            # and a fresh slow start (RFC 5681 §3.1).
            if self.fluid is not None:
                # Loss during the fluid drain phase: the flow was not
                # steady after all — hand it straight back to packets.
                self.fluid.cancel(self)
            self._backoff += 1
            self.retransmits += 1
            self.ssthresh = max(self.inflight // 2, 2 * self.mss)
            self.cwnd = self.mss
            self.cc_state = CongestionState.SLOW_START
            # NewReno: the whole outstanding window is suspect, so dup
            # ACKs below this point must not re-trigger fast retransmit,
            # and the SACK scoreboard is no longer trusted (RFC 2018 §8).
            self._recover = self.snd_nxt
            self._sacked.clear()
            self._dup_acks = 0
            self.snd_nxt = self.snd_una
            self._rtt_probe = None  # Karn: never sample retransmitted data
            self._ack_progress_at = self.sim.now
            self._publish_cc()
            self._send_signal.fire()

    # -- segment arrival (called by the stack's softirq, costs already charged) --
    def on_segment(self, seg: TcpSegment, src_ip: str) -> None:
        if seg.syn and not seg.is_ack:
            if self.state in (TcpState.SYN_RECEIVED, TcpState.ESTABLISHED):
                # Registered connections shadow the listener in the demux,
                # so a retransmitted handshake SYN lands here rather than
                # on TcpListener._on_syn (the passive side moves straight
                # to ESTABLISHED when its SYN/ACK goes out): the peer never
                # saw our SYN/ACK — resend it.
                self.sim.process(self._emit(syn=True), name="tcp.synack-rtx")
            return
        if seg.syn and seg.is_ack and self.state == TcpState.SYN_SENT:
            # SYN/ACK completes the active open (and announces the peer's
            # initial receive window).
            if seg.conn_ref is not None:
                self.peer = seg.conn_ref
            self.peer_rwnd = seg.rwnd
            self._window_edge = seg.ack + seg.rwnd
            self._start()
            self.sim.process(self._emit(), name="tcp.hsack")
            return
        # SACK scoreboard update (before any retransmission decision).
        if seg.sack:
            self._note_sack(seg.sack)
        # ACK processing.
        if seg.ack > self.snd_una:
            acked = seg.ack - self.snd_una
            self.bytes_acked += acked
            self.snd_una = seg.ack
            self._ack_progress_at = self.sim.now
            self._backoff = 0
            if self._sacked and self._sacked[0][0] < self.snd_una:
                self._sacked = [
                    (max(s, self.snd_una), e)
                    for s, e in self._sacked
                    if e > self.snd_una
                ]
            if self._rtt_probe is not None and seg.ack >= self._rtt_probe[0]:
                self._update_rtt(self.sim.now - self._rtt_probe[1])
                self._rtt_probe = None
            if self.cc_state is CongestionState.FAST_RECOVERY:
                if seg.ack >= self._recover:
                    # Full recovery: deflate to ssthresh and resume
                    # congestion avoidance (RFC 6582 §3.2 step 3).
                    self.cwnd = self.ssthresh
                    self.cc_state = CongestionState.CONGESTION_AVOIDANCE
                    self._dup_acks = 0
                else:
                    # NewReno partial ACK: the next hole was lost too.
                    # Retransmit it immediately, deflating by the amount
                    # acknowledged (plus one MSS back in).
                    self.cwnd = max(self.cwnd - acked + self.mss, self.mss)
                    self._retransmit_hole()
            else:
                self._dup_acks = 0
                # Congestion window growth.
                if self.cwnd < self.ssthresh:
                    self.cwnd += min(acked, self.mss)
                else:
                    if self.cc_state is CongestionState.SLOW_START:
                        self.cc_state = CongestionState.CONGESTION_AVOIDANCE
                    self.cwnd += max(1, self.mss * self.mss // self.cwnd)
            self._publish_cc()
            self._space_signal.fire()
            self._send_signal.fire()
            # Hybrid fluid/packet hooks: while captured, each ACK drains
            # in-flight data toward activation; otherwise the region's
            # steady-state probe samples the ACK rate.
            fl = self.fluid
            if fl is not None:
                fl.on_ack_progress(self)
            elif self._fluid_watch is not None:
                self._fluid_watch(self)
        elif (
            seg.ack == self.snd_una
            and self.inflight > 0
            and seg.payload_bytes == 0
            and not seg.syn
            and not seg.fin
        ):
            # Duplicate ACK: the receiver is seeing out-of-order data.
            self._dup_acks += 1
            if self.cc_state is CongestionState.FAST_RECOVERY:
                # Window inflation: each dup ACK means one more segment
                # left the network (RFC 5681 §3.2 step 4).
                self.cwnd += self.mss
                self._publish_cc()
                self._send_signal.fire()
            elif self._dup_acks == 3 and seg.ack >= self._recover:
                self._enter_fast_recovery()
        self.peer_rwnd = seg.rwnd
        edge = seg.ack + seg.rwnd
        if edge > self._window_edge or seg.ack >= self.snd_una:
            # Window updates may shrink the edge only via newer acks.
            if edge != self._window_edge:
                self._window_edge = edge
                self._send_signal.fire()
        # Data processing: in-order data advances rcv_nxt (merging any
        # buffered out-of-order intervals it meets); out-of-order data is
        # buffered for SACK; stale duplicates just elicit an ACK.
        if seg.payload_bytes > 0:
            start = seg.seq
            end = start + seg.payload_bytes
            if start <= self.rcv_nxt < end:
                prev = self.rcv_nxt
                self.rcv_nxt = end
                while self._ooo and self._ooo[0][0] <= self.rcv_nxt:
                    s, e = self._ooo.pop(0)
                    self.ooo_bytes -= e - s
                    if e > self.rcv_nxt:
                        self.rcv_nxt = e
                delivered = self.rcv_nxt - prev
                self.recv_available += delivered
                self.bytes_delivered += delivered
                self._recv_signal.fire()
            elif start > self.rcv_nxt:
                self._buffer_ooo(start, end)
            # Always ack (duplicate acks, carrying SACK blocks, for ooo
            # segments).
            self.sim.process(self._emit(), name="tcp.ack")
        if seg.fin:
            self.peer_fin = True
            self.state = TcpState.CLOSE_WAIT
            self._recv_signal.fire()
            self._fin_signal.fire()
            if not self._active_close:
                # Passive close: answer every FIN with our own FIN so the
                # active side converges even when frames are dropped.
                self.sim.process(self._emit(fin=True), name="tcp.finack")

    def _enter_fast_recovery(self) -> None:
        """Third duplicate ACK: retransmit the hole, halve the window."""
        if self.fluid is not None:
            # Loss surfaced while the fluid capture was draining: abort
            # the capture, recover at packet level.
            self.fluid.cancel(self)
        self._recover = self.snd_nxt
        self.fast_retransmits += 1
        self.ssthresh = max(self.inflight // 2, 2 * self.mss)
        self.cwnd = self.ssthresh + 3 * self.mss
        self.cc_state = CongestionState.FAST_RECOVERY
        self._ack_progress_at = self.sim.now
        self._publish_cc()
        self._retransmit_hole()
        self._send_signal.fire()

    def _retransmit_hole(self) -> None:
        """Retransmit one MSS at ``snd_una``, stopping at SACKed data."""
        start = self.snd_una
        end = self._recover if self._recover > start else self.snd_nxt
        for s, _e in self._sacked:
            if s > start:
                end = min(end, s)
                break
        chunk = min(self.mss, end - start)
        if chunk <= 0:
            return
        self.retransmits += 1
        self._rtt_probe = None  # Karn: never sample a retransmitted range
        self.sim.process(
            self._emit(payload_bytes=chunk, seq=start), name="tcp.fast-rtx"
        )

    def _note_sack(self, blocks: tuple) -> None:
        """Merge the peer's SACK blocks into the sender scoreboard."""
        self._sacked = _coalesce(
            self._sacked + [(s, e) for s, e in blocks if e > self.snd_una]
        )

    def _buffer_ooo(self, start: int, end: int) -> None:
        """Buffer an out-of-order byte range, coalescing overlaps."""
        self._ooo = _coalesce(self._ooo + [(start, end)])
        self.ooo_bytes = sum(e - s for s, e in self._ooo)

    def _update_rtt(self, sample_ns: int) -> None:
        if self.srtt is None:
            self.srtt = float(sample_ns)
            self.rttvar = sample_ns / 2
        else:
            self.rttvar = 0.75 * self.rttvar + 0.25 * abs(self.srtt - sample_ns)
            self.srtt = 0.875 * self.srtt + 0.125 * sample_ns


def _coalesce(intervals: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Sorted union of byte ranges; touching ranges merge."""
    intervals.sort()
    merged: list[tuple[int, int]] = []
    for s, e in intervals:
        if merged and s <= merged[-1][1]:
            if e > merged[-1][1]:
                merged[-1] = (merged[-1][0], e)
        else:
            merged.append((s, e))
    return merged


class TcpListener:
    """Passive open: queue of handshake-completed connections."""

    def __init__(
        self,
        stack: "Stack",
        port: int,
        in_kernel: bool = False,
        sndbuf: int = 256 * 1024,
        rcvbuf: int = 256 * 1024,
    ):
        from ..sim import Store

        self.stack = stack
        self.port = port
        self.in_kernel = in_kernel
        self.sndbuf = sndbuf
        self.rcvbuf = rcvbuf
        self._accept_q = Store(stack.sim, name=f"listen:{port}")

    def accept(self):
        """Generator: wait for the next established connection."""
        conn = yield self._accept_q.get()
        return conn

    def _on_syn(self, seg: TcpSegment, src_ip: str) -> None:
        for c in self.stack._tcp_conns.values():
            if (
                c.local_port == self.port
                and c.remote_ip == src_ip
                and c.remote_port == seg.sport
            ):
                # Retransmitted SYN: our SYN/ACK was lost; resend it.
                self.stack.sim.process(c._emit(syn=True), name="tcp.synack-rtx")
                return
        conn = TcpConnection(
            self.stack,
            local_port=self.port,
            remote_ip=src_ip,
            remote_port=seg.sport,
            sndbuf=self.sndbuf,
            rcvbuf=self.rcvbuf,
            in_kernel=self.in_kernel,
        )
        if seg.conn_ref is not None:
            conn.peer = seg.conn_ref
        self.stack.register_tcp(conn)
        conn.state = TcpState.SYN_RECEIVED
        self.stack.sim.process(self._synack(conn), name="tcp.synack")

    def _synack(self, conn: TcpConnection):
        yield from conn._emit(syn=True)
        conn._start()
        yield self._accept_q.put(conn)


class TcpMessageChannel:
    """Message framing over a TCP byte stream.

    Real implementations prefix each message with a length header; the
    simulation equivalent rides the message *object* alongside the byte
    counts: the sender records (stream offset at message end, object) on
    the receiving endpoint before the bytes flow, and the receiver
    surfaces the object once that many bytes have been delivered in
    order.  Both the VNET/P bridge's TCP-encapsulated links and the MPI
    transport use this.
    """

    def __init__(self, conn: TcpConnection):
        self.conn = conn
        self._consumed = 0
        self._announced = 0  # local bytes announced to the peer

    def send_message(self, obj: object, nbytes: int):
        """Generator: frame ``obj`` as ``nbytes`` of stream data and send."""
        if nbytes <= 0:
            raise ValueError(f"message size must be positive, got {nbytes}")
        if self.conn.peer is None:
            raise RuntimeError("TcpMessageChannel requires a paired connection")
        self._announced += nbytes
        self.conn.peer._in_msgs.append((self._announced, obj))
        yield from self.conn.send(nbytes)

    def recv_message(self):
        """Generator: block until the next whole message has arrived."""
        conn = self.conn
        while not conn._in_msgs:
            if conn.peer_fin:
                raise EOFError("connection closed before next message")
            yield conn._recv_signal.wait()
        end, obj = conn._in_msgs[0]
        while self._consumed < end:
            got = yield from conn.recv(end - self._consumed)
            if got == 0:
                raise EOFError("connection closed mid-message")
            self._consumed += got
        conn._in_msgs.popleft()
        return obj
