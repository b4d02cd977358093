"""Reno congestion-control tests: fast recovery, SACK, Karn, RTO backoff.

Companion to ``test_tcp_unit.py``: that file covers flow control and
framing; this one exercises the loss-recovery state machine added with
the fairness work — fast retransmit/fast recovery (including NewReno
partial ACKs), the SACK scoreboard, Karn's algorithm, exponential RTO
backoff, and the published cwnd/ssthresh/state gauges.
"""

from hypothesis import given, settings, strategies as st

from repro.config import NETEFFECT_10G, default_host
from repro.host import Host
from repro.hw import Link
from repro.proto.tcp import CongestionState
from repro.sim import Simulator


def make_pair():
    sim = Simulator()
    a = Host(sim, default_host(), NETEFFECT_10G, ip="10.0.0.1", name="a")
    b = Host(sim, default_host(), NETEFFECT_10G, ip="10.0.0.2", name="b")
    Link(sim, a.nic, b.nic)
    a.add_neighbor(b)
    b.add_neighbor(a)
    return sim, a, b


def run_transfer(sim, a, b, total):
    """One client->server transfer; returns (bytes_received, client_conn,
    server_conn)."""
    done = {}

    def server():
        listener = b.stack.tcp_listen(80)
        conn = yield from listener.accept()
        done["server"] = conn
        done["got"] = yield from conn.drain()

    def client():
        conn = yield from a.stack.tcp_connect(b.ip, 80)
        yield from conn.send(total)
        yield from conn.close()
        done["conn"] = conn

    sim.process(server())
    sim.process(client())
    sim.run()
    return done["got"], done["conn"], done["server"]


def drop_frames(a, predicate):
    """Wrap a's outbound medium: frames whose 1-based index satisfies
    ``predicate`` are silently dropped."""
    original = a.nic.tx_port.sink
    state = {"n": 0}

    def lossy(frame):
        state["n"] += 1
        if predicate(state["n"]):
            return
        original(frame)

    a.nic.tx_port.rebind(lossy)
    return state


def test_single_drop_recovers_without_rto():
    """One lost segment: fast recovery repairs exactly the hole — no
    timeout, no go-back-N."""
    sim, a, b = make_pair()
    drop_frames(a, lambda n: n == 60)
    got, conn, _ = run_transfer(sim, a, b, 3_000_000)
    assert got == 3_000_000
    assert conn.fast_retransmits == 1
    assert conn.fast_recoveries == 1
    # SACK clips the retransmission to the single hole: everything the
    # receiver buffered out of order is never resent.
    assert conn.retransmits == 1
    # The RTO never fired (backoff untouched), so recovery beat the
    # 10 ms timeout floor by orders of magnitude.
    assert conn._backoff == 0
    assert conn.cc_state is CongestionState.CONGESTION_AVOIDANCE
    assert conn.ssthresh < 1 << 30


def test_two_holes_one_recovery_newreno_partial_ack():
    """Two drops in one window: NewReno repairs the second hole on the
    partial ACK inside the *same* recovery episode."""
    sim, a, b = make_pair()
    drop_frames(a, lambda n: n in (60, 64))
    got, conn, _ = run_transfer(sim, a, b, 3_000_000)
    assert got == 3_000_000
    assert conn.fast_recoveries == 1          # one episode covers both holes
    assert conn.retransmits == 2              # one retransmission per hole
    assert conn._backoff == 0                 # still no RTO
    assert conn.cc_state is CongestionState.CONGESTION_AVOIDANCE


def test_receiver_sacks_out_of_order_data():
    """The receiver advertises SACK blocks for buffered segments and the
    sender registers them."""
    sim, a, b = make_pair()
    drop_frames(a, lambda n: n == 60)
    seen = {"ooo": 0}

    def watch(server_holder):
        while "got" not in server_holder:
            conn = server_holder.get("server")
            if conn is not None:
                seen["ooo"] = max(seen["ooo"], conn.ooo_bytes)
            yield sim.timeout(5_000)

    done = {}

    def server():
        listener = b.stack.tcp_listen(80)
        conn = yield from listener.accept()
        done["server"] = conn
        done["got"] = yield from conn.drain()

    def client():
        conn = yield from a.stack.tcp_connect(b.ip, 80)
        yield from conn.send(2_000_000)
        yield from conn.close()
        done["conn"] = conn

    sim.process(server())
    sim.process(client())
    sim.process(watch(done))
    sim.run()
    assert done["got"] == 2_000_000
    assert seen["ooo"] > 0                    # data really was buffered
    assert done["server"].ooo_bytes == 0      # ...and fully drained
    assert done["conn"].sacks_received >= 1


def test_karn_srtt_unpoisoned_by_retransmissions():
    """A burst drop forces RTO-based recovery; Karn's algorithm must keep
    the >=10 ms retransmission waits out of the RTT estimator."""
    sim, a, b = make_pair()
    drop_frames(a, lambda n: 100 <= n < 110)
    got, conn, _ = run_transfer(sim, a, b, 3_000_000)
    assert got == 3_000_000
    assert conn.retransmits >= 1
    assert conn.rtt_samples > 0
    # The true path RTT is tens of microseconds.  Sampling even one
    # ACK-of-a-retransmission against the original send time would mix a
    # >=10 ms RTO wait into srtt (one EWMA step alone adds >1 ms).
    assert conn.srtt is not None and conn.srtt < 1_000_000


def test_rto_backoff_doubles_then_resets():
    """A long blackout doubles the RTO each expiry; the first ACK after
    healing resets the backoff to zero."""
    sim, a, b = make_pair()
    original = a.nic.tx_port.sink
    state = {"n": 0}

    def blackout(frame):
        state["n"] += 1
        # From the 100th frame on, drop everything until t = 80 ms: long
        # enough for several RTO expiries before the path heals.
        if state["n"] >= 100 and sim.now < 80_000_000:
            return
        original(frame)

    a.nic.tx_port.rebind(blackout)
    peak = {"backoff": 0}
    done = {}

    def server():
        listener = b.stack.tcp_listen(80)
        conn = yield from listener.accept()
        done["got"] = yield from conn.drain()

    def client():
        conn = yield from a.stack.tcp_connect(b.ip, 80)
        done["conn"] = conn

        def watcher():
            while not conn.fin_sent:
                peak["backoff"] = max(peak["backoff"], conn._backoff)
                yield sim.timeout(1_000_000)

        sim.process(watcher())
        yield from conn.send(1_000_000)
        yield from conn.close()

    sim.process(server())
    sim.process(client())
    sim.run()
    assert done["got"] == 1_000_000
    conn = done["conn"]
    assert peak["backoff"] >= 2               # at least two doublings observed
    assert conn._backoff == 0                 # reset by post-heal ACK
    # rto_ns is the base timeout shifted left by the backoff count.
    base = conn.rto_ns
    conn._backoff = 3
    assert conn.rto_ns == base << 3
    conn._backoff = 0


@settings(max_examples=8, deadline=None)
@given(period=st.integers(min_value=3, max_value=9))
def test_reordering_alone_never_triggers_retransmission(period):
    """Swapping adjacent frames produces single dup-ACKs (below the
    3-dup-ACK threshold), so pure reordering causes zero retransmissions
    and exact delivery."""
    sim, a, b = make_pair()
    original = a.nic.tx_port.sink
    state = {"n": 0, "held": None, "swaps": 0}

    def reorder(frame):
        if state["held"] is not None:
            held, state["held"] = state["held"], None
            original(frame)
            original(held)
            return
        state["n"] += 1
        # Only swap early in the stream so a held frame always has a
        # successor to ride behind (a held *last* frame would need RTO).
        if state["n"] % period == 0 and state["n"] < 25:
            state["held"] = frame
            state["swaps"] += 1
            return
        original(frame)

    a.nic.tx_port.rebind(reorder)
    got, conn, server = run_transfer(sim, a, b, 500_000)
    assert got == 500_000
    assert state["swaps"] >= 1
    assert conn.fast_retransmits == 0
    assert conn.retransmits == 0
    assert conn.sacks_received >= 1           # each swap SACKed the gap
    assert server.ooo_bytes == 0


def test_cc_gauges_published_with_timestamps():
    """Application connections publish tcp.cc.* cwnd/ssthresh/state
    gauges with simulation timestamps."""
    sim, a, b = make_pair()
    run_transfer(sim, a, b, 1_000_000)
    metrics = a.stack.obs.metrics._metrics
    cwnd_names = [
        name for name in metrics
        if name.startswith("tcp.cc.a.") and name.endswith(".cwnd")
    ]
    assert cwnd_names, f"no cwnd gauge among {sorted(metrics)[:10]}..."
    base = cwnd_names[0][: -len(".cwnd")]
    cwnd = metrics[base + ".cwnd"]
    ssthresh = metrics[base + ".ssthresh"]
    state = metrics[base + ".state"]
    assert cwnd.value > 0
    assert cwnd.last_set_ns is not None and cwnd.last_set_ns > 0
    assert ssthresh.value > 0
    assert state.value in (0.0, 1.0, 2.0)
