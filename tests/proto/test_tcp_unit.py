"""Focused TCP behaviour tests (flow/congestion control, framing)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import NETEFFECT_10G, default_host
from repro.harness.testbed import build_native
from repro.hw import Link
from repro.host import Host
from repro.proto.tcp import TcpMessageChannel
from repro.sim import Simulator
from repro import units


def make_pair():
    sim = Simulator()
    a = Host(sim, default_host(), NETEFFECT_10G, ip="10.0.0.1", name="a")
    b = Host(sim, default_host(), NETEFFECT_10G, ip="10.0.0.2", name="b")
    Link(sim, a.nic, b.nic)
    a.add_neighbor(b)
    b.add_neighbor(a)
    return sim, a, b


def test_slow_start_grows_cwnd():
    sim, a, b = make_pair()
    conns = {}

    def server():
        listener = b.stack.tcp_listen(80)
        conn = yield from listener.accept()
        yield from conn.drain()

    def client():
        conn = yield from a.stack.tcp_connect(b.ip, 80)
        initial = conn.cwnd
        yield from conn.send(2_000_000)
        yield from conn.close()
        conns["initial"] = initial
        conns["final"] = conn.cwnd

    sim.process(server())
    sim.process(client())
    sim.run()
    assert conns["final"] > 2 * conns["initial"]


def test_timeout_halves_aggressively_and_recovers():
    sim, a, b = make_pair()
    # Drop a burst mid-transfer.
    original = a.nic.tx_port.sink
    state = {"n": 0}

    def lossy(frame):
        state["n"] += 1
        if 100 <= state["n"] < 110:
            return
        original(frame)

    a.nic.tx_port.rebind(lossy)
    done = {}

    def server():
        listener = b.stack.tcp_listen(80)
        conn = yield from listener.accept()
        done["got"] = yield from conn.drain()

    def client():
        conn = yield from a.stack.tcp_connect(b.ip, 80)
        yield from conn.send(3_000_000)
        yield from conn.close()
        done["conn"] = conn

    sim.process(server())
    sim.process(client())
    sim.run()
    assert done["got"] == 3_000_000
    conn = done["conn"]
    assert conn.retransmits >= 1
    assert conn.ssthresh < 1 << 30  # multiplicative decrease happened


def test_receiver_window_limits_inflight():
    sim, a, b = make_pair()
    observed = {"max_inflight": 0}

    def server():
        listener = b.stack.tcp_listen(80, rcvbuf=32 * 1024)
        conn = yield from listener.accept()
        # Slow reader: drain in small sips so the window stays closed.
        total = 0
        while total < 500_000:
            got = yield from conn.recv(8192)
            if got == 0:
                break
            total += got
            yield sim.timeout(50_000)

    def client():
        conn = yield from a.stack.tcp_connect(b.ip, 80)

        def watcher():
            while conn.app_written < 500_000:
                observed["max_inflight"] = max(observed["max_inflight"], conn.inflight)
                yield sim.timeout(20_000)

        sim.process(watcher())
        yield from conn.send(500_000)
        yield from conn.close()

    sim.process(server())
    sim.process(client())
    sim.run()
    # Inflight never exceeds the advertised window by more than one MSS.
    assert observed["max_inflight"] <= 32 * 1024 + 9000


def test_message_channel_roundtrip():
    sim, a, b = make_pair()
    got = []

    def server():
        listener = b.stack.tcp_listen(80)
        conn = yield from listener.accept()
        channel = TcpMessageChannel(conn)
        for _ in range(3):
            msg = yield from channel.recv_message()
            got.append(msg)

    def client():
        conn = yield from a.stack.tcp_connect(b.ip, 80)
        channel = TcpMessageChannel(conn)
        yield from channel.send_message("alpha", 100)
        yield from channel.send_message("beta", 50_000)
        yield from channel.send_message("gamma", 7)

    sim.process(server())
    sim.process(client())
    sim.run()
    assert got == ["alpha", "beta", "gamma"]


def test_message_channel_rejects_nonpositive():
    sim, a, b = make_pair()

    def go():
        conn = yield from a.stack.tcp_connect(b.ip, 80)
        channel = TcpMessageChannel(conn)
        yield from channel.send_message("x", 0)

    b.stack.tcp_listen(80)
    p = sim.process(go())
    with pytest.raises(ValueError):
        sim.run(until=p)


def test_message_channel_eof_raises():
    sim, a, b = make_pair()
    outcome = {}

    def server():
        listener = b.stack.tcp_listen(80)
        conn = yield from listener.accept()
        channel = TcpMessageChannel(conn)
        try:
            yield from channel.recv_message()
        except EOFError:
            outcome["eof"] = True

    def client():
        conn = yield from a.stack.tcp_connect(b.ip, 80)
        yield from conn.close()

    sim.process(server())
    sim.process(client())
    sim.run()
    assert outcome.get("eof")


@settings(max_examples=15, deadline=None)
@given(
    sizes=st.lists(st.integers(min_value=1, max_value=200_000), min_size=1, max_size=8)
)
def test_property_message_channel_preserves_order_and_count(sizes):
    sim, a, b = make_pair()
    got = []

    def server():
        listener = b.stack.tcp_listen(80)
        conn = yield from listener.accept()
        channel = TcpMessageChannel(conn)
        for _ in sizes:
            msg = yield from channel.recv_message()
            got.append(msg)

    def client():
        conn = yield from a.stack.tcp_connect(b.ip, 80)
        channel = TcpMessageChannel(conn)
        for i, s in enumerate(sizes):
            yield from channel.send_message(("msg", i, s), s)

    sim.process(server())
    sim.process(client())
    sim.run()
    assert got == [("msg", i, s) for i, s in enumerate(sizes)]


def test_fast_retransmit_beats_rto():
    """A single mid-stream drop recovers via 3 dup-ACKs, far faster than
    the 1 ms RTO floor."""
    sim, a, b = make_pair()
    state = {"n": 0}
    original = a.nic.tx_port.sink

    def drop_one(frame):
        state["n"] += 1
        if state["n"] == 60:   # one data frame, mid-stream
            return
        original(frame)

    a.nic.tx_port.rebind(drop_one)
    done = {}

    def server():
        listener = b.stack.tcp_listen(80)
        conn = yield from listener.accept()
        done["got"] = yield from conn.drain()

    def client():
        conn = yield from a.stack.tcp_connect(b.ip, 80)
        yield from conn.send(3_000_000)
        yield from conn.close()
        done["conn"] = conn

    sim.process(server())
    sim.process(client())
    sim.run()
    assert done["got"] == 3_000_000
    conn = done["conn"]
    assert conn.fast_retransmits >= 1


def test_dup_ack_counter_resets_on_progress():
    sim, a, b = make_pair()
    done = {}

    def server():
        listener = b.stack.tcp_listen(80)
        conn = yield from listener.accept()
        done["got"] = yield from conn.drain()

    def client():
        conn = yield from a.stack.tcp_connect(b.ip, 80)
        yield from conn.send(500_000)
        yield from conn.close()
        done["conn"] = conn

    sim.process(server())
    sim.process(client())
    sim.run()
    # Clean transfer: no retransmissions of either kind.
    assert done["conn"].fast_retransmits == 0
    assert done["conn"].retransmits == 0
