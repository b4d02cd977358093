"""Property-based TCP robustness: random loss, exact delivery."""

from hypothesis import given, settings, strategies as st

from repro.chaos import LossStage
from repro.config import NETEFFECT_10G, default_host
from repro.harness.testbed import build_vnetp
from repro.host import Host
from repro.hw import Link
from repro.sim import Simulator
from repro import units


def native_pair():
    sim = Simulator()
    a = Host(sim, default_host(), NETEFFECT_10G, ip="10.0.0.1", name="a")
    b = Host(sim, default_host(), NETEFFECT_10G, ip="10.0.0.2", name="b")
    Link(sim, a.nic, b.nic)
    a.add_neighbor(b)
    b.add_neighbor(a)
    return sim, a, b


def transfer(sim, a, b, nbytes):
    done = {}

    def server():
        listener = b.stack.tcp_listen(80)
        conn = yield from listener.accept()
        done["got"] = yield from conn.drain()

    def client():
        conn = yield from a.stack.tcp_connect(b.ip, 80)
        yield from conn.send(nbytes)
        yield from conn.close()
        done["conn"] = conn

    sim.process(server())
    sim.process(client())
    sim.run()
    return done


@settings(max_examples=10, deadline=None)
@given(
    rate=st.floats(min_value=0.0, max_value=0.03),
    seed=st.integers(min_value=0, max_value=2**16),
    nbytes=st.integers(min_value=1, max_value=1_500_000),
)
def test_property_tcp_delivers_exactly_under_loss(rate, seed, nbytes):
    """Whatever the loss pattern, TCP delivers every byte exactly once."""
    sim, a, b = native_pair()
    LossStage(sim, rate, seed).install(a.nic.tx_port)
    LossStage(sim, rate, seed + 1).install(b.nic.tx_port)
    done = transfer(sim, a, b, nbytes)
    assert done["got"] == nbytes


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**16))
def test_property_tcp_over_overlay_under_loss(seed):
    """The same property holds with the full VNET/P path underneath."""
    tb = build_vnetp(nic_params=NETEFFECT_10G)
    LossStage(tb.sim, 0.01, seed).install(tb.hosts[0].nic.tx_port)
    sim = tb.sim
    a, b = tb.endpoints
    done = {}

    def server():
        listener = b.stack.tcp_listen(80)
        conn = yield from listener.accept()
        done["got"] = yield from conn.drain()

    def client():
        conn = yield from a.stack.tcp_connect(b.ip, 80)
        yield from conn.send(800_000)
        yield from conn.close()

    sim.process(server())
    sim.process(client())
    sim.run()
    assert done["got"] == 800_000

def test_handshake_survives_lost_synack():
    """A lost SYN/ACK must be resent when the retransmitted SYN arrives.

    Regression: the passive side registers the connection (and moves to
    ESTABLISHED) as soon as its SYN/ACK goes out, so the client's
    retransmitted SYN demuxes to the connection, not the listener.  The
    connection used to drop it, leaving the client to exhaust its SYN
    retries.  Loss seeds chosen so exactly the first SYN/ACK is lost.
    """
    sim, a, b = native_pair()
    LossStage(sim, 0.0234375, 27191).install(a.nic.tx_port)
    LossStage(sim, 0.0234375, 27192).install(b.nic.tx_port)
    done = transfer(sim, a, b, 1)
    assert done["got"] == 1
