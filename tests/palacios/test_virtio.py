"""Tests for the Palacios VMM model and virtio NIC."""

import pytest

from repro.config import NETEFFECT_10G, default_host
from repro.harness.testbed import build_vnetp
from repro.host import Host
from repro.palacios import PalaciosVMM
from repro.proto import Blob, EthernetFrame
from repro.sim import Simulator


def make_vm():
    sim = Simulator()
    host = Host(sim, default_host(), NETEFFECT_10G, ip="10.0.0.1", name="h")
    vmm = PalaciosVMM(sim, host)
    vm = vmm.create_vm("vm0", guest_ip="172.16.0.1")
    nic = vm.attach_virtio_nic(mac="5a:00:00:00:00:01", mtu=9000)
    return sim, host, vmm, vm, nic


def frame(size, dst="5a:00:00:00:00:02"):
    return EthernetFrame(src="5a:00:00:00:00:01", dst=dst, payload=Blob(size - 14))


def test_vm_registration():
    sim, host, vmm, vm, nic = make_vm()
    assert host.vmm is vmm
    assert vmm.vms == [vm]
    assert vm.virtio_nics == [nic]
    assert nic.stack is vm.stack


def test_unregistered_nic_rejects_tx():
    sim, host, vmm, vm, nic = make_vm()

    def send():
        yield from nic.send_blocking(frame(100))

    p = sim.process(send())
    with pytest.raises(RuntimeError, match="no backend"):
        sim.run(until=p)


def test_virtio_mtu_enforced():
    sim, host, vmm, vm, nic = make_vm()
    nic.register_backend(lambda n: iter(()))

    def send():
        yield from nic.send_blocking(frame(9100 + 14))

    p = sim.process(send())
    with pytest.raises(ValueError, match="MTU"):
        sim.run(until=p)


def test_kick_causes_exit_and_invokes_backend():
    sim, host, vmm, vm, nic = make_vm()
    seen = []

    def backend(n):
        while True:
            f = n.txq.try_get()
            if f is None:
                break
            seen.append(f)
            yield sim.timeout(100)

    nic.register_backend(backend)

    def send():
        yield from nic.send_blocking(frame(1000))

    p = sim.process(send())
    sim.run(until=p)
    assert len(seen) == 1
    assert vmm.exits_virtio_kick == 1
    assert nic.tx_kicks == 1


def test_kick_suppression_skips_exit():
    sim, host, vmm, vm, nic = make_vm()
    nic.register_backend(lambda n: iter(()))
    nic.suppress_kicks = True

    def send():
        yield from nic.send_blocking(frame(1000))

    p = sim.process(send())
    sim.run(until=p)
    assert vmm.exits_virtio_kick == 0
    assert len(nic.txq) == 1  # waiting for a dispatcher to poll it


def test_rx_ring_overflow_drops():
    sim, host, vmm, vm, nic = make_vm()
    ring = nic.params.ring_size
    delivered = sum(
        1 for _ in range(ring + 50) if nic.deliver_to_guest(frame(100, dst=nic.mac))
    )
    assert delivered <= ring
    assert nic.rx_drops >= 50 - (delivered - ring)
    assert nic.rx_drops + delivered == ring + 50


def test_rx_delivery_reaches_guest_stack():
    sim, host, vmm, vm, nic = make_vm()
    # Put a UDP datagram for the guest into the RXQ and raise the irq.
    from repro.proto.ip import PROTO_UDP, IPv4Packet
    from repro.proto.udp import UDPDatagram

    got = []

    def app():
        sock = vm.stack.udp_socket(port=99)
        payload, src, _ = yield from sock.recv()
        got.append((payload.size, src))

    sim.process(app())
    dgram = UDPDatagram(sport=1, dport=99, payload=Blob(500))
    pkt = IPv4Packet(src="172.16.0.2", dst="172.16.0.1", proto=PROTO_UDP, payload=dgram)
    eth = EthernetFrame(src="5a:00:00:00:00:02", dst=nic.mac, payload=pkt)
    nic.deliver_to_guest(eth)
    nic.raise_irq()
    sim.run()
    assert got == [(500, "172.16.0.2")]
    assert nic.rx_packets == 1
    assert nic.irq_injections == 1


def test_exit_accounting_totals():
    sim, host, vmm, vm, nic = make_vm()
    nic.register_backend(lambda n: iter(()))

    def send():
        for _ in range(3):
            yield from nic.send_blocking(frame(1000))

    p = sim.process(send())
    sim.run(until=p)
    # Every kick is one exit, counted under the host's exit reason.
    assert vmm.obs.metrics.snapshot(f"palacios.{host.name}.exits.") == {
        f"palacios.{host.name}.exits.virtio-kick": 3
    }
