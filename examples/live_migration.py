#!/usr/bin/env python3
"""Live VM migration with uninterrupted connectivity — plus adaptation.

The VNET model's defining promises (Sect. 3): VMs are *location
independent* (migrate anywhere, keep talking) and the overlay is the
*locus of adaptation*.  This example runs a continuous TCP transfer
into a VM, live-migrates that VM to a different host mid-transfer, lets
the adaptation engine notice the new heavy flow and optimise routing,
and shows the transfer completing untouched.

Run:  python examples/live_migration.py
"""

from repro import units
from repro.config import NETEFFECT_10G
from repro.harness.testbed import build_vnetp
from repro.vnet import AdaptationEngine, TrafficMonitor, migrate_vm


def main() -> None:
    print("== Live migration over the overlay ==\n")
    tb = build_vnetp(n_hosts=3, nic_params=NETEFFECT_10G)
    sim = tb.sim
    a, b, c = tb.endpoints
    monitors = [TrafficMonitor(sim, core) for core in tb.cores]
    engine = AdaptationEngine(sim, tb.cores, min_flow_bytes=64 * 1024)
    done = {}

    def server():
        listener = b.stack.tcp_listen(5001)
        conn = yield from listener.accept()
        done["received"] = yield from conn.drain()

    def client():
        conn = yield from a.stack.tcp_connect(b.ip, 5001)
        yield from conn.send(20 * units.MB)
        yield from conn.close()
        done["retransmits"] = conn.retransmits

    def migration():
        yield sim.timeout(2 * units.MS)
        print(f"t={sim.now / units.MS:6.2f} ms  migrating {b.vm.name} "
              f"from {tb.hosts[1].name} to {tb.hosts[2].name} ...")
        result = yield from migrate_vm(
            sim, tb.cores, b.vm, b.vm.virtio_nics[0],
            src_idx=1, dst_idx=2, migration_bw_Bps=100e9,
        )
        print(f"t={sim.now / units.MS:6.2f} ms  migration complete "
              f"(blackout {result.blackout_ns / units.MS:.2f} ms)")
        engine.refresh_directory()
        changes = engine.adapt()
        print(f"t={sim.now / units.MS:6.2f} ms  adaptation engine applied "
              f"{changes} routing change(s)")

    sim.process(server())
    sim.process(client())
    sim.process(migration())
    sim.run()

    print(f"\ntransfer completed: {done['received'] / units.MB:.0f} MB received, "
          f"{done['retransmits']} TCP retransmissions covered the blackout")
    print(f"guest {b.ip} kept its address and connections; only the overlay moved")
    top = monitors[0].top_flows(1)[0]
    print(f"observed top flow at host h0: {top.src} -> {top.dst}, "
          f"{top.bytes / units.MB:.0f} MB")


if __name__ == "__main__":
    main()
