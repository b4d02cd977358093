"""Cost-model parameters for every simulated component.

All timing constants live here, expressed in nanoseconds (or bits/bytes
per second for rates), grouped into frozen dataclasses per subsystem.
Defaults are calibrated so that *native* microbenchmark results match the
paper's testbed (Sect. 5.1: dual quad-core Xeon X3430 hosts, Broadcom
1 Gbps NIC, NetEffect NE020 10 Gbps NIC, direct-connected), and the
virtualization-side constants match the paper's reported VNET/P and
VNET/U overheads.  Calibration anchors are listed in DESIGN.md.
"""

from __future__ import annotations

import enum
import os
from dataclasses import dataclass, field, replace

from .units import Gbps, usec

__all__ = [
    "CPUParams",
    "MemoryParams",
    "NICParams",
    "HostStackParams",
    "VMMParams",
    "VirtioParams",
    "VnetMode",
    "YieldStrategy",
    "VnetTuning",
    "VnetCostParams",
    "VnetUParams",
    "HostParams",
    "BROADCOM_1G",
    "NETEFFECT_10G",
    "MELLANOX_IPOIB",
    "GEMINI_IPOG",
    "XEON_X3430",
    "OPTERON_2376",
    "DEFAULT_MEMORY",
    "DEFAULT_STACK",
    "DEFAULT_VMM",
    "DEFAULT_VIRTIO",
    "DEFAULT_VNET_COSTS",
    "DEFAULT_VNETU",
    "default_tuning",
]


@dataclass(frozen=True)
class CPUParams:
    """A host processor."""

    name: str = "xeon-x3430"
    freq_hz: float = 2.4e9
    cores: int = 4


@dataclass(frozen=True)
class MemoryParams:
    """Memory-copy cost model: fixed setup plus per-byte streaming cost."""

    copy_bw_Bps: float = 6.0e9
    copy_setup_ns: int = 60

    def copy_ns(self, nbytes: int) -> int:
        return self.copy_setup_ns + int(round(nbytes * 1e9 / self.copy_bw_Bps))


@dataclass(frozen=True)
class NICParams:
    """A physical network device (or an IPoIB/IPoG pseudo-Ethernet device).

    ``rx_interrupt_delay_ns`` models interrupt moderation + wakeup latency
    between frame arrival and the host driver running; it dominates native
    small-packet round-trip times.
    """

    name: str
    rate_bps: float
    max_mtu: int
    header_bytes: int = 18            # Ethernet header + FCS
    propagation_ns: int = 500         # cable + PHY
    tx_ring_ns: int = 300             # descriptor handling per frame (tx)
    rx_ring_ns: int = 300             # descriptor handling per frame (rx)
    rx_interrupt_delay_ns: int = 4_000
    tx_queue_frames: int = 512

    def serialize_ns(self, nbytes: int) -> int:
        from .units import tx_time_ns

        return tx_time_ns(nbytes + self.header_bytes, self.rate_bps)


@dataclass(frozen=True)
class HostStackParams:
    """Linux host networking-stack costs (per packet + per byte)."""

    syscall_ns: int = 700             # user->kernel->user round trip
    udp_tx_ns: int = 1_500            # UDP/IP send path, headers + route
    udp_rx_ns: int = 1_800            # UDP/IP receive path + demux
    tcp_tx_ns: int = 2_200
    tcp_rx_ns: int = 2_600
    tcp_ack_tx_ns: int = 600      # pure-ACK transmit path
    tcp_ack_rx_ns: int = 700      # pure-ACK receive path
    icmp_ns: int = 1_200              # ICMP echo handling
    per_byte_checksum_ns: float = 0.10   # checksum+touch cost per byte
    softirq_wakeup_ns: int = 1_500    # driver IRQ -> stack processing
    sched_wakeup_ns: int = 3_000      # blocked thread wakeup (ksoftirqd->app)
    kernel_user_copy_setup_ns: int = 250

    def checksum_ns(self, nbytes: int) -> int:
        return int(round(nbytes * self.per_byte_checksum_ns))


@dataclass(frozen=True)
class VMMParams:
    """Palacios virtualization costs on SVM/VT hardware."""

    exit_ns: int = 1_200              # guest -> VMM world switch
    entry_ns: int = 900               # VMM -> guest world switch
    interrupt_inject_ns: int = 400    # event-injection bookkeeping (plus exit/entry)
    hypercall_handler_ns: int = 300
    halt_poll_check_ns: int = 120     # one iteration of the halt poll loop

    @property
    def round_trip_ns(self) -> int:
        """Cost of a full VM exit + re-entry."""
        return self.exit_ns + self.entry_ns


@dataclass(frozen=True)
class VirtioParams:
    """Palacios virtio-net virtual NIC."""

    ring_size: int = 256
    kick_ns: int = 350                # I/O port write handling (inside exit)
    per_descriptor_ns: int = 150      # ring bookkeeping per packet
    guest_driver_tx_ns: int = 900     # guest-side driver work per packet
    guest_driver_rx_ns: int = 1_100
    irq_wakeup_ns: int = 7_000        # waking a halted VCPU for an injected interrupt
    irq_coalesce_ns: int = 25_000     # back-to-back interrupts within this window
                                      # skip the halt wakeup (NAPI-style polling)


class VnetMode(enum.Enum):
    """Packet-dispatch operating mode (Sect. 4.3)."""

    GUEST_DRIVEN = "guest-driven"
    VMM_DRIVEN = "vmm-driven"
    ADAPTIVE = "adaptive"


class YieldStrategy(enum.Enum):
    """Poll-loop yield strategy (Sect. 4.8)."""

    IMMEDIATE = "immediate"
    TIMED = "timed"
    ADAPTIVE = "adaptive"


@dataclass(frozen=True)
class VnetTuning:
    """Table 1: the user-visible VNET/P tuning parameters."""

    mode: VnetMode = VnetMode.ADAPTIVE
    alpha_l: float = 1e3              # packets/s, VMM->guest switch bound
    alpha_u: float = 1e4              # packets/s, guest->VMM switch bound
    window_ns: int = usec(5_000)      # rate-estimation window (5 ms)
    n_dispatchers: int = 1
    yield_strategy: YieldStrategy = YieldStrategy.IMMEDIATE
    t_sleep_ns: int = usec(100)       # timed-yield sleep quantum
    t_nowork_ns: int = usec(50)       # adaptive-yield threshold
    routing_cache: bool = True
    # Hybrid fluid/packet simulation (repro.sim.fluid): steady bulk TCP
    # flows are advanced analytically in large sim-time strides instead
    # of packet by packet.  Default off (the packet path is the golden
    # reference); REPRO_FLUID=1 enables it for benches and CI A/B runs.
    fluid: bool = field(
        default_factory=lambda: os.environ.get("REPRO_FLUID", "0") != "0"
    )
    fluid_min_bytes: int = 128 * 1024   # pending bytes before capture pays off
    vnet_mtu: int = 9000              # MTU advertised to the guest
    # VNET/P+ techniques (Cui et al., SC'12; Sect. 6.3 notes these are
    # being back-ported into the Linux version):
    cut_through: bool = False         # forward before the packet copy completes
    optimistic_interrupts: bool = False  # inject the irq while data still moves


@dataclass(frozen=True)
class VnetCostParams:
    """Per-packet processing costs inside the VNET/P core and bridge."""

    route_cache_hit_ns: int = 180
    route_table_per_entry_ns: int = 90
    dispatch_ns: int = 450            # dequeue, demux, hand-off bookkeeping
    copy_bw_Bps: float = 1.1e9        # effective bandwidth of the in-VMM packet copy
    idle_wakeup_ns: int = 7_000       # waking an idle dispatcher/bridge thread (IPI + sched)
    encap_ns: int = 500               # UDP header construction
    decap_ns: int = 450
    encap_header_bytes: int = 42      # outer Ethernet+IP+UDP headers
    bridge_tx_ns: int = 800           # bridge kernel-module send path
    bridge_rx_ns: int = 900
    frag_per_fragment_ns: int = 900
    reasm_per_fragment_ns: int = 1_100
    cut_through_ns: int = 600         # header peek + ring-slot reservation when
                                      # the body copy is taken off the serial path


@dataclass(frozen=True)
class VnetUParams:
    """User-level VNET/U daemon costs (the baseline, Sect. 3).

    Each packet crosses the kernel/user boundary multiple times (guest ->
    VMM -> host tap -> daemon -> host socket, and symmetrically on
    receive), each crossing paying a transition plus a copy.
    """

    transitions_per_packet: int = 4
    transition_ns: int = 1_800
    select_overhead_ns: int = 2_500   # poll/select dispatch per packet
    daemon_process_ns: int = 5_000    # routing + encapsulation at user level
    copy_bw_Bps: float = 1.2e9        # user-level copies are not streaming-optimised
    copies_per_packet: int = 3
    sched_latency_ns: int = 180_000   # daemon scheduling delay per hop (dominates latency)


@dataclass(frozen=True)
class OsNoiseParams:
    """Host OS scheduling noise.

    Commodity Linux adds unpredictable microseconds to every thread
    wakeup (timer ticks, RCU, kworkers); lightweight kernels like Kitten
    are engineered to have almost none, which is why the Kitten VNET/P
    shows "very little jitter in latency compared to the Linux version"
    (Sect. 6.3).  Noise is uniform in [0, jitter_max_ns] per wakeup,
    drawn from a per-host deterministic stream.
    """

    jitter_max_ns: int = 6_000


DEFAULT_NOISE = OsNoiseParams()
KITTEN_NOISE = OsNoiseParams(jitter_max_ns=150)
__all__.extend(["OsNoiseParams", "DEFAULT_NOISE", "KITTEN_NOISE"])


@dataclass(frozen=True)
class MPIParams:
    """OpenMPI-style library costs (Sect. 5.3 runs OpenMPI 1.3 over TCP).

    ``copy_bw_Bps`` is the user-buffer <-> transport copy each side pays
    per message; it is what pulls native MPI bandwidth below raw TCP
    throughput (Fig. 11 vs Fig. 8).
    """

    overhead_ns: int = 2_500          # per-call matching/progress engine cost
    copy_bw_Bps: float = 3.4e9        # per-side message copy
    copy_bw_virtual_Bps: float = 2.3e9  # same copy inside a guest: contends with
                                        # the VMM's packet copies for the memory
                                        # system (Sect. 5.3's "memory copy
                                        # bandwidth limited" interpretation)
    shm_latency_ns: int = 1_200       # intra-node (shared-memory BTL) latency
    shm_bw_Bps: float = 2.8e9         # intra-node bandwidth per message


DEFAULT_MPI = MPIParams()
__all__.extend(["MPIParams", "DEFAULT_MPI"])


@dataclass(frozen=True)
class HostParams:
    """Everything describing one physical host."""

    cpu: CPUParams
    memory: MemoryParams
    stack: HostStackParams
    vmm: VMMParams
    virtio: VirtioParams
    vnet_costs: VnetCostParams
    vnetu: VnetUParams
    noise: OsNoiseParams = DEFAULT_NOISE
    name: str = "host"

    def with_(self, **kw) -> "HostParams":
        return replace(self, **kw)


# --- Named hardware ----------------------------------------------------------

BROADCOM_1G = NICParams(
    name="broadcom-netxtreme2-1g",
    rate_bps=1 * Gbps,
    max_mtu=1500,
    rx_interrupt_delay_ns=50_000,     # 1G NICs coalesce aggressively
    tx_ring_ns=500,
    rx_ring_ns=500,
)

NETEFFECT_10G = NICParams(
    name="neteffect-ne020-10g",
    rate_bps=10 * Gbps,
    max_mtu=9000,
    rx_interrupt_delay_ns=15_500,
    tx_ring_ns=250,
    rx_ring_ns=250,
)

# IPoIB pseudo-Ethernet over Mellanox ConnectX DDR/QDR.  The rate is the
# effective IPoIB throughput ceiling, not the signalling rate; IPoIB in
# connected mode on this hardware tops out well below the link rate.
MELLANOX_IPOIB = NICParams(
    name="mellanox-ipoib",
    rate_bps=6.8 * Gbps,
    max_mtu=65520,
    header_bytes=44,                  # IPoIB encapsulation overhead
    propagation_ns=900,
    tx_ring_ns=700,
    rx_ring_ns=700,
    rx_interrupt_delay_ns=9_000,
)

# Cray Gemini IPoG virtual Ethernet.  Theoretical 40 Gbps; the IPoG TCP
# path is far below that (the paper measures 1.6 GB/s for VNET/P and
# attributes part of the gap to a precision-timing problem).
GEMINI_IPOG = NICParams(
    name="cray-gemini-ipog",
    rate_bps=22 * Gbps,
    max_mtu=64000,
    header_bytes=32,
    propagation_ns=1_500,             # multi-hop torus average
    tx_ring_ns=900,
    rx_ring_ns=900,
    rx_interrupt_delay_ns=7_000,
)

XEON_X3430 = CPUParams(name="xeon-x3430", freq_hz=2.4e9, cores=4)
OPTERON_2376 = CPUParams(name="opteron-2376", freq_hz=2.3e9, cores=8)

DEFAULT_MEMORY = MemoryParams()
DEFAULT_STACK = HostStackParams()
DEFAULT_VMM = VMMParams()
DEFAULT_VIRTIO = VirtioParams()
DEFAULT_VNET_COSTS = VnetCostParams()
DEFAULT_VNETU = VnetUParams()


def default_tuning(**kw) -> VnetTuning:
    """Table 1 defaults, overridable per experiment."""
    return replace(VnetTuning(), **kw)


def default_host(name: str = "host", cpu: CPUParams = XEON_X3430) -> HostParams:
    """A host with the paper's testbed defaults."""
    return HostParams(
        cpu=cpu,
        memory=DEFAULT_MEMORY,
        stack=DEFAULT_STACK,
        vmm=DEFAULT_VMM,
        virtio=DEFAULT_VIRTIO,
        vnet_costs=DEFAULT_VNET_COSTS,
        vnetu=DEFAULT_VNETU,
        name=name,
    )


__all__.append("default_host")
