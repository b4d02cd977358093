"""repro — a reproduction of VNET/P: fast VMM-based overlay networking.

The library simulates, at event level, the complete system from
*"VNET/P: Bridging the Cloud and High Performance Computing Through
Fast Overlay Networking"* (HPDC 2012 / Cluster Computing 2013):
the Palacios VMM with virtio NICs, the in-VMM VNET/P overlay (routing,
packet dispatchers, bridge, control language), the user-level VNET/U
baseline, the physical substrates (1/10 Gbps Ethernet, IPoIB, Cray
Gemini, the Kitten lightweight kernel), and the paper's workloads
(ping, ttcp, MPI/IMB, HPCC, the NAS parallel benchmarks).

Quick start::

    from repro.config import NETEFFECT_10G
    from repro.harness import build_vnetp
    from repro.apps.ping import run_ping

    tb = build_vnetp(nic_params=NETEFFECT_10G)
    result = run_ping(tb.endpoints[0], tb.endpoints[1], count=100)
    print(result.avg_rtt_us)

Subpackages:

* :mod:`repro.sim` — discrete-event simulation kernel
* :mod:`repro.hw` — NICs, links, switches, memory
* :mod:`repro.proto` — Ethernet/IP/UDP/TCP/ICMP stack and sockets
* :mod:`repro.host` — Linux and Kitten host embeddings
* :mod:`repro.palacios` — the VMM and virtio NIC models
* :mod:`repro.vnet` — VNET/P core/bridge/control and VNET/U
* :mod:`repro.interconnect` — InfiniBand (IPoIB) and Cray Gemini (IPoG)
* :mod:`repro.mpi` — simulated MPI with collectives and two transports
* :mod:`repro.apps` — ping, ttcp, IMB, HPCC, NAS benchmark programs
* :mod:`repro.harness` — testbeds, calibration, experiments, reporting
"""

from . import units
from .config import (
    BROADCOM_1G,
    GEMINI_IPOG,
    MELLANOX_IPOIB,
    NETEFFECT_10G,
    VnetMode,
    VnetTuning,
    YieldStrategy,
    default_host,
    default_tuning,
)
from .sim import Simulator

__version__ = "1.0.0"

__all__ = [
    "units",
    "Simulator",
    "BROADCOM_1G",
    "NETEFFECT_10G",
    "MELLANOX_IPOIB",
    "GEMINI_IPOG",
    "VnetMode",
    "VnetTuning",
    "YieldStrategy",
    "default_host",
    "default_tuning",
    "__version__",
]
