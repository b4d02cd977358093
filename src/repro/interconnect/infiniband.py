"""InfiniBand / IPoIB support (Sect. 6.1).

IPoIB exposes the HCA to the host TCP/IP stack as a pseudo-Ethernet
device, so VNET/P "trivially" directs its UDP encapsulation over the IB
fabric — no VNET/P code changes, only addressing/routing configuration.
Correspondingly, this module only provides the device parameterisation
and testbed builders; the data path is the ordinary one.

The Mellanox IPoIB device model (:data:`repro.config.MELLANOX_IPOIB`)
reflects connected-mode IPoIB on ConnectX-class DDR hardware: an
effective rate ceiling well under the signalling rate, a 4 KB underlying
path MTU, and higher per-frame driver costs than an Ethernet NIC.
"""

from __future__ import annotations

import dataclasses

from ..config import MELLANOX_IPOIB, NICParams, VnetMode, default_host, default_tuning
from ..harness.testbed import Testbed, build_native, build_vnetp

__all__ = ["ipoib_nic", "untuned_vnetp", "build_native_ipoib", "build_vnetp_ipoib"]


def ipoib_nic(mtu: int = 65520) -> NICParams:
    """The IPoIB pseudo-Ethernet device (connected mode, large MTU)."""
    return dataclasses.replace(MELLANOX_IPOIB, max_mtu=mtu)


def untuned_vnetp() -> dict:
    """Builder arguments for the paper's *untuned* Sect. 6.1 VNET/P ("out
    of the box"): guest-driven operation and per-packet receive
    interrupts (no virtio rx interrupt coalescing)."""
    base = default_host()
    return {
        "tuning": default_tuning(mode=VnetMode.GUEST_DRIVEN),
        "host_params": dataclasses.replace(
            base, virtio=dataclasses.replace(base.virtio, irq_coalesce_ns=0)
        ),
    }


def build_native_ipoib(n_hosts: int = 2, **kw) -> Testbed:
    """Native hosts whose TCP/IP stacks run over IPoIB."""
    return build_native(n_hosts=n_hosts, nic_params=ipoib_nic(), **kw)


def build_vnetp_ipoib(n_hosts: int = 2, tuned: bool = False, **kw) -> Testbed:
    """VNET/P over IPoIB, untuned as in the paper (:func:`untuned_vnetp`).

    Pass ``tuned=True`` for the standard adaptive configuration instead.
    """
    untuned = {} if tuned else untuned_vnetp()
    return build_vnetp(n_hosts=n_hosts, nic_params=ipoib_nic(), **untuned, **kw)
