"""Cray Gemini / IPoG support (Sect. 6.2).

The Gemini NIC connects nodes in a 3-D torus; its "IPoG" layer exposes
a virtual Ethernet NIC to the host TCP/IP stack, over which VNET/P maps
its UDP encapsulation unchanged (exactly as with IPoIB).  This module
provides the torus geometry (used to derive per-pair hop counts and
propagation delays, as on the Curie XK6 testbed) and testbed builders.
"""

from __future__ import annotations

import dataclasses
from itertools import product

from ..config import GEMINI_IPOG, NICParams, default_host
from ..harness.testbed import Testbed, build_native, build_vnetp

__all__ = ["Torus3D", "gemini_nic", "build_native_gemini", "build_vnetp_gemini"]

# Per-hop router latency on Gemini (~100+ns per hop plus wire).
HOP_NS = 160


class Torus3D:
    """A 3-D torus: node placement and minimal-path hop counts."""

    def __init__(self, dims: tuple[int, int, int]):
        if any(d < 1 for d in dims):
            raise ValueError(f"bad torus dimensions {dims}")
        self.dims = dims

    @property
    def size(self) -> int:
        x, y, z = self.dims
        return x * y * z

    def coords(self, node: int) -> tuple[int, int, int]:
        if not 0 <= node < self.size:
            raise ValueError(f"node {node} outside torus of {self.size}")
        x, y, z = self.dims
        return (node % x, (node // x) % y, node // (x * y))

    def hops(self, a: int, b: int) -> int:
        """Minimal hop count between two nodes (per-dimension wraparound)."""
        total = 0
        for ca, cb, dim in zip(self.coords(a), self.coords(b), self.dims):
            d = abs(ca - cb)
            total += min(d, dim - d)
        return total

    def mean_hops(self) -> float:
        n = self.size
        if n == 1:
            return 0.0
        total = sum(self.hops(a, b) for a, b in product(range(n), range(n)) if a != b)
        return total / (n * (n - 1))


def gemini_nic(torus: Torus3D | None = None) -> NICParams:
    """IPoG pseudo-Ethernet device; propagation reflects average torus
    path length (the Curie testbed is a 50-node XK6)."""
    torus = torus or Torus3D((5, 5, 2))
    prop = int(500 + HOP_NS * torus.mean_hops())
    return dataclasses.replace(GEMINI_IPOG, propagation_ns=prop)


def build_native_gemini(n_hosts: int = 2, torus: Torus3D | None = None, **kw) -> Testbed:
    return build_native(n_hosts=n_hosts, nic_params=gemini_nic(torus), **kw)


def build_vnetp_gemini(n_hosts: int = 2, torus: Torus3D | None = None, **kw) -> Testbed:
    """VNET/P over IPoG: identical architecture to Fig. 1, only the
    device beneath the bridge changes (Sect. 6.2).

    Defaults reflect the Curie XK6 nodes: VNET/P's 64 KB maximum MTU is
    used to amortise per-packet costs over Gemini's large frames, and
    the Opteron 6272 / HyperTransport-3 memory system copies faster than
    the Sect. 5 Xeon testbed.
    """
    from ..config import default_tuning

    if "tuning" not in kw:
        kw["tuning"] = default_tuning(vnet_mtu=64_000)
    if "host_params" not in kw:
        base = default_host()
        kw["host_params"] = dataclasses.replace(
            base, vnet_costs=dataclasses.replace(base.vnet_costs, copy_bw_Bps=1.75e9)
        )
    return build_vnetp(n_hosts=n_hosts, nic_params=gemini_nic(torus), **kw)
