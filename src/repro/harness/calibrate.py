"""Derive flow-model parameters from the packet-level stack.

The cluster benchmarks (HPCC, NAS) run on the message-level
:class:`~repro.mpi.transport.FlowTransport`; its (alpha, beta) for each
network configuration are *measured* here by running IMB PingPong over
the packet-level two-node testbed, so application-level results inherit
the microbenchmark behaviour rather than being assumed.

alpha/beta are extracted by removing the MPI library costs that
FlowTransport charges separately::

    t(S) = 2*mpi_overhead + copies(S) + alpha + S/beta
"""

from __future__ import annotations

from typing import Callable

from ..config import DEFAULT_MPI, NICParams
from ..mpi.transport import FlowModel

__all__ = ["calibrate_flow_model", "flow_model_for", "clear_cache"]

_CACHE: dict[str, FlowModel] = {}

SMALL = 64
LARGE = 1 << 20
MID = 1 << 16


def clear_cache() -> None:
    _CACHE.clear()


def calibrate_flow_model(
    name: str,
    builder: Callable,
    nic_params: NICParams,
    **builder_kwargs,
) -> FlowModel:
    """Measure (alpha, beta) for one configuration; cached by ``name``."""
    cached = _CACHE.get(name)
    if cached is not None:
        return cached
    # Imported lazily: apps.imb uses the testbed types from this package.
    from ..apps.imb import run_pingpong

    params = DEFAULT_MPI
    is_virtual = False

    def one_way_ns(size: int) -> float:
        nonlocal is_virtual
        tb = builder(nic_params=nic_params, **builder_kwargs)
        point = run_pingpong(tb.endpoints[0], tb.endpoints[1], size, repetitions=8)
        is_virtual = tb.endpoints[0].is_virtual
        copy_bw = params.copy_bw_virtual_Bps if is_virtual else params.copy_bw_Bps
        mpi_cost = 2 * params.overhead_ns + 2 * size * 1e9 / copy_bw
        return point.one_way_latency_us * 1_000 - mpi_cost

    t_small = one_way_ns(SMALL)
    t_large = one_way_ns(LARGE)
    t_mid = one_way_ns(MID)
    # Two-point slope for beta; alpha from the small-message intercept.
    beta = (LARGE - MID) * 1e9 / max(1.0, (t_large - t_mid))
    alpha = max(1_000, int(t_small - SMALL * 1e9 / beta))
    model = FlowModel(
        name=name,
        alpha_ns=alpha,
        beta_Bps=beta,
        link_bps=nic_params.rate_bps,
        virtual=is_virtual,
        # Virtual receive paths degrade under incast (single dispatcher vs
        # native NIC flow-steering); see FlowModel.fanin_penalty.
        fanin_penalty=1.45 if is_virtual else 1.0,
    )
    _CACHE[name] = model
    return model


def flow_model_for(config: str) -> FlowModel:
    """Calibrated models for the named standard configurations.

    ``config`` is one of ``native-1g``, ``vnetp-1g``, ``native-10g``,
    ``vnetp-10g``, ``native-ipoib``, ``vnetp-ipoib``.
    """
    from ..config import BROADCOM_1G, NETEFFECT_10G
    from ..interconnect.infiniband import ipoib_nic, untuned_vnetp
    from .testbed import build_native, build_vnetp

    table: dict[str, tuple] = {
        "native-1g": (build_native, BROADCOM_1G, {}),
        "vnetp-1g": (build_vnetp, BROADCOM_1G, {}),
        "native-10g": (build_native, NETEFFECT_10G, {}),
        "vnetp-10g": (build_vnetp, NETEFFECT_10G, {}),
        "native-ipoib": (build_native, ipoib_nic(), {}),
        # Sect. 6.1: VNET/P has *not* been tuned on IPoIB.
        "vnetp-ipoib": (build_vnetp, ipoib_nic(), untuned_vnetp()),
    }
    if config not in table:
        raise KeyError(f"unknown configuration {config!r}; options: {sorted(table)}")
    builder, nic, kwargs = table[config]
    return calibrate_flow_model(config, builder, nic, **kwargs)
