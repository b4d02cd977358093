"""Counters and timers read from ``repro``'s public surfaces.

:class:`Probes` wraps a few entry points for the life of one pass:

* the *set-up calls* — ``TopologyCompiler.compile``,
  ``CompiledTopology.build`` (every ``build_*`` testbed facade goes
  through both) and ``repro.harness.calibrate.calibrate_flow_model``.
  Host time inside the outermost of them is the pass's set-up time;
* ``Simulator.run``, for kernel events and host time inside the loop;
* ``TcpConnection.__init__``, to sum each point's retransmits.

Everything else comes from the point's merged ``MetricsRegistry`` dump
(:func:`registry_counts`).  The simulator is single-threaded, so no
layer has host time spent waiting; drops and retransmits are its failed
and retried work.
"""

from __future__ import annotations

import functools
import time
from collections import Counter

__all__ = ["COUNTS", "Probes", "registry_counts"]

#: Deterministic per-pass counts (same seed, same code: same numbers).
COUNTS = (
    "sim.core.events",
    "sim.fluid.captures",
    "sim.fluid.strides",
    "sim.fluid.bytes",
    "hw.nic.frames",
    "hw.nic.dropped_frames",
    "palacios.virtio.kicks",
    "palacios.virtio.irq_injections",
    "palacios.virtio.rx_drops",
    "vnet.core.packets",
    "vnet.core.dropped",
    "vnet.bridge.encap_tx",
    "vnet.mode.switches",
    "vnet.flowcache.hits",
    "vnet.flowcache.misses",
    "vnet.flowcache.invalidations",
    "proto.tcp.retransmits",
    "proto.tcp.fast_retransmits",
    "topo.routes",
    "chaos.dropped",
    "harness.calibrations",
    "exec.points",
)

# metric name suffix -> [(metric name prefix, count name)]: each count
# sums one suffix family across every instance (hosts, NICs, injection
# points).
_FAMILIES: dict[str, list[tuple[str, str]]] = {}
for _count, _prefix, _suffixes in (
    ("sim.fluid.captures", "sim.fluid.", ("captures",)),
    ("sim.fluid.strides", "sim.fluid.", ("strides",)),
    ("sim.fluid.bytes", "sim.fluid.", ("bytes",)),
    ("hw.nic.frames", "hw.nic.", ("tx_frames",)),
    ("hw.nic.dropped_frames", "hw.nic.", ("dropped_frames",)),
    ("palacios.virtio.kicks", "palacios.virtio.", ("tx_kicks",)),
    ("palacios.virtio.irq_injections", "palacios.virtio.", ("irq_injections",)),
    ("palacios.virtio.rx_drops", "palacios.virtio.", ("rx_drops",)),
    ("vnet.core.packets", "vnet.core.", ("pkts_from_guest", "pkts_to_guest")),
    ("vnet.core.dropped", "vnet.core.", ("dropped_no_route", "dropped_ring_full")),
    ("vnet.bridge.encap_tx", "vnet.bridge.", ("encap_tx",)),
    ("vnet.mode.switches", "vnet.mode.", ("switches",)),
    ("vnet.flowcache.hits", "vnet.flowcache.", ("hits",)),
    ("vnet.flowcache.misses", "vnet.flowcache.", ("misses",)),
    ("vnet.flowcache.invalidations", "vnet.flowcache.", ("invalidated_entries",)),
    ("chaos.dropped", "chaos.", ("dropped", "blackholed")),
):
    for _suffix in _suffixes:
        _FAMILIES.setdefault(_suffix, []).append((_prefix, _count))


def registry_counts(dump: dict) -> Counter:
    """Sum a ``MetricsRegistry.dump()`` into the :data:`COUNTS` families."""
    out: Counter = Counter()
    for name, entry in dump.items():
        for prefix, count in _FAMILIES.get(name.rsplit(".", 1)[-1], ()):
            if name.startswith(prefix) and entry["type"] != "histogram":
                out[count] += entry["value"]
    return out


class Probes:
    """Wrappers that count and time one pass; :meth:`uninstall` restores."""

    def __init__(self):
        #: Host seconds inside the outermost set-up call.
        self.setup_s = 0.0
        #: Host seconds inside each wrapped call, nested calls included.
        self.times: Counter = Counter()
        self.counts: Counter = Counter()
        self._setup_depth = 0
        self._run_depth = 0
        self._calibrated: set[str] = set()
        self._conns: list = []
        self._restore: list[tuple[object, str, object]] = []

    def install(self) -> "Probes":
        from repro.harness import calibrate
        from repro.proto.tcp import TcpConnection
        from repro.sim.core import Simulator
        from repro.topo.compiler import CompiledTopology, TopologyCompiler

        self._patch(TopologyCompiler, "compile", self._setup_call("topo.compile_s", self._routes))
        self._patch(CompiledTopology, "build", self._setup_call("topo.build_s"))
        self._patch(calibrate, "calibrate_flow_model",
                    self._setup_call("harness.calibrate_s", self._calibration))
        self._patch(Simulator, "run", self._run)
        self._patch(TcpConnection, "__init__", self._conn_init)
        return self

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    def end_point(self, metrics_dump: dict) -> Counter:
        """Fold one finished point into :attr:`counts`; returns its counts."""
        point = registry_counts(metrics_dump)
        point["proto.tcp.retransmits"] = sum(c.retransmits for c in self._conns)
        point["proto.tcp.fast_retransmits"] = sum(c.fast_retransmits for c in self._conns)
        self._conns.clear()
        self.counts.update(point)
        return point

    # -- wrappers ------------------------------------------------------------
    def _patch(self, owner, name, make_wrapper) -> None:
        original = getattr(owner, name)
        self._restore.append((owner, name, original))
        setattr(owner, name, functools.wraps(original)(make_wrapper(original)))

    def _setup_call(self, timer, on_call=None):
        def make(original):
            def wrapper(*args, **kwargs):
                outermost = self._setup_depth == 0
                self._setup_depth += 1
                t0 = time.perf_counter()
                try:
                    result = original(*args, **kwargs)
                finally:
                    dt = time.perf_counter() - t0
                    self._setup_depth -= 1
                    self.times[timer] += dt
                    if outermost:
                        self.setup_s += dt
                if on_call is not None:
                    on_call(args, result)
                return result
            return wrapper
        return make

    def _routes(self, args, compiled) -> None:
        self.counts["topo.routes"] += compiled.routes_total

    def _calibration(self, args, model) -> None:
        # calibrate_flow_model memoises by name for the life of the
        # process, so the first call per name is the one that calibrates.
        name = args[0]
        if name not in self._calibrated:
            self._calibrated.add(name)
            self.counts["harness.calibrations"] += 1

    def _run(self, original):
        def run(sim, *args, **kwargs):
            if self._run_depth:
                return original(sim, *args, **kwargs)
            self._run_depth += 1
            before = sim.events_processed
            t0 = time.perf_counter()
            try:
                return original(sim, *args, **kwargs)
            finally:
                self.times["sim.core.run_s"] += time.perf_counter() - t0
                self.counts["sim.core.events"] += sim.events_processed - before
                self._run_depth -= 1
        return run

    def _conn_init(self, original):
        def init(conn, *args, **kwargs):
            original(conn, *args, **kwargs)
            self._conns.append(conn)
        return init
