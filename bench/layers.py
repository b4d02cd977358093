"""The layer map and the sampling profiler behind the per-layer metrics.

A *layer* is a group of ``repro`` modules, matched by the longest dotted
module prefix in :data:`PREFIXES`.  The traced pass samples the main
thread's stack every :data:`INTERVAL_S` (a ``SIGALRM`` interval timer:
the handler runs in the sampled thread, so no second thread has to
take the interpreter lock) and charges each sample to the innermost
frame whose code file lies under ``src/repro/``.
Frames from the standard library, builtins (which have no frame) and
generated code such as a dataclass ``__eq__`` (file ``<string>``) are
skipped, so their time lands on the nearest ``repro`` caller.  A stack
with no ``repro`` frame at all is charged to ``other``.

Sampling measures innermost-frame *self* time only: a layer's share says
where the interpreter was, not which layer asked for the work.
"""

from __future__ import annotations

import os
import signal
from collections import Counter
from pathlib import Path

__all__ = [
    "INTERVAL_S",
    "LAYERS",
    "OTHER",
    "PREFIXES",
    "Sampler",
    "layer_of",
    "module_of_path",
    "shares",
]

#: Sampling interval.  Each sample costs about 60 us of host time on a
#: 2-vCPU VM (timer signal plus handler), so 3 ms keeps tracing overhead
#: near 2 % while a 4 s pass still collects over a thousand samples.
INTERVAL_S = 0.003

#: The sixteen layers, in report order.
LAYERS = (
    "sim.core",
    "sim.pipeline",
    "sim.fluid",
    "hw",
    "palacios",
    "vnet",
    "vnet.routing",
    "vnet.flowcache",
    "proto",
    "apps",
    "mpi",
    "topo",
    "chaos",
    "obs",
    "exec",
    "harness",
)

#: Samples that no ``repro`` frame explains (interpreter start-up, the
#: benchmark's own loop between points).
OTHER = "other"

#: Module prefix -> layer.  The longest matching prefix wins, so
#: ``repro.vnet.routing`` beats ``repro.vnet``.
PREFIXES = {
    "repro.sim": "sim.core",  # sim.core, primitives, rng, trace
    "repro.sim.pipeline": "sim.pipeline",
    "repro.sim.fluid": "sim.fluid",
    "repro.vnet.fluidpath": "sim.fluid",
    "repro.hw": "hw",
    "repro.host": "hw",
    "repro.interconnect": "hw",
    "repro.palacios": "palacios",
    "repro.vnet": "vnet",
    "repro.vnet.routing": "vnet.routing",
    "repro.vnet.flowcache": "vnet.flowcache",
    "repro.proto": "proto",
    "repro.apps": "apps",
    "repro.mpi": "mpi",
    "repro.topo": "topo",
    "repro.chaos": "chaos",
    "repro.obs": "obs",
    "repro.exec": "exec",
    "repro.harness": "harness",
    "repro.config": "harness",
    "repro.units": "harness",
    "repro.__main__": "harness",
    "repro": "harness",  # the package root module only; see layer_of
}


def layer_of(module: str) -> str:
    """The layer a dotted ``repro`` module name belongs to.

    The bare ``repro`` entry matches the package root module alone, so a
    new subpackage nobody mapped reads ``other`` instead of vanishing
    into ``harness``.
    """
    if module == "repro":
        return PREFIXES["repro"]
    parts = module.split(".")
    while len(parts) > 1:
        layer = PREFIXES.get(".".join(parts))
        if layer is not None:
            return layer
        parts.pop()
    return OTHER


def module_of_path(path: str | Path, src_root: str | Path) -> str | None:
    """Dotted module name of a source file under ``src_root``, else ``None``."""
    try:
        rel = Path(os.path.realpath(path)).relative_to(os.path.realpath(src_root))
    except ValueError:
        return None
    if rel.suffix != ".py":
        return None
    parts = list(rel.with_suffix("").parts)
    if parts and parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts) or None


class Sampler:
    """Samples the main thread's stack at a fixed wall-clock interval.

    Use as a context manager, from the main thread, around the code to
    profile; :attr:`counts` holds samples per layer (``other`` included).
    """

    def __init__(self, src_root: str | Path):
        self.src_root = os.path.realpath(src_root)
        #: Samples per layer (``other`` included).
        self.counts: Counter[str] = Counter()
        self._repro_dir = os.path.join(self.src_root, "repro") + os.sep
        self._by_code: dict = {}
        self._old_handler = None

    def __enter__(self) -> "Sampler":
        self._old_handler = signal.signal(signal.SIGALRM, self._on_signal)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old_handler)

    def _on_signal(self, signum, frame) -> None:
        self.counts[self.charge(frame)] += 1

    def charge(self, frame) -> str:
        """The layer of the innermost ``repro`` frame on ``frame``'s stack."""
        by_code = self._by_code
        while frame is not None:
            code = frame.f_code
            layer = by_code.get(code, "")
            if layer == "":
                layer = by_code[code] = self._layer_of_file(code.co_filename)
            if layer is not None:
                return layer
            frame = frame.f_back
        return OTHER

    def _layer_of_file(self, filename: str) -> str | None:
        path = os.path.realpath(filename)
        if not path.startswith(self._repro_dir):
            return None
        module = module_of_path(path, self.src_root)
        return layer_of(module) if module else None


def shares(counts: dict[str, int]) -> dict[str, float]:
    """Per-layer sample shares, ``other`` included, summing to 1.

    Each share is the Jeffreys estimate ``(k + 1/2) / (n + m/2)`` over the
    ``m`` categories rather than the raw ``k / n``: a sampler cannot show
    that a layer ran for no time at all, only that it ran for less than
    about one sampling interval, and the estimate says so instead of
    reporting a hard zero.  With a few thousand samples the difference
    for any layer that was sampled is below 0.1 percentage points.
    """
    names = (*LAYERS, OTHER)
    total = sum(counts.get(name, 0) for name in names)
    denom = total + len(names) / 2
    return {name: (counts.get(name, 0) + 0.5) / denom for name in names}
