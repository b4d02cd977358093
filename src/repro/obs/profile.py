"""Sim-kernel self-profiler: wall-clock attribution per event category.

The benchmark (``bench/``) says how fast the simulator is; this
module says *where the wall time goes*.  A :class:`KernelProfiler`
installs into a :class:`~repro.sim.core.Simulator` and, while enabled,
is called by the kernel's run loop after every event and clock advance;
it timestamps each with ``time.perf_counter_ns`` and charges the
elapsed wall time to a **category**:

* ``proc:<name>`` — events that resume a named simulator process
  (trailing ``.N`` instance indices are folded, so ``fair.server.0``
  and ``fair.server.1`` aggregate under ``proc:fair.server``).  Fluid
  strides show up here as ``proc:sim.fluid.strides``, timeline sampling
  as ``proc:obs.timeline``, and so on.
* ``cb:<Class.method>`` — events whose first callback is a bound method
  of a non-process object.
* ``fn:<qualname>`` — plain-function callbacks.
* ``evt:<EventClass>`` — events with no callbacks at all.
* ``kernel.advance`` — time spent advancing the clock (heap pops +
  slot transfers), the kernel's own share.

The attribution is *complete by construction*: successive timestamps
partition the run loop's wall time, so the category totals plus the
advance bucket reconcile with the measured run() wall time (the ±5 %
acceptance check in ``tests/obs/test_profile.py`` — the residual is
loop entry/exit and the timestamps themselves).

Determinism: the profiler never touches the event schedule — simulated
results are bit-identical with the profiler detached or enabled
(CI's ``obs-smoke`` job gates that identity and the enabled slowdown,
at most 1.538x the detached wall time).  ``perf_counter_ns``
reads never feed back into simulation state, so the determinism lint
(``tools/check_determinism.py``) stays happy.

Exports: :func:`collapsed_stacks` (flamegraph collapsed-stack format,
feed to ``flamegraph.pl`` or speedscope) and :func:`profile_chrome_trace`
(Chrome ``trace_event`` object).  CLI: ``python -m repro obs profile``.
"""

from __future__ import annotations

import re
import time
from dataclasses import dataclass, field
from types import FunctionType, MethodType
from typing import Optional

from ..sim.core import Event, Process, Simulator

__all__ = [
    "KernelProfiler",
    "ProfileReport",
    "combine_reports",
    "collapsed_stacks",
    "profile_chrome_trace",
]

#: Schema version of :meth:`ProfileReport.to_dict`.
PROFILE_SCHEMA = 1

# Trailing instance indices on process names: "fair.server.0" and
# "fair.server.1" are the same *kind* of work.
_INDEX_SUFFIX = re.compile(r"(\.\d+)+$")


def _category(event: Event, callbacks: list) -> str:
    """The attribution category for one event (see module docstring).

    ``callbacks`` is the callback list ``event`` held when it fired.
    """
    if callbacks:
        cb = callbacks[0]
        bound = getattr(cb, "__self__", None)
        if isinstance(bound, Process):
            return "proc:" + _INDEX_SUFFIX.sub("", bound.name)
        if bound is not None:
            return f"cb:{type(bound).__name__}.{cb.__name__}"
        qualname = getattr(cb, "__qualname__", None) or type(cb).__name__
        return "fn:" + qualname.replace(".<locals>", "")
    return "evt:" + type(event).__name__


@dataclass
class ProfileReport:
    """Aggregated attribution of one (or several merged) profiled runs.

    ``categories`` maps category name to ``{"events": int, "wall_ns": int}``;
    ``advance_ns``/``heap_pops`` are the kernel's clock-advance share;
    ``annotations`` carries subsystem context read off the simulation's
    metrics after the run (flow-cache hits vs. full-chain walks, fluid
    capture/stride counts) — free, because it is not hot-path data.
    """

    total_wall_ns: int = 0
    events: int = 0
    advance_ns: int = 0
    heap_pops: int = 0
    runs: int = 0
    categories: dict = field(default_factory=dict)
    annotations: dict = field(default_factory=dict)
    schema: int = PROFILE_SCHEMA

    @property
    def attributed_ns(self) -> int:
        """Sum of all category wall time plus the clock-advance bucket."""
        return self.advance_ns + sum(c["wall_ns"] for c in self.categories.values())

    def to_dict(self) -> dict:
        """JSON-serialisable form (stable, versioned via ``schema``)."""
        return {
            "schema": self.schema,
            "total_wall_ns": self.total_wall_ns,
            "events": self.events,
            "advance_ns": self.advance_ns,
            "heap_pops": self.heap_pops,
            "runs": self.runs,
            "categories": {
                name: dict(rec) for name, rec in sorted(self.categories.items())
            },
            "annotations": dict(self.annotations),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ProfileReport":
        """Inverse of :meth:`to_dict`."""
        return cls(
            total_wall_ns=d["total_wall_ns"],
            events=d["events"],
            advance_ns=d["advance_ns"],
            heap_pops=d.get("heap_pops", 0),
            runs=d.get("runs", 0),
            categories={name: dict(rec) for name, rec in d["categories"].items()},
            annotations=dict(d.get("annotations", {})),
            schema=d.get("schema", PROFILE_SCHEMA),
        )

    def render(self, title: str = "kernel profile") -> str:
        """Per-category wall-time table, heaviest first, plus reconciliation."""
        rows = sorted(
            self.categories.items(), key=lambda kv: kv[1]["wall_ns"], reverse=True
        )
        lines = [
            f"== {title} ({self.events} events over {self.runs} run(s)) ==",
            f"{'category':36} {'events':>9} {'ms':>10} {'share':>7}",
        ]
        total = self.total_wall_ns or 1
        for name, rec in rows:
            lines.append(
                f"{name:36} {rec['events']:9d} {rec['wall_ns'] / 1e6:10.3f} "
                f"{rec['wall_ns'] / total:7.1%}"
            )
        lines.append(
            f"{'kernel.advance':36} {self.heap_pops:9d} "
            f"{self.advance_ns / 1e6:10.3f} {self.advance_ns / total:7.1%}"
        )
        attributed = self.attributed_ns
        lines.append(
            f"{'TOTAL attributed':36} {self.events:9d} {attributed / 1e6:10.3f} "
            f"{attributed / total:7.1%} of {self.total_wall_ns / 1e6:.3f} ms measured"
        )
        if self.annotations:
            parts = ", ".join(f"{k}={v}" for k, v in sorted(self.annotations.items()))
            lines.append(f"annotations: {parts}")
        return "\n".join(lines)


def combine_reports(reports: list) -> ProfileReport:
    """Merge several :class:`ProfileReport`\\ s (e.g. one per testbed).

    Category wall times and event counts add; annotations add where
    numeric and last-write-win otherwise.
    """
    out = ProfileReport()
    for rep in reports:
        out.total_wall_ns += rep.total_wall_ns
        out.events += rep.events
        out.advance_ns += rep.advance_ns
        out.heap_pops += rep.heap_pops
        out.runs += rep.runs
        for name, rec in rep.categories.items():
            mine = out.categories.setdefault(name, {"events": 0, "wall_ns": 0})
            mine["events"] += rec["events"]
            mine["wall_ns"] += rec["wall_ns"]
        for key, value in rep.annotations.items():
            if isinstance(value, (int, float)) and key in out.annotations:
                out.annotations[key] += value
            else:
                out.annotations[key] = value
    return out


class KernelProfiler:
    """Low-overhead wall-clock profiler for one simulator's run loop.

    Usage::

        profiler = KernelProfiler.install(sim)
        profiler.enable()
        ... run the workload ...
        print(profiler.report().render())

    While *disabled* (the default after install) :meth:`Simulator.run`
    skips it after one check per call; while enabled, the kernel loop
    calls :meth:`begin`/:meth:`end` once per run, :meth:`advanced` per
    clock advance and :meth:`charge` per event — one
    ``perf_counter_ns`` read and one dict update each.  The schedule,
    pooling, and crash semantics are the kernel's own either way.
    """

    def __init__(self, sim: Simulator, clock=time.perf_counter_ns):
        self.sim = sim
        self.clock = clock
        self.enabled = False
        #: category -> [events, wall_ns] (lists, mutated on the hot path).
        self.categories: dict[str, list] = {}
        self.advance_ns = 0
        self.heap_pops = 0
        self.total_wall_ns = 0
        self.events = 0
        self.runs = 0
        # Start of the run and of the open attribution interval (ns).
        self._t_start = self._t = 0
        # Category memos (see _key): process name -> key, and
        # qualname / (class, method name) / event class -> key.
        self._proc_keys: dict = {}
        self._fn_keys: dict = {}

    @classmethod
    def install(cls, sim: Simulator, clock=time.perf_counter_ns) -> "KernelProfiler":
        """Attach a (disabled) profiler to ``sim`` and return it."""
        profiler = cls(sim, clock=clock)
        sim._profiler = profiler
        return profiler

    @classmethod
    def of(cls, sim: Simulator) -> Optional["KernelProfiler"]:
        """The profiler installed on ``sim``, if any."""
        return sim._profiler

    def detach(self) -> None:
        """Remove this profiler from its simulator (keeps collected data)."""
        if self.sim._profiler is self:
            self.sim._profiler = None

    def enable(self) -> "KernelProfiler":
        """Hook into the kernel loop from the next run on; returns self."""
        self.enabled = True
        return self

    def disable(self) -> "KernelProfiler":
        """Unhook from the kernel loop from the next run on; returns self."""
        self.enabled = False
        return self

    def reset(self) -> None:
        """Drop all collected attribution data."""
        self.categories.clear()
        self.advance_ns = 0
        self.heap_pops = 0
        self.total_wall_ns = 0
        self.events = 0
        self.runs = 0

    # -- hooks called by Simulator.run while enabled -----------------------
    def begin(self) -> None:
        """A run starts: open the first attribution interval."""
        self._t_start = self._t = self.clock()

    def advanced(self) -> None:
        """The clock advanced: charge the interval to ``kernel.advance``."""
        t = self.clock()
        self.advance_ns += t - self._t
        self.heap_pops += 1
        self._t = t

    def charge(self, event: Event, callbacks: list) -> None:
        """``event`` was processed: charge the interval to its category.

        ``callbacks`` is the callback list the event held when it fired
        (the kernel detaches it from the event before running it).
        """
        t = self.clock()
        key = self._key(event, callbacks)
        rec = self.categories.get(key)
        if rec is None:
            self.categories[key] = rec = [0, 0]
        rec[0] += 1
        rec[1] += t - self._t
        self._t = t

    def end(self, processed: int) -> None:
        """A run returned or raised after processing ``processed`` events."""
        self.events += processed
        self.runs += 1
        self.total_wall_ns += self.clock() - self._t_start

    def _key(self, event: Event, callbacks: list) -> str:
        """:func:`_category`, memoised per process name and per function.

        Memo keys are strings and classes, never simulation objects, so
        the memo keeps no process, closure or bound instance alive.
        """
        if not callbacks:
            memo, keys = type(event), self._fn_keys
        elif type(cb := callbacks[0]) is MethodType:
            bound = cb.__self__
            if isinstance(bound, Process):
                memo, keys = bound.name, self._proc_keys
            else:
                memo, keys = (type(bound), cb.__name__), self._fn_keys
        elif type(cb) is FunctionType:
            memo, keys = cb.__qualname__, self._fn_keys
        else:
            return _category(event, callbacks)
        key = keys.get(memo)
        if key is None:
            key = keys[memo] = _category(event, callbacks)
        return key

    # -- reporting ---------------------------------------------------------
    def _annotations(self) -> dict:
        """Subsystem context read off the simulation after the fact.

        Flow-cache hits vs. full-chain walks come from the always-on
        ``vnet.flowcache.*`` counters; fluid capture/stride counts from
        the attached :class:`~repro.sim.fluid.FluidRegion` (if any).
        Nothing here touches the event hot path.
        """
        out: dict = {}
        obs = getattr(self.sim, "_repro_obs", None)
        if obs is not None:
            hits = misses = 0
            seen = False
            for name, value in obs.metrics.snapshot("vnet.flowcache.").items():
                if name.endswith(".hits"):
                    hits += value
                    seen = True
                elif name.endswith(".misses"):
                    misses += value
                    seen = True
            if seen:
                out["flowcache_hits"] = hits
                out["flowcache_misses"] = misses
        try:
            from ..sim.fluid import fluid_region_of

            region = fluid_region_of(self.sim)
        except ImportError:  # pragma: no cover - fluid is part of the tree
            region = None
        if region is not None:
            stats = region.stats()
            out["fluid_captures"] = stats.get("captures", 0)
            out["fluid_strides"] = stats.get("strides", 0)
            out["fluid_bytes"] = stats.get("bytes", 0)
        return out

    def report(self) -> ProfileReport:
        """Snapshot everything collected so far as a :class:`ProfileReport`."""
        return ProfileReport(
            total_wall_ns=self.total_wall_ns,
            events=self.events,
            advance_ns=self.advance_ns,
            heap_pops=self.heap_pops,
            runs=self.runs,
            categories={
                name: {"events": rec[0], "wall_ns": rec[1]}
                for name, rec in self.categories.items()
            },
            annotations=self._annotations(),
        )


def _stack(category: str) -> str:
    """Collapsed-stack frames for one category: ``sim.run;<kind>;<name>``."""
    kind, _, name = category.partition(":")
    if not name:
        return f"sim.run;{kind}"
    return f"sim.run;{kind};{name}"


def collapsed_stacks(report: ProfileReport) -> str:
    """The report in flamegraph *collapsed stack* format.

    One line per category, ``frame;frame;frame <wall_ns>`` — feed the
    output to ``flamegraph.pl`` or paste into speedscope.  The sample
    weight is wall nanoseconds, so frame widths are wall-time shares.
    """
    lines = [f"sim.run;kernel.advance {report.advance_ns}"]
    for name in sorted(report.categories):
        lines.append(f"{_stack(name)} {report.categories[name]['wall_ns']}")
    return "\n".join(lines) + "\n"


def profile_chrome_trace(report: ProfileReport) -> dict:
    """The report as a Chrome ``trace_event`` object.

    Categories become complete (``"ph": "X"``) events laid end to end,
    heaviest first, on one row per attribution kind (proc/cb/fn/evt/
    kernel) — load in ``chrome://tracing`` or Perfetto to eyeball the
    wall-time split.  The timeline is *attributed wall time*, not
    simulated time.
    """
    rows = [("kernel", "kernel.advance", report.heap_pops, report.advance_ns)]
    for name, rec in report.categories.items():
        kind, _, short = name.partition(":")
        rows.append((kind, short or kind, rec["events"], rec["wall_ns"]))
    rows.sort(key=lambda r: r[3], reverse=True)
    pids: dict[str, int] = {}
    events = []
    cursor = 0.0
    for kind, name, count, wall_ns in rows:
        pid = pids.setdefault(kind, len(pids) + 1)
        events.append(
            {
                "name": name,
                "cat": kind,
                "ph": "X",
                "ts": cursor,
                "dur": wall_ns / 1000.0,
                "pid": pid,
                "tid": 1,
                "args": {"events": count, "wall_ns": wall_ns},
            }
        )
        cursor += wall_ns / 1000.0
    for kind, pid in pids.items():
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 1,
                "args": {"name": f"kernel-profile:{kind}"},
            }
        )
    return {
        "traceEvents": events,
        "displayTimeUnit": "ns",
        "otherData": {
            "clock": "wall-ns (attributed)",
            "events": report.events,
            "total_wall_ns": report.total_wall_ns,
        },
    }
