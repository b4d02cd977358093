"""The execution engine: process-pool fan-out with a result cache.

:class:`Engine` runs a list of :class:`~repro.exec.point.Point`\\ s and
returns their values **in point order** regardless of execution order,
cache state, or worker count.  Execution of one point is identical in
every mode — the same :func:`_execute` function runs inline for
``jobs=1`` and inside pool workers for ``jobs>1``, seeding the global
``random`` module from the point's fingerprint first — so a parallel
run is row-identical to a serial one by construction (simulations
themselves derive all timing from named, name-seeded streams).

Worker lifecycle: workers are plain ``multiprocessing`` pool processes
(``fork`` start method where available, ``spawn`` otherwise), created
per :meth:`Engine.run` call and torn down when the batch completes.
Per-process memoisation in the experiment stack (flow-model
calibration, NPB calibration) warms up independently inside each
worker; that is safe because those derivations are deterministic
(``tests/test_determinism.py::test_flow_calibration_identical_across_processes``).

Each executed point runs inside one :func:`repro.obs.context.capture_run`
and returns ``(value, run_dump, wall_s)``, where ``run_dump`` is the
capture's ``metrics`` / ``timelines`` / ``health`` sections
(:meth:`repro.obs.context.RunCapture.dump`): the merged registry dump of
every simulation the point built, one timeline dump per simulation that
sampled time-series, and every health event as a dict.  The engine
merges the metrics — from cache hits too — into :attr:`Engine.metrics`,
collects every timeline dump in :attr:`Engine.timelines` and every
health event in :attr:`Engine.health_events`, and
:meth:`Engine.timeline_series` recombines timelines by series name, so
rate/latency curves sampled inside worker processes are available to
the parent after a fan-out.  All three ship into
:class:`~repro.obs.runinfo.RunArtifact` bundles (``--artifact-out``).
"""

from __future__ import annotations

import multiprocessing
import random
import time
from typing import Optional, Sequence

from ..obs.context import capture_run
from ..obs.metrics import MetricsRegistry
from ..obs.timeline import Series, merge_dumps
from .cache import ResultCache
from .fingerprint import fingerprint, point_seed
from .point import Point, PointResult

__all__ = ["Engine", "run_points"]


def _execute(payload: tuple) -> tuple:
    """Run one point (in a worker or inline) → (value, run dump, wall)."""
    fn, kwargs, seed = payload
    random.seed(seed)
    t0 = time.perf_counter()
    with capture_run() as capture:
        value = fn(**kwargs)
    return value, capture.dump(), time.perf_counter() - t0


def _pool_context():
    """Fork where available (cheap, inherits warm caches), else spawn."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


class Engine:
    """Schedules independent points across processes, backed by a cache.

    ``jobs`` is the maximum worker-process count (1 = run inline);
    ``cache`` is an optional :class:`~repro.exec.cache.ResultCache`;
    ``registry`` receives merged worker metrics and the engine's own
    ``exec.points.{total,executed,cached}`` counters (a fresh registry
    is created when omitted, exposed as :attr:`metrics`).
    """

    def __init__(
        self,
        jobs: int = 1,
        cache: Optional[ResultCache] = None,
        registry: Optional[MetricsRegistry] = None,
    ):
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self.cache = cache
        self.metrics = registry if registry is not None else MetricsRegistry()
        #: Timeline dumps collected from every point (cache hits included).
        self.timelines: list[dict] = []
        #: Health event dicts from every point, in point order
        #: (cache hits included) — RunArtifact's ``health`` section.
        self.health_events: list[dict] = []

    # -- stats -------------------------------------------------------------
    @property
    def points_total(self) -> int:
        """Points scheduled over this engine's lifetime."""
        return self.metrics.counter("exec.points.total").value

    @property
    def points_executed(self) -> int:
        """Points that actually ran a simulation (cache misses)."""
        return self.metrics.counter("exec.points.executed").value

    @property
    def points_cached(self) -> int:
        """Points answered from the result cache."""
        return self.metrics.counter("exec.points.cached").value

    def summary(self) -> str:
        """One-line machine-greppable stats (printed by the CLI)."""
        return (
            f"[exec] points={self.points_total} "
            f"executed={self.points_executed} "
            f"cached={self.points_cached} jobs={self.jobs}"
        )

    # -- execution ---------------------------------------------------------
    def run(self, points: Sequence[Point]) -> list:
        """Run every point; returns their values in point order."""
        results = self.run_detailed(points)
        return [r.value for r in results]

    def run_detailed(self, points: Sequence[Point]) -> list[PointResult]:
        """Like :meth:`run` but returning full :class:`PointResult`\\ s."""
        results: list[Optional[PointResult]] = [None] * len(points)
        pending: list[tuple[int, Point, str, int]] = []
        for i, p in enumerate(points):
            fp = fingerprint(p)
            seed = point_seed(fp)
            cached = self.cache.get(fp) if self.cache is not None else None
            if cached is not None:
                results[i] = cached
                self.metrics.counter("exec.points.cached").inc()
                self.metrics.merge(cached.metrics)
                self.timelines.extend(cached.timelines)
                self.health_events.extend(cached.health)
            else:
                pending.append((i, p, fp, seed))

        if pending:
            payloads = [(p.fn, dict(p.kwargs), seed) for _, p, _, seed in pending]
            if self.jobs > 1 and len(payloads) > 1:
                with _pool_context().Pool(
                    processes=min(self.jobs, len(payloads))
                ) as pool:
                    outs = pool.map(_execute, payloads, chunksize=1)
            else:
                outs = [_execute(payload) for payload in payloads]
            for (i, p, fp, seed), (value, run, wall) in zip(pending, outs):
                result = PointResult(
                    key=p.key, value=value, wall_s=wall, seed=seed, **run
                )
                results[i] = result
                self.metrics.counter("exec.points.executed").inc()
                self.metrics.gauge("exec.points.wall_s").inc(wall)
                self.metrics.merge(result.metrics)
                self.timelines.extend(result.timelines)
                self.health_events.extend(result.health)
                if self.cache is not None:
                    self.cache.put(fp, result)

        self.metrics.counter("exec.points.total").inc(len(points))
        return results  # type: ignore[return-value]

    def timeline_series(self) -> dict[str, Series]:
        """Every time-series sampled by this engine's points, merged.

        Same-name series from different workers (or cached points) are
        concatenated and time-sorted (:func:`repro.obs.timeline.merge_dumps`);
        an engine whose points never sample returns an empty dict.
        """
        return merge_dumps(self.timelines)


def run_points(points: Sequence[Point], engine: Optional[Engine] = None) -> list:
    """Run points through ``engine`` (or a fresh serial, cache-less one)."""
    return (engine or Engine()).run(points)
