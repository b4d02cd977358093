"""Versioned run artifacts: one JSON bundle per experiment (or profile) run.

A :class:`RunArtifact` is the structured record of *everything a run
observed*: the config fingerprint (code version + env knobs), the
result rows of every experiment, the merged metrics registry dump, the
timeline dumps, the health log, the derived fairness scores, and an
optional wall-clock ``profile`` section.  Experiment runs write one
via ``python -m repro <experiment> --artifact-out run.json`` and
``python -m repro obs report --artifact-out`` writes a ``report`` one;
the ``metrics`` / ``timelines`` / ``health`` sections are exactly what
:meth:`repro.obs.context.RunCapture.dump` returns, the same data that
ships observability across ``repro.exec`` workers and the result cache.

Artifacts exist to be *compared*: :mod:`repro.obs.compare` diffs two of
them structurally (exact mode for same-seed determinism checks,
tolerance mode for fluid/ablation A/Bs), which is what the
determinism-suite and soak CI jobs run in place of text row diffs.
Everything in the diffable sections is simulated (deterministic) data;
wall-clock facts live in ``volatile``, which the diff engine never
reads.

Schema stability: ``schema`` is bumped on incompatible layout changes
and :func:`diff-time <repro.obs.compare.diff_artifacts>` refuses to
compare mismatched schemas.  ``to_dict``/``from_dict``/``save``/``load``
round-trip exactly (canonicalised through JSON, so tuples become lists
once, up front, not at comparison time).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Optional

from .exporters import normalize_metrics_dump

__all__ = [
    "RunArtifact",
    "build_artifact",
    "fairness_scores",
    "run_config",
    "env_knobs",
    "ARTIFACT_SCHEMA",
]

#: Current artifact schema version.
ARTIFACT_SCHEMA = 1

#: Environment knobs recorded in ``config.env`` (they change which code
#: paths run, so two artifacts with different knobs are expected to
#: differ in metrics even when rows match).
ENV_KNOBS = ("REPRO_FLUID",)


def env_knobs() -> dict:
    """The current values of :data:`ENV_KNOBS` (``""`` when unset)."""
    return {knob: os.environ.get(knob, "") for knob in ENV_KNOBS}


def _canonical(value):
    """Round-trip through JSON: tuples -> lists, keys -> str, once."""
    return json.loads(json.dumps(value))


def fairness_scores(metrics_dump: dict) -> dict:
    """Extract ``fairness.*`` gauge values from a registry dump.

    Returns ``{metric_name: value}`` for every fairness gauge the run
    published (:func:`repro.obs.fairness.publish_fairness`), so the
    scenario scores are first-class artifact data rather than needles
    in the metrics haystack.
    """
    return {
        name: float(entry["value"]) + 0.0
        for name, entry in sorted(metrics_dump.items())
        if name.startswith("fairness.") and entry.get("type") == "gauge"
    }


@dataclass
class RunArtifact:
    """One run's structured observability bundle (see module docstring).

    Diffable sections: ``config``, ``rows``, ``metrics``, ``timelines``,
    ``health``, ``fairness``.  Never diffed: ``profile`` (wall-clock
    attribution) and ``volatile`` (wall seconds etc.).
    """

    kind: str = "experiment"
    config: dict = field(default_factory=dict)
    rows: dict = field(default_factory=dict)
    metrics: dict = field(default_factory=dict)
    timelines: list = field(default_factory=list)
    health: list = field(default_factory=list)
    fairness: dict = field(default_factory=dict)
    profile: Optional[dict] = None
    volatile: dict = field(default_factory=dict)
    schema: int = ARTIFACT_SCHEMA

    def to_dict(self) -> dict:
        """JSON-canonical plain-data form (tuples already collapsed)."""
        return _canonical(
            {
                "schema": self.schema,
                "kind": self.kind,
                "config": self.config,
                "rows": self.rows,
                "metrics": self.metrics,
                "timelines": self.timelines,
                "health": self.health,
                "fairness": self.fairness,
                "profile": self.profile,
                "volatile": self.volatile,
            }
        )

    @classmethod
    def from_dict(cls, d: dict) -> "RunArtifact":
        """Inverse of :meth:`to_dict`."""
        return cls(
            kind=d.get("kind", "experiment"),
            config=d.get("config", {}),
            rows=d.get("rows", {}),
            metrics=d.get("metrics", {}),
            timelines=d.get("timelines", []),
            health=d.get("health", []),
            fairness=d.get("fairness", {}),
            profile=d.get("profile"),
            volatile=d.get("volatile", {}),
            schema=d.get("schema", ARTIFACT_SCHEMA),
        )

    def save(self, path: str) -> None:
        """Write the artifact as indented, key-sorted JSON."""
        with open(path, "w", encoding="utf-8") as fp:
            json.dump(self.to_dict(), fp, indent=1, sort_keys=True)
            fp.write("\n")

    @classmethod
    def load(cls, path: str) -> "RunArtifact":
        """Read an artifact written by :meth:`save`."""
        with open(path, encoding="utf-8") as fp:
            return cls.from_dict(json.load(fp))


def run_config(extra_config: Optional[dict] = None) -> dict:
    """An artifact's ``config`` section: the package code version
    (:func:`repro.exec.fingerprint.code_version`) plus the recorded
    :data:`ENV_KNOBS`, with ``extra_config`` entries merged on top."""
    from ..exec.fingerprint import code_version

    config = {
        "code_version": code_version(),
        "env": env_knobs(),
    }
    config.update(extra_config or {})
    return config


def build_artifact(
    engine,
    results,
    kind: str = "experiment",
    extra_config: Optional[dict] = None,
    profile: Optional[dict] = None,
) -> RunArtifact:
    """Assemble a :class:`RunArtifact` from an engine and its results.

    ``engine`` is a :class:`repro.exec.Engine` whose points have run
    (its merged metrics, collected timeline dumps, and captured health
    events become the artifact's respective sections); ``results`` is an
    iterable of :class:`repro.harness.report.ExperimentResult`;
    ``extra_config`` entries (experiment names, jobs, quick flag) merge
    into :func:`run_config`.
    """
    metrics = normalize_metrics_dump(engine.metrics.dump())
    return RunArtifact(
        kind=kind,
        config=run_config(extra_config),
        rows={res.experiment_id: list(res.rows) for res in results},
        metrics=metrics,
        timelines=list(engine.timelines),
        health=list(engine.health_events),
        fairness=fairness_scores(metrics),
        profile=profile,
        volatile={
            "wall_s": float(engine.wall_s.value),
            "points_total": engine.points_total,
            "points_executed": engine.points_executed,
            "points_cached": engine.points_cached,
        },
    )
