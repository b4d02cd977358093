"""Unified observability layer: per-packet spans, metrics, exporters.

``repro.obs`` is where every subsystem's instrumentation converges:

* :mod:`repro.obs.span` — per-packet **spans**: named stages of virtual
  time (``vmexit``, ``virtio-tx``, ``dispatch``, ``encap``, ``link``,
  ``decap``, ``inject``, ...) tagged with flow and packet ids.
* :mod:`repro.obs.metrics` — the always-on **metrics registry**: named
  counters, gauges, and fixed-bucket histograms that the Palacios,
  virtio, VNET core/bridge, and hardware models publish into.
* :mod:`repro.obs.context` — :class:`~repro.obs.context.Observability`,
  the per-simulator context that hands both to any component, and
  :func:`~repro.obs.context.capture_run`, which collects every
  simulation's observability for one run.
* :mod:`repro.obs.exporters` — span JSONL dumps, Chrome ``trace_event``
  output (loadable in ``chrome://tracing`` / Perfetto), and text
  reports.
* :mod:`repro.obs.breakdown` — the *measured* Fig. 9-style latency
  breakdown, reconstructed from recorded spans and comparable
  nanosecond-for-nanosecond with the analytic model in
  :mod:`repro.harness.breakdown`.
* :mod:`repro.obs.timeline` — sim-time **time-series**: windowed
  samplers that snapshot counters/gauges/histograms on a virtual-time
  cadence into fixed-size ring buffers (rates from counter deltas,
  per-window latency percentiles).
* :mod:`repro.obs.flows` — per-packet **end-to-end records** rolled up
  from spans: one row per PDU with per-stage ns and total latency, flow
  summaries with critical-path attribution, percentile-over-time.
* :mod:`repro.obs.health` — declarative **SLO monitors and anomaly
  detectors** (goodput-collapse, latency-spike, heartbeat-silence) that
  consume timelines and emit timestamped ``HealthEvent``s.
* :mod:`repro.obs.profile` — the **layer map** and the sampling
  wall-clock profiler: stack samples on a timer signal, charged to the
  innermost ``repro`` frame's layer, with collapsed-stack (flamegraph)
  export.
* :mod:`repro.obs.runinfo` — versioned :class:`~repro.obs.runinfo.RunArtifact`
  bundles: the one serialized record of a run, carrying config
  fingerprint, rows, metrics, timelines, health, fairness scores, and
  profile summary.
* :mod:`repro.obs.compare` — the structured **diff engine** over two
  artifacts (exact mode for same-seed determinism, tolerance mode for
  fluid/ablation A/Bs) behind ``python -m repro obs diff``.

See ``docs/observability.md`` for the span taxonomy, metric naming
conventions, exporter schemas, artifact/diff semantics, and a worked
Chrome-trace example.
"""

from .breakdown import ping_window, recorded_one_way_breakdown
from .compare import DiffReport, Difference, diff_artifacts
from .context import Observability, RunCapture, capture_run
from .exporters import (
    chrome_trace,
    export_chrome_trace,
    export_jsonl,
    normalize_metrics_dump,
    parse_jsonl,
    render_stage_report,
    stage_totals,
)
from .flows import (
    FlowSummary,
    PacketRecord,
    assemble_packet_records,
    critical_path,
    flow_summaries,
    percentile_over_time,
    register_latency_series,
    render_flow_report,
)
from .health import (
    GoodputCollapseDetector,
    HealthEvent,
    HealthHub,
    HealthLog,
    HeartbeatSilenceDetector,
)
from .fairness import (
    FairnessScore,
    jain_fairness_index,
    link_utilization,
    publish_fairness,
    score_flows,
)
from .metrics import Counter, Gauge, Histogram, MetricsRegistry, bucket_percentile
from .runinfo import RunArtifact, build_artifact, fairness_scores, run_config
from .span import CANONICAL_STAGES, Span, SpanRecorder, assign_parents, flow_id, self_ns
from .timeline import Series, Timeline, merge_dumps

__all__ = [
    "Observability",
    "RunCapture",
    "capture_run",
    "FairnessScore",
    "jain_fairness_index",
    "link_utilization",
    "publish_fairness",
    "score_flows",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "CANONICAL_STAGES",
    "Span",
    "SpanRecorder",
    "assign_parents",
    "flow_id",
    "self_ns",
    "ping_window",
    "recorded_one_way_breakdown",
    "chrome_trace",
    "export_chrome_trace",
    "export_jsonl",
    "parse_jsonl",
    "render_stage_report",
    "stage_totals",
    "Series",
    "Timeline",
    "bucket_percentile",
    "merge_dumps",
    "PacketRecord",
    "FlowSummary",
    "assemble_packet_records",
    "flow_summaries",
    "critical_path",
    "percentile_over_time",
    "register_latency_series",
    "render_flow_report",
    "HealthEvent",
    "HealthLog",
    "HealthHub",
    "GoodputCollapseDetector",
    "HeartbeatSilenceDetector",
    "normalize_metrics_dump",
    "RunArtifact",
    "build_artifact",
    "fairness_scores",
    "run_config",
    "Difference",
    "DiffReport",
    "diff_artifacts",
]
