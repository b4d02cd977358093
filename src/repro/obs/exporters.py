"""Exporters: JSONL span dumps, Chrome ``trace_event`` files, text reports.

Three ways out of the recorder:

* :func:`export_jsonl` / :func:`parse_jsonl` — one JSON object per line,
  schema = :meth:`repro.obs.span.Span.to_dict`; round-trips exactly.
* :func:`chrome_trace` — the Chrome/Perfetto ``trace_event`` JSON object
  format (open ``chrome://tracing`` or https://ui.perfetto.dev and load
  the file).  Spans become complete (``"ph": "X"``) events; timestamps
  are microseconds as the format requires, so one virtual nanosecond is
  0.001 on the trace timeline.
* :func:`render_stage_report` — a Fig. 9-style text table of per-stage
  time, aggregated over whatever spans are passed in.

Plus :func:`normalize_metrics_dump`, which makes equivalent registry
dumps serialise identically inside :class:`~repro.obs.runinfo.RunArtifact`
bundles.

See ``docs/observability.md`` for the schemas and a worked example.
"""

from __future__ import annotations

import json
from typing import IO, Iterable, Union

from .span import Span

__all__ = [
    "export_jsonl",
    "parse_jsonl",
    "normalize_metrics_dump",
    "chrome_trace",
    "export_chrome_trace",
    "stage_totals",
    "render_stage_report",
]


def export_jsonl(spans: Iterable[Span], fp: Union[IO[str], None] = None) -> str:
    """Serialise spans as JSON Lines; returns the text (and writes ``fp``)."""
    text = "\n".join(json.dumps(s.to_dict(), sort_keys=True) for s in spans)
    if text:
        text += "\n"
    if fp is not None:
        fp.write(text)
    return text


def parse_jsonl(text: Union[str, Iterable[str]]) -> list[Span]:
    """Inverse of :func:`export_jsonl`: parse JSONL text (or lines) back."""
    lines = text.splitlines() if isinstance(text, str) else text
    spans = []
    for line in lines:
        line = line.strip()
        if line:
            spans.append(Span.from_dict(json.loads(line)))
    return spans


def normalize_metrics_dump(dump: dict) -> dict:
    """Normalise a registry :meth:`~repro.obs.metrics.MetricsRegistry.dump`
    so equivalent registries serialise identically.

    Gauge values and histogram extrema become floats (a merge
    reconstruction turns int-valued ones into floats anyway) and
    ``+ 0.0`` collapses -0.0 to 0.0 (which value-summing merges produce).
    Returns a new dump; the input is not mutated.
    :mod:`repro.obs.runinfo` artifacts go through this, so two
    equivalent :class:`~repro.obs.runinfo.RunArtifact`\\ s diff clean.
    """
    out: dict[str, dict] = {}
    for name, entry in dump.items():
        entry = dict(entry)
        if entry["type"] == "gauge":
            entry["value"] = float(entry["value"]) + 0.0
        elif entry["type"] == "histogram":
            entry["min"] = float(entry["min"])
            entry["max"] = float(entry["max"])
        out[name] = entry
    return out


def chrome_trace(spans: Iterable[Span], unit_label: str = "virtual-ns") -> dict:
    """Build a Chrome ``trace_event`` JSON object from spans.

    Mapping: span stage -> event ``name``; layer (``where``) -> ``cat``;
    component (``who``) -> ``pid``/``tid`` (one row per component, which
    is what makes the per-stage pipelining visible in Perfetto); flow and
    packet ids ride in ``args``.
    """
    events = []
    pids: dict[str, int] = {}
    for s in spans:
        pid = pids.setdefault(s.who or "?", len(pids) + 1)
        events.append(
            {
                "name": s.stage,
                "cat": s.where or "span",
                "ph": "X",
                "ts": s.t0 / 1000.0,
                "dur": (s.t1 - s.t0) / 1000.0,
                "pid": pid,
                "tid": 1,
                "args": {"flow": s.flow, "packet": s.packet, "ns": s.t1 - s.t0},
            }
        )
    for who, pid in pids.items():
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 1,
                "args": {"name": who},
            }
        )
    return {
        "traceEvents": events,
        "displayTimeUnit": "ns",
        "otherData": {"clock": unit_label},
    }


def export_chrome_trace(spans: Iterable[Span], path: str) -> None:
    """Write :func:`chrome_trace` output to ``path`` as JSON."""
    with open(path, "w", encoding="utf-8") as fp:
        json.dump(chrome_trace(spans), fp, indent=1)


def stage_totals(spans: Iterable[Span]) -> dict[str, int]:
    """Total nanoseconds per stage, in first-appearance order."""
    totals: dict[str, int] = {}
    for s in spans:
        totals[s.stage] = totals.get(s.stage, 0) + s.ns
    return totals


def render_stage_report(spans: Iterable[Span], title: str = "recorded spans") -> str:
    """Fig. 9-style per-stage latency table over the given spans."""
    spans = list(spans)
    totals = stage_totals(spans)
    counts: dict[str, int] = {}
    wheres: dict[str, str] = {}
    for s in spans:
        counts[s.stage] = counts.get(s.stage, 0) + 1
        wheres.setdefault(s.stage, s.where)
    grand = sum(totals.values())
    lines = [f"== per-stage breakdown ({title}) ==",
             f"{'stage':16} {'where':6} {'spans':>6} {'us':>9} {'share':>6}"]
    for stage, ns in totals.items():
        share = ns / grand if grand else 0.0
        lines.append(
            f"{stage:16} {wheres[stage]:6} {counts[stage]:6d} {ns / 1000:9.2f} {share:6.1%}"
        )
    lines.append(f"{'TOTAL':16} {'':6} {len(spans):6d} {grand / 1000:9.2f}")
    return "\n".join(lines)
