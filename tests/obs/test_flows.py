"""Flows: packet-record assembly, critical path, latency-over-time."""

import math

import pytest

from repro.obs.context import Observability
from repro.obs.flows import (
    assemble_packet_records,
    critical_path,
    flow_summaries,
    percentile_over_time,
    register_latency_series,
    render_flow_report,
)
from repro.obs.span import Span
from repro.obs.timeline import Timeline
from repro.sim import Simulator


def spans_for(flow, packet, t0, stages):
    """Consecutive spans for one packet: [(stage, ns), ...] from t0."""
    out, t = [], t0
    for stage, ns in stages:
        out.append(Span(stage, t, t + ns, flow=flow, packet=packet))
        t += ns
    return out


SPANS = (
    spans_for("a>b", 1, 100, [("dispatch", 200), ("encap", 300), ("link", 500)])
    + spans_for("a>b", 2, 2000, [("dispatch", 200), ("encap", 2800), ("link", 500)])
    + spans_for("c>d", "icmp-1", 0, [("link", 700)])
    + [Span("bookkeeping", 0, 50)]  # no flow/packet: skipped
)


def test_assemble_packet_records():
    records = assemble_packet_records(SPANS)
    assert [(r.flow, r.packet) for r in records] == [
        ("a>b", 1), ("a>b", 2), ("c>d", "icmp-1")
    ]
    first = records[0]
    assert first.t0 == 100 and first.t1 == 1100
    assert first.elapsed_ns == 1000 and first.busy_ns == 1000
    assert first.stage_ns == {"dispatch": 200, "encap": 300, "link": 500}
    assert first.spans == 3
    # Per-flow restriction.
    assert [r.flow for r in assemble_packet_records(SPANS, flow="c>d")] == ["c>d"]


def test_repeated_stage_sums_and_gaps_show_in_elapsed():
    spans = [
        Span("link", 0, 100, flow="f", packet=9),
        Span("link", 500, 700, flow="f", packet=9),  # retransmit, after a gap
    ]
    [rec] = assemble_packet_records(spans)
    assert rec.stage_ns == {"link": 300}
    assert rec.busy_ns == 300
    assert rec.elapsed_ns == 700  # queueing gap included


def test_critical_path_picks_tail_dominator():
    records = assemble_packet_records(SPANS, flow="a>b")
    # The p99 tail is packet 2, whose encap (2800 of 3500 ns) dominates.
    stage, share = critical_path(records)
    assert stage == "encap"
    assert share == pytest.approx(2800 / 3500)
    with pytest.raises(ValueError):
        critical_path([])


def test_flow_summaries_sorted_and_rendered():
    summaries = flow_summaries(assemble_packet_records(SPANS))
    assert [s.flow for s in summaries] == ["a>b", "c>d"]  # largest first
    ab = summaries[0]
    assert ab.packets == 2
    assert ab.mean_ns == pytest.approx((1000 + 3500) / 2)
    assert ab.max_ns == 3500
    assert ab.critical_stage == "encap"
    report = render_flow_report(summaries)
    assert "a>b" in report and "encap" in report


def test_percentile_over_time_bins_by_completion():
    records = assemble_packet_records(SPANS)
    # Packet 1 completes at 1100 (window 2), packet 2 at 5500 (window 6),
    # the icmp probe at 700 (window 1); empty windows are omitted.
    curve = percentile_over_time(records, window_ns=1000, q=50)
    assert curve == [(1000, 700.0), (2000, 1000.0), (6000, 3500.0)]
    with pytest.raises(ValueError):
        percentile_over_time(records, window_ns=0)


def test_register_latency_series_holds_straddling_packets():
    sim = Simulator()
    obs = Observability.of(sim)
    obs.spans.enabled = True
    tl = Timeline(sim, obs.metrics, interval_ns=1000)
    series = register_latency_series(tl, obs.spans, q=50, series="p50")
    assert series.name == "p50"

    def packet(flow, pid, stages):
        for stage, ns in stages:
            span = obs.spans.open(stage, flow=flow, packet=pid)
            try:
                yield sim.timeout(ns)
            finally:
                obs.spans.close(span)

    def workload():
        # Packet 1 completes at t=600: its grace (one interval) expires by
        # the t=2000 tick, not the t=1000 one.
        yield from packet("f", 1, [("link", 600)])
        # Packet 2 straddles the t=2000 tick (1800..2200) and must not be
        # split into two partial records; it reports at t=4000.
        yield sim.timeout(1200)
        yield from packet("f", 2, [("encap", 300), ("link", 100)])

    sim.process(workload())
    tl.start(until_ns=4000)
    sim.run()
    v1, v2, v3, v4 = series.values
    assert math.isnan(v1)        # packet 1 still within grace at t=1000
    assert v2 == 600.0           # packet 1 reported once, complete
    assert math.isnan(v3)        # packet 2's grace spans the t=3000 tick
    assert v4 == 400.0           # packet 2 whole, never split


def test_register_latency_series_flow_filter_and_default_name():
    sim = Simulator()
    obs = Observability.of(sim)
    obs.spans.enabled = True
    tl = Timeline(sim, obs.metrics, interval_ns=1000)
    series = register_latency_series(tl, obs.spans, q=99, flow="a>b")
    assert series.name == "flows.a>b.p99"

    def workload():
        span = obs.spans.open("link", flow="a>b", packet=1)
        yield sim.timeout(100)
        obs.spans.close(span)
        span = obs.spans.open("link", flow="x>y", packet=2)
        yield sim.timeout(900)
        obs.spans.close(span)

    sim.process(workload())
    tl.start(until_ns=3000)
    sim.run()
    # Only the a>b packet ever reports; the x>y one is filtered out.
    assert series.finite_values() == [100.0]


def test_span_recorder_stamps_packet_id_from_flow_of():
    class Pdu:
        def __init__(self, pid):
            self.src, self.dst, self.id = "a", "b", pid

    sim = Simulator()
    obs = Observability.of(sim)
    obs.spans.enabled = True
    obs.spans.close(obs.spans.open("link", flow_of=Pdu(7)))
    [span] = obs.spans.spans
    assert span.flow == "a>b" and span.packet == 7
    # Disabled recording never touches the PDU.
    obs.reset()
    obs.spans.enabled = False
    assert obs.spans.open("link", flow_of=Pdu(8)) is None
    assert obs.spans.spans == []
