"""Span recording: enable gating, bracketing, nesting reconstruction."""

import hashlib

from repro.apps.ping import run_ping
from repro.config import NETEFFECT_10G
from repro.harness.testbed import build_vnetp
from repro.obs.context import Observability
from repro.obs.span import (
    Span,
    SpanRecorder,
    assign_parents,
    flow_id,
    self_ns,
)
from repro.sim import Simulator


def test_disabled_recorder_records_nothing():
    sim = Simulator()
    rec = SpanRecorder(sim)

    def proc():
        span = rec.open("dispatch", who="core")
        assert span is None
        try:
            yield sim.timeout(100)
        finally:
            rec.close(span)

    sim.process(proc())
    sim.run()
    assert rec.spans == []


def test_span_brackets_virtual_time():
    sim = Simulator()
    rec = SpanRecorder(sim, enabled=True)

    def proc():
        yield sim.timeout(50)
        span = rec.open("dispatch", who="core", where="vmm", flow="a>b")
        try:
            yield sim.timeout(100)
            yield sim.timeout(25)
        finally:
            rec.close(span)

    sim.process(proc())
    sim.run()
    (s,) = rec.spans
    assert (s.t0, s.t1, s.ns) == (50, 175, 125)
    assert (s.stage, s.who, s.where, s.flow) == ("dispatch", "core", "vmm", "a>b")


def test_queries_and_reset():
    sim = Simulator()
    rec = SpanRecorder(sim, enabled=True)

    def proc():
        for stage in ("a", "b", "a"):
            span = rec.open(stage)
            try:
                yield sim.timeout(10)
            finally:
                rec.close(span)

    sim.process(proc())
    sim.run()
    assert len(rec.of_stage("a")) == 2
    assert rec.stages() == ["a", "b"]
    # Half-open window: a span starting exactly at t1 is excluded.
    assert [s.t0 for s in rec.between(0, 20)] == [0, 10]
    rec.reset()
    assert rec.spans == [] and rec.enabled


def test_assign_parents_interval_containment():
    outer = Span("outer", 0, 100, who="core", seq=1)
    inner = Span("inner", 10, 40, who="core", seq=2)
    innermost = Span("leaf", 20, 30, who="core", seq=3)
    other_proc = Span("other", 10, 40, who="nic", seq=4)
    ordered = assign_parents([other_proc, innermost, inner, outer])
    by_stage = {s.stage: s for s in ordered}
    assert by_stage["inner"].parent == 1
    assert by_stage["leaf"].parent == 2       # tightest enclosing, not just any
    assert by_stage["outer"].parent is None
    assert by_stage["other"].parent is None   # different who never nests


def test_self_ns_subtracts_direct_children_only():
    outer = Span("outer", 0, 100, who="core", seq=1)
    inner = Span("inner", 10, 40, who="core", seq=2)
    leaf = Span("leaf", 20, 30, who="core", seq=3)
    spans = assign_parents([outer, inner, leaf])
    assert self_ns(outer, spans) == 100 - 30   # only the direct child counts
    assert self_ns(inner, spans) == 30 - 10
    assert self_ns(leaf, spans) == 10


def test_flow_id_uses_src_dst():
    frame = Span  # any object with src/dst would do; use a tiny namespace

    class F:
        src = "aa:01"
        dst = "aa:02"

    assert flow_id(F()) == "aa:01>aa:02"


def test_span_dict_round_trip():
    s = Span("encap", 5, 17, who="vb", where="host", flow="a>b", packet=3, seq=9)
    assert Span.from_dict(s.to_dict()) == s


# -- the instrumented packet path --------------------------------------------


def _normalised(spans, tb) -> list[str]:
    """``stage|t0|t1|seq|who|where|flow|packet`` per span.

    Host MACs and packet ids come from process-global counters, so they
    are renamed in first-appearance order (see ``tests/golden/README.md``);
    everything else is compared verbatim.
    """
    macs = {h.dev.mac: f"hmac{i}" for i, h in enumerate(tb.hosts)}
    packets: dict = {}
    rows = []
    for s in spans:
        flow = s.flow or ""
        for mac, name in macs.items():
            flow = flow.replace(mac, name)
        packet = None if s.packet is None else packets.setdefault(s.packet, f"p{len(packets)}")
        rows.append(f"{s.stage}|{s.t0}|{s.t1}|{s.seq}|{s.who}|{s.where}|{flow}|{packet}")
    return rows


def _vnetp_testbed(record: bool):
    tb = build_vnetp(nic_params=NETEFFECT_10G)
    Observability.of(tb.sim).spans.enabled = record
    return tb


def test_disabled_spans_cost_no_recorder_calls(monkeypatch):
    """With recording off the packet path never calls into the recorder:
    each stage guards on ``spans.enabled`` before building arguments."""
    calls = []
    method = SpanRecorder.open

    def counted(self, *args, **kwargs):
        calls.append(args)
        return method(self, *args, **kwargs)

    monkeypatch.setattr(SpanRecorder, "open", counted)
    tb = _vnetp_testbed(record=False)
    result = run_ping(tb.endpoints[0], tb.endpoints[1], count=3)
    assert len(result.rtt_ns.samples) == 3
    assert calls == []


def test_recorded_ping_spans_are_pinned():
    """Three VNET/P pings record exactly these spans: stage, t0, t1, seq,
    who, where, flow and packet, in recording order."""
    tb = _vnetp_testbed(record=True)
    run_ping(tb.endpoints[0], tb.endpoints[1], count=3)
    rows = _normalised(Observability.of(tb.sim).spans.spans, tb)
    assert len(rows) == 129
    assert rows[:5] == [
        "icmp-tx|0|1900|1|vm0.gstack|guest|172.16.0.1>172.16.0.2|p0",
        "virtio-tx|1900|2950|2|vm0.virtio0|guest|5a:00:00:00:00:01>5a:00:00:00:00:02|p1",
        "vmexit|2950|4500|3|vm0.virtio0|vmm|5a:00:00:00:00:01>5a:00:00:00:00:02|p1",
        "dispatch|4500|5130|4|h0.vnet|vmm|5a:00:00:00:00:01>5a:00:00:00:00:02|p1",
        "copy|5130|5279|5|h0.vnet|vmm|5a:00:00:00:00:01>5a:00:00:00:00:02|p1",
    ]
    digest = hashlib.sha256("\n".join(rows).encode()).hexdigest()
    assert digest == "49288af59ada3cc64e3487dfd99cc54fcb0d033e320ae08961b34f9320fa05c3"


def test_interrupted_stage_still_records_its_span():
    """A stage cut short is committed with t1 at the cut: here closing the
    pinging generator at 4,700 ns ends the VNET/P dispatch inside the
    guest's kick exit, and its ``finally`` closes the span."""
    tb = _vnetp_testbed(record=True)
    sim = tb.sim
    src, dst = tb.endpoints
    proc = sim.process(src.stack.ping(dst.ip))
    sim.run(until=4_700)
    proc.gen.close()
    assert _normalised(Observability.of(sim).spans.spans, tb) == [
        "icmp-tx|0|1900|1|vm0.gstack|guest|172.16.0.1>172.16.0.2|p0",
        "virtio-tx|1900|2950|2|vm0.virtio0|guest|5a:00:00:00:00:01>5a:00:00:00:00:02|p1",
        "vmexit|2950|4500|3|vm0.virtio0|vmm|5a:00:00:00:00:01>5a:00:00:00:00:02|p1",
        "dispatch|4500|4700|4|h0.vnet|vmm|5a:00:00:00:00:01>5a:00:00:00:00:02|p1",
    ]
