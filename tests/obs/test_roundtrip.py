"""Property tests: span JSONL and metrics-in-RunArtifact round-trips are
lossless."""

import os
import tempfile

from hypothesis import given, settings, strategies as st

from repro.obs.exporters import export_jsonl, normalize_metrics_dump, parse_jsonl
from repro.obs.metrics import MetricsRegistry
from repro.obs.runinfo import RunArtifact
from repro.obs.span import Span

# Identifier-ish names: printable, no control chars, deterministic sort.
names = st.text(
    alphabet=st.characters(whitelist_categories=("L", "N"), whitelist_characters="._->"),
    min_size=1,
    max_size=20,
)
finite = st.floats(allow_nan=False, allow_infinity=False, width=32)


# -- spans -----------------------------------------------------------------

@st.composite
def spans(draw):
    t0 = draw(st.integers(min_value=0, max_value=10**12))
    return Span(
        stage=draw(names),
        t0=t0,
        t1=t0 + draw(st.integers(min_value=0, max_value=10**9)),
        who=draw(names | st.just("")),
        where=draw(names | st.just("")),
        flow=draw(st.none() | names),
        # PDU ids are ints for frames/segments, strings for icmp probes.
        packet=draw(st.none() | st.integers(min_value=0) | names),
        seq=draw(st.integers(min_value=0, max_value=10**6)),
    )


@settings(max_examples=50)
@given(st.lists(spans(), max_size=20))
def test_span_jsonl_round_trip_lossless(recorded):
    text = export_jsonl(recorded)
    assert parse_jsonl(text) == recorded
    # Re-export of the parse-back is byte-identical (stable schema).
    assert export_jsonl(parse_jsonl(text)) == text


# -- metrics ---------------------------------------------------------------

@st.composite
def registries(draw):
    reg = MetricsRegistry()
    prefix_pool = ("vnet", "hw.nic", "chaos", "app")
    for i, value in enumerate(draw(st.lists(st.integers(0, 10**9), max_size=4))):
        reg.counter(f"{prefix_pool[0]}.c{i}").inc(value)
    # Gauges: plain and sim-time-weighted (timestamped sets).
    for i, sets in enumerate(
        draw(st.lists(st.lists(finite, min_size=1, max_size=4), max_size=3))
    ):
        g = reg.gauge(f"{prefix_pool[1]}.g{i}")
        timestamped = draw(st.booleans())
        now = 0
        for v in sets:
            if timestamped:
                now += draw(st.integers(1, 10**6))
                g.set(v, now_ns=now)
            else:
                g.set(v)
    # Histograms: arbitrary strictly-increasing float edges.
    for i, (edges, obs) in enumerate(
        draw(
            st.lists(
                st.tuples(
                    st.lists(finite, min_size=1, max_size=5, unique=True),
                    st.lists(finite, max_size=6),
                ),
                max_size=2,
            )
        )
    ):
        h = reg.histogram(f"{prefix_pool[2]}.h{i}", sorted(edges))
        for x in obs:
            h.observe(x)
    # Counter families: one ``<prefix>.<label>`` counter per label.
    for label, n in draw(
        st.lists(st.tuples(names, st.integers(0, 1000)), max_size=4)
    ):
        reg.counter(f"{prefix_pool[3]}.reasons.{label}").inc(n)
    return reg


def _artifact_round_trip(reg: MetricsRegistry) -> MetricsRegistry:
    """registry -> RunArtifact.save/load -> merge into a fresh registry."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "run.json")
        RunArtifact(metrics=normalize_metrics_dump(reg.dump())).save(path)
        back = MetricsRegistry()
        back.merge(RunArtifact.load(path).metrics)
    return back


@settings(max_examples=50)
@given(registries())
def test_metrics_artifact_round_trip_lossless(reg):
    back = _artifact_round_trip(reg)
    # Lossless, including histogram edges/extrema and gauge
    # time-weighted state.
    assert normalize_metrics_dump(back.dump()) == normalize_metrics_dump(reg.dump())


def test_normalize_metrics_dump_is_non_mutating_and_idempotent():
    reg = MetricsRegistry()
    reg.gauge("g").set(-0.0, now_ns=1)
    reg.histogram("h", edges=[1.0]).observe(1)
    dump = reg.dump()
    norm = normalize_metrics_dump(dump)
    # The input dump is untouched (its gauge still carries -0.0)...
    assert str(dump["g"]["value"]) == "-0.0"
    # ...the normalised copy collapses it, and min/max are floats.
    assert str(norm["g"]["value"]) == "0.0"
    assert isinstance(norm["h"]["min"], float)
    assert normalize_metrics_dump(norm) == norm


# -- timeline dumps --------------------------------------------------------

def test_merge_dumps_empty_inputs():
    from repro.obs.timeline import merge_dumps

    assert merge_dumps([]) == {}
    # A dump with no series contributes nothing.
    assert merge_dumps([{"interval_ns": 100, "series": {}}]) == {}


def test_merge_dumps_disjoint_series_names():
    from repro.obs.timeline import merge_dumps

    dump_a = {"interval_ns": 100, "series": {
        "rate.a": {"name": "rate.a", "unit": "pkt/s", "capacity": 4,
                   "t": [100, 200], "v": [1.0, 2.0]},
    }}
    dump_b = {"interval_ns": 100, "series": {
        "rate.b": {"name": "rate.b", "unit": "pkt/s", "capacity": 4,
                   "t": [150], "v": [9.0]},
    }}
    merged = merge_dumps([dump_a, dump_b])
    assert set(merged) == {"rate.a", "rate.b"}
    assert merged["rate.a"].samples() == [(100, 1.0), (200, 2.0)]
    assert merged["rate.b"].samples() == [(150, 9.0)]


def test_merge_dumps_same_name_concatenates_time_sorted():
    from repro.obs.timeline import merge_dumps

    early = {"interval_ns": 100, "series": {
        "r": {"name": "r", "unit": "", "capacity": 4, "t": [300], "v": [3.0]},
    }}
    late = {"interval_ns": 100, "series": {
        "r": {"name": "r", "unit": "", "capacity": 4,
              "t": [100, 200], "v": [1.0, 2.0]},
    }}
    merged = merge_dumps([early, late])
    assert merged["r"].samples() == [(100, 1.0), (200, 2.0), (300, 3.0)]
