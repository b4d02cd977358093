"""Unit tests for repro.obs.runinfo (RunArtifact bundles)."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.exec import Engine, Point
from repro.obs.runinfo import (
    ARTIFACT_SCHEMA,
    RunArtifact,
    build_artifact,
    fairness_scores,
)
from tests.exec.points import add_point, metric_point


class _Result:
    def __init__(self, experiment_id, rows):
        self.experiment_id = experiment_id
        self.rows = rows


def test_fairness_scores_extracts_only_fairness_gauges():
    dump = {
        "fairness.sym.jfi": {"type": "gauge", "value": 0.99},
        "fairness.sym.utilization": {"type": "gauge", "value": -0.0},
        "fairness.count": {"type": "counter", "value": 3},
        "vnet.core.h0.pkts": {"type": "counter", "value": 12},
    }
    scores = fairness_scores(dump)
    assert scores == {"fairness.sym.jfi": 0.99, "fairness.sym.utilization": 0.0}
    # -0.0 normalised to +0.0 so JSON text is byte-stable across runs.
    assert str(scores["fairness.sym.utilization"]) == "0.0"


def test_save_load_round_trip(tmp_path):
    art = RunArtifact(
        kind="experiment",
        config={"code_version": "abc", "env": {"REPRO_FLUID": ""}},
        rows={"fig08": [{"size": 64, "gbps": 1.5}]},
        metrics={"c": {"type": "counter", "value": 2}},
        timelines=[{"interval_ns": 100, "series": {}}],
        health=[{"t_ns": 5, "monitor": "m", "kind": "k"}],
        fairness={"fairness.s.jfi": 1.0},
        volatile={"wall_s": 0.1},
    )
    path = tmp_path / "art.json"
    art.save(str(path))
    back = RunArtifact.load(str(path))
    assert back.to_dict() == art.to_dict()
    assert back.schema == ARTIFACT_SCHEMA
    # The on-disk form is sorted, indented JSON with a trailing newline.
    text = path.read_text()
    assert text.endswith("\n")
    assert json.loads(text) == art.to_dict()


def test_to_dict_canonicalises_tuples_once():
    art = RunArtifact(rows={"exp": [{"sizes": (1, 2, 3)}]})
    d = art.to_dict()
    assert d["rows"]["exp"][0]["sizes"] == [1, 2, 3]
    # Round-tripping the canonical form is the identity.
    assert RunArtifact.from_dict(d).to_dict() == d


def test_build_artifact_from_engine():
    engine = Engine(jobs=1)
    values = engine.run(
        [
            Point("t", "a", add_point, {"a": 1, "b": 2}),
            Point("t", "b", metric_point, {"n": 3}),
        ]
    )
    results = [_Result("t", [{"key": "a", "value": values[0]}])]
    art = build_artifact(
        engine, results, extra_config={"experiments": ["t"], "quick": True}
    )
    assert art.kind == "experiment"
    assert len(art.config["code_version"]) == 16
    assert set(art.config["env"]) == {"REPRO_FLUID"}
    assert art.config["experiments"] == ["t"]
    assert art.rows == {"t": [{"key": "a", "value": values[0]}]}
    assert art.metrics["exec.points.total"]["value"] == 2
    assert art.volatile["points_total"] == 2
    assert art.volatile["points_executed"] == 2
    assert art.volatile["wall_s"] >= 0.0
    # volatile and profile never enter the diffable sections.
    assert art.profile is None


# -- property: artifact schema round-trip stability ------------------------

_leaf = (
    st.integers(-10**9, 10**9)
    | st.floats(allow_nan=False, allow_infinity=False, width=32)
    | st.text(max_size=12)
    | st.booleans()
    | st.none()
)
_rows = st.dictionaries(
    st.text(min_size=1, max_size=8),
    st.lists(st.dictionaries(st.text(min_size=1, max_size=8), _leaf, max_size=4),
             max_size=3),
    max_size=3,
)


@settings(max_examples=50)
@given(rows=_rows, volatile=st.dictionaries(st.text(min_size=1, max_size=8),
                                            _leaf, max_size=3))
def test_property_round_trip_stability(rows, volatile):
    art = RunArtifact(rows=rows, volatile=volatile)
    d = art.to_dict()
    # to_dict is idempotent (canonicalisation happens exactly once)...
    assert RunArtifact.from_dict(d).to_dict() == d
    # ...and survives a JSON text round trip (what save/load do).
    assert RunArtifact.from_dict(json.loads(json.dumps(d))).to_dict() == d


def test_load_rejects_invalid_json(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(json.JSONDecodeError):
        RunArtifact.load(str(bad))
