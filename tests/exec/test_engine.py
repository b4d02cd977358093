"""Tests for the execution engine: ordering, parallel identity, metrics,
and the garbage-collection policy inside a point."""

import gc

import pytest

from repro.exec import Engine, Point, run_points

from .points import (
    add_point,
    failing_point,
    frozen_cycle_point,
    full_collection_point,
    health_point,
    metric_point,
    pid_point,
    seeded_random_point,
)


def test_values_returned_in_point_order():
    points = [Point("t", f"k{i}", add_point, {"a": i, "b": 10}) for i in range(7)]
    assert Engine(jobs=1).run(points) == [i + 10 for i in range(7)]
    assert Engine(jobs=3).run(points) == [i + 10 for i in range(7)]


def test_parallel_values_identical_to_serial():
    points = [Point("t", f"k{i}", seeded_random_point, {"tag": i}) for i in range(6)]
    serial = Engine(jobs=1).run(points)
    parallel = Engine(jobs=4).run(points)
    assert serial == parallel
    # Different points get different seeds, so different values.
    assert len(set(serial)) == len(serial)


def test_parallel_actually_uses_worker_processes():
    import os

    points = [Point("t", f"k{i}", pid_point, {"tag": i}) for i in range(4)]
    pids = Engine(jobs=4).run(points)
    assert all(pid != os.getpid() for pid in pids)
    serial_pids = Engine(jobs=1).run(points)
    assert all(pid == os.getpid() for pid in serial_pids)


@pytest.mark.parametrize("jobs", [1, 3])
def test_worker_metrics_merge_back(jobs):
    engine = Engine(jobs=jobs)
    values = engine.run(
        [Point("t", f"k{n}", metric_point, {"n": n}) for n in (3, 5)]
    )
    assert values == [6, 10]
    assert engine.metrics.counter("toy.count").value == 8
    assert engine.metrics.gauge("toy.gauge").value == 8.0
    hist = engine.metrics.get("toy.hist")
    assert hist.count == 2
    assert hist.sum == 8.0
    assert hist.min == 3.0 and hist.max == 5.0
    assert engine.points_total == 2
    assert engine.points_executed == 2
    assert engine.points_cached == 0
    assert "executed=2" in engine.summary()


def test_run_detailed_reports_seed_and_wall():
    engine = Engine()
    [res] = engine.run_detailed([Point("t", "k", add_point, {"a": 1, "b": 2})])
    assert res.key == "k"
    assert res.value == 3
    assert res.cached is False
    assert res.wall_s >= 0
    assert isinstance(res.seed, int)


def test_engine_rejects_bad_jobs():
    with pytest.raises(ValueError):
        Engine(jobs=0)


def test_point_exception_propagates():
    with pytest.raises(RuntimeError, match="boom"):
        Engine(jobs=1).run([Point("t", "k", failing_point, {})])


def test_run_points_defaults_to_serial_engine():
    assert run_points([Point("t", "k", add_point, {"a": 2, "b": 2})]) == [4]


@pytest.mark.parametrize("jobs", [1, 3])
def test_worker_health_events_ship_back(jobs):
    engine = Engine(jobs=jobs)
    points = [Point("t", f"k{tag}", health_point, {"tag": tag, "n": 2})
              for tag in ("a", "b")]
    [res_a, res_b] = engine.run_detailed(points)
    assert [e["monitor"] for e in res_a.health] == ["toy.a", "toy.a"]
    assert [e["t_ns"] for e in res_a.health] == [0, 100]
    # The engine aggregates every point's events in point order.
    assert [e["monitor"] for e in engine.health_events] == \
        ["toy.a", "toy.a", "toy.b", "toy.b"]
    assert res_b.health[0]["kind"] == "tick"
    # Points that never touch a health hub contribute nothing.
    quiet = Engine(jobs=1)
    quiet.run([Point("t", "k", add_point, {"a": 1, "b": 2})])
    assert quiet.health_events == []


def test_cached_points_restore_health_events(tmp_path):
    from repro.exec import ResultCache

    def run():
        engine = Engine(jobs=1, cache=ResultCache(str(tmp_path)))
        engine.run([Point("t", "k", health_point, {"tag": "c", "n": 3})])
        return engine

    cold = run()
    warm = run()
    assert warm.points_cached == 1 and warm.points_executed == 0
    assert warm.health_events == cold.health_events
    assert len(warm.health_events) == 3


@pytest.mark.parametrize("jobs", [1, 2])
def test_full_collection_inside_a_point_freezes_survivors(jobs):
    callbacks = list(gc.callbacks)
    points = [Point("t", f"k{tag}", full_collection_point, {"tag": tag})
              for tag in range(2)]
    frozen = Engine(jobs=jobs).run(points)
    assert all(count > 0 for count in frozen)
    # The point's end thaws the heap and removes the hook.
    assert gc.get_freeze_count() == 0
    assert gc.callbacks == callbacks


def test_point_that_raises_still_thaws_the_heap():
    callbacks = list(gc.callbacks)
    point = Point("t", "k", full_collection_point, {"tag": 0, "raise_after": True})
    with pytest.raises(RuntimeError, match="boom"):
        Engine(jobs=1).run([point])
    assert gc.get_freeze_count() == 0
    assert gc.callbacks == callbacks


def test_cycle_frozen_inside_a_point_is_freed_after_it():
    [(ref, alive_inside)] = Engine(jobs=1).run([Point("t", "k", frozen_cycle_point, {})])
    assert alive_inside
    gc.collect()
    assert ref() is None


def test_heap_frozen_by_the_caller_stays_frozen():
    callbacks = list(gc.callbacks)
    gc.freeze()
    try:
        Engine(jobs=1).run([Point("t", "k", full_collection_point, {"tag": 0})])
        assert gc.get_freeze_count() > 0
        assert gc.callbacks == callbacks
    finally:
        gc.unfreeze()
