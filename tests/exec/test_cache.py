"""Tests for the content-addressed result cache."""

from repro.exec import Engine, Point, ResultCache, fingerprint
from repro.exec.point import PointResult

from .points import add_point, fluid_knob_point, metric_point


def test_cache_roundtrip(tmp_path):
    cache = ResultCache(tmp_path / "c")
    fp = fingerprint(Point("t", "k", add_point, {"a": 1, "b": 2}))
    assert cache.get(fp) is None
    cache.put(fp, PointResult(key="k", value=3, metrics={}, wall_s=0.1, seed=7))
    hit = cache.get(fp)
    assert hit is not None
    assert hit.value == 3
    assert hit.cached is True  # marked on the way out


def test_cache_ignores_corrupt_entries(tmp_path):
    cache = ResultCache(tmp_path / "c")
    fp = fingerprint(Point("t", "k", add_point, {"a": 1, "b": 2}))
    path = cache.path(fp)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(b"not a pickle")
    assert cache.get(fp) is None  # corrupt entry reads as a miss


def test_engine_warm_run_executes_nothing(tmp_path):
    def run():
        engine = Engine(jobs=1, cache=ResultCache(tmp_path / "c"))
        values = engine.run(
            [Point("t", f"k{n}", metric_point, {"n": n}) for n in (3, 5)]
        )
        return engine, values

    cold_engine, cold = run()
    assert cold_engine.points_executed == 2
    warm_engine, warm = run()
    assert warm == cold
    assert warm_engine.points_executed == 0
    assert warm_engine.points_cached == 2
    # Cached metrics still merge into the warm engine's registry.
    assert warm_engine.metrics.counter("toy.count").value == 8


def test_cache_shared_between_serial_and_parallel(tmp_path):
    cache_dir = tmp_path / "c"
    points = [Point("t", f"k{n}", metric_point, {"n": n}) for n in (1, 2, 4)]
    serial = Engine(jobs=1, cache=ResultCache(cache_dir)).run(points)
    warm_parallel_engine = Engine(jobs=3, cache=ResultCache(cache_dir))
    assert warm_parallel_engine.run(points) == serial
    assert warm_parallel_engine.points_executed == 0


def test_different_kwargs_do_not_collide(tmp_path):
    cache = ResultCache(tmp_path / "c")
    e = Engine(cache=cache)
    assert e.run([Point("t", "k", add_point, {"a": 1, "b": 2})]) == [3]
    assert e.run([Point("t", "k", add_point, {"a": 2, "b": 2})]) == [4]


def test_env_knobs_key_the_cache(tmp_path, monkeypatch):
    """REPRO_FLUID changes which code paths a point runs without changing
    the point: a fluid run must execute rather than be served the
    all-packet entry, each mode's warm rerun must hit its own entry, and
    the point's seed must not depend on the knob."""
    points = [Point("t", "k", fluid_knob_point, {})]

    def run(knob):
        if knob is None:
            monkeypatch.delenv("REPRO_FLUID", raising=False)
        else:
            monkeypatch.setenv("REPRO_FLUID", knob)
        engine = Engine(cache=ResultCache(tmp_path / "c"))
        result, = engine.run_detailed(points)
        return result.value, result.seed, engine.points_executed

    packet_value, packet_seed, executed = run(None)
    assert (packet_value, executed) == ("", 1)
    fluid_value, fluid_seed, executed = run("1")
    assert (fluid_value, executed) == ("1", 1)
    assert fluid_seed == packet_seed
    assert run("1") == ("1", fluid_seed, 0)
    assert run(None) == ("", packet_seed, 0)
