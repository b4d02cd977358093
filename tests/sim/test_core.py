"""Tests for the discrete-event kernel."""

import pytest

from repro.sim import (
    AllOf,
    AnyOf,
    Event,
    SimulationError,
    Simulator,
)


def _drive(sim, drive):
    if drive == "run":
        sim.run()
    else:
        while sim.peek() is not None:
            sim.step()


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0


def test_timeout_advances_clock():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(100)
        assert sim.now == 100
        yield sim.timeout(50)
        return sim.now

    p = sim.process(proc(sim))
    sim.run()
    assert p.value == 150
    assert sim.now == 150


def test_timeout_value_passthrough():
    sim = Simulator()

    def proc(sim):
        got = yield sim.timeout(5, value="payload")
        return got

    p = sim.process(proc(sim))
    sim.run()
    assert p.value == "payload"


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.timeout(-1)


def test_events_fire_in_time_order():
    sim = Simulator()
    order = []

    def proc(sim, delay, tag):
        yield sim.timeout(delay)
        order.append(tag)

    sim.process(proc(sim, 300, "c"))
    sim.process(proc(sim, 100, "a"))
    sim.process(proc(sim, 200, "b"))
    sim.run()
    assert order == ["a", "b", "c"]


def test_fifo_order_at_same_timestamp():
    sim = Simulator()
    order = []

    def proc(sim, tag):
        yield sim.timeout(10)
        order.append(tag)

    for tag in "abcd":
        sim.process(proc(sim, tag))
    sim.run()
    assert order == list("abcd")


def test_run_until_time_stops_early():
    sim = Simulator()
    fired = []

    def proc(sim):
        yield sim.timeout(1000)
        fired.append(True)

    sim.process(proc(sim))
    sim.run(until=500)
    assert sim.now == 500
    assert not fired
    sim.run()
    assert fired


def test_run_until_past_deadline_rejected():
    """A deadline before ``now`` raises instead of moving the clock back."""
    sim = Simulator()
    sim.timeout(100)
    sim.run(until=150)
    with pytest.raises(ValueError, match="before now"):
        sim.run(until=50)
    assert sim.now == 150
    sim.run(until=150)  # a deadline equal to now is a no-op
    assert sim.now == 150


def test_run_until_event_returns_value():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(10)
        return 42

    p = sim.process(proc(sim))
    assert sim.run(until=p) == 42


def test_run_until_event_raises_process_failure():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(10)
        raise RuntimeError("boom")

    p = sim.process(proc(sim))
    with pytest.raises(RuntimeError, match="boom"):
        sim.run(until=p)


def test_starvation_raises_simulation_error():
    sim = Simulator()
    never = sim.event()
    with pytest.raises(SimulationError):
        sim.run(until=never)


def test_unwatched_process_failure_crashes_run():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(1)
        raise ValueError("unwatched")

    sim.process(proc(sim))
    with pytest.raises(ValueError, match="unwatched"):
        sim.run()


def test_process_waits_on_manual_event():
    sim = Simulator()
    evt = sim.event()
    log = []

    def waiter(sim):
        value = yield evt
        log.append((sim.now, value))

    def firer(sim):
        yield sim.timeout(77)
        evt.succeed("hello")

    sim.process(waiter(sim))
    sim.process(firer(sim))
    sim.run()
    assert log == [(77, "hello")]


def test_event_double_trigger_rejected():
    sim = Simulator()
    evt = sim.event()
    evt.succeed()
    with pytest.raises(SimulationError):
        evt.succeed()


def test_event_fail_requires_exception():
    sim = Simulator()
    with pytest.raises(TypeError):
        sim.event().fail("not an exception")


def test_yield_already_processed_event():
    sim = Simulator()
    evt = sim.event()
    evt.succeed("early")
    sim.run()  # process the event
    assert evt.processed

    def proc(sim):
        got = yield evt
        return got

    p = sim.process(proc(sim))
    sim.run()
    assert p.value == "early"


def test_yield_non_event_is_error():
    """A process yields an Event or an int delay; anything else, including
    a float or a bool delay, is a kernel misuse."""
    for value in ("x", 1.5, True, None):
        for drive in ("run", "step"):
            sim = Simulator()

            def proc(sim):
                yield value

            sim.process(proc(sim))
            with pytest.raises(SimulationError, match="must yield Events"):
                _drive(sim, drive)


@pytest.mark.parametrize("drive", ["run", "step"])
def test_negative_sleep_rejected(drive):
    """``yield -1`` raises the error ``sim.timeout(-1)`` raises."""
    sim = Simulator()

    def proc(sim):
        yield 5
        yield -1

    sim.process(proc(sim))
    with pytest.raises(ValueError, match="negative timeout delay: -1"):
        _drive(sim, drive)


@pytest.mark.parametrize("drive", ["run", "step"])
def test_sleep_advances_clock_like_timeout(drive):
    """``yield d`` and ``yield sim.timeout(d)`` wake at the same time,
    resume with the same value (None) and count one event each."""
    traces = []
    for sleep in (True, False):
        sim = Simulator()
        log = []

        def proc(sim, tag, delays):
            for d in delays:
                got = yield (d if sleep else sim.timeout(d))
                log.append((sim.now, tag, got))

        sim.process(proc(sim, "a", [10, 0, 5, 0]))
        sim.process(proc(sim, "b", [0, 10, 5]))
        _drive(sim, drive)
        traces.append((log, sim.now, sim.events_processed))
    assert traces[0] == traces[1]
    # two starts, seven wake-ups, two exits
    assert traces[0][2] == 2 + 7 + 2


@pytest.mark.parametrize("drive", ["run", "step"])
def test_sleep_zero_keeps_fifo_order(drive):
    """``yield 0`` queues behind every event already due now, in order."""
    sim = Simulator()
    order = []

    def sleeper(sim, tag):
        yield 0
        order.append(tag)

    def trigger(evt, tag):
        evt.succeed()
        evt.callbacks.append(lambda _e: order.append(tag))

    trigger(sim.event(), "e1")
    sim.process(sleeper(sim, "p1"))
    trigger(sim.event(), "e2")
    sim.process(sleeper(sim, "p2"))
    _drive(sim, drive)
    assert order == ["e1", "e2", "p1", "p2"]


def test_process_chaining():
    sim = Simulator()

    def child(sim):
        yield sim.timeout(30)
        return "child-result"

    def parent(sim):
        result = yield sim.process(child(sim))
        return ("parent", result, sim.now)

    p = sim.process(parent(sim))
    sim.run()
    assert p.value == ("parent", "child-result", 30)


def test_any_of_triggers_on_first():
    sim = Simulator()

    def proc(sim):
        t1 = sim.timeout(100, value="fast")
        t2 = sim.timeout(200, value="slow")
        result = yield sim.any_of([t1, t2])
        return (sim.now, list(result.values()))

    p = sim.process(proc(sim))
    sim.run(until=p)
    now, values = p.value
    assert now == 100
    assert values == ["fast"]


def test_all_of_waits_for_all():
    sim = Simulator()

    def proc(sim):
        t1 = sim.timeout(100, value=1)
        t2 = sim.timeout(200, value=2)
        result = yield sim.all_of([t1, t2])
        return (sim.now, sorted(result.values()))

    p = sim.process(proc(sim))
    sim.run(until=p)
    assert p.value == (200, [1, 2])


def test_all_of_empty_fires_immediately():
    sim = Simulator()

    def proc(sim):
        yield sim.all_of([])
        return sim.now

    p = sim.process(proc(sim))
    sim.run()
    assert p.value == 0


def test_condition_propagates_failure():
    sim = Simulator()
    evt = sim.event()

    def proc(sim):
        yield sim.all_of([evt, sim.timeout(50)])

    def firer(sim):
        yield sim.timeout(10)
        evt.fail(RuntimeError("nested failure"))

    p = sim.process(proc(sim))
    sim.process(firer(sim))
    with pytest.raises(RuntimeError, match="nested failure"):
        sim.run(until=p)


def test_peek_reports_next_event_time():
    sim = Simulator()
    assert sim.peek() is None
    sim.timeout(123)
    assert sim.peek() == 123


def test_many_processes_scale():
    sim = Simulator()
    done = []

    def proc(sim, i):
        yield sim.timeout(i % 17)
        done.append(i)

    for i in range(1000):
        sim.process(proc(sim, i))
    sim.run()
    assert len(done) == 1000


def test_event_value_before_trigger_is_error():
    sim = Simulator()
    with pytest.raises(SimulationError):
        _ = sim.event().value


def test_process_is_alive_lifecycle():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(10)

    p = sim.process(proc(sim))
    assert p.is_alive
    sim.run()
    assert not p.is_alive
    assert p.processed


@pytest.mark.parametrize("drive", ["run", "step"])
def test_event_pool_never_recycles_a_held_event(drive):
    """The free list takes only plain events nothing else references: an
    event the caller saved and the members an ``any_of`` still lists keep
    their identity and value after they fire, a fired ``Timeout`` is never
    pooled, and an unreferenced event is recycled."""
    sim = Simulator()
    saved = sim.event().succeed("saved", 10)
    manual = sim.event()
    manual.succeed("manual")
    cond = sim.any_of([sim.event().succeed("first", 20),
                       sim.event().succeed("second", 30)])
    sim.timeout(5, value="dropped")
    sim.event().succeed("dropped")
    _drive(sim, drive)
    held = [saved, manual, *cond.events]
    assert [e.value for e in held] == ["saved", "manual", "first", "second"]
    assert cond.value == {cond.events[0]: "first"}
    assert len(sim._event_pool) == 1
    fresh = [sim.event() for _ in range(4)]
    assert not any(f is h for f in fresh for h in held)


@pytest.fixture
def events_built(monkeypatch):
    """A one-element list counting plain :class:`Event` constructions
    (pool misses); subclasses such as processes are not counted."""
    built = [0]
    init = Event.__init__

    def counting_init(self, *args, **kwargs):
        if self.__class__ is Event:
            built[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(Event, "__init__", counting_init)
    return built


@pytest.mark.parametrize("drive", ["run", "step"])
def test_event_pool_serves_looping_processes(drive, events_built):
    """Processes that loop on fresh events reuse pooled ones: in steady
    state each fired event is recycled before its process asks for the
    next, so the kernel constructs about one ``Event`` per process.  A
    kernel local that still references a fired event (such as the slot
    list it came from) keeps it out of the pool and shows up here as one
    construction per event."""
    sim = Simulator()
    n_procs, iterations = 10, 10_000

    def looper(sim, delay):
        for _ in range(iterations):
            yield sim.event().succeed(None, delay)

    # Colliding delays: slots hold one event at some times, several at others.
    for i in range(n_procs):
        sim.process(looper(sim, 1 + i % 3))
    _drive(sim, drive)
    assert sim.events_processed > n_procs * iterations
    assert events_built[0] <= n_procs + 2


@pytest.mark.parametrize("drive", ["run", "step"])
def test_event_pool_serves_short_lived_processes(drive, events_built):
    """A process whose last wait ends (it returns) resumes no further:
    the event it last yielded must still be recycled, so the kernel
    may not keep it in a local past the wake-up."""
    sim = Simulator()

    def worker(sim):
        yield sim.event().succeed(None, 1)

    def spawner(sim):
        for _ in range(1_000):
            sim.process(worker(sim))
            yield sim.event().succeed(None, 2)

    sim.process(spawner(sim))
    _drive(sim, drive)
    assert events_built[0] <= 4


def test_event_pools_are_bounded():
    """A burst of recyclable events fills the pool to ``POOL_MAX``, no further."""
    sim = Simulator()
    for _ in range(Simulator.POOL_MAX + 100):
        sim.event().succeed()
    sim.run()
    assert len(sim._event_pool) == Simulator.POOL_MAX
