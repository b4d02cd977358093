"""Tests for the discrete-event kernel."""

import pytest

from repro.sim import (
    AllOf,
    AnyOf,
    Event,
    Interrupt,
    SimulationError,
    Simulator,
)


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
    sim = Simulator()

    def proc(sim):
        yield 42

    sim.process(proc(sim))
    with pytest.raises(SimulationError, match="must yield Events"):
        sim.run()


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


def test_interrupt_delivers_cause():
    sim = Simulator()
    caught = []

    def victim(sim):
        try:
            yield sim.timeout(1000)
        except Interrupt as exc:
            caught.append((sim.now, exc.cause))

    def attacker(sim, target):
        yield sim.timeout(40)
        target.interrupt("stop it")

    v = sim.process(victim(sim))
    sim.process(attacker(sim, v))
    sim.run()
    assert caught == [(40, "stop it")]


def test_interrupted_process_can_continue():
    sim = Simulator()

    def victim(sim):
        try:
            yield sim.timeout(1000)
        except Interrupt:
            pass
        yield sim.timeout(10)
        return sim.now

    def attacker(sim, target):
        yield sim.timeout(5)
        target.interrupt()

    v = sim.process(victim(sim))
    sim.process(attacker(sim, v))
    sim.run()
    assert v.value == 15


def test_stale_timeout_after_interrupt_is_ignored():
    sim = Simulator()
    resumed = []

    def victim(sim):
        try:
            yield sim.timeout(100)
        except Interrupt:
            pass
        # Wait on a fresh event; the stale timeout at t=100 must not
        # resume us early.
        yield sim.timeout(500)
        resumed.append(sim.now)

    def attacker(sim, target):
        yield sim.timeout(10)
        target.interrupt()

    v = sim.process(victim(sim))
    sim.process(attacker(sim, v))
    sim.run()
    assert resumed == [510]


def test_interrupt_dead_process_rejected():
    sim = Simulator()

    def quick(sim):
        yield sim.timeout(1)

    p = sim.process(quick(sim))
    sim.run()
    with pytest.raises(SimulationError):
        p.interrupt()


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


def test_interrupt_process_blocked_on_store():
    from repro.sim.primitives import Store

    sim = Simulator()
    store = Store(sim)
    log = []

    def waiter(sim):
        try:
            yield store.get()
        except Interrupt as exc:
            log.append((sim.now, exc.cause))

    def attacker(sim, target):
        yield sim.timeout(70)
        target.interrupt("give up")

    w = sim.process(waiter(sim))
    sim.process(attacker(sim, w))
    sim.run()
    assert log == [(70, "give up")]
    # The abandoned get must not have consumed anything.
    store.try_put("item")
    assert store.try_get() == "item"


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
    """The free lists take only events nothing else references: a timer
    the caller saved and the members an ``any_of`` still lists keep
    their identity and value after they fire, while an unreferenced
    timer and event are recycled."""
    sim = Simulator()
    saved = sim.timeout(10, value="saved")
    manual = sim.event()
    manual.succeed("manual")
    cond = sim.any_of([sim.timeout(20, value="first"),
                       sim.timeout(30, value="second")])
    sim.timeout(5, value="dropped")
    sim.event().succeed("dropped")
    if drive == "run":
        sim.run()
    else:
        while sim.peek() is not None:
            sim.step()
    held = [saved, manual, *cond.events]
    assert [e.value for e in held] == ["saved", "manual", "first", "second"]
    assert cond.value == {cond.events[0]: "first"}
    assert len(sim._timeout_pool) == 1 and len(sim._event_pool) == 1
    fresh = [sim.timeout(1) for _ in range(4)] + [sim.event() for _ in range(4)]
    assert not any(f is h for f in fresh for h in held)
