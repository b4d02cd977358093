"""Tests for the discrete-event kernel."""

import pytest

from repro.sim import (
    AllOf,
    AnyOf,
    Event,
    Interrupt,
    SimulationError,
    Simulator,
    Timeout,
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


@pytest.mark.parametrize("drive", ["run", "step"])
def test_stale_sleep_after_interrupt_is_removed(drive):
    """An interrupt during ``yield d`` removes the queued wake-up: the
    process is not resumed at the old wake-up time and the queue holds
    nothing for it (the sleep counterpart of
    ``test_stale_timeout_after_interrupt_is_ignored``)."""
    sim = Simulator()
    resumed = []

    def victim(sim):
        try:
            yield 100
        except Interrupt:
            resumed.append(("interrupted", sim.now))
        yield 500
        resumed.append(("woke", sim.now))

    def attacker(sim, target):
        yield 10
        target.interrupt()

    v = sim.process(victim(sim))
    sim.process(attacker(sim, v))
    sim.run(until=50)
    assert resumed == [("interrupted", 10)]
    assert sorted(sim._slots) == sim._times == [510]
    _drive(sim, drive)
    assert resumed == [("interrupted", 10), ("woke", 510)]
    # two starts, two wake-ups, one interrupt, two exits
    assert sim.events_processed == 7


@pytest.mark.parametrize("drive", ["run", "step"])
def test_interrupt_removes_sleep_due_now_and_in_shared_slot(drive):
    """A wake-up due at the current time leaves the immediate deque; one
    sharing its slot with another event leaves the slot, which still fires."""
    sim = Simulator()
    log = []
    go = sim.event()

    def now_sleeper(sim):
        yield go
        try:
            yield 0  # queued behind the interrupt issued with ``go``
            log.append(("woke", 0, sim.now))
        except Interrupt:
            log.append(("interrupted", 0, sim.now))

    def sleeper(sim, delay):
        try:
            yield delay
            log.append(("woke", delay, sim.now))
        except Interrupt:
            log.append(("interrupted", delay, sim.now))

    def attacker(sim, targets):
        yield 10
        go.succeed()
        for t in targets:
            t.interrupt()

    targets = [sim.process(now_sleeper(sim)), sim.process(sleeper(sim, 30))]
    timer = sim.timeout(30)
    timer.callbacks.append(lambda _e: log.append(("timer", 30, sim.now)))
    sim.process(attacker(sim, targets))
    _drive(sim, drive)
    assert log == [("interrupted", 0, 10), ("interrupted", 30, 10), ("timer", 30, 30)]
    assert not sim._immediate and not sim._slots and not sim._times


@pytest.mark.parametrize("drive", ["run", "step"])
def test_wakeup_queued_before_interrupt_still_wins(drive):
    """A wake-up already queued for now ahead of the interrupt resumes the
    process normally, as a ``Timeout`` would; the interrupt then reaches
    the process at its next wait."""
    sim = Simulator()
    log = []

    def victim(sim):
        for delay in (10, 50):
            try:
                yield delay
                log.append(("woke", sim.now))
            except Interrupt:
                log.append(("interrupted", sim.now))

    def attacker(sim, targets):
        yield 10
        targets[0].interrupt()

    targets = []
    sim.process(attacker(sim, targets))
    # The victim's 10 ns wake-up follows the attacker's, so it is queued
    # when the interrupt is issued, ahead of it.
    targets.append(sim.process(victim(sim)))
    _drive(sim, drive)
    assert log == [("woke", 10), ("interrupted", 10)]
    assert sim.now == 10


@pytest.mark.parametrize("drive", ["run", "step"])
def test_interrupted_unstarted_process_starts_first(drive):
    """Interrupting a process that has not run yet lets it start, then
    delivers the interrupt at its first wait — here a sleep."""
    sim = Simulator()
    log = []

    def victim(sim):
        log.append(("started", sim.now))
        try:
            yield 100
        except Interrupt as exc:
            log.append(("interrupted", sim.now, exc.cause))
        yield 1
        log.append(("done", sim.now))

    v = sim.process(victim(sim))
    v.interrupt("early")
    _drive(sim, drive)
    assert log == [("started", 0), ("interrupted", 0, "early"), ("done", 1)]


@pytest.mark.parametrize("drive", ["run", "step"])
def test_double_interrupt_of_sleeper_reaches_next_sleep(drive):
    """Two interrupts queued together: the first cuts the sleep short,
    the second the sleep after it; neither leaves a wake-up behind."""
    sim = Simulator()
    log = []

    def victim(sim):
        for delay in (100, 200, 5):
            try:
                yield delay
                log.append(("woke", sim.now))
            except Interrupt as exc:
                log.append(("interrupted", sim.now, exc.cause))

    def attacker(sim, target):
        yield 10
        target.interrupt(1)
        target.interrupt(2)

    v = sim.process(victim(sim))
    sim.process(attacker(sim, v))
    _drive(sim, drive)
    assert log == [("interrupted", 10, 1), ("interrupted", 10, 2), ("woke", 15)]
    assert sim.now == 15


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


@pytest.fixture
def timeouts_built(monkeypatch):
    """A one-element list counting ``Timeout`` constructions (pool misses)."""
    built = [0]
    init = Timeout.__init__

    def counting_init(self, *args, **kwargs):
        built[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(Timeout, "__init__", counting_init)
    return built



@pytest.mark.parametrize("drive", ["run", "step"])
def test_timeout_pool_serves_looping_processes(drive, timeouts_built):
    """Processes that loop on fresh timeouts reuse pooled ones: in steady
    state each fired timeout is recycled before its process asks for the
    next, so the kernel constructs about one ``Timeout`` per process.  A
    kernel local that still references a fired event (such as the slot
    list it came from) keeps it out of the pool and shows up here as one
    construction per event."""
    sim = Simulator()
    n_procs, iterations = 10, 10_000

    def looper(sim, delay):
        for _ in range(iterations):
            yield sim.timeout(delay)

    # Colliding delays: slots hold one event at some times, several at others.
    for i in range(n_procs):
        sim.process(looper(sim, 1 + i % 3))
    _drive(sim, drive)
    assert sim.events_processed > n_procs * iterations
    assert timeouts_built[0] <= n_procs + 2


@pytest.mark.parametrize("drive", ["run", "step"])
def test_timeout_pool_serves_short_lived_processes(drive, timeouts_built):
    """A process whose last wait ends (it returns) resumes no further:
    the timeout it last yielded must still be recycled, so the kernel
    may not keep it in a local past the wake-up."""
    sim = Simulator()

    def worker(sim):
        yield sim.timeout(1)

    def spawner(sim):
        for _ in range(1_000):
            sim.process(worker(sim))
            yield sim.timeout(2)

    sim.process(spawner(sim))
    _drive(sim, drive)
    assert timeouts_built[0] <= 4


def test_event_pools_are_bounded():
    """A burst of recyclable events fills each pool to ``POOL_MAX``, no further."""
    sim = Simulator()
    for _ in range(Simulator.POOL_MAX + 100):
        sim.timeout(1)
        sim.event().succeed()
    sim.run()
    assert len(sim._timeout_pool) == len(sim._event_pool) == Simulator.POOL_MAX
