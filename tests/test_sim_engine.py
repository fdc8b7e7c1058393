"""Unit tests for the discrete-event engine core."""

import pytest

from repro.errors import ProcessInterrupt, SimulationError
from repro.sim import Simulator
from repro.units import us

#: Every resume-loop case runs under both drivers: the joinable
#: ``sim.process`` and the fire-and-forget ``sim.spawn``.
DRIVERS = pytest.mark.parametrize("start", ["process", "spawn"])


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_timeout_advances_clock():
    sim = Simulator()

    def proc():
        yield sim.timeout(100.0)
        return sim.now

    p = sim.process(proc())
    assert sim.run(p) == 100.0
    assert sim.now == 100.0


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.timeout(-1.0)


def test_run_until_time_stops_between_events():
    sim = Simulator()
    seen = []

    def proc():
        for _ in range(10):
            yield sim.timeout(10.0)
            seen.append(sim.now)

    sim.process(proc())
    sim.run(until=35.0)
    assert seen == [10.0, 20.0, 30.0]
    assert sim.now == 35.0


def test_run_until_past_raises():
    sim = Simulator()
    sim.process(iter_timeout(sim, 50.0))
    sim.run(until=50.0)
    with pytest.raises(SimulationError):
        sim.run(until=10.0)


def iter_timeout(sim, delay):
    yield sim.timeout(delay)


def test_process_return_value_propagates():
    sim = Simulator()

    def child():
        yield sim.timeout(5.0)
        return "payload"

    def parent():
        value = yield sim.process(child())
        return value

    assert sim.run(sim.process(parent())) == "payload"


def test_events_same_time_fifo_order():
    sim = Simulator()
    order = []

    def proc(tag):
        yield sim.timeout(10.0)
        order.append(tag)

    for tag in range(5):
        sim.process(proc(tag))
    sim.run()
    assert order == [0, 1, 2, 3, 4]


def test_event_succeed_delivers_value():
    sim = Simulator()
    ev = sim.event()

    def waiter():
        value = yield ev
        return value

    def firer():
        yield sim.timeout(3.0)
        ev.succeed(42)

    p = sim.process(waiter())
    sim.process(firer())
    assert sim.run(p) == 42


def test_event_double_trigger_rejected():
    sim = Simulator()
    ev = sim.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)


def test_failed_event_raises_in_waiter():
    sim = Simulator()
    ev = sim.event()

    def waiter():
        try:
            yield ev
        except ValueError as exc:
            return f"caught:{exc}"

    def firer():
        yield sim.timeout(1.0)
        ev.fail(ValueError("boom"))

    p = sim.process(waiter())
    sim.process(firer())
    assert sim.run(p) == "caught:boom"


def test_unhandled_process_exception_propagates_from_run():
    sim = Simulator()

    def bad():
        yield sim.timeout(1.0)
        raise RuntimeError("crash")

    sim.process(bad())
    with pytest.raises(RuntimeError, match="crash"):
        sim.run()


@DRIVERS
def test_crash_fails_the_join_event_or_leaves_run(start):
    sim = Simulator()

    def bad():
        yield 1.0
        raise RuntimeError("crash")

    handle = getattr(sim, start)(bad())
    with pytest.raises(RuntimeError, match="crash"):
        sim.run()
    if start == "process":
        # The crash failed the join event; run() re-raised it unhandled.
        # A spawned generator has no join event: it leaves run() directly.
        assert not handle.ok and isinstance(handle.value, RuntimeError)


def test_joined_process_exception_delivered_to_parent():
    sim = Simulator()

    def bad():
        yield sim.timeout(1.0)
        raise RuntimeError("crash")

    def parent():
        try:
            yield sim.process(bad())
        except RuntimeError:
            return "handled"

    assert sim.run(sim.process(parent())) == "handled"


@DRIVERS
def test_yield_non_event_is_an_error(start):
    sim = Simulator()

    def bad():
        yield "not an event"

    getattr(sim, start)(bad())
    with pytest.raises(SimulationError):
        sim.run()


@DRIVERS
def test_scalar_yield_is_a_delay(start):
    sim = Simulator()
    woke = []

    def proc():
        yield 100.0
        yield 50  # ints work too
        woke.append(sim.now)

    getattr(sim, start)(proc())
    sim.run()
    assert woke == [150.0]


@DRIVERS
def test_scalar_yield_zero_delay(start):
    sim = Simulator()
    order = []

    def a():
        yield 0.0
        order.append("a")

    def b():
        yield 0.0
        order.append("b")

    getattr(sim, start)(a())
    getattr(sim, start)(b())
    sim.run()
    assert order == ["a", "b"]


@DRIVERS
def test_negative_scalar_yield_is_an_error(start):
    sim = Simulator()

    def bad():
        yield -1.0

    getattr(sim, start)(bad())
    with pytest.raises(SimulationError):
        sim.run()


@DRIVERS
def test_bool_yield_is_not_a_delay(start):
    # bool is an int subclass; yielding one is almost certainly a bug, so it
    # takes the non-event error path rather than sleeping 0/1 ns.
    sim = Simulator()

    def bad():
        yield True

    getattr(sim, start)(bad())
    with pytest.raises(SimulationError):
        sim.run()


def test_scalar_and_timeout_interleave_identically():
    sim = Simulator()
    order = []

    def scalar():
        yield 10.0
        order.append(("scalar", sim.now))

    def timeout():
        yield sim.timeout(10.0)
        order.append(("timeout", sim.now))

    sim.process(scalar())
    sim.process(timeout())
    sim.run()
    # Same timestamp: FIFO by spawn order regardless of yield style.
    assert order == [("scalar", 10.0), ("timeout", 10.0)]


def test_interrupt_during_scalar_sleep():
    sim = Simulator()

    def sleeper():
        try:
            yield us(100)
            return "slept"
        except ProcessInterrupt as intr:
            return ("interrupted", intr.cause, sim.now)

    def poker(victim):
        yield us(1)
        victim.interrupt("wake up")

    victim = sim.process(sleeper())
    sim.process(poker(victim))
    assert sim.run(victim) == ("interrupted", "wake up", us(1))
    # The cancelled sleep record stays queued (like a detached Timeout) but
    # drains without resuming the terminated process.
    sim.run()
    assert sim.now == us(100)


def test_call_later_runs_callback():
    sim = Simulator()
    seen = []
    sim.call_later(25.0, seen.append, "hello")
    sim.run()
    assert sim.now == 25.0
    assert seen == ["hello"]


def test_call_later_rejects_negative_delay():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.call_later(-1.0, lambda _: None)


def test_timeout_at_wakes_at_the_absolute_time():
    sim = Simulator()
    now, when = 0.54, 10.1
    # A relative sleep of (when - now) does not land on ``when`` here.
    assert now + (when - now) != when

    def proc():
        yield sim.timeout(now)
        yield sim.timeout_at(when)
        return sim.now

    assert sim.run(sim.process(proc())) == when


def test_timeout_at_rejects_past_times():
    sim = Simulator()
    sim.run(until=10.0)
    with pytest.raises(SimulationError, match="into the past"):
        sim.timeout_at(9.5)
    sim.timeout_at(10.0)  # now itself is allowed


def test_timeout_at_keeps_fifo_order_at_equal_times():
    sim = Simulator()
    order = []
    sim.call_later(50.0, order.append, "later-a")
    sim.timeout_at(50.0).callbacks.append(lambda _ev: order.append("at-b"))
    sim.call_later(50.0, order.append, "later-c")
    sim.timeout_at(50.0).callbacks.append(lambda _ev: order.append("at-d"))
    sim.run()
    assert order == ["later-a", "at-b", "later-c", "at-d"]


def test_wait_any_returns_first_event():
    sim = Simulator()
    slow = sim.timeout(100.0, value="slow")
    fast = sim.timeout(10.0, value="fast")
    first = sim.run(sim.wait_any([slow, fast]))
    assert first is fast
    assert first.value == "fast"


def test_wait_any_with_already_processed_event():
    sim = Simulator()
    done = sim.event()
    done.succeed("early")
    sim.run()  # process `done`
    first = sim.run(sim.wait_any([done, sim.timeout(50.0)]))
    assert first is done
    assert sim.now == 0.0


def test_wait_any_empty_succeeds_immediately():
    sim = Simulator()
    assert sim.run(sim.wait_any([])) is None


def test_interrupt_wakes_process_early():
    sim = Simulator()

    def sleeper():
        try:
            yield sim.timeout(us(100))
            return "slept"
        except ProcessInterrupt as intr:
            return ("interrupted", intr.cause, sim.now)

    def interrupter(victim):
        yield sim.timeout(10.0)
        victim.interrupt("wakeup")

    victim = sim.process(sleeper())
    sim.process(interrupter(victim))
    assert sim.run(victim) == ("interrupted", "wakeup", 10.0)


def test_interrupt_self_rejected():
    sim = Simulator()

    def proc():
        me = sim.active_process
        me.interrupt("nope")
        yield sim.timeout(1.0)

    sim.process(proc())
    with pytest.raises(SimulationError):
        sim.run()


def test_any_of_returns_first():
    sim = Simulator()

    def proc():
        t1 = sim.timeout(10.0, value="fast")
        t2 = sim.timeout(20.0, value="slow")
        first = yield sim.wait_any([t1, t2])
        return first.value, sim.now

    assert sim.run(sim.process(proc())) == ("fast", 10.0)


def test_all_of_waits_for_all():
    sim = Simulator()

    def proc():
        t1 = sim.timeout(10.0, value="a")
        t2 = sim.timeout(20.0, value="b")
        yield sim.all_of([t1, t2])
        return t1.processed and t2.processed, sim.now

    assert sim.run(sim.process(proc())) == (True, 20.0)


def test_all_of_empty_fires_immediately():
    sim = Simulator()

    def proc():
        yield sim.timeout(5.0)
        result = yield sim.all_of([])
        return result, sim.now

    assert sim.run(sim.process(proc())) == (None, 5.0)


#: ``(outcome, waiter, now, next seq)`` log and final seq of
#: :func:`_all_of_log` with the ``AllOf`` condition event that
#: ``Simulator.all_of`` used to build: it succeeded at the last member's
#: dispatch, ``(now, NORMAL, seq)``, and failed on the first failing
#: member.
ALL_OF_LOG = ([("main", "-", 0.0, 21), ("ok", "empty", 0.0, 22),
               ("ok", "processed", 0.0, 23), ("ok", "pending", 2.0, 27),
               ("fail", "failing", 2.0, 29), ("ok", "mixed", 3.0, 31)], 34)


def _all_of_log():
    """``(outcome, waiter, now, next seq)`` as each ``all_of`` waiter resumes."""
    sim = Simulator()
    log = []

    def waiter(tag, members):
        try:
            yield sim.all_of(members)
        except KeyError:
            log.append(("fail", tag, sim.now, sim._seq))
        else:
            log.append(("ok", tag, sim.now, sim._seq))

    def fail_at(delay, event):
        yield delay
        event.fail(KeyError(delay))

    def main():
        done, also_done = sim.timeout(0.0), sim.timeout(0.0)
        yield done
        bad, worse = sim.event(), sim.event()
        sim.process(fail_at(2.0, bad))
        sim.process(fail_at(4.0, worse))
        sim.process(waiter("empty", []))
        sim.process(waiter("processed", [done, also_done]))
        sim.process(waiter("mixed", [done, sim.timeout(3.0)]))
        sim.process(waiter("pending", [sim.timeout(2.0), sim.timeout(2.0),
                                       sim.timeout(1.0)]))
        # Fails on ``bad``; ``worse`` fails later and is defused too.
        sim.process(waiter("failing", [sim.timeout(1.0), bad, worse,
                                       sim.timeout(5.0)]))
        yield 0.0
        log.append(("main", "-", sim.now, sim._seq))

    sim.process(main())
    sim.run()
    return log, sim._seq


def test_all_of_pushes_the_same_heap_records_as_the_condition_event():
    assert _all_of_log() == ALL_OF_LOG


def test_condition_fails_if_member_fails():
    sim = Simulator()
    ev = sim.event()

    def firer():
        yield sim.timeout(1.0)
        ev.fail(KeyError("bad"))

    def proc():
        try:
            yield sim.all_of([ev, sim.timeout(50.0)])
        except KeyError:
            return "failed"

    sim.process(firer())
    assert sim.run(sim.process(proc())) == "failed"


def test_rng_streams_independent_and_deterministic():
    sim1 = Simulator(seed=7)
    sim2 = Simulator(seed=7)
    a1 = sim1.rng.stream("a").random(5).tolist()
    # Interleave another stream in sim2 before drawing from "a".
    sim2.rng.stream("b").random(100)
    a2 = sim2.rng.stream("a").random(5).tolist()
    assert a1 == a2


def test_rng_different_seed_differs():
    assert (
        Simulator(seed=1).rng.stream("x").random(3).tolist()
        != Simulator(seed=2).rng.stream("x").random(3).tolist()
    )


def test_peek_reports_next_event_time():
    sim = Simulator()
    sim.timeout(30.0)
    sim.timeout(10.0)
    assert sim.peek() == 10.0
    sim.run()
    assert sim.peek() == float("inf")
