"""Unit tests for resources and stores."""

import pytest

from repro.errors import SimulationError
from repro.sim import FifoLock, SerialQueue, Simulator, Store


def test_resource_grants_up_to_capacity():
    sim = Simulator()
    lock = FifoLock(sim, capacity=2)
    grants = []

    def user(tag, hold):
        wait = lock.acquire()
        if wait is not None:
            yield wait
        grants.append((tag, sim.now))
        yield sim.timeout(hold)
        lock.release()

    for tag in range(4):
        sim.process(user(tag, 10.0))
    sim.run()
    assert grants == [(0, 0.0), (1, 0.0), (2, 10.0), (3, 10.0)]
    assert lock.held == 0 and not lock.busy


def test_resource_capacity_validation():
    sim = Simulator()
    with pytest.raises(SimulationError):
        FifoLock(sim, capacity=0)


def test_release_unknown_request_raises():
    sim = Simulator()
    lock = FifoLock(sim, capacity=2)
    assert lock.acquire() is None
    assert not lock.busy  # one of two slots still free
    lock.release()
    with pytest.raises(SimulationError):
        lock.release()


def test_store_fifo_order():
    sim = Simulator()
    store = Store(sim)
    got = []

    def producer():
        for i in range(3):
            store.put(i)
            yield sim.timeout(1.0)

    def consumer():
        for _ in range(3):
            item = yield store.get()
            got.append(item)

    sim.process(producer())
    sim.process(consumer())
    sim.run()
    assert got == [0, 1, 2]


def test_store_get_blocks_until_put():
    sim = Simulator()
    store = Store(sim)

    def consumer():
        item = yield store.get()
        return (item, sim.now)

    def producer():
        yield sim.timeout(25.0)
        store.put("x")

    p = sim.process(consumer())
    sim.process(producer())
    assert sim.run(p) == ("x", 25.0)


# -- serial servers: same heap keys as the event-per-request machinery ------------

#: (start time, hold) per user: same-instant ties, zero holds, a queue
#: that drains and refills.
_USERS = [(0.0, 5.0), (0.0, 0.0), (0.0, 3.0), (2.0, 1.0), (8.0, 0.0),
          (8.0, 2.0), (20.0, 1.0)]

#: ``(event, tag, now, next seq)`` log and final seq of ``_USERS`` on the
#: event-per-request ``Resource`` this lock replaced, by capacity.  Its
#: grant was a request event (born processed when a slot was free) and a
#: release succeeded the oldest queued request at ``(now, NORMAL, seq)``.
RESOURCE_LOG = {
    1: ([("grant", 0, 0.0, 14), ("release", 0, 5.0, 16),
         ("grant", 1, 5.0, 17), ("release", 1, 5.0, 20),
         ("grant", 2, 5.0, 21), ("release", 2, 8.0, 24),
         ("grant", 3, 8.0, 25), ("release", 3, 9.0, 28),
         ("grant", 4, 9.0, 29), ("release", 4, 9.0, 32),
         ("grant", 5, 9.0, 33), ("release", 5, 11.0, 35),
         ("grant", 6, 20.0, 37), ("release", 6, 21.0, 38)], 40),
    2: ([("grant", 0, 0.0, 14), ("grant", 1, 0.0, 15),
         ("release", 1, 0.0, 17), ("grant", 2, 0.0, 18),
         ("release", 2, 3.0, 21), ("grant", 3, 3.0, 22),
         ("release", 3, 4.0, 24), ("release", 0, 5.0, 26),
         ("grant", 4, 8.0, 28), ("grant", 5, 8.0, 29),
         ("release", 4, 8.0, 30), ("release", 5, 10.0, 32),
         ("grant", 6, 20.0, 34), ("release", 6, 21.0, 35)], 37),
}


def _ticks(sim, log, at):
    """A callback chain that logs ``("tick", now, next seq)`` at each time
    in ``at``, pushed late enough to tie with releases at those instants
    (it sees whether a handoff dispatches before or after it)."""
    def step(n):
        if n:
            sim.call_later(0.0, step, n - 1)
            return
        for t in at:
            sim.call_later(t - sim.now, tick)

    def tick(_):
        log.append(("tick", sim.now, sim._seq))

    if at:
        sim.call_later(0.0, step, 3)


def _lock_log(capacity, ticks=()):
    """Grant/release log of ``_USERS`` with ``(tag, now, next seq)``."""
    sim = Simulator()
    lock = FifoLock(sim, "core", capacity=capacity)
    log = []
    _ticks(sim, log, ticks)

    def user(tag, start, hold):
        yield start
        wait = lock.acquire()
        if wait is not None:
            yield wait
        log.append(("grant", tag, sim.now, sim._seq))
        yield hold
        lock.release()
        log.append(("release", tag, sim.now, sim._seq))
        yield 0.0  # work after the release competes with the handoff

    for tag, (start, hold) in enumerate(_USERS):
        sim.process(user(tag, start, hold))
    sim.run()
    return log, sim._seq


def test_fifo_lock_pushes_the_same_heap_records_as_resource():
    for capacity, want in RESOURCE_LOG.items():
        assert _lock_log(capacity) == want, f"capacity {capacity}"


def _callback_lock_log(capacity, ticks=()):
    """``_lock_log`` with callback holders: each process step becomes a
    ``call_urgent``/``call_later`` record and the lock is taken with
    ``acquire_then``."""
    sim = Simulator()
    lock = FifoLock(sim, "core", capacity=capacity)
    log = []
    _ticks(sim, log, ticks)

    def kick(user):  # the process's first step
        sim.call_later(user[1], take, user)

    def take(user):
        lock.acquire_then(granted, user)

    def granted(user):
        log.append(("grant", user[0], sim.now, sim._seq))
        sim.call_later(user[2], done, user)

    def done(user):
        lock.release()
        log.append(("release", user[0], sim.now, sim._seq))
        sim.call_later(0.0, finish, user)

    def finish(user):  # the joinable process's termination record
        sim.call_urgent(lambda _: None)

    for tag, (start, hold) in enumerate(_USERS):
        sim.call_urgent(kick, (tag, start, hold))
    sim.run()
    return log, sim._seq


def test_fifo_lock_callback_waiters_push_the_same_heap_records():
    for capacity, want in RESOURCE_LOG.items():
        assert _callback_lock_log(capacity) == want, f"capacity {capacity}"
        # Rival records at every release instant: a callback handoff
        # dispatches exactly where a succeeded event would.
        ticks = sorted({t for _kind, _tag, t, _seq in want[0]})
        assert _callback_lock_log(capacity, ticks) == _lock_log(capacity, ticks)


def test_fifo_lock_release_when_free_raises():
    with pytest.raises(SimulationError):
        FifoLock(Simulator()).release()


def _engine_log(use_queue):
    """Service log of a serial engine fed by ``_USERS`` as arrivals
    (``(tag, now, next seq)`` at each service end)."""
    sim = Simulator()
    log = []

    def end(item):
        log.append((item[0], sim.now, sim._seq))
        queue.done()

    if use_queue:
        queue = SerialQueue(sim, lambda item: sim.call_later(item[1], end, item))
        put = queue.put
    else:
        store = Store(sim)
        put = store.put

        def engine():
            while True:
                item = yield store.get()
                yield item[1]
                log.append((item[0], sim.now, sim._seq))

        sim.process(engine())

    for tag, (start, hold) in enumerate(_USERS):
        sim.call_later(start, put, (tag, hold))
    sim.run()
    return log, sim._seq


def test_serial_queue_matches_a_store_fed_engine_minus_its_start_record():
    old_log, old_seq = _engine_log(use_queue=False)
    new_log, new_seq = _engine_log(use_queue=True)
    # Same service order and times; every later record keeps its relative
    # key, shifted by the one engine-start record the queue does not need.
    assert [(t, now) for t, now, _ in new_log] == [(t, now) for t, now, _ in old_log]
    assert [seq for *_, seq in new_log] == [seq - 1 for *_, seq in old_log]
    assert new_seq == old_seq - 1


def test_serial_queue_holds_only_waiting_items():
    sim = Simulator()
    served = []

    def end(item):
        served.append((item, sim.now))
        queue.done()

    queue = SerialQueue(sim, lambda item: sim.call_later(1.0, end, item))
    for item in "abc":
        queue.put(item)
    # "a" is handed to the idle server; only "b" and "c" wait.
    assert queue.busy and list(queue.items) == ["b", "c"]
    sim.run()
    assert served == [("a", 1.0), ("b", 2.0), ("c", 3.0)]
    assert not queue.busy and not queue.items
