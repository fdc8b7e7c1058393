"""Unit tests for resources and stores."""

import pytest

from repro.errors import SimulationError
from repro.sim import (
    FifoLock,
    FilterStore,
    Resource,
    SerialQueue,
    Simulator,
    Store,
)


def test_resource_grants_up_to_capacity():
    sim = Simulator()
    res = Resource(sim, capacity=2)
    grants = []

    def user(tag, hold):
        req = res.request()
        yield req
        grants.append((tag, sim.now))
        yield sim.timeout(hold)
        res.release(req)

    for tag in range(4):
        sim.process(user(tag, 10.0))
    sim.run()
    assert grants == [(0, 0.0), (1, 0.0), (2, 10.0), (3, 10.0)]


def test_resource_capacity_validation():
    sim = Simulator()
    with pytest.raises(SimulationError):
        Resource(sim, capacity=0)


def test_resource_context_manager_releases():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    times = []

    def user():
        with res.request() as req:
            yield req
            times.append(sim.now)
            yield sim.timeout(5.0)

    sim.process(user())
    sim.process(user())
    sim.run()
    assert times == [0.0, 5.0]
    assert res.count == 0


def test_release_of_queued_request_cancels_it():
    sim = Simulator()
    res = Resource(sim, capacity=1)

    def holder():
        req = res.request()
        yield req
        yield sim.timeout(100.0)
        res.release(req)

    def impatient():
        req = res.request()
        yield sim.timeout(10.0)
        res.release(req)  # give up before the grant
        return "gave-up"

    sim.process(holder())
    p = sim.process(impatient())
    assert sim.run(p) == "gave-up"


def test_release_unknown_request_raises():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    req = res.request()
    res.release(req)
    with pytest.raises(SimulationError):
        res.release(req)


def test_resource_utilization_accounting():
    sim = Simulator()
    res = Resource(sim, capacity=1)

    def user():
        req = res.request()
        yield req
        yield sim.timeout(50.0)
        res.release(req)
        yield sim.timeout(50.0)

    sim.process(user())
    sim.run()
    assert res.utilization() == pytest.approx(0.5)


def test_store_fifo_order():
    sim = Simulator()
    store = Store(sim)
    got = []

    def producer():
        for i in range(3):
            yield store.put(i)
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
        yield store.put("x")

    p = sim.process(consumer())
    sim.process(producer())
    assert sim.run(p) == ("x", 25.0)


def test_bounded_store_blocks_put():
    sim = Simulator()
    store = Store(sim, capacity=1)
    done = []

    def producer():
        yield store.put("a")
        done.append(("a", sim.now))
        yield store.put("b")
        done.append(("b", sim.now))

    def consumer():
        yield sim.timeout(10.0)
        yield store.get()

    sim.process(producer())
    sim.process(consumer())
    sim.run()
    assert done == [("a", 0.0), ("b", 10.0)]


def test_store_try_get():
    sim = Simulator()
    store = Store(sim)
    assert store.try_get() is None
    store.put("a")
    sim.run()
    assert store.try_get() == "a"
    assert store.try_get() is None


def test_filter_store_matches_predicate():
    sim = Simulator()
    store = FilterStore(sim)
    got = []

    def consumer():
        item = yield store.get(lambda x: x % 2 == 0)
        got.append(item)

    def producer():
        for i in (1, 3, 4, 5):
            yield store.put(i)

    sim.process(consumer())
    sim.process(producer())
    sim.run()
    assert got == [4]
    assert list(store.items) == [1, 3, 5]


def test_filter_store_try_get_with_filter():
    sim = Simulator()
    store = FilterStore(sim)
    for i in range(5):
        store.put(i)
    sim.run()
    assert store.try_get(lambda x: x > 2) == 3
    assert store.try_get(lambda x: x > 10) is None


def test_store_high_water_mark():
    sim = Simulator()
    store = Store(sim)
    for i in range(7):
        store.put(i)
    sim.run()
    assert store.max_occupancy == 7


# -- capacity-1 serial servers: same heap keys as the generic machinery -----------

#: (start time, hold) per user: same-instant ties, zero holds, a queue
#: that drains and refills.
_USERS = [(0.0, 5.0), (0.0, 0.0), (0.0, 3.0), (2.0, 1.0), (8.0, 0.0),
          (8.0, 2.0), (20.0, 1.0)]


def _lock_log(use_lock):
    """Grant/release log of ``_USERS`` with ``(tag, now, next seq)``."""
    sim = Simulator()
    res = FifoLock(sim, "core") if use_lock else Resource(sim, 1, "core")
    log = []

    def user(tag, start, hold):
        yield start
        if use_lock:
            wait = res.acquire()
            if wait is not None:
                yield wait
        else:
            req = res.request()
            yield req
        log.append(("grant", tag, sim.now, sim._seq))
        yield hold
        if use_lock:
            res.release()
        else:
            res.release(req)
        log.append(("release", tag, sim.now, sim._seq))
        yield 0.0  # work after the release competes with the handoff

    for tag, (start, hold) in enumerate(_USERS):
        sim.process(user(tag, start, hold))
    sim.run()
    return log, sim._seq


def test_fifo_lock_pushes_the_same_heap_records_as_resource():
    assert _lock_log(use_lock=True) == _lock_log(use_lock=False)


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
