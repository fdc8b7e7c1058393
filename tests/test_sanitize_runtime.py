"""The SIM101-SIM103 runtime sanitizers: races, RNG discipline, time travel."""

import heapq

import pytest

from repro.errors import SimulationError
from repro.sanitize import drain_global_findings, findings_of
from repro.sanitize.runtime import GLOBAL_FINDINGS, env_sanitize
from repro.sim import FifoLock, SerialQueue, Simulator, Store


@pytest.fixture(autouse=True)
def _clean_global_findings():
    drain_global_findings()
    yield
    drain_global_findings()


def _rules(findings):
    return [f.rule for f in findings]


# -- activation -------------------------------------------------------------------


def test_sanitizer_off_by_default(monkeypatch):
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    assert Simulator()._sanitize is None


def test_env_var_activates(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    assert env_sanitize()
    sim = Simulator()
    assert sim._sanitize is not None
    # Explicit argument wins over the environment.
    assert Simulator(sanitize=False)._sanitize is None
    monkeypatch.setenv("REPRO_SANITIZE", "0")
    assert not env_sanitize()
    assert Simulator()._sanitize is None


def test_findings_of_unsanitized_sim_is_empty():
    assert findings_of(Simulator()) == []


# -- SIM101: same-timestamp races -------------------------------------------------


def _two_requesters(stagger=0.0, chooser=None):
    sim = Simulator(sanitize=True)
    sim.attach_chooser(chooser)
    core = FifoLock(sim, "core0", capacity=1)

    def worker(delay):
        yield sim.timeout(delay)
        wait = core.acquire()
        if wait is not None:
            yield wait
        yield sim.timeout(5.0)
        core.release()

    sim.process(worker(10.0), name="proc_a")
    sim.process(worker(10.0 + stagger), name="proc_b")
    sim.run()
    return findings_of(sim)


def test_resource_race_at_same_timestamp_names_both_events():
    findings = _two_requesters(stagger=0.0)
    assert _rules(findings) == ["SIM101"]
    msg = findings[0].message
    assert "lock 'core0'" in msg
    assert "t=10.0" in msg
    assert "resume:proc_a" in msg and "resume:proc_b" in msg
    assert "`acquire`" in msg
    assert findings[0].source == "runtime"


def test_staggered_requests_are_clean():
    assert _two_requesters(stagger=1.0) == []


def test_sanitizer_still_reports_with_a_chooser_attached():
    # The model checker attaches a chooser; its runs must keep the
    # sanitizer's findings rather than dispatch around it.
    from repro.verify.choice import ScriptedChooser

    chooser = ScriptedChooser(())
    assert _rules(_two_requesters(stagger=0.0, chooser=chooser)) == ["SIM101"]
    assert chooser.trail  # the tied wake-ups did pass through the chooser


def _two_core_users(stagger=0.0):
    from repro.hw.cpu import Core
    from repro.hw.profiles import SYSTEM_L

    sim = Simulator(sanitize=True)
    core = Core(sim, SYSTEM_L, name="core0")

    def worker(delay):
        yield sim.timeout(delay)
        yield from core.run(5.0)

    sim.process(worker(10.0), name="proc_a")
    sim.process(worker(10.0 + stagger), name="proc_b")
    sim.run()
    assert core.busy_ns == 10.0
    return findings_of(sim)


def test_core_lock_race_at_same_timestamp_flagged():
    # One acquire wins inline, the other parks: seq decides the winner.
    findings = _two_core_users(stagger=0.0)
    assert _rules(findings) == ["SIM101"]
    msg = findings[0].message
    assert "lock 'core0'" in msg and "t=10.0" in msg
    assert "resume:proc_a" in msg and "resume:proc_b" in msg
    assert "`acquire`" in msg


def test_staggered_core_acquires_are_clean():
    # proc_b parks behind proc_a; the release handoff is not a race.
    assert _two_core_users(stagger=1.0) == []


def _engine_queue(occupancy, second_arrival_hops):
    """An engine fed "a" at t=5 and "b" after a chain of
    ``second_arrival_hops`` zero-delay callbacks (still at t=5)."""
    sim = Simulator(sanitize=True)
    queue = SerialQueue(
        sim, lambda item: sim.call_later(occupancy, lambda _: queue.done()),
        name="nic0.txq")

    def chain(hops):
        if hops:
            sim.call_later(0.0, chain, hops - 1)
        else:
            queue.put("b")

    sim.call_later(5.0, queue.put, "a")
    sim.call_later(5.0, chain, second_arrival_hops)
    sim.run()
    return findings_of(sim)


def test_serial_queue_idling_twice_in_one_bucket_flagged():
    # Zero occupancy: "a" is done and the engine idles before "b" arrives,
    # so two dispatches park the engine in one bucket, ordered by seq.
    findings = _engine_queue(0.0, second_arrival_hops=2)
    assert _rules(findings) == ["SIM101"]
    assert "queue 'nic0.txq'" in findings[0].message
    assert "`get`" in findings[0].message


def test_serial_queue_busy_handoff_is_clean():
    # "b" arrives while "a" is in service: queued, then started inline
    # when "a" ends a bucket later.
    assert _engine_queue(1.0, second_arrival_hops=0) == []


def test_racing_findings_reach_the_global_registry():
    _two_requesters(stagger=0.0)
    assert _rules(drain_global_findings()) == ["SIM101"]
    # ...and draining really clears it.
    assert GLOBAL_FINDINGS == []


def test_store_getter_race_flagged():
    sim = Simulator(sanitize=True)
    queue = Store(sim, name="cq0")

    def consumer():
        yield sim.timeout(7.0)
        yield queue.get()

    sim.process(consumer(), name="poll_a")
    sim.process(consumer(), name="poll_b")
    sim.call_later(20.0, lambda _: queue.put("cqe1"))
    sim.call_later(21.0, lambda _: queue.put("cqe2"))
    sim.run()
    findings = findings_of(sim)
    assert _rules(findings) == ["SIM101"]
    assert "store 'cq0'" in findings[0].message
    assert "`get`" in findings[0].message


def test_producer_consumer_handoff_is_not_a_race():
    # A put serving a parked get is cross-kind: the outcome commutes.
    sim = Simulator(sanitize=True)
    queue = Store(sim, name="wq0")

    def consumer():
        item = yield queue.get()
        assert item == "wqe"

    sim.process(consumer(), name="poller")
    sim.call_later(10.0, lambda _: queue.put("wqe"))
    sim.run()
    assert findings_of(sim) == []


# -- SIM102: rng stream discipline ------------------------------------------------


def test_stream_shared_by_two_components_flagged():
    sim = Simulator(seed=1, sanitize=True)

    def comp_a(_):
        sim.rng.stream("shared").integers(0, 10)

    def comp_b(_):
        sim.rng.stream("shared").integers(0, 10)

    sim.call_later(1.0, comp_a)
    sim.call_later(2.0, comp_b)
    sim.run()
    findings = findings_of(sim)
    assert _rules(findings) == ["SIM102"]
    msg = findings[0].message
    assert "'shared'" in msg and "comp_a" in msg and "comp_b" in msg


def test_one_stream_per_component_is_clean():
    sim = Simulator(seed=1, sanitize=True)

    def comp(_):
        sim.rng.stream("mine").integers(0, 10)

    sim.call_later(1.0, comp)
    sim.call_later(2.0, comp)
    sim.run()
    assert findings_of(sim) == []


def test_draw_outside_dispatch_flagged():
    sim = Simulator(seed=1, sanitize=True)
    sim.rng.stream("setup").integers(0, 10)  # setup draws are legal
    sim.call_later(1.0, lambda _: None)
    sim.run()
    sim.rng.stream("setup").integers(0, 10)  # ...post-run draws are not
    findings = findings_of(sim)
    assert _rules(findings) == ["SIM102"]
    assert "outside engine execution" in findings[0].message


def test_sanitized_draws_match_unsanitized_draws():
    plain = Simulator(seed=42).rng.stream("flow")
    wrapped = Simulator(seed=42, sanitize=True).rng.stream("flow")
    assert list(plain.integers(0, 1 << 30, size=8)) \
        == list(wrapped.integers(0, 1 << 30, size=8))


# -- SIM103: time travel ----------------------------------------------------------


def test_past_dispatch_recorded_before_engine_raises():
    sim = Simulator(sanitize=True)

    def plant(_):
        rec = (lambda _a: None, None)
        heapq.heappush(sim._queue, (5.0, 1, sim._seq, rec))
        sim._seq += 1

    sim.call_later(10.0, plant)
    with pytest.raises(SimulationError):
        sim.run()
    findings = findings_of(sim)
    assert _rules(findings) == ["SIM103"]
    assert "t=5.0" in findings[0].message
    assert "t=10.0" in findings[0].message


# -- determinism of the sanitizers themselves -------------------------------------


def test_sanitized_run_is_bit_identical_to_unsanitized():
    def measure(sanitize):
        sim = Simulator(seed=7, sanitize=sanitize)
        core = FifoLock(sim, "core", capacity=2)
        queue = Store(sim, name="q")
        done = []

        def producer():
            rng = sim.rng.stream("producer")
            for i in range(50):
                yield sim.timeout(float(rng.integers(1, 9)))
                queue.put(i)

        def consumer():
            rng = sim.rng.stream("consumer")
            while len(done) < 50:
                item = yield queue.get()
                wait = core.acquire()
                if wait is not None:
                    yield wait
                yield sim.timeout(float(rng.integers(1, 5)))
                core.release()
                done.append((sim.now, item))

        sim.process(producer(), name="prod")
        sim.process(consumer(), name="cons")
        sim.run()
        return done

    assert measure(False) == measure(True)
