"""Engine microbenchmarks: raw event-loop throughput, tracked per PR.

Measures the host cost, in nanoseconds per operation, of the primitives
every figure benchmark is built from:

- ``resume_ns_per_op``  — a scalar-yield sleep (``yield 1.0``), resumed
  off the heap through a pooled record;
- ``timeout_ns_per_op`` — the same sleep through an explicit
  ``sim.timeout`` event;
- ``event_ns_per_op``   — a succeed-driven Event wakeup (store/CQ style);
- ``store_hop_ns_per_op`` — a put→get rendezvous through a ``Store``;
- ``lock_grant_ns_per_op`` — a contended capacity-1 ``FifoLock``: two
  workers take turns, so every grant after the first is a release
  handing the lock to a parked waiter.

Writes ``results/BENCH_engine.json`` so the trajectory is visible across
PRs.  Run directly (``python benchmarks/bench_engine_micro.py``) or via
pytest.
"""

from __future__ import annotations

import json
import time

from repro.bench_support import results_dir, scaled
from repro.sim import Simulator
from repro.sim.resources import FifoLock
from repro.sim.store import Store

#: Operations per measurement (scaled by REPRO_BENCH_SCALE).
N = 200_000


def _ns_per_op(n: int, sim: Simulator) -> float:
    """Run ``sim`` to completion; host nanoseconds per operation."""
    t0 = time.perf_counter()
    sim.run()
    return (time.perf_counter() - t0) / n * 1e9


def bench_scalar_resumes(n: int) -> float:
    sim = Simulator()

    def sleeper():
        for _ in range(n):
            yield 1.0

    sim.process(sleeper())
    return _ns_per_op(n, sim)


def bench_timeout_events(n: int) -> float:
    sim = Simulator()

    def sleeper():
        timeout = sim.timeout
        for _ in range(n):
            yield timeout(1.0)

    sim.process(sleeper())
    return _ns_per_op(n, sim)


def bench_event_wakeups(n: int) -> float:
    sim = Simulator()

    def waker(ev_box):
        for _ in range(n):
            ev_box[0] = sim.event()
            ev_box[0].succeed(None)
            yield ev_box[0]

    sim.process(waker([None]))
    return _ns_per_op(n, sim)


def bench_store_hops(n: int) -> float:
    sim = Simulator()
    store = Store(sim, name="micro")

    def producer():
        for i in range(n):
            store.put(i)
            yield 1.0

    def consumer():
        for _ in range(n):
            yield store.get()

    sim.process(producer())
    sim.process(consumer())
    return _ns_per_op(n, sim)


def bench_lock_grants(n: int) -> float:
    sim = Simulator()
    lock = FifoLock(sim, "micro")

    def worker(grants):
        for _ in range(grants):
            wait = lock.acquire()
            if wait is not None:
                yield wait
            yield 1.0
            lock.release()

    sim.process(worker(n - n // 2))
    sim.process(worker(n // 2))
    return _ns_per_op(n, sim)


def run_all(n: int | None = None) -> dict:
    n = scaled(N) if n is None else n
    return {
        "n_ops": n,
        "resume_ns_per_op": bench_scalar_resumes(n),
        "timeout_ns_per_op": bench_timeout_events(n),
        "event_ns_per_op": bench_event_wakeups(n),
        "store_hop_ns_per_op": bench_store_hops(n),
        "lock_grant_ns_per_op": bench_lock_grants(n),
    }


def emit_json(results: dict) -> None:
    outdir = results_dir()
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / "BENCH_engine.json"
    path.write_text(json.dumps(results, indent=2) + "\n")
    print(f"wrote {path}")


def test_engine_micro():
    results = run_all()
    for key, value in results.items():
        print(f"{key:>24}: {value:,.1f}" if "ns_per_op" in key
              else f"{key:>24}: {value}")
    emit_json(results)
    # A scalar resume must stay cheaper than an explicit Timeout.
    assert results["resume_ns_per_op"] < results["timeout_ns_per_op"]


if __name__ == "__main__":
    test_engine_micro()
