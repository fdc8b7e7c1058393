"""Deterministic discrete-event simulation engine.

This subpackage is the substrate every other layer runs on.  It provides a
SimPy-flavoured API (written from scratch; SimPy is not a dependency):

- :class:`~repro.sim.engine.Simulator` — event loop with nanosecond time.
- :class:`~repro.sim.events.Event` and :class:`~repro.sim.events.Timeout`;
  :meth:`~repro.sim.engine.Simulator.all_of` and
  :meth:`~repro.sim.engine.Simulator.wait_any` join and multiplex them.
- :class:`~repro.sim.process.Process` — generator-based cooperative
  processes that ``yield`` events or bare delays.
- :mod:`~repro.sim.resources` — the FIFO servers:
  :class:`~repro.sim.resources.FifoLock` (CPU cores, fabric ports,
  kernel softirq, NVMe channels and bus, PCIe) and
  :class:`~repro.sim.resources.SerialQueue` (NIC engines).
- :mod:`~repro.sim.store` — the unbounded FIFO store processes block on
  (connection requests, IRQ events, socket queues, the NVMe fetch
  queue).
- :mod:`~repro.sim.rng` — named, seeded random streams so runs are
  reproducible and components do not perturb each other's draws.
- :mod:`~repro.sim.trace` — structured event tracing and counters.
"""

from repro.sim.engine import Simulator
from repro.sim.events import Event, Timeout
from repro.sim.fastforward import FastForward, FastForwardStats, Skip
from repro.sim.process import Process
from repro.sim.resources import FifoLock, SerialQueue
from repro.sim.store import Store
from repro.sim.rng import RngRegistry
from repro.sim.trace import Trace, Counter

__all__ = [
    "Simulator",
    "Event",
    "Timeout",
    "FastForward",
    "FastForwardStats",
    "Skip",
    "Process",
    "FifoLock",
    "SerialQueue",
    "Store",
    "RngRegistry",
    "Trace",
    "Counter",
]
