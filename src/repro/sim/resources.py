"""FIFO servers: the lock and the work queue of the simulated world.

- :class:`FifoLock` — a lock with ``capacity`` slots (default 1) held
  across a process's own ``yield``.  CPU cores hold one slot; the kernel
  softirq holds one per RX queue, the NVMe device one per channel, and
  the NVMe and PCIe buses one each::

      wait = lock.acquire()
      if wait is not None:
          yield wait
      try:
          yield busy_time
      finally:
          lock.release()

  Callback code takes a slot with ``lock.acquire_then(fn, arg)``: ``fn``
  runs inline when a slot is free, or at the handoff.  The fabric's TX
  and RX ports are held this way.

- :class:`SerialQueue` — a FIFO work queue in front of a capacity-1
  callback server (no process at all): ``put(item)`` starts an idle
  server through one zero-delay ``call_later``; the server calls
  :meth:`SerialQueue.done` when its occupancy ends, which starts the
  next queued item inline.  It serves the NIC's TX/RX engines.

Neither computes a completion at admission.  A queued job's completion is
scheduled when its predecessor completes, so its sequence number is
allocated at the same point as an event-per-request server would
allocate it, and same-time ties keep their order.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Callable, Optional, Union

from repro.errors import SimulationError
from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Simulator


class FifoLock:
    """FIFO lock with ``capacity`` slots, held across the holder's own
    ``yield``.

    :meth:`acquire` grants a free slot inline — no request object,
    nothing pushed — and returns ``None``; when every slot is held it
    parks one event and returns it for the caller to yield.
    :meth:`acquire_then` parks an ``(fn, arg)`` callback instead.
    :meth:`release` hands the slot to the oldest waiter at the release
    instant, key ``(now, NORMAL, seq)``: it succeeds a parked event, or
    schedules a parked callback with ``call_later(0.0, fn, arg)``, which
    takes the same key.  ``busy`` means no slot is free.
    """

    __slots__ = ("sim", "name", "capacity", "held", "busy", "waiters",
                 "_label", "_wait_name")

    def __init__(self, sim: "Simulator", name: str = "lock", capacity: int = 1):
        if capacity < 1:
            raise SimulationError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.name = name
        self.capacity = capacity
        self.held = 0
        self.busy = False
        #: Parked acquirers, oldest first: events (:meth:`acquire`) or
        #: ``(fn, arg)`` callbacks (:meth:`acquire_then`).
        self.waiters: deque[Union[Event, tuple]] = deque()
        self._label = f"lock {name!r}"
        self._wait_name = f"acquire:{name}"

    def acquire(self) -> Optional[Event]:
        """Take a slot: ``None`` if granted now, else an event to yield."""
        wait: Optional[Event] = None
        if self.busy:
            wait = Event(self.sim, self._wait_name)
            self.waiters.append(wait)
        else:
            self.held += 1
            self.busy = self.held == self.capacity
        san = self.sim._sanitize
        if san is not None:
            # Contended when parking: the winner among same-bucket
            # acquirers is decided by heap-insertion seq.
            san.note_touch(self, self._label, "acquire",
                           contended=wait is not None)
        return wait

    def acquire_then(self, fn: Callable[[object], None], arg: object) -> None:
        """Take a slot, then run ``fn(arg)``: inline if one is free, else
        at the handoff."""
        parked = self.busy
        if parked:
            self.waiters.append((fn, arg))
        else:
            self.held += 1
            self.busy = self.held == self.capacity
        san = self.sim._sanitize
        if san is not None:
            san.note_touch(self, self._label, "acquire", contended=parked)
        if not parked:
            fn(arg)

    def release(self) -> None:
        """Free a slot, or hand it straight to the oldest waiter."""
        if not self.held:
            raise SimulationError(f"release of unheld lock {self.name}")
        san = self.sim._sanitize
        if san is not None:
            # A handoff goes to the FIFO head whatever the seq order.
            san.note_touch(self, self._label, "release", contended=False)
        if self.waiters:
            waiter = self.waiters.popleft()
            if isinstance(waiter, tuple):
                self.sim.call_later(0.0, waiter[0], waiter[1])
            else:
                waiter.succeed()
        else:
            self.held -= 1
            self.busy = False


class SerialQueue:
    """FIFO work queue in front of a capacity-1 callback server.

    ``serve(item)`` is called once per item, in arrival order, and must
    call :meth:`done` (directly or from a later ``call_later``) when its
    occupancy ends.  An arrival at an idle server is started through one
    zero-delay ``call_later`` — the key a ``Store.put`` waking a parked
    getter pushed; :meth:`done` starts the next queued item inline, as the
    getter's inline ``get`` did.  ``items`` holds only arrivals waiting
    behind a busy server.
    """

    __slots__ = ("sim", "name", "items", "busy", "_serve", "_label")

    def __init__(self, sim: "Simulator", serve: Callable[[object], None],
                 name: str = "queue"):
        self.sim = sim
        self.name = name
        self.items: deque[object] = deque()
        self.busy = False
        self._serve = serve
        self._label = f"queue {name!r}"

    def put(self, item: object) -> None:
        """Hand ``item`` to the server, or queue it behind the busy one."""
        if self.busy:
            self.items.append(item)
        else:
            self.busy = True
            self.sim.call_later(0.0, self._serve, item)
        san = self.sim._sanitize
        if san is not None:
            # Unbounded: an arrival never parks.
            san.note_touch(self, self._label, "put", contended=False)

    def done(self) -> None:
        """The current item's occupancy ended: serve the next one or idle."""
        items = self.items
        san = self.sim._sanitize
        if san is not None:
            # Going idle parks the server; a same-bucket rival wake-up
            # would be ordered by seq.
            san.note_touch(self, self._label, "get", contended=not items)
        if items:
            self._serve(items.popleft())
        else:
            self.busy = False
