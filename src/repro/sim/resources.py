"""Capacity-limited resources and capacity-1 serial servers.

:class:`Resource` serves the kernel RX queues, the storage device's
channels and bus, and the PCIe bus.  A request is an event that succeeds
when a slot is granted::

    req = res.request()
    yield req
    try:
        yield sim.timeout(busy_time)
    finally:
        res.release(req)

Requests also work as context managers for the common acquire/release
bracket (``with resource.request() as req: yield req``).

The per-message serial servers — CPU cores, fabric TX/RX ports and the
NIC's TX/RX engines — use the two allocation-free primitives below
instead.  Each pushes exactly the heap records, with the same
``(time, priority, sequence)`` keys, that the generic machinery pushed for
the same schedule:

- :class:`FifoLock` — a capacity-1 lock held across a process's own
  ``yield``: ``wait = lock.acquire()``; ``if wait is not None: yield
  wait``; ... ``lock.release()``.
- :class:`SerialQueue` — a FIFO work queue in front of a callback server
  (no process at all): ``put(item)`` starts an idle server through one
  zero-delay ``call_later``; the server calls :meth:`SerialQueue.done`
  when its occupancy ends, which starts the next queued item inline.

Neither computes a completion at admission.  A queued job's completion is
scheduled when its predecessor completes, so its sequence number is
allocated at the same point as before and same-time ties keep their order.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Callable, Optional

from repro.errors import SimulationError
from repro.sim.events import _PENDING, NORMAL, Event

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Simulator


class Request(Event):
    """A pending or granted claim on a :class:`Resource` slot."""

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource"):
        # Inlined Event.__init__ with the resource's precomputed request name
        # (one request is allocated per grab).  The
        # callbacks list is left unset; Resource.request fills it in (None
        # for an inline grant, a fresh list when the request queues).
        self.sim = resource.sim
        self.name = resource._req_name
        self._value = _PENDING
        self._ok = True
        self._defused = False
        self.resource = resource

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.resource.release(self)


class Resource:
    """FIFO resource with integer capacity."""

    __slots__ = (
        "sim",
        "capacity",
        "name",
        "users",
        "queue",
        "_busy_integral",
        "_last_change",
        "_req_name",
    )

    def __init__(self, sim: "Simulator", capacity: int = 1, name: str = "resource"):
        if capacity < 1:
            raise SimulationError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._req_name = f"req:{name}"
        self.users: list[Request] = []
        self.queue: list[Request] = []
        # Utilization accounting: busy integral for average-occupancy stats.
        self._busy_integral = 0.0
        self._last_change = sim.now

    # -- accounting ------------------------------------------------------------

    def _account(self) -> None:
        now = self.sim.now
        # sim: allow-float-eq(same-instant skip; both floats are copies of sim.now)
        if now != self._last_change:
            self._busy_integral += len(self.users) * (now - self._last_change)
            self._last_change = now

    def utilization(self, since: float = 0.0) -> float:
        """Average fraction of capacity busy since ``since`` (default t=0)."""
        self._account()
        elapsed = self.sim.now - since
        if elapsed <= 0:
            return 0.0
        return self._busy_integral / (elapsed * self.capacity)

    @property
    def count(self) -> int:
        """Number of slots currently in use."""
        return len(self.users)

    # -- protocol ---------------------------------------------------------------

    def request(self) -> Request:
        """Claim a slot; the returned event succeeds when granted.

        An uncontended grant completes the request *inline* (the event is
        born processed), so ``yield req`` continues the requester without a
        heap round trip — the requester was going to run next at this
        timestamp anyway.  Contended requests queue and are granted through
        the event loop by :meth:`release`, preserving FIFO wake order.
        """
        req = Request(self)
        sim = self.sim
        now = sim._now
        # sim: allow-float-eq(same-instant skip; both floats are copies of sim.now)
        if now != self._last_change:
            self._busy_integral += len(self.users) * (now - self._last_change)
            self._last_change = now
        if len(self.users) < self.capacity:
            self.users.append(req)
            req._value = req
            req.callbacks = None
            parked = False
        else:
            req.callbacks = []
            self.queue.append(req)
            parked = True
        san = sim._sanitize
        if san is not None:
            # Contended when the grant raced a full resource: an inline win
            # or a park decides the winner by heap-insertion seq.
            san.note_touch(self, f"resource {self.name!r}", "request",
                           contended=parked)
        return req

    def release(self, req: Request) -> None:
        """Return a slot.  Releasing a queued (ungranted) request cancels it."""
        sim = self.sim
        now = sim._now
        # sim: allow-float-eq(same-instant skip; both floats are copies of sim.now)
        if now != self._last_change:
            self._busy_integral += len(self.users) * (now - self._last_change)
            self._last_change = now
        san = sim._sanitize
        if san is not None:
            # A release hands the slot to the FIFO head regardless of seq
            # order within the bucket, so it never contends by itself.
            san.note_touch(self, f"resource {self.name!r}", "release",
                           contended=False)
        try:
            self.users.remove(req)
        except ValueError:
            try:
                self.queue.remove(req)
            except ValueError:
                raise SimulationError(
                    f"release of {req!r} that neither holds nor waits for {self.name}"
                ) from None
            return
        if self.queue:
            nxt = self.queue.pop(0)
            self.users.append(nxt)
            nxt.succeed(nxt)


class FifoLock:
    """Capacity-1 FIFO lock: a serial server held across the holder's
    own ``yield``.

    :meth:`acquire` grants inline when free — no request object, nothing
    pushed — and returns ``None``; when held it parks one event and
    returns it for the caller to yield.  :meth:`release` hands the lock to
    the oldest waiter by succeeding its event at the release instant: the
    ``(now, NORMAL, seq)`` key :meth:`Resource.release` pushed for a
    granted request.
    """

    __slots__ = ("sim", "name", "busy", "waiters", "_label", "_wait_name")

    def __init__(self, sim: "Simulator", name: str = "lock"):
        self.sim = sim
        self.name = name
        self.busy = False
        self.waiters: deque[Event] = deque()
        self._label = f"lock {name!r}"
        self._wait_name = f"acquire:{name}"

    def acquire(self) -> Optional[Event]:
        """Take the lock: ``None`` if granted now, else an event to yield."""
        wait: Optional[Event] = None
        if self.busy:
            wait = Event(self.sim, self._wait_name)
            self.waiters.append(wait)
        else:
            self.busy = True
        san = self.sim._sanitize
        if san is not None:
            # Contended when parking: the winner among same-bucket
            # acquirers is decided by heap-insertion seq.
            san.note_touch(self, self._label, "acquire",
                           contended=wait is not None)
        return wait

    def release(self) -> None:
        """Free the lock, or hand it straight to the oldest waiter."""
        if not self.busy:
            raise SimulationError(f"release of unheld lock {self.name}")
        san = self.sim._sanitize
        if san is not None:
            # A handoff goes to the FIFO head whatever the seq order.
            san.note_touch(self, self._label, "release", contended=False)
        if self.waiters:
            self.waiters.popleft().succeed()
        else:
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
