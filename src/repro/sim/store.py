"""Unbounded FIFO store: a queue whose consumer processes block when empty.

Connection-manager request queues, IRQ event queues, socket accept and
receive queues, and the storage device's fetch queue are stores.
Producers :meth:`~Store.put` items without ever blocking; a consumer
``yield``-s :meth:`~Store.get` and parks until an item is there.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING

from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Simulator


class Store:
    """Unbounded FIFO store of arbitrary items."""

    __slots__ = ("sim", "name", "items", "_getters", "_get_name", "_label")

    def __init__(self, sim: "Simulator", name: str = "store"):
        self.sim = sim
        self.name = name
        self._get_name = f"get:{name}"
        self._label = f"store {name!r}"
        self.items: deque[object] = deque()
        self._getters: deque[Event] = deque()

    def put(self, item: object) -> None:
        """Store ``item``, or hand it to the oldest parked getter.

        A parked getter is woken through the event loop at
        ``(now, NORMAL, seq)``.
        """
        getters = self._getters
        if getters:
            # Getters park only on an empty store, so the item goes
            # straight to the oldest one.
            getters.popleft().succeed(item)
        else:
            self.items.append(item)
        san = self.sim._sanitize
        if san is not None:
            # Unbounded: a put never parks.
            san.note_touch(self, self._label, "put", contended=False)

    def get(self) -> Event:
        """Remove the oldest item; the event's value is the item.

        A get that can be satisfied immediately completes *inline* (the
        event is born processed), so ``yield store.get()`` in a drain loop
        continues without parking.  An empty store parks the getter.
        """
        event = Event(self.sim, self._get_name)
        items = self.items
        if items:
            event._value = items.popleft()
            event.callbacks = None
        else:
            self._getters.append(event)
        san = self.sim._sanitize
        if san is not None:
            # Parked = the store was empty: wake order among same-bucket
            # getters is seq-decided.
            san.note_touch(self, self._label, "get",
                           contended=event.callbacks is not None)
        return event
