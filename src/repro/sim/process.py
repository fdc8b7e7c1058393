"""Generator-based cooperative processes.

A process wraps a generator that ``yield``-s :class:`~repro.sim.events.Event`
instances — or bare numbers.  When the yielded event is processed, the
process resumes with the event's value (or has the event's exception thrown
into it).  A :class:`Process` is itself an event, so other processes can
wait for ("join") it, and its return value (``return x`` in the generator)
becomes the event value.  A :class:`MiniProcess` (:meth:`Simulator.spawn`)
runs the same resume loop without the join event.

Scalar-yield protocol
---------------------

``yield 250.0`` (any non-bool ``float``/``int``) means "sleep 250 ns" and
takes the ``(time, priority, sequence)`` heap key ``yield
sim.timeout(250.0)`` would take.  The sleep is backed by a pooled
:class:`_Resume` record instead of a Timeout event — no allocation, no
callback dispatch.  A process's first step is kicked the same way, at
``(now, URGENT)``.
"""

from __future__ import annotations

from heapq import heappush
from types import FunctionType
from typing import TYPE_CHECKING, Any, Callable, ClassVar, Generator, Optional

from repro.errors import ProcessInterrupt, SimulationError
from repro.sim.events import NORMAL, URGENT, Event

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Simulator

ProcessGenerator = Generator[Event, object, object]


class _Resume:
    """Pooled heap record: resume ``process`` with value ``None``.

    Scalar yields and process kicks schedule these instead of events.
    Tombstoning (``process = None``, done by interrupt delivery) cancels a
    pending record in place; the engine skips tombstones and recycles them.
    """

    __slots__ = ("process",)

    def __init__(self) -> None:
        self.process: Optional[_Driver] = None


class Interruption(Event):
    """Internal immediate event carrying a :class:`ProcessInterrupt`."""

    __slots__ = ("process",)

    def __init__(self, process: "Process", cause: object):
        super().__init__(process.sim, name=f"interrupt:{process.name}")
        if process.processed:
            raise SimulationError(f"{process!r} has terminated; cannot interrupt")
        if process is process.sim.active_process:
            raise SimulationError("a process cannot interrupt itself")
        self.process = process
        self._ok = False
        self._value = ProcessInterrupt(cause)
        self._defused = True
        self.callbacks.append(self._deliver)
        process.sim._schedule(self, URGENT, 0.0)

    def _deliver(self, event: Event) -> None:
        process = self.process
        if process.processed:
            return  # terminated between scheduling and delivery
        # Detach the process from whatever it currently waits on, then resume
        # it with the interrupt exception.
        target = process._target
        if target is not None and target.callbacks is not None:
            try:
                target.callbacks.remove(process._resume)
            except ValueError:
                pass
        process._target = None
        pending = process._pending
        if pending is not None:
            # Sleeping on a resume record: tombstone it in place (the
            # engine skips and recycles it when it pops).
            pending.process = None
            process._pending = None
        process._resume(self)


class _Driver:
    """The resume loop shared by :class:`Process` and :class:`MiniProcess`.

    Subclasses supply the slots annotated below.  ``_joinable`` picks the
    termination: a joinable process schedules itself as its own triggered
    join event (a crash fails that event); a fire-and-forget one just
    returns, and a crash propagates out of :meth:`Simulator.run`.
    """

    __slots__ = ()

    _joinable: ClassVar[bool]
    sim: "Simulator"
    name: str
    _ok: bool
    _value: object
    _send: Callable[[object], Any]
    _throw: Callable[[BaseException], Any]
    _target: Optional[Event]
    _pending: Optional[_Resume]

    def __init_subclass__(cls, **kwargs: Any) -> None:
        # Each driver class gets its own copy of the loop's code object.
        # CPython specialises attribute access on ``self`` per code object
        # for one type at a time; one body serving both classes would miss
        # those caches whenever a Process and a MiniProcess resume in turn.
        super().__init_subclass__(**kwargs)
        for name in ("_resume", "_step"):
            fn = _Driver.__dict__[name]
            setattr(cls, name, FunctionType(fn.__code__.replace(), fn.__globals__, name))

    def _resume(self, event: Event) -> None:
        """Advance the generator with the outcome of ``event``."""
        if event._ok:
            self._step(event._value, None)
        else:
            event._defused = True
            self._step(None, event._value)  # type: ignore[arg-type]

    def _step(self, value: object, exc: Optional[BaseException]) -> None:
        """Core resume loop: feed ``value``/``exc`` in, dispatch the yield."""
        sim = self.sim
        sim._active_process = self  # type: ignore[assignment]
        self._pending = None
        send = self._send
        while True:
            try:
                if exc is None:
                    target = send(value)
                else:
                    pending_exc = exc
                    exc = None
                    target = self._throw(pending_exc)
            except StopIteration as stop:
                sim._active_process = None
                if self._joinable:
                    self._ok = True
                    self._value = stop.value
                    sim._schedule(self, URGENT, 0.0)  # type: ignore[arg-type]
                return
            except BaseException as crashed:  # noqa: BLE001 - process crashed
                sim._active_process = None
                if not self._joinable:
                    raise  # no join event to defuse it into: out of run()
                self._ok = False
                self._value = crashed
                sim._schedule(self, URGENT, 0.0)  # type: ignore[arg-type]
                return

            cls = target.__class__
            if cls is float or cls is int:
                # Scalar delay.  Exact-type check: bool (an int subclass) and
                # numpy scalars deliberately fall through to the error path.
                if target < 0:
                    value = None
                    exc = SimulationError(
                        f"process {self.name!r} yielded a negative delay: {target!r}"
                    )
                    continue
                # One sleep per event-loop dispatch makes this the hottest
                # push in the simulator: pooled record, inlined schedule.
                pool = sim._resume_pool
                rec = pool.pop() if pool else _Resume()
                rec.process = self
                heappush(sim._queue, (sim._now + target, NORMAL, sim._seq, rec))
                sim._seq += 1
                self._pending = rec
                sim._active_process = None
                return
            if not isinstance(target, Event):
                value = None
                exc = SimulationError(
                    f"process {self.name!r} yielded a non-event: {target!r}"
                )
                continue
            if target.sim is not sim:
                value = None
                exc = SimulationError(
                    f"process {self.name!r} yielded an event from another simulator"
                )
                continue

            callbacks = target.callbacks
            if callbacks is not None:
                # Not yet processed: park until it is.
                callbacks.append(self._resume)
                self._target = target
                sim._active_process = None
                return
            # Already processed: feed its outcome straight back in.
            if target._ok:
                value = target._value
                exc = None
            else:
                target._defused = True
                value = None
                exc = target._value  # type: ignore[assignment]


class Process(Event, _Driver):
    """A running simulation process (also usable as a join event)."""

    __slots__ = ("generator", "_target", "_send", "_throw", "_pending")

    _joinable = True

    def __init__(self, sim: "Simulator", generator: ProcessGenerator, name: str = ""):
        if not hasattr(generator, "throw"):
            raise SimulationError(f"{generator!r} is not a generator")
        super().__init__(sim, name=name or getattr(generator, "__name__", "process"))
        self.generator = generator
        self._send = generator.send
        self._throw = generator.throw
        self._target = None
        # Kick the first step at (now, URGENT) with a pooled resume record.
        pool = sim._resume_pool
        rec = pool.pop() if pool else _Resume()
        rec.process = self
        heappush(sim._queue, (sim._now, URGENT, sim._seq, rec))
        sim._seq += 1
        self._pending = rec

    @property
    def target(self) -> Optional[Event]:
        """The event this process currently waits on (None while running)."""
        return self._target

    def interrupt(self, cause: object = None) -> None:
        """Throw :class:`ProcessInterrupt` into the process immediately."""
        Interruption(self, cause)

    def __repr__(self) -> str:
        state = "done" if self.triggered else "alive"
        return f"<Process {self.name!r} {state}>"


class MiniProcess(_Driver):
    """Fire-and-forget process: runs a generator but is not itself an event.

    Used by :meth:`Simulator.spawn` for per-message work that nothing
    ever joins or interrupts and that still blocks on events (IRQ
    delivery, IPoIB receive, NVMe commands).  Skipping the join-event
    machinery saves one termination event (allocation + schedule + pop)
    per spawn.  Dropping that heap
    entry cannot change the interleaving of the remaining events: it never
    has callbacks, and removing an allocation from the sequence-number
    stream preserves the relative order of all other entries.

    A crash in a spawned generator propagates straight out of
    :meth:`Simulator.run` (there is no join event to defuse it into).
    """

    __slots__ = ("sim", "name", "generator", "_send", "_throw", "_target", "_pending")

    _joinable = False

    def __init__(self, sim: "Simulator", generator: ProcessGenerator, name: str = ""):
        self.sim = sim
        self.name = name or getattr(generator, "__name__", "spawn")
        self.generator = generator
        self._send = generator.send
        self._throw = generator.throw
        self._target = None
        pool = sim._resume_pool
        rec = pool.pop() if pool else _Resume()
        rec.process = self
        heappush(sim._queue, (sim._now, URGENT, sim._seq, rec))
        sim._seq += 1
        self._pending = rec

    def __repr__(self) -> str:
        return f"<MiniProcess {self.name!r}>"
