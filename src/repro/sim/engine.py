"""The simulation event loop.

:class:`Simulator` owns the clock and the pending-event heap.  Events are
ordered by ``(time, priority, sequence)`` so same-time events process in
deterministic FIFO order within a priority class — determinism is a hard
requirement because hardware profiles carry seeded jitter and benchmark
results must be exactly reproducible.

Heap records
------------

The heap holds three kinds of record.  A plain ``(fn, arg)`` tuple,
pushed by :meth:`Simulator.call_later` (``(now + delay, NORMAL)``) or
:meth:`Simulator.call_urgent` (``(now, URGENT)``), invokes ``fn(arg)``:
link propagation delivery and every step of a NIC message are such
callbacks.  A pooled :class:`~repro.sim.process._Resume` resumes a
process straight off the heap: processes yield a bare ``float``/``int``
number of nanoseconds to sleep (``yield 250.0`` takes the key ``yield
sim.timeout(250.0)`` would take), and every process's first step is kicked
the same way.  An :class:`~repro.sim.events.Event` runs its callbacks.

Dispatch loops
--------------

:meth:`Simulator.run` is the hot loop: locals bound once, record dispatch
inlined, no hooks.  When a sanitizer or a chooser is attached it hands over
to :meth:`Simulator._run_instrumented`, which dispatches the same records in
the same order but reports each one to the sanitizer and lets the chooser
pick among same-instant ties.
"""

from __future__ import annotations

import heapq
import os
from typing import TYPE_CHECKING, Any, Callable, Iterable, Optional

from repro.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.verify.choice import Chooser
    from repro.verify.monitors import ProtocolMonitor
from repro.sanitize.runtime import env_sanitize
from repro.sim.events import _PENDING, NORMAL, URGENT, Event, Timeout
from repro.sim.process import MiniProcess, Process, ProcessGenerator, _Resume
from repro.sim.rng import RngRegistry
from repro.sim.trace import Trace
from repro.telemetry.metrics import Telemetry


def _env_monitors() -> bool:
    """Is ``REPRO_VERIFY_MONITORS`` switched on in the environment?"""
    return os.environ.get("REPRO_VERIFY_MONITORS", "").lower() in (
        "1", "true", "yes", "on"
    )


class Simulator:
    """Discrete-event simulator with nanosecond float time.

    Parameters
    ----------
    seed:
        Master seed for the :class:`~repro.sim.rng.RngRegistry`; every named
        stream is derived from it, so one integer pins the entire run.
    trace:
        Optional pre-built :class:`~repro.sim.trace.Trace`; a disabled one is
        created by default (zero overhead when off).
    telemetry:
        Optional pre-built :class:`~repro.telemetry.metrics.Telemetry`
        registry; a disabled one is created by default.  Like the trace,
        instrumented sites pay one branch when it is off, and enabling it
        never alters simulation results (it only mutates Python counters).
    sanitize:
        Attach the :mod:`repro.sanitize` runtime checkers (same-timestamp
        race detector, RNG stream discipline, no-time-travel); ``None``
        (default) reads ``REPRO_SANITIZE`` from the environment (off
        unless truthy).  Off costs nothing on the hot loop: ``run()``
        only picks the instrumented loop when a sanitizer is attached.
    monitors:
        Attach the :mod:`repro.verify` protocol invariant monitors
        (PROTO101–PROTO107: exactly-once CQEs, responder PSN discipline,
        legal-only QP transitions, flush ordering, bounded retries,
        atomic replay consistency); ``None`` (default) reads
        ``REPRO_VERIFY_MONITORS`` from the environment.  Off costs one
        ``is None`` branch per hook site; runs are bit-identical either
        way (monitors only observe).  Env-attached monitors are strict:
        the first violation raises.
    """

    __slots__ = (
        "_now", "_queue", "_seq", "_active_process", "_resume_pool",
        "_sanitize", "_time_hooks", "_state_providers",
        "_monitor", "_chooser", "rng", "trace", "telemetry",
    )

    def __init__(
        self,
        seed: int = 0,
        trace: Optional[Trace] = None,
        telemetry: Optional[Telemetry] = None,
        sanitize: Optional[bool] = None,
        monitors: Optional[bool] = None,
    ):
        self._now: float = 0.0
        self._queue: list[tuple[float, int, int, object]] = []
        self._seq: int = 0
        self._active_process: Optional[Process] = None
        self._resume_pool: list[_Resume] = []
        self._time_hooks: list[Callable[[float], None]] = []
        self._state_providers: list[Callable[[], tuple]] = []
        self.rng = RngRegistry(seed)
        self.trace = trace if trace is not None else Trace(enabled=False)
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self._sanitize = None
        if env_sanitize() if sanitize is None else sanitize:
            from repro.sanitize.runtime import RuntimeSanitizer

            self._sanitize = RuntimeSanitizer(self)
            self.rng._sanitize = self._sanitize
        #: Protocol invariant monitor (repro.verify.monitors); component
        #: hook sites check ``sim._monitor is not None`` — one branch off.
        self._monitor: Optional["ProtocolMonitor"] = None
        if monitors if monitors is not None else _env_monitors():
            from repro.verify.monitors import ProtocolMonitor

            self._monitor = ProtocolMonitor(self, strict=True)
        #: Deterministic choice-point hook (repro.verify.choice); when
        #: attached, run() uses the instrumented loop.
        self._chooser: Optional["Chooser"] = None

    # -- clock ----------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time in nanoseconds."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently executing (None outside process context)."""
        return self._active_process

    # -- factories -------------------------------------------------------------

    def event(self, name: str = "") -> Event:
        """Create a fresh, untriggered event."""
        return Event(self, name=name)

    def timeout(self, delay: float, value: object = None, name: str = "") -> Timeout:
        """Create a timeout firing ``delay`` ns from now."""
        return Timeout(self, delay, value=value, name=name)

    def timeout_at(self, when: float) -> Event:
        """Create an event firing at the absolute time ``when``.

        It takes the ``(when, NORMAL, seq)`` heap key a timeout scheduled
        now would take, so same-time records still dispatch FIFO.  Use it
        when the wake-up instant was computed as a sum of steps: adding
        ``when - now`` back to ``now`` need not round to ``when``.
        """
        if when < self._now:
            raise SimulationError(
                f"cannot schedule into the past (when={when}, now={self._now})"
            )
        event = Event(self)
        event._value = None
        heapq.heappush(self._queue, (when, NORMAL, self._seq, event))
        self._seq += 1
        return event

    def process(self, generator: ProcessGenerator, name: str = "") -> Process:
        """Spawn a new process from a generator."""
        return Process(self, generator, name=name)

    def spawn(self, generator: ProcessGenerator, name: str = "") -> "MiniProcess":
        """Run ``generator`` as a fire-and-forget process.

        Like :meth:`process` but the returned handle is not an event: it
        cannot be joined or interrupted, and its completion leaves no
        termination event on the heap.  Use it for hot per-message work
        whose result nobody waits on (the relative order of all other
        events is unchanged — see :class:`MiniProcess`).
        """
        return MiniProcess(self, generator, name)

    def all_of(self, events: Iterable[Event], name: str = "") -> Event:
        """Join: an event that succeeds once every member has succeeded.

        One shared counting callback, in the style of :meth:`wait_any`.
        The join succeeds with ``None`` when the last member is processed,
        at ``(now, NORMAL, seq)``; it fails with the first member failure,
        and every failing member is defused.  Members already processed
        count at once, so an empty or fully processed iterable succeeds at
        the current instant.
        """
        members = tuple(events)
        remaining = len(members)
        out = Event(self, name=name)

        def _member(ev: Event) -> None:
            nonlocal remaining
            if out._value is not _PENDING:
                if not ev._ok:
                    ev._defused = True
                return
            if not ev._ok:
                ev._defused = True
                out.fail(ev._value)  # type: ignore[arg-type]
                return
            remaining -= 1
            if not remaining:
                out.succeed()

        if not members:
            out.succeed()
        for ev in members:
            if ev.callbacks is None:
                _member(ev)
            else:
                ev.callbacks.append(_member)
        return out

    def wait_any(self, events: Iterable[Event], name: str = "") -> Event:
        """First-of waiter: one shared callback, no condition object.

        Returns an event that succeeds with the *first* sub-event to succeed
        (the sub-event itself is the value) or fails with the first failure
        — the allocation-free way to multiplex a poll loop over several
        queues.  An empty iterable succeeds immediately with ``None``.
        """
        out = Event(self, name=name)

        def _first(ev: Event) -> None:
            if out._value is not _PENDING:
                if not ev._ok:
                    ev._defused = True
                return
            if ev._ok:
                out.succeed(ev)
            else:
                ev._defused = True
                out.fail(ev._value)  # type: ignore[arg-type]

        armed = False
        for ev in events:
            armed = True
            if ev.callbacks is None:
                _first(ev)
            else:
                ev.callbacks.append(_first)
        if not armed:
            out.succeed(None)
        return out

    # -- scheduling --------------------------------------------------------------

    def _schedule(self, event: Event, priority: int, delay: float) -> None:
        """Insert a triggered event into the queue ``delay`` ns from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        heapq.heappush(self._queue, (self._now + delay, priority, self._seq, event))
        self._seq += 1

    def call_later(self, delay: float, fn: Callable[[object], None], arg: object = None) -> None:
        """Run ``fn(arg)`` after ``delay`` ns (fire-and-forget, no Event).

        Equivalent to hanging a callback off a :class:`Timeout` but backed by
        a bare ``(fn, arg)`` record; scheduling order is identical (NORMAL
        priority, next sequence number).
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        heapq.heappush(self._queue, (self._now + delay, NORMAL, self._seq, (fn, arg)))
        self._seq += 1

    def call_urgent(self, fn: Callable[[object], None], arg: object = None) -> None:
        """Run ``fn(arg)`` at the current instant, ahead of NORMAL records.

        The callback twin of :meth:`spawn`'s first-step kick: the record
        takes the ``(now, URGENT, seq)`` key a spawned process's first
        step takes, so a callback chain that replaces a spawned generator
        keeps every later key.  Never replace such a kick with an inline
        call: the inline work would allocate its sequence numbers before
        records pushed between the kick and its dispatch.
        """
        heapq.heappush(self._queue, (self._now, URGENT, self._seq, (fn, arg)))
        self._seq += 1

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._queue[0][0] if self._queue else float("inf")

    @property
    def events_scheduled(self) -> int:
        """Total heap records scheduled so far (monotone; ~events simulated)."""
        return self._seq

    def on_time_shift(self, hook: Callable[[float], None]) -> None:
        """Register ``hook(shift_ns)`` to run after every bulk clock advance.

        Components that store *absolute* timestamps (the DVFS duty clock,
        an in-progress busy-poll start) register here so
        :meth:`advance_clock` keeps their ``now - t`` arithmetic invariant.
        Relative state (delays, pending-event offsets) needs nothing.
        """
        self._time_hooks.append(hook)

    def attach_monitor(self, monitor: "Optional[ProtocolMonitor]") -> None:
        """Attach a protocol invariant monitor (see :mod:`repro.verify`).

        Component hook sites (CQ push, QP modify, the NIC's post/dispatch/
        retransmit paths) consult ``sim._monitor`` behind an ``is None``
        guard, so attaching after construction is equivalent to the
        ``monitors=True`` constructor path minus strictness defaults.
        """
        self._monitor = monitor

    def attach_chooser(self, chooser: "Optional[Chooser]") -> None:
        """Attach a deterministic choice-point hook for model checking.

        With a chooser attached, :meth:`run` delegates to the instrumented
        :meth:`_run_instrumented` loop: whenever more than one heap record shares
        the minimal ``(time, priority)``, the chooser picks which one
        dispatches next (index into the FIFO-ordered front).  Index 0 at
        every choice point reproduces the default sequence-number order
        exactly, so a chooser that always answers 0 is bit-identical to no
        chooser at all.  Detach with ``attach_chooser(None)``.
        """
        self._chooser = chooser

    def register_state_provider(self, provider: Callable[[], tuple]) -> None:
        """Register a component-state fingerprint source for cycle probes.

        ``provider()`` must cheaply return a tuple of plain values that
        fully determine the component's future *timing* influence (e.g. a
        turbo core's duty EMA).  :class:`repro.sim.fastforward.FastForward`
        folds every provider into its steady-state signature, so state the
        providers expose can never silently break an extrapolation.
        """
        self._state_providers.append(provider)

    def component_state(self) -> tuple:
        """All registered providers' fingerprints, in registration order."""
        return tuple(p() for p in self._state_providers)

    def advance_clock(self, until: float) -> int:
        """Jump the clock to ``until``, translating every pending event.

        The bulk-advance primitive behind steady-state fast-forward (see
        :mod:`repro.sim.fastforward`): the whole pending schedule is shifted
        by ``until - now`` so every relative offset — and therefore every
        future inter-event delta — is preserved bit-for-bit when the jump
        amount and the pending offsets share the clock's current ulp grid.

        Integrity checks: the jump must not go backwards, no pending event
        may already be in the past, and after the shift the earliest event
        must not precede the new ``now``.  The shift mutates the heap list
        *in place* (``run()`` holds a local binding to it) and a uniform
        shift is order-preserving, so the heap invariant survives.  Returns
        the number of pending records translated.
        """
        shift = until - self._now
        if shift < 0:
            raise SimulationError(
                f"advance_clock({until}) is in the past (now={self._now})"
            )
        queue = self._queue
        if queue and queue[0][0] < self._now:  # pragma: no cover - invariant
            raise SimulationError("pending event predates the clock")
        if shift > 0.0:
            if queue:
                queue[:] = [(t + shift, p, s, e) for (t, p, s, e) in queue]
                if queue[0][0] < until:  # pragma: no cover - invariant
                    raise SimulationError(
                        "advance_clock shifted an event into the past"
                    )
            self._now = until
            for hook in self._time_hooks:
                hook(shift)
        return len(queue)

    # -- running ----------------------------------------------------------------

    def run(self, until: "float | Event | None" = None) -> object:
        """Run the simulation.

        ``until`` may be:

        - ``None`` — run until no events remain;
        - a number — run until the clock reaches that time;
        - an :class:`Event` — run until the event is processed and return its
          value (raising its exception if it failed).
        """
        if self._chooser is not None or self._sanitize is not None:
            return self._run_instrumented(until)
        stop_event, deadline = self._bounds(until)

        # Hot loop: locals bound once, record dispatch inlined.  This is the
        # innermost loop of every benchmark; it must not allocate.
        queue = self._queue
        heappop = heapq.heappop
        resume_pool = self._resume_pool
        while True:
            if (stop_event is not None and stop_event.callbacks is None) \
                    or not queue or queue[0][0] > deadline:
                return self._exit(stop_event, deadline)

            when, _prio, _seq, event = heappop(queue)
            self._now = when
            cls = event.__class__
            if cls is tuple:
                event[0](event[1])
                continue
            if cls is _Resume:
                process = event.process
                event.process = None
                resume_pool.append(event)
                if process is not None:
                    process._step(None, None)
                continue

            callbacks = event.callbacks
            event.callbacks = None
            for callback in callbacks:
                callback(event)
            if not event._ok and not event._defused:
                raise event._value

    def _run_instrumented(self, until: "float | Event | None") -> object:
        """Twin of :meth:`run` used when a chooser or a sanitizer is attached.

        Same records in the same order, with two optional hooks:

        - a chooser: whenever several heap records share the minimal
          ``(time, priority)`` — a genuine simultaneity the hot loop breaks
          by insertion order — the whole tied front is popped and the
          chooser selects which record dispatches; the rest are pushed back
          with their original keys (order-preserving, so later choice points
          see the same FIFO front).  A chooser answering 0 everywhere
          reproduces the default schedule bit-for-bit.
        - a sanitizer: each dispatch first reports to the
          :class:`~repro.sanitize.runtime.RuntimeSanitizer` (bucket
          accounting for the same-timestamp race detector, the no-time-travel
          assertion) and runs inside its ``in_dispatch`` window (RNG draws).

        Kept apart so the hot loop in :meth:`run` stays free of hooks.
        """
        stop_event, deadline = self._bounds(until)
        chooser = self._chooser
        san = self._sanitize
        queue = self._queue
        heappop = heapq.heappop
        if san is not None:
            san.begin_run()
        try:
            while True:
                if (stop_event is not None and stop_event.callbacks is None) \
                        or not queue or queue[0][0] > deadline:
                    return self._exit(stop_event, deadline)

                record = heappop(queue)
                when, prio = record[0], record[1]
                # Gather the tied front: heap pops of equal keys come out in
                # sequence order, i.e. exactly the default dispatch order.
                if chooser is not None and queue and not queue[0][0] > when \
                        and queue[0][1] == prio:
                    front = [record]
                    while queue and not queue[0][0] > when and queue[0][1] == prio:
                        front.append(heappop(queue))
                    record = front.pop(chooser.choose(len(front), front))
                    for rec in front:
                        heapq.heappush(queue, rec)
                event = record[3]
                if san is not None:
                    san.on_dispatch(when, prio, event)
                if when < self._now:
                    raise SimulationError("event scheduled in the past")
                self._now = when
                if san is None:
                    self._dispatch(event)
                    continue
                san.in_dispatch = True
                try:
                    self._dispatch(event)
                finally:
                    san.in_dispatch = False
        finally:
            if san is not None:
                san.finish()

    def _dispatch(self, event: Any) -> None:
        """Execute one popped heap record (the instrumented loop's body)."""
        cls = event.__class__
        if cls is tuple:
            event[0](event[1])
            return
        if cls is _Resume:
            process = event.process
            event.process = None
            self._resume_pool.append(event)
            if process is not None:
                process._step(None, None)
            return
        callbacks = event.callbacks
        event.callbacks = None
        for callback in callbacks:
            callback(event)
        if not event._ok and not event._defused:
            raise event._value

    def _bounds(self, until: "float | Event | None") -> "tuple[Optional[Event], float]":
        """Parse ``run(until)`` into ``(stop_event, deadline)``."""
        if until is None:
            return None, float("inf")
        if isinstance(until, Event):
            return until, float("inf")
        deadline = float(until)
        if deadline < self._now:
            raise SimulationError(
                f"run(until={deadline}) is in the past (now={self._now})"
            )
        return None, deadline

    def _exit(self, stop_event: Optional[Event], deadline: float) -> object:
        """Leave a run loop: the stop event was processed, the heap ran dry,
        or the next record lies past ``deadline``."""
        if stop_event is not None:
            if stop_event.callbacks is not None:
                raise SimulationError(
                    "run() stop event will never be triggered: no events left"
                )
            if stop_event._ok:
                return stop_event._value
            stop_event._defused = True
            raise stop_event._value  # type: ignore[misc]
        if deadline != float("inf"):
            self._now = deadline
        return None
