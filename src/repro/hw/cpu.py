"""CPU cores with a DVFS/turbo model.

Each simulated thread is pinned to a :class:`Core` (the paper pins all
benchmark processes).  A core is a capacity-1 FIFO lock: oversubscribed
cores serialize their threads' work.  Work durations are scaled by the current
effective frequency, which a simple duty-cycle EMA governs:

- Turbo disabled (system L): frequency is nominal, always.
- Turbo enabled (system A): a core that is *not* saturated runs up to
  ``turbo_headroom`` faster.  Sustained busy-polling drives the duty cycle
  to 1 and forfeits the headroom; syscalls grant a small idle credit
  (``dvfs_syscall_credit_ns``).  This reproduces the paper's observation
  that CoRD can marginally outperform kernel bypass on large-message
  bandwidth when Turbo is on (§5: "system calls interact with DVFS").
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Generator, Optional

from repro.errors import HardwareError
from repro.hw.profiles import CpuProfile, SystemProfile
from repro.sim.events import Event
from repro.sim.resources import FifoLock

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator

#: Idle gaps beyond this many DVFS windows leave a residual duty of at most
#: ``e**-48`` ~ 1.4e-21 — below half an ulp of every expression the duty
#: feeds (``1 - duty`` in :meth:`Core.frequency_factor`, ``duty * frac``
#: against ``1 - frac`` in :meth:`Core.run` for any busy slice
#: longer than a nanosecond; the shortest slice in any profile is the 28 ns
#: poll check, a 38x margin) — so the governor flushes the EMA to an exact
#: 0.0.  That makes "cold" an absorbing, canonical state: a core left idle
#: this long behaves bit-identically to a freshly built one no matter how
#: much *longer* it idled, which is what lets the steady-state fast-forward
#: signature treat all such cores as equal (see :meth:`Core._timing_state`).
_COLD_WINDOWS = 48.0


class Core:
    """One CPU core: exclusive execution resource + frequency governor."""

    def __init__(
        self,
        sim: "Simulator",
        system: SystemProfile,
        index: int = 0,
        name: str = "",
    ):
        self.sim = sim
        self.system = system
        self.profile: CpuProfile = system.cpu
        self.index = index
        self.name = name or f"core{index}"
        self.lock = FifoLock(sim, name=self.name)
        self._jitter = sim.rng.jitter_stream(f"cpu:{self.name}")
        # Governor constants, read on every dispatch.
        self._turbo: bool = system.turbo_enabled
        self._window: float = self.profile.dvfs_window_ns
        self._headroom: float = self.profile.turbo_headroom - 1.0
        #: Telemetry scope: core names are "<host>.coreN" (host scope).
        self._scope = self.name.split(".", 1)[0]
        # Duty-cycle EMA state for the DVFS governor.
        self._duty: float = 0.0
        self._duty_t: float = sim.now
        #: Absolute start of an in-progress busy-poll (None outside one).
        self._poll_t0: Optional[float] = None
        # Accounting.
        self.busy_ns: float = 0.0
        self.syscalls: int = 0
        # Hooks are registered lazily at first dispatch: an idle core's duty
        # EMA is pinned at 0.0 (decay multiplies zero), so it has no
        # timing-relevant state to shift or to publish — and a many-core
        # host would otherwise make every steady-state signature pay for
        # hundreds of inert providers.
        self._hooked = False

    def _ensure_hooks(self) -> None:
        """Register clock-shift / state hooks at first dispatch.

        Absolute timestamps must survive bulk clock advances (steady-state
        fast-forward): shift them with the clock so every ``now - t`` gap
        the core computes is translation-invariant.  The duty EMA feeds
        back into timing only with turbo on, so only those cores publish
        governor state into steady-state signatures.
        """
        self._hooked = True
        self.sim.on_time_shift(self._on_time_shift)
        if self._turbo:
            self.sim.register_state_provider(self._timing_state)

    def _on_time_shift(self, shift: float) -> None:
        self._duty_t += shift
        if self._poll_t0 is not None:
            self._poll_t0 += shift

    def _timing_state(self) -> tuple:
        """Timing-relevant governor state for steady-state signatures.

        The pending idle gap is part of the state (decay is lazy), which
        would make an abandoned core — busy during setup, never touched
        again — look aperiodic forever as its staleness grows.  Once the
        pending decay is past ``_COLD_WINDOWS`` the flush in
        :meth:`_decay_duty` guarantees the next query yields an exact 0.0
        regardless of how stale the core got, so every such state is
        reported as one canonical cold tuple.
        """
        gap = self.sim.now - self._duty_t
        if self._duty == 0.0 or gap >= _COLD_WINDOWS * self.profile.dvfs_window_ns:
            return (self.name, "cold")
        return (self.name, self._duty, gap)

    # -- DVFS -------------------------------------------------------------------

    def _decay_duty(self) -> float:
        """Decay the duty EMA over the idle gap since the last update.

        Gaps past ``_COLD_WINDOWS`` flush to an exact 0.0: the residual
        (< 1.6e-28) is beneath half an ulp of everything downstream, so
        the flush is bit-invisible to timing while making long-idle cores
        canonically cold.  Returns the decayed duty.
        """
        now = self.sim.now
        gap = now - self._duty_t
        if gap > 0:
            window = self._window
            if gap >= _COLD_WINDOWS * window:
                self._duty = 0.0
            else:
                self._duty *= math.exp(-gap / window)
            self._duty_t = now
        return self._duty

    @property
    def duty_cycle(self) -> float:
        """Current duty-cycle estimate in [0, 1]."""
        return self._decay_duty()

    @property
    def frequency_factor(self) -> float:
        """Effective frequency relative to nominal (>= 1.0)."""
        if not self._turbo:
            return 1.0
        return 1.0 + self._headroom * (1.0 - self._decay_duty())

    def grant_idle_credit(self, credit_ns: float) -> None:
        """Pretend the core idled for ``credit_ns`` (DVFS syscall effect)."""
        if credit_ns <= 0 or not self._turbo:
            return
        self._decay_duty()
        self._duty *= math.exp(-credit_ns / self._window)

    # -- execution -----------------------------------------------------------------

    def syscall(
        self, kernel_work_ns: float = 0.0
    ) -> Generator[Event, object, None]:
        """One syscall round trip plus ``kernel_work_ns`` of kernel work.

        Applies KPTI cost when the system profile enables it and lognormal
        jitter on virtualized systems, then grants the DVFS idle credit.
        Runs as :meth:`run`'s own generator, so a syscall costs no extra
        ``yield from`` level.
        """
        return self.run(kernel_work_ns, _syscall=True)

    def run(
        self, work_ns: float, _syscall: bool = False
    ) -> Generator[Event, object, None]:
        """Execute ``work_ns`` of nominal-frequency work on this core.

        Acquires the core (queueing behind other pinned threads), advances
        time by the frequency-scaled duration, updates DVFS accounting.
        (``_syscall`` is :meth:`syscall`'s entry: ``work_ns`` is then its
        kernel work.)

        With turbo on, duty and frequency co-evolve per DVFS window: a long
        compute block saturates the core and decays to nominal frequency
        instead of riding its entry-time turbo factor.  Every window of a
        block runs with the core held, so nothing else can touch the
        governor in between and each window after the first starts with a
        zero idle gap: the whole block is evaluated here in closed form —
        the per-window recurrence, in order — and waited on once.
        """
        if _syscall:
            system = self.system
            work_ns = self._jitter.draw(
                system.syscall_cost() + work_ns, system.syscall_jitter_cv
            )
            self.syscalls += 1
            tele = self.sim.telemetry
            if tele.enabled:
                tele.scope(self._scope).counter("cpu.syscalls").inc(
                    work_ns, key=self.name)
        if work_ns < 0:
            raise HardwareError(f"negative work: {work_ns}")
        if not self._hooked:
            self._ensure_hooks()
        lock = self.lock
        wait = lock.acquire()
        if wait is not None:
            yield wait
        try:
            if not self._turbo:
                # Frequency is pinned to nominal, so the duty EMA can never
                # feed back into timing — skip the governor entirely.
                if work_ns > 0:
                    yield work_ns
                    self.busy_ns += work_ns
            elif work_ns > 0:
                sim = self.sim
                window = self._window
                headroom = self._headroom
                t = sim.now
                duty = self._duty
                gap = t - self._duty_t
                if gap > 0:
                    if gap >= _COLD_WINDOWS * window:
                        duty = 0.0
                    else:
                        duty *= math.exp(-gap / window)
                    self._duty = duty
                    self._duty_t = t
                busy = self.busy_ns
                remaining = work_ns
                while remaining > 0:
                    slice_nominal = remaining if remaining <= window else window
                    scaled = slice_nominal / (1.0 + headroom * (1.0 - duty))
                    t += scaled
                    frac = math.exp(-scaled / window)
                    duty = 1.0 * (1.0 - frac) + duty * frac
                    busy += scaled
                    remaining -= slice_nominal
                if work_ns <= window:
                    yield scaled
                else:
                    # ``t`` is the left-to-right sum of the window lengths,
                    # the instant per-window sleeps would have reached; a
                    # relative sleep of ``t - now`` could round elsewhere.
                    yield sim.timeout_at(t)
                self._duty = duty
                self._duty_t = sim.now
                self.busy_ns = busy
        finally:
            lock.release()
        if _syscall and self._turbo:
            credit_ns = self.profile.dvfs_syscall_credit_ns
            if credit_ns > 0:
                # A non-empty block left the duty clock at now: no decay due.
                duty = self._duty if work_ns > 0 else self._decay_duty()
                self._duty = duty * math.exp(-credit_ns / self._window)

    def busy_poll(self, until: Event, check_ns: float) -> Generator[Event, object, float]:
        """Busy-poll on the core until ``until`` fires.

        Returns the polling CPU time burnt.  The waiting time counts as busy
        for the DVFS governor (the defining property of polling), and the
        caller pays one final ``check_ns`` to observe the result.
        """
        if not self._hooked:
            self._ensure_hooks()
        lock = self.lock
        wait = lock.acquire()
        if wait is not None:
            yield wait
        try:
            # The start mark lives on the core (not a generator local) so a
            # bulk clock advance can translate it: the measured wait then
            # never includes fast-forwarded time another process skipped.
            self._poll_t0 = self.sim.now
            if not until.processed:
                yield until
            waited = self.sim.now - self._poll_t0
            self._poll_t0 = None
            if self._turbo:
                tail = check_ns / (1.0 + self._headroom * (1.0 - self._decay_duty()))
                if tail > 0:
                    yield tail
                burnt = waited + tail
                if burnt > 0:
                    frac = math.exp(-burnt / self._window)
                    self._duty = 1.0 * (1.0 - frac) + self._duty * frac
                    self._duty_t = self.sim.now
                    self.busy_ns += burnt
            else:
                if check_ns > 0:
                    yield check_ns
                burnt = waited + check_ns
                self.busy_ns += burnt
            return burnt
        finally:
            lock.release()


class CpuSet:
    """The cores of one host, with simple pinning allocation."""

    def __init__(self, sim: "Simulator", system: SystemProfile, host_name: str = "host"):
        self.sim = sim
        self.system = system
        self._host_name = host_name
        # Cores materialize on first pin: a 120-core profile (Azure HB120)
        # would otherwise build hundreds of Core objects — and as many named
        # rng streams — that no benchmark ever touches.  Stream seeds derive
        # from (master seed, name) alone, so creation order cannot perturb
        # any draw.
        self._cores: list[Optional[Core]] = [None] * system.cpu.cores
        self._next_pin = 0

    def _core(self, index: int) -> Core:
        core = self._cores[index]
        if core is None:
            core = self._cores[index] = Core(
                self.sim, self.system, index=index,
                name=f"{self._host_name}.core{index}",
            )
        return core

    @property
    def cores(self) -> list[Core]:
        """All cores, materializing any not yet pinned (telemetry export)."""
        return [self._core(i) for i in range(len(self._cores))]

    def pin(self, core_index: Optional[int] = None) -> Core:
        """Claim a core: explicit index, or round-robin when None."""
        if core_index is None:
            index = self._next_pin % len(self._cores)
            self._next_pin += 1
            return self._core(index)
        if not 0 <= core_index < len(self._cores):
            raise HardwareError(
                f"core index {core_index} out of range 0..{len(self._cores) - 1}"
            )
        return self._core(core_index)

    def __len__(self) -> int:
        return len(self._cores)
