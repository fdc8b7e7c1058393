"""Host-speed probe: a fixed pointer-chasing loop timed between driver calls.

Shared virtual machines change speed by up to 2x from one second to the
next.  The swings track neighbours' load on the shared memory system, and
the simulator feels them through its object graph: heap entries,
generator frames, events.  The probe reads a fixed pseudo-random sequence
of slots from a 1 Mi-entry list of int objects: two dependent memory
accesses per step, the access pattern the simulator's hot loop has, but
none of its code, so a change to the simulator never changes the probe.

Measured against driver calls on a shared 2-core Xeon VM (Python 3.11),
call time scales with probe time to a power of 0.8 to 1.3, depending on
the period; tight interpreter loops that stay in cache tracked it with a
power of only 0.2 to 0.4.  Dividing each pass's driver-call time by the
mean probe time cancels most of the swing.  Multiplying by
``REFERENCE_S``, the probe's time on that VM when undisturbed, expresses
the result in seconds of that host.

Never edit the probe or ``REFERENCE_S``: either change re-bases every
normalised time the benchmark reports.
"""

from __future__ import annotations

import resource
import time

SLOTS = 1 << 20
STEPS = 50_000
#: Probe time on the reference host (seconds), the scale of normalised times.
REFERENCE_S = 0.022


class HostSpeedProbe:
    """Owns the probe's list (about 40 MiB) for the life of a run."""

    def __init__(self) -> None:
        before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        self._slots = list(range(SLOTS))
        #: Growth of the process's peak resident set from the list, in KiB;
        #: the benchmark takes it out of ``peak_rss_mib``.
        self.footprint_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before

    def chase(self, steps: int = STEPS) -> int:
        slots, mask = self._slots, SLOTS - 1
        total, idx = 0, 12345
        for _ in range(steps):
            idx = (idx * 1103515245 + 12345) & mask
            total += slots[idx]
        return total

    def seconds(self) -> float:
        """Wall time of one probe."""
        start = time.perf_counter()
        self.chase()
        return time.perf_counter() - start
