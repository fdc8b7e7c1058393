"""Common NPB machinery: problem classes, configs, results, registry."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

from repro.errors import ConfigError

#: Effective scalar compute rate of one simulated core: ns per "flop-ish"
#: unit of work.  0.4 ns/flop == 2.5 Gflop/s sustained — ordinary for the
#: irregular, memory-bound NPB kernels.  Because fig. 6 is *relative*
#: runtime on identical skeletons, this constant cancels between
#: transports; it only sets the compute:communication balance.
FLOP_NS = 0.4

#: NPB problem-class scale factors (class A = 1).  Used by the per-
#: benchmark formulas below; classes B/C/D follow the official growth.
CLASS_SCALE = {"S": 1 / 64, "A": 1.0, "B": 4.0, "C": 16.0, "D": 256.0}


@dataclass(frozen=True)
class NpbConfig:
    """One benchmark run's parameters."""

    name: str
    klass: str = "B"
    ranks: int = 32
    #: Iteration override (None = the benchmark's class default, possibly
    #: reduced by ``iter_scale``).
    iterations: Optional[int] = None
    #: Fraction of the official iteration count to simulate (runtime is
    #: reported per iteration, so this only shortens the simulation).
    iter_scale: float = 1.0

    def __post_init__(self):
        if self.klass not in CLASS_SCALE:
            raise ConfigError(f"unknown NPB class {self.klass!r}")
        if self.ranks < 2:
            raise ConfigError("NPB skeletons need at least 2 ranks")
        if self.iterations is not None and self.iterations < 1:
            raise ConfigError(
                f"need at least one iteration, got iterations={self.iterations}"
            )
        if not (math.isfinite(self.iter_scale) and self.iter_scale > 0):
            raise ConfigError(
                f"iter_scale must be finite and positive, got {self.iter_scale}"
            )

    def effective_iters(self, default: int) -> int:
        if self.iterations is not None:
            return self.iterations
        # A small positive scale still simulates one iteration.
        return max(1, int(round(default * self.iter_scale)))


@dataclass
class NpbResult:
    """Timing of one benchmark on one transport."""

    name: str
    klass: str
    transport: str
    ranks: int
    iterations: int
    elapsed_ns: float
    bytes_sent_total: int
    msgs_sent_total: int

    @property
    def per_iter_ns(self) -> float:
        return self.elapsed_ns / max(self.iterations, 1)

    @property
    def msg_rate_per_rank_per_s(self) -> float:
        if self.elapsed_ns <= 0:
            return 0.0
        return self.msgs_sent_total / self.ranks / self.elapsed_ns * 1e9

    @property
    def gbit_per_s_per_rank(self) -> float:
        if self.elapsed_ns <= 0:
            return 0.0
        return self.bytes_sent_total / self.ranks / self.elapsed_ns * 8.0


def pow2_below(n: int) -> int:
    """Largest power of two <= n."""
    return 1 << (n.bit_length() - 1)


def grid_2d(ranks: int) -> tuple[int, int]:
    """Near-square 2D factorization (NPB CG/BT/SP style)."""
    rows = int(math.sqrt(ranks))
    while ranks % rows:
        rows -= 1
    return rows, ranks // rows


# Registry filled by the benchmark modules at import time.
BENCHMARKS: dict[str, Callable[[NpbConfig], tuple[Callable, int]]] = {}


def register(name: str):
    """Decorator: register ``make(cfg) -> (program, iterations)``."""

    def deco(make):
        BENCHMARKS[name] = make
        return make

    return deco


def get_benchmark(name: str):
    try:
        return BENCHMARKS[name]
    except KeyError:
        raise ConfigError(
            f"unknown NPB benchmark {name!r}; available: {sorted(BENCHMARKS)}"
        ) from None
