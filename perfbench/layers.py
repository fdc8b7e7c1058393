"""Per-layer instrumentation, installed from outside the program.

Two tools, both reversible and both off in the untraced run:

- :class:`Capture` records the instances a pass builds (simulators,
  fabrics, hosts, dataplanes, CQs, MPI rank engines) so their public
  counters can be read once the pass ends.  It wraps only constructors.
- :class:`Tracer` wraps every function and method defined in each layer's
  modules and keeps one span per call in memory: name, start, end, parent
  and op id (the index of the driver call the span belongs to).  A
  generator function is wrapped by a proxy generator that opens one span
  per resume, so a simulated process's split execution is charged to the
  layer whose code runs.  Self time is a span's duration minus its
  children's.  Time in code outside every layer (builtins, numpy,
  unlisted modules) counts as self time of the innermost enclosing span.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
import statistics
import sys
import time
from typing import Callable, Iterator

#: Layer name -> module prefixes it owns.
LAYERS: dict[str, tuple[str, ...]] = {
    "sim.engine": ("repro.sim.engine", "repro.sim.events", "repro.sim.rng"),
    "sim.process": ("repro.sim.process",),
    "sim.resources": ("repro.sim.resources",),
    "sim.store": ("repro.sim.store",),
    "sim.fastforward": ("repro.sim.fastforward",),
    "hw.nic": ("repro.hw.nic",),
    "hw.cpu": ("repro.hw.cpu",),
    "hw.pcie": ("repro.hw.pcie",),
    "hw.congestion": ("repro.hw.congestion",),
    "cluster.fabric": ("repro.cluster.fabric",),
    "verbs": ("repro.verbs",),
    "core.dataplane": ("repro.core",),
    "kernel": ("repro.kernel",),
    "mpi": ("repro.mpi",),
    "perftest": ("repro.perftest",),
    "npb": ("repro.npb",),
}


def layer_of(module: str) -> str | None:
    for layer, prefixes in LAYERS.items():
        if any(module == p or module.startswith(p + ".") for p in prefixes):
            return layer
    return None


def _layer_modules() -> Iterator[tuple[str, object]]:
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        layer = layer_of(info.name)
        if layer is not None:
            yield layer, importlib.import_module(info.name)


class _Patches:
    """Attribute replacements that can all be undone."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def set(self, owner: object, name: str, value: object) -> None:
        self._undo.append((owner, name, vars(owner).get(name, _MISSING)))
        setattr(owner, name, value)

    def undo(self) -> None:
        for owner, name, old in reversed(self._undo):
            if old is _MISSING:
                delattr(owner, name)
            else:
                setattr(owner, name, old)
        self._undo.clear()


_MISSING = object()


# -- counters --------------------------------------------------------------------


class Capture:
    """Collects the instances one pass constructs, by class."""

    TARGETS = (
        ("repro.sim.engine", "Simulator"),
        ("repro.cluster.fabric", "Fabric"),
        ("repro.cluster.host", "Host"),
        ("repro.core.dataplane", "Dataplane"),
        ("repro.verbs.cq", "CompletionQueue"),
        ("repro.mpi.engine", "RankEngine"),
        ("repro.hw.pcie", "PcieBus"),
    )

    def __init__(self) -> None:
        self.instances: dict[str, list] = {name: [] for _, name in self.TARGETS}
        self._patches = _Patches()

    def __enter__(self) -> "Capture":
        for module, name in self.TARGETS:
            cls = getattr(importlib.import_module(module), name)
            bucket = self.instances[name]
            init = cls.__init__

            @functools.wraps(init)
            def captured(obj, *args, _init=init, _bucket=bucket, **kwargs):
                _init(obj, *args, **kwargs)
                _bucket.append(obj)

            self._patches.set(cls, "__init__", captured)
        return self

    def __exit__(self, *exc) -> None:
        self._patches.undo()

    def counters(self) -> dict[str, float]:
        """Deterministic per-layer counts summed over the captured pass."""
        got = self.instances
        fabrics = got["Fabric"]
        nics = [h.nic.counters for h in got["Host"]]
        carried = sum(f.messages_carried for f in fabrics)
        dropped = sum(f.messages_dropped for f in fabrics)
        tx = sum(n.tx_msgs for n in nics)
        retx = sum(n.retransmits for n in nics)
        polls = sum(d.polls for d in got["Dataplane"])
        ports = [f.rx_port(0) for f in fabrics if f.rx_contention is not None]
        return {
            "sim.engine.events": sum(s.events_scheduled for s in got["Simulator"]),
            "hw.nic.tx_msgs": tx,
            "hw.nic.retransmits": retx,
            "hw.nic.ack_timeouts": sum(n.ack_timeouts for n in nics),
            "hw.nic.cnps_sent": sum(n.cnps_sent for n in nics),
            "hw.nic.retx_ratio": retx / tx if tx else 0.0,
            "hw.pcie.bytes_read": sum(p.bytes_read for p in got["PcieBus"]),
            "cluster.fabric.messages_carried": carried,
            "cluster.fabric.drops_rxq": sum(f.drops_rxq for f in fabrics),
            "cluster.fabric.delivered_ratio":
                carried / (carried + dropped) if carried + dropped else 0.0,
            "cluster.fabric.rx_port0.peak_queued_bytes":
                max((p.peak_queued_bytes for p in ports), default=0),
            "cluster.fabric.rx_port0.messages_marked":
                sum(p.messages_marked for p in ports),
            "core.dataplane.ops_posted": sum(d.ops_posted for d in got["Dataplane"]),
            "core.dataplane.poll_yield":
                sum(c.total_cqes for c in got["CompletionQueue"]) / polls if polls else 0.0,
            "mpi.msgs_sent": sum(e.msgs_sent for e in got["RankEngine"]),
        }


# -- spans -----------------------------------------------------------------------


class Tracer:
    """In-memory span recorder over every function of the listed layers.

    ``max_spans`` caps the spans kept for writing out; calls and self time
    are accumulated for every span regardless.
    """

    def __init__(self, max_spans: int = 200_000) -> None:
        self.names: list[str] = []
        self.layers: list[str] = []
        self.calls: list[int] = []
        #: Spans opened directly inside each function's spans.
        self.children: list[int] = []
        self.self_ns: list[int] = []
        self.spans: list[tuple] = []
        self.max_spans = max_spans
        #: Spans are kept while True; turns False at ``max_spans``.
        self.recording = max_spans > 0
        #: Op id stamped on new spans: the driver call in progress.
        self.op = -1
        #: Open spans, innermost last (see :meth:`_open`).
        self._stack: list[list] = []
        self._next_id = 0
        self._patches = _Patches()
        self._plan: list[tuple[object, str, object]] | None = None

    # -- bookkeeping ----------------------------------------------------------------

    def _register(self, name: str, layer: str) -> int:
        self.names.append(name)
        self.layers.append(layer)
        self.calls.append(0)
        self.children.append(0)
        self.self_ns.append(0)
        return len(self.names) - 1

    def _open(self, idx: int) -> list:
        """Push a frame: [child ns, function, span id, parent id] (ids -1
        when the span will not be kept)."""
        stack = self._stack
        if self.recording:
            frame = [0, idx, self._next_id, stack[-1][2] if stack else -1]
            self._next_id += 1
        else:
            frame = [0, idx, -1, -1]
        stack.append(frame)
        return frame

    def _close(self, frame: list, start: int, end: int) -> None:
        stack = self._stack
        stack.pop()
        dur = end - start
        idx = frame[1]
        self.self_ns[idx] += dur - frame[0]
        self.calls[idx] += 1
        if stack:
            parent = stack[-1]
            parent[0] += dur
            self.children[parent[1]] += 1
        if frame[2] >= 0 and self.recording:
            self.spans.append((frame[2], idx, start, end, frame[3], self.op))
            if len(self.spans) >= self.max_spans:
                self.recording = False

    # -- wrappers -------------------------------------------------------------------

    def _wrap_call(self, fn: Callable, idx: int) -> Callable:
        open_, close, clock = self._open, self._close, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = open_(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                close(frame, start, clock())

        return traced

    def _wrap_gen(self, fn: Callable, idx: int) -> Callable:
        open_, close, clock = self._open, self._close, time.perf_counter_ns

        def resumes(gen):
            value, error = None, None
            while True:
                frame = open_(idx)
                start = clock()
                try:
                    out = gen.send(value) if error is None else gen.throw(error)
                except StopIteration as stop:
                    return stop.value
                finally:
                    close(frame, start, clock())
                try:
                    value, error = (yield out), None
                except GeneratorExit:
                    gen.close()
                    raise
                except BaseException as exc:  # noqa: BLE001 - forwarded into gen
                    value, error = None, exc

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            proxy = resumes(fn(*args, **kwargs))
            proxy.__name__ = fn.__name__
            proxy.__qualname__ = fn.__qualname__
            return proxy

        return traced

    def inside_share(self, children: int = 20_000, trials: int = 5) -> float:
        """Share of the tracer's cost per span that falls inside the span's
        own window; the rest falls in its parent's self time.

        A wrapped no-op is called ``children`` times from a wrapped parent:
        the no-op's self time is the inside cost, the parent's self time
        less a bare loop of the same calls the outside cost.
        """
        def nop() -> None:
            pass

        shares = []
        for _ in range(trials):
            probe = Tracer(max_spans=0)
            child = probe._wrap(nop, "nop", "calibration")
            parent = probe._wrap(lambda: [child() for _ in range(children)],
                                 "parent", "calibration")
            parent()
            start = time.perf_counter_ns()
            [nop() for _ in range(children)]
            outside = probe.self_ns[1] - (time.perf_counter_ns() - start)
            shares.append(probe.self_ns[0] / (probe.self_ns[0] + max(0, outside)))
        return statistics.median(shares)

    def _wrap(self, fn: Callable, name: str, layer: str) -> Callable:
        idx = self._register(name, layer)
        if inspect.isgeneratorfunction(fn):
            return self._wrap_gen(fn, idx)
        return self._wrap_call(fn, idx)

    # -- install / remove -------------------------------------------------------------

    def __enter__(self) -> "Tracer":
        if self._plan is None:
            self._plan = self._make_plan()
        for owner, attr, value in self._plan:
            self._patches.set(owner, attr, value)
        return self

    def _make_plan(self) -> list[tuple[object, str, object]]:
        plan: list[tuple[object, str, object]] = []
        replaced: dict[int, Callable] = {}
        for layer, module in _layer_modules():
            for attr, obj in list(vars(module).items()):
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    new = self._wrap(obj, f"{module.__name__}.{obj.__qualname__}", layer)
                    replaced[id(obj)] = new
                    plan.append((module, attr, new))
                elif inspect.isclass(obj):
                    plan.extend(self._wrap_class(obj, module.__name__, layer))
        # ``from x import f`` copies and module-level dispatch tables still
        # point at the originals.
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("repro."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and id(obj) in replaced \
                        and (mod, attr) != (sys.modules[obj.__module__], obj.__name__):
                    plan.append((mod, attr, replaced[id(obj)]))
                elif type(obj) is dict and any(id(v) in replaced for v in obj.values()):
                    plan.append((mod, attr, {k: replaced.get(id(v), v)
                                             for k, v in obj.items()}))
        return plan

    def _wrap_class(self, cls: type, module: str, layer: str) -> list:
        plan = []
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("__") and attr.endswith("__"):
                continue
            name = f"{module}.{cls.__qualname__}.{attr}"
            if inspect.isfunction(obj):
                plan.append((cls, attr, self._wrap(obj, name, layer)))
            elif isinstance(obj, (staticmethod, classmethod)):
                plan.append((cls, attr, type(obj)(self._wrap(obj.__func__, name, layer))))
        return plan

    def __exit__(self, *exc) -> None:
        self._patches.undo()

    # -- results ----------------------------------------------------------------------

    def reset_counts(self) -> None:
        for counts in (self.calls, self.children, self.self_ns):
            counts[:] = [0] * len(counts)

    def by_layer(self, cost_ns: float, inside: float) -> dict[str, tuple[int, float]]:
        """Layer -> (calls, self seconds) accumulated since the last reset,
        with the tracer's own cost taken out: ``cost_ns`` per span, of
        which the share ``inside`` is charged to the span's own function
        and the rest to its parent's."""
        out = {layer: [0, 0.0] for layer in LAYERS}
        for idx, layer in enumerate(self.layers):
            out[layer][0] += self.calls[idx]
            out[layer][1] += self.self_ns[idx] - cost_ns * (
                inside * self.calls[idx] + (1 - inside) * self.children[idx])
        return {layer: (calls, ns / 1e9) for layer, (calls, ns) in out.items()}

    def write_spans(self, path: str) -> None:
        """Write the kept spans (times in ns from the tracer's clock)."""
        with open(path, "w") as fh:
            json.dump({"fields": ["id", "fn", "start_ns", "end_ns", "parent", "op"],
                       "names": self.names, "layers": self.layers,
                       "spans": self.spans}, fh, separators=(",", ":"))
