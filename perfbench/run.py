"""Run one benchmark workload and print its metrics.

From the repository root:

    python3 perfbench/run.py --workload pt2pt_L --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation:
set-up repeated (see ``SETUP_REPS``), one warm-up pass, then passes until
``--seconds`` have elapsed (at least ``MIN_PASSES``).  Host times are
medians, each normalised by a host-speed probe run just before it (see
``hostspeed.py``); the raw times go to the written record.
``--trace 1`` reports the per-layer metrics instead: one pass with
constructor capture for the deterministic counters, one attributed run
for the per-stage simulated waits, then untraced and traced passes in
turn until ``--seconds`` have elapsed since the run began.  Every pass's
simulated outputs are checked against the committed reference digest for
the seed (or, for a seed without one, against physical invariants), and
every pass must reproduce the first bit for bit.

Prints one line per metric (name, value, unit), a provenance line, and as
the last line one JSON object: ``correct``, ``attempted`` and ``failed``
(driver calls made and calls whose outputs failed a check or raised) and
``metrics``.  Exits 1 when any check failed, 2 when the simulator's
sources are missing.  Also writes the full record, and for ``--trace 1``
the kept spans, under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Callable, NamedTuple, Optional

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: The seed later claims are developed on, and one held out to confirm them.
DEFAULT_SEED = 1
HELDOUT_SEED = 9001

#: Set-up is repeated at least SETUP_REPS times and for at least
#: SETUP_SECONDS; ``setup_s`` is the median.
SETUP_REPS = 9
SETUP_SECONDS = 1.5
SETUP_BLOCK_SECONDS = 0.2
MIN_PASSES = 3
#: Iterations of the attributed ping-pong behind the ``stage.*`` metrics.
ATTR_LAT_ITERS = 200
STAGES = ("doorbell", "rx_arrive", "tx_wire", "rx_port", "cqe", "cc_pace")


def declared_metrics(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


# -- provenance ----------------------------------------------------------------------


def _git(*args: str) -> Optional[str]:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", *args], cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=20)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def source_digest() -> str:
    """SHA-256 over the simulator's sources, for checkouts without git."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def provenance(workload: str, seed: int, passes: int, reference: str) -> dict:
    import numpy

    revision = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain", "--untracked-files=no") if revision else None
    return {
        "workload": workload, "seed": seed, "passes": passes,
        "default_seed": DEFAULT_SEED, "heldout_seed": HELDOUT_SEED,
        "git_revision": revision,
        "git_dirty": None if status is None else bool(status),
        "source_sha256": source_digest(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "cpu_model": _cpu_model(), "nproc": os.cpu_count(),
        "reference": reference,
    }


# -- one run -------------------------------------------------------------------------


class Pass(NamedTuple):
    records: list
    #: Summed wall seconds of the pass's driver calls, as measured.
    raw_s: float
    #: The same, normalised by the host-speed probe (see hostspeed.py).
    norm_s: float


class Checker:
    """Runs passes and checks every one: reference digest, invariants,
    repeatability."""

    def __init__(self, workloads, inputs, expected: Optional[str],
                 probe: hostspeed.HostSpeedProbe) -> None:
        self.workloads = workloads
        self.inputs = inputs
        self.expected = expected
        self.probe = probe
        self.first: Optional[str] = None
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def run(self, label: str, tag: Optional[Callable[[int], None]] = None) -> Optional[Pass]:
        """One checked pass with a host-speed probe before every driver call;
        None if it raised."""
        n = len(self.inputs)
        self.attempted += n
        probes: list[float] = []

        def before_call(i: int) -> None:
            probes.append(self.probe.seconds())
            if tag is not None:
                tag(i)

        try:
            records, raw = self.workloads.run_pass(self.inputs, before_call)
        except Exception:  # noqa: BLE001 - a crash fails the pass, not the run
            self.failed += n
            self.errors.append(f"{label}: raised\n{traceback.format_exc()}")
            return None
        self.check(label, records)
        return Pass(records, raw, raw * hostspeed.REFERENCE_S / statistics.fmean(probes))

    def check(self, label: str, records: list[dict]) -> bool:
        got = self.workloads.digest(records)
        problems = self.workloads.invariants(self.inputs, records)
        if self.expected is not None and got != self.expected:
            problems.append(f"digest {got[:16]} != reference {self.expected[:16]}")
        if self.first is None:
            self.first = got
        elif got != self.first:
            problems.append(f"digest {got[:16]} differs from the first pass")
        if problems:
            self.failed += len(self.inputs)
            self.errors.append(f"{label}: " + "; ".join(problems))
        return not problems


def measure_setup(workloads, workload: str, inputs,
                  probe: hostspeed.HostSpeedProbe) -> list[float]:
    """Normalised set-up times: blocks of repetitions, each block scaled by
    the mean of the host-speed probes run just before and after it."""
    setups: list[float] = []
    before = probe.seconds()
    while len(setups) < SETUP_REPS or sum(setups) < SETUP_SECONDS:
        block: list[float] = []
        block_end = time.perf_counter() + SETUP_BLOCK_SECONDS
        while not block or time.perf_counter() < block_end:
            start = time.perf_counter()
            workloads.setup_once(workload, inputs)
            block.append(time.perf_counter() - start)
        after = probe.seconds()
        scale = hostspeed.REFERENCE_S / ((before + after) / 2)
        setups.extend(t * scale for t in block)
        before = after
    return setups


def measure_end_to_end(workloads, checker: Checker, workload: str,
                       seconds: float) -> tuple[dict, list[Pass]]:
    setups = measure_setup(workloads, workload, checker.inputs, checker.probe)
    first = checker.run("warm-up")
    if first is None:
        return {}, []
    passes: list[Pass] = []
    deadline = time.perf_counter() + seconds
    while len(passes) < MIN_PASSES or time.perf_counter() < deadline:
        done = checker.run(f"pass {len(passes) + 1}")
        if done is None:
            break
        passes.append(done)
    metrics = {
        "wall_s": statistics.median(p.norm_s for p in passes),
        "setup_s": statistics.median(setups),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                         - checker.probe.footprint_kib) / 1024.0,
    }
    sim = workloads.outcome(first.records)
    for name in ("sim_goodput_gbit", "cord_slowdown", "delivered_op_ratio"):
        metrics[name] = sim[name]
    return metrics, passes


def _stage_metrics(inputs) -> dict[str, float]:
    """Mean simulated queueing and service per op and stage, over one
    attributed run of the workload's CoRD side (zero where the workload
    has no attributed driver, as for NPB)."""
    from repro.perftest.incast import run_incast_attributed
    from repro.perftest.runner import run_attributed
    from repro.telemetry import aggregate, attribute_spans, build_spans
    from repro.telemetry.attribution import base_stage

    totals = {f"stage.{s}.{part}": 0.0 for s in STAGES for part in ("queue_ns", "service_ns")}
    cord = [m for m in inputs if m.dataplane == "cord"]
    if cord[0].kind == "incast":
        _result, sim = run_incast_attributed(cord[0].config)
    elif cord[0].kind in ("lat", "bw"):
        lat = next(m for m in cord if m.kind == "lat")
        _result, sim, _pair = run_attributed(
            lat.config.with_(iters=ATTR_LAT_ITERS), lat.size, "lat")
    else:
        return totals
    tables = aggregate(attribute_spans(build_spans(sim.trace, op="post_send")))
    ops = sum(t.ops for t in tables)
    for table in tables:
        for name, st in table.stages.items():
            base = base_stage(name)
            if base in STAGES:
                totals[f"stage.{base}.queue_ns"] += st.queue_ns / ops
                totals[f"stage.{base}.service_ns"] += st.service_ns / ops
    return totals


def measure_per_layer(workloads, checker: Checker, seconds: float,
                      spans_path: Path) -> tuple[dict, list[Pass]]:
    from layers import LAYERS, Capture, Tracer
    from repro.perftest.runner import run_stats_snapshot

    deadline = time.perf_counter() + seconds
    before = run_stats_snapshot()
    with Capture() as capture:
        first = checker.run("counters")
    if first is None:
        return {}, []
    skipped = run_stats_snapshot()["ff_events_skipped"] - before["ff_events_skipped"]
    metrics: dict[str, float] = dict(capture.counters())
    metrics.update(workloads.outcome(first.records))
    metrics.update(_stage_metrics(checker.inputs))

    tracer = Tracer()
    inside = tracer.inside_share()
    untraced: list[Pass] = []
    traced: list[Pass] = []
    span_costs: list[float] = []
    per_pass: list[dict] = []

    def tag(i: int) -> None:
        tracer.op = i

    while not traced or time.perf_counter() < deadline:
        done = checker.run(f"untraced {len(untraced) + 1}")
        if done is None:
            break
        untraced.append(done)
        tracer.reset_counts()
        with tracer:
            done = checker.run(f"traced {len(traced) + 1}", tag)
        if done is None:
            break
        traced.append(done)
        # The tracer's cost per span is what tracing added to this pass
        # over the untraced pass just before it, in raw ns at this pass's
        # host speed.
        scale = done.norm_s / done.raw_s
        spans = sum(tracer.calls)
        cost_ns = max(0.0, (done.norm_s - untraced[-1].norm_s) / scale / spans * 1e9)
        span_costs.append(cost_ns * scale)
        per_pass.append({layer: (calls, self_s * scale) for layer, (calls, self_s)
                         in tracer.by_layer(cost_ns, inside).items()})
        tracer.recording = False  # spans are kept from the first traced pass
    if not traced:
        return {}, untraced + traced
    tracer.write_spans(str(spans_path))

    events = metrics["sim.engine.events"]
    wall = statistics.median(p.norm_s for p in untraced)
    metrics["sim.engine.host_ns_per_event"] = wall / events * 1e9
    metrics["sim.fastforward.events_skipped"] = skipped
    metrics["sim.fastforward.skip_ratio"] = skipped / (skipped + events)
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = per_pass[0][layer][0]
        metrics[f"{layer}.self_s"] = statistics.median(p[layer][1] for p in per_pass)
    metrics["trace.overhead"] = statistics.median(p.norm_s for p in traced) / wall
    metrics["trace.spans"] = sum(calls for calls, _ in per_pass[0].values())
    metrics["trace.span_cost_ns"] = statistics.median(span_costs)
    return metrics, untraced + traced


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="CoRD simulator benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # The simulator must come from this checkout, never from an install.
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import reference
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    units = declared_metrics(bool(args.trace))

    inputs = workloads.make_inputs(args.workload, args.seed)
    expected = reference.lookup(args.workload, args.seed)
    checker = Checker(workloads, inputs, expected, hostspeed.HostSpeedProbe())
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        metrics, passes = measure_per_layer(workloads, checker, args.seconds,
                                            OUT / f"{stem}.spans.json")
    else:
        metrics, passes = measure_end_to_end(workloads, checker, args.workload,
                                             args.seconds)

    missing = sorted(set(units) - set(metrics))
    if metrics and missing:
        checker.errors.append(f"metrics not emitted: {missing}")
    correct = not checker.errors
    ref_state = "committed" if expected else "none: invariants and repeatability only"
    prov = provenance(args.workload, args.seed, checker.attempted // len(inputs), ref_state)
    result = {
        "correct": correct,
        "attempted": checker.attempted,
        "failed": checker.failed if correct else max(checker.failed, 1),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items() if name in metrics},
    }
    with open(OUT / f"{stem}.json", "w") as fh:
        json.dump({"provenance": prov, "result": result,
                   "pass_raw_s": [p.raw_s for p in passes],
                   "pass_norm_s": [p.norm_s for p in passes],
                   "digest": checker.first, "errors": checker.errors}, fh, indent=1)
    for error in checker.errors:
        print(f"perfbench: FAILED {error}", file=sys.stderr)
    width = max(map(len, units))
    for name, entry in result["metrics"].items():
        print(f"{name:<{width}}  {entry['value']!r:>24}  {entry['unit']}")
    print("provenance: " + json.dumps(prov, sort_keys=True))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
