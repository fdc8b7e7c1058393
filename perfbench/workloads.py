"""The benchmark's workloads: inputs generated from a seed, one pass
through the public drivers, the pass's outcome, its digest and the
physical invariants every pass must satisfy.

Every workload is closed loop and runs in this one process (no worker
pool).  Each runs the same work on the bypass and the CoRD dataplane, with
the two sides of every pair sharing a simulator seed, so CoRD-over-bypass
ratios compare identical inputs.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import time
from dataclasses import asdict, dataclass
from typing import Callable, Optional

import numpy as np
from repro.cluster import build_cluster, build_pair
from repro.core.endpoint import make_rc_pair
from repro.hw.profiles import get_profile
from repro.mpi import MpiWorld
from repro.npb.base import NpbConfig
from repro.npb.runner import run_npb
from repro.perftest.incast import IncastConfig, build_incast, run_incast
from repro.perftest.runner import PerftestConfig, run_bw, run_lat
from repro.sim import Simulator

WORKLOADS = ("pt2pt_L", "pt2pt_A_ff", "incast_64to1", "npb_4host")

DATAPLANES = ("bypass", "cord")

#: perftest shape (both pt2pt workloads).
PT_SIZES = (64, 64 * 1024)
PT_LAT_ITERS = 1000
PT_BW_ITERS = 2000
PT_WINDOW = 64
PT_BUF_BYTES = 16 * 1024 * 1024
#: The ping-pong whose samples make ``sim_lat_p50_us``/``sim_lat_p99_us``.
LAT_PROBE = ("cord", 64)

#: incast shape.
INCAST_SENDERS = 64
INCAST_SIZE = 64 * 1024
INCAST_MSGS = 32
INCAST_WINDOW = 16
INCAST_BUFFER = 1 << 20
#: Independent simulator seeds per pass: drop patterns differ by seed, so
#: two runs halve the seed-to-seed spread of the simulated outcome.
INCAST_RUNS = 2

#: NPB shape (the paper's fig. 6 at a tenth of the iterations).
NPB_KERNELS = ("IS", "CG", "MG")
NPB_RANKS = 16
NPB_HOSTS = 4
NPB_SYSTEM = "A"


@dataclass(frozen=True)
class Measurement:
    """One call into a public driver: the generated input of the pass."""

    kind: str  # "lat" | "bw" | "incast" | "npb"
    dataplane: str
    #: Pairs a CoRD measurement with its bypass twin.
    key: str
    size: int
    config: object

    def run(self) -> object:
        if self.kind == "lat":
            return run_lat(self.config, self.size)
        if self.kind == "bw":
            return run_bw(self.config, self.size)
        if self.kind == "incast":
            return run_incast(self.config)
        cfg, system, seed = self.config
        return run_npb(cfg, transport=self.dataplane, system=system,
                       hosts_n=NPB_HOSTS, seed=seed)


def _seeds(workload: str, seed: int) -> Callable[[], int]:
    rng = random.Random(f"{workload}/{seed}")
    return lambda: rng.randrange(1, 2**31)


def _pt2pt_inputs(workload: str, seed: int) -> list[Measurement]:
    system, ff = ("L", False) if workload == "pt2pt_L" else ("A", True)
    draw = _seeds(workload, seed)
    pairs = [(kind, op, size, draw())
             for size in PT_SIZES
             for kind, op in (("lat", "send"), ("bw", "send"), ("bw", "read"))]
    out = []
    for dp in DATAPLANES:
        for kind, op, size, sim_seed in pairs:
            iters = PT_LAT_ITERS if kind == "lat" else PT_BW_ITERS
            cfg = PerftestConfig(system=system, op=op, client=dp, server=dp,
                                 iters=iters, window=PT_WINDOW, seed=sim_seed,
                                 buf_bytes=PT_BUF_BYTES, fastforward=ff)
            out.append(Measurement(kind, dp, f"{kind}:{op}:{size}", size, cfg))
    return out


def _incast_inputs(workload: str, seed: int) -> list[Measurement]:
    draw = _seeds(workload, seed)
    out = []
    for run in range(INCAST_RUNS):
        sim_seed = draw()
        out.extend(
            Measurement("incast", dp, f"incast:{run}", INCAST_SIZE, IncastConfig(
                system="L", dataplane=dp, senders=INCAST_SENDERS,
                size=INCAST_SIZE, msgs_per_sender=INCAST_MSGS,
                window=INCAST_WINDOW, seed=sim_seed,
                buffer_bytes=INCAST_BUFFER, congestion="dcqcn"))
            for dp in DATAPLANES)
    return out


def _npb_inputs(workload: str, seed: int) -> list[Measurement]:
    draw = _seeds(workload, seed)
    out = []
    for name in NPB_KERNELS:
        cfg = NpbConfig(name=name, klass="B", ranks=NPB_RANKS, iter_scale=0.1)
        sim_seed = draw()
        out.extend(Measurement("npb", dp, f"npb:{name}", 0,
                               (cfg, NPB_SYSTEM, sim_seed))
                   for dp in DATAPLANES)
    return out


def make_inputs(workload: str, seed: int) -> list[Measurement]:
    """The measurements one pass of ``workload`` runs, generated from ``seed``."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    if workload.startswith("pt2pt"):
        return _pt2pt_inputs(workload, seed)
    if workload == "incast_64to1":
        return _incast_inputs(workload, seed)
    return _npb_inputs(workload, seed)


# -- set-up --------------------------------------------------------------------


def setup_once(workload: str, inputs: list[Measurement]) -> None:
    """Build every distinct testbed of the workload once through the public
    set-up calls: cluster build, endpoint creation and QP connect (MPI
    worlds connect lazily, so for NPB it is cluster build plus world
    construction)."""
    seen = set()
    for m in inputs:
        ident = (m.kind == "incast", m.dataplane, m.key if m.kind == "npb" else "")
        if ident in seen:
            continue
        seen.add(ident)
        if m.kind in ("lat", "bw"):
            cfg = m.config
            sim = Simulator(seed=cfg.seed)
            _fabric, a, b = build_pair(sim, get_profile(cfg.system))
            sim.run(sim.process(make_rc_pair(a, b, cfg.client, cfg.server,
                                             buf_bytes=cfg.buf_bytes)))
        elif m.kind == "incast":
            build_incast(Simulator(seed=m.config.seed), m.config)
        else:
            cfg, system, seed = m.config
            sim = Simulator(seed=seed)
            _fabric, hosts = build_cluster(sim, get_profile(system), NPB_HOSTS)
            MpiWorld(sim, hosts, cfg.ranks, transport=m.dataplane)


# -- outcome, digest and invariants -----------------------------------------------


def record(m: Measurement, result: object) -> dict:
    """Every simulated output of one measurement, as exact JSON values."""
    head = {"kind": m.kind, "dataplane": m.dataplane, "key": m.key}
    if m.kind == "lat":
        return {**head, "samples_ns": [float(s) for s in result.samples]}
    if m.kind == "bw":
        return {**head, "duration_ns": float(result.duration_ns),
                "bytes": result.bytes_moved, "retransmits": result.retransmits,
                "ack_timeouts": result.ack_timeouts}
    if m.kind == "incast":
        fields = asdict(result)
        fields.pop("config")
        fields["flow_goodputs_gbit"] = [float(g) for g in fields["flow_goodputs_gbit"]]
        fields["bytes_delivered"] = result.bytes_delivered
        fields["msgs_attempted"] = m.config.senders * m.config.msgs_per_sender
        return {**head, **{k: (float(v) if isinstance(v, float) else v)
                           for k, v in fields.items()}}
    fields = asdict(result)
    return {**head, **fields, "elapsed_ns": float(result.elapsed_ns)}


def digest(records: list[dict]) -> str:
    """SHA-256 over the canonical JSON of a pass's records (floats exact)."""
    text = json.dumps(records, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _sim_time_ns(rec: dict) -> float:
    if rec["kind"] == "lat":
        return sum(rec["samples_ns"])
    return rec["duration_ns"] if "duration_ns" in rec else rec["elapsed_ns"]


def _geomean(values: list[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def _rate(records: list[dict], dataplane: str) -> float:
    """Bytes delivered per simulated ns over one dataplane's incast runs."""
    mine = [r for r in records if r["dataplane"] == dataplane]
    return sum(r["bytes_delivered"] for r in mine) / sum(r["duration_ns"] for r in mine)


def _jain(values: list[float]) -> float:
    squares = sum(v * v for v in values)
    return sum(values) ** 2 / (len(values) * squares) if squares else 0.0


def _sim_ops(rec: dict) -> tuple[int, int]:
    """(attempted, failed) simulated operations of one measurement."""
    if rec["kind"] == "lat":
        return len(rec["samples_ns"]), 0
    if rec["kind"] == "bw":
        return rec["bytes"] // _size_of(rec), 0
    if rec["kind"] == "incast":
        return rec["msgs_attempted"], rec["failed_msgs"]
    return rec["msgs_sent_total"], 0


def _size_of(rec: dict) -> int:
    return int(rec["key"].rsplit(":", 1)[1])


def outcome(records: list[dict]) -> dict[str, float]:
    """The simulated metrics of one pass (see README.md for definitions)."""
    by = {(r["dataplane"], r["key"]): r for r in records}
    keys = sorted({r["key"] for r in records})
    ratios = [_sim_time_ns(by["cord", k]) / _sim_time_ns(by["bypass", k]) for k in keys]
    moved = [r for r in records if r["kind"] != "lat"]
    bits = sum(8.0 * (r["bytes"] if r["kind"] == "bw" else
                      r["bytes_delivered"] if r["kind"] == "incast" else
                      r["bytes_sent_total"]) for r in moved)
    attempted = failed = 0
    for r in records:
        a, f = _sim_ops(r)
        attempted += a
        failed += f
    out = {
        "sim_goodput_gbit": bits / sum(_sim_time_ns(r) for r in moved),
        "cord_slowdown": _geomean(ratios),
        "delivered_op_ratio": (attempted - failed) / attempted,
        "failed_op_ratio": failed / attempted,
        "sim_ops_attempted": attempted,
        "sim_ops_failed": failed,
        "sim_lat_p50_us": 0.0, "sim_lat_p99_us": 0.0, "sim_lat_samples": 0,
        "cord_lat_overhead_us": 0.0, "cord_tput_ratio": 0.0,
        "flow_jain": 0.0, "flow_goodput_min_gbit": 0.0, "flow_goodput_max_gbit": 0.0,
    }
    dp, size = LAT_PROBE
    probe = by.get((dp, f"lat:send:{size}"))
    if probe is not None:
        samples = probe["samples_ns"]
        base = by["bypass", f"lat:send:{size}"]["samples_ns"]
        p50, p99 = np.percentile(samples, [50, 99])
        out["sim_lat_p50_us"] = float(p50) / 1e3
        out["sim_lat_p99_us"] = float(p99) / 1e3
        out["sim_lat_samples"] = len(samples)
        out["cord_lat_overhead_us"] = float(p50 - np.percentile(base, 50)) / 1e3
        bw_key = f"bw:send:{size}"
        out["cord_tput_ratio"] = (by["bypass", bw_key]["duration_ns"]
                                  / by["cord", bw_key]["duration_ns"])
    incast = [r for r in records if r["kind"] == "incast"]
    if incast:
        flows = [g for r in incast for g in r["flow_goodputs_gbit"]]
        out["flow_jain"] = _jain(flows)
        out["flow_goodput_min_gbit"] = min(flows)
        out["flow_goodput_max_gbit"] = max(flows)
        out["cord_tput_ratio"] = _rate(incast, "cord") / _rate(incast, "bypass")
    return out


def invariants(inputs: list[Measurement], records: list[dict]) -> list[str]:
    """Physical sanity of a pass's outputs; returns the violations found.

    Used on every pass, and as the whole check for a seed that has no
    committed reference digest.
    """
    problems = []
    if [(m.dataplane, m.key) for m in inputs] != [(r["dataplane"], r["key"]) for r in records]:
        return ["records do not match the generated inputs"]
    by = {(r["dataplane"], r["key"]): r for r in records}
    for m, r in zip(inputs, records):
        where = f"{m.dataplane} {m.key}"
        if m.kind == "lat":
            s = r["samples_ns"]
            if len(s) != m.config.iters or not all(0 < x < math.inf for x in s):
                problems.append(f"{where}: bad latency samples")
            elif m.dataplane == "cord" and (
                    min(s) < min(by["bypass", m.key]["samples_ns"])):
                problems.append(f"{where}: CoRD faster than bypass")
        elif m.kind in ("bw", "incast"):
            system = m.config.system
            link = get_profile(system).nic.link_bw
            moved = r["bytes"] if m.kind == "bw" else r["bytes_delivered"]
            if not r["duration_ns"] > 0 or moved / r["duration_ns"] > link * (1 + 1e-9):
                problems.append(f"{where}: goodput above the link or no duration")
            if m.kind == "incast" and not (
                    0 <= r["failed_msgs"] <= r["msgs_attempted"]
                    and len(r["flow_goodputs_gbit"]) == m.config.senders
                    and all(0 <= g <= 8 * link * (1 + 1e-9)
                            for g in r["flow_goodputs_gbit"])):
                problems.append(f"{where}: incast accounting out of range")
        else:
            twin = by["bypass", m.key]
            if not r["elapsed_ns"] > 0 or r["msgs_sent_total"] <= 0 or (
                    r["msgs_sent_total"], r["bytes_sent_total"]) != (
                    twin["msgs_sent_total"], twin["bytes_sent_total"]):
                problems.append(f"{where}: NPB run inconsistent")
    return problems


def run_pass(inputs: list[Measurement],
             before_call: Optional[Callable[[int], None]] = None,
             ) -> tuple[list[dict], float]:
    """One pass: every measurement through its public driver, in order.

    ``before_call(i)`` runs before measurement ``i``, outside the timing
    (the host-speed probe and the tracer's op tag use it).  Returns the
    records and the summed wall seconds of the driver calls.
    """
    out = []
    seconds = 0.0
    for i, m in enumerate(inputs):
        if before_call is not None:
            before_call(i)
        start = time.perf_counter()
        result = m.run()
        seconds += time.perf_counter() - start
        out.append(record(m, result))
    return out, seconds
