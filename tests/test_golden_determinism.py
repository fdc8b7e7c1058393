"""Golden determinism: benchmark numbers are bit-stable, not just "close".

Properties the perf work must never break:

1. **Observers are invisible.**  Fast-forward and full telemetry must
   leave every measured bit unchanged.
2. **Golden values.**  One RC-send point per dataplane on system L (whose
   profile disables turbo and syscall jitter, so the numbers are plain
   float arithmetic — no libm variance) must reproduce exactly, and so
   must the CoRD point on jittered system A.  A perf change that shifts
   these numbers changed simulation semantics, not just speed.
3. **Worker-count invariance.**  ``parallel_sweep`` must return the same
   bits serially and fanned over processes, in point order.
4. **Multi-host tie order.**  Two NPB points on a 4-host cluster, where
   fabric ports, NIC engines and cores all see same-timestamp ties, must
   reproduce exactly.  A serial server that schedules a queued job's
   completion at admission (rather than when its predecessor completes)
   allocates its heap sequence number too early and flips such ties;
   these points catch it.
5. **Kernel and storage locks.**  Three IPoIB NPB points reach the
   softirq lock and the socket receive store; six NVMe throughput points
   reach the device's channel lock (32 slots) and its bus lock.  No
   other golden touches these multi-slot servers.
"""

import pytest

from repro.bench_support import parallel_sweep
from repro.perftest.runner import PerftestConfig, run_bw, run_lat

#: Small fixed workload — independent of REPRO_BENCH_SCALE on purpose.
SIZE = 4096
ITERS = 60
WARMUP = 10
WINDOW = 16

#: Exact values at seed 7 for the workload above (see property 2).
GOLDEN = {
    "bypass": {
        "bw_duration_ns": 22546.400000001304,
        "bw_gbit_per_s": 87.20150445303402,
        "lat_avg_us": 2.2915200000000184,
    },
    "cord": {
        "bw_duration_ns": 32771.52000000002,
        "bw_gbit_per_s": 59.99355537979315,
        "lat_avg_us": 3.3865200000000186,
    },
}


#: Exact CoRD values on system A for the same workload: lognormal syscall
#: jitter and DVFS ``exp()`` decay make it the hardest case for event order.
GOLDEN_SYSTEM_A = {
    "bw_duration_ns": 32632.827187161893,
    "bw_gbit_per_s": 60.24853405203816,
    "lat_avg_us": 4.385432118460125,
}


#: Exact NPB class B elapsed times, 16 ranks on 4 system-A hosts:
#: kernel -> (transport, iter_scale, sim seed, elapsed_ns).  System A runs
#: the DVFS governor, so like perfbench's ``npb_4host`` digests these go
#: through libm ``exp``.
NPB_GOLDEN = {
    "CG": ("bypass", 0.02, 11, 8992785.766219512),
    "MG": ("cord", 0.1, 717444363, 9140579.858520944),
}


#: Exact IPoIB NPB class B elapsed times, 16 ranks on 4 system-A hosts at
#: seed 11: kernel -> (iter_scale, elapsed_ns).
NPB_IPOIB_GOLDEN = {
    "CG": (0.02, 9643330.12355747),
    "IS": (0.1, 13273463.55150522),
    "MG": (0.1, 9519970.181698218),
}


#: Exact NVMe read throughput (bytes/ns) for 256 reads at queue depth 32
#: (the blocking ``blk`` path runs one IO at a time), seed 3, system L:
#: (dataplane, block bytes) -> throughput.
NVME_GOLDEN = {
    ("spdk", 4096): 6.625742298591944,
    ("spdk", 65536): 6.85602502169681,
    ("cord", 4096): 6.595319906930805,
    ("cord", 65536): 6.853980375285013,
    ("blk", 4096): 0.34244495395042657,
    ("blk", 65536): 3.135432269241524,
}


def _cfg(dataplane: str, system: str = "L") -> PerftestConfig:
    return PerftestConfig(system=system, client=dataplane, server=dataplane,
                          iters=ITERS, warmup=WARMUP, window=WINDOW)


def _measure(dataplane: str, system: str = "L") -> dict:
    cfg = _cfg(dataplane, system)
    bw = run_bw(cfg, SIZE)
    lat = run_lat(cfg, SIZE)
    return {
        "bw_duration_ns": bw.duration_ns,
        "bw_gbit_per_s": bw.gbit_per_s,
        "lat_avg_us": lat.avg_us,
    }


@pytest.mark.parametrize("dataplane", ["bypass", "cord"])
def test_golden_values_system_l(dataplane):
    measured = _measure(dataplane)
    for key, want in GOLDEN[dataplane].items():
        got = measured[key]
        assert repr(got) == repr(want), (
            f"{dataplane}/{key}: got {got!r}, golden {want!r} — a perf "
            "change altered simulation results"
        )


def test_golden_values_system_a_jittered():
    measured = _measure("cord", system="A")
    assert {k: repr(v) for k, v in measured.items()} == \
           {k: repr(v) for k, v in GOLDEN_SYSTEM_A.items()}


@pytest.mark.parametrize("kernel", sorted(NPB_GOLDEN))
def test_golden_values_npb_multi_host(kernel):
    from repro.npb import NpbConfig
    from repro.npb.runner import run_npb

    transport, iter_scale, seed, want = NPB_GOLDEN[kernel]
    cfg = NpbConfig(name=kernel, klass="B", ranks=16, iter_scale=iter_scale)
    got = run_npb(cfg, transport=transport, system="A", hosts_n=4,
                  seed=seed).elapsed_ns
    assert repr(got) == repr(want), (
        f"NPB {kernel}/{transport}: got {got!r}, golden {want!r} — a "
        "same-timestamp tie changed order"
    )


@pytest.mark.parametrize("kernel", sorted(NPB_IPOIB_GOLDEN))
def test_golden_values_npb_ipoib(kernel):
    from repro.npb import NpbConfig
    from repro.npb.runner import run_npb

    iter_scale, want = NPB_IPOIB_GOLDEN[kernel]
    cfg = NpbConfig(name=kernel, klass="B", ranks=16, iter_scale=iter_scale)
    got = run_npb(cfg, transport="ipoib", system="A", hosts_n=4,
                  seed=11).elapsed_ns
    assert repr(got) == repr(want), (
        f"NPB {kernel}/ipoib: got {got!r}, golden {want!r}"
    )


def _nvme_throughput(kind: str, nbytes: int, total: int = 256,
                     depth: int = 32) -> float:
    from repro.hw.cpu import Core
    from repro.hw.profiles import SYSTEM_L
    from repro.sim import Simulator
    from repro.storage import (
        CordStorageDataplane,
        KernelBlockDataplane,
        NvmeDevice,
        SpdkDataplane,
    )
    from repro.storage.dataplane import make_command

    sim = Simulator(seed=3)
    device = NvmeDevice(sim)
    core = Core(sim, SYSTEM_L)
    kinds = {"spdk": SpdkDataplane, "cord": CordStorageDataplane,
             "blk": KernelBlockDataplane}
    dp = kinds[kind](device, core, SYSTEM_L)

    def main():
        t0 = sim.now
        if kind == "blk":
            for i in range(total):
                yield from dp.run_io(make_command("read", i, nbytes))
        else:
            submitted = done = 0
            while done < total:
                while submitted < total and dp.qp.outstanding < depth:
                    yield from dp.submit(make_command("read", submitted, nbytes))
                    submitted += 1
                cmds = yield from dp.wait()
                done += len(cmds)
        return total * nbytes / (sim.now - t0)

    return sim.run(sim.process(main()))


@pytest.mark.parametrize("kind,nbytes", sorted(NVME_GOLDEN))
def test_golden_values_nvme_throughput(kind, nbytes):
    got = _nvme_throughput(kind, nbytes)
    want = NVME_GOLDEN[(kind, nbytes)]
    assert repr(got) == repr(want), (
        f"NVMe {kind}/{nbytes}: got {got!r}, golden {want!r}"
    )


@pytest.mark.parametrize("dataplane", ["bypass", "cord"])
def test_fastforward_bit_identical(dataplane, monkeypatch):
    """Steady-state fast-forward must be invisible in the golden values:
    the armed run skips cycles yet reproduces the exact bits (property 1
    for the extrapolation layer; the full matrix lives in
    tests/test_fastforward.py)."""
    base = _measure(dataplane)
    monkeypatch.setenv("REPRO_FASTFORWARD", "1")
    ff = _measure(dataplane)
    assert {k: repr(v) for k, v in base.items()} == \
           {k: repr(v) for k, v in ff.items()}
    for key, want in GOLDEN[dataplane].items():
        assert repr(ff[key]) == repr(want)


@pytest.mark.parametrize("dataplane", ["bypass", "cord"])
def test_telemetry_bit_identical(dataplane, monkeypatch, tmp_path):
    """Full telemetry (tracing + metrics + exporters) is observation only:
    enabling it must not move a single bit of any measured result."""
    baseline = _measure(dataplane)
    monkeypatch.setenv("REPRO_TELEMETRY", "1")
    monkeypatch.setenv("REPRO_TELEMETRY_DIR", str(tmp_path))
    with_tele = _measure(dataplane)
    assert {k: repr(v) for k, v in baseline.items()} == \
           {k: repr(v) for k, v in with_tele.items()}
    # The runs really did trace + export (not a silently-off telemetry path).
    assert list(tmp_path.glob("*.trace.json"))
    assert list(tmp_path.glob("*.metrics.json"))


@pytest.mark.parametrize("dataplane", ["bypass", "cord"])
def test_faults_on_golden_determinism(dataplane):
    """Fault injection draws from named rng streams only: a faults-on run
    must be bit-identical to itself, actually exercise loss recovery, and
    a zero-loss plan must be bit-identical to no plan at all."""
    from repro.faults import FaultPlan

    lossy = _cfg(dataplane).with_(faults=FaultPlan(loss=0.05))
    r1 = run_bw(lossy, SIZE)
    r2 = run_bw(lossy, SIZE)
    assert repr(r1.duration_ns) == repr(r2.duration_ns)
    assert (r1.retransmits, r1.ack_timeouts) == (r2.retransmits, r2.ack_timeouts)
    assert r1.retransmits > 0  # recovery really ran

    clean = run_bw(_cfg(dataplane), SIZE)
    hooked = run_bw(_cfg(dataplane).with_(faults=FaultPlan(loss=0.0)), SIZE)
    assert repr(hooked.duration_ns) == repr(clean.duration_ns)
    assert repr(clean.duration_ns) == repr(GOLDEN[dataplane]["bw_duration_ns"])
    assert hooked.retransmits == 0


@pytest.mark.parametrize("dataplane", ["bypass", "cord"])
def test_sanitizers_on_bit_identical_and_clean(dataplane, monkeypatch):
    """``REPRO_SANITIZE=1`` is observation only: the instrumented dispatch
    loop and rng proxies must not move a single bit of any result, and the
    golden no-fault workloads must produce zero runtime findings."""
    from repro.sanitize import drain_global_findings

    baseline = _measure(dataplane)
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    drain_global_findings()
    sanitized = _measure(dataplane)
    findings = drain_global_findings()
    assert findings == [], "\n".join(f.text() for f in findings)
    assert {k: repr(v) for k, v in baseline.items()} == \
           {k: repr(v) for k, v in sanitized.items()}


def test_sanitizers_on_jittered_bit_identical(monkeypatch):
    """System A (syscall jitter + DVFS decay) draws heavily from the rng
    streams the sanitizer wraps — the hardest case for proxy invisibility."""
    from repro.sanitize import drain_global_findings

    baseline = _measure("cord", system="A")
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    drain_global_findings()
    sanitized = _measure("cord", system="A")
    assert drain_global_findings() == []
    assert {k: repr(v) for k, v in baseline.items()} == \
           {k: repr(v) for k, v in sanitized.items()}


@pytest.mark.parametrize("dataplane", ["bypass", "cord"])
def test_rx_contention_on_seed_stability(dataplane):
    """The receiver-side contention model must be exactly as deterministic
    as the rest of the engine: a contended 4→1 incast reruns bit-identical
    (including queue peaks and attribution-relevant flow spans), and the
    two-host golden workloads — where ``rx_contention`` stays off under
    ``"auto"`` — still reproduce their committed values bit for bit."""
    from repro.perftest.incast import IncastConfig, run_incast

    cfg = IncastConfig(dataplane=dataplane, senders=4, size=16 * 1024,
                       msgs_per_sender=10, window=8, seed=7)
    r1 = run_incast(cfg)
    r2 = run_incast(cfg)
    assert repr(r1.duration_ns) == repr(r2.duration_ns)
    assert tuple(map(repr, r1.flow_goodputs_gbit)) == \
           tuple(map(repr, r2.flow_goodputs_gbit))
    assert r1.rx_queue_peak_bytes == r2.rx_queue_peak_bytes > 0

    golden = run_bw(_cfg(dataplane), SIZE)
    assert repr(golden.duration_ns) == repr(GOLDEN[dataplane]["bw_duration_ns"])


def _sweep_point(size: int) -> float:
    return run_bw(_cfg("bypass"), size).duration_ns


def test_parallel_sweep_worker_invariance():
    sizes = [256, 4096, 65536]
    serial = parallel_sweep(_sweep_point, sizes, workers=1)
    fanned = parallel_sweep(_sweep_point, sizes, workers=2)
    assert [repr(x) for x in serial] == [repr(x) for x in fanned]
