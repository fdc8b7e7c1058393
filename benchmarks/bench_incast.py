"""Incast benchmark — N→1 fan-in under receiver-side fabric contention.

Sweeps the sender count (N ∈ {2, 4, 8, 16}) for a bypass (BP) and a CoRD
(CD) dataplane, all senders streaming RDMA writes at one receiver host.
With the receiver-side contention model on (the default for >2-host
clusters), all flows share the receiver's switch output port, so the
aggregate receive rate caps at one link's bandwidth and per-flow goodput
falls as 1/N.  The sweep also runs one point with the legacy
source-port-only fabric (``rx_contention=False``) to expose the modeling
bug this layer fixes — N links' worth of aggregate receive bandwidth —
and one point with a bounded switch buffer to exercise tail drops through
the RC retransmit machinery.

Results are recorded into ``results/BENCH_incast.json`` (smoke-scale runs
must point ``REPRO_INCAST_JSON`` somewhere explicitly, mirroring the
``BENCH_figures.json`` policy); ``tools/check_incast.py`` gates the
invariants in CI.

Shape checks:

- every contention-on aggregate rate is capped at one link's bandwidth;
- mean per-flow goodput is non-increasing in N (per dataplane);
- unbounded buffers never drop and never retransmit;
- the legacy fabric exceeds one link's bandwidth at N=8 (the bug exists);
- a bounded buffer drops, retransmits recover, and every flow completes;
- DCQCN congestion control recovers the bounded-buffer 16→1 incast:
  ≥80% of the unbounded aggregate goodput and ≥10× fewer tail drops than
  the CC-off run (the congestion-collapse fix, ``--congestion dcqcn``).
"""

import json
import os

import pytest

from repro.analysis import SweepTable, check_between, format_table
from repro.bench_support import (
    bench_scale,
    emit,
    parallel_sweep,
    report_checks,
    results_dir,
    scaled,
)
from repro.hw.profiles import get_profile
from repro.perftest.incast import IncastConfig, run_incast
from repro.units import to_gbit_per_s

SENDERS = [2, 4, 8, 16]
PLANES = [("BP", "bypass"), ("CD", "cord")]
SYSTEM = "L"
SIZE = 64 * 1024
#: Bounded-buffer point: small enough that an 8→1 burst overflows it,
#: large enough that RC retransmits recover within the retry budget.
BOUNDED_BUFFER = 1024 * 1024

INCAST_JSON_ENV = "REPRO_INCAST_JSON"


def _incast_json_path():
    raw = os.environ.get(INCAST_JSON_ENV, "").strip()
    return raw or str(results_dir() / "BENCH_incast.json")


def _point(cfg: IncastConfig):
    return run_incast(cfg)


def _cfg(dataplane: str, senders: int) -> IncastConfig:
    return IncastConfig(
        system=SYSTEM, dataplane=dataplane, senders=senders, size=SIZE,
        msgs_per_sender=scaled(48, minimum=8), window=16,
    )


def _sweep():
    points = [_cfg(kind, n) for _label, kind in PLANES for n in SENDERS]
    # Controls: the legacy source-port-only fabric at N=8, and a bounded
    # switch buffer at N=8 (tail drops + RC retransmit recovery).
    legacy = _cfg("bypass", 8).with_(rx_contention=False)
    bounded = _cfg("bypass", 8).with_(buffer_bytes=BOUNDED_BUFFER)
    # Congestion-control pair: the bounded 16→1 incast with and without
    # DCQCN.  The unbounded reference is the bypass N=16 sweep point.
    cc_off = _cfg("bypass", 16).with_(buffer_bytes=BOUNDED_BUFFER)
    cc_on = cc_off.with_(congestion="dcqcn")
    results = parallel_sweep(_point, points + [legacy, bounded, cc_off, cc_on])
    cc_on_r = results.pop()
    cc_off_r = results.pop()
    bounded_r = results.pop()
    legacy_r = results.pop()
    return points, results, legacy_r, bounded_r, cc_off_r, cc_on_r


def _entry(r) -> dict:
    return {
        "senders": r.config.senders,
        "dataplane": r.config.dataplane,
        "rx_contention": r.config.rx_contention,
        "buffer_bytes": r.config.buffer_bytes,
        "msgs_per_sender": r.config.msgs_per_sender,
        "size": r.config.size,
        "aggregate_gbit": r.aggregate_gbit,
        "per_flow_mean_gbit": r.per_flow_mean_gbit,
        "flow_goodputs_gbit": list(r.flow_goodputs_gbit),
        "rx_queue_peak_bytes": r.rx_queue_peak_bytes,
        "messages_dropped": r.messages_dropped,
        "retransmits": r.retransmits,
        "ack_timeouts": r.ack_timeouts,
        "congestion": r.config.congestion,
        "ecn_marked": r.ecn_marked,
        "cnps": r.cnps,
        "min_rate": r.min_rate,
        "failed_msgs": r.failed_msgs,
    }


def _document(results, legacy_r, bounded_r, cc_off_r, cc_on_r) -> dict:
    """The ``BENCH_incast.json`` record of one sweep."""
    it = iter(results)
    sweep = {label: [_entry(next(it)) for _n in SENDERS] for label, _kind in PLANES}
    return {
        "system": SYSTEM,
        "link_gbit": to_gbit_per_s(get_profile(SYSTEM).nic.link_bw),
        "scale": bench_scale(),
        "sweep": sweep,
        "legacy_rx_off": _entry(legacy_r),
        "bounded_buffer": _entry(bounded_r),
        # The congestion-collapse fix at N=16: unbounded reference (the
        # bypass sweep point), bounded CC-off, bounded DCQCN.
        "congestion": {
            "reference": sweep["BP"][SENDERS.index(16)],
            "cc_off": _entry(cc_off_r),
            "dcqcn": _entry(cc_on_r),
        },
    }


def _record(doc: dict) -> None:
    path = _incast_json_path()
    if bench_scale() < 1.0 and not os.environ.get(INCAST_JSON_ENV, "").strip():
        print(f"[bench] not recording incast sweep at scale {bench_scale():g} "
              f"into the committed {path} (set {INCAST_JSON_ENV} to record "
              "smoke runs)")
        return
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as fh:
        fh.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"[bench] recorded incast sweep -> {path}")


def _checks(doc: dict) -> list:
    link_gbit = doc["link_gbit"]
    checks = []
    for label, _kind in PLANES:
        rs = doc["sweep"][label]
        worst = max(r["aggregate_gbit"] for r in rs)
        checks.append(check_between(
            f"{label}: aggregate receive rate capped at one link",
            worst, 0.0, link_gbit * 1.02))
        means = [r["per_flow_mean_gbit"] for r in rs]
        checks.append(check_between(
            f"{label}: per-flow goodput non-increasing in N",
            1.0 if all(a >= b * 0.99 for a, b in zip(means, means[1:]))
            else 0.0, 1.0, 1.0))
        checks.append(check_between(
            f"{label}: unbounded buffers never drop",
            float(sum(r["messages_dropped"] + r["retransmits"] for r in rs)),
            0.0, 0.0))
    legacy, bounded = doc["legacy_rx_off"], doc["bounded_buffer"]
    cc = doc["congestion"]
    ref, off, on = cc["reference"], cc["cc_off"], cc["dcqcn"]
    checks.append(check_between(
        "legacy rx-off fabric exceeds one link at N=8 (the bug)",
        legacy["aggregate_gbit"], link_gbit * 2.0, float("inf")))
    checks.append(check_between(
        "bounded buffer tail-drops (drops > 0)",
        float(bounded["messages_dropped"]), 1.0, float("inf")))
    checks.append(check_between(
        "bounded-buffer drops recover via retransmit",
        float(bounded["retransmits"]), float(bounded["messages_dropped"]),
        float("inf")))
    # The congestion-collapse fix.  Thresholds are scale-aware: the smoke
    # workload (8 msgs/sender) ends while DCQCN's conservative start is
    # still ramping, so it sits right at the full-scale bar.
    rec_floor, red_floor = (0.8, 10.0) if doc["scale"] >= 1.0 else (0.75, 8.0)
    checks.append(check_between(
        f"DCQCN recovers >={rec_floor:.0%} of unbounded goodput at N=16",
        on["aggregate_gbit"] / ref["aggregate_gbit"], rec_floor, float("inf")))
    checks.append(check_between(
        f"DCQCN cuts tail drops >={red_floor:.0f}x vs CC-off at N=16",
        off["messages_dropped"] / max(on["messages_dropped"], 1),
        red_floor, float("inf")))
    checks.append(check_between(
        "DCQCN run completes every message (no RETRY_EXC_ERR)",
        float(on["failed_msgs"]), 0.0, 0.0))
    checks.append(check_between(
        "DCQCN loop engaged (ECN marks and CNPs observed)",
        float(min(on["ecn_marked"], on["cnps"])), 1.0, float("inf")))
    return checks


def render(doc: dict) -> str:
    """The ``incast_fan_in`` table, rendered from a ``BENCH_incast.json``
    document alone (every number comes from the record, nothing is
    re-simulated)."""
    link_gbit = doc["link_gbit"]
    size = doc["sweep"]["BP"][0]["size"]
    agg = SweepTable(f"Incast: aggregate receive rate, {size // 1024} KiB "
                     "writes (Gbit/s)", "N")
    flow = SweepTable("Incast: mean per-flow goodput (Gbit/s)", "N")
    for label, _kind in PLANES:
        sa = agg.new_series(label)
        sf = flow.new_series(label)
        for r in doc["sweep"][label]:
            sa.add(str(r["senders"]), r["aggregate_gbit"])
            sf.add(str(r["senders"]), r["per_flow_mean_gbit"])
    parts = []
    for t in (agg, flow):
        h, rows = t.rows()
        parts.append(format_table(h, rows, t.title))
    legacy, bounded = doc["legacy_rx_off"], doc["bounded_buffer"]
    parts.append(
        f"legacy fabric (rx_contention off), N={legacy['senders']}: "
        f"{legacy['aggregate_gbit']:.1f} Gbit/s aggregate "
        f"(link is {link_gbit:.0f} Gbit/s)\n"
        f"bounded buffer ({bounded['buffer_bytes'] // 1024} KiB), "
        f"N={bounded['senders']}: {bounded['aggregate_gbit']:.1f} Gbit/s, "
        f"{bounded['messages_dropped']} drops, "
        f"{bounded['retransmits']} retransmits, "
        f"{bounded['failed_msgs']} failed msgs"
    )
    cc = doc["congestion"]
    ref, off, on = cc["reference"], cc["cc_off"], cc["dcqcn"]
    parts.append(
        f"congestion control, N={off['senders']}, bounded "
        f"{off['buffer_bytes'] // 1024} KiB:\n"
        f"  unbounded reference: {ref['aggregate_gbit']:.1f} Gbit/s\n"
        f"  CC off:  {off['aggregate_gbit']:.1f} Gbit/s, "
        f"{off['messages_dropped']} drops, "
        f"{off['failed_msgs']} failed msgs\n"
        f"  DCQCN:   {on['aggregate_gbit']:.1f} Gbit/s "
        f"({on['aggregate_gbit'] / ref['aggregate_gbit']:.0%} of "
        f"reference), {on['messages_dropped']} drops "
        f"({off['messages_dropped'] / max(on['messages_dropped'], 1):.0f}x "
        f"fewer), {on['failed_msgs']} failed msgs, "
        f"{on['ecn_marked']} ECN marks, {on['cnps']} CNPs"
    )
    return "\n\n".join(parts) + "\n" + report_checks("incast", _checks(doc))


def _report(points, results, legacy_r, bounded_r, cc_off_r, cc_on_r):
    doc = _document(results, legacy_r, bounded_r, cc_off_r, cc_on_r)
    emit("incast_fan_in", render(doc))
    _record(doc)


@pytest.mark.benchmark(group="incast")
def test_incast_fan_in(benchmark):
    results = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    _report(*results)


def main():
    _report(*_sweep())


if __name__ == "__main__":
    main()
