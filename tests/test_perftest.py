"""perftest drivers: latency/bandwidth semantics and technique toggles."""

import pytest

from repro.errors import ConfigError
from repro.perftest.runner import PerftestConfig, default_sizes, run_bw, run_lat
from repro.perftest.techniques import Techniques
from repro.units import us


def test_default_sizes_ladder():
    sizes = default_sizes(max_bytes=64)
    assert sizes == [2, 4, 8, 16, 32, 64]


def test_config_validation():
    with pytest.raises(ConfigError):
        PerftestConfig(op="bogus")
    with pytest.raises(ConfigError):
        PerftestConfig(transport="UD", op="read")
    with pytest.raises(ConfigError):
        PerftestConfig(transport="XX")


@pytest.mark.parametrize("iters", [0, -1])
def test_config_rejects_fewer_than_one_iteration(iters):
    with pytest.raises(ConfigError, match="at least one iteration"):
        PerftestConfig(iters=iters)
    # The smallest legal count still runs.
    assert PerftestConfig(iters=1).iters == 1


@pytest.mark.parametrize("window", [0, -3])
def test_config_rejects_a_window_below_one(window):
    # Used to die in run_bw with "stop event will never be triggered".
    with pytest.raises(ConfigError, match="window must be >= 1"):
        PerftestConfig(window=window)
    assert run_bw(PerftestConfig(window=1, iters=4, warmup=1), 64).gbit_per_s > 0


def test_config_rejects_a_negative_warmup():
    # Used to report 0.0 Gbit/s over 0.0 ns without complaint.
    with pytest.raises(ConfigError, match="warmup must be >= 0"):
        PerftestConfig(warmup=-1)


#: ``(op, window, iters) -> (measured iters, duration_ns)`` with
#: ``warmup=1`` at 64 B.  One-sided ops start their window at the
#: retirement that crosses the warmup, so a sparse-signaling window of 16
#: measures 33 of 40.
WARMUP_ONE = {
    ("send", 1, 4): (4, 8285.259797014296),
    ("send", 16, 40): (40, 10613.072919394588),
    ("write", 1, 4): (4, 7485.259797014296),
    ("write", 16, 40): (33, 10130.673731338233),
    ("read", 1, 4): (4, 9771.200000000186),
    ("read", 16, 40): (33, 10257.800000000047),
}


@pytest.mark.parametrize("key", sorted(WARMUP_ONE))
def test_bw_with_one_warmup_iteration_is_pinned(key):
    op, window, iters = key
    r = run_bw(PerftestConfig(op=op, window=window, iters=iters, warmup=1), 64)
    assert (r.iters, r.duration_ns) == WARMUP_ONE[key]


#: As ``WARMUP_ONE`` with ``warmup=0``: the window opens before the first
#: post (for send, before the receiver fills its RQ) and counts every
#: iteration.
WARMUP_ZERO = {
    ("send", 1, 4): (4, 7616.419797014212),
    ("send", 16, 40): (40, 14589.55797014106),
    ("write", 1, 4): (4, 7485.259797014296),
    ("write", 16, 40): (40, 15058.397970141144),
    ("read", 1, 4): (4, 9771.200000000186),
    ("read", 16, 40): (40, 14907.800000000047),
}


@pytest.mark.parametrize("key", sorted(WARMUP_ZERO))
def test_bw_without_warmup_measures_every_iteration(key):
    # Used to report 0.0 ns for send and iters - 1 for write/read: the
    # window opened at the first arrival instead of before the first post.
    op, window, iters = key
    r = run_bw(PerftestConfig(op=op, window=window, iters=iters, warmup=0), 64)
    assert r.duration_ns > 0 and r.gbit_per_s > 0
    assert (r.iters, r.duration_ns) == WARMUP_ZERO[key]


def test_send_lat_reasonable_and_monotonic_in_size():
    cfg = PerftestConfig(iters=60, warmup=10)
    small = run_lat(cfg, 64)
    big = run_lat(cfg, 1 << 20)
    assert us(0.5) < small.avg_ns < us(5)
    assert big.avg_ns > small.avg_ns
    assert small.p99_ns >= small.p50_ns >= small.min_ns


def test_lat_statistics_fields():
    r = run_lat(PerftestConfig(iters=50, warmup=5), 4096)
    assert r.iters == 50
    assert len(r.samples) == 50
    assert r.avg_us == pytest.approx(r.avg_ns / 1000)


def test_read_lat_server_side_cord_free():
    """The fig. 3 anchor as a unit test."""
    base = run_lat(PerftestConfig(op="read", iters=60, warmup=10), 4096)
    srv_cd = run_lat(PerftestConfig(op="read", server="cord", iters=60, warmup=10), 4096)
    cli_cd = run_lat(PerftestConfig(op="read", client="cord", iters=60, warmup=10), 4096)
    assert srv_cd.avg_ns == pytest.approx(base.avg_ns, rel=0.02)
    assert cli_cd.avg_ns > base.avg_ns + 200


def test_write_lat_uses_memory_polling():
    r = run_lat(PerftestConfig(op="write", iters=60, warmup=10), 4096)
    assert us(0.5) < r.avg_ns < us(6)


def test_write_lat_needs_a_byte():
    with pytest.raises(ConfigError):
        run_lat(PerftestConfig(op="write", iters=10, warmup=2), 0)


def test_ud_lat_close_to_rc():
    rc = run_lat(PerftestConfig(iters=60, warmup=10), 2048)
    ud = run_lat(PerftestConfig(transport="UD", iters=60, warmup=10), 2048)
    assert ud.avg_ns == pytest.approx(rc.avg_ns, rel=0.3)


def test_bw_hits_line_rate_for_large_messages():
    r = run_bw(PerftestConfig(iters=300, warmup=60), 1 << 20)
    assert 80 < r.gbit_per_s < 100


def test_bw_small_messages_cpu_bound():
    r = run_bw(PerftestConfig(iters=600, warmup=150), 64)
    assert r.gbit_per_s < 5
    assert r.msg_rate_per_s > 1e6


def test_bw_window_parameter_matters():
    narrow = run_bw(PerftestConfig(iters=400, warmup=100, window=1), 4096)
    wide = run_bw(PerftestConfig(iters=400, warmup=100, window=64), 4096)
    assert wide.gbit_per_s > 2 * narrow.gbit_per_s  # pipelining wins


def test_read_and_write_bw_run():
    for op in ("read", "write"):
        r = run_bw(PerftestConfig(op=op, iters=300, warmup=60), 65536)
        assert 50 < r.gbit_per_s < 100


def test_ud_bw_respects_mtu():
    r = run_bw(PerftestConfig(transport="UD", iters=400, warmup=100), 4096)
    assert r.gbit_per_s > 10
    with pytest.raises(Exception):
        run_bw(PerftestConfig(transport="UD", iters=10, warmup=2), 8192)


def test_techniques_labels():
    assert Techniques().label == "baseline"
    assert Techniques(zero_copy=False).label == "no zero-copy"
    assert Techniques(polling=False, kernel_bypass=False).label == \
        "no kernel-bypass+polling"


def test_no_polling_latency_constant():
    base = run_lat(PerftestConfig(iters=60, warmup=10), 4096)
    nopoll = run_lat(PerftestConfig(iters=60, warmup=10,
                                    techniques=Techniques(polling=False)), 4096)
    assert nopoll.avg_ns - base.avg_ns > us(1)


def test_cord_and_techniques_compose():
    cfg = PerftestConfig(client="cord", server="cord", iters=60, warmup=10,
                         techniques=Techniques(zero_copy=False))
    r = run_lat(cfg, 65536)
    plain = run_lat(PerftestConfig(client="cord", server="cord", iters=60,
                                   warmup=10), 65536)
    assert r.avg_ns > plain.avg_ns  # the copy tax stacks on CoRD


def test_same_seed_same_results():
    a = run_lat(PerftestConfig(system="A", iters=40, warmup=5, seed=9), 1024)
    b = run_lat(PerftestConfig(system="A", iters=40, warmup=5, seed=9), 1024)
    assert a.samples == b.samples


def test_different_seed_different_jitter_on_A():
    a = run_lat(PerftestConfig(system="A", iters=40, warmup=5, seed=1), 1024)
    b = run_lat(PerftestConfig(system="A", iters=40, warmup=5, seed=2), 1024)
    assert a.samples != b.samples
