"""NPB skeleton tests: registry, execution, scaling, transport sensitivity."""

import pytest

from repro.errors import ConfigError
from repro.npb import BENCHMARKS, NpbConfig, get_benchmark, run_npb
from repro.npb.base import CLASS_SCALE, grid_2d, pow2_below
from repro.npb.runner import DEFAULT_SUITE


def test_all_eight_benchmarks_registered():
    assert set(DEFAULT_SUITE) <= set(BENCHMARKS)
    assert len(DEFAULT_SUITE) == 8


def test_unknown_benchmark_rejected():
    with pytest.raises(ConfigError, match="unknown NPB benchmark"):
        get_benchmark("ZZ")


def test_config_validation():
    with pytest.raises(ConfigError):
        NpbConfig(name="IS", klass="Z")
    with pytest.raises(ConfigError):
        NpbConfig(name="IS", ranks=1)


@pytest.mark.parametrize("bad", [
    {"iterations": 0},
    {"iterations": -3},
    {"iter_scale": 0.0},
    {"iter_scale": -1.0},
    {"iter_scale": float("nan")},
    {"iter_scale": float("inf")},
])
def test_degenerate_iteration_settings_rejected(bad):
    # Used to run one iteration silently (or die in round(nan)).
    with pytest.raises(ConfigError, match="iteration|iter_scale"):
        NpbConfig(name="IS", **bad)


def test_small_iter_scale_still_runs_one_iteration():
    assert NpbConfig(name="IS", iter_scale=0.001).effective_iters(10) == 1
    assert NpbConfig(name="IS", iterations=2, iter_scale=0.001).effective_iters(10) == 2


def test_class_scaling_is_monotone():
    assert CLASS_SCALE["A"] < CLASS_SCALE["B"] < CLASS_SCALE["C"] < CLASS_SCALE["D"]


def test_grid_2d_factorization():
    assert grid_2d(16) == (4, 4)
    assert grid_2d(8) == (2, 4)
    assert grid_2d(6) == (2, 3)
    rows, cols = grid_2d(7)
    assert rows * cols == 7


def test_pow2_below():
    assert pow2_below(1) == 1
    assert pow2_below(9) == 8
    assert pow2_below(64) == 64


@pytest.mark.parametrize("name", DEFAULT_SUITE)
def test_every_benchmark_runs_tiny(name):
    cfg = NpbConfig(name=name, klass="S", ranks=4, iterations=2)
    r = run_npb(cfg, transport="bypass", system="L")
    assert r.elapsed_ns > 0
    assert r.iterations == 2
    assert r.per_iter_ns == pytest.approx(r.elapsed_ns / 2)
    if name != "EP":
        assert r.msgs_sent_total > 0


def test_iter_scale_reduces_simulated_work():
    full = NpbConfig(name="CG", klass="S", ranks=4, iter_scale=1.0)
    tiny = NpbConfig(name="CG", klass="S", ranks=4, iter_scale=0.2)
    _prog, it_full = get_benchmark("CG")(full)
    _prog, it_tiny = get_benchmark("CG")(tiny)
    assert it_tiny < it_full


def test_explicit_iterations_override():
    cfg = NpbConfig(name="IS", klass="S", ranks=4, iterations=3, iter_scale=0.01)
    _prog, iters = get_benchmark("IS")(cfg)
    assert iters == 3


def test_is_more_network_sensitive_than_ep():
    """Under a much slower network path, IS suffers and EP does not."""
    ep = NpbConfig(name="EP", klass="S", ranks=4, iterations=1)
    is_ = NpbConfig(name="IS", klass="A", ranks=4, iterations=2)
    ep_ratio = (run_npb(ep, transport="ipoib", system="A").elapsed_ns /
                run_npb(ep, transport="bypass", system="A").elapsed_ns)
    is_ratio = (run_npb(is_, transport="ipoib", system="A").elapsed_ns /
                run_npb(is_, transport="bypass", system="A").elapsed_ns)
    assert is_ratio > ep_ratio
    assert ep_ratio < 1.1


def test_cord_close_to_bypass_everywhere_small():
    for name in ("CG", "LU"):
        cfg = NpbConfig(name=name, klass="S", ranks=4, iterations=3)
        bp = run_npb(cfg, transport="bypass", system="A")
        cd = run_npb(cfg, transport="cord", system="A")
        assert cd.elapsed_ns / bp.elapsed_ns < 1.35


def test_results_deterministic_for_same_seed():
    cfg = NpbConfig(name="MG", klass="S", ranks=4, iterations=2)
    a = run_npb(cfg, transport="bypass", seed=5)
    b = run_npb(cfg, transport="bypass", seed=5)
    assert a.elapsed_ns == b.elapsed_ns
    assert a.bytes_sent_total == b.bytes_sent_total


def test_bigger_class_means_more_bytes():
    small = run_npb(NpbConfig(name="FT", klass="S", ranks=4, iterations=1),
                    system="L")
    big = run_npb(NpbConfig(name="FT", klass="A", ranks=4, iterations=1),
                  system="L")
    assert big.bytes_sent_total > small.bytes_sent_total
