"""Tests of the benchmark itself (not of the simulator).

Run from the repository root:

    PYTHONPATH=src python3 -m pytest -q perfbench/tests

Full-size passes take seconds each, so most tests shrink the workload
shapes and use a seed with no committed reference (the checks then fall
back to invariants and repeatability).
"""

from __future__ import annotations

import io
import json
import math
import re
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import layers  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

#: A seed with no committed reference digest.
UNREFERENCED_SEED = 424242


@pytest.fixture
def small(monkeypatch):
    """Shrink every workload so a pass takes well under a second."""
    for name, value in {"PT_LAT_ITERS": 40, "PT_BW_ITERS": 64, "INCAST_SENDERS": 6,
                        "INCAST_MSGS": 4, "INCAST_BUFFER": 256 * 1024,
                        "NPB_KERNELS": ("IS",)}.items():
        monkeypatch.setattr(workloads, name, value)
    monkeypatch.setattr(run, "SETUP_SECONDS", 0.0)
    monkeypatch.setattr(run, "SETUP_REPS", 1)
    monkeypatch.setattr(run, "MIN_PASSES", 1)
    monkeypatch.setattr(run, "ATTR_LAT_ITERS", 20)


def _bench() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def _run(*args: str) -> tuple[int, dict]:
    out = io.StringIO()
    with redirect_stdout(out):
        code = run.main(list(args))
    return code, json.loads(out.getvalue().strip().splitlines()[-1])


def test_metric_names_are_well_formed_and_unique():
    bench = _bench()
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    names += [w["name"] for w in bench["workloads"]]
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    assert len(names) == len(set(names))
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_workload_emits_every_declared_metric(small, workload, trace):
    code, result = _run("--workload", workload, "--seed", str(UNREFERENCED_SEED),
                        "--seconds", "0", "--trace", trace)
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    key = "per_layer" if trace == "1" else "end_to_end"
    declared = {m["name"]: m["unit"] for m in _bench()[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    for entry in result["metrics"].values():
        assert math.isfinite(entry["value"])
    if trace == "0":
        assert all(entry["value"] > 0 for entry in result["metrics"].values())


def _perturb(records: list[dict]) -> None:
    """Nudge one simulated output of the first record by one ulp."""
    rec = records[0]
    for key in ("samples_ns", "flow_goodputs_gbit"):
        if key in rec:
            rec[key][0] = math.nextafter(rec[key][0], math.inf)
            return
    for key in ("duration_ns", "elapsed_ns"):
        if key in rec:
            rec[key] = math.nextafter(rec[key], math.inf)
            return
    raise AssertionError(f"nothing to perturb in {rec}")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_digest_check_trips_on_one_perturbed_output(small, workload):
    inputs = workloads.make_inputs(workload, UNREFERENCED_SEED)
    records, _seconds = workloads.run_pass(inputs)
    checker = run.Checker(workloads, inputs, workloads.digest(records), probe=None)
    assert checker.check("clean", records)
    _perturb(records)
    assert not checker.check("perturbed", records)
    assert checker.failed == len(inputs) and checker.errors


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_reproduces_untraced_outputs(small, workload):
    inputs = workloads.make_inputs(workload, UNREFERENCED_SEED)
    untraced, _seconds = workloads.run_pass(inputs)
    tracer = layers.Tracer(max_spans=1000)
    with tracer:
        traced, _seconds = workloads.run_pass(inputs)
    assert traced == untraced
    assert tracer.spans and sum(tracer.calls) > len(tracer.spans)
    # The wrappers are gone again: a later pass runs the original code.
    from repro.sim.engine import Simulator

    assert not hasattr(Simulator.run, "__wrapped__")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_changes_the_generated_inputs(workload):
    first = workloads.make_inputs(workload, 1)
    assert first == workloads.make_inputs(workload, 1)
    assert first != workloads.make_inputs(workload, 2)


def test_reference_covers_default_and_heldout_seeds():
    for workload in workloads.WORKLOADS:
        for seed in (run.DEFAULT_SEED, run.HELDOUT_SEED):
            assert reference.lookup(workload, seed), (workload, seed)


def test_without_the_simulator_the_command_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pt2pt_L", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={"PATH": "/usr/bin:/bin"})
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_reference_mismatch_fails_the_command(small, monkeypatch):
    monkeypatch.setattr(reference, "lookup", lambda workload, seed: "0" * 64)
    code, result = _run("--workload", "incast_64to1", "--seed", "1",
                        "--seconds", "0", "--trace", "0")
    assert code == 1
    assert not result["correct"] and result["failed"] == result["attempted"]
