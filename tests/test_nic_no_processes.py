"""The NIC and the fabric move messages without simulation processes.

Every step of a message through ``repro.hw.nic`` and
``repro.cluster.fabric`` is a callback record (``call_later`` /
``call_urgent``); a per-message generator process costs a resume per
step and was most of the simulator's host time on point-to-point runs.
These tests wrap :meth:`Simulator.spawn` and :meth:`Simulator.process`
and fail if either module starts a process, directly or by handing
over one of its own generators.
"""

from __future__ import annotations

import os
import sys

import pytest

from repro.faults import FaultPlan
from repro.perftest.incast import IncastConfig, _drive, build_incast
from repro.perftest.runner import PerftestConfig, run_bw
from repro.sim import Simulator

_WATCHED = (os.path.join("repro", "hw", "nic.py"),
            os.path.join("repro", "cluster", "fabric.py"))


@pytest.fixture
def starts(monkeypatch):
    """``(watched, total)``: process starts from the NIC or the fabric,
    and all process starts."""
    watched: list[str] = []
    total = [0]
    for attr in ("spawn", "process"):
        orig = getattr(Simulator, attr)

        def wrapped(self, generator, name="", _orig=orig, _attr=attr):
            total[0] += 1
            code = getattr(generator, "gi_code", None)
            for path in (sys._getframe(1).f_code.co_filename,
                         code.co_filename if code is not None else ""):
                if path.endswith(_WATCHED):
                    watched.append(f"{_attr} from {path}")
            return _orig(self, generator, name)

        monkeypatch.setattr(Simulator, attr, wrapped)
    return watched, total


@pytest.mark.parametrize("op", ["send", "write", "read"])
def test_rc_bandwidth_starts_no_nic_or_fabric_process(starts, op):
    watched, total = starts
    r = run_bw(PerftestConfig(op=op, iters=64, warmup=8, window=16), 4096)
    assert r.gbit_per_s > 0
    assert total[0] > 0  # the wrapper saw the driver's own processes
    assert watched == []


def test_ud_send_starts_no_nic_or_fabric_process(starts):
    watched, total = starts
    r = run_bw(PerftestConfig(transport="UD", op="send", iters=64, warmup=8,
                              window=16), 1024)
    assert r.gbit_per_s > 0 and total[0] > 0
    assert watched == []


def test_lossy_dcqcn_incast_starts_no_nic_or_fabric_process(starts):
    watched, total = starts
    cfg = IncastConfig(senders=4, msgs_per_sender=8, buffer_bytes=256 * 1024,
                       congestion="dcqcn")
    sim = Simulator(seed=cfg.seed)
    fabric, hosts, pairs = build_incast(sim, cfg)
    fabric.inject_faults(FaultPlan(loss=0.05, drop_control=False))
    r = _drive(sim, cfg, fabric, hosts, pairs)
    # The run took the paths under test: drops on the wire and at the
    # switch, retransmissions, and the CNP loop.
    assert fabric.drops_wire > 0 and fabric.drops_rxq > 0
    assert r.retransmits > 0 and r.cnps > 0
    assert total[0] > 0
    assert watched == []
