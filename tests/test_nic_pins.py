"""Heap-record pins for NIC and fabric paths that no golden reaches.

Each scenario below drives one rarely-taken path of ``repro.hw.nic`` or
``repro.cluster.fabric`` (RNR back-off and exhaustion, RETRY_EXC_ERR,
atomic replay, UD, WRITE_WITH_IMM, zero-length ops, remote access
errors, a lossy hairpin, CNP emission, IPoIB sockets) and logs two
streams:

- ``heap``: the ``(time, priority, seq)`` key of every record the engine
  dispatches, in dispatch order;
- ``cqes``: ``(wr_id, status, timestamp)`` of every CQE pushed.

The expected logs in ``fixtures/nic_pins.json`` were recorded on the
generator-process NIC, before its per-message pipeline became callback
chains.  A rewrite that keeps every heap key reproduces them exactly; one
that schedules any step at a different priority, delay or sequence
position does not.
"""

from __future__ import annotations

import heapq
import json
from pathlib import Path

import pytest

import repro.sim.engine as engine_mod
from repro.cluster import build_cluster, build_pair
from repro.core.endpoint import connect, make_endpoint, make_rc_pair, make_ud_pair
from repro.faults import FaultPlan
from repro.hw.profiles import SYSTEM_L
from repro.perftest.incast import IncastConfig, run_incast
from repro.sim import Simulator
from repro.units import us
from repro.verbs.cq import CompletionQueue
from repro.verbs.wr import Opcode, RecvWR, SendWR, WCStatus

PINS_PATH = Path(__file__).parent / "fixtures" / "nic_pins.json"


class _LoggingHeap:
    """Stands in for the engine module's ``heapq``: every pop is logged."""

    heappush = staticmethod(heapq.heappush)

    def __init__(self, log: list) -> None:
        self.log = log

    def heappop(self, queue: list) -> tuple:
        rec = heapq.heappop(queue)
        self.log.append([rec[0], rec[1], rec[2]])
        return rec


def _record(monkeypatch, scenario) -> dict:
    """Run ``scenario()`` with the heap and CQE logs attached."""
    heap: list = []
    cqes: list = []
    push = CompletionQueue.push

    def logged_push(cq, cqe):
        push(cq, cqe)
        cqes.append([cqe.wr_id, cqe.status.value, cq.sim.now])

    with monkeypatch.context() as m:
        m.setattr(engine_mod, "heapq", _LoggingHeap(heap))
        m.setattr(CompletionQueue, "push", logged_push)
        scenario()
    return {"heap": heap, "cqes": cqes}


# -- scenarios ---------------------------------------------------------------------


def _recv(ep, wr_id):
    return RecvWR(wr_id=wr_id, addr=ep.buf.addr, length=ep.buf.length,
                  lkey=ep.mr.lkey)


def _send(a, wr_id, nbytes=1024, **kw):
    return SendWR(wr_id=wr_id, opcode=Opcode.SEND, addr=a.buf.addr,
                  length=nbytes, lkey=a.mr.lkey, **kw)


def _rc(body, seed=1, plan=None, plan_at=None):
    """Two-host RC testbed: ``body(sim, a, b)`` runs after connection."""
    sim = Simulator(seed=seed)
    fabric, host_a, host_b = build_pair(sim, SYSTEM_L)
    if plan is not None:
        fabric.inject_faults(plan)

    def main():
        a, b = yield from make_rc_pair(host_a, host_b, "bypass", "bypass")
        if plan_at is not None:
            fabric.inject_faults(plan_at(sim.now))
        yield from body(sim, a, b)

    sim.run(sim.process(main()))
    sim.run()


def _drain_send(a, n):
    got = []
    while len(got) < n:
        got.extend((yield from a.wait_send()))
    return got


def rnr_backoff():
    """Receiver paused: RNR NAKs with escalating back-off, then success."""
    def body(sim, a, b):
        yield from b.post_recv(_recv(b, 100))
        yield sim.timeout(us(150))
        yield from a.post_send(_send(a, 1))
        yield from _drain_send(a, 1)

    _rc(body, plan_at=lambda t0: FaultPlan(
        pauses=((1, t0 + us(150), t0 + us(210)),)))


def rnr_exhausted():
    """No recv posted: RNR retries run out, the WR fails, the QP errors
    and the send behind it flushes."""
    def body(sim, a, b):
        a.qp.rnr_retries = 2
        yield from a.post_send(_send(a, 1))
        yield from a.post_send(_send(a, 2))
        cqes = yield from _drain_send(a, 2)
        assert [c.status for c in cqes] == [WCStatus.RNR_RETRY_EXC_ERR,
                                            WCStatus.WR_FLUSH_ERR]

    _rc(body)


def retry_exc():
    """Total loss: ACK timeouts back off until RETRY_EXC_ERR."""
    def body(sim, a, b):
        a.qp.retry_cnt = 2
        yield from b.post_recv(_recv(b, 100))
        yield from a.post_send(_send(a, 1))
        yield from a.post_send(_send(a, 2))
        cqes = yield from _drain_send(a, 2)
        assert [c.status for c in cqes] == [WCStatus.RETRY_EXC_ERR,
                                            WCStatus.WR_FLUSH_ERR]

    _rc(body, plan=FaultPlan(loss=1.0))


def atomic_replay():
    """Responses lost on the way back: the duplicate fetch-add is answered
    from the responder's replay cache, never re-executed."""
    def body(sim, a, b):
        b.buf.write(0, (0).to_bytes(8, "little"))
        for i in range(4):
            yield from a.post_send(SendWR(
                wr_id=i, opcode=Opcode.ATOMIC_FETCH_ADD, addr=a.buf.addr,
                length=8, lkey=a.mr.lkey, remote_addr=b.buf.addr,
                rkey=b.mr.rkey, compare_add=1))
            yield from _drain_send(a, 1)
        assert int.from_bytes(b.buf.read(0, 8), "little") == 4

    _rc(body, seed=3, plan=FaultPlan(link_loss=((1, 0, 0.5),)))


def ud_signaled():
    """A signaled UD send completes once on the wire."""
    sim = Simulator(seed=1)
    _fabric, host_a, host_b = build_pair(sim, SYSTEM_L)

    def main():
        a, b = yield from make_ud_pair(host_a, host_b, "bypass", "bypass")
        yield from b.post_recv(_recv(b, 7))
        yield from a.post_send(_send(a, 1, 256, ah=b.addr))
        yield from _drain_send(a, 1)
        yield from b.wait_recv()

    sim.run(sim.process(main()))
    sim.run()


def write_imm():
    """WRITE_WITH_IMM consumes a recv WQE and completes on both sides."""
    def body(sim, a, b):
        yield from b.post_recv(_recv(b, 9))
        yield from a.post_send(SendWR(
            wr_id=1, opcode=Opcode.RDMA_WRITE_WITH_IMM, addr=a.buf.addr,
            length=2048, lkey=a.mr.lkey, remote_addr=b.buf.addr,
            rkey=b.mr.rkey, imm=0x5A))
        cqes = (yield from _drain_send(a, 1)) + (yield from b.wait_recv())
        assert all(c.ok for c in cqes)

    _rc(body)


def zero_length():
    """A zero-length send and a zero-length read skip every payload DMA."""
    def body(sim, a, b):
        yield from b.post_recv(_recv(b, 3))
        yield from a.post_send(_send(a, 1, 0))
        yield from a.post_send(SendWR(
            wr_id=2, opcode=Opcode.RDMA_READ, addr=a.buf.addr, length=0,
            lkey=a.mr.lkey, remote_addr=b.buf.addr, rkey=b.mr.rkey))
        cqes = (yield from _drain_send(a, 2)) + (yield from b.wait_recv())
        assert all(c.ok and c.byte_len == 0 for c in cqes)

    _rc(body)


def rem_access_write():
    """A write with a bad rkey comes back REM_ACCESS_ERR and errors the QP."""
    def body(sim, a, b):
        yield from a.post_send(SendWR(
            wr_id=1, opcode=Opcode.RDMA_WRITE, addr=a.buf.addr, length=512,
            lkey=a.mr.lkey, remote_addr=b.buf.addr, rkey=0xBAD))
        yield from a.post_send(_send(a, 2))
        cqes = yield from _drain_send(a, 2)
        assert [c.status for c in cqes] == [WCStatus.REM_ACCESS_ERR,
                                            WCStatus.WR_FLUSH_ERR]

    _rc(body)


def hairpin_faults():
    """Two QPs on one host over the NIC hairpin, with hairpin loss."""
    sim = Simulator(seed=2)
    fabric, hosts = build_cluster(sim, SYSTEM_L, 1)
    fabric.inject_faults(FaultPlan(loss=0.3))
    host = hosts[0]

    def main():
        a = yield from make_endpoint(host, "bypass")
        b = yield from make_endpoint(host, "bypass")
        yield from connect(a, b)
        for i in range(4):
            yield from b.post_recv(_recv(b, 10 + i))
        for i in range(4):
            yield from a.post_send(_send(a, i, 4096))
        yield from _drain_send(a, 4)

    sim.run(sim.process(main()))
    sim.run()
    assert fabric.drops_hairpin > 0


def cnp_dcqcn():
    """A bounded 4->1 incast under DCQCN: an ECN mark, a CNP, a paced
    sender and tail drops recovered by ACK timeouts."""
    r = run_incast(IncastConfig(senders=4, size=64 * 1024, msgs_per_sender=3,
                                window=3, buffer_bytes=256 * 1024,
                                congestion="dcqcn"))
    assert r.cnps > 0 and r.messages_dropped > 0 and r.failed_msgs == 0


def ipoib_exchange():
    """IPoIB sockets: connect, a multi-segment send, the credit return."""
    sim = Simulator(seed=2)
    _fabric, host_a, host_b = build_pair(sim, SYSTEM_L)
    dev_a = host_a.kernel.ensure_ipoib()
    dev_b = host_b.kernel.ensure_ipoib()
    dev_a.registry = dev_b.registry = {}
    payload = bytes(range(256)) * 600

    def server():
        listener = dev_b.socket()
        listener.listen(80)
        conn = yield from listener.accept()
        _src, nbytes, data = yield from conn.recv(host_b.cpus.pin())
        assert nbytes == len(payload) and data == payload

    def client():
        sock = dev_a.socket()
        yield from sock.connect(host_b.host_id, 80)
        yield from sock.send(host_a.cpus.pin(), len(payload), payload)

    sim.process(server())
    sim.process(client())
    sim.run()


SCENARIOS = {
    f.__name__: f
    for f in (rnr_backoff, rnr_exhausted, retry_exc, atomic_replay,
              ud_signaled, write_imm, zero_length, rem_access_write,
              hairpin_faults, cnp_dcqcn, ipoib_exchange)
}


def _pins() -> dict:
    return json.loads(PINS_PATH.read_text())


def test_every_scenario_is_pinned():
    assert sorted(_pins()) == sorted(SCENARIOS)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_nic_path_keeps_its_heap_records(name, monkeypatch):
    want = _pins()[name]
    got = _record(monkeypatch, SCENARIOS[name])
    assert got["cqes"] == want["cqes"]
    assert len(got["heap"]) == len(want["heap"])
    assert got["heap"] == want["heap"]

