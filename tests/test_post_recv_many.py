"""Batched recv posts: ``Nic.hw_post_recv_many`` and the MPI repost loop.

A chain post must leave exactly the state N single ``hw_post_recv`` calls
leave — receive queue, counters, monitor hooks — including when it fails
part-way, and the MPI progress engine must repost peers in the order their
slots were first consumed.
"""

from repro.cluster import build_cluster
from repro.errors import MemoryAccessError, QPStateError, VerbsError
from repro.hw.profiles import SYSTEM_L
from repro.mpi import MpiWorld
from repro.sim import Simulator
from repro.verbs.qp import QPState
from repro.verbs.wr import CQE, Opcode, RecvWR, WCStatus


class _RecordingMonitor:
    def __init__(self):
        self.calls = []

    def on_post_recv(self, qp, wr):
        self.calls.append((qp.qpn, wr.wr_id))


def _fresh_qp(rq_depth=None, state=QPState.INIT):
    """A rank engine's NIC and a new, unconnected QP of its own."""
    sim = Simulator(seed=4)
    _fabric, hosts = build_cluster(sim, SYSTEM_L, 2)
    world = MpiWorld(sim, hosts, 2)
    engine = world.engines[0]
    qp = world._new_qp(engine)
    if state is not QPState.RESET:
        qp.modify(state)
    if rq_depth is not None:
        qp.rq_depth = rq_depth
    monitor = _RecordingMonitor()
    sim.attach_monitor(monitor)
    return engine, qp, monitor


def _wrs(engine, n, bad_lkey_at=None):
    out = []
    for i in range(n):
        lkey = 0xDEAD if i == bad_lkey_at else engine.mr.lkey
        length = 0 if i % 5 == 4 else engine.buf.length // (1 + i % 2)
        out.append(RecvWR(wr_id=2 * i, addr=engine.buf.addr, length=length, lkey=lkey))
    return out


def _post_both_ways(n, rq_depth=None, bad_lkey_at=None, state=QPState.INIT):
    """Post ``n`` WRs singly on one QP and as a chain on an identical one;
    return (error, rq wr_ids, recvs_posted, monitor calls) for each."""
    outcomes = []
    for batched in (False, True):
        engine, qp, monitor = _fresh_qp(rq_depth, state)
        nic = engine.host.nic
        wrs = _wrs(engine, n, bad_lkey_at)
        error = None
        try:
            if batched:
                nic.hw_post_recv_many(qp, wrs)
            else:
                for wr in wrs:
                    nic.hw_post_recv(qp, wr)
        except Exception as exc:  # noqa: BLE001 - compared below
            error = (type(exc), str(exc))
        outcomes.append((error, [wr.wr_id for wr in qp.rq], qp.recvs_posted,
                         monitor.calls))
    return outcomes


def test_chain_post_equals_single_posts():
    single, batched = _post_both_ways(12)
    assert batched == single
    assert single[0] is None and single[2] == 12
    assert len(single[3]) == 12


def test_overflow_raises_at_the_same_wr_and_keeps_the_prefix():
    single, batched = _post_both_ways(9, rq_depth=6)
    assert batched == single
    assert single[0][0] is VerbsError and "recv queue full" in single[0][1]
    assert single[2] == 6


def test_bad_lkey_raises_at_the_same_wr():
    single, batched = _post_both_ways(7, bad_lkey_at=3)
    assert batched == single
    assert single[0][0] is MemoryAccessError
    assert single[1] == [0, 2, 4]


def test_qp_state_checked_before_anything_is_posted():
    single, batched = _post_both_ways(3, state=QPState.RESET)
    assert batched == single
    assert single[0][0] is QPStateError
    assert single[1] == [] and single[3] == []


def test_empty_chain_is_a_no_op():
    engine, qp, monitor = _fresh_qp()
    engine.host.nic.hw_post_recv_many(qp, [])
    assert (list(qp.rq), qp.recvs_posted, monitor.calls) == ([], 0, [])


# -- MPI repost order --------------------------------------------------------------


def test_progress_reposts_due_peers_in_first_consumed_order():
    sim = Simulator(seed=4)
    _fabric, hosts = build_cluster(sim, SYSTEM_L, 2)
    world = MpiWorld(sim, hosts, 4)
    engine = world.engines[0]
    for peer in (1, 2, 3):
        engine._qp(peer)
    posted = []
    post_recv_many = engine.dataplane.post_recv_many

    def spy(qp, wrs):
        posted.append((engine.qpn_to_peer[qp.qpn], len(wrs)))
        yield from post_recv_many(qp, wrs)

    engine.dataplane.post_recv_many = spy
    # Peer 3 consumed first, then 1 (already reposted), then 2.
    engine._repost_due = {3: 2, 1: 0, 2: 1}
    engine._repost_total = 3
    rq_before = {p: len(engine.qps[p].rq) for p in (1, 2, 3)}
    # One send completion so the progress pass does not return early.
    engine._send_track[1] = ("ctrl", None)
    engine.cq.push(CQE(wr_id=1, status=WCStatus.SUCCESS, opcode=Opcode.SEND,
                       byte_len=0, qp_num=engine.qps[1].qpn))

    def proc():
        yield from engine._progress_once()
        # Nothing due: the next pass posts nothing.
        engine._send_track[3] = ("ctrl", None)
        engine.cq.push(CQE(wr_id=3, status=WCStatus.SUCCESS, opcode=Opcode.SEND,
                           byte_len=0, qp_num=engine.qps[1].qpn))
        yield from engine._progress_once()

    sim.run(sim.process(proc()))
    assert posted == [(3, 2), (2, 1)]
    assert list(engine._repost_due.items()) == [(3, 0), (1, 0), (2, 0)]
    assert engine._repost_total == 0
    assert {p: len(engine.qps[p].rq) - rq_before[p] for p in (1, 2, 3)} == \
        {1: 0, 2: 1, 3: 2}

