"""Fabric and NIC engine behaviour: serialization, sharing, loopback, UD."""

import pytest

from repro.cluster import build_cluster, build_pair
from repro.core.endpoint import connect, make_endpoint, make_rc_pair, make_ud_pair
from repro.errors import HardwareError
from repro.hw.profiles import SYSTEM_L
from repro.sim import Simulator
from repro.units import to_gbit_per_s, us
from repro.verbs.wr import Opcode, RecvWR, SendWR


def test_fabric_serialization_includes_packet_tax():
    sim = Simulator()
    fabric, _hosts = build_cluster(sim, SYSTEM_L, 2)
    nicp = SYSTEM_L.nic
    one = fabric.serialization_ns(100)
    assert one == pytest.approx(nicp.per_packet_ns + 100 / nicp.link_bw)
    # 3 packets for 3*MTU bytes.
    three = fabric.serialization_ns(3 * nicp.mtu)
    assert three == pytest.approx(3 * nicp.per_packet_ns + 3 * nicp.mtu / nicp.link_bw)


def test_fabric_rejects_unknown_host_and_negative_size():
    sim = Simulator()
    fabric, _ = build_cluster(sim, SYSTEM_L, 2)
    with pytest.raises(HardwareError):
        fabric.nic(99)

    with pytest.raises(HardwareError):
        fabric.transmit(0, 1, -5, None)


def test_tx_port_is_shared_across_flows():
    """Two QPs on one host share the host's single TX port (fan-out caps)."""
    sim = Simulator(seed=2)
    _fabric, hosts = build_cluster(sim, SYSTEM_L, 3)
    src, dst1, dst2 = hosts
    size = 1 << 20
    done = []

    def stream(dst, tag):
        ep = yield from make_endpoint(src, "bypass")
        peer = yield from make_endpoint(dst, "bypass")
        yield from connect(ep, peer)
        t0 = sim.now
        nmsgs = 16
        for i in range(nmsgs):
            yield from ep.post_send(SendWR(
                wr_id=i, opcode=Opcode.RDMA_WRITE, addr=ep.buf.addr, length=size,
                lkey=ep.mr.lkey, remote_addr=peer.buf.addr, rkey=peer.mr.rkey,
                signaled=(i == nmsgs - 1)))
        while True:
            cqes = yield from ep.wait_send()
            if cqes:
                break
        done.append((tag, to_gbit_per_s(nmsgs * size / (sim.now - t0))))

    sim.process(stream(dst1, "flow1"))
    sim.process(stream(dst2, "flow2"))
    sim.run()
    total = sum(rate for _tag, rate in done)
    # Two flows to different destinations still share ~100 Gbit/s egress.
    assert total < 110.0
    assert total > 60.0


def test_loopback_same_host_faster_than_wire_but_not_free():
    sim = Simulator(seed=2)
    _fabric, hosts = build_cluster(sim, SYSTEM_L, 1)
    host = hosts[0]

    def main():
        a = yield from make_endpoint(host, "bypass")
        b = yield from make_endpoint(host, "bypass")
        yield from connect(a, b)
        yield from b.post_recv(RecvWR(wr_id=1, addr=b.buf.addr,
                                      length=b.buf.length, lkey=b.mr.lkey))
        t0 = sim.now
        yield from a.post_send(SendWR(wr_id=1, opcode=Opcode.SEND,
                                      addr=a.buf.addr, length=65536,
                                      lkey=a.mr.lkey))
        cqes = yield from b.wait_recv()
        assert cqes[0].ok
        return sim.now - t0

    elapsed = sim.run(sim.process(main()))
    assert 0 < elapsed < us(50)


def test_link_two_node_wrapper():
    """A two-host fabric is one wire: the sender holds its port for the
    serialization time and the peer NIC sees the payload one propagation
    delay after the last bit left."""
    sim = Simulator()
    fabric, _a, _b = build_pair(sim, SYSTEM_L)
    got = []
    fabric.nic(1).deliver = lambda payload: got.append((sim.now, payload))

    left = []
    fabric.transmit(0, 1, 4096, "payload", lambda _: left.append(sim.now))
    sim.run()
    left_wire, = left
    assert left_wire == pytest.approx(fabric.serialization_ns(4096))
    assert got == [(pytest.approx(left_wire + fabric.propagation_ns), "payload")]
    with pytest.raises(HardwareError):
        fabric.nic(2)


def test_nic_counters_track_traffic():
    sim = Simulator(seed=1)
    _fabric, host_a, host_b = build_pair(sim, SYSTEM_L)

    def main():
        a, b = yield from make_rc_pair(host_a, host_b, "bypass", "bypass")
        for i in range(3):
            yield from b.post_recv(RecvWR(wr_id=i, addr=b.buf.addr,
                                          length=b.buf.length, lkey=b.mr.lkey))
        for i in range(3):
            yield from a.post_send(SendWR(wr_id=i, opcode=Opcode.SEND,
                                          addr=a.buf.addr, length=1024,
                                          lkey=a.mr.lkey))
        got = 0
        while got < 3:
            got += len((yield from b.wait_recv()))

    sim.run(sim.process(main()))
    sim.run()
    assert host_a.nic.counters.tx_msgs == 3
    assert host_b.nic.counters.rx_msgs == 3
    assert host_b.nic.counters.acks_sent == 3
    assert host_b.nic.counters.rx_bytes >= 3 * 1024


def test_ud_drop_when_no_recv_posted():
    sim = Simulator(seed=1)
    _fabric, host_a, host_b = build_pair(sim, SYSTEM_L)

    def main():
        a, b = yield from make_ud_pair(host_a, host_b, "bypass", "bypass")
        wr = SendWR(wr_id=1, opcode=Opcode.SEND, addr=a.buf.addr, length=256,
                    lkey=a.mr.lkey, ah=b.addr)
        yield from a.post_send(wr)
        cqes = yield from a.wait_send()  # UD send still completes locally
        assert cqes[0].ok
        yield sim.timeout(us(50))
        return b.host.nic.counters.ud_drops

    assert sim.run(sim.process(main())) == 1


def test_memory_watch_fires_only_for_overlapping_range():
    sim = Simulator(seed=1)
    _fabric, host_a, host_b = build_pair(sim, SYSTEM_L)

    def main():
        a, b = yield from make_rc_pair(host_a, host_b, "bypass", "bypass")
        hit = b.host.nic.watch_memory(b.buf.addr, 64)
        miss = b.host.nic.watch_memory(b.buf.addr + 1 << 20, 64)
        wr = SendWR(wr_id=1, opcode=Opcode.RDMA_WRITE, addr=a.buf.addr,
                    length=64, lkey=a.mr.lkey,
                    remote_addr=b.buf.addr, rkey=b.mr.rkey)
        yield from a.post_send(wr)
        yield from a.wait_send()
        yield sim.timeout(us(10))
        return hit.triggered, miss.triggered

    assert sim.run(sim.process(main())) == (True, False)
