"""Behavior-contract tests run against BOTH native IPCSs.

The ND-Layer relies on a common core of behaviour from every IPCS
(connect/accept, bidirectional transfer, close notification, process
teardown); this suite pins that contract with one parametrized body —
while the IPCS-specific suites cover what legitimately differs."""

import pytest

from repro.errors import ChannelClosed, ConnectionRefused
from repro.ipcs import SimMbxIpcs, SimTcpIpcs
from repro.machine import APOLLO, Machine, SimProcess, SUN3, VAX
from repro.netsim import Network, Scheduler


class _Rig:
    def __init__(self, protocol):
        self.sched = Scheduler()
        self.net = Network(self.sched, "net0", latency=0.001)
        kind = SimTcpIpcs if protocol == "tcp" else SimMbxIpcs
        self.machine_a = Machine(self.sched, "hosta", VAX)
        self.machine_a.attach_network(self.net)
        self.ipcs_a = kind(self.machine_a, self.net)
        self.machine_b = Machine(self.sched, "hostb", SUN3)
        self.machine_b.attach_network(self.net)
        self.ipcs_b = kind(self.machine_b, self.net)
        self.server = SimProcess(self.machine_b, "server")
        self.client = SimProcess(self.machine_a, "client")
        self.listener = self.ipcs_b.listen(self.server)


@pytest.fixture(params=["tcp", "mbx"])
def rig(request):
    return _Rig(request.param)


def test_contract_connect_and_accept(rig):
    accepted = []
    rig.listener.on_accept = accepted.append
    channel = rig.ipcs_a.connect(rig.client, rig.listener.address_blob())
    assert channel.open
    assert len(accepted) == 1
    assert accepted[0].open


def test_contract_bidirectional_bytes(rig):
    accepted = []
    rig.listener.on_accept = accepted.append
    channel = rig.ipcs_a.connect(rig.client, rig.listener.address_blob())
    a_got, b_got = [], []
    channel.set_receive_handler(a_got.extend)
    accepted[0].set_receive_handler(b_got.extend)
    channel.send(b"to-b")
    accepted[0].send(b"to-a")
    rig.sched.run_until_idle()
    assert b"".join(b_got) == b"to-b"
    assert b"".join(a_got) == b"to-a"


def test_contract_refused_when_no_listener(rig):
    rig.listener.close()
    with pytest.raises(ConnectionRefused):
        rig.ipcs_a.connect(rig.client, rig.listener.address_blob())


def test_contract_send_after_close_raises(rig):
    channel = rig.ipcs_a.connect(rig.client, rig.listener.address_blob())
    channel.close()
    with pytest.raises(ChannelClosed):
        channel.send(b"late")


def test_contract_peer_close_notifies_once(rig):
    accepted = []
    rig.listener.on_accept = accepted.append
    channel = rig.ipcs_a.connect(rig.client, rig.listener.address_blob())
    reasons = []
    accepted[0].set_close_handler(reasons.append)
    channel.close()
    channel.close()  # idempotent
    rig.sched.run_until_idle()
    assert reasons == ["closed by peer"]


def test_contract_process_death_tears_down_everything(rig):
    accepted = []
    rig.listener.on_accept = accepted.append
    channel = rig.ipcs_a.connect(rig.client, rig.listener.address_blob())
    client_reasons = []
    channel.set_close_handler(client_reasons.append)
    rig.server.kill()
    rig.sched.run_until_idle()
    assert not channel.open
    assert client_reasons
    # The listener died with the process: new connects are refused.
    with pytest.raises(ConnectionRefused):
        rig.ipcs_a.connect(rig.client, rig.listener.address_blob())


def test_contract_in_order_delivery(rig):
    accepted = []
    rig.listener.on_accept = accepted.append
    channel = rig.ipcs_a.connect(rig.client, rig.listener.address_blob())
    got = []
    accepted[0].set_receive_handler(got.extend)
    for i in range(20):
        channel.send(f"m{i:02d}".encode())
    rig.sched.run_until_idle()
    joined = b"".join(got).decode()
    assert joined == "".join(f"m{i:02d}" for i in range(20))


def test_contract_many_concurrent_channels(rig):
    accepted = []
    rig.listener.on_accept = accepted.append
    channels = [
        rig.ipcs_a.connect(rig.client, rig.listener.address_blob())
        for _ in range(10)
    ]
    assert len(accepted) == 10
    got = []
    for i, server_chan in enumerate(accepted):
        server_chan.set_receive_handler(
            lambda chunks, i=i: got.extend((i, c) for c in chunks))
    for i, chan in enumerate(channels):
        chan.send(f"ch{i}".encode())
    rig.sched.run_until_idle()
    assert sorted(got) == [(i, f"ch{i}".encode()) for i in range(10)]
