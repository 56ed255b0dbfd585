"""Unit tests for the simulated Apollo MBX IPCS."""

import pytest

from repro.errors import AddressInUse, ChannelClosed, ConnectionRefused, NetworkUnreachable
from repro.ipcs import SimMbxIpcs
from repro.machine import SimProcess


@pytest.fixture
def pair(sched, ring, apollo1, apollo2):
    """Mailbox server on apollo2; client process on apollo1."""
    server_proc = SimProcess(apollo2, "mbx-server")
    client_proc = SimProcess(apollo1, "mbx-client")
    server_ipcs = apollo2.ipcs_for("ring0", "mbx")
    client_ipcs = apollo1.ipcs_for("ring0", "mbx")
    listener = server_ipcs.listen(server_proc, "/mbx/service")
    return client_proc, client_ipcs, server_proc, listener


def test_address_blob_is_pathname(pair):
    _, _, _, listener = pair
    assert listener.address_blob() == "mbx:ring0://apollo2/mbx/service"
    assert SimMbxIpcs.parse_blob("mbx:ring0://apollo2/mbx/service") == (
        "ring0", "apollo2", "/mbx/service",
    )


def test_parse_blob_rejects_tcp():
    with pytest.raises(ValueError):
        SimMbxIpcs.parse_blob("tcp:ether0:sun1:5000")


def test_open_and_exchange(sched, pair):
    client_proc, client_ipcs, _, listener = pair
    accepted = []
    listener.on_accept = accepted.append
    channel = client_ipcs.connect(client_proc, listener.address_blob())
    assert channel.open
    got = []
    accepted[0].set_receive_handler(got.extend)
    channel.send(b"record-1")
    sched.run_until_idle()
    assert got == [b"record-1"]


def test_record_boundaries_preserved(sched, pair):
    """Unlike TCP, MBX must deliver one record per send — never
    coalesced."""
    client_proc, client_ipcs, _, listener = pair
    accepted = []
    listener.on_accept = accepted.append
    channel = client_ipcs.connect(client_proc, listener.address_blob())
    got = []
    accepted[0].set_receive_handler(got.extend)
    channel.send(b"abc")
    channel.send(b"def")
    sched.run_until_idle()
    assert got == [b"abc", b"def"]  # two records, not one chunk


def test_open_nak_when_no_mailbox(pair):
    client_proc, client_ipcs, _, _ = pair
    with pytest.raises(ConnectionRefused, match="no such mailbox"):
        client_ipcs.connect(client_proc, "mbx:ring0://apollo2/mbx/ghost")


def test_open_timeout_when_host_crashed(pair, apollo2):
    client_proc, client_ipcs, _, listener = pair
    apollo2.crash()
    with pytest.raises(ConnectionRefused, match="timed out"):
        client_ipcs.connect(client_proc, listener.address_blob(), timeout=0.5)


def test_wrong_network_unreachable(pair):
    client_proc, client_ipcs, _, _ = pair
    with pytest.raises(NetworkUnreachable):
        client_ipcs.connect(client_proc, "mbx:otherring://apollo2/mbx/service")


def test_mailbox_name_collision(pair, apollo2):
    proc = SimProcess(apollo2, "p2")
    with pytest.raises(AddressInUse):
        apollo2.ipcs_for("ring0", "mbx").listen(proc, "/mbx/service")


def test_auto_mailbox_names_unique(apollo1):
    proc = SimProcess(apollo1, "p")
    ipcs = apollo1.ipcs_for("ring0", "mbx")
    l1 = ipcs.listen(proc)
    l2 = ipcs.listen(proc)
    assert l1.binding != l2.binding


def test_lost_record_aborts_channel_no_retransmit(sched, ring, pair):
    """MBX does not retransmit: a lost record kills the channel."""
    client_proc, client_ipcs, _, listener = pair
    channel = client_ipcs.connect(client_proc, listener.address_blob())
    reasons = []
    channel.set_close_handler(reasons.append)
    ring.faults.drop_next(1)
    channel.send(b"doomed")
    sched.run_until_idle()
    assert reasons == ["record not acknowledged"]
    with pytest.raises(ChannelClosed):
        channel.send(b"after")


def test_close_notifies_peer(sched, pair):
    client_proc, client_ipcs, _, listener = pair
    accepted = []
    listener.on_accept = accepted.append
    channel = client_ipcs.connect(client_proc, listener.address_blob())
    reasons = []
    accepted[0].set_close_handler(reasons.append)
    channel.close()
    sched.run_until_idle()
    assert reasons == ["closed by peer"]


def test_server_process_death_closes_client_channel(sched, pair):
    client_proc, client_ipcs, server_proc, listener = pair
    channel = client_ipcs.connect(client_proc, listener.address_blob())
    reasons = []
    channel.set_close_handler(reasons.append)
    server_proc.kill()
    sched.run_until_idle()
    assert reasons
    assert not channel.open


def test_bidirectional_records(sched, pair):
    client_proc, client_ipcs, _, listener = pair
    accepted = []
    listener.on_accept = accepted.append
    channel = client_ipcs.connect(client_proc, listener.address_blob())
    client_got = []
    channel.set_receive_handler(client_got.extend)
    accepted[0].send(b"from-server")
    sched.run_until_idle()
    assert client_got == [b"from-server"]


def test_many_clients_one_mailbox(sched, pair, apollo1):
    _, client_ipcs, _, listener = pair
    accepted = []
    listener.on_accept = accepted.append
    clients = []
    for i in range(5):
        proc = SimProcess(apollo1, f"client{i}")
        clients.append(client_ipcs.connect(proc, listener.address_blob()))
    assert len(accepted) == 5
    got = []
    for server_channel in accepted:
        server_channel.set_receive_handler(got.extend)
    for i, chan in enumerate(clients):
        chan.send(f"hello-{i}".encode())
    sched.run_until_idle()
    assert sorted(got) == [f"hello-{i}".encode() for i in range(5)]
