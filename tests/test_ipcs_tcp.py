"""Unit tests for the simulated TCP IPCS."""

import pytest

from repro.errors import AddressInUse, ChannelClosed, ConnectionRefused, NetworkUnreachable
from repro.ipcs import SimTcpIpcs
from repro.machine import SimProcess


@pytest.fixture
def pair(sched, ether, vax1, sun1):
    """Server process on sun1 listening; client process on vax1."""
    server_proc = SimProcess(sun1, "server")
    client_proc = SimProcess(vax1, "client")
    server_ipcs = sun1.ipcs_for("ether0", "tcp")
    client_ipcs = vax1.ipcs_for("ether0", "tcp")
    listener = server_ipcs.listen(server_proc, "5000")
    return client_proc, client_ipcs, server_proc, listener


def test_address_blob_format(pair):
    _, _, _, listener = pair
    assert listener.address_blob() == "tcp:ether0:sun1:5000"
    assert SimTcpIpcs.parse_blob("tcp:ether0:sun1:5000") == ("ether0", "sun1", 5000)


def test_parse_blob_rejects_other_protocols():
    with pytest.raises(ValueError):
        SimTcpIpcs.parse_blob("mbx:ring0://a/b")


def test_connect_and_exchange(sched, pair):
    client_proc, client_ipcs, _, listener = pair
    accepted = []
    listener.on_accept = accepted.append
    channel = client_ipcs.connect(client_proc, listener.address_blob())
    assert channel.open
    assert len(accepted) == 1
    server_channel = accepted[0]

    client_got, server_got = [], []
    channel.set_receive_handler(client_got.extend)
    server_channel.set_receive_handler(server_got.extend)
    channel.send(b"ping")
    sched.run_until_idle()
    assert server_got == [b"ping"]
    server_channel.send(b"pong")
    sched.run_until_idle()
    assert client_got == [b"pong"]


def test_connect_refused_when_no_listener(sched, pair):
    client_proc, client_ipcs, _, _ = pair
    with pytest.raises(ConnectionRefused, match="refused"):
        client_ipcs.connect(client_proc, "tcp:ether0:sun1:9999")


def test_connect_times_out_when_host_dead(sched, pair, sun1):
    client_proc, client_ipcs, _, listener = pair
    sun1.crash()
    with pytest.raises(ConnectionRefused, match="timed out"):
        client_ipcs.connect(client_proc, "tcp:ether0:sun1:5000", timeout=1.0)


def test_connect_wrong_network_unreachable(pair):
    client_proc, client_ipcs, _, _ = pair
    with pytest.raises(NetworkUnreachable):
        client_ipcs.connect(client_proc, "tcp:othernet:sun1:5000")


def test_port_collision(pair, sun1):
    server_proc = SimProcess(sun1, "second")
    with pytest.raises(AddressInUse):
        sun1.ipcs_for("ether0", "tcp").listen(server_proc, "5000")


def test_ephemeral_ports_allocated(sun1):
    proc = SimProcess(sun1, "p")
    ipcs = sun1.ipcs_for("ether0", "tcp")
    l1 = ipcs.listen(proc)
    l2 = ipcs.listen(proc)
    assert l1.binding != l2.binding


def test_stream_coalescing(sched, pair):
    """Sends queued back-to-back arrive as one coalesced chunk — the
    byte-stream semantics the ND-Layer driver must frame around."""
    client_proc, client_ipcs, _, listener = pair
    accepted = []
    listener.on_accept = accepted.append
    channel = client_ipcs.connect(client_proc, listener.address_blob())
    got = []
    accepted[0].set_receive_handler(got.extend)
    channel.send(b"abc")
    channel.send(b"def")
    sched.run_until_idle()
    assert b"".join(got) == b"abcdef"
    assert len(got) == 1  # coalesced


def test_send_on_closed_channel_raises(sched, pair):
    client_proc, client_ipcs, _, listener = pair
    channel = client_ipcs.connect(client_proc, listener.address_blob())
    channel.close()
    with pytest.raises(ChannelClosed):
        channel.send(b"late")


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
    assert not accepted[0].open


def test_process_death_closes_channels_and_notifies(sched, pair):
    client_proc, client_ipcs, server_proc, listener = pair
    accepted = []
    listener.on_accept = accepted.append
    channel = client_ipcs.connect(client_proc, listener.address_blob())
    reasons = []
    channel.set_close_handler(reasons.append)
    server_proc.kill()
    sched.run_until_idle()
    assert reasons  # client learned of the death via the wire
    assert not channel.open


def test_close_handler_fires_immediately_if_already_closed(sched, pair):
    client_proc, client_ipcs, _, listener = pair
    channel = client_ipcs.connect(client_proc, listener.address_blob())
    channel.close()
    reasons = []
    channel.set_close_handler(reasons.append)
    assert reasons == ["closed by local end"]


def test_retransmission_recovers_lost_segment(sched, ether, pair):
    client_proc, client_ipcs, _, listener = pair
    accepted = []
    listener.on_accept = accepted.append
    channel = client_ipcs.connect(client_proc, listener.address_blob())
    got = []
    accepted[0].set_receive_handler(got.extend)
    ether.faults.drop_next(1)
    channel.send(b"retried")
    sched.run_until_idle()
    assert got == [b"retried"]
    assert client_ipcs.segments_retransmitted >= 1


def test_retransmission_preserves_order_after_loss(sched, ether, pair):
    client_proc, client_ipcs, _, listener = pair
    accepted = []
    listener.on_accept = accepted.append
    channel = client_ipcs.connect(client_proc, listener.address_blob())
    got = []
    accepted[0].set_receive_handler(got.extend)
    ether.faults.drop_next(1)  # first data segment lost
    channel.send(b"one")
    channel.send(b"two")
    channel.send(b"three")
    sched.run_until_idle()
    assert b"".join(got) == b"onetwothree"


def test_persistent_partition_aborts_channel(sched, ether, pair):
    client_proc, client_ipcs, _, listener = pair
    channel = client_ipcs.connect(client_proc, listener.address_blob())
    reasons = []
    channel.set_close_handler(reasons.append)
    ether.faults.sever("vax1", "sun1")
    channel.send(b"doomed")
    sched.run_until_idle()
    assert reasons == ["retransmission timeout"]


def test_syn_retry_survives_single_loss(sched, ether, pair):
    client_proc, client_ipcs, _, listener = pair
    ether.faults.drop_next(1)  # the SYN
    channel = client_ipcs.connect(client_proc, listener.address_blob())
    assert channel.open


def test_duplicate_syn_does_not_create_second_channel(sched, ether, pair):
    """If the SYNACK is lost the client retransmits its SYN; the server
    must answer again without opening a second connection."""
    client_proc, client_ipcs, _, listener = pair
    accepted = []
    listener.on_accept = accepted.append
    ether.faults.drop_next(2)  # SYN and then the first SYNACK... drop SYN, then SYNACK
    channel = client_ipcs.connect(client_proc, listener.address_blob())
    sched.run_until_idle()
    assert channel.open
    assert len(accepted) == 1


def test_listener_close_refuses_new_connects(sched, pair):
    client_proc, client_ipcs, _, listener = pair
    listener.close()
    with pytest.raises(ConnectionRefused):
        client_ipcs.connect(client_proc, "tcp:ether0:sun1:5000")


def test_bytes_accounting(sched, pair):
    client_proc, client_ipcs, _, listener = pair
    accepted = []
    listener.on_accept = accepted.append
    channel = client_ipcs.connect(client_proc, listener.address_blob())
    accepted[0].set_receive_handler(lambda chunks: None)
    channel.send(b"12345")
    sched.run_until_idle()
    assert channel.bytes_sent == 5
    assert accepted[0].bytes_received == 5
