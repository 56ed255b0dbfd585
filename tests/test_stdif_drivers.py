"""Unit tests for the STD-IF drivers: framing over streams, records
over mailboxes, and the driver factory."""

import pytest

from repro.errors import ProtocolError
from repro.ipcs import SimMbxIpcs, SimTcpIpcs
from repro.machine import SimProcess
from repro.ntcs.drivers import make_driver
from repro.ntcs.drivers.sim_mbx import RecordChannel, SimMbxDriver
from repro.ntcs.drivers.sim_tcp import FramedChannel, SimTcpDriver


class FakeChannel:
    """Just enough of an IPCS channel to exercise framing."""

    def __init__(self):
        self.sent = []
        self.open = True
        self._receive_handler = None
        self._close_handler = None

    def set_receive_handler(self, handler):
        self._receive_handler = handler

    def set_close_handler(self, handler):
        self._close_handler = handler

    def send(self, data):
        self.sent.append(data)

    def close(self):
        self.open = False

    def feed(self, data):
        self._receive_handler([data])


# -- FramedChannel (tcp) --------------------------------------------------------

def test_framed_send_prefixes_length():
    fake = FakeChannel()
    framed = FramedChannel(fake)
    framed.send_message(b"hello")
    assert fake.sent == [b"\x00\x00\x00\x05hello"]


def test_framed_reassembles_fragmented_input():
    fake = FakeChannel()
    framed = FramedChannel(fake)
    got = []
    framed.set_message_handler(got.extend)
    wire = b"\x00\x00\x00\x05hello" + b"\x00\x00\x00\x02hi"
    # Deliver byte-by-byte: worst-case fragmentation.
    for i in range(len(wire)):
        fake.feed(wire[i:i + 1])
    assert got == [b"hello", b"hi"]


def test_framed_handles_coalesced_input():
    fake = FakeChannel()
    framed = FramedChannel(fake)
    got = []
    framed.set_message_handler(got.extend)
    fake.feed(b"\x00\x00\x00\x03abc\x00\x00\x00\x03def\x00\x00")
    fake.feed(b"\x00\x03ghi")
    assert got == [b"abc", b"def", b"ghi"]


def test_framed_empty_message():
    fake = FakeChannel()
    framed = FramedChannel(fake)
    got = []
    framed.set_message_handler(got.extend)
    framed.send_message(b"")
    fake.feed(b"\x00\x00\x00\x00")
    assert got == [b""]


def test_framed_rejects_insane_length():
    fake = FakeChannel()
    framed = FramedChannel(fake)
    framed.set_message_handler(lambda msgs: None)
    with pytest.raises(ProtocolError, match="insane"):
        fake.feed(b"\xFF\xFF\xFF\xFF")


def test_framed_round_trip_via_two_endpoints():
    a, b = FakeChannel(), FakeChannel()
    framed_a = FramedChannel(a)
    framed_b = FramedChannel(b)
    got = []
    framed_b.set_message_handler(got.extend)
    for message in (b"x" * 1, b"y" * 1000, b""):
        framed_a.send_message(message)
    for chunk in a.sent:
        b.feed(chunk)
    assert got == [b"x", b"y" * 1000, b""]


# -- RecordChannel (mbx) ------------------------------------------------------

def test_record_channel_is_one_to_one():
    fake = FakeChannel()
    record = RecordChannel(fake)
    got = []
    record.set_message_handler(got.extend)
    record.send_message(b"whole message")
    assert fake.sent == [b"whole message"]  # no prefix
    fake.feed(b"r1")
    fake.feed(b"r2")
    assert got == [b"r1", b"r2"]


# -- factory -----------------------------------------------------------------

def test_make_driver_dispatch(sched, ether, ring, vax1, apollo1):
    tcp_driver = make_driver(vax1.ipcs_for("ether0", "tcp"))
    mbx_driver = make_driver(apollo1.ipcs_for("ring0", "mbx"))
    assert isinstance(tcp_driver, SimTcpDriver)
    assert isinstance(mbx_driver, SimMbxDriver)
    assert tcp_driver.network_name == "ether0"
    assert mbx_driver.network_name == "ring0"

    class WeirdIpcs:
        protocol = "carrier-pigeon"

    with pytest.raises(ValueError):
        make_driver(WeirdIpcs())


def test_drivers_listen_and_connect_end_to_end(sched, ether, vax1, sun1):
    driver_a = make_driver(vax1.ipcs_for("ether0", "tcp"))
    driver_b = make_driver(sun1.ipcs_for("ether0", "tcp"))
    server = SimProcess(sun1, "server")
    client = SimProcess(vax1, "client")
    accepted = []
    blob = driver_b.listen(server, accepted.append)
    assert blob.startswith("tcp:ether0:sun1:")
    mchan = driver_a.connect(client, blob)
    got = []
    accepted[0].set_message_handler(got.extend)
    mchan.send_message(b"framed over the stream")
    sched.run_until_idle()
    assert got == [b"framed over the stream"]


def test_driver_listen_with_pinned_binding(sched, ether, sun1):
    driver = make_driver(sun1.ipcs_for("ether0", "tcp"))
    process = SimProcess(sun1, "ns")
    blob = driver.listen(process, lambda mchan: None, binding="411")
    assert blob == "tcp:ether0:sun1:411"
