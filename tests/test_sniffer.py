"""Tests for the wire tap (:class:`~repro.netsim.tracelog.NetTraceLog`
behind :meth:`Testbed.record_wire_trace`), including wire-level
faithfulness checks of the paper's conversion claims."""

import pytest

from deployments import echo_server, single_net
from repro.errors import SimulationError
from repro.ntcs import message as m
from repro.ntcs.message import HEADER_BYTES


@pytest.fixture
def bed():
    return single_net()


def _between(log, host_a, host_b):
    """All recorded frames between two hosts (either direction)."""
    return [event for event in log.events
            if {event["args"]["src"], event["args"]["dst"]} == {host_a, host_b}]


def _payload_bytes(log):
    """Every bytes blob carried by a recorded frame."""
    return [bytes.fromhex(blob)
            for event in log.events for blob in event["args"]["frames"]]


def test_sniffer_records_frames(bed):
    log = bed.record_wire_trace()
    echo_server(bed, "dest", "sun1")
    client = bed.module("client", "vax1")
    uadd = client.ali.locate("dest")
    client.ali.call(uadd, "echo", {"n": 1, "text": "x"})
    assert len(log) > 0
    assert _between(log, "vax1", "sun1")
    log.detach()
    count = len(log)
    client.ali.call(uadd, "echo", {"n": 2, "text": "y"})
    assert len(log) == count  # detached: nothing new


def test_double_attach_rejected(bed):
    """A network has one trace hook: a second tap must fail loudly, not
    silently end the first log's recording."""
    first = bed.record_wire_trace()
    with pytest.raises(SimulationError):
        bed.record_wire_trace()
    echo_server(bed, "dest", "sun1")
    assert len(first) > 0  # the first log still owns the hook
    first.detach()
    second = bed.record_wire_trace()  # a detached hook is free again
    client = bed.module("client", "vax1")
    client.ali.locate("dest")
    assert len(second) > 0


def _ntcs_messages(log):
    """Parse NTCS messages out of recorded TCP segments (length-framed).
    Each TCP segment carries one framed message in these tests, so a
    blob that fails to decode fails the test."""
    return [m.Msg.decode(blob[4:]) for blob in _payload_bytes(log)
            if len(blob) >= 4 + HEADER_BYTES]


def test_wire_headers_are_shift_mode_everywhere(bed):
    """Every NTCS message on the wire starts with the shift-mode magic
    in the same byte order, whatever machines are involved."""
    log = bed.record_wire_trace()
    echo_server(bed, "dest", "sun1")
    client = bed.module("client", "vax1")
    uadd = client.ali.locate("dest")
    client.ali.call(uadd, "echo", {"n": 1, "text": "x"})
    framed = [b for b in _payload_bytes(log) if len(b) >= 4 + HEADER_BYTES]
    assert framed
    for blob in framed:
        assert blob[4:8] == b"NTCS"  # magic, MSB first, always


def test_wire_bodies_between_unlike_machines_are_character_data(bed):
    """Sec. 5 at the byte level: tap VAX→Sun application traffic and
    check the packed body really is the ASCII character transport
    format."""
    log = bed.record_wire_trace()
    echo_server(bed, "dest", "sun1")
    client = bed.module("client", "vax1")
    uadd = client.ali.locate("dest")
    log.clear()
    client.ali.call(uadd, "echo", {"n": 0x01020304, "text": "wired"})
    app_messages = [msg for msg in _ntcs_messages(log)
                    if msg.kind == m.DATA and msg.type_id == 100]
    assert app_messages
    for msg in app_messages:
        assert msg.mode == 1  # packed on the wire
        assert all(9 <= byte < 127 for byte in msg.body), (
            "packed body must be character data"
        )
        assert b"16909060" in msg.body  # 0x01020304 as decimal ASCII
